//! The top-level noise model and its per-round prepared form.

use antalloc_rng::{AntRng, Bernoulli, SplitMix64};

use crate::feedback::Feedback;
use crate::policy::GreyZonePolicy;
use crate::sigmoid::lack_probability;

/// A feedback generator, configured once per simulation.
///
/// At the start of each round the engine calls [`NoiseModel::prepare`]
/// with the deficits frozen at the end of the previous round; ants then
/// draw their private signals from the returned [`PreparedRound`].
#[derive(Clone, Debug, PartialEq)]
pub enum NoiseModel {
    /// §2.2 sigmoid feedback: `P[lack] = s(λ·Δ)`, i.i.d. per ant per task.
    Sigmoid {
        /// Steepness `λ` of the sigmoid.
        lambda: f64,
    },
    /// Remark 3.4: sigmoid marginals, but with probability `rho` a task's
    /// draw in a round is *shared by every ant* (perfect correlation)
    /// instead of i.i.d. The marginal `P(lack)` is unchanged.
    CorrelatedSigmoid {
        /// Steepness `λ` of the sigmoid.
        lambda: f64,
        /// Probability that a (task, round) uses one shared draw.
        rho: f64,
        /// Seed for the model's internal shared-draw stream.
        seed: u64,
    },
    /// §2.2 adversarial feedback: exact truth outside the grey zone
    /// `[−γ_ad·d, γ_ad·d]`, `policy` inside it.
    Adversarial {
        /// The adversary's grey-zone half-width as a fraction of demand.
        gamma_ad: f64,
        /// Behaviour inside the grey zone.
        policy: GreyZonePolicy,
    },
    /// Noise-free binary feedback (the model of \[11\]): `lack` iff
    /// `W ≤ d`, i.e. iff the deficit is non-negative.
    Exact,
}

/// Per-task sampling state for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskFeedback {
    /// Every ant draws i.i.d.: `lack` iff the next `u64` is below the
    /// threshold (a [`Bernoulli`] in raw form).
    Random {
        /// `P[lack]` as a 2^64-scaled threshold.
        lack_threshold: u64,
    },
    /// Every ant receives the same fixed signal this round.
    Fixed(Feedback),
}

/// All tasks' sampling state for one round; cheap to rebuild every round.
/// The default is an empty row for [`NoiseModel::prepare_into`] to fill.
///
/// A spatial round also carries one row per site
/// ([`PreparedRound::localize`]): an ant at a site senses that site's
/// row ([`PreparedRound::site_view`]) instead of the shared one.
#[derive(Clone, Debug, Default)]
pub struct PreparedRound {
    tasks: Vec<TaskFeedback>,
    round: u64,
    /// `(sites + 1) · k` entries after [`PreparedRound::localize`], row
    /// `r` at `r·k..(r+1)·k`; empty for a well-mixed round.
    site_rows: Vec<TaskFeedback>,
}

impl NoiseModel {
    /// Checks the model's parameters against a colony with `num_tasks`
    /// tasks, returning a description of the first problem found.
    ///
    /// Scenario-level validation (and timeline `set-noise` events) call
    /// this so a noise model that would produce meaningless feedback is
    /// rejected at build time instead of mid-run.
    pub fn validate(&self, num_tasks: usize) -> Result<(), String> {
        match self {
            NoiseModel::Sigmoid { lambda } => {
                if !(lambda.is_finite() && *lambda > 0.0) {
                    return Err(format!(
                        "sigmoid steepness λ must be positive and finite, got {lambda}"
                    ));
                }
            }
            NoiseModel::CorrelatedSigmoid { lambda, rho, .. } => {
                if !(lambda.is_finite() && *lambda > 0.0) {
                    return Err(format!(
                        "sigmoid steepness λ must be positive and finite, got {lambda}"
                    ));
                }
                if !(rho.is_finite() && (0.0..=1.0).contains(rho)) {
                    return Err(format!("correlation ρ must be in [0, 1], got {rho}"));
                }
            }
            NoiseModel::Adversarial { gamma_ad, policy } => {
                if !(gamma_ad.is_finite() && (0.0..1.0).contains(gamma_ad)) {
                    return Err(format!(
                        "grey-zone width γ_ad must be in [0, 1), got {gamma_ad}"
                    ));
                }
                match policy {
                    GreyZonePolicy::RandomLack(p)
                        if !(p.is_finite() && (0.0..=1.0).contains(p)) =>
                    {
                        return Err(format!(
                            "random-lack probability must be in [0, 1], got {p}"
                        ));
                    }
                    GreyZonePolicy::LoadThreshold(thresholds) if thresholds.len() != num_tasks => {
                        return Err(format!(
                            "load-threshold policy has {} thresholds, colony has \
                             {num_tasks} tasks",
                            thresholds.len()
                        ));
                    }
                    _ => {}
                }
            }
            NoiseModel::Exact => {}
        }
        Ok(())
    }

    /// Folds a round's deficits into per-task sampling state.
    ///
    /// `deficits[j] = d(j) − W(j)` at the end of the previous round;
    /// `demands[j] = d(j)`. Allocates a fresh row; round drivers reuse
    /// one through [`NoiseModel::prepare_into`].
    pub fn prepare(&self, round: u64, deficits: &[i64], demands: &[u64]) -> PreparedRound {
        let mut prepared = PreparedRound::default();
        self.prepare_into(&mut prepared, round, deficits, demands);
        prepared
    }

    /// [`NoiseModel::prepare`] into an existing row, reusing its
    /// capacity: once the row has held `deficits.len()` tasks, preparing
    /// a round allocates nothing. The result equals `prepare`'s.
    pub fn prepare_into(
        &self,
        prepared: &mut PreparedRound,
        round: u64,
        deficits: &[i64],
        demands: &[u64],
    ) {
        assert_eq!(deficits.len(), demands.len());
        prepared.site_rows.clear();
        let tasks = &mut prepared.tasks;
        tasks.clear();
        prepared.round = round;
        match self {
            NoiseModel::Sigmoid { lambda } => tasks.extend(
                deficits
                    .iter()
                    .map(|&delta| bernoulli_task(lack_probability(*lambda, delta))),
            ),
            NoiseModel::CorrelatedSigmoid { lambda, rho, seed } => {
                tasks.extend(deficits.iter().enumerate().map(|(j, &delta)| {
                    let p = lack_probability(*lambda, delta);
                    // Deterministic per-(round, task) auxiliary draws so
                    // replays and checkpoints agree.
                    let mut aux = SplitMix64::new(
                        seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((j as u64) << 32),
                    );
                    let share = (aux.next_u64() as f64 / u64::MAX as f64) < *rho;
                    if share {
                        let shared_lack = (aux.next_u64() as f64 / u64::MAX as f64) < p;
                        TaskFeedback::Fixed(if shared_lack {
                            Feedback::Lack
                        } else {
                            Feedback::Overload
                        })
                    } else {
                        bernoulli_task(p)
                    }
                }))
            }
            NoiseModel::Adversarial { gamma_ad, policy } => tasks.extend(
                deficits
                    .iter()
                    .zip(demands)
                    .enumerate()
                    .map(|(j, (&delta, &d))| {
                        let edge = gamma_ad * d as f64;
                        let delta_f = delta as f64;
                        if delta_f > edge {
                            TaskFeedback::Fixed(Feedback::Lack)
                        } else if delta_f < -edge {
                            TaskFeedback::Fixed(Feedback::Overload)
                        } else {
                            match policy.fixed_answer(j, round, delta, d) {
                                Some(answer) => TaskFeedback::Fixed(answer),
                                None => bernoulli_task(
                                    policy.random_lack_probability().expect("random policy"),
                                ),
                            }
                        }
                    }),
            ),
            NoiseModel::Exact => tasks.extend(
                deficits
                    .iter()
                    .map(|&delta| TaskFeedback::Fixed(Feedback::truth(delta))),
            ),
        }
    }

    /// The marginal `P[lack]` an ant faces for a given deficit, when that
    /// probability is well-defined independent of round and task index
    /// (`None` for round-dependent adversarial policies).
    pub fn marginal_lack_probability(&self, deficit: i64, demand: u64) -> Option<f64> {
        match self {
            NoiseModel::Sigmoid { lambda } | NoiseModel::CorrelatedSigmoid { lambda, .. } => {
                Some(lack_probability(*lambda, deficit))
            }
            NoiseModel::Exact => Some(if deficit >= 0 { 1.0 } else { 0.0 }),
            NoiseModel::Adversarial { gamma_ad, policy } => {
                let edge = gamma_ad * demand as f64;
                let delta_f = deficit as f64;
                if delta_f > edge {
                    Some(1.0)
                } else if delta_f < -edge {
                    Some(0.0)
                } else {
                    match policy {
                        GreyZonePolicy::RandomLack(p) => Some(*p),
                        GreyZonePolicy::AlwaysLack => Some(1.0),
                        GreyZonePolicy::AlwaysOverload => Some(0.0),
                        GreyZonePolicy::Truthful => Some(if deficit >= 0 { 1.0 } else { 0.0 }),
                        GreyZonePolicy::Inverted => Some(if deficit >= 0 { 0.0 } else { 1.0 }),
                        _ => None,
                    }
                }
            }
        }
    }

    /// True iff the model is stochastic (needs per-ant RNG draws).
    pub fn is_stochastic(&self) -> bool {
        match self {
            NoiseModel::Sigmoid { .. } | NoiseModel::CorrelatedSigmoid { .. } => true,
            NoiseModel::Adversarial { policy, .. } => {
                matches!(policy, GreyZonePolicy::RandomLack(_))
            }
            NoiseModel::Exact => false,
        }
    }
}

#[inline]
fn bernoulli_task(p: f64) -> TaskFeedback {
    let b = Bernoulli::new(p);
    let (lack_threshold, always) = b.raw_threshold();
    if b.never() {
        TaskFeedback::Fixed(Feedback::Overload)
    } else if always {
        TaskFeedback::Fixed(Feedback::Lack)
    } else {
        // The raw 2^64-scaled threshold, taken losslessly: recovering it
        // through `probability()` would round the 64-bit threshold to an
        // f64 mantissa and re-truncate, shifting realized probabilities
        // near 1 by up to 2^-54.
        TaskFeedback::Random { lack_threshold }
    }
}

/// A borrowed, `Copy` view of one round's sampling state.
///
/// Engines that step ants bank-wise construct the view **once per bank
/// per round** and hand it to every ant in the bank, instead of
/// re-borrowing the owning [`PreparedRound`] through a fresh probe per
/// ant. The view is two words (slice pointer + round), so cloning it
/// into a [`crate::FeedbackProbe`] is free.
#[derive(Clone, Copy, Debug)]
pub struct RoundView<'a> {
    tasks: &'a [TaskFeedback],
    round: u64,
}

impl RoundView<'_> {
    /// Number of tasks visible this round.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The round these signals describe.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Draws the signal for `task` for one ant (see
    /// [`PreparedRound::sample`] for the at-most-once contract).
    #[inline(always)]
    pub fn sample(&self, task: usize, rng: &mut AntRng) -> Feedback {
        match self.tasks[task] {
            TaskFeedback::Fixed(f) => f,
            TaskFeedback::Random { lack_threshold } => {
                if rng.next_u64() < lack_threshold {
                    Feedback::Lack
                } else {
                    Feedback::Overload
                }
            }
        }
    }

    /// Draws one ant's **full signal vector** in one pass: `out[j] = 1`
    /// iff the signal for task `j` is `lack`, for every task in index
    /// order. This is the batched sampling step the structure-of-arrays
    /// bank loops use for their idle paths (an idle ant samples every
    /// task), hoisting the per-call dispatch out of the per-task loop —
    /// the generator advance + threshold compare run as one tight,
    /// vectorizable loop, like [`antalloc_rng::Bernoulli::fill`].
    ///
    /// Bit-identical to calling [`RoundView::sample`] per task in index
    /// order: the same draws are consumed from `rng` (none for `Fixed`
    /// signals), with the same results.
    ///
    /// # Panics
    /// If `out.len() != self.num_tasks()`.
    #[inline]
    pub fn fill_lack(&self, rng: &mut AntRng, out: &mut [u8]) {
        assert_eq!(out.len(), self.tasks.len(), "one slot per task");
        for (slot, task) in out.iter_mut().zip(self.tasks) {
            *slot = match *task {
                TaskFeedback::Fixed(f) => u8::from(f.is_lack()),
                TaskFeedback::Random { lack_threshold } => {
                    u8::from(rng.next_u64() < lack_threshold)
                }
            };
        }
    }

    /// Bit-packed [`RoundView::fill_lack`]: bit `j` is set iff task
    /// `j`'s signal is `lack`. Same draws consumed, in the same task
    /// order, but the result lands in one register instead of a row
    /// buffer — the form the flat bank loops fold straight into a
    /// popcount + nth-set-bit uniform pick.
    ///
    /// # Precondition
    /// At most 64 tasks; callers with more must branch to
    /// [`RoundView::fill_lack`]. The kernels gate on `num_tasks() <= 64`
    /// before taking this path, and scenario validation caps the task
    /// count at build time, so the precondition is checked once up front
    /// rather than asserted per draw in the hot loop (debug builds still
    /// assert).
    #[inline]
    pub fn lack_mask(&self, rng: &mut AntRng) -> u64 {
        debug_assert!(self.tasks.len() <= 64, "lack_mask: more than 64 tasks");
        let mut mask = 0u64;
        for (j, task) in self.tasks.iter().enumerate() {
            let lack = match *task {
                TaskFeedback::Fixed(f) => f.is_lack(),
                TaskFeedback::Random { lack_threshold } => rng.next_u64() < lack_threshold,
            };
            mask |= u64::from(lack) << j;
        }
        mask
    }
}

impl PreparedRound {
    /// Number of tasks.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The round these signals describe.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// A borrowed slice-level view for bank-wise stepping.
    #[inline]
    pub fn view(&self) -> RoundView<'_> {
        RoundView {
            tasks: &self.tasks,
            round: self.round,
        }
    }

    /// Draws the signal for `task` for one ant.
    ///
    /// Each (ant, task) pair must draw **at most once per round** — the
    /// signal is a single random variable. [`crate::FeedbackProbe`]
    /// enforces this in debug builds.
    #[inline(always)]
    pub fn sample(&self, task: usize, rng: &mut AntRng) -> Feedback {
        self.view().sample(task, rng)
    }

    /// The per-task states (for diagnostics and tests).
    pub fn tasks(&self) -> &[TaskFeedback] {
        &self.tasks
    }

    /// Builds the round's per-site rows for tasks pinned at
    /// `site_of_task` (sites `0..sites`, one past its largest entry):
    /// row `s` holds task `j`'s feedback iff `site_of_task[j] == s` and
    /// a [`TaskFeedback::Fixed`] `Overload` elsewhere, and the trailing
    /// row `sites` is all-`Overload` (the blind row travelers sense).
    /// Masked entries consume no draws, so an ant's draw sequence never
    /// depends on where it stands. O(rows); reuses the rows' capacity.
    /// [`NoiseModel::prepare_into`] clears the rows.
    ///
    /// # Panics
    /// If `site_of_task` does not pin every task.
    pub fn localize(&mut self, site_of_task: &[u32]) {
        assert_eq!(site_of_task.len(), self.tasks.len(), "one site per task");
        let k = self.tasks.len();
        let sites = site_of_task.iter().max().map_or(0, |&s| s as usize + 1);
        self.site_rows.clear();
        self.site_rows
            .resize((sites + 1) * k, TaskFeedback::Fixed(Feedback::Overload));
        for (j, (&site, &feedback)) in site_of_task.iter().zip(&self.tasks).enumerate() {
            self.site_rows[site as usize * k + j] = feedback;
        }
    }

    /// The view an ant sensing site row `row` draws from (row `sites` is
    /// the blind row; see [`PreparedRound::localize`]).
    ///
    /// # Panics
    /// If the round has no row `row`.
    #[inline(always)]
    pub fn site_view(&self, row: usize) -> RoundView<'_> {
        let k = self.tasks.len();
        RoundView {
            tasks: &self.site_rows[row * k..(row + 1) * k],
            round: self.round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_rng::AntRng;

    fn count_lack(prep: &PreparedRound, task: usize, draws: u32, seed: u64) -> f64 {
        let mut rng = AntRng::seed_from_u64(seed);
        let hits = (0..draws)
            .filter(|_| prep.sample(task, &mut rng).is_lack())
            .count();
        hits as f64 / f64::from(draws)
    }

    #[test]
    fn sigmoid_marginals_match_function() {
        let model = NoiseModel::Sigmoid { lambda: 0.3 };
        let deficits = [-10i64, 0, 10];
        let demands = [100u64, 100, 100];
        let prep = model.prepare(1, &deficits, &demands);
        for (j, &delta) in deficits.iter().enumerate() {
            let want = lack_probability(0.3, delta);
            let got = count_lack(&prep, j, 100_000, 42 + j as u64);
            assert!((got - want).abs() < 0.01, "task {j}: got {got} want {want}");
        }
    }

    #[test]
    fn sigmoid_saturates_to_fixed() {
        // A deficit so large the probability quantizes to 1 must become a
        // Fixed signal (and never consume RNG).
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let prep = model.prepare(0, &[100_000, -100_000], &[10, 10]);
        assert_eq!(prep.tasks()[0], TaskFeedback::Fixed(Feedback::Lack));
        assert_eq!(prep.tasks()[1], TaskFeedback::Fixed(Feedback::Overload));
    }

    #[test]
    fn prepare_into_reuses_the_row_and_matches_prepare() {
        let models = [
            NoiseModel::Sigmoid { lambda: 0.3 },
            NoiseModel::CorrelatedSigmoid {
                lambda: 0.3,
                rho: 0.5,
                seed: 9,
            },
            NoiseModel::Adversarial {
                gamma_ad: 0.1,
                policy: GreyZonePolicy::RandomLack(0.25),
            },
            NoiseModel::Exact,
        ];
        let mut row = PreparedRound::default();
        for (round, model) in (1u64..).zip(models.iter().cycle().take(12)) {
            let deficits = [round as i64 - 6, 0, 3, -40];
            let demands = [100u64; 4];
            let capacity = row.tasks.capacity();
            model.prepare_into(&mut row, round, &deficits, &demands);
            let fresh = model.prepare(round, &deficits, &demands);
            assert_eq!(row.tasks(), fresh.tasks(), "round {round}");
            assert_eq!(row.round(), fresh.round());
            if round > 1 {
                assert_eq!(
                    row.tasks.capacity(),
                    capacity,
                    "round {round} regrew the row"
                );
            }
        }
    }

    #[test]
    fn localize_masks_all_but_each_sites_tasks() {
        let model = NoiseModel::Sigmoid { lambda: 0.3 };
        let mut row = model.prepare(4, &[1, -2, 3], &[10; 3]);
        row.localize(&[1, 0, 1]);
        let masked = TaskFeedback::Fixed(Feedback::Overload);
        let tasks = row.tasks().to_vec();
        assert_eq!(row.site_view(0).tasks, &[masked, tasks[1], masked]);
        assert_eq!(row.site_view(1).tasks, &[tasks[0], masked, tasks[2]]);
        assert_eq!(row.site_view(2).tasks, &[masked; 3]); // the blind row
        assert_eq!(row.site_view(2).round(), 4);
        // Preparing the next round drops the rows.
        model.prepare_into(&mut row, 5, &[0; 3], &[10; 3]);
        assert!(row.site_rows.is_empty());
    }

    #[test]
    fn exact_model_is_truth() {
        let model = NoiseModel::Exact;
        let prep = model.prepare(0, &[3, 0, -3], &[10, 10, 10]);
        assert_eq!(prep.tasks()[0], TaskFeedback::Fixed(Feedback::Lack));
        assert_eq!(prep.tasks()[1], TaskFeedback::Fixed(Feedback::Lack));
        assert_eq!(prep.tasks()[2], TaskFeedback::Fixed(Feedback::Overload));
        assert!(!model.is_stochastic());
    }

    #[test]
    fn adversarial_truthful_outside_zone() {
        let model = NoiseModel::Adversarial {
            gamma_ad: 0.1,
            policy: GreyZonePolicy::Inverted,
        };
        // demand 100 → zone edge at |Δ| = 10.
        let prep = model.prepare(0, &[11, -11, 5, -5], &[100, 100, 100, 100]);
        assert_eq!(prep.tasks()[0], TaskFeedback::Fixed(Feedback::Lack));
        assert_eq!(prep.tasks()[1], TaskFeedback::Fixed(Feedback::Overload));
        // Inside the zone the Inverted policy lies.
        assert_eq!(prep.tasks()[2], TaskFeedback::Fixed(Feedback::Overload));
        assert_eq!(prep.tasks()[3], TaskFeedback::Fixed(Feedback::Lack));
    }

    #[test]
    fn adversarial_zone_edges_are_inclusive() {
        // Definition: arbitrary value when Δ ∈ [−γd, γd]; the policy
        // applies exactly at the edges.
        let model = NoiseModel::Adversarial {
            gamma_ad: 0.1,
            policy: GreyZonePolicy::AlwaysOverload,
        };
        let prep = model.prepare(0, &[10, -10], &[100, 100]);
        assert_eq!(prep.tasks()[0], TaskFeedback::Fixed(Feedback::Overload));
        assert_eq!(prep.tasks()[1], TaskFeedback::Fixed(Feedback::Overload));
    }

    #[test]
    fn random_policy_samples_inside_zone_only() {
        let model = NoiseModel::Adversarial {
            gamma_ad: 0.2,
            policy: GreyZonePolicy::RandomLack(0.5),
        };
        let prep = model.prepare(0, &[0, 50], &[100, 100]);
        assert!(matches!(prep.tasks()[0], TaskFeedback::Random { .. }));
        assert_eq!(prep.tasks()[1], TaskFeedback::Fixed(Feedback::Lack));
        assert!(model.is_stochastic());
        let freq = count_lack(&prep, 0, 50_000, 7);
        assert!((freq - 0.5).abs() < 0.02);
    }

    #[test]
    fn correlated_marginal_matches_sigmoid() {
        // Average over many (round, task) preparations: the marginal
        // P[lack] must track s(λΔ) even though draws are shared.
        let model = NoiseModel::CorrelatedSigmoid {
            lambda: 0.2,
            rho: 0.7,
            seed: 5,
        };
        let delta = 3i64;
        let want = lack_probability(0.2, delta);
        let mut rng = AntRng::seed_from_u64(11);
        let rounds = 40_000u64;
        let mut lacks = 0u64;
        for r in 0..rounds {
            let prep = model.prepare(r, &[delta], &[100]);
            if prep.sample(0, &mut rng).is_lack() {
                lacks += 1;
            }
        }
        let freq = lacks as f64 / rounds as f64;
        assert!((freq - want).abs() < 0.02, "freq {freq} want {want}");
    }

    #[test]
    fn correlated_shared_rounds_are_deterministic() {
        let model = NoiseModel::CorrelatedSigmoid {
            lambda: 0.2,
            rho: 1.0,
            seed: 5,
        };
        let a = model.prepare(3, &[1], &[100]);
        let b = model.prepare(3, &[1], &[100]);
        assert_eq!(a.tasks()[0], b.tasks()[0]);
        assert!(matches!(a.tasks()[0], TaskFeedback::Fixed(_)));
    }

    #[test]
    fn marginal_probability_reporting() {
        let sig = NoiseModel::Sigmoid { lambda: 0.5 };
        assert_eq!(sig.marginal_lack_probability(0, 10), Some(0.5));
        let adv = NoiseModel::Adversarial {
            gamma_ad: 0.1,
            policy: GreyZonePolicy::AlternateByRound,
        };
        assert_eq!(adv.marginal_lack_probability(100, 100), Some(1.0));
        assert_eq!(adv.marginal_lack_probability(-100, 100), Some(0.0));
        assert_eq!(adv.marginal_lack_probability(0, 100), None);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        NoiseModel::Exact.prepare(0, &[1, 2], &[10]);
    }

    mod properties {
        use super::super::*;
        use proptest::prelude::*;

        fn any_policy() -> impl Strategy<Value = GreyZonePolicy> {
            prop_oneof![
                Just(GreyZonePolicy::AlwaysLack),
                Just(GreyZonePolicy::AlwaysOverload),
                Just(GreyZonePolicy::Truthful),
                Just(GreyZonePolicy::Inverted),
                Just(GreyZonePolicy::AlternateByRound),
                (0.0f64..=1.0).prop_map(GreyZonePolicy::RandomLack),
            ]
        }

        proptest! {
            /// The §2.2 contract: outside the grey zone the adversary
            /// MUST tell the truth — for every policy, round, deficit.
            #[test]
            fn adversary_never_lies_outside_the_zone(
                policy in any_policy(),
                gamma_ad in 0.01f64..0.5,
                demand in 1u64..100_000,
                deficit in -200_000i64..200_000,
                round in 0u64..1000,
            ) {
                let model = NoiseModel::Adversarial { gamma_ad, policy };
                let prep = model.prepare(round, &[deficit], &[demand]);
                let edge = gamma_ad * demand as f64;
                if (deficit as f64) > edge {
                    prop_assert_eq!(
                        prep.tasks()[0],
                        TaskFeedback::Fixed(Feedback::Lack)
                    );
                } else if (deficit as f64) < -edge {
                    prop_assert_eq!(
                        prep.tasks()[0],
                        TaskFeedback::Fixed(Feedback::Overload)
                    );
                }
            }

            /// Sigmoid preparation is monotone: a larger deficit never
            /// lowers the lack threshold.
            #[test]
            fn sigmoid_thresholds_monotone_in_deficit(
                lambda in 0.01f64..8.0,
                d1 in -10_000i64..10_000,
                d2 in -10_000i64..10_000,
            ) {
                prop_assume!(d1 < d2);
                let model = NoiseModel::Sigmoid { lambda };
                let prep = model.prepare(1, &[d1, d2], &[100, 100]);
                let level = |t: &TaskFeedback| match t {
                    TaskFeedback::Fixed(Feedback::Overload) => 0u128,
                    TaskFeedback::Random { lack_threshold } => {
                        1 + u128::from(*lack_threshold)
                    }
                    TaskFeedback::Fixed(Feedback::Lack) => u128::MAX,
                };
                prop_assert!(level(&prep.tasks()[0]) <= level(&prep.tasks()[1]));
            }

            /// `prepare` is a pure function: same inputs, same state —
            /// the property checkpoint/replay correctness rests on.
            #[test]
            fn prepare_is_deterministic(
                lambda in 0.01f64..8.0,
                rho in 0.0f64..1.0,
                seed: u64,
                round in 0u64..10_000,
                deficit in -1000i64..1000,
            ) {
                let model = NoiseModel::CorrelatedSigmoid { lambda, rho, seed };
                let a = model.prepare(round, &[deficit], &[500]);
                let b = model.prepare(round, &[deficit], &[500]);
                prop_assert_eq!(a.tasks(), b.tasks());
            }
        }
    }
}
