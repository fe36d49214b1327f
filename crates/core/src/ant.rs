//! §4 Algorithm Ant: the constant-memory two-sample protocol.
//!
//! Time is divided into phases of two rounds. In the first (odd) round
//! every ant takes a sample of the feedback and working ants *pause*
//! with probability `c_s·γ`, thinning the load; in the second (even)
//! round the ants sample again — now observing the thinned load — and:
//!
//! * a working ant whose two samples both said `overload` leaves
//!   permanently with probability `γ/c_d`, otherwise resumes;
//! * an idle ant joins a task chosen uniformly among those whose two
//!   samples both said `lack` (if any).
//!
//! Because the samples are spaced `≈ c_s·γ·W` apart, at least one of
//! them lies outside the grey zone w.h.p., so the load only ever moves
//! in the right direction; once inside the stable zone
//! `[d(1+γ), d(1+(0.9c_s−1)γ)]` neither rule fires and the allocation
//! parks there (Theorem 3.1).

use antalloc_env::Assignment;
use antalloc_noise::{Feedback, FeedbackProbe};
use antalloc_rng::{uniform_index, Bernoulli};

use crate::controller::Controller;
use crate::params::AntParams;

/// The Algorithm Ant controller for one ant.
#[derive(Clone, Debug)]
pub struct AlgorithmAnt {
    params: AntParams,
    /// Phase offset in rounds (0 in the paper's fully-synchronized
    /// model). §6 poses "less synchronization" as an open problem; a
    /// non-zero offset desynchronizes this ant's two-sample phase from
    /// the colony's, and `exp_open_desync` measures what that costs.
    phase_offset: u64,
    pause: Bernoulli,
    leave: Bernoulli,
    /// `currentTask` of the pseudocode: the task this phase is about
    /// (kept across the temporary pause), or `Idle`.
    pub(crate) current_task: Assignment,
    /// `a_t`: the output assignment of the last round.
    pub(crate) assignment: Assignment,
    /// First samples for all tasks (idle path); valid iff `have_s1`.
    /// With `s1_current` and `have_s1`, this is the persistent state
    /// [`crate::AntBank`] transposes (`s2_all` is within-round scratch).
    pub(crate) s1_all: Vec<Feedback>,
    /// Scratch for the second samples (idle path).
    s2_all: Vec<Feedback>,
    /// First sample for the current task (working path).
    pub(crate) s1_current: Feedback,
    /// Whether a first sample was taken this phase (stale-state guard
    /// after resets that land mid-phase).
    pub(crate) have_s1: bool,
}

impl AlgorithmAnt {
    /// A controller for a colony with `num_tasks` tasks.
    pub fn new(num_tasks: usize, params: AntParams) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            params,
            phase_offset: 0,
            pause: Bernoulli::new(params.pause_probability()),
            leave: Bernoulli::new(params.leave_probability()),
            current_task: Assignment::Idle,
            assignment: Assignment::Idle,
            s1_all: vec![Feedback::Overload; num_tasks],
            s2_all: vec![Feedback::Overload; num_tasks],
            s1_current: Feedback::Overload,
            have_s1: false,
        }
    }

    /// A controller whose phase clock runs `offset` rounds behind the
    /// colony's — the "less synchronization" variant of §6's open
    /// problem. With `offset = 1` this ant takes its first sample while
    /// synchronized ants take their second.
    pub fn with_phase_offset(num_tasks: usize, params: AntParams, offset: u64) -> Self {
        let mut ant = Self::new(num_tasks, params);
        ant.phase_offset = offset;
        ant
    }

    /// The parameters in use.
    pub fn params(&self) -> &AntParams {
        &self.params
    }

    /// This ant's phase offset (0 = fully synchronized).
    pub fn phase_offset(&self) -> u64 {
        self.phase_offset
    }

    /// Number of tasks this controller observes.
    pub fn num_tasks(&self) -> usize {
        self.s1_all.len()
    }

    fn step_first_sample(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        // Line 4: currentTask ← a_{t−1}.
        self.current_task = self.assignment;
        match self.current_task {
            Assignment::Task(j) => {
                // Working ants only consult their own task's signal; the
                // paper notes (Remark 3.4) that full-vector feedback is
                // not required.
                self.s1_current = probe.sample(j as usize);
                self.have_s1 = true;
                // Line 6: temporary pause w.p. c_s·γ.
                if self.pause.sample(probe.rng()) {
                    self.assignment = Assignment::Idle;
                } else {
                    self.assignment = Assignment::Task(j);
                }
            }
            Assignment::Idle => {
                for j in 0..self.s1_all.len() {
                    self.s1_all[j] = probe.sample(j);
                }
                self.have_s1 = true;
                self.assignment = Assignment::Idle;
            }
        }
        self.assignment
    }

    fn step_second_sample(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        match self.current_task {
            Assignment::Idle => {
                // Lines 9–11: join a uniformly random doubly-lacking task.
                for j in 0..self.s2_all.len() {
                    self.s2_all[j] = probe.sample(j);
                }
                let joinable = |j: usize| self.s1_all[j].is_lack() && self.s2_all[j].is_lack();
                let count = if self.have_s1 {
                    (0..self.s1_all.len()).filter(|&j| joinable(j)).count()
                } else {
                    0
                };
                self.assignment = if count == 0 {
                    Assignment::Idle
                } else {
                    let pick = uniform_index(probe.rng(), count);
                    let j = (0..self.s1_all.len())
                        .filter(|&j| joinable(j))
                        .nth(pick)
                        .expect("pick < count");
                    Assignment::Task(j as u32)
                };
            }
            Assignment::Task(j) => {
                // Lines 12–13: leave permanently w.p. γ/c_d iff both
                // samples said overload; otherwise resume.
                let s2 = probe.sample(j as usize);
                let both_overload = self.have_s1 && !self.s1_current.is_lack() && !s2.is_lack();
                self.assignment = if both_overload && self.leave.sample(probe.rng()) {
                    Assignment::Idle
                } else {
                    Assignment::Task(j)
                };
            }
        }
        self.have_s1 = false;
        self.assignment
    }
}

impl Controller for AlgorithmAnt {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        // The paper's clock starts at t = 1 with the first sample taken
        // at odd t; the engine guarantees rounds are 1-based.
        if (probe.round() + self.phase_offset) % 2 == 1 {
            self.step_first_sample(probe)
        } else {
            self.step_second_sample(probe)
        }
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        self.assignment
    }

    fn reset_to(&mut self, a: Assignment) {
        self.assignment = a;
        self.current_task = a;
        self.have_s1 = false;
    }

    fn memory_bits(&self) -> u32 {
        crate::memory::ant_memory_bits(self.s1_all.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use antalloc_noise::{GreyZonePolicy, NoiseModel, PreparedRound};
    use antalloc_rng::AntRng;

    /// A prepared round where every task's signal is fixed.
    fn fixed_round(round: u64, signals: &[Feedback]) -> PreparedRound {
        // Exact model: lack iff deficit ≥ 0; encode the desired signal in
        // the sign of a synthetic deficit.
        let deficits: Vec<i64> = signals
            .iter()
            .map(|f| if f.is_lack() { 1 } else { -1 })
            .collect();
        let demands = vec![100u64; signals.len()];
        NoiseModel::Exact.prepare(round, &deficits, &demands)
    }

    /// Params that make the probabilistic branches deterministic.
    fn det_params(pause: bool, leave: bool) -> AntParams {
        AntParams {
            gamma: 0.05,
            cs: if pause { 20.0 } else { 0.0 },  // c_s·γ = 1 or 0
            cd: if leave { 0.05 } else { 1e18 }, // γ/c_d = 1 or ~0
        }
    }

    fn step_with(
        ant: &mut AlgorithmAnt,
        round: u64,
        signals: &[Feedback],
        rng: &mut AntRng,
    ) -> Assignment {
        let prep = fixed_round(round, signals);
        let mut probe = FeedbackProbe::new(&prep, rng);
        ant.step(&mut probe)
    }

    use Feedback::{Lack as L, Overload as O};

    #[test]
    fn idle_ant_joins_doubly_lacking_task() {
        let mut rng = AntRng::seed_from_u64(1);
        let mut ant = AlgorithmAnt::new(3, det_params(false, false));
        // Phase: only task 2 is lacking in both samples.
        step_with(&mut ant, 1, &[O, O, L], &mut rng);
        let a = step_with(&mut ant, 2, &[O, L, L], &mut rng);
        assert_eq!(a, Assignment::Task(2));
    }

    #[test]
    fn idle_ant_needs_both_samples_lacking() {
        let mut rng = AntRng::seed_from_u64(2);
        let mut ant = AlgorithmAnt::new(2, det_params(false, false));
        // lack then overload → no join.
        step_with(&mut ant, 1, &[L, O], &mut rng);
        let a = step_with(&mut ant, 2, &[O, O], &mut rng);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn idle_join_is_uniform_over_candidates() {
        // Over many ants, joins should split roughly evenly between two
        // doubly-lacking tasks.
        let mut counts = [0u32; 2];
        for seed in 0..4000u64 {
            let mut rng = AntRng::seed_from_u64(seed);
            let mut ant = AlgorithmAnt::new(2, det_params(false, false));
            step_with(&mut ant, 1, &[L, L], &mut rng);
            match step_with(&mut ant, 2, &[L, L], &mut rng) {
                Assignment::Task(j) => counts[j as usize] += 1,
                Assignment::Idle => panic!("must join"),
            }
        }
        let ratio = f64::from(counts[0]) / f64::from(counts[0] + counts[1]);
        assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn worker_leaves_on_double_overload() {
        let mut rng = AntRng::seed_from_u64(3);
        let mut ant = AlgorithmAnt::new(2, det_params(false, true));
        ant.reset_to(Assignment::Task(0));
        step_with(&mut ant, 1, &[O, L], &mut rng);
        let a = step_with(&mut ant, 2, &[O, L], &mut rng);
        assert_eq!(a, Assignment::Idle);
        // And it stays idle next phase if nothing is doubly lacking.
        step_with(&mut ant, 3, &[O, O], &mut rng);
        let a = step_with(&mut ant, 4, &[O, O], &mut rng);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn worker_stays_on_mixed_samples() {
        let mut rng = AntRng::seed_from_u64(4);
        for (f1, f2) in [(O, L), (L, O), (L, L)] {
            let mut ant = AlgorithmAnt::new(1, det_params(false, true));
            ant.reset_to(Assignment::Task(0));
            step_with(&mut ant, 1, &[f1], &mut rng);
            let a = step_with(&mut ant, 2, &[f2], &mut rng);
            assert_eq!(a, Assignment::Task(0), "({f1:?},{f2:?})");
        }
    }

    #[test]
    fn pause_is_temporary() {
        let mut rng = AntRng::seed_from_u64(5);
        let mut ant = AlgorithmAnt::new(1, det_params(true, false));
        ant.reset_to(Assignment::Task(0));
        // Pause probability 1 → assignment drops to idle for the odd round.
        let a = step_with(&mut ant, 1, &[O], &mut rng);
        assert_eq!(a, Assignment::Idle);
        // Mixed samples → resumes work at the even round.
        let a = step_with(&mut ant, 2, &[L], &mut rng);
        assert_eq!(a, Assignment::Task(0));
    }

    #[test]
    fn paused_ant_still_leaves_on_double_overload() {
        let mut rng = AntRng::seed_from_u64(6);
        let mut ant = AlgorithmAnt::new(1, det_params(true, true));
        ant.reset_to(Assignment::Task(0));
        step_with(&mut ant, 1, &[O], &mut rng);
        let a = step_with(&mut ant, 2, &[O], &mut rng);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn reset_mid_phase_is_conservative() {
        // A scramble lands the ant on a task just before an even round;
        // without a first sample it must not leave or join.
        let mut rng = AntRng::seed_from_u64(7);
        let mut ant = AlgorithmAnt::new(2, det_params(false, true));
        ant.reset_to(Assignment::Task(1));
        let a = step_with(&mut ant, 2, &[O, O], &mut rng);
        assert_eq!(a, Assignment::Task(1));
        // Idle reset mid-phase: no join without a first sample.
        ant.reset_to(Assignment::Idle);
        let a = step_with(&mut ant, 4, &[L, L], &mut rng);
        assert_eq!(a, Assignment::Idle);
    }

    #[test]
    fn statistical_leave_rate_matches_gamma_over_cd() {
        // With both samples overloaded every phase, the per-phase leave
        // probability must be γ/c_d.
        let params = AntParams {
            gamma: 1.0 / 16.0,
            cs: 0.0,
            cd: 4.0,
        };
        let p_leave = params.leave_probability(); // 1/64
        let trials = 40_000u32;
        let mut left = 0u32;
        for seed in 0..trials {
            let mut rng = AntRng::seed_from_u64(u64::from(seed) + 10_000);
            let mut ant = AlgorithmAnt::new(1, params);
            ant.reset_to(Assignment::Task(0));
            step_with(&mut ant, 1, &[O], &mut rng);
            if step_with(&mut ant, 2, &[O], &mut rng).is_idle() {
                left += 1;
            }
        }
        let freq = f64::from(left) / f64::from(trials);
        let sigma = (p_leave * (1.0 - p_leave) / f64::from(trials)).sqrt();
        assert!(
            (freq - p_leave).abs() < 5.0 * sigma,
            "freq {freq} want {p_leave}"
        );
    }

    #[test]
    fn phase_offset_shifts_the_sample_schedule() {
        // An offset-1 ant takes its FIRST sample at even rounds.
        let mut rng = AntRng::seed_from_u64(21);
        let mut ant = AlgorithmAnt::with_phase_offset(2, det_params(false, false), 1);
        assert_eq!(ant.phase_offset(), 1);
        // Round 2 (+1 → odd): first sample; round 3 (+1 → even): second.
        step_with(&mut ant, 2, &[L, L], &mut rng);
        let a = step_with(&mut ant, 3, &[L, L], &mut rng);
        assert_eq!(a, Assignment::Task(0).task().map(|_| a).unwrap_or(a));
        assert!(!a.is_idle(), "offset ant decides at shifted rounds");
        // A synchronized ant with the same inputs is still mid-phase at
        // round 3 and cannot have joined at round 2.
        let mut rng = AntRng::seed_from_u64(21);
        let mut synced = AlgorithmAnt::new(2, det_params(false, false));
        let a2 = step_with(&mut synced, 2, &[L, L], &mut rng);
        assert!(a2.is_idle(), "round 2 is a second-sample round with no s1");
    }

    #[test]
    fn memory_is_linear_in_tasks_not_n() {
        let small = AlgorithmAnt::new(4, AntParams::default()).memory_bits();
        let large = AlgorithmAnt::new(64, AntParams::default()).memory_bits();
        assert!(small < large);
        assert!(large <= 64 + 8);
    }

    #[test]
    fn works_under_adversarial_prepared_rounds() {
        // Smoke: drive an ant with an adversarial model for many rounds;
        // assignment must always be a legal value.
        let model = NoiseModel::Adversarial {
            gamma_ad: 0.1,
            policy: GreyZonePolicy::AlternateByRound,
        };
        let mut rng = AntRng::seed_from_u64(8);
        let mut ant = AlgorithmAnt::new(3, AntParams::default());
        for t in 1..=1000u64 {
            let prep = model.prepare(t, &[5, -5, 0], &[60, 60, 60]);
            let mut probe = FeedbackProbe::new(&prep, &mut rng);
            let a = ant.step(&mut probe);
            assert_eq!(a, ant.assignment());
            if let Assignment::Task(j) = a {
                assert!(j < 3);
            }
        }
    }
}
