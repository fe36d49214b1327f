//! A proportional-control rival to the paper's self-stabilizing ants.
//!
//! Motivated by *Proportional Control for Stochastic Regulation on
//! Allocation of Multi-Robots* (see PAPERS.md): instead of the paper's
//! two-sample median machinery, each ant acts on a single sample per
//! round, and the **expected number of ants that move** is proportional
//! to the sensed imbalance — every ant that senses `lack` somewhere
//! (while idle) or `overload` on its own task (while working) flips a
//! biased coin with probability `gain`. The colony-level correction per
//! round is therefore `gain × (ants sensing the error)`: a classic
//! stochastic P-controller, with the gain trading convergence speed
//! against oscillation under the synchronous flip-flop failure mode of
//! Appendix D.
//!
//! A `deadband` adds hysteresis: an ant acts only after the error
//! signal has persisted for `deadband + 1` consecutive rounds (its
//! per-ant streak counter), suppressing reactions to one-round noise
//! spikes the way a control deadband suppresses chatter.
//!
//! **Reference semantics.** [`ProportionalController`] (per ant) is the
//! truth; [`ProportionalBank`] is its flat structure-of-arrays layout
//! (one `u16` streak per ant; the colony's task column holds the
//! assignment) and consumes every
//! ant's RNG stream in exactly the order `Controller::step` would:
//! samples in task order, then the uniform pick, then the gain coin —
//! pinned bit-identical by the parity tests in `tests/banks.rs`.

use antalloc_env::Assignment;
use antalloc_noise::{FeedbackProbe, RoundView};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::{count_lacking, nth_lacking, nth_set_bit, scratch_row};
use crate::bank::{fits, BankError, Stepping};
use crate::cast::IDLE;
use crate::columns::{self, soa_bank};
use crate::controller::Controller;

/// Parameters of the proportional controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProportionalParams {
    /// Per-ant action probability once the error persists: the colony's
    /// expected correction per round is `gain ×` (ants sensing the
    /// error). Must be in `(0, 1]`.
    pub gain: f64,
    /// Consecutive error rounds an ant tolerates before it may act
    /// (`0` = react immediately, the pure P-controller).
    pub deadband: u16,
}

impl Default for ProportionalParams {
    fn default() -> Self {
        Self {
            gain: 0.5,
            deadband: 0,
        }
    }
}

impl ProportionalParams {
    /// Checks the parameter window, returning the first problem found
    /// (scenario validation wraps this in a typed error).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.gain.is_finite() && self.gain > 0.0 && self.gain <= 1.0) {
            return Err(format!("gain must be in (0, 1], got {}", self.gain));
        }
        Ok(())
    }
}

/// The proportional controller for one ant.
#[derive(Clone, Debug)]
pub struct ProportionalController {
    num_tasks: usize,
    params: ProportionalParams,
    gain: Bernoulli,
    assignment: Assignment,
    /// Consecutive rounds the error signal has persisted.
    streak: u16,
    /// Scratch bitmap of lacking tasks (reused across rounds).
    lacking: Vec<bool>,
}

impl ProportionalController {
    /// A controller for a colony with `num_tasks` tasks.
    pub fn new(num_tasks: usize, params: ProportionalParams) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            num_tasks,
            params,
            gain: Bernoulli::new(params.gain),
            assignment: Assignment::Idle,
            streak: 0,
            lacking: vec![false; num_tasks],
        }
    }

    /// Number of tasks this controller observes.
    pub fn num_tasks(&self) -> usize {
        self.num_tasks
    }

    /// The controller's parameters.
    pub fn params(&self) -> &ProportionalParams {
        &self.params
    }

    /// The persisted-error streak.
    pub fn streak(&self) -> u16 {
        self.streak
    }

    /// Overwrites the persisted-error streak (bank extraction; apply
    /// *after* [`Controller::reset_to`], which clears it).
    pub fn set_streak(&mut self, streak: u16) {
        self.streak = streak;
    }
}

impl Controller for ProportionalController {
    fn step(&mut self, probe: &mut FeedbackProbe<'_>) -> Assignment {
        match self.assignment {
            Assignment::Idle => {
                let mut count = 0usize;
                for j in 0..self.num_tasks {
                    let lack = probe.sample(j).is_lack();
                    self.lacking[j] = lack;
                    count += usize::from(lack);
                }
                if count > 0 {
                    self.streak = self.streak.saturating_add(1);
                    if self.streak > self.params.deadband {
                        // Pick first, then the gain coin — the bank
                        // consumes draws in the same order.
                        let pick = uniform_index(probe.rng(), count);
                        if self.gain.sample(probe.rng()) {
                            let j = self
                                .lacking
                                .iter()
                                .enumerate()
                                .filter(|(_, &l)| l)
                                .nth(pick)
                                .map(|(j, _)| j)
                                .expect("pick < count"); // audit:allow(panic-path): uniform_index returns < count, and count entries of `lacking` are true by the loop above.
                            self.assignment = crate::cast::dec(crate::cast::task_col(j));
                            self.streak = 0;
                        }
                    }
                } else {
                    self.streak = 0;
                }
            }
            Assignment::Task(j) => {
                if probe.sample(crate::cast::wide(j)).is_lack() {
                    self.streak = 0;
                } else {
                    self.streak = self.streak.saturating_add(1);
                    if self.streak > self.params.deadband && self.gain.sample(probe.rng()) {
                        self.assignment = Assignment::Idle;
                        self.streak = 0;
                    }
                }
            }
        }
        self.assignment
    }

    #[inline]
    fn assignment(&self) -> Assignment {
        self.assignment
    }

    fn reset_to(&mut self, a: Assignment) {
        self.assignment = a;
        self.streak = 0;
    }

    fn memory_bits(&self) -> u32 {
        crate::memory::proportional_memory_bits(self.num_tasks, self.params.deadband)
    }
}

soa_bank! {
    /// A homogeneous [`ProportionalController`] population in flat layout.
    pub struct ProportionalBank(num_tasks: usize, params: ProportionalParams) {
        params: ProportionalParams = params,
    }
    /// A disjoint mutable chunk of a [`ProportionalBank`].
    pub struct ProportionalSliceMut<'a> {
        gain: Bernoulli = Bernoulli::new(params.gain),
        deadband: u16 = params.deadband,
        num_tasks: usize = columns::tasks(num_tasks),
    }
    columns {
        /// Persisted-error streak per ant.
        streak: [u16] = 0 => Any,
    }
}

impl ProportionalBank {
    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &ProportionalParams {
        &self.params
    }

    /// Appends a per-ant controller, transposing its streak in (the
    /// colony's task column holds its assignment).
    ///
    /// # Errors
    /// If the controller runs other parameters or observes another
    /// number of tasks (see [`crate::ControllerBank::push`]).
    pub fn push_controller(&mut self, ant: &ProportionalController) -> Result<(), BankError> {
        fits(
            (self.num_tasks, &self.params),
            (ant.num_tasks(), ant.params()),
        )?;
        self.push_fresh();
        let slot = self.len() - 1;
        self.streak[slot] = ant.streak();
        Ok(())
    }

    /// Reconstructs the per-ant controller at `slot`, whose assignment
    /// is `a` (reference extraction; lossless — assignment plus streak
    /// is the whole state).
    pub fn to_controller(&self, slot: usize, a: Assignment) -> ProportionalController {
        let mut ant = ProportionalController::new(self.num_tasks, self.params);
        ant.reset_to(a);
        ant.set_streak(self.streak[slot]);
        ant
    }

    /// Forces the ant at `slot` into an assignment: its streak restarts.
    pub fn reset_slot(&mut self, slot: usize, _a: Assignment) {
        self.streak[slot] = 0;
    }

    /// Persistent memory in bits (the per-ant impl's accounting,
    /// `memory::proportional_memory_bits`).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::proportional_memory_bits(self.num_tasks, self.params.deadband)
    }
}

impl ProportionalSliceMut<'_> {
    /// Steps every ant in the chunk through `stepping`; bit-identical
    /// to per-ant [`Controller::step`] on [`ProportionalController`].
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let mut row = scratch_row(self.num_tasks);
        stepping.run(
            n,
            #[inline(always)]
            |i, cur, view, rng| self.step_one(i, cur, view, rng, &mut row),
        );
    }

    /// One ant's round from assignment `cur`. Draw order matches the
    /// reference: samples in task order (bit-packed batched draw for
    /// ≤ 64 tasks), then the uniform pick, then the gain coin; workers
    /// draw the gain coin only on a persisted `overload`.
    #[inline(always)]
    fn step_one(
        &mut self,
        i: usize,
        cur: u16,
        view: RoundView<'_>,
        rng: &mut AntRng,
        row: &mut [u8],
    ) -> u16 {
        let mut next = cur;
        if cur == IDLE {
            if self.num_tasks <= 64 {
                let mask = view.lack_mask(rng);
                if mask != 0 {
                    self.streak[i] = self.streak[i].saturating_add(1);
                    if self.streak[i] > self.deadband {
                        let pick = uniform_index(rng, mask.count_ones() as usize);
                        if self.gain.sample(rng) {
                            next = nth_set_bit(mask, pick);
                            self.streak[i] = 0;
                        }
                    }
                } else {
                    self.streak[i] = 0;
                }
            } else {
                view.fill_lack(rng, row);
                let count = count_lacking(row);
                if count > 0 {
                    self.streak[i] = self.streak[i].saturating_add(1);
                    if self.streak[i] > self.deadband {
                        let pick = uniform_index(rng, count);
                        if self.gain.sample(rng) {
                            next = nth_lacking(row, pick);
                            self.streak[i] = 0;
                        }
                    }
                } else {
                    self.streak[i] = 0;
                }
            }
        } else if view.sample(crate::cast::task_ix(cur), rng).is_lack() {
            self.streak[i] = 0;
        } else {
            self.streak[i] = self.streak[i].saturating_add(1);
            if self.streak[i] > self.deadband && self.gain.sample(rng) {
                next = IDLE;
                self.streak[i] = 0;
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_map::SlotMap;
    use crate::{AnyController, ControllerBank};
    use antalloc_noise::{Feedback, NoiseModel, PreparedRound};
    use antalloc_rng::{AntRng, StreamSeeder};

    use Feedback::{Lack as L, Overload as O};

    fn fixed_round(round: u64, signals: &[Feedback]) -> PreparedRound {
        let deficits: Vec<i64> = signals
            .iter()
            .map(|f| if f.is_lack() { 1 } else { -1 })
            .collect();
        NoiseModel::Exact.prepare(round, &deficits, &vec![100u64; signals.len()])
    }

    fn step_with(
        ant: &mut ProportionalController,
        round: u64,
        signals: &[Feedback],
        rng: &mut AntRng,
    ) -> Assignment {
        let prep = fixed_round(round, signals);
        let mut probe = FeedbackProbe::new(&prep, rng);
        ant.step(&mut probe)
    }

    #[test]
    fn unit_gain_zero_deadband_joins_immediately() {
        let mut rng = AntRng::seed_from_u64(1);
        let params = ProportionalParams {
            gain: 1.0,
            deadband: 0,
        };
        let mut ant = ProportionalController::new(3, params);
        let a = step_with(&mut ant, 1, &[O, L, O], &mut rng);
        assert_eq!(a, Assignment::Task(1));
    }

    #[test]
    fn deadband_delays_action_by_its_depth() {
        let mut rng = AntRng::seed_from_u64(2);
        let params = ProportionalParams {
            gain: 1.0,
            deadband: 2,
        };
        let mut ant = ProportionalController::new(1, params);
        ant.reset_to(Assignment::Task(0));
        // Two overload rounds persist inside the deadband; the third
        // crosses it and (gain 1) the ant leaves.
        assert_eq!(step_with(&mut ant, 1, &[O], &mut rng), Assignment::Task(0));
        assert_eq!(step_with(&mut ant, 2, &[O], &mut rng), Assignment::Task(0));
        assert_eq!(step_with(&mut ant, 3, &[O], &mut rng), Assignment::Idle);
    }

    #[test]
    fn lack_resets_the_deadband_streak() {
        let mut rng = AntRng::seed_from_u64(3);
        let params = ProportionalParams {
            gain: 1.0,
            deadband: 1,
        };
        let mut ant = ProportionalController::new(1, params);
        ant.reset_to(Assignment::Task(0));
        assert_eq!(step_with(&mut ant, 1, &[O], &mut rng), Assignment::Task(0));
        // A lack round clears the streak; the next overload starts over.
        assert_eq!(step_with(&mut ant, 2, &[L], &mut rng), Assignment::Task(0));
        assert_eq!(step_with(&mut ant, 3, &[O], &mut rng), Assignment::Task(0));
        assert_eq!(step_with(&mut ant, 4, &[O], &mut rng), Assignment::Idle);
    }

    #[test]
    fn gain_is_the_per_round_action_rate() {
        let params = ProportionalParams {
            gain: 0.25,
            deadband: 0,
        };
        let mut leaves = 0u32;
        let trials = 20_000u64;
        for seed in 0..trials {
            let mut rng = AntRng::seed_from_u64(seed);
            let mut ant = ProportionalController::new(1, params);
            ant.reset_to(Assignment::Task(0));
            if step_with(&mut ant, 1, &[O], &mut rng) == Assignment::Idle {
                leaves += 1;
            }
        }
        let frac = f64::from(leaves) / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "leave rate {frac}");
    }

    /// The flat bank against the per-ant reference, round for round,
    /// under sigmoid noise (joins, leaves, deadband streaks, coins),
    /// through the chunk loop (`step_batch`) and, on a twin bank, one
    /// slot at a time (`step_slot`, the sequential model's path) — at 3
    /// tasks and at 65, past the bit-packed 64-task `lack_mask` into the
    /// row-buffer fallback.
    #[test]
    fn bank_matches_per_ant_stepping() {
        for k in [3, 65] {
            bank_matches_per_ant_stepping_at(k);
        }
    }

    fn bank_matches_per_ant_stepping_at(k: usize) {
        let n = 150;
        let params = ProportionalParams {
            gain: 0.4,
            deadband: 1,
        };
        let seeder = StreamSeeder::new(17);
        let model = NoiseModel::Sigmoid { lambda: 1.5 };
        let deficits: Vec<i64> = (0..k).map(|j| [2, 0, -3][j % 3]).collect();
        let loads = vec![15; k];
        let mut bank = ControllerBank::Proportional(ProportionalBank::new(k, params, n));
        let mut twin = bank.clone();
        let mut reference: Vec<ProportionalController> = (0..n)
            .map(|_| ProportionalController::new(k, params))
            .collect();
        let streak = |bank: &ControllerBank, i: usize| match bank.to_any(i, Assignment::Idle) {
            AnyController::Proportional(c) => c.streak(),
            _ => unreachable!("a Proportional bank rebuilds its own kind"),
        };
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=60u64 {
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            let before = out.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                assert_eq!(ant.streak(), streak(&bank, i), "ant {i} streak");
                let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
                assert_eq!(ant.streak(), streak(&twin, i), "slot {i} streak");
            }
        }
        for (i, ant) in reference.iter().enumerate() {
            assert_eq!(out[i], ant.assignment());
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let params = ProportionalParams::default();
        let mut bank = ProportionalBank::new(2, params, 0);
        let mut ant = ProportionalController::new(2, params);
        ant.reset_to(Assignment::Task(1));
        ant.set_streak(3);
        bank.push_controller(&ant).unwrap();
        assert_eq!(bank.len(), 1);
        let back = bank.to_controller(0, Assignment::Task(1));
        assert_eq!(back.assignment(), Assignment::Task(1));
        assert_eq!(back.streak(), 3);
    }

    #[test]
    fn swap_remove_moves_both_columns() {
        let params = ProportionalParams::default();
        let mut bank = ProportionalBank::new(1, params, 3);
        bank.streak[1] = 4;
        bank.streak[2] = 5;
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.streak, [5, 4]);
    }

    #[test]
    fn params_validate_window() {
        assert!(ProportionalParams::default().validate().is_ok());
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let p = ProportionalParams {
                gain: bad,
                deadband: 0,
            };
            assert!(p.validate().is_err(), "gain {bad} must be rejected");
        }
    }
}
