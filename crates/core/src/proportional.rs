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
//! (one `u16` assignment + one `u16` streak per ant) and consumes every
//! ant's RNG stream in exactly the order `Controller::step` would:
//! samples in task order, then the uniform pick, then the gain coin —
//! pinned bit-identical by the parity tests in `tests/banks.rs`.

use antalloc_env::Assignment;
use antalloc_noise::{FeedbackProbe, RoundView};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::{count_lacking, nth_lacking, nth_set_bit, scratch_row};
use crate::bank::{split_chunk, Stepping};
use crate::cast::{dec, enc, IDLE};
use crate::controller::Controller;
use crate::slot_map::SlotMap;

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

    /// The persisted-error streak (checkpoint capture).
    pub fn streak(&self) -> u16 {
        self.streak
    }

    /// Overwrites the persisted-error streak (checkpoint restore; apply
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
        // The assignment (k+1 states) plus the deadband streak, which
        // only needs to distinguish 0..=deadband+1.
        crate::memory::bits_for_states(self.num_tasks + 1)
            + crate::memory::bits_for_states(usize::from(self.params.deadband) + 2)
    }
}

/// A homogeneous [`ProportionalController`] population in flat layout.
#[derive(Clone, Debug)]
pub struct ProportionalBank {
    params: ProportionalParams,
    gain: Bernoulli,
    num_tasks: usize,
    /// Assignment per ant (`IDLE` when idle).
    assignment: Vec<u16>,
    /// Persisted-error streak per ant.
    streak: Vec<u16>,
}

impl ProportionalBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: ProportionalParams, n: usize) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            params,
            gain: Bernoulli::new(params.gain),
            num_tasks,
            assignment: vec![IDLE; n],
            streak: vec![0; n],
        }
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `ProportionalBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: ProportionalParams, n: usize) {
        assert!(num_tasks >= 1, "at least one task");
        self.params = params;
        self.gain = Bernoulli::new(params.gain);
        self.num_tasks = num_tasks;
        self.assignment.clear();
        self.assignment.resize(n, IDLE);
        self.streak.clear();
        self.streak.resize(n, 0);
    }

    /// Appends a fresh idle ant (a spawn).
    pub fn push_fresh(&mut self) {
        self.assignment.push(IDLE);
        self.streak.push(0);
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &ProportionalParams {
        &self.params
    }

    /// Number of ants.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Bytes the bank's per-ant columns hold.
    #[cfg(test)]
    pub(crate) fn column_bytes(&self) -> usize {
        size_of_val(&self.assignment[..]) + size_of_val(&self.streak[..])
    }

    /// True iff the bank holds no ants.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &ProportionalController) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        debug_assert_eq!(ant.params(), &self.params, "parameter mismatch");
        self.assignment.push(enc(ant.assignment()));
        self.streak.push(ant.streak());
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless — assignment plus streak is the whole
    /// state).
    pub fn to_controller(&self, slot: usize) -> ProportionalController {
        let mut ant = ProportionalController::new(self.num_tasks, self.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant.set_streak(self.streak[slot]);
        ant
    }

    /// The persisted-error streak of the ant at `slot` (checkpoint
    /// capture).
    #[inline]
    pub fn streak(&self, slot: usize) -> u16 {
        self.streak[slot]
    }

    /// Every ant's persisted-error streak, in slot order (checkpoint
    /// capture).
    pub fn streaks(&self) -> &[u16] {
        &self.streak
    }

    /// Overwrites the streak of the ant at `slot` (checkpoint restore;
    /// apply *after* [`ProportionalBank::reset_slot`], which clears it).
    #[inline]
    pub fn set_streak(&mut self, slot: usize, streak: u16) {
        self.streak[slot] = streak;
    }

    /// The assignment of the ant at `slot`.
    pub fn assignment(&self, slot: usize) -> Assignment {
        dec(self.assignment[slot])
    }

    /// Forces the ant at `slot` into `a`.
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.assignment[slot] = enc(a);
        self.streak[slot] = 0;
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.num_tasks + 1)
            + crate::memory::bits_for_states(usize::from(self.params.deadband) + 2)
    }

    /// Reorders the ants' slots by `map`, both columns alike.
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        map.apply(&mut self.assignment);
        map.apply(&mut self.streak);
    }

    /// The whole bank as a splittable mutable slice.
    pub fn as_slice_mut(&mut self) -> ProportionalSliceMut<'_> {
        ProportionalSliceMut {
            gain: self.gain,
            deadband: self.params.deadband,
            num_tasks: self.num_tasks,
            assignment: &mut self.assignment,
            streak: &mut self.streak,
        }
    }
}

/// A disjoint mutable chunk of a [`ProportionalBank`].
#[derive(Debug)]
pub struct ProportionalSliceMut<'a> {
    gain: Bernoulli,
    deadband: u16,
    num_tasks: usize,
    assignment: &'a mut [u16],
    streak: &'a mut [u16],
}

impl<'a> ProportionalSliceMut<'a> {
    /// Number of ants in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (ProportionalSliceMut<'a>, ProportionalSliceMut<'a>) {
        split_chunk!(self => ProportionalSliceMut { gain, deadband, num_tasks }
            assignment: mid, streak: mid)
    }

    /// Steps every ant in the chunk through `stepping`; bit-identical
    /// to per-ant [`Controller::step`] on [`ProportionalController`].
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let mut row = scratch_row(self.num_tasks);
        stepping.run(
            n,
            #[inline(always)]
            |i, view, rng| self.step_one(i, view, rng, &mut row),
        );
    }

    /// One ant's round. Draw order matches the reference: samples in
    /// task order (bit-packed batched draw for ≤ 64 tasks), then the
    /// uniform pick, then the gain coin; workers draw the gain coin
    /// only on a persisted `overload`.
    #[inline(always)]
    fn step_one(
        &mut self,
        i: usize,
        view: RoundView<'_>,
        rng: &mut AntRng,
        row: &mut [u8],
    ) -> Assignment {
        let cur = self.assignment[i];
        if cur == IDLE {
            if self.num_tasks <= 64 {
                let mask = view.lack_mask(rng);
                if mask != 0 {
                    self.streak[i] = self.streak[i].saturating_add(1);
                    if self.streak[i] > self.deadband {
                        let pick = uniform_index(rng, mask.count_ones() as usize);
                        if self.gain.sample(rng) {
                            self.assignment[i] = nth_set_bit(mask, pick);
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
                            self.assignment[i] = nth_lacking(row, pick);
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
                self.assignment[i] = IDLE;
                self.streak[i] = 0;
            }
        }
        dec(self.assignment[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControllerBank, ControllerScratch};
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
        let streak = |bank: &ControllerBank, i: usize| match bank.scratch(i) {
            Some(ControllerScratch::Proportional(s)) => s,
            _ => 0,
        };
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=60u64 {
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                assert_eq!(ant.streak(), streak(&bank, i), "ant {i} streak");
                let slot = twin.step_slot(i, prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
                assert_eq!(ant.streak(), streak(&twin, i), "slot {i} streak");
            }
        }
        for (i, ant) in reference.iter().enumerate() {
            assert_eq!(bank.assignment(i), ant.assignment());
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let params = ProportionalParams::default();
        let mut bank = ProportionalBank::new(2, params, 0);
        let mut ant = ProportionalController::new(2, params);
        ant.reset_to(Assignment::Task(1));
        ant.set_streak(3);
        bank.push_controller(&ant);
        assert_eq!(bank.len(), 1);
        let back = bank.to_controller(0);
        assert_eq!(back.assignment(), Assignment::Task(1));
        assert_eq!(back.streak(), 3);
    }

    #[test]
    fn swap_remove_moves_both_columns() {
        let params = ProportionalParams::default();
        let mut bank = ProportionalBank::new(1, params, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Idle);
        bank.set_streak(2, 5);
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Idle);
        assert_eq!(bank.streak(0), 5);
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
