//! Structure-of-arrays bank for Appendix C Algorithm Precise
//! Adversarial: two `u16` task columns and one bit row per ant holding
//! the per-task unanimous-lack bits and every phase tracker (see
//! [`crate::bit_row`]) — the fields [`AdversarialScratch`] names, so a
//! checkpoint inside the `5·r_1`-round phase resumes bit-identically.
//! For `k ≤ 64` the idle path ANDs its sampled lack mask into the row
//! in one pass.
//!
//! **Reference semantics.** [`crate::PreciseAdversarial`] is the truth;
//! the bank consumes every ant's RNG stream in exactly the order
//! `Controller::step` would (the idle path's full-vector sample through
//! the batched [`RoundView::lack_mask`] / [`RoundView::fill_lack`]), so
//! bank runs are bit-identical to per-ant runs.

use antalloc_env::Assignment;
use antalloc_noise::RoundView;
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::{nth_where, scratch_row};
use crate::bank::{split_chunk, Stepping};
use crate::bit_row;
use crate::cast::{dec, enc, task_ix, IDLE};
use crate::controller::Controller;
use crate::params::PreciseAdversarialParams;
use crate::precise_adversarial::{AdversarialScratch, PreciseAdversarial};
use crate::slot_map::SlotMap;

/// Bits of a Precise Adversarial row past the `k` unanimous-lack bits:
/// the phase-observed-from-start flag.
const HAVE_PHASE: usize = 0;
/// Working path: every sample this phase said `overload`.
const ALL_OVERLOAD: usize = 1;
/// The frozen sub-phase-2 behaviour: work.
const FROZEN_WORKING: usize = 2;
/// `working_at_first_lack` is `Some` (a ramp `lack` was seen) …
const LACKED: usize = 3;
/// … and the ant was working at it.
const LACKED_WORKING: usize = 4;
/// Flag bits per row.
const FLAGS: usize = 5;

/// A homogeneous Precise Adversarial population in structure-of-arrays
/// layout.
#[derive(Clone, Debug)]
pub struct PreciseAdversarialBank {
    params: PreciseAdversarialParams,
    r1: u64,
    phase_len: u64,
    ramp: Bernoulli,
    num_tasks: usize,
    /// `currentTask` per ant (`IDLE` when idle).
    current: Vec<u16>,
    /// Output assignment `a_t` per ant.
    assignment: Vec<u16>,
    /// One bit row per ant: bit `j < k` is 1 iff every sample of task
    /// `j` this phase said `lack` (idle path), then the [`FLAGS`]
    /// trackers.
    bits: Vec<u8>,
}

impl PreciseAdversarialBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: PreciseAdversarialParams, n: usize) -> Self {
        let mut bank = Self {
            params,
            r1: 0,
            phase_len: 0,
            ramp: Bernoulli::new(0.0),
            num_tasks,
            current: Vec::new(),
            assignment: Vec::new(),
            bits: Vec::new(),
        };
        bank.reinit(num_tasks, params, n);
        bank
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations. State after the call is bit-identical to
    /// `PreciseAdversarialBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: PreciseAdversarialParams, n: usize) {
        assert!(num_tasks >= 1, "at least one task");
        self.params = params;
        self.r1 = params.r1();
        self.phase_len = params.phase_len();
        self.ramp = Bernoulli::new(params.ramp_probability());
        self.num_tasks = num_tasks;
        self.resize(0);
        self.resize(n);
    }

    /// Bytes per bit row.
    fn row_width(&self) -> usize {
        bit_row::width(self.num_tasks + FLAGS)
    }

    /// Truncates or extends every column to `n` ants, new ants fresh
    /// and idle: every task unanimous-lack, all-overload, no phase.
    fn resize(&mut self, n: usize) {
        let k = self.num_tasks;
        self.current.resize(n, IDLE);
        self.assignment.resize(n, IDLE);
        let mut fresh = vec![0u8; self.row_width()];
        bit_row::fill_ones(&mut fresh, k);
        bit_row::set(&mut fresh, k + ALL_OVERLOAD, true);
        bit_row::resize_rows(&mut self.bits, n, &fresh);
    }

    /// Appends a fresh idle ant (a spawn).
    pub fn push_fresh(&mut self) {
        self.resize(self.len() + 1);
    }

    /// Number of ants.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True iff the bank holds no ants.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Bytes the bank's per-ant columns hold.
    #[cfg(test)]
    pub(crate) fn column_bytes(&self) -> usize {
        size_of_val(&self.current[..])
            + size_of_val(&self.assignment[..])
            + size_of_val(&self.bits[..])
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &PreciseAdversarial) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        self.resize(self.len() + 1);
        let slot = self.len() - 1;
        self.reset_slot(slot, ant.assignment());
        self.apply_scratch(slot, &ant.scratch());
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless for the whole state between rounds).
    pub fn to_controller(&self, slot: usize) -> PreciseAdversarial {
        let mut ant = PreciseAdversarial::new(self.num_tasks, self.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant.apply_scratch(&self.scratch(slot));
        ant
    }

    /// The bit row of the ant at `slot`, mutably.
    fn row_mut(&mut self, slot: usize) -> &mut [u8] {
        let w = self.row_width();
        &mut self.bits[slot * w..slot * w + w]
    }

    /// The mid-phase trackers of the ant at `slot` (see
    /// [`AdversarialScratch`]).
    pub fn scratch(&self, slot: usize) -> AdversarialScratch {
        let (k, w) = (self.num_tasks, self.row_width());
        let row = &self.bits[slot * w..slot * w + w];
        let flag = |f: usize| bit_row::get(row, k + f);
        AdversarialScratch {
            current_task: dec(self.current[slot]),
            have_phase: flag(HAVE_PHASE),
            all_lack: (0..k).map(|j| bit_row::get(row, j)).collect(),
            all_overload: flag(ALL_OVERLOAD),
            working_at_first_lack: flag(LACKED).then(|| flag(LACKED_WORKING)),
            frozen_working: flag(FROZEN_WORKING),
        }
    }

    /// Overwrites the trackers of the ant at `slot` (restore path; write
    /// them *after* [`PreciseAdversarialBank::reset_slot`]).
    ///
    /// # Panics
    /// If the scratch's task count disagrees with the bank's.
    pub fn apply_scratch(&mut self, slot: usize, s: &AdversarialScratch) {
        let k = self.num_tasks;
        assert_eq!(s.all_lack.len(), k, "task count mismatch");
        self.current[slot] = enc(s.current_task);
        let row = self.row_mut(slot);
        for (j, &lack) in s.all_lack.iter().enumerate() {
            bit_row::set(row, j, lack);
        }
        bit_row::set(row, k + HAVE_PHASE, s.have_phase);
        bit_row::set(row, k + ALL_OVERLOAD, s.all_overload);
        bit_row::set(row, k + LACKED, s.working_at_first_lack.is_some());
        bit_row::set(
            row,
            k + LACKED_WORKING,
            s.working_at_first_lack == Some(true),
        );
        bit_row::set(row, k + FROZEN_WORKING, s.frozen_working);
    }

    /// The assignment of the ant at `slot`.
    pub fn assignment(&self, slot: usize) -> Assignment {
        dec(self.assignment[slot])
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        let x = enc(a);
        self.assignment[slot] = x;
        self.current[slot] = x;
        let k = self.num_tasks;
        bit_row::set(self.row_mut(slot), k + HAVE_PHASE, false);
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        // Task counts are at most MAX_TASKS, far below u32::MAX.
        let k = u32::try_from(self.num_tasks).unwrap_or(u32::MAX);
        crate::memory::bits_for_states(self.num_tasks + 1) + k + 5
    }

    /// Reorders the ants' slots by `map`, every column and the plane
    /// alike.
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        map.apply(&mut self.current);
        map.apply(&mut self.assignment);
        let w = self.row_width();
        map.apply_rows(&mut self.bits, w);
    }

    /// The whole bank as a splittable mutable slice.
    pub fn as_slice_mut(&mut self) -> AdversarialSliceMut<'_> {
        AdversarialSliceMut {
            r1: self.r1,
            phase_len: self.phase_len,
            ramp: self.ramp,
            num_tasks: self.num_tasks,
            width: self.row_width(),
            current: &mut self.current,
            assignment: &mut self.assignment,
            bits: &mut self.bits,
        }
    }
}

/// A disjoint mutable chunk of a [`PreciseAdversarialBank`].
#[derive(Debug)]
pub struct AdversarialSliceMut<'a> {
    r1: u64,
    phase_len: u64,
    ramp: Bernoulli,
    num_tasks: usize,
    /// Bytes per bit row.
    width: usize,
    current: &'a mut [u16],
    assignment: &'a mut [u16],
    bits: &'a mut [u8],
}

impl<'a> AdversarialSliceMut<'a> {
    /// Number of ants in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.current.len()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (AdversarialSliceMut<'a>, AdversarialSliceMut<'a>) {
        let w = self.width;
        split_chunk!(self => AdversarialSliceMut { r1, phase_len, ramp, num_tasks, width }
            current: mid, assignment: mid, bits: mid * w)
    }

    /// Steps every ant in the chunk through `stepping`; bit-identical to
    /// per-ant [`Controller::step`] on [`PreciseAdversarial`]: ant `i`'s
    /// round at phase position `r = round mod phase_len`, computed once
    /// for the whole chunk (all ants share the global clock). The
    /// reference's pending first lack is the local `lacked`: it is set
    /// and classified only in the ramp (`1 ≤ r < r_1`), so it never
    /// outlives the round.
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let (r1, ramp, k, w) = (self.r1, self.ramp, self.num_tasks, self.width);
        let r = stepping.round() % self.phase_len;
        let current: &mut [u16] = self.current;
        let assignment: &mut [u16] = self.assignment;
        let bits: &mut [u8] = self.bits;
        let mut scratch = scratch_row(k);
        stepping.run(
            current.len(),
            #[inline(always)]
            |i, view: RoundView<'_>, rng: &mut AntRng| {
                let row = &mut bits[i * w..i * w + w];
                if r == 1 {
                    // Phase start: adopt a_{t−1}, reset trackers.
                    current[i] = assignment[i];
                    row.fill(0);
                    bit_row::fill_ones(row, k);
                    bit_row::set(row, k + ALL_OVERLOAD, true);
                    bit_row::set(row, k + HAVE_PHASE, true);
                }
                if !bit_row::get(row, k + HAVE_PHASE) {
                    return dec(assignment[i]);
                }
                let cur = current[i];
                let mut lacked = false;
                if cur != IDLE {
                    lacked = view.sample(task_ix(cur), rng).is_lack();
                    if lacked {
                        bit_row::set(row, k + ALL_OVERLOAD, false);
                    }
                } else if k <= 64 {
                    // Tasks that said `overload` lose their unanimity.
                    bit_row::and(row, k, view.lack_mask(rng));
                } else {
                    view.fill_lack(rng, &mut scratch);
                    for (j, &lack) in scratch.iter().enumerate() {
                        if lack == 0 {
                            bit_row::set(row, j, false);
                        }
                    }
                }
                if (1..r1).contains(&r) {
                    // Ramp (its first round only samples): still-working ants
                    // pause w.p. εγ/32 and stay paused.
                    if r >= 2 && cur != IDLE && assignment[i] == cur && ramp.sample(rng) {
                        assignment[i] = IDLE;
                    }
                    // A first lack is classified after the pause decision: was
                    // the ant still working?
                    if lacked && !bit_row::get(row, k + LACKED) {
                        bit_row::set(row, k + LACKED, true);
                        bit_row::set(row, k + LACKED_WORKING, assignment[i] == cur);
                    }
                } else if r == r1 {
                    // Freeze the sub-phase-2 behaviour at r_min's state.
                    if cur != IDLE {
                        let working = if bit_row::get(row, k + LACKED) {
                            bit_row::get(row, k + LACKED_WORKING)
                        } else {
                            assignment[i] == cur
                        };
                        bit_row::set(row, k + FROZEN_WORKING, working);
                        assignment[i] = if working { cur } else { IDLE };
                    }
                } else if r == 0 {
                    // Phase end: unanimous-signal decisions.
                    if cur == IDLE {
                        assignment[i] = match bit_row::count(row, k) {
                            0 => IDLE,
                            count => {
                                nth_where(k, uniform_index(rng, count), |j| bit_row::get(row, j))
                            }
                        };
                    } else if bit_row::get(row, k + ALL_OVERLOAD) && ramp.sample(rng) {
                        assignment[i] = IDLE;
                    } else {
                        assignment[i] = cur;
                    }
                    bit_row::set(row, k + HAVE_PHASE, false);
                } else if cur != IDLE {
                    // Frozen sub-phase (r in (r1, phase_len−1]): replay r_min.
                    assignment[i] = if bit_row::get(row, k + FROZEN_WORKING) {
                        cur
                    } else {
                        IDLE
                    };
                }
                dec(assignment[i])
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyController, ControllerBank, ControllerScratch};
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    /// The SoA bank against the per-ant reference, round for round,
    /// over more than one full `5·r_1` phase (joins, leaves, ramp
    /// pauses, frozen replays, mid-phase resets), through the chunk loop
    /// (`step_batch`) and, on a twin bank, one slot at a time
    /// (`step_slot`, the sequential model's path), at 3 tasks and at 65
    /// (past the 64-entry stack row). The ramp probability εγ/32 is
    /// 1/128, then 1/20 so that most workers pause in every ramp.
    #[test]
    fn soa_bank_matches_per_ant_stepping() {
        for (k, gamma) in [(3, 0.5), (3, 3.2), (65, 0.5)] {
            soa_bank_matches_per_ant_stepping_at(k, gamma);
        }
    }

    fn soa_bank_matches_per_ant_stepping_at(k: usize, gamma: f64) {
        let n = 60;
        // ε = 0.5: r_1 = 64, phases of 320 rounds.
        let params = PreciseAdversarialParams::new(gamma, 0.5);
        let seeder = StreamSeeder::new(29);
        let mut bank =
            ControllerBank::PreciseAdversarial(PreciseAdversarialBank::new(k, params, n));
        let mut twin = bank.clone();
        let mut reference: Vec<PreciseAdversarial> =
            (0..n).map(|_| PreciseAdversarial::new(k, params)).collect();
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let loads = vec![12; k];
        let mut out = vec![Assignment::Idle; n];
        let mut working_rounds = 0;
        for round in 1..=700u64 {
            // Drift the deficits so the phase-end decisions go both ways.
            let deficits: Vec<i64> = (0..k)
                .map(|j| [4, -4, 1][(j + (round / 160) as usize) % 3])
                .collect();
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            working_rounds += usize::from(out.iter().any(|a| !a.is_idle()));
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                let slot = twin.step_slot(i, prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
            if round == 400 {
                // A mid-phase reset of every third ant.
                for i in (0..n).step_by(3) {
                    let a = Assignment::Task((i % k) as u32);
                    reference[i].reset_to(a);
                    bank.reset_slot(i, a);
                    twin.reset_slot(i, a);
                }
            }
            if round % 97 == 0 {
                for (i, ant) in reference.iter().enumerate() {
                    let scratch = Some(ControllerScratch::PreciseAdversarial(ant.scratch()));
                    assert_eq!(bank.scratch(i), scratch, "ant {i} round {round}");
                }
            }
        }
        assert!(
            0 < working_rounds && working_rounds < 700,
            "{working_rounds} rounds"
        );
    }

    #[test]
    fn push_and_reconstruct_roundtrip_mid_phase() {
        let params = PreciseAdversarialParams::new(0.5, 0.5);
        let mut ant = PreciseAdversarial::new(2, params);
        ant.reset_to(Assignment::Task(1));
        let mut rng = StreamSeeder::new(3).ant(0);
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        for round in 1..=37 {
            let prepared = model.prepare(round, &[3, -1], &[10, 10]);
            let mut probe = FeedbackProbe::new(&prepared, &mut rng);
            ant.step(&mut probe);
        }
        let mut bank = PreciseAdversarialBank::new(2, params, 0);
        bank.push_controller(&ant);
        let AnyController::PreciseAdversarial(back) =
            ControllerBank::PreciseAdversarial(bank).to_any(0)
        else {
            unreachable!("a Precise Adversarial bank rebuilds Precise Adversarial ants");
        };
        assert_eq!(back.scratch(), ant.scratch());
        assert_eq!(back.assignment(), ant.assignment());
    }

    #[test]
    fn swap_remove_moves_every_column() {
        let params = PreciseAdversarialParams::new(0.05, 0.5);
        let mut bank = PreciseAdversarialBank::new(2, params, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Task(1));
        let mut moved = bank.scratch(2);
        moved.all_lack = vec![false, true];
        moved.working_at_first_lack = Some(true);
        moved.frozen_working = true;
        bank.apply_scratch(2, &moved);
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Task(1)); // old slot 2
        assert_eq!(bank.scratch(0), moved);
    }
}
