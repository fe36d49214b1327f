//! Structure-of-arrays bank for Appendix C Algorithm Precise
//! Adversarial: every phase tracker a column, the per-task unanimous-
//! lack bits an `n × k` plane (each ant's `k`-row contiguous) — the
//! fields [`AdversarialScratch`] names, so a checkpoint inside the
//! `5·r_1`-round phase resumes bit-identically.
//!
//! **Reference semantics.** [`crate::PreciseAdversarial`] is the truth;
//! the bank consumes every ant's RNG stream in exactly the order
//! `Controller::step` would (the idle path's full-vector sample through
//! the batched [`RoundView::fill_lack`]), so bank runs are bit-identical
//! to per-ant runs.

use antalloc_env::Assignment;
use antalloc_noise::RoundView;
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::{count_lacking, dec, enc, nth_lacking, IDLE};
use crate::bank::{split_chunk, Stepping};
use crate::controller::Controller;
use crate::params::PreciseAdversarialParams;
use crate::precise_adversarial::{AdversarialScratch, PreciseAdversarial};
use crate::slot_map::SlotMap;

/// `first_lack` encoding of `working_at_first_lack`: no lack seen yet,
/// then idle or working at the first ramp `lack` (the checkpoint's
/// tri-state).
const NO_LACK: u8 = 0;

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
    current: Vec<u32>,
    /// Output assignment `a_t` per ant.
    assignment: Vec<u32>,
    /// Phase-observed-from-start flag per ant.
    have_phase: Vec<u8>,
    /// Idle path: 1 iff every sample of the task this phase said
    /// `lack`, ant-major `num_tasks` entries per ant.
    all_lack: Vec<u8>,
    /// Working path: 1 iff every sample this phase said `overload`.
    all_overload: Vec<u8>,
    /// `working_at_first_lack` as a tri-state: [`NO_LACK`], 1 (idle)
    /// or 2 (working).
    first_lack: Vec<u8>,
    /// The frozen sub-phase-2 behaviour: 1 = work.
    frozen: Vec<u8>,
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
            have_phase: Vec::new(),
            all_lack: Vec::new(),
            all_overload: Vec::new(),
            first_lack: Vec::new(),
            frozen: Vec::new(),
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

    /// Truncates or extends every column to `n` ants, new ants fresh
    /// and idle.
    fn resize(&mut self, n: usize) {
        self.current.resize(n, IDLE);
        self.assignment.resize(n, IDLE);
        self.have_phase.resize(n, 0);
        self.all_lack.resize(n * self.num_tasks, 1);
        self.all_overload.resize(n, 1);
        self.first_lack.resize(n, NO_LACK);
        self.frozen.resize(n, 0);
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

    /// The mid-phase trackers of the ant at `slot` (see
    /// [`AdversarialScratch`]).
    pub fn scratch(&self, slot: usize) -> AdversarialScratch {
        let k = self.num_tasks;
        AdversarialScratch {
            current_task: dec(self.current[slot]),
            have_phase: self.have_phase[slot] == 1,
            all_lack: self.all_lack[slot * k..slot * k + k]
                .iter()
                .map(|&b| b == 1)
                .collect(),
            all_overload: self.all_overload[slot] == 1,
            working_at_first_lack: match self.first_lack[slot] {
                NO_LACK => None,
                w => Some(w == 2),
            },
            frozen_working: self.frozen[slot] == 1,
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
        self.have_phase[slot] = u8::from(s.have_phase);
        for (to, &lack) in self.all_lack[slot * k..slot * k + k]
            .iter_mut()
            .zip(&s.all_lack)
        {
            *to = u8::from(lack);
        }
        self.all_overload[slot] = u8::from(s.all_overload);
        self.first_lack[slot] = s.working_at_first_lack.map_or(NO_LACK, |w| 1 + u8::from(w));
        self.frozen[slot] = u8::from(s.frozen_working);
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
        self.have_phase[slot] = 0;
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        let k = crate::cast::task_col(self.num_tasks);
        crate::memory::bits_for_states(self.num_tasks + 1) + k + 5
    }

    /// Reorders the ants' slots by `map`, every column and the plane
    /// alike.
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        map.apply(&mut self.current);
        map.apply(&mut self.assignment);
        map.apply(&mut self.have_phase);
        map.apply_rows(&mut self.all_lack, self.num_tasks);
        map.apply(&mut self.all_overload);
        map.apply(&mut self.first_lack);
        map.apply(&mut self.frozen);
    }

    /// The whole bank as a splittable mutable slice.
    pub fn as_slice_mut(&mut self) -> AdversarialSliceMut<'_> {
        AdversarialSliceMut {
            r1: self.r1,
            phase_len: self.phase_len,
            ramp: self.ramp,
            num_tasks: self.num_tasks,
            current: &mut self.current,
            assignment: &mut self.assignment,
            have_phase: &mut self.have_phase,
            all_lack: &mut self.all_lack,
            all_overload: &mut self.all_overload,
            first_lack: &mut self.first_lack,
            frozen: &mut self.frozen,
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
    current: &'a mut [u32],
    assignment: &'a mut [u32],
    have_phase: &'a mut [u8],
    all_lack: &'a mut [u8],
    all_overload: &'a mut [u8],
    first_lack: &'a mut [u8],
    frozen: &'a mut [u8],
}

impl<'a> AdversarialSliceMut<'a> {
    /// Number of ants in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.current.len()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (AdversarialSliceMut<'a>, AdversarialSliceMut<'a>) {
        let k = self.num_tasks;
        split_chunk!(self => AdversarialSliceMut { r1, phase_len, ramp, num_tasks }
            current: mid, assignment: mid, have_phase: mid, all_lack: mid * k,
            all_overload: mid, first_lack: mid, frozen: mid)
    }

    /// Steps every ant in the chunk through `stepping`; bit-identical to
    /// per-ant [`Controller::step`] on [`PreciseAdversarial`]: ant `i`'s
    /// round at phase position `r = round mod phase_len`, computed once
    /// for the whole chunk (all ants share the global clock). The
    /// reference's pending first lack is the local `lacked`: it is set
    /// and classified only in the ramp (`1 ≤ r < r_1`), so it never
    /// outlives the round. The columns are bound to locals first, so the
    /// loop keeps them in registers across its byte stores.
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let (r1, ramp, k) = (self.r1, self.ramp, self.num_tasks);
        let r = stepping.round() % self.phase_len;
        let current: &mut [u32] = self.current;
        let assignment: &mut [u32] = self.assignment;
        let have_phase: &mut [u8] = self.have_phase;
        let all_lack: &mut [u8] = self.all_lack;
        let all_overload: &mut [u8] = self.all_overload;
        let first_lack: &mut [u8] = self.first_lack;
        let frozen: &mut [u8] = self.frozen;
        let mut row = crate::flat_bank::scratch_row(k);
        stepping.run(
            current.len(),
            #[inline(always)]
            |i, view: RoundView<'_>, rng: &mut AntRng| {
                let lacks = i * k..i * k + k;
                if r == 1 {
                    // Phase start: adopt a_{t−1}, reset trackers.
                    current[i] = assignment[i];
                    all_lack[lacks.clone()].fill(1);
                    all_overload[i] = 1;
                    first_lack[i] = NO_LACK;
                    frozen[i] = 0;
                    have_phase[i] = 1;
                }
                if have_phase[i] == 0 {
                    return dec(assignment[i]);
                }
                let cur = current[i];
                let mut lacked = false;
                if cur != IDLE {
                    lacked = view.sample(crate::cast::task_ix(cur), rng).is_lack();
                    all_overload[i] &= u8::from(!lacked);
                } else {
                    let all_lack = &mut all_lack[lacks.clone()];
                    if k <= 64 {
                        // Clear the tasks that said `overload`; most rows are
                        // already clear after the first few rounds.
                        let overload = !view.lack_mask(rng);
                        for (j, all) in all_lack.iter_mut().enumerate() {
                            if *all == 1 && overload >> j & 1 == 1 {
                                *all = 0;
                            }
                        }
                    } else {
                        view.fill_lack(rng, &mut row);
                        for (all, &lack) in all_lack.iter_mut().zip(row.iter()) {
                            *all &= lack;
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
                    if lacked && first_lack[i] == NO_LACK {
                        first_lack[i] = 1 + u8::from(assignment[i] == cur);
                    }
                } else if r == r1 {
                    // Freeze the sub-phase-2 behaviour at r_min's state.
                    if cur != IDLE {
                        let working = match first_lack[i] {
                            NO_LACK => assignment[i] == cur,
                            w => w == 2,
                        };
                        frozen[i] = u8::from(working);
                        assignment[i] = if working { cur } else { IDLE };
                    }
                } else if r == 0 {
                    // Phase end: unanimous-signal decisions.
                    if cur == IDLE {
                        let all_lack = &all_lack[lacks];
                        assignment[i] = match count_lacking(all_lack) {
                            0 => IDLE,
                            count => nth_lacking(all_lack, uniform_index(rng, count)),
                        };
                    } else if all_overload[i] == 1 && ramp.sample(rng) {
                        assignment[i] = IDLE;
                    } else {
                        assignment[i] = cur;
                    }
                    have_phase[i] = 0;
                } else {
                    // Frozen sub-phase (r in (r1, phase_len−1]): replay r_min.
                    if cur != IDLE {
                        assignment[i] = if frozen[i] == 1 { cur } else { IDLE };
                    }
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
