//! Structure-of-arrays bank for Appendix C Algorithm Precise
//! Adversarial: one `u16` task column (`currentTask`; the colony's task
//! column holds the assignment) and one bit row per ant holding
//! the per-task unanimous-lack bits and every phase tracker (see
//! [`crate::bit_row`]) — the fields [`AdversarialScratch`] names. A
//! checkpoint stores the columns as they are, so a capture inside the
//! `5·r_1`-round phase resumes bit-identically.
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
use crate::bank::{fits, BankError, Stepping};
use crate::bit_row;
use crate::cast::{dec, enc, task_ix, IDLE};
use crate::columns::{self, soa_bank};
use crate::controller::Controller;
use crate::params::PreciseAdversarialParams;
use crate::precise_adversarial::{AdversarialScratch, PreciseAdversarial};

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

soa_bank! {
    /// A homogeneous Precise Adversarial population in structure-of-arrays
    /// layout.
    pub struct PreciseAdversarialBank(num_tasks: usize, params: PreciseAdversarialParams) {
        params: PreciseAdversarialParams = params,
        /// A fresh ant's bit row: every task unanimous-lack,
        /// all-overload, no phase.
        fresh_bits: Vec<u8> = fresh_row(num_tasks),
    }
    /// A disjoint mutable chunk of a [`PreciseAdversarialBank`].
    pub struct AdversarialSliceMut<'a> {
        r1: u64 = params.r1(),
        phase_len: u64 = params.phase_len(),
        ramp: Bernoulli = Bernoulli::new(params.ramp_probability()),
        num_tasks: usize = columns::tasks(num_tasks),
        /// Bytes per bit row.
        width: usize = bit_row::width(num_tasks + FLAGS),
    }
    columns {
        /// `currentTask` per ant (`IDLE` when idle).
        current: [u16] = IDLE => Task(num_tasks),
        /// One bit row per ant: bit `j < k` is 1 iff every sample of task
        /// `j` this phase said `lack` (idle path), then the [`FLAGS`]
        /// trackers.
        bits: [u8; width] from fresh_bits => Row(num_tasks + FLAGS),
    }
}

/// The bit row of a fresh ant over `k` tasks.
fn fresh_row(k: usize) -> Vec<u8> {
    let mut row = vec![0u8; bit_row::width(k + FLAGS)];
    bit_row::fill_ones(&mut row, k);
    bit_row::set(&mut row, k + ALL_OVERLOAD, true);
    row
}

impl PreciseAdversarialBank {
    /// Appends a per-ant controller, transposing its state in (all but
    /// its assignment, which the colony's task column holds).
    ///
    /// # Errors
    /// If the ant runs other parameters or observes another number of
    /// tasks (see [`crate::ControllerBank::push`]).
    pub fn push_controller(&mut self, ant: &PreciseAdversarial) -> Result<(), BankError> {
        fits(
            (self.num_tasks, &self.params),
            (ant.num_tasks(), ant.params()),
        )?;
        self.push_fresh();
        self.apply_scratch(self.len() - 1, &ant.scratch());
        Ok(())
    }

    /// Reconstructs the per-ant controller at `slot`, whose assignment
    /// is `a` (reference extraction; lossless for the whole state
    /// between rounds).
    pub fn to_controller(&self, slot: usize, a: Assignment) -> PreciseAdversarial {
        let mut ant = PreciseAdversarial::new(self.num_tasks, self.params);
        ant.reset_to(a);
        ant.apply_scratch(&self.scratch(slot));
        ant
    }

    /// The bit row of the ant at `slot`, mutably.
    fn row_mut(&mut self, slot: usize) -> &mut [u8] {
        let w = self.width;
        &mut self.bits[slot * w..slot * w + w]
    }

    /// The mid-phase trackers of the ant at `slot` (see
    /// [`AdversarialScratch`]).
    fn scratch(&self, slot: usize) -> AdversarialScratch {
        let (k, w) = (self.num_tasks, self.width);
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

    /// Overwrites the trackers of the ant at `slot`.
    ///
    /// # Panics
    /// If the scratch's task count disagrees with the bank's.
    fn apply_scratch(&mut self, slot: usize, s: &AdversarialScratch) {
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

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.current[slot] = enc(a);
        let k = self.num_tasks;
        bit_row::set(self.row_mut(slot), k + HAVE_PHASE, false);
    }

    /// Persistent memory in bits (the per-ant impl's accounting,
    /// `memory::adversarial_memory_bits`).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::adversarial_memory_bits(self.num_tasks)
    }
}

impl AdversarialSliceMut<'_> {
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
        let bits: &mut [u8] = self.bits;
        let mut scratch = scratch_row(k);
        stepping.run(
            current.len(),
            #[inline(always)]
            |i, prev, view: RoundView<'_>, rng: &mut AntRng| {
                let row = &mut bits[i * w..i * w + w];
                if r == 1 {
                    // Phase start: adopt a_{t−1}, reset trackers.
                    current[i] = prev;
                    row.fill(0);
                    bit_row::fill_ones(row, k);
                    bit_row::set(row, k + ALL_OVERLOAD, true);
                    bit_row::set(row, k + HAVE_PHASE, true);
                }
                if !bit_row::get(row, k + HAVE_PHASE) {
                    return prev;
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
                    let next = if r >= 2 && cur != IDLE && prev == cur && ramp.sample(rng) {
                        IDLE
                    } else {
                        prev
                    };
                    // A first lack is classified after the pause decision: was
                    // the ant still working?
                    if lacked && !bit_row::get(row, k + LACKED) {
                        bit_row::set(row, k + LACKED, true);
                        bit_row::set(row, k + LACKED_WORKING, next == cur);
                    }
                    next
                } else if r == r1 {
                    // Freeze the sub-phase-2 behaviour at r_min's state.
                    if cur == IDLE {
                        return prev;
                    }
                    let working = if bit_row::get(row, k + LACKED) {
                        bit_row::get(row, k + LACKED_WORKING)
                    } else {
                        prev == cur
                    };
                    bit_row::set(row, k + FROZEN_WORKING, working);
                    if working {
                        cur
                    } else {
                        IDLE
                    }
                } else if r == 0 {
                    // Phase end: unanimous-signal decisions.
                    let next = if cur == IDLE {
                        match bit_row::count(row, k) {
                            0 => IDLE,
                            count => {
                                nth_where(k, uniform_index(rng, count), |j| bit_row::get(row, j))
                            }
                        }
                    } else if bit_row::get(row, k + ALL_OVERLOAD) && ramp.sample(rng) {
                        IDLE
                    } else {
                        cur
                    };
                    bit_row::set(row, k + HAVE_PHASE, false);
                    next
                } else if cur == IDLE {
                    prev
                } else if bit_row::get(row, k + FROZEN_WORKING) {
                    // Frozen sub-phase (r in (r1, phase_len−1]): replay r_min.
                    cur
                } else {
                    IDLE
                }
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_map::SlotMap;
    use crate::{AnyController, ControllerBank};
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
            let before = out.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            working_rounds += usize::from(out.iter().any(|a| !a.is_idle()));
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
            if round == 400 {
                // A mid-phase reset of every third ant.
                for i in (0..n).step_by(3) {
                    let a = Assignment::Task((i % k) as u32);
                    reference[i].reset_to(a);
                    bank.reset_slot(i, a);
                    twin.reset_slot(i, a);
                    out[i] = a;
                }
            }
            if round % 97 == 0 {
                for (i, ant) in reference.iter().enumerate() {
                    let AnyController::PreciseAdversarial(rebuilt) = bank.to_any(i, out[i]) else {
                        unreachable!("a Precise Adversarial bank rebuilds its own kind");
                    };
                    assert_eq!(rebuilt.scratch(), ant.scratch(), "ant {i} round {round}");
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
        bank.push_controller(&ant).unwrap();
        let AnyController::PreciseAdversarial(back) =
            ControllerBank::PreciseAdversarial(bank).to_any(0, ant.assignment())
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
        assert_eq!(bank.current, [1, IDLE]); // old slots 2 and 1
        assert_eq!(bank.scratch(0), moved);
    }
}
