//! Flat structure-of-arrays bank for the single-sample controllers.
//!
//! [`ExactGreedy`] (the \[11\]-style baseline) carries no cross-round
//! state besides its assignment, so its fast layout is one `u16` per
//! ant — the same shape as the idle path of [`crate::AntBank`]. With
//! both probabilities 1 ([`ExactGreedyParams::TRIVIAL`]) it is
//! [`crate::Trivial`] (Appendix D): a probability-1 Bernoulli draws
//! nothing, so the two consume the same draws and decide alike. Stepping streams a single flat array
//! instead of a `Vec` of per-ant structs (each dragging a heap-allocated
//! scratch bitmap), and the idle path's full-vector sample goes through
//! the batched [`RoundView::fill_lack`] draw.
//!
//! **Reference semantics.** The per-ant [`crate::Controller`] impls are
//! the truth: the bank consumes every ant's RNG stream in exactly the
//! order `Controller::step` would (samples in task order, then the
//! join/leave coins with the same short-circuits), so bank runs are
//! bit-identical to per-ant runs — pinned by the parity property tests
//! in `tests/banks.rs`.

use antalloc_env::Assignment;
use antalloc_noise::RoundView;
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::{count_lacking, nth_lacking, nth_set_bit, scratch_row};
use crate::bank::{split_chunk, Stepping};
use crate::cast::{dec, enc, IDLE};
use crate::controller::Controller;
use crate::exact_greedy::{ExactGreedy, ExactGreedyParams};
use crate::slot_map::SlotMap;

/// A homogeneous [`ExactGreedy`] population in flat layout.
#[derive(Clone, Debug)]
pub struct ExactGreedyBank {
    params: ExactGreedyParams,
    join: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    /// Assignment per ant (`IDLE` when idle).
    assignment: Vec<u16>,
}

impl ExactGreedyBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: ExactGreedyParams, n: usize) -> Self {
        let mut bank = Self {
            params,
            join: Bernoulli::new(0.0),
            leave: Bernoulli::new(0.0),
            num_tasks,
            assignment: Vec::new(),
        };
        bank.reinit(num_tasks, params, n);
        bank
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the assignment allocation (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `ExactGreedyBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: ExactGreedyParams, n: usize) {
        assert!(num_tasks >= 1, "at least one task");
        self.params = params;
        self.join = Bernoulli::new(params.p_join);
        self.leave = Bernoulli::new(params.p_leave);
        self.num_tasks = num_tasks;
        self.assignment.clear();
        self.assignment.resize(n, IDLE);
    }

    /// Appends a fresh idle ant (a spawn).
    pub fn push_fresh(&mut self) {
        self.assignment.push(IDLE);
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &ExactGreedyParams {
        &self.params
    }

    /// Number of ants.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Bytes the bank's per-ant columns hold.
    #[cfg(test)]
    pub(crate) fn column_bytes(&self) -> usize {
        size_of_val(&self.assignment[..])
    }

    /// True iff the bank holds no ants.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &ExactGreedy) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        self.assignment.push(enc(ant.assignment()));
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless — the assignment is the whole state).
    pub fn to_controller(&self, slot: usize) -> ExactGreedy {
        let mut ant = ExactGreedy::new(self.num_tasks, self.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant
    }

    /// The assignment of the ant at `slot`.
    pub fn assignment(&self, slot: usize) -> Assignment {
        dec(self.assignment[slot])
    }

    /// Forces the ant at `slot` into `a`.
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.assignment[slot] = enc(a);
    }

    /// Persistent memory in bits (same accounting as the per-ant impl).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::bits_for_states(self.num_tasks + 1)
    }

    /// Reorders the ants' slots by `map`.
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        map.apply(&mut self.assignment);
    }

    /// The whole bank as a splittable mutable slice.
    pub fn as_slice_mut(&mut self) -> ExactGreedySliceMut<'_> {
        ExactGreedySliceMut {
            join: self.join,
            leave: self.leave,
            num_tasks: self.num_tasks,
            assignment: &mut self.assignment,
        }
    }
}

/// A disjoint mutable chunk of an [`ExactGreedyBank`].
#[derive(Debug)]
pub struct ExactGreedySliceMut<'a> {
    join: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    assignment: &'a mut [u16],
}

impl<'a> ExactGreedySliceMut<'a> {
    /// Number of ants in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (ExactGreedySliceMut<'a>, ExactGreedySliceMut<'a>) {
        split_chunk!(self => ExactGreedySliceMut { join, leave, num_tasks } assignment: mid)
    }

    /// Steps every ant in the chunk through `stepping`; bit-identical
    /// to per-ant [`Controller::step`] on [`ExactGreedy`].
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let mut row = scratch_row(self.num_tasks);
        stepping.run(
            n,
            #[inline(always)]
            |i, view, rng| self.step_one(i, view, rng, &mut row),
        );
    }

    /// One ant's round. The coin order is the reference's: samples in
    /// task order, then the join coin *only* when something lacks, then
    /// the uniform pick; workers draw the leave coin only on `overload`.
    /// The idle path's full-vector draw is the bit-packed batched form
    /// for ≤ 64 tasks (one pass, one register) and the row-buffer form
    /// beyond; both consume draws in task order like the reference.
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
                if mask != 0 && self.join.sample(rng) {
                    let pick = uniform_index(rng, mask.count_ones() as usize);
                    self.assignment[i] = nth_set_bit(mask, pick);
                }
            } else {
                view.fill_lack(rng, row);
                let count = count_lacking(row);
                if count > 0 && self.join.sample(rng) {
                    self.assignment[i] = nth_lacking(row, uniform_index(rng, count));
                }
            }
        } else if !view.sample(crate::cast::task_ix(cur), rng).is_lack() && self.leave.sample(rng) {
            self.assignment[i] = IDLE;
        }
        dec(self.assignment[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trivial::Trivial;
    use crate::{AnyController, ControllerBank};
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    /// The flat bank against its per-ant references, round for round,
    /// under sigmoid noise (every code path: joins, leaves, coins,
    /// rejections), through the chunk loop (`step_batch`) and, on twin
    /// banks, one slot at a time (`step_slot`, the sequential model's
    /// path) — at 3 tasks and at 65, past the bit-packed 64-task
    /// `lack_mask` into the row-buffer fallback. The first bank runs
    /// [`ExactGreedyParams::TRIVIAL`] against [`Trivial`]; the streams
    /// must line up too, so the folded bank draws exactly what the
    /// trivial algorithm draws.
    #[test]
    fn flat_banks_match_per_ant_stepping() {
        for k in [3, 65] {
            flat_banks_match_per_ant_stepping_at(k);
        }
    }

    fn flat_banks_match_per_ant_stepping_at(k: usize) {
        let n = 150;
        let seeder = StreamSeeder::new(11);
        let model = NoiseModel::Sigmoid { lambda: 1.5 };
        let params = ExactGreedyParams::default();
        let deficits: Vec<i64> = (0..k).map(|j| [2, 0, -3][j % 3]).collect();
        let loads = vec![15; k];

        let mut banks = [
            ControllerBank::ExactGreedy(ExactGreedyBank::new(k, ExactGreedyParams::TRIVIAL, n)),
            ControllerBank::ExactGreedy(ExactGreedyBank::new(k, params, n)),
        ];
        let mut twins = banks.clone();
        let mut references: [Vec<AnyController>; 2] = [
            (0..n).map(|_| Trivial::new(k).into()).collect(),
            (0..n).map(|_| ExactGreedy::new(k, params).into()).collect(),
        ];

        let mut out = vec![Assignment::Idle; n];
        for round in 1..=50u64 {
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, 2 * n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            for (b, ((bank, twin), reference)) in banks
                .iter_mut()
                .zip(&mut twins)
                .zip(&mut references)
                .enumerate()
            {
                let streams = b * n..(b + 1) * n;
                bank.step_batch(prepared.view(), &mut bank_rngs[streams.clone()], &mut out);
                let ref_rngs = &mut ref_rngs[streams.clone()];
                let slot_rngs = &mut slot_rngs[streams];
                for (i, ant) in reference.iter_mut().enumerate() {
                    let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                    assert_eq!(
                        ant.step(&mut probe),
                        out[i],
                        "bank {b} ant {i} round {round}"
                    );
                    assert_eq!(ref_rngs[i], bank_rngs[b * n + i], "bank {b} ant {i} draws");
                    let slot = twin.step_slot(i, prepared.view(), &mut slot_rngs[i]);
                    assert_eq!(slot, out[i], "bank {b} slot {i} round {round} k {k}");
                }
            }
        }
        for (bank, reference) in banks.iter().zip(&references) {
            for (i, ant) in reference.iter().enumerate() {
                assert_eq!(bank.assignment(i), ant.assignment());
            }
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let mut ant = Trivial::new(2);
        ant.reset_to(Assignment::Task(1));
        let bank: ControllerBank = [AnyController::from(ant)].into_iter().collect();
        let AnyController::ExactGreedy(back) = bank.to_any(0) else {
            unreachable!("a trivial colony is an exact-greedy bank");
        };
        assert_eq!(back.params(), &ExactGreedyParams::TRIVIAL);
        assert_eq!(back.assignment(), Assignment::Task(1));

        let mut bank = ExactGreedyBank::new(2, ExactGreedyParams::default(), 0);
        let mut ant = ExactGreedy::new(2, ExactGreedyParams::default());
        ant.reset_to(Assignment::Task(0));
        bank.push_controller(&ant);
        assert_eq!(bank.to_controller(0).assignment(), Assignment::Task(0));
    }

    #[test]
    fn swap_remove_moves_last_slot() {
        let mut bank = ExactGreedyBank::new(1, ExactGreedyParams::TRIVIAL, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Idle);
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Idle);
    }
}
