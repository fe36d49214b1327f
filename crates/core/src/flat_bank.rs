//! Column-free bank for the single-sample controllers.
//!
//! [`ExactGreedy`] (the \[11\]-style baseline) carries no cross-round
//! state besides its assignment, which the colony's task column holds,
//! so its bank holds no per-ant column at all: an ant count and the
//! shared coins. With both probabilities 1
//! ([`ExactGreedyParams::TRIVIAL`]) it is [`crate::Trivial`] (Appendix
//! D): a probability-1 Bernoulli draws nothing, so the two consume the
//! same draws and decide alike. The idle path's full-vector sample goes
//! through the batched [`RoundView::fill_lack`] draw.
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
use crate::bank::{fits, BankError, Stepping};
use crate::cast::IDLE;
use crate::columns::{self, soa_bank};
use crate::controller::Controller;
use crate::exact_greedy::{ExactGreedy, ExactGreedyParams};

soa_bank! {
    /// A homogeneous [`ExactGreedy`] population: no per-ant column.
    pub struct ExactGreedyBank(num_tasks: usize, params: ExactGreedyParams) {
        params: ExactGreedyParams = params,
    }
    /// A disjoint mutable chunk of an [`ExactGreedyBank`].
    pub struct ExactGreedySliceMut<'a> {
        join: Bernoulli = Bernoulli::new(params.p_join),
        leave: Bernoulli = Bernoulli::new(params.p_leave),
        num_tasks: usize = columns::tasks(num_tasks),
    }
    columns {}
}

impl ExactGreedyBank {
    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &ExactGreedyParams {
        &self.params
    }

    /// Appends a per-ant controller (its assignment is its whole state,
    /// and the colony's task column holds it).
    ///
    /// # Errors
    /// If the ant runs other parameters or observes another number of
    /// tasks (see [`crate::ControllerBank::push`]).
    pub fn push_controller(&mut self, ant: &ExactGreedy) -> Result<(), BankError> {
        fits(
            (self.num_tasks, &self.params),
            (ant.num_tasks(), ant.params()),
        )?;
        self.push_fresh();
        Ok(())
    }

    /// Reconstructs the per-ant controller at `slot`, whose assignment
    /// is `a` (reference extraction; lossless — the assignment is the
    /// whole state).
    pub fn to_controller(&self, _slot: usize, a: Assignment) -> ExactGreedy {
        let mut ant = ExactGreedy::new(self.num_tasks, self.params);
        ant.reset_to(a);
        ant
    }

    /// Forces the ant at `slot` into `a`: nothing to do, as the colony's
    /// task column holds the whole state.
    pub fn reset_slot(&mut self, _slot: usize, _a: Assignment) {}

    /// Persistent memory in bits (the per-ant impl's accounting,
    /// `memory::assignment_memory_bits`).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::assignment_memory_bits(self.num_tasks)
    }
}

impl ExactGreedySliceMut<'_> {
    /// Steps every ant in the chunk through `stepping`; bit-identical
    /// to per-ant [`Controller::step`] on [`ExactGreedy`].
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let mut row = scratch_row(self.num_tasks);
        stepping.run(
            n,
            #[inline(always)]
            |_, cur, view, rng| self.step_one(cur, view, rng, &mut row),
        );
    }

    /// One ant's round from assignment `cur`. The coin order is the
    /// reference's: samples in task order, then the join coin *only*
    /// when something lacks, then the uniform pick; workers draw the
    /// leave coin only on `overload`. The idle path's full-vector draw
    /// is the bit-packed batched form for ≤ 64 tasks (one pass, one
    /// register) and the row-buffer form beyond; both consume draws in
    /// task order like the reference.
    #[inline(always)]
    fn step_one(&self, cur: u16, view: RoundView<'_>, rng: &mut AntRng, row: &mut [u8]) -> u16 {
        if cur != IDLE {
            let overload = !view.sample(crate::cast::task_ix(cur), rng).is_lack();
            return if overload && self.leave.sample(rng) {
                IDLE
            } else {
                cur
            };
        }
        if self.num_tasks <= 64 {
            let mask = view.lack_mask(rng);
            if mask != 0 && self.join.sample(rng) {
                return nth_set_bit(mask, uniform_index(rng, mask.count_ones() as usize));
            }
        } else {
            view.fill_lack(rng, row);
            let count = count_lacking(row);
            if count > 0 && self.join.sample(rng) {
                return nth_lacking(row, uniform_index(rng, count));
            }
        }
        IDLE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot_map::SlotMap;
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

        // Each bank's ants' assignments, carried from round to round.
        let mut outs = [vec![Assignment::Idle; n], vec![Assignment::Idle; n]];
        for round in 1..=50u64 {
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, 2 * n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            for (b, (((bank, twin), reference), out)) in banks
                .iter_mut()
                .zip(&mut twins)
                .zip(&mut references)
                .zip(&mut outs)
                .enumerate()
            {
                let streams = b * n..(b + 1) * n;
                let before = out.clone();
                bank.step_batch(prepared.view(), &mut bank_rngs[streams.clone()], out);
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
                    let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                    assert_eq!(slot, out[i], "bank {b} slot {i} round {round} k {k}");
                }
            }
        }
        for (out, reference) in outs.iter().zip(&references) {
            for (i, ant) in reference.iter().enumerate() {
                assert_eq!(out[i], ant.assignment());
            }
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let mut ant = Trivial::new(2);
        ant.reset_to(Assignment::Task(1));
        let bank: ControllerBank = [AnyController::from(ant)].into_iter().collect();
        let AnyController::ExactGreedy(back) = bank.to_any(0, Assignment::Task(1)) else {
            unreachable!("a trivial colony is an exact-greedy bank");
        };
        assert_eq!(back.params(), &ExactGreedyParams::TRIVIAL);
        assert_eq!(back.assignment(), Assignment::Task(1));

        let mut bank = ExactGreedyBank::new(2, ExactGreedyParams::default(), 0);
        let mut ant = ExactGreedy::new(2, ExactGreedyParams::default());
        ant.reset_to(Assignment::Task(0));
        bank.push_controller(&ant).unwrap();
        assert_eq!(bank.len(), 1);
        let back = bank.to_controller(0, Assignment::Task(0));
        assert_eq!(back.assignment(), Assignment::Task(0));
    }

    #[test]
    fn swap_remove_moves_last_slot() {
        let mut bank = ExactGreedyBank::new(1, ExactGreedyParams::TRIVIAL, 3);
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        let (a, b) = bank.as_slice_mut().split_at_mut(1);
        assert_eq!((a.len(), b.len()), (1, 1));
    }
}
