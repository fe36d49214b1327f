//! Structure-of-arrays bank for §4 Algorithm Ant — the hot layout.
//!
//! A million-ant Ant colony is memory-bound: stepping a `Vec` of
//! per-ant structs streams ~200 bytes per ant per round (struct, two
//! heap sample buffers). This bank transposes the persistent state into
//! flat arrays — one `u16` task column and one bit row of ⌈(k + 2)/8⌉
//! bytes per ant (3 bytes at `k` = 4; the colony's task column holds
//! the assignment), with the ant's draws built on
//! the stack from its round stream — and hoists the phase-parity branch
//! and the shared pause/leave samplers out of the loop.
//!
//! **Reference semantics.** [`crate::AlgorithmAnt`] is the truth;
//! [`AntBank`] must consume every ant's RNG stream in exactly the order
//! `Controller::step` would (samples, then pause/leave/join coins, with
//! the same short-circuits), so bank runs are bit-identical to per-ant
//! runs. The bank property tests compare the two round for round;
//! conversion in and out ([`AntBank::push_controller`] /
//! [`AntBank::to_controller`]) is lossless for the persistent state.
//!
//! Desynchronized (`AntDesync`) banks carry one more column, each
//! ant's phase parity (its phase offset mod 2). It moves with the ant
//! through slot maps, so an ant keeps its offset across kills.
//! Synchronized banks carry no parity column and keep the two hoisted
//! per-parity loops.

use antalloc_env::Assignment;
use antalloc_noise::{Feedback, RoundView};
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant::AlgorithmAnt;
use crate::bank::{fits, BankError, Stepping};
use crate::bit_row;
use crate::cast::{dec, enc, task_col, task_ix, wide, IDLE};
use crate::columns::{self, soa_bank};
use crate::params::AntParams;

/// The `pick`-th (0-based) set bit of `mask`, as a task column value.
#[inline(always)]
pub(crate) fn nth_set_bit(mut mask: u64, pick: usize) -> u16 {
    for _ in 0..pick {
        mask &= mask - 1;
    }
    task_col(wide(mask.trailing_zeros()))
}

/// Number of `lack` entries in a `0/1` signal row.
#[inline(always)]
pub(crate) fn count_lacking(row: &[u8]) -> usize {
    row.iter().filter(|&&l| l == 1).count()
}

/// The `pick`-th (0-based) `lack` entry of a `0/1` signal row, in task
/// order — the same selection the per-ant reference controllers make
/// with `filter(..).nth(pick)`.
#[inline(always)]
pub(crate) fn nth_lacking(row: &[u8], pick: usize) -> u16 {
    nth_where(row.len(), pick, |j| row[j] == 1)
}

/// The `pick`-th (0-based) task `j < k` with `hit(j)`, in task order.
#[inline(always)]
pub(crate) fn nth_where(k: usize, pick: usize, hit: impl Fn(usize) -> bool) -> u16 {
    (0..k)
        .filter(|&j| hit(j))
        .nth(pick)
        .map(task_col)
        // audit:allow(panic-path): callers draw `pick` via uniform_index(count) over the same predicate, so pick < count.
        .expect("pick < count")
}

/// Row-buffer for the > 64-task paths, one per chunk; the bit-packed
/// common case never reads it, so it stays unallocated there.
#[inline]
pub(crate) fn scratch_row(num_tasks: usize) -> Vec<u8> {
    if num_tasks <= 64 {
        Vec::new()
    } else {
        vec![0u8; num_tasks]
    }
}

soa_bank! {
    /// A homogeneous Algorithm Ant population in structure-of-arrays
    /// layout.
    pub struct AntBank(num_tasks: usize, params: AntParams) {
        params: AntParams = params,
    }
    /// A disjoint mutable chunk of an [`AntBank`].
    pub struct AntSliceMut<'a> {
        pause: Bernoulli = Bernoulli::new(params.pause_probability()),
        leave: Bernoulli = Bernoulli::new(params.leave_probability()),
        num_tasks: usize = columns::tasks(num_tasks),
        /// Bytes per bit row.
        width: usize = bit_row::width(num_tasks + 2),
        /// Parity entries per ant: 1 in a desynchronized bank, else 0.
        parity_width: usize = 0,
    }
    columns {
        /// `currentTask` per ant (`IDLE` when idle).
        current: [u16] = IDLE => Task(num_tasks),
        /// One bit row per ant (see [`crate::bit_row`]): the idle path's
        /// first samples in bits `0..k` (1 = lack), then the working
        /// path's first sample of its task ([`S1_CURRENT`]) and the
        /// first-sample-valid flag ([`HAVE_S1`]).
        bits: [u8; width] = 0 => Row(num_tasks + 2),
        /// Phase parity per ant (1 = its two-round phase runs one round
        /// behind the colony's); empty in a synchronized bank.
        parity: [u8; parity_width] = 0 => AtMost(1),
    }
}

/// Bit of an Ant row past the `k` first samples: the working path's
/// first sample (1 = lack).
const S1_CURRENT: usize = 0;
/// Bit of an Ant row past the `k` first samples: the first sample is
/// valid.
const HAVE_S1: usize = 1;

impl AntBank {
    /// Desynchronizes the bank: slot `s` runs at phase offset
    /// `ids[s] mod 2`, staggered by global ant id (so a desynchronized
    /// sub-population stays half-and-half however a mix interleaves
    /// it).
    pub fn stagger(&mut self, ids: &[u32]) {
        assert_eq!(ids.len(), self.len(), "one id per ant");
        self.parity_width = 1;
        self.parity.clear();
        self.parity
            .extend(ids.iter().map(|&id| u8::from(id % 2 == 1)));
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &AntParams {
        &self.params
    }

    /// The bit row of the ant at `slot`, mutably.
    fn row_mut(&mut self, slot: usize) -> &mut [u8] {
        let w = self.width;
        &mut self.bits[slot * w..slot * w + w]
    }

    /// Appends a per-ant controller, transposing its state in (all but
    /// its assignment, which the colony's task column holds). An ant
    /// with an odd phase offset desynchronizes the bank.
    ///
    /// # Errors
    /// If the ant runs other parameters or observes another number of
    /// tasks (see [`crate::ControllerBank::push`]).
    pub fn push_controller(&mut self, ant: &AlgorithmAnt) -> Result<(), BankError> {
        fits(
            (self.num_tasks, &self.params),
            (ant.num_tasks(), ant.params()),
        )?;
        let parity = u8::from(ant.phase_offset() % 2 == 1);
        if parity == 1 && self.parity_width == 0 {
            self.parity_width = 1;
            self.parity.resize(self.len(), 0);
        }
        self.push_fresh();
        let slot = self.len() - 1;
        if let Some(p) = self.parity.get_mut(slot) {
            *p = parity;
        }
        self.current[slot] = enc(ant.current_task);
        // The flags follow the samples in bit order: S1_CURRENT, HAVE_S1.
        let samples = ant.s1_all.iter().map(|f| f.is_lack());
        bit_row::pack(
            self.row_mut(slot),
            samples.chain([ant.s1_current.is_lack(), ant.have_s1]),
        );
        Ok(())
    }

    /// Reconstructs the per-ant controller at `slot`, whose assignment
    /// is `a` (reference extraction; lossless for the persistent state,
    /// the phase offset as its parity, the only part of it a step
    /// reads).
    pub fn to_controller(&self, slot: usize, a: Assignment) -> AlgorithmAnt {
        let (k, w) = (self.num_tasks, self.width);
        let offset = self.parity.get(slot).map_or(0, |&p| u64::from(p));
        let feedback = |lack: bool| [Feedback::Overload, Feedback::Lack][usize::from(lack)];
        let mut ant = AlgorithmAnt::with_phase_offset(k, self.params, offset);
        ant.current_task = dec(self.current[slot]);
        ant.assignment = a;
        let row = &self.bits[slot * w..slot * w + w];
        for (j, f) in ant.s1_all.iter_mut().enumerate() {
            *f = feedback(bit_row::get(row, j));
        }
        ant.s1_current = feedback(bit_row::get(row, k + S1_CURRENT));
        ant.have_s1 = bit_row::get(row, k + HAVE_S1);
        ant
    }

    /// Forces the ant at `slot` into `a` (see
    /// [`crate::Controller::reset_to`]).
    pub fn reset_slot(&mut self, slot: usize, a: Assignment) {
        self.current[slot] = enc(a);
        let k = self.num_tasks;
        bit_row::set(self.row_mut(slot), k + HAVE_S1, false);
    }

    /// Persistent memory in bits (the per-ant impl's accounting,
    /// `memory::ant_memory_bits`).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::ant_memory_bits(self.num_tasks)
    }
}

impl AntSliceMut<'_> {
    /// Steps every ant in the chunk through `stepping`. Bit-identical to
    /// per-ant [`crate::Controller::step`] on [`AlgorithmAnt`]: same
    /// samples, same coins, same short-circuits, per ant in slot order.
    /// In a synchronized chunk the sub-round parity picks the whole
    /// loop, not a branch per ant; a desynchronized chunk picks per ant
    /// by its own phase parity.
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let odd = stepping.round() % 2 == 1;
        let mut scratch = scratch_row(self.num_tasks);
        if !self.parity.is_empty() {
            stepping.run(
                n,
                #[inline(always)]
                |i, prev, view, rng| {
                    if odd != (self.parity[i] == 1) {
                        self.first_sample_round(i, prev, view, rng, &mut scratch)
                    } else {
                        self.second_sample_round(i, view, rng, &mut scratch)
                    }
                },
            );
        } else if odd {
            stepping.run(
                n,
                #[inline(always)]
                |i, prev, view, rng| self.first_sample_round(i, prev, view, rng, &mut scratch),
            );
        } else {
            stepping.run(
                n,
                #[inline(always)]
                |i, _, view, rng| self.second_sample_round(i, view, rng, &mut scratch),
            );
        }
    }

    /// Odd rounds: adopt `a_{t−1}` (`prev`), take the first sample, maybe
    /// pause.
    #[inline(always)]
    fn first_sample_round(
        &mut self,
        i: usize,
        prev: u16,
        view: RoundView<'_>,
        rng: &mut AntRng,
        scratch: &mut [u8],
    ) -> u16 {
        let (k, w) = (self.num_tasks, self.width);
        let row = &mut self.bits[i * w..i * w + w];
        self.current[i] = prev;
        if prev != IDLE {
            let lack = view.sample(task_ix(prev), rng).is_lack();
            bit_row::set(row, k + S1_CURRENT, lack);
            bit_row::set(row, k + HAVE_S1, true);
            if self.pause.sample(rng) {
                return IDLE;
            }
        } else {
            // Batched full-vector sample straight into the ant's row.
            if k <= 64 {
                bit_row::store(row, k, view.lack_mask(rng));
            } else {
                view.fill_lack(rng, scratch);
                for (j, &lack) in scratch.iter().enumerate() {
                    bit_row::set(row, j, lack == 1);
                }
            }
            bit_row::set(row, k + HAVE_S1, true);
        }
        prev
    }

    /// Even rounds: second sample, then the leave/join decision (the
    /// prior assignment is not read: `currentTask` decides).
    #[inline(always)]
    fn second_sample_round(
        &mut self,
        i: usize,
        view: RoundView<'_>,
        rng: &mut AntRng,
        scratch: &mut [u8],
    ) -> u16 {
        let (k, w) = (self.num_tasks, self.width);
        let row = &mut self.bits[i * w..i * w + w];
        let have_s1 = bit_row::get(row, k + HAVE_S1);
        let cur = self.current[i];
        let next = if cur != IDLE {
            let s2_lack = view.sample(task_ix(cur), rng).is_lack();
            let both_overload = have_s1 && !bit_row::get(row, k + S1_CURRENT) && !s2_lack;
            if both_overload && self.leave.sample(rng) {
                IDLE
            } else {
                cur
            }
        } else if k <= 64 {
            // Bit-packed join: batch-sample all tasks (every draw
            // must happen), AND the two sample vectors, pick
            // uniformly.
            let s2 = view.lack_mask(rng);
            let joinable = if have_s1 {
                bit_row::load(row, k) & s2
            } else {
                0
            };
            match joinable.count_ones() {
                0 => IDLE,
                count => nth_set_bit(joinable, uniform_index(rng, wide(count))),
            }
        } else {
            view.fill_lack(rng, scratch);
            let joinable = |j: usize| bit_row::get(row, j) && scratch[j] == 1;
            let count = if have_s1 {
                (0..k).filter(|&j| joinable(j)).count()
            } else {
                0
            };
            match count {
                0 => IDLE,
                count => nth_where(k, uniform_index(rng, count), joinable),
            }
        };
        bit_row::set(row, k + HAVE_S1, false);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::slot_map::SlotMap;
    use crate::{AnyController, ControllerBank};
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    /// The SoA bank against the per-ant reference, round for round,
    /// through the chunk loop (`step_batch`) and, on a twin bank, one
    /// slot at a time (`step_slot`, the sequential model's path) — at 3
    /// tasks and at 65, past the bit-packed 64-task join into the
    /// row-buffer fallback.
    #[test]
    fn soa_bank_matches_per_ant_stepping() {
        for k in [3, 65] {
            soa_bank_matches_per_ant_stepping_at(k);
        }
    }

    fn soa_bank_matches_per_ant_stepping_at(k: usize) {
        let n = 200;
        let params = AntParams::new(1.0 / 16.0);
        let seeder = StreamSeeder::new(9);
        let mut bank = ControllerBank::Ant(AntBank::new(k, params, n));
        let mut twin = bank.clone();
        let mut reference: Vec<AlgorithmAnt> =
            (0..n).map(|_| AlgorithmAnt::new(k, params)).collect();
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let deficits: Vec<i64> = (0..k).map(|j| [4, 0, -4][j % 3]).collect();
        let loads = vec![20; k];
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=40u64 {
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            let before = out.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
        }
        // Conversion out matches the reference controllers' behaviour on
        // the next round too (persistent state is lossless).
        let prepared = model.prepare(41, &deficits, &loads);
        let mut ref_rngs = crate::round_streams(&seeder, 41, n);
        for i in 0..n {
            let mut rebuilt = bank.to_any(i, out[i]);
            let mut rng_a = ref_rngs[i].clone();
            let mut probe = FeedbackProbe::new(&prepared, &mut rng_a);
            let a = rebuilt.step(&mut probe);
            let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
            let b = reference[i].step(&mut probe);
            assert_eq!(a, b, "rebuilt ant {i} diverges");
        }
    }

    /// A desynchronized bank (phase parity staggered by id, both
    /// parities present, plus a spawned offset-0 ant at an odd id)
    /// against per-ant references with the same offsets, round for
    /// round, through `step_batch` and, on a twin bank, `step_slot` — at
    /// 3 tasks and at 65. Mid-run, a scramble resets every ant.
    #[test]
    fn desync_bank_matches_per_ant_stepping() {
        for k in [3, 65] {
            desync_bank_matches_per_ant_stepping_at(k);
        }
    }

    fn desync_bank_matches_per_ant_stepping_at(k: usize) {
        let n = 121;
        let params = AntParams::new(1.0 / 16.0);
        let seeder = StreamSeeder::new(13);
        let ids: Vec<u32> = (0..n as u32 - 1).collect();
        let mut ant_bank = AntBank::new(k, params, n - 1);
        ant_bank.stagger(&ids);
        ant_bank.push_fresh(); // a spawn: offset 0 at the odd id 120
        let mut bank = ControllerBank::Ant(ant_bank);
        let mut twin = bank.clone();
        let mut reference: Vec<AlgorithmAnt> = (0..n)
            .map(|i| {
                AlgorithmAnt::with_phase_offset(k, params, (i % 2 * usize::from(i < n - 1)) as u64)
            })
            .collect();
        assert_eq!(reference[n - 1].phase_offset(), 0);
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let deficits: Vec<i64> = (0..k).map(|j| [4, 0, -4][j % 3]).collect();
        let loads = vec![20; k];
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=40u64 {
            if round == 21 {
                for (i, ant) in reference.iter_mut().enumerate() {
                    let a = Assignment::Task((i % k) as u32);
                    ant.reset_to(a);
                    bank.reset_slot(i, a);
                    twin.reset_slot(i, a);
                    out[i] = a;
                }
            }
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            let before = out.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                let slot = twin.step_slot(i, before[i], prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
        }
        // Conversion out keeps each ant's offset.
        for (i, ant) in reference.iter().enumerate() {
            let AnyController::Ant(back) = bank.to_any(i, out[i]) else {
                unreachable!("an Ant bank rebuilds Ant controllers");
            };
            assert_eq!(back.phase_offset(), ant.phase_offset(), "ant {i}");
        }
    }

    #[test]
    fn desync_push_and_swap_remove_keep_each_ants_offset() {
        let params = AntParams::default();
        let mut bank = AntBank::new(2, params, 0);
        for offset in [0, 1, 0] {
            let mut ant = AlgorithmAnt::with_phase_offset(2, params, offset);
            ant.reset_to(Assignment::Task(offset as u32));
            bank.push_controller(&ant).unwrap();
        }
        let offsets = |bank: &AntBank| -> Vec<u64> {
            (0..bank.len())
                .map(|s| bank.to_controller(s, Assignment::Idle).phase_offset())
                .collect()
        };
        assert_eq!(offsets(&bank), [0, 1, 0]);
        // Slot 0 dies; the last ant (offset 0) moves in, the offset-1
        // ant stays put.
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(offsets(&bank), [0, 1]);
        assert_eq!(bank.current[1], 1);
        bank.apply_slot_map(&SlotMap::swap_remove(2, 0));
        assert_eq!(offsets(&bank), [1]);
        // A rebuild resynchronizes the bank.
        bank.reinit(2, params, 2);
        assert_eq!(offsets(&bank), [0, 0]);
    }

    #[test]
    fn swap_remove_moves_last_row() {
        let mut bank = AntBank::new(2, AntParams::default(), 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(1, Assignment::Task(1));
        bank.reset_slot(2, Assignment::Idle);
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.current, [IDLE, 1]); // old slots 2 and 1
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let params = AntParams::default();
        let mut bank = AntBank::new(2, params, 0);
        let mut ant = AlgorithmAnt::new(2, params);
        ant.reset_to(Assignment::Task(1));
        bank.push_controller(&ant).unwrap();
        assert_eq!(bank.len(), 1);
        let back = bank.to_controller(0, Assignment::Task(1));
        assert_eq!(format!("{back:?}"), format!("{ant:?}"));
    }
}
