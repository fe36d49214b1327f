//! Structure-of-arrays bank for §4 Algorithm Ant — the hot layout.
//!
//! A million-ant Ant colony is memory-bound: stepping a `Vec` of
//! per-ant structs streams ~200 bytes per ant per round (struct, two
//! heap sample buffers). This bank transposes the persistent state into
//! flat arrays — ~13 bytes per ant, with the ant's draws built on the
//! stack from its round stream — and hoists the phase-parity branch and the shared pause/leave samplers out of the
//! loop.
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
use crate::bank::{split_chunk, Stepping};
use crate::params::AntParams;
use crate::slot_map::SlotMap;

/// `current`/`assignment` encoding: task index, or `IDLE`. Shared by
/// every structure-of-arrays bank (see also [`crate::ExactGreedyBank`],
/// [`crate::PreciseSigmoidBank`], [`crate::PreciseAdversarialBank`]) — and,
/// by construction, identical to [`Assignment::RAW_IDLE`], so bank
/// columns write into the engine's fused [`antalloc_env::TaskColumn`]
/// without re-encoding.
pub(crate) const IDLE: u32 = Assignment::RAW_IDLE;

#[inline(always)]
pub(crate) fn enc(a: Assignment) -> u32 {
    a.to_raw()
}

#[inline(always)]
pub(crate) fn dec(x: u32) -> Assignment {
    Assignment::from_raw(x)
}

/// The `pick`-th (0-based) set bit of `mask`, as a bit index.
///
/// Returns `u32` — the native width of `trailing_zeros`, and the width
/// of the assignment columns the callers store into — so no call site
/// needs a narrowing cast.
#[inline(always)]
pub(crate) fn nth_set_bit(mut mask: u64, pick: usize) -> u32 {
    for _ in 0..pick {
        mask &= mask - 1;
    }
    mask.trailing_zeros()
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
pub(crate) fn nth_lacking(row: &[u8], pick: usize) -> u32 {
    row.iter()
        .enumerate()
        .filter(|(_, &l)| l == 1)
        .nth(pick)
        .map(|(j, _)| crate::cast::task_col(j))
        // audit:allow(panic-path): callers draw `pick` via uniform_index(count_lacking(row)), so pick < count.
        .expect("pick < count")
}

/// A homogeneous Algorithm Ant population in structure-of-arrays
/// layout.
#[derive(Clone, Debug)]
pub struct AntBank {
    params: AntParams,
    pause: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    /// `currentTask` per ant (`IDLE` when idle).
    current: Vec<u32>,
    /// Output assignment `a_t` per ant.
    assignment: Vec<u32>,
    /// Working-path first sample of the current task: 1 = lack.
    s1_current: Vec<u8>,
    /// First-sample-valid flag per ant.
    have_s1: Vec<u8>,
    /// Idle-path first samples, ant-major `num_tasks` bytes per ant.
    s1_all: Vec<u8>,
    /// Phase parity per ant (1 = its two-round phase runs one round
    /// behind the colony's); empty in a synchronized bank.
    parity: Vec<u8>,
}

impl AntBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: AntParams, n: usize) -> Self {
        let mut bank = Self {
            params,
            pause: Bernoulli::new(0.0),
            leave: Bernoulli::new(0.0),
            num_tasks,
            current: Vec::new(),
            assignment: Vec::new(),
            s1_current: Vec::new(),
            have_s1: Vec::new(),
            s1_all: Vec::new(),
            parity: Vec::new(),
        };
        bank.reinit(num_tasks, params, n);
        bank
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `AntBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: AntParams, n: usize) {
        assert!(num_tasks >= 1, "at least one task");
        self.params = params;
        self.pause = Bernoulli::new(params.pause_probability());
        self.leave = Bernoulli::new(params.leave_probability());
        self.num_tasks = num_tasks;
        self.resize(0);
        self.parity.clear();
        self.resize(n);
    }

    /// Desynchronizes the bank: slot `s` runs at phase offset
    /// `ids[s] mod 2`, staggered by global ant id (so a desynchronized
    /// sub-population stays half-and-half however a mix interleaves
    /// it).
    pub fn stagger(&mut self, ids: &[u32]) {
        assert_eq!(ids.len(), self.len(), "one id per ant");
        self.parity.clear();
        self.parity
            .extend(ids.iter().map(|&id| u8::from(id % 2 == 1)));
    }

    /// Truncates or extends every column to `n` ants, new ants fresh
    /// and idle at phase offset 0.
    fn resize(&mut self, n: usize) {
        self.current.resize(n, IDLE);
        self.assignment.resize(n, IDLE);
        self.s1_current.resize(n, 0);
        self.have_s1.resize(n, 0);
        self.s1_all.resize(n * self.num_tasks, 0);
        if !self.parity.is_empty() {
            self.parity.resize(n, 0);
        }
    }

    /// Appends a fresh idle ant at phase offset 0 (a spawn).
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

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &AntParams {
        &self.params
    }

    /// Appends a per-ant controller, transposing its state in. An ant
    /// with an odd phase offset desynchronizes the bank.
    pub fn push_controller(&mut self, ant: &AlgorithmAnt) {
        let parity = u8::from(ant.phase_offset() % 2 == 1);
        if parity == 1 && self.parity.is_empty() {
            self.parity.resize(self.len(), 0);
        }
        if !self.parity.is_empty() {
            self.parity.push(parity);
        }
        self.current.push(enc(ant.current_task));
        self.assignment.push(enc(ant.assignment));
        self.s1_current.push(u8::from(ant.s1_current.is_lack()));
        self.have_s1.push(u8::from(ant.have_s1));
        debug_assert_eq!(ant.s1_all.len(), self.num_tasks);
        self.s1_all
            .extend(ant.s1_all.iter().map(|f| u8::from(f.is_lack())));
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless for the persistent state, the phase offset
    /// as its parity, the only part of it a step reads).
    pub fn to_controller(&self, slot: usize) -> AlgorithmAnt {
        let k = self.num_tasks;
        let offset = self.parity.get(slot).map_or(0, |&p| u64::from(p));
        let feedback = |b: u8| [Feedback::Overload, Feedback::Lack][usize::from(b)];
        let mut ant = AlgorithmAnt::with_phase_offset(k, self.params, offset);
        ant.current_task = dec(self.current[slot]);
        ant.assignment = dec(self.assignment[slot]);
        let row = &self.s1_all[slot * k..slot * k + k];
        for (f, &b) in ant.s1_all.iter_mut().zip(row) {
            *f = feedback(b);
        }
        ant.s1_current = feedback(self.s1_current[slot]);
        ant.have_s1 = self.have_s1[slot] == 1;
        ant
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
        self.have_s1[slot] = 0;
    }

    /// Persistent memory in bits (same accounting as
    /// [`crate::Controller::memory_bits`] on [`AlgorithmAnt`]).
    pub fn memory_bits(&self) -> u32 {
        let k = crate::cast::task_col(self.num_tasks);
        crate::memory::bits_for_states(self.num_tasks + 1) + k + 1
    }

    /// Reorders the ants' slots by `map`, every column alike.
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        map.apply(&mut self.current);
        map.apply(&mut self.assignment);
        map.apply(&mut self.s1_current);
        map.apply(&mut self.have_s1);
        map.apply_rows(&mut self.s1_all, self.num_tasks);
        if !self.parity.is_empty() {
            map.apply(&mut self.parity);
        }
    }

    /// The whole bank as a splittable mutable slice.
    pub fn as_slice_mut(&mut self) -> AntSliceMut<'_> {
        AntSliceMut {
            pause: self.pause,
            leave: self.leave,
            num_tasks: self.num_tasks,
            current: &mut self.current,
            assignment: &mut self.assignment,
            s1_current: &mut self.s1_current,
            have_s1: &mut self.have_s1,
            s1_all: &mut self.s1_all,
            parity: &mut self.parity,
        }
    }
}

/// A disjoint mutable chunk of an [`AntBank`].
#[derive(Debug)]
pub struct AntSliceMut<'a> {
    pause: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    current: &'a mut [u32],
    assignment: &'a mut [u32],
    s1_current: &'a mut [u8],
    have_s1: &'a mut [u8],
    s1_all: &'a mut [u8],
    /// Empty for a chunk of a synchronized bank.
    parity: &'a mut [u8],
}

impl<'a> AntSliceMut<'a> {
    /// Number of ants in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.current.len()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (AntSliceMut<'a>, AntSliceMut<'a>) {
        let (k, desync) = (self.num_tasks, !self.parity.is_empty());
        split_chunk!(self => AntSliceMut { pause, leave, num_tasks }
            current: mid, assignment: mid, s1_current: mid, have_s1: mid,
            s1_all: mid * k, parity: mid * usize::from(desync))
    }

    /// Steps every ant in the chunk through `stepping`. Bit-identical to
    /// per-ant [`crate::Controller::step`] on [`AlgorithmAnt`]: same
    /// samples, same coins, same short-circuits, per ant in slot order.
    /// In a synchronized chunk the sub-round parity picks the whole
    /// loop, not a branch per ant; a desynchronized chunk picks per ant
    /// by its own phase parity.
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let odd = stepping.round() % 2 == 1;
        if !self.parity.is_empty() {
            stepping.run(
                n,
                #[inline(always)]
                |i, view, rng| {
                    if odd != (self.parity[i] == 1) {
                        self.first_sample_round(i, view, rng)
                    } else {
                        self.second_sample_round(i, view, rng)
                    }
                },
            );
        } else if odd {
            stepping.run(
                n,
                #[inline(always)]
                |i, view, rng| self.first_sample_round(i, view, rng),
            );
        } else {
            stepping.run(
                n,
                #[inline(always)]
                |i, view, rng| self.second_sample_round(i, view, rng),
            );
        }
    }

    /// Odd rounds: adopt `a_{t−1}`, take the first sample, maybe pause.
    #[inline(always)]
    fn first_sample_round(
        &mut self,
        i: usize,
        view: RoundView<'_>,
        rng: &mut AntRng,
    ) -> Assignment {
        let k = self.num_tasks;
        let cur = self.assignment[i];
        self.current[i] = cur;
        if cur != IDLE {
            self.s1_current[i] = u8::from(view.sample(crate::cast::task_ix(cur), rng).is_lack());
            self.have_s1[i] = 1;
            if self.pause.sample(rng) {
                self.assignment[i] = IDLE;
            }
        } else {
            // Batched full-vector sample straight into the ant's row.
            view.fill_lack(rng, &mut self.s1_all[i * k..i * k + k]);
            self.have_s1[i] = 1;
        }
        dec(self.assignment[i])
    }

    /// Even rounds: second sample, then the leave/join decision.
    #[inline(always)]
    fn second_sample_round(
        &mut self,
        i: usize,
        view: RoundView<'_>,
        rng: &mut AntRng,
    ) -> Assignment {
        let k = self.num_tasks;
        let cur = self.current[i];
        if cur != IDLE {
            let s2_lack = view.sample(crate::cast::task_ix(cur), rng).is_lack();
            let both_overload = self.have_s1[i] == 1 && self.s1_current[i] == 0 && !s2_lack;
            self.assignment[i] = if both_overload && self.leave.sample(rng) {
                IDLE
            } else {
                cur
            };
        } else {
            let row = &self.s1_all[i * k..i * k + k];
            self.assignment[i] = if k <= 64 {
                // Bit-packed join: batch-sample all tasks (every draw
                // must happen), AND the two sample vectors, pick
                // uniformly.
                let mut s2 = [0u8; 64];
                view.fill_lack(rng, &mut s2[..k]);
                let mut joinable = 0u64;
                for (j, &s1) in row.iter().enumerate() {
                    joinable |= u64::from(s2[j] == 1 && s1 == 1) << j;
                }
                if self.have_s1[i] == 0 {
                    joinable = 0;
                }
                match joinable.count_ones() as usize {
                    0 => IDLE,
                    count => nth_set_bit(joinable, uniform_index(rng, count)),
                }
            } else {
                let mut s2 = vec![0u8; k];
                view.fill_lack(rng, &mut s2);
                let joinable = |j: usize| row[j] == 1 && s2[j] == 1;
                let count = if self.have_s1[i] == 1 {
                    (0..k).filter(|&j| joinable(j)).count()
                } else {
                    0
                };
                match count {
                    0 => IDLE,
                    count => {
                        let pick = uniform_index(rng, count);
                        let j = (0..k)
                            .filter(|&j| joinable(j))
                            .nth(pick)
                            // audit:allow(panic-path): pick was drawn as uniform_index(count) over this very filter.
                            .expect("pick < count");
                        crate::cast::task_col(j)
                    }
                }
            };
        }
        self.have_s1[i] = 0;
        dec(self.assignment[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
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
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                assert_eq!(ant.assignment(), bank.assignment(i), "ant {i}");
                let slot = twin.step_slot(i, prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
        }
        // Conversion out matches the reference controllers' behaviour on
        // the next round too (persistent state is lossless).
        let prepared = model.prepare(41, &deficits, &loads);
        let mut ref_rngs = crate::round_streams(&seeder, 41, n);
        for i in 0..n {
            let mut rebuilt = bank.to_any(i);
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
                }
            }
            let prepared = model.prepare(round, &deficits, &loads);
            let mut bank_rngs = crate::round_streams(&seeder, round, n);
            let mut ref_rngs = bank_rngs.clone();
            let mut slot_rngs = bank_rngs.clone();
            bank.step_batch(prepared.view(), &mut bank_rngs, &mut out);
            for (i, ant) in reference.iter_mut().enumerate() {
                let mut probe = FeedbackProbe::new(&prepared, &mut ref_rngs[i]);
                assert_eq!(ant.step(&mut probe), out[i], "ant {i} round {round} k {k}");
                let slot = twin.step_slot(i, prepared.view(), &mut slot_rngs[i]);
                assert_eq!(slot, out[i], "slot {i} round {round} k {k}");
            }
        }
        // Conversion out keeps each ant's offset.
        for (i, ant) in reference.iter().enumerate() {
            let AnyController::Ant(back) = bank.to_any(i) else {
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
            bank.push_controller(&ant);
        }
        let offsets = |bank: &AntBank| -> Vec<u64> {
            (0..bank.len())
                .map(|s| bank.to_controller(s).phase_offset())
                .collect()
        };
        assert_eq!(offsets(&bank), [0, 1, 0]);
        // Slot 0 dies; the last ant (offset 0) moves in, the offset-1
        // ant stays put.
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(offsets(&bank), [0, 1]);
        assert_eq!(bank.assignment(1), Assignment::Task(1));
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
        assert_eq!(bank.assignment(0), Assignment::Idle); // old slot 2
        assert_eq!(bank.assignment(1), Assignment::Task(1));
    }

    #[test]
    fn push_and_reconstruct_roundtrip() {
        let params = AntParams::default();
        let mut bank = AntBank::new(2, params, 0);
        let mut ant = AlgorithmAnt::new(2, params);
        ant.reset_to(Assignment::Task(1));
        bank.push_controller(&ant);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.assignment(0), Assignment::Task(1));
        let back = bank.to_controller(0);
        assert_eq!(back.assignment(), Assignment::Task(1));
    }
}
