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
//! Only phase-offset-0 ants live here; desynchronized (`AntDesync`)
//! colonies keep the per-ant layout.

use antalloc_env::Assignment;
use antalloc_noise::RoundView;
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant::{AlgorithmAnt, AntBankState};
use crate::bank::Stepping;
use crate::params::AntParams;
use crate::slot_map::SlotMap;

/// `current`/`assignment` encoding: task index, or `IDLE`. Shared by
/// every structure-of-arrays bank (see also [`crate::TrivialBank`],
/// [`crate::ExactGreedyBank`], [`crate::PreciseSigmoidBank`]) — and,
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
/// Clears and refills a column with `n` copies of `value`, reusing the
/// allocation when it suffices — the shared primitive behind every
/// bank's `reinit` (shrink-to-reuse, grow reallocates).
pub(crate) fn refill<T: Copy>(column: &mut Vec<T>, value: T, n: usize) {
    column.clear();
    column.resize(n, value);
}

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

/// A homogeneous, phase-synchronized Algorithm Ant population in
/// structure-of-arrays layout.
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
}

impl AntBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: AntParams, n: usize) -> Self {
        assert!(num_tasks >= 1, "at least one task");
        Self {
            params,
            pause: Bernoulli::new(params.pause_probability()),
            leave: Bernoulli::new(params.leave_probability()),
            num_tasks,
            current: vec![IDLE; n],
            assignment: vec![IDLE; n],
            s1_current: vec![0; n],
            have_s1: vec![0; n],
            s1_all: vec![0; n * num_tasks],
        }
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
        refill(&mut self.current, IDLE, n);
        refill(&mut self.assignment, IDLE, n);
        refill(&mut self.s1_current, 0, n);
        refill(&mut self.have_s1, 0, n);
        refill(&mut self.s1_all, 0, n * num_tasks);
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

    /// Appends a per-ant controller, transposing its state in.
    ///
    /// # Panics
    /// If the controller is desynchronized (non-zero phase offset) —
    /// those keep the per-ant layout.
    pub fn push_controller(&mut self, ant: &AlgorithmAnt) {
        assert_eq!(
            ant.phase_offset(),
            0,
            "desynchronized ants do not fit a synchronized bank"
        );
        let s = ant.bank_state();
        self.current.push(enc(s.current_task));
        self.assignment.push(enc(s.assignment));
        self.s1_current.push(u8::from(s.s1_current_lack));
        self.have_s1.push(u8::from(s.have_s1));
        debug_assert_eq!(s.s1_lack.len(), self.num_tasks);
        self.s1_all.extend(s.s1_lack.iter().map(|&l| u8::from(l)));
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless for the persistent state).
    pub fn to_controller(&self, slot: usize) -> AlgorithmAnt {
        let k = self.num_tasks;
        AlgorithmAnt::from_bank_state(
            k,
            self.params,
            AntBankState {
                current_task: dec(self.current[slot]),
                assignment: dec(self.assignment[slot]),
                s1_lack: self.s1_all[slot * k..slot * k + k]
                    .iter()
                    .map(|&b| b == 1)
                    .collect(),
                s1_current_lack: self.s1_current[slot] == 1,
                have_s1: self.have_s1[slot] == 1,
            },
        )
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
}

impl<'a> AntSliceMut<'a> {
    /// Number of ants in the chunk.
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// True iff the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (AntSliceMut<'a>, AntSliceMut<'a>) {
        let k = self.num_tasks;
        let (c1, c2) = self.current.split_at_mut(mid);
        let (a1, a2) = self.assignment.split_at_mut(mid);
        let (s1, s2) = self.s1_current.split_at_mut(mid);
        let (h1, h2) = self.have_s1.split_at_mut(mid);
        let (r1, r2) = self.s1_all.split_at_mut(mid * k);
        (
            AntSliceMut {
                pause: self.pause,
                leave: self.leave,
                num_tasks: k,
                current: c1,
                assignment: a1,
                s1_current: s1,
                have_s1: h1,
                s1_all: r1,
            },
            AntSliceMut {
                pause: self.pause,
                leave: self.leave,
                num_tasks: k,
                current: c2,
                assignment: a2,
                s1_current: s2,
                have_s1: h2,
                s1_all: r2,
            },
        )
    }

    /// Steps every ant in the chunk through `stepping`. Bit-identical to
    /// per-ant [`crate::Controller::step`] on [`AlgorithmAnt`]: same
    /// samples, same coins, same short-circuits, per ant in slot order.
    /// The sub-round parity picks the whole loop, not a branch per ant.
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        if stepping.round() % 2 == 1 {
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
    use crate::ControllerBank;
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
        let mut bank = ControllerBank::AntSoA(AntBank::new(k, params, n));
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
