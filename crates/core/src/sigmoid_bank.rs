//! Structure-of-arrays bank for §5 Algorithm Precise Sigmoid.
//!
//! A Precise Sigmoid ant is mostly counters: two `u16` `lack` counts
//! and one frozen median bit per task, incremented every round of a
//! `2m`-round phase. The per-ant struct layout scatters those counters
//! across three heap allocations per ant; this bank transposes them
//! into flat planes — `count1`/`count2` as `n × k` `u16` arrays and the
//! frozen medians as one bit row per ant (with the phase flag past
//! them, see [`crate::bit_row`]), each ant's rows contiguous so the idle
//! path (which touches all `k` entries) streams one cache line instead
//! of chasing three pointers. The idle path's full-vector sample draws
//! through the batched [`RoundView::fill_lack`].
//!
//! **Reference semantics.** [`crate::PreciseSigmoid`] is the truth; the
//! bank consumes every ant's RNG stream in exactly the order
//! `Controller::step` would (samples in task order, then the
//! pause/leave/join coins with the same short-circuits), so bank runs
//! are bit-identical to per-ant runs — pinned by `tests/banks.rs`.
//!
//! The counter planes are also what checkpoints copy
//! ([`PreciseSigmoidBank::capture_rows`]), so a capture *between* phase
//! boundaries — phases are `2m = O(1/ε)` rounds long — resumes
//! mid-phase bit-identically.

use core::ops::Range;

use antalloc_env::Assignment;
use antalloc_noise::RoundView;
use antalloc_rng::{uniform_index, AntRng, Bernoulli};

use crate::ant_bank::nth_where;
use crate::bank::{split_chunk, Stepping};
use crate::bit_row;
use crate::cast::{dec, enc, task_ix, IDLE};
use crate::controller::Controller;
use crate::params::PreciseSigmoidParams;
use crate::precise_sigmoid::{PreciseSigmoid, SigmoidScratch};
use crate::slot_map::SlotMap;

/// Precise Sigmoid state as checkpoint-shaped columns: per entry one
/// raw `currentTask` ([`Assignment::to_raw`]) and one phase-observed
/// flag (0 or 1), then `k` entries of each counter plane and of the
/// frozen-median plane (1 = lack), entry-major. A bank copies
/// rows out ([`PreciseSigmoidBank::capture_rows`]) and back in
/// ([`PreciseSigmoidBank::restore_rows`]), converting from its own
/// narrower layout.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SigmoidRows {
    /// `currentTask` per entry, raw.
    pub current: Vec<u32>,
    /// Phase-observed-from-start flag per entry (0 or 1).
    pub have_phase: Vec<u8>,
    /// First-half `lack` counts.
    pub count1: Vec<u16>,
    /// Second-half `lack` counts.
    pub count2: Vec<u16>,
    /// Frozen first-half medians (1 = lack).
    pub shat1: Vec<u8>,
}

impl SigmoidRows {
    /// Reserves room for `entries` more rows over `k` tasks.
    pub fn reserve(&mut self, entries: usize, k: usize) {
        self.current.reserve_exact(entries);
        self.have_phase.reserve_exact(entries);
        self.count1.reserve_exact(k * entries);
        self.count2.reserve_exact(k * entries);
        self.shat1.reserve_exact(k * entries);
    }
}

/// Packs one checkpoint entry's medians (`0/1` bytes) and phase flag
/// (right after them: [`HAVE_PHASE`] is 0) into a bit row, overwriting
/// it.
#[inline]
fn pack_row(row: &mut [u8], shat1: &[u8], have_phase: u8) {
    let medians = shat1.iter().map(|&lack| lack == 1);
    bit_row::pack(row, medians.chain([have_phase == 1]));
}

/// A homogeneous Precise Sigmoid population in structure-of-arrays
/// layout.
#[derive(Clone, Debug)]
pub struct PreciseSigmoidBank {
    params: PreciseSigmoidParams,
    m: u64,
    pause: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    /// `currentTask` per ant (`IDLE` when idle).
    current: Vec<u16>,
    /// Output assignment `a_t` per ant.
    assignment: Vec<u16>,
    /// First-half `lack` counts, ant-major `num_tasks` entries per ant.
    count1: Vec<u16>,
    /// Second-half `lack` counts, same shape.
    count2: Vec<u16>,
    /// One bit row per ant: the frozen first-half medians in bits
    /// `0..k` (1 = lack), then the phase-observed-from-start flag
    /// ([`HAVE_PHASE`]).
    bits: Vec<u8>,
}

/// Bit of a Precise Sigmoid row past the `k` medians: the ant observed
/// its phase from the start.
const HAVE_PHASE: usize = 0;

impl PreciseSigmoidBank {
    /// An all-idle bank of `n` fresh ants.
    pub fn new(num_tasks: usize, params: PreciseSigmoidParams, n: usize) -> Self {
        let mut bank = Self {
            params,
            m: 0,
            pause: Bernoulli::new(0.0),
            leave: Bernoulli::new(0.0),
            num_tasks,
            current: Vec::new(),
            assignment: Vec::new(),
            count1: Vec::new(),
            count2: Vec::new(),
            bits: Vec::new(),
        };
        bank.reinit(num_tasks, params, n);
        bank
    }

    /// Rebuilds the bank in place to `n` fresh all-idle ants, reusing
    /// the column allocations (shrink keeps capacity, grow
    /// reallocates). State after the call is bit-identical to
    /// `PreciseSigmoidBank::new(num_tasks, params, n)`.
    pub fn reinit(&mut self, num_tasks: usize, params: PreciseSigmoidParams, n: usize) {
        assert!(num_tasks >= 1, "at least one task");
        let m = params.m();
        assert!(m <= u64::from(u16::MAX), "m too large for u16 counters");
        self.params = params;
        self.m = m;
        self.pause = Bernoulli::new(params.pause_probability());
        self.leave = Bernoulli::new(params.leave_probability());
        self.num_tasks = num_tasks;
        self.resize(0);
        self.resize(n);
    }

    /// Bytes per bit row.
    fn row_width(&self) -> usize {
        bit_row::width(self.num_tasks + 1)
    }

    /// Truncates or extends every column to `n` ants, new ants fresh
    /// and idle.
    fn resize(&mut self, n: usize) {
        let k = self.num_tasks;
        self.current.resize(n, IDLE);
        self.assignment.resize(n, IDLE);
        self.count1.resize(n * k, 0);
        self.count2.resize(n * k, 0);
        self.bits.resize(n * self.row_width(), 0);
    }

    /// Appends a fresh idle ant (a spawn).
    pub fn push_fresh(&mut self) {
        self.resize(self.len() + 1);
    }

    /// The parameters every ant in the bank runs.
    pub fn params(&self) -> &PreciseSigmoidParams {
        &self.params
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
            + size_of_val(&self.count1[..])
            + size_of_val(&self.count2[..])
            + size_of_val(&self.bits[..])
    }

    /// Appends a per-ant controller, transposing its state in.
    pub fn push_controller(&mut self, ant: &PreciseSigmoid) {
        assert_eq!(ant.num_tasks(), self.num_tasks, "task count mismatch");
        debug_assert_eq!(ant.params(), &self.params, "parameter mismatch");
        self.push_fresh();
        let slot = self.len() - 1;
        self.reset_slot(slot, ant.assignment());
        self.apply_scratch(slot, &ant.scratch());
    }

    /// Reconstructs the per-ant controller at `slot` (reference
    /// extraction; lossless for the whole state, counters included).
    pub fn to_controller(&self, slot: usize) -> PreciseSigmoid {
        let mut ant = PreciseSigmoid::new(self.num_tasks, self.params);
        ant.reset_to(dec(self.assignment[slot]));
        ant.apply_scratch(&self.scratch(slot));
        ant
    }

    /// The bit row of the ant at `slot`.
    fn row(&self, slot: usize) -> &[u8] {
        let w = self.row_width();
        &self.bits[slot * w..slot * w + w]
    }

    /// The mid-phase counter state of the ant at `slot` (see
    /// [`SigmoidScratch`]).
    pub fn scratch(&self, slot: usize) -> SigmoidScratch {
        let k = self.num_tasks;
        let counts = slot * k..slot * k + k;
        let row = self.row(slot);
        SigmoidScratch {
            current_task: dec(self.current[slot]),
            have_phase: bit_row::get(row, k + HAVE_PHASE),
            count1: self.count1[counts.clone()].to_vec(),
            count2: self.count2[counts].to_vec(),
            shat1_lack: (0..k).map(|j| bit_row::get(row, j)).collect(),
        }
    }

    /// Overwrites the counter state of the ant at `slot` (write it
    /// *after* [`PreciseSigmoidBank::reset_slot`]).
    ///
    /// # Panics
    /// If the scratch's task count disagrees with the bank's.
    pub fn apply_scratch(&mut self, slot: usize, s: &SigmoidScratch) {
        let k = self.num_tasks;
        assert_eq!(s.shat1_lack.len(), k, "task count mismatch");
        let counts = slot * k..slot * k + k;
        self.current[slot] = enc(s.current_task);
        self.count1[counts.clone()].copy_from_slice(&s.count1);
        self.count2[counts].copy_from_slice(&s.count2);
        let w = self.row_width();
        let row = &mut self.bits[slot * w..slot * w + w];
        for (j, &lack) in s.shat1_lack.iter().enumerate() {
            bit_row::set(row, j, lack);
        }
        bit_row::set(row, k + HAVE_PHASE, s.have_phase);
    }

    /// Appends the checkpoint rows of `slots` to `rows`, in order.
    pub fn capture_rows(&self, slots: Range<usize>, rows: &mut SigmoidRows) {
        let (k, w) = (self.num_tasks, self.row_width());
        let planes = slots.start * k..slots.end * k;
        rows.count1.extend_from_slice(&self.count1[planes.clone()]);
        rows.count2.extend_from_slice(&self.count2[planes]);
        rows.current
            .extend(self.current[slots.clone()].iter().map(|&c| dec(c).to_raw()));
        let bits = self.bits[slots.start * w..slots.end * w].chunks_exact(w);
        rows.have_phase.extend(
            bits.clone()
                .map(|row| u8::from(bit_row::get(row, k + HAVE_PHASE))),
        );
        let at = rows.shat1.len();
        rows.shat1.resize(at + slots.len() * k, 0);
        for (medians, row) in rows.shat1[at..].chunks_exact_mut(k).zip(bits) {
            for (j, lack) in medians.iter_mut().enumerate() {
                *lack = u8::from(bit_row::get(row, j));
            }
        }
    }

    /// Writes entry `e` of `rows` into `slot` (write it *after*
    /// [`PreciseSigmoidBank::reset_slot`]).
    pub fn restore_row(&mut self, slot: usize, rows: &SigmoidRows, e: usize) {
        let (k, w) = (self.num_tasks, self.row_width());
        let (from, to) = (e * k..e * k + k, slot * k..slot * k + k);
        self.count1[to.clone()].copy_from_slice(&rows.count1[from.clone()]);
        self.count2[to].copy_from_slice(&rows.count2[from.clone()]);
        self.current[slot] = enc(Assignment::from_raw(rows.current[e]));
        let row = &mut self.bits[slot * w..slot * w + w];
        pack_row(row, &rows.shat1[from], rows.have_phase[e]);
    }

    /// Writes every entry of `rows` into the bank, entry `s` into slot
    /// `s` (a bank holding exactly the captured ants, in order).
    ///
    /// # Panics
    /// If `rows` does not hold one entry per ant.
    pub fn restore_rows(&mut self, rows: &SigmoidRows) {
        assert_eq!(rows.current.len(), self.len(), "one entry per ant");
        let (k, w) = (self.num_tasks, self.row_width());
        self.count1.copy_from_slice(&rows.count1);
        self.count2.copy_from_slice(&rows.count2);
        for (c, &raw) in self.current.iter_mut().zip(&rows.current) {
            *c = enc(Assignment::from_raw(raw));
        }
        let entries = rows.shat1.chunks_exact(k).zip(&rows.have_phase);
        for (row, (shat1, &have_phase)) in self.bits.chunks_exact_mut(w).zip(entries) {
            pack_row(row, shat1, have_phase);
        }
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
        let (k, w) = (self.num_tasks, self.row_width());
        bit_row::set(
            &mut self.bits[slot * w..slot * w + w],
            k + HAVE_PHASE,
            false,
        );
    }

    /// Persistent memory in bits (the shared accounting — identical to
    /// the per-ant impl by construction).
    pub fn memory_bits(&self) -> u32 {
        crate::memory::sigmoid_memory_bits(self.num_tasks, self.m)
    }

    /// Reorders the ants' slots by `map`, every column and plane
    /// alike.
    pub fn apply_slot_map(&mut self, map: &SlotMap) {
        let k = self.num_tasks;
        map.apply(&mut self.current);
        map.apply(&mut self.assignment);
        map.apply_rows(&mut self.count1, k);
        map.apply_rows(&mut self.count2, k);
        let w = self.row_width();
        map.apply_rows(&mut self.bits, w);
    }

    /// The whole bank as a splittable mutable slice.
    pub fn as_slice_mut(&mut self) -> SigmoidSliceMut<'_> {
        SigmoidSliceMut {
            m: self.m,
            pause: self.pause,
            leave: self.leave,
            num_tasks: self.num_tasks,
            width: self.row_width(),
            current: &mut self.current,
            assignment: &mut self.assignment,
            count1: &mut self.count1,
            count2: &mut self.count2,
            bits: &mut self.bits,
        }
    }
}

/// A disjoint mutable chunk of a [`PreciseSigmoidBank`].
#[derive(Debug)]
pub struct SigmoidSliceMut<'a> {
    m: u64,
    pause: Bernoulli,
    leave: Bernoulli,
    num_tasks: usize,
    /// Bytes per bit row.
    width: usize,
    current: &'a mut [u16],
    assignment: &'a mut [u16],
    count1: &'a mut [u16],
    count2: &'a mut [u16],
    bits: &'a mut [u8],
}

impl<'a> SigmoidSliceMut<'a> {
    /// Number of ants in the chunk.
    pub(crate) fn len(&self) -> usize {
        self.current.len()
    }

    /// Splits the chunk at `mid` into two disjoint chunks.
    pub fn split_at_mut(self, mid: usize) -> (SigmoidSliceMut<'a>, SigmoidSliceMut<'a>) {
        let (k, w) = (self.num_tasks, self.width);
        split_chunk!(self => SigmoidSliceMut { m, pause, leave, num_tasks, width }
            current: mid, assignment: mid,
            count1: mid * k, count2: mid * k, bits: mid * w)
    }

    /// Steps every ant in the chunk through `stepping`; bit-identical to
    /// per-ant [`Controller::step`] on [`PreciseSigmoid`]. The phase
    /// position is computed once for the whole chunk (all ants share
    /// the global clock).
    pub(crate) fn step_chunk(&mut self, stepping: Stepping<'_, '_>) {
        let n = self.len();
        let r = stepping.round() % (2 * self.m);
        // Stack scratch for the common ≤ 64-task case; one heap buffer
        // per chunk beyond that.
        let mut stack = [0u8; 64];
        let mut heap = Vec::new();
        let row: &mut [u8] = if self.num_tasks <= 64 {
            &mut stack[..self.num_tasks]
        } else {
            heap.resize(self.num_tasks, 0);
            &mut heap
        };
        stepping.run(
            n,
            #[inline(always)]
            |i, view, rng| self.step_one(i, r, view, rng, row),
        );
    }

    /// One ant's round at phase position `r = round mod 2m`, mirroring
    /// [`PreciseSigmoid::step`] clause for clause.
    #[inline(always)]
    fn step_one(
        &mut self,
        i: usize,
        r: u64,
        view: RoundView<'_>,
        rng: &mut AntRng,
        row: &mut [u8],
    ) -> Assignment {
        let (k, w) = (self.num_tasks, self.width);
        let bits = &mut self.bits[i * w..i * w + w];
        let count1 = &mut self.count1[i * k..i * k + k];
        let count2 = &mut self.count2[i * k..i * k + k];
        if r == 1 {
            // Phase start: adopt a_{t−1} as currentTask, reset counters.
            self.current[i] = self.assignment[i];
            count1.fill(0);
            count2.fill(0);
            bit_row::set(bits, k + HAVE_PHASE, true);
        }
        if !bit_row::get(bits, k + HAVE_PHASE) {
            // Joined mid-phase (reset); idle out the remainder.
            return dec(self.assignment[i]);
        }
        let first_half = (1..=self.m).contains(&r);
        let cur = self.current[i];
        {
            // sample_into: one draw for the current task, or the batched
            // full-vector draw on the idle path.
            let counts = if first_half {
                &mut *count1
            } else {
                &mut *count2
            };
            if cur != IDLE {
                let t = task_ix(cur);
                counts[t] += u16::from(view.sample(t, rng).is_lack());
            } else {
                view.fill_lack(rng, row);
                for (c, &lack) in counts.iter_mut().zip(row.iter()) {
                    *c += u16::from(lack);
                }
            }
        }
        let m = self.m;
        let median_is_lack = move |count: u16| u64::from(count) * 2 > m;
        if r == self.m {
            // Freeze ŝ1 and take the temporary pause.
            for (j, &c) in count1.iter().enumerate() {
                bit_row::set(bits, j, median_is_lack(c));
            }
            if cur != IDLE {
                self.assignment[i] = if self.pause.sample(rng) { IDLE } else { cur };
            }
        } else if r == 0 {
            // Phase end: compute ŝ2 and decide, exactly as Algorithm Ant.
            if cur == IDLE {
                let joinable = |j: usize| bit_row::get(bits, j) && median_is_lack(count2[j]);
                self.assignment[i] = match (0..k).filter(|&j| joinable(j)).count() {
                    0 => IDLE,
                    count => nth_where(k, uniform_index(rng, count), joinable),
                };
            } else {
                let t = task_ix(cur);
                let both_overload = !bit_row::get(bits, t) && !median_is_lack(count2[t]);
                self.assignment[i] = if both_overload && self.leave.sample(rng) {
                    IDLE
                } else {
                    cur
                };
            }
            bit_row::set(bits, k + HAVE_PHASE, false);
        }
        // All other rounds: keep the current assignment (a_t ← a_{t−1}).
        dec(self.assignment[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AnyController, ControllerBank, ControllerScratch};
    use antalloc_noise::{FeedbackProbe, NoiseModel};
    use antalloc_rng::StreamSeeder;

    /// The SoA bank against the per-ant reference, round for round,
    /// across several full phases (joins, leaves, pauses, mid-phase
    /// resets) — including reconstruction losslessness mid-phase —
    /// through the chunk loop (`step_batch`) and, on a twin bank, one
    /// slot at a time (`step_slot`, the sequential model's path), at 2
    /// tasks and at 65 (past the 64-entry stack row).
    #[test]
    fn soa_bank_matches_per_ant_stepping() {
        for k in [2, 65] {
            soa_bank_matches_per_ant_stepping_at(k);
        }
    }

    fn soa_bank_matches_per_ant_stepping_at(k: usize) {
        let n = 80;
        let params = PreciseSigmoidParams::new(0.05, 0.5); // phase 82
        let seeder = StreamSeeder::new(23);
        let mut bank = ControllerBank::PreciseSigmoid(PreciseSigmoidBank::new(k, params, n));
        let mut twin = bank.clone();
        let mut reference: Vec<PreciseSigmoid> =
            (0..n).map(|_| PreciseSigmoid::new(k, params)).collect();
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        let deficits: Vec<i64> = (0..k).map(|j| [5, -5][j % 2]).collect();
        let loads = vec![25; k];
        let mut out = vec![Assignment::Idle; n];
        for round in 1..=200u64 {
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
            if round == 137 {
                // Mid-phase reconstruction: counters must come out
                // losslessly, so a rebuilt ant continues in lockstep.
                for (i, ant) in reference.iter().enumerate() {
                    let AnyController::PreciseSigmoid(rebuilt) = bank.to_any(i) else {
                        unreachable!("a Precise Sigmoid bank rebuilds Precise Sigmoid ants");
                    };
                    assert_eq!(rebuilt.scratch(), ant.scratch(), "ant {i}");
                    assert_eq!(rebuilt.assignment(), ant.assignment());
                    let scratch = Some(ControllerScratch::PreciseSigmoid(ant.scratch()));
                    assert_eq!(twin.scratch(i), scratch, "slot {i}");
                }
            }
        }
    }

    #[test]
    fn push_and_reconstruct_roundtrip_mid_phase() {
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut ant = PreciseSigmoid::new(2, params);
        let mut rng = StreamSeeder::new(3).ant(0);
        let model = NoiseModel::Sigmoid { lambda: 1.0 };
        for round in 1..=37 {
            let prepared = model.prepare(round, &[3, -3], &[10, 10]);
            let mut probe = FeedbackProbe::new(&prepared, &mut rng);
            ant.step(&mut probe);
        }
        let mut bank = PreciseSigmoidBank::new(2, params, 0);
        bank.push_controller(&ant);
        let back = bank.to_controller(0);
        assert_eq!(back.scratch(), ant.scratch());
        assert_eq!(back.assignment(), ant.assignment());
    }

    #[test]
    fn swap_remove_moves_all_planes() {
        let params = PreciseSigmoidParams::new(0.05, 0.5);
        let mut bank = PreciseSigmoidBank::new(2, params, 3);
        bank.reset_slot(0, Assignment::Task(0));
        bank.reset_slot(2, Assignment::Task(1));
        bank.count1[2 * 2] = 7; // slot 2, task 0
        bank.apply_slot_map(&SlotMap::swap_remove(3, 0));
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.assignment(0), Assignment::Task(1)); // old slot 2
        assert_eq!(bank.count1[0], 7, "slot 2's counter row moved into slot 0");
    }
}
