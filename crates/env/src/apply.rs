//! Fused-apply primitives: the in-place task column and the commutative
//! per-round delta.
//!
//! The synchronous engine runs no separate apply pass over a decisions
//! buffer. Every step kernel writes each ant's next assignment straight
//! into the colony's one [`TaskColumn`] through a [`ColumnWriter`],
//! the slot its prior assignment was read from, and folds the
//! transition into a local [`RoundDelta`]. Committing a round
//! is then an O(k) delta application — no O(n) sweep.
//!
//! Determinism: each slot is read, then written, by its one owner (the
//! participant stepping that ant), and kernels never read another ant's
//! slot — what an ant observes comes from the round's frozen feedback.
//! Every delta field is a commutative sum, so merge order cannot affect
//! the result — the property the bit-identity contract rests on (see
//! `docs/DETERMINISM.md`). A delta holds O(k) counters and no per-ant
//! list, so it never grows with the colony.

use core::sync::atomic::{AtomicU16, Ordering};

use crate::assignment::Assignment;

/// Converts an ant id to a column index.
#[inline]
fn ix(id: u32) -> usize {
    id as usize // audit:allow(cast): u32 → usize widening (usize ≥ 32 bits on supported targets)
}

/// One u16-per-ant assignment column ([`Assignment::to_slot`] encoding,
/// [`Assignment::SLOT_IDLE`] = idle).
///
/// Slots are atomics only so that scoped workers can read and write
/// disjoint slots of a shared column without `unsafe`; all accesses are
/// `Relaxed` (each slot has one owner within a round, and the engine's
/// barriers / scope join provide the cross-thread ordering).
#[derive(Debug)]
pub struct TaskColumn {
    slots: Vec<AtomicU16>,
}

impl TaskColumn {
    /// A column of `n` slots, all idle.
    pub fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || AtomicU16::new(IDLE));
        Self { slots }
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff the column has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resets to `n` slots, all idle, reusing the allocation when the
    /// column shrinks or keeps its length (grow reallocates).
    ///
    /// Every retained slot is re-idled too — the invariant an engine
    /// rebuilt in place (`SyncEngine::reset_from`) relies on to be
    /// bit-identical to a freshly constructed one.
    pub fn reset(&mut self, n: usize) {
        self.slots.truncate(n);
        for slot in &self.slots {
            slot.store(IDLE, Ordering::Relaxed);
        }
        self.slots.resize_with(n, || AtomicU16::new(IDLE));
    }

    /// Overwrites the column with `slots`, one value per slot, reusing
    /// the allocation (checkpoint restore).
    pub fn assign(&mut self, slots: impl IntoIterator<Item = u16>) {
        self.slots.clear();
        self.slots.extend(slots.into_iter().map(AtomicU16::new));
    }

    /// The value of every slot, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.slots.iter().map(|s| s.load(Ordering::Relaxed))
    }

    /// The value of every slot, in slot order, collected.
    pub fn to_vec(&self) -> Vec<u16> {
        self.iter().collect()
    }

    /// Appends one slot holding `slot`.
    pub fn push(&mut self, slot: u16) {
        self.slots.push(AtomicU16::new(slot));
    }

    /// Swap-removes slot `i`, returning its value (mirrors
    /// `Vec::swap_remove`).
    pub fn swap_remove(&mut self, i: usize) -> u16 {
        self.slots.swap_remove(i).into_inner()
    }

    /// Value of slot `id`.
    #[inline]
    pub fn load(&self, id: u32) -> u16 {
        self.slots[ix(id)].load(Ordering::Relaxed)
    }

    /// Stores `slot` into slot `id`.
    #[inline]
    pub fn store(&self, id: u32, slot: u16) {
        self.slots[ix(id)].store(slot, Ordering::Relaxed);
    }
}

/// The idle value of a [`TaskColumn`] slot.
const IDLE: u16 = Assignment::SLOT_IDLE;

impl Clone for TaskColumn {
    fn clone(&self) -> Self {
        let slots = self
            .slots
            .iter()
            .map(|s| AtomicU16::new(s.load(Ordering::Relaxed)))
            .collect();
        Self { slots }
    }
}

/// The commutative summary of one round's transitions over some set of
/// ants: switch count and signed load/idle deltas.
///
/// Every field is an integer sum, so per-worker deltas can be applied
/// in any order with a bit-identical result.
#[derive(Clone, Debug)]
pub struct RoundDelta {
    pub(crate) switches: u64,
    pub(crate) idle_delta: i64,
    pub(crate) load_deltas: Vec<i64>,
}

/// Spare `load_deltas` capacity past the `k` counters in use: one
/// 128-byte block (the adjacent-line prefetch pair on x86-64). The
/// pooled engine keeps one delta per participant, each written from its
/// own core every round; with this slack after every buffer, the
/// counters in use of two deltas never share a 128-byte block, wherever
/// the allocator places the buffers.
const LOAD_DELTA_SLACK: usize = 128 / core::mem::size_of::<i64>();

impl RoundDelta {
    /// An empty delta over `k` tasks.
    pub fn new(k: usize) -> Self {
        let mut delta = Self {
            switches: 0,
            idle_delta: 0,
            load_deltas: Vec::new(),
        };
        delta.reset(k);
        delta
    }

    /// Clears all accumulators, resizing to `k` tasks.
    pub fn reset(&mut self, k: usize) {
        self.switches = 0;
        self.idle_delta = 0;
        self.load_deltas.clear();
        self.load_deltas.reserve_exact(k + LOAD_DELTA_SLACK);
        self.load_deltas.resize(k, 0);
    }

    /// Folds one ant's transition ([`TaskColumn`]-encoded) into the
    /// delta.
    #[inline(always)]
    pub fn record(&mut self, prev: u16, next: u16) {
        if prev == next {
            return;
        }
        self.switches += 1;
        match (prev == IDLE, next == IDLE) {
            (true, false) => {
                self.idle_delta -= 1;
                self.load_deltas[usize::from(next)] += 1;
            }
            (false, true) => {
                self.load_deltas[usize::from(prev)] -= 1;
                self.idle_delta += 1;
            }
            (false, false) => {
                self.load_deltas[usize::from(prev)] -= 1;
                self.load_deltas[usize::from(next)] += 1;
            }
            (true, true) => unreachable!("prev == next was handled above"),
        }
    }

    /// Number of ants that changed assignment.
    #[inline]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Net load change per task.
    pub fn load_deltas(&self) -> &[i64] {
        &self.load_deltas
    }
}

/// A kernel's fused port onto the colony's column: `load` reads an
/// ant's prior assignment from its slot, and `write` stores the next
/// one in its place and folds the transition into the local delta.
///
/// The column is the one copy of every ant's assignment: the kernels
/// read their ants' prior assignments from it, and the fused path
/// counts switches and load deltas against it, as the unfused engine's
/// apply sweep does. Only the participant stepping an ant touches its
/// slot, once per round.
pub struct ColumnWriter<'a> {
    column: &'a TaskColumn,
    delta: &'a mut RoundDelta,
}

impl<'a> ColumnWriter<'a> {
    /// A writer updating `column` in place, accumulating into `delta`.
    pub fn new(column: &'a TaskColumn, delta: &'a mut RoundDelta) -> Self {
        Self { column, delta }
    }

    /// Number of slots in the column written to.
    #[inline]
    pub fn column_len(&self) -> usize {
        self.column.len()
    }

    /// Ant `id`'s assignment ([`TaskColumn`]-encoded).
    #[inline(always)]
    pub fn load(&self, id: u32) -> u16 {
        self.column.load(id)
    }

    /// Records ant `id` stepping from `prev`, the value its slot holds
    /// ([`ColumnWriter::load`]), to `next` (both [`TaskColumn`]-encoded):
    /// a change is stored in its slot and folded into the delta; no
    /// change writes nothing, so the slot's cache line stays clean.
    ///
    /// Always inlined: every kind's fused loop calls it once per ant,
    /// and an out-of-line call there spills the loop's registers.
    #[inline(always)]
    pub fn write(&mut self, id: u32, prev: u16, next: u16) {
        debug_assert_eq!(prev, self.column.load(id), "ant {id}'s prior value");
        if prev != next {
            self.column.store(id, next);
            self.delta.record(prev, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const I: u16 = Assignment::SLOT_IDLE;

    #[test]
    fn column_basics() {
        let mut col = TaskColumn::new(3);
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert_eq!(col.load(1), I);
        col.store(1, 7);
        assert_eq!(col.load(1), 7);
        let cloned = col.clone();
        assert_eq!(cloned.load(1), 7);
        col.push(2);
        assert_eq!(col.len(), 4);
        assert_eq!(col.swap_remove(0), I);
        assert_eq!(col.load(0), 2);
        col.reset(1);
        assert_eq!(col.len(), 1);
        assert_eq!(col.load(0), I);
    }

    #[test]
    fn delta_records_transitions() {
        let mut d = RoundDelta::new(2);
        d.record(I, 1); // idle → task 1
        d.record(0, 1); // task 0 → task 1
        d.record(1, I); // task 1 → idle
        d.record(I, I); // no-op
        d.record(0, 0); // no-op
        assert_eq!(d.switches(), 3);
        assert_eq!(d.idle_delta, 0);
        assert_eq!(d.load_deltas, vec![-1, 1]);
        d.reset(3);
        assert_eq!(d.switches(), 0);
        assert_eq!(d.idle_delta, 0);
        assert_eq!(d.load_deltas, vec![0, 0, 0]);
    }

    #[test]
    fn writer_stores_and_records() {
        let col = TaskColumn::new(3);
        col.store(1, 0);
        col.store(2, 0);
        let mut d = RoundDelta::new(1);
        let mut w = ColumnWriter::new(&col, &mut d);
        w.write(0, I, 0); // idle → task 0
        w.write(1, 0, 0); // task 0 → task 0 (no switch)
        w.write(2, 0, I); // task 0 → idle
        assert_eq!(col.to_vec(), vec![0, 0, I]);
        assert_eq!(d.switches(), 2);
        assert_eq!(d.idle_delta, 0);
        assert_eq!(d.load_deltas, vec![0]);
    }
}
