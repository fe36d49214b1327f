//! Documented index conversions for the bank kernels.
//!
//! The SoA banks store task assignments as `u16` columns — the
//! encoding of the colony's task column, [`Assignment::to_slot`] — while
//! slices and counters are `usize`-indexed, so the kernels convert in
//! both directions on every step. Raw `as` casts are banned in the hot
//! files by `antalloc-audit` (rule `cast` — a silent truncation only
//! shows up at colony sizes the parity tests never reach); these
//! helpers are the blessed conversions, and [`task_col`] is the one
//! narrowing, bounded by [`MAX_TASKS`].

use antalloc_env::Assignment;

/// Hard cap on the task count `k`. The paper's regime is `k ≪ n`
/// (single digits in every experiment); the cap keeps pathological
/// configs from quietly allocating per-task state the engine was never
/// sized for, lets every task index fit a `u16` column below its idle
/// sentinel, and lets the ≤ 64-task bitmask sensing fast path treat
/// its bound as a checked-once precondition rather than a per-draw
/// assertion. Scenario validation rejects anything larger.
pub const MAX_TASKS: usize = 4096;

/// The column value of an idle ant, shared by every bank column and the
/// engine's task column, so kernels write through without re-encoding.
pub(crate) const IDLE: u16 = Assignment::SLOT_IDLE;

/// Widens a task-index column value to a slice index.
#[inline(always)]
pub(crate) fn task_ix(col: u16) -> usize {
    usize::from(col)
}

/// Narrows a task index to a `u16` column value.
///
/// Task indices are below the validated task count, at most
/// [`MAX_TASKS`], so the narrowing cannot truncate or collide with
/// [`IDLE`]; the debug assertion keeps that claim checked in every
/// `cargo test` run.
#[inline(always)]
pub(crate) fn task_col(ix: usize) -> u16 {
    debug_assert!(ix < MAX_TASKS, "task index {ix} exceeds MAX_TASKS");
    // audit:allow(cast): task indices are < the validated task count, at most MAX_TASKS = 4096 < 2^16 − 1.
    ix as u16
}

/// Encodes an assignment as its column value, [`Assignment::to_slot`].
#[inline(always)]
pub(crate) fn enc(a: Assignment) -> u16 {
    a.to_slot()
}

/// Decodes a column value; inverse of [`enc`].
#[inline(always)]
pub(crate) fn dec(x: u16) -> Assignment {
    Assignment::from_slot(x)
}

/// Widens a `u32` (a task index, a bit count or position) to a slice
/// index.
#[inline(always)]
pub(crate) fn wide(x: u32) -> usize {
    // audit:allow(cast): u32 → usize is lossless on every supported (64-bit) target.
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        assert_eq!(task_ix(0), 0);
        assert_eq!(task_ix(u16::MAX), usize::from(u16::MAX));
        assert_eq!(task_col(7), 7);
        for a in [
            Assignment::Task(0),
            Assignment::Task(4095),
            Assignment::Idle,
        ] {
            assert_eq!(dec(enc(a)), a, "{a}");
        }
        assert_eq!(task_col(MAX_TASKS - 1), 4095);
        assert_eq!(enc(Assignment::Idle), u16::MAX);
        assert_eq!(dec(u16::MAX), Assignment::Idle);
        assert_eq!(wide(64), 64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds MAX_TASKS")]
    fn task_col_rejects_indices_past_max_tasks() {
        task_col(MAX_TASKS);
    }
}
