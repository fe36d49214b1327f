//! An ant's task assignment: `a_t ∈ {idle, 1, …, k}`.

/// Where an ant is working (or not) at the end of a round.
///
/// The paper's state space per ant is `{idle, 1, …, k}`; tasks here are
/// 0-indexed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Assignment {
    /// Not working on any task.
    Idle,
    /// Working on the task with this index.
    Task(u32),
}

impl Assignment {
    /// The task index if working, else `None`.
    #[inline]
    pub fn task(self) -> Option<usize> {
        match self {
            Assignment::Idle => None,
            Assignment::Task(j) => Some(j as usize),
        }
    }

    /// True iff idle.
    #[inline]
    pub fn is_idle(self) -> bool {
        matches!(self, Assignment::Idle)
    }

    /// Builds from an optional task index.
    #[inline]
    pub fn from_task(task: Option<usize>) -> Self {
        match task {
            None => Assignment::Idle,
            Some(j) => Assignment::Task(j as u32),
        }
    }

    /// The packed `u32` wire encoding: the task index, or
    /// [`Assignment::RAW_IDLE`] for idle. This is the encoding the
    /// checkpoint codec writes; in memory, columns hold the narrower
    /// [`Assignment::to_slot`] form.
    #[inline]
    pub fn to_raw(self) -> u32 {
        match self {
            Assignment::Idle => Self::RAW_IDLE,
            Assignment::Task(j) => j,
        }
    }

    /// Decodes the packed `u32` encoding; inverse of
    /// [`Assignment::to_raw`].
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        if raw == Self::RAW_IDLE {
            Assignment::Idle
        } else {
            Assignment::Task(raw)
        }
    }

    /// The raw-encoding sentinel for idle. Valid task indices are
    /// strictly below it (colony sizes fit `u32`, so no task column can
    /// collide).
    pub const RAW_IDLE: u32 = u32::MAX;

    /// The in-memory `u16` column encoding: the task index, or
    /// [`Assignment::SLOT_IDLE`] for idle. This is the encoding the
    /// colony's [`crate::TaskColumn`] and the controller banks' columns
    /// share; checkpoints keep the `u32` [`Assignment::to_raw`] form.
    ///
    /// # Panics
    /// If the task index does not fit below the idle sentinel (task
    /// counts are validated far below it).
    #[inline]
    pub fn to_slot(self) -> u16 {
        match self {
            Assignment::Idle => Self::SLOT_IDLE,
            Assignment::Task(j) => u16::try_from(j)
                .ok()
                .filter(|&slot| slot != Self::SLOT_IDLE)
                .expect("task index fits the u16 task column"),
        }
    }

    /// Decodes the `u16` column encoding; inverse of
    /// [`Assignment::to_slot`].
    #[inline]
    pub fn from_slot(slot: u16) -> Self {
        if slot == Self::SLOT_IDLE {
            Assignment::Idle
        } else {
            Assignment::Task(u32::from(slot))
        }
    }

    /// The column-encoding sentinel for idle.
    pub const SLOT_IDLE: u16 = u16::MAX;
}

impl core::fmt::Display for Assignment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Assignment::Idle => f.write_str("idle"),
            Assignment::Task(j) => write!(f, "task {j}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_roundtrip() {
        assert_eq!(Assignment::from_task(Some(3)), Assignment::Task(3));
        assert_eq!(Assignment::from_task(None), Assignment::Idle);
        assert_eq!(Assignment::Task(3).task(), Some(3));
        assert_eq!(Assignment::Idle.task(), None);
        assert!(Assignment::Idle.is_idle());
        assert!(!Assignment::Task(0).is_idle());
    }

    #[test]
    fn raw_roundtrip() {
        assert_eq!(Assignment::Idle.to_raw(), u32::MAX);
        assert_eq!(Assignment::Task(7).to_raw(), 7);
        assert_eq!(Assignment::from_raw(u32::MAX), Assignment::Idle);
        assert_eq!(Assignment::from_raw(0), Assignment::Task(0));
        for a in [Assignment::Idle, Assignment::Task(0), Assignment::Task(41)] {
            assert_eq!(Assignment::from_raw(a.to_raw()), a);
        }
    }

    #[test]
    fn slot_roundtrip() {
        assert_eq!(Assignment::Idle.to_slot(), u16::MAX);
        assert_eq!(Assignment::from_slot(u16::MAX), Assignment::Idle);
        for a in [
            Assignment::Idle,
            Assignment::Task(0),
            Assignment::Task(4095),
        ] {
            assert_eq!(Assignment::from_slot(a.to_slot()), a);
        }
    }

    #[test]
    #[should_panic(expected = "fits the u16 task column")]
    fn slot_rejects_the_idle_sentinel_as_a_task() {
        Assignment::Task(u32::from(u16::MAX)).to_slot();
    }

    #[test]
    fn display() {
        assert_eq!(Assignment::Idle.to_string(), "idle");
        assert_eq!(Assignment::Task(2).to_string(), "task 2");
    }
}
