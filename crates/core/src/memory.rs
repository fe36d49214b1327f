//! Memory accounting for the Theorem 3.3 experiments.

/// Bits needed to address `states` distinct states: `⌈log2(states)⌉`
/// (one state still counts as 0 bits of *choice*, but we report 1 so a
/// degenerate machine is visible in tables).
pub fn bits_for_states(states: usize) -> u32 {
    assert!(states >= 1);
    if states == 1 {
        return 1;
    }
    usize::BITS - (states - 1).leading_zeros()
}

// Each kind's memory accounting below is shared by its per-ant
// controller and its structure-of-arrays bank, so the two can never
// report different figures. These are the paper's state counts, not
// the bank's byte layout (a `currentTask` is ⌈log2(k + 1)⌉ bits here
// and a `u16` in memory).

/// A controller whose whole state is its assignment (Exact Greedy,
/// Trivial): one of `k + 1` values.
pub(crate) fn assignment_memory_bits(num_tasks: usize) -> u32 {
    bits_for_states(num_tasks + 1)
}

/// Algorithm Ant's: `currentTask` + one first-sample bit per task + the
/// first-sample-valid flag. The phase position is global (footnote 2 of
/// the paper: one extra bit via synchronization).
pub(crate) fn ant_memory_bits(num_tasks: usize) -> u32 {
    assignment_memory_bits(num_tasks) + num_tasks as u32 + 1
}

/// Precise Adversarial's: `currentTask` + one all-lack bit per task +
/// all-overload, first-lack (3 states ≈ 2 bits), frozen and
/// phase-valid flags.
pub(crate) fn adversarial_memory_bits(num_tasks: usize) -> u32 {
    assignment_memory_bits(num_tasks) + num_tasks as u32 + 5
}

/// The proportional controller's: the assignment plus the deadband
/// streak, which only needs to distinguish `0..=deadband + 1`.
pub(crate) fn proportional_memory_bits(num_tasks: usize, deadband: u16) -> u32 {
    assignment_memory_bits(num_tasks) + bits_for_states(usize::from(deadband) + 2)
}

/// Precise Sigmoid's: `currentTask` (one of `k + 1` values) +
/// two counters of `⌈log2(m + 1)⌉` bits per task + the frozen median
/// bit per task + the phase flag. The paper's `O(log 1/ε)` is the
/// per-task counter width; `k` is a constant in its accounting.
pub(crate) fn sigmoid_memory_bits(num_tasks: usize, m: u64) -> u32 {
    let k = num_tasks as u32;
    let counter_bits = u64::BITS - (m + 1).leading_zeros();
    bits_for_states(num_tasks + 1) + 2 * k * counter_bits + k + 1
}

/// The closeness floor Theorem 3.3 predicts for a memory budget.
///
/// Reading the theorem contrapositively: with `b` bits, no algorithm can
/// be `ε`-close for `ε < 2^{−b/c}`; this returns that floor. `c` is the
/// theorem's unspecified constant — experiments fit it, with `c = 1`
/// the geometry of the proof (`s = 2^b` states vs `s ≈ 1/(16√ε)`)
/// suggesting `ε ≈ 256/ s²` up to constants.
pub fn closeness_floor(bits: u32, c: f64) -> f64 {
    assert!(c > 0.0);
    2f64.powf(-f64::from(bits) / c)
}

/// A controller's memory footprint, in the units each theorem speaks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryFootprint {
    /// Persistent bits, per [`crate::Controller::memory_bits`].
    pub bits: u32,
}

impl MemoryFootprint {
    /// States this many bits can address.
    pub fn states(&self) -> u64 {
        1u64 << self.bits.min(63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_states_rounds_up() {
        assert_eq!(bits_for_states(1), 1);
        assert_eq!(bits_for_states(2), 1);
        assert_eq!(bits_for_states(3), 2);
        assert_eq!(bits_for_states(4), 2);
        assert_eq!(bits_for_states(5), 3);
        assert_eq!(bits_for_states(1 << 16), 16);
    }

    #[test]
    fn closeness_floor_halves_per_bit_at_c1() {
        let a = closeness_floor(4, 1.0);
        let b = closeness_floor(5, 1.0);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn footprint_states() {
        assert_eq!(MemoryFootprint { bits: 3 }.states(), 8);
    }
}
