//! Clean fixture: exercises every rule family's *allowed* shapes and
//! must produce zero diagnostics under the strictest profile (sim-path
//! crate, cast-audited, panic-path file).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

/// Deterministic, ordered iteration.
pub fn census(counts: &BTreeMap<u32, u64>) -> u64 {
    counts.values().sum()
}

/// Widening idiom: allowed without a pragma.
pub fn popcount_index(mask: u64) -> usize {
    mask.count_ones() as usize
}

/// Pragma'd cast with a recorded reason.
pub fn to_wide(n: usize) -> u64 {
    // audit:allow(cast): usize -> u64 is lossless on every supported target.
    n as u64
}

/// Scoped threads are joined before the scope returns: allowed.
pub fn scoped_fan_out() {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}

/// Errors propagate instead of panicking on the engine path.
pub fn safe_lookup(xs: &[u32], i: usize) -> Result<u32, String> {
    xs.get(i).copied().ok_or_else(|| format!("no slot {i}"))
}

/// Prose mentioning HashMap, Instant::now and thread::spawn never
/// fires, and neither do string literals:
pub const PROSE: &str = "HashMap Instant::now env::var thread::spawn as u32 .unwrap()";

#[cfg(test)]
mod tests {
    // Test code runs the relaxed profile.
    use std::collections::HashMap;

    #[test]
    fn hash_and_unwrap_are_fine_here() {
        let mut m = HashMap::new();
        m.insert(1u32, 2u32);
        let _ = m.get(&1).copied().unwrap();
        let _ = 3usize as u32;
    }
}
