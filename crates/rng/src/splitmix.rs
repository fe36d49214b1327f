//! SplitMix64: Sebastiano Vigna's public-domain mixer.
//!
//! Used here for two jobs where statistical quality per output matters
//! more than period: expanding a 64-bit master seed into generator state,
//! and hashing `(master, stream)` pairs into per-ant seeds. Every output
//! is a bijective mix of the counter, so distinct inputs can never
//! collide into identical state words.

/// The SplitMix64 generator.
///
/// ```
/// use antalloc_rng::SplitMix64;
/// let mut g = SplitMix64::new(0);
/// assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator whose first output is `mix(seed + γ)`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }
}

/// The finalizer of SplitMix64: a bijective avalanche mix of `z`.
///
/// Exposed because stream derivation uses it directly as a hash.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference outputs for seed 0 (cross-checked against the C
    /// reference implementation).
    #[test]
    fn reference_vector_seed_zero() {
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(g.next_u64(), 0xf88b_b8a8_724c_81ec);
    }

    #[test]
    fn distinct_seeds_distinct_first_outputs() {
        // mix() is bijective, so nearby seeds must not collide.
        let outs: Vec<u64> = (0u64..1000)
            .map(|s| SplitMix64::new(s).next_u64())
            .collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len());
    }

    #[test]
    fn bit_balance_is_sane() {
        // Average popcount over many outputs should be very close to 32.
        let mut g = SplitMix64::new(7);
        let total: u32 = (0..10_000).map(|_| g.next_u64().count_ones()).sum();
        let avg = f64::from(total) / 10_000.0;
        assert!((avg - 32.0).abs() < 0.2, "avg popcount {avg}");
    }
}
