//! Unbiased uniform integer sampling (Lemire's method).
//!
//! Used for "join one underloaded task uniformly at random" — the one
//! place in the paper's algorithms where a uniform choice over a dynamic
//! set is required, so bias here would directly skew load distributions.

use crate::wyrand::AntRng;

/// Draws a uniform index in `[0, bound)`. Panics if `bound == 0`.
///
/// Lemire's widening-multiply rejection method: unbiased, and in the
/// common case costs one multiply and no division. The rare rejection
/// path delegates to [`UniformRange::sample`] — there is exactly one
/// implementation of the accept/reject loop, so the two entry points
/// cannot drift apart (they must consume identical draws and return
/// identical indices for bit-identity to hold across call sites).
#[inline]
pub fn uniform_index(rng: &mut AntRng, bound: usize) -> usize {
    assert!(bound > 0, "uniform_index: empty range");
    // audit:allow(cast): usize → u64 is lossless on every supported (≤64-bit) target.
    let bound = bound as u64;
    let m = u128::from(rng.next_u64()).wrapping_mul(u128::from(bound));
    // audit:allow(cast): intentional — the low 64 bits of the 128-bit product select the rejection zone (Lemire).
    let low = m as u64;
    if low < bound {
        // Possibly in the rejection zone (2^64 mod bound < bound):
        // compute the threshold — deferred until here so the common
        // case pays no division — and let the shared loop finish.
        let range = UniformRange {
            bound,
            threshold: bound.wrapping_neg() % bound,
        };
        if low < range.threshold {
            return range.sample(rng);
        }
    }
    // audit:allow(cast): the high word of the product is < bound, which came from a usize.
    (m >> 64) as usize
}

/// A reusable uniform range `[0, bound)` that precomputes the rejection
/// threshold; worthwhile when the same bound is sampled many times.
#[derive(Clone, Copy, Debug)]
pub struct UniformRange {
    bound: u64,
    threshold: u64,
}

impl UniformRange {
    /// Creates the range `[0, bound)`. Panics if `bound == 0`.
    #[inline]
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0, "UniformRange: empty range");
        // audit:allow(cast): usize → u64 is lossless on every supported (≤64-bit) target.
        let bound = bound as u64;
        Self {
            bound,
            threshold: bound.wrapping_neg() % bound,
        }
    }

    /// Draws one index.
    #[inline]
    pub fn sample(&self, rng: &mut AntRng) -> usize {
        loop {
            let m = u128::from(rng.next_u64()).wrapping_mul(u128::from(self.bound));
            // audit:allow(cast): intentional — the low 64 bits of the 128-bit product select the rejection zone (Lemire).
            if (m as u64) >= self.threshold {
                // audit:allow(cast): the high word of the product is < bound, which came from a usize.
                return (m >> 64) as usize;
            }
        }
    }
}

/// Draws a uniform `f64` in `[lo, hi)`.
#[inline]
pub fn uniform_f64(rng: &mut AntRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn respects_bounds() {
        let mut rng = AntRng::seed_from_u64(4);
        for bound in [1usize, 2, 3, 7, 100, 1 << 20] {
            for _ in 0..200 {
                assert!(uniform_index(&mut rng, bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_bound_panics() {
        let mut rng = AntRng::seed_from_u64(4);
        uniform_index(&mut rng, 0);
    }

    #[test]
    fn is_close_to_uniform() {
        // Chi-square over 7 buckets (7 doesn't divide 2^64, exercising the
        // rejection path).
        let mut rng = AntRng::seed_from_u64(17);
        let bound = 7usize;
        let draws = 70_000;
        let mut counts = vec![0u32; bound];
        for _ in 0..draws {
            counts[uniform_index(&mut rng, bound)] += 1;
        }
        let expect = draws as f64 / bound as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = f64::from(c) - expect;
                d * d / expect
            })
            .sum();
        // dof = 6; 4-sigma is ~ 6 + 4*sqrt(12) ~ 19.9.
        assert!(chi2 < 20.0, "chi2 {chi2}");
    }

    #[test]
    fn range_struct_matches_free_function_distributionally() {
        let mut a = AntRng::seed_from_u64(5);
        let mut b = AntRng::seed_from_u64(5);
        let range = UniformRange::new(13);
        for _ in 0..1000 {
            assert_eq!(range.sample(&mut a), uniform_index(&mut b, 13));
        }
    }

    proptest! {
        #[test]
        fn uniform_f64_in_bounds(seed: u64, lo in -1e6f64..1e6, width in 1e-6f64..1e6) {
            let mut rng = AntRng::seed_from_u64(seed);
            let hi = lo + width;
            let x = uniform_f64(&mut rng, lo, hi);
            prop_assert!(x >= lo && x < hi);
        }

        #[test]
        fn uniform_index_in_bounds(seed: u64, bound in 1usize..1_000_000) {
            let mut rng = AntRng::seed_from_u64(seed);
            prop_assert!(uniform_index(&mut rng, bound) < bound);
        }

        /// The lock-step contract behind the delegation: from identical
        /// generator state, the free function and the precomputed range
        /// must return the same index *and* leave the generator in the
        /// same state (same number of draws consumed) — including across
        /// rejection-path bounds like `(2^63) + 1` where nearly half of
        /// all draws reject.
        #[test]
        fn free_fn_and_range_consume_identical_draws(
            seed: u64,
            pick in 0usize..7,
            small in 1usize..100,
        ) {
            let bound = [
                small,
                3,
                7,
                (1usize << 20) - 1,
                (1usize << 31) + 1,
                usize::MAX / 2 + 2, // huge rejection zone
                usize::MAX,
            ][pick];
            let mut a = AntRng::seed_from_u64(seed);
            let mut b = a.clone();
            let range = UniformRange::new(bound);
            for _ in 0..32 {
                prop_assert_eq!(uniform_index(&mut a, bound), range.sample(&mut b));
                prop_assert_eq!(&a, &b);
            }
        }
    }
}
