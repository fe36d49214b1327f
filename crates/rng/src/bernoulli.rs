//! Threshold Bernoulli sampling.
//!
//! The simulator's hot loop draws an enormous number of Bernoulli variates
//! whose success probabilities are fixed for a whole round (feedback
//! probabilities, pause/leave probabilities). Precomputing the probability
//! as a 64-bit integer threshold turns each draw into one generator call
//! and one compare — and [`Bernoulli::fill`] amortizes even the call
//! overhead by drawing a whole batch against one threshold (the
//! SIMD-width sampling step the bank loops build on).

use crate::wyrand::AntRng;

/// A Bernoulli distribution with precomputed integer threshold.
///
/// # Quantization guarantee
///
/// The requested probability is quantized to the grid `t/2^64` with
/// `t = round_to_nearest(p · 2^64)` (ties away from zero), so the
/// probability the sampler *realizes* differs from `p` by at most
/// `2^-65` — half a grid step. `p ∈ {0, 1}` is exact, and the
/// quantization never crosses the degenerate endpoints: `0 < p` small
/// enough still quantizes to "never" only when `p < 2^-65`, and no
/// `p < 1` quantizes to "always".
///
/// ```
/// use antalloc_rng::{AntRng, Bernoulli};
/// let mut rng = AntRng::seed_from_u64(1);
/// let fair = Bernoulli::new(0.5);
/// let heads = (0..10_000).filter(|_| fair.sample(&mut rng)).count();
/// assert!((4_700..5_300).contains(&heads));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bernoulli {
    /// Success iff `rng.next_u64() < threshold`; `u64::MAX` plus the
    /// `always` flag encodes probability exactly 1.
    threshold: u64,
    always: bool,
}

impl Bernoulli {
    /// Builds the sampler for probability `p`.
    ///
    /// `p` is clamped to `[0, 1]`; NaN maps to probability 0 (the
    /// conservative choice for "no action" probabilities).
    #[inline]
    pub fn new(p: f64) -> Self {
        if p <= 0.0 || p.is_nan() {
            return Self {
                threshold: 0,
                always: false,
            };
        }
        if p >= 1.0 {
            return Self {
                threshold: u64::MAX,
                always: true,
            };
        }
        // p * 2^64 is exact (scaling by a power of two), so the only
        // rounding is the conversion to the integer grid — which must be
        // to-nearest: an `as u64` cast truncates, biasing every realized
        // probability low by up to one whole grid step for p < 2^-12
        // (where the product has a fractional part). For p in (0,1) the
        // rounded product fits in u64 because p <= 1 - 2^-53 implies
        // p * 2^64 <= 2^64 - 2^11.
        // audit:allow(cast): saturating float→int IS the quantization — p ∈ (0,1) here, so the rounded product fits u64 (proof above).
        let threshold = (p * 18_446_744_073_709_551_616.0).round() as u64;
        Self {
            threshold,
            always: false,
        }
    }

    /// The probability as its raw `2^64`-scaled threshold, with the
    /// probability-1 case flagged separately (it cannot be encoded as a
    /// finite threshold). Lossless, unlike [`Bernoulli::probability`],
    /// which rounds the 64-bit threshold through an `f64` mantissa —
    /// consumers that re-derive sampling state (the noise models) must
    /// use this.
    #[inline]
    pub fn raw_threshold(&self) -> (u64, bool) {
        (self.threshold, self.always)
    }

    /// The success probability the sampler actually realizes.
    #[inline]
    pub fn probability(&self) -> f64 {
        if self.always {
            1.0
        } else {
            // audit:allow(cast): u64 → f64 rounds to nearest; probability() is documented lossy (2^-53) — raw_threshold is the lossless readback.
            self.threshold as f64 / 18_446_744_073_709_551_616.0
        }
    }

    /// Draws one variate.
    #[inline(always)]
    pub fn sample(&self, rng: &mut AntRng) -> bool {
        self.always || rng.next_u64() < self.threshold
    }

    /// Draws `out.len()` variates from one stream against the one
    /// precomputed threshold — the batched form of [`Bernoulli::sample`],
    /// bit-identical to calling it `out.len()` times in slice order
    /// (same draws consumed, same results). The monomorphic loop lets
    /// the compiler unroll and vectorize the generator advance + compare,
    /// which per-call sampling defeats.
    ///
    /// ```
    /// use antalloc_rng::{AntRng, Bernoulli};
    /// let b = Bernoulli::new(0.25);
    /// let mut a = AntRng::seed_from_u64(7);
    /// let mut c = a.clone();
    /// let mut batch = [false; 32];
    /// b.fill(&mut a, &mut batch);
    /// for (i, &got) in batch.iter().enumerate() {
    ///     assert_eq!(got, b.sample(&mut c), "draw {i}");
    /// }
    /// ```
    #[inline]
    pub fn fill(&self, rng: &mut AntRng, out: &mut [bool]) {
        if self.always {
            out.fill(true);
            return;
        }
        for slot in out.iter_mut() {
            *slot = rng.next_u64() < self.threshold;
        }
    }

    /// True iff the probability is exactly 0 (useful to skip whole loops).
    #[inline]
    pub fn never(&self) -> bool {
        self.threshold == 0 && !self.always
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degenerate_probabilities() {
        let mut rng = AntRng::seed_from_u64(0);
        let zero = Bernoulli::new(0.0);
        let one = Bernoulli::new(1.0);
        for _ in 0..1000 {
            assert!(!zero.sample(&mut rng));
            assert!(one.sample(&mut rng));
        }
        assert!(zero.never());
        assert!(!one.never());
        assert!(Bernoulli::new(f64::NAN).never());
        assert!(Bernoulli::new(-0.3).never());
        assert!(Bernoulli::new(1.5).sample(&mut rng));
    }

    #[test]
    fn tiny_probability_never_fires_below_resolution() {
        // p < 2^-64 quantizes to 0: important for the paper's n^-8
        // feedback-error probabilities at large n, which must simply never
        // fire rather than panic or misbehave.
        let b = Bernoulli::new(1e-30);
        assert!(b.never());
    }

    #[test]
    fn empirical_frequency_tracks_p() {
        let mut rng = AntRng::seed_from_u64(99);
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.9] {
            let b = Bernoulli::new(p);
            let n = 200_000u32;
            let hits = (0..n).filter(|_| b.sample(&mut rng)).count() as f64;
            let freq = hits / f64::from(n);
            // 5-sigma band around p.
            let sigma = (p * (1.0 - p) / f64::from(n)).sqrt();
            assert!((freq - p).abs() < 5.0 * sigma + 1e-9, "p={p} freq={freq}");
        }
    }

    #[test]
    fn threshold_rounds_to_nearest_not_down() {
        // Regression: the truncating cast biased every probability whose
        // 2^64-scaled value has a fractional part (p ≲ 2^-12, where the
        // f64 mantissa extends below the grid — exactly the regime of
        // the paper's n^-8 feedback-error probabilities) low by up to
        // one ulp. 1e-5 * 2^64 = …095.516… must round up to …096.
        let b = Bernoulli::new(1e-5);
        assert_eq!(b.raw_threshold(), (184_467_440_737_096, false));
        // Exactly representable probabilities stay exact.
        let b = Bernoulli::new(0.5);
        assert_eq!(b.raw_threshold(), (1u64 << 63, false));
        let b = Bernoulli::new(2f64.powi(-20));
        assert_eq!(b.raw_threshold(), (1u64 << 44, false));
        // Half a grid step rounds away from zero, not to never.
        let b = Bernoulli::new(2f64.powi(-65));
        assert_eq!(b.raw_threshold(), (1, false));
        assert!(!b.never());
    }

    proptest! {
        #[test]
        fn probability_roundtrip(p in 0.0f64..1.0) {
            // Quantization is at most half a grid step (2^-65); reading
            // the threshold back through `probability()`'s f64 division
            // adds at most 2^-54. Total well under 2^-53 — the old
            // truncating constructor fails this bound for small p.
            let b = Bernoulli::new(p);
            prop_assert!((b.probability() - p).abs() <= 2f64.powi(-53));
            // And the realized probability is *exactly* the documented
            // grid point.
            let (t, always) = b.raw_threshold();
            prop_assert!(!always);
            prop_assert_eq!(t, (p * 18_446_744_073_709_551_616.0).round() as u64);
        }

        #[test]
        fn fill_is_bit_identical_to_repeated_sampling(
            p in 0.0f64..1.0,
            n in 0usize..70,
            seed: u64,
        ) {
            let b = Bernoulli::new(p);
            let mut batched = AntRng::seed_from_u64(seed);
            let mut single = batched.clone();
            let mut out = vec![false; n];
            b.fill(&mut batched, &mut out);
            for (i, &got) in out.iter().enumerate() {
                prop_assert_eq!(got, b.sample(&mut single), "draw {}", i);
            }
            // Both consumed the same number of draws.
            prop_assert_eq!(batched.next_u64(), single.next_u64());
        }

        #[test]
        fn sample_is_monotone_in_p(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0, seed: u64) {
            // With a shared random source, a draw that succeeds under the
            // smaller p must succeed under the larger p.
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let mut r1 = AntRng::seed_from_u64(seed);
            let mut r2 = AntRng::seed_from_u64(seed);
            let s_lo = Bernoulli::new(lo).sample(&mut r1);
            let s_hi = Bernoulli::new(hi).sample(&mut r2);
            prop_assert!(!s_lo || s_hi);
        }
    }
}
