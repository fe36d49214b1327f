//! wyrand: the simulator's one generator, eight bytes of state.
//!
//! Wang Yi's public-domain design: the state is a Weyl counter that
//! advances by a fixed odd constant, and each output folds the 128-bit
//! product of the state with a scrambled copy of itself (high half XOR
//! low half). Period `2^64`, one multiply per draw, and it passes
//! BigCrush and PractRand.
//!
//! Because the state is a counter, a stream can start anywhere at no
//! cost. That is what lets ants carry no generator at all: an ant's
//! draws in one round are the stream [`AntRng::keyed`] builds from the
//! round's key and the ant's id, a pure function of
//! `(master seed, round, ant id)` in the counter-based style of Salmon
//! et al., "Parallel Random Numbers: As Easy as 1, 2, 3" (SC '11).

use crate::splitmix::SplitMix64;

/// The Weyl increment.
const P0: u64 = 0xa076_1d64_78bd_642f;
/// The output scrambler.
const P1: u64 = 0xe703_7ed1_a0b4_28db;

/// The high half XOR the low half of the 128-bit product `a · b`.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m >> 64) as u64 ^ m as u64
}

/// The generator behind every stream in the simulator: each ant's
/// per-round draws, and every reserved subsystem stream
/// ([`crate::reserved`]).
///
/// ```
/// use antalloc_rng::AntRng;
/// let mut a = AntRng::seed_from_u64(1);
/// let mut b = AntRng::seed_from_u64(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// // An ant's stream for one round is a pure function of the round
/// // key and its id.
/// assert_eq!(AntRng::keyed(7, 3).next_u64(), AntRng::keyed(7, 3).next_u64());
/// assert_ne!(AntRng::keyed(7, 3).next_u64(), AntRng::keyed(7, 4).next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AntRng {
    s: u64,
}

impl AntRng {
    /// A generator whose state is `seed` expanded through SplitMix64,
    /// so nearby seeds start far apart.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::from_state(SplitMix64::new(seed).next_u64())
    }

    /// A generator starting at raw state `s`.
    #[inline(always)]
    pub(crate) fn from_state(s: u64) -> Self {
        Self { s }
    }

    /// Ant `id`'s stream for the round keyed `round_key` (see
    /// [`crate::StreamSeeder::round_key`]).
    ///
    /// The pair goes through one wyhash mix before it becomes the
    /// state. A start linear in `id` would not do: the state advances
    /// by a fixed increment, so ants whose starts differ by a multiple
    /// of it would replay each other's draws shifted by a few places.
    #[inline(always)]
    pub fn keyed(round_key: u64, id: u64) -> Self {
        Self::from_state(fold(round_key ^ P0, id ^ P1))
    }

    /// Returns the next 64-bit output.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        self.s = self.s.wrapping_add(P0);
        fold(self.s, self.s ^ P1)
    }

    /// Returns the next output truncated to its upper 32 bits.
    #[inline(always)]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline(always)]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
// disallowed_types: the overlap test only needs membership, never
// iteration order, so the randomized hasher is harmless here.
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;
    use crate::{uniform_index, StreamSeeder};
    use std::collections::HashSet;

    /// Outputs for state 0, checked against an independent big-integer
    /// evaluation of the reference C code, and for a keyed start.
    #[test]
    fn reference_vector() {
        let mut g = AntRng::from_state(0);
        assert_eq!(g.next_u64(), 0x111c_b3a7_8f59_a58e);
        assert_eq!(g.next_u64(), 0xceab_d938_ff4e_856d);
        assert_eq!(g.next_u64(), 0x61fb_5131_8f47_d2a4);
        assert_eq!(g.next_u64(), 0x78bd_03c4_9190_9760);
        let mut k = AntRng::keyed(0x0123_4567_89ab_cdef, 42);
        assert_eq!(k.next_u64(), 0x0ef9_9196_2096_607e);
        assert_eq!(k.next_u64(), 0x7719_5595_b6f6_1099);
    }

    #[test]
    fn adjacent_ids_share_no_output() {
        // An ant and its neighbour must not replay each other's draws at
        // any offset, whatever the round.
        let seeder = StreamSeeder::new(0x5eed);
        let mut seen = HashSet::with_capacity(128);
        for round in 0..100_000u64 {
            let key = seeder.round_key(round);
            let id = round.wrapping_mul(0x9E37_79B9) % 1_000_000;
            seen.clear();
            for ant in [id, id + 1] {
                let mut g = AntRng::keyed(key, ant);
                for draw in 0..64 {
                    let x = g.next_u64();
                    assert!(seen.insert(x), "round {round}, ant {ant}, draw {draw}");
                }
            }
        }
    }

    #[test]
    fn popcount_is_balanced() {
        // First draws across ants (the values a round actually consumes)
        // and a long run of one stream: average popcount ~ 32 each.
        let key = StreamSeeder::new(3).round_key(1);
        let n = 100_000u64;
        let across: u64 = (0..n)
            .map(|id| u64::from(AntRng::keyed(key, id).next_u64().count_ones()))
            .sum();
        let mut g = AntRng::seed_from_u64(3);
        let along: u64 = (0..n).map(|_| u64::from(g.next_u64().count_ones())).sum();
        // sigma of the mean is 4 / sqrt(n) ~ 0.0126; allow 6 sigma.
        for (what, total) in [("across ids", across), ("along a stream", along)] {
            let avg = total as f64 / n as f64;
            assert!((avg - 32.0).abs() < 0.076, "{what}: avg popcount {avg}");
        }
    }

    #[test]
    fn uniform_index_passes_chi_square() {
        // One join pick per ant per round, over k + 1 = 7 choices (7
        // does not divide 2^64, so the rejection path is live).
        let seeder = StreamSeeder::new(11);
        let bound = 7usize;
        let mut counts = vec![0u32; bound];
        for round in 1..=10u64 {
            let key = seeder.round_key(round);
            for id in 0..14_000u64 {
                counts[uniform_index(&mut AntRng::keyed(key, id), bound)] += 1;
            }
        }
        let draws: u32 = counts.iter().sum();
        let expect = f64::from(draws) / bound as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = f64::from(c) - expect;
                d * d / expect
            })
            .sum();
        // dof = 6; the 0.999 quantile is 22.46.
        assert!(chi2 < 22.46, "chi2 {chi2}");
    }

    #[test]
    fn f64_range_and_mean() {
        let mut g = AntRng::seed_from_u64(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn chi_square_on_bytes_is_plausible() {
        // 256-bin chi-square over 1<<16 byte draws; generous 4-sigma band.
        let mut g = AntRng::seed_from_u64(11);
        let mut counts = [0u32; 256];
        let draws = 1 << 16;
        for _ in 0..draws / 8 {
            for byte in g.next_u64().to_le_bytes() {
                counts[usize::from(byte)] += 1;
            }
        }
        let expect = f64::from(draws) / 256.0;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let diff = f64::from(c) - expect;
                diff * diff / expect
            })
            .sum();
        // dof = 255, sigma = sqrt(2*255) ~ 22.6.
        assert!(chi2 < 255.0 + 4.0 * 22.6, "chi2 {chi2}");
    }
}
