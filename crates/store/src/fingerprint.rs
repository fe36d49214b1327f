//! Content fingerprints for store entries.
//!
//! A [`Fingerprint`] is a SHA-256 digest over a *domain-separated,
//! length-prefixed* sequence of labeled parts, so two different part
//! sequences can never serialize to the same byte stream (no
//! `["ab","c"]` / `["a","bc"]` ambiguity) and two different entry
//! kinds can never collide even over identical inputs. The digest is a
//! pure function of its inputs — no clocks, hosts, or paths leak in —
//! which is what lets a sweep on one machine reuse entries written by
//! another, and what makes cache *invalidation* automatic: change any
//! fingerprinted input and the key moves.
//!
//! SHA-256 is implemented here (FIPS 180-4) rather than pulled in as a
//! dependency, because the workspace builds offline on `std` alone. The
//! block function has two paths and one result:
//!
//! * on x86-64 CPUs whose `is_x86_feature_detected!` reports `sha`,
//!   `sse2`, `ssse3` and `sse4.1` (checked once per hasher), a
//!   `#[target_feature]` fn on the SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`), ≈ 5× the portable loop;
//! * everywhere else, the portable FIPS 180-4 round loop.
//!
//! Calling the target-feature fn is the crate's one `unsafe` block: the
//! crate root is `#![deny(unsafe_code)]` and only the `compress`
//! dispatch allows it, behind a `ShaNi` token that only feature
//! detection makes. Keys, manifests and payload hashes are the same
//! bytes on both paths. The NIST vectors, a padding test at every block
//! fill and chunked updates run through both paths, and a differential
//! property compares the two block functions on random (state, block)
//! pairs wherever the CPU has the extensions.

/// Round constants: fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: fractional parts of the square roots of the
/// first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 (FIPS 180-4).
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: [u8; 64],
    fill: usize,
    total: u64,
    /// The block function, picked once per hasher: `Some` runs the
    /// x86-64 SHA extensions, `None` the portable loop.
    sha_ni: Option<ShaNi>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Self::with_block_fn(ShaNi::detect())
    }

    fn with_block_fn(sha_ni: Option<ShaNi>) -> Self {
        Self {
            state: H0,
            block: [0; 64],
            fill: 0,
            total: 0,
            sha_ni,
        }
    }

    /// A hasher pinned to the portable block function, so tests check
    /// it on hosts whose CPU would pick the SHA extensions.
    #[cfg(test)]
    fn portable() -> Self {
        Self::with_block_fn(None)
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.fill > 0 {
            let take = (64 - self.fill).min(data.len());
            self.block[self.fill..self.fill + take].copy_from_slice(&data[..take]);
            self.fill += take;
            data = &data[take..];
            if self.fill < 64 {
                return; // data exhausted inside a still-partial block
            }
            compress(self.sha_ni, &mut self.state, &self.block);
            self.fill = 0;
        }
        let (blocks, tail) = data.as_chunks::<64>();
        for block in blocks {
            compress(self.sha_ni, &mut self.state, block);
        }
        self.block[..tail.len()].copy_from_slice(tail);
        self.fill = tail.len();
    }

    pub fn finalize(mut self) -> [u8; 32] {
        // Pad in place: `0x80`, zeros, then the 64-bit big-endian bit
        // length in the last 8 bytes — spilling into one more block
        // when fewer than 8 bytes are left after the `0x80`.
        let bit_len = self.total.wrapping_mul(8);
        self.block[self.fill] = 0x80;
        self.block[self.fill + 1..].fill(0);
        if self.fill >= 56 {
            compress(self.sha_ni, &mut self.state, &self.block);
            self.block[..56].fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(self.sha_ni, &mut self.state, &self.block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of a single byte string.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Proof that this CPU runs the SHA extensions and the SSE levels
/// their block function uses; only [`ShaNi::detect`] makes one.
#[derive(Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct ShaNi(());

impl ShaNi {
    fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Some(ShaNi(()));
        }
        None
    }
}

/// Folds one 64-byte block into `state` — the crate's one `unsafe`
/// site: the SHA-extensions block function when `sha_ni` proves the
/// CPU runs it, the portable loop otherwise. Both compute the same
/// FIPS 180-4 compression, bit for bit.
#[allow(unsafe_code)]
#[inline]
fn compress(sha_ni: Option<ShaNi>, state: &mut [u32; 8], block: &[u8; 64]) {
    match sha_ni {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a `ShaNi` exists only after `is_x86_feature_detected!`
        // reported `sha`, `sse2`, `ssse3` and `sse4.1` on this CPU, the
        // exact feature set `x86_sha::compress` is compiled for.
        Some(ShaNi(())) => unsafe { x86_sha::compress(state, block) },
        _ => compress_portable(state, block),
    }
}

/// The FIPS 180-4 §6.2.2 block function in portable Rust.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (word, chunk) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*chunk);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The block function on the x86-64 SHA extensions (Intel's
/// `sha256rnds2`/`sha256msg1`/`sha256msg2`). Every intrinsic here is a
/// safe fn inside a `#[target_feature]` fn that enables its features;
/// the state and message go in through `_mm_set_epi32` and come out
/// through `_mm_extract_epi32`, so no pointer is dereferenced.
#[cfg(target_arch = "x86_64")]
mod x86_sha {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Four words as one vector, `w0` in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(w0: u32, w1: u32, w2: u32, w3: u32) -> __m128i {
        _mm_set_epi32(
            w3.cast_signed(),
            w2.cast_signed(),
            w1.cast_signed(),
            w0.cast_signed(),
        )
    }

    /// Message words `16..64`, four at a time: the next four from the
    /// previous sixteen (`m0` oldest).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(m0: __m128i, m1: __m128i, m2: __m128i, m3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(m0, m1);
        let w7 = _mm_alignr_epi8::<4>(m3, m2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), m3)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let [a, b, c, d, e, f, g, h] = *state;
        // The instructions hold the state as (A, B, E, F) and
        // (C, D, G, H), highest lane first.
        let mut abef = lanes(f, e, b, a);
        let mut cdgh = lanes(h, g, d, c);
        let (abef0, cdgh0) = (abef, cdgh);

        let w = |j: usize| u32::from_be_bytes(block.as_chunks::<4>().0[j]);
        let mut m = [
            lanes(w(0), w(1), w(2), w(3)),
            lanes(w(4), w(5), w(6), w(7)),
            lanes(w(8), w(9), w(10), w(11)),
            lanes(w(12), w(13), w(14), w(15)),
        ];
        // Four rounds per pass: each `sha256rnds2` runs two, on the
        // W + K words in the low two lanes (the shuffle moves lanes 2
        // and 3 down for the second pair). `m` keeps the last sixteen
        // message words.
        for i in 0..16 {
            if i >= 4 {
                m[i % 4] = schedule(m[i % 4], m[(i + 1) % 4], m[(i + 2) % 4], m[(i + 3) % 4]);
            }
            let k = &K[4 * i..4 * i + 4];
            let wk = _mm_add_epi32(m[i % 4], lanes(k[0], k[1], k[2], k[3]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);

        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(i32::cast_unsigned);
    }
}

/// A 256-bit content fingerprint keying one store entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub [u8; 32]);

impl Fingerprint {
    /// Full 64-char lowercase hex rendering.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        push_hex(&self.0, &mut s);
        s
    }

    /// First 16 hex chars — the on-disk entry directory name. The
    /// manifest stores the *full* fingerprint, so a (deliberately
    /// short, hence constructible-in-tests) directory collision is
    /// detected on load, never silently served.
    pub fn short_hex(&self) -> String {
        let mut s = String::with_capacity(16);
        self.push_short_hex(&mut s);
        s
    }

    /// Appends [`Fingerprint::short_hex`] to `out` without a
    /// temporary: the store's entry paths are built in one `String`.
    pub(crate) fn push_short_hex(&self, out: &mut String) {
        push_hex(&self.0[..8], out);
    }
}

fn push_hex(bytes: &[u8], out: &mut String) {
    for &byte in bytes {
        out.push(hex_digit(byte >> 4));
        out.push(hex_digit(byte & 0xF));
    }
}

fn hex_digit(nibble: u8) -> char {
    char::from(if nibble < 10 {
        b'0' + nibble
    } else {
        b'a' + nibble - 10
    })
}

impl std::fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Fingerprint({})", self.hex())
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Builds a [`Fingerprint`] from labeled, length-prefixed parts.
///
/// Every part — the domain tag, each label, each value — is hashed as
/// `u64-LE length ‖ bytes`, so the digest is injective over the part
/// *sequence*, not just the concatenated bytes.
pub struct FingerprintBuilder {
    hasher: Sha256,
}

impl FingerprintBuilder {
    /// Starts a fingerprint in the given domain (e.g.
    /// `"antalloc.outcome.v1"`). Distinct domains can never collide.
    pub fn new(domain: &str) -> Self {
        let mut b = Self {
            hasher: Sha256::new(),
        };
        b.push(domain.as_bytes());
        b
    }

    fn push(&mut self, bytes: &[u8]) {
        self.hasher.update(&(bytes.len() as u64).to_le_bytes());
        self.hasher.update(bytes);
    }

    pub fn bytes(mut self, label: &str, data: &[u8]) -> Self {
        self.push(label.as_bytes());
        self.push(data);
        self
    }

    pub fn u64(self, label: &str, value: u64) -> Self {
        self.bytes(label, &value.to_le_bytes())
    }

    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.hasher.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        Fingerprint(digest).hex()
    }

    /// One hasher per block function this host can run: the portable
    /// loop always, the SHA extensions where the CPU has them. Each
    /// digest test runs through every entry, so a host without the
    /// extensions still checks the portable twin of the hardware path
    /// and a host with them checks both.
    fn hashers() -> Vec<(&'static str, Sha256)> {
        let mut all = vec![("portable", Sha256::portable())];
        if ShaNi::detect().is_some() {
            all.push(("sha-ni", Sha256::new()));
        }
        all
    }

    fn digest_with(mut h: Sha256, data: &[u8]) -> [u8; 32] {
        h.update(data);
        h.finalize()
    }

    #[test]
    fn nist_vectors() {
        for (name, h) in hashers() {
            assert_eq!(
                hex(digest_with(h.clone(), b"")),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{name}"
            );
            assert_eq!(
                hex(digest_with(h.clone(), b"abc")),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{name}"
            );
            assert_eq!(
                hex(digest_with(
                    h,
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
                )),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{name}"
            );
        }
    }

    #[test]
    fn nist_million_a() {
        for (name, mut h) in hashers() {
            for _ in 0..1_000 {
                h.update(&[b'a'; 1_000]);
            }
            assert_eq!(
                hex(h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn chunked_updates_match_one_shot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        let whole = digest_with(Sha256::portable(), &data);
        for (name, h) in hashers() {
            assert_eq!(digest_with(h.clone(), &data), whole, "{name} one-shot");
            for chunk in [1usize, 3, 63, 64, 65, 127] {
                let mut h = h.clone();
                for piece in data.chunks(chunk) {
                    h.update(piece);
                }
                assert_eq!(h.finalize(), whole, "{name} chunk size {chunk}");
            }
        }
    }

    /// In-place padding against the textbook recipe: the message, `0x80`,
    /// zeros to 56 mod 64, the big-endian bit length, folded block by
    /// block. Covers every `fill` finalize can see, after zero and
    /// after one full block, on both block functions.
    #[test]
    fn finalize_pads_every_fill() {
        for len in 0..128usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut padded = data.clone();
            padded.push(0x80);
            while padded.len() % 64 != 56 {
                padded.push(0);
            }
            padded.extend_from_slice(&(8 * len as u64).to_be_bytes());
            let mut state = H0;
            for block in padded.as_chunks::<64>().0 {
                compress_portable(&mut state, block);
            }
            let mut want = [0u8; 32];
            for (chunk, word) in want.chunks_exact_mut(4).zip(state) {
                chunk.copy_from_slice(&word.to_be_bytes());
            }
            for (name, h) in hashers() {
                assert_eq!(digest_with(h, &data), want, "{name} length {len}");
            }
        }
    }

    proptest::proptest! {
        /// The SHA-extensions block function equals the portable loop
        /// on arbitrary (state, block) pairs, not only on the states a
        /// real message reaches. Vacuous on a CPU without the
        /// extensions, where the portable loop is the only path.
        #[test]
        fn block_fns_agree_on_random_states(
            state in proptest::collection::vec(proptest::prelude::any::<u32>(), 8),
            block in proptest::collection::vec(proptest::prelude::any::<u8>(), 64),
        ) {
            let mut portable = [0u32; 8];
            portable.copy_from_slice(&state);
            let mut block_bytes = [0u8; 64];
            block_bytes.copy_from_slice(&block);
            let mut hardware = portable;
            compress_portable(&mut portable, &block_bytes);
            if let Some(sha_ni) = ShaNi::detect() {
                compress(Some(sha_ni), &mut hardware, &block_bytes);
                proptest::prop_assert_eq!(hardware, portable);
            }
        }
    }

    #[test]
    fn builder_separates_part_boundaries() {
        let ab_c = FingerprintBuilder::new("d")
            .bytes("x", b"ab")
            .bytes("y", b"c")
            .finish();
        let a_bc = FingerprintBuilder::new("d")
            .bytes("x", b"a")
            .bytes("y", b"bc")
            .finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn builder_separates_domains_and_labels() {
        let base = FingerprintBuilder::new("dom1").u64("seed", 7).finish();
        assert_ne!(
            base,
            FingerprintBuilder::new("dom2").u64("seed", 7).finish()
        );
        assert_ne!(
            base,
            FingerprintBuilder::new("dom1").u64("round", 7).finish()
        );
        assert_ne!(
            base,
            FingerprintBuilder::new("dom1").u64("seed", 8).finish()
        );
        assert_eq!(
            base,
            FingerprintBuilder::new("dom1").u64("seed", 7).finish()
        );
    }

    #[test]
    fn hex_renderings() {
        let fp = Fingerprint(Sha256::digest(b"abc"));
        assert_eq!(fp.hex().len(), 64);
        assert_eq!(fp.short_hex(), &fp.hex()[..16]);
        assert_eq!(format!("{fp}"), fp.hex());
    }
}
