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
//! dependency because the container resolves external names to local
//! shims; the implementation is ~80 lines, `#![forbid(unsafe_code)]`
//! applies, and the NIST test vectors below pin it.

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
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Self {
            state: H0,
            block: [0; 64],
            fill: 0,
            total: 0,
        }
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
            let block = self.block;
            self.compress(&block);
            self.fill = 0;
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        self.block[..data.len()].copy_from_slice(data);
        self.fill = data.len();
    }

    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        self.update(&[0x80]);
        while self.fill != 56 {
            self.update(&[0]);
        }
        // Append the length directly: `update` would recount it.
        self.block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.block;
        self.compress(&block);
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

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
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
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
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

    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_million_a() {
        let mut h = Sha256::new();
        for _ in 0..1_000 {
            h.update(&[b'a'; 1_000]);
        }
        assert_eq!(
            hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn chunked_updates_match_one_shot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        let whole = Sha256::digest(&data);
        for chunk in [1usize, 3, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), whole, "chunk size {chunk}");
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
