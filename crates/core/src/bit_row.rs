//! Bit rows: a bank's per-ant booleans, packed into the ant's own
//! bytes.
//!
//! A kind with boolean state gives each ant one row of
//! [`width`]`(bits)` = ⌈bits / 8⌉ bytes, least significant bit first:
//! the kind's `k`-wide boolean vector in bits `0..k`, then its per-ant
//! flags at bits `k`, `k + 1`, …. A row is byte-aligned per ant, so a
//! bank chunk splits between any two ants and a [`crate::SlotMap`]
//! moves rows as runs (`apply_rows`), exactly like a `k`-wide counter
//! plane — no chunk ever shares a byte with another. For `k ≤ 64` the
//! vector loads into one register ([`load`]) and ANDs with a sampled
//! lack mask in place ([`and`]).

/// Bytes per row of `bits` bits.
#[inline(always)]
pub(crate) const fn width(bits: usize) -> usize {
    bits.div_ceil(8)
}

/// Bit `bit` of `row`.
#[inline(always)]
pub(crate) fn get(row: &[u8], bit: usize) -> bool {
    row[bit / 8] >> (bit % 8) & 1 == 1
}

/// Sets bit `bit` of `row` to `on`, without a branch on `on` (kernels
/// store sampled bits, which no predictor can guess).
#[inline(always)]
pub(crate) fn set(row: &mut [u8], bit: usize, on: bool) {
    let (byte, shift) = (bit / 8, bit % 8);
    row[byte] = row[byte] & !(1 << shift) | u8::from(on) << shift;
}

/// The mask of bits `0..k`, `1 ≤ k ≤ 64`.
#[inline(always)]
fn low(k: usize) -> u64 {
    u64::MAX >> (64 - k)
}

/// Bits `0..k` of `row` as a word (`1 ≤ k ≤ 64`).
#[inline(always)]
pub(crate) fn load(row: &[u8], k: usize) -> u64 {
    let mut word = 0u64;
    for (i, &b) in row[..width(k)].iter().enumerate() {
        word |= u64::from(b) << (8 * i);
    }
    word & low(k)
}

/// Overwrites bits `0..k` of `row` with `word` (`1 ≤ k ≤ 64`), keeping
/// the flags past them.
#[inline(always)]
pub(crate) fn store(row: &mut [u8], k: usize, word: u64) {
    let (word, mask) = (word.to_le_bytes(), low(k).to_le_bytes());
    for ((b, w), m) in row[..width(k)].iter_mut().zip(word).zip(mask) {
        *b = *b & !m | w & m;
    }
}

/// Clears every bit in `0..k` of `row` that is clear in `word`
/// (`1 ≤ k ≤ 64`), keeping the flags past them.
#[inline(always)]
pub(crate) fn and(row: &mut [u8], k: usize, word: u64) {
    let keep = (word | !low(k)).to_le_bytes();
    for (b, keep) in row[..width(k)].iter_mut().zip(keep) {
        *b &= keep;
    }
}

/// Sets bits `0..k` of `row`, any `k`, keeping the flags past them.
#[inline(always)]
pub(crate) fn fill_ones(row: &mut [u8], k: usize) {
    let (full, rest) = (k / 8, k % 8);
    row[..full].fill(u8::MAX);
    if rest > 0 {
        row[full] |= (1u8 << rest) - 1;
    }
}

/// The number of set bits in `0..k` of `row`, any `k`.
#[inline(always)]
pub(crate) fn count(row: &[u8], k: usize) -> usize {
    (0..k).filter(|&j| get(row, j)).count()
}

/// Overwrites `row` with `bits`, least significant bit first; bits
/// past the last one are clear.
#[inline(always)]
pub(crate) fn pack(row: &mut [u8], bits: impl IntoIterator<Item = bool>) {
    let mut bits = bits.into_iter();
    for byte in row {
        *byte = 0;
        for (i, on) in bits.by_ref().take(8).enumerate() {
            *byte |= u8::from(on) << i;
        }
    }
}

/// Truncates or extends a plane of `fresh.len()`-byte rows to `n` rows,
/// new rows copies of `fresh`.
pub(crate) fn resize_rows(rows: &mut Vec<u8>, n: usize, fresh: &[u8]) {
    let w = fresh.len();
    let have = rows.len() / w.max(1);
    rows.truncate(n * w);
    for _ in have..n {
        rows.extend_from_slice(fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_flags_share_a_row_without_touching() {
        for k in [1, 4, 8, 13, 63, 64] {
            let w = width(k + 2);
            let mut row = vec![0u8; w];
            set(&mut row, k, true);
            set(&mut row, k + 1, true);
            let word = 0xA5A5_5A5A_F0F0_0F0Fu64 & (u64::MAX >> (64 - k));
            store(&mut row, k, word);
            assert_eq!(load(&row, k), word, "k {k}");
            assert!(get(&row, k) && get(&row, k + 1), "k {k}: flags kept");
            and(&mut row, k, 0x3333_3333_3333_3333);
            assert_eq!(load(&row, k), word & 0x3333_3333_3333_3333, "k {k}");
            assert!(get(&row, k) && get(&row, k + 1), "k {k}: flags kept");
            assert_eq!(count(&row, k), (load(&row, k)).count_ones() as usize);
            fill_ones(&mut row, k);
            assert_eq!(load(&row, k), u64::MAX >> (64 - k), "k {k}");
            set(&mut row, k + 1, false);
            assert!(get(&row, k) && !get(&row, k + 1), "k {k}");
        }
    }

    #[test]
    fn fill_ones_and_count_past_64_bits() {
        let k = 70;
        let mut row = vec![0u8; width(k + 1)];
        fill_ones(&mut row, k);
        assert_eq!(count(&row, k), k);
        assert!(!get(&row, k));
        set(&mut row, 3, false);
        assert_eq!(count(&row, k), k - 1);
    }

    #[test]
    fn pack_fills_whole_rows() {
        let mut row = [0xFF; 2];
        pack(&mut row, [true, false, true].into_iter().chain([true; 7]));
        assert_eq!(row, [0b1111_1101, 0b11]);
        pack(&mut row, [true]);
        assert_eq!(row, [1, 0]);
    }

    #[test]
    fn resize_rows_repeats_the_fresh_row() {
        let mut rows = vec![7, 7];
        resize_rows(&mut rows, 3, &[1, 2]);
        assert_eq!(rows, [7, 7, 1, 2, 1, 2]);
        resize_rows(&mut rows, 1, &[1, 2]);
        assert_eq!(rows, [7, 7]);
    }
}
