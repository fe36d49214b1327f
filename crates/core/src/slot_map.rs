//! Stable in-place reorderings of a bank's slots.
//!
//! Banks keep their ants in ascending global id (the engine layer's
//! invariant), so a kill event that drops some ants and relabels a few
//! others does not reshuffle a bank: it shifts long runs of surviving
//! slots by a few places and drops the relabelled rows back in at their
//! new places. A [`SlotMap`] describes exactly
//! that shape — run copies plus lifted rows — so every column of every
//! bank kind can apply it as `memmove`s, with no spare column.

/// A reordering of a bank's slots that keeps most of them in relative
/// order: new slot `j` takes either the next *kept* old slot (kept
/// slots ascend) or a *lifted* old slot (any slot not kept). Old slots
/// neither kept nor lifted are dropped.
///
/// Built front to back with [`SlotMap::keep`] (a run of old slots),
/// [`SlotMap::lift`] (one old slot) and [`SlotMap::fill`] (one old slot
/// in place of a dropped one), closed with [`SlotMap::finish`], then
/// applied to every per-slot column ([`SlotMap::apply`],
/// [`SlotMap::apply_rows`]).
///
/// # Examples
///
/// Dropping slot 1 of five and moving slot 4 to the front:
///
/// ```
/// use antalloc_core::SlotMap;
///
/// let mut map = SlotMap::default();
/// map.lift(4);
/// map.keep(0, 1);
/// map.keep(2, 2);
/// map.finish();
/// let mut col = vec!['a', 'b', 'c', 'd', 'e'];
/// map.apply(&mut col);
/// assert_eq!(col, vec!['e', 'a', 'c', 'd']);
/// ```
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SlotMap {
    /// `(from, to, len)` run copies, in an order that is safe in place
    /// once [`SlotMap::finish`] has run.
    runs: Vec<(usize, usize, usize)>,
    /// `(from, to)` rows copied out before the runs and back after.
    lifts: Vec<(usize, usize)>,
    /// Number of new slots.
    len: usize,
}

impl SlotMap {
    /// Number of new slots: a column's length once the map is applied.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Empties the map for reuse, keeping its allocations.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.lifts.clear();
        self.len = 0;
    }

    /// The map of a swap-removal: slot `slot` of a bank of `len` slots
    /// is dropped and the last slot takes its place.
    ///
    /// # Panics
    /// If `slot >= len`.
    pub fn swap_remove(len: usize, slot: usize) -> Self {
        assert!(slot < len, "slot {slot} out of a bank of {len}");
        let mut map = Self::default();
        map.keep(0, slot);
        if slot + 1 < len {
            map.fill(slot, len - 1);
            map.keep(slot + 1, len - slot - 2);
        }
        map.finish();
        map
    }

    /// The next `n` new slots take old slots `from..from + n`, which
    /// must lie past every slot kept so far.
    ///
    /// # Panics
    /// If `from` lies before the end of the last kept run.
    pub fn keep(&mut self, from: usize, n: usize) {
        if n == 0 {
            return;
        }
        let to = self.len;
        self.len += n;
        match self.runs.last_mut() {
            Some((f, t, len)) if *f + *len == from && *t + *len == to => *len += n,
            last => {
                // Runs apply in place only while kept slots ascend.
                assert!(
                    last.is_none_or(|&mut (f, _, len)| f + len <= from),
                    "kept slot {from} does not follow the kept run"
                );
                self.runs.push((from, to, n));
            }
        }
    }

    /// The next new slot takes old slot `from`, which no call to
    /// [`SlotMap::keep`] names.
    pub fn lift(&mut self, from: usize) {
        self.lifts.push((from, self.len));
        self.len += 1;
    }

    /// The next new slot takes old slot `from` in place of old slot
    /// `dropped`, which lies past every slot kept so far and whose row
    /// is not needed: the runs copy straight through `dropped` and the
    /// lifted row then overwrites it, so a drop refilled in place ends
    /// no run.
    pub fn fill(&mut self, dropped: usize, from: usize) {
        self.keep(dropped, 1);
        self.lifts.push((from, self.len - 1));
    }

    /// Orders the runs for an in-place pass and drops those that do not
    /// move.
    ///
    /// Kept sources and destinations both ascend, so a run moving left
    /// can only overwrite sources of earlier runs, and a run moving
    /// right only sources of later ones. Left-moving runs therefore go
    /// in ascending order and each maximal stretch of right-moving runs
    /// in descending order; two runs moving in different directions
    /// never touch each other's sources.
    pub fn finish(&mut self) {
        self.runs.retain(|&(from, to, _)| from != to);
        let mut start = 0;
        while start < self.runs.len() {
            let rightward = |&(from, to, _): &(usize, usize, usize)| to > from;
            let end = start
                + self.runs[start..]
                    .iter()
                    .take_while(|run| rightward(run))
                    .count();
            self.runs[start..end].reverse();
            start = end + 1;
        }
    }

    /// Applies the map to a column of one `T` per slot, as one
    /// `memmove` per run.
    pub fn apply<T: Copy>(&self, col: &mut Vec<T>) {
        let lifted: Vec<T> = self.lifts.iter().map(|&(from, _)| col[from]).collect();
        for &(from, to, n) in &self.runs {
            col.copy_within(from..from + n, to);
        }
        for (&value, &(_, to)) in lifted.iter().zip(&self.lifts) {
            col[to] = value;
        }
        col.truncate(self.len);
    }

    /// Applies the map to a column of `width` consecutive `T`s per slot
    /// (an ant-major plane), as one `memmove` per run.
    pub fn apply_rows<T: Copy>(&self, col: &mut Vec<T>, width: usize) {
        let rows = |s: usize| s * width..(s + 1) * width;
        let mut lifted = Vec::with_capacity(self.lifts.len() * width);
        for &(from, _) in &self.lifts {
            lifted.extend_from_slice(&col[rows(from)]);
        }
        for &(from, to, n) in &self.runs {
            col.copy_within(from * width..(from + n) * width, to * width);
        }
        for (row, &(_, to)) in lifted.chunks_exact(width.max(1)).zip(&self.lifts) {
            col[rows(to)].copy_from_slice(row);
        }
        col.truncate(self.len * width);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use antalloc_rng::{uniform_index, StreamSeeder};

    /// The reference: gather each new slot's row from its old slot.
    fn gather(order: &[usize], col: &[u32]) -> Vec<u32> {
        order.iter().map(|&s| col[s]).collect()
    }

    /// A random map over `len` slots: each slot is dropped, kept or
    /// lifted, and the lifted ones land at random places between the
    /// kept ones or fill dropped ones. Returns the map and the old slot
    /// of every new slot.
    pub(crate) fn random_map(seed: u64, len: usize) -> (SlotMap, Vec<usize>) {
        let mut rng = StreamSeeder::new(seed).stream(0);
        let kinds: Vec<usize> = (0..len).map(|_| uniform_index(&mut rng, 8)).collect();
        let mut lifts: Vec<usize> = (0..len).rev().filter(|&s| kinds[s] == 1).collect();
        let mut order = Vec::new();
        let mut map = SlotMap::default();
        for (s, &kind) in kinds.iter().enumerate() {
            match kind {
                0 if !lifts.is_empty() && uniform_index(&mut rng, 2) == 0 => {
                    let from = lifts.pop().unwrap_or_default();
                    map.fill(s, from);
                    order.push(from);
                }
                0 | 1 => {}
                _ => {
                    while !lifts.is_empty() && uniform_index(&mut rng, 4) == 0 {
                        let from = lifts.pop().unwrap_or_default();
                        map.lift(from);
                        order.push(from);
                    }
                    map.keep(s, 1);
                    order.push(s);
                }
            }
        }
        while let Some(from) = lifts.pop() {
            map.lift(from);
            order.push(from);
        }
        map.finish();
        (map, order)
    }

    #[test]
    fn random_maps_match_a_gather_for_every_column_shape() {
        for seed in 0..300u64 {
            let len = (seed as usize * 7) % 97;
            let (map, order) = random_map(seed, len);
            let col: Vec<u32> = (0..len as u32).map(|x| x * 3 + 1).collect();
            let want = gather(&order, &col);

            let mut got = col.clone();
            map.apply(&mut got);
            assert_eq!(got, want, "seed {seed}");

            let rows: Vec<u32> = col.iter().flat_map(|&x| [x, x + 1, x + 2]).collect();
            let mut got = rows.clone();
            map.apply_rows(&mut got, 3);
            let want: Vec<u32> = want.iter().flat_map(|&x| [x, x + 1, x + 2]).collect();
            assert_eq!(got, want, "seed {seed} (rows)");
        }
    }

    #[test]
    fn swap_remove_map_moves_the_last_slot_only() {
        let map = SlotMap::swap_remove(4, 1);
        assert_eq!(map.runs, vec![], "every run stays put");
        let mut col = vec![10, 11, 12, 13];
        map.apply(&mut col);
        assert_eq!(col, vec![10, 13, 12]);
        let mut col = vec![10, 11, 12, 13];
        SlotMap::swap_remove(4, 3).apply(&mut col);
        assert_eq!(col, vec![10, 11, 12]);
        let mut col = vec![7];
        SlotMap::swap_remove(1, 0).apply(&mut col);
        assert!(col.is_empty());
    }

    #[test]
    fn identity_map_drops_every_run() {
        let mut map = SlotMap::default();
        (0..5).for_each(|s| map.keep(s, 1));
        map.finish();
        assert_eq!(
            map,
            SlotMap {
                runs: vec![],
                lifts: vec![],
                len: 5
            }
        );
        let mut col = vec![1, 2, 3, 4, 5];
        map.apply(&mut col);
        assert_eq!(col, vec![1, 2, 3, 4, 5]);
    }
}
