//! Lists of colony ids in strictly ascending order — a controller
//! bank's slot → id map, whose slot order is id order so that every
//! kernel walks the colony's per-ant columns front to back.
//! [`AntIds`] owns such a list and checks the order wherever it changes
//! (an append against the last id, a rebuilt list whole); [`AntIdSlice`]
//! borrows a stretch of one. Holding either proves the order, so the
//! largest id is the last — a range check against the [`crate::TaskColumn`]
//! is one comparison — and no id repeats.

/// A list of ids that does not strictly ascend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdsOutOfOrder {
    /// The first slot whose id does not exceed the one before it.
    pub slot: usize,
}

impl core::fmt::Display for IdsOutOfOrder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "colony ids out of order at slot {}", self.slot)
    }
}

impl std::error::Error for IdsOutOfOrder {}

/// Checks that `ids` strictly ascend: one branch-free pass, then a
/// search for the slot only if it fails.
fn check(ids: &[u32]) -> Result<(), IdsOutOfOrder> {
    let next = ids.get(1..).unwrap_or_default();
    if ids.iter().zip(next).fold(true, |ok, (a, b)| ok & (a < b)) {
        return Ok(());
    }
    let slot = ids.windows(2).position(|w| w[0] >= w[1]).unwrap_or(0);
    Err(IdsOutOfOrder { slot: slot + 1 })
}

/// An owned list of colony ids, strictly ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AntIds(Vec<u32>);

impl AntIds {
    /// Appends `id`.
    ///
    /// # Panics
    /// If `id` does not exceed the last id.
    pub fn push(&mut self, id: u32) {
        let last = self.0.last().copied();
        assert!(last < Some(id), "colony id {id} appended after {last:?}");
        self.0.push(id);
    }

    /// The whole list, borrowed.
    pub fn as_ids(&self) -> AntIdSlice<'_> {
        AntIdSlice(&self.0)
    }

    /// The ids as a plain vector (to rewrite and check again).
    pub fn into_vec(self) -> Vec<u32> {
        self.0
    }
}

impl TryFrom<Vec<u32>> for AntIds {
    type Error = IdsOutOfOrder;

    /// Checks `ids` ([`IdsOutOfOrder`] if they do not ascend).
    fn try_from(ids: Vec<u32>) -> Result<Self, IdsOutOfOrder> {
        check(&ids).map(|()| Self(ids))
    }
}

/// A borrowed stretch of colony ids, strictly ascending (a bank
/// chunk's ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AntIdSlice<'a>(&'a [u32]);

impl<'a> AntIdSlice<'a> {
    /// Checks `ids` ([`IdsOutOfOrder`] if they do not ascend).
    pub fn new(ids: &'a [u32]) -> Result<Self, IdsOutOfOrder> {
        check(ids).map(|()| Self(ids))
    }

    /// Splits the ids at `mid`, as [`slice::split_at`].
    pub fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(mid);
        (Self(a), Self(b))
    }
}

impl core::ops::Deref for AntIds {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

impl core::ops::Deref for AntIdSlice<'_> {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_refuse_every_break_in_their_order() {
        assert_eq!(
            AntIds::try_from(vec![0, 2, 2]),
            Err(IdsOutOfOrder { slot: 2 })
        );
        assert_eq!(AntIdSlice::new(&[3, 1]), Err(IdsOutOfOrder { slot: 1 }));
        let mut ids = AntIds::try_from(vec![1, 4]).unwrap();
        ids.push(5);
        assert_eq!(*ids, [1, 4, 5]);
        let (a, b) = ids.as_ids().split_at(1);
        assert_eq!((&*a, b.last()), (&[1][..], Some(&5)));
        let pushed = std::panic::catch_unwind(move || ids.push(5));
        assert!(pushed.is_err(), "a repeated id is refused");
    }
}
