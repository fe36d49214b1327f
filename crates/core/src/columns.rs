//! Column schemas: each bank kind declares its per-ant columns once.
//!
//! A bank is a structure-of-arrays population: a few per-kind values
//! (coins, the task count, a row width) and one `Vec` per per-ant
//! column. Everything that must touch every column — growing and
//! shrinking the bank, relocating ants through a [`crate::SlotMap`],
//! splitting it into chunks, measuring it — derives from the kind's one
//! [`soa_bank!`] schema, so a column cannot be forgotten by one of them.
//! Adding a column is one line in its kind's list, plus the kernel code
//! that reads it.
//!
//! A schema names, each field with its initializer over the
//! constructor's arguments:
//!
//! * the bank's own fields, kept on the bank only;
//! * the chunk's fields, which every chunk carries too — copied, or
//!   borrowed from the bank's field of the same name when written
//!   `&name: Type`;
//! * the columns: name, element type, entries per ant and fresh value.
//!   Entries per ant are one when no width is given, else the value of
//!   one of the chunk's fields: `k` for a counter plane, the row width
//!   for bit rows, 0 or 1 for a column only some banks of the kind
//!   carry. A fresh ant's entries are `= value` repeated, or `from` a
//!   bank field holding a whole fresh row. The list may be empty: the
//!   bank and every chunk count their ants themselves.
//!
//! No column holds the ants' assignments: the colony's task column is
//! their one copy, and the stepping drivers hand each ant's prior
//! assignment to its kernel (see `bank.rs`).
//!
//! Each column also names its [`Domain`]: the values it may hold
//! between rounds, written over the chunk's fields (`Task(num_tasks)`,
//! `AtMost(m)`, `Row(num_tasks + 2)`, `Any`). Checkpoints store every
//! column exactly as the bank holds it (little-endian), and validate
//! each against its domain on decode.
//!
//! From that list [`soa_bank!`] derives the bank and chunk structs, the
//! bank's `new`/`reinit`, `len`/`is_empty`, `push_fresh`,
//! `apply_slot_map`, `as_slice_mut`, the checkpoint's `state_len`,
//! `write_state`, `check_state` and `read_state`, (in tests)
//! `column_bytes`, and the chunk's `len` and `split_at_mut`. The kind
//! writes the rest: its per-ant conversions and its kernel, which
//! indexes the chunk's columns directly.

/// The task count a bank is built for, checked.
///
/// # Panics
/// If `num_tasks` is 0.
pub(crate) fn tasks(num_tasks: usize) -> usize {
    assert!(num_tasks >= 1, "at least one task");
    num_tasks
}

/// What a stored column may hold between rounds (see the module doc);
/// a checkpoint decode rejects any other value.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Domain {
    /// Any value.
    Any,
    /// A task below the given count, or idle ([`crate::cast::IDLE`]).
    Task(usize),
    /// At most the given value.
    AtMost(u64),
    /// Bit rows (one per ant, the column's width in bytes) whose bits
    /// past the given count are clear.
    Row(usize),
}

impl Domain {
    /// Checks the little-endian column `bytes` of `T`, `per_ant`
    /// entries per ant, against the domain.
    pub(crate) fn check<T: Cell>(
        self,
        column: &'static str,
        bytes: &[u8],
        per_ant: usize,
    ) -> Result<(), crate::BankError> {
        let bad = |reason: String| Err(crate::BankError::BadColumn { column, reason });
        let values = || T::values(bytes);
        match self {
            Domain::Any => Ok(()),
            Domain::Task(k) => {
                // Idle (all ones) wraps to 0 and task `j` to `j + 1`, so
                // one max decides.
                let wrap = 1u64 << (8 * size_of::<T>());
                match values().map(|v| (v + 1) % wrap).max() {
                    Some(top) if top > k as u64 => {
                        bad(format!("task {} out of range ({k} tasks)", top - 1))
                    }
                    _ => Ok(()),
                }
            }
            Domain::AtMost(max) => match values().max() {
                Some(top) if top > max => bad(format!("{top} exceeds its bound {max}")),
                _ => Ok(()),
            },
            Domain::Row(bits) => {
                // Only the last byte of a row has bits past `bits`.
                let pad = match bits % 8 {
                    0 => 0,
                    used => 0xFFu8 << used,
                };
                let last = bytes
                    .chunks_exact(per_ant)
                    .fold(0, |acc, row| acc | row[per_ant - 1]);
                if last & pad != 0 {
                    return bad(format!("a bit set past the row's {bits} bits"));
                }
                Ok(())
            }
        }
    }
}

/// A column element: its little-endian checkpoint form.
pub(crate) trait Cell: Copy {
    /// Appends `xs`, little-endian.
    fn put(xs: &[Self], out: &mut Vec<u8>);
    /// Replaces `into` with the values of the little-endian `bytes`.
    fn get(bytes: &[u8], into: &mut Vec<Self>);
    /// The values of the little-endian `bytes`, widened.
    fn values(bytes: &[u8]) -> impl Iterator<Item = u64> + '_;
}

impl Cell for u8 {
    fn put(xs: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(xs);
    }

    fn get(bytes: &[u8], into: &mut Vec<u8>) {
        into.clear();
        into.extend_from_slice(bytes);
    }

    fn values(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
        bytes.iter().map(|&b| u64::from(b))
    }
}

impl Cell for u16 {
    fn put(xs: &[u16], out: &mut Vec<u8>) {
        // Through a stack block, so the output is written once.
        for chunk in xs.chunks(256) {
            let mut block = [[0u8; 2]; 256];
            for (dst, x) in block.iter_mut().zip(chunk) {
                *dst = x.to_le_bytes();
            }
            out.extend_from_slice(block[..chunk.len()].as_flattened());
        }
    }

    fn get(bytes: &[u8], into: &mut Vec<u16>) {
        into.clear();
        into.extend(
            bytes
                .as_chunks::<2>()
                .0
                .iter()
                .map(|&c| u16::from_le_bytes(c)),
        );
    }

    fn values(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
        bytes
            .as_chunks::<2>()
            .0
            .iter()
            .map(|&c| u64::from(u16::from_le_bytes(c)))
    }
}

/// One column operation of [`soa_bank!`], by the column's width: no
/// width is one entry per ant, `[w]` is the chunk field `w` per ant.
macro_rules! column {
    (resize $b:tt.$col:ident, $n:ident, [] = $fresh:expr) => {
        $b.$col.resize($n, $fresh)
    };
    (resize $b:tt.$col:ident, $n:ident, [$w:ident] = $fresh:expr) => {
        $b.$col.resize($n * $b.$w, $fresh)
    };
    (resize $b:tt.$col:ident, $n:ident, [$w:ident] from $row:ident) => {
        $crate::bit_row::resize_rows(&mut $b.$col, $n, &$b.$row)
    };
    (apply $b:tt.$col:ident, $map:ident, []) => {
        $map.apply(&mut $b.$col)
    };
    (apply $b:tt.$col:ident, $map:ident, [$w:ident]) => {
        $map.apply_rows(&mut $b.$col, $b.$w)
    };
    (at $b:tt, $mid:ident, []) => {
        $mid
    };
    (at $b:tt, $mid:ident, [$w:ident]) => {
        $mid * $b.$w
    };
    // Entries per ant.
    (per_ant $b:tt, []) => {
        1
    };
    (per_ant $b:tt, [$w:ident]) => {
        $b.$w
    };
    // Checkpoint operations.
    (state_len $b:tt.$col:ident: $t:ty, $n:ident, $w:tt) => {
        $n * $crate::columns::column!(per_ant $b, $w) * size_of::<$t>()
    };
    (write $b:tt.$col:ident: $t:ty, $out:ident) => {
        <$t as $crate::columns::Cell>::put(&$b.$col, $out)
    };
    (check $b:tt.$col:ident: $t:ty, $n:ident, $bytes:ident, $w:tt, $dom:ident $(($($arg:tt)*))?) => {{
        let per_ant = $crate::columns::column!(per_ant $b, $w);
        let need = $n * per_ant * size_of::<$t>();
        let Some((col, rest)) = $bytes.split_at_checked(need) else {
            return Err($crate::BankError::BadColumn {
                column: stringify!($col),
                reason: format!("truncated: {} of {need} bytes", $bytes.len()),
            });
        };
        $crate::columns::Domain::$dom $(($($arg)*))?.check::<$t>(stringify!($col), col, per_ant)?;
        $bytes = rest;
    }};
    (read $b:tt.$col:ident: $t:ty, $n:ident, $bytes:ident, $w:tt) => {{
        let need = $n * $crate::columns::column!(per_ant $b, $w) * size_of::<$t>();
        let (col, rest) = $bytes.split_at(need);
        <$t as $crate::columns::Cell>::get(col, &mut $b.$col);
        $bytes = rest;
    }};
}
pub(crate) use column;

/// Declares a bank kind from its column schema (see the module doc).
macro_rules! soa_bank {
    (
        $(#[$bank_meta:meta])*
        pub struct $bank:ident($($arg:ident: $arg_ty:ty),*) {
            $($(#[$own_meta:meta])* $own:ident: $own_ty:ty = $own_init:expr,)*
        }
        $(#[$chunk_meta:meta])*
        pub struct $chunk:ident<$a:lifetime> {
            $(&$borrowed:ident: $borrowed_ty:ty,)*
            $($(#[$shared_meta:meta])* $shared:ident: $shared_ty:ty = $shared_init:expr,)*
        }
        columns {
            $($(#[$col_meta:meta])* $col:ident: [$col_ty:ty $(; $width:ident)?] $fill:tt $fresh:tt
                => $dom:ident $(($($dom_arg:tt)*))?,)*
        }
    ) => {
        $(#[$bank_meta])*
        #[derive(Clone, Debug)]
        pub struct $bank {
            $($(#[$own_meta])* $own: $own_ty,)*
            $($(#[$shared_meta])* $shared: $shared_ty,)*
            /// Number of ants.
            len: usize,
            $($(#[$col_meta])* $col: Vec<$col_ty>,)*
        }

        $(#[$chunk_meta])*
        #[derive(Debug)]
        pub struct $chunk<$a> {
            $($borrowed: &$a $borrowed_ty,)*
            $($(#[$shared_meta])* $shared: $shared_ty,)*
            /// Number of ants.
            len: usize,
            /// The bank borrowed (a kind without columns borrows none).
            bank: core::marker::PhantomData<&$a mut ()>,
            $($(#[$col_meta])* $col: &$a mut [$col_ty],)*
        }

        impl $bank {
            /// A bank of `n` fresh ants.
            pub fn new($($arg: $arg_ty,)* n: usize) -> Self {
                let mut bank = Self {
                    $($own: $own_init,)*
                    $($shared: $shared_init,)*
                    len: 0,
                    $($col: Vec::new(),)*
                };
                bank.resize(n);
                bank
            }

            /// Rebuilds the bank in place to `n` fresh ants, reusing the
            /// column allocations (shrink keeps capacity, grow
            /// reallocates). State after the call is bit-identical to
            /// `new` with the same arguments.
            pub fn reinit(&mut self, $($arg: $arg_ty,)* n: usize) {
                $(self.$own = $own_init;)*
                $(self.$shared = $shared_init;)*
                self.resize(0);
                self.resize(n);
            }

            /// Truncates or extends every column to `n` ants, new ants
            /// fresh.
            fn resize(&mut self, n: usize) {
                self.len = n;
                $($crate::columns::column!(resize self.$col, n, [$($width)?] $fill $fresh);)*
            }

            /// Appends a fresh ant (a spawn).
            pub fn push_fresh(&mut self) {
                self.resize(self.len() + 1);
            }

            /// Number of ants.
            pub fn len(&self) -> usize {
                self.len
            }

            /// True iff the bank holds no ants.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Reorders the ants' slots by `map`, every column alike.
            pub fn apply_slot_map(&mut self, map: &$crate::SlotMap) {
                self.len = map.len();
                $($crate::columns::column!(apply self.$col, map, [$($width)?]);)*
            }

            /// Bytes a checkpoint stores for `n` ants of the bank: every
            /// column.
            // A kind without columns leaves `n` unused.
            #[allow(unused_variables)]
            pub fn state_len(&self, n: usize) -> usize {
                0 $(+ $crate::columns::column!(
                    state_len self.$col: $col_ty, n, [$($width)?]
                ))*
            }

            /// Appends the stored columns, in schema order,
            /// little-endian (a checkpoint capture).
            // A kind without columns leaves `out` unused.
            #[allow(unused_variables, clippy::ptr_arg)]
            pub fn write_state(&self, out: &mut Vec<u8>) {
                $($crate::columns::column!(write self.$col: $col_ty, out);)*
            }

            /// Checks `bytes` as the stored columns of `n` ants: their
            /// length, and every value against its column's domain.
            ///
            /// # Errors
            /// [`crate::BankError::BadColumn`] naming the first column
            /// that fails.
            // A kind without columns leaves some arguments unused.
            #[allow(unused_variables, unused_mut)]
            pub fn check_state(&self, n: usize, mut bytes: &[u8]) -> Result<(), crate::BankError> {
                // The domains are written over the chunk's fields.
                let ($($borrowed,)* $($shared,)*) = ($(&*self.$borrowed,)* $(self.$shared,)*);
                $($crate::columns::column!(
                    check self.$col: $col_ty, n, bytes, [$($width)?], $dom $(($($dom_arg)*))?
                );)*
                match bytes.len() {
                    0 => Ok(()),
                    extra => Err($crate::BankError::BadColumn {
                        column: "(end)",
                        reason: format!("{extra} bytes past the last column"),
                    }),
                }
            }

            /// Overwrites every column with `n` ants from checked
            /// `bytes` ([`Self::check_state`] for `n` ants). The bank's
            /// own and chunk fields stay as they are.
            // A kind without columns leaves some arguments unused.
            #[allow(unused_variables, unused_mut)]
            pub fn read_state(&mut self, n: usize, mut bytes: &[u8]) {
                self.len = n;
                $($crate::columns::column!(
                    read self.$col: $col_ty, n, bytes, [$($width)?]
                );)*
                debug_assert!(bytes.is_empty(), "one state per bank");
            }

            /// Bytes the bank's per-ant columns hold.
            #[cfg(test)]
            pub(crate) fn column_bytes(&self) -> usize {
                0 $(+ size_of_val(&self.$col[..]))*
            }

            /// The whole bank as a splittable mutable slice.
            pub fn as_slice_mut(&mut self) -> $chunk<'_> {
                $chunk {
                    $($borrowed: &self.$borrowed,)*
                    $($shared: self.$shared,)*
                    len: self.len,
                    bank: core::marker::PhantomData,
                    $($col: &mut self.$col,)*
                }
            }
        }

        impl<$a> $chunk<$a> {
            /// Number of ants in the chunk.
            pub(crate) fn len(&self) -> usize {
                self.len
            }

            /// Splits the chunk at `mid` into two disjoint chunks, every
            /// column at its own split point.
            ///
            /// # Panics
            /// If `mid` exceeds the chunk's length.
            pub fn split_at_mut(self, mid: usize) -> (Self, Self) {
                assert!(mid <= self.len, "split at {mid} of a {}-ant chunk", self.len);
                $(let $col = self
                    .$col
                    .split_at_mut($crate::columns::column!(at self, mid, [$($width)?]));)*
                (
                    $chunk {
                        $($borrowed: self.$borrowed,)*
                        $($shared: self.$shared,)*
                        len: mid,
                        bank: core::marker::PhantomData,
                        $($col: $col.0,)*
                    },
                    $chunk {
                        $($borrowed: self.$borrowed,)*
                        $($shared: self.$shared,)*
                        len: self.len - mid,
                        bank: core::marker::PhantomData,
                        $($col: $col.1,)*
                    },
                )
            }
        }
    };
}
pub(crate) use soa_bank;
