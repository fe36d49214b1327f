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
//!   bank field holding a whole fresh row. The first column has one
//!   entry per ant: the bank's length is its length.
//!
//! From that list [`soa_bank!`] derives the bank and chunk structs, the
//! bank's `new`/`reinit`, `len`/`is_empty`, `push_fresh`,
//! `apply_slot_map`, `as_slice_mut` and (in tests) `column_bytes`, and
//! the chunk's `len` and `split_at_mut`. The kind writes the rest: its
//! per-ant conversions and its kernel, which indexes the chunk's
//! columns directly.

/// The task count a bank is built for, checked.
///
/// # Panics
/// If `num_tasks` is 0.
pub(crate) fn tasks(num_tasks: usize) -> usize {
    assert!(num_tasks >= 1, "at least one task");
    num_tasks
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
    // The number of ants: the length of the first column.
    (len $b:tt, $first:ident $($rest:ident)*) => {
        $b.$first.len()
    };
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
            $($(#[$col_meta:meta])* $col:ident: [$col_ty:ty $(; $width:ident)?] $fill:tt $fresh:tt,)+
        }
    ) => {
        $(#[$bank_meta])*
        #[derive(Clone, Debug)]
        pub struct $bank {
            $($(#[$own_meta])* $own: $own_ty,)*
            $($(#[$shared_meta])* $shared: $shared_ty,)*
            $($(#[$col_meta])* $col: Vec<$col_ty>,)+
        }

        $(#[$chunk_meta])*
        #[derive(Debug)]
        pub struct $chunk<$a> {
            $($borrowed: &$a $borrowed_ty,)*
            $($(#[$shared_meta])* $shared: $shared_ty,)*
            $($(#[$col_meta])* $col: &$a mut [$col_ty],)+
        }

        impl $bank {
            /// A bank of `n` fresh ants.
            pub fn new($($arg: $arg_ty,)* n: usize) -> Self {
                let mut bank = Self {
                    $($own: $own_init,)*
                    $($shared: $shared_init,)*
                    $($col: Vec::new(),)+
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
                $($crate::columns::column!(resize self.$col, n, [$($width)?] $fill $fresh);)+
            }

            /// Appends a fresh ant (a spawn).
            pub fn push_fresh(&mut self) {
                self.resize(self.len() + 1);
            }

            /// Number of ants.
            pub fn len(&self) -> usize {
                $crate::columns::column!(len self, $($col)+)
            }

            /// True iff the bank holds no ants.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Reorders the ants' slots by `map`, every column alike.
            pub fn apply_slot_map(&mut self, map: &$crate::SlotMap) {
                $($crate::columns::column!(apply self.$col, map, [$($width)?]);)+
            }

            /// Bytes the bank's per-ant columns hold.
            #[cfg(test)]
            pub(crate) fn column_bytes(&self) -> usize {
                [$(size_of_val(&self.$col[..])),+].iter().sum()
            }

            /// The whole bank as a splittable mutable slice.
            pub fn as_slice_mut(&mut self) -> $chunk<'_> {
                $chunk {
                    $($borrowed: &self.$borrowed,)*
                    $($shared: self.$shared,)*
                    $($col: &mut self.$col,)+
                }
            }
        }

        impl<$a> $chunk<$a> {
            /// Number of ants in the chunk.
            pub(crate) fn len(&self) -> usize {
                $crate::columns::column!(len self, $($col)+)
            }

            /// Splits the chunk at `mid` into two disjoint chunks, every
            /// column at its own split point.
            pub fn split_at_mut(self, mid: usize) -> (Self, Self) {
                $(let $col = self
                    .$col
                    .split_at_mut($crate::columns::column!(at self, mid, [$($width)?]));)+
                (
                    $chunk {
                        $($borrowed: self.$borrowed,)*
                        $($shared: self.$shared,)*
                        $($col: $col.0,)+
                    },
                    $chunk {
                        $($borrowed: self.$borrowed,)*
                        $($shared: self.$shared,)*
                        $($col: $col.1,)+
                    },
                )
            }
        }
    };
}
pub(crate) use soa_bank;
