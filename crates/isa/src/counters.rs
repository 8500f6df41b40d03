//! Counter records declared once.
//!
//! A counter record is a statistics struct: scalar counters (`u64` or
//! `u32`) and, optionally, `Vec` series such as a per-level breakdown.
//! [`counters!`](crate::counters!) takes the struct's declaration and
//! emits the struct unchanged plus every codec over its fields, so the
//! field list exists in exactly one place:
//!
//! - [`Snap`](crate::snap::Snap) — the snapshot save and load of every
//!   field, series included, in declaration order;
//! - [`Counters`] — the scalar counters' names, a visit and a read by
//!   name (the journal's JSON codec), and a checked subtract and an add
//!   (interval stitching).
//!
//! Series are left out of [`Counters`]: each has its own shape rules,
//! so the code that subtracts, adds or journals them handles them by
//! hand. Because the codecs are generated from the declaration itself,
//! a codec cannot leave a field out or swap two, and a field of any
//! other type does not build:
//!
//! ```compile_fail
//! mlpwin_isa::counters! {
//!     pub struct Ratios {
//!         pub hit_ratio: f64,
//!     }
//! }
//! ```

/// The scalar-counter operations [`counters!`](crate::counters!)
/// generates, each over the counters in declaration order.
pub trait Counters {
    /// Every scalar counter's field name, in declaration order.
    const COUNTERS: &'static [&'static str];

    /// Calls `f` with each scalar counter's name and value.
    fn for_each_counter(&self, f: impl FnMut(&'static str, u64));

    /// Sets each scalar counter to `get(name)`. `None` when `get` has
    /// no value for a counter or the value does not fit its type; the
    /// counters before it are already set then.
    fn read_counters(&mut self, get: impl FnMut(&'static str) -> Option<u64>) -> Option<()>;

    /// Subtracts `start` counter by counter. On a counter that would
    /// wrap, returns its name and leaves `self` part-way updated.
    fn sub_counters(&mut self, start: &Self) -> Result<(), &'static str>;

    /// Adds `other` counter by counter.
    fn add_counters(&mut self, other: &Self);
}

/// Declares a counter record: the struct as written, plus its
/// [`Snap`](crate::snap::Snap) and [`Counters`] implementations (see
/// the [module docs](mod@crate::counters)).
///
/// Every field is `pub`, ends with a comma, and is either a scalar
/// counter (`u64`, `u32`) or a series (`Vec<T>` with `T: Snap`).
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $($fields:tt)* }
    ) => {
        $crate::counters!(@field $name [$(#[$meta])* $vis struct $name] [] [] [] $($fields)*);
    };
    // A series: saved in its place, left out of the scalar operations.
    (@field $name:ident $head:tt [$($decl:tt)*] [$($all:ident)*] [$($scalar:ident)*]
        $(#[$attr:meta])* pub $field:ident: Vec<$elem:ty>, $($rest:tt)*
    ) => {
        $crate::counters!(@field $name $head
            [$($decl)* $(#[$attr])* pub $field: Vec<$elem>,]
            [$($all)* $field] [$($scalar)*] $($rest)*);
    };
    // A scalar counter.
    (@field $name:ident $head:tt [$($decl:tt)*] [$($all:ident)*] [$($scalar:ident)*]
        $(#[$attr:meta])* pub $field:ident: $ty:ident, $($rest:tt)*
    ) => {
        $crate::counters!(@field $name $head
            [$($decl)* $(#[$attr])* pub $field: $ty,]
            [$($all)* $field] [$($scalar)* $field] $($rest)*);
    };
    (@field $name:ident [$($head:tt)*] [$($decl:tt)*] [$($all:ident)*] [$($scalar:ident)*]) => {
        $($head)* { $($decl)* }

        impl $crate::snap::Snap for $name {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::save(&self.$all, w);)*
            }

            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<$name, $crate::snap::SnapError> {
                ::core::result::Result::Ok($name {
                    $($all: $crate::snap::Snap::load(r)?,)*
                })
            }
        }

        impl $crate::counters::Counters for $name {
            const COUNTERS: &'static [&'static str] = &[$(stringify!($scalar)),*];

            fn for_each_counter(&self, mut f: impl FnMut(&'static str, u64)) {
                $(f(stringify!($scalar), u64::from(self.$scalar));)*
            }

            fn read_counters(
                &mut self,
                mut get: impl FnMut(&'static str) -> ::core::option::Option<u64>,
            ) -> ::core::option::Option<()> {
                $(self.$scalar = ::core::convert::TryFrom::try_from(get(stringify!($scalar))?).ok()?;)*
                ::core::option::Option::Some(())
            }

            fn sub_counters(&mut self, start: &$name) -> ::core::result::Result<(), &'static str> {
                $(self.$scalar = self.$scalar.checked_sub(start.$scalar).ok_or(stringify!($scalar))?;)*
                ::core::result::Result::Ok(())
            }

            fn add_counters(&mut self, other: &$name) {
                $(self.$scalar += other.$scalar;)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::Counters;
    use crate::snap::{Snap, SnapReader, SnapWriter};

    crate::counters! {
        /// Hits and misses of one table.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct TableStats {
            /// Lookups that hit.
            pub hits: u64,
            /// Lookups that missed.
            pub misses: u32,
            /// Cycle of each miss.
            pub miss_cycles: Vec<u64>,
        }
    }

    fn end() -> TableStats {
        TableStats {
            hits: 7,
            misses: 3,
            miss_cycles: vec![4, 9, 12],
        }
    }

    #[test]
    fn snapshot_codec_covers_every_field_in_order() {
        let mut w = SnapWriter::new();
        end().save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 4 + 8 + 3 * 8);
        assert_eq!(bytes[..8], 7u64.to_le_bytes());
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        let mut r = SnapReader::new(&bytes);
        assert_eq!(TableStats::load(&mut r).unwrap(), end());
        assert!(r.finish().is_ok());
    }

    #[test]
    fn scalar_operations_skip_the_series() {
        assert_eq!(TableStats::COUNTERS, ["hits", "misses"]);
        let mut seen = Vec::new();
        end().for_each_counter(|name, v| seen.push((name, v)));
        assert_eq!(seen, [("hits", 7), ("misses", 3)]);

        let start = TableStats {
            hits: 2,
            misses: 1,
            ..TableStats::default()
        };
        let mut delta = end();
        delta.sub_counters(&start).unwrap();
        assert_eq!((delta.hits, delta.misses), (5, 2));
        assert_eq!(delta.miss_cycles, end().miss_cycles, "series untouched");
        delta.add_counters(&start);
        assert_eq!(delta, end());
        assert_eq!(start.clone().sub_counters(&end()), Err("hits"));
    }

    #[test]
    fn read_counters_rejects_missing_and_oversized_values() {
        let mut stats = TableStats::default();
        assert_eq!(
            stats.read_counters(|name| (name == "hits").then_some(1)),
            None
        );
        assert_eq!(stats.read_counters(|_| Some(u64::from(u32::MAX) + 1)), None);
        assert_eq!(stats.read_counters(|_| Some(9)), Some(()));
        assert_eq!((stats.hits, stats.misses), (9, 9));
    }
}
