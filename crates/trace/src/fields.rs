//! One field table per report type.
//!
//! [`record!`] takes the field list of a report struct — one row per field:
//! the Rust name (which is the wire name), the type, and how the decoder
//! treats the field — and generates the struct with those fields public
//! and its JSON encoder and decoder. The Prometheus export flattens that
//! JSON (`metrics.rs`), so a report field is added to both encodings by
//! adding its row.
//!
//! Decode modes:
//!
//! * `required` — a document without the field (or with one that does not
//!   decode as the row's type) is rejected, naming the field.
//! * `default` — a document without the field reads as the type's
//!   `Default` (fields that postdate the first schema revision, so older
//!   reports stay readable); a field that is present must decode.
//! * `optional` — an `Option<T>` that is left out of the document when
//!   `None`, and reads as `None` when absent.
//!
//! The `Counters` table carries two more columns: the rule `merge` folds
//! the field by (`sum`, or `max` for high-water marks) and, after `<-`, the
//! [`Phase`](crate::Phase) whose timed spans feed it.
//!
//! What a table cannot say stays hand-written next to the struct and is
//! declared after `+` so the struct still has one definition: derived
//! values that are written but never read back (`factor_gflops`, the
//! scalability ratios), sections that are left out when empty, a wire name
//! that differs from the field's (`comm_matrix`), and the sparse triplet
//! encoding of the communication matrix.

use crate::json::Json;

/// The JSON form of one field type.
pub(crate) trait Wire: Sized {
    fn to_json(&self) -> Json;
    fn from_json(j: &Json) -> Option<Self>;
}

impl Wire for f64 {
    fn to_json(&self) -> Json {
        Json::num_f64(*self)
    }
    fn from_json(j: &Json) -> Option<f64> {
        j.as_f64()
    }
}

impl Wire for u64 {
    fn to_json(&self) -> Json {
        Json::num_u64(*self)
    }
    fn from_json(j: &Json) -> Option<u64> {
        j.as_u64()
    }
}

impl Wire for usize {
    fn to_json(&self) -> Json {
        Json::num_usize(*self)
    }
    fn from_json(j: &Json) -> Option<usize> {
        j.as_usize()
    }
}

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
    fn from_json(j: &Json) -> Option<String> {
        j.as_str().map(str::to_string)
    }
}

/// A field that is always written: `None` is `null`. (The `optional` decode
/// mode is the other encoding of an `Option`: absent when `None`.)
impl Wire for Option<usize> {
    fn to_json(&self) -> Json {
        self.map_or(Json::Null, Json::num_usize)
    }
    fn from_json(j: &Json) -> Option<Option<usize>> {
        match j {
            Json::Null => Some(None),
            other => other.as_usize().map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_json).collect())
    }
    fn from_json(j: &Json) -> Option<Vec<T>> {
        j.as_arr()?.iter().map(T::from_json).collect()
    }
}

/// An enum with a stable wire name per variant (`Variant = "name"` rows):
/// generates the enum, `name` and its inverse `from_name`.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $v:ident = $wire:literal, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $v, )*
        }

        impl $name {
            /// Stable wire name (used in JSON reports).
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$v => $wire, )*
                }
            }

            /// Inverse of `name`.
            pub fn from_name(name: &str) -> Option<$name> {
                match name {
                    $( $wire => Some($name::$v), )*
                    _ => None,
                }
            }
        }
    };
}
pub(crate) use wire_enum;

macro_rules! record {
    // A record whose every field is tabled: the table is its whole encoding.
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $f:ident : $t:ty = $mode:ident; )*
        }
    ) => {
        record! {
            $(#[$meta])*
            pub struct $name { $( $(#[$fmeta])* $f : $t = $mode; )* } + {}
        }

        impl $crate::fields::Wire for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(self.fields_to_json())
            }
            fn from_json(j: &$crate::json::Json) -> Option<Self> {
                Self::fields_from_json(j).ok()
            }
        }
    };

    // A record with hand-encoded fields after the tabled ones: it writes
    // its own encoding around `fields_to_json` / `fields_from_json`.
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $f:ident : $t:ty = $mode:ident; )*
        } + {
            $( $(#[$xmeta:meta])* $x:ident : $xt:ty; )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $f: $t, )*
            $( $(#[$xmeta])* pub $x: $xt, )*
        }

        impl $name {
            /// `(wire name, value)` of each tabled field, in table order.
            pub(crate) fn fields_to_json(&self) -> Vec<(String, $crate::json::Json)> {
                [$( record!(@put $mode, self.$f).map(|v| (stringify!($f).to_string(), v)) ),*]
                    .into_iter()
                    .flatten()
                    .collect()
            }

            /// Decode the tabled fields (hand-encoded ones are left at
            /// their defaults); `Err` names the field that failed.
            pub(crate) fn fields_from_json(j: &$crate::json::Json) -> Result<Self, &'static str> {
                Ok($name {
                    $( $f: record!(@get $mode, j, stringify!($f)), )*
                    $( $x: Default::default(), )*
                })
            }
        }
    };

    // The counter set: each row also says how `merge` folds the field and
    // which phase's timed spans feed it.
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $f:ident : $t:ty = $mode:ident, $rule:ident $(<- $phase:ident)?; )*
        }
    ) => {
        record! {
            $(#[$meta])*
            pub struct $name { $( $(#[$fmeta])* $f : $t = $mode; )* }
        }

        impl $name {
            /// Element-wise accumulate (high-water marks take the max).
            pub fn merge(&mut self, other: &$name) {
                $( record!(@merge $rule, self.$f, other.$f); )*
            }

            /// Add `dur_s` to the field `phase` feeds. Phases without a
            /// field (communication time is accounted by the simulator's
            /// per-rank statistics, the solve's time by the report's
            /// `solve.seconds`, fault markers are instants) are span events
            /// only.
            pub(crate) fn add_phase(&mut self, phase: $crate::collector::Phase, dur_s: f64) {
                match phase {
                    $($( $crate::collector::Phase::$phase => self.$f += dur_s, )?)*
                    _ => {}
                }
            }
        }
    };

    (@put optional, $v:expr) => {
        $v.as_ref().map($crate::fields::Wire::to_json)
    };
    (@put $mode:ident, $v:expr) => {
        Some($crate::fields::Wire::to_json(&$v))
    };

    (@get required, $j:ident, $name:expr) => {
        $j.get($name).and_then($crate::fields::Wire::from_json).ok_or($name)?
    };
    (@get default, $j:ident, $name:expr) => {
        match $j.get($name) {
            Some(v) => $crate::fields::Wire::from_json(v).ok_or($name)?,
            None => Default::default(),
        }
    };
    (@get optional, $j:ident, $name:expr) => {
        match $j.get($name) {
            Some(v) => Some($crate::fields::Wire::from_json(v).ok_or($name)?),
            None => None,
        }
    };

    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
}
pub(crate) use record;
