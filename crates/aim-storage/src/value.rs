//! Typed values and their total order.
//!
//! Values are the cell type of every row, clustered-key and secondary-index
//! entry in the engine. A *total* order across all variants is required so
//! heterogeneous key tuples can live in ordered maps: `Null` sorts lowest
//! (matching MySQL's index ordering of NULLs), numbers compare numerically
//! across `Int`/`Float`, and the internal `MaxKey` sentinel sorts above
//! everything so half-open prefix ranges can be expressed as map bounds.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Bound;

/// A single SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    /// Internal sentinel that compares greater than every other value.
    /// Used only to build exclusive upper bounds for index prefix scans;
    /// never stored in a table.
    MaxKey,
}

impl Value {
    /// Estimated on-disk footprint in bytes, used for index/table size
    /// accounting (Table II reports index sizes).
    pub fn storage_size(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 2 + s.len() as u64,
            Value::MaxKey => 0,
        }
    }

    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used for arithmetic and cross-type comparison.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// True when `other` is this very value: the same variant, and equal.
    /// `==` is the order's equality, under which `Int(1)` equals
    /// `Float(1.0)`; statistics, and the marks that say which of them a
    /// write made stale, tell the two apart.
    pub fn identical(&self, other: &Value) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other) && self == other
    }

    /// Rank used to order values of different variants.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            // Int and Float share a rank: they compare numerically.
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::MaxKey => u8::MAX,
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (MaxKey, MaxKey) => Ordering::Equal,
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::MaxKey => u8::MAX.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::MaxKey => write!(f, "<max>"),
        }
    }
}

/// A key tuple: the ordered sequence of values forming a clustered or
/// secondary index key. Ordering is lexicographic over the constituent
/// values, which is exactly B+-tree composite key order.
pub type Key = Vec<Value>;

/// A full table row, ordered per the table schema.
pub type Row = Vec<Value>;

/// A range of composite keys, its bounds borrowed: what the range scans of
/// [`crate::Table`], [`crate::SecondaryIndex`] and the backends take.
pub type KeyRange<'k> = (Bound<&'k [Value]>, Bound<&'k [Value]>);

/// Sorts above every stored key column; see [`Value::MaxKey`].
static MAX_KEY: Value = Value::MaxKey;

/// Storage for the keys of prefix ranges, reused from one range to the
/// next ([`RangeKeys::prefix_range`]).
#[derive(Debug, Default)]
pub struct RangeKeys {
    lower: Key,
    upper: Key,
}

impl RangeKeys {
    /// B+-tree key-range bounds for "all keys starting with `prefix`, with
    /// the column right after the prefix constrained to `next_col_range`".
    ///
    /// The `MaxKey` sentinel encodes exclusive/inclusive bounds over
    /// composite keys whose stored entries are longer than the constrained
    /// prefix. A bound that is the prefix itself borrows it; one that
    /// extends it is built in this storage, which keeps its capacity, so
    /// over keys of integers a range allocates nothing once the storage
    /// has grown to its widest key.
    ///
    /// An empty interval (bounds that cross, as `BETWEEN 10 AND 5` gives,
    /// or meet where one excludes the value) is the empty range
    /// `[lower, lower)`: a scan descends to where it would start and reads
    /// nothing, as a probe between two stored keys does.
    pub fn prefix_range<'k>(
        &'k mut self,
        prefix: &'k [Value],
        next_col_range: (Bound<&Value>, Bound<&Value>),
    ) -> KeyRange<'k> {
        let Self { lower, upper } = self;
        let lower = match next_col_range.0 {
            Bound::Included(v) => Bound::Included(extended(lower, prefix, &[v])),
            Bound::Excluded(v) => Bound::Excluded(extended(lower, prefix, &[v, &MAX_KEY])),
            Bound::Unbounded if prefix.is_empty() => Bound::Unbounded,
            Bound::Unbounded => Bound::Included(prefix),
        };
        let upper = match next_col_range.1 {
            Bound::Included(v) => Bound::Excluded(extended(upper, prefix, &[v, &MAX_KEY])),
            Bound::Excluded(v) => Bound::Excluded(extended(upper, prefix, &[v])),
            Bound::Unbounded if prefix.is_empty() => Bound::Unbounded,
            Bound::Unbounded => Bound::Excluded(extended(upper, prefix, &[&MAX_KEY])),
        };
        // Every upper bound is exclusive (or unbounded), so the range is
        // empty exactly when its lower key reaches the upper one.
        match (lower, upper) {
            (Bound::Included(l) | Bound::Excluded(l), Bound::Excluded(u)) if l >= u => {
                (Bound::Included(l), Bound::Excluded(l))
            }
            range => range,
        }
    }
}

/// `prefix ++ tail`, written over `key`.
fn extended<'k>(key: &'k mut Key, prefix: &[Value], tail: &[&Value]) -> &'k [Value] {
    key.clear();
    key.extend_from_slice(prefix);
    key.extend(tail.iter().map(|v| (*v).clone()));
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn max_key_sorts_last() {
        assert!(Value::MaxKey > Value::Str("zzzz".into()));
        assert!(Value::MaxKey > Value::Int(i64::MAX));
        assert!(Value::MaxKey > Value::Null);
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn equal_int_float_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    /// Values that compare equal hash equal: what a hash join may bucket
    /// by. A seeded sweep over the edges of the numeric order (±0, 2^53 ±
    /// 1, `i64::MIN` / `MAX`, NaN payloads), random neighbours of them,
    /// Bool and strings, every pair tested.
    #[test]
    fn equal_values_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        let p53 = 1i64 << 53;
        let mut ints = vec![0, 1, -1, p53 - 1, p53, p53 + 1, -p53 - 1, -p53, -p53 + 1];
        ints.extend([i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]);
        let mut floats = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        floats.extend([f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)]);
        // xorshift64: seeded, so a failure replays.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            let base = ints[next() as usize % ints.len()];
            ints.push(base.wrapping_add((next() % 5) as i64 - 2));
            let f = base as f64;
            // The float itself and its neighbours in the bit order.
            let bits = f.to_bits();
            floats.extend([
                f,
                f64::from_bits(bits.wrapping_add(1)),
                f64::from_bits(bits.wrapping_sub(1)),
            ]);
            floats.push(f64::from_bits(0x7ff8_0000_0000_0000 | (next() >> 13)));
        }
        let mut values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
        values.extend(floats.into_iter().map(Value::Float));
        values.extend([Value::Null, Value::Bool(false), Value::Bool(true)]);
        for s in ["", "a", "A", "a\0", "5", "ab"] {
            values.push(Value::Str(s.into()));
        }
        let mut cross = 0;
        for a in &values {
            for b in &values {
                if a.cmp(b) == Ordering::Equal {
                    assert_eq!(h(a), h(b), "{a:?} == {b:?} but their hashes differ");
                    cross += usize::from(std::mem::discriminant(a) != std::mem::discriminant(b));
                }
            }
        }
        assert!(cross > 0, "the sweep never met an Int equal to a Float");
    }

    #[test]
    fn key_tuples_order_lexicographically() {
        let a = vec![Value::Int(1), Value::Str("b".into())];
        let b = vec![Value::Int(1), Value::Str("c".into())];
        let c = vec![Value::Int(2), Value::Str("a".into())];
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    fn prefix_upper_bound_covers_all_extensions() {
        let prefix = vec![Value::Int(5)];
        let mut keys = RangeKeys::default();
        let (lower, upper) = keys.prefix_range(&prefix, (Bound::Unbounded, Bound::Unbounded));
        assert_eq!(lower, Bound::Included(&prefix[..]));
        let Bound::Excluded(hi) = upper else {
            panic!("{upper:?}")
        };
        let within = [Value::Int(5), Value::Str("anything".into())];
        let beyond = [Value::Int(6)];
        assert!(within[..] < *hi);
        assert!(*hi < beyond[..]);
    }

    #[test]
    fn an_empty_interval_is_an_empty_range() {
        use std::collections::BTreeSet;
        let set: BTreeSet<Key> = (0..20)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i)])
            .collect();
        let (five, ten) = (Value::Int(5), Value::Int(10));
        let count = |prefix: &[Value], range: (Bound<&Value>, Bound<&Value>)| {
            let mut keys = RangeKeys::default();
            set.range::<[Value], _>(keys.prefix_range(prefix, range))
                .count()
        };
        for prefix in [&[][..], &[Value::Int(1)]] {
            // Bounds that cross, and bounds that meet with one excluded.
            assert_eq!(
                count(prefix, (Bound::Included(&ten), Bound::Included(&five))),
                0
            );
            assert_eq!(
                count(prefix, (Bound::Excluded(&ten), Bound::Excluded(&five))),
                0
            );
            assert_eq!(
                count(prefix, (Bound::Excluded(&five), Bound::Excluded(&five))),
                0
            );
            assert_eq!(
                count(prefix, (Bound::Included(&five), Bound::Excluded(&five))),
                0
            );
            assert_eq!(
                count(prefix, (Bound::Excluded(&five), Bound::Included(&five))),
                0
            );
        }
        // Bounds that meet, both included, keep the value.
        let one = [Value::Int(1)];
        assert_eq!(
            count(&one, (Bound::Included(&five), Bound::Included(&five))),
            1
        );
        assert_eq!(
            count(&[], (Bound::Included(&five), Bound::Included(&five))),
            0
        );
        assert_eq!(
            count(
                &[],
                (
                    Bound::Included(&Value::Int(1)),
                    Bound::Included(&Value::Int(1))
                )
            ),
            5
        );
    }

    #[test]
    fn storage_sizes() {
        assert_eq!(Value::Int(0).storage_size(), 8);
        assert_eq!(Value::Str("abc".into()).storage_size(), 5);
        assert_eq!(Value::Null.storage_size(), 1);
    }

    #[test]
    fn nan_is_ordered_totally() {
        let nan = Value::Float(f64::NAN);
        // total_cmp puts NaN above all finite floats.
        assert!(nan > Value::Float(f64::MAX));
        assert_eq!(nan.cmp(&Value::Float(f64::NAN)), Ordering::Equal);
    }
}
