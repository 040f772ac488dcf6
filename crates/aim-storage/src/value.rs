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
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
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

/// Returns the exclusive upper bound for scanning all keys that start with
/// `prefix`: the prefix with the `MaxKey` sentinel appended.
pub fn prefix_upper_bound(prefix: &[Value]) -> Key {
    let mut k = prefix.to_vec();
    k.push(Value::MaxKey);
    k
}

/// Builds B+-tree key-range bounds for "all keys starting with `prefix`,
/// with the column right after the prefix constrained to `next_col_range`".
///
/// The `MaxKey` sentinel encodes exclusive/inclusive bounds over composite
/// keys whose stored entries are longer than the constrained prefix.
pub fn prefix_range_bounds(
    prefix: &[Value],
    next_col_range: (std::ops::Bound<&Value>, std::ops::Bound<&Value>),
) -> (std::ops::Bound<Key>, std::ops::Bound<Key>) {
    use std::ops::Bound;
    let lower: Bound<Key> = match next_col_range.0 {
        Bound::Included(v) => {
            let mut k = prefix.to_vec();
            k.push(v.clone());
            Bound::Included(k)
        }
        Bound::Excluded(v) => {
            let mut k = prefix.to_vec();
            k.push(v.clone());
            k.push(Value::MaxKey);
            Bound::Excluded(k)
        }
        Bound::Unbounded => {
            if prefix.is_empty() {
                Bound::Unbounded
            } else {
                Bound::Included(prefix.to_vec())
            }
        }
    };
    let upper: Bound<Key> = match next_col_range.1 {
        Bound::Included(v) => {
            let mut k = prefix.to_vec();
            k.push(v.clone());
            k.push(Value::MaxKey);
            Bound::Excluded(k)
        }
        Bound::Excluded(v) => {
            let mut k = prefix.to_vec();
            k.push(v.clone());
            Bound::Excluded(k)
        }
        Bound::Unbounded => {
            if prefix.is_empty() {
                Bound::Unbounded
            } else {
                Bound::Excluded(prefix_upper_bound(prefix))
            }
        }
    };
    (lower, upper)
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
        let hi = prefix_upper_bound(&prefix);
        let within = vec![Value::Int(5), Value::Str("anything".into())];
        let beyond = vec![Value::Int(6)];
        assert!(within < hi);
        assert!(hi < beyond);
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
