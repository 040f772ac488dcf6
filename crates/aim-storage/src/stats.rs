//! Table and column statistics.
//!
//! Statistics power two things:
//!
//! 1. the cost model's selectivity estimates (equality via NDV + histogram,
//!    ranges via equi-depth histogram interpolation), and
//! 2. *dataless indexes* (§III-A4): a hypothetical index carries statistics
//!    computed from the base table without materializing entries, exactly
//!    the role HypoPG / "what-if" indexes play for the paper.

use crate::table::Table;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Number of equi-depth histogram buckets built per column.
pub const DEFAULT_BUCKETS: usize = 32;

/// One equi-depth histogram bucket: values in `(previous upper, upper]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Inclusive upper bound of the bucket.
    pub upper: Value,
    /// Number of values in the bucket.
    pub count: u64,
    /// Number of distinct values in the bucket.
    pub distinct: u64,
}

/// Equi-depth histogram over the non-null values of one column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<Bucket>,
    /// Inclusive lower bound of the first bucket.
    pub lower: Option<Value>,
}

impl Histogram {
    /// Builds an equi-depth histogram from a *sorted* slice of non-null
    /// values.
    pub fn build(sorted: &[Value], bucket_count: usize) -> Self {
        if sorted.is_empty() {
            return Self::default();
        }
        let bucket_count = bucket_count.max(1).min(sorted.len());
        let per_bucket = sorted.len().div_ceil(bucket_count);
        let mut buckets = Vec::with_capacity(bucket_count);
        let mut start = 0;
        while start < sorted.len() {
            let mut end = (start + per_bucket).min(sorted.len());
            // Extend the bucket so equal values never straddle a boundary;
            // otherwise equality estimates would split a heavy value.
            while end < sorted.len() && sorted[end] == sorted[end - 1] {
                end += 1;
            }
            let slice = &sorted[start..end];
            let mut distinct = 1u64;
            for w in slice.windows(2) {
                if w[0] != w[1] {
                    distinct += 1;
                }
            }
            buckets.push(Bucket {
                upper: slice[slice.len() - 1].clone(),
                count: slice.len() as u64,
                distinct,
            });
            start = end;
        }
        Self {
            buckets,
            lower: Some(sorted[0].clone()),
        }
    }

    /// Total number of values covered by the histogram.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Estimated number of values equal to `v`.
    pub fn estimate_eq(&self, v: &Value) -> f64 {
        let Some(lower) = &self.lower else { return 0.0 };
        if v < lower {
            return 0.0;
        }
        let mut prev_upper = lower.clone();
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = if i == 0 {
                *v >= prev_upper && *v <= b.upper
            } else {
                *v > prev_upper && *v <= b.upper
            };
            if in_bucket {
                return b.count as f64 / b.distinct.max(1) as f64;
            }
            prev_upper = b.upper.clone();
        }
        0.0
    }

    /// Estimated number of values in the given range.
    pub fn estimate_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> f64 {
        let Some(lower) = &self.lower else { return 0.0 };
        let mut est = 0.0;
        let mut prev_upper: Value = lower.clone();
        for (i, b) in self.buckets.iter().enumerate() {
            let b_lo = if i == 0 { lower } else { &prev_upper };
            // Fraction of this bucket below the range's lower bound.
            let cut_low = match lo {
                Bound::Unbounded => 0.0,
                Bound::Included(v) | Bound::Excluded(v) => fraction_below(b_lo, &b.upper, v),
            };
            let cut_high = match hi {
                Bound::Unbounded => 0.0,
                Bound::Included(v) | Bound::Excluded(v) => {
                    1.0 - fraction_below(b_lo, &b.upper, v)
                }
            };
            let keep = (1.0 - cut_low - cut_high).max(0.0);
            est += keep * b.count as f64;
            prev_upper = b.upper.clone();
        }
        est
    }
}

/// Fraction of the interval `[lo, hi]` that lies strictly below `v`,
/// interpolating linearly for numerics and falling back to 0 / 0.5 / 1 for
/// non-numeric types.
fn fraction_below(lo: &Value, hi: &Value, v: &Value) -> f64 {
    if v <= lo {
        return 0.0;
    }
    if v > hi {
        return 1.0;
    }
    match (lo.as_f64(), hi.as_f64(), v.as_f64()) {
        (Some(l), Some(h), Some(x)) if h > l => ((x - l) / (h - l)).clamp(0.0, 1.0),
        _ => 0.5,
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    pub row_count: u64,
    pub null_count: u64,
    /// Number of distinct non-null values.
    pub ndv: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub histogram: Histogram,
    /// Average storage width of values in this column, in bytes.
    pub avg_width: f64,
}

impl ColumnStats {
    /// Selectivity of `column = v` (fraction of table rows).
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        if v.is_null() {
            return self.null_count as f64 / self.row_count as f64;
        }
        let est = self.histogram.estimate_eq(v);
        if est > 0.0 {
            (est / self.row_count as f64).clamp(0.0, 1.0)
        } else if self.ndv > 0 {
            // Value outside histogram (stale stats or parameter marker):
            // fall back to the uniform 1/NDV estimate.
            (1.0 / self.ndv as f64).min(1.0)
        } else {
            0.0
        }
    }

    /// Selectivity of an equality with an *unknown* parameter (`col = ?`):
    /// the classic 1/NDV estimate.
    pub fn eq_selectivity_unknown(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            (1.0 / self.ndv as f64).min(1.0)
        }
    }

    /// Selectivity of a range predicate on this column.
    pub fn range_selectivity(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> f64 {
        if self.row_count == 0 {
            return 0.0;
        }
        let est = self.histogram.estimate_range(lo, hi);
        (est / self.row_count as f64).clamp(0.0, 1.0)
    }

    /// Selectivity of a range with unknown bounds (`col > ?`): the
    /// traditional fixed guess.
    pub fn range_selectivity_unknown(&self) -> f64 {
        1.0 / 3.0
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    pub row_count: u64,
    pub columns: BTreeMap<String, ColumnStats>,
}

impl TableStats {
    /// Column stats lookup.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }
}

/// Computes fresh statistics for every column of `table` (ANALYZE).
pub fn analyze(table: &Table, bucket_count: usize) -> TableStats {
    let schema = table.schema();
    let row_count = table.row_count() as u64;
    let mut columns = BTreeMap::new();

    for (pos, col) in schema.columns.iter().enumerate() {
        let mut values: Vec<Value> = Vec::with_capacity(table.row_count());
        let mut null_count = 0u64;
        let mut width_sum = 0u64;
        let mut io = crate::io::IoStats::new();
        for row in table.scan_all(&mut io) {
            let v = &row[pos];
            width_sum += v.storage_size();
            if v.is_null() {
                null_count += 1;
            } else {
                values.push(v.clone());
            }
        }
        values.sort();
        let mut ndv = 0u64;
        if !values.is_empty() {
            ndv = 1;
            for w in values.windows(2) {
                if w[0] != w[1] {
                    ndv += 1;
                }
            }
        }
        let stats = ColumnStats {
            row_count,
            null_count,
            ndv,
            min: values.first().cloned(),
            max: values.last().cloned(),
            histogram: Histogram::build(&values, bucket_count),
            avg_width: if row_count > 0 {
                width_sum as f64 / row_count as f64
            } else {
                col.avg_width as f64
            },
        };
        columns.insert(col.name.clone(), stats);
    }

    TableStats { row_count, columns }
}

/// Stable hash of a value for deterministic sampling (independent of the
/// process-seeded `DefaultHasher`).
pub fn value_sample_hash(v: &Value) -> u64 {
    use crate::value::Value as V;
    match v {
        V::Null => 0,
        V::Bool(b) => 1 + u64::from(*b),
        V::Int(i) => (*i as f64).to_bits() ^ 0x5bd1_e995,
        V::Float(f) => f.to_bits() ^ 0x5bd1_e995,
        V::Str(s) => crate::stats::fnv_str(s),
        V::MaxKey => u64::MAX,
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoStats;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn table_with(values: &[i64]) -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        let mut io = IoStats::new();
        for (i, v) in values.iter().enumerate() {
            t.insert(vec![Value::Int(i as i64), Value::Int(*v)], &mut io)
                .unwrap();
        }
        t
    }

    #[test]
    fn analyze_computes_ndv_min_max() {
        let t = table_with(&[5, 3, 3, 7, 5]);
        let stats = analyze(&t, 4);
        let c = stats.column("v").unwrap();
        assert_eq!(c.ndv, 3);
        assert_eq!(c.min, Some(Value::Int(3)));
        assert_eq!(c.max, Some(Value::Int(7)));
        assert_eq!(c.row_count, 5);
        assert_eq!(c.null_count, 0);
    }

    #[test]
    fn histogram_total_matches_row_count() {
        let vals: Vec<i64> = (0..1000).map(|i| i % 97).collect();
        let t = table_with(&vals);
        let stats = analyze(&t, DEFAULT_BUCKETS);
        assert_eq!(stats.column("v").unwrap().histogram.total(), 1000);
    }

    #[test]
    fn eq_selectivity_uniform_data() {
        let vals: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let t = table_with(&vals);
        let stats = analyze(&t, DEFAULT_BUCKETS);
        let sel = stats.column("v").unwrap().eq_selectivity(&Value::Int(42));
        // Each value appears 10 times in 1000 rows: true selectivity 0.01.
        assert!((sel - 0.01).abs() < 0.005, "sel = {sel}");
    }

    #[test]
    fn eq_selectivity_skewed_data() {
        // Value 0 appears 901 times, values 1..=99 once each.
        let mut vals = vec![0i64; 901];
        vals.extend(1..=99);
        let t = table_with(&vals);
        let stats = analyze(&t, DEFAULT_BUCKETS);
        let c = stats.column("v").unwrap();
        let hot = c.eq_selectivity(&Value::Int(0));
        let cold = c.eq_selectivity(&Value::Int(50));
        assert!(hot > 0.5, "hot = {hot}");
        assert!(cold < 0.05, "cold = {cold}");
    }

    #[test]
    fn range_selectivity_uniform() {
        let vals: Vec<i64> = (0..1000).collect();
        let t = table_with(&vals);
        let stats = analyze(&t, DEFAULT_BUCKETS);
        let c = stats.column("v").unwrap();
        let lo = Value::Int(250);
        let hi = Value::Int(750);
        let sel = c.range_selectivity(Bound::Included(&lo), Bound::Excluded(&hi));
        assert!((sel - 0.5).abs() < 0.1, "sel = {sel}");
    }

    #[test]
    fn range_selectivity_open_ended() {
        let vals: Vec<i64> = (0..1000).collect();
        let t = table_with(&vals);
        let stats = analyze(&t, DEFAULT_BUCKETS);
        let c = stats.column("v").unwrap();
        let lo = Value::Int(900);
        let sel = c.range_selectivity(Bound::Included(&lo), Bound::Unbounded);
        assert!((sel - 0.1).abs() < 0.05, "sel = {sel}");
    }

    #[test]
    fn null_counting() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("v", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        let mut io = IoStats::new();
        t.insert(vec![Value::Int(1), Value::Null], &mut io).unwrap();
        t.insert(vec![Value::Int(2), Value::Int(5)], &mut io)
            .unwrap();
        let stats = analyze(&t, 4);
        let c = stats.column("v").unwrap();
        assert_eq!(c.null_count, 1);
        assert_eq!(c.ndv, 1);
        assert!((c.eq_selectivity(&Value::Null) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_table_stats() {
        let t = table_with(&[]);
        let stats = analyze(&t, 4);
        let c = stats.column("v").unwrap();
        assert_eq!(c.ndv, 0);
        assert_eq!(c.eq_selectivity(&Value::Int(1)), 0.0);
        assert_eq!(c.range_selectivity(Bound::Unbounded, Bound::Unbounded), 0.0);
    }

    #[test]
    fn heavy_value_does_not_straddle_buckets() {
        // 500 copies of 10 among other values; equality estimate for 10
        // should be near 500 even with few buckets.
        let mut vals: Vec<i64> = (0..250).collect();
        vals.extend(std::iter::repeat_n(10, 500));
        vals.extend(300..550);
        let t = table_with(&vals);
        let stats = analyze(&t, 8);
        let c = stats.column("v").unwrap();
        let est_hot = c.eq_selectivity(&Value::Int(10)) * c.row_count as f64;
        let est_cold = c.eq_selectivity(&Value::Int(400)) * c.row_count as f64;
        // The bucket-boundary extension keeps all copies of the heavy value
        // in one bucket, so its estimate must dominate a cold value's.
        assert!(est_hot > 10.0 * est_cold, "hot = {est_hot}, cold = {est_cold}");
        assert!(est_hot > 20.0, "hot = {est_hot}");
    }
}
