//! Secondary indexes.
//!
//! A secondary index is an ordered set of key tuples of the form
//! `key columns ++ primary key columns` (InnoDB layout): the PK suffix both
//! disambiguates duplicate key prefixes and lets covering scans avoid the
//! base table entirely.

use crate::backend::{memory_backend, StorageBackend};
use crate::io::IoStats;
use crate::schema::IndexDef;
use crate::value::{Key, Row, Value};
use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

/// A materialized composite secondary index.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    def: IndexDef,
    /// Positions of the key columns within the table's row layout.
    key_positions: Vec<usize>,
    /// Positions of the primary key columns within the row layout.
    pk_positions: Vec<usize>,
    entries: BTreeSet<Key>,
    /// Running total of entry bytes, for size accounting.
    total_bytes: u64,
    /// Decides whether scans charge measured page I/O (disk backend) or
    /// the simulated model. Entries themselves always live in `entries`.
    backend: Arc<dyn StorageBackend>,
}

impl SecondaryIndex {
    /// Creates an empty index on the in-memory backend.
    /// `key_positions`/`pk_positions` must match the owning table's row
    /// layout; the table is responsible for resolving them from
    /// `def.columns`.
    pub fn new(def: IndexDef, key_positions: Vec<usize>, pk_positions: Vec<usize>) -> Self {
        Self {
            def,
            key_positions,
            pk_positions,
            entries: BTreeSet::new(),
            total_bytes: 0,
            backend: memory_backend(),
        }
    }

    /// Re-points scan accounting at `backend` (set by the owning table).
    pub(crate) fn set_backend(&mut self, backend: Arc<dyn StorageBackend>) {
        self.backend = backend;
    }

    /// Replaces the entries with pre-built ones — a build's, or the
    /// on-disk tree's on recovery. Ascending input is bulk-loaded without
    /// a descent per entry.
    pub(crate) fn load(&mut self, entries: Vec<Key>) {
        self.entries = entries.into_iter().collect();
        self.total_bytes = self.entries.iter().flatten().map(Value::storage_size).sum();
    }

    /// The index definition (name, table, key columns).
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Positions of the key columns in the owning table's row layout.
    pub fn key_positions(&self) -> &[usize] {
        &self.key_positions
    }

    /// Positions of the primary key columns in the owning table's row layout.
    pub fn pk_positions(&self) -> &[usize] {
        &self.pk_positions
    }

    /// Number of key columns (the index *width*).
    pub fn width(&self) -> usize {
        self.key_positions.len()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated size in bytes including per-entry B+-tree overhead.
    pub fn size_bytes(&self) -> u64 {
        // ~1.4x structural overhead: interior nodes + fill factor.
        const ENTRY_OVERHEAD: u64 = 12;
        let raw = self.total_bytes + self.entries.len() as u64 * ENTRY_OVERHEAD;
        raw + raw / 3
    }

    /// Builds the full index entry (key columns then PK columns) for a row.
    pub fn entry_for_row(&self, row: &Row) -> Key {
        let mut entry = Vec::with_capacity(self.key_positions.len() + self.pk_positions.len());
        for &p in &self.key_positions {
            entry.push(row[p].clone());
        }
        for &p in &self.pk_positions {
            entry.push(row[p].clone());
        }
        entry
    }

    /// Extracts the primary key suffix from a stored entry.
    pub fn pk_of_entry<'a>(&self, entry: &'a Key) -> &'a [Value] {
        &entry[self.key_positions.len()..]
    }

    /// Inserts the entry for `row`.
    pub fn insert_row(&mut self, row: &Row) {
        let entry = self.entry_for_row(row);
        let bytes: u64 = entry.iter().map(Value::storage_size).sum();
        if self.entries.insert(entry) {
            self.total_bytes += bytes;
        }
    }

    /// Removes the entry for `row`.
    pub fn remove_row(&mut self, row: &Row) {
        let entry = self.entry_for_row(row);
        let bytes: u64 = entry.iter().map(Value::storage_size).sum();
        if self.entries.remove(&entry) {
            self.total_bytes -= bytes;
        }
    }

    /// Scans all entries whose first `prefix.len()` key columns equal
    /// `prefix`, optionally refined by a range on the next key column.
    ///
    /// Charges one seek (tree descent) plus sequential reads proportional to
    /// the entries touched. Returns references to the matching entries in
    /// key order.
    pub fn scan_prefix_range(
        &self,
        prefix: &[Value],
        next_col_range: (Bound<&Value>, Bound<&Value>),
        io: &mut IoStats,
    ) -> Vec<&Key> {
        assert!(
            prefix.len() < self.key_positions.len() || matches!(next_col_range, (Bound::Unbounded, Bound::Unbounded)),
            "range column must exist beyond the equality prefix"
        );
        let (lower, upper) = crate::value::prefix_range_bounds(prefix, next_col_range);

        let measured = self.backend.account_index_range(
            &self.def.table,
            &self.def.name,
            lower.as_ref(),
            upper.as_ref(),
            io,
        );
        let mut bytes = 0u64;
        let mut out = Vec::new();
        for entry in self.entries.range((lower, upper)) {
            bytes += entry.iter().map(Value::storage_size).sum::<u64>();
            out.push(entry);
        }
        if !measured {
            io.charge_seek();
            io.charge_rows(out.len() as u64);
            if bytes > 0 {
                io.charge_sequential(bytes);
            }
        }
        out
    }

    /// Lazy variant of [`SecondaryIndex::scan_prefix_range`]: returns the
    /// matching entries in key order *without* charging I/O. Callers that
    /// stop early (ORDER BY ... LIMIT served from index order, §IV-E of the
    /// paper) must charge [`IoStats`] per entry actually consumed.
    pub fn iter_prefix_range(
        &self,
        prefix: &[Value],
        next_col_range: (Bound<&Value>, Bound<&Value>),
    ) -> impl Iterator<Item = &Key> {
        let (lower, upper) = crate::value::prefix_range_bounds(prefix, next_col_range);
        self.entries.range((lower, upper))
    }

    /// Scans the entire index in key order (used for index-ordered GROUP BY
    /// / ORDER BY without a usable predicate).
    pub fn scan_all(&self, io: &mut IoStats) -> Vec<&Key> {
        let measured = self.backend.account_index_range(
            &self.def.table,
            &self.def.name,
            Bound::Unbounded,
            Bound::Unbounded,
            io,
        );
        if !measured {
            io.charge_seek();
            io.charge_rows(self.entries.len() as u64);
            io.charge_sequential(self.total_bytes);
        }
        self.entries.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::IndexDef;

    /// Index on (col a at pos 1, col b at pos 2) with PK at pos 0.
    fn index() -> SecondaryIndex {
        SecondaryIndex::new(
            IndexDef::new("ix", "t", vec!["a".into(), "b".into()]),
            vec![1, 2],
            vec![0],
        )
    }

    fn row(pk: i64, a: i64, b: &str) -> Row {
        vec![Value::Int(pk), Value::Int(a), Value::Str(b.into())]
    }

    #[test]
    fn insert_and_remove_maintain_len_and_bytes() {
        let mut ix = index();
        ix.insert_row(&row(1, 10, "x"));
        ix.insert_row(&row(2, 20, "y"));
        assert_eq!(ix.len(), 2);
        let size = ix.size_bytes();
        assert!(size > 0);
        ix.remove_row(&row(1, 10, "x"));
        assert_eq!(ix.len(), 1);
        assert!(ix.size_bytes() < size);
    }

    #[test]
    fn entry_layout_is_key_then_pk() {
        let ix = index();
        let e = ix.entry_for_row(&row(7, 1, "z"));
        assert_eq!(
            e,
            vec![Value::Int(1), Value::Str("z".into()), Value::Int(7)]
        );
        assert_eq!(ix.pk_of_entry(&e), &[Value::Int(7)]);
    }

    #[test]
    fn prefix_scan_finds_exact_matches() {
        let mut ix = index();
        for (pk, a, b) in [(1, 10, "x"), (2, 10, "y"), (3, 20, "z")] {
            ix.insert_row(&row(pk, a, b));
        }
        let mut io = IoStats::new();
        let hits = ix.scan_prefix_range(
            &[Value::Int(10)],
            (Bound::Unbounded, Bound::Unbounded),
            &mut io,
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(io.seeks, 1);
        assert_eq!(io.rows_read, 2);
    }

    #[test]
    fn prefix_plus_range_scan() {
        let mut ix = index();
        for (pk, a, b) in [(1, 10, "a"), (2, 10, "m"), (3, 10, "z"), (4, 20, "m")] {
            ix.insert_row(&row(pk, a, b));
        }
        let mut io = IoStats::new();
        let lo = Value::Str("b".into());
        let hi = Value::Str("y".into());
        let hits = ix.scan_prefix_range(
            &[Value::Int(10)],
            (Bound::Included(&lo), Bound::Included(&hi)),
            &mut io,
        );
        assert_eq!(hits.len(), 1);
        assert_eq!(ix.pk_of_entry(hits[0]), &[Value::Int(2)]);
    }

    #[test]
    fn open_range_on_first_column() {
        let mut ix = index();
        for (pk, a) in [(1, 5), (2, 10), (3, 15)] {
            ix.insert_row(&row(pk, a, "c"));
        }
        let mut io = IoStats::new();
        let lo = Value::Int(6);
        let hits =
            ix.scan_prefix_range(&[], (Bound::Excluded(&lo), Bound::Unbounded), &mut io);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn excluded_lower_bound_skips_all_equal_keys() {
        let mut ix = index();
        // Two rows share a=10 with different PKs; Excluded(10) must skip both.
        ix.insert_row(&row(1, 10, "x"));
        ix.insert_row(&row(2, 10, "y"));
        ix.insert_row(&row(3, 11, "z"));
        let mut io = IoStats::new();
        let lo = Value::Int(10);
        let hits =
            ix.scan_prefix_range(&[], (Bound::Excluded(&lo), Bound::Unbounded), &mut io);
        assert_eq!(hits.len(), 1);
        assert_eq!(ix.pk_of_entry(hits[0]), &[Value::Int(3)]);
    }

    #[test]
    fn full_scan_returns_sorted_entries() {
        let mut ix = index();
        ix.insert_row(&row(1, 30, "c"));
        ix.insert_row(&row(2, 10, "a"));
        ix.insert_row(&row(3, 20, "b"));
        let mut io = IoStats::new();
        let all = ix.scan_all(&mut io);
        let firsts: Vec<_> = all.iter().map(|e| e[0].clone()).collect();
        assert_eq!(firsts, vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
    }

    #[test]
    fn duplicate_row_insert_is_idempotent() {
        let mut ix = index();
        ix.insert_row(&row(1, 10, "x"));
        ix.insert_row(&row(1, 10, "x"));
        assert_eq!(ix.len(), 1);
    }
}
