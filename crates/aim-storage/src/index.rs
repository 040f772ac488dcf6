//! Secondary indexes.
//!
//! A secondary index is an ordered set of key tuples of the form
//! `key columns ++ primary key columns` (InnoDB layout): the PK suffix both
//! disambiguates duplicate key prefixes and lets covering scans avoid the
//! base table entirely.
//!
//! An index holds no backend: its owning [`crate::Table`] keeps it behind
//! an `Arc`, shared with every clone of the table until one side writes
//! it, and reads it ([`crate::Table::index_range`]), charged through the
//! table's backend.

use crate::schema::IndexDef;
use crate::value::{Key, KeyRange, Row, Value};
use std::collections::BTreeSet;

/// A materialized composite secondary index.
#[derive(Debug, Clone, PartialEq)]
pub struct SecondaryIndex {
    def: IndexDef,
    /// Positions of the key columns within the table's row layout.
    key_positions: Vec<usize>,
    /// Positions of the primary key columns within the row layout.
    pk_positions: Vec<usize>,
    entries: BTreeSet<Key>,
    /// Running total of entry bytes, for size accounting.
    total_bytes: u64,
}

impl SecondaryIndex {
    /// Creates an empty index. `key_positions`/`pk_positions` must match
    /// the owning table's row layout; the table is responsible for
    /// resolving them from `def.columns`.
    pub fn new(def: IndexDef, key_positions: Vec<usize>, pk_positions: Vec<usize>) -> Self {
        Self {
            def,
            key_positions,
            pk_positions,
            entries: BTreeSet::new(),
            total_bytes: 0,
        }
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

    /// The entries in key order.
    pub(crate) fn entries(&self) -> impl ExactSizeIterator<Item = &Key> {
        self.entries.iter()
    }

    /// Inserts `entry`, built by [`SecondaryIndex::entry_for_row`].
    pub(crate) fn insert_entry(&mut self, entry: Key) {
        let bytes: u64 = entry.iter().map(Value::storage_size).sum();
        if self.entries.insert(entry) {
            self.total_bytes += bytes;
        }
    }

    /// Removes `entry`, built by [`SecondaryIndex::entry_for_row`].
    pub(crate) fn remove_entry(&mut self, entry: &Key) {
        if self.entries.remove(entry) {
            self.total_bytes -= entry.iter().map(Value::storage_size).sum::<u64>();
        }
    }

    /// The entries within `range` (built by
    /// [`crate::RangeKeys::prefix_range`]) in key order, uncharged: what
    /// [`crate::Table::index_range`] hands out and charges.
    pub(crate) fn range(&self, range: KeyRange<'_>) -> impl Iterator<Item = &Key> {
        self.entries.range::<[Value], _>(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoStats;
    use crate::schema::IndexDef;
    use crate::table::Table;
    use std::ops::Bound;

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

    fn insert(ix: &mut SecondaryIndex, row: &Row) {
        ix.insert_entry(ix.entry_for_row(row));
    }

    /// A table of `rows` with the index of [`index`], `ix` on (a, b).
    fn table(rows: &[(i64, i64, &str)]) -> Table {
        use crate::schema::{ColumnDef, ColumnType, TableSchema};
        let columns = [
            ("pk", ColumnType::Int),
            ("a", ColumnType::Int),
            ("b", ColumnType::Str),
        ]
        .map(|(c, ty)| ColumnDef::new(c, ty));
        let mut t = Table::new(TableSchema::new("t", columns.into(), &["pk"]).unwrap());
        let mut io = IoStats::new();
        for &(pk, a, b) in rows {
            t.insert(row(pk, a, b), &mut io).unwrap();
        }
        t.create_index(index().def().clone(), &mut io).unwrap();
        t
    }

    /// The entries a read of `t`'s index hands out for `prefix` and
    /// `next_col_range`.
    fn scan(
        t: &Table,
        prefix: &[Value],
        next_col_range: (Bound<&Value>, Bound<&Value>),
        io: &mut IoStats,
    ) -> Vec<Key> {
        let mut keys = crate::RangeKeys::default();
        let range = keys.prefix_range(prefix, next_col_range);
        let mut out = Vec::new();
        let ix = t.index("ix").unwrap();
        t.index_range(ix, range, false, io, |e| {
            out.push(e.key().clone());
            false
        });
        out
    }

    #[test]
    fn insert_and_remove_maintain_len_and_bytes() {
        let mut ix = index();
        insert(&mut ix, &row(1, 10, "x"));
        insert(&mut ix, &row(2, 20, "y"));
        assert_eq!(ix.len(), 2);
        let size = ix.size_bytes();
        assert!(size > 0);
        ix.remove_entry(&ix.entry_for_row(&row(1, 10, "x")));
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
        let t = table(&[(1, 10, "x"), (2, 10, "y"), (3, 20, "z")]);
        let mut io = IoStats::new();
        let all = (Bound::Unbounded, Bound::Unbounded);
        let hits = scan(&t, &[Value::Int(10)], all, &mut io);
        assert_eq!(hits.len(), 2);
        assert_eq!(io.seeks, 1);
        assert_eq!(io.rows_read, 2);
    }

    #[test]
    fn prefix_plus_range_scan() {
        let t = table(&[(1, 10, "a"), (2, 10, "m"), (3, 10, "z"), (4, 20, "m")]);
        let mut io = IoStats::new();
        let lo = Value::Str("b".into());
        let hi = Value::Str("y".into());
        let range = (Bound::Included(&lo), Bound::Included(&hi));
        let hits = scan(&t, &[Value::Int(10)], range, &mut io);
        assert_eq!(hits.len(), 1);
        assert_eq!(index().pk_of_entry(&hits[0]), &[Value::Int(2)]);
    }

    #[test]
    fn open_range_on_first_column() {
        let t = table(&[(1, 5, "c"), (2, 10, "c"), (3, 15, "c")]);
        let mut io = IoStats::new();
        let lo = Value::Int(6);
        let hits = scan(&t, &[], (Bound::Excluded(&lo), Bound::Unbounded), &mut io);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn excluded_lower_bound_skips_all_equal_keys() {
        // Two rows share a=10 with different PKs; Excluded(10) must skip both.
        let t = table(&[(1, 10, "x"), (2, 10, "y"), (3, 11, "z")]);
        let mut io = IoStats::new();
        let lo = Value::Int(10);
        let hits = scan(&t, &[], (Bound::Excluded(&lo), Bound::Unbounded), &mut io);
        assert_eq!(hits.len(), 1);
        assert_eq!(index().pk_of_entry(&hits[0]), &[Value::Int(3)]);
    }

    #[test]
    fn full_scan_returns_sorted_entries() {
        let t = table(&[(1, 30, "c"), (2, 10, "a"), (3, 20, "b")]);
        let all = (Bound::Unbounded, Bound::Unbounded);
        let all = scan(&t, &[], all, &mut IoStats::new());
        let firsts: Vec<_> = all.iter().map(|e| e[0].clone()).collect();
        assert_eq!(firsts, vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
    }

    #[test]
    fn duplicate_row_insert_is_idempotent() {
        let mut ix = index();
        insert(&mut ix, &row(1, 10, "x"));
        insert(&mut ix, &row(1, 10, "x"));
        assert_eq!(ix.len(), 1);
    }
}
