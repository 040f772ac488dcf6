//! Clustered tables.
//!
//! A [`Table`] stores rows clustered by primary key (as InnoDB does: the
//! base table *is* the PK B+-tree) and maintains any number of secondary
//! indexes. All mutation paths keep the secondary indexes consistent and
//! charge write I/O, which is what the paper's index-maintenance overhead
//! term `cost_u(q, i)` (Eq. 8) is computed from.

use crate::backend::{memory_backend, StorageBackend, TaggedEntry};
use crate::error::StorageError;
use crate::index::SecondaryIndex;
use crate::io::IoStats;
use crate::schema::{IndexDef, TableSchema};
use crate::value::{Key, Row, Value};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A table: clustered rows plus secondary indexes.
///
/// Rows always live in the in-memory `BTreeMap` — that is what queries
/// read. The attached [`StorageBackend`] decides whether mutations also
/// write through to paged durable storage (disk backend) and whether scan
/// costs are measured from real page walks or charged from the simulated
/// model (memory backend).
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: BTreeMap<Key, Row>,
    indexes: BTreeMap<String, SecondaryIndex>,
    /// Running total of row bytes, for page-count estimation.
    total_row_bytes: u64,
    /// Rows or schema may have changed since the owning database last
    /// installed statistics for this table; kept by [`crate::Database`].
    pub(crate) stats_stale: bool,
    backend: Arc<dyn StorageBackend>,
}

impl Table {
    /// Creates an empty table with the given schema on the in-memory
    /// backend.
    pub fn new(schema: TableSchema) -> Self {
        Self {
            schema,
            rows: BTreeMap::new(),
            indexes: BTreeMap::new(),
            total_row_bytes: 0,
            stats_stale: true,
            backend: memory_backend(),
        }
    }

    /// Attaches a backend (builder style; used at table creation, before
    /// any rows exist).
    pub(crate) fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Re-points this table (and its indexes) at the in-memory backend.
    /// Used when cloning a database: clones are volatile test substrates
    /// and must not write through to the source's disk files.
    pub(crate) fn detach_to_memory(&mut self) {
        self.backend = memory_backend();
        for ix in self.indexes.values_mut() {
            ix.set_backend(memory_backend());
        }
    }

    /// Rebuilds a table from backend-recovered state. Rows come from the
    /// heap; index entries come from the index trees verbatim (they are
    /// *not* re-derived, so divergence between tree and heap surfaces as
    /// a consistency failure, not a silent self-heal).
    pub(crate) fn load(
        schema: TableSchema,
        rows: Vec<Row>,
        indexes: Vec<(IndexDef, Vec<Key>)>,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, StorageError> {
        let mut t = Table::new(schema).with_backend(backend.clone());
        for row in rows {
            if row.len() != t.schema.columns.len() {
                return Err(StorageError::Corrupt {
                    detail: format!(
                        "table {}: recovered row arity {} != schema arity {}",
                        t.schema.name,
                        row.len(),
                        t.schema.columns.len()
                    ),
                });
            }
            let pk = t.pk_of(&row);
            let bytes: u64 = row.iter().map(Value::storage_size).sum();
            if t.rows.insert(pk, row).is_some() {
                return Err(StorageError::Corrupt {
                    detail: format!("table {}: duplicate recovered PK", t.schema.name),
                });
            }
            t.total_row_bytes += bytes;
        }
        for (def, entries) in indexes {
            let key_positions = t.resolve_key_positions(&def)?;
            let mut ix =
                SecondaryIndex::new(def, key_positions, t.schema.primary_key.clone());
            ix.set_backend(backend.clone());
            ix.load(entries);
            t.indexes.insert(ix.def().name.clone(), ix);
        }
        Ok(t)
    }

    /// Index entry per secondary index for `row`, tagged by index name —
    /// what the backend persists into its index trees.
    fn tagged_entries(&self, row: &Row) -> Vec<TaggedEntry> {
        self.indexes
            .values()
            .map(|ix| (ix.def().name.clone(), ix.entry_for_row(row)))
            .collect()
    }

    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Total data bytes of the clustered rows (excluding secondary indexes).
    pub fn data_bytes(&self) -> u64 {
        self.total_row_bytes
    }

    /// The primary key tuple of `row`.
    pub fn pk_of(&self, row: &Row) -> Key {
        self.schema
            .primary_key
            .iter()
            .map(|&i| row[i].clone())
            .collect()
    }

    // ------------------------------------------------------------- mutation

    /// Inserts a row, maintaining all secondary indexes.
    pub fn insert(&mut self, row: Row, io: &mut IoStats) -> Result<(), StorageError> {
        if row.len() != self.schema.columns.len() {
            return Err(StorageError::RowMismatch(format!(
                "table {}: expected {} values, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        let pk = self.pk_of(&row);
        if self.rows.contains_key(&pk) {
            return Err(StorageError::DuplicateKey {
                table: self.schema.name.clone(),
                key: format!("{pk:?}"),
            });
        }
        self.backend
            .persist_insert(&self.schema.name, &pk, &row, &self.tagged_entries(&row))?;
        let bytes: u64 = row.iter().map(Value::storage_size).sum();
        io.charge_writes(1, bytes);
        for ix in self.indexes.values_mut() {
            ix.insert_row(&row);
            io.charge_writes(1, 64);
        }
        self.total_row_bytes += bytes;
        self.rows.insert(pk, row);
        Ok(())
    }

    /// Deletes the row with primary key `pk`; returns it if present.
    /// Fails (leaving the row in place, memory and disk agreeing) when the
    /// backend cannot persist the delete.
    pub fn delete(
        &mut self,
        pk: &Key,
        io: &mut IoStats,
    ) -> Result<Option<Row>, StorageError> {
        let Some(row) = self.rows.get(pk).cloned() else {
            return Ok(None);
        };
        self.backend
            .persist_delete(&self.schema.name, pk, &self.tagged_entries(&row))?;
        self.rows.remove(pk);
        let bytes: u64 = row.iter().map(Value::storage_size).sum();
        self.total_row_bytes -= bytes;
        io.charge_writes(1, bytes);
        for ix in self.indexes.values_mut() {
            ix.remove_row(&row);
            io.charge_writes(1, 64);
        }
        Ok(Some(row))
    }

    /// Replaces the row with primary key `pk` by `new_row` (same PK).
    /// Secondary index entries are only rewritten when their key changed.
    pub fn update(&mut self, pk: &Key, new_row: Row, io: &mut IoStats) -> Result<(), StorageError> {
        let old = self
            .rows
            .get(pk)
            .cloned()
            .ok_or_else(|| StorageError::RowMismatch("update of missing row".into()))?;
        if self.pk_of(&new_row) != *pk {
            return Err(StorageError::RowMismatch(
                "update must not change the primary key".into(),
            ));
        }
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for ix in self.indexes.values() {
            let before = ix.entry_for_row(&old);
            let after = ix.entry_for_row(&new_row);
            if before != after {
                removed.push((ix.def().name.clone(), before));
                added.push((ix.def().name.clone(), after));
            }
        }
        self.backend
            .persist_update(&self.schema.name, pk, &new_row, &removed, &added)?;
        let old_bytes: u64 = old.iter().map(Value::storage_size).sum();
        let new_bytes: u64 = new_row.iter().map(Value::storage_size).sum();
        io.charge_writes(1, new_bytes);
        for ix in self.indexes.values_mut() {
            let before = ix.entry_for_row(&old);
            let after = ix.entry_for_row(&new_row);
            if before != after {
                ix.remove_row(&old);
                ix.insert_row(&new_row);
                io.charge_writes(2, 128);
            }
        }
        self.total_row_bytes = self.total_row_bytes - old_bytes + new_bytes;
        self.rows.insert(pk.clone(), new_row);
        Ok(())
    }

    // -------------------------------------------------------------- indexes

    /// Resolves an index definition's column names to row positions.
    fn resolve_key_positions(&self, def: &IndexDef) -> Result<Vec<usize>, StorageError> {
        let mut key_positions = Vec::with_capacity(def.columns.len());
        for col in &def.columns {
            let pos = self.schema.column_index(col).ok_or_else(|| {
                StorageError::UnknownColumn {
                    table: self.schema.name.clone(),
                    column: col.clone(),
                }
            })?;
            if key_positions.contains(&pos) {
                return Err(StorageError::InvalidSchema(format!(
                    "index {}: duplicate key column {col}",
                    def.name
                )));
            }
            key_positions.push(pos);
        }
        Ok(key_positions)
    }

    /// Creates and populates a secondary index. The build is staged in
    /// memory, persisted as one backend transaction, and only then
    /// installed — a persist failure leaves no trace of the index.
    pub fn create_index(&mut self, def: IndexDef, io: &mut IoStats) -> Result<(), StorageError> {
        if self.indexes.contains_key(&def.name) {
            return Err(StorageError::DuplicateIndex {
                table: self.schema.name.clone(),
                index: def.name,
            });
        }
        let key_positions = self.resolve_key_positions(&def)?;
        let mut ix = SecondaryIndex::new(def, key_positions, self.schema.primary_key.clone());
        ix.set_backend(self.backend.clone());
        let mut entries: Vec<Key> = self.rows.values().map(|row| ix.entry_for_row(row)).collect();
        entries.sort_unstable();
        entries.dedup();
        self.backend.persist_create_index(ix.def(), &entries)?;
        ix.load(entries);
        // Building an index reads the whole table and writes the new tree.
        io.charge_sequential(self.total_row_bytes);
        io.charge_writes(self.rows.len() as u64, ix.size_bytes());
        self.indexes.insert(ix.def().name.clone(), ix);
        Ok(())
    }

    /// Drops a secondary index.
    pub fn drop_index(&mut self, name: &str) -> Result<IndexDef, StorageError> {
        if !self.indexes.contains_key(name) {
            return Err(StorageError::UnknownIndex {
                table: self.schema.name.clone(),
                index: name.to_string(),
            });
        }
        self.backend.persist_drop_index(&self.schema.name, name)?;
        Ok(self
            .indexes
            .remove(name)
            .expect("checked above")
            .def()
            .clone())
    }

    /// Looks up an index by name.
    pub fn index(&self, name: &str) -> Option<&SecondaryIndex> {
        self.indexes.get(name)
    }

    /// All secondary indexes on this table.
    pub fn indexes(&self) -> impl Iterator<Item = &SecondaryIndex> {
        self.indexes.values()
    }

    /// True if an index with exactly these key columns already exists.
    pub fn has_index_on(&self, columns: &[String]) -> bool {
        self.indexes
            .values()
            .any(|ix| ix.def().columns == columns)
    }

    // ---------------------------------------------------------------- scans

    /// Full clustered scan in PK order. On a disk backend the cost is
    /// measured from the real heap-chain walk; otherwise the simulated
    /// model is charged.
    pub fn scan_all(&self, io: &mut IoStats) -> impl Iterator<Item = &Row> {
        if !self.backend.account_full_scan(&self.schema.name, io) {
            io.charge_seek();
            io.charge_sequential(self.total_row_bytes);
            io.charge_rows(self.rows.len() as u64);
        }
        self.rows.values()
    }

    /// Point lookup by full primary key. Charges one seek (simulated) or
    /// the measured PK-tree descent plus heap fetch (disk backend).
    pub fn pk_lookup(&self, pk: &Key, io: &mut IoStats) -> Option<&Row> {
        if !self.backend.account_pk_lookup(&self.schema.name, pk, io) {
            io.charge_seek();
            let row = self.rows.get(pk);
            if row.is_some() {
                io.charge_rows(1);
            }
            return row;
        }
        self.rows.get(pk)
    }

    /// Range scan on a PK *prefix*: all rows whose leading PK columns equal
    /// `prefix`, refined by an optional range on the next PK column.
    pub fn pk_range(
        &self,
        prefix: &[Value],
        next_col_range: (Bound<&Value>, Bound<&Value>),
        io: &mut IoStats,
    ) -> Vec<&Row> {
        let (lower, upper) = crate::value::prefix_range_bounds(prefix, next_col_range);
        let measured = self.backend.account_pk_range(
            &self.schema.name,
            lower.as_ref(),
            upper.as_ref(),
            io,
        );
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for row in self.rows.range((lower, upper)).map(|(_, r)| r) {
            bytes += row.iter().map(Value::storage_size).sum::<u64>();
            out.push(row);
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

    /// Lazy variant of [`Table::pk_range`]: iterates matching rows in PK
    /// order without charging I/O. Early-terminating callers must charge
    /// per row consumed.
    pub fn iter_pk_range(
        &self,
        prefix: &[Value],
        next_col_range: (Bound<&Value>, Bound<&Value>),
    ) -> impl Iterator<Item = &Row> {
        let (lower, upper) = crate::value::prefix_range_bounds(prefix, next_col_range);
        self.rows.range((lower, upper)).map(|(_, r)| r)
    }

    /// Total bytes of all secondary indexes on this table.
    pub fn secondary_index_bytes(&self) -> u64 {
        self.indexes.values().map(SecondaryIndex::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(id: i64, a: i64, b: &str) -> Row {
        vec![Value::Int(id), Value::Int(a), Value::Str(b.into())]
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let mut t = table();
        let mut io = IoStats::new();
        t.insert(row(1, 10, "x"), &mut io).unwrap();
        t.insert(row(2, 20, "y"), &mut io).unwrap();
        assert_eq!(t.row_count(), 2);
        assert!(t.pk_lookup(&vec![Value::Int(1)], &mut io).is_some());
        assert!(t.delete(&vec![Value::Int(1)], &mut io).unwrap().is_some());
        assert_eq!(t.row_count(), 1);
        assert!(t.pk_lookup(&vec![Value::Int(1)], &mut io).is_none());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        let mut io = IoStats::new();
        t.insert(row(1, 10, "x"), &mut io).unwrap();
        assert!(matches!(
            t.insert(row(1, 99, "z"), &mut io),
            Err(StorageError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut t = table();
        let mut io = IoStats::new();
        assert!(matches!(
            t.insert(vec![Value::Int(1)], &mut io),
            Err(StorageError::RowMismatch(_))
        ));
    }

    #[test]
    fn index_is_maintained_on_insert_and_delete() {
        let mut t = table();
        let mut io = IoStats::new();
        t.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        t.insert(row(1, 10, "x"), &mut io).unwrap();
        t.insert(row(2, 20, "y"), &mut io).unwrap();
        assert_eq!(t.index("ix_a").unwrap().len(), 2);
        t.delete(&vec![Value::Int(1)], &mut io).unwrap();
        assert_eq!(t.index("ix_a").unwrap().len(), 1);
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut t = table();
        let mut io = IoStats::new();
        t.insert(row(1, 10, "x"), &mut io).unwrap();
        t.insert(row(2, 20, "y"), &mut io).unwrap();
        t.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        assert_eq!(t.index("ix_a").unwrap().len(), 2);
    }

    #[test]
    fn update_rewrites_only_affected_indexes() {
        let mut t = table();
        let mut io = IoStats::new();
        t.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        t.create_index(IndexDef::new("ix_b", "t", vec!["b".into()]), &mut io)
            .unwrap();
        t.insert(row(1, 10, "x"), &mut io).unwrap();

        let mut io2 = IoStats::new();
        // Change only `a`; ix_b's entry must be untouched.
        t.update(&vec![Value::Int(1)], row(1, 99, "x"), &mut io2)
            .unwrap();
        // 1 row write + 2 entry writes for ix_a only.
        assert_eq!(io2.rows_written, 3);
        let mut io3 = IoStats::new();
        let hits = t.index("ix_a").unwrap().scan_prefix_range(
            &[Value::Int(99)],
            (Bound::Unbounded, Bound::Unbounded),
            &mut io3,
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn update_cannot_change_pk() {
        let mut t = table();
        let mut io = IoStats::new();
        t.insert(row(1, 10, "x"), &mut io).unwrap();
        assert!(t
            .update(&vec![Value::Int(1)], row(2, 10, "x"), &mut io)
            .is_err());
    }

    #[test]
    fn pk_range_scan() {
        let mut t = table();
        let mut io = IoStats::new();
        for i in 1..=10 {
            t.insert(row(i, i * 10, "r"), &mut io).unwrap();
        }
        let lo = Value::Int(3);
        let hi = Value::Int(6);
        let rows = t.pk_range(
            &[],
            (Bound::Included(&lo), Bound::Excluded(&hi)),
            &mut IoStats::new(),
        );
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        let mut io = IoStats::new();
        t.create_index(IndexDef::new("ix", "t", vec!["a".into()]), &mut io)
            .unwrap();
        assert!(matches!(
            t.create_index(IndexDef::new("ix", "t", vec!["b".into()]), &mut io),
            Err(StorageError::DuplicateIndex { .. })
        ));
    }

    #[test]
    fn has_index_on_matches_exact_column_list() {
        let mut t = table();
        let mut io = IoStats::new();
        t.create_index(
            IndexDef::new("ix", "t", vec!["a".into(), "b".into()]),
            &mut io,
        )
        .unwrap();
        assert!(t.has_index_on(&["a".into(), "b".into()]));
        assert!(!t.has_index_on(&["b".into(), "a".into()]));
        assert!(!t.has_index_on(&["a".into()]));
    }

    #[test]
    fn drop_index_removes_it() {
        let mut t = table();
        let mut io = IoStats::new();
        t.create_index(IndexDef::new("ix", "t", vec!["a".into()]), &mut io)
            .unwrap();
        t.drop_index("ix").unwrap();
        assert!(t.index("ix").is_none());
        assert!(t.drop_index("ix").is_err());
    }

    #[test]
    fn data_bytes_track_inserts_and_deletes() {
        let mut t = table();
        let mut io = IoStats::new();
        assert_eq!(t.data_bytes(), 0);
        t.insert(row(1, 10, "hello"), &mut io).unwrap();
        let b = t.data_bytes();
        assert!(b > 0);
        t.delete(&vec![Value::Int(1)], &mut io).unwrap();
        assert_eq!(t.data_bytes(), 0);
    }
}
