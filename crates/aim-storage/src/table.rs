//! Clustered tables.
//!
//! A [`Table`] stores rows clustered by primary key (as InnoDB does: the
//! base table *is* the PK B+-tree) and maintains any number of secondary
//! indexes. All mutation paths keep the secondary indexes consistent and
//! charge write I/O, which is what the paper's index-maintenance overhead
//! term `cost_u(q, i)` (Eq. 8) is computed from.

use crate::backend::{memory_backend, BackendKind, StorageBackend, TaggedEntry};
use crate::error::StorageError;
use crate::index::SecondaryIndex;
use crate::io::IoStats;
use crate::schema::{IndexDef, TableSchema};
use crate::value::{Key, KeyRange, Row, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of content versions: one counter for the whole process, so a
/// version is never drawn twice and every draw is larger than the ones
/// before it.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A set of a table's columns by position, one bit each, in one word: it
/// allocates nothing and copies with the table. A column past the last
/// bit has no bit of its own: marking it marks every column, and every
/// set that is not empty holds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ColumnSet(u64);

impl ColumnSet {
    /// Every column, of any table.
    pub(crate) const ALL: ColumnSet = ColumnSet(u64::MAX);

    /// The set of the column at `pos` alone.
    fn of(pos: usize) -> ColumnSet {
        ColumnSet(if pos < u64::BITS as usize {
            1 << pos
        } else {
            u64::MAX
        })
    }

    pub(crate) fn insert(&mut self, pos: usize) {
        self.0 |= Self::of(pos).0;
    }

    pub(crate) fn union(&mut self, other: ColumnSet) {
        self.0 |= other.0;
    }

    pub(crate) fn contains(self, pos: usize) -> bool {
        self.0 & Self::of(pos).0 != 0
    }
}

/// A table: clustered rows plus secondary indexes.
///
/// Rows always live in the in-memory `BTreeMap` — that is what queries
/// read. The attached [`StorageBackend`] decides whether mutations also
/// write through to paged durable storage (disk backend) and whether read
/// costs are measured from real page walks or charged from the simulated
/// model (memory backend). A table's reads — [`Table::scan_all`],
/// [`Table::pk_lookup`], [`Table::pk_range`] and [`Table::index_range`] —
/// are the only code that charges one: a caller gets rows borrowed for as
/// long as it holds the table, and the read charges what it handed out.
///
/// A clone shares the rows and every index with its source (each behind
/// an `Arc`) and copies only the schema and the index map. A write goes
/// through `Arc::make_mut`: unshared, that is one reference-count check;
/// shared, it first copies the rows, or the one index it writes, for this
/// side alone (DESIGN.md §9). So two tables whose rows are the same `Arc`
/// ([`Table::shares_rows_with`]) have written none of them since one was
/// cloned from the other.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Arc<BTreeMap<Key, Row>>,
    indexes: BTreeMap<String, Arc<SecondaryIndex>>,
    /// Running total of row bytes, for page-count estimation.
    total_row_bytes: u64,
    /// Content version of (rows, schema, index set, installed statistics);
    /// kept by [`crate::Database`], see [`Table::version`].
    pub(crate) version: u64,
    /// A mutable handle was taken since the owning database last installed
    /// statistics for this table, so they are due; kept by
    /// [`crate::Database`].
    pub(crate) stats_stale: bool,
    /// The columns whose statistics a write may have changed since the
    /// owning database last installed them: those an UPDATE changed a
    /// value of, and every column after an INSERT or a DELETE, since each
    /// column's statistics count the rows. A new or recovered table has
    /// every column marked. Kept here by the writes, cleared by
    /// [`crate::Database`].
    pub(crate) stale_columns: ColumnSet,
    /// Debug builds: the version at which the installed statistics were
    /// last computed or audited ([`crate::Database::analyze_all`]).
    #[cfg(debug_assertions)]
    pub(crate) audited: u64,
    backend: Arc<dyn StorageBackend>,
}

impl Table {
    /// Creates an empty table with the given schema on the in-memory
    /// backend.
    pub fn new(schema: TableSchema) -> Self {
        Self {
            schema,
            rows: Arc::default(),
            indexes: BTreeMap::new(),
            total_row_bytes: 0,
            version: next_version(),
            stats_stale: true,
            stale_columns: ColumnSet::ALL,
            #[cfg(debug_assertions)]
            audited: 0,
            backend: memory_backend(),
        }
    }

    /// The content version: which rows, schema, index set and installed
    /// statistics this table has, as the executor prices them. A database
    /// draws a fresh value from one process-wide counter at every change
    /// of those, and only a memory-backed clone shares its source's, so
    /// two tables with the same version hold the same contents (DESIGN.md
    /// §18).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Attaches a backend (builder style; used at table creation, before
    /// any rows exist).
    pub(crate) fn with_backend(mut self, backend: Arc<dyn StorageBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// Re-points this table, and so the reads of it and of its indexes,
    /// at the in-memory backend. Used when cloning a database: clones are
    /// volatile test substrates and must not write through to the source's
    /// disk files.
    pub(crate) fn detach_to_memory(&mut self) {
        self.backend = memory_backend();
    }

    /// True when this table and `other` hold the same rows object: one is
    /// a clone of the other, or of a common source, and neither has
    /// written a row since.
    pub fn shares_rows_with(&self, other: &Table) -> bool {
        Arc::ptr_eq(&self.rows, &other.rows)
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
        let mut t = Table::new(schema).with_backend(backend);
        let mut map = BTreeMap::new();
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
            if map.insert(pk, row).is_some() {
                return Err(StorageError::Corrupt {
                    detail: format!("table {}: duplicate recovered PK", t.schema.name),
                });
            }
            t.total_row_bytes += bytes;
        }
        t.rows = Arc::new(map);
        for (def, entries) in indexes {
            let key_positions = t.resolve_key_positions(&def)?;
            let mut ix = SecondaryIndex::new(def, key_positions, t.schema.primary_key.clone());
            ix.load(entries);
            t.indexes.insert(ix.def().name.clone(), Arc::new(ix));
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
        let entries = self.tagged_entries(&row);
        self.backend
            .persist_insert(&self.schema.name, &pk, &row, &entries)?;
        let bytes: u64 = row.iter().map(Value::storage_size).sum();
        io.charge_writes(1, bytes);
        // `entries` is in the index map's order.
        for (ix, (_, entry)) in self.indexes.values_mut().zip(entries) {
            Arc::make_mut(ix).insert_entry(entry);
            io.charge_writes(1, 64);
        }
        self.total_row_bytes += bytes;
        Arc::make_mut(&mut self.rows).insert(pk, row);
        self.stale_columns = ColumnSet::ALL;
        Ok(())
    }

    /// Deletes the row with primary key `pk`; returns it if present.
    /// Fails (leaving the row in place, memory and disk agreeing) when the
    /// backend cannot persist the delete.
    pub fn delete(&mut self, pk: &Key, io: &mut IoStats) -> Result<Option<Row>, StorageError> {
        let Some(row) = self.rows.get(pk) else {
            return Ok(None);
        };
        let entries = self.tagged_entries(row);
        self.backend
            .persist_delete(&self.schema.name, pk, &entries)?;
        let row = Arc::make_mut(&mut self.rows)
            .remove(pk)
            .expect("looked up above");
        let bytes: u64 = row.iter().map(Value::storage_size).sum();
        self.total_row_bytes -= bytes;
        io.charge_writes(1, bytes);
        for (ix, (_, entry)) in self.indexes.values_mut().zip(&entries) {
            Arc::make_mut(ix).remove_entry(entry);
            io.charge_writes(1, 64);
        }
        self.stale_columns = ColumnSet::ALL;
        Ok(Some(row))
    }

    /// Replaces the row with primary key `pk` by `new_row` (same PK), and
    /// marks the statistics of each column whose value changed stale: a
    /// value changes when it is unequal or another variant
    /// ([`Value::identical`]). A secondary index entry is rewritten when
    /// one of its values changed by the same rule, so that it holds the
    /// row's variant (`==` would keep `Int(5)` for `Float(5.0)`); an index
    /// none of whose key columns changed is not looked at.
    pub fn update(&mut self, pk: &Key, new_row: Row, io: &mut IoStats) -> Result<(), StorageError> {
        let old = self
            .rows
            .get(pk)
            .ok_or_else(|| StorageError::RowMismatch("update of missing row".into()))?;
        if self.pk_of(&new_row) != *pk {
            return Err(StorageError::RowMismatch(
                "update must not change the primary key".into(),
            ));
        }
        let mut changed = ColumnSet::default();
        for (pos, (before, after)) in old.iter().zip(&new_row).enumerate() {
            if !before.identical(after) {
                changed.insert(pos);
            }
        }
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for ix in self.indexes.values() {
            if !ix.key_positions().iter().any(|&pos| changed.contains(pos)) {
                continue;
            }
            let before = ix.entry_for_row(old);
            let after = ix.entry_for_row(&new_row);
            if !before.iter().zip(&after).all(|(b, a)| b.identical(a)) {
                removed.push((ix.def().name.clone(), before));
                added.push((ix.def().name.clone(), after));
            }
        }
        let old_bytes: u64 = old.iter().map(Value::storage_size).sum();
        self.backend
            .persist_update(&self.schema.name, pk, &new_row, &removed, &added)?;
        let new_bytes: u64 = new_row.iter().map(Value::storage_size).sum();
        io.charge_writes(1, new_bytes);
        for ((name, before), (_, after)) in removed.iter().zip(added) {
            let ix = self.indexes.get_mut(name).expect("named by the loop above");
            let ix = Arc::make_mut(ix);
            ix.remove_entry(before);
            ix.insert_entry(after);
            io.charge_writes(2, 128);
        }
        self.total_row_bytes = self.total_row_bytes - old_bytes + new_bytes;
        let slot = Arc::make_mut(&mut self.rows)
            .get_mut(pk)
            .expect("looked up above");
        *slot = new_row;
        self.stale_columns.union(changed);
        Ok(())
    }

    // -------------------------------------------------------------- indexes

    /// Resolves an index definition's column names to row positions.
    fn resolve_key_positions(&self, def: &IndexDef) -> Result<Vec<usize>, StorageError> {
        let mut key_positions = Vec::with_capacity(def.columns.len());
        for col in &def.columns {
            let pos = self
                .schema
                .column_index(col)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: self.schema.name.clone(),
                    column: col.clone(),
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

    /// `def`'s index over this table's rows, not installed and without
    /// its entries, and those entries in key order.
    fn build_index(&self, def: IndexDef) -> Result<(SecondaryIndex, Vec<Key>), StorageError> {
        let key_positions = self.resolve_key_positions(&def)?;
        let ix = SecondaryIndex::new(def, key_positions, self.schema.primary_key.clone());
        let mut entries: Vec<Key> = self
            .rows
            .values()
            .map(|row| ix.entry_for_row(row))
            .collect();
        entries.sort_unstable();
        // Every entry ends in its row's primary key, so none repeats.
        debug_assert!(
            entries.windows(2).all(|w| w[0] < w[1]),
            "{}: a repeated entry",
            ix.def().name
        );
        Ok((ix, entries))
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
        let (mut ix, entries) = self.build_index(def)?;
        self.backend.persist_create_index(ix.def(), &entries)?;
        ix.load(entries);
        // Building an index reads the whole table and writes the new tree.
        io.charge_sequential(self.total_row_bytes);
        io.charge_writes(self.rows.len() as u64, ix.size_bytes());
        self.indexes.insert(ix.def().name.clone(), Arc::new(ix));
        Ok(())
    }

    /// Installs `ix`, an index a clone of this table built over the rows
    /// the two still share ([`Table::shares_rows_with`]), instead of
    /// building it again: no row has changed on either side since, so a
    /// build here would give the same entries. A disk backend persists it
    /// from those entries, already in key order. Debug builds build it
    /// anyway and hold `ix` to the build.
    pub(crate) fn adopt_index(
        &mut self,
        ix: Arc<SecondaryIndex>,
        io: &mut IoStats,
    ) -> Result<(), StorageError> {
        let name = &ix.def().name;
        if self.indexes.contains_key(name) {
            return Err(StorageError::DuplicateIndex {
                table: self.schema.name.clone(),
                index: name.clone(),
            });
        }
        #[cfg(debug_assertions)]
        self.audit_adopted(&ix);
        if self.backend.kind() == BackendKind::Disk {
            let entries: Vec<Key> = ix.entries().cloned().collect();
            self.backend.persist_create_index(ix.def(), &entries)?;
        }
        // Adopting reads nothing and writes the new tree.
        io.charge_writes(self.rows.len() as u64, ix.size_bytes());
        self.indexes.insert(name.clone(), ix);
        Ok(())
    }

    /// Builds with debug assertions — the test profile — build an adopted
    /// index over this table's rows and assert the build equals it, entry
    /// for entry: adoption is sound only while a write to shared rows
    /// copies them first (DESIGN.md §9).
    #[cfg(debug_assertions)]
    fn audit_adopted(&self, adopted: &SecondaryIndex) {
        let (mut built, entries) = self.build_index(adopted.def().clone()).expect("adoptable");
        built.load(entries);
        assert!(
            built == *adopted && built.size_bytes() == adopted.size_bytes(),
            "{}: the adopted index is not what a build over this table's rows gives",
            adopted.def().name
        );
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
        self.indexes.get(name).map(Arc::as_ref)
    }

    /// The shared handle of an index, for a table to adopt
    /// ([`Table::adopt_index`]).
    pub(crate) fn index_arc(&self, name: &str) -> Option<&Arc<SecondaryIndex>> {
        self.indexes.get(name)
    }

    /// All secondary indexes on this table.
    pub fn indexes(&self) -> impl Iterator<Item = &SecondaryIndex> {
        self.indexes.values().map(Arc::as_ref)
    }

    /// True if an index with exactly these key columns already exists.
    pub fn has_index_on(&self, columns: &[String]) -> bool {
        self.indexes.values().any(|ix| ix.def().columns == columns)
    }

    // ---------------------------------------------------------------- scans

    /// Full clustered scan in PK order. On a disk backend the cost is
    /// measured from the real heap-chain walk; otherwise the simulated
    /// model is charged. A clone of the iterator walks the rows again in
    /// memory and charges nothing.
    pub fn scan_all(&self, io: &mut IoStats) -> impl Iterator<Item = &Row> + Clone {
        if !self.backend.account_full_scan(&self.schema.name, io) {
            io.charge_seek();
            io.charge_sequential(self.total_row_bytes);
            io.charge_rows(self.rows.len() as u64);
        }
        self.rows.values()
    }

    /// The rows in primary-key order, uncharged and, on disk, without
    /// touching the buffer pool: for the readers of rows no statement
    /// asked for, ANALYZE and the debug audits. A clone of the iterator
    /// walks them again.
    pub(crate) fn uncharged_rows(&self) -> impl Iterator<Item = &Row> + Clone {
        self.rows.values()
    }

    /// Point lookup by full primary key. Charges one seek (simulated) or
    /// the measured PK-tree descent plus heap fetch (disk backend).
    pub fn pk_lookup(&self, pk: &[Value], io: &mut IoStats) -> Option<&Row> {
        let row = self.rows.get(pk);
        if !self.backend.account_pk_lookup(&self.schema.name, pk, io) {
            io.charge_seek();
            io.charge_rows(u64::from(row.is_some()));
        }
        row
    }

    /// One charged read of the rows whose keys lie within `range` (a PK
    /// prefix and a range on the next PK column, built by
    /// [`crate::RangeKeys::prefix_range`]): hands each to `visit` in PK
    /// order, statement-lived, until `visit` returns `true` (stop), and
    /// charges the rows it handed out. On a disk backend that is the
    /// measured walk of the primary-key tree over them, to the last one
    /// handed out when the caller stopped, and their heap pages.
    pub fn pk_range<'a>(
        &'a self,
        range: KeyRange<'_>,
        io: &mut IoStats,
        visit: impl FnMut(&'a Row) -> bool,
    ) {
        let rows = self.rows.range::<[Value], _>(range).map(|(_, row)| row);
        let read = Handed::out(rows, visit);
        let (table, limit) = (&self.schema.name, read.limit());
        if !self
            .backend
            .account_pk_range(table, range.0, range.1, limit, io)
        {
            read.charge(io);
        }
    }

    /// One charged read of the entries of `index`, one of this table's,
    /// within `range` (built by [`crate::RangeKeys::prefix_range`]):
    /// hands each to `visit` in key order, statement-lived, until `visit`
    /// returns `true` (stop), and charges the entries it handed out. With
    /// `lookups` (a scan the index does not cover) each entry handed out
    /// also carries its row ([`IndexEntry::row`]), and the read charges
    /// the row's primary-key lookup whether the caller reads the row or
    /// not. On a disk backend the charge is the measured walk of
    /// the index tree over the entries, to the last one handed out when
    /// the caller stopped, then each lookup's measured descent and heap
    /// page, in entry order.
    pub fn index_range<'a>(
        &'a self,
        index: &'a SecondaryIndex,
        range: KeyRange<'_>,
        lookups: bool,
        io: &mut IoStats,
        mut visit: impl FnMut(IndexEntry<'a>) -> bool,
    ) {
        debug_assert!(self
            .index(&index.def().name)
            .is_some_and(|own| std::ptr::eq(own, index)));
        let rows = lookups.then_some(&*self.rows);
        let read = Handed::out(index.range(range), |key| {
            visit(IndexEntry { key, index, rows })
        });
        let (table, name) = (&self.schema.name, &index.def().name);
        let limit = read.limit();
        if !self
            .backend
            .account_index_range(table, name, range.0, range.1, limit, io)
        {
            read.charge(io);
        }
        if lookups && self.backend.kind() == BackendKind::Memory {
            // What `pk_lookup` charges for each, a row that exists.
            io.seeks += read.count;
            io.pages_read += read.count;
            io.rows_read += read.count;
        } else if lookups {
            for key in index.range(range).take(read.count as usize) {
                self.pk_lookup(index.pk_of_entry(key), io);
            }
        }
    }

    /// Total bytes of all secondary indexes on this table.
    pub fn secondary_index_bytes(&self) -> u64 {
        self.indexes.values().map(|ix| ix.size_bytes()).sum()
    }
}

/// An entry a read of a secondary index hands out
/// ([`Table::index_range`]).
#[derive(Debug, Clone, Copy)]
pub struct IndexEntry<'a> {
    key: &'a Key,
    index: &'a SecondaryIndex,
    /// The table's rows, on a read that looks rows up.
    rows: Option<&'a BTreeMap<Key, Row>>,
}

impl<'a> IndexEntry<'a> {
    /// The entry: its key columns, then its row's primary key.
    pub fn key(&self) -> &'a Key {
        self.key
    }

    /// The entry's row, on a read that looks rows up (the read charged its
    /// lookup); `None` on one that does not.
    pub fn row(&self) -> Option<&'a Row> {
        self.rows?.get(self.index.pk_of_entry(self.key))
    }
}

/// What one range read handed out.
#[derive(Default)]
struct Handed {
    /// Rows or entries.
    count: u64,
    /// Their bytes.
    bytes: u64,
    /// The caller stopped the read before its range ended.
    stopped: bool,
}

impl Handed {
    /// Items a read takes from its tree, and sizes, before handing any of
    /// them out.
    const AHEAD: usize = 64;

    /// Hands `items` to `visit` in order until it stops, [`Handed::AHEAD`]
    /// at a time: a tight loop over the tree's next entries has their
    /// values fetched from memory together, where a walk that runs the
    /// visitor between two entries waits for each in turn (a non-covering
    /// probe with an entry test, TPC-H Q19, ran 7–15 % slower so).
    fn out<'a>(
        items: impl Iterator<Item = &'a Vec<Value>>,
        mut visit: impl FnMut(&'a Vec<Value>) -> bool,
    ) -> Self {
        const NONE: &Vec<Value> = &Vec::new();
        let mut read = Handed::default();
        let mut items = items.fuse();
        let mut ahead = [(NONE, 0u64); Self::AHEAD];
        loop {
            let mut taken = 0;
            for item in items.by_ref().take(Self::AHEAD) {
                ahead[taken] = (item, item.iter().map(Value::storage_size).sum());
                taken += 1;
            }
            for &(item, bytes) in &ahead[..taken] {
                read.count += 1;
                read.bytes += bytes;
                if visit(item) {
                    read.stopped = true;
                    return read;
                }
            }
            if taken < Self::AHEAD {
                return read;
            }
        }
    }

    /// Where a measured walk ends: after the last item handed out when the
    /// caller stopped, at the end of the range otherwise.
    fn limit(&self) -> Option<u64> {
        self.stopped.then_some(self.count)
    }

    /// The simulated charge: one seek, each item examined, and the pages
    /// their bytes fill, read sequentially.
    fn charge(&self, io: &mut IoStats) {
        io.charge_seek();
        io.charge_rows(self.count);
        if self.bytes > 0 {
            io.charge_sequential(self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use std::ops::Bound;

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
        assert!(t.pk_lookup(&[Value::Int(1)], &mut io).is_some());
        assert!(t.delete(&vec![Value::Int(1)], &mut io).unwrap().is_some());
        assert_eq!(t.row_count(), 1);
        assert!(t.pk_lookup(&[Value::Int(1)], &mut io).is_none());
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
        let mut keys = crate::RangeKeys::default();
        let range = keys.prefix_range(&[Value::Int(99)], (Bound::Unbounded, Bound::Unbounded));
        let mut hits = 0;
        let ix = t.index("ix_a").unwrap();
        t.index_range(ix, range, true, &mut IoStats::new(), |e| {
            hits += 1;
            assert_eq!(e.row(), Some(&row(1, 99, "x")));
            false
        });
        assert_eq!(hits, 1);
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
        let (lo, hi) = ([Value::Int(3)], [Value::Int(6)]);
        let range = (Bound::Included(&lo[..]), Bound::Excluded(&hi[..]));
        let mut ids = Vec::new();
        let mut read = |io: &mut IoStats, stop_at: usize| {
            ids.clear();
            t.pk_range(range, io, |row| {
                ids.push(row[0].clone());
                ids.len() == stop_at
            });
            ids.clone()
        };
        let mut io = IoStats::new();
        assert_eq!(read(&mut io, 0), [3, 4, 5].map(Value::Int));
        assert_eq!((io.seeks, io.rows_read), (1, 3));
        // A read stopped at its second row is charged for two.
        let mut io = IoStats::new();
        assert_eq!(read(&mut io, 2), [3, 4].map(Value::Int));
        assert_eq!((io.seeks, io.rows_read), (1, 2));
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
