//! Pluggable storage backends.
//!
//! The engine keeps its decoded rows and index entries in memory in both
//! backends — `BTreeMap`s answer every query. What a [`StorageBackend`]
//! adds is (a) *durability*: mutations write through to paged structures
//! (heap chain, primary-key B+-tree, one B+-tree per secondary index) in a
//! single WAL-protected pager transaction before the in-memory state
//! changes, and (b) *measured I/O*: read paths walk the real pages through
//! the buffer pool, so [`IoStats`] reports what a disk engine would
//! actually touch instead of the simulated arithmetic model.
//!
//! [`MemoryBackend`] is the default: every hook is a no-op, queries charge
//! the simulated model, nothing survives the process. It is the fast
//! substrate tuning clones run on. [`DiskBackend`] persists to an
//! `aim.db`/`aim.wal` pair and recovers committed state on
//! [`DiskBackend::open`].
//!
//! ## Failure contract
//!
//! `persist_*` hooks run **before** the in-memory apply. On any error the
//! pager transaction is rolled back and the backend's table catalog is
//! restored from a snapshot, so memory and disk never diverge: either both
//! see the mutation or neither does. `account_*` hooks never fail the
//! query — a mid-scan pager error (e.g. an injected read fault) falls back
//! to the simulated cost model and bumps
//! [`StorageCounters::account_fallbacks`].

use crate::btree_page;
use crate::codec::{self, CatIndex, CatTable};
use crate::error::StorageError;
use crate::heap;
use crate::io::IoStats;
use crate::pager::page::PageType;
use crate::pager::{Pager, PagerOptions};
use crate::schema::{IndexDef, TableSchema};
use crate::value::{Key, Row};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Which backend a database runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Volatile: simulated I/O costs, nothing survives the process.
    Memory,
    /// Paged files with WAL recovery and measured I/O.
    Disk,
}

/// Aggregated buffer-pool / WAL / pager counters, exported through
/// `aim-telemetry`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageCounters {
    pub bp_hits: u64,
    pub bp_misses: u64,
    pub bp_evictions: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub pages_read: u64,
    pub pages_written: u64,
    pub checkpoints: u64,
    pub checkpoint_failures: u64,
    pub recovered_batches: u64,
    pub recovered_records: u64,
    pub torn_tails_discarded: u64,
    pub checksum_failures: u64,
    /// Measured-accounting attempts that hit a pager error and fell back
    /// to the simulated cost model.
    pub account_fallbacks: u64,
}

/// A secondary-index entry tagged with the index it belongs to: what the
/// table hands the backend so the backend never re-derives column layouts.
pub type TaggedEntry = (String, Key);

/// Storage backend contract.
///
/// Every hook has a no-op default, which *is* the in-memory backend: a
/// backend only overrides what it persists or measures. `persist_*` hooks
/// are called before the corresponding in-memory mutation and abort it by
/// returning an error; `account_*` hooks return `true` when they charged
/// `io` from real page walks (the caller then skips the simulated charge).
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn persist_create_table(&self, schema: &TableSchema) -> Result<(), StorageError> {
        let _ = schema;
        Ok(())
    }

    fn persist_insert(
        &self,
        table: &str,
        pk: &Key,
        row: &Row,
        entries: &[TaggedEntry],
    ) -> Result<(), StorageError> {
        let _ = (table, pk, row, entries);
        Ok(())
    }

    fn persist_delete(
        &self,
        table: &str,
        pk: &Key,
        entries: &[TaggedEntry],
    ) -> Result<(), StorageError> {
        let _ = (table, pk, entries);
        Ok(())
    }

    fn persist_update(
        &self,
        table: &str,
        pk: &Key,
        new_row: &Row,
        removed: &[TaggedEntry],
        added: &[TaggedEntry],
    ) -> Result<(), StorageError> {
        let _ = (table, pk, new_row, removed, added);
        Ok(())
    }

    /// Persists a fully built index. `entries` are in key order.
    fn persist_create_index(
        &self,
        def: &IndexDef,
        entries: &[Key],
    ) -> Result<(), StorageError> {
        let _ = (def, entries);
        Ok(())
    }

    fn persist_drop_index(&self, table: &str, index: &str) -> Result<(), StorageError> {
        let _ = (table, index);
        Ok(())
    }

    fn account_full_scan(&self, table: &str, io: &mut IoStats) -> bool {
        let _ = (table, io);
        false
    }

    fn account_pk_lookup(&self, table: &str, pk: &Key, io: &mut IoStats) -> bool {
        let _ = (table, pk, io);
        false
    }

    fn account_pk_range(
        &self,
        table: &str,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        io: &mut IoStats,
    ) -> bool {
        let _ = (table, lower, upper, io);
        false
    }

    fn account_index_range(
        &self,
        table: &str,
        index: &str,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        io: &mut IoStats,
    ) -> bool {
        let _ = (table, index, lower, upper, io);
        false
    }

    /// Flushes dirty pages and truncates the WAL.
    fn checkpoint(&self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Models a process crash: volatile state vanishes, nothing flushes.
    fn simulate_crash(&self) {}

    fn counters(&self) -> StorageCounters {
        StorageCounters::default()
    }
}

// ---------------------------------------------------------------- memory

/// The no-op backend: all state is in the engine's memory structures.
#[derive(Debug, Default)]
pub struct MemoryBackend;

impl StorageBackend for MemoryBackend {}

/// The process-wide shared in-memory backend (it is stateless, so one
/// instance serves every table and database).
pub fn memory_backend() -> Arc<dyn StorageBackend> {
    static MEM: OnceLock<Arc<MemoryBackend>> = OnceLock::new();
    MEM.get_or_init(|| Arc::new(MemoryBackend)).clone() as Arc<dyn StorageBackend>
}

// ------------------------------------------------------------------ disk

/// Per-table physical roots, mirrored in the on-disk catalog.
#[derive(Debug, Clone, PartialEq)]
struct TableMeta {
    schema: TableSchema,
    heap_first: u32,
    heap_last: u32,
    pk_root: u32,
    /// index name → (definition, tree root).
    indexes: BTreeMap<String, (IndexDef, u32)>,
}

#[derive(Debug)]
struct DiskInner {
    pager: Pager,
    tables: BTreeMap<String, TableMeta>,
    /// Set by [`StorageBackend::simulate_crash`]: suppresses the drop-time
    /// checkpoint so the reopen exercises WAL recovery.
    crashed: bool,
    account_fallbacks: u64,
    /// Counter values already pushed to telemetry (delta tracking).
    tel_flushed: StorageCounters,
    /// The heap pages of the range being accounted; kept so that a range
    /// allocates nothing.
    heap_pages: Vec<u32>,
}

/// One table's recovered state, returned by [`DiskBackend::open`] for the
/// database to rebuild its in-memory structures from.
#[derive(Debug)]
pub struct LoadedTable {
    pub schema: TableSchema,
    /// Rows decoded from the heap chain, in physical order.
    pub rows: Vec<Row>,
    /// For each secondary index: its definition and the entries read back
    /// from its B+-tree (key order) — *not* re-derived from the rows, so a
    /// tree that diverged from the heap surfaces immediately.
    pub indexes: Vec<(IndexDef, Vec<Key>)>,
}

/// The paged, WAL-protected backend.
#[derive(Debug)]
pub struct DiskBackend {
    inner: Mutex<DiskInner>,
}

impl DiskBackend {
    /// Opens (creating if absent) the database under `dir`, running WAL
    /// recovery first, and returns the backend plus every table's
    /// recovered state.
    pub fn open(
        dir: &Path,
        opts: PagerOptions,
    ) -> Result<(Arc<DiskBackend>, Vec<LoadedTable>), StorageError> {
        let mut pager = Pager::open(dir, opts)?;
        let cats = read_catalog(&mut pager)?;
        let mut tables = BTreeMap::new();
        let mut loaded = Vec::new();
        for cat in cats {
            let mut io = IoStats::new();
            // Rows and entries are decoded where they lie in their pages;
            // the first one that does not decode fails the open.
            let mut undecodable = None;
            let mut decoded = |bytes: &[u8], into: &mut Vec<Row>| match codec::decode_tuple(bytes) {
                Ok(tuple) => into.push(tuple),
                Err(e) => undecodable = undecodable.take().or(Some(e)),
            };
            let mut rows: Vec<Row> = Vec::new();
            heap::scan(&mut pager, cat.heap_first, &mut io, |_, bytes| {
                decoded(bytes, &mut rows)
            })?;
            // Recovery invariant: the PK tree and the heap must agree on
            // cardinality; a mismatch means a torn mutation survived.
            let pk_count = btree_page::count(&mut pager, cat.pk_root)?;
            if pk_count != rows.len() as u64 {
                return Err(StorageError::Corrupt {
                    detail: format!(
                        "table {}: {} heap rows but {} PK entries",
                        cat.schema.name,
                        rows.len(),
                        pk_count
                    ),
                });
            }
            let mut indexes = Vec::new();
            let mut index_meta = BTreeMap::new();
            for ci in &cat.indexes {
                let mut entries = Vec::new();
                btree_page::range(
                    &mut pager,
                    ci.root,
                    Bound::Unbounded,
                    Bound::Unbounded,
                    &mut io,
                    |k, _| decoded(k, &mut entries),
                )?;
                indexes.push((ci.def.clone(), entries));
                index_meta.insert(ci.def.name.clone(), (ci.def.clone(), ci.root));
            }
            if let Some(e) = undecodable {
                return Err(e);
            }
            tables.insert(
                cat.schema.name.clone(),
                TableMeta {
                    schema: cat.schema.clone(),
                    heap_first: cat.heap_first,
                    heap_last: cat.heap_last,
                    pk_root: cat.pk_root,
                    indexes: index_meta,
                },
            );
            loaded.push(LoadedTable {
                schema: cat.schema,
                rows,
                indexes,
            });
        }
        let backend = Arc::new(DiskBackend {
            inner: Mutex::new(DiskInner {
                pager,
                tables,
                crashed: false,
                account_fallbacks: 0,
                tel_flushed: StorageCounters::default(),
                heap_pages: Vec::new(),
            }),
        });
        Ok((backend, loaded))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one mutation as a pager transaction. On success the commit
    /// fsyncs the WAL batch; on any failure the pager rolls back and the
    /// table catalog is restored, leaving disk state exactly as before.
    fn with_tx<T>(
        &self,
        f: impl FnOnce(&mut DiskInner) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut inner = self.lock();
        let snapshot = inner.tables.clone();
        match f(&mut inner) {
            Ok(t) => match inner.pager.commit() {
                Ok(()) => {
                    flush_telemetry(&mut inner);
                    Ok(t)
                }
                Err(e) => {
                    inner.tables = snapshot;
                    Err(e)
                }
            },
            Err(e) => {
                inner.pager.rollback();
                inner.tables = snapshot;
                Err(e)
            }
        }
    }

    fn table_meta(
        inner: &DiskInner,
        table: &str,
    ) -> Result<TableMeta, StorageError> {
        inner
            .tables
            .get(table)
            .cloned()
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))
    }

    /// Stores the meta an operation worked on back and, if any physical
    /// root moved or an index came or went, rewrites the on-disk catalog.
    fn store_meta(inner: &mut DiskInner, after: TableMeta) -> Result<(), StorageError> {
        if inner.tables.get(&after.schema.name) == Some(&after) {
            return Ok(());
        }
        inner.tables.insert(after.schema.name.clone(), after);
        write_catalog(&mut inner.pager, &inner.tables)
    }

    /// Resolves a PK to its heap location via the PK tree.
    fn locate(
        inner: &mut DiskInner,
        pk_root: u32,
        pk: &Key,
    ) -> Result<heap::RowLoc, StorageError> {
        let mut scratch = IoStats::new();
        btree_page::lookup(&mut inner.pager, pk_root, pk, &mut scratch, codec::decode_rowid)?
            .ok_or_else(|| StorageError::Corrupt {
                detail: format!("primary key {pk:?} missing from PK tree"),
            })?
    }
}

impl StorageBackend for DiskBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Disk
    }

    fn persist_create_table(&self, schema: &TableSchema) -> Result<(), StorageError> {
        self.with_tx(|inner| {
            if inner.tables.contains_key(&schema.name) {
                return Err(StorageError::DuplicateTable(schema.name.clone()));
            }
            let (first, last) = heap::create(&mut inner.pager)?;
            let pk_root = btree_page::create(&mut inner.pager)?;
            inner.tables.insert(
                schema.name.clone(),
                TableMeta {
                    schema: schema.clone(),
                    heap_first: first,
                    heap_last: last,
                    pk_root,
                    indexes: BTreeMap::new(),
                },
            );
            write_catalog(&mut inner.pager, &inner.tables)
        })
    }

    fn persist_insert(
        &self,
        table: &str,
        pk: &Key,
        row: &Row,
        entries: &[TaggedEntry],
    ) -> Result<(), StorageError> {
        self.with_tx(|inner| {
            let mut tm = Self::table_meta(inner, table)?;
            let row_bytes = codec::encode_tuple(row);
            let ((pg, slot), last) = heap::insert(&mut inner.pager, tm.heap_last, &row_bytes)?;
            tm.heap_last = last;
            let rid = codec::encode_rowid(pg, slot);
            tm.pk_root = btree_page::insert(&mut inner.pager, tm.pk_root, pk, &rid)?;
            for (name, entry) in entries {
                let (_, root) = tm.indexes.get_mut(name).ok_or_else(|| {
                    StorageError::UnknownIndex {
                        table: table.to_string(),
                        index: name.clone(),
                    }
                })?;
                *root = btree_page::insert(&mut inner.pager, *root, entry, &[])?;
            }
            Self::store_meta(inner, tm)
        })
    }

    fn persist_delete(
        &self,
        table: &str,
        pk: &Key,
        entries: &[TaggedEntry],
    ) -> Result<(), StorageError> {
        self.with_tx(|inner| {
            let mut tm = Self::table_meta(inner, table)?;
            let loc = Self::locate(inner, tm.pk_root, pk)?;
            heap::delete(&mut inner.pager, loc)?;
            let (root, removed) = btree_page::remove(&mut inner.pager, tm.pk_root, pk)?;
            debug_assert!(removed, "locate() found the key");
            tm.pk_root = root;
            for (name, entry) in entries {
                let (_, root) = tm.indexes.get_mut(name).ok_or_else(|| {
                    StorageError::UnknownIndex {
                        table: table.to_string(),
                        index: name.clone(),
                    }
                })?;
                let (r, _) = btree_page::remove(&mut inner.pager, *root, entry)?;
                *root = r;
            }
            Self::store_meta(inner, tm)
        })
    }

    fn persist_update(
        &self,
        table: &str,
        pk: &Key,
        new_row: &Row,
        removed: &[TaggedEntry],
        added: &[TaggedEntry],
    ) -> Result<(), StorageError> {
        self.with_tx(|inner| {
            let mut tm = Self::table_meta(inner, table)?;
            let loc = Self::locate(inner, tm.pk_root, pk)?;
            let row_bytes = codec::encode_tuple(new_row);
            let (new_loc, last) =
                heap::update(&mut inner.pager, loc, tm.heap_last, &row_bytes)?;
            tm.heap_last = last;
            if new_loc != loc {
                let rid = codec::encode_rowid(new_loc.0, new_loc.1);
                tm.pk_root = btree_page::insert(&mut inner.pager, tm.pk_root, pk, &rid)?;
            }
            for (name, entry) in removed {
                let (_, root) = tm.indexes.get_mut(name).ok_or_else(|| {
                    StorageError::UnknownIndex {
                        table: table.to_string(),
                        index: name.clone(),
                    }
                })?;
                let (r, _) = btree_page::remove(&mut inner.pager, *root, entry)?;
                *root = r;
            }
            for (name, entry) in added {
                let (_, root) = tm.indexes.get_mut(name).ok_or_else(|| {
                    StorageError::UnknownIndex {
                        table: table.to_string(),
                        index: name.clone(),
                    }
                })?;
                *root = btree_page::insert(&mut inner.pager, *root, entry, &[])?;
            }
            Self::store_meta(inner, tm)
        })
    }

    fn persist_create_index(
        &self,
        def: &IndexDef,
        entries: &[Key],
    ) -> Result<(), StorageError> {
        self.with_tx(|inner| {
            let mut tm = Self::table_meta(inner, &def.table)?;
            if tm.indexes.contains_key(&def.name) {
                return Err(StorageError::DuplicateIndex {
                    table: def.table.clone(),
                    index: def.name.clone(),
                });
            }
            let keyed = entries.iter().map(|entry| (entry.as_slice(), &[][..]));
            let root = btree_page::build(&mut inner.pager, keyed)?;
            tm.indexes
                .insert(def.name.clone(), (def.clone(), root));
            Self::store_meta(inner, tm)
        })
    }

    fn persist_drop_index(&self, table: &str, index: &str) -> Result<(), StorageError> {
        self.with_tx(|inner| {
            let mut tm = Self::table_meta(inner, table)?;
            let (_, root) = tm.indexes.remove(index).ok_or_else(|| {
                StorageError::UnknownIndex {
                    table: table.to_string(),
                    index: index.to_string(),
                }
            })?;
            btree_page::free(&mut inner.pager, root)?;
            Self::store_meta(inner, tm)
        })
    }

    fn account_full_scan(&self, table: &str, io: &mut IoStats) -> bool {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let Some(tm) = inner.tables.get(table) else {
            return false;
        };
        let first = tm.heap_first;
        io.seeks += 1;
        match heap::scan(&mut inner.pager, first, io, |_, _| {}) {
            Ok(rows) => {
                io.rows_read += rows;
                true
            }
            Err(_) => {
                inner.account_fallbacks += 1;
                false
            }
        }
    }

    fn account_pk_lookup(&self, table: &str, pk: &Key, io: &mut IoStats) -> bool {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let Some(tm) = inner.tables.get(table) else {
            return false;
        };
        let pk_root = tm.pk_root;
        io.seeks += 1;
        let fetched = btree_page::lookup(&mut inner.pager, pk_root, pk, io, codec::decode_rowid)
            .and_then(|hit| match hit {
                Some(loc) => {
                    heap::get(&mut inner.pager, loc?, io)?;
                    io.rows_read += 1;
                    Ok(())
                }
                None => Ok(()),
            });
        match fetched {
            Ok(()) => true,
            Err(_) => {
                inner.account_fallbacks += 1;
                false
            }
        }
    }

    fn account_pk_range(
        &self,
        table: &str,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        io: &mut IoStats,
    ) -> bool {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let Some(tm) = inner.tables.get(table) else {
            return false;
        };
        let pk_root = tm.pk_root;
        io.seeks += 1;
        // Collect the matching rowids' heap pages during the tree walk,
        // then fetch them (consecutive duplicates collapsed — rows land in
        // insertion order, so locality is high, as in a real heap scan).
        let heap_pages = &mut inner.heap_pages;
        heap_pages.clear();
        let walk = btree_page::range(&mut inner.pager, pk_root, lower, upper, io, |_, rid| {
            if let Ok((pg, _)) = codec::decode_rowid(rid) {
                if heap_pages.last() != Some(&pg) {
                    heap_pages.push(pg);
                }
            }
        });
        let rows = match walk {
            Ok(rows) => rows,
            Err(_) => {
                inner.account_fallbacks += 1;
                return false;
            }
        };
        io.rows_read += rows;
        for &pg in heap_pages.iter() {
            if inner.pager.read_page(pg, io).is_err() {
                inner.account_fallbacks += 1;
                return false;
            }
        }
        true
    }

    fn account_index_range(
        &self,
        table: &str,
        index: &str,
        lower: Bound<&Key>,
        upper: Bound<&Key>,
        io: &mut IoStats,
    ) -> bool {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let Some(root) = inner
            .tables
            .get(table)
            .and_then(|tm| tm.indexes.get(index))
            .map(|(_, root)| *root)
        else {
            return false;
        };
        io.seeks += 1;
        match btree_page::range(&mut inner.pager, root, lower, upper, io, |_, _| {}) {
            Ok(rows) => {
                io.rows_read += rows;
                true
            }
            Err(_) => {
                inner.account_fallbacks += 1;
                false
            }
        }
    }

    fn checkpoint(&self) -> Result<(), StorageError> {
        let mut inner = self.lock();
        inner.pager.checkpoint()?;
        flush_telemetry(&mut inner);
        Ok(())
    }

    fn simulate_crash(&self) {
        let mut inner = self.lock();
        inner.pager.simulate_crash();
        inner.crashed = true;
    }

    fn counters(&self) -> StorageCounters {
        collect_counters(&self.lock())
    }
}

impl Drop for DiskBackend {
    fn drop(&mut self) {
        let mut inner = self.lock();
        if !inner.crashed {
            // Best-effort: the WAL already protects everything a failed
            // checkpoint would have flushed.
            let _ = inner.pager.checkpoint();
        }
    }
}

fn collect_counters(inner: &DiskInner) -> StorageCounters {
    let bp = inner.pager.pool_counters();
    let wal = inner.pager.wal_counters();
    let pg = inner.pager.counters();
    StorageCounters {
        bp_hits: bp.hits,
        bp_misses: bp.misses,
        bp_evictions: bp.evictions,
        wal_bytes: wal.bytes_written,
        wal_fsyncs: wal.fsyncs,
        pages_read: pg.pages_read,
        pages_written: pg.pages_written,
        checkpoints: pg.checkpoints,
        checkpoint_failures: pg.checkpoint_failures,
        recovered_batches: pg.recovered_batches,
        recovered_records: pg.recovered_records,
        torn_tails_discarded: pg.torn_tails_discarded,
        checksum_failures: pg.checksum_failures,
        account_fallbacks: inner.account_fallbacks,
    }
}

/// Pushes counter deltas since the last flush into the telemetry registry
/// (`storage.bp.*`, `storage.wal.*`). Deltas are consumed even while
/// telemetry is disabled so enabling it mid-run starts clean.
fn flush_telemetry(inner: &mut DiskInner) {
    let now = collect_counters(inner);
    let last = inner.tel_flushed;
    inner.tel_flushed = now;
    if !aim_telemetry::is_enabled() {
        return;
    }
    let add = aim_telemetry::metrics::counter_add;
    add("storage.bp.hit", now.bp_hits - last.bp_hits);
    add("storage.bp.miss", now.bp_misses - last.bp_misses);
    add("storage.bp.evict", now.bp_evictions - last.bp_evictions);
    add("storage.wal.bytes", now.wal_bytes - last.wal_bytes);
    add("storage.wal.fsyncs", now.wal_fsyncs - last.wal_fsyncs);
}

// --------------------------------------------------------------- catalog

/// Reads the whole catalog blob from its page chain.
fn read_catalog(pager: &mut Pager) -> Result<Vec<CatTable>, StorageError> {
    let mut no = pager.meta().catalog_root;
    if no == 0 {
        return Ok(Vec::new());
    }
    let mut blob = Vec::new();
    let mut io = IoStats::new();
    while no != 0 {
        let page = pager.read_page(no, &mut io)?;
        if page.page_type()? != PageType::Catalog {
            return Err(StorageError::Corrupt {
                detail: format!("catalog chain reached a {:?} page", page.page_type()?),
            });
        }
        for slot in 0..page.nslots() {
            blob.extend_from_slice(page.cell(slot));
        }
        no = page.next_page();
    }
    codec::decode_catalog(&blob)
}

/// Rewrites the catalog chain from scratch (frees the old chain, then
/// chunks the new blob across fresh `Catalog` pages). Runs inside the
/// caller's transaction, so a failed rewrite rolls back atomically.
fn write_catalog(
    pager: &mut Pager,
    tables: &BTreeMap<String, TableMeta>,
) -> Result<(), StorageError> {
    let mut no = pager.meta().catalog_root;
    let mut io = IoStats::new();
    while no != 0 {
        let next = pager.read_page(no, &mut io)?.next_page();
        pager.free_page(no)?;
        no = next;
    }
    let cats: Vec<CatTable> = tables
        .values()
        .map(|tm| CatTable {
            schema: tm.schema.clone(),
            heap_first: tm.heap_first,
            heap_last: tm.heap_last,
            pk_root: tm.pk_root,
            indexes: tm
                .indexes
                .values()
                .map(|(def, root)| CatIndex {
                    def: def.clone(),
                    root: *root,
                })
                .collect(),
        })
        .collect();
    let blob = codec::encode_catalog(&cats);
    const CHUNK: usize = 8 * 1024;
    let mut next = 0u32;
    for chunk in blob.chunks(CHUNK).rev() {
        let page_no = pager.allocate_page()?;
        let mut page = pager.blank(PageType::Catalog);
        page.add_cell(chunk).expect("catalog chunk fits a page");
        page.set_next_page(next);
        pager.write_page(page_no, page)?;
        next = page_no;
    }
    pager.set_catalog_root(next);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::value::Value;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aim-backend-test-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap()
    }

    fn row(id: i64) -> Row {
        vec![
            Value::Int(id),
            Value::Int(id % 7),
            Value::Str(format!("row-{id}")),
        ]
    }

    #[test]
    fn persist_and_reopen_roundtrip() {
        let dir = tmp("roundtrip");
        {
            let (be, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
            assert!(loaded.is_empty());
            be.persist_create_table(&schema()).unwrap();
            for i in 0..500 {
                let r = row(i);
                be.persist_insert("t", &vec![Value::Int(i)], &r, &[]).unwrap();
            }
            be.persist_delete("t", &vec![Value::Int(3)], &[]).unwrap();
        }
        let (_, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].rows.len(), 499);
        assert!(loaded[0].rows.iter().all(|r| r[0] != Value::Int(3)));
    }

    #[test]
    fn secondary_index_persists_entries() {
        let dir = tmp("index");
        let def = IndexDef::new("ix_a", "t", vec!["a".into()]);
        {
            let (be, _) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
            be.persist_create_table(&schema()).unwrap();
            let mut entries = Vec::new();
            for i in 0..50 {
                let entry = vec![Value::Int(i % 7), Value::Int(i)];
                be.persist_insert(
                    "t",
                    &vec![Value::Int(i)],
                    &row(i),
                    &[("ix_a".into(), entry.clone())],
                )
                .unwrap_err(); // index does not exist yet
                entries.push(entry);
            }
            // Proper order: rows first without entries, then build.
            for i in 0..50 {
                be.persist_insert("t", &vec![Value::Int(i)], &row(i), &[]).unwrap();
            }
            entries.sort();
            be.persist_create_index(&def, &entries).unwrap();
        }
        let (_, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(loaded[0].indexes.len(), 1);
        let (got_def, got_entries) = &loaded[0].indexes[0];
        assert_eq!(got_def, &def);
        assert_eq!(got_entries.len(), 50);
        assert!(got_entries.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn failed_op_rolls_back_catalog_and_pages() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let dir = tmp("rollback");
        let (be, _) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        be.persist_create_table(&schema()).unwrap();
        be.persist_insert("t", &vec![Value::Int(1)], &row(1), &[]).unwrap();
        crate::fault::arm(
            crate::fault::FaultPlan::new(5).fail(crate::pager::wal::SITE_WAL_FSYNC, 0, 1),
        );
        let err = be
            .persist_insert("t", &vec![Value::Int(2)], &row(2), &[])
            .unwrap_err();
        crate::fault::disarm();
        assert!(err.is_injected(), "{err}");
        // Retry succeeds; state holds exactly rows 1 and 2.
        be.persist_insert("t", &vec![Value::Int(2)], &row(2), &[]).unwrap();
        drop(be);
        let (_, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(loaded[0].rows.len(), 2);
    }

    #[test]
    fn crash_before_checkpoint_recovers_committed_state() {
        let dir = tmp("crash");
        {
            let (be, _) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
            be.persist_create_table(&schema()).unwrap();
            for i in 0..100 {
                be.persist_insert("t", &vec![Value::Int(i)], &row(i), &[]).unwrap();
            }
            be.simulate_crash();
        }
        let (be, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(loaded[0].rows.len(), 100);
        assert!(be.counters().recovered_batches > 0, "replayed from WAL");
    }

    #[test]
    fn measured_accounting_charges_real_pages() {
        let dir = tmp("account");
        let (be, _) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        be.persist_create_table(&schema()).unwrap();
        for i in 0..2000 {
            be.persist_insert("t", &vec![Value::Int(i)], &row(i), &[]).unwrap();
        }
        let mut io = IoStats::new();
        assert!(be.account_full_scan("t", &mut io));
        assert_eq!(io.rows_read, 2000);
        assert!(io.pages_read >= 2, "multi-page heap: {}", io.pages_read);
        let mut io2 = IoStats::new();
        assert!(be.account_pk_lookup("t", &vec![Value::Int(777)], &mut io2));
        assert_eq!(io2.rows_read, 1);
        assert!(io2.pages_read >= 2, "tree descent + heap page");
        assert!(
            io2.pages_read < io.pages_read,
            "a point lookup touches far fewer pages than a scan"
        );
        let lo = vec![Value::Int(100)];
        let hi = vec![Value::Int(200)];
        let mut io3 = IoStats::new();
        assert!(be.account_pk_range(
            "t",
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &mut io3
        ));
        assert_eq!(io3.rows_read, 100);
        assert!(io3.pages_read < io.pages_read);
        // Unknown tables fall back to the simulated model.
        assert!(!be.account_full_scan("missing", &mut io));
    }

    #[test]
    fn update_moves_row_and_keeps_pk_tree_consistent() {
        let dir = tmp("update");
        {
            let (be, _) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
            be.persist_create_table(&schema()).unwrap();
            for i in 0..200 {
                be.persist_insert("t", &vec![Value::Int(i)], &row(i), &[]).unwrap();
            }
            // Grow row 0 enough that it must relocate eventually.
            let fat = vec![
                Value::Int(0),
                Value::Int(0),
                Value::Str("x".repeat(9000)),
            ];
            be.persist_update("t", &vec![Value::Int(0)], &fat, &[], &[]).unwrap();
        }
        let (_, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(loaded[0].rows.len(), 200);
        let fat_row = loaded[0]
            .rows
            .iter()
            .find(|r| r[0] == Value::Int(0))
            .unwrap();
        assert_eq!(fat_row[2], Value::Str("x".repeat(9000)));
    }

    #[test]
    fn drop_index_frees_tree_and_catalog_entry() {
        let dir = tmp("dropix");
        let def = IndexDef::new("ix_a", "t", vec!["a".into()]);
        {
            let (be, _) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
            be.persist_create_table(&schema()).unwrap();
            for i in 0..50 {
                be.persist_insert("t", &vec![Value::Int(i)], &row(i), &[]).unwrap();
            }
            be.persist_create_index(&def, &[]).unwrap();
            be.persist_drop_index("t", "ix_a").unwrap();
            assert!(be.persist_drop_index("t", "ix_a").is_err());
        }
        let (_, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
        assert!(loaded[0].indexes.is_empty());
    }

    #[test]
    fn memory_backend_is_all_noops() {
        let be = memory_backend();
        assert_eq!(be.kind(), BackendKind::Memory);
        be.persist_create_table(&schema()).unwrap();
        let mut io = IoStats::new();
        assert!(!be.account_full_scan("t", &mut io));
        assert_eq!(io, IoStats::new());
        assert_eq!(be.counters(), StorageCounters::default());
        be.checkpoint().unwrap();
    }
}
