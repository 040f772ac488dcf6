//! The database: a catalog of tables with their indexes and statistics.

use crate::backend::{memory_backend, BackendKind, DiskBackend, StorageBackend, StorageCounters};
use crate::error::StorageError;
use crate::io::IoStats;
use crate::pager::PagerOptions;
use crate::schema::{IndexDef, TableSchema};
use crate::stats::{analyze_columns, TableStats, DEFAULT_BUCKETS};
use crate::table::{next_version, ColumnSet, Table};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// An in-memory database instance.
///
/// `Database` is `Clone`: cloning produces the logical copy that the paper's
/// MyShadow framework provides (§VII-B) — a test instance on which candidate
/// indexes are materialized and traffic replayed without touching
/// "production". A clone allocates per table, not per row: it shares every
/// table's rows, indexes and statistics with its source until one side
/// writes them ([`Table`]).
///
/// What a state is, as the executor prices it, is kept per table: every
/// [`Table::version`] names that table's rows, schema, index set and
/// statistics. Every change of those draws a new value from one
/// process-wide counter, and only a memory-backed clone shares its
/// source's. So a statement over tables whose newest version is the same
/// in two states, in any two instances, runs with the same plan and the
/// same cost bits (DESIGN.md §18).
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Installed statistics, shared with clones: an install writes through
    /// `Arc::make_mut`, so a clone sharing them keeps its own.
    stats: BTreeMap<String, Arc<TableStats>>,
    /// Durability backend shared by every table. [`memory_backend`] for
    /// pure in-memory instances; a [`DiskBackend`] for pager-backed ones.
    backend: Arc<dyn StorageBackend>,
}

impl Default for Database {
    fn default() -> Self {
        Self {
            tables: BTreeMap::new(),
            stats: BTreeMap::new(),
            backend: memory_backend(),
        }
    }
}

impl Clone for Database {
    /// Clones always land on the in-memory backend, whatever the source
    /// runs on: a clone is the paper's MyShadow *test* instance — candidate
    /// indexes are materialized and traffic replayed on it, and none of
    /// that experimentation may reach the production WAL or data files.
    /// A clone of a memory-backed source keeps its tables' versions; a
    /// clone of a disk-backed one draws new ones, since its costs come
    /// from the model where the source's came from page walks. Rows,
    /// indexes and statistics are shared, not copied ([`Table`]).
    fn clone(&self) -> Self {
        let disk = self.backend_kind() == BackendKind::Disk;
        let mut tables = self.tables.clone();
        for table in tables.values_mut() {
            table.detach_to_memory();
            if disk {
                table.version = next_version();
            }
        }
        Self {
            tables,
            stats: self.stats.clone(),
            backend: memory_backend(),
        }
    }
}

impl Database {
    /// Creates an empty in-memory database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (or creates) a disk-backed database rooted at `dir`.
    ///
    /// Runs WAL recovery, loads every table's heap and index trees into the
    /// in-memory working set, and re-analyzes statistics. Subsequent DML and
    /// index DDL are persisted through the pager before they become visible
    /// in memory, so a crash (or [`Database::simulate_crash`]) loses at most
    /// the in-flight statement.
    pub fn open_disk(dir: &Path, opts: PagerOptions) -> Result<Database, StorageError> {
        let (backend, loaded) = DiskBackend::open(dir, opts)?;
        let backend: Arc<dyn StorageBackend> = backend;
        let mut tables = BTreeMap::new();
        for lt in loaded {
            let name = lt.schema.name.clone();
            let table = Table::load(lt.schema, lt.rows, lt.indexes, backend.clone())?;
            tables.insert(name, table);
        }
        let mut db = Database {
            tables,
            stats: BTreeMap::new(),
            backend,
        };
        db.analyze_all();
        Ok(db)
    }

    /// Which backend this instance runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Forces a checkpoint: flushes dirty pages, fsyncs the data file and
    /// truncates the WAL. No-op on the in-memory backend.
    pub fn checkpoint(&self) -> Result<(), StorageError> {
        self.backend.checkpoint()
    }

    /// Drops all buffered state without flushing — everything not yet
    /// committed to the WAL is lost, exactly as in a process kill. The
    /// instance must be re-opened via [`Database::open_disk`] afterwards.
    /// No-op on the in-memory backend.
    pub fn simulate_crash(&self) {
        self.backend.simulate_crash();
    }

    /// Cumulative buffer-pool / WAL / pager counters for this instance.
    /// All-zero on the in-memory backend.
    pub fn storage_counters(&self) -> StorageCounters {
        self.backend.counters()
    }

    /// True when some table's rows or schema may have drifted from its
    /// installed statistics — i.e. a mutable handle to it was taken since
    /// it was last analyzed. Tuning passes use this to skip redundant
    /// ANALYZE work (and the what-if cache churn it can cause). Index DDL
    /// never sets it: statistics are a function of rows and schema alone
    /// ([`crate::stats::analyze`] does not look at a table's indexes).
    pub fn stats_dirty(&self) -> bool {
        self.tables.values().any(|t| t.stats_stale)
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        if self.tables.contains_key(&schema.name) {
            return Err(StorageError::DuplicateTable(schema.name));
        }
        self.backend.persist_create_table(&schema)?;
        self.tables.insert(
            schema.name.clone(),
            Table::new(schema).with_backend(self.backend.clone()),
        );
        Ok(())
    }

    /// Immutable table lookup.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// Mutable table lookup. Refresh statistics after bulk changes via
    /// [`Database::analyze_all`].
    ///
    /// Handing out `&mut Table` conservatively draws the table a new
    /// version and marks its statistics due: every data mutation flows
    /// through here, and a spurious draw only costs cache misses on this
    /// table, never a stale cost. Which columns the next ANALYZE
    /// recomputes the writes themselves mark ([`Table::update`]), so a
    /// handle that writes nothing recomputes none.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        let table = self.index_set_mut(name)?;
        table.stats_stale = true;
        Ok(table)
    }

    /// The handle index DDL works through: draws the table a new version
    /// (plans may change) but leaves its statistics current, since they do
    /// not depend on its index set.
    fn index_set_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        table.version = next_version();
        Ok(table)
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// The fault gate of index creation (`storage.create_index`),
    /// consulted once per index, before any table state changes.
    fn create_index_gate() -> Result<(), StorageError> {
        if let Some(crate::fault::FaultKind::Fail) = crate::fault::hit("storage.create_index") {
            return Err(StorageError::FaultInjected {
                site: "storage.create_index".to_string(),
            });
        }
        Ok(())
    }

    /// Creates and populates a secondary index. The build is atomic: it
    /// either installs a fully populated index or fails before any table
    /// state changes (the fault-injection gate sits before the build, so
    /// an injected failure can never leave a half-built index).
    pub fn create_index(&mut self, def: IndexDef, io: &mut IoStats) -> Result<(), StorageError> {
        Self::create_index_gate()?;
        self.index_set_mut(&def.table)?.create_index(def, io)
    }

    /// [`Database::create_index`], taking the index `bed` built instead of
    /// building it again when `bed` — a clone of this database — holds
    /// exactly that index over the rows this database's table still
    /// shares with it ([`Table::shares_rows_with`]). Both sides were alive
    /// since the clone and a write to shared rows copies them first, so
    /// neither has changed a row since, and the bed's entries are the ones
    /// a build here would give (DESIGN.md §9). Otherwise, or when the
    /// table is unknown to `bed`, it builds. Either way it passes the same
    /// fault gate once and draws the table a new version.
    pub fn create_index_from(
        &mut self,
        bed: &Database,
        def: IndexDef,
        io: &mut IoStats,
    ) -> Result<(), StorageError> {
        Self::create_index_gate()?;
        let table = self.index_set_mut(&def.table)?;
        let built = bed
            .tables
            .get(&def.table)
            .filter(|theirs| theirs.shares_rows_with(table))
            .and_then(|theirs| theirs.index_arc(&def.name))
            .filter(|ix| *ix.def() == def);
        match built {
            Some(ix) => table.adopt_index(Arc::clone(ix), io),
            None => table.create_index(def, io),
        }
    }

    /// Clones the database, modelling the paper's MyShadow test-environment
    /// provisioning — which, unlike in-process [`Clone`], can fail (no
    /// capacity, provider outage). Fault plans arm `storage.clone` to
    /// exercise that path; without an armed fault this is `self.clone()`.
    pub fn try_clone(&self) -> Result<Database, StorageError> {
        if let Some(crate::fault::FaultKind::Fail) = crate::fault::hit("storage.clone") {
            return Err(StorageError::FaultInjected {
                site: "storage.clone".to_string(),
            });
        }
        Ok(self.clone())
    }

    /// Drops a secondary index by name.
    pub fn drop_index(&mut self, table: &str, index: &str) -> Result<IndexDef, StorageError> {
        self.index_set_mut(table)?.drop_index(index)
    }

    /// All secondary index definitions across all tables.
    pub fn all_indexes(&self) -> Vec<IndexDef> {
        self.tables
            .values()
            .flat_map(|t| t.indexes().map(|ix| ix.def().clone()))
            .collect()
    }

    /// Total size of all secondary indexes in bytes — the quantity checked
    /// against the storage budget `B` of the tuning problem.
    pub fn total_secondary_index_bytes(&self) -> u64 {
        self.tables.values().map(Table::secondary_index_bytes).sum()
    }

    /// Applies an armed `storage.analyze` stats-corruption fault to the
    /// installed statistics: every column collapses to NDV 1 over a wildly
    /// inflated row count — the shape of a catastrophically stale or
    /// mangled ANALYZE result. Returns whether it fired.
    fn maybe_corrupt(installed: &mut Arc<TableStats>) -> bool {
        if crate::fault::hit("storage.analyze") != Some(crate::fault::FaultKind::CorruptStats) {
            return false;
        }
        let stats = Arc::make_mut(installed);
        stats.row_count = stats.row_count.saturating_mul(1000).max(1_000_000);
        for col in stats.columns.values_mut() {
            col.ndv = 1;
            col.row_count = stats.row_count;
        }
        true
    }

    /// ANALYZE of one table. Recomputes, in one scan, the statistics of
    /// the columns a write changed since the last install
    /// ([`Table::update`] marks them; an INSERT or a DELETE marks all) and
    /// keeps the installed statistics of the others; recomputes every
    /// column when none are installed. Then clears the table's marks — unless
    /// the install was corrupted by an injected fault, which leaves the
    /// whole table marked so the next clean ANALYZE heals it. Draws the
    /// table a new version only when some statistics are not identical to
    /// the installed ones, so re-analysis of unchanged data keeps what-if
    /// cost caches warm.
    fn refresh(table: &mut Table, installed: &mut BTreeMap<String, Arc<TableStats>>) {
        let mut stale = std::mem::take(&mut table.stale_columns);
        let name = &table.schema().name;
        if !installed.contains_key(name) {
            installed.insert(name.clone(), Arc::default());
            stale = ColumnSet::ALL;
        }
        let stats = installed.get_mut(name).expect("installed above");
        let row_count = table.row_count() as u64;
        let mut changed = stats.row_count != row_count;
        if changed {
            Arc::make_mut(stats).row_count = row_count;
        }
        analyze_columns(table, stale, DEFAULT_BUCKETS, |column, fresh| {
            if !stats
                .columns
                .get(column)
                .is_some_and(|kept| kept.identical(&fresh))
            {
                Arc::make_mut(stats)
                    .columns
                    .insert(column.to_string(), fresh);
                changed = true;
            }
        });
        let corrupted = Self::maybe_corrupt(stats);
        #[cfg(debug_assertions)]
        if stale != ColumnSet::ALL && !corrupted {
            Self::audit_partial(table, stats);
        }
        table.stats_stale = corrupted;
        if corrupted {
            table.stale_columns = ColumnSet::ALL;
        }
        if changed || corrupted {
            table.version = next_version();
        }
        #[cfg(debug_assertions)]
        {
            table.audited = table.version;
        }
    }

    /// Builds with debug assertions — the test profile — recompute every
    /// column of a table after [`Database::refresh`] recomputed only some
    /// and assert the result is identical to what it installed: that is
    /// exact only while a column's statistics depend on nothing but its
    /// values and the row count, and every write marks each column whose
    /// values it changed (DESIGN.md §18).
    #[cfg(debug_assertions)]
    fn audit_partial(table: &Table, installed: &TableStats) {
        let full = crate::stats::analyze(table, DEFAULT_BUCKETS);
        assert!(
            full.identical(installed),
            "{}: a partial ANALYZE installed other statistics than a full one",
            table.schema().name
        );
    }

    /// Brings statistics in sync with the data: refreshes every table a
    /// [`Database::table_mut`] handle was taken to since it was last
    /// analyzed, recomputing the statistics of the columns its writes
    /// changed, and no other — an index build or drop leaves nothing to
    /// do.
    pub fn analyze_all(&mut self) {
        #[cfg(debug_assertions)]
        self.audit_skipped_statistics();
        for table in self.tables.values_mut().filter(|t| t.stats_stale) {
            Self::refresh(table, &mut self.stats);
        }
    }

    /// Builds with debug assertions — the test profile — recompute the
    /// statistics of every table [`Database::analyze_all`] is about to skip
    /// and hold the installed ones to them: skipping is sound only while
    /// statistics are a function of rows and schema alone and every change
    /// of those marks the table (DESIGN.md §18). A table whose version has
    /// not moved since its statistics were last computed or audited holds
    /// the same rows by the version rule, which has audits of its own, and
    /// is not recomputed again.
    #[cfg(debug_assertions)]
    fn audit_skipped_statistics(&mut self) {
        for table in self.tables.values_mut() {
            if table.stats_stale || table.audited == table.version {
                continue;
            }
            let name = &table.schema().name;
            let full = crate::stats::analyze(table, DEFAULT_BUCKETS);
            assert!(
                self.stats
                    .get(name)
                    .is_some_and(|current| current.identical(&full)),
                "{name}: ANALYZE skips the table, but its rows give other statistics"
            );
            table.audited = table.version;
        }
    }

    /// Structural consistency audit, used by chaos tests after fault-laden
    /// tuning runs: every secondary index must cover exactly the rows of
    /// its table (no half-built, stale or orphaned indexes). Returns every
    /// violation found.
    pub fn check_consistency(&self) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for table in self.tables.values() {
            let rows = table.row_count();
            for ix in table.indexes() {
                if ix.len() != rows {
                    violations.push(format!(
                        "index {} on {} holds {} entries for {} rows",
                        ix.def().name,
                        table.schema().name,
                        ix.len(),
                        rows
                    ));
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Statistics for a table; empty default if never analyzed.
    pub fn stats(&self, table: &str) -> Option<&TableStats> {
        self.stats.get(table).map(Arc::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_and_lookup_table() {
        let db = db();
        assert!(db.table("t").is_ok());
        assert!(matches!(
            db.table("missing"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let schema =
            TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], &["id"]).unwrap();
        assert!(matches!(
            db.create_table(schema),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn clone_is_independent() {
        let mut db = db();
        let mut io = IoStats::new();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(10)], &mut io)
            .unwrap();
        let mut clone = db.clone();
        clone
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(2), Value::Int(20)], &mut io)
            .unwrap();
        assert_eq!(db.table("t").unwrap().row_count(), 1);
        assert_eq!(clone.table("t").unwrap().row_count(), 2);

        // An indexed table, shared by both sides until each writes it:
        // neither sees the other's rows or index entries.
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let mut clone = db.clone();
        assert!(clone
            .table("t")
            .unwrap()
            .shares_rows_with(db.table("t").unwrap()));
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(3), Value::Int(30)], &mut io)
            .unwrap();
        let t = clone.table_mut("t").unwrap();
        t.insert(vec![Value::Int(4), Value::Int(40)], &mut io)
            .unwrap();
        t.update(
            &vec![Value::Int(1)],
            vec![Value::Int(1), Value::Int(11)],
            &mut io,
        )
        .unwrap();
        let contents = |db: &Database| {
            let t = db.table("t").unwrap();
            let rows: Vec<Vec<Value>> = t.uncharged_rows().cloned().collect();
            let all = (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded);
            let entries: Vec<Vec<Value>> = t.index("ix_a").unwrap().range(all).cloned().collect();
            (rows, entries)
        };
        let int = |pairs: &[(i64, i64)]| -> Vec<Vec<Value>> {
            pairs
                .iter()
                .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
                .collect()
        };
        assert_eq!(
            contents(&db),
            (int(&[(1, 10), (3, 30)]), int(&[(10, 1), (30, 3)]))
        );
        assert_eq!(
            contents(&clone),
            (int(&[(1, 11), (4, 40)]), int(&[(11, 1), (40, 4)]))
        );
        assert!(!clone
            .table("t")
            .unwrap()
            .shares_rows_with(db.table("t").unwrap()));
        db.check_consistency().unwrap();
        clone.check_consistency().unwrap();
    }

    /// `db` with `n` rows in `t`.
    fn filled(n: i64) -> Database {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..n {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 7)], &mut io)
                .unwrap();
        }
        db
    }

    fn ix_a() -> IndexDef {
        IndexDef::new("ix_a", "t", vec!["a".into()])
    }

    /// Whether `db`'s `ix_a` is the very index `bed` holds.
    fn adopted(db: &Database, bed: &Database) -> bool {
        let ix = |db: &Database| db.table("t").unwrap().index("ix_a").unwrap() as *const _;
        std::ptr::eq(ix(db), ix(bed))
    }

    #[test]
    fn production_adopts_the_index_a_bed_built_over_shared_rows() {
        let mut db = filled(50);
        let mut io = IoStats::new();
        let mut bed = db.clone();
        bed.create_index(ix_a(), &mut io).unwrap();
        let before = version(&db);
        db.create_index_from(&bed, ix_a(), &mut io).unwrap();
        assert!(adopted(&db, &bed));
        assert!(
            version(&db) > before,
            "adoption draws a version like a build"
        );
        db.check_consistency().unwrap();
        // Production writes the adopted index: it copies it first.
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(50), Value::Int(3)], &mut io)
            .unwrap();
        assert!(!adopted(&db, &bed));
        assert_eq!(bed.table("t").unwrap().index("ix_a").unwrap().len(), 50);
        db.check_consistency().unwrap();
    }

    #[test]
    fn production_builds_when_either_side_wrote_the_rows_or_the_index_differs() {
        let mut io = IoStats::new();
        let row = vec![Value::Int(50), Value::Int(3)];
        // Production wrote after the clone.
        let mut db = filled(50);
        let mut bed = db.clone();
        bed.create_index(ix_a(), &mut io).unwrap();
        db.table_mut("t")
            .unwrap()
            .insert(row.clone(), &mut io)
            .unwrap();
        db.create_index_from(&bed, ix_a(), &mut io).unwrap();
        assert!(!adopted(&db, &bed));
        assert_eq!(db.table("t").unwrap().index("ix_a").unwrap().len(), 51);
        db.check_consistency().unwrap();
        // The bed wrote after building.
        let mut db = filled(50);
        let mut bed = db.clone();
        bed.create_index(ix_a(), &mut io).unwrap();
        bed.table_mut("t").unwrap().insert(row, &mut io).unwrap();
        db.create_index_from(&bed, ix_a(), &mut io).unwrap();
        assert!(!adopted(&db, &bed));
        assert_eq!(db.table("t").unwrap().index("ix_a").unwrap().len(), 50);
        // Same name, other columns.
        let mut db = filled(50);
        let mut bed = db.clone();
        bed.create_index(IndexDef::new("ix_a", "t", vec!["id".into()]), &mut io)
            .unwrap();
        db.create_index_from(&bed, ix_a(), &mut io).unwrap();
        assert!(!adopted(&db, &bed));
        assert_eq!(db.table("t").unwrap().index("ix_a").unwrap().def(), &ix_a());
        db.check_consistency().unwrap();
    }

    #[test]
    fn adoption_passes_the_create_index_fault_gate() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let mut db = filled(50);
        let mut io = IoStats::new();
        let mut bed = db.clone();
        bed.create_index(ix_a(), &mut io).unwrap();
        crate::fault::arm(crate::fault::FaultPlan::new(7).fail("storage.create_index", 0, 1));
        let err = db.create_index_from(&bed, ix_a(), &mut io).unwrap_err();
        assert!(err.is_injected(), "{err}");
        assert!(db.all_indexes().is_empty());
        db.create_index_from(&bed, ix_a(), &mut io).unwrap();
        let log = crate::fault::disarm();
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(adopted(&db, &bed));
    }

    #[test]
    fn index_budget_accounting() {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..100 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i * 2)], &mut io)
                .unwrap();
        }
        assert_eq!(db.total_secondary_index_bytes(), 0);
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        assert!(db.total_secondary_index_bytes() > 0);
        assert_eq!(db.all_indexes().len(), 1);
        db.drop_index("t", "ix_a").unwrap();
        assert_eq!(db.total_secondary_index_bytes(), 0);
    }

    /// Compile-time guard: the fleet's tenant pool moves each tenant's
    /// `Database` to a pool thread, and the debug audits
    /// (`Table::audit_adopted`, the what-if audit) share `&Table` /
    /// `&Database` with a scoped thread. Losing `Send + Sync` (e.g. by
    /// introducing `Rc`/`RefCell` into a table) must fail this test at
    /// compile time, not at the first fleet pass.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Table>();
        assert_send_sync::<TableStats>();
    }

    fn version(db: &Database) -> u64 {
        db.table("t").unwrap().version()
    }

    #[test]
    fn a_memory_clone_keeps_its_tables_versions() {
        let db = db();
        assert_eq!(version(&db.clone()), version(&db));
    }

    #[test]
    fn epoch_bumps_on_mutation_and_index_changes() {
        let mut db = db();
        let e0 = version(&db);
        let mut io = IoStats::new();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(10)], &mut io)
            .unwrap();
        let e1 = version(&db);
        assert!(e1 > e0, "data mutation must draw a version");
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let e2 = version(&db);
        assert!(e2 > e1, "index creation must draw a version");
        db.drop_index("t", "ix_a").unwrap();
        assert!(version(&db) > e2, "index drop must draw a version");
    }

    #[test]
    fn reanalyzing_unchanged_data_keeps_epoch() {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..50 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        let e = version(&db);
        db.analyze_all();
        assert_eq!(
            version(&db),
            e,
            "ANALYZE over unchanged data must not invalidate caches"
        );
        // A data change followed by re-analysis draws twice (mutation +
        // changed stats).
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1000), Value::Int(3)], &mut io)
            .unwrap();
        db.analyze_all();
        assert!(version(&db) >= e + 2);
    }

    #[test]
    fn dirty_flag_tracks_mutation_and_analyze() {
        let mut db = db();
        assert!(db.stats_dirty(), "create_table marks stats dirty");
        db.analyze_all();
        assert!(!db.stats_dirty());
        let mut io = IoStats::new();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(10)], &mut io)
            .unwrap();
        assert!(db.stats_dirty(), "DML marks stats dirty");
        db.analyze_all();
        assert!(!db.stats_dirty());
        // Clones inherit the mark, set or clear.
        assert!(!db.clone().stats_dirty());
        db.table_mut("t").unwrap();
        assert!(db.clone().stats_dirty());
        assert!(db.try_clone().unwrap().stats_dirty());
    }

    #[test]
    fn index_ddl_bumps_the_epoch_and_leaves_statistics_current() {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..50 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        let stats = db.stats("t").unwrap().clone();
        let e0 = version(&db);
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        assert!(version(&db) > e0);
        assert!(!db.stats_dirty(), "an index build changes no row");
        let e1 = version(&db);
        db.drop_index("t", "ix_a").unwrap();
        assert!(version(&db) > e1);
        assert!(!db.stats_dirty());
        assert_eq!(db.stats("t"), Some(&stats));
        // What a full recomputation would install is what is installed.
        db.table_mut("t").unwrap();
        db.analyze_all();
        assert_eq!(db.stats("t"), Some(&stats));
    }

    /// ANALYZE reads rows no statement asked for: on disk it touches no
    /// page, so the pool a statement finds does not depend on when
    /// statistics were last refreshed, nor on the build profile (whose
    /// audits recompute statistics too).
    #[test]
    fn analyze_on_disk_leaves_the_pool_untouched() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let dir = std::env::temp_dir().join(format!("aim-db-analyze-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PagerOptions {
            pool_frames: 8,
            ..Default::default()
        };
        let mut db = Database::open_disk(&dir, opts).unwrap();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("s", ColumnType::Str),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        let t = db.table_mut("t").unwrap();
        for i in 0..3_000 {
            let row = vec![Value::Int(i), Value::Str(format!("row {i:>40}"))];
            t.insert(row, &mut io).unwrap();
        }
        let before = db.storage_counters();
        db.analyze_all();
        assert_eq!(db.stats("t").unwrap().row_count, 3_000);
        assert_eq!(db.storage_counters(), before);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_all_recomputes_only_stale_tables() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let mut db = db();
        db.create_table(
            TableSchema::new("u", vec![ColumnDef::new("id", ColumnType::Int)], &["id"]).unwrap(),
        )
        .unwrap();
        db.analyze_all();
        let mut io = IoStats::new();
        db.table_mut("u")
            .unwrap()
            .insert(vec![Value::Int(1)], &mut io)
            .unwrap();
        // A rule that only observes: every consultation of the site is
        // logged and nothing is changed.
        crate::fault::arm(crate::fault::FaultPlan::new(1).delay_ms(
            "storage.analyze",
            0,
            0,
            u64::MAX,
        ));
        db.analyze_all();
        db.analyze_all();
        let log = crate::fault::disarm();
        assert_eq!(log.len(), 1, "one stale table, one ANALYZE: {log:?}");
        assert_eq!(db.stats("u").unwrap().row_count, 1);
        assert!(!db.stats_dirty());
    }

    /// Columns past the 64th have no bit of their own in a table's
    /// stale-column set: marking one marks every column, and every
    /// refresh recomputes them. Either way a refresh installs what a full
    /// ANALYZE gives (the test profile's audit checks that too).
    #[test]
    fn a_table_wider_than_the_column_set_refreshes_exactly() {
        let columns = (0..70).map(|c| ColumnDef::new(format!("c{c}"), ColumnType::Int));
        let mut db = Database::new();
        db.create_table(TableSchema::new("w", columns.collect(), &["c0"]).unwrap())
            .unwrap();
        let row = |id: i64| -> Vec<Value> {
            (0..70)
                .map(|c| Value::Int(if c == 0 { id } else { id % 4 * c }))
                .collect()
        };
        let mut io = IoStats::new();
        for id in 0..20 {
            db.table_mut("w").unwrap().insert(row(id), &mut io).unwrap();
        }
        db.analyze_all();
        for column in [3, 66] {
            let mut r = row(5);
            r[column] = Value::Int(-7);
            let w = db.table_mut("w").unwrap();
            w.update(&vec![Value::Int(5)], r, &mut io).unwrap();
            assert_eq!(w.stale_columns == ColumnSet::ALL, column == 66);
            db.analyze_all();
            let full = crate::stats::analyze(db.table("w").unwrap(), DEFAULT_BUCKETS);
            assert!(db.stats("w").unwrap().identical(&full), "column {column}");
        }
    }

    #[test]
    fn try_clone_fails_only_under_injected_fault() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let db = db();
        assert!(db.try_clone().is_ok());
        crate::fault::arm(crate::fault::FaultPlan::new(7).fail("storage.clone", 0, 1));
        let err = db.try_clone().unwrap_err();
        assert!(err.is_injected(), "{err}");
        assert!(db.try_clone().is_ok(), "limit 1: second clone succeeds");
        crate::fault::disarm();
    }

    #[test]
    fn create_index_fault_leaves_no_partial_index() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..50 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .unwrap();
        }
        crate::fault::arm(crate::fault::FaultPlan::new(7).fail("storage.create_index", 0, 1));
        let def = IndexDef::new("ix_a", "t", vec!["a".into()]);
        assert!(db
            .create_index(def.clone(), &mut io)
            .unwrap_err()
            .is_injected());
        assert!(db.all_indexes().is_empty(), "failed build must not install");
        db.check_consistency()
            .expect("consistent after injected failure");
        // Retry (fault budget exhausted) succeeds and is fully populated.
        db.create_index(def, &mut io).unwrap();
        crate::fault::disarm();
        db.check_consistency().expect("consistent after retry");
        assert_eq!(db.table("t").unwrap().index("ix_a").unwrap().len(), 50);
    }

    #[test]
    fn corrupted_stats_detected_and_healed_by_reanalyze() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..100 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 10)], &mut io)
                .unwrap();
        }
        crate::fault::arm(crate::fault::FaultPlan::new(7).corrupt_stats("storage.analyze", 0, 1));
        db.analyze_all();
        crate::fault::disarm();
        let corrupted = db.stats("t").unwrap();
        assert_eq!(corrupted.column("a").unwrap().ndv, 1);
        assert!(corrupted.row_count >= 1_000_000);
        // Data itself is untouched; the corrupted install left the table
        // stale, so a clean ANALYZE restores truth.
        db.check_consistency()
            .expect("corruption affects stats only");
        assert!(db.stats_dirty());
        db.analyze_all();
        assert!(!db.stats_dirty());
        assert_eq!(db.stats("t").unwrap().row_count, 100);
        assert_eq!(db.stats("t").unwrap().column("a").unwrap().ndv, 10);
    }

    /// `Pager::commit` after the WAL fsync: a failed write-back of the
    /// frames a transaction larger than the pool leaves behind does not
    /// undo a durable commit, so memory and the reopened file agree.
    #[test]
    fn a_failed_shed_after_commit_keeps_memory_and_file_in_step() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let dir = std::env::temp_dir().join(format!("aim-db-shed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = PagerOptions {
            pool_frames: 2,
            ..Default::default()
        };
        let rows = |db: &Database| -> Vec<crate::value::Row> {
            db.table("t")
                .unwrap()
                .scan_all(&mut IoStats::new())
                .cloned()
                .collect()
        };
        let mut db = Database::open_disk(&dir, opts).unwrap();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        for i in 0..50 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .unwrap();
        }
        // Every frame clean: the one write the insert below causes is the
        // commit shedding its heap, primary and secondary pages down to two.
        db.checkpoint().unwrap();
        crate::fault::arm(crate::fault::FaultPlan::new(5).fail("storage.pager.write", 0, 1));
        let inserted = db
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(50), Value::Int(0)], &mut io);
        let log = crate::fault::disarm();
        assert_eq!(log.len(), 1, "{log:?}");
        inserted.expect("the insert was committed");
        assert_eq!(db.storage_counters().shed_failures, 1);
        let in_memory = rows(&db);
        assert_eq!(in_memory.len(), 51);
        db.simulate_crash();
        drop(db);
        let db = Database::open_disk(&dir, opts).unwrap();
        assert_eq!(rows(&db), in_memory);
        db.check_consistency().unwrap();
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analyze_populates_stats() {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..10 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 3)], &mut io)
                .unwrap();
        }
        assert!(db.stats("t").is_none());
        db.analyze_all();
        let stats = db.stats("t").unwrap();
        assert_eq!(stats.row_count, 10);
        assert_eq!(stats.column("a").unwrap().ndv, 3);
    }
}
