//! The database: a catalog of tables with their indexes and statistics.

use crate::backend::{
    memory_backend, BackendKind, DiskBackend, StorageBackend, StorageCounters,
};
use crate::error::StorageError;
use crate::io::IoStats;
use crate::pager::PagerOptions;
use crate::schema::{IndexDef, TableSchema};
use crate::stats::{analyze, TableStats, DEFAULT_BUCKETS};
use crate::table::Table;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of process-unique database instance identifiers (cache keying).
static NEXT_DB_ID: AtomicU64 = AtomicU64::new(1);

fn next_db_id() -> u64 {
    NEXT_DB_ID.fetch_add(1, Ordering::Relaxed)
}

/// An in-memory database instance.
///
/// `Database` is `Clone`: cloning produces the logical copy that the paper's
/// MyShadow framework provides (§VII-B) — a test instance on which candidate
/// indexes are materialized and traffic replayed without touching
/// "production". A clone receives a fresh [`Database::instance_id`], so
/// what-if cost caches keyed by `(instance_id, stats_epoch)` never confuse
/// the clone with its source.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    stats: BTreeMap<String, TableStats>,
    /// Process-unique identity of this instance (fresh on clone).
    id: u64,
    /// Version of (data, schema, index set, statistics): bumped by any
    /// mutable access and by re-analysis that changed statistics. What-if
    /// cost caches key on this to invalidate on data or stats drift.
    /// Whether statistics are due is tracked per table
    /// ([`Database::stats_dirty`]).
    epoch: u64,
    /// Durability backend shared by every table. [`memory_backend`] for
    /// pure in-memory instances; a [`DiskBackend`] for pager-backed ones.
    backend: Arc<dyn StorageBackend>,
}

impl Default for Database {
    fn default() -> Self {
        Self {
            tables: BTreeMap::new(),
            stats: BTreeMap::new(),
            id: next_db_id(),
            epoch: 0,
            backend: memory_backend(),
        }
    }
}

impl Clone for Database {
    /// Clones always land on the in-memory backend, whatever the source
    /// runs on: a clone is the paper's MyShadow *test* instance — candidate
    /// indexes are materialized and traffic replayed on it, and none of
    /// that experimentation may reach the production WAL or data files.
    fn clone(&self) -> Self {
        let mut tables = self.tables.clone();
        for table in tables.values_mut() {
            table.detach_to_memory();
        }
        Self {
            tables,
            stats: self.stats.clone(),
            id: next_db_id(),
            epoch: self.epoch,
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
            id: next_db_id(),
            epoch: 0,
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

    /// Process-unique identity of this instance. Clones get a fresh id.
    pub fn instance_id(&self) -> u64 {
        self.id
    }

    /// Current stats epoch: changes whenever data, schema, the index set or
    /// the statistics may have changed. Cached what-if costs computed under
    /// an older epoch are stale.
    pub fn stats_epoch(&self) -> u64 {
        self.epoch
    }

    /// True when some table's rows or schema may have drifted from its
    /// installed statistics — i.e. a mutable handle to it was taken since
    /// it was last analyzed. Tuning passes use this to skip redundant
    /// ANALYZE work (and the what-if cache churn it can cause). Index DDL
    /// never sets it: statistics are a function of rows and schema alone
    /// ([`analyze`] does not look at a table's indexes).
    pub fn stats_dirty(&self) -> bool {
        self.tables.values().any(|t| t.stats_stale)
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        if self.tables.contains_key(&schema.name) {
            return Err(StorageError::DuplicateTable(schema.name));
        }
        self.backend.persist_create_table(&schema)?;
        self.epoch += 1;
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
    /// Handing out `&mut Table` conservatively bumps the stats epoch and
    /// marks the table's statistics stale: every data mutation flows
    /// through here, and a spurious bump only costs a cache miss and one
    /// table's re-ANALYZE, never a stale cost.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        let table = self.index_set_mut(name)?;
        table.stats_stale = true;
        Ok(table)
    }

    /// The handle index DDL works through: bumps the stats epoch (plans may
    /// change) but leaves the table's statistics current, since they do
    /// not depend on its index set.
    fn index_set_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))?;
        self.epoch += 1;
        Ok(table)
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Creates and populates a secondary index. The build is atomic: it
    /// either installs a fully populated index or fails before any table
    /// state changes (the fault-injection gate sits before the build, so
    /// an injected failure can never leave a half-built index).
    pub fn create_index(&mut self, def: IndexDef, io: &mut IoStats) -> Result<(), StorageError> {
        if let Some(crate::fault::FaultKind::Fail) = crate::fault::hit("storage.create_index") {
            return Err(StorageError::FaultInjected {
                site: "storage.create_index".to_string(),
            });
        }
        self.index_set_mut(&def.table)?.create_index(def, io)
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

    /// Applies an armed `storage.analyze` stats-corruption fault: every
    /// column collapses to NDV 1 over a wildly inflated row count — the
    /// shape of a catastrophically stale or mangled ANALYZE result.
    /// Returns whether it fired.
    fn maybe_corrupt(stats: &mut TableStats) -> bool {
        if crate::fault::hit("storage.analyze") != Some(crate::fault::FaultKind::CorruptStats) {
            return false;
        }
        stats.row_count = stats.row_count.saturating_mul(1000).max(1_000_000);
        for col in stats.columns.values_mut() {
            col.ndv = 1;
            col.row_count = stats.row_count;
        }
        true
    }

    /// ANALYZE of one table: installs its recomputed statistics and clears
    /// its stale mark — unless the install was corrupted by an injected
    /// fault, which leaves the table stale so the next clean ANALYZE heals
    /// it. Bumps the stats epoch only when the statistics actually differ,
    /// so re-analysis of unchanged data keeps what-if cost caches warm.
    fn refresh(
        table: &mut Table,
        installed: &mut BTreeMap<String, TableStats>,
        epoch: &mut u64,
    ) {
        let mut stats = analyze(table, DEFAULT_BUCKETS);
        table.stats_stale = Self::maybe_corrupt(&mut stats);
        let name = &table.schema().name;
        if installed.get(name) != Some(&stats) {
            *epoch += 1;
            installed.insert(name.clone(), stats);
        }
    }

    /// Brings statistics in sync with the data: recomputes them for every
    /// table whose rows or schema may have changed since it was last
    /// analyzed, and for no other — an index build or drop leaves nothing
    /// to do. Taking a [`Database::table_mut`] handle first forces a table.
    pub fn analyze_all(&mut self) {
        for table in self.tables.values_mut().filter(|t| t.stats_stale) {
            Self::refresh(table, &mut self.stats, &mut self.epoch);
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
        self.stats.get(table)
    }

    /// Builds an economical test bed: a clone holding a deterministic
    /// `fraction` sample of every table's rows (secondary indexes are
    /// rebuilt over the sample; statistics re-analyzed). This is the
    /// sampling ability of the paper's MyShadow framework (§VII-B).
    ///
    /// Sampling is per-row and independent, so foreign-key joins thin out
    /// quadratically — callers validating join plans should keep the
    /// fraction moderate.
    pub fn sample(&self, fraction: f64, seed: u64) -> Database {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut out = Database::new();
        for table in self.tables.values() {
            out.create_table(table.schema().clone())
                .expect("fresh database");
            let mut io = crate::io::IoStats::new();
            // Deterministic per-row selection: hash of (seed, table, pk).
            let mut scan_io = crate::io::IoStats::new();
            for row in table.scan_all(&mut scan_io) {
                let pk = table.pk_of(row);
                let mut h: u64 = seed ^ 0x9e37_79b9_7f4a_7c15;
                for b in table.schema().name.bytes() {
                    h = h.wrapping_mul(0x100_0000_01b3) ^ u64::from(b);
                }
                for v in &pk {
                    h = h.wrapping_mul(0x100_0000_01b3)
                        ^ crate::stats::value_sample_hash(v);
                }
                // Finalize (splitmix64): the last XOR above would
                // otherwise leave near-constant float-exponent bits in the
                // high positions.
                h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
                h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                h ^= h >> 31;
                // Map to [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < fraction {
                    out.table_mut(&table.schema().name)
                        .expect("just created")
                        .insert(row.clone(), &mut io)
                        .expect("pk unique in source");
                }
            }
            for ix in table.indexes() {
                out.create_index(ix.def().clone(), &mut io)
                    .expect("index valid on same schema");
            }
        }
        out.analyze_all();
        out
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
        let schema = TableSchema::new(
            "t",
            vec![ColumnDef::new("id", ColumnType::Int)],
            &["id"],
        )
        .unwrap();
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

    #[test]
    fn sample_is_deterministic_and_proportional() {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..4000 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 7)], &mut io)
                .unwrap();
        }
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let s1 = db.sample(0.25, 99);
        let s2 = db.sample(0.25, 99);
        let n = s1.table("t").unwrap().row_count();
        assert_eq!(n, s2.table("t").unwrap().row_count());
        assert!((700..1300).contains(&n), "sampled {n} of 4000 at 25%");
        // Indexes rebuilt over the sample.
        assert_eq!(s1.table("t").unwrap().index("ix_a").unwrap().len(), n);
        // Statistics re-analyzed.
        assert_eq!(s1.stats("t").unwrap().row_count, n as u64);
        // Different seed, different subset (almost surely).
        let s3 = db.sample(0.25, 7);
        assert_ne!(
            s1.table("t").unwrap().data_bytes(),
            0,
            "sample not empty"
        );
        let _ = s3;
    }

    #[test]
    fn sample_extremes() {
        let mut db = db();
        let mut io = IoStats::new();
        for i in 0..100 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i)], &mut io)
                .unwrap();
        }
        assert_eq!(db.sample(0.0, 1).table("t").unwrap().row_count(), 0);
        assert_eq!(db.sample(1.0, 1).table("t").unwrap().row_count(), 100);
    }

    /// Compile-time guard: the advisor fans what-if evaluation out over
    /// `std::thread::scope` workers sharing `&Database`; losing `Send +
    /// Sync` (e.g. by introducing `Rc`/`RefCell` into a table) must fail
    /// this test at compile time, not at the first parallel tuning pass.
    #[test]
    fn database_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Database>();
        assert_send_sync::<Table>();
        assert_send_sync::<TableStats>();
    }

    #[test]
    fn clone_gets_fresh_instance_id() {
        let db = db();
        let clone = db.clone();
        assert_ne!(db.instance_id(), clone.instance_id());
        assert_eq!(db.stats_epoch(), clone.stats_epoch());
    }

    #[test]
    fn epoch_bumps_on_mutation_and_index_changes() {
        let mut db = db();
        let e0 = db.stats_epoch();
        let mut io = IoStats::new();
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Int(10)], &mut io)
            .unwrap();
        let e1 = db.stats_epoch();
        assert!(e1 > e0, "data mutation must bump the epoch");
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let e2 = db.stats_epoch();
        assert!(e2 > e1, "index creation must bump the epoch");
        db.drop_index("t", "ix_a").unwrap();
        assert!(db.stats_epoch() > e2, "index drop must bump the epoch");
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
        let e = db.stats_epoch();
        db.analyze_all();
        assert_eq!(
            db.stats_epoch(),
            e,
            "ANALYZE over unchanged data must not invalidate caches"
        );
        // A data change followed by re-analysis bumps twice (mutation +
        // changed stats).
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(1000), Value::Int(3)], &mut io)
            .unwrap();
        db.analyze_all();
        assert!(db.stats_epoch() >= e + 2);
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
        let e0 = db.stats_epoch();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        assert!(db.stats_epoch() > e0);
        assert!(!db.stats_dirty(), "an index build changes no row");
        let e1 = db.stats_epoch();
        db.drop_index("t", "ix_a").unwrap();
        assert!(db.stats_epoch() > e1);
        assert!(!db.stats_dirty());
        assert_eq!(db.stats("t"), Some(&stats));
        // What a full recomputation would install is what is installed.
        db.table_mut("t").unwrap();
        db.analyze_all();
        assert_eq!(db.stats("t"), Some(&stats));
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
        crate::fault::arm(crate::fault::FaultPlan::new(1).delay_ms("storage.analyze", 0, 0, u64::MAX));
        db.analyze_all();
        db.analyze_all();
        let log = crate::fault::disarm();
        assert_eq!(log.len(), 1, "one stale table, one ANALYZE: {log:?}");
        assert_eq!(db.stats("u").unwrap().row_count, 1);
        assert!(!db.stats_dirty());
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
        assert!(db.create_index(def.clone(), &mut io).unwrap_err().is_injected());
        assert!(db.all_indexes().is_empty(), "failed build must not install");
        db.check_consistency().expect("consistent after injected failure");
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
        db.check_consistency().expect("corruption affects stats only");
        assert!(db.stats_dirty());
        db.analyze_all();
        assert!(!db.stats_dirty());
        assert_eq!(db.stats("t").unwrap().row_count, 100);
        assert_eq!(db.stats("t").unwrap().column("a").unwrap().ndv, 10);
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
