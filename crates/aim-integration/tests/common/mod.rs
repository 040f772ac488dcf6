//! Helpers shared by the integration tests: golden-file comparison, the
//! normalizer identity, and the statement corpora of the ingest-path tests
//! — the texts the benchmark's workloads draw from, each executed for real
//! so that `WorkloadMonitor::record` sees plans, I/O counts and costs an
//! engine produced.
//!
//! Read-only corpora are executed twice — on the index-free database and
//! again after a fixed set of indexes is created — so most templates are
//! observed under two different plans.

#![allow(dead_code)]

use aim_core::fleet::{FleetConfig, FleetOutcome, Tenant};
use aim_core::AimConfig;
use aim_exec::{Engine, ExecOutcome};
use aim_monitor::WorkloadMonitor;
use aim_sql::normalize::{fingerprint, fnv1a, normalize_statement, NormalizedQuery};
use aim_sql::{parse_statement, Statement};
use aim_storage::fault::{self, FaultPlan};
use aim_storage::{
    ColumnDef, ColumnType, Database, IndexDef, IoStats, PagerOptions, TableSchema, Value,
};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use aim_workloads::{job, production, tpch};

/// Normalizes `stmt` and checks that the three routes to its template
/// agree: the streamed fingerprint `WorkloadMonitor::record` keys on, the
/// hash of the normalized text, and the printed normalized tree. This is
/// what ties the masked renderer to `normalize_expr`.
pub fn checked_normalize(stmt: &Statement) -> NormalizedQuery {
    let norm = normalize_statement(stmt);
    assert_eq!(fingerprint(stmt), norm.fingerprint, "{stmt}");
    assert_eq!(norm.fingerprint.0, fnv1a(norm.text.as_bytes()), "{stmt}");
    assert_eq!(norm.statement.to_string(), norm.text, "{stmt}");
    norm
}

/// Compares `actual` with `tests/golden/<file>`, or rewrites the file when
/// `BLESS` is set.
pub fn assert_matches_golden(file: &str, actual: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e} (run with BLESS=1)", path.display()));
    if actual != expected {
        let diffs: Vec<String> = expected
            .lines()
            .zip(actual.lines())
            .filter(|(e, a)| e != a)
            .take(10)
            .map(|(e, a)| format!("  golden: {e}\n  actual: {a}"))
            .collect();
        panic!(
            "digests drifted from {} ({} golden lines, {} actual); first differences:\n{}",
            path.display(),
            expected.lines().count(),
            actual.lines().count(),
            diffs.join("\n")
        );
    }
}

/// Executes `texts` in order on `db` and records what succeeds.
pub fn observe(db: &mut Database, texts: impl IntoIterator<Item = String>) -> WorkloadMonitor {
    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    for sql in texts {
        let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        if let Ok(outcome) = engine.execute(db, &stmt) {
            monitor.record(&stmt, &outcome);
        }
    }
    monitor
}

/// Every entry of `table`'s index `name`, in key order, as one read of
/// the whole index hands them out.
pub fn index_entries(table: &aim_storage::Table, name: &str) -> Vec<aim_storage::Key> {
    let ix = table.index(name).unwrap();
    let all = (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded);
    let mut entries = Vec::with_capacity(ix.len());
    table.index_range(ix, all, false, &mut IoStats::new(), |e| {
        entries.push(e.key().clone());
        false
    });
    entries
}

/// A disk-backed database in `dir` (emptied first) holding `source`'s
/// tables and rows, each row its own transaction, analysed.
pub fn on_disk(source: &Database, dir: &std::path::Path) -> Database {
    let _ = std::fs::remove_dir_all(dir);
    let mut disk = Database::open_disk(dir, PagerOptions::default()).unwrap();
    let mut io = IoStats::new();
    for table in source.tables() {
        let name = &table.schema().name;
        disk.create_table(table.schema().clone()).unwrap();
        for row in table.scan_all(&mut IoStats::new()) {
            disk.table_mut(name)
                .unwrap()
                .insert(row.clone(), &mut io)
                .unwrap();
        }
    }
    disk.analyze_all();
    disk
}

/// The TPC-H fixture's 44 SELECTs (22 templates, two parameter seeds) and
/// three writes after them: an UPDATE of `orders`, an INSERT into `nation`
/// and a DELETE from `lineitem`.
pub fn tpch_texts_with_writes() -> impl Iterator<Item = String> {
    let writes = [
        "UPDATE orders SET o_totalprice = o_totalprice + 1.0 WHERE o_custkey = 7",
        "INSERT INTO nation (n_nationkey, n_name, n_regionkey) VALUES (99, 'NATION99', 0)",
        "DELETE FROM lineitem WHERE l_orderkey = 3",
    ];
    [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql)
        .chain(writes.map(String::from))
}

/// Distinct statements of one workload and what executing them produced.
pub struct Corpus {
    pub name: &'static str,
    /// SQL text of every distinct statement.
    pub texts: Vec<String>,
    /// `texts`, parsed.
    pub stmts: Vec<Statement>,
    /// Successful executions, in execution order: index into `stmts` and
    /// the outcome. A statement appears once per database state it ran on.
    pub observed: Vec<(usize, ExecOutcome)>,
}

impl Corpus {
    fn new(name: &'static str, texts: Vec<String>) -> Self {
        let stmts = texts
            .iter()
            .map(|sql| parse_statement(sql).unwrap_or_else(|e| panic!("{name}: {e}\n{sql}")))
            .collect();
        Corpus {
            name,
            texts,
            stmts,
            observed: Vec::new(),
        }
    }

    /// Executes `range` of the statements in order on `db`, keeping the
    /// outcomes of those that succeed.
    fn execute(&mut self, db: &mut Database, range: std::ops::Range<usize>) {
        let engine = Engine::new();
        for i in range {
            if let Ok(outcome) = engine.execute(db, &self.stmts[i]) {
                self.observed.push((i, outcome));
            }
        }
    }

    /// Executes every statement, creates `indexes`, executes them again.
    fn execute_before_and_after(&mut self, db: &mut Database, indexes: &[IndexDef]) {
        self.execute(db, 0..self.stmts.len());
        production::apply_indexes(db, indexes);
        self.execute(db, 0..self.stmts.len());
    }
}

fn index(name: &str, table: &str, column: &str) -> IndexDef {
    IndexDef::new(name, table, vec![column.to_string()])
}

/// What a read-only corpus is made from: its statement texts, the
/// index-free database they run on, and the fixed index set created
/// between the two executions.
pub struct Fixture {
    pub name: &'static str,
    pub texts: Vec<String>,
    pub db: Database,
    pub indexes: Vec<IndexDef>,
}

impl Fixture {
    /// Executes every statement before and after the indexes exist.
    fn observe(mut self) -> Corpus {
        let mut corpus = Corpus::new(self.name, self.texts);
        corpus.execute_before_and_after(&mut self.db, &self.indexes);
        corpus
    }
}

/// Every variant of every Product B query spec (9 544 statements over 184
/// tables), before and after the DBA oracle's indexes.
pub fn product_b_fixture() -> Fixture {
    let w = production::build(&production::profiles()[1]);
    let texts = w
        .specs
        .iter()
        .flat_map(|s| s.variants.iter().map(|v| v.to_string()))
        .collect();
    Fixture {
        name: "prodb",
        texts,
        db: w.db,
        indexes: w.dba_indexes,
    }
}

pub fn product_b() -> Corpus {
    product_b_fixture().observe()
}

/// The 22 TPC-H templates with two parameter seeds.
pub fn tpch_fixture() -> Fixture {
    let texts = [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql)
        .collect();
    let db = tpch::build_database(&tpch::TpchConfig {
        scale: 0.001,
        ..Default::default()
    });
    let indexes = vec![
        index("ix_o_custkey", "orders", "o_custkey"),
        index("ix_l_partkey", "lineitem", "l_partkey"),
        index("ix_l_suppkey", "lineitem", "l_suppkey"),
        index("ix_l_shipdate", "lineitem", "l_shipdate"),
        index("ix_c_nationkey", "customer", "c_nationkey"),
    ];
    Fixture {
        name: "tpch",
        texts,
        db,
        indexes,
    }
}

pub fn tpch() -> Corpus {
    tpch_fixture().observe()
}

/// The 30 JOB-style join queries.
pub fn job_fixture() -> Fixture {
    let texts = job::query_texts(0x10B)
        .into_iter()
        .map(|(_, sql)| sql)
        .collect();
    let db = job::build_database(&job::JobConfig {
        titles: 600,
        ..Default::default()
    });
    let indexes = vec![
        index("ix_mc_movie", "movie_companies", "movie_id"),
        index("ix_ci_movie", "cast_info", "movie_id"),
        index("ix_mi_movie", "movie_info", "movie_id"),
        index("ix_mk_movie", "movie_keyword", "movie_id"),
        index("ix_t_year", "title", "production_year"),
    ];
    Fixture {
        name: "job",
        texts,
        db,
        indexes,
    }
}

pub fn job() -> Corpus {
    job_fixture().observe()
}

/// The statement kinds of the benchmark's `disk_oltp` workload — padded
/// INSERTs, UPDATEs by key, range scans and secondary-key lookups.
pub fn oltp_texts() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0xd15c);
    let pad = "x".repeat(200);
    let insert = |id: i64, rng: &mut StdRng| {
        format!(
            "INSERT INTO orders (id, customer_id, region, amount, note) \
             VALUES ({id}, {}, {}, {}.5, '{pad}{id}')",
            rng.gen_range(0..40i64),
            rng.gen_range(0..9i64),
            rng.gen_range(0..1000i64),
        )
    };
    let mut texts: Vec<String> = (0..OLTP_ROWS).map(|id| insert(id, &mut rng)).collect();
    let mut next_id = OLTP_ROWS;
    for _ in 0..OLTP_MIX {
        texts.push(match rng.gen_range(0..10usize) {
            0 => {
                next_id += 1;
                insert(next_id - 1, &mut rng)
            }
            1 => format!(
                "UPDATE orders SET customer_id = {} WHERE id = {}",
                rng.gen_range(0..40i64),
                rng.gen_range(0..OLTP_ROWS)
            ),
            2..=4 => {
                let lo = rng.gen_range(0..OLTP_ROWS - 40);
                format!(
                    "SELECT id, amount FROM orders WHERE id >= {lo} AND id < {}",
                    lo + 40
                )
            }
            _ => format!(
                "SELECT id, amount FROM orders WHERE customer_id = {}",
                rng.gen_range(0..40i64)
            ),
        });
    }
    texts
}

const OLTP_ROWS: i64 = 300;
const OLTP_MIX: usize = 400;

/// The empty `orders` table the OLTP mix runs on.
pub fn oltp_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Float),
                ColumnDef::new("note", ColumnType::Str),
            ],
            &["id"],
        )
        .expect("valid schema"),
    )
    .expect("fresh db");
    db
}

/// The OLTP mix, with the secondary index appearing halfway through it.
pub fn oltp() -> Corpus {
    let mut corpus = Corpus::new("oltp", oltp_texts());
    let mut db = oltp_db();
    let half = OLTP_ROWS as usize + OLTP_MIX / 2;
    corpus.execute(&mut db, 0..half);
    db.create_index(
        index("ix_orders_customer", "orders", "customer_id"),
        &mut IoStats::new(),
    )
    .expect("index on an existing column");
    corpus.execute(&mut db, half..corpus.stmts.len());
    corpus
}

/// `base` with `bytes` as its storage budget — for a fleet, the budget
/// across all tenants.
pub fn with_budget(base: &AimConfig, bytes: u64) -> AimConfig {
    let mut cfg = base.clone();
    cfg.storage_budget = bytes;
    cfg
}

/// The fixed per-shard split the fleet's knapsack allocation is measured
/// against: every tenant tuned alone, as a fleet of one, under
/// `fleet_budget / n`. The tenants' outcomes are gathered in input order.
pub fn uniform_split(base: &AimConfig, fleet_budget: u64, tenants: &mut [Tenant]) -> FleetOutcome {
    let share = fleet_budget / (tenants.len() as u64).max(1);
    let mut outcome = FleetOutcome::default();
    for t in tenants {
        let session = FleetConfig::builder()
            .base(with_budget(base, share))
            .session();
        outcome
            .tenants
            .extend(session.run(std::slice::from_mut(t)).tenants);
    }
    outcome
}

/// Table `t(id, a, b)` holding rows `0..rows` with `a = id % 200` and
/// `b = id % 10`, analyzed: the continuous tuner's fixture.
pub fn t_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("b", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    insert_t_rows(&mut db, 0, rows, |i| i % 200);
    db.analyze_all();
    db
}

/// Rows `from..to` of [`t_db`]'s table with `a` from `a_of` and
/// `b = id % 10`.
pub fn insert_t_rows(db: &mut Database, from: i64, to: i64, a_of: impl Fn(i64) -> i64) {
    let mut io = IoStats::new();
    for i in from..to {
        db.table_mut("t")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(a_of(i)), Value::Int(i % 10)],
                &mut io,
            )
            .unwrap();
    }
}

/// Table `orders(id, customer, region)` holding `rows` rows with
/// `customer = id % 300` and `region = id % 12`, analyzed: the fleet's
/// tenant fixture.
pub fn orders_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut io = IoStats::new();
    for i in 0..rows {
        db.table_mut("orders")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 300), Value::Int(i % 12)],
                &mut io,
            )
            .unwrap();
    }
    db.analyze_all();
    db
}

/// Four [`orders_db`] tenants, each observed running `customer = 42` six
/// times, tuned under `base` as a fleet on one worker with one injected
/// what-if failure during the probe: the fleet's first what-if call, so
/// tenant-0's. The caller holds the fault lock. Returns the outcome and
/// the tenants.
pub fn fleet_with_one_probe_fault(base: AimConfig) -> (FleetOutcome, Vec<Tenant>) {
    let mut tenants: Vec<Tenant> = (0..4)
        .map(|i| {
            let mut t = Tenant::new(format!("tenant-{i}"), orders_db(3000 + 500 * i));
            let texts = vec!["SELECT id FROM orders WHERE customer = 42".to_string(); 6];
            t.monitor = observe(&mut t.db, texts);
            t
        })
        .collect();
    fault::arm(FaultPlan::new(7).fail("exec.whatif", 0, 1));
    let outcome = FleetConfig::builder()
        .base(base)
        .fleet_workers(1)
        .session()
        .run(&mut tenants);
    let log = fault::disarm();
    assert_eq!(log.len(), 1, "exactly the planned fault fires: {log:?}");
    (outcome, tenants)
}
