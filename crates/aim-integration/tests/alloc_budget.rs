//! Heap-allocation budgets, counted exactly by a counting global
//! allocator. The ingest path over the Product B + TPC-H statement texts
//! (the `ingest_stream` corpus: 9 588 texts here, 76 bytes and 29 tokens on
//! average), and the executor over the TPC-H texts on a tuned database and
//! per outer row of an index join. Counts repeat exactly, unlike timings,
//! so a regression shows as a number, and the numbers before the
//! borrowed-token lexer, the streamed fingerprint and in-place exemplars
//! are kept beside each bound.
//!
//! This is its own test binary because of the `#[global_allocator]` in
//! `common/counting.rs`; the counter is thread-local, so the harness's
//! other threads do not disturb it.

mod common;
#[path = "common/counting.rs"]
mod counting;

use aim_exec::{AccessPath, Engine, EqSource, IndexChoice};
use aim_monitor::WorkloadMonitor;
use aim_sql::lexer::lex;
use aim_sql::normalize::{fingerprint, normalize_statement};
use aim_sql::{parse_statement, Select, Statement};
use aim_storage::{IndexDef, IoStats};
use aim_workloads::production;
use counting::count;

fn select(sql: &str) -> Select {
    match parse_statement(sql) {
        Ok(Statement::Select(s)) => s,
        other => panic!("{sql}: {other:?}"),
    }
}

#[test]
fn ingest_path_stays_within_its_allocation_budget() {
    let [mut lexed, mut parsed, mut fingerprinted, mut normalized, mut known] = [0u64; 5];
    let mut n = 0usize;
    // One corpus in memory at a time.
    for build in [common::product_b, common::tpch] {
        let corpus = build();
        n += corpus.texts.len();
        for (text, stmt) in corpus.texts.iter().zip(&corpus.stmts) {
            lexed += count(|| lex(text).is_ok());
            parsed += count(|| parse_statement(text).is_ok());
            fingerprinted += count(|| fingerprint(stmt));
            normalized += count(|| normalize_statement(stmt).fingerprint);
        }
        // A known template arriving with the stored exemplar's shape and
        // the stored plan: every observation is recorded twice in a row
        // and the second call counted.
        let mut monitor = WorkloadMonitor::new();
        for (i, outcome) in &corpus.observed {
            monitor.record(&corpus.stmts[*i], outcome);
            known += count(|| monitor.record(&corpus.stmts[*i], outcome));
        }
    }
    let mean = |total: u64| total as f64 / n as f64;

    eprintln!(
        "allocations per statement over {n} texts: lex {:.2}, parse_statement {:.2}, \
         fingerprint {:.2}, normalize_statement {:.2}; record of a known template {known} in all",
        mean(lexed),
        mean(parsed),
        mean(fingerprinted),
        mean(normalized),
    );
    // Was 34.29: an upper-cased copy of every word, a `String` per
    // identifier and keyword, string literals pushed a `char` at a time.
    // Now the token buffer, plus one `String` per literal holding `''`.
    assert!(mean(lexed) <= 1.1, "lex: {:.2}", mean(lexed));
    // Was 56.31: the lexer's 34 plus `peek().clone()` on every identifier.
    // What remains is the AST: its boxes, vectors and names.
    assert!(mean(parsed) <= 30.0, "parse_statement: {:.2}", mean(parsed));
    // The monitor's per-record normalization was `normalize_statement`
    // at 24.85: a second AST and its printed text.
    assert_eq!(fingerprinted, 0, "fingerprint allocates");
    // Was 24.85. First sight and `QueryStats::synthetic` still build the
    // tree, but print the text into one reserved buffer.
    assert!(
        mean(normalized) <= 22.0,
        "normalize_statement: {:.2}",
        mean(normalized)
    );
    // Was 48.63: the 24.85 above, `exemplar = stmt.clone()` at about 20
    // and a fresh `indexes_used` vector with two `String`s per index.
    assert_eq!(known, 0, "record of a known template allocates");
}

/// The executor's allocations: every TPC-H text of `common::tpch_fixture`
/// (22 templates, two parameter seeds) run on the fixture once its index
/// set exists, and the Q19 join probed per `part` row through a composite
/// `lineitem(l_partkey, l_quantity)` index. Each statement runs once
/// before it is counted, so one-time work is not in the count; the count
/// includes the result rows.
#[test]
fn executor_stays_within_its_allocation_budget() {
    let fixture = common::tpch_fixture();
    let mut db = fixture.db;
    production::apply_indexes(&mut db, &fixture.indexes);
    let engine = Engine::new();
    let selects: Vec<(String, Select)> = fixture
        .texts
        .iter()
        .map(|sql| (sql.clone(), select(sql)))
        .collect();
    let mut total = 0u64;
    for (i, (sql, select)) in selects.iter().enumerate() {
        engine
            .execute_select(&db, select)
            .unwrap_or_else(|e| panic!("{e}\n{sql}"));
        let n = count(|| engine.execute_select(&db, select).expect("ran once"));
        eprintln!(
            "  Q{:<2} seed {} {n:>7} allocations",
            i % 22 + 1,
            i / 22 + 1
        );
        total += n;
    }
    eprintln!("TPC-H 22x2 on the tuned fixture: {total} allocations");

    let composite = IndexDef::new(
        "aim_lineitem_l_partkey_l_quantity",
        "lineitem",
        vec!["l_partkey".into(), "l_quantity".into()],
    );
    db.create_index(composite.clone(), &mut IoStats::new())
        .expect("valid");
    db.analyze_all();
    let q19 = &selects[18].1;
    let plan = engine.open_select(&db, q19).expect("plans").into_plan();
    let [outer, inner] = plan.steps.as_slice() else {
        panic!("Q19 is a two-table join: {plan:?}")
    };
    assert_eq!(outer.path, AccessPath::FullScan, "{plan:?}");
    let AccessPath::IndexScan(probe) = &inner.path else {
        panic!("Q19 probes lineitem: {plan:?}")
    };
    assert_eq!(probe.index, IndexChoice::Secondary(composite.name.clone()));
    assert!(
        matches!(probe.eq.as_slice(), [EqSource::Outer(_)]),
        "{probe:?}"
    );
    let outer_rows = db.table("part").expect("exists").row_count() as u64;
    engine.execute_select(&db, q19).expect("runs");
    let join = count(|| engine.execute_select(&db, q19).expect("runs"));
    eprintln!(
        "Q19 as part(full) -> lineitem({}): {join} allocations over {outer_rows} outer rows, \
         {:.2} per outer row",
        composite.name,
        join as f64 / outer_rows as f64
    );

    // Both profiles count the same. Was 48 388, before predicates read
    // their operands in place and the join kept its probe buffers. Then
    // 15 149, until a column's range conjuncts became one interval: Q14
    // (130 -> 146 a seed) now scans its `l_shipdate` interval through the
    // fixture's `ix_l_shipdate`, and Q5 allocates one less
    // (825 -> 824 a seed). Then 15 179, until a full-scan level visited
    // twice or more bucketed its kept rows by its key conjunct (Q5, Q7
    // and Q10 one more a seed, Q9 two). Then 15 189, while a
    // non-covering probe collected its entries into a buffer of its own
    // before it fetched their rows (the table's index read hands them to
    // the probe one by one), and a full-primary-key point lookup built the
    // range keys it never read.
    assert_eq!(total, 15_119, "TPC-H 22x2");
    // Was 3 066, about 15 per outer row: every probe built its prefix,
    // its two range keys, its candidate vectors and a primary key per
    // entry afresh. Now a probe reuses the join's buffers. Then 161,
    // until the probe bound, once, the three-branch OR it tests each
    // `lineitem` entry with before fetching the row. Then 182, while the
    // probe collected its entries into a buffer before testing them.
    assert_eq!((join, outer_rows), (177, 200), "Q19 index join");
    assert!(join <= outer_rows, "more than one allocation per outer row");
}
