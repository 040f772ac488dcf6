//! What a clone of the database costs, and what a write to one costs, as
//! counts: heap allocations and bytes allocated on the calling thread
//! (exact, from the counting allocator of `common/counting.rs`), over the
//! TPC-H fixture of `pass_golden.rs` — 8 tables, index-free, observed by
//! the monitor. Clone validation (DESIGN.md §9, §18) takes one such clone
//! per pass and builds every chosen candidate on it; what it costs is
//! pinned here for five operations: `try_clone`, one `create_index` on the
//! clone, one INSERT into `nation`, one UPDATE and one DELETE of `lineitem`
//! on the clone (which then holds two indexes), and a whole validated
//! `TuningSession::run`. A write is counted twice in a row: the first is
//! the first write to its table since the clone was taken. Last, what the
//! next `analyze_all` pays after a write: it recomputes the columns the
//! write changed (DESIGN.md §18).
//!
//! Tables are copy-on-write: a clone shares every table's rows, indexes
//! and statistics, so it allocates per table, the same at any scale, and
//! the first write to a table copies that table's rows. Production adopts
//! the indexes validation built on the clone instead of building them
//! again. Beside each number stands what the deep-copying clone paid.
//!
//! `cargo test -p aim-integration --test clone_counts -- --nocapture`
//! prints the table (add `--release` for the release numbers). The test
//! profile's counts include its audits, which run on the calling thread.
//! This is its own test binary because of the `#[global_allocator]` in
//! `common/counting.rs`. It holds one test, which measures in a fixed
//! order.

mod common;
#[path = "common/counting.rs"]
mod counting;

use aim_core::AimConfig;
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_storage::{Database, IndexDef, IoStats, Key, Value};
use aim_workloads::tpch;
use counting::{measure, profile};

/// The fixture at `scale` (the default is `pass_golden.rs`'s 0.002).
fn fixture(scale: f64) -> Database {
    tpch::build_database(&tpch::TpchConfig {
        scale,
        ..Default::default()
    })
}

/// Allocations and bytes of one operation, printed under its name.
fn cost(what: &str, f: impl FnOnce()) -> (u64, u64) {
    let c = measure(f);
    eprintln!("{what:<34} {:>8} allocations {:>10} bytes", c.0, c.1);
    c
}

fn lineitem_pk(orderkey: i64, linenumber: i64) -> Key {
    vec![Value::Int(orderkey), Value::Int(linenumber)]
}

#[test]
fn what_a_clone_costs() {
    a_clone_and_the_first_writes_to_it();
    try_clone_at_two_scales();
    a_validated_pass();
    analyze_after_a_write();
}

fn a_clone_and_the_first_writes_to_it() {
    let db = fixture(0.002);
    let rows: usize = db.tables().map(|t| t.row_count()).sum();
    assert_eq!((db.tables().count(), rows), (8, 17_350));

    let mut bed = None;
    let clone = cost("try_clone", || bed = Some(db.try_clone().unwrap()));
    let mut bed = bed.unwrap();
    let mut io = IoStats::new();
    let partkey = IndexDef::new("ix_l_partkey", "lineitem", vec!["l_partkey".into()]);
    let create = cost("create_index on the clone", || {
        bed.create_index(partkey, &mut io).unwrap()
    });
    let shipdate = IndexDef::new("ix_l_shipdate", "lineitem", vec!["l_shipdate".into()]);
    bed.create_index(shipdate, &mut io).unwrap();

    let nation = |key: i64| {
        vec![
            Value::Int(key),
            Value::Str(format!("NATION{key}")),
            Value::Int(0),
        ]
    };
    let (n1, n2) = (nation(90), nation(91));
    let insert = cost("INSERT nation, first write", || {
        bed.table_mut("nation")
            .unwrap()
            .insert(n1, &mut io)
            .unwrap()
    });
    let insert_again = cost("INSERT nation, again", || {
        bed.table_mut("nation")
            .unwrap()
            .insert(n2, &mut io)
            .unwrap()
    });

    // An UPDATE that moves one of the two index entries (l_partkey), not
    // the other (l_shipdate).
    let updated = |pk: &Key| {
        let lineitem = bed.table("lineitem").unwrap();
        let mut row = lineitem.pk_lookup(pk, &mut IoStats::new()).unwrap().clone();
        let partkey = lineitem.schema().column_index("l_partkey").unwrap();
        row[partkey] = Value::Int(-1);
        row
    };
    let (pk1, pk2, pk3) = (lineitem_pk(1, 1), lineitem_pk(1, 2), lineitem_pk(1, 3));
    let (r1, r2) = (updated(&pk1), updated(&pk2));
    let update = cost("UPDATE lineitem, first write", || {
        bed.table_mut("lineitem")
            .unwrap()
            .update(&pk1, r1, &mut io)
            .unwrap()
    });
    let update_again = cost("UPDATE lineitem, again", || {
        bed.table_mut("lineitem")
            .unwrap()
            .update(&pk2, r2, &mut io)
            .unwrap()
    });
    let delete = cost("DELETE lineitem", || {
        bed.table_mut("lineitem")
            .unwrap()
            .delete(&pk3, &mut io)
            .unwrap();
    });

    // Before tables were copied on write, a clone copied every row and
    // index entry, (82 222, 7 338 047 | 7 337 959 release), and no write
    // copied anything: INSERT (2, 568) then (1, 24), UPDATE (23, 2 601)
    // then (20, 1 565), DELETE (11, 751), create_index (13 099, 1 757 124).
    // Now the first write to a table copies its rows (`nation`'s 25, then
    // `lineitem`'s), and an UPDATE or DELETE computes each index entry
    // once and copies no row. A `Table` grew by its stale-column set: the
    // clone was (88, 4 496 | 4 408 release). An UPDATE looks only at the
    // indexes over a column it changed: it was (62 013, 5 800 624) then
    // (9, 744), building `l_shipdate`'s entry before and after.
    assert_eq!(clone, (88, profile(4_584, 4_496)), "try_clone");
    assert_eq!(create, (13_100, 1_755_452), "create_index");
    assert_eq!((insert, insert_again), ((82, 5_480), (1, 24)), "INSERT");
    assert_eq!(
        (update, update_again),
        ((62_011, 5_800_480), (7, 600)),
        "UPDATE"
    );
    assert_eq!(delete, (5, 265), "DELETE");
    // The source is untouched by every write to the clone.
    assert_eq!(db.table("nation").unwrap().row_count(), 25);
    let lineitem = |db: &Database| db.table("lineitem").unwrap().row_count();
    assert_eq!(lineitem(&db), lineitem(&bed) + 1);
    assert_eq!(db.all_indexes().len(), 0);
}

/// What a clone allocates at two scales of the fixture.
fn try_clone_at_two_scales() {
    let counts: Vec<(usize, u64)> = [0.001, 0.002]
        .into_iter()
        .map(|scale| {
            let db = fixture(scale);
            let rows = db.tables().map(|t| t.row_count()).sum();
            let (allocations, _) = cost(&format!("try_clone of {rows} rows"), || {
                drop(db.try_clone().unwrap())
            });
            (rows, allocations)
        })
        .collect();
    // A clone allocates per table, not per row: the same count at both
    // scales. It was one per row and value, 41 380 and 82 222.
    assert_eq!(counts, [(8_700, 88), (17_350, 88)]);
}

/// One validated pass on the fixture: selection, candidates, ranking, the
/// knapsack, clone validation and materialization on production, all on
/// the calling thread, so that every allocation is this thread's, from
/// the what-if cache the pass makes for itself.
fn a_validated_pass() {
    let mut db = fixture(0.002);
    let texts = [0xA1, 0xA2]
        .into_iter()
        .flat_map(tpch::query_texts)
        .map(|(_, sql)| sql);
    let monitor: WorkloadMonitor = common::observe(&mut db, texts);
    let selection = SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    };
    let session = AimConfig::builder().selection(selection).session();
    let mut created = 0;
    let pass = cost("validated TuningSession::run", || {
        created = session.run(&mut db, &monitor).unwrap().created.len()
    });
    // Was 6, until a column's range conjuncts became one interval: the
    // pass now also builds `aim_lineitem_l_shipdate`.
    assert_eq!(created, 7);
    // Was (415 672, 51 976 995), release (231 719, 25 182 700): the bed
    // copied every row and production built each accepted index again.
    // Now the bed shares the rows and production adopts its builds. Then
    // (301 802, 39 873 291), release (117 813, 13 076 740), until the
    // advisor read predicates with the planner's functions instead of
    // cloning every DNF atom and re-walking the AST. Then (299 582,
    // 39 693 832), release (115 593, 12 897 281), until the join read its
    // operands in place and kept its probe buffers from probe to probe.
    // Then (136 458, 24 471 048), release (79 953, 10 871 297), until
    // ranking and the replay stopped collecting per-query results to
    // merge and added each query's into the totals instead. Then
    // (136 439, 24 460 672), release (79 934, 10 860 921), until ANALYZE
    // sorted references to the values instead of copies (the test
    // profile's audit of skipped tables runs one here) and a `Table` grew
    // by its stale-column set. Then (92 195, 16 451 763), release
    // (79 934, 10 861 009), while the pass asked the process-wide cache's
    // 16 shards, each growing its own map, instead of one map of its own.
    // Then (92 174, 16 457 927), release (79 913, 10 867 173), until a
    // column's range conjuncts became one interval and the pass built and
    // validated a seventh index, `aim_lineitem_l_shipdate`. Then
    // (115 340, 19 902 125), release (98 318, 13 326 425), while the
    // session built the text of an event for every created and rejected
    // index before asking whether telemetry was on. Then (115 323,
    // 19 901 392), release (98 301, 13 325 692), while its audits ran on
    // threads of their own and re-planned only the last shared slot of
    // each what-if batch (the test profile's count depended on the
    // harness's output capture then), and ranking copied the results of
    // each of its 34 what-if calls into a second vector. Then (168 261,
    // 27 831 324), release (98 267, 13 322 220), until a full-scan join
    // level kept its rows and bucketed them by its key conjunct on its
    // second visit, and a non-covering probe bound the entry test of its
    // level once per statement. Then (168 362, 28 307 108), release
    // (98 295, 13 349 964), while a non-covering probe collected its
    // entries into a buffer before fetching their rows, and (the test
    // profile alone) a point lookup built range keys it never read.
    let expected = profile((168_291, 28_287_268), (98_265, 13_342_636));
    assert_eq!(pass, expected, "validated pass");
}

/// What `analyze_all` recomputes after one write, on the fixture: a
/// one-column UPDATE of `lineitem` recomputes that column, an INSERT into
/// `nation` every column of `nation`, and a `table_mut("orders")` handle
/// that writes nothing no column. The test profile also counts the audit
/// that recomputes the whole table after the first and the last. Runs
/// after the pass: it draws versions.
fn analyze_after_a_write() {
    let mut db = fixture(0.002);
    let mut io = IoStats::new();
    let pk = lineitem_pk(1, 1);
    let lineitem = db.table("lineitem").unwrap();
    let mut row = lineitem.pk_lookup(&pk, &mut io).unwrap().clone();
    row[lineitem.schema().column_index("l_quantity").unwrap()] = Value::Int(-1);
    db.table_mut("lineitem")
        .unwrap()
        .update(&pk, row, &mut io)
        .unwrap();
    let update = cost("analyze_all after UPDATE lineitem", || db.analyze_all());
    let nation = vec![Value::Int(90), Value::Str("NATION90".into()), Value::Int(0)];
    db.table_mut("nation")
        .unwrap()
        .insert(nation, &mut io)
        .unwrap();
    let insert = cost("analyze_all after INSERT nation", || db.analyze_all());
    db.table_mut("orders").unwrap();
    let untouched = cost("analyze_all after table_mut orders", || db.analyze_all());
    assert!(!db.stats_dirty());
    // When ANALYZE recomputed every column of a table it refreshed, and
    // scanned the table once per column, these were (36 082, 8 162 689),
    // (67, 7 202) and (6 043, 1 046 965), in both profiles. The test
    // profile counted (10, 193 538) and (6, 248) while its audits ran on
    // threads of their own.
    assert_eq!(
        (update, insert, untouched),
        (
            profile((71, 1_656_571), (4, 193_290)),
            (36, 3_588),
            profile((37, 202_801), (0, 0))
        ),
        "analyze_all after a one-column UPDATE, an INSERT, a handle that writes nothing"
    );
}
