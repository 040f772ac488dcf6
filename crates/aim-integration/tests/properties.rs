//! Randomized property tests over the core invariants.
//!
//! Each test draws a few hundred cases from the deterministic in-tree
//! PRNG (`aim_workloads::rng`) with a fixed seed, so failures are exactly
//! reproducible while still sweeping a wide input space.

mod common;

use aim_core::partial_order::{merge_partial_orders, PartialOrder};
use aim_core::{
    generate_candidates, knapsack_select, refine_selection, try_rank_candidates_with,
    validate_on_clone, CandidateGenConfig, CandidateIndex, RankedCandidate, RejectReason, RunCtl,
    ValidationConfig,
};
use aim_exec::{AccessPath, Engine, ExecOutcome, WhatIfCache};
use aim_monitor::{select_workload, QueryStats, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_sql::lexer::{lex, Token};
use aim_sql::normalize::normalize_statement;
use aim_sql::parse_statement;
use aim_storage::{
    ColumnDef, ColumnType, Database, Histogram, IndexDef, IoStats, RangeKeys, Row, TableSchema,
    Value,
};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;
use std::ops::Bound;

// ---------------------------------------------------------- partial orders

/// A random partial order over a subset of col0..col5: 1–3 disjoint
/// unordered partitions of 1–3 columns each.
fn random_partial_order(rng: &mut StdRng) -> PartialOrder {
    random_partial_order_over(rng, &[0, 1, 2, 3, 4, 5])
}

/// [`random_partial_order`] over the given column numbers.
fn random_partial_order_over(rng: &mut StdRng, columns: &[usize]) -> PartialOrder {
    let n_parts = rng.gen_range(1..=3usize);
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let mut parts: Vec<Vec<String>> = Vec::new();
    for _ in 0..n_parts {
        let part_size = rng.gen_range(1..=3usize);
        let mut fresh = Vec::new();
        for _ in 0..part_size {
            let c = columns[rng.gen_range(0..columns.len())];
            if seen.insert(c) {
                fresh.push(format!("col{c:03}"));
            }
        }
        if !fresh.is_empty() {
            parts.push(fresh);
        }
    }
    if parts.is_empty() {
        parts.push(vec![format!(
            "col{:03}",
            columns[rng.gen_range(0..columns.len())]
        )]);
    }
    PartialOrder::new(parts).expect("disjoint by construction")
}

/// Order sets for the differential tests: `orders` random partial orders
/// over seven columns of a `width`-column table — the first, the last and
/// those either side of a 64-column boundary among them — and the table's
/// other columns in unordered runs of sixteen, which merge with nothing but
/// make the table's bitsets `width` bits wide: one word up to 64 columns,
/// two or three beyond.
fn random_order_set(rng: &mut StdRng, width: usize, orders: usize) -> Vec<PartialOrder> {
    let mut pool: BTreeSet<usize> = [0, width - 1].into();
    pool.extend([63, 64, 127, 128].into_iter().filter(|c| *c < width));
    while pool.len() < 7.min(width) {
        pool.insert(rng.gen_range(0..width));
    }
    let rest: Vec<String> = (0..width)
        .filter(|c| !pool.contains(c))
        .map(|c| format!("col{c:03}"))
        .collect();
    let pool: Vec<usize> = pool.into_iter().collect();
    let mut set: Vec<PartialOrder> = (0..orders)
        .map(|_| random_partial_order_over(rng, &pool))
        .collect();
    set.extend(
        rest.chunks(16)
            .map(|run| PartialOrder::new([run.to_vec()]).expect("distinct")),
    );
    set
}

/// `MergeCandidatesPairwise` over string sets, as it was written before the
/// rule moved to column bitsets: the reference the compact rule is held to.
fn reference_merge_pairwise(p: &PartialOrder, q: &PartialOrder) -> Option<PartialOrder> {
    let (p_cols, q_cols) = (p.columns(), q.columns());
    if !p_cols.is_subset(&q_cols) {
        return None;
    }
    // Conflict within P×P: a ≺_P b but b ≺_Q a.
    for a in &p_cols {
        for b in &p_cols {
            if p.precedes(a, b) && q.precedes(b, a) {
                return None;
            }
        }
    }
    // Strengthened check: Q must not order a leftover column before any
    // column of P.
    for b in q_cols.difference(&p_cols) {
        if p_cols.iter().any(|a| q.precedes(b, a)) {
            return None;
        }
    }
    let q_rank = |c: &String| q.partitions().iter().position(|part| part.contains(c));
    let mut partitions: Vec<BTreeSet<String>> = Vec::new();
    for part in p.partitions() {
        let mut keyed: Vec<(Option<usize>, &String)> =
            part.iter().map(|c| (q_rank(c), c)).collect();
        keyed.sort();
        let mut current = None;
        for (rank, c) in keyed {
            if current != Some(rank) {
                partitions.push(BTreeSet::new());
                current = Some(rank);
            }
            partitions
                .last_mut()
                .expect("pushed above")
                .insert(c.clone());
        }
    }
    for part in q.partitions() {
        let leftover: BTreeSet<String> = part.difference(&p_cols).cloned().collect();
        if !leftover.is_empty() {
            partitions.push(leftover);
        }
    }
    PartialOrder::new(partitions)
}

/// `MergePartialOrders` as it was written before the closure became
/// semi-naive: every pair of a snapshot, round after round, ascending.
fn reference_closure(orders: &[PartialOrder]) -> Vec<PartialOrder> {
    let mut set: BTreeSet<PartialOrder> = orders.iter().cloned().collect();
    loop {
        let snapshot: Vec<PartialOrder> = set.iter().cloned().collect();
        let mut grew = false;
        for a in &snapshot {
            for b in &snapshot {
                if a != b {
                    if let Some(m) = reference_merge_pairwise(a, b) {
                        grew |= set.insert(m);
                    }
                }
            }
        }
        if !grew {
            return set.into_iter().collect();
        }
    }
}

fn po(parts: &[&[&str]]) -> PartialOrder {
    PartialOrder::new(parts.iter().map(|p| p.iter().copied())).expect("disjoint")
}

/// The merge rule over column bitsets agrees with the string-set reference
/// on the paper's worked example, the conflict cases, and random pairs on
/// tables of one, two and three bitset words.
#[test]
fn compact_merge_rule_equals_the_string_set_reference() {
    let cases = [
        // §III-E: <{col2, col3}> into <{col1, col2, col3}>, and back.
        (po(&[&["col2", "col3"]]), po(&[&["col1", "col2", "col3"]])),
        (po(&[&["col1", "col2", "col3"]]), po(&[&["col2", "col3"]])),
        // P says a before b; Q says b before a.
        (po(&[&["a"], &["b"]]), po(&[&["b"], &["a"], &["c"]])),
        // Q orders a leftover column before a column of P, and after.
        (po(&[&["a", "b"]]), po(&[&["c"], &["a", "b"]])),
        (po(&[&["a", "b"]]), po(&[&["a", "b"], &["c"]])),
        // Q's order refines an unordered partition of P.
        (po(&[&["a", "b"]]), po(&[&["a"], &["b"], &["c"]])),
        (po(&[]), po(&[&["a"], &["b"]])),
    ];
    assert_eq!(
        cases[0].0.merge_pairwise(&cases[0].1),
        Some(po(&[&["col2", "col3"], &["col1"]])),
        "the paper's example"
    );
    for (p, q) in &cases {
        assert_eq!(
            p.merge_pairwise(q),
            reference_merge_pairwise(p, q),
            "{p} into {q}"
        );
    }

    let mut rng = StdRng::seed_from_u64(0xB175);
    let mut merged = 0;
    for case in 0..120 {
        let width = [6, 70, 130][case % 3];
        let set = random_order_set(&mut rng, width, 8);
        for p in &set {
            for q in &set {
                let m = p.merge_pairwise(q);
                assert_eq!(m, reference_merge_pairwise(p, q), "{p} into {q}");
                merged += usize::from(m.is_some() && p != q);
            }
        }
    }
    assert!(
        merged > 200,
        "degenerate sweep: {merged} merges of distinct orders"
    );
}

/// The semi-naive closure over column bitsets reaches the reference's fixed
/// point, in the reference's order — so `CompactOrder`'s `Ord` is
/// `PartialOrder`'s — however many words a bitset takes.
#[test]
fn compact_closure_equals_the_naive_reference() {
    let mut rng = StdRng::seed_from_u64(0xC105E);
    let mut grown = 0;
    for case in 0..60 {
        let width = [6, 65, 97, 130][case % 4];
        let n = rng.gen_range(3..=10usize);
        let orders = random_order_set(&mut rng, width, n);
        let closed = merge_partial_orders(&orders);
        assert_eq!(
            closed,
            reference_closure(&orders),
            "width {width}: {orders:?}"
        );
        assert!(
            closed.windows(2).all(|w| w[0] < w[1]),
            "ascending and distinct"
        );
        let distinct: BTreeSet<&PartialOrder> = orders.iter().collect();
        grown += closed.len() - distinct.len();
    }
    assert!(grown > 40, "degenerate sweep: {grown} merged orders");
}

#[test]
fn merge_result_satisfies_both_inputs() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..300 {
        let p = random_partial_order(&mut rng);
        let q = random_partial_order(&mut rng);
        let Some(m) = p.merge_pairwise(&q) else {
            continue;
        };
        // Same column set as Q.
        assert_eq!(m.columns(), q.columns());
        let total = m.total_order_by(|c| c.to_string());
        assert!(m.is_satisfied_by(&total));
        // P's columns form a prefix of the merged order.
        let p_cols = p.columns();
        let prefix: BTreeSet<String> = total[..p_cols.len()].iter().cloned().collect();
        assert_eq!(prefix, p_cols);
        // Pairwise orderings of both inputs are respected.
        for a in &p_cols {
            for b in &p_cols {
                if p.precedes(a, b) {
                    assert!(!m.precedes(b, a), "merge broke {a} < {b} from P");
                }
            }
        }
        let q_cols = q.columns();
        for a in &q_cols {
            for b in &q_cols {
                if q.precedes(a, b) {
                    assert!(!m.precedes(b, a), "merge broke {a} < {b} from Q");
                }
            }
        }
    }
}

#[test]
fn merge_with_self_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for _ in 0..300 {
        let p = random_partial_order(&mut rng);
        let m = p.merge_pairwise(&p).expect("self-merge always allowed");
        assert_eq!(m, p);
    }
}

#[test]
fn merge_closure_terminates_and_contains_inputs() {
    let mut rng = StdRng::seed_from_u64(0xC10);
    for _ in 0..100 {
        let orders: Vec<PartialOrder> = (0..rng.gen_range(1..=4usize))
            .map(|_| random_partial_order(&mut rng))
            .collect();
        let merged = merge_partial_orders(&orders);
        for o in &orders {
            assert!(merged.contains(o), "closure lost an input order");
        }
        // Fixed point: merging again adds nothing.
        let again = merge_partial_orders(&merged);
        assert_eq!(again.len(), merged.len());
    }
}

#[test]
fn total_order_always_satisfies() {
    let mut rng = StdRng::seed_from_u64(0xD0);
    for _ in 0..300 {
        let p = random_partial_order(&mut rng);
        let total = p.total_order_by(|c| c.to_string());
        assert!(p.is_satisfied_by(&total));
        assert_eq!(total.len(), p.width());
    }
}

// ------------------------------------------------------------- normalizer

fn random_ident(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=8usize);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

#[test]
fn fingerprint_invariant_under_literals() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    let f2 = normalize_statement(
        &parse_statement("SELECT id FROM t WHERE x = 0 AND y > 0 AND z = 'zz'").expect("valid"),
    )
    .fingerprint;
    for _ in 0..200 {
        let a = rng.gen_range(0..1000i64);
        let b = rng.gen_range(0..1000i64);
        let s = random_ident(&mut rng);
        let q1 = format!("SELECT id FROM t WHERE x = {a} AND y > {b} AND z = '{s}'");
        let stmt = parse_statement(&q1).expect("valid");
        common::checked_normalize(&stmt);
        let f1 = normalize_statement(&stmt).fingerprint;
        assert_eq!(f1, f2, "literals changed the fingerprint: {q1}");
    }
}

#[test]
fn parse_display_roundtrip_stable() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    for _ in 0..200 {
        let a = rng.gen_range(0..100i64);
        let b = rng.gen_range(0..100i64);
        let sql = format!(
            "SELECT x, COUNT(*) FROM t WHERE a = {a} AND (b > {b} OR c IN (1, 2)) \
             GROUP BY x ORDER BY x ASC LIMIT 5"
        );
        let stmt = parse_statement(&sql).expect("valid");
        common::checked_normalize(&stmt);
        let reparsed = parse_statement(&stmt.to_string()).expect("display is parseable");
        assert_eq!(stmt, reparsed);
    }
}

// ------------------------------------------------------------- histograms

#[test]
fn histogram_mass_conserved() {
    let mut rng = StdRng::seed_from_u64(0x41);
    for _ in 0..150 {
        let n = rng.gen_range(1..300usize);
        let mut values: Vec<i64> = (0..n).map(|_| rng.gen_range(-500..500i64)).collect();
        values.sort();
        let vals: Vec<Value> = values.iter().map(|v| Value::Int(*v)).collect();
        let h = Histogram::build(&vals, 16);
        assert_eq!(h.total(), vals.len() as u64);
        // Full-range estimate recovers (approximately) everything.
        let est = h.estimate_range(Bound::Unbounded, Bound::Unbounded);
        assert!((est - vals.len() as f64).abs() < 1.0 + vals.len() as f64 * 0.1);
    }
}

#[test]
fn histogram_eq_estimate_bounded() {
    let mut rng = StdRng::seed_from_u64(0x42);
    for _ in 0..150 {
        let n = rng.gen_range(1..200usize);
        let mut values: Vec<i64> = (0..n).map(|_| rng.gen_range(0..50i64)).collect();
        values.sort();
        let probe = rng.gen_range(0..50i64);
        let vals: Vec<Value> = values.iter().map(|v| Value::Int(*v)).collect();
        let h = Histogram::build(&vals, 8);
        let est = h.estimate_eq(&Value::Int(probe));
        assert!(est >= 0.0);
        assert!(est <= vals.len() as f64);
    }
}

// ------------------------------------- executor: index/scan equivalence

fn int_table(rng: &mut StdRng, columns: &[&str], max_rows: usize, domain: i64) -> Database {
    table_of(rng, columns, max_rows, |rng| {
        Value::Int(rng.gen_range(0..domain))
    })
}

/// A table `t(id, columns..)` of 1..=`max_rows` rows whose cells `cell`
/// draws, analyzed.
fn table_of(
    rng: &mut StdRng,
    columns: &[&str],
    max_rows: usize,
    mut cell: impl FnMut(&mut StdRng) -> Value,
) -> Database {
    let mut defs = vec![ColumnDef::new("id", ColumnType::Int)];
    defs.extend(columns.iter().map(|c| ColumnDef::new(*c, ColumnType::Int)));
    let mut db = Database::new();
    db.create_table(TableSchema::new("t", defs, &["id"]).expect("valid"))
        .expect("fresh");
    let mut io = IoStats::new();
    let n = rng.gen_range(1..=max_rows);
    for i in 0..n {
        let mut row = vec![Value::Int(i as i64)];
        for _ in columns {
            row.push(cell(rng));
        }
        db.table_mut("t")
            .expect("exists")
            .insert(row, &mut io)
            .expect("unique");
    }
    db.analyze_all();
    db
}

/// Runs `SELECT id, a, b, c FROM t WHERE <predicates>` on `db`, builds an
/// index on one or two columns drawn from `cols`, runs it again and asserts
/// equal rows. Returns the scan's rows, sorted.
fn index_equals_scan(
    rng: &mut StdRng,
    mut db: Database,
    cols: &[&str],
    predicates: &[String],
) -> Vec<Row> {
    let engine = Engine::new();
    let sql = format!(
        "SELECT id, a, b, c FROM t WHERE {}",
        predicates.join(" AND ")
    );
    let stmt = parse_statement(&sql).expect("valid");

    let mut base = engine.execute(&mut db, &stmt).expect("executes").rows;
    base.sort();

    let index_cols: BTreeSet<&str> = (0..rng.gen_range(1..=2usize))
        .map(|_| cols[rng.gen_range(0..cols.len())])
        .collect();
    let cols_v: Vec<String> = index_cols.iter().map(|s| s.to_string()).collect();
    let mut io = IoStats::new();
    db.create_index(IndexDef::new("ix", "t", cols_v), &mut io)
        .expect("valid index");
    db.analyze_all();
    let mut indexed = engine.execute(&mut db, &stmt).expect("executes").rows;
    indexed.sort();

    assert_eq!(base, indexed, "index changed results for {sql}");
    base
}

#[test]
fn indexed_execution_equals_scan() {
    let cols = ["a", "b", "c"];
    let ops = ["=", ">", "<", ">=", "<="];
    let mut rng = StdRng::seed_from_u64(0x5EEC);
    for _ in 0..64 {
        let db = int_table(&mut rng, &cols, 120, 30);
        let n_preds = rng.gen_range(1..=2usize);
        let where_clause: Vec<String> = (0..n_preds)
            .map(|_| {
                format!(
                    "{} {} {}",
                    cols[rng.gen_range(0..cols.len())],
                    ops[rng.gen_range(0..ops.len())],
                    rng.gen_range(0..30i64)
                )
            })
            .collect();
        index_equals_scan(&mut rng, db, &cols, &where_clause);
    }

    // NULL cells under the NULL-aware operators: `IS NULL`, `<=> NULL`
    // and `<=> v` select by an index probe, `= NULL` selects nothing with
    // or without an index, `IS NOT NULL` is left to the residual filter.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..64 {
        let db = table_of(&mut rng, &cols, 120, |rng| {
            if rng.gen_range(0..4u32) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..10i64))
            }
        });
        let n_preds = rng.gen_range(1..=2usize);
        let where_clause: Vec<String> = (0..n_preds)
            .map(|_| {
                let col = cols[rng.gen_range(0..cols.len())];
                match rng.gen_range(0..6u32) {
                    0 => format!("{col} IS NULL"),
                    1 => format!("{col} IS NOT NULL"),
                    2 => format!("{col} <=> NULL"),
                    3 => format!("{col} = NULL"),
                    4 => format!("{col} <=> {}", rng.gen_range(0..10i64)),
                    _ => format!("{col} > {}", rng.gen_range(0..10i64)),
                }
            })
            .collect();
        let rows = index_equals_scan(&mut rng, db, &cols, &where_clause);
        if where_clause.iter().any(|p| p.contains(" = NULL")) {
            assert!(rows.is_empty(), "`= NULL` selected rows: {where_clause:?}");
        }
    }

    // Two range conjuncts on one column: every pair of `>`, `>=`, `<`,
    // `<=` in both orders, with bounds that cross, touch and nest, `Int`
    // and `Float` literals over `Int`, `Float` and NULL cells; on the
    // primary key, on an index's first key column and on its second after
    // an equality; on both backends. The reference is the same query with
    // each column behind `+ 0`, which no index serves.
    let dir = std::env::temp_dir().join(format!("aim-prop-ranges-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dbs = [
        Database::new(),
        Database::open_disk(&dir, aim_storage::PagerOptions::default()).unwrap(),
    ];
    let ops = [">", ">=", "<", "<="];
    let engine = Engine::new();
    for (backend, mut db) in ["memory", "disk"].into_iter().zip(dbs) {
        let mut rng = StdRng::seed_from_u64(0x2A2A);
        mixed_table(&mut db, &mut rng, "t", &[("a", 24), ("b", 4)], 600..=600);
        let mut io = IoStats::new();
        for (name, columns) in [("ix_a", &["a"][..]), ("ix_ba", &["b", "a"])] {
            let columns = columns.iter().map(|c| c.to_string()).collect();
            db.create_index(IndexDef::new(name, "t", columns), &mut io)
                .expect("valid index");
        }
        db.analyze_all();
        // (projection, equality on `b` first, column, bounds, index the
        // range is meant to run on)
        let targets = [
            (
                "id, a, b",
                false,
                "id",
                ["120", "120.0", "131.5", "160"],
                "PRIMARY",
            ),
            ("id, a", false, "a", ["6", "6.0", "9.5", "14"], "ix_a"),
            ("id, a, b", true, "a", ["6", "6.0", "9.5", "14"], "ix_ba"),
        ];
        for (projection, on_b, col, bounds, index) in targets {
            let (mut cases, mut probed) = (0, 0);
            for (op1, op2) in ops.iter().flat_map(|x| ops.iter().map(move |y| (x, y))) {
                for (x, y) in bounds
                    .iter()
                    .flat_map(|x| bounds.iter().map(move |y| (x, y)))
                {
                    let query = |hide: &str| {
                        let eq = if on_b {
                            format!("b{hide} = 2 AND ")
                        } else {
                            String::new()
                        };
                        format!(
                            "SELECT {projection} FROM t WHERE {eq}{col}{hide} {op1} {x} \
                             AND {col}{hide} {op2} {y}"
                        )
                    };
                    let (sql, reference) = (query(""), query(" + 0"));
                    let mut run = |sql: &str| {
                        let stmt = parse_statement(sql).expect("valid");
                        engine.execute(&mut db, &stmt).expect("executes")
                    };
                    let mut expected = run(&reference).rows;
                    expected.sort();
                    let outcome = run(&sql);
                    probed += usize::from(matches!(&outcome.plan.steps[0].path,
                        AccessPath::IndexScan(ix)
                            if ix.range.is_some() && ix.index.label() == index));
                    cases += 1;
                    let mut rows = outcome.rows;
                    rows.sort();
                    assert_eq!(expected, rows, "{backend}: {sql}");
                }
            }
            // The oracle is about range scans: most cases must run one.
            assert!(
                probed * 2 > cases,
                "{backend}: only {probed} of {cases} cases ranged over {index}"
            );
        }
        // Over integers, a half-open pair is the closed interval it names:
        // the same rows read and the same I/O charged, in either order.
        for (lo, hi) in [(120, 160), (0, 40), (580, 600), (300, 301)] {
            let mut run = |filter: String| {
                let stmt = parse_statement(&format!("SELECT id, a, b FROM t WHERE {filter}"))
                    .expect("valid");
                // The second run reads a warm buffer pool.
                engine.execute(&mut db, &stmt).expect("executes");
                engine.execute(&mut db, &stmt).expect("executes")
            };
            let closed = run(format!("id BETWEEN {lo} AND {}", hi - 1));
            for filter in [
                format!("id >= {lo} AND id < {hi}"),
                format!("id < {hi} AND id >= {lo}"),
            ] {
                let half_open = run(filter.clone());
                assert_eq!(half_open.io, closed.io, "{backend}: {filter}");
                assert_eq!(half_open.rows, closed.rows, "{backend}: {filter}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A range whose bounds cross (`BETWEEN 10 AND 5`) scans nothing: through
/// the primary key, an index's first key column and its second after an
/// equality, on both backends, and it charges what a probe between two
/// stored keys charges, which finds nothing either.
#[test]
fn an_empty_interval_scans_nothing() {
    let dir = std::env::temp_dir().join(format!("aim-prop-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dbs = [
        Database::new(),
        Database::open_disk(&dir, aim_storage::PagerOptions::default()).unwrap(),
    ];
    let engine = Engine::new();
    for (backend, mut db) in ["memory", "disk"].into_iter().zip(dbs) {
        let defs = ["id", "a", "b"].map(|c| ColumnDef::new(c, ColumnType::Int));
        db.create_table(TableSchema::new("t", defs.to_vec(), &["id"]).expect("valid"))
            .expect("fresh");
        let mut io = IoStats::new();
        for i in 0..2_000i64 {
            let row = vec![Value::Int(i), Value::Int(i % 50), Value::Int(i % 20)];
            db.table_mut("t")
                .expect("exists")
                .insert(row, &mut io)
                .expect("unique");
        }
        let columns = vec!["a".to_string(), "b".to_string()];
        db.create_index(IndexDef::new("ix_ab", "t", columns), &mut io)
            .expect("valid index");
        db.analyze_all();
        // (empty interval, an interval between stored keys, its index)
        let cases = [
            (
                "id BETWEEN 10 AND 5",
                "id BETWEEN 10.25 AND 10.5",
                "PRIMARY",
            ),
            ("a BETWEEN 10 AND 5", "a BETWEEN 10.25 AND 10.5", "ix_ab"),
            (
                "a = 1 AND b BETWEEN 10 AND 5",
                "a = 1 AND b BETWEEN 10.25 AND 10.5",
                "ix_ab",
            ),
        ];
        for (empty, between, index) in cases {
            // Twice each, so that both read a warm buffer pool.
            let mut run = |filter: &str| {
                let stmt = parse_statement(&format!("SELECT id, a, b FROM t WHERE {filter}"))
                    .expect("valid");
                engine.execute(&mut db, &stmt).expect("executes");
                engine.execute(&mut db, &stmt).expect("executes")
            };
            let (empty_run, between_run) = (run(empty), run(between));
            for (filter, outcome) in [(empty, &empty_run), (between, &between_run)] {
                assert!(
                    matches!(&outcome.plan.steps[0].path, AccessPath::IndexScan(ix)
                        if ix.range.is_some() && ix.index.label() == index),
                    "{backend}: {filter} ranges over {index}"
                );
                assert!(outcome.rows.is_empty(), "{backend}: {filter}");
            }
            assert_eq!(empty_run.io, between_run.io, "{backend}: {empty}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table `name(id, columns..)` of `rows` rows; a fifth of the cells are
/// NULL, the rest `Int` or `Float` below the column's bound, a quarter of
/// the floats off the integers. A 200-byte `pad` column makes the rows wide
/// enough for an index probe to beat a scan.
fn mixed_table(
    db: &mut Database,
    rng: &mut StdRng,
    name: &str,
    columns: &[(&str, i64)],
    rows: std::ops::RangeInclusive<usize>,
) {
    let mut defs = vec![ColumnDef::new("id", ColumnType::Int)];
    defs.extend(
        columns
            .iter()
            .map(|(c, _)| ColumnDef::new(*c, ColumnType::Int)),
    );
    defs.push(ColumnDef::new("pad", ColumnType::Str));
    db.create_table(TableSchema::new(name, defs, &["id"]).expect("valid"))
        .expect("fresh");
    let mut io = IoStats::new();
    for i in 0..rng.gen_range(rows) {
        let mut row = vec![Value::Int(i as i64)];
        for (_, bound) in columns {
            let v = rng.gen_range(0..*bound);
            row.push(match rng.gen_range(0..10u32) {
                0 | 1 => Value::Null,
                2 | 3 => Value::Float(v as f64),
                4 => Value::Float(v as f64 + 0.5),
                _ => Value::Int(v),
            });
        }
        row.push(Value::Str("p".repeat(200)));
        db.table_mut(name)
            .expect("exists")
            .insert(row, &mut io)
            .expect("unique");
    }
}

/// Two tables joined on `o.k = i.k`, run without indexes and then with one
/// on each join column, so that the table bound second is probed through
/// an index per row of the first (an index join, `EqSource::Outer`): on
/// the join column alone, behind an IN-list and before a range on a
/// composite index, under column-vs-column comparisons, over NULL cells
/// and mixed `Int`/`Float` values. The result multiset is the scan's.
#[test]
fn index_join_equals_nested_scan() {
    use aim_exec::EqSource;
    let inner_indexes: [&[&str]; 5] = [
        &["k"],
        &["k", "a"],
        &["k", "b"],
        &["a", "k", "b"],
        &["k", "a", "b"],
    ];
    let engine = Engine::new();
    // Join keys selective enough for a probe to pay; a few values for the
    // IN-lists, ranges and comparisons to hit.
    const KEYS: i64 = 120;
    const VALUES: i64 = 12;
    let mut rng = StdRng::seed_from_u64(0x101E);
    let mut probed = 0;
    let cases = 96;
    for _ in 0..cases {
        let mut db = Database::new();
        mixed_table(
            &mut db,
            &mut rng,
            "o",
            &[("k", KEYS), ("x", VALUES)],
            150..=300,
        );
        let inner = [("k", KEYS), ("a", VALUES), ("b", VALUES)];
        mixed_table(&mut db, &mut rng, "i", &inner, 200..=400);
        db.analyze_all();

        let mut predicates = vec!["o.k = i.k".to_string()];
        let v = |rng: &mut StdRng| rng.gen_range(0..VALUES);
        if rng.gen_range(0..2u32) == 0 {
            let mut list: Vec<String> = (0..rng.gen_range(1..=3usize))
                .map(|_| v(&mut rng).to_string())
                .collect();
            if rng.gen_range(0..4u32) == 0 {
                list.push("NULL".into());
            }
            predicates.push(format!("i.a IN ({})", list.join(", ")));
        }
        match rng.gen_range(0..3u32) {
            0 => predicates.push(format!("i.b > {}", v(&mut rng))),
            1 => {
                let lo = v(&mut rng);
                let hi = lo + rng.gen_range(0..4i64);
                predicates.push(format!("i.b BETWEEN {lo} AND {hi}"));
            }
            _ => {}
        }
        let comparisons = ["o.x < i.a", "i.a <> i.b", "o.x <= i.b", "o.x = i.a"];
        for _ in 0..rng.gen_range(0..=2usize) {
            predicates.push(comparisons[rng.gen_range(0..comparisons.len())].to_string());
        }
        let sql = format!(
            "SELECT o.id, i.id, o.x, i.k, i.a, i.b FROM o, i WHERE {}",
            predicates.join(" AND ")
        );
        let stmt = parse_statement(&sql).expect("valid");
        let mut base = engine.execute(&mut db, &stmt).expect("executes").rows;
        base.sort();

        let mut io = IoStats::new();
        let columns = inner_indexes[rng.gen_range(0..inner_indexes.len())];
        let def = IndexDef::new("ix_i", "i", columns.iter().map(|c| c.to_string()).collect());
        db.create_index(def, &mut io).expect("valid index");
        let outer_columns = [&["k"][..], &["k", "x"]][rng.gen_range(0..2usize)];
        let def = IndexDef::new(
            "ix_o",
            "o",
            outer_columns.iter().map(|c| c.to_string()).collect(),
        );
        db.create_index(def, &mut io).expect("valid index");
        db.analyze_all();
        let outcome = engine.execute(&mut db, &stmt).expect("executes");
        let outer_probe = outcome.plan.steps.iter().any(|step| {
            matches!(&step.path, AccessPath::IndexScan(ix)
                if ix.eq.iter().any(|e| matches!(e, EqSource::Outer(_))))
        });
        probed += usize::from(outer_probe);
        let mut indexed = outcome.rows;
        indexed.sort();
        assert_eq!(
            base, indexed,
            "indexes changed results for {sql} on {columns:?}"
        );
    }
    // The oracle is about index joins: most cases must run one.
    assert!(
        probed * 2 > cases,
        "only {probed} of {cases} cases probed an index per outer row"
    );
}

#[test]
fn or_predicates_unchanged_by_indexes() {
    // Single-table OR: with per-branch indexes the planner may pick an
    // index-merge union; results must match the plain scan.
    let mut rng = StdRng::seed_from_u64(0x0A);
    let engine = Engine::new();
    for _ in 0..64 {
        let mut db = int_table(&mut rng, &["a", "b"], 100, 20);
        let (v1, v2, v3) = (
            rng.gen_range(0..20i64),
            rng.gen_range(0..20i64),
            rng.gen_range(0..20i64),
        );
        let sql = format!("SELECT id FROM t WHERE (a = {v1} AND b = {v2}) OR b = {v3}");
        let stmt = parse_statement(&sql).expect("valid");
        let mut base = engine.execute(&mut db, &stmt).expect("executes").rows;
        base.sort();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .expect("valid");
        db.create_index(IndexDef::new("ix_b", "t", vec!["b".into()]), &mut io)
            .expect("valid");
        db.analyze_all();
        let mut indexed = engine.execute(&mut db, &stmt).expect("executes").rows;
        indexed.sort();
        assert_eq!(base, indexed);
    }
}

#[test]
fn order_by_limit_agrees_with_full_sort() {
    let mut rng = StdRng::seed_from_u64(0x0B);
    let engine = Engine::new();
    for _ in 0..64 {
        let mut db = int_table(&mut rng, &["a", "b"], 100, 50);
        let limit = rng.gen_range(1..20usize);
        let sql = format!("SELECT a, id FROM t ORDER BY a LIMIT {limit}");
        let stmt = parse_statement(&sql).expect("valid");
        let plain = engine.execute(&mut db, &stmt).expect("executes").rows;
        // With an order-providing index: early-termination path.
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .expect("valid index");
        db.analyze_all();
        let fast = engine.execute(&mut db, &stmt).expect("executes").rows;
        // `a` values must match position-wise (ties may reorder ids).
        assert_eq!(plain.len(), fast.len());
        for (p, f) in plain.iter().zip(&fast) {
            assert_eq!(&p[0], &f[0]);
        }
    }
}

/// Single-table `ORDER BY x LIMIT k` over random ranges of a secondary
/// index `(x)` and of the primary key, on the memory and the disk backend:
/// covering, non-covering, and non-covering with a conjunct the index
/// entry answers (`id + 0 > t`). Both backends return the rows a sort of
/// the matching rows by `(x, id)` gives, cut at `k`. A plan that reads
/// the index in order and stops examines each entry it consumed once (and
/// looks up its row when the index does not cover the query): its entries
/// run up to the one that produced the `k`-th row, all of them when fewer
/// match, and to the first match under `LIMIT 0`.
#[test]
fn streamed_limits_read_the_same_rows_on_both_backends() {
    let dir = std::env::temp_dir().join(format!("aim-prop-stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut mem = Database::new();
    let mut disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    let mut rng = StdRng::seed_from_u64(0x5713);
    let schema = TableSchema::new(
        "c",
        ["id", "x", "y"]
            .map(|c| ColumnDef::new(c, ColumnType::Int))
            .into(),
        &["id"],
    )
    .unwrap();
    let mut rows: Vec<[i64; 3]> = (0..1_500)
        .map(|id| [id, rng.gen_range(0..300i64), rng.gen_range(0..50i64)])
        .collect();
    let mut io = IoStats::new();
    for db in [&mut mem, &mut disk] {
        db.create_table(schema.clone()).unwrap();
        for r in &rows {
            let row = r.iter().map(|&v| Value::Int(v)).collect();
            db.table_mut("c").unwrap().insert(row, &mut io).unwrap();
        }
        db.create_index(IndexDef::new("ix_x", "c", vec!["x".into()]), &mut io)
            .unwrap();
        db.analyze_all();
    }
    // Index order: by `x`, ties by the primary key.
    rows.sort_by_key(|r| (r[1], r[0]));
    let engine = Engine::new();
    // Plans that read in index order, by kind.
    let mut streamed = [0; 4];
    for case in 0..160 {
        let kind = case % 4;
        let lo = rng.gen_range(0..300i64);
        let width = rng.gen_range(0..12i64);
        let k = rng.gen_range(0..8usize);
        let t = rng.gen_range(0..1_500i64);
        // Kind 3 reads the primary key, over a range five times as wide.
        let (lo, hi) = match kind {
            3 => (lo * 5, lo * 5 + 5 * width),
            _ => (lo, lo + width),
        };
        let sql = match kind {
            0 => format!("SELECT id FROM c WHERE x BETWEEN {lo} AND {hi} ORDER BY x"),
            1 => format!("SELECT id, y FROM c WHERE x BETWEEN {lo} AND {hi} ORDER BY x"),
            2 => format!(
                "SELECT id, y FROM c WHERE x BETWEEN {lo} AND {hi} AND id + 0 > {t} ORDER BY x"
            ),
            _ => format!("SELECT id, x FROM c WHERE id BETWEEN {lo} AND {hi} ORDER BY id"),
        };
        let sql = format!("{sql} LIMIT {k}");
        let stmt = parse_statement(&sql).unwrap();
        let (m, d) = (
            engine.execute(&mut mem, &stmt).unwrap(),
            engine.execute(&mut disk, &stmt).unwrap(),
        );
        // The rows of the range in the order of the read, and those the
        // query keeps.
        let order = usize::from(kind != 3);
        let mut range: Vec<&[i64; 3]> = rows
            .iter()
            .filter(|r| (lo..=hi).contains(&r[order]))
            .collect();
        range.sort_by_key(|r| (r[order], r[0]));
        let keep = |r: &[i64; 3]| kind != 2 || r[0] > t;
        let want: Vec<Row> = range
            .iter()
            .filter(|r| keep(r))
            .take(k)
            .map(|r| match kind {
                0 => vec![Value::Int(r[0])],
                3 => vec![Value::Int(r[0]), Value::Int(r[1])],
                _ => vec![Value::Int(r[0]), Value::Int(r[2])],
            })
            .collect();
        assert_eq!(m.rows, want, "memory: {sql}");
        assert_eq!(d.rows, want, "disk: {sql}");

        let AccessPath::IndexScan(scan) = &m.plan.steps[0].path else {
            continue;
        };
        if !m.plan.order_via_index {
            continue;
        }
        streamed[kind] += 1;
        let mut matched = 0;
        let consumed = range
            .iter()
            .position(|r| {
                matched += usize::from(keep(r));
                matched > 0 && matched >= k
            })
            .map_or(range.len(), |p| p + 1);
        let per_entry = if scan.covering { 1 } else { 2 };
        for (backend, out) in [("memory", &m), ("disk", &d)] {
            assert_eq!(
                out.io.rows_read,
                (consumed * per_entry) as u64,
                "{backend}: {sql}"
            );
        }
    }
    eprintln!("plans read in index order, by kind: {streamed:?} of 40 each");
    assert!(streamed.iter().all(|&n| n >= 10), "{streamed:?}");
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One read of a primary-key range or of a secondary-index range, with
/// and without row lookups, over random ranges of a table whose trees
/// span several pages, stopped at a random row or read to the end, on
/// the memory and the disk backend. Both hand out the same rows in the
/// same order. Memory charges the model over what was handed out: one
/// seek, each row or entry, the pages their bytes fill, and a seek, a
/// page and a row per lookup. On disk the seeks and rows are the same,
/// and a stopped read is charged exactly the walk of what it handed out:
/// a stopped read of the range cut at its last entry charges the same,
/// reading that cut range to its end costs at most the one page more that
/// finding its end takes, and the whole range costs no less.
#[test]
fn a_stopped_read_is_charged_for_what_it_handed_out() {
    let dir = std::env::temp_dir().join(format!("aim-prop-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut mem = Database::new();
    let mut disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    let mut rng = StdRng::seed_from_u64(0x570B);
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Int),
            ColumnDef::new("pad", ColumnType::Str),
        ],
        &["id"],
    )
    .unwrap();
    let mut io = IoStats::new();
    let rows: Vec<Row> = (0..3_000i64)
        .map(|id| {
            let pad = Value::Str(format!("{id:>60}"));
            vec![Value::Int(id), Value::Int(rng.gen_range(0..500i64)), pad]
        })
        .collect();
    for db in [&mut mem, &mut disk] {
        db.create_table(schema.clone()).unwrap();
        for row in &rows {
            db.table_mut("t")
                .unwrap()
                .insert(row.clone(), &mut io)
                .unwrap();
        }
        db.create_index(IndexDef::new("ix_x", "t", vec!["x".into()]), &mut io)
            .unwrap();
    }
    // The rows or entries one read hands out, stopped at the `stop`-th,
    // and what it was charged.
    let read = |db: &Database, kind: usize, range: (Bound<&[Value]>, Bound<&[Value]>), stop| {
        let t = db.table("t").unwrap();
        let (mut got, mut io) = (Vec::new(), IoStats::new());
        let mut take = |item: &Row| {
            got.push(item.clone());
            got.len() == stop
        };
        match kind {
            0 => t.pk_range(range, &mut io, take),
            _ => {
                let ix = t.index("ix_x").unwrap();
                t.index_range(ix, range, kind == 2, &mut io, |e| {
                    if kind == 2 {
                        // The row the entry names: (id, x) for (x, id).
                        let (row, key) = (e.row().unwrap(), e.key());
                        assert_eq!((&row[0], &row[1]), (&key[1], &key[0]));
                    }
                    take(e.key())
                })
            }
        }
        (got, io)
    };
    let charged = |io: &IoStats| (io.pages_read, io.seeks, io.rows_read);
    let mut keys = RangeKeys::default();
    let mut widest = 0;
    for case in 0..240 {
        // 0: the primary key; 1: the index, covering; 2: with lookups.
        let kind = case % 3;
        let (lo, hi) = match kind {
            0 => {
                let lo = rng.gen_range(0..3_000i64);
                (lo, lo + rng.gen_range(0..600i64))
            }
            _ => {
                let lo = rng.gen_range(0..500i64);
                (lo, lo + rng.gen_range(0..80i64))
            }
        };
        let (lo, hi) = (Value::Int(lo), Value::Int(hi));
        let range = keys.prefix_range(&[], (Bound::Included(&lo), Bound::Included(&hi)));
        let (all, whole) = read(&disk, kind, range, usize::MAX);
        widest = widest.max(whole.pages_read);
        let stop = rng.gen_range(1..=all.len() + 1);
        let (m, m_io) = read(&mem, kind, range, stop);
        let (d, d_io) = read(&disk, kind, range, stop);
        assert_eq!(m, d, "case {case}");
        assert_eq!(d[..], all[..d.len()], "case {case}");

        let handed = m.len() as u64;
        let lookups = u64::from(kind == 2) * handed;
        let bytes: u64 = m.iter().flatten().map(Value::storage_size).sum();
        let pages = if bytes > 0 {
            bytes.div_ceil(aim_storage::PAGE_SIZE)
        } else {
            0
        };
        let model = (1 + lookups + pages, 1 + lookups, handed + lookups);
        assert_eq!(charged(&m_io), model, "case {case}: memory");
        assert_eq!(
            (d_io.seeks, d_io.rows_read),
            (model.1, model.2),
            "case {case}"
        );
        assert!(d_io.pages_read <= whole.pages_read, "case {case}");
        if stop > all.len() {
            assert_eq!(charged(&d_io), charged(&whole), "case {case}");
            continue;
        }
        // The range cut at the last row handed out.
        let last = d.last().unwrap();
        let last: &[Value] = if kind == 0 { &last[..1] } else { last };
        let cut = (range.0, Bound::Included(last));
        let (cut_rows, cut_io) = read(&disk, kind, cut, stop);
        assert_eq!(cut_rows, d, "case {case}");
        assert_eq!(charged(&cut_io), charged(&d_io), "case {case}");
        let (_, to_end) = read(&disk, kind, cut, usize::MAX);
        let more = to_end.pages_read - d_io.pages_read;
        assert!(
            more <= 1,
            "case {case}: the cut range read to its end costs {more} pages more"
        );
    }
    assert!(widest >= 4, "every read fit in {widest} pages");
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------- storage

#[test]
fn storage_accounting_is_consistent() {
    // Materialized size tracking must stay consistent through
    // insert/create/drop cycles.
    let mut rng = StdRng::seed_from_u64(0x5A);
    for _ in 0..50 {
        let n_rows = rng.gen_range(1..200usize);
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
            .expect("valid"),
        )
        .expect("fresh");
        let mut io = IoStats::new();
        for i in 0..n_rows as i64 {
            db.table_mut("t")
                .expect("exists")
                .insert(vec![Value::Int(i), Value::Int(i % 7)], &mut io)
                .expect("unique");
        }
        assert_eq!(db.total_secondary_index_bytes(), 0);
        db.create_index(IndexDef::new("ix", "t", vec!["a".into()]), &mut io)
            .expect("valid index");
        let size = db.total_secondary_index_bytes();
        assert!(size > 0);
        db.drop_index("t", "ix").expect("exists");
        assert_eq!(db.total_secondary_index_bytes(), 0);
    }
}

// ---------------------------------------------------------------- parser

#[test]
fn parser_never_panics_on_arbitrary_input() {
    // Any input must produce Ok or Err — never a panic.
    let mut rng = StdRng::seed_from_u64(0x9A51C);
    for _ in 0..512 {
        let len = rng.gen_range(0..=120usize);
        let input: String = (0..len)
            .map(|_| {
                // Printable-heavy mix with occasional arbitrary unicode.
                if rng.gen_bool(0.9) {
                    (rng.gen_range(0x20..0x7fu32) as u8) as char
                } else {
                    char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}')
                }
            })
            .collect();
        if let Ok(stmt) = parse_statement(&input) {
            common::checked_normalize(&stmt);
        }
    }
}

#[test]
fn parser_never_panics_on_sql_like_soup() {
    const TOKENS: &[&str] = &[
        "SELECT", "FROM", "WHERE", "AND", "OR", "GROUP", "BY", "ORDER", "LIMIT", "(", ")", ",",
        "=", ">", "t", "x", "1", "'s'", "*", "IN", "NOT", "NULL",
    ];
    let mut rng = StdRng::seed_from_u64(0x500);
    for _ in 0..512 {
        let n = rng.gen_range(0..25usize);
        let sql = (0..n)
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        if let Ok(stmt) = parse_statement(&sql) {
            common::checked_normalize(&stmt);
        }
    }
}

/// 100 000 strings mixing multi-byte characters with quotes, operators,
/// comments and truncated literals. The lexer scans bytes and borrows
/// slices of the input: every token and every error must still land on a
/// character boundary inside it, and nothing may panic (this runs with
/// overflow and slice checks on).
#[test]
fn lexer_and_parser_hold_on_multibyte_soup() {
    const PIECES: &[&str] = &[
        "SELECT",
        "select",
        "FROM",
        "WHERE",
        "AND",
        "OR",
        "NOT",
        "IN",
        "BETWEEN",
        "LIKE",
        "INSERT",
        "INTO",
        "VALUES",
        "UPDATE",
        "SET",
        "t",
        "x",
        "col_1",
        "é",
        "日本",
        "ß",
        "𝄞",
        "\u{301}",
        "'",
        "''",
        "'é",
        "'it''s'",
        "'日本",
        "`",
        "`naïve`",
        "\"",
        "\"ü\"",
        "(",
        ")",
        ",",
        ".",
        ";",
        "*",
        "+",
        "-",
        "--",
        "-- é\n",
        "/",
        "%",
        "=",
        "!",
        "!=",
        "<",
        "<=",
        "<=>",
        "<>",
        ">",
        ">=",
        "?",
        "0",
        "17",
        "1.",
        "1.5",
        "1e",
        "1e+",
        "2.5e-3",
        "99999999999999999999",
        " ",
        "\n",
        "\t",
    ];
    let within = |input: &str, slice: &str| {
        let start = (slice.as_ptr() as usize).wrapping_sub(input.as_ptr() as usize);
        start <= input.len()
            && start + slice.len() <= input.len()
            && input.is_char_boundary(start)
            && input.is_char_boundary(start + slice.len())
    };
    let mut rng = StdRng::seed_from_u64(0x50F7);
    let (mut lexed, mut parsed) = (0u32, 0u32);
    for _ in 0..100_000 {
        let n = rng.gen_range(0..14usize);
        let mut input = String::new();
        for _ in 0..n {
            input.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
            if rng.gen_bool(0.4) {
                input.push(' ');
            }
        }
        match lex(&input) {
            Ok(tokens) => {
                lexed += 1;
                for t in &tokens {
                    assert!(input.is_char_boundary(t.offset), "{input:?}: {t:?}");
                    match &t.token {
                        Token::Ident(s) => assert!(within(&input, s), "{input:?}: {t:?}"),
                        Token::Str(std::borrow::Cow::Borrowed(s)) => {
                            assert!(within(&input, s), "{input:?}: {t:?}")
                        }
                        _ => {}
                    }
                }
            }
            Err(e) => assert!(input.is_char_boundary(e.offset), "{input:?}: {e}"),
        }
        match parse_statement(&input) {
            Ok(stmt) => {
                parsed += 1;
                common::checked_normalize(&stmt);
            }
            Err(e) => assert!(input.is_char_boundary(e.offset), "{input:?}: {e}"),
        }
    }
    // The mix reaches both outcomes of the lexer; few strings are statements.
    assert!(lexed > 10_000 && lexed < 90_000, "{lexed} of 100000 lexed");
    assert!(parsed > 0, "no string parsed");
}

// ------------------------------------------------------ storage backends

/// Random insert / delete / update / range-scan sequences observe exactly
/// the same results on the disk-backed engine (paged heap + B+-trees) as
/// on the in-memory one — including secondary-index scans — and the disk
/// instance still matches after a close-and-reopen cycle.
#[test]
fn random_ops_are_identical_on_disk_and_memory_backends() {
    let dir = std::env::temp_dir().join(format!("aim-prop-backend-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let schema = || {
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
    };
    let mut mem = Database::new();
    mem.create_table(schema()).unwrap();
    let mut disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    disk.create_table(schema()).unwrap();
    let mut io = IoStats::new();
    mem.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
        .unwrap();
    disk.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
        .unwrap();

    let mut rng = StdRng::seed_from_u64(0xD15C);
    let row = |pk: i64, rng: &mut StdRng| {
        vec![
            Value::Int(pk),
            Value::Int(rng.gen_range(0..40i64)),
            Value::Str(format!("s{}", rng.gen_range(0..1000u32))),
        ]
    };
    for round in 0..6 {
        for _ in 0..300 {
            let pk = rng.gen_range(0..800i64);
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    let r = row(pk, &mut rng);
                    let a = mem.table_mut("t").unwrap().insert(r.clone(), &mut io);
                    let b = disk.table_mut("t").unwrap().insert(r, &mut io);
                    assert_eq!(a.is_ok(), b.is_ok(), "insert({pk}) diverged");
                }
                6..=7 => {
                    let a = mem
                        .table_mut("t")
                        .unwrap()
                        .delete(&vec![Value::Int(pk)], &mut io)
                        .unwrap();
                    let b = disk
                        .table_mut("t")
                        .unwrap()
                        .delete(&vec![Value::Int(pk)], &mut io)
                        .unwrap();
                    assert_eq!(a, b, "delete({pk}) diverged");
                }
                _ => {
                    let r = row(pk, &mut rng);
                    let a = mem.table_mut("t").unwrap().update(
                        &vec![Value::Int(pk)],
                        r.clone(),
                        &mut io,
                    );
                    let b = disk
                        .table_mut("t")
                        .unwrap()
                        .update(&vec![Value::Int(pk)], r, &mut io);
                    assert_eq!(a.is_ok(), b.is_ok(), "update({pk}) diverged");
                }
            }
        }
        // Range scan over a random PK window plus a secondary-index
        // prefix scan: both backends must produce identical sequences.
        let lo = [Value::Int(rng.gen_range(0..400i64))];
        let hi = [Value::Int(rng.gen_range(400..800i64))];
        let window = (Bound::Included(&lo[..]), Bound::Excluded(&hi[..]));
        let pk_range = |db: &Database, io: &mut IoStats| {
            let mut rows = Vec::new();
            db.table("t").unwrap().pk_range(window, io, |row| {
                rows.push(row.clone());
                false
            });
            rows
        };
        let m = pk_range(&mem, &mut IoStats::new());
        let d = pk_range(&disk, &mut IoStats::new());
        assert_eq!(m, d, "round {round}: pk_range [{lo:?},{hi:?}) diverged");

        let probe = Value::Int(rng.gen_range(0..40i64));
        let index_scan = |db: &Database| {
            let table = db.table("t").unwrap();
            let mut keys = RangeKeys::default();
            let range = keys.prefix_range(
                std::slice::from_ref(&probe),
                (Bound::Unbounded, Bound::Unbounded),
            );
            let mut entries = Vec::new();
            let ix = table.index("ix_a").unwrap();
            table.index_range(ix, range, false, &mut IoStats::new(), |e| {
                entries.push(e.key().clone());
                false
            });
            entries
        };
        let (m, d) = (index_scan(&mem), index_scan(&disk));
        assert_eq!(m, d, "round {round}: index scan a={probe:?} diverged");
    }

    // Reopen the disk instance: the recovered working set must equal the
    // in-memory reference row for row and entry for entry.
    drop(disk);
    let disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    let mut mio = IoStats::new();
    let mut dio = IoStats::new();
    let m: Vec<_> = mem
        .table("t")
        .unwrap()
        .scan_all(&mut mio)
        .cloned()
        .collect();
    let d: Vec<_> = disk
        .table("t")
        .unwrap()
        .scan_all(&mut dio)
        .cloned()
        .collect();
    assert_eq!(m, d, "reopened disk table diverged from memory reference");
    assert_eq!(
        mem.table("t").unwrap().index("ix_a").unwrap().len(),
        disk.table("t").unwrap().index("ix_a").unwrap().len(),
        "reopened index cardinality diverged"
    );
    disk.check_consistency().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- ANALYZE after writes

/// One cell of [`analyze_installs_a_full_recomputation`]'s table: column
/// 1 is indexed alone and column 2 with it, columns 3 and 4 are not
/// indexed; 2 mixes `Int` and `Float`, 3 and 4 hold NULLs.
fn stats_cell(rng: &mut StdRng, column: usize) -> Value {
    match (column, rng.gen_range(0..6u32)) {
        (1, _) => Value::Int(rng.gen_range(0..12i64)),
        (2, 0..=2) => Value::Int(rng.gen_range(0..20i64)),
        (2, _) => Value::Float(rng.gen_range(0..40i64) as f64 / 2.0),
        (3, 0) | (4, 0) => Value::Null,
        (3, _) => Value::Str(format!("s{}", rng.gen_range(0..15u32))),
        _ => Value::Int(rng.gen_range(-5..5i64)),
    }
}

/// `v` with its other numeric variant where that keeps the value (`Int(3)`
/// ↔ `Float(3.0)`), NULL for a value and a drawn value for NULL.
fn flip_variant(rng: &mut StdRng, column: usize, v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Float(*i as f64),
        Value::Float(f) if f.fract() == 0.0 => Value::Int(*f as i64),
        Value::Null => stats_cell(rng, column),
        _ if column >= 3 => Value::Null,
        _ => v.clone(),
    }
}

/// `Ok` when every index of `table` holds exactly the entries its rows
/// give, in key order and variant by variant: `Int(3)` and `Float(3.0)`
/// collate together, but a covering scan returns what the entry holds.
fn indexes_match_rows(table: &aim_storage::Table) -> Result<(), String> {
    let mut io = IoStats::new();
    for ix in table.indexes() {
        let mut rows: Vec<_> = table
            .scan_all(&mut io)
            .map(|r| ix.entry_for_row(r))
            .collect();
        rows.sort();
        let held = format!("{:?}", common::index_entries(table, &ix.def().name));
        let rows = format!("{rows:?}");
        if held != rows {
            return Err(format!(
                "index {} holds {held}, its rows give {rows}",
                ix.def().name
            ));
        }
    }
    Ok(())
}

/// Whatever the writes since the last ANALYZE, `analyze_all` installs
/// what a full recomputation of each table gives: the statistics a write
/// changed are recomputed and no others are left stale. Random INSERT /
/// UPDATE / DELETE sequences on a five-column table, on the memory and on
/// the disk backend, with same-value UPDATEs, `Int` ↔ numerically equal
/// `Float` UPDATEs (equal under `Value`'s `==`), NULL ↔ value UPDATEs,
/// UPDATEs of indexed and of unindexed columns, and `table_mut` handles
/// that write nothing. Compared variant by variant: the `Debug` text
/// tells `Int(3)` from `Float(3.0)` and prints every `f64` exactly. After
/// every step, and on the disk backend once more after a reopen, each
/// index holds the entries its rows give, variant by variant.
#[test]
fn analyze_installs_a_full_recomputation() {
    let dir = std::env::temp_dir().join(format!("aim-prop-analyze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Float),
            ColumnDef::new("s", ColumnType::Str),
            ColumnDef::new("d", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap();
    let dbs = [
        Database::new(),
        Database::open_disk(&dir, aim_storage::PagerOptions::default()).unwrap(),
    ];
    for (backend, mut db) in ["memory", "disk"].into_iter().zip(dbs) {
        let mut rng = StdRng::seed_from_u64(0xA7A1);
        let mut io = IoStats::new();
        db.create_table(schema.clone()).unwrap();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        db.create_index(
            IndexDef::new("ix_xa", "t", vec!["x".into(), "a".into()]),
            &mut io,
        )
        .unwrap();
        let row = |pk: i64, rng: &mut StdRng| -> Row {
            let mut row = vec![Value::Int(pk)];
            row.extend((1..5).map(|c| stats_cell(rng, c)));
            row
        };
        for pk in 0..60 {
            let r = row(pk, &mut rng);
            db.table_mut("t").unwrap().insert(r, &mut io).unwrap();
        }
        // Steps that ran, by kind: a handle alone, an INSERT or a DELETE,
        // and UPDATEs to the same row, to another variant or NULL, and to
        // a drawn value.
        let (mut analyzes, mut ran) = (0, [0u32; 5]);
        for step in 0..400 {
            let pk = rng.gen_range(0..80i64);
            let current = db
                .table("t")
                .unwrap()
                .pk_lookup(&[Value::Int(pk)], &mut io)
                .cloned();
            let column = rng.gen_range(1..5usize);
            let kind = rng.gen_range(0..14u32);
            let new_row = match (kind, &current) {
                (0, _) => {
                    let _ = db.table_mut("t").unwrap();
                    None
                }
                (1, None) => {
                    let r = row(pk, &mut rng);
                    db.table_mut("t").unwrap().insert(r, &mut io).unwrap();
                    None
                }
                (1, Some(_)) => {
                    db.table_mut("t")
                        .unwrap()
                        .delete(&vec![Value::Int(pk)], &mut io)
                        .unwrap();
                    None
                }
                (_, None) => None,
                (2..=3, Some(old)) => Some(old.clone()),
                (4..=8, Some(old)) => {
                    let mut r = old.clone();
                    r[column] = flip_variant(&mut rng, column, &old[column]);
                    Some(r)
                }
                (_, Some(old)) => {
                    let mut r = old.clone();
                    r[column] = stats_cell(&mut rng, column);
                    Some(r)
                }
            };
            if kind <= 1 || current.is_some() {
                ran[match kind {
                    0 | 1 => kind as usize,
                    2..=3 => 2,
                    4..=8 => 3,
                    _ => 4,
                }] += 1;
            }
            if let Some(r) = new_row {
                db.table_mut("t")
                    .unwrap()
                    .update(&vec![Value::Int(pk)], r, &mut io)
                    .unwrap();
            }
            if let Err(e) = indexes_match_rows(db.table("t").unwrap()) {
                panic!("{backend}, step {step}: {e}");
            }
            if rng.gen_range(0..3u32) == 0 {
                db.analyze_all();
                analyzes += 1;
                let table = db.table("t").unwrap();
                let full = aim_storage::analyze(table, aim_storage::stats::DEFAULT_BUCKETS);
                let installed = db.stats("t").unwrap();
                assert_eq!(
                    format!("{installed:?}"),
                    format!("{full:?}"),
                    "{backend}, step {step}: the installed statistics are not a full ANALYZE's"
                );
            }
        }
        db.check_consistency().unwrap();
        assert!(
            analyzes > 100 && ran.iter().all(|&k| k > 10),
            "{analyzes} {ran:?}"
        );
    }
    let db = Database::open_disk(&dir, aim_storage::PagerOptions::default()).unwrap();
    if let Err(e) = indexes_match_rows(db.table("t").unwrap()) {
        panic!("disk, reopened: {e}");
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------ batched costing & LP selection

fn assert_ranked_bit_identical(a: &[RankedCandidate], b: &[RankedCandidate]) {
    assert_eq!(a.len(), b.len(), "ranked lists differ in length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.candidate.name(), y.candidate.name());
        assert_eq!(x.size_bytes, y.size_bytes);
        assert_eq!(
            x.benefit.to_bits(),
            y.benefit.to_bits(),
            "benefit drifted for {}",
            x.candidate.name()
        );
        assert_eq!(
            x.maintenance.to_bits(),
            y.maintenance.to_bits(),
            "maintenance drifted for {}",
            x.candidate.name()
        );
        let attribution = |r: &RankedCandidate| -> Vec<_> {
            r.benefiting_queries
                .iter()
                .map(|(q, b)| (*q, b.to_bits()))
                .collect()
        };
        assert_eq!(
            attribution(x),
            attribution(y),
            "attribution drifted for {}",
            x.candidate.name()
        );
    }
}

/// Execute each statement `n` times against `db`, recording into a fresh
/// monitor, then select the full observed workload (DML included).
fn observe_workload(db: &mut Database, runs: &[(String, usize)]) -> Vec<WorkloadQuery> {
    let engine = Engine::new();
    let mut m = WorkloadMonitor::new();
    for (sql, n) in runs {
        let stmt = parse_statement(sql).expect("valid");
        for _ in 0..*n {
            let out = engine.execute(db, &stmt).expect("executes");
            m.record(&stmt, &out);
        }
    }
    select_workload(
        &m,
        &SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: 100,
            include_dml: true,
        },
    )
}

/// Candidate generation deduplicates each table's partial orders and unions
/// their sources before merging, so the candidates — columns, kept partial
/// order and provenance — must not depend on the order queries arrive in.
#[test]
fn candidate_generation_is_invariant_under_workload_order() {
    let cols = ["a", "b", "c", "d", "e"];
    let mut rng = StdRng::seed_from_u64(0x5AFF1E);
    let mut inputs: Vec<(Database, Vec<WorkloadQuery>)> = Vec::new();
    for _ in 0..6 {
        let mut db = int_table(&mut rng, &cols, 150, 25);
        let runs: Vec<(String, usize)> = (0..rng.gen_range(6..=12usize))
            .map(|_| {
                let mut picked: Vec<&str> =
                    cols.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
                if picked.is_empty() {
                    picked.push(cols[rng.gen_range(0..cols.len())]);
                }
                let (last, firsts) = picked.split_last().expect("non-empty");
                let mut filter: Vec<String> = firsts.iter().map(|c| format!("{c} = 3")).collect();
                filter.push(format!(
                    "{last} {} 7",
                    if rng.gen_bool(0.5) { "=" } else { ">" }
                ));
                let tail = match rng.gen_range(0..4usize) {
                    0 => format!(" ORDER BY {}", cols[rng.gen_range(0..cols.len())]),
                    _ => String::new(),
                };
                (
                    format!("SELECT id FROM t WHERE {}{tail}", filter.join(" AND ")),
                    1,
                )
            })
            .collect();
        let workload = observe_workload(&mut db, &runs);
        inputs.push((db, workload));
    }
    // Joins, GROUP BY and several tables.
    let tpch = common::tpch_fixture();
    let mut db = tpch.db;
    let monitor = common::observe(&mut db, tpch.texts);
    let all = SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    };
    inputs.push((db, select_workload(&monitor, &all)));

    let mut merged = 0;
    for (db, workload) in &mut inputs {
        for cfg in [
            CandidateGenConfig::default(),
            CandidateGenConfig {
                covering: aim_core::CoveringPolicy::Both,
                ..Default::default()
            },
        ] {
            let expected = generate_candidates(db, workload, &cfg);
            merged += expected.iter().filter(|c| c.sources.len() > 1).count();
            for _ in 0..3 {
                for i in (1..workload.len()).rev() {
                    workload.swap(i, rng.gen_range(0..=i));
                }
                assert_eq!(generate_candidates(db, workload, &cfg), expected);
            }
        }
    }
    assert!(
        merged > 20,
        "degenerate sweep: {merged} candidates serve several queries"
    );
}

/// A candidate ranking did not propose, on `t(columns)`.
fn injected_candidate(columns: &[&str], benefit: f64) -> RankedCandidate {
    RankedCandidate {
        candidate: CandidateIndex {
            table: "t".into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            po: PartialOrder::chain(columns.iter().copied()).expect("distinct columns"),
            sources: BTreeSet::new(),
        },
        size_bytes: 1,
        benefit,
        maintenance: 0.0,
        benefiting_queries: Vec::new(),
    }
}

/// Executes `w` in order on a copy of `db` with `built` materialized,
/// writes included: each exemplar's outcome, `None` where it failed.
fn replayed_in_full(
    engine: &Engine,
    db: &Database,
    w: &[WorkloadQuery],
    built: &[RankedCandidate],
) -> Vec<Option<ExecOutcome>> {
    let mut copy = db.clone();
    let mut io = IoStats::new();
    for r in built {
        copy.create_index(r.candidate.def(), &mut io)
            .expect("builds");
    }
    w.iter()
        .map(|wq| engine.execute(&mut copy, &wq.stats.exemplar).ok())
        .collect()
}

/// The "no regression" guarantee, checked by an oracle that shares none of
/// validation's shortcuts: whatever `validate_on_clone` accepts is built on
/// a fresh copy of the source, and the whole workload, writes included, is
/// executed in order there and on an index-free copy. No exemplar may cost
/// more than `(1 + λ₃)` × its index-free cost, every accepted index must be
/// used by some executed plan, and accepted and rejected must partition the
/// chosen set. Twelve cases read only; eight more put writes between the
/// SELECTs: an UPDATE, a DELETE and an INSERT the monitor saw succeed (the
/// INSERT's key exists by the time it is replayed), and an UPDATE that
/// overflows part-way through the rows it locates, followed by a scan of
/// the column it writes. Where the rows that UPDATE leaves depended on the
/// plan that located them, the scan after it would cost what the memo
/// holds in one round and something else in another, and
/// `validate::audited` would fire.
#[test]
fn validation_verdicts_hold_under_a_full_replay() {
    let cols = ["a", "b", "c", "d"];
    let ops = ["=", ">", "<", ">="];
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let engine = Engine::new();
    let (mut accepted_somewhere, mut unused_somewhere) = (false, false);
    for case in 0..20 {
        let writes = case >= 12;
        // With writes, large enough that the index on (b, c) locates the
        // overflowing UPDATE's rows.
        let mut db = int_table(&mut rng, &cols, if writes { 6000 } else { 600 }, 30);
        // Queries read a, b and c only: nothing can use an index on d.
        let pred = |rng: &mut StdRng| {
            format!(
                "{} {} {}",
                cols[rng.gen_range(0..3usize)],
                ops[rng.gen_range(0..4usize)],
                rng.gen_range(0..30i64)
            )
        };
        // With (a) and (a, b) both built, this one reads through (a, b)
        // and leaves (a) to whoever else wants it.
        let mut runs = vec![(
            format!(
                "SELECT id FROM t WHERE a = {} AND b = {}",
                rng.gen_range(0..30i64),
                rng.gen_range(0..30i64)
            ),
            3,
        )];
        for _ in 0..rng.gen_range(2..=5usize) {
            let p = pred(&mut rng);
            let sql = match rng.gen_range(0..5usize) {
                0 => format!("SELECT id FROM t WHERE {p} AND {}", pred(&mut rng)),
                1 => format!("SELECT id FROM t WHERE {p} OR {}", pred(&mut rng)),
                2 => format!("SELECT id, a FROM t WHERE {p} ORDER BY b LIMIT 5"),
                3 => format!("SELECT a, COUNT(*) FROM t WHERE {p} GROUP BY a"),
                _ => format!("SELECT id FROM t WHERE {p}"),
            };
            runs.push((sql, rng.gen_range(1..=4usize)));
        }
        let scan_of_d = "SELECT id FROM t WHERE d + 0 > 100";
        if writes {
            runs.extend([
                (
                    format!("UPDATE t SET c = c + 1 WHERE {}", pred(&mut rng)),
                    rng.gen_range(1..=3usize),
                ),
                (
                    format!(
                        "DELETE FROM t WHERE {} AND {}",
                        pred(&mut rng),
                        pred(&mut rng)
                    ),
                    1,
                ),
                (
                    "INSERT INTO t (id, a, b, c, d) VALUES (100000, 1, 2, 3, 4)".to_string(),
                    1,
                ),
                (scan_of_d.to_string(), 1),
            ]);
        }
        let mut w = observe_workload(&mut db, &runs);
        if writes {
            db.analyze_all();
            // Writes between the SELECTs, in a random order.
            for i in (1..w.len()).rev() {
                w.swap(i, rng.gen_range(0..=i));
            }
            // Never observed (it fails wherever it runs): it overflows at
            // the first row with d >= 15 it locates, having written the
            // ones before, if any.
            let overflow = parse_statement(&format!(
                "UPDATE t SET d = d * 614891469123651721 WHERE b = {} AND c >= {}",
                rng.gen_range(0..30i64),
                rng.gen_range(20..30i64)
            ))
            .expect("valid");
            let scan = w
                .iter()
                .position(|wq| wq.stats.exemplar.to_string() == scan_of_d)
                .expect("observed");
            w.insert(
                scan,
                WorkloadQuery {
                    stats: QueryStats::synthetic(&overflow, 1, 0.0),
                    benefit: 0.0,
                    weight: 0.0,
                },
            );
        }
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let ranked =
            try_rank_candidates_with(&db, &w, &cands, &RunCtl::none(), &WhatIfCache::new())
                .unwrap();
        let mut chosen = knapsack_select(&ranked, u64::MAX, 0);
        let mut extras = vec![
            injected_candidate(&["d"], 1.0),
            injected_candidate(&["a"], 2.0),
            injected_candidate(&["a", "b"], 3.0),
        ];
        if writes {
            // Locates the overflowing UPDATE's rows in (c, id) order, not
            // in the primary key's.
            extras.push(injected_candidate(&["b", "c"], 4.0));
        }
        for extra in extras {
            if chosen
                .iter()
                .all(|r| r.candidate.name() != extra.candidate.name())
            {
                chosen.push(extra);
            }
        }

        let cfg = ValidationConfig::default();
        let outcome = validate_on_clone(&db, &w, &chosen, &engine, &cfg).expect("validates");

        let accepted: Vec<String> = outcome
            .accepted
            .iter()
            .map(|r| r.candidate.name())
            .collect();
        let mut judged = accepted.clone();
        judged.extend(outcome.rejected.iter().map(|(r, _)| r.candidate.name()));
        judged.sort();
        let mut proposed: Vec<String> = chosen.iter().map(|r| r.candidate.name()).collect();
        proposed.sort();
        assert_eq!(
            judged, proposed,
            "case {case}: accepted ∪ rejected = chosen"
        );
        assert!(
            !accepted.contains(&"aim_t_d".to_string()),
            "case {case}: an index nothing reads"
        );

        let bare = replayed_in_full(&engine, &db, &w, &[]);
        let tuned = replayed_in_full(&engine, &db, &w, &outcome.accepted);
        let mut used: BTreeSet<String> = BTreeSet::new();
        for ((wq, before), after) in w.iter().zip(&bare).zip(&tuned) {
            let (Some(before), Some(after)) = (before, after) else {
                assert_eq!(
                    before.is_some(),
                    after.is_some(),
                    "case {case}: {} fails on one copy only",
                    wq.stats.exemplar
                );
                continue;
            };
            assert!(
                after.cost <= before.cost * (1.0 + cfg.regression_tolerance),
                "case {case}: {} regressed {} -> {} under {accepted:?}",
                wq.stats.exemplar,
                before.cost,
                after.cost
            );
            used.extend(
                after
                    .plan
                    .used_indexes()
                    .into_iter()
                    .map(|(_, ix)| ix.label().into_owned()),
            );
        }
        for name in &accepted {
            assert!(
                used.contains(name),
                "case {case}: accepted {name} is read by no plan"
            );
        }
        accepted_somewhere |= !accepted.is_empty();
        unused_somewhere |= outcome
            .rejected
            .iter()
            .any(|(r, why)| r.candidate.name() == "aim_t_a" && *why == RejectReason::Unused);
    }
    assert!(
        accepted_somewhere,
        "degenerate sweep: nothing was ever accepted"
    );
    assert!(
        unused_somewhere,
        "degenerate sweep: (a, b) never made (a) unused"
    );
}

/// On small instances whose optimum is obvious — one hot equality query,
/// unlimited budget — the LP selector must agree with greedy exactly; and
/// under random budgets it may only replace the greedy set when the actual
/// workload cost is strictly lower, else fall back bit-identically.
#[test]
fn lp_selection_agrees_with_greedy_on_optimal_instances() {
    let cols = ["a", "b", "c"];
    let mut rng = StdRng::seed_from_u64(0x1B07);
    for _ in 0..5 {
        let domain = rng.gen_range(20..60i64);
        let mut db = Database::new();
        let defs = vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
            ColumnDef::new("c", ColumnType::Int),
        ];
        db.create_table(TableSchema::new("t", defs, &["id"]).expect("valid"))
            .expect("fresh");
        let mut io = IoStats::new();
        for i in 0..2500i64 {
            db.table_mut("t")
                .expect("exists")
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % domain),
                        Value::Int((i * 7) % domain),
                        Value::Int((i * 13) % domain),
                    ],
                    &mut io,
                )
                .expect("unique");
        }
        db.analyze_all();

        let hot = cols[rng.gen_range(0..cols.len())];
        let v = rng.gen_range(0..domain);
        let w = observe_workload(
            &mut db,
            &[(format!("SELECT id FROM t WHERE {hot} = {v}"), 25)],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let cache = WhatIfCache::new();
        let ranked = try_rank_candidates_with(&db, &w, &cands, &RunCtl::none(), &cache).unwrap();
        assert!(!ranked.is_empty(), "hot query produced no candidates");

        // Unlimited budget: the single useful index is provably optimal,
        // so LP refinement must return exactly the greedy selection.
        let greedy = knapsack_select(&ranked, u64::MAX, 0);
        let out =
            refine_selection(&db, &w, &ranked, &greedy, u64::MAX, &RunCtl::none(), &cache).unwrap();
        assert_eq!(
            out.chosen
                .iter()
                .map(|r| r.candidate.name())
                .collect::<Vec<_>>(),
            greedy
                .iter()
                .map(|r| r.candidate.name())
                .collect::<Vec<_>>(),
        );
        assert!(
            out.chosen
                .iter()
                .any(|r| r.candidate.columns.first() == Some(&hot.to_string())),
            "optimal selection must lead with the hot column {hot}"
        );

        // Random constrained budget: matches-or-beats on actual cost.
        let total: u64 = ranked.iter().map(|r| r.size_bytes).sum();
        let budget = rng.gen_range(1..=total.max(2));
        let greedy = knapsack_select(&ranked, budget, 0);
        let out =
            refine_selection(&db, &w, &ranked, &greedy, budget, &RunCtl::none(), &cache).unwrap();
        if out.used_lp {
            assert!(out.lp_cost < out.greedy_cost, "LP kept without improvement");
        } else {
            assert_ranked_bit_identical(&out.chosen, &greedy);
        }
        let used: u64 = out.chosen.iter().map(|r| r.size_bytes).sum();
        assert!(used <= budget, "budget violated: {used} > {budget}");
    }
}

// ------------------------------------------------------------------ jsonv

use aim_telemetry::jsonv::{self, Json};
use std::collections::BTreeMap;

/// Serializes a [`Json`] value the way the workspace's hand-rolled
/// emitters do: `\u` escapes for control characters, `\"`/`\\` for the
/// two specials, everything else verbatim UTF-8.
fn emit_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_json(&Json::Str(k.clone()), out);
                out.push(':');
                emit_json(val, out);
            }
            out.push('}');
        }
    }
}

/// A random string drawn from a palette that stresses every escape class:
/// the two JSON specials, whitespace escapes, raw control characters,
/// multi-byte UTF-8, and the solidus.
fn random_string(rng: &mut StdRng) -> String {
    const PALETTE: &[&str] = &[
        "a",
        "Z",
        "0",
        " ",
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0001}",
        "\u{001f}",
        "/",
        "é",
        "λ",
        "漢",
        "🦀",
        "\\n",
        "\"quoted\"",
    ];
    let len = rng.gen_range(0..8usize);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// A random document, depth-bounded so the recursive parser stays well
/// inside stack limits while still nesting containers inside containers.
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0..2) == 1),
        // Exactly representable in binary, so Display output reparses to
        // the identical f64.
        2 => Json::Num(rng.gen_range(-64_000i64..64_000) as f64 / 8.0),
        3 => Json::Str(random_string(rng)),
        4 => {
            let n = rng.gen_range(0..4usize);
            Json::Arr((0..n).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4usize);
            let mut map = BTreeMap::new();
            for _ in 0..n {
                map.insert(random_string(rng), random_json(rng, depth - 1));
            }
            Json::Obj(map)
        }
    }
}

#[test]
fn jsonv_roundtrips_random_documents() {
    let mut rng = StdRng::seed_from_u64(0x150_0AF);
    for _ in 0..500 {
        let doc = random_json(&mut rng, 4);
        let mut text = String::new();
        emit_json(&doc, &mut text);
        let parsed = jsonv::parse(&text)
            .unwrap_or_else(|e| panic!("emitted JSON failed to parse: {e} in {text}"));
        assert_eq!(parsed, doc, "round trip diverged for {text}");
    }
}

#[test]
fn jsonv_parses_deep_nesting() {
    // 200 levels of arrays and of single-key objects: far deeper than any
    // artifact we emit, still far from the thread's stack limit.
    let deep_arr = format!("{}1{}", "[".repeat(200), "]".repeat(200));
    let mut v = jsonv::parse(&deep_arr).expect("deep array parses");
    for _ in 0..200 {
        v = v.as_arr().expect("array level")[0].clone();
    }
    assert_eq!(v, Json::Num(1.0));

    let deep_obj = format!("{}true{}", "{\"k\":".repeat(200), "}".repeat(200));
    let mut v = jsonv::parse(&deep_obj).expect("deep object parses");
    for _ in 0..200 {
        v = v.get("k").expect("object level").clone();
    }
    assert_eq!(v, Json::Bool(true));
}

#[test]
fn jsonv_rejects_malformed_documents() {
    let cases: &[(&str, &str)] = &[
        ("{} x", "trailing garbage after an object"),
        ("1 2", "two top-level values"),
        ("[1,2]]", "unbalanced close bracket"),
        ("\"\\x\"", "unknown escape"),
        ("\"\\u12\"", "short unicode escape"),
        ("\"\\u12zz\"", "non-hex unicode escape"),
        ("\"unterminated", "unterminated string"),
        ("{k:1}", "unquoted object key"),
        ("[1,]", "trailing comma in array"),
        ("{\"a\":1,}", "trailing comma in object"),
        ("-", "lone minus sign"),
        ("tru", "truncated literal"),
        ("", "empty document"),
        ("[1 2]", "missing array comma"),
        ("{\"a\" 1}", "missing object colon"),
    ];
    for (doc, why) in cases {
        let err = jsonv::parse(doc)
            .err()
            .unwrap_or_else(|| panic!("accepted malformed input ({why}): {doc:?}"));
        assert!(
            err.offset <= doc.len(),
            "error offset {} outside document ({why})",
            err.offset
        );
    }
}
