//! Randomized property tests over the core invariants.
//!
//! Each test draws a few hundred cases from the deterministic in-tree
//! PRNG (`aim_workloads::rng`) with a fixed seed, so failures are exactly
//! reproducible while still sweeping a wide input space.

mod common;

use aim_core::partial_order::{merge_partial_orders, PartialOrder};
use aim_core::{
    generate_candidates, knapsack_select, rank_candidates_unbatched,
    rank_candidates_with, refine_selection, validate_on_clone, CandidateGenConfig, CandidateIndex,
    RankedCandidate, RejectReason, RunCtl, ValidationConfig, ValidationOutcome,
};
use aim_exec::{CostModel, Engine};
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_sql::lexer::{lex, Token};
use aim_sql::normalize::normalize_statement;
use aim_sql::parse_statement;
use aim_storage::{
    ColumnDef, ColumnType, Database, Histogram, IndexDef, IoStats, TableSchema, Value,
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
        parts.push(vec![format!("col{:03}", columns[rng.gen_range(0..columns.len())])]);
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
    let rest: Vec<String> =
        (0..width).filter(|c| !pool.contains(c)).map(|c| format!("col{c:03}")).collect();
    let pool: Vec<usize> = pool.into_iter().collect();
    let mut set: Vec<PartialOrder> =
        (0..orders).map(|_| random_partial_order_over(rng, &pool)).collect();
    set.extend(rest.chunks(16).map(|run| PartialOrder::new([run.to_vec()]).expect("distinct")));
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
        let mut keyed: Vec<(Option<usize>, &String)> = part.iter().map(|c| (q_rank(c), c)).collect();
        keyed.sort();
        let mut current = None;
        for (rank, c) in keyed {
            if current != Some(rank) {
                partitions.push(BTreeSet::new());
                current = Some(rank);
            }
            partitions.last_mut().expect("pushed above").insert(c.clone());
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
        assert_eq!(p.merge_pairwise(q), reference_merge_pairwise(p, q), "{p} into {q}");
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
    assert!(merged > 200, "degenerate sweep: {merged} merges of distinct orders");
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
        assert_eq!(closed, reference_closure(&orders), "width {width}: {orders:?}");
        assert!(closed.windows(2).all(|w| w[0] < w[1]), "ascending and distinct");
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
    let mut defs = vec![ColumnDef::new("id", ColumnType::Int)];
    defs.extend(columns.iter().map(|c| ColumnDef::new(*c, ColumnType::Int)));
    let mut db = Database::new();
    db.create_table(TableSchema::new("t", defs, &["id"]).expect("valid"))
        .expect("fresh");
    let mut io = IoStats::new();
    let n = rng.gen_range(1..=max_rows);
    for i in 0..n {
        let mut row = vec![Value::Int(i as i64)];
        row.extend((0..columns.len()).map(|_| Value::Int(rng.gen_range(0..domain))));
        db.table_mut("t")
            .expect("exists")
            .insert(row, &mut io)
            .expect("unique");
    }
    db.analyze_all();
    db
}

#[test]
fn indexed_execution_equals_scan() {
    let cols = ["a", "b", "c"];
    let ops = ["=", ">", "<", ">=", "<="];
    let mut rng = StdRng::seed_from_u64(0x5EEC);
    let engine = Engine::new();
    for _ in 0..64 {
        let mut db = int_table(&mut rng, &cols, 120, 30);
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
        let sql = format!("SELECT id, a, b, c FROM t WHERE {}", where_clause.join(" AND "));
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
    }
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
        "SELECT", "select", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "INSERT",
        "INTO", "VALUES", "UPDATE", "SET", "t", "x", "col_1", "é", "日本", "ß", "𝄞", "\u{301}", "'",
        "''", "'é", "'it''s'", "'日本", "`", "`naïve`", "\"", "\"ü\"", "(", ")", ",", ".", ";", "*",
        "+", "-", "--", "-- é\n", "/", "%", "=", "!", "!=", "<", "<=", "<=>", "<>", ">", ">=",
        "?", "0", "17", "1.", "1.5", "1e", "1e+", "2.5e-3", "99999999999999999999", " ", "\n", "\t",
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

// ----------------------------------------------------------- sampled clones

#[test]
fn sample_is_subset_and_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xCA);
    for _ in 0..24 {
        let n_rows = rng.gen_range(10..400i64);
        let fraction: f64 = rng.gen::<f64>();
        let seed = rng.gen_range(0..1000u64);
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
        for i in 0..n_rows {
            db.table_mut("t")
                .expect("exists")
                .insert(vec![Value::Int(i), Value::Int(i % 5)], &mut io)
                .expect("unique");
        }
        let s = db.sample(fraction, seed);
        let k = s.table("t").expect("exists").row_count();
        assert!(k <= n_rows as usize);
        // Every sampled row exists in the source (subset property).
        let mut io2 = IoStats::new();
        for row in s.table("t").expect("exists").scan_all(&mut io2) {
            let pk = vec![row[0].clone()];
            let mut io3 = IoStats::new();
            assert!(db
                .table("t")
                .expect("exists")
                .pk_lookup(&pk, &mut io3)
                .is_some());
        }
        // Same seed, same sample.
        let s2 = db.sample(fraction, seed);
        assert_eq!(k, s2.table("t").expect("exists").row_count());
    }
}

// ------------------------------------------------------ storage backends

/// Random insert / delete / update / range-scan sequences observe exactly
/// the same results on the disk-backed engine (paged heap + B+-trees) as
/// on the in-memory one — including secondary-index scans — and the disk
/// instance still matches after a close-and-reopen cycle.
#[test]
fn random_ops_are_identical_on_disk_and_memory_backends() {
    let dir = std::env::temp_dir().join(format!(
        "aim-prop-backend-{}",
        std::process::id()
    ));
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
        let lo = Value::Int(rng.gen_range(0..400i64));
        let hi = Value::Int(rng.gen_range(400..800i64));
        let mut mio = IoStats::new();
        let mut dio = IoStats::new();
        let m: Vec<_> = mem
            .table("t")
            .unwrap()
            .pk_range(&[], (Bound::Included(&lo), Bound::Excluded(&hi)), &mut mio)
            .into_iter()
            .cloned()
            .collect();
        let d: Vec<_> = disk
            .table("t")
            .unwrap()
            .pk_range(&[], (Bound::Included(&lo), Bound::Excluded(&hi)), &mut dio)
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(m, d, "round {round}: pk_range [{lo:?},{hi:?}) diverged");

        let probe = Value::Int(rng.gen_range(0..40i64));
        let m: Vec<_> = mem
            .table("t")
            .unwrap()
            .index("ix_a")
            .unwrap()
            .scan_prefix_range(
                std::slice::from_ref(&probe),
                (Bound::Unbounded, Bound::Unbounded),
                &mut mio,
            )
            .into_iter()
            .cloned()
            .collect();
        let d: Vec<_> = disk
            .table("t")
            .unwrap()
            .index("ix_a")
            .unwrap()
            .scan_prefix_range(
                std::slice::from_ref(&probe),
                (Bound::Unbounded, Bound::Unbounded),
                &mut mio,
            )
            .into_iter()
            .cloned()
            .collect();
        assert_eq!(m, d, "round {round}: index scan a={probe:?} diverged");
    }

    // Reopen the disk instance: the recovered working set must equal the
    // in-memory reference row for row and entry for entry.
    drop(disk);
    let disk = aim_core::BackendSpec::disk(&dir).provision().unwrap();
    let mut mio = IoStats::new();
    let mut dio = IoStats::new();
    let m: Vec<_> = mem.table("t").unwrap().scan_all(&mut mio).cloned().collect();
    let d: Vec<_> = disk.table("t").unwrap().scan_all(&mut dio).cloned().collect();
    assert_eq!(m, d, "reopened disk table diverged from memory reference");
    assert_eq!(
        mem.table("t").unwrap().index("ix_a").unwrap().len(),
        disk.table("t").unwrap().index("ix_a").unwrap().len(),
        "reopened index cardinality diverged"
    );
    disk.check_consistency().unwrap();
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
            r.benefiting_queries.iter().map(|(q, b)| (*q, b.to_bits())).collect()
        };
        assert_eq!(attribution(x), attribution(y), "attribution drifted for {}", x.candidate.name());
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

/// Batched what-if costing must be bit-identical to the per-config
/// reference path across randomized mixed (SELECT + DML) workloads —
/// same candidates, same benefits, same maintenance, to the last bit.
#[test]
fn batched_ranking_matches_per_config_on_random_workloads() {
    let cols = ["a", "b", "c"];
    let ops = ["=", ">", "<", ">="];
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let cm = CostModel::default();
    for case in 0..8 {
        let mut db = int_table(&mut rng, &cols, 150, 25);
        let n_stmts = rng.gen_range(3..=6usize);
        let mut runs: Vec<(String, usize)> = Vec::new();
        for _ in 0..n_stmts {
            let sql = if rng.gen_bool(0.7) {
                let pred = |rng: &mut StdRng| {
                    format!(
                        "{} {} {}",
                        cols[rng.gen_range(0..cols.len())],
                        ops[rng.gen_range(0..ops.len())],
                        rng.gen_range(0..25i64)
                    )
                };
                let p1 = pred(&mut rng);
                if rng.gen_bool(0.5) {
                    let joiner = if rng.gen_bool(0.5) { "AND" } else { "OR" };
                    format!("SELECT id FROM t WHERE {p1} {joiner} {}", pred(&mut rng))
                } else {
                    format!("SELECT id FROM t WHERE {p1}")
                }
            } else {
                format!(
                    "UPDATE t SET {} = {} WHERE id = {}",
                    cols[rng.gen_range(0..cols.len())],
                    rng.gen_range(0..25i64),
                    rng.gen_range(0..150i64)
                )
            };
            runs.push((sql, rng.gen_range(1..=4usize)));
        }
        let w = observe_workload(&mut db, &runs);
        if w.is_empty() {
            continue;
        }
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        if cands.is_empty() {
            continue;
        }
        // A cold cache each so both paths genuinely plan; equality must
        // come from the costing itself, not shared memoization.
        let cache = aim_exec::whatif::global();
        cache.clear();
        let batched = rank_candidates_with(&db, &w, &cands, &cm, 1);
        cache.clear();
        let sequential = rank_candidates_unbatched(&db, &w, &cands, &cm, 1);
        assert_ranked_bit_identical(&sequential, &batched);
        // Same property under the parallel ranking path.
        for workers in [2, 4] {
            cache.clear();
            let parallel = rank_candidates_with(&db, &w, &cands, &cm, workers);
            assert_ranked_bit_identical(&sequential, &parallel);
        }
        assert!(!batched.is_empty() || case > 0, "degenerate sweep");
    }
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
                let mut picked: Vec<&str> = cols.iter().copied().filter(|_| rng.gen_bool(0.4)).collect();
                if picked.is_empty() {
                    picked.push(cols[rng.gen_range(0..cols.len())]);
                }
                let (last, firsts) = picked.split_last().expect("non-empty");
                let mut filter: Vec<String> = firsts.iter().map(|c| format!("{c} = 3")).collect();
                filter.push(format!("{last} {} 7", if rng.gen_bool(0.5) { "=" } else { ">" }));
                let tail = match rng.gen_range(0..4usize) {
                    0 => format!(" ORDER BY {}", cols[rng.gen_range(0..cols.len())]),
                    _ => String::new(),
                };
                (format!("SELECT id FROM t WHERE {}{tail}", filter.join(" AND ")), 1)
            })
            .collect();
        let workload = observe_workload(&mut db, &runs);
        inputs.push((db, workload));
    }
    // Joins, GROUP BY and several tables.
    let tpch = common::tpch_fixture();
    let mut db = tpch.db;
    let monitor = common::observe(&mut db, tpch.texts);
    let all = SelectionConfig { min_executions: 1, min_benefit: 0.0, max_queries: usize::MAX, include_dml: true };
    inputs.push((db, select_workload(&monitor, &all)));

    let mut merged = 0;
    for (db, workload) in &mut inputs {
        for cfg in [
            CandidateGenConfig::default(),
            CandidateGenConfig { covering: aim_core::CoveringPolicy::Both, ..Default::default() },
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
    assert!(merged > 20, "degenerate sweep: {merged} candidates serve several queries");
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

/// One line per accepted candidate, then one per rejected candidate with
/// its reason down to the bit.
fn verdict(outcome: &ValidationOutcome) -> Vec<String> {
    let accepted = outcome.accepted.iter().map(|r| format!("+ {}", r.candidate.name()));
    let rejected = outcome.rejected.iter().map(|(r, why)| {
        let bits = match why {
            RejectReason::Regression { before, after, .. }
            | RejectReason::TotalCostRegression { before, after } => {
                format!(" {:016x} {:016x}", before.to_bits(), after.to_bits())
            }
            _ => String::new(),
        };
        format!("- {} {why:?}{bits}", r.candidate.name())
    });
    accepted.chain(rejected).collect()
}

/// The "no regression" guarantee, checked by an oracle that shares none of
/// validation's shortcuts: whatever `validate_on_clone` accepts is built on
/// a fresh copy of the source and every exemplar is executed in full there
/// and on an index-free copy. No exemplar may cost more than `(1 + λ₃)` ×
/// its index-free cost, every accepted index must be used by some executed
/// plan, accepted and rejected must partition the chosen set — and the
/// verdict must not depend on the worker count.
#[test]
fn validation_verdicts_hold_under_a_full_replay() {
    let cols = ["a", "b", "c", "d"];
    let ops = ["=", ">", "<", ">="];
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let engine = Engine::new();
    let (mut accepted_somewhere, mut unused_somewhere) = (false, false);
    for case in 0..12 {
        let mut db = int_table(&mut rng, &cols, 600, 30);
        // Queries read a, b and c only: nothing can use an index on d.
        let pred = |rng: &mut StdRng| {
            format!("{} {} {}", cols[rng.gen_range(0..3usize)], ops[rng.gen_range(0..4usize)], rng.gen_range(0..30i64))
        };
        // With (a) and (a, b) both built, this one reads through (a, b)
        // and leaves (a) to whoever else wants it.
        let mut runs = vec![(
            format!("SELECT id FROM t WHERE a = {} AND b = {}", rng.gen_range(0..30i64), rng.gen_range(0..30i64)),
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
        let w = observe_workload(&mut db, &runs);
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let ranked = rank_candidates_with(&db, &w, &cands, &CostModel::default(), 0);
        let mut chosen = knapsack_select(&ranked, u64::MAX, 0);
        for extra in [
            injected_candidate(&["d"], 1.0),
            injected_candidate(&["a"], 2.0),
            injected_candidate(&["a", "b"], 3.0),
        ] {
            if chosen.iter().all(|r| r.candidate.name() != extra.candidate.name()) {
                chosen.push(extra);
            }
        }

        let cfg = ValidationConfig {
            workers: 1,
            // Half the cases without λ₂, so that marginal sets survive too.
            min_improvement: if case % 2 == 0 { None } else { Some(0.05) },
            ..Default::default()
        };
        let outcome = validate_on_clone(&db, &w, &chosen, &engine, &cfg).expect("validates");
        let parallel =
            validate_on_clone(&db, &w, &chosen, &engine, &ValidationConfig { workers: 4, ..cfg.clone() })
                .expect("validates");
        assert_eq!(verdict(&outcome), verdict(&parallel), "case {case}: workers 1 vs 4");

        let accepted: Vec<String> = outcome.accepted.iter().map(|r| r.candidate.name()).collect();
        let mut judged = accepted.clone();
        judged.extend(outcome.rejected.iter().map(|(r, _)| r.candidate.name()));
        judged.sort();
        let mut proposed: Vec<String> = chosen.iter().map(|r| r.candidate.name()).collect();
        proposed.sort();
        assert_eq!(judged, proposed, "case {case}: accepted ∪ rejected = chosen");
        assert!(!accepted.contains(&"aim_t_d".to_string()), "case {case}: an index nothing reads");

        let bare = db.clone();
        let mut tuned = db.clone();
        let mut io = IoStats::new();
        for r in &outcome.accepted {
            tuned.create_index(r.candidate.def(), &mut io).expect("builds");
        }
        let mut used: BTreeSet<String> = BTreeSet::new();
        for wq in &w {
            let aim_sql::Statement::Select(sel) = &wq.stats.exemplar else {
                unreachable!("read-only workload");
            };
            let before = engine.execute_select(&bare, sel).expect("executes").cost;
            let after = engine.execute_select(&tuned, sel).expect("executes");
            assert!(
                after.cost <= before * (1.0 + cfg.regression_tolerance),
                "case {case}: {} regressed {before} -> {} under {accepted:?}",
                wq.stats.exemplar,
                after.cost
            );
            used.extend(after.plan.used_indexes().into_iter().map(|(_, ix)| ix.label().into_owned()));
        }
        for name in &accepted {
            assert!(used.contains(name), "case {case}: accepted {name} is read by no plan");
        }
        accepted_somewhere |= !accepted.is_empty();
        unused_somewhere |= outcome
            .rejected
            .iter()
            .any(|(r, why)| r.candidate.name() == "aim_t_a" && *why == RejectReason::Unused);
    }
    assert!(accepted_somewhere, "degenerate sweep: nothing was ever accepted");
    assert!(unused_somewhere, "degenerate sweep: (a, b) never made (a) unused");
}

/// On small instances whose optimum is obvious — one hot equality query,
/// unlimited budget — the LP selector must agree with greedy exactly; and
/// under random budgets it may only replace the greedy set when the actual
/// workload cost is strictly lower, else fall back bit-identically.
#[test]
fn lp_selection_agrees_with_greedy_on_optimal_instances() {
    let cols = ["a", "b", "c"];
    let mut rng = StdRng::seed_from_u64(0x1B07);
    let cm = CostModel::default();
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
        let ranked = rank_candidates_with(&db, &w, &cands, &cm, 0);
        assert!(!ranked.is_empty(), "hot query produced no candidates");

        // Unlimited budget: the single useful index is provably optimal,
        // so LP refinement must return exactly the greedy selection.
        let greedy = knapsack_select(&ranked, u64::MAX, 0);
        let out =
            refine_selection(&db, &w, &ranked, &greedy, u64::MAX, &cm, &RunCtl::none()).unwrap();
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
            refine_selection(&db, &w, &ranked, &greedy, budget, &cm, &RunCtl::none()).unwrap();
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
        "a", "Z", "0", " ", "\"", "\\", "\n", "\r", "\t", "\u{0001}", "\u{001f}", "/", "é", "λ",
        "漢", "🦀", "\\n", "\"quoted\"",
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
