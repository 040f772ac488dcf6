//! The advisor and the planner read a predicate with the same functions:
//! `aim_core::metadata` builds candidate key columns from what
//! `aim_exec::predicate` (`as_sarg`, `as_join`) makes of each atom, and the
//! planner serves exactly those atoms with an access path. One table over
//! every atom shape of the SQL subset (DESIGN.md §2) states that they
//! agree, and pins by name the one shape where they still do not. A row
//! that moves is a decision that moved.

use aim_core::analyze_structure;
use aim_exec::{Binder, PredicateAnalysis, Sarg};
use aim_sql::{parse_statement, Statement};
use aim_storage::{ColumnDef, ColumnType, Database, TableSchema};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Index-prefix predicate: equality, `<=>`, `IN`, `IS NULL`.
    Ipp,
    Range,
    /// Equality join edge to another table instance.
    Join,
}
use Class::{Ipp, Join, Range};

/// `binding.column` → how one side classifies it.
type View = BTreeSet<(String, Class)>;

fn db() -> Database {
    let mut db = Database::new();
    for (name, cols) in [("t1", ["id", "a", "b", "c"]), ("t2", ["id", "x", "y", "z"])] {
        let cols = cols
            .iter()
            .map(|c| ColumnDef::new(*c, ColumnType::Int))
            .collect();
        db.create_table(TableSchema::new(name, cols, &["id"]).unwrap())
            .unwrap();
    }
    db
}

/// What candidate generation is told: every column of a DNF factor with its
/// operator class, and every join-graph edge.
fn advisor(db: &Database, stmt: &Statement) -> View {
    let structure = analyze_structure(db, stmt).expect("binds");
    let mut view = View::new();
    for t in &structure.tables {
        let ipp = t
            .filter_groups
            .iter()
            .flat_map(|g| &g.ipp)
            .map(|c| (c, Ipp));
        let range = t
            .filter_groups
            .iter()
            .flat_map(|g| &g.range)
            .map(|c| (c, Range));
        let join = t.join_edges.values().flatten().map(|c| (c, Join));
        view.extend(
            ipp.chain(range)
                .chain(join)
                .map(|(c, k)| (format!("{}.{c}", t.binding), k)),
        );
    }
    view
}

/// What access-path enumeration is told: the sargs of the conjuncts (and of
/// a single-table OR's branches, which index-merge serves) and the join
/// edges.
fn planner(db: &Database, stmt: &Statement) -> View {
    let Statement::Select(select) = stmt else {
        panic!("the table holds SELECTs")
    };
    let binder = Binder::for_select(db, select).expect("binds");
    let analysis = PredicateAnalysis::analyze(select.where_clause.as_ref(), &binder).unwrap();
    let name = |col: aim_exec::BoundColumn| {
        let binding = &binder.tables()[col.table_idx].binding;
        format!("{binding}.{}", binder.column_name(col))
    };
    let mut view = View::new();
    let branches = analysis.or_branches.iter().flatten().flatten();
    for sarg in analysis.sargs.iter().flatten().chain(branches) {
        let class = match sarg {
            Sarg::Eq { .. } | Sarg::InList { .. } => Ipp,
            Sarg::Range { .. } => Range,
        };
        view.insert((name(sarg.column()), class));
    }
    for j in &analysis.joins {
        view.insert((name(j.left), Join));
        view.insert((name(j.right), Join));
    }
    view
}

fn view(entries: &[(&str, Class)]) -> View {
    entries.iter().map(|(c, k)| (c.to_string(), *k)).collect()
}

#[test]
fn the_advisor_and_the_planner_classify_atoms_in_one_table() {
    let db = db();
    // (predicate, what both sides see) — the shapes they agree on.
    let agreed: &[(&str, &[(&str, Class)])] = &[
        ("a = 5", &[("t1.a", Ipp)]),
        ("5 = a", &[("t1.a", Ipp)]),
        ("a = -5", &[("t1.a", Ipp)]),
        ("a = ?", &[("t1.a", Ipp)]),
        ("a <=> 5", &[("t1.a", Ipp)]),
        ("a <=> NULL", &[("t1.a", Ipp)]),
        ("a IS NULL", &[("t1.a", Ipp)]),
        ("a IN (1, 2, 3)", &[("t1.a", Ipp)]),
        ("a < 5", &[("t1.a", Range)]),
        ("a <= 5", &[("t1.a", Range)]),
        ("a > 5", &[("t1.a", Range)]),
        ("a >= ?", &[("t1.a", Range)]),
        ("5 < a", &[("t1.a", Range)]),
        ("a BETWEEN 1 AND 9", &[("t1.a", Range)]),
        // Not usable for an index, by either account.
        ("a <> 5", &[]),
        ("a NOT IN (1, 2)", &[]),
        ("a NOT BETWEEN 1 AND 9", &[]),
        ("a IS NOT NULL", &[]),
        ("a LIKE 'x%'", &[]),
        ("a + 1 = 5", &[]),
        ("NOT (a = 5)", &[]),
        ("t1.a < t2.x", &[]),
        // Column vs column of one table (TPC-H Q21's `l_receiptdate >
        // l_commitdate`), and column vs an expression that is not a
        // literal, a negated literal or a parameter: residual filters.
        ("b > c", &[]),
        ("b = c", &[]),
        ("a = b + 1", &[]),
        ("a > 1 + 2", &[]),
        ("a IN (1, b)", &[]),
        ("a BETWEEN 1 AND c", &[]),
        // An equality under NOT is not an edge.
        ("NOT (t1.a = t2.x)", &[]),
        // Trees.
        ("a = 1 AND b > 2", &[("t1.a", Ipp), ("t1.b", Range)]),
        ("a = 1 OR b > 2", &[("t1.a", Ipp), ("t1.b", Range)]),
        (
            "(a = 1 AND b = 2) OR c IN (3, 4)",
            &[("t1.a", Ipp), ("t1.b", Ipp), ("t1.c", Ipp)],
        ),
        ("t1.a = t2.x", &[("t1.a", Join), ("t2.x", Join)]),
        (
            "t1.a = t2.x AND b = 1 AND y < 3",
            &[
                ("t1.a", Join),
                ("t2.x", Join),
                ("t1.b", Ipp),
                ("t2.y", Range),
            ],
        ),
    ];
    // (name, predicate, advisor, planner) — the remaining disagreement.
    type Entries = &'static [(&'static str, Class)];
    let disagreed: &[(&str, &str, Entries, Entries)] = &[
        // Algorithm 2's DNF crosses table instances, so `b = 1` is a
        // factor of its own for the advisor; index-merge serves only an OR
        // whose every branch is sargable on one table, and a join edge is
        // one only as a top-level conjunct, so the planner sees nothing.
        (
            "join_edge_under_or",
            "t1.a = t2.x OR b = 1",
            &[("t1.b", Ipp)],
            &[],
        ),
    ];

    let parse = |predicate: &str| {
        parse_statement(&format!("SELECT t1.id FROM t1, t2 WHERE {predicate}")).expect(predicate)
    };
    for (predicate, both) in agreed {
        let stmt = parse(predicate);
        assert_eq!(advisor(&db, &stmt), view(both), "advisor on `{predicate}`");
        assert_eq!(planner(&db, &stmt), view(both), "planner on `{predicate}`");
    }
    for (name, predicate, a, p) in disagreed {
        let stmt = parse(predicate);
        assert_ne!(view(a), view(p), "{name} is listed as a disagreement");
        assert_eq!(
            advisor(&db, &stmt),
            view(a),
            "{name}: advisor on `{predicate}`"
        );
        assert_eq!(
            planner(&db, &stmt),
            view(p),
            "{name}: planner on `{predicate}`"
        );
    }
}
