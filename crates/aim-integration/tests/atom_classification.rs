//! The advisor and the planner classify predicate atoms independently:
//! `aim_core::metadata` (`classify_atom`, `collect_join_edges`) decides
//! which columns a candidate index is built from, `aim_exec::predicate`
//! (`as_sarg`, `classify_conjunct`) decides which predicates an index can
//! serve. One table over every atom shape of the SQL subset (DESIGN.md §2)
//! states where they agree and pins, by name, where they do not — the
//! baseline ROADMAP item 13(c) and the later fix start from. No behaviour
//! is changed here: a row that moves is a decision that moved.

use aim_core::analyze_structure;
use aim_exec::{Binder, PredicateAnalysis, Sarg};
use aim_sql::{parse_statement, Statement};
use aim_storage::{ColumnDef, ColumnType, Database, TableSchema};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// Index-prefix predicate: equality, `<=>`, `IN`.
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
        let t = &binder.tables()[col.table_idx];
        let schema = db.table(&t.table).unwrap().schema();
        format!("{}.{}", t.binding, schema.columns[col.col_idx].name)
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
    // (name, predicate, advisor, planner) — today's disagreements. In each
    // the advisor offers a column the planner will not use that way.
    type Entries = &'static [(&'static str, Class)];
    let disagreed: &[(&str, &str, Entries, Entries)] = &[
        // IPP for the advisor; the planner has no access path for IS NULL.
        ("is_null", "a IS NULL", &[("t1.a", Ipp)], &[]),
        // Same-table column vs column (TPC-H Q21's `l_receiptdate >
        // l_commitdate`): a range / prefix column for the advisor, a
        // residual filter for the planner.
        ("same_table_columns_range", "b > c", &[("t1.b", Range)], &[]),
        ("same_table_columns_eq", "b = c", &[("t1.b", Ipp)], &[]),
        // Column vs an expression that is not a literal, a negated literal
        // or a parameter.
        ("column_vs_expression", "a = b + 1", &[("t1.a", Ipp)], &[]),
        (
            "column_vs_constant_expression",
            "a > 1 + 2",
            &[("t1.a", Range)],
            &[],
        ),
        (
            "in_list_with_expression",
            "a IN (1, b)",
            &[("t1.a", Ipp)],
            &[],
        ),
        (
            "between_with_expression",
            "a BETWEEN 1 AND c",
            &[("t1.a", Range)],
            &[],
        ),
        // A join edge below OR or NOT: the advisor walks the whole tree
        // for edges, the planner takes them from top-level conjuncts only
        // (under NOT the predicate is not even an equality any more).
        (
            "join_edge_under_or",
            "t1.a = t2.x OR b = 1",
            &[("t1.a", Join), ("t2.x", Join), ("t1.b", Ipp)],
            &[],
        ),
        (
            "join_edge_under_not",
            "NOT (t1.a = t2.x)",
            &[("t1.a", Join), ("t2.x", Join)],
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
