//! The content version as a differential oracle (DESIGN.md §18). A cost's
//! stamp is the newest version among the tables its statement binds (the
//! prices are constants); clone validation takes the cost the monitor recorded
//! for an exemplar wherever the exemplar's stamp on the test bed equals the
//! recording's, and the what-if cache is keyed by it. So a version must
//! name one table's contents exactly, and the newest of a set must name the
//! whole set:
//!
//! - over the TPC-H and Product B corpora, before and after their index
//!   sets, every SELECT executed on a database and on its memory clone
//!   carries the same stamp, runs an execution-identical plan, costs the
//!   same bits and returns the same rows;
//! - every kind of change to a table draws it a version never seen before
//!   and leaves every other table's alone; two clones changed apart never
//!   share one, and a clone of a disk-backed database does not share its
//!   source's;
//! - over seeded runs of changes and clones, two states with equal stamps
//!   over a set of tables have equal versions over that set, and every
//!   SELECT over it runs the same plan at the same executed and estimated
//!   cost bits and returns the same rows.

mod common;

use aim_exec::{CostStamp, Engine, ExecOutcome, Plan};
use aim_sql::{parse_statement, Select, Statement};
use aim_storage::{
    ColumnDef, ColumnType, Database, IndexDef, IoStats, PagerOptions, Row, TableSchema, Value,
};
use aim_workloads::production;
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Every table's version, by name.
fn versions(db: &Database) -> BTreeMap<String, u64> {
    db.tables()
        .map(|t| (t.schema().name.clone(), t.version()))
        .collect()
}

/// Executes every SELECT of `fixture` on its database and on a memory
/// clone, before and after the fixture's indexes; returns how many were
/// compared.
fn clone_executes_alike(fixture: common::Fixture) -> usize {
    let common::Fixture {
        name,
        texts,
        mut db,
        indexes,
    } = fixture;
    let engine = Engine::new();
    let selects: Vec<Statement> = texts
        .iter()
        .map(|sql| parse_statement(sql).unwrap())
        .filter(|stmt| matches!(stmt, Statement::Select(_)))
        .collect();
    let mut compared = 0;
    for with_indexes in [false, true] {
        if with_indexes {
            production::apply_indexes(&mut db, &indexes);
        }
        let mut clone = db.clone();
        let before = versions(&db);
        assert_eq!(versions(&clone), before, "{name}");
        for stmt in &selects {
            let on_db = engine.execute(&mut db, stmt);
            let on_clone = engine.execute(&mut clone, stmt);
            let (Ok(a), Ok(b)) = (&on_db, &on_clone) else {
                assert_eq!(on_db.is_ok(), on_clone.is_ok(), "{name}: {stmt}");
                continue;
            };
            let same = |a: &ExecOutcome, b: &ExecOutcome| {
                a.stamp == b.stamp
                    && a.plan.same_execution(&b.plan)
                    && a.cost.to_bits() == b.cost.to_bits()
                    && a.rows == b.rows
            };
            assert!(same(a, b), "{name}: {stmt}\n  source {a:?}\n  clone {b:?}");
            compared += 1;
        }
        assert_eq!(versions(&db), before, "{name}: a SELECT moved a version");
    }
    compared
}

#[test]
fn a_memory_clone_executes_every_corpus_select_alike() {
    assert_eq!(clone_executes_alike(common::tpch_fixture()), 88);
    assert_eq!(clone_executes_alike(common::product_b_fixture()), 17_616);
}

/// An UPDATE on a clone copies the rows of the table it writes and nothing
/// else: every other table keeps the source's version and rows, and every
/// TPC-H SELECT that does not bind the written table carries the same
/// stamp and runs the same plan at the same cost bits on both; one that
/// binds it carries another stamp.
#[test]
fn an_update_on_a_clone_leaves_every_unwritten_table_as_the_source_has_it() {
    let common::Fixture {
        texts,
        mut db,
        indexes,
        ..
    } = common::tpch_fixture();
    production::apply_indexes(&mut db, &indexes);
    let mut clone = db.clone();
    run(
        &mut clone,
        "UPDATE orders SET o_totalprice = 0.0 WHERE o_orderkey = 1",
    );
    let (mut ours, mut theirs) = (versions(&db), versions(&clone));
    assert_ne!(ours.remove("orders"), theirs.remove("orders"));
    assert_eq!(ours, theirs, "an unwritten table drew a version");
    for table in db.tables() {
        let name = &table.schema().name;
        let shared = table.shares_rows_with(clone.table(name).unwrap());
        assert_eq!(shared, name != "orders", "{name}: rows shared {shared}");
    }

    let engine = Engine::new();
    let (mut alike, mut moved) = (0, 0);
    for sql in &texts {
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(sel) = &stmt else {
            continue;
        };
        let a = engine.execute(&mut db, &stmt).unwrap();
        let b = engine.execute(&mut clone, &stmt).unwrap();
        if sel.from.iter().any(|t| t.name == "orders") {
            assert_ne!(a.stamp, b.stamp, "{stmt}");
            moved += 1;
        } else {
            let same = a.stamp == b.stamp
                && a.plan.same_execution(&b.plan)
                && a.cost.to_bits() == b.cost.to_bits();
            assert!(same, "{stmt}\n  source {a:?}\n  clone {b:?}");
            alike += 1;
        }
    }
    assert!(alike > 0 && moved > 0, "{alike} alike, {moved} moved");
}

fn table(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("a", ColumnType::Int),
            ColumnDef::new("b", ColumnType::Int),
        ],
        &["id"],
    )
    .unwrap()
}

/// Runs `sql` on `db`.
fn run(db: &mut Database, sql: &str) {
    Engine::new()
        .execute(db, &parse_statement(sql).unwrap())
        .unwrap();
}

/// Every version observed so far.
#[derive(Default)]
struct Seen(BTreeSet<u64>);

impl Seen {
    /// Asserts that every table of `db` holds a version never seen before.
    fn all_fresh(&mut self, db: &Database, what: &str) {
        for (name, version) in versions(db) {
            assert!(
                self.0.insert(version),
                "{what}: version {version} of {name} seen before"
            );
        }
    }

    /// Applies `change` to `db` and asserts that it drew `table` a version
    /// never seen before (`fresh`) or left it alone, and left every other
    /// table's alone.
    fn change(
        &mut self,
        db: &mut Database,
        table: &str,
        fresh: bool,
        what: &str,
        change: impl FnOnce(&mut Database),
    ) {
        let mut before = versions(db);
        change(db);
        let mut after = versions(db);
        let version = after.remove(table).unwrap();
        let was = before.remove(table);
        if fresh {
            assert!(
                self.0.insert(version),
                "{what}: version {version} of {table} seen before"
            );
        } else {
            assert_eq!(Some(version), was, "{what}: {table} drew a version");
        }
        assert_eq!(after, before, "{what}: another table's version moved");
    }
}

#[test]
fn every_change_draws_a_version_never_seen() {
    let mut seen = Seen::default();
    let mut db = Database::new();
    seen.change(&mut db, "t", true, "create_table", |db| {
        db.create_table(table("t")).unwrap()
    });
    seen.change(&mut db, "u", true, "create_table", |db| {
        db.create_table(table("u")).unwrap()
    });
    run(&mut db, "INSERT INTO u (id, a, b) VALUES (1, 1, 1)");
    db.analyze_all();
    seen.all_fresh(&db, "ANALYZE of both");

    for (what, sql) in [
        (
            "INSERT",
            "INSERT INTO t (id, a, b) VALUES (1, 10, 0), (2, 20, 0), (3, 30, 0)",
        ),
        ("UPDATE", "UPDATE t SET a = 11 WHERE id = 1"),
        ("DELETE", "DELETE FROM t WHERE id = 3"),
    ] {
        seen.change(&mut db, "t", true, what, |db| run(db, sql));
    }
    seen.change(&mut db, "t", true, "table_mut", |db| {
        db.table_mut("t").unwrap();
    });
    seen.change(
        &mut db,
        "t",
        true,
        "ANALYZE that changed statistics",
        Database::analyze_all,
    );
    seen.change(&mut db, "u", true, "DELETE", |db| {
        run(db, "DELETE FROM u WHERE id = 1")
    });
    db.analyze_all();
    seen.change(
        &mut db,
        "t",
        false,
        "ANALYZE that changed nothing",
        Database::analyze_all,
    );
    let ix_a = IndexDef::new("ix_a", "t", vec!["a".into()]);
    seen.change(&mut db, "t", true, "create_index", |db| {
        db.create_index(ix_a, &mut IoStats::new()).unwrap()
    });
    seen.change(&mut db, "t", true, "drop_index", |db| {
        db.drop_index("t", "ix_a").unwrap();
    });

    // A memory clone shares the versions until either side changes; two
    // clones changed alike still never share one.
    let mut a = db.clone();
    let mut b = db.try_clone().unwrap();
    assert_eq!((versions(&a), versions(&b)), (versions(&db), versions(&db)));
    let insert = |db: &mut Database| run(db, "INSERT INTO t (id, a, b) VALUES (9, 90, 0)");
    seen.change(&mut a, "t", true, "INSERT into one clone", insert);
    seen.change(&mut b, "t", true, "the same INSERT into another", insert);
    assert_ne!(versions(&db), versions(&a));

    // On disk: loading draws versions, and so does cloning.
    let dir = std::env::temp_dir().join(format!("aim-content-version-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut disk = Database::open_disk(&dir, PagerOptions::default()).unwrap();
    seen.change(&mut disk, "t", true, "create_table on disk", |db| {
        db.create_table(table("t")).unwrap()
    });
    seen.change(&mut disk, "u", true, "create_table on disk", |db| {
        db.create_table(table("u")).unwrap()
    });
    seen.change(&mut disk, "t", true, "insert on disk", |db| {
        let row = vec![Value::Int(1), Value::Int(10), Value::Int(0)];
        db.table_mut("t")
            .unwrap()
            .insert(row, &mut IoStats::new())
            .unwrap()
    });
    seen.all_fresh(&disk.clone(), "a clone of a disk-backed database");
    seen.all_fresh(&disk.try_clone().unwrap(), "another");
    drop(disk);
    seen.all_fresh(
        &Database::open_disk(&dir, PagerOptions::default()).unwrap(),
        "reopening",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// One SELECT over the tables of `set` (a bitmask over [`TABLES`]): an
/// equi-join chain on `a` with a filter on the first table's `b`.
fn select_over(set: usize) -> Select {
    let names: Vec<&str> = (0..TABLES.len())
        .filter(|i| set & (1 << i) != 0)
        .map(|i| TABLES[i])
        .collect();
    let joins: String = names
        .windows(2)
        .map(|w| format!(" AND {}.a = {}.a", w[0], w[1]))
        .collect();
    let sql = format!(
        "SELECT {first}.id, {last}.b FROM {from} WHERE {first}.b < 6{joins} ORDER BY {first}.id",
        first = names[0],
        last = names[names.len() - 1],
        from = names.join(", "),
    );
    match parse_statement(&sql).unwrap() {
        Statement::Select(select) => select,
        other => panic!("{other}"),
    }
}

/// What a state shows of a set of tables: their versions, and a SELECT
/// over them executed — its plan, the bits of its executed cost and of its
/// estimated cost and rows, and its result.
type Sight = (Vec<u64>, Plan, [u64; 3], Vec<Row>);

/// Looks at every set of tables of `db`: the first state seen under a
/// stamp is recorded, every later one must look the same.
fn observe(
    db: &Database,
    selects: &[(usize, Select)],
    sights: &mut HashMap<(usize, CostStamp), Sight>,
) -> usize {
    let engine = Engine::new();
    let mut compared = 0;
    for (set, select) in selects {
        let names = select.from.iter().map(|t| t.name.as_str());
        let stamp = CostStamp::of(db, names.clone());
        let versions = names
            .map(|name| db.table(name).unwrap().version())
            .collect();
        let out = engine.execute_select(db, select).unwrap();
        assert_eq!(out.stamp, stamp, "{select}");
        let costs = [out.cost, out.plan.est_cost, out.plan.result_rows].map(f64::to_bits);
        let sight = (versions, out.plan, costs, out.rows);
        match sights.get(&(*set, stamp)) {
            None => {
                sights.insert((*set, stamp), sight);
            }
            Some(first) => {
                assert_eq!(first.0, sight.0, "{select}: equal stamps, other versions");
                assert!(
                    first.1.same_execution(&sight.1) && (first.2, &first.3) == (sight.2, &sight.3),
                    "{select}: equal stamps, other costs\n  {first:?}\n  {sight:?}"
                );
                compared += 1;
            }
        }
    }
    compared
}

/// Seeded changes — DML, index DDL, ANALYZE, memory clones and clones of a
/// disk-backed database — over three tables on up to five instances; after
/// each, the changed or new instance is observed ([`observe`]).
#[test]
fn equal_stamps_over_a_set_of_tables_mean_equal_tables_and_equal_executions() {
    let dir = std::env::temp_dir().join(format!("aim-content-stamps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let selects: Vec<(usize, Select)> = (1..1 << TABLES.len())
        .map(|set| (set, select_over(set)))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x57a3);
    let disk = Database::open_disk(&dir, PagerOptions::default()).unwrap();
    let mut instances = vec![Database::new(), disk];
    let mut next_id = 0i64;
    for db in &mut instances {
        for name in TABLES {
            db.create_table(table(name)).unwrap();
            for _ in 0..12 {
                next_id += 1;
                let (a, b) = (next_id % 5, next_id % 11);
                run(
                    db,
                    &format!("INSERT INTO {name} (id, a, b) VALUES ({next_id}, {a}, {b})"),
                );
            }
        }
        db.analyze_all();
    }
    let mut sights = HashMap::new();
    let mut compared = 0;
    for _ in 0..160 {
        let mut at = rng.gen_range(0..instances.len());
        let name = TABLES[rng.gen_range(0..TABLES.len())];
        let (a, b) = (rng.gen_range(0..5i64), rng.gen_range(0..11i64));
        let db = &mut instances[at];
        match rng.gen_range(0..8usize) {
            0 | 1 => {
                next_id += 1;
                run(
                    db,
                    &format!("INSERT INTO {name} (id, a, b) VALUES ({next_id}, {a}, {b})"),
                );
            }
            2 => run(db, &format!("UPDATE {name} SET b = {b} WHERE a = {a}")),
            3 => run(db, &format!("DELETE FROM {name} WHERE a = {a} AND b = {b}")),
            4 => {
                let column = if a % 2 == 0 { "a" } else { "b" };
                let ix = format!("ix_{name}_{column}");
                if db.table(name).unwrap().index(&ix).is_some() {
                    db.drop_index(name, &ix).unwrap();
                } else {
                    let def = IndexDef::new(ix, name, vec![column.into()]);
                    db.create_index(def, &mut IoStats::new()).unwrap();
                }
            }
            5 => db.analyze_all(),
            // A clone of this instance, or of the disk-backed one.
            op => {
                let source = if op == 6 { at } else { 1 };
                let clone = instances[source].clone();
                if instances.len() < 5 {
                    instances.push(clone);
                    at = instances.len() - 1;
                } else {
                    at = rng.gen_range(2..instances.len());
                    instances[at] = clone;
                }
            }
        }
        compared += observe(&instances[at], &selects, &mut sights);
    }
    assert!(compared > 400, "only {compared} equal stamps compared");
    drop(instances);
    let _ = std::fs::remove_dir_all(&dir);
}
