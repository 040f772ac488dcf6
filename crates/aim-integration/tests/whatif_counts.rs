//! What the what-if cache and a batch save, as counts — no wall clock.
//!
//! The second test reads process-wide telemetry counters, so the two live
//! in their own binary and take turns.

mod common;

use aim_core::{generate_candidates, try_rank_candidates_with, CandidateGenConfig, RunCtl};
use aim_exec::{HypoConfig, HypotheticalIndex, WhatIfCache};
use aim_monitor::{select_workload, SelectionConfig};
use aim_sql::{parse_statement, Statement};
use aim_storage::{ColumnDef, ColumnType, Database, IndexDef, TableSchema};
use aim_telemetry::metrics::{SELECTION_BATCH_PLAN_REUSE, WHATIF_CALLS};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

/// A second ranking over an unchanged database answers every slot from the
/// cache; a new version of one table makes exactly the slots of the
/// statements that bind it miss again.
#[test]
fn repeated_ranking_is_answered_from_the_cache_until_the_epoch_moves() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let common::Fixture { mut db, texts, .. } = common::tpch_fixture();
    let monitor = common::observe(&mut db, texts);
    db.analyze_all();
    let workload = select_workload(
        &monitor,
        &SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            max_queries: usize::MAX,
            include_dml: true,
        },
    );
    let candidates = generate_candidates(&db, &workload, &CandidateGenConfig::default());
    let cache = WhatIfCache::new();
    let bits = |db: &Database| -> Vec<(String, u64, u64)> {
        try_rank_candidates_with(db, &workload, &candidates, &RunCtl::none(), &cache)
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.candidate.name(),
                    r.benefit.to_bits(),
                    r.maintenance.to_bits(),
                )
            })
            .collect()
    };

    let first = bits(&db);
    let cold = cache.stats();
    assert!(
        !first.is_empty() && cold.misses > 0,
        "the fixture ranks nothing: {cold:?}"
    );

    let second = bits(&db);
    let warm = cache.stats();
    assert_eq!(second, first);
    assert_eq!(
        warm.misses, cold.misses,
        "an unchanged database must not be planned again"
    );
    assert_eq!(
        warm.hits - cold.hits,
        cold.hits + cold.misses,
        "every slot is a hit"
    );

    // Handing out `&mut Table` draws `orders` a new version: same data, new
    // keys for the statements that bind it, and only for those.
    db.table_mut("orders").unwrap();
    let third = bits(&db);
    let moved = cache.stats();
    assert_eq!(third, first);
    // The parent keyed entries by one version of the whole database: 60
    // misses, a cold cache's. Then 29, until a column's range conjuncts
    // became one interval: one slot fewer of the statements binding
    // `orders` misses.
    assert_eq!((cold.misses, moved.misses - warm.misses), (60, 28));

    // 28 is what ranking the 10 of 22 statements that bind `orders` costs
    // alone.
    let binds_orders: Vec<_> = workload
        .iter()
        .filter(|wq| match &wq.stats.exemplar {
            Statement::Select(sel) => sel.from.iter().any(|t| t.name == "orders"),
            _ => false,
        })
        .cloned()
        .collect();
    let alone = WhatIfCache::new();
    try_rank_candidates_with(&db, &binds_orders, &candidates, &RunCtl::none(), &alone).unwrap();
    assert_eq!((binds_orders.len(), workload.len()), (10, 22));
    assert_eq!(alone.stats().misses, moved.misses - warm.misses);
}

fn table(name: &str, columns: &[&str]) -> TableSchema {
    let columns = columns
        .iter()
        .map(|c| ColumnDef::new(*c, ColumnType::Int))
        .collect();
    TableSchema::new(name, columns, &["id"]).unwrap()
}

/// One statement priced under 320 configurations drawn from 16
/// hypotheticals, 6 of them on tables the statement does not touch: the
/// batch plans once per distinct projection of a configuration onto the
/// statement's tables, and every other miss reuses one of those plans.
#[test]
fn a_batch_plans_once_per_distinct_projection() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new();
    db.create_table(table("t", &["id", "a", "b", "c"])).unwrap();
    db.create_table(table("u", &["id", "x", "y"])).unwrap();
    db.create_table(table("v", &["id", "p", "q", "r"])).unwrap();
    let hypos: Vec<Arc<HypotheticalIndex>> = [
        ("t", vec!["a"]),
        ("t", vec!["b"]),
        ("t", vec!["c"]),
        ("t", vec!["a", "b"]),
        ("t", vec!["b", "a"]),
        ("t", vec!["b", "c"]),
        ("u", vec!["x"]),
        ("u", vec!["y"]),
        ("u", vec!["x", "y"]),
        ("u", vec!["y", "x"]),
        ("v", vec!["p"]),
        ("v", vec!["q"]),
        ("v", vec!["r"]),
        ("v", vec!["p", "q"]),
        ("v", vec!["q", "r"]),
        ("v", vec!["r", "p"]),
    ]
    .into_iter()
    .map(|(t, cols)| {
        let def = IndexDef::new("h", t, cols.into_iter().map(String::from).collect());
        Arc::new(HypotheticalIndex::build(&db, def).unwrap())
    })
    .collect();

    let mut rng = StdRng::seed_from_u64(0xba7c4);
    let configs: Vec<HypoConfig> = (0..320)
        .map(|_| {
            let picked = hypos
                .iter()
                .filter(|_| rng.gen_range(0..6usize) == 0)
                .cloned()
                .collect();
            HypoConfig::shared(picked)
        })
        .collect();
    let projections: BTreeSet<Vec<(&str, &[String])>> = configs
        .iter()
        .map(|cfg| {
            let on_statement = cfg.indexes().iter().filter(|h| h.def.table != "v");
            let mut defs: Vec<_> = on_statement
                .map(|h| (h.def.table.as_str(), &h.def.columns[..]))
                .collect();
            defs.sort_unstable();
            defs.dedup();
            defs
        })
        .collect();
    assert!(
        (17..configs.len()).contains(&projections.len()),
        "{} projections",
        projections.len()
    );

    let Statement::Select(select) =
        parse_statement("SELECT t.id FROM t, u WHERE t.a = u.x AND t.b = 5 AND u.y > 3").unwrap()
    else {
        unreachable!()
    };
    let refs: Vec<&HypoConfig> = configs.iter().collect();
    let cache = WhatIfCache::new();
    aim_telemetry::enable();
    aim_telemetry::reset();
    let results = cache.eval_select_batch(&db, &select, &refs);
    let (plans, reused) = (WHATIF_CALLS.get(), SELECTION_BATCH_PLAN_REUSE.get());
    aim_telemetry::disable();
    aim_telemetry::reset();

    assert!(results.iter().all(Result::is_ok));
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (0, configs.len() as u64));
    assert_eq!(
        plans,
        projections.len() as u64,
        "one real plan per distinct projection"
    );
    assert_eq!(
        plans + reused,
        stats.misses,
        "every other miss reuses a plan of the batch"
    );
}
