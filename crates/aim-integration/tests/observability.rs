//! What the telemetry serves, end to end: curated HELP text for every
//! instrument a fleet pass records, the label-cardinality cap, the
//! ranking's what-if spans in the caller's profile, and the artifact's
//! JSON.

use aim_core::fleet::{FleetConfig, Tenant};
use aim_core::{
    generate_candidates, synthetic_workload, try_rank_candidates_with, AimConfig,
    CandidateGenConfig, RunCtl, WeightedQuery,
};
use aim_exec::{Engine, WhatIfCache};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema, Value};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use std::sync::Mutex;

/// Telemetry state is process-global; tests in this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn build_db(rows: i64) -> Database {
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
    insert_rows(&mut db, 0, rows);
    db.analyze_all();
    db
}

fn insert_rows(db: &mut Database, from: i64, to: i64) {
    let mut io = IoStats::new();
    for i in from..to {
        db.table_mut("t")
            .unwrap()
            .insert(
                vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 10)],
                &mut io,
            )
            .unwrap();
    }
}

/// Runs `sql` through the production execute path (the one that feeds the
/// `exec.select_cost` window histogram) and records it in the monitor.
fn run_queries(db: &mut Database, monitor: &mut WorkloadMonitor, sql: &str, n: usize) {
    let engine = Engine::new();
    let stmt = parse_statement(sql).unwrap();
    for _ in 0..n {
        let out = engine.execute(db, &stmt).unwrap();
        monitor.record(&stmt, &out);
    }
}

/// Every series the introspection endpoint serves must carry curated
/// HELP/TYPE metadata — a scrape of a representative run may not fall
/// back to the generic help text for any instrument the pipeline records.
#[test]
fn every_served_metric_has_curated_help() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    // Drive a representative slice of the pipeline so the snapshot holds
    // real series: a fleet pass (scoped, so labeled twins exist too).
    let mut tenants = vec![
        Tenant::new("ha", build_db(2000)),
        Tenant::new("hb", build_db(2000)),
    ];
    for t in tenants.iter_mut() {
        let _scope = aim_telemetry::scope(&t.id);
        run_queries(
            &mut t.db,
            &mut t.monitor,
            "SELECT id FROM t WHERE a = 5",
            10,
        );
    }
    let fleet = FleetConfig::builder()
        .base(
            AimConfig::builder()
                .selection(SelectionConfig {
                    min_executions: 1,
                    min_benefit: 0.0,
                    max_queries: 50,
                    include_dml: true,
                })
                .build(),
        )
        .session();
    let out = fleet.run(&mut tenants);
    assert_eq!(out.tuned(), 2);

    let snap = aim_telemetry::snapshot();
    let names: Vec<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n.name())
        .chain(snap.gauges.iter().map(|(n, _)| n.name()))
        .chain(snap.histograms.iter().map(|(n, _)| n.name()))
        .collect();
    assert!(names.len() >= 20, "fixture too thin: {names:?}");
    let missing: Vec<&&str> = names
        .iter()
        .filter(|n| !aim_telemetry::metrics::has_help(n))
        .collect();
    assert!(
        missing.is_empty(),
        "served metrics lacking curated HELP metadata: {missing:?}"
    );

    // And the exposition itself carries a HELP and TYPE line per family.
    let text = aim_telemetry::render_prometheus(&snap);
    let helps = text.lines().filter(|l| l.starts_with("# HELP ")).count();
    let types = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(helps, types);
    assert!(helps >= 20, "exposition families missing metadata:\n{text}");

    aim_telemetry::disable();
}

/// Property: however many random tenants a shuffled recording stream fans
/// out over, the dimensional registry never exceeds its cap. The first
/// `cap` distinct tenants (in stream order) get their own series; every
/// later tenant folds deterministically into `tenant="__other__"`; no
/// count is lost anywhere; and `telemetry.series_dropped` counts exactly
/// the folded observations. Replaying the identical stream reproduces
/// the identical snapshot.
#[test]
fn cardinality_cap_folds_deterministically_and_conserves_totals() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    let mut rng = StdRng::seed_from_u64(0x0B5E);

    for case in 0..20 {
        let cap = rng.gen_range(4..24usize);
        let n_tenants = cap + rng.gen_range(1..32usize);
        let tenants: Vec<String> = (0..n_tenants).map(|i| format!("t{i:03}")).collect();
        // 1–4 recordings per tenant, Fisher-Yates shuffled into one stream.
        let mut events: Vec<(usize, u64)> = Vec::new();
        for i in 0..n_tenants {
            for _ in 0..rng.gen_range(1..=4usize) {
                events.push((i, rng.gen_range(1..100u64)));
            }
        }
        for i in (1..events.len()).rev() {
            let j = rng.gen_range(0..=i);
            events.swap(i, j);
        }

        let replay = |events: &[(usize, u64)]| {
            aim_telemetry::reset();
            aim_telemetry::metrics::set_series_cap(cap);
            for (i, n) in events {
                let _s = aim_telemetry::scope(&tenants[*i]);
                aim_telemetry::metrics::counter_add("prop.fold_hits", *n);
            }
            let snap = aim_telemetry::snapshot();
            let dropped = snap.counter("telemetry.series_dropped").unwrap_or(0);
            let flat = snap.counter("prop.fold_hits").unwrap_or(0);
            let mut labeled: Vec<(String, u64)> = snap
                .counters
                .into_iter()
                .filter(|(s, _)| s.name() == "prop.fold_hits" && !s.labels().is_empty())
                .map(|(s, v)| (s.to_string(), v))
                .collect();
            labeled.sort();
            (labeled, flat, dropped)
        };
        let (labeled, flat, dropped) = replay(&events);

        // Expected: first `cap` distinct tenants in stream order admitted,
        // the rest folded into __other__.
        let mut admitted: Vec<usize> = Vec::new();
        for (i, _) in &events {
            if !admitted.contains(i) {
                admitted.push(*i);
            }
        }
        let (admitted, folded) = admitted.split_at(cap.min(admitted.len()));
        let mut expected: Vec<(String, u64)> = admitted
            .iter()
            .map(|i| {
                let sum: u64 = events.iter().filter(|(j, _)| j == i).map(|(_, n)| n).sum();
                (format!("prop.fold_hits{{tenant=\"{}\"}}", tenants[*i]), sum)
            })
            .collect();
        if !folded.is_empty() {
            let other: u64 = events
                .iter()
                .filter(|(j, _)| folded.contains(j))
                .map(|(_, n)| n)
                .sum();
            expected.push(("prop.fold_hits{tenant=\"__other__\"}".to_string(), other));
        }
        expected.sort();

        let total: u64 = events.iter().map(|(_, n)| n).sum();
        assert_eq!(labeled, expected, "case {case}: admission order broken");
        assert_eq!(flat, total, "case {case}: flat total lost counts");
        assert_eq!(
            labeled.iter().map(|(_, v)| v).sum::<u64>(),
            total,
            "case {case}: labeled series + fold bucket lost counts"
        );
        let folded_events = events.iter().filter(|(j, _)| folded.contains(j)).count();
        assert_eq!(
            dropped, folded_events as u64,
            "case {case}: series_dropped must count folded observations"
        );

        // Determinism: the identical stream reproduces the identical state.
        assert_eq!(replay(&events), (labeled, flat, dropped), "case {case}");

        // The same stream through a taxonomy counter: its atomic is never
        // touched under a scope, and both reads of the all-tenant total
        // are the sum over its series, fold bucket included.
        aim_telemetry::reset();
        aim_telemetry::metrics::set_series_cap(cap);
        for (i, n) in &events {
            let _s = aim_telemetry::scope(&tenants[*i]);
            aim_telemetry::metrics::MONITOR_RECORDS.add(*n);
        }
        let snap = aim_telemetry::snapshot();
        let series: u64 = snap
            .counters
            .iter()
            .filter(|(s, _)| s.name() == "monitor.records" && !s.labels().is_empty())
            .map(|(_, v)| v)
            .sum();
        assert_eq!(series, total, "case {case}");
        assert_eq!(snap.counter("monitor.records"), Some(total), "case {case}");
        assert_eq!(
            aim_telemetry::metrics::MONITOR_RECORDS.get(),
            total,
            "case {case}"
        );
    }

    aim_telemetry::reset();
    aim_telemetry::disable();
}

/// Ranking runs on the calling thread, so its what-if calls are recorded in
/// the caller's profile: `exec.whatif` under the open `ranking` span.
#[test]
fn ranking_profile_records_whatif_under_ranking() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let db = build_db(4000);
    let sqls = [
        "SELECT id FROM t WHERE a = 7",
        "SELECT id FROM t WHERE b = 3",
        "SELECT id FROM t WHERE a = 9 AND b = 1",
        "SELECT a FROM t WHERE b = 2",
    ];
    let weighted: Vec<WeightedQuery> = sqls
        .iter()
        .map(|sql| WeightedQuery::new(parse_statement(sql).unwrap(), 10.0))
        .collect();
    let workload = synthetic_workload(&db, &weighted, &WhatIfCache::new());
    let candidates = generate_candidates(&db, &workload, &CandidateGenConfig::default());
    assert!(!candidates.is_empty(), "need candidates to rank");

    // A cold cache, so the ranking plans (and records its spans) rather
    // than answering from the synthetic workload's entries.
    let cache = WhatIfCache::new();
    aim_telemetry::enable();
    aim_telemetry::reset();
    {
        let _s = aim_telemetry::span("ranking");
        let _ = try_rank_candidates_with(&db, &workload, &candidates, &RunCtl::none(), &cache);
    }
    let profile = aim_telemetry::take_profile();
    aim_telemetry::disable();
    let ranking = profile.child("ranking").expect("ranking span recorded");
    let whatif = ranking
        .child("exec.whatif")
        .unwrap_or_else(|| panic!("exec.whatif missing under ranking: {ranking:?}"));
    assert!(whatif.count > 0);
}

/// The hand-rolled artifact emitter and the strict `jsonv` reader agree:
/// a telemetry state loaded with escape-hostile strings (a label, a span
/// name) serializes to a document that parses, and the nasty strings
/// survive byte-for-byte.
#[test]
fn artifact_json_roundtrips_through_jsonv() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    aim_telemetry::enable();
    aim_telemetry::reset();

    const NASTY: &str = "quote \" backslash \\ newline \n tab \t control \u{1} slash / unicode é🦀";
    {
        let _outer = aim_telemetry::span(NASTY);
        let _inner = aim_telemetry::span("inner");
    }

    let doc = aim_telemetry::report::artifact_json("label \\ with \"specials\"\n");
    let parsed = aim_telemetry::jsonv::parse(&doc)
        .unwrap_or_else(|e| panic!("artifact JSON failed to parse: {e}"));

    use aim_telemetry::jsonv::Json;
    assert_eq!(
        parsed.get("label").and_then(Json::as_str),
        Some("label \\ with \"specials\"\n")
    );
    let profile = parsed.get("profile").and_then(Json::as_arr).unwrap();
    assert_eq!(profile[0].get("name").and_then(Json::as_str), Some(NASTY));
    let children = profile[0].get("children").and_then(Json::as_arr).unwrap();
    assert_eq!(
        children[0].get("name").and_then(Json::as_str),
        Some("inner")
    );

    aim_telemetry::disable();
}
