//! Microbench for batched what-if costing + LP-relaxation selection.
//!
//! The headline measurement is the tentpole claim: costing ONE statement
//! against a thousand-candidate configuration set in a single batched
//! planner pass ([`aim_exec::whatif::WhatIfCache::eval_select_batch`] —
//! parsing, binding enumeration and selectivity derivation shared, only
//! per-index access-path pricing diverging) versus the sequential
//! one-config-at-a-time loop. Both run with the what-if cache disabled so
//! the comparison is pure planner work, and every slot must be
//! bit-identical (asserted).
//!
//! On top of that it measures:
//!
//! * batched vs unbatched *ranking* (`rank_candidates_with` vs
//!   `rank_candidates_unbatched`) with bit-identical chosen configs on the
//!   greedy knapsack path,
//! * greedy vs LP selection quality across a budget sweep
//!   ([`aim_core::refine_selection`] must match or beat greedy on actual
//!   workload cost at every point — asserted), and
//! * the cross-batch what-if cache hit rate on a repeated batch.
//!
//! Usage: `cargo run -p aim-bench --bin bench_selection --release -- [quick|smoke]`
//!
//! `smoke` runs a miniature instance for CI and exits non-zero when batched
//! costs diverge from sequential, when the LP ever loses to greedy, or when
//! the batched path shows no speedup at all — the regression gates for the
//! batching layer.

use aim_core::{
    generate_candidates, knapsack_select, rank_candidates_unbatched, rank_candidates_with,
    refine_selection, synthetic_workload, CandidateGenConfig, RankedCandidate, WeightedQuery,
};
use aim_exec::{CostModel, HypoConfig, HypotheticalIndex};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IndexDef, IoStats, TableSchema, Value};
use std::sync::Arc;
use std::time::Instant;

use std::io::Write as _;

const WIDE_COLS: usize = 32;

/// A wide table whose column combinations generate the candidate set: 32
/// non-PK integer columns of varying cardinality.
fn wide_db(rows: i64) -> Database {
    let mut cols = vec![ColumnDef::new("id", ColumnType::Int)];
    for c in 0..WIDE_COLS {
        cols.push(ColumnDef::new(format!("c{c:02}"), ColumnType::Int));
    }
    let mut db = Database::new();
    db.create_table(TableSchema::new("wide", cols, &["id"]).unwrap())
        .unwrap();
    let mut io = IoStats::new();
    for i in 0..rows {
        let mut row = vec![Value::Int(i)];
        for c in 0..WIDE_COLS as i64 {
            // Cardinality varies per column so selectivities differ.
            row.push(Value::Int(i % (3 + c * 7)));
        }
        db.table_mut("wide").unwrap().insert(row, &mut io).unwrap();
    }
    db.analyze_all();
    db
}

/// `target` single- and two-column configurations over the wide table, in a
/// deterministic order: all singletons first, then pairs.
fn candidate_configs(db: &Database, target: usize) -> Vec<HypoConfig> {
    let col = |c: usize| format!("c{c:02}");
    let build = |cols: Vec<String>| {
        let name = format!("hypo_{}", cols.join("_"));
        HypotheticalIndex::build(db, IndexDef::new(name, "wide", cols)).expect("buildable")
    };
    let mut configs = Vec::with_capacity(target);
    for c in 0..WIDE_COLS {
        if configs.len() >= target {
            return configs;
        }
        configs.push(HypoConfig::shared(vec![Arc::new(build(vec![col(c)]))]));
    }
    for a in 0..WIDE_COLS {
        for b in 0..WIDE_COLS {
            if a == b {
                continue;
            }
            if configs.len() >= target {
                return configs;
            }
            configs.push(HypoConfig::shared(vec![Arc::new(build(vec![col(a), col(b)]))]));
        }
    }
    configs
}

/// Times `f` over `iters` runs, keeping the fastest (microbench discipline
/// against scheduler noise).
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..iters {
        let t = Instant::now();
        let v = f();
        let s = t.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| s < *b) {
            best = Some((v, s));
        }
    }
    best.expect("iters >= 1")
}

fn assert_ranked_equal(a: &[RankedCandidate], b: &[RankedCandidate], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.candidate.name(), y.candidate.name(), "{what}: order differs");
        assert_eq!(
            x.benefit.to_bits(),
            y.benefit.to_bits(),
            "{what}: benefit differs for {}",
            x.candidate.name()
        );
        assert_eq!(
            x.maintenance.to_bits(),
            y.maintenance.to_bits(),
            "{what}: maintenance differs for {}",
            x.candidate.name()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "smoke");
    let quick = !smoke && args.iter().any(|a| a == "quick");
    let mode = if smoke {
        "smoke"
    } else if quick {
        "quick"
    } else {
        "full"
    };
    aim_telemetry::enable();

    let (rows, target_configs, iters) = if smoke {
        (1_500i64, 64usize, 1usize)
    } else if quick {
        (3_000, 256, 2)
    } else {
        (5_000, 1_024, 3)
    };
    let db = wide_db(rows);
    let configs = candidate_configs(&db, target_configs);
    let config_refs: Vec<&HypoConfig> = configs.iter().collect();
    let cm = CostModel::default();
    let cache = aim_exec::whatif::global();

    // An OR-union statement: every branch needs its own predicate maps and
    // base access-path pricing, all of it config-independent — exactly the
    // work the batched evaluator shares across the thousand configs.
    let select = match parse_statement(
        "SELECT id FROM wide WHERE c00 = 1 OR c05 = 2 OR c11 > 40 OR c17 = 3 \
         OR c21 = 5 OR c03 = 6 OR c07 = 2 OR c09 > 10 OR c13 = 4 OR c19 = 8 \
         OR c25 = 1 OR c29 = 0",
    )
    .unwrap()
    {
        aim_sql::Statement::Select(s) => s,
        _ => unreachable!(),
    };

    // ------------------------------------------ headline: batched costing
    // Cache off: pure planner work, sequential loop vs one batched pass.
    cache.clear();
    cache.set_enabled(false);
    // Untimed warm-up of both paths.
    let _ = cache.eval_select(&db, &select, &configs[0], &cm);
    let _ = cache.eval_select_batch(&db, &select, &config_refs[..4.min(config_refs.len())], &cm);

    let (seq_entries, seq_s) = best_of(iters, || {
        config_refs
            .iter()
            .map(|cfg| cache.eval_select(&db, &select, cfg, &cm))
            .collect::<Vec<_>>()
    });
    let calls_before = aim_telemetry::metrics::WHATIF_CALLS.get();
    let (batch_entries, batch_s) = best_of(iters, || {
        cache.eval_select_batch(&db, &select, &config_refs, &cm)
    });
    let batch_calls = aim_telemetry::metrics::WHATIF_CALLS.get() - calls_before;

    assert_eq!(seq_entries.len(), batch_entries.len());
    for (i, (s, b)) in seq_entries.iter().zip(&batch_entries).enumerate() {
        let (s, b) = (s.as_ref().expect("seq slot ok"), b.as_ref().expect("batch slot ok"));
        assert_eq!(
            s.cost.to_bits(),
            b.cost.to_bits(),
            "config {i}: batched cost diverged from sequential"
        );
        assert_eq!(s.rows.to_bits(), b.rows.to_bits(), "config {i}: rows diverged");
        assert_eq!(s.used_hypos, b.used_hypos, "config {i}: used hypos diverged");
    }
    let batch_speedup = seq_s / batch_s.max(1e-9);

    // ------------------------------- ranking path: chosen-config identity
    let workload_sqls = [
        ("SELECT id FROM wide WHERE c00 = 1 AND c05 = 2", 30.0),
        ("SELECT id FROM wide WHERE c11 > 40 AND c17 = 3", 20.0),
        ("SELECT id FROM wide WHERE c03 = 2 OR c07 = 1 OR c09 = 4", 12.0),
        ("SELECT c21 FROM wide WHERE c21 = 5 AND c22 = 1", 8.0),
        ("SELECT id FROM wide WHERE c13 = 4 AND c19 = 8 AND c25 > 2", 10.0),
        ("SELECT id FROM wide WHERE c29 = 0 OR c01 = 3 OR c02 = 7 OR c04 = 9", 9.0),
        ("SELECT c06 FROM wide WHERE c06 = 2 AND c08 = 5", 7.0),
        ("SELECT id FROM wide WHERE c10 > 15 AND c12 = 1", 6.0),
        ("SELECT id FROM wide WHERE c14 = 3 OR c15 = 6 OR c16 = 2", 5.0),
        ("SELECT id FROM wide WHERE c18 = 1 AND c20 = 4 AND c23 = 0", 5.0),
        ("SELECT c24 FROM wide WHERE c24 = 2 AND c26 > 8", 4.0),
        ("SELECT id FROM wide WHERE c27 = 5 OR c28 = 3 OR c30 = 1 OR c31 = 7", 4.0),
        ("UPDATE wide SET c00 = 9 WHERE id = 100", 15.0),
        ("DELETE FROM wide WHERE c31 = 999", 2.0),
    ];
    let weighted: Vec<WeightedQuery> = workload_sqls
        .iter()
        .map(|(sql, weight)| WeightedQuery::new(parse_statement(sql).unwrap(), *weight))
        .collect();
    let workload = synthetic_workload(&db, &weighted, &cm);
    let candidates = generate_candidates(&db, &workload, &CandidateGenConfig::default());

    cache.clear();
    cache.set_enabled(false);
    let (ranked_unbatched, rank_seq_s) =
        best_of(iters, || rank_candidates_unbatched(&db, &workload, &candidates, &cm, 1));
    let (ranked_batched, rank_batch_s) =
        best_of(iters, || rank_candidates_with(&db, &workload, &candidates, &cm, 1));
    assert_ranked_equal(&ranked_unbatched, &ranked_batched, "batched ranking");
    let full_size: u64 = ranked_batched.iter().map(|r| r.size_bytes).sum();
    let chosen_a = knapsack_select(&ranked_unbatched, full_size / 2, 0);
    let chosen_b = knapsack_select(&ranked_batched, full_size / 2, 0);
    assert_ranked_equal(&chosen_a, &chosen_b, "greedy-path chosen configs");
    let rank_speedup = rank_seq_s / rank_batch_s.max(1e-9);

    // ----------------------------------- greedy vs LP across the budgets
    cache.set_enabled(true);
    let mut lp_points = Vec::new();
    for frac in [0.25f64, 0.5, 1.0] {
        let budget = ((full_size as f64) * frac) as u64;
        let greedy = knapsack_select(&ranked_batched, budget, 0);
        let out = refine_selection(&db, &workload, &ranked_batched, greedy.clone(), budget, 0, &cm);
        if out.used_lp {
            assert!(
                out.lp_cost < out.greedy_cost,
                "LP replaced greedy without beating it at budget fraction {frac}"
            );
        } else {
            assert_ranked_equal(&out.chosen, &greedy, "LP fallback");
        }
        let delta = if out.greedy_cost.is_finite() && out.greedy_cost > 0.0 {
            (out.greedy_cost - out.lp_cost.min(out.greedy_cost)) / out.greedy_cost
        } else {
            0.0
        };
        lp_points.push((frac, out.used_lp, out.greedy_cost, out.lp_cost, delta, out.iterations));
    }

    // --------------------------------------- cross-batch cache hit rate
    cache.clear();
    cache.set_enabled(true);
    let _ = cache.eval_select_batch(&db, &select, &config_refs, &cm); // cold
    let _ = cache.eval_select_batch(&db, &select, &config_refs, &cm); // warm
    let stats = cache.stats();

    let batches = aim_telemetry::metrics::SELECTION_BATCHES.get();
    let binding_reuse = aim_telemetry::metrics::SELECTION_BATCH_BINDING_REUSE.get();
    let plan_reuse = aim_telemetry::metrics::SELECTION_BATCH_PLAN_REUSE.get();

    println!(
        "# bench_selection ({mode}): {} rows, {} configs, {} ranking candidates",
        rows,
        configs.len(),
        candidates.len()
    );
    println!(
        "what-if costing: sequential {seq_s:.3}s, batched {batch_s:.3}s -> {batch_speedup:.2}x \
         ({batch_calls} planner passes in the batched pass)"
    );
    println!(
        "ranking:         unbatched {rank_seq_s:.3}s, batched {rank_batch_s:.3}s -> \
         {rank_speedup:.2}x, chosen configs bit-identical"
    );
    for (frac, used_lp, greedy_cost, lp_cost, delta, iters) in &lp_points {
        println!(
            "selection @ {frac:.2}B: greedy {greedy_cost:.1}, lp {lp_cost:.1} \
             ({} — {:.2}% better, {iters} simplex pivots)",
            if *used_lp { "LP kept" } else { "greedy kept" },
            delta * 100.0
        );
    }
    println!(
        "cache: {} hits / {} misses (hit rate {:.1}%); telemetry: {} batches, \
         {} binding reuses, {} plan reuses",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        batches,
        binding_reuse,
        plan_reuse
    );

    let lp_json: Vec<String> = lp_points
        .iter()
        .map(|(frac, used_lp, g, l, d, it)| {
            format!(
                "{{ \"budget_fraction\": {frac}, \"used_lp\": {used_lp}, \
                 \"greedy_cost\": {g:.4}, \"lp_cost\": {l:.4}, \
                 \"quality_delta\": {d:.6}, \"simplex_iterations\": {it} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"bench_selection\",\n  \"mode\": \"{mode}\",\n  \
         \"rows\": {rows},\n  \"configs_swept\": {nconfigs},\n  \
         \"ranking_candidates\": {ncands},\n  \
         \"whatif\": {{ \"sequential_s\": {seq_s:.6}, \"batched_s\": {batch_s:.6}, \
         \"speedup\": {batch_speedup:.4}, \"batched_planner_passes\": {batch_calls}, \
         \"bit_identical\": true }},\n  \
         \"ranking\": {{ \"unbatched_s\": {rank_seq_s:.6}, \"batched_s\": {rank_batch_s:.6}, \
         \"speedup\": {rank_speedup:.4}, \"chosen_bit_identical\": true }},\n  \
         \"selection\": [\n    {lp}\n  ],\n  \
         \"cache\": {{ \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate:.4} }},\n  \
         \"telemetry\": {{ \"batches\": {batches}, \"binding_reuse\": {binding_reuse}, \
         \"plan_reuse\": {plan_reuse} }}\n}}\n",
        nconfigs = configs.len(),
        ncands = candidates.len(),
        lp = lp_json.join(",\n    "),
        hits = stats.hits,
        misses = stats.misses,
        rate = stats.hit_rate(),
    );
    let path = if mode == "full" {
        "results/BENCH_selection.json".to_string()
    } else {
        format!("results/BENCH_selection_{mode}.json")
    };
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("# artifact: {path}"),
        Err(e) => eprintln!("# artifact write failed: {e}"),
    }

    // CI gates (bit-identity and LP-matches-or-beats are hard asserts
    // above; these catch performance regressions).
    if batch_speedup < 1.5 {
        eprintln!("FAIL: batched what-if costing speedup {batch_speedup:.2}x < 1.5x");
        std::process::exit(1);
    }
    if stats.hits == 0 {
        eprintln!("FAIL: repeated batch never hit the what-if cache");
        std::process::exit(1);
    }
}
