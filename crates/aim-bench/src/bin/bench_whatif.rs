//! Microbench for the what-if cost cache + parallel evaluation layer.
//!
//! Runs the advisor's two hot phases — `rank_candidates` and
//! `validate_on_clone` — on the fig4 TPC-H workload, in fig4's own shape:
//! a budget sweep that re-ranks the identical workload once per budget
//! point (7 points, like fig4's fraction grid) and then clone-validates
//! the unlimited-budget choice on a sampled test bed. Two regimes:
//!
//! * **sequential** — what-if cache disabled, one worker: the pre-cache
//!   code path, kept callable exactly for this comparison, and
//! * **cached** — cache enabled, auto workers: the production path.
//!
//! Both regimes must produce bit-identical rankings (asserted); the bench
//! then reports wall-clock speedup and cache effectiveness, and writes the
//! `results/bench_whatif.json` artifact.
//!
//! Usage: `cargo run -p aim-bench --bin bench_whatif --release -- [quick|smoke]`
//!
//! `smoke` runs a miniature instance for CI and **exits non-zero if the
//! repeated-workload scenario shows a 0% cache hit rate** — the regression
//! gate for the memoization layer.

use aim_core::{
    generate_candidates, knapsack_select, rank_candidates_with, synthetic_workload,
    validate_on_clone, CandidateGenConfig, CoveringPolicy, RankedCandidate, ValidationConfig,
};
use aim_exec::{CostModel, Engine};
use aim_monitor::WorkloadQuery;
use aim_storage::Database;
use std::io::Write as _;
use std::time::Instant;

/// fig4's full budget grid, as fractions of the unlimited configuration.
const BUDGET_FRACTIONS: &[f64] = &[0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.25];

struct PhaseTimes {
    /// First ranking pass (cold cache in the cached regime).
    rank_first_s: f64,
    /// Remaining budget-sweep ranking passes (steady state).
    rank_rest_s: f64,
    validate_s: f64,
}

impl PhaseTimes {
    fn total(&self) -> f64 {
        self.rank_first_s + self.rank_rest_s + self.validate_s
    }
}

/// One regime: fig4's budget sweep (one ranking per budget point, exactly
/// what `AimAdvisor::recommend` does per grid entry) + clone validation of
/// the unlimited-budget choice on a sampled test bed (§VII-B economical
/// test bed).
fn run_regime(
    db: &Database,
    workload: &[WorkloadQuery],
    candidates: &[aim_core::CandidateIndex],
    cm: &CostModel,
    engine: &Engine,
    cache_on: bool,
    workers: usize,
) -> (Vec<RankedCandidate>, PhaseTimes) {
    let cache = aim_exec::whatif::global();
    cache.clear();
    cache.set_enabled(cache_on);

    let t = Instant::now();
    let ranked = rank_candidates_with(db, workload, candidates, cm, workers);
    let rank_first_s = t.elapsed().as_secs_f64();
    let full_size: u64 = knapsack_select(&ranked, u64::MAX, 0)
        .iter()
        .map(|r| r.size_bytes)
        .sum();

    let t = Instant::now();
    for &frac in BUDGET_FRACTIONS {
        let budget = (full_size as f64 * frac) as u64;
        // Each grid point re-ranks the identical workload, as fig4 does.
        let r = rank_candidates_with(db, workload, candidates, cm, workers);
        assert_ranked_equal(&ranked, &r, "budget-sweep pass diverged");
        let _ = knapsack_select(&r, budget, 0);
    }
    let rank_rest_s = t.elapsed().as_secs_f64();

    let chosen = knapsack_select(&ranked, u64::MAX, 0);
    let vcfg = ValidationConfig {
        workers,
        sample_fraction: Some(0.1),
        min_improvement: Some(0.01),
        ..Default::default()
    };
    let t = Instant::now();
    let _outcome =
        validate_on_clone(db, workload, &chosen, engine, &vcfg).expect("validation failed");
    let validate_s = t.elapsed().as_secs_f64();

    (
        ranked,
        PhaseTimes {
            rank_first_s,
            rank_rest_s,
            validate_s,
        },
    )
}

/// Run a regime `iters` times and keep the fastest iteration (minimum total
/// wall clock) — the usual microbench discipline against scheduler noise.
/// Every iteration clears the cache first, so each one replays the same
/// cold-then-warm scenario and the kept cache statistics describe exactly
/// one pass.
#[allow(clippy::too_many_arguments)]
fn best_regime(
    iters: usize,
    db: &Database,
    workload: &[WorkloadQuery],
    candidates: &[aim_core::CandidateIndex],
    cm: &CostModel,
    engine: &Engine,
    cache_on: bool,
    workers: usize,
) -> (Vec<RankedCandidate>, PhaseTimes, u64) {
    let mut best: Option<(Vec<RankedCandidate>, PhaseTimes)> = None;
    let mut calls = 0;
    for _ in 0..iters {
        let c0 = aim_telemetry::metrics::WHATIF_CALLS.get();
        let (ranked, times) = run_regime(db, workload, candidates, cm, engine, cache_on, workers);
        // Deterministic per regime: the cache is cleared on entry, so every
        // iteration issues the identical number of optimizer calls.
        calls = aim_telemetry::metrics::WHATIF_CALLS.get() - c0;
        if best
            .as_ref()
            .is_none_or(|(_, t)| times.total() < t.total())
        {
            best = Some((ranked, times));
        }
    }
    let (ranked, times) = best.expect("iters must be >= 1");
    (ranked, times, calls)
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
    let quick = smoke || args.iter().any(|a| a == "quick");
    aim_telemetry::enable();

    let cfg = aim_workloads::tpch::TpchConfig {
        scale: if smoke {
            0.0003
        } else if quick {
            0.0005
        } else {
            0.001
        },
        seed: 0xAA17,
    };
    let db = aim_workloads::tpch::build_database(&cfg);
    let weighted = aim_workloads::tpch::weighted_workload(17);

    let cm = CostModel::default();
    let workload = synthetic_workload(&db, &weighted, &cm);
    let gen = CandidateGenConfig {
        join_parameter: 3,
        max_width: 4,
        covering: CoveringPolicy::Both,
        ..Default::default()
    };
    let candidates = generate_candidates(&db, &workload, &gen);
    let engine = Engine::new();
    let cache = aim_exec::whatif::global();

    // Untimed warm-up so both regimes see warm code and data structures.
    cache.set_enabled(false);
    let _ = rank_candidates_with(&db, &workload, &candidates, &cm, 1);

    let iters = if smoke { 1 } else { 3 };
    let (seq_ranked, seq, seq_calls) =
        best_regime(iters, &db, &workload, &candidates, &cm, &engine, false, 1);
    let (par_ranked, par, par_calls) =
        best_regime(iters, &db, &workload, &candidates, &cm, &engine, true, 0);
    let stats = cache.stats();

    assert_ranked_equal(&seq_ranked, &par_ranked, "cached regime diverged from sequential");

    let speedup = seq.total() / par.total().max(1e-9);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mode = if smoke {
        "smoke"
    } else if quick {
        "quick"
    } else {
        "full"
    };

    println!("# bench_whatif ({mode}): TPC-H scale {}, {} queries, {} candidates", cfg.scale, workload.len(), candidates.len());
    println!(
        "sequential:  rank {:.3}s + {:.3}s, validate {:.3}s, total {:.3}s, {} what-if calls",
        seq.rank_first_s, seq.rank_rest_s, seq.validate_s, seq.total(), seq_calls
    );
    println!(
        "cached:      rank {:.3}s + {:.3}s, validate {:.3}s, total {:.3}s, {} what-if calls",
        par.rank_first_s, par.rank_rest_s, par.validate_s, par.total(), par_calls
    );
    println!(
        "speedup {speedup:.2}x, cache {} hits / {} misses (hit rate {:.1}%), {} calls saved",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        seq_calls.saturating_sub(par_calls)
    );

    let json = format!(
        "{{\n  \"benchmark\": \"bench_whatif\",\n  \"mode\": \"{mode}\",\n  \"workload\": \"tpch\",\n  \"tpch_scale\": {scale},\n  \"queries\": {queries},\n  \"candidates\": {cands},\n  \"available_parallelism\": {workers},\n  \"sequential\": {{ \"rank_first_s\": {sr1:.6}, \"rank_sweep_s\": {sr2:.6}, \"validate_s\": {sv:.6}, \"total_s\": {st:.6}, \"whatif_calls\": {sc} }},\n  \"cached\": {{ \"rank_first_s\": {pr1:.6}, \"rank_sweep_s\": {pr2:.6}, \"validate_s\": {pv:.6}, \"total_s\": {pt:.6}, \"whatif_calls\": {pc} }},\n  \"speedup\": {speedup:.4},\n  \"whatif_calls_saved\": {saved},\n  \"cache\": {{ \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {rate:.4}, \"entries\": {entries} }},\n  \"identical_output\": true\n}}\n",
        scale = cfg.scale,
        queries = workload.len(),
        cands = candidates.len(),
        sr1 = seq.rank_first_s,
        sr2 = seq.rank_rest_s,
        sv = seq.validate_s,
        st = seq.total(),
        sc = seq_calls,
        pr1 = par.rank_first_s,
        pr2 = par.rank_rest_s,
        pv = par.validate_s,
        pt = par.total(),
        pc = par_calls,
        saved = seq_calls.saturating_sub(par_calls),
        hits = stats.hits,
        misses = stats.misses,
        rate = stats.hit_rate(),
        entries = stats.entries,
    );
    // The recorded artifact is the full run; smoke/quick runs (CI) write
    // alongside it so they never clobber the recorded numbers.
    let path = if mode == "full" {
        "results/bench_whatif.json".to_string()
    } else {
        format!("results/bench_whatif_{mode}.json")
    };
    match std::fs::create_dir_all("results")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(json.as_bytes()))
    {
        Ok(()) => eprintln!("# artifact: {path}"),
        Err(e) => eprintln!("# artifact write failed: {e}"),
    }

    // CI gate: a repeated tuning pass over an unchanged database that never
    // hits the cache means epoch keying or fingerprinting broke.
    if stats.hits == 0 {
        eprintln!("FAIL: what-if cache hit rate is 0% on the repeated-workload scenario");
        std::process::exit(1);
    }
}
