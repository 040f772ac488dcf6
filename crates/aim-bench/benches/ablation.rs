//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **partial-order merging on vs. off** — merging is what discovers wide
//!   composite orderings shared across queries;
//! * **covering policy** — never / adaptive-equivalent / both;
//! * **dataless-statistics column ordering on vs. off** — §V-B's limited
//!   optimizer reliance still needs statistics in three places.
//!
//! Each variant reports both its runtime (micro-bench harness) and — via the printed
//! summary of `quality_summary` — the estimated workload cost its
//! configuration achieves, so the time/quality trade-off is visible.

use aim_core::{
    defs_to_config, generate_candidates, knapsack_select, rank_candidates, synthetic_workload,
    workload_cost, CandidateGenConfig, CoveringPolicy, WeightedQuery,
};
use aim_exec::{CostModel, HypoConfig};
use aim_monitor::WorkloadQuery;
use aim_storage::{Database, IndexDef};
use aim_bench::microbench::Criterion;
use aim_bench::{criterion_group, criterion_main};
use std::hint::black_box;

fn fixture() -> (Database, Vec<WeightedQuery>, Vec<WorkloadQuery>) {
    let cfg = aim_workloads::join_heavy::JoinHeavyConfig {
        child_rows: 4_000,
        parent_rows: 600,
        grand_rows: 100,
        dim_rows: 120,
        seed: 0xF16,
    };
    let db = aim_workloads::join_heavy::build_database(&cfg);
    let weighted = aim_workloads::join_heavy::weighted(17);
    let synthetic = synthetic_workload(&db, &weighted, &CostModel::default());
    (db, weighted, synthetic)
}

fn pipeline(db: &Database, synthetic: &[WorkloadQuery], cfg: &CandidateGenConfig) -> Vec<IndexDef> {
    let cm = CostModel::default();
    let candidates = generate_candidates(db, synthetic, cfg);
    let ranked = rank_candidates(db, synthetic, &candidates, &cm);
    knapsack_select(&ranked, u64::MAX, 0)
        .into_iter()
        .map(|r| r.candidate.def())
        .collect()
}

fn variants() -> Vec<(&'static str, CandidateGenConfig)> {
    let base = CandidateGenConfig {
        join_parameter: 3,
        covering: CoveringPolicy::Both,
        ..Default::default()
    };
    vec![
        ("full", base.clone()),
        (
            "no_merge",
            CandidateGenConfig {
                merge: false,
                ..base.clone()
            },
        ),
        (
            "no_covering",
            CandidateGenConfig {
                covering: CoveringPolicy::Never,
                ..base.clone()
            },
        ),
        (
            "no_stats",
            CandidateGenConfig {
                use_stats: false,
                ..base.clone()
            },
        ),
        (
            "j0",
            CandidateGenConfig {
                join_parameter: 0,
                ..base
            },
        ),
    ]
}

fn bench_ablations(c: &mut Criterion) {
    let (db, weighted, synthetic) = fixture();
    let cm = CostModel::default();
    let base_cost = workload_cost(&db, &weighted, &HypoConfig::only(Vec::new()), &cm);

    // Print the quality side of the trade-off once, before timing.
    eprintln!("# ablation quality (relative estimated workload cost; lower is better)");
    for (name, cfg) in variants() {
        let defs = pipeline(&db, &synthetic, &cfg);
        let cost = workload_cost(&db, &weighted, &defs_to_config(&db, &defs), &cm);
        eprintln!(
            "#   {name:<12} rel_cost {:.3}  ({} indexes)",
            cost / base_cost,
            defs.len()
        );
    }

    let mut g = c.benchmark_group("ablation_pipeline");
    g.sample_size(10);
    for (name, cfg) in variants() {
        g.bench_function(name, |b| {
            b.iter(|| black_box(pipeline(&db, &synthetic, &cfg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
