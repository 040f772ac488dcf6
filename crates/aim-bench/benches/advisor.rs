//! Micro-benchmarks (criterion-style, via `aim_bench::microbench`) for the advisor pipeline: candidate
//! generation, partial-order merging, ranking, and end-to-end advisor runs
//! (AIM vs. DTA vs. Extend — the runtime comparison behind Figure 4b/4d).

use aim_baselines::{Dta, Extend};
use aim_core::{
    generate_candidates, merge_partial_orders, rank_candidates, synthetic_workload, AimAdvisor,
    CandidateGenConfig, CoveringPolicy, IndexAdvisor, PartialOrder, WeightedQuery,
};
use aim_exec::CostModel;
use aim_storage::Database;
use aim_bench::microbench::Criterion;
use aim_bench::{criterion_group, criterion_main};
use std::hint::black_box;

fn tpch_fixture() -> (Database, Vec<WeightedQuery>) {
    let cfg = aim_workloads::tpch::TpchConfig {
        scale: 0.0005,
        seed: 0xAA17,
    };
    (
        aim_workloads::tpch::build_database(&cfg),
        aim_workloads::tpch::weighted_workload(17),
    )
}

fn bench_candidate_generation(c: &mut Criterion) {
    let (db, workload) = tpch_fixture();
    let synthetic = synthetic_workload(&db, &workload, &CostModel::default());
    let cfg = CandidateGenConfig {
        join_parameter: 3,
        covering: CoveringPolicy::Both,
        ..Default::default()
    };
    c.bench_function("candidate_generation_tpch22", |b| {
        b.iter(|| black_box(generate_candidates(&db, &synthetic, &cfg)))
    });
}

fn bench_partial_order_merge(c: &mut Criterion) {
    // A merge-friendly family: nested subsets of 6 columns.
    let orders: Vec<PartialOrder> = (1..=6)
        .map(|k| {
            PartialOrder::unordered((0..k).map(|i| format!("col{i}")))
                .expect("disjoint")
        })
        .collect();
    c.bench_function("merge_partial_orders_nested6", |b| {
        b.iter(|| black_box(merge_partial_orders(&orders, true)))
    });
}

fn bench_ranking(c: &mut Criterion) {
    let (db, workload) = tpch_fixture();
    let synthetic = synthetic_workload(&db, &workload, &CostModel::default());
    let cfg = CandidateGenConfig {
        join_parameter: 3,
        covering: CoveringPolicy::Both,
        ..Default::default()
    };
    let candidates = generate_candidates(&db, &synthetic, &cfg);
    let cm = CostModel::default();
    c.bench_function("rank_candidates_tpch22", |b| {
        b.iter(|| black_box(rank_candidates(&db, &synthetic, &candidates, &cm)))
    });
}

fn bench_advisors_end_to_end(c: &mut Criterion) {
    let (db, workload) = tpch_fixture();
    let mut g = c.benchmark_group("advisor_end_to_end");
    g.sample_size(10);
    g.bench_function("aim", |b| {
        b.iter(|| {
            let mut a = AimAdvisor::new(3, 4);
            black_box(a.recommend(&db, &workload, u64::MAX))
        })
    });
    g.bench_function("dta", |b| {
        b.iter(|| {
            let mut a = Dta::new(4);
            black_box(a.recommend(&db, &workload, u64::MAX))
        })
    });
    g.bench_function("extend", |b| {
        b.iter(|| {
            let mut a = Extend::new(4);
            black_box(a.recommend(&db, &workload, u64::MAX))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_candidate_generation,
    bench_partial_order_merge,
    bench_ranking,
    bench_advisors_end_to_end
);
criterion_main!(benches);
