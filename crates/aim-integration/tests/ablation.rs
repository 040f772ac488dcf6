//! Ablation of candidate generation (paper §III-E, DESIGN.md §4): what
//! each mechanism buys, as the estimated cost of the join-heavy workload
//! under the configuration the pipeline selects with the mechanism off,
//! relative to the index-free cost. No budget and no clock: the ordering
//! of the variants is the claim.

use aim_core::{
    defs_to_config, generate_candidates, knapsack_select, synthetic_workload,
    try_rank_candidates_with, workload_cost, CandidateGenConfig, CoveringPolicy, RunCtl,
};
use aim_exec::{HypoConfig, WhatIfCache};
use aim_storage::IndexDef;
use aim_workloads::join_heavy::{self, JoinHeavyConfig};

#[test]
fn every_candidate_generation_mechanism_lowers_estimated_cost() {
    let db = join_heavy::build_database(&JoinHeavyConfig {
        child_rows: 4_000,
        parent_rows: 600,
        grand_rows: 100,
        dim_rows: 120,
        seed: 0xF16,
    });
    let weighted = join_heavy::weighted(17);
    let cache = WhatIfCache::new();
    let synthetic = synthetic_workload(&db, &weighted, &cache);
    let base_cost = workload_cost(&db, &weighted, &HypoConfig::none(), &cache);

    let rel_cost = |name: &str, cfg: CandidateGenConfig| -> f64 {
        let candidates = generate_candidates(&db, &synthetic, &cfg);
        let ranked =
            try_rank_candidates_with(&db, &synthetic, &candidates, &RunCtl::none(), &cache)
                .unwrap();
        let defs: Vec<IndexDef> = knapsack_select(&ranked, u64::MAX, 0)
            .into_iter()
            .map(|r| r.candidate.def())
            .collect();
        let rel = workload_cost(&db, &weighted, &defs_to_config(&db, &defs), &cache) / base_cost;
        eprintln!("{name:<12} rel_cost {rel:.3}  ({} indexes)", defs.len());
        rel
    };
    let full_cfg = CandidateGenConfig {
        join_parameter: 3,
        covering: CoveringPolicy::Both,
        ..Default::default()
    };
    let full = rel_cost("full", full_cfg.clone());
    let no_stats = rel_cost(
        "no_stats",
        CandidateGenConfig {
            use_stats: false,
            ..full_cfg.clone()
        },
    );
    let no_covering = rel_cost(
        "no_covering",
        CandidateGenConfig {
            covering: CoveringPolicy::Never,
            ..full_cfg.clone()
        },
    );
    let j0 = rel_cost(
        "j0",
        CandidateGenConfig {
            join_parameter: 0,
            ..full_cfg.clone()
        },
    );
    let no_merge = rel_cost(
        "no_merge",
        CandidateGenConfig {
            merge: false,
            ..full_cfg
        },
    );

    assert!(
        full <= no_stats,
        "statistics-free column ordering beat statistics: {no_stats} < {full}"
    );
    assert!(
        full < no_covering && no_covering < j0 && j0 < no_merge,
        "expected full < no_covering < j0 < no_merge, got {full} {no_covering} {j0} {no_merge}"
    );
    assert!(
        no_merge >= 5.0 * full,
        "partial-order merging is the largest lever: {no_merge} vs {full}"
    );
}
