//! What the read-only half of a pass produces and pays on Product B, as
//! counts — no wall clock: the candidates `generate_candidates` emits, the
//! partial-order merges behind them, what `rank_candidates_with` ranks and
//! the what-if slots it misses and hits, and the heap allocations of both
//! stages, counted exactly by a counting global allocator on one worker.
//!
//! The corpus is the benchmark's `prod_advise` and `pass_golden`'s `prodb`
//! case: every variant of every Product B query spec observed once on the
//! index-free database (184 tables, 1 058 templates).
//!
//! This is its own test binary because of the `#[global_allocator]` in
//! `common/counting.rs`; the tests read process-wide state (the global
//! what-if cache, telemetry), so they take turns.

mod common;
#[path = "common/counting.rs"]
mod counting;

use aim_core::{generate_candidates, rank_candidates_with, CandidateGenConfig, CandidateIndex};
use aim_exec::{whatif, CostModel};
use aim_monitor::{select_workload, SelectionConfig, WorkloadQuery};
use aim_storage::Database;
use aim_telemetry::metrics::PO_MERGES;
use counting::count;
use std::sync::{Mutex, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

struct ProductB {
    db: Database,
    workload: Vec<WorkloadQuery>,
}

fn product_b() -> &'static ProductB {
    static FIXTURE: OnceLock<ProductB> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let fixture = common::product_b_fixture();
        let mut db = fixture.db;
        let monitor = common::observe(&mut db, fixture.texts);
        let workload = select_workload(
            &monitor,
            &SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                max_queries: usize::MAX,
                include_dml: true,
            },
        );
        ProductB { db, workload }
    })
}

fn generate(b: &ProductB) -> Vec<CandidateIndex> {
    generate_candidates(&b.db, &b.workload, &CandidateGenConfig::default())
}

#[test]
fn candidate_generation_counts_on_product_b() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let b = product_b();
    assert_eq!(b.workload.len(), 1_058);

    let mut candidates = Vec::new();
    let allocations = count(|| candidates = generate(b));
    let sources: usize = candidates.iter().map(|c| c.sources.len()).sum();
    let widths: usize = candidates.iter().map(CandidateIndex::width).sum();

    // The closure inserts each merged order once however it finds it.
    aim_telemetry::enable();
    aim_telemetry::reset();
    let again = generate(b);
    let merges = PO_MERGES.get();
    aim_telemetry::disable();
    aim_telemetry::reset();

    eprintln!(
        "generate_candidates: {} candidates of {widths} key columns and {sources} sources, \
         {merges} merges, {allocations} allocations",
        candidates.len()
    );
    assert_eq!(candidates.len(), 2_613);
    assert_eq!((sources, widths), (SOURCES, WIDTHS));
    assert_eq!(again, candidates);
    assert_eq!(merges, MERGES, "aim.partial_order_merges");
    assert!(allocations <= GENERATE_ALLOCATIONS, "generate_candidates: {allocations} allocations");
}

/// Source fingerprints over all candidates, and key columns over all
/// candidates: provenance and chosen orders, summed.
const SOURCES: usize = 9_392;
const WIDTHS: usize = 4_757;
/// Merged orders the per-table closures add to their inputs.
const MERGES: u64 = 1_563;
/// Was 2 350 271: the all-pairs closure and the provenance loop cloned a
/// `BTreeSet<String>` per order per pair. What remains is reading the
/// queries' structure, their partial orders, and the candidates emitted.
const GENERATE_ALLOCATIONS: u64 = 300_000;

#[test]
fn ranking_counts_on_product_b() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let b = product_b();
    let candidates = generate(b);
    let cm = CostModel::default();

    let cache = whatif::global();
    cache.clear();
    let mut ranked = Vec::new();
    let allocations = count(|| ranked = rank_candidates_with(&b.db, &b.workload, &candidates, &cm, 1));
    let stats = cache.stats();
    let benefiting = ranked.iter().filter(|r| r.benefit > 0.0).count();

    eprintln!(
        "rank_candidates_with: {} ranked, {benefiting} with a benefit, {} what-if misses, \
         {} hits, {allocations} allocations",
        ranked.len(),
        stats.misses,
        stats.hits
    );
    assert_eq!(ranked.len(), 2_613);
    assert_eq!(benefiting, BENEFITING);
    assert_eq!((stats.misses, stats.hits), (WHATIF_MISSES, WHATIF_HITS), "what-if misses, hits");
    assert!(allocations <= RANK_ALLOCATIONS, "rank_candidates_with: {allocations} allocations");
}

const WHATIF_MISSES: u64 = 4_270;
const WHATIF_HITS: u64 = 119;
/// Ranked candidates some query's plan used.
const BENEFITING: usize = 782;
const RANK_ALLOCATIONS: u64 = 370_000;
