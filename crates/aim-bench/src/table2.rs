//! Table II: performance comparison between DBAs and AIM on production
//! workloads.
//!
//! For every profile A–G: apply the DBA-oracle index set to one clone,
//! bootstrap AIM from zero indexes on another ("all secondary indexes were
//! removed and AIM was allowed to add them from scratch", §VI-A), then
//! report index counts, total index sizes, the Jaccard similarity of the
//! two sets, and the relative per-query cost of AIM's configuration vs. the
//! DBA's (the paper's "performance at par" claim).

use crate::{jaccard, jaccard_sets, tuning_config, Scale};
use aim_monitor::WorkloadMonitor;
use aim_storage::{Database, IndexDef};
use aim_workloads::production::{apply_indexes, build, profiles};
use aim_workloads::replay::{QuerySpec, Replayer};

/// One product: the DBA oracle's configuration next to AIM's.
#[derive(Debug, Clone)]
pub struct Row {
    /// Product letter (`A`–`G`).
    pub product: String,
    pub tables: usize,
    pub join_queries: usize,
    pub dba_indexes: usize,
    pub aim_indexes: usize,
    pub dba_bytes: u64,
    pub aim_bytes: u64,
    /// Jaccard similarity of the two sets by `(table, columns)`.
    pub jaccard: f64,
    /// The same by `(table, column set)`.
    pub jaccard_sets: f64,
    /// Executed cost per statement on AIM's database / on the DBA's.
    pub cost_ratio: f64,
}

/// All seven profiles; the quick scale draws smaller tables.
pub fn run(scale: Scale) -> Vec<Row> {
    profiles()
        .into_iter()
        .map(|mut profile| {
            if scale == Scale::Quick {
                profile.rows_per_table = (60, 400);
            }
            let w = build(&profile);

            let mut dba_db = w.db.clone();
            apply_indexes(&mut dba_db, &w.dba_indexes);
            let mut aim_db = w.db.clone();
            let created = bootstrap(&mut aim_db, &w.specs);

            Row {
                product: profile.name.replace("Product ", ""),
                tables: profile.tables,
                join_queries: profile.join_queries,
                dba_indexes: w.dba_indexes.len(),
                aim_indexes: created.len(),
                dba_bytes: dba_db.total_secondary_index_bytes(),
                aim_bytes: aim_db.total_secondary_index_bytes(),
                jaccard: jaccard(&w.dba_indexes, &created),
                jaccard_sets: jaccard_sets(&w.dba_indexes, &created),
                cost_ratio: cost_per_statement(&mut aim_db, &w.specs)
                    / cost_per_statement(&mut dba_db, &w.specs).max(1e-9),
            }
        })
        .collect()
}

/// Runs AIM from scratch: observation windows of three executions per spec,
/// each followed by a tuning pass, until a pass creates nothing (at most
/// four).
fn bootstrap(db: &mut Database, specs: &[QuerySpec]) -> Vec<IndexDef> {
    let session = tuning_config(2).session();
    let mut replayer = Replayer::new(specs.to_vec(), 42);
    let mut created = Vec::new();
    for _ in 0..4 {
        let mut monitor = WorkloadMonitor::new();
        replayer.run_tick(db, Some(&mut monitor), specs.len() * 3, f64::INFINITY);
        let outcome = session.run(db, &monitor).expect("tuning pass");
        if outcome.created.is_empty() {
            break;
        }
        created.extend(outcome.created.into_iter().map(|c| c.def));
    }
    created
}

/// Executed cost per statement over two replay ticks of two executions per
/// spec.
fn cost_per_statement(db: &mut Database, specs: &[QuerySpec]) -> f64 {
    let mut replayer = Replayer::new(specs.to_vec(), 42);
    let (mut cost, mut executed) = (0.0, 0usize);
    for _ in 0..2 {
        let s = replayer.run_tick(db, None, specs.len() * 2, f64::INFINITY);
        cost += s.total_cost;
        executed += s.executed;
    }
    cost / executed.max(1) as f64
}
