//! The read-only half of a tuning pass — Algorithm 1 up to the ranked
//! candidate list — written once.
//!
//! ```text
//! W          ← WorkloadSelection(database)
//! candidates ← GenerateCandidates(W, j)      minus what an index already serves
//! ranked     ← what-if benefit − maintenance (Eqs. 7–8), re-priced for shards
//! ```
//!
//! Three callers run it: [`TuningSession::run`](crate::session::TuningSession::run)
//! (which goes on to knapsack → validation → materialization), the fleet
//! probe (which only wants each tenant's candidate economics) and
//! [`AimAdvisor`](crate::advisor::AimAdvisor) (which brings a synthetic
//! workload and holds the database read-only, hence the two entry points).
//! What differs between them is data — the [`PassPlanner`] fields — not code:
//! retry and degradation, the already-served filter, sharding re-pricing
//! and the decision reports are the same for all three.

use crate::candidates::{is_key_prefix, try_generate_candidates, CandidateGenConfig};
use crate::error::AimError;
use crate::ledger::Decisions;
use crate::ranking::{try_rank_candidates_with, RankedCandidate};
use crate::session::{with_retry, AimOutcome, RetryPolicy, RunCtl};
use crate::sharding::ShardingProfile;
use aim_exec::CostModel;
use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor, WorkloadQuery};
use aim_storage::Database;
use aim_telemetry as tel;

/// What planning reads besides the database and the workload.
pub(crate) struct PassPlanner<'a> {
    pub candidate_gen: &'a CandidateGenConfig,
    /// Sharding economics (§VIII-b) applied to the ranked list.
    pub sharding: Option<&'a ShardingProfile>,
    /// Ranking workers on the first attempt (`0` = auto).
    pub workers: usize,
    pub cost_model: &'a CostModel,
    pub retry: &'a RetryPolicy,
    pub ctl: &'a RunCtl,
    pub decisions: &'a Decisions<'a>,
}

impl PassPlanner<'_> {
    /// Plans from an observation window: selects the representative
    /// workload, refreshes drifted statistics and ranks. Returns the
    /// workload with its ranked candidates — both empty when no query
    /// qualified. Counts, retries and degradation land in `outcome`.
    pub(crate) fn plan_observed(
        &self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
        selection: &SelectionConfig,
        outcome: &mut AimOutcome,
    ) -> Result<(Vec<WorkloadQuery>, Vec<RankedCandidate>), AimError> {
        self.ctl.check("select_workload")?;
        let workload = {
            let _s = tel::span("select_workload");
            select_workload(monitor, selection)
        };
        outcome.workload_size = workload.len();
        if workload.is_empty() {
            return Ok((workload, Vec::new()));
        }
        // Statistics are refreshed only when data or schema actually
        // drifted since the last ANALYZE — a clean pass skips the work (and
        // the what-if cache churn a spurious re-ANALYZE can cause).
        if db.stats_dirty() {
            db.analyze_all();
        }
        let ranked = self.plan(db, &workload, outcome)?;
        Ok((workload, ranked))
    }

    /// Structural candidate generation → the already-served filter →
    /// ranking under the retry ladder → sharding re-pricing.
    pub(crate) fn plan(
        &self,
        db: &Database,
        workload: &[WorkloadQuery],
        outcome: &mut AimOutcome,
    ) -> Result<Vec<RankedCandidate>, AimError> {
        let mut candidates = {
            let _s = tel::span("candidate_generation");
            try_generate_candidates(db, workload, self.candidate_gen, self.ctl)?
        };
        self.decisions.record(|l, pass| {
            for c in &candidates {
                let sources: Vec<String> = c.sources.iter().map(|f| f.to_string()).collect();
                let detail = format!(
                    "partial orders merged from {} quer{}",
                    sources.len(),
                    if sources.len() == 1 { "y" } else { "ies" }
                );
                l.observe(pass, &c.name(), &c.table, &c.columns, sources, detail);
            }
        });
        // Drop candidates that an existing index already serves: identical
        // column lists, and any candidate that is a key-prefix of an
        // existing index on the same table.
        candidates.retain(|c| {
            let Ok(table) = db.table(&c.table) else {
                return false;
            };
            match table.indexes().find(|ix| is_key_prefix(&c.columns, &ix.def().columns)) {
                Some(ix) => {
                    self.decisions.note(c, "already_served", || {
                        format!("existing index {} covers this key prefix", ix.def().name)
                    });
                    false
                }
                None => true,
            }
        });
        outcome.candidates_generated = candidates.len();

        // Ranking is retried on transient failure; after the first failed
        // attempt the phase degrades to the sequential path (workers = 1),
        // which both narrows the retry surface and keeps the output
        // bit-identical (any worker count ranks identically).
        let mut ranked = {
            let _s = tel::span("ranking");
            let (ranked, attempts) =
                with_retry(self.retry, self.ctl, "ranking", &mut outcome.retries, |attempt| {
                    let workers = if attempt == 0 { self.workers } else { 1 };
                    try_rank_candidates_with(
                        db,
                        workload,
                        &candidates,
                        self.cost_model,
                        workers,
                        self.ctl,
                    )
                })?;
            if attempts > 0 {
                outcome.note_degraded("ranking", "fell back to sequential ranking");
            }
            ranked
        };
        if let Some(profile) = self.sharding {
            profile.apply(&mut ranked);
        }
        self.decisions.record(|l, pass| {
            for r in &ranked {
                l.note_ranked(
                    pass,
                    &r.candidate.name(),
                    &r.candidate.table,
                    &r.candidate.columns,
                    (r.benefit, r.maintenance, r.size_bytes),
                );
            }
        });
        Ok(ranked)
    }
}
