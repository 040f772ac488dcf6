//! Resilient tuning sessions: the production entry point to the advisor.
//!
//! [`TuningSession`] runs one tuning pass — workload selection → candidate
//! generation → ranking → knapsack → clone validation → materialization —
//! hardened for an environment where the infrastructure misbehaves:
//!
//! * **Deadline & cancellation.** A [`RunCtl`] (per-pass deadline plus a
//!   shareable [`CancelToken`]) is threaded through candidate generation,
//!   ranking and validation; ranking checks it before every what-if call
//!   (also between the slots of a batch), validation between replayed
//!   queries, so an abort lands within one what-if call or one replayed
//!   query. A pass runs on the thread that calls it.
//! * **A fault aborts the pass.** An injected fault ([`aim_storage::fault`])
//!   in any phase propagates as [`AimError::Fault`]; the pass does not
//!   retry it. The caller's next pass — the next observation window of a
//!   [`ContinuousTuner`](crate::continuous::ContinuousTuner), the next
//!   fleet run — is the retry. A deterministic error keeps its fallback
//!   instead: it rejects one candidate or drops one observation.
//! * **Transactional materialization.** Indexes created by a pass that
//!   subsequently aborts (deadline, cancellation, fault) are rolled back
//!   before the error is returned: an aborted pass never leaves a
//!   half-materialized configuration behind.
//!
//! The pass's configuration ([`AimConfig`]) and result ([`AimOutcome`])
//! live here too. Sessions are built with [`AimConfig::builder`]:
//!
//! ```ignore
//! let session = AimConfig::builder()
//!     .storage_budget(64 << 20)
//!     .deadline(Duration::from_secs(30))
//!     .session();
//! let outcome = session.run(&mut db, &monitor)?;
//! ```

use crate::candidates::CandidateGenConfig;
use crate::error::AimError;
use crate::ledger::{DecisionLedger, Decisions};
use crate::plan::PassPlanner;
use crate::ranking::{knapsack, RankedCandidate};
use crate::sharding::ShardingProfile;
use crate::validate::{try_validate_on_clone, RejectReason, ValidationConfig};
use aim_exec::{Engine, ExecError, WhatIfCache, WhatIfCacheStats};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_storage::{Database, IndexDef, IoStats};
use aim_telemetry as tel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shareable cancellation handle. Cloning yields a handle to the *same*
/// flag, so a token obtained via [`TuningSession::cancel_token`] can cancel
/// a pass running on another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; every [`RunCtl::check`] fails from now on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`CancelToken::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Per-run control: the deadline and cancel token a pass threads through
/// its phases. Pipeline stages call [`RunCtl::check`] between queries.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl RunCtl {
    /// A control that never aborts — the legacy, un-deadlined behaviour.
    pub fn none() -> Self {
        Self::default()
    }

    /// Control with an optional cancel token and an optional absolute
    /// deadline.
    pub fn new(cancel: Option<CancelToken>, deadline: Option<Instant>) -> Self {
        Self { cancel, deadline }
    }

    /// Fails with [`AimError::Cancelled`] / [`AimError::DeadlineExceeded`]
    /// attributed to `phase` when the run should stop.
    pub fn check(&self, phase: &'static str) -> Result<(), AimError> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(AimError::Cancelled { phase });
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(AimError::DeadlineExceeded { phase });
        }
        Ok(())
    }
}

/// How the final index set is chosen from the ranked candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Greedy knapsack in utility-density order with prefix absorption —
    /// the paper's selection and the fast path.
    #[default]
    Greedy,
    /// CoPhy-style LP relaxation ([`crate::selection_lp`]): per-(statement,
    /// config) cost variables under the storage-budget constraint, solved
    /// with an in-tree simplex and rounded. Falls back to the greedy
    /// selection — bit-identically — whenever the rounded LP solution does
    /// not beat greedy on actual batched workload cost.
    Lp,
}

/// Full configuration of a tuning pass.
///
/// `#[non_exhaustive]`: construct via [`AimConfig::builder`] (or start
/// from [`AimConfig::default`]) — new fields may appear in any release
/// without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct AimConfig {
    /// Representative workload selection thresholds (§III-C).
    pub selection: SelectionConfig,
    /// Candidate generation parameters (join parameter `j`, covering
    /// policy, width cap).
    pub candidate_gen: CandidateGenConfig,
    /// Clone-validation thresholds (§VII-B).
    pub validation: ValidationConfig,
    /// Storage budget `B` in bytes for *all* secondary indexes. With a
    /// sharding profile set, this is the *fleet-wide* budget.
    pub storage_budget: u64,
    /// Skip clone validation (pure estimate mode; not recommended for
    /// production, required for like-for-like advisor benchmarks).
    pub skip_validation: bool,
    /// Sharding economics (§VIII-b): when set, candidate utilities are
    /// re-priced for a fleet of shards sharing the physical design before
    /// knapsack selection.
    pub sharding: Option<ShardingProfile>,
    /// Read by nothing in `crates/`: a pass runs on the thread that calls
    /// it. Kept only because `bench/` reads it; the next `benchmark`
    /// change deletes it.
    pub workers: usize,
    /// Record a [`crate::ledger::DecisionLedger`] entry for every
    /// candidate's lifecycle (generation → ranking → knapsack →
    /// validation → materialization, plus continuous-tuning reverts and
    /// GC). Off by default: when false the pipeline performs one bool
    /// check per phase and allocates nothing.
    pub record_ledger: bool,
    /// How the final index set is chosen from the ranked candidates
    /// (greedy knapsack by default; LP relaxation opt-in).
    pub selection_strategy: SelectionStrategy,
    /// Tenant label for dimensional telemetry: when set, the whole pass
    /// runs under a [`aim_telemetry::scope`] so every instrument the
    /// pipeline touches also records a `tenant="…"` labeled twin (fleet
    /// sessions set this to the tenant id). `None` (the default) records
    /// flat series only.
    pub tenant_label: Option<String>,
}

impl Default for AimConfig {
    fn default() -> Self {
        Self {
            selection: SelectionConfig::default(),
            candidate_gen: CandidateGenConfig::default(),
            validation: ValidationConfig::default(),
            storage_budget: u64::MAX,
            skip_validation: false,
            sharding: None,
            workers: 0,
            record_ledger: false,
            selection_strategy: SelectionStrategy::default(),
            tenant_label: None,
        }
    }
}

impl AimConfig {
    /// Starts a builder — the construction path for configs and
    /// [`TuningSession`]s.
    pub fn builder() -> AimConfigBuilder {
        AimConfigBuilder::default()
    }
}

/// One index created by a tuning pass, with its explanation.
#[derive(Debug, Clone)]
pub struct CreatedIndex {
    pub def: IndexDef,
    /// Metrics-driven explanation (benefiting queries, benefit,
    /// maintenance, size) accompanying every recommendation.
    pub explanation: String,
    pub benefit: f64,
    pub maintenance: f64,
    pub size_bytes: u64,
}

/// Outcome of one tuning pass.
///
/// `#[non_exhaustive]`: read-only for callers; new observability fields
/// may appear in any release.
#[non_exhaustive]
#[derive(Debug, Clone, Default)]
pub struct AimOutcome {
    pub created: Vec<CreatedIndex>,
    /// (index name, human-readable reject reason).
    pub rejected: Vec<(String, String)>,
    /// Number of queries in the representative workload.
    pub workload_size: usize,
    /// Number of candidate indexes generated before ranking.
    pub candidates_generated: usize,
    /// Wall-clock time of the pass (the paper's "algorithm runtime").
    pub elapsed: Duration,
    /// The pass's what-if lookups: hits and misses of the cache it asked.
    pub whatif: WhatIfCacheStats,
}

/// Builder for [`AimConfig`] (which is `#[non_exhaustive]` and cannot be
/// literal-constructed outside `aim-core`) and for the [`TuningSession`]
/// that runs it. Obtain via [`AimConfig::builder`].
#[derive(Debug, Clone, Default)]
pub struct AimConfigBuilder {
    cfg: AimConfig,
    deadline: Option<Duration>,
}

impl AimConfigBuilder {
    /// Representative workload selection thresholds (§III-C).
    pub fn selection(mut self, selection: SelectionConfig) -> Self {
        self.cfg.selection = selection;
        self
    }

    /// Candidate generation parameters.
    pub fn candidate_gen(mut self, gen: CandidateGenConfig) -> Self {
        self.cfg.candidate_gen = gen;
        self
    }

    /// Clone-validation thresholds (§VII-B).
    pub fn validation(mut self, validation: ValidationConfig) -> Self {
        self.cfg.validation = validation;
        self
    }

    /// Storage budget `B` in bytes for all secondary indexes.
    pub fn storage_budget(mut self, bytes: u64) -> Self {
        self.cfg.storage_budget = bytes;
        self
    }

    /// Skip clone validation (pure estimate mode).
    pub fn skip_validation(mut self, skip: bool) -> Self {
        self.cfg.skip_validation = skip;
        self
    }

    /// Sharding economics (§VIII-b): re-price candidates for a sharded
    /// deployment. The profile is a first-class config input — build it
    /// with the chainable [`ShardingProfile`] setters and pass it here; omit
    /// the call for an unsharded database.
    pub fn sharding(mut self, profile: ShardingProfile) -> Self {
        self.cfg.sharding = Some(profile);
        self
    }

    /// Wall-clock budget per pass. A pass that exceeds it aborts with
    /// [`AimError::DeadlineExceeded`] and rolls back anything it
    /// materialized.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Record a per-candidate decision ledger (see
    /// [`crate::ledger::DecisionLedger`]). Off by default.
    pub fn ledger(mut self, record: bool) -> Self {
        self.cfg.record_ledger = record;
        self
    }

    /// How the final index set is chosen from the ranked candidates:
    /// greedy knapsack (default) or the CoPhy-style LP relaxation
    /// ([`crate::selection_lp`]). Named `selection_strategy` because
    /// [`AimConfigBuilder::selection`] already configures *workload*
    /// selection.
    pub fn selection_strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.cfg.selection_strategy = strategy;
        self
    }

    /// Tenant label for dimensional telemetry: the whole pass runs under a
    /// [`aim_telemetry::scope`] with this tenant, so every instrument also
    /// records a `tenant="…"` labeled twin. Fleet sessions set this per
    /// tenant automatically.
    pub fn tenant(mut self, label: impl Into<String>) -> Self {
        self.cfg.tenant_label = Some(label.into());
        self
    }

    /// Finishes the configuration (e.g. as a fleet's per-tenant base).
    pub fn build(self) -> AimConfig {
        self.cfg
    }

    /// Finishes into a ready-to-run [`TuningSession`].
    pub fn session(self) -> TuningSession {
        TuningSession::new(self.cfg, self.deadline, CancelToken::new())
    }
}

/// A configured, resilient tuning pass. See the [module docs](self) for
/// the failure-handling contract; [`TuningSession::run`] executes one pass
/// and may be called repeatedly (continuous tuning reuses one session per
/// step).
#[derive(Debug, Clone)]
pub struct TuningSession {
    config: AimConfig,
    /// The execution engine validation replays on.
    engine: Engine,
    deadline: Option<Duration>,
    cancel: CancelToken,
    /// Decision audit trail, shared across clones of this session (a
    /// continuous tuner and an introspection endpoint see one ledger).
    /// Only written when `AimConfig::record_ledger` is set.
    ledger: Arc<Mutex<DecisionLedger>>,
}

impl TuningSession {
    pub(crate) fn new(config: AimConfig, deadline: Option<Duration>, cancel: CancelToken) -> Self {
        Self {
            config,
            engine: Engine::new(),
            deadline,
            cancel,
            ledger: Arc::new(Mutex::new(DecisionLedger::default())),
        }
    }

    /// The pass configuration.
    pub fn config(&self) -> &AimConfig {
        &self.config
    }

    /// The execution engine used for validation replay.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A handle that cancels any in-flight (or future) [`TuningSession::run`]
    /// on this session *and on every clone of it*: the token is an
    /// `Arc`'d flag, and cloning the session — or a
    /// [`ContinuousTuner`](crate::continuous::ContinuousTuner) holding
    /// one — clones the handle, not the flag. A clone that must not be
    /// cancelled together with its original takes a fresh token through
    /// [`TuningSession::share_cancel`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces this session's cancellation token with a shared one, so
    /// an external controller (e.g. a [`FleetSession`](crate::fleet::FleetSession)
    /// fanning out many per-tenant sessions) can cancel them all with a
    /// single flag. After this call, [`TuningSession::cancel_token`]
    /// returns handles to the shared token.
    pub fn share_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// A snapshot of the decision ledger (empty unless the session was
    /// built with [`AimConfigBuilder::ledger`]`(true)`).
    pub fn ledger(&self) -> DecisionLedger {
        self.lock_ledger().clone()
    }

    /// The ledger serialized as JSON — the `/ledger` introspection payload
    /// and what `aim_cli continuous --ledger-out` writes.
    pub fn ledger_json(&self) -> String {
        self.lock_ledger().to_json()
    }

    fn lock_ledger(&self) -> std::sync::MutexGuard<'_, DecisionLedger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends a post-pass event (rollback, revert, GC drop) to `name`'s
    /// most recent ledger record, when the session records one.
    pub(crate) fn ledger_annotate(&self, name: &str, table: &str, stage: &str, detail: String) {
        if self.config.record_ledger {
            self.lock_ledger()
                .annotate_latest(name, table, stage, detail);
        }
    }

    /// Runs one resilient tuning pass against `db`, consuming the
    /// monitor's current observation window, from a what-if cache of its
    /// own. On success, created indexes are materialized on `db`; on *any*
    /// error the pass's own indexes have been rolled back and `db` is
    /// exactly as consistent as before.
    pub fn run(
        &self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
    ) -> Result<AimOutcome, AimError> {
        self.run_with(db, monitor, &WhatIfCache::new())
    }

    /// [`TuningSession::run`] asking `cache`, which the caller keeps: a
    /// continuous tuner's across its windows, a fleet tenant's from its
    /// probe.
    pub(crate) fn run_with(
        &self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
        cache: &WhatIfCache,
    ) -> Result<AimOutcome, AimError> {
        let ctl = RunCtl::new(
            Some(self.cancel.clone()),
            self.deadline.map(|d| Instant::now() + d),
        );
        // A configured tenant label scopes the entire pass: every
        // instrument below also records a labeled twin. The scope carries
        // a `phase="tune"` label besides the tenant so a tenant's tune work
        // stays apart from its probe work
        // (`exec.whatif_calls{phase="probe",tenant=…}`), the split ROADMAP
        // item 2(j) measures.
        let _tenant_scope = self
            .config()
            .tenant_label
            .as_deref()
            .map(|t| tel::metrics::scope_phase(t, "tune"));
        // The root span is the pass's single timing source: `elapsed()`
        // works whether or not telemetry is collecting.
        let root = tel::span("aim.tune");
        let mut outcome = AimOutcome::default();
        let mut created_defs: Vec<IndexDef> = Vec::new();
        let before = cache.stats();

        match self.run_pass(db, monitor, &ctl, cache, &mut outcome, &mut created_defs) {
            Ok(()) => {
                let after = cache.stats();
                outcome.whatif = WhatIfCacheStats {
                    hits: after.hits - before.hits,
                    misses: after.misses - before.misses,
                };
                outcome.elapsed = root.elapsed();
                tel::metrics::gauge_set(
                    "db.secondary_index_bytes",
                    db.total_secondary_index_bytes() as i64,
                );
                Ok(outcome)
            }
            Err(e) => {
                // Transactional rollback: whatever this pass materialized
                // before failing is dropped again, so an aborted pass never
                // leaves a partial configuration.
                for def in created_defs.drain(..) {
                    self.ledger_annotate(
                        &def.name,
                        &def.table,
                        "rolled_back",
                        format!("pass aborted during {}: {e}", e.phase()),
                    );
                    let _ = db.drop_index(&def.table, &def.name);
                }
                tel::metrics::PASSES_ABORTED.incr();
                Err(e)
            }
        }
    }

    /// The pass body. Indexes materialized so far are reported through
    /// `created_defs` so [`TuningSession::run`] can roll them back on error.
    fn run_pass(
        &self,
        db: &mut Database,
        monitor: &WorkloadMonitor,
        ctl: &RunCtl,
        cache: &WhatIfCache,
        outcome: &mut AimOutcome,
        created_defs: &mut Vec<IndexDef>,
    ) -> Result<(), AimError> {
        let cfg = &self.config;
        let decisions = if cfg.record_ledger {
            Decisions::begin(&self.ledger)
        } else {
            Decisions::none()
        };

        // 1–3. Representative workload selection, structural candidate
        //      generation and ranking: the shared read-only half.
        let planner = PassPlanner {
            candidate_gen: &cfg.candidate_gen,
            sharding: cfg.sharding.as_ref(),
            ctl,
            decisions: &decisions,
            cache,
        };
        let (workload, ranked) = planner.plan_observed(db, monitor, &cfg.selection, outcome)?;
        if workload.is_empty() {
            return Ok(());
        }

        // 3a. Knapsack under the remaining budget.
        let shard_mult = cfg.sharding.as_ref().map_or(1, |p| p.shard_count);
        let used = db.total_secondary_index_bytes().saturating_mul(shard_mult);
        ctl.check("knapsack")?;
        let chosen = {
            let _s = tel::span("knapsack");
            let mut verdicts = decisions.recording().then(Vec::new);
            let chosen = knapsack(&ranked, cfg.storage_budget, used, verdicts.as_mut());
            for (d, r) in verdicts.iter().flatten().zip(&ranked) {
                debug_assert_eq!(d.name, r.candidate.name());
                let stage = if d.accepted {
                    "knapsack_accepted"
                } else {
                    "knapsack_rejected"
                };
                decisions.note(&r.candidate, stage, || d.reason.clone());
            }
            chosen
        };
        // 3b. Optional LP-relaxation refinement (CoPhy-style): solve the
        //     fractional selection, round, and keep whichever of
        //     {LP-rounded, greedy} has the lower actual batched workload
        //     cost — so this can only match or beat the greedy pick.
        let chosen = if cfg.selection_strategy == SelectionStrategy::Lp && !ranked.is_empty() {
            let _s = tel::span("selection_lp");
            let remaining = cfg.storage_budget.saturating_sub(used);
            let lp = crate::selection_lp::refine_selection(
                db, &workload, &ranked, &chosen, remaining, ctl, cache,
            )?;
            decisions.record(|l, pass| {
                for d in &lp.decisions {
                    l.note(
                        pass,
                        &d.name,
                        &d.table,
                        &d.columns,
                        d.stage,
                        d.detail.clone(),
                    );
                }
            });
            lp.chosen
        } else {
            chosen
        };
        if chosen.is_empty() {
            return Ok(());
        }

        // 4. Clone validation ("no regression" guarantee). It hands back
        //    its test bed, whose builds production adopts.
        let (accepted, bed): (Vec<RankedCandidate>, Option<Database>) = if cfg.skip_validation {
            for r in &chosen {
                decisions.note(&r.candidate, "validation_skipped", || {
                    "skip_validation set: estimate-only mode".to_string()
                });
            }
            (chosen, None)
        } else {
            let _s = tel::span("validation");
            let result =
                try_validate_on_clone(db, &workload, &chosen, &self.engine, &cfg.validation, ctl)?;
            for (r, reason) in result.rejected {
                let reason = reject_text(&reason);
                tel::metrics::INDEXES_REJECTED.incr();
                decisions.note(&r.candidate, "validation_rejected", || reason.clone());
                outcome.rejected.push((r.candidate.name(), reason));
            }
            for r in &result.accepted {
                decisions.note(&r.candidate, "validation_accepted", || {
                    "clone replay confirmed improvement with no regression".to_string()
                });
            }
            (result.accepted, Some(result.bed))
        };

        // 5. Materialize on production, adopting the bed's build of an
        //    index where the bed still shares the table's rows. An injected
        //    build fault aborts the pass (and the caller rolls back
        //    `created_defs`) rather than shipping a partial change set.
        let _s = tel::span("materialize");
        let mut io = IoStats::new();
        for r in accepted {
            ctl.check("materialize")?;
            let def = r.candidate.def();
            let built = match &bed {
                Some(bed) => db.create_index_from(bed, def.clone(), &mut io),
                None => db.create_index(def.clone(), &mut io),
            };
            match built {
                Err(e) if e.is_injected() => {
                    return Err(AimError::from_exec("materialize", ExecError::Storage(e)));
                }
                Ok(()) => {
                    created_defs.push(def.clone());
                    decisions.note(&r.candidate, "materialized", || {
                        format!(
                            "built on production: benefit {:.1}, maintenance {:.1}, {} bytes",
                            r.benefit, r.maintenance, r.size_bytes
                        )
                    });
                    tel::metrics::INDEXES_CREATED.incr();
                    outcome.created.push(CreatedIndex {
                        explanation: r.explanation(),
                        benefit: r.benefit,
                        maintenance: r.maintenance,
                        size_bytes: r.size_bytes,
                        def,
                    });
                }
                // Deterministic build failures (duplicate columns etc.)
                // reject the candidate, not the pass.
                Err(e) => {
                    tel::metrics::INDEXES_REJECTED.incr();
                    decisions.note(&r.candidate, "build_rejected", || {
                        format!("index build failed deterministically: {e}")
                    });
                    outcome.rejected.push((def.name, e.to_string()));
                }
            }
        }
        if db.stats_dirty() {
            db.analyze_all();
        }
        Ok(())
    }
}

/// Human-readable text for a validation reject reason.
pub(crate) fn reject_text(reason: &RejectReason) -> String {
    match reason {
        RejectReason::Unused => "optimizer never used the index during replay".to_string(),
        RejectReason::Regression {
            query,
            before,
            after,
        } => format!("query {query} regressed: {before:.1} -> {after:.1} cost units"),
        RejectReason::Unbuildable(msg) => format!("not materializable: {msg}"),
        RejectReason::NoImprovement => {
            "no query improved measurably during replay (Eq. 3)".to_string()
        }
        RejectReason::RoundsExhausted => {
            "validation rounds exhausted before a clean pass".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn cancelling_a_session_cancels_its_clones() {
        let session = AimConfig::builder().session();
        let clone = session.clone();
        session.cancel_token().cancel();
        let err = clone
            .run(&mut Database::new(), &WorkloadMonitor::new())
            .unwrap_err();
        assert!(matches!(err, AimError::Cancelled { .. }), "{err}");

        // `share_cancel` is how a clone gets a flag of its own.
        let mut independent = session.clone();
        independent.share_cancel(CancelToken::new());
        assert!(independent
            .run(&mut Database::new(), &WorkloadMonitor::new())
            .is_ok());
    }

    #[test]
    fn ctl_checks_deadline_and_cancel() {
        let ok = RunCtl::none();
        assert!(ok.check("x").is_ok());

        let expired = RunCtl::new(None, Some(Instant::now() - Duration::from_millis(1)));
        assert!(matches!(
            expired.check("ranking"),
            Err(AimError::DeadlineExceeded { phase: "ranking" })
        ));

        let token = CancelToken::new();
        let ctl = RunCtl::new(Some(token.clone()), None);
        assert!(ctl.check("x").is_ok());
        token.cancel();
        assert!(matches!(
            ctl.check("v"),
            Err(AimError::Cancelled { phase: "v" })
        ));
    }

    #[test]
    fn builder_builds_config_and_session() {
        let cfg = AimConfig::builder()
            .storage_budget(1234)
            .skip_validation(true)
            .build();
        assert_eq!(cfg.storage_budget, 1234);
        assert!(cfg.skip_validation);

        let session = AimConfig::builder()
            .deadline(Duration::from_secs(5))
            .session();
        assert_eq!(session.deadline, Some(Duration::from_secs(5)));
    }
}
