//! Memoized what-if costing — the advisor's hot-path cache.
//!
//! Every index advisor in this workspace is dominated by what-if optimizer
//! calls (§III-F, Eqs. 7–8): the same `(statement, hypothetical
//! configuration)` pair is re-planned by the ranking benefit loop, the
//! marginal-attribution loop, the maintenance loop, and again on the next
//! tuning pass. [`WhatIfCache`] memoizes the numbers a caller actually
//! consumes — estimated cost, estimated result rows, and *which*
//! hypothetical indexes the plan used — keyed by:
//!
//! * the statement's [`CostStamp`]: the newest content version among the
//!   tables it binds (the prices are constants, so no model enters the
//!   key; DESIGN.md §6). A data mutation, index change
//!   or statistics drift on one of those tables draws a newer version and
//!   retires the entry without any flush protocol; a change to any other
//!   table leaves it warm,
//! * a fingerprint of the statement's printed form (literals included —
//!   unlike the monitor's normalized fingerprint, two constants with
//!   different selectivities must not share a cost), and
//! * the [`HypoConfig::canonical_key`] (order-insensitive).
//!
//! A cache is a value its caller owns and hands down to every costing
//! call it makes: one per tuning pass, one across a continuous tuner's
//! windows, one per fleet tenant for its probe and its tune, one per
//! advisor run (DESIGN.md §6 has the table). Its hits and misses are
//! therefore that owner's what-if lookups and nobody else's. Sharing a
//! cache is safe whatever it is shared across: versions are
//! process-unique, so a stale or foreign hit is impossible (a memory clone
//! shares its source's entries because it shares its contents), and a
//! capacity bound keeps a long-lived owner from accumulating dead
//! versions. An owner asks from one thread at a time, so the cache is one
//! map behind one lock.

use crate::error::ExecError;
use crate::executor::CostStamp;
use crate::hypothetical::HypoConfig;
use crate::planner::{IndexChoice, Plan, Planner};
use aim_sql::ast::Select;
use aim_sql::normalize::Fnv1a;
use aim_storage::Database;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Entry bound; a full cache is cleared wholesale (entries are cheap to
/// recompute and version churn retires them anyway).
const CAPACITY: usize = 1 << 20;

/// Fingerprint of a SELECT's printed form (literals included), hashed as
/// it prints — no intermediate `String`.
pub fn select_fingerprint(select: &Select) -> u64 {
    let mut hash = Fnv1a::new();
    write!(hash, "{select}").expect("the FNV-1a sink never fails");
    hash.finish()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    stamp: CostStamp,
    stmt: u64,
    config: u64,
}

/// What a memoized what-if call remembers: everything the advisor pipeline
/// reads off a plan without re-planning.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfEntry {
    /// Estimated plan cost (`Plan::est_cost`).
    pub cost: f64,
    /// Estimated result rows (`Plan::result_rows`) — DML costing needs it.
    pub rows: f64,
    /// [`HypotheticalIndex::def_key`](crate::HypotheticalIndex::def_key)s
    /// of the hypothetical indexes the plan used, in plan order.
    pub used_hypos: Vec<u64>,
}

/// Point-in-time cache effectiveness numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WhatIfCacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl WhatIfCacheStats {
    /// Hit fraction in `[0, 1]`; 0 when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memo table for what-if optimizer calls, with its lookup counts.
#[derive(Debug, Default)]
pub struct WhatIfCache {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<Key, WhatIfEntry>,
    stats: WhatIfCacheStats,
}

impl WhatIfCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drops every entry and zeroes the hit/miss counters.
    pub fn clear(&self) {
        let mut state = self.state();
        state.entries.clear();
        state.stats = WhatIfCacheStats::default();
    }

    /// Hits and misses so far.
    pub fn stats(&self) -> WhatIfCacheStats {
        self.state().stats
    }

    fn lookup(&self, key: &Key) -> Option<WhatIfEntry> {
        let mut state = self.state();
        let found = state.entries.get(key).cloned();
        match &found {
            Some(_) => {
                state.stats.hits += 1;
                aim_telemetry::metrics::WHATIF_CACHE_HITS.incr();
            }
            None => {
                state.stats.misses += 1;
                aim_telemetry::metrics::WHATIF_CACHE_MISSES.incr();
            }
        }
        found
    }

    fn insert(&self, key: Key, entry: WhatIfEntry) {
        let mut state = self.state();
        if state.entries.len() >= CAPACITY {
            state.entries.clear();
        }
        state.entries.insert(key, entry);
    }

    /// What-if evaluation of a SELECT under one configuration: the one-slot
    /// [`Self::eval_select_batch`].
    pub fn eval_select(
        &self,
        db: &Database,
        select: &Select,
        config: &HypoConfig,
    ) -> Result<WhatIfEntry, ExecError> {
        self.eval_select_batch(db, select, &[config])
            .pop()
            .expect("one result per config")
    }

    /// [`Self::eval_select_batch_until`] with nobody to interrupt it.
    pub fn eval_select_batch(
        &self,
        db: &Database,
        select: &Select,
        configs: &[&HypoConfig],
    ) -> Vec<Result<WhatIfEntry, ExecError>> {
        self.eval_select_batch_until(db, select, configs, &|| false)
            .expect("a batch nobody interrupts runs to completion")
    }

    /// The what-if question: prices `select` under every config in
    /// `configs`, returning per-config results in input order. Every other
    /// costing entry point of the crate is a spelling of this one, so N
    /// one-slot calls and one N-slot call answer bit-identically: debug
    /// builds plan every slot that shared anything afresh and assert its
    /// bits.
    ///
    /// Per config: the `exec.whatif` fault site fires once, before any
    /// cache interaction (an injected failure neither poisons the memo
    /// table nor skews the counters), hits/misses are accounted, and each
    /// miss is memoized under its own key. Lookups run against the cache
    /// state at batch entry, so duplicate canonical keys *within* one batch
    /// count as misses (they still share a plan, not a planner pass). What
    /// a batch shares:
    ///
    /// * the statement's stamp and fingerprint are computed once,
    /// * one [`Planner`] carries binding, predicate analysis, probe
    ///   contexts and index prices across configs
    ///   ([`Planner::set_config`]),
    /// * configs with the same [`Planner::projection`] share a single plan.
    ///
    /// `interrupted` is consulted before every slot's fault gate and before
    /// every real plan, so at most one what-if call starts after it turns
    /// true. An interrupted batch returns `None` — no partial results; the
    /// slots already planned stay memoized.
    pub fn eval_select_batch_until(
        &self,
        db: &Database,
        select: &Select,
        configs: &[&HypoConfig],
        interrupted: &dyn Fn() -> bool,
    ) -> Option<Vec<Result<WhatIfEntry, ExecError>>> {
        use aim_telemetry::metrics::{
            SELECTION_BATCHES, SELECTION_BATCH_BINDING_REUSE, SELECTION_BATCH_PLAN_REUSE,
            WHATIF_CALLS,
        };
        if configs.is_empty() {
            return Some(Vec::new());
        }
        SELECTION_BATCHES.incr();
        aim_telemetry::metrics::histogram_record("selection.batch.size", configs.len() as f64);

        let mut out: Vec<Option<Result<WhatIfEntry, ExecError>>> = vec![None; configs.len()];
        let mut misses: Vec<(usize, Key)> = Vec::new();
        let stamp = CostStamp::of(db, select.from.iter().map(|t| t.name.as_str()));
        let stmt = select_fingerprint(select);

        for (i, cfg) in configs.iter().enumerate() {
            if interrupted() {
                return None;
            }
            if let Some(aim_storage::fault::FaultKind::Fail) =
                aim_storage::fault::hit("exec.whatif")
            {
                out[i] = Some(Err(ExecError::FaultInjected {
                    site: "exec.whatif".to_string(),
                }));
                continue;
            }
            let key = Key {
                stamp,
                stmt,
                config: cfg.canonical_key(),
            };
            match self.lookup(&key) {
                Some(hit) => {
                    #[cfg(debug_assertions)]
                    audit_hit(db, select, cfg, &hit);
                    out[i] = Some(Ok(hit))
                }
                None => misses.push((i, key)),
            }
        }

        if !misses.is_empty() {
            let mut planner = match Planner::new(db, select, configs[misses[0].0]) {
                Ok(p) => p,
                Err(e) => {
                    // Binding/analysis errors are config-independent: every
                    // slot fails identically.
                    for (i, _) in &misses {
                        out[*i] = Some(Err(e.clone()));
                    }
                    return Some(out.into_iter().map(|r| r.expect("slot filled")).collect());
                }
            };
            let mut shared: HashMap<Vec<u64>, WhatIfEntry> = HashMap::new();
            let mut planned = 0usize;
            // Every slot planned on the memo's contexts and prices, and
            // every slot answered by another slot's plan: debug builds
            // audit each against a fresh planner once the batch is done.
            #[cfg(debug_assertions)]
            let mut reused = Vec::new();
            for (i, key) in misses {
                let cfg = configs[i];
                let projection = planner.projection(cfg);
                let entry = match shared.get(&projection) {
                    Some(e) => {
                        SELECTION_BATCH_PLAN_REUSE.incr();
                        #[cfg(debug_assertions)]
                        reused.push(i);
                        e.clone()
                    }
                    None => {
                        if interrupted() {
                            return None;
                        }
                        planner.set_config(cfg);
                        if planned > 0 {
                            SELECTION_BATCH_BINDING_REUSE.incr();
                            #[cfg(debug_assertions)]
                            reused.push(i);
                        }
                        planned += 1;
                        let plan = {
                            let _span = aim_telemetry::span("exec.whatif");
                            WHATIF_CALLS.incr();
                            match planner.plan() {
                                Ok(p) => p,
                                Err(e) => {
                                    out[i] = Some(Err(e));
                                    continue;
                                }
                            }
                        };
                        aim_telemetry::metrics::histogram_record("exec.whatif_cost", plan.est_cost);
                        let entry = entry_from_plan(&plan, cfg);
                        shared.insert(projection, entry.clone());
                        entry
                    }
                };
                self.insert(key, entry.clone());
                out[i] = Some(Ok(entry));
            }
            #[cfg(debug_assertions)]
            for i in reused {
                if let Some(Ok(entry)) = &out[i] {
                    audit_hit(db, select, configs[i], entry);
                }
            }
        }

        Some(out.into_iter().map(|r| r.expect("slot filled")).collect())
    }
}

/// Everything the advisor pipeline reads off a plan, with used
/// hypotheticals reported by position-independent definition key.
fn entry_from_plan(plan: &Plan, config: &HypoConfig) -> WhatIfEntry {
    let used_hypos = plan
        .used_indexes()
        .iter()
        .filter_map(|(_, choice)| match choice {
            IndexChoice::Hypothetical(k) => Some(config.indexes()[*k].def_key()),
            _ => None,
        })
        .collect();
    WhatIfEntry {
        cost: plan.est_cost,
        rows: plan.result_rows,
        used_hypos,
    }
}

/// Builds with debug assertions — the test profile — plan every hit again
/// on a fresh [`Planner`], outside the fault gate, the span, the call count
/// and the cache, and hold the entry to that plan's bits: a key missing
/// something the plan depends on answers another question, and this is
/// where it shows (DESIGN.md §6). Every slot of a batch that was planned
/// on the memo's contexts and prices, or served by an equal
/// [`Planner::projection`], is held to the same bits, so an N-slot batch
/// answers what N one-slot calls would (DESIGN.md §17). The fresh plan
/// runs on the calling thread: debug allocation counts include it.
#[cfg(debug_assertions)]
fn audit_hit(db: &Database, select: &Select, config: &HypoConfig, hit: &WhatIfEntry) {
    let plan = Planner::new(db, select, config)
        .and_then(|planner| planner.plan())
        .expect("a cached statement plans");
    let fresh = entry_from_plan(&plan, config);
    assert!(
        fresh.cost.to_bits() == hit.cost.to_bits()
            && fresh.rows.to_bits() == hit.rows.to_bits()
            && fresh.used_hypos == hit.used_hypos,
        "{select}: the cache answered {hit:?}, a fresh plan {fresh:?}"
    );
}

/// The process-wide cache behind `aim_core::rank_candidates_with`, and
/// nothing else: the frozen end-to-end harness ranks through that function
/// and clears and reads this cache around it. The `benchmark` change of
/// ROADMAP item 7-i deletes it with that function's two ignored
/// parameters.
pub fn global() -> &'static WhatIfCache {
    static GLOBAL: OnceLock<WhatIfCache> = OnceLock::new();
    GLOBAL.get_or_init(WhatIfCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothetical::HypotheticalIndex;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, Database, IndexDef, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..3000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 60)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn select(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            aim_sql::Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn repeated_evaluation_hits_and_matches() {
        let db = db();
        let cache = WhatIfCache::new();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::none();
        let first = cache.eval_select(&db, &s, &cfg).unwrap();
        let second = cache.eval_select(&db, &s, &cfg).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_literals_do_not_share_entries() {
        let db = db();
        let cache = WhatIfCache::new();
        let cfg = HypoConfig::none();
        cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 7"), &cfg)
            .unwrap();
        cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 8"), &cfg)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn config_key_is_order_insensitive() {
        let db = db();
        let ha = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()])).unwrap();
        let hid =
            HypotheticalIndex::build(&db, IndexDef::new("hid", "t", vec!["id".into()])).unwrap();
        let fwd = HypoConfig::overlay(vec![ha.clone(), hid.clone()]);
        let rev = HypoConfig::overlay(vec![hid, ha]);
        assert_eq!(fwd.canonical_key(), rev.canonical_key());

        let cache = WhatIfCache::new();
        let s = select("SELECT id FROM t WHERE a = 7");
        let a = cache.eval_select(&db, &s, &fwd).unwrap();
        let b = cache.eval_select(&db, &s, &rev).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(cache.stats().hits, 1, "reordered config must hit");
    }

    #[test]
    fn cached_entry_reports_used_hypotheticals() {
        let db = db();
        let h = HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let def_key = h.def_key();
        let cfg = HypoConfig::overlay(vec![h]);
        let cache = WhatIfCache::new();
        let entry = cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 7"), &cfg)
            .unwrap();
        assert_eq!(entry.used_hypos, vec![def_key]);
    }

    #[test]
    fn a_new_table_version_invalidates_entries() {
        let mut db = db();
        db.create_table(
            TableSchema::new("u", vec![ColumnDef::new("id", ColumnType::Int)], &["id"]).unwrap(),
        )
        .unwrap();
        let cache = WhatIfCache::new();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::none();
        let before = cache.eval_select(&db, &s, &cfg).unwrap();

        // A write to a table the statement does not bind keeps the entry.
        let mut io = IoStats::new();
        db.table_mut("u")
            .unwrap()
            .insert(vec![Value::Int(1)], &mut io)
            .unwrap();
        db.analyze_all();
        assert_eq!(cache.eval_select(&db, &s, &cfg).unwrap(), before);
        assert_eq!(cache.stats().hits, 1);

        // DML growth + re-ANALYZE of `t`: its version moves, the cached
        // cost must not be reused, and the fresh cost reflects the bigger
        // table.
        let v0 = db.table("t").unwrap().version();
        for i in 3000..9000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 60)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        assert!(db.table("t").unwrap().version() > v0);

        let after = cache.eval_select(&db, &s, &cfg).unwrap();
        assert_eq!(cache.stats().hits, 1, "stale entry must miss");
        assert!(
            after.cost > before.cost,
            "tripled table must cost more: {} vs {}",
            after.cost,
            before.cost
        );
    }

    #[test]
    fn batched_evaluation_is_bit_identical_to_sequential() {
        let db = db();
        let s = select("SELECT id FROM t WHERE a = 7");
        let ha = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()])).unwrap();
        let hid =
            HypotheticalIndex::build(&db, IndexDef::new("hid", "t", vec!["id".into()])).unwrap();
        let cfgs = [
            HypoConfig::none(),
            HypoConfig::overlay(vec![ha.clone()]),
            HypoConfig::overlay(vec![hid.clone()]),
            HypoConfig::overlay(vec![ha.clone(), hid.clone()]),
            // Same canonical keys as slots 1 and 3: each shares its plan.
            HypoConfig::overlay(vec![ha.clone()]),
            HypoConfig::overlay(vec![hid, ha]),
        ];
        let refs: Vec<&HypoConfig> = cfgs.iter().collect();

        // Batched results must be bit-identical to planning each config on
        // its own, from a cold cache.
        let seq_cache = WhatIfCache::new();
        let seq: Vec<WhatIfEntry> = refs
            .iter()
            .map(|c| {
                seq_cache.clear();
                seq_cache.eval_select(&db, &s, c).unwrap()
            })
            .collect();
        let got = WhatIfCache::new().eval_select_batch(&db, &s, &refs);
        assert_eq!(got.len(), seq.len());
        for (g, e) in got.iter().zip(&seq) {
            let g = g.as_ref().unwrap();
            assert_eq!(g.cost.to_bits(), e.cost.to_bits());
            assert_eq!(g.rows.to_bits(), e.rows.to_bits());
            assert_eq!(g.used_hypos, e.used_hypos);
        }

        // Cached: every config misses against the batch-entry snapshot,
        // then a repeat batch hits for all of them with equal entries.
        let cache = WhatIfCache::new();
        let first = cache.eval_select_batch(&db, &s, &refs);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 6));
        let second = cache.eval_select_batch(&db, &s, &refs);
        assert_eq!(cache.stats().hits, 6);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }
}
