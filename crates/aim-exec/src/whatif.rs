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
//! * the database [`instance id`](aim_storage::Database::instance_id) and
//!   [`stats epoch`](aim_storage::Database::stats_epoch), so any data
//!   mutation, index change or statistics drift invalidates entries without
//!   any explicit flush protocol,
//! * a fingerprint of the statement's printed form (literals included —
//!   unlike the monitor's normalized fingerprint, two constants with
//!   different selectivities must not share a cost), and
//! * the [`HypoConfig::canonical_key`] (order-insensitive) combined with a
//!   fingerprint of the [`CostModel`].
//!
//! The cache is sharded (`Mutex<HashMap>` per shard) so parallel ranking
//! workers contend only on colliding shards, and it is safe to share one
//! process-global instance ([`global`]) across advisors: epoch keying makes
//! stale hits impossible, clones get fresh instance ids, and a capacity
//! bound keeps long-lived processes from accumulating dead epochs.

use crate::cost::CostModel;
use crate::error::ExecError;
use crate::hypothetical::HypoConfig;
use crate::planner::{IndexChoice, Plan, Planner};
use aim_sql::ast::Select;
use aim_sql::normalize::Fnv1a;
use aim_storage::Database;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const SHARDS: usize = 16;
/// Per-shard entry bound; a full shard is cleared wholesale (entries are
/// cheap to recompute and epoch churn retires them anyway).
const SHARD_CAPACITY: usize = 1 << 16;

/// FNV-1a of `value`'s formatted form, hashed as it prints — no
/// intermediate `String`.
fn printed_fingerprint(value: fmt::Arguments<'_>) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write_fmt(value)
        .expect("the FNV-1a sink never fails");
    hash.finish()
}

/// Fingerprint of a SELECT's printed form (literals included).
pub fn select_fingerprint(select: &Select) -> u64 {
    printed_fingerprint(format_args!("{select}"))
}

/// Fingerprint of the cost model's debug form (every constant + switch).
fn cm_fingerprint(cm: &CostModel) -> u64 {
    printed_fingerprint(format_args!("{cm:?}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    db: u64,
    epoch: u64,
    stmt: u64,
    ctx: u64,
}

impl Key {
    fn shard(&self) -> usize {
        // Mix so sequential statement hashes spread across shards.
        let mut x = self.stmt ^ self.ctx.rotate_left(32) ^ self.db ^ self.epoch;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (x >> 59) as usize % SHARDS
    }
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
    pub entries: usize,
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

/// Sharded memo table for what-if optimizer calls.
pub struct WhatIfCache {
    shards: Vec<Mutex<HashMap<Key, WhatIfEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for WhatIfCache {
    fn default() -> Self {
        Self::new()
    }
}

impl WhatIfCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Drops every entry and zeroes the hit/miss counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Current effectiveness numbers.
    pub fn stats(&self) -> WhatIfCacheStats {
        WhatIfCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
        }
    }

    fn lookup(&self, key: &Key) -> Option<WhatIfEntry> {
        let found = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned();
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                aim_telemetry::metrics::WHATIF_CACHE_HITS.incr();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                aim_telemetry::metrics::WHATIF_CACHE_MISSES.incr();
            }
        }
        found
    }

    fn insert(&self, key: Key, entry: WhatIfEntry) {
        let mut shard = self.shards[key.shard()]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAPACITY {
            shard.clear();
        }
        shard.insert(key, entry);
    }

    /// What-if evaluation of a SELECT under one configuration: the one-slot
    /// [`Self::eval_select_batch`].
    pub fn eval_select(
        &self,
        db: &Database,
        select: &Select,
        config: &HypoConfig,
        cm: &CostModel,
    ) -> Result<WhatIfEntry, ExecError> {
        self.eval_select_batch(db, select, &[config], cm)
            .pop()
            .expect("one result per config")
    }

    /// [`Self::eval_select_batch_until`] with nobody to interrupt it.
    pub fn eval_select_batch(
        &self,
        db: &Database,
        select: &Select,
        configs: &[&HypoConfig],
        cm: &CostModel,
    ) -> Vec<Result<WhatIfEntry, ExecError>> {
        self.eval_select_batch_until(db, select, configs, cm, &|| false)
            .expect("a batch nobody interrupts runs to completion")
    }

    /// The what-if question: prices `select` under every config in
    /// `configs`, returning per-config results in input order. Every other
    /// costing entry point of the crate is a spelling of this one, so N
    /// one-slot calls and one N-slot call answer bit-identically.
    ///
    /// Per config: the `exec.whatif` fault site fires once, before any
    /// cache interaction (an injected failure neither poisons the memo
    /// table nor skews the counters), hits/misses are accounted, and each
    /// miss is memoized under its own key. Lookups run against the cache
    /// state at batch entry, so duplicate canonical keys *within* one batch
    /// count as misses (they still share a plan, not a planner pass). What
    /// a batch shares:
    ///
    /// * statement + cost-model fingerprints are computed once,
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
        cm: &CostModel,
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
        let stmt_fp = select_fingerprint(select);
        let cm_fp = cm_fingerprint(cm);
        let db_id = db.instance_id();
        let epoch = db.stats_epoch();

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
                db: db_id,
                epoch,
                stmt: stmt_fp,
                ctx: cm_fp ^ cfg.canonical_key().rotate_left(17),
            };
            match self.lookup(&key) {
                Some(hit) => out[i] = Some(Ok(hit)),
                None => misses.push((i, key)),
            }
        }

        if !misses.is_empty() {
            let mut planner = match Planner::new(db, select, configs[misses[0].0], cm) {
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
            let mut shared: HashMap<(bool, Vec<u64>), WhatIfEntry> = HashMap::new();
            let mut planned = 0usize;
            for (i, key) in misses {
                let cfg = configs[i];
                let projection = planner.projection(cfg);
                let entry = match shared.get(&projection) {
                    Some(e) => {
                        SELECTION_BATCH_PLAN_REUSE.incr();
                        e.clone()
                    }
                    None => {
                        if interrupted() {
                            return None;
                        }
                        planner.set_config(cfg);
                        if planned > 0 {
                            SELECTION_BATCH_BINDING_REUSE.incr();
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
                        aim_telemetry::metrics::histogram_record(
                            "exec.whatif_cost",
                            plan.est_cost,
                        );
                        let entry = entry_from_plan(&plan, cfg);
                        shared.insert(projection, entry.clone());
                        entry
                    }
                };
                self.insert(key, entry.clone());
                out[i] = Some(Ok(entry));
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
            IndexChoice::Hypothetical(k) => Some(config.indexes[*k].def_key()),
            _ => None,
        })
        .collect();
    WhatIfEntry {
        cost: plan.est_cost,
        rows: plan.result_rows,
        used_hypos,
    }
}

/// The process-global cache every advisor path shares by default. Epoch +
/// instance-id keying makes sharing safe; [`WhatIfCache::clear`] gives a
/// measurement or a test a cold start.
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
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::only(Vec::new());
        let first = cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        let second = cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_literals_do_not_share_entries() {
        let db = db();
        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let cfg = HypoConfig::only(Vec::new());
        cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 7"), &cfg, &cm)
            .unwrap();
        cache
            .eval_select(&db, &select("SELECT id FROM t WHERE a = 8"), &cfg, &cm)
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn config_key_is_order_insensitive() {
        let db = db();
        let ha = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()]))
            .unwrap();
        let hid = HypotheticalIndex::build(&db, IndexDef::new("hid", "t", vec!["id".into()]))
            .unwrap();
        let fwd = HypoConfig::only(vec![ha.clone(), hid.clone()]);
        let rev = HypoConfig::only(vec![hid, ha]);
        assert_eq!(fwd.canonical_key(), rev.canonical_key());

        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let a = cache.eval_select(&db, &s, &fwd, &cm).unwrap();
        let b = cache.eval_select(&db, &s, &rev, &cm).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(cache.stats().hits, 1, "reordered config must hit");
    }

    #[test]
    fn cached_entry_reports_used_hypotheticals() {
        let db = db();
        let h = HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()]))
            .unwrap();
        let def_key = h.def_key();
        let cfg = HypoConfig::only(vec![h]);
        let cache = WhatIfCache::new();
        let entry = cache
            .eval_select(
                &db,
                &select("SELECT id FROM t WHERE a = 7"),
                &cfg,
                &CostModel::default(),
            )
            .unwrap();
        assert_eq!(entry.used_hypos, vec![def_key]);
    }

    #[test]
    fn stats_epoch_bump_invalidates_entries() {
        let mut db = db();
        let cache = WhatIfCache::new();
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let cfg = HypoConfig::only(Vec::new());
        let before = cache.eval_select(&db, &s, &cfg, &cm).unwrap();

        // DML growth + re-ANALYZE: the epoch moves, the cached cost must
        // not be reused, and the fresh cost reflects the bigger table.
        let mut io = IoStats::new();
        let e0 = db.stats_epoch();
        for i in 3000..9000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 60)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        assert!(db.stats_epoch() > e0);

        let hits_before = cache.stats().hits;
        let after = cache.eval_select(&db, &s, &cfg, &cm).unwrap();
        assert_eq!(cache.stats().hits, hits_before, "stale entry must miss");
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
        let cm = CostModel::default();
        let s = select("SELECT id FROM t WHERE a = 7");
        let ha = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()]))
            .unwrap();
        let hid = HypotheticalIndex::build(&db, IndexDef::new("hid", "t", vec!["id".into()]))
            .unwrap();
        let cfgs = [
            HypoConfig::only(Vec::new()),
            HypoConfig::only(vec![ha.clone()]),
            HypoConfig::only(vec![hid.clone()]),
            HypoConfig::only(vec![ha.clone(), hid.clone()]),
            HypoConfig::overlay(vec![ha.clone()]),
            // Same canonical key as the pair above: shares its plan.
            HypoConfig::only(vec![hid, ha]),
        ];
        let refs: Vec<&HypoConfig> = cfgs.iter().collect();

        // Batched results must be bit-identical to planning each config on
        // its own, from a cold cache.
        let seq_cache = WhatIfCache::new();
        let seq: Vec<WhatIfEntry> = refs
            .iter()
            .map(|c| {
                seq_cache.clear();
                seq_cache.eval_select(&db, &s, c, &cm).unwrap()
            })
            .collect();
        let got = WhatIfCache::new().eval_select_batch(&db, &s, &refs, &cm);
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
        let first = cache.eval_select_batch(&db, &s, &refs, &cm);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 6));
        let second = cache.eval_select_batch(&db, &s, &refs, &cm);
        assert_eq!(cache.stats().hits, 6);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }
}
