//! Cost-based physical planning.
//!
//! The planner chooses, per table instance, an access path (clustered scan,
//! PK range, secondary/hypothetical index range, covering index-only scan,
//! OR-union of index scans) and a join order (dynamic programming over
//! subsets up to [`DP_TABLE_LIMIT`] tables, greedy beyond). It prices plans
//! with the [`CostModel`] and table statistics, and treats *hypothetical*
//! indexes identically to materialized ones — the what-if facility every
//! index advisor in this workspace is built on.

use crate::bind::{Binder, BoundColumn};
use crate::cost::CostModel;
use crate::error::ExecError;
use crate::hypothetical::HypoConfig;
use crate::predicate::{PredicateAnalysis, Sarg, SargValue};
use aim_sql::ast::{Expr, Select, SelectItem, Statement};
use aim_storage::{ColumnStats, Database, Table, TableStats, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound;
use std::rc::Rc;

/// Maximum FROM-list size planned with exhaustive subset DP.
pub const DP_TABLE_LIMIT: usize = 8;

/// Which physical index an [`IndexScan`] uses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexChoice {
    /// The clustered primary key.
    Primary,
    /// A materialized secondary index, by name.
    Secondary(String),
    /// A hypothetical index: position within the [`HypoConfig`].
    Hypothetical(usize),
}

impl IndexChoice {
    /// Human-readable label for EXPLAIN output and the workload monitor:
    /// borrowed for every index that exists.
    pub fn label(&self) -> Cow<'_, str> {
        match self {
            IndexChoice::Primary => Cow::Borrowed("PRIMARY"),
            IndexChoice::Secondary(name) => Cow::Borrowed(name),
            IndexChoice::Hypothetical(i) => Cow::Owned(format!("<hypo#{i}>")),
        }
    }
}

/// Where an equality probe value comes from at execution time.
#[derive(Debug, Clone, PartialEq)]
pub enum EqSource {
    /// A constant from the query text.
    Const(Value),
    /// An IN-list of constants: the scan probes once per value.
    InList(Vec<Value>),
    /// A column of an already-bound (outer) table — an index join.
    Outer(BoundColumn),
    /// Unknown `?` parameter: the plan is estimate-only.
    Unknown,
}

/// A range constraint on the index column right after the equality prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeInfo {
    pub lo: Bound<SargValue>,
    pub hi: Bound<SargValue>,
}

/// An index-driven access path.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexScan {
    pub index: IndexChoice,
    /// Key column names of the index, in index order (cached).
    pub key_columns: Vec<String>,
    /// Equality sources for the leading key columns (`eq.len()` columns
    /// are matched).
    pub eq: Vec<EqSource>,
    /// Optional range on key column `eq.len()`.
    pub range: Option<RangeInfo>,
    /// True if the index covers every referenced column of this table, so
    /// no base-table lookups are needed.
    pub covering: bool,
}

/// Physical access path for one table instance.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full clustered scan.
    FullScan,
    /// Single index scan.
    IndexScan(IndexScan),
    /// Index-merge union over the branches of a single-table OR predicate.
    OrUnion(Vec<IndexScan>),
}

impl AccessPath {
    /// The index choices this path touches.
    pub fn indexes(&self) -> Vec<&IndexChoice> {
        match self {
            AccessPath::FullScan => Vec::new(),
            AccessPath::IndexScan(s) => vec![&s.index],
            AccessPath::OrUnion(branches) => branches.iter().map(|b| &b.index).collect(),
        }
    }
}

/// One step of the join order: which table instance, how it is accessed,
/// and its estimated per-outer-row behaviour.
#[derive(Debug, Clone)]
pub struct TableStep {
    pub table_idx: usize,
    /// Catalog name of the accessed table (not the binding alias).
    pub table: String,
    pub path: AccessPath,
    /// Estimated matching rows produced per outer row.
    pub rows_each: f64,
    /// Estimated access cost per outer row.
    pub cost_each: f64,
}

/// A complete physical plan with its estimates.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Join order (singleton for single-table queries; empty for
    /// table-free statements).
    pub steps: Vec<TableStep>,
    /// Estimated rows out of the join, before grouping/limit.
    pub join_rows: f64,
    /// Estimated final result rows.
    pub result_rows: f64,
    /// Total estimated cost in cost units.
    pub est_cost: f64,
    /// ORDER BY is satisfied by the first step's index order (no sort).
    pub order_via_index: bool,
    /// GROUP BY is satisfied by the first step's index order (streaming
    /// aggregation, no hash/sort).
    pub group_via_index: bool,
}

impl Plan {
    /// All (table binding index, index choice) pairs used by the plan.
    pub fn used_indexes(&self) -> Vec<(usize, IndexChoice)> {
        let mut out = Vec::new();
        for step in &self.steps {
            for ix in step.path.indexes() {
                out.push((step.table_idx, ix.clone()));
            }
        }
        out
    }

    /// Compact one-line access-path summary, e.g.
    /// `orders(ix_cust) -> lineitem(PRIMARY)` (for telemetry events).
    pub fn access_summary(&self) -> String {
        self.steps
            .iter()
            .map(|s| {
                let p = match &s.path {
                    AccessPath::FullScan => "full".to_string(),
                    AccessPath::IndexScan(ix) => ix.index.label().into_owned(),
                    AccessPath::OrUnion(b) => format!("or_union[{}]", b.len()),
                };
                format!("{}({p})", s.table)
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// One-line-per-step EXPLAIN text.
    pub fn explain(&self, binder: &Binder) -> String {
        let mut s = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let t = &binder.tables()[step.table_idx];
            let path = match &step.path {
                AccessPath::FullScan => "full scan".to_string(),
                AccessPath::IndexScan(ix) => format!(
                    "index {} (eq prefix {}, range {}, covering {})",
                    ix.index.label(),
                    ix.eq.len(),
                    ix.range.is_some(),
                    ix.covering
                ),
                AccessPath::OrUnion(branches) => format!(
                    "index-merge union over {} branches",
                    branches.len()
                ),
            };
            s.push_str(&format!(
                "{i}: {} ({}) via {path}, ~{:.0} rows each, cost {:.1}\n",
                t.binding, t.table, step.rows_each, step.cost_each
            ));
        }
        s.push_str(&format!(
            "=> ~{:.0} rows, est cost {:.1}, order_via_index={}, group_via_index={}\n",
            self.result_rows, self.est_cost, self.order_via_index, self.group_via_index
        ));
        s
    }
}

/// Candidate index metadata the planner enumerates (unifies PK,
/// materialized secondaries and hypotheticals).
struct CandidateIndex {
    choice: IndexChoice,
    columns: Vec<String>,
    entry_width: f64,
    /// Clustered: entries are full rows, so it always "covers".
    clustered: bool,
}

/// Equality / range probe sources derived for one (table, bound-set).
type SourceMaps = (BTreeMap<String, EqSource>, BTreeMap<String, RangeInfo>);

/// Probe-source memo keyed by (table instance, bound-column bitmask).
type SourceCache = RefCell<HashMap<(usize, u64), Rc<SourceMaps>>>;

/// OR-branch base memo keyed by (table instance, materialized visibility).
type OrBaseCache = RefCell<HashMap<(usize, bool), Rc<Vec<OrBranchBase>>>>;

/// Best config-independent access path, keyed by (table instance,
/// bound-column bitmask, outermost flag, materialized visibility).
type BaseBestCache = RefCell<HashMap<(usize, u64, bool, bool), (AccessPath, f64)>>;

/// Per-OR-branch context: probe-source maps plus the best *usable*
/// config-independent (PK / materialized) branch index, if any.
struct OrBranchBase {
    eq_sources: BTreeMap<String, EqSource>,
    ranges: BTreeMap<String, RangeInfo>,
    base_best: Option<(IndexScan, f64)>,
}

/// Memoized config-independent planning state (interior mutability:
/// planning takes `&self`). When one `Planner` is reused for many
/// hypothetical configs via [`Planner::set_config`], everything here —
/// probe-source derivation, predicate selectivity, and the best
/// full-scan/PK/materialized access path — is computed once and shared;
/// only per-hypo access-path pricing reruns per config. Keys carry the
/// bound-table bitmask; base-path entries also key on the
/// materialized-index visibility flag, the only non-hypo part of a
/// `HypoConfig` that affects pricing.
#[derive(Default)]
struct PlanScratch {
    sources: SourceCache,
    selectivity: RefCell<HashMap<(usize, u64), f64>>,
    base_best: BaseBestCache,
    or_bases: OrBaseCache,
}

/// Planner context for one SELECT.
pub struct Planner<'a> {
    db: &'a Database,
    config: &'a HypoConfig,
    cm: &'a CostModel,
    pub binder: Binder,
    pub analysis: PredicateAnalysis,
    select: &'a Select,
    /// Referenced column names per table instance.
    referenced: Vec<BTreeSet<String>>,
    scratch: PlanScratch,
}

impl<'a> Planner<'a> {
    /// Prepares planning state for `select`.
    pub fn new(
        db: &'a Database,
        select: &'a Select,
        config: &'a HypoConfig,
        cm: &'a CostModel,
    ) -> Result<Self, ExecError> {
        let binder = Binder::for_select(db, select)?;
        let analysis = PredicateAnalysis::analyze(select.where_clause.as_ref(), &binder)?;
        let referenced = collect_referenced(select, &binder, db)?;
        Ok(Self {
            db,
            config,
            cm,
            binder,
            analysis,
            select,
            referenced,
            scratch: PlanScratch::default(),
        })
    }

    /// Swaps the hypothetical configuration while keeping every
    /// config-independent piece of planning state — binding, predicate
    /// analysis, referenced-column sets, and the memoized probe-source /
    /// selectivity / base-access-path caches. This is the batched what-if
    /// entry point: prepare once, then `set_config` + [`Planner::plan`]
    /// per config, paying only per-hypothetical access-path pricing.
    pub fn set_config(&mut self, config: &'a HypoConfig) {
        self.config = config;
    }

    /// Plans the SELECT and returns the cheapest plan found.
    pub fn plan(&self) -> Result<Plan, ExecError> {
        aim_telemetry::metrics::PLANS_EVALUATED.incr();
        let n = self.binder.len();
        if n == 0 {
            return Ok(Plan {
                steps: Vec::new(),
                join_rows: 1.0,
                result_rows: 1.0,
                est_cost: self.cm.output_row_cost,
                order_via_index: false,
                group_via_index: false,
            });
        }
        let (steps, join_rows, scan_cost) = if n == 1 {
            let step = self.best_access(0, &[], true)?;
            let rows = step.rows_each;
            let cost = step.cost_each;
            (vec![step], rows, cost)
        } else if n <= DP_TABLE_LIMIT {
            self.join_order_dp()?
        } else {
            self.join_order_greedy()?
        };

        self.finish_plan(steps, join_rows, scan_cost)
    }

    /// Adds sort / aggregation / output costs and order-provision flags.
    fn finish_plan(
        &self,
        steps: Vec<TableStep>,
        join_rows: f64,
        scan_cost: f64,
    ) -> Result<Plan, ExecError> {
        let mut cost = scan_cost;
        let single_table = self.binder.len() == 1;

        // Does the first step's index provide the ORDER BY / GROUP BY order?
        let (order_via_index, group_via_index) = if single_table {
            match &steps[0].path {
                AccessPath::IndexScan(ix) => (
                    self.index_provides_order(ix),
                    self.index_provides_grouping(ix),
                ),
                _ => (false, false),
            }
        } else {
            (false, false)
        };

        let mut result_rows = join_rows;
        if !self.select.group_by.is_empty() {
            // Estimated group count: capped product of group-column NDVs.
            let mut groups = 1.0f64;
            for g in &self.select.group_by {
                if let Expr::Column(c) = g {
                    if let Ok(bc) = self.binder.resolve(c) {
                        if let Some(cs) = self.column_stats(bc) {
                            groups *= cs.ndv.max(1) as f64;
                        }
                    }
                }
            }
            result_rows = result_rows.min(groups.max(1.0));
            if !group_via_index {
                cost += self.cm.sort_cost(join_rows);
            }
        }
        if !self.select.order_by.is_empty() && !order_via_index {
            cost += self.cm.sort_cost(result_rows);
        }
        if let Some(limit) = self.limit_value() {
            result_rows = result_rows.min(limit as f64);
        }
        cost += result_rows * self.cm.output_row_cost;

        Ok(Plan {
            steps,
            join_rows,
            result_rows,
            est_cost: cost,
            order_via_index,
            group_via_index,
        })
    }

    fn limit_value(&self) -> Option<u64> {
        match &self.select.limit {
            Some(Expr::Literal(aim_sql::ast::Literal::Int(v))) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    // ------------------------------------------------------------ join order

    /// Selinger-style DP over table subsets.
    fn join_order_dp(&self) -> Result<(Vec<TableStep>, f64, f64), ExecError> {
        let n = self.binder.len();
        let full: u32 = (1u32 << n) - 1;
        // best[mask] = (cost, rows, steps)
        let mut best: Vec<Option<(f64, f64, Vec<TableStep>)>> = vec![None; 1 << n];
        best[0] = Some((0.0, 1.0, Vec::new()));

        for mask in 0u32..=full {
            let Some((base_cost, base_rows, base_steps)) = best[mask as usize].clone() else {
                continue;
            };
            // Prefer connected extensions; fall back to all remaining.
            let mut extensions: Vec<usize> = Vec::new();
            for t in 0..n {
                if mask & (1 << t) != 0 {
                    continue;
                }
                let connected = mask == 0
                    || self.analysis.joins.iter().any(|j| {
                        j.side_for(t).is_some_and(|(_, other)| {
                            mask & (1 << other.table_idx) != 0
                        })
                    });
                if connected {
                    extensions.push(t);
                }
            }
            if extensions.is_empty() {
                extensions = (0..n).filter(|t| mask & (1 << t) == 0).collect();
            }
            for t in extensions {
                let bound: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                let step = self.best_access(t, &bound, mask == 0)?;
                let outer_rows = if mask == 0 { 1.0 } else { base_rows.max(1.0) };
                let cost = base_cost + outer_rows * step.cost_each;
                let rows = if mask == 0 {
                    step.rows_each
                } else {
                    base_rows * step.rows_each
                };
                let next = mask | (1 << t);
                let replace = match &best[next as usize] {
                    None => true,
                    Some((c, _, _)) => cost < *c,
                };
                if replace {
                    let mut steps = base_steps.clone();
                    steps.push(step);
                    best[next as usize] = Some((cost, rows, steps));
                }
            }
        }
        let (cost, rows, steps) = best[full as usize]
            .clone()
            .ok_or_else(|| ExecError::Unsupported("join order search failed".into()))?;
        Ok((steps, rows, cost))
    }

    /// Greedy join order for very wide FROM lists.
    fn join_order_greedy(&self) -> Result<(Vec<TableStep>, f64, f64), ExecError> {
        let n = self.binder.len();
        let mut remaining: BTreeSet<usize> = (0..n).collect();
        let mut bound: Vec<usize> = Vec::new();
        let mut steps = Vec::new();
        let mut cost = 0.0f64;
        let mut rows = 1.0f64;
        while !remaining.is_empty() {
            let mut candidates: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&t| {
                    bound.is_empty()
                        || self.analysis.joins.iter().any(|j| {
                            j.side_for(t)
                                .is_some_and(|(_, o)| bound.contains(&o.table_idx))
                        })
                })
                .collect();
            if candidates.is_empty() {
                candidates = remaining.iter().copied().collect();
            }
            let mut best: Option<(f64, f64, TableStep)> = None;
            for t in candidates {
                let step = self.best_access(t, &bound, bound.is_empty())?;
                let outer = if bound.is_empty() { 1.0 } else { rows.max(1.0) };
                let c = outer * step.cost_each;
                let r = if bound.is_empty() {
                    step.rows_each
                } else {
                    rows * step.rows_each
                };
                if best.as_ref().is_none_or(|(bc, _, _)| c < *bc) {
                    best = Some((c, r, step));
                }
            }
            let (c, r, step) = best.expect("candidates non-empty");
            cost += c;
            rows = r;
            remaining.remove(&step.table_idx);
            bound.push(step.table_idx);
            steps.push(step);
        }
        Ok((steps, rows, cost))
    }

    // ------------------------------------------------------------ access path

    /// Best access path for table instance `t`, given the set of already
    /// bound table instances (join columns to them become probe sources).
    /// `outermost` enables ORDER BY + LIMIT early-termination credit and
    /// OR-union paths.
    pub fn best_access(
        &self,
        t: usize,
        bound: &[usize],
        outermost: bool,
    ) -> Result<TableStep, ExecError> {
        let table = self.db.table(&self.binder.tables()[t].table)?;
        let stats = self.db.stats(&self.binder.tables()[t].table);
        let table_rows = table.row_count() as f64;

        // Equality sources per column name and range constraints
        // (config-independent, memoized across set_config reuse).
        let sources = self.sources_cached(t, bound, table);
        let (eq_sources, ranges) = (&sources.0, &sources.1);

        // Overall selectivity of every predicate on t (independent of path).
        let full_sel = self.selectivity_cached(t, bound, table, stats);
        let rows_out = (table_rows * full_sel).min(table_rows);

        // Config-independent base: full scan vs PK vs materialized indexes.
        // The fold order (full scan, PK, materialized, then hypotheticals,
        // strict `<`) matches the historical single-list enumeration, so
        // splitting the fold here is bit-identical.
        let (mut best_path, mut best_cost) =
            self.base_best(t, bound, outermost, table, stats, eq_sources, ranges);

        // Per-config divergence: price this config's hypothetical indexes.
        for cand in self.hypo_candidates(table) {
            let Some((scan, cost)) =
                self.cost_index_candidate(t, table, stats, &cand, eq_sources, ranges, outermost)
            else {
                continue;
            };
            if cost < best_cost {
                best_cost = cost;
                best_path = AccessPath::IndexScan(scan);
            }
        }

        // OR-union on the outermost single table.
        if outermost && self.binder.len() == 1 {
            if let Some((path, cost)) = self.cost_or_union(t, table, stats) {
                if cost < best_cost {
                    best_cost = cost;
                    best_path = path;
                }
            }
        }

        Ok(TableStep {
            table_idx: t,
            table: self.binder.tables()[t].table.clone(),
            path: best_path,
            rows_each: rows_out.max(0.0),
            cost_each: best_cost,
        })
    }

    /// Bound-table set as a bitmask cache key; `None` disables memoization
    /// for the (absurd) case of more than 64 bound tables.
    fn bound_mask(&self, bound: &[usize]) -> Option<u64> {
        if self.binder.len() > 64 {
            return None;
        }
        Some(bound.iter().fold(0u64, |m, &i| m | (1u64 << i)))
    }

    /// Memoized [`Planner::sources_for`].
    fn sources_cached(&self, t: usize, bound: &[usize], table: &Table) -> Rc<SourceMaps> {
        let Some(mask) = self.bound_mask(bound) else {
            return Rc::new(self.sources_for(t, bound, table));
        };
        if let Some(hit) = self.scratch.sources.borrow().get(&(t, mask)) {
            return Rc::clone(hit);
        }
        let v = Rc::new(self.sources_for(t, bound, table));
        self.scratch
            .sources
            .borrow_mut()
            .insert((t, mask), Rc::clone(&v));
        v
    }

    /// Memoized [`Planner::table_selectivity`].
    fn selectivity_cached(
        &self,
        t: usize,
        bound: &[usize],
        table: &Table,
        stats: Option<&TableStats>,
    ) -> f64 {
        let Some(mask) = self.bound_mask(bound) else {
            return self.table_selectivity(t, bound, table, stats);
        };
        if let Some(hit) = self.scratch.selectivity.borrow().get(&(t, mask)) {
            return *hit;
        }
        let v = self.table_selectivity(t, bound, table, stats);
        self.scratch.selectivity.borrow_mut().insert((t, mask), v);
        v
    }

    /// Best config-independent access path (full scan, PK, materialized
    /// indexes), memoized per (table, bound-set, outermost, materialized
    /// visibility) so batched configs pay for it once.
    #[allow(clippy::too_many_arguments)]
    fn base_best(
        &self,
        t: usize,
        bound: &[usize],
        outermost: bool,
        table: &Table,
        stats: Option<&TableStats>,
        eq_sources: &BTreeMap<String, EqSource>,
        ranges: &BTreeMap<String, RangeInfo>,
    ) -> (AccessPath, f64) {
        let key = self
            .bound_mask(bound)
            .map(|m| (t, m, outermost, self.config.include_materialized));
        if let Some(k) = &key {
            if let Some(hit) = self.scratch.base_best.borrow().get(k) {
                return hit.clone();
            }
        }
        let table_rows = table.row_count() as f64;
        let mut best_path = AccessPath::FullScan;
        let mut best_cost = self.cm.full_scan_cost(table.data_bytes(), table_rows);
        for cand in self.base_candidates(table) {
            let Some((scan, cost)) =
                self.cost_index_candidate(t, table, stats, &cand, eq_sources, ranges, outermost)
            else {
                continue;
            };
            if cost < best_cost {
                best_cost = cost;
                best_path = AccessPath::IndexScan(scan);
            }
        }
        if let Some(k) = key {
            self.scratch
                .base_best
                .borrow_mut()
                .insert(k, (best_path.clone(), best_cost));
        }
        (best_path, best_cost)
    }

    /// Collects equality probe sources and range constraints for table `t`.
    #[allow(clippy::type_complexity)]
    fn sources_for(
        &self,
        t: usize,
        bound: &[usize],
        table: &Table,
    ) -> (BTreeMap<String, EqSource>, BTreeMap<String, RangeInfo>) {
        let schema = table.schema();
        let mut eq_sources: BTreeMap<String, EqSource> = BTreeMap::new();
        let mut ranges: BTreeMap<String, RangeInfo> = BTreeMap::new();
        for sarg in &self.analysis.sargs[t] {
            let col_name = schema.columns[sarg.column().col_idx].name.clone();
            match sarg {
                Sarg::Eq { value, .. } => {
                    let src = match value {
                        SargValue::Const(v) => EqSource::Const(v.clone()),
                        SargValue::Unknown => EqSource::Unknown,
                    };
                    eq_sources.entry(col_name).or_insert(src);
                }
                Sarg::InList { values, .. } => {
                    let consts: Option<Vec<Value>> = values
                        .iter()
                        .map(|v| v.value().cloned())
                        .collect();
                    let src = match consts {
                        Some(vs) if !vs.is_empty() => EqSource::InList(vs),
                        _ => EqSource::Unknown,
                    };
                    eq_sources.entry(col_name).or_insert(src);
                }
                Sarg::Range { lo, hi, .. } => {
                    ranges.entry(col_name).or_insert(RangeInfo {
                        lo: lo.clone(),
                        hi: hi.clone(),
                    });
                }
            }
        }
        // Join edges to bound tables provide outer probes.
        for j in &self.analysis.joins {
            if let Some((mine, other)) = j.side_for(t) {
                if bound.contains(&other.table_idx) {
                    let col_name = schema.columns[mine.col_idx].name.clone();
                    eq_sources.entry(col_name).or_insert(EqSource::Outer(other));
                }
            }
        }
        (eq_sources, ranges)
    }

    /// Product selectivity of all predicates on `t` visible given `bound`.
    fn table_selectivity(
        &self,
        t: usize,
        bound: &[usize],
        table: &Table,
        stats: Option<&TableStats>,
    ) -> f64 {
        let schema = table.schema();
        let mut sel = 1.0f64;
        for sarg in &self.analysis.sargs[t] {
            let col_name = &schema.columns[sarg.column().col_idx].name;
            sel *= self.sarg_selectivity(sarg, col_name, stats);
        }
        for j in &self.analysis.joins {
            if let Some((mine, other)) = j.side_for(t) {
                if bound.contains(&other.table_idx) {
                    let my_name = &schema.columns[mine.col_idx].name;
                    let my_ndv = stats
                        .and_then(|s| s.column(my_name))
                        .map_or(table.row_count() as f64, |c| c.ndv.max(1) as f64);
                    let other_ndv = self.column_stats(other).map_or(1.0, |c| c.ndv.max(1) as f64);
                    sel *= 1.0 / my_ndv.max(other_ndv).max(1.0);
                }
            }
        }
        sel.clamp(0.0, 1.0)
    }

    fn sarg_selectivity(&self, sarg: &Sarg, col_name: &str, stats: Option<&TableStats>) -> f64 {
        let Some(cs) = stats.and_then(|s| s.column(col_name)) else {
            return match sarg {
                Sarg::Eq { .. } => 0.1,
                Sarg::InList { values, .. } => (0.1 * values.len() as f64).min(1.0),
                Sarg::Range { .. } => 1.0 / 3.0,
            };
        };
        match sarg {
            Sarg::Eq { value, .. } => match value {
                SargValue::Const(v) => cs.eq_selectivity(v),
                SargValue::Unknown => cs.eq_selectivity_unknown(),
            },
            Sarg::InList { values, .. } => values
                .iter()
                .map(|v| match v {
                    SargValue::Const(v) => cs.eq_selectivity(v),
                    SargValue::Unknown => cs.eq_selectivity_unknown(),
                })
                .sum::<f64>()
                .min(1.0),
            Sarg::Range { lo, hi, .. } => {
                fn known(b: &Bound<SargValue>) -> Option<Bound<&Value>> {
                    match b {
                        Bound::Unbounded => Some(Bound::Unbounded),
                        Bound::Included(SargValue::Const(v)) => Some(Bound::Included(v)),
                        Bound::Excluded(SargValue::Const(v)) => Some(Bound::Excluded(v)),
                        _ => None,
                    }
                }
                match (known(lo), known(hi)) {
                    (Some(l), Some(h)) => cs.range_selectivity(l, h),
                    _ => cs.range_selectivity_unknown(),
                }
            }
        }
    }

    fn column_stats(&self, col: BoundColumn) -> Option<&ColumnStats> {
        let t = &self.binder.tables()[col.table_idx];
        let table = self.db.table(&t.table).ok()?;
        let name = &table.schema().columns[col.col_idx].name;
        self.db.stats(&t.table)?.column(name)
    }

    /// Enumerates candidate indexes for table instance `t` (base paths
    /// followed by hypotheticals — the enumeration order every costing
    /// fold in this module relies on).
    fn candidate_indexes(&self, _t: usize, table: &Table) -> Vec<CandidateIndex> {
        let mut out = self.base_candidates(table);
        out.extend(self.hypo_candidates(table));
        out
    }

    /// Config-independent candidates: the PK plus (when the configuration
    /// exposes them) materialized secondary indexes.
    fn base_candidates(&self, table: &Table) -> Vec<CandidateIndex> {
        let schema = table.schema();
        let mut out = Vec::new();
        // PK as an "index": clustered, entries are whole rows.
        out.push(CandidateIndex {
            choice: IndexChoice::Primary,
            columns: schema
                .primary_key_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            entry_width: schema.avg_row_width() as f64,
            clustered: true,
        });
        if self.config.include_materialized {
            for ix in table.indexes() {
                let width = if !ix.is_empty() {
                    ix.size_bytes() as f64 / ix.len() as f64
                } else {
                    32.0
                };
                out.push(CandidateIndex {
                    choice: IndexChoice::Secondary(ix.def().name.clone()),
                    columns: ix.def().columns.clone(),
                    entry_width: width,
                    clustered: false,
                });
            }
        }
        out
    }

    /// This config's hypothetical candidates on `table`.
    fn hypo_candidates(&self, table: &Table) -> Vec<CandidateIndex> {
        let schema = table.schema();
        self.config
            .for_table(&schema.name)
            .map(|(i, h)| CandidateIndex {
                choice: IndexChoice::Hypothetical(i),
                columns: h.def.columns.clone(),
                entry_width: h.entry_width,
                clustered: false,
            })
            .collect()
    }

    /// Costs one candidate index for table `t`; returns the scan descriptor
    /// and its estimated cost, or `None` if the index is useless here.
    #[allow(clippy::too_many_arguments)]
    fn cost_index_candidate(
        &self,
        t: usize,
        table: &Table,
        stats: Option<&TableStats>,
        cand: &CandidateIndex,
        eq_sources: &BTreeMap<String, EqSource>,
        ranges: &BTreeMap<String, RangeInfo>,
        outermost: bool,
    ) -> Option<(IndexScan, f64)> {
        let table_rows = table.row_count() as f64;
        let schema = table.schema();

        // Match the equality prefix.
        let mut eq: Vec<EqSource> = Vec::new();
        let mut sel = 1.0f64;
        let mut probes = 1.0f64;
        for col in &cand.columns {
            let Some(src) = eq_sources.get(col) else {
                break;
            };
            let cs = stats.and_then(|s| s.column(col));
            let s = match (src, cs) {
                (EqSource::Const(v), Some(cs)) => cs.eq_selectivity(v),
                (EqSource::InList(vs), Some(cs)) => {
                    probes *= vs.len() as f64;
                    (vs.iter().map(|v| cs.eq_selectivity(v)).sum::<f64>()).min(1.0)
                }
                (EqSource::InList(vs), None) => {
                    probes *= vs.len() as f64;
                    (0.1 * vs.len() as f64).min(1.0)
                }
                (EqSource::Outer(_), _) => {
                    cs.map_or(0.1, ColumnStats::eq_selectivity_unknown)
                }
                (EqSource::Unknown, Some(cs)) => cs.eq_selectivity_unknown(),
                (EqSource::Const(_), None) | (EqSource::Unknown, None) => 0.1,
            };
            sel *= s;
            eq.push(src.clone());
        }

        // Range on the next column.
        let mut range = None;
        if eq.len() < cand.columns.len() {
            let next = &cand.columns[eq.len()];
            if let Some(r) = ranges.get(next) {
                let cs = stats.and_then(|s| s.column(next));
                let rsel = match cs {
                    Some(_cs) => self.sarg_selectivity(
                        &Sarg::Range {
                            col: BoundColumn {
                                table_idx: t,
                                col_idx: schema.column_index(next)?,
                            },
                            lo: r.lo.clone(),
                            hi: r.hi.clone(),
                        },
                        next,
                        stats,
                    ),
                    None => 1.0 / 3.0,
                };
                sel *= rsel;
                range = Some(r.clone());
            }
        }

        // Covering check: key columns + PK columns ⊇ referenced columns.
        let covering = if cand.clustered {
            true
        } else {
            let mut avail: BTreeSet<&str> = cand.columns.iter().map(String::as_str).collect();
            for pk in schema.primary_key_names() {
                avail.insert(pk);
            }
            self.referenced[t].iter().all(|c| avail.contains(c.as_str()))
        };

        let narrowed = eq.len() as f64 + f64::from(range.is_some() as u8);
        if narrowed == 0.0 {
            // No predicate narrows this index. An index-only full scan can
            // still win when covering and narrower than the table, or when
            // it provides ORDER BY order with a LIMIT.
            if !covering || cand.clustered {
                return None;
            }
            let scan = IndexScan {
                index: cand.choice.clone(),
                key_columns: cand.columns.clone(),
                eq: Vec::new(),
                range: None,
                covering,
            };
            let mut entries = table_rows;
            // Early termination: index provides order and query has LIMIT.
            if outermost && self.index_provides_order(&scan) {
                if let Some(limit) = self.limit_value() {
                    let keep = self
                        .selectivity_cached(t, &[], table, stats)
                        .max(1e-9);
                    entries = (limit as f64 / keep).min(table_rows);
                }
            }
            let cost = self.cm.index_scan_cost(entries, cand.entry_width, 0.0);
            return Some((scan, cost));
        }

        let matched = (table_rows * sel).clamp(0.0, table_rows);
        let scan = IndexScan {
            index: cand.choice.clone(),
            key_columns: cand.columns.clone(),
            eq,
            range,
            covering,
        };
        let lookups = if covering { 0.0 } else { matched };
        let mut cost = self
            .cm
            .index_scan_cost(matched.max(1.0), cand.entry_width, lookups);
        // Extra probes for IN lists: one tree descent per probe value.
        if probes > 1.0 {
            cost += (probes - 1.0) * self.cm.rand_page_cost;
        }
        Some((scan, cost))
    }

    /// Index-merge union over single-table OR branches: every branch must
    /// have a usable index on its own. Per-branch probe-source maps and the
    /// best config-independent branch index are memoized; per config only
    /// hypothetical candidates are (re)priced per branch.
    fn cost_or_union(
        &self,
        t: usize,
        table: &Table,
        stats: Option<&TableStats>,
    ) -> Option<(AccessPath, f64)> {
        if !self.cm.switches.or_index_merge {
            return None;
        }
        let branches = self.analysis.or_branches.as_ref()?;
        let bases = self.or_branch_bases(t, table, stats, branches);
        let table_rows = table.row_count() as f64;
        let mut scans = Vec::with_capacity(bases.len());
        let mut total_cost = 0.0f64;
        let hypos = self.hypo_candidates(table);

        for base in bases.iter() {
            // Best index for this branch; a branch without one sinks the
            // whole union. Fold order (base candidates, then hypotheticals,
            // strict `<`) matches the historical single-list enumeration.
            let mut best = base.base_best.clone();
            for cand in &hypos {
                if let Some((scan, cost)) = self.cost_index_candidate(
                    t, table, stats, cand, &base.eq_sources, &base.ranges, false,
                ) {
                    if (!scan.eq.is_empty() || scan.range.is_some())
                        && best.as_ref().is_none_or(|(_, c)| cost < *c) {
                            best = Some((scan, cost));
                        }
                }
            }
            let (scan, cost) = best?;
            // Union always needs base-table lookups for non-covering
            // branches; approximate via the branch cost already computed.
            total_cost += cost;
            scans.push(scan);
        }
        // Dedup + union overhead.
        total_cost += table_rows * 0.001 + self.cm.row_cost * scans.len() as f64;
        Some((AccessPath::OrUnion(scans), total_cost))
    }

    /// Per-OR-branch probe-source maps plus the best usable
    /// config-independent branch index, memoized per (table, materialized
    /// visibility).
    fn or_branch_bases(
        &self,
        t: usize,
        table: &Table,
        stats: Option<&TableStats>,
        branches: &[Vec<Sarg>],
    ) -> Rc<Vec<OrBranchBase>> {
        let key = (t, self.config.include_materialized);
        if let Some(hit) = self.scratch.or_bases.borrow().get(&key) {
            return Rc::clone(hit);
        }
        let schema = table.schema();
        let mut bases = Vec::with_capacity(branches.len());
        for branch in branches {
            // Build per-branch eq/range source maps.
            let mut eq_sources: BTreeMap<String, EqSource> = BTreeMap::new();
            let mut ranges: BTreeMap<String, RangeInfo> = BTreeMap::new();
            for sarg in branch {
                let col_name = schema.columns[sarg.column().col_idx].name.clone();
                match sarg {
                    Sarg::Eq { value, .. } => {
                        let src = match value {
                            SargValue::Const(v) => EqSource::Const(v.clone()),
                            SargValue::Unknown => EqSource::Unknown,
                        };
                        eq_sources.entry(col_name).or_insert(src);
                    }
                    Sarg::InList { values, .. } => {
                        let consts: Option<Vec<Value>> =
                            values.iter().map(|v| v.value().cloned()).collect();
                        if let Some(vs) = consts {
                            eq_sources.entry(col_name).or_insert(EqSource::InList(vs));
                        }
                    }
                    Sarg::Range { lo, hi, .. } => {
                        ranges.entry(col_name).or_insert(RangeInfo {
                            lo: lo.clone(),
                            hi: hi.clone(),
                        });
                    }
                }
            }
            let mut base_best: Option<(IndexScan, f64)> = None;
            for cand in self.base_candidates(table) {
                if let Some((scan, cost)) = self.cost_index_candidate(
                    t, table, stats, &cand, &eq_sources, &ranges, false,
                ) {
                    if (!scan.eq.is_empty() || scan.range.is_some())
                        && base_best.as_ref().is_none_or(|(_, c)| cost < *c) {
                            base_best = Some((scan, cost));
                        }
                }
            }
            bases.push(OrBranchBase {
                eq_sources,
                ranges,
                base_best,
            });
        }
        let bases = Rc::new(bases);
        self.scratch
            .or_bases
            .borrow_mut()
            .insert(key, Rc::clone(&bases));
        bases
    }

    // ------------------------------------------------------- order / groups

    /// True if scanning `ix` in key order yields rows in ORDER BY order:
    /// the ORDER BY columns must equal the index key columns immediately
    /// after the equality prefix, with uniform direction, and the range (if
    /// any) must be on the first ORDER BY column.
    pub fn index_provides_order(&self, ix: &IndexScan) -> bool {
        if !self.cm.switches.index_order_scan {
            return false;
        }
        if self.select.order_by.is_empty() {
            return false;
        }
        // The executor only performs forward scans, so only an all-ASC
        // ORDER BY can be served from index order.
        if self.select.order_by.iter().any(|o| o.desc) {
            return false;
        }
        // IN-list probes break global ordering.
        if ix.eq.iter().any(|e| matches!(e, EqSource::InList(_))) {
            return false;
        }
        for (pos, item) in (ix.eq.len()..).zip(self.select.order_by.iter()) {
            let Expr::Column(c) = &item.expr else {
                return false;
            };
            let Ok(bc) = self.binder.resolve(c) else {
                return false;
            };
            if bc.table_idx != 0 && self.binder.len() > 1 {
                return false;
            }
            if pos >= ix.key_columns.len() {
                return false;
            }
            let table = match self.db.table(&self.binder.tables()[bc.table_idx].table) {
                Ok(t) => t,
                Err(_) => return false,
            };
            if table.schema().columns[bc.col_idx].name != ix.key_columns[pos] {
                return false;
            }
        }
        true
    }

    /// True if scanning `ix` yields rows clustered by the GROUP BY columns:
    /// the group columns must be exactly the index key columns following
    /// the equality prefix (as a set, in any order).
    pub fn index_provides_grouping(&self, ix: &IndexScan) -> bool {
        if !self.cm.switches.index_order_scan {
            return false;
        }
        if self.select.group_by.is_empty() {
            return false;
        }
        if ix.eq.iter().any(|e| matches!(e, EqSource::InList(_))) {
            return false;
        }
        if ix.range.is_some() {
            return false;
        }
        let mut group_cols = BTreeSet::new();
        for g in &self.select.group_by {
            let Expr::Column(c) = g else { return false };
            let Ok(bc) = self.binder.resolve(c) else {
                return false;
            };
            let Ok(table) = self.db.table(&self.binder.tables()[bc.table_idx].table) else {
                return false;
            };
            group_cols.insert(table.schema().columns[bc.col_idx].name.clone());
        }
        let start = ix.eq.len();
        let end = start + group_cols.len();
        if end > ix.key_columns.len() {
            return false;
        }
        let next: BTreeSet<String> = ix.key_columns[start..end].iter().cloned().collect();
        next == group_cols
    }

    // ------------------------------------------------------------- explain

    /// Plans the SELECT and explains the winner in one call.
    pub fn explain(&self) -> Result<crate::explain::ExplainPlan, ExecError> {
        let plan = self.plan()?;
        self.explain_plan(&plan)
    }

    /// Explains an already-computed plan of this query: for each join step,
    /// re-enumerates every candidate access path with the same bound-table
    /// context the join-order search used, and records each one's cost (or
    /// why it was unusable) next to the chosen path.
    ///
    /// This is deliberately separate from [`Planner::plan`]: the advisory
    /// hot path stays lean, and explanation pays the re-derivation cost
    /// only on demand. Re-deriving is exact — the costing code is
    /// deterministic, so alternatives are priced identically to the search.
    pub fn explain_plan(&self, plan: &Plan) -> Result<crate::explain::ExplainPlan, ExecError> {
        use crate::explain::{ExplainAlternative, ExplainNode, ExplainPlan};

        let mut nodes = Vec::with_capacity(plan.steps.len());
        let mut bound: Vec<usize> = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            let t = step.table_idx;
            let outermost = bound.is_empty();
            let binding = &self.binder.tables()[t];
            let table = self.db.table(&binding.table)?;
            let stats = self.db.stats(&binding.table);
            let (eq_sources, ranges) = self.sources_for(t, &bound, table);

            let mut alternatives = Vec::new();
            let full_cost = self
                .cm
                .full_scan_cost(table.data_bytes(), table.row_count() as f64);
            alternatives.push((
                AccessPath::FullScan,
                ExplainAlternative {
                    access: "full scan".to_string(),
                    index: None,
                    hypothetical: false,
                    eq_prefix: 0,
                    range: false,
                    covering: true,
                    est_cost: Some(full_cost),
                    chosen: false,
                    reason: String::new(),
                },
            ));
            for cand in self.candidate_indexes(t, table) {
                let label = cand.choice.label().into_owned();
                let hypothetical = matches!(cand.choice, IndexChoice::Hypothetical(_));
                match self.cost_index_candidate(
                    t, table, stats, &cand, &eq_sources, &ranges, outermost,
                ) {
                    Some((scan, cost)) => {
                        let mut traits = vec![format!("eq {}", scan.eq.len())];
                        if scan.range.is_some() {
                            traits.push("range".to_string());
                        }
                        if scan.covering {
                            traits.push("covering".to_string());
                        }
                        alternatives.push((
                            AccessPath::IndexScan(scan.clone()),
                            ExplainAlternative {
                                access: format!("index {label} ({})", traits.join(", ")),
                                index: Some(label),
                                hypothetical,
                                eq_prefix: scan.eq.len(),
                                range: scan.range.is_some(),
                                covering: scan.covering,
                                est_cost: Some(cost),
                                chosen: false,
                                reason: String::new(),
                            },
                        ));
                    }
                    None => {
                        alternatives.push((
                            AccessPath::FullScan, // placeholder, never matches
                            ExplainAlternative {
                                access: format!(
                                    "index {label} ({})",
                                    cand.columns.join(", ")
                                ),
                                index: Some(label),
                                hypothetical,
                                eq_prefix: 0,
                                range: false,
                                covering: false,
                                est_cost: None,
                                chosen: false,
                                reason: "not usable: no predicate matches the key prefix"
                                    .to_string(),
                            },
                        ));
                    }
                }
            }
            if outermost && self.binder.len() == 1 {
                if let Some((path, cost)) = self.cost_or_union(t, table, stats) {
                    let n = match &path {
                        AccessPath::OrUnion(b) => b.len(),
                        _ => 0,
                    };
                    alternatives.push((
                        path,
                        ExplainAlternative {
                            access: format!("index-merge union over {n} OR branches"),
                            index: None,
                            hypothetical: false,
                            eq_prefix: 0,
                            range: false,
                            covering: false,
                            est_cost: Some(cost),
                            chosen: false,
                            reason: String::new(),
                        },
                    ));
                }
            }

            // Mark the path the search actually chose. An unusable-index
            // placeholder can never win: chosen full scans match the first
            // entry (the true full-scan alternative) before placeholders.
            let chosen_cost = step.cost_each;
            match alternatives
                .iter_mut()
                .find(|(path, alt)| alt.est_cost.is_some() && *path == step.path)
            {
                Some((_, alt)) => {
                    alt.chosen = true;
                    alt.reason = "chosen".to_string();
                }
                None => {
                    // Defensive: re-derivation should always reproduce the
                    // search's pick; fall back to the cheapest usable path.
                    if let Some((_, alt)) = alternatives
                        .iter_mut()
                        .filter(|(_, a)| a.est_cost.is_some())
                        .min_by(|(_, a), (_, b)| {
                            a.est_cost
                                .partial_cmp(&b.est_cost)
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                    {
                        alt.chosen = true;
                        alt.reason = "chosen".to_string();
                    }
                }
            }
            let mut alternatives: Vec<ExplainAlternative> =
                alternatives.into_iter().map(|(_, alt)| alt).collect();
            for alt in &mut alternatives {
                if !alt.chosen {
                    if let Some(cost) = alt.est_cost {
                        alt.reason = format!("+{:.1} vs chosen", cost - chosen_cost);
                    }
                }
            }
            // Chosen first, usable alternatives by cost, unusable last.
            alternatives.sort_by(|a, b| {
                let key = |x: &ExplainAlternative| {
                    (!x.chosen, x.est_cost.is_none(), x.est_cost.unwrap_or(0.0))
                };
                key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal)
            });

            nodes.push(ExplainNode {
                step: i,
                binding: binding.binding.clone(),
                table: binding.table.clone(),
                est_rows: step.rows_each,
                est_cost: step.cost_each,
                alternatives,
            });
            bound.push(t);
        }

        Ok(ExplainPlan {
            nodes,
            est_cost: plan.est_cost,
            est_rows: plan.result_rows,
            join_rows: plan.join_rows,
            order_via_index: plan.order_via_index,
            group_via_index: plan.group_via_index,
            hypotheticals: crate::explain::hypo_legend(self.config),
            actual: None,
        })
    }
}

/// Collects the set of referenced column names per bound table.
fn collect_referenced(
    select: &Select,
    binder: &Binder,
    db: &Database,
) -> Result<Vec<BTreeSet<String>>, ExecError> {
    let mut referenced: Vec<BTreeSet<String>> = vec![BTreeSet::new(); binder.len()];
    let mut cols: Vec<aim_sql::ast::ColumnRef> = Vec::new();
    let mut wildcard = false;
    for item in &select.items {
        match item {
            SelectItem::Wildcard => wildcard = true,
            SelectItem::Expr { expr, .. } => expr.referenced_columns(&mut cols),
        }
    }
    if let Some(w) = &select.where_clause {
        w.referenced_columns(&mut cols);
    }
    for g in &select.group_by {
        g.referenced_columns(&mut cols);
    }
    if let Some(h) = &select.having {
        h.referenced_columns(&mut cols);
    }
    for o in &select.order_by {
        o.expr.referenced_columns(&mut cols);
    }
    for c in cols {
        if let Ok(bc) = binder.resolve(&c) {
            let table = db.table(&binder.tables()[bc.table_idx].table)?;
            referenced[bc.table_idx]
                .insert(table.schema().columns[bc.col_idx].name.clone());
        }
    }
    if wildcard {
        for (t, set) in referenced.iter_mut().enumerate() {
            let table = db.table(&binder.tables()[t].table)?;
            for c in &table.schema().columns {
                set.insert(c.name.clone());
            }
        }
    }
    Ok(referenced)
}

/// Convenience: plans a SELECT statement.
///
/// This is the advisory ("what-if") entry point — the executor drives
/// [`Planner`] directly — so every call is counted as a what-if optimizer
/// invocation and its estimated cost lands in the `exec.whatif_cost`
/// histogram.
pub fn plan_select(
    db: &Database,
    select: &Select,
    config: &HypoConfig,
    cm: &CostModel,
) -> Result<Plan, ExecError> {
    let _span = aim_telemetry::span("exec.whatif");
    aim_telemetry::metrics::WHATIF_CALLS.incr();
    let plan = Planner::new(db, select, config, cm)?.plan()?;
    aim_telemetry::metrics::histogram_record("exec.whatif_cost", plan.est_cost);
    Ok(plan)
}

/// Estimated cost of any statement under a what-if configuration.
///
/// DML statements are priced as their embedded SELECT (row location) plus
/// index-maintenance writes against every index — materialized *and*
/// hypothetical — on the written table. This is the `cost_u` component of
/// the paper's Eq. 8.
pub fn estimate_statement_cost(
    db: &Database,
    stmt: &Statement,
    config: &HypoConfig,
    cm: &CostModel,
) -> Result<f64, ExecError> {
    let cache = crate::whatif::global();
    match (stmt, stmt.row_location()) {
        (Statement::Select(s), _) => Ok(cache.eval_select(db, s, config, cm)?.cost),
        (_, Some(select)) => {
            let located = cache.eval_select(db, &select, config, cm)?;
            write_cost(db, stmt, config, cm, (located.cost, located.rows))
        }
        _ => write_cost(db, stmt, config, cm, (0.0, 0.0)),
    }
}

/// Batched [`estimate_statement_cost`]: prices one statement under every
/// configuration in `configs`, sharing parsing, binding, predicate and
/// selectivity derivation across the whole batch (SELECTs and DML WHERE
/// clauses go through [`crate::whatif::WhatIfCache::eval_select_batch`];
/// the maintenance arithmetic stays per config). Results are returned
/// in `configs` order and are bit-identical to sequential calls.
pub fn estimate_statement_cost_batch(
    db: &Database,
    stmt: &Statement,
    configs: &[&HypoConfig],
    cm: &CostModel,
) -> Vec<Result<f64, ExecError>> {
    estimate_statement_cost_batch_until(db, stmt, configs, cm, &|| false)
        .expect("a batch nobody interrupts runs to completion")
}

/// [`estimate_statement_cost_batch`] under an abort signal, with the
/// contract of [`crate::whatif::WhatIfCache::eval_select_batch_until`]:
/// `None` once `interrupted` turns true, at most one what-if call later.
pub fn estimate_statement_cost_batch_until(
    db: &Database,
    stmt: &Statement,
    configs: &[&HypoConfig],
    cm: &CostModel,
    interrupted: &dyn Fn() -> bool,
) -> Option<Vec<Result<f64, ExecError>>> {
    let cache = crate::whatif::global();
    Some(match (stmt, stmt.row_location()) {
        (Statement::Select(s), _) => cache
            .eval_select_batch_until(db, s, configs, cm, interrupted)?
            .into_iter()
            .map(|r| r.map(|e| e.cost))
            .collect(),
        (_, Some(select)) => configs
            .iter()
            .zip(cache.eval_select_batch_until(db, &select, configs, cm, interrupted)?)
            .map(|(config, located)| {
                let located = located?;
                write_cost(db, stmt, config, cm, (located.cost, located.rows))
            })
            .collect(),
        _ => configs
            .iter()
            .map(|config| write_cost(db, stmt, config, cm, (0.0, 0.0)))
            .collect(),
    })
}

/// The write half of Eq. 8 for one configuration: `located` is the
/// (cost, rows) of planning the statement's [`Statement::row_location`],
/// zero for an INSERT.
/// Every written row costs one row write plus one per index it touches —
/// all indexes of the table for INSERT and DELETE, twice (remove, insert)
/// those containing an assigned column for UPDATE.
fn write_cost(
    db: &Database,
    stmt: &Statement,
    config: &HypoConfig,
    cm: &CostModel,
    (located_cost, located_rows): (f64, f64),
) -> Result<f64, ExecError> {
    let (rows, index_writes) = match stmt {
        Statement::Insert(i) => {
            // Arithmetic costing, but still one what-if question answered —
            // count it so advisor accounting matches the Select/DML paths
            // (which go through `plan_select`).
            aim_telemetry::metrics::WHATIF_CALLS.incr();
            (i.rows.len().max(1) as f64, index_count(db, &i.table, config)?)
        }
        Statement::Update(u) => {
            let assigned: BTreeSet<&str> =
                u.assignments.iter().map(|(c, _)| c.as_str()).collect();
            let rewritten = |columns: &[String]| columns.iter().any(|c| assigned.contains(c.as_str()));
            let table = db.table(&u.table)?;
            let materialized = if config.include_materialized {
                table.indexes().filter(|ix| rewritten(&ix.def().columns)).count()
            } else {
                0
            };
            let hypothetical =
                config.for_table(&u.table).filter(|(_, h)| rewritten(&h.def.columns)).count();
            (located_rows, 2.0 * (materialized + hypothetical) as f64)
        }
        Statement::Delete(d) => (located_rows, index_count(db, &d.table, config)?),
        _ => return Ok(0.0),
    };
    Ok(located_cost + rows * (1.0 + index_writes) * (cm.write_row_cost + cm.rand_page_cost))
}

fn index_count(db: &Database, table: &str, config: &HypoConfig) -> Result<f64, ExecError> {
    let t = db.table(table)?;
    let mat = if config.include_materialized {
        t.indexes().count()
    } else {
        0
    };
    Ok((mat + config.for_table(table).count()) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothetical::HypotheticalIndex;
    use aim_sql::{parse_statement, Statement};
    use aim_storage::{ColumnDef, ColumnType, IndexDef, IoStats, TableSchema};

    /// 10k-row table `t(id, a, b, c)`: a has 100 distinct values,
    /// b has 10, c is unique-ish.
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                    ColumnDef::new("c", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..10_000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 100),
                        Value::Int(i % 10),
                        Value::Int(i),
                    ],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn plan_sql(db: &Database, sql: &str, config: &HypoConfig) -> Plan {
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        plan_select(db, &s, config, &CostModel::default()).unwrap()
    }

    #[test]
    fn no_index_means_full_scan() {
        let db = db();
        let p = plan_sql(&db, "SELECT a FROM t WHERE a = 5", &HypoConfig::none());
        assert!(matches!(p.steps[0].path, AccessPath::FullScan));
    }

    #[test]
    fn materialized_index_chosen_for_equality() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let p = plan_sql(&db, "SELECT a, id FROM t WHERE a = 5", &HypoConfig::none());
        match &p.steps[0].path {
            AccessPath::IndexScan(ix) => {
                assert_eq!(ix.index, IndexChoice::Secondary("ix_a".into()));
                assert_eq!(ix.eq.len(), 1);
                assert!(ix.covering, "index + PK covers (a, id)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hypothetical_index_behaves_like_real_one() {
        let db = db();
        let h =
            HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let cfg = HypoConfig::overlay(vec![h]);
        let p = plan_sql(&db, "SELECT a, id FROM t WHERE a = 5", &cfg);
        match &p.steps[0].path {
            AccessPath::IndexScan(ix) => {
                assert_eq!(ix.index, IndexChoice::Hypothetical(0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_reduces_estimated_cost() {
        let db = db();
        let base = plan_sql(&db, "SELECT a, id FROM t WHERE a = 5", &HypoConfig::none());
        let h =
            HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let cfg = HypoConfig::overlay(vec![h]);
        let with_ix = plan_sql(&db, "SELECT a, id FROM t WHERE a = 5", &cfg);
        assert!(
            with_ix.est_cost < base.est_cost / 2.0,
            "with = {}, without = {}",
            with_ix.est_cost,
            base.est_cost
        );
    }

    #[test]
    fn composite_prefix_and_range_used() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(
            IndexDef::new("ix_ab", "t", vec!["a".into(), "b".into()]),
            &mut io,
        )
        .unwrap();
        let p = plan_sql(
            &db,
            "SELECT id FROM t WHERE a = 5 AND b > 3",
            &HypoConfig::none(),
        );
        match &p.steps[0].path {
            AccessPath::IndexScan(ix) => {
                assert_eq!(ix.eq.len(), 1);
                assert!(ix.range.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_covering_wide_result_prefers_full_scan_at_low_selectivity() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_b", "t", vec!["b".into()]), &mut io)
            .unwrap();
        // b = 3 matches 10% of 10k rows -> 1000 random PK lookups for (c)
        // beats... actually loses to a full scan.
        let p = plan_sql(&db, "SELECT c FROM t WHERE b = 3", &HypoConfig::none());
        assert!(
            matches!(p.steps[0].path, AccessPath::FullScan),
            "10% selectivity with non-covering index should full-scan: {:?}",
            p.steps[0].path
        );
    }

    #[test]
    fn join_order_puts_selective_table_first() {
        let mut db = db();
        // Second table s(id, tid): 100 rows.
        db.create_table(
            TableSchema::new(
                "s",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("tid", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..100i64 {
            db.table_mut("s")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        let p = plan_sql(
            &db,
            "SELECT s.id FROM t, s WHERE t.id = s.tid",
            &HypoConfig::none(),
        );
        assert_eq!(p.steps.len(), 2);
        // s (100 rows) should drive; t accessed via PK probes.
        assert_eq!(p.steps[0].table_idx, 1, "{}", p.explain(&Binder::for_tables(&db, &[aim_sql::ast::TableRef::new("t"), aim_sql::ast::TableRef::new("s")]).unwrap()));
        match &p.steps[1].path {
            AccessPath::IndexScan(ix) => {
                assert_eq!(ix.index, IndexChoice::Primary);
                assert!(matches!(ix.eq[0], EqSource::Outer(_)));
            }
            other => panic!("inner table should use PK join probe: {other:?}"),
        }
    }

    #[test]
    fn pk_prefix_usable() {
        let db = db();
        let p = plan_sql(&db, "SELECT a FROM t WHERE id = 17", &HypoConfig::none());
        match &p.steps[0].path {
            AccessPath::IndexScan(ix) => assert_eq!(ix.index, IndexChoice::Primary),
            other => panic!("{other:?}"),
        }
        assert!(p.result_rows < 2.0);
    }

    #[test]
    fn order_by_limit_prefers_order_providing_index() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_c", "t", vec!["c".into()]), &mut io)
            .unwrap();
        let p = plan_sql(
            &db,
            "SELECT c, id FROM t ORDER BY c LIMIT 10",
            &HypoConfig::none(),
        );
        assert!(p.order_via_index, "expected index-provided order");
        match &p.steps[0].path {
            AccessPath::IndexScan(ix) => {
                assert_eq!(ix.index, IndexChoice::Secondary("ix_c".into()))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_by_via_index_detected() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(
            IndexDef::new("ix_ba", "t", vec!["b".into(), "a".into()]),
            &mut io,
        )
        .unwrap();
        let stmt = parse_statement("SELECT b, COUNT(*) FROM t GROUP BY b").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let cfg = HypoConfig::none();
        let cm = CostModel::default();
        let planner = Planner::new(&db, &s, &cfg, &cm).unwrap();
        let ix = IndexScan {
            index: IndexChoice::Secondary("ix_ba".into()),
            key_columns: vec!["b".into(), "a".into()],
            eq: vec![],
            range: None,
            covering: true,
        };
        assert!(planner.index_provides_grouping(&ix));
    }

    #[test]
    fn or_union_planned_when_both_branches_indexed() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_c", "t", vec!["c".into()]), &mut io)
            .unwrap();
        // c is unique, so each branch touches ~1 row: the union of two
        // selective probes must beat a 10k-row full scan.
        let p = plan_sql(
            &db,
            "SELECT id FROM t WHERE c = 77 OR c = 4242",
            &HypoConfig::none(),
        );
        match &p.steps[0].path {
            AccessPath::OrUnion(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected OR union, got {other:?}"),
        }
    }

    #[test]
    fn or_union_disabled_by_switch() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_c", "t", vec!["c".into()]), &mut io)
            .unwrap();
        let stmt = parse_statement("SELECT id FROM t WHERE c = 77 OR c = 4242").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let cm = CostModel {
            switches: crate::cost::OptimizerSwitches {
                or_index_merge: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let p = plan_select(&db, &s, &HypoConfig::none(), &cm).unwrap();
        assert!(matches!(p.steps[0].path, AccessPath::FullScan));
    }

    #[test]
    fn order_scan_disabled_by_switch() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_c", "t", vec!["c".into()]), &mut io)
            .unwrap();
        let stmt = parse_statement("SELECT c, id FROM t ORDER BY c LIMIT 10").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let cm = CostModel {
            switches: crate::cost::OptimizerSwitches {
                index_order_scan: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let p = plan_select(&db, &s, &HypoConfig::none(), &cm).unwrap();
        assert!(!p.order_via_index);
    }

    #[test]
    fn or_without_indexes_falls_back_to_full_scan() {
        let db = db();
        let p = plan_sql(
            &db,
            "SELECT id FROM t WHERE a = 5 OR c = 77",
            &HypoConfig::none(),
        );
        assert!(matches!(p.steps[0].path, AccessPath::FullScan));
    }

    #[test]
    fn include_materialized_false_hides_real_indexes() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let cfg = HypoConfig::only(vec![]);
        let p = plan_sql(&db, "SELECT a, id FROM t WHERE a = 5", &cfg);
        assert!(matches!(p.steps[0].path, AccessPath::FullScan));
    }

    #[test]
    fn dml_cost_includes_index_maintenance() {
        let db = db();
        let cm = CostModel::default();
        let ins = parse_statement("INSERT INTO t (id, a, b, c) VALUES (99999, 1, 2, 3)").unwrap();
        let bare = estimate_statement_cost(&db, &ins, &HypoConfig::none(), &cm).unwrap();
        let h = HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()]))
            .unwrap();
        let cfg = HypoConfig::overlay(vec![h]);
        let with_ix = estimate_statement_cost(&db, &ins, &cfg, &cm).unwrap();
        assert!(with_ix > bare);
    }

    #[test]
    fn update_only_charges_touched_indexes() {
        let db = db();
        let cm = CostModel::default();
        let upd = parse_statement("UPDATE t SET b = 1 WHERE id = 5").unwrap();
        let h_b = HypotheticalIndex::build(&db, IndexDef::new("hb", "t", vec!["b".into()]))
            .unwrap();
        let h_a = HypotheticalIndex::build(&db, IndexDef::new("ha", "t", vec!["a".into()]))
            .unwrap();
        let cost_touching = estimate_statement_cost(
            &db,
            &upd,
            &HypoConfig::overlay(vec![h_b]),
            &cm,
        )
        .unwrap();
        let cost_untouched = estimate_statement_cost(
            &db,
            &upd,
            &HypoConfig::overlay(vec![h_a]),
            &cm,
        )
        .unwrap();
        assert!(cost_touching > cost_untouched);
    }

    #[test]
    fn estimated_rows_reflect_selectivity() {
        let db = db();
        let p = plan_sql(&db, "SELECT id FROM t WHERE b = 3", &HypoConfig::none());
        // b = 3 matches ~1000 of 10k rows.
        assert!((p.result_rows - 1000.0).abs() < 200.0, "{}", p.result_rows);
    }

    #[test]
    fn explain_mentions_chosen_index() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let stmt = parse_statement("SELECT a, id FROM t WHERE a = 5").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let cfg = HypoConfig::none();
        let cm = CostModel::default();
        let planner = Planner::new(&db, &s, &cfg, &cm).unwrap();
        let plan = planner.plan().unwrap();
        let text = plan.explain(&planner.binder);
        assert!(text.contains("ix_a"), "{text}");
    }
}
