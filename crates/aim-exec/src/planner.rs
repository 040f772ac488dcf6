//! Cost-based physical planning.
//!
//! The planner chooses, per table instance, an access path (clustered scan,
//! PK range, secondary/hypothetical index range, covering index-only scan,
//! OR-union of index scans) and a join order (dynamic programming over
//! subsets up to [`DP_TABLE_LIMIT`] tables, greedy beyond). It prices plans
//! with the [`CostModel`] and table statistics, and treats *hypothetical*
//! indexes identically to materialized ones — the what-if facility every
//! index advisor in this workspace is built on.
//!
//! Access paths are enumerated once and priced once (DESIGN.md §17): per
//! table instance and set of bound tables (or OR branch) the planner builds
//! a probe context by column position, walks the table's indexes in one
//! fixed order, and remembers each index's price under (index identity,
//! context). The search, the OR-union and EXPLAIN all read that one
//! enumeration.

use crate::bind::{Binder, BoundColumn};
use crate::cost::CostModel;
use crate::error::ExecError;
use crate::hypothetical::{HypoConfig, HypotheticalIndex};
use crate::predicate::{PredicateAnalysis, Sarg, SargValue};
use aim_sql::ast::{Expr, Select, SelectItem, Statement};
use aim_storage::{
    ColumnStats, Database, IndexDef, SecondaryIndex, Table, TableSchema, TableStats, Value,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
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

    /// True when executing `self` and `other` is the same work: the same
    /// table instances in the same order through the same access paths,
    /// ORDER BY and GROUP BY served from index order or not alike. That is
    /// all the executor reads of a plan, so over the same data two such
    /// plans of one statement read the same rows and cost the same. The
    /// estimates are left out: they move with statistics and the index set
    /// while the work does not.
    pub fn same_execution(&self, other: &Plan) -> bool {
        self.order_via_index == other.order_via_index
            && self.group_via_index == other.group_via_index
            && self.steps.len() == other.steps.len()
            && self.steps.iter().zip(&other.steps).all(|(a, b)| {
                a.table_idx == b.table_idx && a.table == b.table && a.path == b.path
            })
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
}

/// Identity of an index within one planner — what a price is remembered
/// under. A hypothetical is its definition
/// ([`HypotheticalIndex::def_key`]), not its position, so the N configs of
/// a batch that share it share its price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum IndexId<'a> {
    Primary,
    Secondary(&'a str),
    Hypothetical(u64),
}

/// One index of a table as the enumeration yields it.
#[derive(Clone, Copy)]
enum IndexRef<'a> {
    Primary,
    Secondary(&'a SecondaryIndex),
    /// Position in the current [`HypoConfig`], and the index there.
    Hypothetical(usize, &'a HypotheticalIndex),
}

impl<'a> IndexRef<'a> {
    fn id(self) -> IndexId<'a> {
        match self {
            IndexRef::Primary => IndexId::Primary,
            IndexRef::Secondary(ix) => IndexId::Secondary(&ix.def().name),
            IndexRef::Hypothetical(_, h) => IndexId::Hypothetical(h.def_key()),
        }
    }

    fn choice(self) -> IndexChoice {
        match self {
            IndexRef::Primary => IndexChoice::Primary,
            IndexRef::Secondary(ix) => IndexChoice::Secondary(ix.def().name.clone()),
            IndexRef::Hypothetical(i, _) => IndexChoice::Hypothetical(i),
        }
    }

    /// The secondary definition; `None` for the primary key.
    fn def(self) -> Option<&'a IndexDef> {
        match self {
            IndexRef::Primary => None,
            IndexRef::Secondary(ix) => Some(ix.def()),
            IndexRef::Hypothetical(_, h) => Some(&h.def),
        }
    }

    fn key_columns(self, schema: &TableSchema) -> Vec<String> {
        match self.def() {
            Some(def) => def.columns.clone(),
            None => schema.primary_key_names().iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// What pricing reads of an index, resolved once per planner and table
/// instance.
struct IndexMeta<'a> {
    /// Key column positions in index order (`usize::MAX` for a name the
    /// table does not have: it matches no predicate).
    key: Cow<'a, [usize]>,
    entry_width: f64,
    /// Clustered: entries are full rows, so it always covers.
    clustered: bool,
    /// Key columns + PK columns ⊇ the instance's referenced columns.
    covering: bool,
}

/// What one table instance can be probed with, by column position: the
/// predicates of the statement (or of one OR branch) plus the join edges
/// to the tables bound before it.
struct ProbeContext {
    /// Distinguishes contexts in the pricing memo.
    id: usize,
    /// Equality source per column; the first predicate on a column wins.
    eq: Vec<Option<EqSource>>,
    /// Range constraint per column.
    ranges: Vec<Option<RangeInfo>>,
    /// Product selectivity of everything the context was built from.
    selectivity: f64,
    /// Enables the ORDER BY + LIMIT early-termination credit.
    outermost: bool,
}

/// Which [`ProbeContext`] of a table instance: under a set of bound tables
/// (bitmask, outermost flag) or for one branch of the top-level OR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ContextKey {
    Bound(u64, bool),
    OrBranch(usize),
}

/// The outcome of pricing one usable index in one context; the scan it
/// stands for is only materialised when it wins.
#[derive(Clone, Copy)]
struct Priced {
    /// Leading key columns matched by equality sources.
    eq_len: usize,
    /// A range narrows key column `eq_len`.
    range: bool,
    covering: bool,
    cost: f64,
}

/// One access path considered for a table instance, with its price.
enum Candidate<'a> {
    FullScan(f64),
    /// `None`: unusable here — no predicate narrows the index, and it is
    /// the table itself or does not cover the query.
    Index(IndexRef<'a>, Option<Priced>),
    /// The index picked for each OR branch, and the union's cost.
    OrUnion(Vec<(IndexRef<'a>, Priced)>, f64),
}

impl Candidate<'_> {
    fn cost(&self) -> Option<f64> {
        match self {
            Candidate::FullScan(cost) | Candidate::OrUnion(_, cost) => Some(*cost),
            Candidate::Index(_, priced) => priced.map(|p| p.cost),
        }
    }
}

/// The search's choice among `candidates` (position and cost): a strict-`<`
/// fold in enumeration order, so the earliest of equally cheap paths wins.
fn cheapest(candidates: &[Candidate<'_>]) -> (usize, f64) {
    let full_scan = candidates[0].cost().expect("the full scan comes first and is always usable");
    let mut best = (0, full_scan);
    for (i, candidate) in candidates.iter().enumerate().skip(1) {
        if let Some(cost) = candidate.cost().filter(|c| *c < best.1) {
            best = (i, cost);
        }
    }
    best
}

/// Everything planning derives that does not depend on the configuration
/// (interior mutability: planning takes `&self`). A price is a pure
/// function of index × context × statement — never of what else the
/// configuration holds — so one `Planner` reused across the configs of a
/// batch via [`Planner::set_config`] builds each context once and prices
/// each index once per context, whichever configs it appears in.
#[derive(Default)]
struct Memo<'a> {
    contexts: HashMap<(usize, ContextKey), Rc<ProbeContext>>,
    /// Contexts handed out so far; the next [`ProbeContext::id`].
    issued: usize,
    /// Per (table instance, index).
    indexes: HashMap<(usize, IndexId<'a>), IndexEntry<'a>>,
}

/// An index's resolved metadata and its price in every context asked
/// about, by [`ProbeContext::id`].
struct IndexEntry<'a> {
    meta: IndexMeta<'a>,
    prices: HashMap<usize, Option<Priced>>,
}

/// A partial join order the search keeps: the tables it binds, what
/// joining them costs and yields, and the step that completed it from the
/// order kept under key `last.0` (`None`: the empty order).
struct Partial {
    bound: Vec<usize>,
    cost: f64,
    rows: f64,
    last: Option<(usize, TableStep)>,
}

/// Planner context for one SELECT.
pub struct Planner<'a> {
    config: &'a HypoConfig,
    cm: &'a CostModel,
    pub binder: Binder,
    pub analysis: PredicateAnalysis,
    select: &'a Select,
    /// The bound tables and their statistics, per table instance.
    tables: Vec<(&'a Table, Option<&'a TableStats>)>,
    /// Referenced column positions per table instance.
    referenced: Vec<BTreeSet<usize>>,
    memo: RefCell<Memo<'a>>,
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
        let tables = binder
            .tables()
            .iter()
            .map(|b| Ok((db.table(&b.table)?, db.stats(&b.table))))
            .collect::<Result<Vec<_>, ExecError>>()?;
        let referenced = collect_referenced(select, &binder, &tables);
        Ok(Self {
            config,
            cm,
            binder,
            analysis,
            select,
            tables,
            referenced,
            memo: RefCell::default(),
        })
    }

    /// Swaps the hypothetical configuration while keeping everything that
    /// does not depend on it — binding, predicate analysis, probe contexts
    /// and index prices. This is how a batch is costed: prepare once, then
    /// `set_config` + [`Planner::plan`] per config.
    pub fn set_config(&mut self, config: &'a HypoConfig) {
        self.config = config;
    }

    /// What of `config` a plan of this statement can depend on: whether
    /// materialized indexes are visible, and which hypothetical definitions
    /// sit on a table the statement binds (sorted, distinct). Configs with
    /// equal projections plan identically and use the same definitions.
    pub fn projection(&self, config: &HypoConfig) -> (bool, Vec<u64>) {
        let mut defs: Vec<u64> = config
            .indexes
            .iter()
            .filter(|h| self.tables.iter().any(|(t, _)| t.schema().name == h.def.table))
            .map(|h| h.def_key())
            .collect();
        defs.sort_unstable();
        defs.dedup();
        (config.include_materialized, defs)
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
        // One table has one order; most statements planned are this case.
        let (steps, join_rows, scan_cost) = if n == 1 {
            let step = self.best_access(0, &[], true)?;
            let (rows, cost) = (step.rows_each, step.cost_each);
            (vec![step], rows, cost)
        } else {
            self.join_order()?
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

    /// Join order search: a partial order grows by the cheapest access
    /// path of each table that may come next. Up to [`DP_TABLE_LIMIT`]
    /// tables the cheapest order of every table subset is kept, under the
    /// subset's bitmask (Selinger-style DP); a wider FROM list keeps the
    /// one cheapest order of each size, under that size (greedy). Either
    /// way a key's orders all extend orders under smaller keys, so one
    /// ascending sweep settles each before it is extended. Returns the
    /// steps, the joined rows and the scan cost.
    fn join_order(&self) -> Result<(Vec<TableStep>, f64, f64), ExecError> {
        let n = self.binder.len();
        let exhaustive = n <= DP_TABLE_LIMIT;
        let full = if exhaustive { (1usize << n) - 1 } else { n };
        let mut best: Vec<Option<Partial>> = (0..=full).map(|_| None).collect();
        best[0] = Some(Partial { bound: Vec::new(), cost: 0.0, rows: 1.0, last: None });
        for from in 0..full {
            let (settled, open) = best.split_at_mut(from + 1);
            let Some(base) = &settled[from] else { continue };
            for t in self.extensions(&base.bound) {
                let step = self.best_access(t, &base.bound, from == 0)?;
                let cost = base.cost + base.rows.max(1.0) * step.cost_each;
                let rows = base.rows * step.rows_each;
                let key = if exhaustive { from | 1 << t } else { from + 1 };
                let kept = &mut open[key - from - 1];
                if kept.as_ref().is_none_or(|k| cost < k.cost) {
                    let bound = base.bound.iter().copied().chain([t]).collect();
                    *kept = Some(Partial { bound, cost, rows, last: Some((from, step)) });
                }
            }
        }
        let (rows, cost) = best[full]
            .as_ref()
            .map(|p| (p.rows, p.cost))
            .expect("a partial order has an extension until it binds every table");
        let mut steps = Vec::with_capacity(n);
        let mut at = full;
        while let Some((prev, step)) = best[at].take().and_then(|p| p.last) {
            steps.push(step);
            at = prev;
        }
        steps.reverse();
        Ok((steps, rows, cost))
    }

    /// The tables that may follow `bound` in a join order, in table order:
    /// those joined to a bound table, or every unbound table when no join
    /// reaches out of `bound` (nothing is bound yet, or a cross product).
    fn extensions(&self, bound: &[usize]) -> Vec<usize> {
        let mut is_bound = vec![false; self.binder.len()];
        for &t in bound {
            is_bound[t] = true;
        }
        let unbound = || (0..is_bound.len()).filter(|&t| !is_bound[t]);
        let connected: Vec<usize> = unbound()
            .filter(|&t| {
                self.analysis.joins.iter().any(|j| {
                    j.side_for(t).is_some_and(|(_, other)| is_bound[other.table_idx])
                })
            })
            .collect();
        if connected.is_empty() {
            unbound().collect()
        } else {
            connected
        }
    }

    // ------------------------------------------------------------ access path

    /// Best access path for table instance `t`, given the set of already
    /// bound table instances (join columns to them become probe sources).
    /// `outermost` — the first table of the join order, so nothing is bound
    /// — enables ORDER BY + LIMIT early-termination credit and OR-union
    /// paths.
    pub fn best_access(
        &self,
        t: usize,
        bound: &[usize],
        outermost: bool,
    ) -> Result<TableStep, ExecError> {
        debug_assert!(!outermost || bound.is_empty());
        let ctx = self.table_context(t, bound, outermost);
        let candidates = self.candidates(t, &ctx);
        let (chosen, cost_each) = cheapest(&candidates);
        let path = match &candidates[chosen] {
            Candidate::FullScan(_) => AccessPath::FullScan,
            Candidate::Index(ix, priced) => {
                let priced = priced.expect("only a usable index is chosen");
                AccessPath::IndexScan(self.scan(t, *ix, priced, &ctx))
            }
            Candidate::OrUnion(picks, _) => AccessPath::OrUnion(
                picks
                    .iter()
                    .enumerate()
                    .map(|(b, (ix, priced))| self.scan(t, *ix, *priced, &self.or_context(t, b)))
                    .collect(),
            ),
        };
        let table_rows = self.table(t).row_count() as f64;
        Ok(TableStep {
            table_idx: t,
            table: self.binder.tables()[t].table.clone(),
            path,
            rows_each: (table_rows * ctx.selectivity).min(table_rows).max(0.0),
            cost_each,
        })
    }

    /// Every access path of table instance `t` in `ctx`, priced, in the
    /// order the search folds them: full scan, primary key, materialized
    /// indexes when the configuration shows them, its hypotheticals in
    /// config order, then the OR-union on an outermost single table.
    /// [`Planner::best_access`] takes the [`cheapest`]; EXPLAIN lists all.
    fn candidates(&self, t: usize, ctx: &ProbeContext) -> Vec<Candidate<'a>> {
        let table = self.table(t);
        let mut out = vec![Candidate::FullScan(
            self.cm.full_scan_cost(table.data_bytes(), table.row_count() as f64),
        )];
        out.extend(self.indexes(table).map(|ix| Candidate::Index(ix, self.price(t, ix, ctx))));
        if ctx.outermost && self.binder.len() == 1 {
            out.extend(self.or_union(t));
        }
        out
    }

    /// The indexes of `table` visible under the current configuration.
    fn indexes(&self, table: &'a Table) -> impl Iterator<Item = IndexRef<'a>> {
        let config = self.config;
        let materialized = config.include_materialized.then(|| table.indexes());
        std::iter::once(IndexRef::Primary)
            .chain(materialized.into_iter().flatten().map(IndexRef::Secondary))
            .chain(
                config
                    .for_table(&table.schema().name)
                    .map(|(i, h)| IndexRef::Hypothetical(i, h)),
            )
    }

    /// Bound-table set as a bitmask cache key; `None` disables memoization
    /// for the (absurd) case of more than 64 bound tables.
    fn bound_mask(&self, bound: &[usize]) -> Option<u64> {
        if self.binder.len() > 64 {
            return None;
        }
        Some(bound.iter().fold(0u64, |m, &i| m | (1u64 << i)))
    }

    /// Context of table instance `t` after the tables in `bound`.
    fn table_context(&self, t: usize, bound: &[usize], outermost: bool) -> Rc<ProbeContext> {
        let key = self.bound_mask(bound).map(|mask| ContextKey::Bound(mask, outermost));
        self.context(t, key, &self.analysis.sargs[t], bound, outermost)
    }

    /// Context of OR branch `branch` on table instance `t`: the branch's
    /// predicates alone, and no early-termination credit.
    fn or_context(&self, t: usize, branch: usize) -> Rc<ProbeContext> {
        let branches = self.analysis.or_branches.as_ref().expect("an OR branch was asked for");
        self.context(t, Some(ContextKey::OrBranch(branch)), &branches[branch], &[], false)
    }

    /// The memoized context under `key` (`None`: built afresh), derived
    /// from `sargs` and the join edges of `t` into `bound`. This is the one
    /// place a predicate becomes a probe source.
    fn context(
        &self,
        t: usize,
        key: Option<ContextKey>,
        sargs: &[Sarg],
        bound: &[usize],
        outermost: bool,
    ) -> Rc<ProbeContext> {
        let key = key.map(|k| (t, k));
        if let Some(hit) = key.and_then(|k| self.memo.borrow().contexts.get(&k).cloned()) {
            return hit;
        }
        let table = self.table(t);
        let columns = table.schema().columns.len();
        let mut eq: Vec<Option<EqSource>> = vec![None; columns];
        let mut ranges: Vec<Option<RangeInfo>> = vec![None; columns];
        let mut sel = 1.0f64;
        for sarg in sargs {
            let col = sarg.column().col_idx;
            sel *= sarg_selectivity(sarg, self.column_stats(sarg.column()));
            match sarg {
                Sarg::Eq { value, .. } => {
                    eq[col].get_or_insert_with(|| match value {
                        SargValue::Const(v) => EqSource::Const(v.clone()),
                        SargValue::Unknown => EqSource::Unknown,
                    });
                }
                Sarg::InList { values, .. } => {
                    eq[col].get_or_insert_with(|| {
                        let consts: Option<Vec<Value>> =
                            values.iter().map(|v| v.value().cloned()).collect();
                        match consts {
                            Some(vs) if !vs.is_empty() => EqSource::InList(vs),
                            _ => EqSource::Unknown,
                        }
                    });
                }
                Sarg::Range { lo, hi, .. } => {
                    ranges[col].get_or_insert_with(|| RangeInfo {
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
                    eq[mine.col_idx].get_or_insert(EqSource::Outer(other));
                    let my_ndv = self
                        .column_stats(mine)
                        .map_or(table.row_count() as f64, |c| c.ndv.max(1) as f64);
                    let other_ndv = self.column_stats(other).map_or(1.0, |c| c.ndv.max(1) as f64);
                    sel *= 1.0 / my_ndv.max(other_ndv).max(1.0);
                }
            }
        }
        let mut memo = self.memo.borrow_mut();
        let ctx = Rc::new(ProbeContext {
            id: memo.issued,
            eq,
            ranges,
            selectivity: sel.clamp(0.0, 1.0),
            outermost,
        });
        memo.issued += 1;
        if let Some(k) = key {
            memo.contexts.insert(k, Rc::clone(&ctx));
        }
        ctx
    }

    fn table(&self, t: usize) -> &'a Table {
        self.tables[t].0
    }

    fn column_stats(&self, col: BoundColumn) -> Option<&'a ColumnStats> {
        let (table, stats) = self.tables[col.table_idx];
        stats?.column(&table.schema().columns[col.col_idx].name)
    }

    /// The price of index `ix` of table instance `t` in `ctx`, worked out
    /// on first request and remembered under (index identity, context).
    fn price(&self, t: usize, ix: IndexRef<'a>, ctx: &ProbeContext) -> Option<Priced> {
        let mut memo = self.memo.borrow_mut();
        let IndexEntry { meta, prices } = memo
            .indexes
            .entry((t, ix.id()))
            .or_insert_with(|| IndexEntry { meta: self.resolve(t, ix), prices: HashMap::new() });
        *prices
            .entry(ctx.id)
            .or_insert_with(|| self.price_index(t, ix, meta, ctx))
    }

    fn resolve(&self, t: usize, ix: IndexRef<'a>) -> IndexMeta<'a> {
        let schema = self.table(t).schema();
        let (key, entry_width) = match ix {
            // PK as an "index": clustered, entries are whole rows.
            IndexRef::Primary => (
                Cow::Borrowed(&schema.primary_key[..]),
                schema.avg_row_width() as f64,
            ),
            IndexRef::Secondary(ix) => (
                Cow::Borrowed(ix.key_positions()),
                if ix.is_empty() { 32.0 } else { ix.size_bytes() as f64 / ix.len() as f64 },
            ),
            IndexRef::Hypothetical(_, h) => (
                h.def
                    .columns
                    .iter()
                    .map(|c| schema.column_index(c).unwrap_or(usize::MAX))
                    .collect(),
                h.entry_width,
            ),
        };
        let clustered = matches!(ix, IndexRef::Primary);
        let covering = clustered
            || self.referenced[t]
                .iter()
                .all(|c| key.contains(c) || schema.primary_key.contains(c));
        IndexMeta { key, entry_width, clustered, covering }
    }

    /// Costs one index of table instance `t` in `ctx`; `None` if the index
    /// is useless there.
    fn price_index(
        &self,
        t: usize,
        ix: IndexRef<'a>,
        meta: &IndexMeta<'a>,
        ctx: &ProbeContext,
    ) -> Option<Priced> {
        let table_rows = self.table(t).row_count() as f64;
        let stats_of = |col_idx| self.column_stats(BoundColumn { table_idx: t, col_idx });

        // Match the equality prefix.
        let mut eq_len = 0;
        let mut sel = 1.0f64;
        let mut probes = 1.0f64;
        for &col in meta.key.iter() {
            let Some(src) = ctx.eq.get(col).and_then(Option::as_ref) else {
                break;
            };
            sel *= match (src, stats_of(col)) {
                (EqSource::Const(v), Some(cs)) => cs.eq_selectivity(v),
                (EqSource::InList(vs), Some(cs)) => {
                    probes *= vs.len() as f64;
                    (vs.iter().map(|v| cs.eq_selectivity(v)).sum::<f64>()).min(1.0)
                }
                (EqSource::InList(vs), None) => {
                    probes *= vs.len() as f64;
                    (0.1 * vs.len() as f64).min(1.0)
                }
                (EqSource::Outer(_), cs) => cs.map_or(0.1, ColumnStats::eq_selectivity_unknown),
                (EqSource::Unknown, Some(cs)) => cs.eq_selectivity_unknown(),
                (EqSource::Const(_), None) | (EqSource::Unknown, None) => 0.1,
            };
            eq_len += 1;
        }

        // Range on the next column.
        let range = meta
            .key
            .get(eq_len)
            .and_then(|&next| Some((next, ctx.ranges.get(next)?.as_ref()?)));
        if let Some((next, r)) = range {
            sel *= range_selectivity(stats_of(next), &r.lo, &r.hi);
        }
        let priced = |cost| Priced {
            eq_len,
            range: range.is_some(),
            covering: meta.covering,
            cost,
        };

        if eq_len == 0 && range.is_none() {
            // No predicate narrows this index. An index-only full scan can
            // still win when covering and narrower than the table, or when
            // it provides ORDER BY order with a LIMIT.
            if !meta.covering || meta.clustered {
                return None;
            }
            let mut entries = table_rows;
            // Early termination: index provides order and query has LIMIT.
            // An outermost context has no bound table, so its selectivity
            // is that of the table's own predicates.
            if ctx.outermost
                && ix.def().is_some_and(|def| self.key_provides_order(&def.columns, &[]))
            {
                if let Some(limit) = self.limit_value() {
                    entries = (limit as f64 / ctx.selectivity.max(1e-9)).min(table_rows);
                }
            }
            return Some(priced(self.cm.index_scan_cost(entries, meta.entry_width, 0.0)));
        }

        let matched = (table_rows * sel).clamp(0.0, table_rows);
        let lookups = if meta.covering { 0.0 } else { matched };
        let mut cost = self
            .cm
            .index_scan_cost(matched.max(1.0), meta.entry_width, lookups);
        // Extra probes for IN lists: one tree descent per probe value.
        if probes > 1.0 {
            cost += (probes - 1.0) * self.cm.rand_page_cost;
        }
        Some(priced(cost))
    }

    /// Materialises the scan `priced` stands for — done for a winner only.
    fn scan(&self, t: usize, ix: IndexRef<'a>, priced: Priced, ctx: &ProbeContext) -> IndexScan {
        let memo = self.memo.borrow();
        let key = &memo.indexes[&(t, ix.id())].meta.key;
        IndexScan {
            index: ix.choice(),
            key_columns: ix.key_columns(self.table(t).schema()),
            eq: key[..priced.eq_len]
                .iter()
                .map(|&col| ctx.eq[col].clone().expect("a matched prefix column has a source"))
                .collect(),
            range: priced.range.then(|| ctx.ranges[key[priced.eq_len]].clone()).flatten(),
            covering: priced.covering,
        }
    }

    /// Index-merge union over single-table OR branches: every branch must
    /// have an index of its own that a predicate of the branch narrows.
    fn or_union(&self, t: usize) -> Option<Candidate<'a>> {
        if !self.cm.switches.or_index_merge {
            return None;
        }
        let table = self.table(t);
        let branches = self.analysis.or_branches.as_ref()?.len();
        let mut picks = Vec::with_capacity(branches);
        let mut total_cost = 0.0f64;
        for branch in 0..branches {
            let ctx = self.or_context(t, branch);
            // Best index for this branch, by the same strict-`<` fold in
            // enumeration order; a branch without one sinks the whole union.
            let mut best: Option<(IndexRef<'a>, Priced)> = None;
            for ix in self.indexes(table) {
                if let Some(p) = self.price(t, ix, &ctx) {
                    if (p.eq_len > 0 || p.range) && best.is_none_or(|(_, b)| p.cost < b.cost) {
                        best = Some((ix, p));
                    }
                }
            }
            // Union always needs base-table lookups for non-covering
            // branches; approximate via the branch cost already computed.
            total_cost += best?.1.cost;
            picks.extend(best);
        }
        // Dedup + union overhead.
        total_cost += table.row_count() as f64 * 0.001 + self.cm.row_cost * picks.len() as f64;
        Some(Candidate::OrUnion(picks, total_cost))
    }

    // ------------------------------------------------------- order / groups

    /// True if scanning `ix` in key order yields rows in ORDER BY order:
    /// the ORDER BY columns must equal the index key columns immediately
    /// after the equality prefix, with uniform direction, and the range (if
    /// any) must be on the first ORDER BY column.
    pub fn index_provides_order(&self, ix: &IndexScan) -> bool {
        self.key_provides_order(&ix.key_columns, &ix.eq)
    }

    /// [`Planner::index_provides_order`] for an index with key columns
    /// `key` probed with the equality prefix `eq`.
    fn key_provides_order(&self, key: &[String], eq: &[EqSource]) -> bool {
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
        if eq.iter().any(|e| matches!(e, EqSource::InList(_))) {
            return false;
        }
        for (pos, item) in (eq.len()..).zip(self.select.order_by.iter()) {
            let Expr::Column(c) = &item.expr else {
                return false;
            };
            let Ok(bc) = self.binder.resolve(c) else {
                return false;
            };
            if bc.table_idx != 0 && self.binder.len() > 1 {
                return false;
            }
            if pos >= key.len() {
                return false;
            }
            let schema = self.table(bc.table_idx).schema();
            if schema.columns[bc.col_idx].name != key[pos] {
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
            let schema = self.table(bc.table_idx).schema();
            group_cols.insert(schema.columns[bc.col_idx].name.clone());
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

    /// Explains a plan this planner produced: for each join step, the
    /// candidates the search folded over in that step's context — the same
    /// enumeration, answered from the same memoized prices — each with its
    /// cost (or why it was unusable), the search's pick marked.
    pub fn explain_plan(&self, plan: &Plan) -> Result<crate::explain::ExplainPlan, ExecError> {
        use crate::explain::{ExplainAlternative, ExplainNode, ExplainPlan};

        let mut nodes = Vec::with_capacity(plan.steps.len());
        let mut bound: Vec<usize> = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            let t = step.table_idx;
            let ctx = self.table_context(t, &bound, bound.is_empty());
            let candidates = self.candidates(t, &ctx);
            let (chosen, chosen_cost) = cheapest(&candidates);
            let mut alternatives: Vec<ExplainAlternative> = candidates
                .iter()
                .enumerate()
                .map(|(k, candidate)| {
                    let mut alt = self.describe(t, candidate);
                    alt.chosen = k == chosen;
                    alt.reason = match alt.est_cost {
                        _ if alt.chosen => "chosen".to_string(),
                        Some(cost) => format!("+{:.1} vs chosen", cost - chosen_cost),
                        None => "not usable: no predicate matches the key prefix".to_string(),
                    };
                    alt
                })
                .collect();
            // Chosen first, usable alternatives by cost, unusable last.
            alternatives.sort_by(|a, b| {
                let key = |x: &ExplainAlternative| {
                    (!x.chosen, x.est_cost.is_none(), x.est_cost.unwrap_or(0.0))
                };
                key(a).partial_cmp(&key(b)).unwrap_or(std::cmp::Ordering::Equal)
            });

            let binding = &self.binder.tables()[t];
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

    /// One candidate of table instance `t` as EXPLAIN shows it, not yet
    /// marked chosen or rejected.
    fn describe(&self, t: usize, candidate: &Candidate<'a>) -> crate::explain::ExplainAlternative {
        let (access, index, eq_prefix, range, covering) = match candidate {
            Candidate::FullScan(_) => ("full scan".to_string(), None, 0, false, true),
            Candidate::Index(ix, Some(p)) => {
                let mut traits = vec![format!("eq {}", p.eq_len)];
                if p.range {
                    traits.push("range".to_string());
                }
                if p.covering {
                    traits.push("covering".to_string());
                }
                (traits.join(", "), Some(*ix), p.eq_len, p.range, p.covering)
            }
            Candidate::Index(ix, None) => {
                let key = ix.key_columns(self.table(t).schema());
                (key.join(", "), Some(*ix), 0, false, false)
            }
            Candidate::OrUnion(picks, _) => (
                format!("index-merge union over {} OR branches", picks.len()),
                None,
                0,
                false,
                false,
            ),
        };
        let label = index.map(|ix| ix.choice().label().into_owned());
        crate::explain::ExplainAlternative {
            access: match &label {
                Some(label) => format!("index {label} ({access})"),
                None => access,
            },
            index: label,
            hypothetical: matches!(index, Some(IndexRef::Hypothetical(..))),
            eq_prefix,
            range,
            covering,
            est_cost: candidate.cost(),
            chosen: false,
            reason: String::new(),
        }
    }
}

/// Selectivity of one sargable predicate given its column's statistics.
fn sarg_selectivity(sarg: &Sarg, cs: Option<&ColumnStats>) -> f64 {
    let Some(cs) = cs else {
        return match sarg {
            Sarg::Eq { .. } => 0.1,
            Sarg::InList { values, .. } => (0.1 * values.len() as f64).min(1.0),
            Sarg::Range { .. } => 1.0 / 3.0,
        };
    };
    let eq = |v: &SargValue| match v {
        SargValue::Const(v) => cs.eq_selectivity(v),
        SargValue::Unknown => cs.eq_selectivity_unknown(),
    };
    match sarg {
        Sarg::Eq { value, .. } => eq(value),
        Sarg::InList { values, .. } => values.iter().map(eq).sum::<f64>().min(1.0),
        Sarg::Range { lo, hi, .. } => range_selectivity(Some(cs), lo, hi),
    }
}

/// Selectivity of a range on a column: from the histogram when both bounds
/// are known, the traditional fixed guess otherwise.
fn range_selectivity(
    cs: Option<&ColumnStats>,
    lo: &Bound<SargValue>,
    hi: &Bound<SargValue>,
) -> f64 {
    fn known(b: &Bound<SargValue>) -> Option<Bound<&Value>> {
        match b {
            Bound::Unbounded => Some(Bound::Unbounded),
            Bound::Included(SargValue::Const(v)) => Some(Bound::Included(v)),
            Bound::Excluded(SargValue::Const(v)) => Some(Bound::Excluded(v)),
            _ => None,
        }
    }
    match (cs, known(lo), known(hi)) {
        (None, ..) => 1.0 / 3.0,
        (Some(cs), Some(l), Some(h)) => cs.range_selectivity(l, h),
        (Some(cs), ..) => cs.range_selectivity_unknown(),
    }
}

/// Collects the referenced column positions per bound table.
fn collect_referenced(
    select: &Select,
    binder: &Binder,
    tables: &[(&Table, Option<&TableStats>)],
) -> Vec<BTreeSet<usize>> {
    let mut cols: Vec<aim_sql::ast::ColumnRef> = Vec::new();
    let mut wildcard = false;
    for item in &select.items {
        match item {
            SelectItem::Wildcard => wildcard = true,
            SelectItem::Expr { expr, .. } => expr.referenced_columns(&mut cols),
        }
    }
    if wildcard {
        return tables
            .iter()
            .map(|(table, _)| (0..table.schema().columns.len()).collect())
            .collect();
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
    let mut referenced = vec![BTreeSet::new(); tables.len()];
    for bc in cols.iter().filter_map(|c| binder.resolve(c).ok()) {
        referenced[bc.table_idx].insert(bc.col_idx);
    }
    referenced
}

/// Estimated cost of any statement under a what-if configuration: the
/// one-slot [`estimate_statement_cost_batch`].
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
    estimate_statement_cost_batch(db, stmt, &[config], cm)
        .pop()
        .expect("one result per config")
}

/// Prices one statement under every configuration in `configs`, sharing
/// parsing, binding, predicate and selectivity derivation across the whole
/// batch (SELECTs and DML WHERE clauses go through
/// [`crate::whatif::WhatIfCache::eval_select_batch_until`]; the maintenance
/// arithmetic stays per config). Results are returned in `configs` order
/// and are bit-identical to one call per config.
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
            // (which go through `Planner::plan`).
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
        Planner::new(db, &s, config, &CostModel::default()).unwrap().plan().unwrap()
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
        assert_eq!(p.steps[0].table_idx, 1, "{}", p.access_summary());
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

    /// An OR branch reads an IN list as the top level does: a `?` among
    /// its members makes the probe unknown, it does not drop the predicate.
    #[test]
    fn or_branch_in_list_with_parameters_plans_like_equality() {
        let mut db = db();
        let mut io = IoStats::new();
        for col in ["a", "c"] {
            db.create_index(IndexDef::new(format!("ix_{col}"), "t", vec![col.into()]), &mut io)
                .unwrap();
        }
        let none = HypoConfig::none();
        let eq = plan_sql(&db, "SELECT id FROM t WHERE a = ? OR c = ?", &none);
        let in_list = plan_sql(&db, "SELECT id FROM t WHERE a IN (?, ?) OR c = ?", &none);
        assert_eq!(eq.access_summary(), "t(or_union[2])");
        assert_eq!(in_list.access_summary(), eq.access_summary());
        match &in_list.steps[0].path {
            AccessPath::OrUnion(branches) => assert_eq!(branches[0].eq, vec![EqSource::Unknown]),
            other => panic!("expected OR union, got {other:?}"),
        }
    }

    #[test]
    fn or_branch_in_list_with_parameters_benefits_from_hypotheticals() {
        let mut db = db();
        let cm = CostModel::default();
        let stmt = parse_statement("SELECT id FROM t WHERE a IN (?, ?) OR c = ?").unwrap();
        let hypos = ["a", "c"]
            .map(|col| {
                HypotheticalIndex::build(&db, IndexDef::new(format!("h_{col}"), "t", vec![col.into()]))
                    .unwrap()
            })
            .to_vec();
        let bare = estimate_statement_cost(&db, &stmt, &HypoConfig::only(Vec::new()), &cm).unwrap();
        let indexed = estimate_statement_cost(&db, &stmt, &HypoConfig::only(hypos), &cm).unwrap();
        assert!(indexed < bare, "indexed {indexed} vs index-free {bare}");

        // Costing tolerates the parameters; executing them does not.
        let err = crate::Engine::default().execute(&mut db, &stmt).unwrap_err();
        assert!(matches!(&err, ExecError::Eval(m) if m.contains("unbound ?")), "{err}");
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
        let p = Planner::new(&db, &s, &HypoConfig::none(), &cm).unwrap().plan().unwrap();
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
        let p = Planner::new(&db, &s, &HypoConfig::none(), &cm).unwrap().plan().unwrap();
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
        let text = planner.explain().unwrap().render_text();
        assert!(text.contains("ix_a"), "{text}");
    }
}
