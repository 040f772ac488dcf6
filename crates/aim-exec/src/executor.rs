//! Plan execution against a real database.
//!
//! Executes the physical plans produced by [`crate::planner`] with full
//! physical I/O accounting, so the workload monitor sees exactly the
//! rows-read / rows-sent / CPU quantities that AIM's selection formulas
//! (Eq. 5) consume.
//!
//! Correctness strategy: access paths only *narrow* the candidate row set;
//! the executor re-applies every predicate that is fully bound at each join
//! level, so a mis-narrowed path can cost performance but never correctness.

use crate::bind::{Binder, Scope, SlotLayout};
use crate::cost::CostModel;
use crate::error::ExecError;
use crate::eval::{literal_value, AggregateSlots, BoundAggregate, BoundExpr};
use crate::hypothetical::HypoConfig;
use crate::planner::{
    AccessPath, EqSource, IndexChoice, IndexScan, Plan, Planner, RangeInfo,
};
use crate::predicate::SargValue;
use aim_sql::ast::{
    AggFunc, Delete, Expr, Insert, Literal, Select, SelectItem, Statement, Update,
};
use aim_storage::{Database, IoStats, Key, Row, Table, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Projected result rows (empty for DML).
    pub rows: Vec<Row>,
    /// Physical I/O performed.
    pub io: IoStats,
    /// Total measured cost in cost units (I/O + sort + output CPU).
    pub cost: f64,
    /// The plan that was executed (for SELECTs; a trivial plan for DML).
    pub plan: Plan,
    /// Rows affected (DML only).
    pub affected: u64,
}

impl ExecOutcome {
    /// Rows examined during execution.
    pub fn rows_read(&self) -> u64 {
        self.io.rows_read
    }

    /// Rows returned to the client.
    pub fn rows_sent(&self) -> u64 {
        self.rows.len() as u64
    }
}

/// The execution engine: a cost model plus statement dispatch.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    pub cost_model: CostModel,
}

impl Engine {
    /// Creates an engine with the default cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes any statement.
    pub fn execute(
        &self,
        db: &mut Database,
        stmt: &Statement,
    ) -> Result<ExecOutcome, ExecError> {
        let _span = aim_telemetry::span("exec.execute");
        // SELECTs consult the fault gate inside `execute_select` (their
        // only gate, so direct parallel-replay calls are also covered).
        if !matches!(stmt, Statement::Select(_)) {
            if let Some(aim_storage::fault::FaultKind::Fail) =
                aim_storage::fault::hit("exec.execute")
            {
                return Err(ExecError::FaultInjected {
                    site: "exec.execute".to_string(),
                });
            }
        }
        let outcome = match stmt {
            Statement::Select(s) => self.execute_select(db, s),
            Statement::Insert(i) => self.execute_insert(db, i),
            Statement::Update(u) => self.execute_update(db, u),
            Statement::Delete(d) => self.execute_delete(db, d),
            Statement::CreateTable(c) => {
                let mut columns = Vec::with_capacity(c.columns.len());
                for (name, ty) in &c.columns {
                    let ct = match ty {
                        aim_sql::ast::SqlType::BigInt => aim_storage::ColumnType::Int,
                        aim_sql::ast::SqlType::Double => aim_storage::ColumnType::Float,
                        aim_sql::ast::SqlType::Varchar => aim_storage::ColumnType::Str,
                        aim_sql::ast::SqlType::Boolean => aim_storage::ColumnType::Bool,
                    };
                    columns.push(aim_storage::ColumnDef::new(name.clone(), ct));
                }
                let pk: Vec<&str> = c.primary_key.iter().map(String::as_str).collect();
                let schema = aim_storage::TableSchema::new(c.name.clone(), columns, &pk)
                    .map_err(ExecError::Storage)?;
                db.create_table(schema)?;
                Ok(trivial_outcome())
            }
            Statement::CreateIndex(c) => {
                let mut io = IoStats::new();
                db.create_index(
                    aim_storage::IndexDef {
                        name: c.name.clone(),
                        table: c.table.clone(),
                        columns: c.columns.clone(),
                        unique: c.unique,
                    },
                    &mut io,
                )?;
                let cost = self.cost_model.io_cost(&io);
                Ok(ExecOutcome {
                    rows: Vec::new(),
                    io,
                    cost,
                    plan: empty_plan(),
                    affected: 0,
                })
            }
            Statement::DropIndex { name, table } => {
                db.drop_index(table, name)?;
                Ok(trivial_outcome())
            }
        }?;
        aim_telemetry::metrics::STATEMENTS_EXECUTED.incr();
        aim_telemetry::metrics::ROWS_READ.add(outcome.io.rows_read);
        aim_telemetry::metrics::PAGES_READ.add(outcome.io.pages_read);
        aim_telemetry::metrics::INDEX_SEEKS.add(outcome.io.seeks);
        // Select latency proxy for the windowed time-series and the SLO
        // rules. Only production executes feed it — advisory
        // what-ifs and validation replays call `execute_select` directly
        // and must not pollute the live-traffic signal.
        if matches!(stmt, Statement::Select(_)) {
            aim_telemetry::metrics::histogram_record("exec.select_cost", outcome.cost);
        }
        Ok(outcome)
    }

    /// Executes a SELECT.
    pub fn execute_select(
        &self,
        db: &Database,
        select: &Select,
    ) -> Result<ExecOutcome, ExecError> {
        self.open_select(db, select)?.run()
    }

    /// Executes `plan`, the plan of `select` over `binder`.
    fn run_select(
        &self,
        db: &Database,
        select: &Select,
        binder: &Binder,
        plan: Plan,
    ) -> Result<ExecOutcome, ExecError> {
        // Table-free SELECT.
        if plan.steps.is_empty() {
            let mut row = Vec::new();
            for item in &select.items {
                match item {
                    SelectItem::Wildcard => {
                        return Err(ExecError::Unsupported("SELECT * without FROM".into()))
                    }
                    SelectItem::Expr { expr, .. } => {
                        row.push(BoundExpr::bind(expr, binder)?.eval(&[], &[])?.into_owned())
                    }
                }
            }
            return Ok(ExecOutcome {
                rows: vec![row],
                io: IoStats::new(),
                cost: self.cost_model.output_row_cost,
                plan,
                affected: 0,
            });
        }

        // Bind once: everything the statement evaluates per row is resolved
        // here, so name errors surface before any row is read.
        let layouts = slot_layouts(db, binder, &plan)?;
        let scope = Scope::new(binder, &layouts);
        let conjuncts = conjuncts_by_level(select, &scope, &plan)?;
        let limit = limit_of(select)?;
        let query = BoundSelect::bind(select, &scope, db)?;

        let streaming_limit = plan.order_via_index
            && select.group_by.is_empty()
            && !select.distinct
            && limit.is_some();

        let width = binder.len();
        let sink = if query.grouped {
            Sink::Groups(Aggregator::new(&query.group_by, &query.aggregates, width))
        } else {
            Sink::Tuples(Vec::new())
        };
        let mut join = Join::new(db, binder, &plan, &layouts, &conjuncts, sink)?;
        let streamed = match limit {
            Some(k) if streaming_limit => join.stream_limited(k)?,
            _ => false,
        };
        if !streamed {
            join.cap = if streaming_limit { limit } else { None };
            join.level(0)?;
        }
        let Join { sink, io, .. } = join;

        // One source per candidate output row: a joined tuple, or a
        // group's representative tuple plus its finished aggregates.
        let mut extra_cost = 0.0f64;
        let (tuples, agg_values) = match sink {
            Sink::Tuples(tuples) => (tuples, Vec::new()),
            Sink::Groups(groups) => {
                if !plan.group_via_index && groups.fed > 0 {
                    extra_cost += self.cost_model.sort_cost(groups.fed as f64);
                }
                groups.finish()
            }
        };
        let aggs_per_row = query.aggregates.len();
        let source = |j: usize| {
            (
                &tuples[j * width..(j + 1) * width],
                &agg_values[j * aggs_per_row..(j + 1) * aggs_per_row],
            )
        };

        // HAVING and projection.
        let mut rows: Vec<Row> = Vec::new();
        let mut source_of: Vec<usize> = Vec::new();
        for j in 0..tuples.len() / width {
            let (tuple, aggs) = source(j);
            if let Some(h) = &query.having {
                if !h.accepts(tuple, aggs)? {
                    continue;
                }
            }
            rows.push(query.project(tuple, aggs)?);
            source_of.push(j);
        }

        // DISTINCT, ORDER BY and LIMIT select and permute row indices; the
        // rows themselves move once, into the outcome.
        let mut order: Vec<usize> = if select.distinct {
            let mut seen = std::collections::BTreeSet::new();
            (0..rows.len()).filter(|&i| seen.insert(&rows[i])).collect()
        } else {
            (0..rows.len()).collect()
        };

        if !query.order_by.is_empty() && !plan.order_via_index {
            extra_cost += self.cost_model.sort_cost(order.len() as f64);
            let key_len = query.order_by.len();
            let mut keys: Vec<Cow<'_, Value>> = Vec::with_capacity(order.len() * key_len);
            for &i in &order {
                let (tuple, aggs) = source(source_of[i]);
                for (expr, _) in &query.order_by {
                    keys.push(expr.eval(tuple, aggs)?);
                }
            }
            let mut ranks: Vec<usize> = (0..order.len()).collect();
            ranks.sort_by(|&a, &b| {
                let (a, b) = (&keys[a * key_len..], &keys[b * key_len..]);
                for (i, (_, desc)) in query.order_by.iter().enumerate() {
                    let ord = a[i].cmp(&b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            order = ranks.into_iter().map(|r| order[r]).collect();
        }

        if let Some(k) = limit {
            order.truncate(k);
        }

        let rows: Vec<Row> = order
            .into_iter()
            .map(|i| std::mem::take(&mut rows[i]))
            .collect();
        extra_cost += rows.len() as f64 * self.cost_model.output_row_cost;
        let cost = self.cost_model.io_cost(&io) + extra_cost;
        Ok(ExecOutcome {
            rows,
            io,
            cost,
            plan,
            affected: 0,
        })
    }

    /// Fault gate, span, planning and the plan-chosen event: the start of
    /// every SELECT, including the row-locating half of UPDATE and DELETE.
    /// The caller can look at the plan before paying for execution, then
    /// [`OpenSelect::run`] it (nothing is planned twice) or drop it.
    pub fn open_select<'a>(
        &'a self,
        db: &'a Database,
        select: &'a Select,
    ) -> Result<OpenSelect<'a>, ExecError> {
        if let Some(aim_storage::fault::FaultKind::Fail) =
            aim_storage::fault::hit("exec.execute")
        {
            return Err(ExecError::FaultInjected {
                site: "exec.execute".to_string(),
            });
        }
        // Spanned here (not in `execute`) so parallel validation replays,
        // which open SELECTs directly from worker threads, still time
        // their per-query work for profile stitching.
        let span = aim_telemetry::span("exec.select");
        let config = HypoConfig::none();
        let planner = Planner::new(db, select, &config, &self.cost_model)?;
        let plan = planner.plan()?;
        if aim_telemetry::is_enabled() && !plan.steps.is_empty() {
            aim_telemetry::event(
                aim_telemetry::EventKind::PlanChosen,
                plan.access_summary(),
                format!("est cost {:.1}", plan.est_cost),
            );
        }
        Ok(OpenSelect {
            engine: self,
            db,
            select,
            _span: span,
            binder: planner.binder,
            plan,
        })
    }

    // -------------------------------------------------------------- DML

    fn execute_insert(&self, db: &mut Database, ins: &Insert) -> Result<ExecOutcome, ExecError> {
        let mut io = IoStats::new();
        let schema = db.table(&ins.table)?.schema().clone();
        let mut affected = 0u64;
        for value_row in &ins.rows {
            let mut row = vec![Value::Null; schema.columns.len()];
            if ins.columns.is_empty() {
                if value_row.len() != schema.columns.len() {
                    return Err(ExecError::Eval(format!(
                        "INSERT arity mismatch: expected {}, got {}",
                        schema.columns.len(),
                        value_row.len()
                    )));
                }
                for (i, e) in value_row.iter().enumerate() {
                    row[i] = const_eval(e)?;
                }
            } else {
                if value_row.len() != ins.columns.len() {
                    return Err(ExecError::Eval("INSERT arity mismatch".into()));
                }
                for (col, e) in ins.columns.iter().zip(value_row) {
                    let pos = schema.column_index(col).ok_or_else(|| {
                        ExecError::Binding(format!("unknown column {col}"))
                    })?;
                    row[pos] = const_eval(e)?;
                }
            }
            db.table_mut(&ins.table)?.insert(row, &mut io)?;
            affected += 1;
        }
        let cost = self.cost_model.io_cost(&io);
        Ok(ExecOutcome {
            rows: Vec::new(),
            io,
            cost,
            plan: empty_plan(),
            affected,
        })
    }

    fn execute_update(&self, db: &mut Database, upd: &Update) -> Result<ExecOutcome, ExecError> {
        // Bind the right-hand sides (`b + 1`) over the single target table
        // before any row is located or written.
        let assignments = {
            let schema = db.table(&upd.table)?.schema();
            let binder = Binder::for_tables(db, &[aim_sql::ast::TableRef::new(&upd.table)])?;
            let mut assignments = Vec::with_capacity(upd.assignments.len());
            for (col, e) in &upd.assignments {
                let pos = schema
                    .column_index(col)
                    .ok_or_else(|| ExecError::Binding(format!("unknown column {col}")))?;
                assignments.push((pos, BoundExpr::bind(e, &binder)?));
            }
            assignments
        };
        let (pks, mut io, plan) =
            self.locate_rows(db, &upd.table, upd.where_clause.as_ref())?;
        let mut affected = 0u64;
        for pk in pks {
            let new_row = {
                let Some(old) = db.table(&upd.table)?.pk_lookup(&pk, &mut io) else {
                    continue;
                };
                let mut new_row = old.clone();
                for (pos, e) in &assignments {
                    new_row[*pos] = e.eval(&[Some(old)], &[])?.into_owned();
                }
                new_row
            };
            db.table_mut(&upd.table)?.update(&pk, new_row, &mut io)?;
            affected += 1;
        }
        let cost = self.cost_model.io_cost(&io);
        Ok(ExecOutcome {
            rows: Vec::new(),
            io,
            cost,
            plan,
            affected,
        })
    }

    fn execute_delete(&self, db: &mut Database, del: &Delete) -> Result<ExecOutcome, ExecError> {
        let (pks, mut io, plan) =
            self.locate_rows(db, &del.table, del.where_clause.as_ref())?;
        let mut affected = 0u64;
        for pk in pks {
            if db.table_mut(&del.table)?.delete(&pk, &mut io)?.is_some() {
                affected += 1;
            }
        }
        let cost = self.cost_model.io_cost(&io);
        Ok(ExecOutcome {
            rows: Vec::new(),
            io,
            cost,
            plan,
            affected,
        })
    }

    /// Runs the WHERE clause of a DML statement as `SELECT *` over the
    /// target table and returns the primary keys of the matching rows,
    /// read from the borrowed tuples without projecting them.
    fn locate_rows(
        &self,
        db: &Database,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<(Vec<Key>, IoStats, Plan), ExecError> {
        let select = Select::star_where(table, where_clause);
        let OpenSelect {
            _span,
            binder,
            plan,
            ..
        } = self.open_select(db, &select)?;
        let layouts = slot_layouts(db, &binder, &plan)?;
        let conjuncts = conjuncts_by_level(&select, &Scope::new(&binder, &layouts), &plan)?;
        let mut join = Join::new(
            db,
            &binder,
            &plan,
            &layouts,
            &conjuncts,
            Sink::Tuples(Vec::new()),
        )?;
        join.level(0)?;
        let Join { sink, io, .. } = join;
        let Sink::Tuples(tuples) = sink else {
            unreachable!("locate_rows joins into a tuple sink")
        };
        let t = db.table(table)?;
        let pks = tuples
            .iter()
            .flatten()
            .map(|slot| slot_pk(t, &layouts[0], slot))
            .collect();
        Ok((pks, io, plan))
    }
}

/// A SELECT planned for execution and not yet run ([`Engine::open_select`]).
pub struct OpenSelect<'a> {
    engine: &'a Engine,
    db: &'a Database,
    select: &'a Select,
    /// `exec.select`: open from planning until the statement has run or
    /// is dropped.
    _span: aim_telemetry::SpanGuard,
    binder: Binder,
    plan: Plan,
}

impl OpenSelect<'_> {
    /// The plan [`OpenSelect::run`] would execute.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Executes the plan.
    pub fn run(self) -> Result<ExecOutcome, ExecError> {
        self.engine
            .run_select(self.db, self.select, &self.binder, self.plan)
    }
}

/// Evaluates a constant expression (no column references).
fn const_eval(e: &Expr) -> Result<Value, ExecError> {
    match e {
        Expr::Literal(l) => literal_value(l),
        Expr::Neg(inner) => match const_eval(inner)? {
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(ExecError::Eval(format!("cannot negate {other}"))),
        },
        other => Err(ExecError::Eval(format!(
            "expected constant expression, got {other}"
        ))),
    }
}

fn limit_of(select: &Select) -> Result<Option<usize>, ExecError> {
    match &select.limit {
        None => Ok(None),
        Some(Expr::Literal(Literal::Int(v))) if *v >= 0 => Ok(Some(*v as usize)),
        Some(other) => Err(ExecError::Unsupported(format!(
            "non-constant LIMIT {other}"
        ))),
    }
}

/// Where each table instance's columns sit in its tuple slot under `plan`:
/// a covering secondary-index scan binds the index entry itself, every
/// other access path a full clustered row.
fn slot_layouts(
    db: &Database,
    binder: &Binder,
    plan: &Plan,
) -> Result<Vec<SlotLayout>, ExecError> {
    let mut layouts = vec![SlotLayout::Row; binder.len()];
    for step in &plan.steps {
        if let AccessPath::IndexScan(ix) = &step.path {
            let table = db.table(&binder.tables()[step.table_idx].table)?;
            layouts[step.table_idx] = index_scan_layout(table, ix)?;
        }
    }
    Ok(layouts)
}

/// Layout of the values one index scan yields.
fn index_scan_layout(table: &Table, ix: &IndexScan) -> Result<SlotLayout, ExecError> {
    let IndexChoice::Secondary(name) = &ix.index else {
        return Ok(SlotLayout::Row);
    };
    if !ix.covering {
        return Ok(SlotLayout::Row);
    }
    // Every referenced column is in the entry, by the covering check.
    let sec = secondary_index(table, name)?;
    let mut positions = vec![None; table.schema().columns.len()];
    for (i, &p) in sec.key_positions().iter().enumerate() {
        positions[p] = Some(i);
    }
    let off = sec.key_positions().len();
    for (i, &p) in sec.pk_positions().iter().enumerate() {
        positions[p] = Some(off + i);
    }
    Ok(SlotLayout::IndexEntry(positions))
}

fn secondary_index<'t>(
    table: &'t Table,
    name: &str,
) -> Result<&'t aim_storage::SecondaryIndex, ExecError> {
    table.index(name).ok_or_else(|| {
        ExecError::Storage(aim_storage::StorageError::UnknownIndex {
            table: table.schema().name.clone(),
            index: name.to_string(),
        })
    })
}

/// The primary key of the table row a tuple slot stands for.
fn slot_pk(table: &Table, layout: &SlotLayout, slot: &Row) -> Key {
    match layout {
        SlotLayout::Row => table.pk_of(slot),
        SlotLayout::IndexEntry(positions) => table
            .schema()
            .primary_key
            .iter()
            .map(|&c| slot[positions[c].expect("index entries carry the primary key")].clone())
            .collect(),
    }
}

/// A select item with its expression bound.
enum BoundItem {
    Wildcard,
    Expr(BoundExpr),
}

/// Everything a SELECT evaluates after the join, bound once.
struct BoundSelect {
    /// GROUP BY keys, or an aggregate or HAVING without them: the output
    /// is one row per group.
    grouped: bool,
    group_by: Vec<BoundExpr>,
    /// The distinct aggregate calls of the items, HAVING and ORDER BY.
    aggregates: Vec<BoundAggregate>,
    having: Option<BoundExpr>,
    items: Vec<BoundItem>,
    /// `(key, descending)`.
    order_by: Vec<(BoundExpr, bool)>,
    /// For `*`: per table instance, the slot position of each column.
    wildcard: Vec<Vec<Option<usize>>>,
}

impl BoundSelect {
    fn bind(select: &Select, scope: &Scope<'_>, db: &Database) -> Result<Self, ExecError> {
        let has_aggregates = select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
            || select.having.is_some();
        let grouped = !select.group_by.is_empty() || has_aggregates;

        let group_by = select
            .group_by
            .iter()
            .map(|g| BoundExpr::bind_in(g, scope, None))
            .collect::<Result<_, _>>()?;
        // Aggregates are legal only in the output of a grouped query.
        let mut slots = grouped.then(AggregateSlots::default);
        let mut items = Vec::with_capacity(select.items.len());
        let mut wildcard = Vec::new();
        for item in &select.items {
            items.push(match item {
                SelectItem::Wildcard => {
                    if wildcard.is_empty() {
                        for t in 0..scope.binder().len() {
                            let ncols = scope.binder().schema(db, t)?.columns.len();
                            let layout = scope.layout(t);
                            wildcard.push((0..ncols).map(|c| layout.position(c)).collect());
                        }
                    }
                    BoundItem::Wildcard
                }
                SelectItem::Expr { expr, .. } => {
                    BoundItem::Expr(BoundExpr::bind_in(expr, scope, slots.as_mut())?)
                }
            });
        }
        let having = match &select.having {
            Some(h) => Some(BoundExpr::bind_in(h, scope, slots.as_mut())?),
            None => None,
        };
        let mut order_by = Vec::with_capacity(select.order_by.len());
        for o in &select.order_by {
            order_by.push((BoundExpr::bind_in(&o.expr, scope, slots.as_mut())?, o.desc));
        }
        Ok(Self {
            grouped,
            group_by,
            aggregates: slots.map(|s| s.bound).unwrap_or_default(),
            having,
            items,
            order_by,
            wildcard,
        })
    }

    /// Projects one output row: the only place scanned values are cloned.
    fn project(&self, tuple: &[Option<&Row>], aggs: &[Value]) -> Result<Row, ExecError> {
        let mut out = Vec::with_capacity(self.items.len());
        for item in &self.items {
            match item {
                BoundItem::Wildcard => {
                    for (slot, positions) in tuple.iter().zip(&self.wildcard) {
                        out.extend(positions.iter().map(|p| match (slot, p) {
                            (Some(slot), Some(p)) => slot[*p].clone(),
                            // An unbound slot (the empty implicit group)
                            // or a column the index entry lacks.
                            _ => Value::Null,
                        }));
                    }
                }
                BoundItem::Expr(e) => out.push(e.eval(tuple, aggs)?.into_owned()),
            }
        }
        Ok(out)
    }
}

/// Binds each WHERE conjunct and assigns it to the first join level at
/// which all of its referenced tables are bound.
fn conjuncts_by_level(
    select: &Select,
    scope: &Scope<'_>,
    plan: &Plan,
) -> Result<Vec<Vec<BoundExpr>>, ExecError> {
    let mut by_level: Vec<Vec<BoundExpr>> = vec![Vec::new(); plan.steps.len()];
    let Some(w) = &select.where_clause else {
        return Ok(by_level);
    };
    let conjuncts = match w {
        Expr::And(children) => children.as_slice(),
        other => std::slice::from_ref(other),
    };
    // bound_at[t] = join level at which table instance t becomes bound.
    let mut bound_at = vec![usize::MAX; scope.binder().len()];
    for (level, step) in plan.steps.iter().enumerate() {
        bound_at[step.table_idx] = level;
    }
    for c in conjuncts {
        let bound = BoundExpr::bind_in(c, scope, None)?;
        let mut level = 0usize;
        bound.for_each_column(&mut |bc| level = level.max(bound_at[bc.table_idx]));
        if level == usize::MAX {
            return Err(ExecError::Binding(
                "predicate references unplanned table".into(),
            ));
        }
        by_level[level].push(bound);
    }
    Ok(by_level)
}

/// Where the join sends each tuple that passes every conjunct.
enum Sink<'r> {
    /// Kept, `width` slots per tuple in one flat buffer.
    Tuples(Vec<Option<&'r Row>>),
    /// Folded into its group's accumulators.
    Groups(Aggregator<'r>),
}

impl<'r> Sink<'r> {
    fn push(&mut self, tuple: &[Option<&'r Row>]) -> Result<(), ExecError> {
        match self {
            Sink::Tuples(tuples) => {
                tuples.extend_from_slice(tuple);
                Ok(())
            }
            Sink::Groups(groups) => groups.push(tuple),
        }
    }
}

/// Nested-loop join over the plan steps. Rows are borrowed from the
/// database for the whole statement (`'r`); nothing scanned is copied.
struct Join<'r> {
    plan: &'r Plan,
    /// The table of each plan step.
    tables: Vec<&'r Table>,
    layouts: &'r [SlotLayout],
    /// WHERE conjuncts by the join level that binds their last table.
    conjuncts: &'r [Vec<BoundExpr>],
    /// The tuple under construction: one slot per table instance.
    current: Vec<Option<&'r Row>>,
    sink: Sink<'r>,
    /// Tuples sent to the sink so far.
    produced: usize,
    /// Stop producing at this many tuples (index-ordered LIMIT).
    cap: Option<usize>,
    io: IoStats,
}

impl<'r> Join<'r> {
    fn new(
        db: &'r Database,
        binder: &Binder,
        plan: &'r Plan,
        layouts: &'r [SlotLayout],
        conjuncts: &'r [Vec<BoundExpr>],
        sink: Sink<'r>,
    ) -> Result<Self, ExecError> {
        let tables = plan
            .steps
            .iter()
            .map(|step| db.table(&binder.tables()[step.table_idx].table))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            plan,
            tables,
            layouts,
            conjuncts,
            current: vec![None; binder.len()],
            sink,
            produced: 0,
            cap: None,
            io: IoStats::new(),
        })
    }

    /// Binds `row` at `level` and applies every conjunct that became fully
    /// bound there.
    fn accepts(&mut self, level: usize, row: &'r Row) -> Result<bool, ExecError> {
        self.current[self.plan.steps[level].table_idx] = Some(row);
        for c in &self.conjuncts[level] {
            if !c.accepts(&self.current, &[])? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn emit(&mut self) -> Result<(), ExecError> {
        self.sink.push(&self.current)?;
        self.produced += 1;
        Ok(())
    }

    /// Offers a row of a single-table plan to the sink; true when that
    /// filled the `limit`.
    fn offer(&mut self, row: &'r Row, limit: usize) -> Result<bool, ExecError> {
        if !self.accepts(0, row)? {
            return Ok(false);
        }
        self.emit()?;
        Ok(self.produced >= limit)
    }

    /// One level of the recursive nested loop.
    fn level(&mut self, level: usize) -> Result<(), ExecError> {
        let plan = self.plan;
        let step = &plan.steps[level];
        let candidates = self.fetch_rows(self.tables[level], &step.path)?;
        for row in candidates {
            if self.cap.is_some_and(|k| self.produced >= k) {
                return Ok(());
            }
            if self.accepts(level, row)? {
                if level + 1 == plan.steps.len() {
                    self.emit()?;
                } else {
                    self.level(level + 1)?;
                }
            }
            self.current[step.table_idx] = None;
        }
        Ok(())
    }

    /// Early-terminating scan for ORDER BY ... LIMIT served from index
    /// order (§IV-E of the paper): rows are read lazily in index order,
    /// filtered, and the scan stops after `limit` matches — charging I/O
    /// only for entries actually consumed.
    ///
    /// Returns `false`, having read nothing, when the plan shape does not
    /// qualify (multi-table, non-constant probes, OR-union), in which case
    /// the caller falls back to the eager path.
    fn stream_limited(&mut self, limit: usize) -> Result<bool, ExecError> {
        let plan = self.plan;
        if plan.steps.len() != 1 {
            return Ok(false);
        }
        let AccessPath::IndexScan(ix) = &plan.steps[0].path else {
            return Ok(false);
        };
        // Single constant probe prefix only.
        let mut prefix: Vec<Value> = Vec::with_capacity(ix.eq.len());
        for src in &ix.eq {
            match src {
                EqSource::Const(v) => prefix.push(v.clone()),
                _ => return Ok(false),
            }
        }
        let Ok((lo, hi, lo_inc, hi_inc)) = static_range(&ix.range) else {
            return Ok(false);
        };
        let bounds = bounds_from_parts(&lo, &hi, lo_inc, hi_inc);
        let table = self.tables[0];
        let sec = match &ix.index {
            IndexChoice::Primary => None,
            IndexChoice::Secondary(name) => Some(secondary_index(table, name)?),
            IndexChoice::Hypothetical(_) => return Ok(false),
        };

        let mut bytes = 0u64;
        self.io.charge_seek();
        match sec {
            None => {
                for row in table.iter_pk_range(&prefix, bounds) {
                    self.io.charge_rows(1);
                    bytes += row.iter().map(Value::storage_size).sum::<u64>();
                    if self.offer(row, limit)? {
                        break;
                    }
                }
            }
            Some(sec) => {
                let mut pk: Key = Vec::new();
                for e in sec.iter_prefix_range(&prefix, bounds) {
                    self.io.charge_rows(1);
                    bytes += e.iter().map(Value::storage_size).sum::<u64>();
                    let row = if ix.covering {
                        e
                    } else {
                        pk.clear();
                        pk.extend_from_slice(sec.pk_of_entry(e));
                        match table.pk_lookup(&pk, &mut self.io) {
                            Some(r) => r,
                            None => continue,
                        }
                    };
                    if self.offer(row, limit)? {
                        break;
                    }
                }
            }
        }
        if bytes > 0 {
            self.io.charge_sequential(bytes);
        }
        Ok(true)
    }

    /// Fetches the candidate rows of one access path, given the outer
    /// slots of the current tuple. All I/O of the access is charged here,
    /// up front, whether or not the join consumes every candidate.
    fn fetch_rows(
        &mut self,
        table: &'r Table,
        path: &AccessPath,
    ) -> Result<Vec<&'r Row>, ExecError> {
        match path {
            AccessPath::FullScan => Ok(table.scan_all(&mut self.io).collect()),
            AccessPath::IndexScan(ix) => self.fetch_index_scan(table, ix),
            AccessPath::OrUnion(branches) => {
                let mut pks: std::collections::BTreeSet<Key> = std::collections::BTreeSet::new();
                for b in branches {
                    let layout = index_scan_layout(table, b)?;
                    for slot in self.fetch_index_scan(table, b)? {
                        pks.insert(slot_pk(table, &layout, slot));
                    }
                }
                let mut rows = Vec::with_capacity(pks.len());
                for pk in pks {
                    if let Some(r) = table.pk_lookup(&pk, &mut self.io) {
                        rows.push(r);
                    }
                }
                Ok(rows)
            }
        }
    }

    /// One index scan: clustered rows, or the index entries themselves
    /// when the scan is covering.
    fn fetch_index_scan(
        &mut self,
        table: &'r Table,
        ix: &IndexScan,
    ) -> Result<Vec<&'r Row>, ExecError> {
        // Expand equality sources into concrete probe prefixes.
        let mut prefixes: Vec<Vec<Value>> = vec![Vec::with_capacity(ix.eq.len())];
        for src in &ix.eq {
            match src {
                EqSource::Const(v) => {
                    for p in &mut prefixes {
                        p.push(v.clone());
                    }
                }
                EqSource::InList(vs) => {
                    let mut next = Vec::with_capacity(prefixes.len() * vs.len());
                    for p in prefixes {
                        for v in vs {
                            let mut q = p.clone();
                            q.push(v.clone());
                            next.push(q);
                        }
                    }
                    prefixes = next;
                }
                EqSource::Outer(bc) => {
                    let slot = self
                        .current
                        .get(bc.table_idx)
                        .copied()
                        .flatten()
                        .ok_or_else(|| {
                            ExecError::Eval("outer row not bound for index join".into())
                        })?;
                    let v = match self.layouts[bc.table_idx].position(bc.col_idx) {
                        Some(p) => slot[p].clone(),
                        None => Value::Null,
                    };
                    for p in &mut prefixes {
                        p.push(v.clone());
                    }
                }
                EqSource::Unknown => {
                    return Err(ExecError::Eval(
                        "cannot execute plan with unknown parameters".into(),
                    ))
                }
            }
        }

        let (lo, hi, lo_inc, hi_inc) = static_range(&ix.range)?;
        let bounds = bounds_from_parts(&lo, &hi, lo_inc, hi_inc);

        let mut rows = Vec::new();
        match &ix.index {
            IndexChoice::Primary => {
                for prefix in &prefixes {
                    // Full-PK point lookup fast path.
                    if prefix.len() == table.schema().primary_key.len()
                        && lo.is_none()
                        && hi.is_none()
                    {
                        rows.extend(table.pk_lookup(prefix, &mut self.io));
                    } else {
                        rows.extend(table.pk_range(prefix, bounds, &mut self.io));
                    }
                }
            }
            IndexChoice::Secondary(name) => {
                let sec = secondary_index(table, name)?;
                let mut pk: Key = Vec::new();
                for prefix in &prefixes {
                    let entries = sec.scan_prefix_range(prefix, bounds, &mut self.io);
                    if ix.covering {
                        rows.extend(entries);
                    } else {
                        for e in entries {
                            pk.clear();
                            pk.extend_from_slice(sec.pk_of_entry(e));
                            rows.extend(table.pk_lookup(&pk, &mut self.io));
                        }
                    }
                }
            }
            IndexChoice::Hypothetical(_) => {
                return Err(ExecError::Eval(
                    "hypothetical index in an executable plan".into(),
                ))
            }
        }
        Ok(rows)
    }
}

/// `COUNT(*)` feeds this once per tuple.
static ONE: Value = Value::Int(1);

/// Streaming GROUP BY: one accumulator row per group key, fed as the join
/// produces tuples.
struct Aggregator<'r> {
    keys: &'r [BoundExpr],
    aggregates: &'r [BoundAggregate],
    /// Slots per tuple.
    width: usize,
    /// Ascending key order is the output order of the groups.
    groups: BTreeMap<Vec<Cow<'r, Value>>, Group<'r>>,
    /// Scratch for the key of the tuple being pushed.
    key: Vec<Cow<'r, Value>>,
    /// Tuples pushed.
    fed: usize,
}

struct Group<'r> {
    /// The group's first tuple: what non-aggregate expressions of the
    /// output read. All-unbound until a tuple arrives.
    representative: Vec<Option<&'r Row>>,
    tuples: usize,
    accumulators: Vec<Accumulator<'r>>,
}

impl<'r> Group<'r> {
    fn new(width: usize, aggregates: &[BoundAggregate]) -> Self {
        Group {
            representative: vec![None; width],
            tuples: 0,
            accumulators: aggregates.iter().map(|_| Accumulator::default()).collect(),
        }
    }
}

impl<'r> Aggregator<'r> {
    fn new(keys: &'r [BoundExpr], aggregates: &'r [BoundAggregate], width: usize) -> Self {
        let mut this = Self {
            keys,
            aggregates,
            width,
            groups: BTreeMap::new(),
            key: Vec::with_capacity(keys.len()),
            fed: 0,
        };
        if keys.is_empty() {
            // Single implicit group (aggregate query without GROUP BY):
            // produced even over zero input rows, per SQL semantics.
            this.groups.insert(Vec::new(), Group::new(width, aggregates));
        }
        this
    }

    fn push(&mut self, tuple: &[Option<&'r Row>]) -> Result<(), ExecError> {
        self.fed += 1;
        self.key.clear();
        for k in self.keys {
            self.key.push(k.eval(tuple, &[])?);
        }
        let group = match self.groups.get_mut(self.key.as_slice()) {
            Some(group) => group,
            None => {
                let group = Group::new(self.width, self.aggregates);
                self.groups.entry(self.key.clone()).or_insert(group)
            }
        };
        if group.tuples == 0 {
            group.representative.copy_from_slice(tuple);
        }
        group.tuples += 1;
        for (agg, acc) in self.aggregates.iter().zip(&mut group.accumulators) {
            let v = match &agg.arg {
                None => Cow::Borrowed(&ONE),
                Some(arg) => arg.eval(tuple, &[])?,
            };
            if !v.is_null() {
                acc.feed(agg, v)?;
            }
        }
        Ok(())
    }

    /// The groups in ascending key order: their representative tuples in
    /// one flat buffer, their finished aggregate values in another.
    fn finish(self) -> (Vec<Option<&'r Row>>, Vec<Value>) {
        let mut tuples = Vec::with_capacity(self.groups.len() * self.width);
        let mut values = Vec::with_capacity(self.groups.len() * self.aggregates.len());
        for group in self.groups.into_values() {
            tuples.extend(group.representative);
            values.extend(
                self.aggregates
                    .iter()
                    .zip(group.accumulators)
                    .map(|(agg, acc)| acc.finish(agg.func)),
            );
        }
        (tuples, values)
    }
}

/// Running state of one aggregate over one group. Values arrive in tuple
/// order with NULLs already dropped.
#[derive(Default)]
struct Accumulator<'r> {
    /// Values folded in (distinct ones under `DISTINCT`).
    count: u64,
    sum: Sum,
    /// Current MIN or MAX.
    extreme: Option<Cow<'r, Value>>,
    /// Values seen so far; filled only under `DISTINCT`.
    seen: std::collections::BTreeSet<Cow<'r, Value>>,
}

/// Integers sum exactly in `i64`; the first non-integer switches the sum
/// to `f64`, where every later value is added in arrival order.
enum Sum {
    Int(i64),
    Float(f64),
}

impl Default for Sum {
    fn default() -> Self {
        Sum::Int(0)
    }
}

impl<'r> Accumulator<'r> {
    fn feed(&mut self, agg: &BoundAggregate, v: Cow<'r, Value>) -> Result<(), ExecError> {
        if agg.distinct && !self.seen.insert(v.clone()) {
            return Ok(());
        }
        self.count += 1;
        match agg.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum = match (&self.sum, &*v) {
                    (Sum::Int(a), Value::Int(b)) => Sum::Int(
                        a.checked_add(*b)
                            .ok_or_else(|| ExecError::Eval("integer overflow".into()))?,
                    ),
                    (Sum::Int(a), other) => Sum::Float(*a as f64 + other.as_f64().unwrap_or(0.0)),
                    (Sum::Float(a), other) => Sum::Float(a + other.as_f64().unwrap_or(0.0)),
                };
            }
            // Among equal values MIN keeps the first and MAX the last.
            AggFunc::Min => {
                if self.extreme.as_ref().is_none_or(|m| *v < **m) {
                    self.extreme = Some(v);
                }
            }
            AggFunc::Max => {
                if self.extreme.as_ref().is_none_or(|m| *v >= **m) {
                    self.extreme = Some(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            _ if self.count == 0 => Value::Null,
            AggFunc::Sum => match self.sum {
                Sum::Int(v) => Value::Int(v),
                Sum::Float(v) => Value::Float(v),
            },
            AggFunc::Avg => {
                let total = match self.sum {
                    Sum::Int(v) => v as f64,
                    Sum::Float(v) => v,
                };
                Value::Float(total / self.count as f64)
            }
            AggFunc::Min | AggFunc::Max => self.extreme.map_or(Value::Null, Cow::into_owned),
        }
    }
}

/// `(lo, hi, lo_inclusive, hi_inclusive)` with `None` meaning unbounded.
type RangeParts = (Option<Value>, Option<Value>, bool, bool);

/// Resolves a plan's range constraint to concrete values, rejecting
/// unknown-parameter bounds (estimate-only plans cannot execute).
fn static_range(r: &Option<RangeInfo>) -> Result<RangeParts, ExecError> {
    let Some(r) = r else {
        return Ok((None, None, true, true));
    };
    let conv = |b: &Bound<SargValue>| -> Result<(Option<Value>, bool), ExecError> {
        match b {
            Bound::Unbounded => Ok((None, true)),
            Bound::Included(SargValue::Const(v)) => Ok((Some(v.clone()), true)),
            Bound::Excluded(SargValue::Const(v)) => Ok((Some(v.clone()), false)),
            _ => Err(ExecError::Eval(
                "cannot execute range with unknown parameter".into(),
            )),
        }
    };
    let (lo, lo_inc) = conv(&r.lo)?;
    let (hi, hi_inc) = conv(&r.hi)?;
    Ok((lo, hi, lo_inc, hi_inc))
}

/// Converts resolved range parts into `Bound` references for scan calls.
fn bounds_from_parts<'v>(
    lo: &'v Option<Value>,
    hi: &'v Option<Value>,
    lo_inc: bool,
    hi_inc: bool,
) -> (Bound<&'v Value>, Bound<&'v Value>) {
    let l = match lo {
        None => Bound::Unbounded,
        Some(v) => {
            if lo_inc {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            }
        }
    };
    let h = match hi {
        None => Bound::Unbounded,
        Some(v) => {
            if hi_inc {
                Bound::Included(v)
            } else {
                Bound::Excluded(v)
            }
        }
    };
    (l, h)
}

fn empty_plan() -> Plan {
    Plan {
        steps: Vec::new(),
        join_rows: 0.0,
        result_rows: 0.0,
        est_cost: 0.0,
        order_via_index: false,
        group_via_index: false,
    }
}

fn trivial_outcome() -> ExecOutcome {
    ExecOutcome {
        rows: Vec::new(),
        io: IoStats::new(),
        cost: 0.0,
        plan: empty_plan(),
        affected: 0,
    }
}
