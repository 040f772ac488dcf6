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

use crate::bind::{Binder, BoundColumn, Scope, SlotLayout};
use crate::cost::{io_cost, sort_cost, CostModel, OUTPUT_ROW_COST};
use crate::error::ExecError;
use crate::eval::{literal_value, AggregateSlots, BoundAggregate, BoundExpr};
use crate::hypothetical::HypoConfig;
use crate::planner::{AccessPath, EqSource, IndexChoice, IndexScan, Plan, Planner};
use crate::predicate::SargValue;
use aim_sql::ast::{
    AggFunc, BinOp, Delete, Expr, Insert, Literal, Select, SelectItem, Statement, Update,
};
use aim_storage::{Database, IndexEntry, IoStats, Key, RangeKeys, Row, Table, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Range};

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
    /// What `cost` is a function of.
    pub stamp: CostStamp,
}

/// What a cost is a function of (DESIGN.md §18): the newest content
/// version among the tables the statement binds. The prices are constants
/// ([`crate::cost`]), so a statement executed or estimated twice under
/// equal stamps runs the same plan and costs the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostStamp {
    /// The largest [`Table::version`] among the statement's tables as it
    /// started; 0 when it binds none.
    pub version: u64,
}

// A stamp holds no prices because the model has none to hold: a price
// made configurable must enter the stamp, and this fails first.
const _: () = assert!(std::mem::size_of::<CostModel>() == 0);

impl CostStamp {
    /// The stamp of a statement binding `tables` on `db` — the one place a
    /// stamp is made: the executor's outcomes, validation's reuse test and
    /// the what-if key all call it. A name `db` does not hold adds
    /// nothing: creating it later draws a version newer than every one
    /// already drawn.
    pub fn of<'t>(db: &Database, tables: impl IntoIterator<Item = &'t str>) -> Self {
        let version = tables
            .into_iter()
            .filter_map(|name| db.table(name).ok().map(Table::version))
            .max()
            .unwrap_or(0);
        Self { version }
    }
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

/// The execution engine: statement dispatch under the constant prices of
/// [`crate::cost`].
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// Zero-sized, kept only because `bench/` reads it; the next
    /// `benchmark` change deletes it.
    pub cost_model: CostModel,
}

impl Engine {
    /// Creates an engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes any statement as live traffic: [`Engine::execute_direct`],
    /// then the counters `/metrics` and `/fleet` serve.
    pub fn execute(&self, db: &mut Database, stmt: &Statement) -> Result<ExecOutcome, ExecError> {
        let outcome = self.execute_direct(db, stmt)?;
        aim_telemetry::metrics::STATEMENTS_EXECUTED.incr();
        aim_telemetry::metrics::ROWS_READ.add(outcome.io.rows_read);
        aim_telemetry::metrics::PAGES_READ.add(outcome.io.pages_read);
        aim_telemetry::metrics::INDEX_SEEKS.add(outcome.io.seeks);
        // Select latency proxy for `/metrics` and `/fleet`'s p50/p99.
        if matches!(stmt, Statement::Select(_)) {
            aim_telemetry::metrics::histogram_record("exec.select_cost", outcome.cost);
        }
        Ok(outcome)
    }

    /// Executes any statement without feeding the live-traffic signal
    /// (`exec.statements`, `exec.rows_read`, `exec.select_cost`, ...):
    /// validation's replays of writes come here, its SELECTs through
    /// [`Engine::open_select`].
    pub fn execute_direct(
        &self,
        db: &mut Database,
        stmt: &Statement,
    ) -> Result<ExecOutcome, ExecError> {
        let _span = aim_telemetry::span("exec.execute");
        // Every statement consults the fault gate once: a SELECT, UPDATE or
        // DELETE where it opens its SELECT (`open_select`), any other here.
        if !matches!(
            stmt,
            Statement::Select(_) | Statement::Update(_) | Statement::Delete(_)
        ) {
            if let Some(aim_storage::fault::FaultKind::Fail) =
                aim_storage::fault::hit("exec.execute")
            {
                return Err(ExecError::FaultInjected {
                    site: "exec.execute".to_string(),
                });
            }
        }
        match stmt {
            Statement::Select(s) => self.execute_select(db, s),
            Statement::Insert(i) => self.execute_insert(db, i),
            Statement::Update(u) => self.execute_update(db, u),
            Statement::Delete(d) => self.execute_delete(db, d),
            Statement::CreateTable(c) => {
                let stamp = CostStamp::of(db, [c.name.as_str()]);
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
                Ok(self.written(IoStats::new(), empty_plan(), 0, stamp))
            }
            Statement::CreateIndex(c) => {
                let stamp = CostStamp::of(db, [c.table.as_str()]);
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
                Ok(self.written(io, empty_plan(), 0, stamp))
            }
            Statement::DropIndex { name, table } => {
                let stamp = CostStamp::of(db, [table.as_str()]);
                db.drop_index(table, name)?;
                Ok(self.written(IoStats::new(), empty_plan(), 0, stamp))
            }
        }
    }

    /// Executes a SELECT.
    pub fn execute_select(&self, db: &Database, select: &Select) -> Result<ExecOutcome, ExecError> {
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
        let stamp = CostStamp::of(db, binder.tables().iter().map(|t| t.table.as_str()));
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
                cost: OUTPUT_ROW_COST,
                plan,
                affected: 0,
                stamp,
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
            join.tuple.cap = if streaming_limit { limit } else { None };
            join.level(0)?;
        }
        let (sink, io) = (join.tuple.sink, join.io);

        // One source per candidate output row: a joined tuple, or a
        // group's representative tuple plus its finished aggregates.
        let mut extra_cost = 0.0f64;
        let (tuples, agg_values) = match sink {
            Sink::Tuples(tuples) => (tuples, Vec::new()),
            Sink::Groups(groups) => {
                if !plan.group_via_index && groups.fed > 0 {
                    extra_cost += sort_cost(groups.fed as f64);
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
            extra_cost += sort_cost(order.len() as f64);
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
        extra_cost += rows.len() as f64 * OUTPUT_ROW_COST;
        let cost = io_cost(&io) + extra_cost;
        Ok(ExecOutcome {
            rows,
            io,
            cost,
            plan,
            affected: 0,
            stamp,
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
        if let Some(aim_storage::fault::FaultKind::Fail) = aim_storage::fault::hit("exec.execute") {
            return Err(ExecError::FaultInjected {
                site: "exec.execute".to_string(),
            });
        }
        // Spanned here (not in `execute`) so validation replays, which
        // open SELECTs directly, still time their per-query work.
        let span = aim_telemetry::span("exec.select");
        let config = HypoConfig::none();
        let planner = Planner::new(db, select, &config)?;
        let plan = planner.plan()?;
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
        let stamp = CostStamp::of(db, [ins.table.as_str()]);
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
                    let pos = schema
                        .column_index(col)
                        .ok_or_else(|| ExecError::Binding(format!("unknown column {col}")))?;
                    row[pos] = const_eval(e)?;
                }
            }
            db.table_mut(&ins.table)?.insert(row, &mut io)?;
            affected += 1;
        }
        Ok(self.written(io, empty_plan(), affected, stamp))
    }

    fn execute_update(&self, db: &mut Database, upd: &Update) -> Result<ExecOutcome, ExecError> {
        let stamp = CostStamp::of(db, [upd.table.as_str()]);
        // Bind the right-hand sides (`b + 1`) over the single target table
        // before any row is located or written. A primary-key column is
        // refused here: a new key could collide part-way through the rows.
        let assignments = {
            let schema = db.table(&upd.table)?.schema();
            let binder = Binder::for_tables(db, &[aim_sql::ast::TableRef::new(&upd.table)])?;
            let mut assignments = Vec::with_capacity(upd.assignments.len());
            for (col, e) in &upd.assignments {
                let pos = schema
                    .column_index(col)
                    .ok_or_else(|| ExecError::Binding(format!("unknown column {col}")))?;
                if schema.primary_key.contains(&pos) {
                    return Err(ExecError::Binding(format!(
                        "UPDATE of primary-key column {col}"
                    )));
                }
                assignments.push((pos, BoundExpr::bind(e, &binder)?));
            }
            assignments
        };
        let (pks, mut io, plan) = self.locate_rows(db, &upd.table, upd.where_clause.as_ref())?;
        // Every new row is evaluated before any is written, so a statement
        // that fails on one row writes none: what it leaves does not depend
        // on the order the plan located the rows in (DESIGN.md §18).
        let table = db.table(&upd.table)?;
        let mut new_rows = Vec::with_capacity(pks.len());
        for pk in pks {
            let Some(old) = table.pk_lookup(&pk, &mut io) else {
                continue;
            };
            let mut new_row = old.clone();
            for (pos, e) in &assignments {
                new_row[*pos] = e.eval(&[Some(old)], &[])?.into_owned();
            }
            new_rows.push((pk, new_row));
        }
        let affected = new_rows.len() as u64;
        for (pk, new_row) in new_rows {
            db.table_mut(&upd.table)?.update(&pk, new_row, &mut io)?;
        }
        Ok(self.written(io, plan, affected, stamp))
    }

    fn execute_delete(&self, db: &mut Database, del: &Delete) -> Result<ExecOutcome, ExecError> {
        let stamp = CostStamp::of(db, [del.table.as_str()]);
        let (pks, mut io, plan) = self.locate_rows(db, &del.table, del.where_clause.as_ref())?;
        let mut affected = 0u64;
        for pk in pks {
            if db.table_mut(&del.table)?.delete(&pk, &mut io)?.is_some() {
                affected += 1;
            }
        }
        Ok(self.written(io, plan, affected, stamp))
    }

    /// The outcome of a statement that returns no rows: DML and DDL cost
    /// the I/O they did.
    fn written(&self, io: IoStats, plan: Plan, affected: u64, stamp: CostStamp) -> ExecOutcome {
        ExecOutcome {
            rows: Vec::new(),
            cost: io_cost(&io),
            io,
            plan,
            affected,
            stamp,
        }
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
        let (sink, io) = (join.tuple.sink, join.io);
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

    /// The plan, not run.
    pub fn into_plan(self) -> Plan {
        self.plan
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
fn slot_layouts(db: &Database, binder: &Binder, plan: &Plan) -> Result<Vec<SlotLayout>, ExecError> {
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
    let columns = table.schema().columns.len();
    Ok(SlotLayout::IndexEntry(
        (0..columns).map(|c| entry_position(sec, c)).collect(),
    ))
}

/// Where table column `col` sits in an entry of `sec` (its key columns,
/// then the primary-key columns, whose copy of a column wins); `None` for
/// a column the entry lacks.
fn entry_position(sec: &aim_storage::SecondaryIndex, col: usize) -> Option<usize> {
    let keys = sec.key_positions();
    let pk = sec.pk_positions().iter().position(|&p| p == col);
    pk.map(|i| keys.len() + i)
        .or_else(|| keys.iter().position(|&p| p == col))
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
/// database for the whole statement (`'r`); nothing scanned is copied, and
/// what a probe builds lives in buffers the join keeps from probe to probe.
struct Join<'r> {
    /// The table of each plan step.
    tables: Vec<&'r Table>,
    layouts: &'r [SlotLayout],
    /// The access path of each plan step, resolved once.
    access: Vec<Access<'r>>,
    /// What each level keeps from one visit to the next.
    levels: Vec<Level<'r>>,
    buffers: ProbeBuffers<'r>,
    tuple: Tuple<'r>,
    io: IoStats,
}

/// One join level's rows across its visits. An index level refills them
/// on every visit. A full-scan level reads its table on the first visit
/// and keeps the rows: every later visit charges the scan the plan priced
/// and reads nothing. From its second visit on, a level with a key
/// conjunct visits only the kept rows whose key hashes as the outer
/// value does; a row any other bucket holds, or whose key is NULL, the
/// key conjunct rejects, and what comes before it cannot fail.
#[derive(Default)]
struct Level<'r> {
    /// The candidate rows, in access order.
    rows: Vec<&'r Row>,
    /// Visits so far (full-scan levels).
    visits: u32,
    key: Option<KeyConjunct>,
    /// `(hash of the key, position in rows)` of every kept row whose key
    /// is not NULL, sorted: a bucket is a run of one hash, in row order.
    /// Built on the second visit.
    buckets: Vec<(u64, u32)>,
}

/// A full-scan level's first `inner = outer` conjunct (`=`, not `<=>`)
/// between a column of its own table and one of a table bound at an
/// earlier level, when every conjunct before it cannot fail
/// ([`BoundExpr::cannot_fail`]): a row it rejects, the level's conjuncts
/// reject without error.
#[derive(Debug, Clone, Copy)]
struct KeyConjunct {
    /// Its position among the level's conjuncts.
    index: usize,
    /// The key column's position in this level's rows.
    inner: usize,
    /// The outer column it must equal.
    outer: BoundColumn,
}

impl KeyConjunct {
    /// The key conjunct among `conjuncts`, those of the level binding
    /// table instance `table_idx`. Every other table they read is bound
    /// at an earlier level: a conjunct sits at the level binding its last
    /// table.
    fn find(conjuncts: &[BoundExpr], table_idx: usize) -> Option<Self> {
        for (index, c) in conjuncts.iter().enumerate() {
            if let BoundExpr::Binary {
                left,
                op: BinOp::Eq,
                right,
            } = c
            {
                if let (BoundExpr::Column(l), BoundExpr::Column(r)) = (&**left, &**right) {
                    let (inner, outer) = if l.table_idx == table_idx {
                        (l, r)
                    } else {
                        (r, l)
                    };
                    if inner.table_idx == table_idx && outer.table_idx != table_idx {
                        return Some(Self {
                            index,
                            inner: inner.col_idx,
                            outer: *outer,
                        });
                    }
                }
            }
            if !c.cannot_fail() {
                return None;
            }
        }
        None
    }
}

/// The hash a key is bucketed under: equal values hash equal
/// ([`Value`]'s `Hash`), `Int(5)` and `Float(5.0)` included.
fn key_hash(v: &Value) -> u64 {
    let mut h = KeyHasher(0);
    v.hash(&mut h);
    h.0
}

/// The Fx hash (a rotate, a xor and a multiply per word): a fraction of
/// SipHash's cost on the one-word keys a join level buckets. Keys come
/// from the statement's own tables, and a collision costs time, never a
/// row.
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl<'r> Level<'r> {
    /// The positions of the kept rows this visit offers, `None` for all of
    /// them: on the first visit, and on every visit of a level without a
    /// key conjunct. The buckets are built when the second visit asks.
    #[inline]
    fn bucket(&mut self, rows: &[&Row], current: &[Option<&Row>]) -> Option<Range<usize>> {
        let key = self.key.filter(|_| self.visits >= 2)?;
        self.keyed_bucket(key, rows, current)
    }

    /// [`Level::bucket`] of a keyed visit. Out of line, so that the visits
    /// of every other level, most of them, stay small.
    #[inline(never)]
    fn keyed_bucket(
        &mut self,
        key: KeyConjunct,
        rows: &[&Row],
        current: &[Option<&Row>],
    ) -> Option<Range<usize>> {
        if self.visits == 2 {
            let keyed = rows.iter().enumerate().filter_map(|(p, row)| {
                let v = &row[key.inner];
                (!v.is_null()).then(|| (key_hash(v), p as u32))
            });
            self.buckets.reserve_exact(rows.len());
            self.buckets.extend(keyed);
            // Pushed in row order, so a stable sort by hash is the order
            // of (hash, position).
            self.buckets.sort_by_key(|&(h, _)| h);
        }
        let v = &current[key.outer.table_idx]?[key.outer.col_idx];
        if v.is_null() {
            return Some(0..0);
        }
        let h = key_hash(v);
        let start = self.buckets.partition_point(|&(x, _)| x < h);
        let len = self.buckets[start..].partition_point(|&(x, _)| x == h);
        Some(start..start + len)
    }
}

/// The tuple under construction, the conjuncts it must pass and where it
/// goes when it does.
struct Tuple<'r> {
    plan: &'r Plan,
    /// WHERE conjuncts by the join level that binds their last table.
    conjuncts: &'r [Vec<BoundExpr>],
    /// One slot per table instance.
    current: Vec<Option<&'r Row>>,
    sink: Sink<'r>,
    /// Tuples sent to the sink so far.
    produced: usize,
    /// Stop producing at this many tuples (index-ordered LIMIT).
    cap: Option<usize>,
}

impl<'r> Tuple<'r> {
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

    fn capped(&self) -> bool {
        self.cap.is_some_and(|k| self.produced >= k)
    }
}

/// A plan step's access path with everything that is the same on every
/// probe resolved: the index, the IN-lists' distinct values, the range.
enum Access<'r> {
    FullScan,
    Index(Probe<'r>),
    /// The branches of an index-merge union, each with the layout of what
    /// it yields.
    OrUnion(Vec<(Probe<'r>, SlotLayout)>),
}

/// One index scan of a plan, resolved for execution.
struct Probe<'r> {
    scan: &'r IndexScan,
    /// `None` for the clustered primary key.
    index: Option<&'r aim_storage::SecondaryIndex>,
    /// The source of each column of the equality prefix.
    sources: Vec<Source<'r>>,
    /// The range on the column after the prefix.
    range: (Bound<&'r Value>, Bound<&'r Value>),
    /// What a non-covering secondary probe tests each entry with before
    /// it fetches the entry's row; `None` when nothing is tested.
    entry: Option<EntryTest<'r>>,
}

/// A non-covering probe's test of an index entry: the leading conjuncts
/// of its level whose columns of the probed table all lie in the entry,
/// bound against the entry, less those that cannot fail and read no
/// column but the ones the probe seeks on (the entries it reads pass
/// them, or are rejected once fetched, as before). An entry the test
/// rejects without error names a row the level rejects without error, so
/// the row is not fetched; its lookup is still charged.
struct EntryTest<'r> {
    /// The probed table instance.
    slot: usize,
    prefix: Vec<BoundExpr>,
    /// The leading conjuncts bound against the row, which the debug audit
    /// holds each skipped row to.
    conjuncts: &'r [BoundExpr],
}

impl<'r> EntryTest<'r> {
    /// Binds the test of `probe`, which binds table instance `slot` at a
    /// level with `conjuncts`: `None` unless the probe is a non-covering
    /// secondary one with a conjunct to test.
    fn bind(probe: &Probe<'r>, slot: usize, conjuncts: &'r [BoundExpr]) -> Option<Self> {
        let sec = probe.index.filter(|_| !probe.scan.covering)?;
        let reads_only = |c: &BoundExpr, columns: &dyn Fn(usize) -> bool| {
            let mut all = true;
            c.for_each_column(&mut |bc| all &= bc.table_idx != slot || columns(bc.col_idx));
            all
        };
        let in_entry = |col| entry_position(sec, col).is_some();
        // The equality prefix's columns, and the range's after them.
        let ranged = !matches!(probe.range, (Bound::Unbounded, Bound::Unbounded));
        let sought = sec
            .key_positions()
            .iter()
            .take(probe.sources.len() + usize::from(ranged));
        let seek = |col| sought.clone().any(|&p| p == col);
        let leading = conjuncts
            .iter()
            .take_while(|c| reads_only(c, &in_entry))
            .count();
        let prefix: Vec<BoundExpr> = conjuncts[..leading]
            .iter()
            .filter(|c| !(c.cannot_fail() && reads_only(c, &seek)))
            .map(|c| {
                let mut c = c.clone();
                c.for_each_column_mut(&mut |bc| {
                    if bc.table_idx == slot {
                        bc.col_idx = entry_position(sec, bc.col_idx).expect("in the entry");
                    }
                });
                c
            })
            .collect();
        (!prefix.is_empty()).then_some(Self {
            slot,
            prefix,
            conjuncts: &conjuncts[..leading],
        })
    }

    /// True when the prefix rejects `entry` without error, the
    /// outer slots bound in `current` (its own slot is unbound and stays so).
    fn rejects(&self, entry: &'r Row, current: &mut [Option<&'r Row>]) -> bool {
        current[self.slot] = Some(entry);
        let rejected = first_rejection(&self.prefix, current);
        current[self.slot] = None;
        matches!(rejected, Some(Ok(())))
    }

    /// Debug builds: the row of a skipped entry exists, and the level's
    /// conjuncts up to the prefix's end reject it without error. The row
    /// is the one the read hands out with the entry, whose lookup it has
    /// charged: reading it charges nothing more and touches no buffer pool.
    fn audit_skip(&self, entry: IndexEntry<'r>, current: &mut [Option<&'r Row>]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let key = entry.key();
        let row = entry.row();
        let row = row.unwrap_or_else(|| panic!("an index entry names no row: {key:?}"));
        current[self.slot] = Some(row);
        let verdict = first_rejection(self.conjuncts, current);
        current[self.slot] = None;
        assert!(
            matches!(verdict, Some(Ok(()))),
            "skipped the row of {key:?}, which its level's conjuncts give {verdict:?}"
        );
    }
}

/// Evaluates `conjuncts` in order over `current` as the join does, up to
/// the first that does not accept: `Some(Ok(()))` when that one rejects,
/// `Some(Err)` when it fails, `None` when every one accepts.
fn first_rejection(
    conjuncts: &[BoundExpr],
    current: &[Option<&Row>],
) -> Option<Result<(), ExecError>> {
    conjuncts
        .iter()
        .find_map(|c| match c.accepts(current, &[]) {
            Ok(true) => None,
            Ok(false) => Some(Ok(())),
            Err(e) => Some(Err(e)),
        })
}

/// Where a column of a probe prefix takes its value from.
enum Source<'r> {
    /// A constant, or the distinct values of an IN-list: one probe each.
    Values(Vec<&'r Value>),
    /// A column of an outer slot (an index join).
    Outer(BoundColumn),
}

/// What probes build, kept from one probe to the next.
#[derive(Default)]
struct ProbeBuffers<'r> {
    /// The probe prefixes, one after another.
    prefixes: Vec<Value>,
    /// The keys of the range each prefix scans.
    keys: RangeKeys,
    /// The candidates of one branch of an index-merge union.
    branch: Vec<&'r Row>,
}

impl<'r> Access<'r> {
    fn resolve(table: &'r Table, path: &'r AccessPath) -> Result<Self, ExecError> {
        Ok(match path {
            AccessPath::FullScan => Access::FullScan,
            AccessPath::IndexScan(ix) => Access::Index(Probe::resolve(table, ix)?),
            AccessPath::OrUnion(branches) => Access::OrUnion(
                branches
                    .iter()
                    .map(|b| Ok((Probe::resolve(table, b)?, index_scan_layout(table, b)?)))
                    .collect::<Result<_, ExecError>>()?,
            ),
        })
    }
}

impl<'r> Probe<'r> {
    /// Resolves `scan`, rejecting what only an estimate can price: unknown
    /// parameters and hypothetical indexes.
    fn resolve(table: &'r Table, scan: &'r IndexScan) -> Result<Self, ExecError> {
        let sources = scan
            .eq
            .iter()
            .map(|src| match src {
                EqSource::Const(v) => Ok(Source::Values(vec![v])),
                // A value listed twice is probed once: its rows match the
                // predicate once.
                EqSource::InList(vs) => {
                    let mut distinct: Vec<&Value> = Vec::with_capacity(vs.len());
                    for v in vs {
                        if !distinct.contains(&v) {
                            distinct.push(v);
                        }
                    }
                    Ok(Source::Values(distinct))
                }
                EqSource::Outer(bc) => Ok(Source::Outer(*bc)),
                EqSource::Unknown => Err(ExecError::Eval(
                    "cannot execute plan with unknown parameters".into(),
                )),
            })
            .collect::<Result<_, _>>()?;
        let range = match &scan.range {
            None => (Bound::Unbounded, Bound::Unbounded),
            Some(r) => (static_bound(&r.lo)?, static_bound(&r.hi)?),
        };
        let index = match &scan.index {
            IndexChoice::Primary => None,
            IndexChoice::Secondary(name) => {
                let sec = secondary_index(table, name)?;
                assert!(
                    scan.eq.len() < sec.width()
                        || matches!(range, (Bound::Unbounded, Bound::Unbounded)),
                    "range column must exist beyond the equality prefix"
                );
                Some(sec)
            }
            IndexChoice::Hypothetical(_) => {
                return Err(ExecError::Eval(
                    "hypothetical index in an executable plan".into(),
                ))
            }
        };
        Ok(Self {
            scan,
            index,
            sources,
            range,
            entry: None,
        })
    }

    /// Writes the probe prefixes under the outer slots of `current` into
    /// `out`, one after another, and returns how many: the product of the
    /// IN-lists, the first list's value varying slowest.
    fn prefixes(
        &self,
        current: &[Option<&Row>],
        layouts: &[SlotLayout],
        out: &mut Vec<Value>,
    ) -> Result<usize, ExecError> {
        out.clear();
        let count = self
            .sources
            .iter()
            .map(|s| match s {
                Source::Values(vs) => vs.len(),
                Source::Outer(_) => 1,
            })
            .product();
        for n in 0..count {
            // The number of prefixes each value of the current list spans.
            let mut stride = count;
            for source in &self.sources {
                out.push(match source {
                    Source::Values(vs) => {
                        stride /= vs.len();
                        vs[n / stride % vs.len()].clone()
                    }
                    Source::Outer(bc) => {
                        let slot = current.get(bc.table_idx).copied().flatten();
                        let slot = slot.ok_or_else(|| {
                            ExecError::Eval("outer row not bound for index join".into())
                        })?;
                        match layouts[bc.table_idx].position(bc.col_idx) {
                            Some(p) => slot[p].clone(),
                            None => Value::Null,
                        }
                    }
                });
            }
        }
        Ok(count)
    }

    /// Reads the candidates of this scan under the outer slots of the
    /// tuple and hands each to `take`: clustered rows, or the index entries
    /// themselves when the scan is covering. `take` returns `true` to stop
    /// the read there. The table's reads charge all I/O of the access, each
    /// what it handed out: a read `take` stops, or fails on, is charged up
    /// to that row.
    fn fetch(
        &self,
        table: &'r Table,
        layouts: &[SlotLayout],
        buffers: &mut ProbeBuffers<'r>,
        tuple: &mut Tuple<'r>,
        io: &mut IoStats,
        mut take: impl FnMut(&mut Tuple<'r>, &'r Row) -> Result<bool, ExecError>,
    ) -> Result<(), ExecError> {
        let ProbeBuffers { prefixes, keys, .. } = buffers;
        let count = self.prefixes(&tuple.current, layouts, prefixes)?;
        let width = self.sources.len();
        let unbounded = matches!(self.range, (Bound::Unbounded, Bound::Unbounded));
        // Full-PK point lookup fast path: no range keys to build.
        let point = self.index.is_none() && width == table.schema().primary_key.len() && unbounded;
        // What stops the reads: `take`, or an error it returned.
        let (mut stopped, mut failed) = (false, None);
        for n in 0..count {
            if stopped {
                break;
            }
            let prefix = &prefixes[n * width..(n + 1) * width];
            let mut send = |tuple: &mut Tuple<'r>, row: &'r Row| {
                match take(tuple, row) {
                    Ok(stop) => stopped = stop,
                    Err(e) => (stopped, failed) = (true, Some(e)),
                }
                stopped
            };
            if point {
                if let Some(row) = table.pk_lookup(prefix, io) {
                    send(tuple, row);
                }
                continue;
            }
            let range = keys.prefix_range(prefix, self.range);
            match self.index {
                None => table.pk_range(range, io, |row| send(tuple, row)),
                Some(sec) => {
                    let lookups = !self.scan.covering;
                    table.index_range(sec, range, lookups, io, |entry| {
                        if !lookups {
                            return send(tuple, entry.key());
                        }
                        let rejects =
                            |t: &&EntryTest<'r>| t.rejects(entry.key(), &mut tuple.current);
                        if let Some(test) = self.entry.as_ref().filter(rejects) {
                            test.audit_skip(entry, &mut tuple.current);
                            return false;
                        }
                        entry.row().is_some_and(|row| send(tuple, row))
                    })
                }
            }
        }
        failed.map_or(Ok(()), Err)
    }
}

/// What a join level takes from its probe: every row, into `out`.
fn candidates<'o, 'r>(
    out: &'o mut Vec<&'r Row>,
) -> impl FnMut(&mut Tuple<'r>, &'r Row) -> Result<bool, ExecError> + 'o {
    |_, row| {
        out.push(row);
        Ok(false)
    }
}

/// A range bound of a plan, as execution reads it.
fn static_bound(b: &Bound<SargValue>) -> Result<Bound<&Value>, ExecError> {
    match b {
        Bound::Unbounded => Ok(Bound::Unbounded),
        Bound::Included(SargValue::Const(v)) => Ok(Bound::Included(v)),
        Bound::Excluded(SargValue::Const(v)) => Ok(Bound::Excluded(v)),
        _ => Err(ExecError::Eval(
            "cannot execute range with unknown parameter".into(),
        )),
    }
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
        let tables: Vec<&'r Table> = plan
            .steps
            .iter()
            .map(|step| db.table(&binder.tables()[step.table_idx].table))
            .collect::<Result<_, _>>()?;
        let mut access: Vec<Access<'r>> = plan
            .steps
            .iter()
            .zip(&tables)
            .map(|(step, table)| Access::resolve(table, &step.path))
            .collect::<Result<_, _>>()?;
        let mut levels: Vec<Level<'r>> = Vec::with_capacity(tables.len());
        for (level, (step, access)) in plan.steps.iter().zip(&mut access).enumerate() {
            let (slot, conjuncts) = (step.table_idx, conjuncts[level].as_slice());
            let mut state = Level::default();
            match access {
                Access::FullScan => state.key = KeyConjunct::find(conjuncts, slot),
                Access::Index(probe) => probe.entry = EntryTest::bind(probe, slot, conjuncts),
                Access::OrUnion(_) => {}
            }
            levels.push(state);
        }
        Ok(Self {
            levels,
            tables,
            layouts,
            access,
            buffers: ProbeBuffers::default(),
            tuple: Tuple {
                plan,
                conjuncts,
                current: vec![None; binder.len()],
                sink,
                produced: 0,
                cap: None,
            },
            io: IoStats::new(),
        })
    }

    /// One level of the recursive nested loop.
    fn level(&mut self, level: usize) -> Result<(), ExecError> {
        let mut rows = std::mem::take(&mut self.levels[level].rows);
        self.fetch_rows(level, &mut rows)?;
        let slot = self.tuple.plan.steps[level].table_idx;
        let last = level + 1 == self.tables.len();
        let bucket = self.levels[level].bucket(&rows, &self.tuple.current);
        let buckets = std::mem::take(&mut self.levels[level].buckets);
        let members = bucket.map(|b| &buckets[b]);
        if let Some(members) = members {
            self.audit_skipped(level, &rows, members);
        }
        // One loop, keyed or not, so that the join's innermost body is
        // compiled once and the unkeyed visit, by far the commonest, stays
        // a tight loop.
        for i in 0..members.map_or(rows.len(), <[_]>::len) {
            if self.tuple.capped() {
                break;
            }
            let p = members.map_or(i, |m| m[i].1 as usize);
            if self.tuple.accepts(level, rows[p])? {
                if last {
                    self.tuple.emit()?;
                } else {
                    self.level(level + 1)?;
                }
            }
            self.tuple.current[slot] = None;
        }
        self.levels[level].buckets = buckets;
        self.levels[level].rows = rows;
        Ok(())
    }

    /// Debug builds: every kept row a keyed visit of `level` skips (not
    /// among `members`, which are in row order) is one the level's
    /// conjuncts up to the key conjunct reject without error.
    fn audit_skipped(&mut self, level: usize, rows: &[&'r Row], members: &[(u64, u32)]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let key = self.levels[level]
            .key
            .expect("a keyed visit has a key conjunct");
        let checked = &self.tuple.conjuncts[level][..=key.index];
        let slot = self.tuple.plan.steps[level].table_idx;
        let mut members = members.iter().map(|&(_, p)| p as usize).peekable();
        for (p, &row) in rows.iter().enumerate() {
            if members.next_if_eq(&p).is_some() {
                continue;
            }
            self.tuple.current[slot] = Some(row);
            let verdict = first_rejection(checked, &self.tuple.current);
            self.tuple.current[slot] = None;
            assert!(
                matches!(verdict, Some(Ok(()))),
                "a keyed visit of level {level} skipped row {p}, which its conjuncts give {verdict:?}"
            );
        }
    }

    /// ORDER BY … LIMIT served from index order (§IV-E of the paper): the
    /// probe of a single-table plan reads its index in order and stops at
    /// the row that makes `limit` tuples, charged for what it read
    /// ([`Probe::fetch`]).
    ///
    /// Returns `false`, having read nothing, when the plan shape does not
    /// qualify (multi-table, non-constant probes, OR-union), in which case
    /// the caller falls back to the eager path.
    fn stream_limited(&mut self, limit: usize) -> Result<bool, ExecError> {
        let [Access::Index(probe)] = self.access.as_slice() else {
            return Ok(false);
        };
        // Single constant probe prefix only.
        let constant = |src: &EqSource| matches!(src, EqSource::Const(_));
        if !probe.scan.eq.iter().all(constant) {
            return Ok(false);
        }
        // Each row to the tuple, up to the one that makes `limit` tuples.
        let offer = |tuple: &mut Tuple<'r>, row: &'r Row| {
            if tuple.accepts(0, row)? {
                tuple.emit()?;
            }
            Ok(tuple.produced >= limit)
        };
        let (buffers, tuple) = (&mut self.buffers, &mut self.tuple);
        probe.fetch(
            self.tables[0],
            self.layouts,
            buffers,
            tuple,
            &mut self.io,
            offer,
        )?;
        Ok(true)
    }

    /// Fetches the candidate rows of level `level` into `out`, given the
    /// outer slots of the current tuple. All I/O of the access is charged
    /// here, up front, whether or not the join consumes every candidate.
    fn fetch_rows(&mut self, level: usize, out: &mut Vec<&'r Row>) -> Result<(), ExecError> {
        let Join {
            tables,
            layouts,
            access,
            levels,
            buffers,
            tuple,
            io,
        } = self;
        let table = tables[level];
        match &access[level] {
            Access::FullScan => {
                // Every visit charges the scan; only the first reads it.
                let rows = table.scan_all(io);
                let visits = &mut levels[level].visits;
                if *visits == 0 {
                    out.extend(rows);
                }
                *visits += 1;
                return Ok(());
            }
            Access::Index(probe) => {
                out.clear();
                probe.fetch(table, layouts, buffers, tuple, io, candidates(out))?
            }
            Access::OrUnion(branches) => {
                out.clear();
                let mut pks: std::collections::BTreeSet<Key> = std::collections::BTreeSet::new();
                let mut branch = std::mem::take(&mut buffers.branch);
                for (probe, layout) in branches {
                    branch.clear();
                    let take = candidates(&mut branch);
                    probe.fetch(table, layouts, buffers, tuple, io, take)?;
                    for slot in &branch {
                        pks.insert(slot_pk(table, layout, slot));
                    }
                }
                buffers.branch = branch;
                for pk in pks {
                    out.extend(table.pk_lookup(&pk, io));
                }
            }
        }
        Ok(())
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
            this.groups
                .insert(Vec::new(), Group::new(width, aggregates));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp is the version alone, and every outcome carries one.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_stamp_is_one_version() {
        // With the seven prices in the stamp: 64 B and 208 B.
        assert_eq!(std::mem::size_of::<CostStamp>(), 8);
        assert_eq!(std::mem::size_of::<ExecOutcome>(), 152);
    }
}
