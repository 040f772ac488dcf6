//! Abstract syntax tree for the supported SQL subset.
//!
//! The tree is deliberately flat and explicit: AIM's candidate generation
//! (crate `aim-core`) walks it to extract column-usage metadata (which
//! operation each column participates in, with which operator) and the join
//! graph — the "structural metadata" of Table I in the paper.
//!
//! Printing lives in `crate::render`: every `Display` impl here is that
//! renderer's exact mode. The types that make up a DML statement implement
//! `Clone` by hand so that `clone_from` reuses the target's strings, boxes
//! and vectors — the workload monitor overwrites a stored exemplar with a
//! statement of the same shape on every record.

use crate::render::Renderer;
use std::fmt;

/// `Clone` for a struct whose `clone_from` reuses each field's buffers.
macro_rules! clone_fieldwise {
    ($ty:ident { $($field:ident),* }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                Self { $($field: self.$field.clone()),* }
            }
            fn clone_from(&mut self, source: &Self) {
                $(self.$field.clone_from(&source.$field);)*
            }
        }
    };
}

/// A possibly table-qualified column reference (`t.col` or `col`).
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Table name or alias qualifier, if written.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        Self {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

clone_fieldwise!(ColumnRef { table, column });

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).column(self)
    }
}

/// Literal values, including the `?` parameter placeholder produced both by
/// user input and by query normalization.
#[derive(Debug, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    /// `?` placeholder.
    Param,
}

impl Clone for Literal {
    fn clone(&self) -> Self {
        match self {
            Literal::Int(v) => Literal::Int(*v),
            Literal::Float(v) => Literal::Float(*v),
            Literal::Str(s) => Literal::Str(s.clone()),
            Literal::Bool(b) => Literal::Bool(*b),
            Literal::Null => Literal::Null,
            Literal::Param => Literal::Param,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Literal::Str(to), Literal::Str(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).literal(self)
    }
}

/// Binary operators appearing in scalar expressions and predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    /// MySQL `<=>`: equality that treats two NULLs as equal.
    NullSafeEq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    /// True for comparison (predicate) operators, false for arithmetic.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::NullSafeEq
                | BinOp::NotEq
                | BinOp::Lt
                | BinOp::LtEq
                | BinOp::Gt
                | BinOp::GtEq
        )
    }

    /// True for operators that, per §IV-B2 of the paper, make the predicate
    /// an *index prefix predicate* when the other side is a constant: the
    /// matching rows share a constant prefix in an index on the column.
    pub fn is_prefix_compatible(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::NullSafeEq)
    }

    /// The operator's SQL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::NullSafeEq => "<=>",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Aggregate function names supported in projections and HAVING.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// The function's SQL name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Scalar expressions and predicates.
///
/// AND/OR are n-ary so that predicate *chains* keep their grouping — the
/// factorization step of candidate generation (Algorithm 5) needs the
/// AND-OR chain structure, not a binary tree of unknown associativity.
#[derive(Debug, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal),
    /// N-ary conjunction; always has >= 2 children after parsing.
    And(Vec<Expr>),
    /// N-ary disjunction; always has >= 2 children after parsing.
    Or(Vec<Expr>),
    Not(Box<Expr>),
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Aggregate {
        func: AggFunc,
        /// `None` encodes `COUNT(*)`.
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    /// Unary numeric negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Builds an n-ary AND, flattening nested ANDs and eliding singletons.
    pub fn and(parts: Vec<Expr>) -> Expr {
        // The common chain has nothing to flatten and keeps its vector.
        let mut flat = if parts.iter().any(|p| matches!(p, Expr::And(_))) {
            let mut flat = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    Expr::And(children) => flat.extend(children),
                    other => flat.push(other),
                }
            }
            flat
        } else {
            parts
        };
        match flat.len() {
            1 => flat.pop().expect("len checked"),
            _ => Expr::And(flat),
        }
    }

    /// Builds an n-ary OR, flattening nested ORs and eliding singletons.
    pub fn or(parts: Vec<Expr>) -> Expr {
        let mut flat = if parts.iter().any(|p| matches!(p, Expr::Or(_))) {
            let mut flat = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    Expr::Or(children) => flat.extend(children),
                    other => flat.push(other),
                }
            }
            flat
        } else {
            parts
        };
        match flat.len() {
            1 => flat.pop().expect("len checked"),
            _ => Expr::Or(flat),
        }
    }

    /// Convenience constructor for `column op literal`.
    pub fn cmp(col: ColumnRef, op: BinOp, lit: Literal) -> Expr {
        Expr::Binary {
            left: Box::new(Expr::Column(col)),
            op,
            right: Box::new(Expr::Literal(lit)),
        }
    }

    /// Collects every column referenced anywhere inside this expression.
    pub fn referenced_columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Literal(_) => {}
            Expr::And(children) | Expr::Or(children) => {
                for c in children {
                    c.referenced_columns(out);
                }
            }
            Expr::Not(e) | Expr::Neg(e) => e.referenced_columns(out),
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.referenced_columns(out);
                low.referenced_columns(out);
                high.referenced_columns(out);
            }
            Expr::IsNull { expr, .. } => expr.referenced_columns(out),
            Expr::Like { expr, pattern, .. } => {
                expr.referenced_columns(out);
                pattern.referenced_columns(out);
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// True if the expression contains any aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::And(children) | Expr::Or(children) => {
                children.iter().any(Expr::contains_aggregate)
            }
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
        }
    }
}

impl Clone for Expr {
    fn clone(&self) -> Self {
        match self {
            Expr::Column(c) => Expr::Column(c.clone()),
            Expr::Literal(l) => Expr::Literal(l.clone()),
            Expr::And(children) => Expr::And(children.clone()),
            Expr::Or(children) => Expr::Or(children.clone()),
            Expr::Not(e) => Expr::Not(e.clone()),
            Expr::Neg(e) => Expr::Neg(e.clone()),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: left.clone(),
                op: *op,
                right: right.clone(),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: expr.clone(),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: expr.clone(),
                low: low.clone(),
                high: high.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: expr.clone(),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: expr.clone(),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func: *func,
                arg: arg.clone(),
                distinct: *distinct,
            },
        }
    }

    /// Same variant: overwrite field by field, keeping every allocation
    /// (`Box`, `Vec` and `String` all reuse theirs). Otherwise a fresh clone.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Expr::Column(to), Expr::Column(from)) => to.clone_from(from),
            (Expr::Literal(to), Expr::Literal(from)) => to.clone_from(from),
            (Expr::And(to), Expr::And(from)) | (Expr::Or(to), Expr::Or(from)) => {
                to.clone_from(from)
            }
            (Expr::Not(to), Expr::Not(from)) | (Expr::Neg(to), Expr::Neg(from)) => {
                to.clone_from(from)
            }
            (
                Expr::Binary { left, op, right },
                Expr::Binary {
                    left: l,
                    op: o,
                    right: r,
                },
            ) => {
                left.clone_from(l);
                *op = *o;
                right.clone_from(r);
            }
            (
                Expr::InList {
                    expr,
                    list,
                    negated,
                },
                Expr::InList {
                    expr: e,
                    list: l,
                    negated: n,
                },
            ) => {
                expr.clone_from(e);
                list.clone_from(l);
                *negated = *n;
            }
            (
                Expr::Between {
                    expr,
                    low,
                    high,
                    negated,
                },
                Expr::Between {
                    expr: e,
                    low: l,
                    high: h,
                    negated: n,
                },
            ) => {
                expr.clone_from(e);
                low.clone_from(l);
                high.clone_from(h);
                *negated = *n;
            }
            (
                Expr::IsNull { expr, negated },
                Expr::IsNull {
                    expr: e,
                    negated: n,
                },
            ) => {
                expr.clone_from(e);
                *negated = *n;
            }
            (
                Expr::Like {
                    expr,
                    pattern,
                    negated,
                },
                Expr::Like {
                    expr: e,
                    pattern: p,
                    negated: n,
                },
            ) => {
                expr.clone_from(e);
                pattern.clone_from(p);
                *negated = *n;
            }
            (
                Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                },
                Expr::Aggregate {
                    func: f,
                    arg: a,
                    distinct: d,
                },
            ) => {
                *func = *f;
                arg.clone_from(a);
                *distinct = *d;
            }
            (to, from) => *to = from.clone(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).expr(self)
    }
}

/// One item of a SELECT projection list.
#[derive(Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

impl Clone for SelectItem {
    fn clone(&self) -> Self {
        match self {
            SelectItem::Wildcard => SelectItem::Wildcard,
            SelectItem::Expr { expr, alias } => SelectItem::Expr {
                expr: expr.clone(),
                alias: alias.clone(),
            },
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (SelectItem::Expr { expr, alias }, SelectItem::Expr { expr: e, alias: a }) => {
                expr.clone_from(e);
                alias.clone_from(a);
            }
            (to, from) => *to = from.clone(),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).select_item(self)
    }
}

/// A table reference in the FROM list, with optional alias.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            alias: None,
        }
    }

    /// The name this table instance is referred to by within the query:
    /// its alias if present, its base name otherwise.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

clone_fieldwise!(TableRef { name, alias });

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).table_ref(self)
    }
}

/// One ORDER BY key.
#[derive(Debug, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

clone_fieldwise!(OrderByItem { expr, desc });

impl fmt::Display for OrderByItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).order_by_item(self)
    }
}

/// A SELECT statement.
///
/// Explicit `JOIN ... ON` syntax is normalised at parse time: joined tables
/// land in `from` and ON predicates are conjoined into `where_clause`. This
/// gives candidate generation a single predicate tree to factorize.
#[derive(Debug, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<Expr>,
}

clone_fieldwise!(Select {
    distinct,
    items,
    from,
    where_clause,
    group_by,
    having,
    order_by,
    limit
});

impl Select {
    /// `SELECT * FROM table [WHERE ...]`: the shape of the row-location
    /// step of an UPDATE or DELETE ([`Statement::row_location`]), as the
    /// executor runs it and the planner and the advisor price it.
    pub fn star_where(table: &str, where_clause: Option<&Expr>) -> Self {
        Select {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::new(table)],
            where_clause: where_clause.cloned(),
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).select(self)
    }
}

/// An INSERT statement (`INSERT INTO t (c1, c2) VALUES (...), (...)`).
#[derive(Debug, PartialEq)]
pub struct Insert {
    pub table: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Expr>>,
}

clone_fieldwise!(Insert {
    table,
    columns,
    rows
});

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).insert(self)
    }
}

/// An UPDATE statement.
#[derive(Debug, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

impl Clone for Update {
    fn clone(&self) -> Self {
        Update {
            table: self.table.clone(),
            assignments: self.assignments.clone(),
            where_clause: self.where_clause.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.table.clone_from(&source.table);
        // A tuple's `clone_from` is the default `*self = source.clone()`,
        // so the pairs are overwritten by hand.
        self.assignments.truncate(source.assignments.len());
        let (overlap, extra) = source.assignments.split_at(self.assignments.len());
        for ((col, val), (c, v)) in self.assignments.iter_mut().zip(overlap) {
            col.clone_from(c);
            val.clone_from(v);
        }
        self.assignments.extend_from_slice(extra);
        self.where_clause.clone_from(&source.where_clause);
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).update(self)
    }
}

/// A DELETE statement.
#[derive(Debug, PartialEq)]
pub struct Delete {
    pub table: String,
    pub where_clause: Option<Expr>,
}

clone_fieldwise!(Delete {
    table,
    where_clause
});

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).delete(self)
    }
}

/// Column data types for DDL; mirrors `aim-storage`'s type system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    BigInt,
    Double,
    Varchar,
    Boolean,
}

impl SqlType {
    /// The type's SQL name.
    pub fn as_str(self) -> &'static str {
        match self {
            SqlType::BigInt => "BIGINT",
            SqlType::Double => "DOUBLE",
            SqlType::Varchar => "VARCHAR",
            SqlType::Boolean => "BOOLEAN",
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A CREATE TABLE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<(String, SqlType)>,
    /// Clustered primary key columns; must be non-empty.
    pub primary_key: Vec<String>,
}

impl fmt::Display for CreateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).create_table(self)
    }
}

/// A CREATE INDEX statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

impl fmt::Display for CreateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).create_index(self)
    }
}

/// Top-level SQL statement.
#[derive(Debug, PartialEq)]
pub enum Statement {
    Select(Select),
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    DropIndex { name: String, table: String },
}

impl Statement {
    /// True for statements that modify data (the paper's DML, which incurs
    /// index-maintenance cost `cost_u`).
    pub fn is_dml(&self) -> bool {
        matches!(
            self,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        )
    }

    /// The step that finds the rows an UPDATE or DELETE writes, as a
    /// statement of its own: `SELECT *` over its table under its WHERE.
    pub fn row_location(&self) -> Option<Select> {
        match self {
            Statement::Update(u) => Some(Select::star_where(&u.table, u.where_clause.as_ref())),
            Statement::Delete(d) => Some(Select::star_where(&d.table, d.where_clause.as_ref())),
            _ => None,
        }
    }

    /// The table a DML statement writes; `None` for everything else.
    pub fn written_table(&self) -> Option<&str> {
        match self {
            Statement::Insert(i) => Some(&i.table),
            Statement::Update(u) => Some(&u.table),
            Statement::Delete(d) => Some(&d.table),
            _ => None,
        }
    }
}

impl Clone for Statement {
    fn clone(&self) -> Self {
        match self {
            Statement::Select(s) => Statement::Select(s.clone()),
            Statement::Insert(s) => Statement::Insert(s.clone()),
            Statement::Update(s) => Statement::Update(s.clone()),
            Statement::Delete(s) => Statement::Delete(s.clone()),
            Statement::CreateTable(s) => Statement::CreateTable(s.clone()),
            Statement::CreateIndex(s) => Statement::CreateIndex(s.clone()),
            Statement::DropIndex { name, table } => Statement::DropIndex {
                name: name.clone(),
                table: table.clone(),
            },
        }
    }

    /// Overwrites a DML statement of the same kind in place; DDL, which
    /// the monitor sees once in a while, takes a fresh clone.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Statement::Select(to), Statement::Select(from)) => to.clone_from(from),
            (Statement::Insert(to), Statement::Insert(from)) => to.clone_from(from),
            (Statement::Update(to), Statement::Update(from)) => to.clone_from(from),
            (Statement::Delete(to), Statement::Delete(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Renderer::exact(f).statement(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_flattens_nested_conjunctions() {
        let a = Expr::cmp(ColumnRef::bare("a"), BinOp::Eq, Literal::Int(1));
        let b = Expr::cmp(ColumnRef::bare("b"), BinOp::Eq, Literal::Int(2));
        let c = Expr::cmp(ColumnRef::bare("c"), BinOp::Eq, Literal::Int(3));
        let nested = Expr::and(vec![Expr::and(vec![a.clone(), b.clone()]), c.clone()]);
        assert_eq!(nested, Expr::And(vec![a, b, c]));
    }

    #[test]
    fn and_of_one_is_identity() {
        let a = Expr::cmp(ColumnRef::bare("a"), BinOp::Eq, Literal::Int(1));
        assert_eq!(Expr::and(vec![a.clone()]), a);
    }

    #[test]
    fn referenced_columns_walks_all_positions() {
        let e = Expr::Between {
            expr: Box::new(Expr::Column(ColumnRef::bare("x"))),
            low: Box::new(Expr::Column(ColumnRef::bare("lo"))),
            high: Box::new(Expr::Column(ColumnRef::bare("hi"))),
            negated: false,
        };
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(
            cols,
            vec![
                ColumnRef::bare("x"),
                ColumnRef::bare("lo"),
                ColumnRef::bare("hi")
            ]
        );
    }

    #[test]
    fn display_escapes_string_literals() {
        let l = Literal::Str("it's".into());
        assert_eq!(l.to_string(), "'it''s'");
    }

    #[test]
    fn identifiers_print_quoted_exactly_when_they_need_it() {
        let sql = "SELECT `order`, t.`my col` AS `as` FROM \"select\" AS t WHERE `order` = 1";
        let stmt = crate::parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        assert_eq!(
            printed,
            "SELECT `order`, t.`my col` AS `as` FROM `select` AS t WHERE `order` = 1"
        );
        assert_eq!(crate::parse_statement(&printed).unwrap(), stmt);
        // A name holding a backtick can only be delimited by double quotes.
        assert_eq!(ColumnRef::bare("a`b").to_string(), "\"a`b\"");
        assert_eq!(ColumnRef::qualified("t1", "c_2").to_string(), "t1.c_2");
    }

    #[test]
    fn clone_from_equals_clone_across_shapes() {
        let texts = [
            "SELECT a, b AS x FROM t AS u, v WHERE a = 1 AND b IN (1, 2, 3) ORDER BY a DESC LIMIT 5",
            "SELECT a, b AS y FROM t AS w, v WHERE a = 22 AND b IN (4) ORDER BY a DESC LIMIT 7",
            "SELECT DISTINCT COUNT(*), SUM(a) FROM t WHERE NOT (a BETWEEN 1 AND 2 OR b LIKE 'x%') \
             GROUP BY c HAVING COUNT(*) > 1",
            "SELECT * FROM t WHERE a IS NOT NULL AND -a < 3",
            "SELECT 1",
            "INSERT INTO t (a, b) VALUES (1, 'one'), (2, 'two')",
            "INSERT INTO t (a, b) VALUES (3, 'a much longer string than before')",
            "UPDATE t SET a = 1, b = b + 1 WHERE id = 7",
            "UPDATE t SET a = 2 WHERE id = 8",
            "UPDATE t SET a = 2, b = 3, c = 4",
            "DELETE FROM t WHERE id = 7",
            "DELETE FROM t",
            "CREATE INDEX ix ON t (a, b)",
            "DROP INDEX ix ON t",
        ];
        let stmts: Vec<Statement> = texts
            .iter()
            .map(|sql| crate::parse_statement(sql).unwrap())
            .collect();
        for target in &stmts {
            for source in &stmts {
                let mut overwritten = target.clone();
                overwritten.clone_from(source);
                assert_eq!(&overwritten, source, "{target} <- {source}");
            }
        }
    }

    #[test]
    fn prefix_compatibility_matches_paper() {
        assert!(BinOp::Eq.is_prefix_compatible());
        assert!(BinOp::NullSafeEq.is_prefix_compatible());
        assert!(!BinOp::Gt.is_prefix_compatible());
        assert!(!BinOp::LtEq.is_prefix_compatible());
        assert!(!BinOp::NotEq.is_prefix_compatible());
    }

    #[test]
    fn table_ref_binding_prefers_alias() {
        let t = TableRef {
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding(), "o");
        assert_eq!(TableRef::new("orders").binding(), "orders");
    }

    #[test]
    fn contains_aggregate_detects_nested() {
        let agg = Expr::Aggregate {
            func: AggFunc::Sum,
            arg: Some(Box::new(Expr::Column(ColumnRef::bare("x")))),
            distinct: false,
        };
        let wrapped = Expr::Binary {
            left: Box::new(agg),
            op: BinOp::Gt,
            right: Box::new(Expr::Literal(Literal::Int(5))),
        };
        assert!(wrapped.contains_aggregate());
        assert!(!Expr::Column(ColumnRef::bare("x")).contains_aggregate());
    }
}
