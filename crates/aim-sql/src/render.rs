//! The one SQL printer, generic over its sink.
//!
//! Every printed form of the AST comes from [`Renderer`]: the `Display`
//! impls of [`crate::ast`] are its exact mode into a `fmt::Formatter`,
//! [`crate::normalize::NormalizedQuery::text`] is its masked mode into a
//! `String`, and [`crate::normalize::fingerprint`] is its masked mode into
//! an FNV-1a accumulator. The masked mode prints what
//! `normalize_statement(stmt).statement` prints in exact mode — every
//! literal as `?`, an `IN` list as `(?)`, all `VALUES` rows as one row of
//! placeholders — without building that tree.

use crate::ast::*;
use crate::lexer::is_bare_ident;
use std::fmt::{self, Write};

pub(crate) struct Renderer<'w, W: Write> {
    out: &'w mut W,
    masked: bool,
}

impl<'w, W: Write> Renderer<'w, W> {
    /// Prints the statement as written, literals included.
    pub(crate) fn exact(out: &'w mut W) -> Self {
        Renderer { out, masked: false }
    }

    /// Prints the statement's normalized form.
    pub(crate) fn masked(out: &'w mut W) -> Self {
        Renderer { out, masked: true }
    }

    pub(crate) fn statement(&mut self, stmt: &Statement) -> fmt::Result {
        match stmt {
            Statement::Select(s) => self.select(s),
            Statement::Insert(s) => self.insert(s),
            Statement::Update(s) => self.update(s),
            Statement::Delete(s) => self.delete(s),
            Statement::CreateTable(s) => self.create_table(s),
            Statement::CreateIndex(s) => self.create_index(s),
            Statement::DropIndex { name, table } => {
                self.out.write_str("DROP INDEX ")?;
                self.ident(name)?;
                self.out.write_str(" ON ")?;
                self.ident(table)
            }
        }
    }

    pub(crate) fn select(&mut self, s: &Select) -> fmt::Result {
        self.out.write_str("SELECT ")?;
        if s.distinct {
            self.out.write_str("DISTINCT ")?;
        }
        self.list(&s.items, Self::select_item)?;
        if !s.from.is_empty() {
            self.out.write_str(" FROM ")?;
            self.list(&s.from, Self::table_ref)?;
        }
        self.where_clause(&s.where_clause)?;
        if !s.group_by.is_empty() {
            self.out.write_str(" GROUP BY ")?;
            self.list(&s.group_by, Self::expr)?;
        }
        if let Some(h) = &s.having {
            self.out.write_str(" HAVING ")?;
            self.expr(h)?;
        }
        if !s.order_by.is_empty() {
            self.out.write_str(" ORDER BY ")?;
            self.list(&s.order_by, Self::order_by_item)?;
        }
        if let Some(l) = &s.limit {
            self.out.write_str(" LIMIT ")?;
            self.expr(l)?;
        }
        Ok(())
    }

    pub(crate) fn insert(&mut self, s: &Insert) -> fmt::Result {
        self.out.write_str("INSERT INTO ")?;
        self.ident(&s.table)?;
        if !s.columns.is_empty() {
            self.out.write_str(" (")?;
            self.idents(&s.columns)?;
            self.out.write_char(')')?;
        }
        self.out.write_str(" VALUES ")?;
        if self.masked {
            // All VALUES rows collapse to one row of placeholders: batch
            // size should not change the query's identity.
            let width = s.columns.len().max(s.rows.first().map_or(0, Vec::len));
            self.out.write_char('(')?;
            for i in 0..width {
                self.out.write_str(if i > 0 { ", ?" } else { "?" })?;
            }
            return self.out.write_char(')');
        }
        self.list(&s.rows, |r, row| {
            r.out.write_char('(')?;
            r.list(row, Self::expr)?;
            r.out.write_char(')')
        })
    }

    pub(crate) fn update(&mut self, s: &Update) -> fmt::Result {
        self.out.write_str("UPDATE ")?;
        self.ident(&s.table)?;
        self.out.write_str(" SET ")?;
        self.list(&s.assignments, |r, (col, val)| {
            r.ident(col)?;
            r.out.write_str(" = ")?;
            r.expr(val)
        })?;
        self.where_clause(&s.where_clause)
    }

    pub(crate) fn delete(&mut self, s: &Delete) -> fmt::Result {
        self.out.write_str("DELETE FROM ")?;
        self.ident(&s.table)?;
        self.where_clause(&s.where_clause)
    }

    pub(crate) fn create_table(&mut self, s: &CreateTable) -> fmt::Result {
        self.out.write_str("CREATE TABLE ")?;
        self.ident(&s.name)?;
        self.out.write_str(" (")?;
        self.list(&s.columns, |r, (col, ty)| {
            r.ident(col)?;
            r.out.write_char(' ')?;
            r.out.write_str(ty.as_str())
        })?;
        self.out.write_str(", PRIMARY KEY (")?;
        self.idents(&s.primary_key)?;
        self.out.write_str("))")
    }

    pub(crate) fn create_index(&mut self, s: &CreateIndex) -> fmt::Result {
        self.out.write_str(if s.unique {
            "CREATE UNIQUE INDEX "
        } else {
            "CREATE INDEX "
        })?;
        self.ident(&s.name)?;
        self.out.write_str(" ON ")?;
        self.ident(&s.table)?;
        self.out.write_str(" (")?;
        self.idents(&s.columns)?;
        self.out.write_char(')')
    }

    pub(crate) fn expr(&mut self, e: &Expr) -> fmt::Result {
        match e {
            Expr::Column(c) => self.column(c),
            Expr::Literal(l) => self.literal(l),
            Expr::And(children) => self.connective(children, " AND "),
            Expr::Or(children) => self.connective(children, " OR "),
            Expr::Not(inner) => {
                self.out.write_str("NOT (")?;
                self.expr(inner)?;
                self.out.write_char(')')
            }
            // A signed number is one constant, not an expression over one.
            Expr::Neg(inner) if self.masked && is_number(inner) => self.out.write_char('?'),
            Expr::Neg(inner) => {
                self.out.write_str("-(")?;
                self.expr(inner)?;
                self.out.write_char(')')
            }
            Expr::Binary { left, op, right } => {
                self.expr(left)?;
                self.out.write_char(' ')?;
                self.out.write_str(op.as_str())?;
                self.out.write_char(' ')?;
                self.expr(right)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.expr(expr)?;
                self.out
                    .write_str(if *negated { " NOT IN (" } else { " IN (" })?;
                if self.masked {
                    // List length varies per execution: one placeholder.
                    self.out.write_char('?')?;
                } else {
                    self.list(list, Self::expr)?;
                }
                self.out.write_char(')')
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.expr(expr)?;
                self.out.write_str(if *negated {
                    " NOT BETWEEN "
                } else {
                    " BETWEEN "
                })?;
                self.expr(low)?;
                self.out.write_str(" AND ")?;
                self.expr(high)
            }
            Expr::IsNull { expr, negated } => {
                self.expr(expr)?;
                self.out
                    .write_str(if *negated { " IS NOT NULL" } else { " IS NULL" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.expr(expr)?;
                self.out
                    .write_str(if *negated { " NOT LIKE " } else { " LIKE " })?;
                self.expr(pattern)
            }
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                self.out.write_str(func.as_str())?;
                match arg {
                    Some(a) => {
                        self.out
                            .write_str(if *distinct { "(DISTINCT " } else { "(" })?;
                        self.expr(a)?;
                        self.out.write_char(')')
                    }
                    None => self.out.write_str("(*)"),
                }
            }
        }
    }

    pub(crate) fn literal(&mut self, l: &Literal) -> fmt::Result {
        if self.masked {
            return self.out.write_char('?');
        }
        match l {
            Literal::Int(v) => write!(self.out, "{v}"),
            Literal::Float(v) => write!(self.out, "{v}"),
            Literal::Str(s) => {
                self.out.write_char('\'')?;
                let mut pieces = s.split('\'');
                self.out.write_str(pieces.next().unwrap_or_default())?;
                for piece in pieces {
                    self.out.write_str("''")?;
                    self.out.write_str(piece)?;
                }
                self.out.write_char('\'')
            }
            Literal::Bool(b) => self.out.write_str(if *b { "TRUE" } else { "FALSE" }),
            Literal::Null => self.out.write_str("NULL"),
            Literal::Param => self.out.write_char('?'),
        }
    }

    pub(crate) fn column(&mut self, c: &ColumnRef) -> fmt::Result {
        if let Some(t) = &c.table {
            self.ident(t)?;
            self.out.write_char('.')?;
        }
        self.ident(&c.column)
    }

    pub(crate) fn select_item(&mut self, item: &SelectItem) -> fmt::Result {
        match item {
            SelectItem::Wildcard => self.out.write_char('*'),
            SelectItem::Expr { expr, alias } => {
                self.expr(expr)?;
                self.alias(alias)
            }
        }
    }

    pub(crate) fn table_ref(&mut self, t: &TableRef) -> fmt::Result {
        self.ident(&t.name)?;
        self.alias(&t.alias)
    }

    pub(crate) fn order_by_item(&mut self, o: &OrderByItem) -> fmt::Result {
        self.expr(&o.expr)?;
        self.out.write_str(if o.desc { " DESC" } else { " ASC" })
    }

    /// An identifier, quoted exactly when its bare spelling would not lex
    /// back to it (a keyword, an empty name, a character outside the word
    /// set).
    fn ident(&mut self, name: &str) -> fmt::Result {
        if is_bare_ident(name) {
            return self.out.write_str(name);
        }
        // Either quote delimits an identifier, and neither can be escaped.
        let quote = if name.contains('`') { '"' } else { '`' };
        self.out.write_char(quote)?;
        self.out.write_str(name)?;
        self.out.write_char(quote)
    }

    fn idents(&mut self, names: &[String]) -> fmt::Result {
        self.list(names, |r, name| r.ident(name))
    }

    fn alias(&mut self, alias: &Option<String>) -> fmt::Result {
        match alias {
            Some(a) => {
                self.out.write_str(" AS ")?;
                self.ident(a)
            }
            None => Ok(()),
        }
    }

    fn where_clause(&mut self, predicate: &Option<Expr>) -> fmt::Result {
        match predicate {
            Some(w) => {
                self.out.write_str(" WHERE ")?;
                self.expr(w)
            }
            None => Ok(()),
        }
    }

    /// `AND` / `OR` children; nested connectives are parenthesised so
    /// precedence survives a print/parse round trip.
    fn connective(&mut self, children: &[Expr], sep: &str) -> fmt::Result {
        for (i, child) in children.iter().enumerate() {
            if i > 0 {
                self.out.write_str(sep)?;
            }
            if matches!(child, Expr::And(_) | Expr::Or(_)) {
                self.out.write_char('(')?;
                self.expr(child)?;
                self.out.write_char(')')?;
            } else {
                self.expr(child)?;
            }
        }
        Ok(())
    }

    /// `items`, comma-separated.
    fn list<T>(
        &mut self,
        items: &[T],
        mut each: impl FnMut(&mut Self, &T) -> fmt::Result,
    ) -> fmt::Result {
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.write_str(", ")?;
            }
            each(self, item)?;
        }
        Ok(())
    }
}

/// True for an integer or float literal: the operand under which a unary
/// minus is part of the constant.
pub(crate) fn is_number(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Literal::Int(_) | Literal::Float(_)))
}
