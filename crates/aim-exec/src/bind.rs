//! Name resolution: query table bindings and column references.
//!
//! A [`Binder`] resolves names against the FROM list. Resolution is by
//! string comparison, so the executor does it once per statement: a
//! [`Scope`] turns each column reference into the `(table_idx, col_idx)`
//! slot that [`crate::eval::BoundExpr`] reads per row.

use crate::error::ExecError;
use aim_sql::ast::{ColumnRef, Select, SelectItem, TableRef};
use aim_storage::{Database, TableSchema};
use std::collections::BTreeSet;

/// A table instance bound within a query: the binding name (alias or table
/// name) plus the underlying table name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTable {
    /// How the query refers to this instance (`o` for `orders AS o`).
    pub binding: String,
    /// Underlying table name in the catalog.
    pub table: String,
}

/// A resolved column: which bound table instance and which column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundColumn {
    /// Index into the binder's table list.
    pub table_idx: usize,
    /// Column position within that table's row layout.
    pub col_idx: usize,
}

/// Resolves column references against the FROM list of a query.
#[derive(Debug, Clone)]
pub struct Binder {
    tables: Vec<BoundTable>,
    /// Column name lists per bound table, cached from the schemas.
    columns: Vec<Vec<String>>,
}

impl Binder {
    /// Builds a binder for the FROM list of `select` against `db`.
    pub fn for_select(db: &Database, select: &Select) -> Result<Self, ExecError> {
        Self::for_tables(db, &select.from)
    }

    /// Builds a binder for an explicit table list. A list of more than 64
    /// table instances is refused: the planner keys a join's sets of bound
    /// instances by one bit each in a `u64`.
    pub fn for_tables(db: &Database, from: &[TableRef]) -> Result<Self, ExecError> {
        if from.len() > u64::BITS as usize {
            return Err(ExecError::Binding(format!(
                "{} table instances in one FROM list, more than {}",
                from.len(),
                u64::BITS
            )));
        }
        let mut tables = Vec::with_capacity(from.len());
        let mut columns = Vec::with_capacity(from.len());
        for tr in from {
            let table = db.table(&tr.name)?;
            let binding = tr.binding().to_string();
            if tables.iter().any(|b: &BoundTable| b.binding == binding) {
                return Err(ExecError::Binding(format!(
                    "duplicate table binding {binding}"
                )));
            }
            columns.push(
                table
                    .schema()
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .collect(),
            );
            tables.push(BoundTable {
                binding,
                table: tr.name.clone(),
            });
        }
        Ok(Self { tables, columns })
    }

    /// The bound table instances, in FROM order.
    pub fn tables(&self) -> &[BoundTable] {
        &self.tables
    }

    /// Number of bound table instances.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are bound (e.g. `SELECT 1`).
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Index of the table instance with the given binding name.
    pub fn table_index(&self, binding: &str) -> Option<usize> {
        self.tables.iter().position(|b| b.binding == binding)
    }

    /// Schema of the `idx`-th bound table.
    pub fn schema<'a>(&self, db: &'a Database, idx: usize) -> Result<&'a TableSchema, ExecError> {
        Ok(db.table(&self.tables[idx].table)?.schema())
    }

    /// Name of a resolved column.
    pub fn column_name(&self, col: BoundColumn) -> &str {
        &self.columns[col.table_idx][col.col_idx]
    }

    /// The column positions `select` references anywhere (projection,
    /// WHERE, GROUP BY, HAVING, ORDER BY), per table instance; a wildcard
    /// references every column of every table. References that do not
    /// resolve are skipped.
    pub fn referenced(&self, select: &Select) -> Vec<BTreeSet<usize>> {
        if select
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Wildcard))
        {
            return self
                .columns
                .iter()
                .map(|c| (0..c.len()).collect())
                .collect();
        }
        let mut cols: Vec<ColumnRef> = Vec::new();
        for item in &select.items {
            if let SelectItem::Expr { expr, .. } = item {
                expr.referenced_columns(&mut cols);
            }
        }
        let clauses = select
            .where_clause
            .iter()
            .chain(&select.group_by)
            .chain(&select.having);
        for e in clauses.chain(select.order_by.iter().map(|o| &o.expr)) {
            e.referenced_columns(&mut cols);
        }
        let mut referenced = vec![BTreeSet::new(); self.len()];
        for bc in cols.iter().filter_map(|c| self.resolve(c).ok()) {
            referenced[bc.table_idx].insert(bc.col_idx);
        }
        referenced
    }

    /// Resolves a column reference. Qualified references resolve through
    /// their binding; unqualified ones must be unambiguous across the FROM
    /// list.
    pub fn resolve(&self, col: &ColumnRef) -> Result<BoundColumn, ExecError> {
        match &col.table {
            Some(binding) => {
                let table_idx = self.table_index(binding).ok_or_else(|| {
                    ExecError::Binding(format!("unknown table binding {binding}"))
                })?;
                let col_idx = self.columns[table_idx]
                    .iter()
                    .position(|c| c == &col.column)
                    .ok_or_else(|| {
                        ExecError::Binding(format!("unknown column {binding}.{}", col.column))
                    })?;
                Ok(BoundColumn { table_idx, col_idx })
            }
            None => {
                let mut found = None;
                for (table_idx, cols) in self.columns.iter().enumerate() {
                    if let Some(col_idx) = cols.iter().position(|c| c == &col.column) {
                        if found.is_some() {
                            return Err(ExecError::Binding(format!(
                                "ambiguous column {}",
                                col.column
                            )));
                        }
                        found = Some(BoundColumn { table_idx, col_idx });
                    }
                }
                found.ok_or_else(|| ExecError::Binding(format!("unknown column {}", col.column)))
            }
        }
    }
}

/// Where the columns of one table instance sit in that instance's tuple
/// slot during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotLayout {
    /// The slot holds a full clustered row: column `c` is at position `c`.
    Row,
    /// The slot holds a covering secondary-index entry (key columns, then
    /// primary-key columns): column `c` is at `positions[c]`, `None` when
    /// the entry does not carry it.
    IndexEntry(Vec<Option<usize>>),
}

impl SlotLayout {
    /// Position of table column `col_idx` within the slot.
    pub fn position(&self, col_idx: usize) -> Option<usize> {
        match self {
            SlotLayout::Row => Some(col_idx),
            SlotLayout::IndexEntry(positions) => positions[col_idx],
        }
    }
}

/// A binder plus the slot layout of each table instance: resolves column
/// references to tuple-slot positions.
#[derive(Debug, Clone, Copy)]
pub struct Scope<'b> {
    binder: &'b Binder,
    /// Aligned with the binder's tables; missing entries are full rows.
    layouts: &'b [SlotLayout],
}

impl<'b> Scope<'b> {
    /// Scope in which every tuple slot holds a full table row.
    pub fn rows(binder: &'b Binder) -> Self {
        Self::new(binder, &[])
    }

    pub fn new(binder: &'b Binder, layouts: &'b [SlotLayout]) -> Self {
        Self { binder, layouts }
    }

    pub fn binder(&self) -> &'b Binder {
        self.binder
    }

    /// Slot layout of the `table_idx`-th bound table.
    pub fn layout(&self, table_idx: usize) -> &'b SlotLayout {
        self.layouts.get(table_idx).unwrap_or(&SlotLayout::Row)
    }

    /// Resolves `col` to its tuple slot and the position within it;
    /// `None` when the slot's index entry does not carry the column.
    pub fn resolve(&self, col: &ColumnRef) -> Result<Option<BoundColumn>, ExecError> {
        let bc = self.binder.resolve(col)?;
        let layout = self.layout(bc.table_idx);
        Ok(layout.position(bc.col_idx).map(|col_idx| BoundColumn {
            table_idx: bc.table_idx,
            col_idx,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;
    use aim_sql::Statement;
    use aim_storage::{ColumnDef, ColumnType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        for (name, cols) in [("a", vec!["id", "x"]), ("b", vec!["id", "y"])] {
            db.create_table(
                TableSchema::new(
                    name,
                    cols.iter()
                        .map(|c| ColumnDef::new(*c, ColumnType::Int))
                        .collect(),
                    &["id"],
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    fn binder(sql: &str) -> Result<Binder, ExecError> {
        let db = db();
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => Binder::for_select(&db, &s),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolves_qualified_columns() {
        let b = binder("SELECT a.x FROM a, b").unwrap();
        let r = b.resolve(&ColumnRef::qualified("a", "x")).unwrap();
        assert_eq!(
            r,
            BoundColumn {
                table_idx: 0,
                col_idx: 1
            }
        );
        let r = b.resolve(&ColumnRef::qualified("b", "y")).unwrap();
        assert_eq!(
            r,
            BoundColumn {
                table_idx: 1,
                col_idx: 1
            }
        );
    }

    #[test]
    fn resolves_unambiguous_bare_columns() {
        let b = binder("SELECT x FROM a, b").unwrap();
        let r = b.resolve(&ColumnRef::bare("x")).unwrap();
        assert_eq!(r.table_idx, 0);
        let r = b.resolve(&ColumnRef::bare("y")).unwrap();
        assert_eq!(r.table_idx, 1);
    }

    #[test]
    fn ambiguous_bare_column_is_error() {
        let b = binder("SELECT x FROM a, b").unwrap();
        assert!(matches!(
            b.resolve(&ColumnRef::bare("id")),
            Err(ExecError::Binding(_))
        ));
    }

    #[test]
    fn alias_shadows_table_name() {
        let b = binder("SELECT t.x FROM a AS t").unwrap();
        assert!(b.resolve(&ColumnRef::qualified("t", "x")).is_ok());
        assert!(b.resolve(&ColumnRef::qualified("a", "x")).is_err());
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert!(matches!(
            binder("SELECT 1 FROM a, a"),
            Err(ExecError::Binding(_))
        ));
    }

    #[test]
    fn self_join_with_aliases_allowed() {
        let b = binder("SELECT a1.x FROM a AS a1, a AS a2").unwrap();
        assert_eq!(b.len(), 2);
        assert!(b.resolve(&ColumnRef::qualified("a2", "x")).is_ok());
    }

    #[test]
    fn unknown_table_is_storage_error() {
        assert!(matches!(
            binder("SELECT x FROM missing"),
            Err(ExecError::Storage(_))
        ));
    }
}
