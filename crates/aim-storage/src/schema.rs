//! Table schemas, column definitions and index definitions.

use crate::error::StorageError;
use std::fmt;

/// Column data types. Mirrors the DDL types accepted by `aim-sql`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    Int,
    Float,
    Str,
    Bool,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "BIGINT",
            ColumnType::Float => "DOUBLE",
            ColumnType::Str => "VARCHAR",
            ColumnType::Bool => "BOOLEAN",
        };
        write!(f, "{s}")
    }
}

/// A column in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: ColumnType,
    /// Average width in bytes, used by the cost model for variable-width
    /// types. Fixed-width types ignore this.
    pub avg_width: u32,
}

impl ColumnDef {
    /// A column with the default average width for its type.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        let avg_width = match ty {
            ColumnType::Int | ColumnType::Float => 8,
            ColumnType::Bool => 1,
            ColumnType::Str => 24,
        };
        Self {
            name: name.into(),
            ty,
            avg_width,
        }
    }
}

/// A table schema: ordered columns plus the clustered primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Indices (into `columns`) of the primary key columns, in key order.
    pub primary_key: Vec<usize>,
}

impl TableSchema {
    /// Builds a schema, resolving primary-key column names to positions.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        primary_key: &[&str],
    ) -> Result<Self, StorageError> {
        let name = name.into();
        if primary_key.is_empty() {
            return Err(StorageError::InvalidSchema(format!(
                "table {name}: primary key must be non-empty"
            )));
        }
        let mut pk = Vec::with_capacity(primary_key.len());
        for pk_col in primary_key {
            let pos = columns
                .iter()
                .position(|c| c.name == *pk_col)
                .ok_or_else(|| StorageError::UnknownColumn {
                    table: name.clone(),
                    column: (*pk_col).to_string(),
                })?;
            if pk.contains(&pos) {
                return Err(StorageError::InvalidSchema(format!(
                    "table {name}: duplicate primary key column {pk_col}"
                )));
            }
            pk.push(pos);
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(StorageError::InvalidSchema(format!(
                    "table {name}: duplicate column {}",
                    c.name
                )));
            }
        }
        Ok(Self {
            name,
            columns,
            primary_key: pk,
        })
    }

    /// Position of `column` in the row layout.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// Column definition lookup by name.
    pub fn column(&self, column: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == column)
    }

    /// Names of the primary key columns in key order.
    pub fn primary_key_names(&self) -> Vec<&str> {
        self.primary_key
            .iter()
            .map(|&i| self.columns[i].name.as_str())
            .collect()
    }

    /// Average full row width in bytes (sum of column widths + row header).
    pub fn avg_row_width(&self) -> u64 {
        const ROW_HEADER: u64 = 16;
        ROW_HEADER
            + self
                .columns
                .iter()
                .map(|c| u64::from(c.avg_width))
                .sum::<u64>()
    }
}

/// Definition of a secondary index over a table.
///
/// Key columns are stored in order; entries implicitly carry the primary key
/// as a suffix (as InnoDB does), which is what makes an index *covering* for
/// a query when `key columns ∪ pk columns ⊇ referenced columns`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexDef {
    pub name: String,
    pub table: String,
    /// Key column names, in index order.
    pub columns: Vec<String>,
    pub unique: bool,
}

impl IndexDef {
    pub fn new(name: impl Into<String>, table: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            name: name.into(),
            table: table.into(),
            columns,
            unique: false,
        }
    }
}

impl fmt::Display for IndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.table, self.columns.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("score", ColumnType::Float),
            ],
            &["id"],
        )
        .unwrap()
    }

    #[test]
    fn resolves_primary_key_positions() {
        let s = schema();
        assert_eq!(s.primary_key, vec![0]);
        assert_eq!(s.primary_key_names(), vec!["id"]);
    }

    #[test]
    fn rejects_unknown_pk_column() {
        let err = TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], &["nope"])
            .unwrap_err();
        assert!(matches!(err, StorageError::UnknownColumn { .. }));
    }

    #[test]
    fn rejects_empty_pk() {
        let err =
            TableSchema::new("t", vec![ColumnDef::new("id", ColumnType::Int)], &[]).unwrap_err();
        assert!(matches!(err, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn rejects_duplicate_columns() {
        let err = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("id", ColumnType::Str),
            ],
            &["id"],
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn column_lookup() {
        let s = schema();
        assert_eq!(s.column_index("score"), Some(2));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column("name").unwrap().ty, ColumnType::Str);
    }

    #[test]
    fn row_width_includes_header() {
        let s = schema();
        assert_eq!(s.avg_row_width(), 16 + 8 + 24 + 8);
    }
}
