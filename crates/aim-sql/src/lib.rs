//! SQL front-end for the AIM index advisor.
//!
//! This crate provides the pieces of a SQL processing stack that AIM's
//! *structural* candidate generation depends on:
//!
//! * a [`lexer`] and recursive-descent [`parser`] for the transactional SQL
//!   subset the paper targets (`SELECT` with projections, `WHERE` AND/OR
//!   predicate trees, inner joins, `GROUP BY`, `ORDER BY`, `LIMIT`,
//!   aggregates, plus `INSERT`/`UPDATE`/`DELETE` and DDL),
//! * an [`ast`] whose shape exposes exactly the *structural metadata* of
//!   Table I in the paper (per-column operations, join-graph edges, the
//!   grouping of predicates in AND–OR chains), and
//! * a query [`normalize`]r which replaces literals with `?` placeholders so
//!   executions of the same query shape aggregate under one fingerprint
//!   (§III-A1 of the paper).
//!
//! # Example
//!
//! ```
//! use aim_sql::{parse_statement, normalize::normalize_statement};
//!
//! let stmt = parse_statement(
//!     "SELECT id, name FROM students WHERE score > 90 ORDER BY name LIMIT 10",
//! ).unwrap();
//! let norm = normalize_statement(&stmt);
//! assert_eq!(
//!     norm.text,
//!     "SELECT id, name FROM students WHERE score > ? ORDER BY name ASC LIMIT ?"
//! );
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod normalize;
pub mod parser;
mod render;

pub use ast::{
    BinOp, ColumnRef, CreateIndex, CreateTable, Delete, Expr, Insert, Literal, OrderByItem,
    Select, SelectItem, Statement, TableRef, Update,
};
pub use error::ParseError;
pub use normalize::{NormalizedQuery, QueryFingerprint};

/// Parses a single SQL statement.
///
/// This is the main entry point of the crate. Trailing semicolons are
/// permitted; trailing garbage is an error.
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    parser::Parser::new(sql)?.parse_single_statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let sql = "SELECT a.x, b.y FROM a, b WHERE a.id = b.id AND a.z > 5";
        let stmt = parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        // Re-parsing the printed form must produce the same AST.
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(stmt, reparsed);
    }
}
