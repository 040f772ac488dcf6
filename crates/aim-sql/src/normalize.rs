//! Query normalization (parameterization), §III-A1 of the paper.
//!
//! A normalized query replaces every literal with a `?` placeholder so that
//! executions of the same query *shape* — differing only in constants —
//! aggregate under a single fingerprint in the workload monitor. `IN` lists
//! additionally collapse to a single placeholder, since list length varies
//! per execution, and a signed number (`-5`) is one constant.
//!
//! Two routes lead to a fingerprint. [`fingerprint`] streams the masked
//! printed form of the statement as it stands into an FNV-1a accumulator:
//! no tree, no text, no allocation — what the workload monitor pays per
//! recorded statement. [`normalize_statement`] also builds the
//! parameterized AST and the text, for first sight of a template and for
//! callers that want the tree. Both print through the one renderer of
//! [`crate::render`], so they cannot disagree on a byte.

use crate::ast::*;
use crate::render::{is_number, Renderer};
use std::fmt;

/// Stable 64-bit fingerprint of a normalized query (FNV-1a over its text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u64);

impl std::fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The result of normalizing a statement: the parameterized AST, its SQL
/// text, and a fingerprint derived from the text.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalizedQuery {
    pub statement: Statement,
    pub text: String,
    pub fingerprint: QueryFingerprint,
}

/// FNV-1a accumulator, usable as a `fmt::Write` sink so that anything
/// printable hashes without an intermediate `String`. Stable across runs
/// (unlike `DefaultHasher`, which is seeded per process) and independent of
/// how the input is split into writes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// The fingerprint of `stmt`'s normalized form, equal to
/// `normalize_statement(stmt).fingerprint`, computed without building it.
pub fn fingerprint(stmt: &Statement) -> QueryFingerprint {
    let mut hash = Fnv1a::new();
    Renderer::masked(&mut hash)
        .statement(stmt)
        .expect("the FNV-1a sink never fails");
    QueryFingerprint(hash.finish())
}

/// Initial capacity of a normalized text: most fit (the benchmark corpora
/// average 74 bytes and 0.2 % are longer), the rest grow.
const TEXT_CAPACITY: usize = 128;

/// Normalizes a statement by replacing every literal with `?` and collapsing
/// `IN` lists, then fingerprints the printed form.
pub fn normalize_statement(stmt: &Statement) -> NormalizedQuery {
    let statement = match stmt {
        Statement::Select(s) => Statement::Select(normalize_select(s)),
        Statement::Insert(i) => Statement::Insert(Insert {
            table: i.table.clone(),
            columns: i.columns.clone(),
            // All VALUES rows collapse to one row of placeholders: batch
            // size should not change the query's identity.
            rows: vec![vec![Expr::Literal(Literal::Param); i.columns.len().max(
                i.rows.first().map_or(0, Vec::len),
            )]],
        }),
        Statement::Update(u) => Statement::Update(Update {
            table: u.table.clone(),
            assignments: u
                .assignments
                .iter()
                .map(|(c, e)| (c.clone(), normalize_expr(e)))
                .collect(),
            where_clause: u.where_clause.as_ref().map(normalize_expr),
        }),
        Statement::Delete(d) => Statement::Delete(Delete {
            table: d.table.clone(),
            where_clause: d.where_clause.as_ref().map(normalize_expr),
        }),
        // DDL has no parameters worth collapsing.
        other => other.clone(),
    };
    // The text is the masked print of `stmt` itself, not the print of the
    // tree above: the two agree (the ingest golden and the property tests
    // check it), and `fingerprint` then matches by construction.
    let mut text = String::with_capacity(TEXT_CAPACITY);
    Renderer::masked(&mut text)
        .statement(stmt)
        .expect("a String sink never fails");
    let fingerprint = QueryFingerprint(fnv1a(text.as_bytes()));
    NormalizedQuery {
        statement,
        text,
        fingerprint,
    }
}

fn normalize_select(s: &Select) -> Select {
    Select {
        distinct: s.distinct,
        items: s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: normalize_expr(expr),
                    alias: alias.clone(),
                },
            })
            .collect(),
        from: s.from.clone(),
        where_clause: s.where_clause.as_ref().map(normalize_expr),
        group_by: s.group_by.iter().map(normalize_expr).collect(),
        having: s.having.as_ref().map(normalize_expr),
        order_by: s
            .order_by
            .iter()
            .map(|o| OrderByItem {
                expr: normalize_expr(&o.expr),
                desc: o.desc,
            })
            .collect(),
        limit: s.limit.as_ref().map(normalize_expr),
    }
}

fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Literal(_) => Expr::Literal(Literal::Param),
        // A signed number is one constant: `a = -5` and `a = 5` share a
        // template, as a `?` bound to either does.
        Expr::Neg(inner) if is_number(inner) => Expr::Literal(Literal::Param),
        Expr::Column(c) => Expr::Column(c.clone()),
        Expr::And(children) => Expr::And(children.iter().map(normalize_expr).collect()),
        Expr::Or(children) => Expr::Or(children.iter().map(normalize_expr).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(normalize_expr(inner))),
        Expr::Neg(inner) => Expr::Neg(Box::new(normalize_expr(inner))),
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(normalize_expr(left)),
            op: *op,
            right: Box::new(normalize_expr(right)),
        },
        Expr::InList {
            expr,
            list: _,
            negated,
        } => Expr::InList {
            expr: Box::new(normalize_expr(expr)),
            // Collapse the whole list to one placeholder.
            list: vec![Expr::Literal(Literal::Param)],
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(normalize_expr(expr)),
            low: Box::new(normalize_expr(low)),
            high: Box::new(normalize_expr(high)),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize_expr(expr)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(normalize_expr(expr)),
            pattern: Box::new(normalize_expr(pattern)),
            negated: *negated,
        },
        Expr::Aggregate {
            func,
            arg,
            distinct,
        } => Expr::Aggregate {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(normalize_expr(a))),
            distinct: *distinct,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_statement;

    fn norm(sql: &str) -> NormalizedQuery {
        normalize_statement(&parse_statement(sql).unwrap())
    }

    #[test]
    fn literals_become_params() {
        let n = norm("SELECT id, name FROM students WHERE score > 90");
        assert_eq!(n.text, "SELECT id, name FROM students WHERE score > ?");
    }

    #[test]
    fn same_shape_same_fingerprint() {
        let a = norm("SELECT x FROM t WHERE a = 1 AND b = 'p'");
        let b = norm("SELECT x FROM t WHERE a = 42 AND b = 'q'");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.text, b.text);
    }

    #[test]
    fn different_shape_different_fingerprint() {
        let a = norm("SELECT x FROM t WHERE a = 1");
        let b = norm("SELECT x FROM t WHERE b = 1");
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn in_lists_collapse() {
        let a = norm("SELECT x FROM t WHERE a IN (1, 2, 3)");
        let b = norm("SELECT x FROM t WHERE a IN (9)");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.text, "SELECT x FROM t WHERE a IN (?)");
    }

    #[test]
    fn insert_batch_size_collapses() {
        let a = norm("INSERT INTO t (a, b) VALUES (1, 2)");
        let b = norm("INSERT INTO t (a, b) VALUES (1, 2), (3, 4), (5, 6)");
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn update_and_delete_normalize() {
        let u = norm("UPDATE t SET a = 5 WHERE id = 9");
        assert_eq!(u.text, "UPDATE t SET a = ? WHERE id = ?");
        let d = norm("DELETE FROM t WHERE id = 9");
        assert_eq!(d.text, "DELETE FROM t WHERE id = ?");
    }

    #[test]
    fn normalization_is_idempotent() {
        let once = norm("SELECT x FROM t WHERE a = 1 AND b IN (1,2)");
        let twice = normalize_statement(&once.statement);
        assert_eq!(once.fingerprint, twice.fingerprint);
        assert_eq!(once.text, twice.text);
    }

    #[test]
    fn fnv1a_reference_vector() {
        // Known FNV-1a test vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn signed_literals_share_the_unsigned_template() {
        for (signed, unsigned) in [
            ("SELECT x FROM t WHERE a = -5", "SELECT x FROM t WHERE a = 5"),
            (
                "SELECT x FROM t WHERE a BETWEEN -1 AND 3",
                "SELECT x FROM t WHERE a BETWEEN 1 AND 3",
            ),
            ("SELECT x FROM t WHERE a IN (-1, 2)", "SELECT x FROM t WHERE a IN (1, 2)"),
            ("UPDATE t SET a = -1.5 WHERE id = 2", "UPDATE t SET a = 1.5 WHERE id = 2"),
        ] {
            let (s, u) = (norm(signed), norm(unsigned));
            assert_eq!(s.text, u.text, "{signed}");
            assert_eq!(s.fingerprint, u.fingerprint, "{signed}");
            assert_eq!(s.statement, u.statement, "{signed}");
        }
        assert_eq!(norm("SELECT x FROM t WHERE a = -5").text, "SELECT x FROM t WHERE a = ?");
        // Negating anything but a number stays an expression.
        assert_eq!(
            norm("SELECT x FROM t WHERE a = -b AND c = -(1 + 2)").text,
            "SELECT x FROM t WHERE a = -(b) AND c = -(? + ?)"
        );
    }

    #[test]
    fn streamed_fingerprint_and_printed_tree_agree_with_the_text() {
        for sql in [
            "SELECT id, name FROM students WHERE score > 90 ORDER BY name LIMIT 10",
            "SELECT DISTINCT a.x, COUNT(DISTINCT b.y) AS n FROM a, b AS bb WHERE a.id = bb.id \
             AND (a.z > 5 OR a.w <=> NULL) AND NOT a.v IN (1, 2) GROUP BY a.x HAVING COUNT(*) > 2",
            "SELECT x FROM t WHERE a NOT BETWEEN -1 AND 2.5 AND b NOT LIKE 'it''s%' AND c IS NULL",
            "SELECT `order` FROM \"select\" WHERE `my col` = TRUE",
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            "INSERT INTO t VALUES (1, 2, 3)",
            "UPDATE t SET a = a * 2, b = ? WHERE id = 7",
            "DELETE FROM t WHERE id IN (1, 2)",
            "CREATE TABLE t (id BIGINT, v VARCHAR(9), PRIMARY KEY (id))",
            "CREATE UNIQUE INDEX ix ON t (a, b)",
            "DROP INDEX ix ON t",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let n = normalize_statement(&stmt);
            assert_eq!(fingerprint(&stmt), n.fingerprint, "{sql}");
            assert_eq!(n.fingerprint.0, fnv1a(n.text.as_bytes()), "{sql}");
            assert_eq!(n.statement.to_string(), n.text, "{sql}");
        }
    }

    #[test]
    fn fnv1a_sink_ignores_how_the_input_is_split() {
        use std::fmt::Write as _;
        let mut split = Fnv1a::new();
        let (column, table) = ("a", 17);
        write!(split, "SELECT {column} FROM {table}").unwrap();
        assert_eq!(split.finish(), fnv1a(b"SELECT a FROM 17"));
    }

    #[test]
    fn order_by_direction_is_preserved() {
        let a = norm("SELECT x FROM t ORDER BY a DESC");
        let b = norm("SELECT x FROM t ORDER BY a ASC");
        assert_ne!(a.fingerprint, b.fingerprint);
    }
}
