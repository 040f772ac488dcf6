//! Predicate analysis for planning.
//!
//! Decomposes a WHERE clause into:
//!
//! * *sargable* atomic predicates per table instance (equality, IN-list,
//!   range) that an index access path can serve,
//! * *join* predicates (`t1.a = t2.b`) forming the join graph, and
//! * a single-table *disjunction* shape usable by an index-merge union.
//!
//! The advisor reads a query through the same functions ([`as_sarg`],
//! [`as_join`]), so a column it builds a candidate from is one an access
//! path can serve.
//!
//! The executor always re-applies the full WHERE clause as a residual
//! filter, so the analysis here only has to be sound for narrowing, never
//! for final correctness.

use crate::bind::{Binder, BoundColumn};
use crate::error::ExecError;
use crate::eval::literal_value;
use aim_sql::ast::{BinOp, Expr, Literal};
use aim_storage::Value;
use std::ops::Bound;

/// The comparand of a sargable predicate: a known constant, or an unknown
/// `?` parameter (present in normalized queries during what-if costing).
#[derive(Debug, Clone, PartialEq)]
pub enum SargValue {
    Const(Value),
    Unknown,
}

impl SargValue {
    /// The constant, if known.
    pub fn value(&self) -> Option<&Value> {
        match self {
            SargValue::Const(v) => Some(v),
            SargValue::Unknown => None,
        }
    }
}

/// A sargable atomic predicate on one column.
#[derive(Debug, Clone, PartialEq)]
pub enum Sarg {
    /// `col = v`, `col <=> v` or `col IS NULL`: an *index prefix predicate*
    /// (§IV-B2).
    Eq { col: BoundColumn, value: SargValue },
    /// `col IN (v1, .., vn)`: prefix-compatible, fans out to n probes.
    InList {
        col: BoundColumn,
        values: Vec<SargValue>,
    },
    /// `col (<|<=|>|>=|BETWEEN) ...`: a range — usable as the column right
    /// after the equality prefix, but not prefix-compatible itself.
    Range {
        col: BoundColumn,
        lo: Bound<SargValue>,
        hi: Bound<SargValue>,
    },
}

impl Sarg {
    /// The column this predicate constrains.
    pub fn column(&self) -> BoundColumn {
        match self {
            Sarg::Eq { col, .. } | Sarg::InList { col, .. } | Sarg::Range { col, .. } => *col,
        }
    }
}

/// An equality join edge between two table instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinPred {
    pub left: BoundColumn,
    pub right: BoundColumn,
}

impl JoinPred {
    /// Returns the side of this edge on `table_idx`, and the other side,
    /// if the edge touches that table.
    pub fn side_for(&self, table_idx: usize) -> Option<(BoundColumn, BoundColumn)> {
        if self.left.table_idx == table_idx {
            Some((self.left, self.right))
        } else if self.right.table_idx == table_idx {
            Some((self.right, self.left))
        } else {
            None
        }
    }
}

/// Result of analyzing a WHERE clause against a binder.
#[derive(Debug, Clone, Default)]
pub struct PredicateAnalysis {
    /// Sargable predicates, indexed by table instance.
    pub sargs: Vec<Vec<Sarg>>,
    /// Equality join edges.
    pub joins: Vec<JoinPred>,
    /// If the WHERE clause is a top-level OR whose every branch is a
    /// conjunction of sargable predicates on the *same single table*, the
    /// per-branch sargs (enables index-merge union on one table).
    pub or_branches: Option<Vec<Vec<Sarg>>>,
}

impl PredicateAnalysis {
    /// Analyzes an optional WHERE clause.
    pub fn analyze(where_clause: Option<&Expr>, binder: &Binder) -> Result<Self, ExecError> {
        let mut a = PredicateAnalysis {
            sargs: vec![Vec::new(); binder.len()],
            joins: Vec::new(),
            or_branches: None,
        };
        let Some(pred) = where_clause else {
            return Ok(a);
        };

        for c in conjuncts(pred) {
            a.classify_conjunct(c, binder);
        }

        // Top-level OR over one table: collect per-branch sargs.
        if let [Expr::Or(branches)] = conjuncts(pred) {
            a.or_branches = Self::analyze_or(branches, binder);
        }
        Ok(a)
    }

    fn analyze_or(branches: &[Expr], binder: &Binder) -> Option<Vec<Vec<Sarg>>> {
        let mut result = Vec::with_capacity(branches.len());
        let mut table: Option<usize> = None;
        for branch in branches {
            let mut branch_sargs = Vec::new();
            for p in conjuncts(branch) {
                let sarg = as_sarg(p, binder)?;
                match table {
                    None => table = Some(sarg.column().table_idx),
                    Some(t) if t == sarg.column().table_idx => {}
                    Some(_) => return None,
                }
                branch_sargs.push(sarg);
            }
            if branch_sargs.is_empty() {
                return None;
            }
            result.push(branch_sargs);
        }
        Some(result)
    }

    fn classify_conjunct(&mut self, conjunct: &Expr, binder: &Binder) {
        if let Some(join) = as_join(conjunct, binder) {
            self.joins.push(join);
        } else if let Some(sarg) = as_sarg(conjunct, binder) {
            self.sargs[sarg.column().table_idx].push(sarg);
        }
        // Non-sargable conjuncts are handled by the residual filter.
    }
}

/// The top-level conjuncts of a predicate: an AND's children, or the
/// predicate itself.
pub fn conjuncts(e: &Expr) -> &[Expr] {
    match e {
        Expr::And(children) => children,
        other => std::slice::from_ref(other),
    }
}

/// Views a top-level conjunct as an equality join edge: `col = col` across
/// two different table instances. Below an OR or a NOT an equality is not
/// an edge, so callers pass conjuncts only.
pub fn as_join(e: &Expr, binder: &Binder) -> Option<JoinPred> {
    let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = e
    else {
        return None;
    };
    let (Expr::Column(lc), Expr::Column(rc)) = (left.as_ref(), right.as_ref()) else {
        return None;
    };
    let (left, right) = (binder.resolve(lc).ok()?, binder.resolve(rc).ok()?);
    (left.table_idx != right.table_idx).then_some(JoinPred { left, right })
}

fn to_sarg_value(e: &Expr) -> Option<SargValue> {
    match e {
        Expr::Literal(Literal::Param) => Some(SargValue::Unknown),
        Expr::Literal(lit) => literal_value(lit).ok().map(SargValue::Const),
        Expr::Neg(inner) => match inner.as_ref() {
            Expr::Literal(Literal::Int(v)) => Some(SargValue::Const(Value::Int(-v))),
            Expr::Literal(Literal::Float(v)) => Some(SargValue::Const(Value::Float(-v))),
            _ => None,
        },
        _ => None,
    }
}

/// Attempts to view an expression as a sargable predicate. `IS NULL` is an
/// equality on NULL, planned as `<=> NULL` is; `= NULL` plans the same
/// probe and the residual filter then keeps no row.
pub fn as_sarg(e: &Expr, binder: &Binder) -> Option<Sarg> {
    match e {
        Expr::IsNull {
            expr,
            negated: false,
        } => {
            let Expr::Column(c) = expr.as_ref() else {
                return None;
            };
            Some(Sarg::Eq {
                col: binder.resolve(c).ok()?,
                value: SargValue::Const(Value::Null),
            })
        }
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Normalise to column-on-the-left.
            let (col_expr, val_expr, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(_), _) => (left.as_ref(), right.as_ref(), *op),
                (_, Expr::Column(_)) => (right.as_ref(), left.as_ref(), flip(*op)),
                _ => return None,
            };
            let Expr::Column(c) = col_expr else {
                return None;
            };
            let col = binder.resolve(c).ok()?;
            let value = to_sarg_value(val_expr)?;
            match op {
                op if op.is_prefix_compatible() => Some(Sarg::Eq { col, value }),
                BinOp::Gt => Some(Sarg::Range {
                    col,
                    lo: Bound::Excluded(value),
                    hi: Bound::Unbounded,
                }),
                BinOp::GtEq => Some(Sarg::Range {
                    col,
                    lo: Bound::Included(value),
                    hi: Bound::Unbounded,
                }),
                BinOp::Lt => Some(Sarg::Range {
                    col,
                    lo: Bound::Unbounded,
                    hi: Bound::Excluded(value),
                }),
                BinOp::LtEq => Some(Sarg::Range {
                    col,
                    lo: Bound::Unbounded,
                    hi: Bound::Included(value),
                }),
                _ => None,
            }
        }
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let Expr::Column(c) = expr.as_ref() else {
                return None;
            };
            let col = binder.resolve(c).ok()?;
            let values: Option<Vec<SargValue>> = list.iter().map(to_sarg_value).collect();
            Some(Sarg::InList {
                col,
                values: values?,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            let Expr::Column(c) = expr.as_ref() else {
                return None;
            };
            let col = binder.resolve(c).ok()?;
            Some(Sarg::Range {
                col,
                lo: Bound::Included(to_sarg_value(low)?),
                hi: Bound::Included(to_sarg_value(high)?),
            })
        }
        _ => None,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::{parse_statement, Statement};
    use aim_storage::{ColumnDef, ColumnType, Database, TableSchema};

    fn analyze(sql: &str) -> (PredicateAnalysis, Binder) {
        let mut db = Database::new();
        for (name, cols) in [
            ("t1", vec!["id", "a", "b", "c"]),
            ("t2", vec!["id", "x", "y"]),
        ] {
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
        let select = match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let binder = Binder::for_select(&db, &select).unwrap();
        let a = PredicateAnalysis::analyze(select.where_clause.as_ref(), &binder).unwrap();
        (a, binder)
    }

    #[test]
    fn equality_and_range_classified() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a = 5 AND b > 3 AND c BETWEEN 1 AND 9");
        assert_eq!(a.sargs[0].len(), 3);
        assert_eq!(
            a.sargs[0]
                .iter()
                .filter(|s| matches!(s, Sarg::Range { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn in_list_is_prefix_compatible() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a IN (1, 2, 3)");
        match &a.sargs[0][0] {
            Sarg::InList { values, .. } => assert_eq!(values.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_edges_detected() {
        let (a, _) = analyze("SELECT t1.a FROM t1, t2 WHERE t1.a = t2.x AND t1.b = 5");
        assert_eq!(a.joins.len(), 1);
        assert_eq!(a.sargs[0].len(), 1);
        assert!(a.joins[0].side_for(0).is_some());
        assert!(a.joins[0].side_for(1).is_some());
        assert!(a.joins[0].side_for(2).is_none());
    }

    #[test]
    fn flipped_comparison_normalised() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE 5 < a");
        match &a.sargs[0][0] {
            Sarg::Range { lo, hi, .. } => {
                assert!(matches!(
                    lo,
                    Bound::Excluded(SargValue::Const(Value::Int(5)))
                ));
                assert!(matches!(hi, Bound::Unbounded));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn params_become_unknown() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a = ? AND b > ?");
        match &a.sargs[0][0] {
            Sarg::Eq { value, .. } => assert_eq!(*value, SargValue::Unknown),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn or_branches_single_table() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE (a = 1 AND b = 2) OR (c = 3)");
        let branches = a.or_branches.unwrap();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].len(), 2);
        assert_eq!(branches[1].len(), 1);
    }

    #[test]
    fn or_across_tables_not_mergeable() {
        let (a, _) = analyze("SELECT t1.a FROM t1, t2 WHERE t1.a = 1 OR t2.x = 2");
        assert!(a.or_branches.is_none());
    }

    #[test]
    fn or_with_unsargable_branch_not_mergeable() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a = 1 OR b + 1 = 2");
        assert!(a.or_branches.is_none());
    }

    #[test]
    fn is_null_is_an_equality_on_null() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a IS NULL AND b <=> NULL AND c IS NOT NULL");
        let null = SargValue::Const(Value::Null);
        assert_eq!(a.sargs[0].len(), 2);
        for sarg in &a.sargs[0] {
            assert!(
                matches!(sarg, Sarg::Eq { value, .. } if *value == null),
                "{sarg:?}"
            );
        }
    }

    #[test]
    fn negated_forms_are_not_sargable() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a NOT IN (1) AND b NOT BETWEEN 1 AND 2");
        assert!(a.sargs[0].is_empty());
    }

    #[test]
    fn negative_literal_constant() {
        let (a, _) = analyze("SELECT a FROM t1 WHERE a = -5");
        match &a.sargs[0][0] {
            Sarg::Eq { value, .. } => {
                assert_eq!(*value, SargValue::Const(Value::Int(-5)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_where_clause() {
        let (a, _) = analyze("SELECT a FROM t1");
        assert!(a.sargs[0].is_empty());
        assert!(a.joins.is_empty());
    }
}
