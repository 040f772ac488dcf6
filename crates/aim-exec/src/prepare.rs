//! Prepared statements: binding values to `?` placeholders.
//!
//! Production clients execute *parameterized* statements; the workload
//! monitor's normalization (§III-A1) is the inverse operation. Binding
//! substitutes parameters in statement order (left to right across the
//! whole statement, as in MySQL's binary protocol).

use crate::error::ExecError;
use aim_sql::ast::{Delete, Expr, Insert, Literal, Select, SelectItem, Statement, Update};
use aim_storage::Value;

/// Binds `params` to the `?` placeholders of `stmt`, left to right.
/// Errors if the parameter count does not match the placeholder count.
pub fn bind_params(stmt: &Statement, params: &[Value]) -> Result<Statement, ExecError> {
    let mut binder = ParamBinder { params, next: 0 };
    let bound = binder.statement(stmt);
    if binder.next != params.len() {
        return Err(ExecError::Eval(format!(
            "parameter count mismatch: statement has {} placeholders, got {} values",
            binder.next,
            params.len()
        )));
    }
    bound
}

/// Counts the `?` placeholders of a statement.
pub fn param_count(stmt: &Statement) -> usize {
    let mut binder = ParamBinder {
        params: &[],
        next: 0,
    };
    // Count-only walk: binding errors are impossible with an empty slice
    // because `value()` only errors on exhaustion *after* counting.
    let _ = binder.statement(stmt);
    binder.next
}

struct ParamBinder<'a> {
    params: &'a [Value],
    next: usize,
}

impl ParamBinder<'_> {
    fn value(&mut self) -> Result<Literal, ExecError> {
        let i = self.next;
        self.next += 1;
        match self.params.get(i) {
            Some(Value::Int(v)) => Ok(Literal::Int(*v)),
            Some(Value::Float(v)) => Ok(Literal::Float(*v)),
            Some(Value::Str(s)) => Ok(Literal::Str(s.clone())),
            Some(Value::Bool(b)) => Ok(Literal::Bool(*b)),
            Some(Value::Null) => Ok(Literal::Null),
            Some(Value::MaxKey) => Err(ExecError::Eval("MaxKey is not bindable".into())),
            None => Err(ExecError::Eval(format!(
                "parameter count mismatch: placeholder #{} has no value",
                i + 1
            ))),
        }
    }

    fn statement(&mut self, stmt: &Statement) -> Result<Statement, ExecError> {
        Ok(match stmt {
            Statement::Select(s) => Statement::Select(self.select(s)?),
            Statement::Insert(i) => Statement::Insert(Insert {
                table: i.table.clone(),
                columns: i.columns.clone(),
                rows: i
                    .rows
                    .iter()
                    .map(|row| row.iter().map(|e| self.expr(e)).collect())
                    .collect::<Result<_, _>>()?,
            }),
            Statement::Update(u) => Statement::Update(Update {
                table: u.table.clone(),
                assignments: u
                    .assignments
                    .iter()
                    .map(|(c, e)| Ok((c.clone(), self.expr(e)?)))
                    .collect::<Result<_, ExecError>>()?,
                where_clause: u.where_clause.as_ref().map(|e| self.expr(e)).transpose()?,
            }),
            Statement::Delete(d) => Statement::Delete(Delete {
                table: d.table.clone(),
                where_clause: d.where_clause.as_ref().map(|e| self.expr(e)).transpose()?,
            }),
            other => other.clone(),
        })
    }

    fn select(&mut self, s: &Select) -> Result<Select, ExecError> {
        Ok(Select {
            distinct: s.distinct,
            items: s
                .items
                .iter()
                .map(|item| {
                    Ok(match item {
                        SelectItem::Wildcard => SelectItem::Wildcard,
                        SelectItem::Expr { expr, alias } => SelectItem::Expr {
                            expr: self.expr(expr)?,
                            alias: alias.clone(),
                        },
                    })
                })
                .collect::<Result<_, ExecError>>()?,
            from: s.from.clone(),
            where_clause: s.where_clause.as_ref().map(|e| self.expr(e)).transpose()?,
            group_by: s
                .group_by
                .iter()
                .map(|e| self.expr(e))
                .collect::<Result<_, _>>()?,
            having: s.having.as_ref().map(|e| self.expr(e)).transpose()?,
            order_by: s
                .order_by
                .iter()
                .map(|o| {
                    Ok(aim_sql::ast::OrderByItem {
                        expr: self.expr(&o.expr)?,
                        desc: o.desc,
                    })
                })
                .collect::<Result<_, ExecError>>()?,
            limit: s.limit.as_ref().map(|e| self.expr(e)).transpose()?,
        })
    }

    fn expr(&mut self, e: &Expr) -> Result<Expr, ExecError> {
        Ok(match e {
            Expr::Literal(Literal::Param) => {
                // Count first; exhaustion is reported only when values were
                // actually supplied (param_count relies on this).
                if self.params.is_empty() {
                    self.next += 1;
                    Expr::Literal(Literal::Param)
                } else {
                    Expr::Literal(self.value()?)
                }
            }
            Expr::Literal(l) => Expr::Literal(l.clone()),
            Expr::Column(c) => Expr::Column(c.clone()),
            Expr::And(cs) => Expr::And(
                cs.iter().map(|c| self.expr(c)).collect::<Result<_, _>>()?,
            ),
            Expr::Or(cs) => Expr::Or(
                cs.iter().map(|c| self.expr(c)).collect::<Result<_, _>>()?,
            ),
            Expr::Not(i) => Expr::Not(Box::new(self.expr(i)?)),
            Expr::Neg(i) => Expr::Neg(Box::new(self.expr(i)?)),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(self.expr(left)?),
                op: *op,
                right: Box::new(self.expr(right)?),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.expr(expr)?),
                list: list.iter().map(|c| self.expr(c)).collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(self.expr(expr)?),
                low: Box::new(self.expr(low)?),
                high: Box::new(self.expr(high)?),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.expr(expr)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(self.expr(expr)?),
                pattern: Box::new(self.expr(pattern)?),
                negated: *negated,
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => Expr::Aggregate {
                func: *func,
                arg: arg
                    .as_ref()
                    .map(|a| Ok::<_, ExecError>(Box::new(self.expr(a)?)))
                    .transpose()?,
                distinct: *distinct,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;

    #[test]
    fn binds_in_statement_order() {
        let stmt = parse_statement("SELECT id FROM t WHERE a = ? AND b IN (?, ?) LIMIT ?")
            .unwrap();
        assert_eq!(param_count(&stmt), 4);
        let bound = bind_params(
            &stmt,
            &[
                Value::Int(1),
                Value::Str("x".into()),
                Value::Str("y".into()),
                Value::Int(5),
            ],
        )
        .unwrap();
        assert_eq!(
            bound.to_string(),
            "SELECT id FROM t WHERE a = 1 AND b IN ('x', 'y') LIMIT 5"
        );
    }

    #[test]
    fn count_mismatch_is_error() {
        let stmt = parse_statement("SELECT id FROM t WHERE a = ?").unwrap();
        assert!(bind_params(&stmt, &[]).is_err());
        assert!(bind_params(&stmt, &[Value::Int(1), Value::Int(2)]).is_err());
        assert!(bind_params(&stmt, &[Value::Int(1)]).is_ok());
    }

    #[test]
    fn dml_parameters() {
        let stmt =
            parse_statement("UPDATE t SET a = ? WHERE id = ?").unwrap();
        let bound = bind_params(&stmt, &[Value::Int(9), Value::Int(3)]).unwrap();
        assert_eq!(bound.to_string(), "UPDATE t SET a = 9 WHERE id = 3");
        let stmt = parse_statement("INSERT INTO t (id, a) VALUES (?, ?)").unwrap();
        let bound = bind_params(&stmt, &[Value::Int(1), Value::Null]).unwrap();
        assert_eq!(bound.to_string(), "INSERT INTO t (id, a) VALUES (1, NULL)");
    }

    #[test]
    fn statements_without_params_pass_through() {
        let stmt = parse_statement("SELECT id FROM t WHERE a = 5").unwrap();
        assert_eq!(param_count(&stmt), 0);
        assert_eq!(bind_params(&stmt, &[]).unwrap(), stmt);
    }

    #[test]
    fn bound_statement_normalizes_back_to_original() {
        use aim_sql::normalize::normalize_statement;
        let stmt = parse_statement("SELECT id FROM t WHERE a = ? AND b > ?").unwrap();
        let bound =
            bind_params(&stmt, &[Value::Int(7), Value::Float(1.5)]).unwrap();
        // Normalizing the bound statement recovers the prepared shape.
        assert_eq!(
            normalize_statement(&bound).text,
            normalize_statement(&stmt).text
        );
    }

    #[test]
    fn negative_binding_normalizes_like_its_printed_text() {
        use aim_sql::normalize::normalize_statement;
        let stmt = parse_statement("SELECT id FROM t WHERE a = ? AND b BETWEEN ? AND ?").unwrap();
        let bound = bind_params(
            &stmt,
            &[Value::Int(-5), Value::Float(-1.5), Value::Int(3)],
        )
        .unwrap();
        // `-5` prints as a literal and parses back as a negation of one:
        // all three forms are the prepared template.
        let reparsed = parse_statement(&bound.to_string()).unwrap();
        assert_ne!(reparsed, bound);
        let template = normalize_statement(&stmt);
        assert_eq!(normalize_statement(&bound).fingerprint, template.fingerprint);
        assert_eq!(normalize_statement(&reparsed).fingerprint, template.fingerprint);
        assert_eq!(normalize_statement(&reparsed).text, template.text);
    }
}
