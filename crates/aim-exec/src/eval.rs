//! Scalar expression evaluation over bound expressions.
//!
//! An [`Expr`] is compiled once per statement into a [`BoundExpr`]: column
//! references become `(table_idx, col_idx)` slots, literals become pre-built
//! [`Value`]s and aggregate calls become accumulator slots. Name-resolution
//! errors, unbound `?` parameters and aggregates in a scalar context surface
//! at bind time, before any row is read.
//!
//! A bound expression is evaluated against a *tuple*: one optional row per
//! bound table instance (inner tables of a join may not be bound yet).
//! Evaluation reads through references ([`Cow::Borrowed`]) and allocates
//! only for computed values. SQL three-valued logic is modelled with
//! [`Value::Null`]: comparisons against NULL yield NULL, and filters treat
//! NULL as false.

use crate::bind::{Binder, BoundColumn, Scope};
use crate::error::ExecError;
use aim_sql::ast::{AggFunc, BinOp, Expr, Literal};
use aim_storage::{Row, Value};
use std::borrow::Cow;

/// Converts a literal to a runtime value.
pub fn literal_value(lit: &Literal) -> Result<Value, ExecError> {
    match lit {
        Literal::Int(v) => Ok(Value::Int(*v)),
        Literal::Float(v) => Ok(Value::Float(*v)),
        Literal::Str(s) => Ok(Value::Str(s.clone())),
        Literal::Bool(b) => Ok(Value::Bool(*b)),
        Literal::Null => Ok(Value::Null),
        Literal::Param => Err(ExecError::Eval(
            "unbound ? parameter at execution time".into(),
        )),
    }
}

/// An expression with every name resolved, ready for per-row evaluation.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Const(Value),
    /// A value slot of the tuple: `col_idx` indexes the slot of table
    /// instance `table_idx` (a clustered row, or a covering index entry
    /// when the scope mapped the column onto one).
    Column(BoundColumn),
    /// The finished value of the statement's `n`-th distinct aggregate.
    Agg(usize),
    Neg(Box<BoundExpr>),
    Not(Box<BoundExpr>),
    And(Vec<BoundExpr>),
    Or(Vec<BoundExpr>),
    Binary {
        left: Box<BoundExpr>,
        op: BinOp,
        right: Box<BoundExpr>,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
}

/// One distinct aggregate call of a statement; its argument is bound in
/// scalar context (`None` encodes `COUNT(*)`).
#[derive(Debug, Clone)]
pub struct BoundAggregate {
    pub func: AggFunc,
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
}

/// The distinct aggregate calls collected while binding a statement's
/// post-aggregation expressions (select items, HAVING, ORDER BY). Equal
/// calls share one accumulator slot.
#[derive(Debug, Default)]
pub struct AggregateSlots<'e> {
    sources: Vec<&'e Expr>,
    pub bound: Vec<BoundAggregate>,
}

impl BoundExpr {
    /// Binds `expr` in scalar context against full table rows: aggregates
    /// are rejected.
    pub fn bind(expr: &Expr, binder: &Binder) -> Result<Self, ExecError> {
        Self::bind_in(expr, &Scope::rows(binder), None)
    }

    /// Binds `expr` in `scope`. With `aggs`, aggregate calls become
    /// [`BoundExpr::Agg`] slots (their arguments bound in scalar context);
    /// without, they are an error.
    pub fn bind_in<'e>(
        expr: &'e Expr,
        scope: &Scope<'_>,
        mut aggs: Option<&mut AggregateSlots<'e>>,
    ) -> Result<Self, ExecError> {
        let mut bind = |e: &'e Expr| Self::bind_in(e, scope, aggs.as_deref_mut());
        let mut boxed = |e: &'e Expr| bind(e).map(Box::new);
        Ok(match expr {
            Expr::Literal(lit) => BoundExpr::Const(literal_value(lit)?),
            Expr::Column(c) => match scope.resolve(c)? {
                Some(bc) => BoundExpr::Column(bc),
                // A column the slot's covering index entry does not carry.
                None => BoundExpr::Const(Value::Null),
            },
            Expr::Neg(inner) => BoundExpr::Neg(boxed(inner)?),
            Expr::Not(inner) => BoundExpr::Not(boxed(inner)?),
            Expr::And(children) => {
                BoundExpr::And(children.iter().map(bind).collect::<Result<_, _>>()?)
            }
            Expr::Or(children) => {
                BoundExpr::Or(children.iter().map(bind).collect::<Result<_, _>>()?)
            }
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: boxed(left)?,
                op: *op,
                right: boxed(right)?,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: boxed(expr)?,
                list: list.iter().map(bind).collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: boxed(expr)?,
                low: boxed(low)?,
                high: boxed(high)?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: boxed(expr)?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: boxed(expr)?,
                pattern: boxed(pattern)?,
                negated: *negated,
            },
            Expr::Aggregate {
                func,
                arg,
                distinct,
            } => {
                let Some(slots) = aggs else {
                    return Err(ExecError::Eval(
                        "aggregate evaluated in scalar context".into(),
                    ));
                };
                if let Some(slot) = slots.sources.iter().position(|s| *s == expr) {
                    return Ok(BoundExpr::Agg(slot));
                }
                let arg = match arg {
                    Some(a) => Some(Self::bind_in(a, scope, None)?),
                    None => None,
                };
                slots.sources.push(expr);
                slots.bound.push(BoundAggregate {
                    func: *func,
                    arg,
                    distinct: *distinct,
                });
                BoundExpr::Agg(slots.bound.len() - 1)
            }
        })
    }

    /// Calls `f` for every column slot the expression reads.
    pub fn for_each_column(&self, f: &mut impl FnMut(BoundColumn)) {
        match self {
            BoundExpr::Column(bc) => f(*bc),
            BoundExpr::Const(_) | BoundExpr::Agg(_) => {}
            BoundExpr::Neg(e) | BoundExpr::Not(e) | BoundExpr::IsNull { expr: e, .. } => {
                e.for_each_column(f)
            }
            BoundExpr::And(cs) | BoundExpr::Or(cs) => cs.iter().for_each(|c| c.for_each_column(f)),
            BoundExpr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.for_each_column(f);
                list.iter().for_each(|c| c.for_each_column(f));
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.for_each_column(f);
                low.for_each_column(f);
                high.for_each_column(f);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.for_each_column(f);
                pattern.for_each_column(f);
            }
        }
    }

    /// Calls `f` for every column slot the expression reads, to rebind it.
    pub fn for_each_column_mut(&mut self, f: &mut impl FnMut(&mut BoundColumn)) {
        match self {
            BoundExpr::Column(bc) => f(bc),
            BoundExpr::Const(_) | BoundExpr::Agg(_) => {}
            BoundExpr::Neg(e) | BoundExpr::Not(e) | BoundExpr::IsNull { expr: e, .. } => {
                e.for_each_column_mut(f)
            }
            BoundExpr::And(cs) | BoundExpr::Or(cs) => {
                cs.iter_mut().for_each(|c| c.for_each_column_mut(f))
            }
            BoundExpr::Binary { left, right, .. } => {
                left.for_each_column_mut(f);
                right.for_each_column_mut(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.for_each_column_mut(f);
                list.iter_mut().for_each(|c| c.for_each_column_mut(f));
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                expr.for_each_column_mut(f);
                low.for_each_column_mut(f);
                high.for_each_column_mut(f);
            }
            BoundExpr::Like { expr, pattern, .. } => {
                expr.for_each_column_mut(f);
                pattern.for_each_column_mut(f);
            }
        }
    }

    /// True when this predicate cannot fail over a tuple whose slots it
    /// reads are bound: a comparison, IN, BETWEEN or IS NULL over columns
    /// and constants, which [`Value`]'s total order answers for any
    /// operands. Anything else may (overflow, `LIKE` on a number, ...).
    pub fn cannot_fail(&self) -> bool {
        let operand = |e: &BoundExpr| matches!(e, BoundExpr::Column(_) | BoundExpr::Const(_));
        match self {
            BoundExpr::Binary { left, op, right } => {
                op.is_comparison() && operand(left) && operand(right)
            }
            BoundExpr::InList { expr, list, .. } => operand(expr) && list.iter().all(operand),
            BoundExpr::Between {
                expr, low, high, ..
            } => operand(expr) && operand(low) && operand(high),
            BoundExpr::IsNull { expr, .. } => operand(expr),
            _ => false,
        }
    }

    /// True if this filter predicate accepts the tuple (NULL rejects).
    pub fn accepts(&self, tuple: &[Option<&Row>], aggs: &[Value]) -> Result<bool, ExecError> {
        Ok(self.truth(tuple, aggs, None)? == Some(true))
    }

    /// Three-valued truth of a predicate (`None` is NULL), computed without
    /// building a [`Value`]: its operands are read where they lie
    /// ([`BoundExpr::read`]). A non-boolean value is an error named after
    /// the `operator` (AND, OR, NOT) consuming it; at the top of a filter
    /// it is merely not true.
    fn truth(
        &self,
        tuple: &[Option<&Row>],
        aggs: &[Value],
        operator: Option<&'static str>,
    ) -> Result<Option<bool>, ExecError> {
        Ok(match self {
            BoundExpr::Not(inner) => inner.truth(tuple, aggs, Some("NOT"))?.map(|b| !b),
            BoundExpr::And(children) => {
                // SQL three-valued AND: false dominates, then NULL.
                let mut saw_null = false;
                for c in children {
                    match c.truth(tuple, aggs, Some("AND"))? {
                        Some(false) => return Ok(Some(false)),
                        Some(true) => {}
                        None => saw_null = true,
                    }
                }
                (!saw_null).then_some(true)
            }
            BoundExpr::Or(children) => {
                let mut saw_null = false;
                for c in children {
                    match c.truth(tuple, aggs, Some("OR"))? {
                        Some(true) => return Ok(Some(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                (!saw_null).then_some(false)
            }
            BoundExpr::Binary { left, op, right } if op.is_comparison() => {
                let (mut l_held, mut r_held) = (None, None);
                let l = left.read(tuple, aggs, &mut l_held)?;
                compare(l, *op, right.read(tuple, aggs, &mut r_held)?)
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let mut v_held = None;
                let v = expr.read(tuple, aggs, &mut v_held)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    let mut iv_held = None;
                    let iv = item.read(tuple, aggs, &mut iv_held)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if iv == v {
                        return Ok(Some(!negated));
                    }
                }
                (!saw_null).then_some(*negated)
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (mut v_held, mut lo_held, mut hi_held) = (None, None, None);
                let v = expr.read(tuple, aggs, &mut v_held)?;
                let lo = low.read(tuple, aggs, &mut lo_held)?;
                let hi = high.read(tuple, aggs, &mut hi_held)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(None);
                }
                let inside = v >= lo && v <= hi;
                Some(inside != *negated)
            }
            BoundExpr::IsNull { expr, negated } => {
                Some(expr.read(tuple, aggs, &mut None)?.is_null() != *negated)
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (mut v_held, mut p_held) = (None, None);
                let v = expr.read(tuple, aggs, &mut v_held)?;
                match (v, pattern.read(tuple, aggs, &mut p_held)?) {
                    (Value::Null, _) | (_, Value::Null) => None,
                    (Value::Str(s), Value::Str(pat)) => Some(like_match(s, pat) != *negated),
                    (a, b) => return Err(ExecError::Eval(format!("LIKE on non-strings {a}, {b}"))),
                }
            }
            value => match (&*value.eval(tuple, aggs)?, operator) {
                (Value::Bool(b), _) => Some(*b),
                (Value::Null, _) => None,
                (_, None) => Some(false),
                (other, Some(operator)) => {
                    return Err(ExecError::Eval(format!(
                        "{operator} of non-boolean {other}"
                    )))
                }
            },
        })
    }

    /// An operand of a predicate: a constant, a column of a bound slot or
    /// an aggregate's value, read in place; anything else
    /// [`BoundExpr::eval`] computes into `held`. An unbound slot is left to
    /// `eval`, whose error it is.
    #[inline]
    fn read<'v>(
        &'v self,
        tuple: &[Option<&'v Row>],
        aggs: &'v [Value],
        held: &'v mut Option<Cow<'v, Value>>,
    ) -> Result<&'v Value, ExecError> {
        match self {
            BoundExpr::Const(v) => Ok(v),
            BoundExpr::Column(bc) => match tuple.get(bc.table_idx) {
                Some(Some(row)) => Ok(&row[bc.col_idx]),
                _ => Ok(held.insert(self.eval(tuple, aggs)?)),
            },
            BoundExpr::Agg(slot) => Ok(&aggs[*slot]),
            _ => Ok(held.insert(self.eval(tuple, aggs)?)),
        }
    }

    /// Evaluates against `tuple` (one slot per bound table instance) and
    /// the finished aggregate values `aggs` (empty outside post-aggregation
    /// expressions). Column, constant and aggregate reads are borrowed.
    pub fn eval<'r>(
        &'r self,
        tuple: &[Option<&'r Row>],
        aggs: &'r [Value],
    ) -> Result<Cow<'r, Value>, ExecError> {
        use Cow::{Borrowed, Owned};
        Ok(match self {
            BoundExpr::Const(v) => Borrowed(v),
            BoundExpr::Column(bc) => match tuple.get(bc.table_idx) {
                Some(Some(row)) => Borrowed(&row[bc.col_idx]),
                Some(None) => {
                    return Err(ExecError::Eval(format!(
                        "table instance {} is not bound in this context",
                        bc.table_idx
                    )))
                }
                None => {
                    return Err(ExecError::Eval(format!(
                        "table index {} out of range",
                        bc.table_idx
                    )))
                }
            },
            BoundExpr::Agg(slot) => Borrowed(&aggs[*slot]),
            BoundExpr::Neg(inner) => Owned(match &*inner.eval(tuple, aggs)? {
                Value::Int(i) => Value::Int(
                    i.checked_neg()
                        .ok_or_else(|| ExecError::Eval("integer overflow".into()))?,
                ),
                Value::Float(f) => Value::Float(-f),
                Value::Null => Value::Null,
                other => return Err(ExecError::Eval(format!("cannot negate {other}"))),
            }),
            BoundExpr::Binary { left, op, right } if !op.is_comparison() => {
                let l = left.eval(tuple, aggs)?;
                let r = right.eval(tuple, aggs)?;
                Owned(eval_binary(&l, *op, &r)?)
            }
            predicate => Owned(truth_value(predicate.truth(tuple, aggs, None)?)),
        })
    }
}

/// The SQL value of a three-valued truth.
fn truth_value(truth: Option<bool>) -> Value {
    truth.map_or(Value::Null, Value::Bool)
}

/// Three-valued result of a comparison operator.
fn compare(l: &Value, op: BinOp, r: &Value) -> Option<bool> {
    use BinOp::*;
    if op == NullSafeEq {
        return Some(l == r);
    }
    if l.is_null() || r.is_null() {
        return None;
    }
    let ord = l.cmp(r);
    Some(match op {
        Eq => ord.is_eq(),
        NotEq => ord.is_ne(),
        Lt => ord.is_lt(),
        LtEq => ord.is_le(),
        Gt => ord.is_gt(),
        GtEq => ord.is_ge(),
        _ => unreachable!("not a comparison operator"),
    })
}

/// Evaluates a binary operator on two values.
pub fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value, ExecError> {
    use BinOp::*;
    if op.is_comparison() {
        return Ok(truth_value(compare(l, op, r)));
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let v = match op {
                Add => a.checked_add(*b),
                Sub => a.checked_sub(*b),
                Mul => a.checked_mul(*b),
                Div => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_div(*b)
                }
                Mod => {
                    if *b == 0 {
                        return Ok(Value::Null);
                    }
                    a.checked_rem(*b)
                }
                _ => unreachable!("comparison handled above"),
            };
            v.map(Value::Int)
                .ok_or_else(|| ExecError::Eval("integer overflow".into()))
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(ExecError::Eval(format!(
                    "arithmetic on non-numeric values {l}, {r}"
                )));
            };
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a % b
                }
                _ => unreachable!("comparison handled above"),
            };
            Ok(Value::Float(v))
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    let mut s = s.chars();
    let mut p = pattern.chars();
    // After the last `%` seen: the pattern behind it and the subject
    // position its run currently ends at. On a mismatch the run grows by
    // one char and matching resumes from there.
    let mut retry: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let mut rest = p.clone();
        match rest.next() {
            Some('%') => {
                p = rest;
                retry = Some((p.clone(), s.clone()));
                continue;
            }
            Some(pc) => {
                let mut after = s.clone();
                if after.next().is_some_and(|sc| pc == '_' || pc == sc) {
                    p = rest;
                    s = after;
                    continue;
                }
            }
            None => {
                if s.clone().next().is_none() {
                    return true;
                }
            }
        }
        match &mut retry {
            Some((after_percent, run_end)) => {
                if run_end.next().is_none() {
                    return false;
                }
                p = after_percent.clone();
                s = run_end.clone();
            }
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;
    use aim_sql::Statement;
    use aim_storage::{ColumnDef, ColumnType, Database, TableSchema};

    fn setup() -> (Database, Binder, Row) {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("x", ColumnType::Int),
                    ColumnDef::new("s", ColumnType::Str),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let select = match parse_statement("SELECT id FROM t").unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let binder = Binder::for_select(&db, &select).unwrap();
        let row = vec![Value::Int(1), Value::Int(10), Value::Str("abc".into())];
        (db, binder, row)
    }

    fn eval_where(sql_pred: &str) -> Value {
        let (_db, binder, row) = setup();
        let stmt = parse_statement(&format!("SELECT id FROM t WHERE {sql_pred}")).unwrap();
        let pred = match stmt {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        };
        BoundExpr::bind(&pred, &binder)
            .unwrap()
            .eval(&[Some(&row)], &[])
            .unwrap()
            .into_owned()
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_where("x = 10"), Value::Bool(true));
        assert_eq!(eval_where("x > 10"), Value::Bool(false));
        assert_eq!(eval_where("x >= 10"), Value::Bool(true));
        assert_eq!(eval_where("x <> 3"), Value::Bool(true));
    }

    #[test]
    fn null_propagation_in_comparison() {
        assert_eq!(eval_where("x = NULL"), Value::Null);
        assert_eq!(eval_where("x <=> NULL"), Value::Bool(false));
        assert_eq!(eval_where("NULL <=> NULL"), Value::Bool(true));
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(eval_where("x = 10 AND s = NULL"), Value::Null);
        assert_eq!(eval_where("x = 99 AND s = NULL"), Value::Bool(false));
        assert_eq!(eval_where("x = 10 OR s = NULL"), Value::Bool(true));
        assert_eq!(eval_where("x = 99 OR s = NULL"), Value::Null);
    }

    #[test]
    fn in_list_semantics() {
        assert_eq!(eval_where("x IN (1, 10)"), Value::Bool(true));
        assert_eq!(eval_where("x IN (1, 2)"), Value::Bool(false));
        assert_eq!(eval_where("x IN (1, NULL)"), Value::Null);
        assert_eq!(eval_where("x NOT IN (1, 2)"), Value::Bool(true));
    }

    #[test]
    fn between_and_is_null() {
        assert_eq!(eval_where("x BETWEEN 5 AND 15"), Value::Bool(true));
        assert_eq!(eval_where("x NOT BETWEEN 5 AND 15"), Value::Bool(false));
        assert_eq!(eval_where("s IS NULL"), Value::Bool(false));
        assert_eq!(eval_where("s IS NOT NULL"), Value::Bool(true));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "a%"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "a_c"));
        assert!(like_match("abc", "%"));
        assert!(!like_match("abc", "b%"));
        assert!(!like_match("abc", "a_"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert_eq!(eval_where("s LIKE 'ab%'"), Value::Bool(true));
    }

    /// The textbook recursive definition, as the oracle for the
    /// allocation-free matcher: every subject over {a, b, é} against every
    /// pattern over {a, é, %, _}, up to four chars each.
    #[test]
    fn like_match_agrees_with_recursive_definition() {
        fn rec(s: &[char], p: &[char]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
                Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
                Some(c) => !s.is_empty() && s[0] == *c && rec(&s[1..], &p[1..]),
            }
        }
        fn words(alphabet: &[char], max_len: usize) -> Vec<Vec<char>> {
            let mut all = vec![Vec::new()];
            let mut last = all.clone();
            for _ in 0..max_len {
                last = last
                    .iter()
                    .flat_map(|w| {
                        alphabet.iter().map(move |&c| {
                            let mut w = w.clone();
                            w.push(c);
                            w
                        })
                    })
                    .collect();
                all.extend(last.iter().cloned());
            }
            all
        }
        let patterns = words(&['a', 'é', '%', '_'], 4);
        for s in words(&['a', 'b', 'é'], 4) {
            let subject: String = s.iter().collect();
            for p in &patterns {
                let pattern: String = p.iter().collect();
                assert_eq!(
                    like_match(&subject, &pattern),
                    rec(&s, p),
                    "{subject:?} LIKE {pattern:?}"
                );
            }
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_where("x + 5 = 15"), Value::Bool(true));
        assert_eq!(eval_where("x * 2 = 20"), Value::Bool(true));
        assert_eq!(eval_where("x / 0 = 1"), Value::Null);
        assert_eq!(eval_where("x % 3 = 1"), Value::Bool(true));
        assert_eq!(eval_where("-x = 0 - 10"), Value::Bool(true));
    }

    #[test]
    fn mixed_int_float_arithmetic() {
        assert_eq!(eval_where("x + 0.5 = 10.5"), Value::Bool(true));
    }

    #[test]
    fn unbound_param_is_error() {
        let (_db, binder, _row) = setup();
        let stmt = parse_statement("SELECT id FROM t WHERE x = ?").unwrap();
        let pred = match stmt {
            Statement::Select(s) => s.where_clause.unwrap(),
            _ => unreachable!(),
        };
        assert!(matches!(
            BoundExpr::bind(&pred, &binder),
            Err(ExecError::Eval(_))
        ));
    }
}
