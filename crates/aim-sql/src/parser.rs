//! Recursive-descent parser for the supported SQL subset.
//!
//! Grammar highlights:
//!
//! * Expression precedence (loosest to tightest):
//!   `OR` < `AND` < `NOT` < comparison / `IN` / `BETWEEN` / `LIKE` / `IS`
//!   < `+ -` < `* / %` < unary minus / atoms.
//! * `FROM a JOIN b ON p` is normalised to `FROM a, b` with `p` conjoined
//!   into the WHERE clause; only inner joins are supported, matching the
//!   join treatment in the paper (§IV-C).

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{lex, Keyword, SpannedToken, Token};

/// SQL parser over a pre-lexed token stream that borrows from the input;
/// a name is copied into a `String` only where the AST takes it.
pub struct Parser<'a> {
    tokens: Vec<SpannedToken<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Lexes `sql` and prepares a parser over it.
    pub fn new(sql: &'a str) -> Result<Self, ParseError> {
        Ok(Self {
            tokens: lex(sql)?,
            pos: 0,
        })
    }

    /// Parses exactly one statement, allowing trailing semicolons.
    pub fn parse_single_statement(&mut self) -> Result<Statement, ParseError> {
        let stmt = self.parse_statement()?;
        while self.eat(&Token::Semicolon) {}
        self.expect_eof()?;
        Ok(stmt)
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        match self.peek() {
            Token::Keyword(k) => match k {
                Keyword::Select => Ok(Statement::Select(self.parse_select()?)),
                Keyword::Insert => self.parse_insert(),
                Keyword::Update => self.parse_update(),
                Keyword::Delete => self.parse_delete(),
                Keyword::Create => self.parse_create(),
                Keyword::Drop => self.parse_drop(),
                other => Err(self.error(format!("unexpected keyword {other}"))),
            },
            other => Err(self.error(format!("expected statement, found {other:?}"))),
        }
    }

    // ---------------------------------------------------------------- SELECT

    fn parse_select(&mut self) -> Result<Select, ParseError> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = self.eat_keyword(Keyword::Distinct);

        let mut items = Vec::new();
        loop {
            if self.eat(&Token::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword(Keyword::As) {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        let mut join_predicates: Vec<Expr> = Vec::new();
        if self.eat_keyword(Keyword::From) {
            from.push(self.parse_table_ref()?);
            loop {
                if self.eat(&Token::Comma) {
                    from.push(self.parse_table_ref()?);
                } else if self.peek_join_keyword() {
                    // [INNER|CROSS] JOIN table [ON predicate]
                    self.eat_keyword(Keyword::Inner);
                    self.eat_keyword(Keyword::Cross);
                    self.expect_keyword(Keyword::Join)?;
                    from.push(self.parse_table_ref()?);
                    if self.eat_keyword(Keyword::On) {
                        join_predicates.push(self.parse_expr()?);
                    }
                } else {
                    break;
                }
            }
        }

        let mut where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        if !join_predicates.is_empty() {
            let mut parts = join_predicates;
            if let Some(w) = where_clause.take() {
                parts.push(w);
            }
            where_clause = Some(Expr::and(parts));
        }

        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword(Keyword::Having) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_keyword(Keyword::Desc) {
                    true
                } else {
                    self.eat_keyword(Keyword::Asc);
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword(Keyword::Limit) {
            Some(self.parse_expr()?)
        } else {
            None
        };

        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn peek_join_keyword(&self) -> bool {
        matches!(
            self.peek(),
            Token::Keyword(Keyword::Join | Keyword::Inner | Keyword::Cross)
        )
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword(Keyword::As) {
            Some(self.expect_ident()?)
        } else if let Token::Ident(a) = *self.peek() {
            // Bare alias: `FROM orders o`.
            self.pos += 1;
            Some(a.to_string())
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // ------------------------------------------------------------------- DML

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.expect_ident()?;
        let mut columns = Vec::new();
        if self.eat(&Token::LParen) {
            loop {
                columns.push(self.expect_ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.expect_keyword(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn parse_update(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Update)?;
        let table = self.expect_ident()?;
        self.expect_keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect(&Token::Eq)?;
            let val = self.parse_expr()?;
            assignments.push((col, val));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            where_clause,
        }))
    }

    fn parse_delete(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_keyword(Keyword::Where) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    // ------------------------------------------------------------------- DDL

    fn parse_create(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Create)?;
        if self.eat_keyword(Keyword::Table) {
            return self.parse_create_table();
        }
        let unique = self.eat_keyword(Keyword::Unique);
        self.expect_keyword(Keyword::Index)?;
        let name = self.expect_ident()?;
        self.expect_keyword(Keyword::On)?;
        let table = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.expect_ident()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex(CreateIndex {
            name,
            table,
            columns,
            unique,
        }))
    }

    fn parse_create_table(&mut self) -> Result<Statement, ParseError> {
        let name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Primary) {
                self.expect_keyword(Keyword::Key)?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.expect_ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else {
                let col = self.expect_ident()?;
                let ty = self.parse_sql_type()?;
                columns.push((col, ty));
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            primary_key,
        }))
    }

    fn parse_sql_type(&mut self) -> Result<SqlType, ParseError> {
        let name = self.expect_ident()?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "BIGINT" | "INT" | "INTEGER" | "SMALLINT" => SqlType::BigInt,
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => SqlType::Double,
            "VARCHAR" | "TEXT" | "CHAR" | "STRING" | "DATE" | "DATETIME" => SqlType::Varchar,
            "BOOLEAN" | "BOOL" => SqlType::Boolean,
            other => return Err(self.error(format!("unknown type {other}"))),
        };
        // Optional length/precision suffix like VARCHAR(255) or DECIMAL(10, 2).
        if self.eat(&Token::LParen) {
            loop {
                match self.peek() {
                    Token::Int(_) | Token::Float(_) => self.pos += 1,
                    other => return Err(self.error(format!("expected number, got {other:?}"))),
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        Ok(ty)
    }

    fn parse_drop(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword(Keyword::Drop)?;
        self.expect_keyword(Keyword::Index)?;
        let name = self.expect_ident()?;
        self.expect_keyword(Keyword::On)?;
        let table = self.expect_ident()?;
        Ok(Statement::DropIndex { name, table })
    }

    // ----------------------------------------------------------- expressions

    /// Parses a full boolean/scalar expression.
    pub fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_and()?;
        if !self.peek_keyword(Keyword::Or) {
            return Ok(first);
        }
        let mut parts = Vec::with_capacity(4);
        parts.push(first);
        while self.eat_keyword(Keyword::Or) {
            parts.push(self.parse_and()?);
        }
        Ok(Expr::or(parts))
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_not()?;
        if !self.peek_keyword(Keyword::And) {
            return Ok(first);
        }
        let mut parts = Vec::with_capacity(4);
        parts.push(first);
        while self.eat_keyword(Keyword::And) {
            parts.push(self.parse_not()?);
        }
        Ok(Expr::and(parts))
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword(Keyword::Not) {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;

        // Postfix predicate forms, possibly negated: IN, BETWEEN, LIKE, IS.
        let negated = self.eat_keyword(Keyword::Not);
        if self.eat_keyword(Keyword::In) {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(self.error("expected IN, BETWEEN or LIKE after NOT"));
        }
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::NullSafeEq => BinOp::NullSafeEq,
            Token::NotEq => BinOp::NotEq,
            Token::Lt => BinOp::Lt,
            Token::LtEq => BinOp::LtEq,
            Token::Gt => BinOp::Gt,
            Token::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.parse_additive()?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            &Token::Int(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Int(v)))
            }
            &Token::Float(v) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Float(v)))
            }
            Token::Str(s) => {
                let s = s.as_ref().to_string();
                self.pos += 1;
                Ok(Expr::Literal(Literal::Str(s)))
            }
            Token::Param => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Param))
            }
            Token::LParen => {
                self.pos += 1;
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            &Token::Keyword(k) => {
                let expr = match k {
                    Keyword::Null => Expr::Literal(Literal::Null),
                    Keyword::True => Expr::Literal(Literal::Bool(true)),
                    Keyword::False => Expr::Literal(Literal::Bool(false)),
                    Keyword::Count => return self.parse_aggregate(AggFunc::Count),
                    Keyword::Sum => return self.parse_aggregate(AggFunc::Sum),
                    Keyword::Avg => return self.parse_aggregate(AggFunc::Avg),
                    Keyword::Min => return self.parse_aggregate(AggFunc::Min),
                    Keyword::Max => return self.parse_aggregate(AggFunc::Max),
                    other => {
                        return Err(
                            self.error(format!("unexpected keyword {other} in expression"))
                        )
                    }
                };
                self.pos += 1;
                Ok(expr)
            }
            &Token::Ident(name) => {
                self.pos += 1;
                if self.eat(&Token::Dot) {
                    if let Token::Ident(col) = *self.peek() {
                        self.pos += 1;
                        Ok(Expr::Column(ColumnRef::qualified(name, col)))
                    } else {
                        Err(self.error("expected column name after '.'"))
                    }
                } else {
                    Ok(Expr::Column(ColumnRef::bare(name)))
                }
            }
            other => Err(self.error(format!("unexpected token {other:?} in expression"))),
        }
    }

    /// Parses the call after an aggregate keyword, which is the current token.
    fn parse_aggregate(&mut self, func: AggFunc) -> Result<Expr, ParseError> {
        self.pos += 1;
        self.expect(&Token::LParen)?;
        if self.eat(&Token::Star) {
            self.expect(&Token::RParen)?;
            return Ok(Expr::Aggregate {
                func,
                arg: None,
                distinct: false,
            });
        }
        let distinct = self.eat_keyword(Keyword::Distinct);
        let arg = self.parse_expr()?;
        self.expect(&Token::RParen)?;
        Ok(Expr::Aggregate {
            func,
            arg: Some(Box::new(arg)),
            distinct,
        })
    }

    // --------------------------------------------------------------- helpers

    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos].token
    }

    fn peek_keyword(&self, kw: Keyword) -> bool {
        matches!(self.peek(), Token::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, token: &Token<'_>) -> bool {
        if self.peek() == token {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &Token<'_>) -> Result<(), ParseError> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.error(format!("expected {token:?}, found {:?}", self.peek())))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            &Token::Ident(name) => {
                self.pos += 1;
                Ok(name.to_string())
            }
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(self.error(format!(
                "unexpected trailing input: {:?}",
                self.peek()
            )))
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(message, self.tokens[self.pos].offset)
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;
    use crate::parse_statement;

    fn select(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = select("SELECT id, name FROM students WHERE score > 90");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from, vec![TableRef::new("students")]);
        assert!(matches!(
            s.where_clause,
            Some(Expr::Binary { op: BinOp::Gt, .. })
        ));
    }

    #[test]
    fn select_star() {
        let s = select("SELECT * FROM t");
        assert_eq!(s.items, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn comma_join_and_qualified_columns() {
        let s = select("SELECT t1.col1 FROM t1, t2, t3 WHERE t1.col2 = t3.col2 AND t2.col4 = t3.col7");
        assert_eq!(s.from.len(), 3);
        match s.where_clause.unwrap() {
            Expr::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn explicit_join_folds_on_into_where() {
        let s = select("SELECT a.x FROM a JOIN b ON a.id = b.id WHERE a.y = 1");
        assert_eq!(s.from.len(), 2);
        match s.where_clause.unwrap() {
            Expr::And(parts) => assert_eq!(parts.len(), 2),
            other => panic!("expected AND with ON folded in, got {other:?}"),
        }
    }

    #[test]
    fn table_aliases() {
        let s = select("SELECT o.id FROM orders AS o, customers c");
        assert_eq!(s.from[0].alias.as_deref(), Some("o"));
        assert_eq!(s.from[1].alias.as_deref(), Some("c"));
        assert_eq!(s.from[1].binding(), "c");
    }

    #[test]
    fn group_by_having_order_limit() {
        let s = select(
            "SELECT col3, COUNT(*) FROM t1 WHERE col2 = 5 GROUP BY col3 \
             HAVING COUNT(*) > 2 ORDER BY col3 DESC LIMIT 10",
        );
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(Expr::Literal(Literal::Int(10))));
    }

    #[test]
    fn and_or_precedence() {
        // a = 1 AND b = 2 OR c = 3  parses as  (a AND b) OR c
        let s = select("SELECT x FROM t WHERE a = 1 AND b = 2 OR c = 3");
        match s.where_clause.unwrap() {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Expr::And(_)));
            }
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn parenthesised_or_inside_and() {
        let s = select("SELECT x FROM t WHERE a = 1 AND (b = 2 OR c = 3)");
        match s.where_clause.unwrap() {
            Expr::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::Or(_)));
            }
            other => panic!("expected AND at top, got {other:?}"),
        }
    }

    #[test]
    fn in_between_like_is_null() {
        let s = select(
            "SELECT x FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 5 \
             AND c LIKE 'ab%' AND d IS NOT NULL AND e NOT IN (4)",
        );
        match s.where_clause.unwrap() {
            Expr::And(parts) => {
                assert!(matches!(parts[0], Expr::InList { negated: false, .. }));
                assert!(matches!(parts[1], Expr::Between { negated: false, .. }));
                assert!(matches!(parts[2], Expr::Like { negated: false, .. }));
                assert!(matches!(parts[3], Expr::IsNull { negated: true, .. }));
                assert!(matches!(parts[4], Expr::InList { negated: true, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let s = select("SELECT x FROM t WHERE a = 1 + 2 * 3");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => match *right {
                Expr::Binary {
                    op: BinOp::Add,
                    right: inner,
                    ..
                } => assert!(matches!(*inner, Expr::Binary { op: BinOp::Mul, .. })),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        match parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap() {
            Statement::Insert(i) => {
                assert_eq!(i.columns, vec!["a", "b"]);
                assert_eq!(i.rows.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        match parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 7").unwrap() {
            Statement::Update(u) => {
                assert_eq!(u.assignments.len(), 2);
                assert!(u.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("DELETE FROM t WHERE id = 7").unwrap() {
            Statement::Delete(d) => assert!(d.where_clause.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_table_with_pk() {
        match parse_statement(
            "CREATE TABLE t (id BIGINT, name VARCHAR(64), score DOUBLE, PRIMARY KEY (id))",
        )
        .unwrap()
        {
            Statement::CreateTable(c) => {
                assert_eq!(c.columns.len(), 3);
                assert_eq!(c.primary_key, vec!["id"]);
                assert_eq!(c.columns[1].1, SqlType::Varchar);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn create_and_drop_index() {
        match parse_statement("CREATE INDEX idx1 ON t (a, b, c)").unwrap() {
            Statement::CreateIndex(c) => {
                assert_eq!(c.columns, vec!["a", "b", "c"]);
                assert!(!c.unique);
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("CREATE UNIQUE INDEX idx2 ON t (a)").unwrap() {
            Statement::CreateIndex(c) => assert!(c.unique),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("DROP INDEX idx1 ON t").unwrap(),
            Statement::DropIndex { .. }
        ));
    }

    #[test]
    fn aggregates() {
        let s = select("SELECT COUNT(*), SUM(x), AVG(y), MIN(z), MAX(w) FROM t");
        assert_eq!(s.items.len(), 5);
        match &s.items[0] {
            SelectItem::Expr {
                expr: Expr::Aggregate { func, arg, .. },
                ..
            } => {
                assert_eq!(*func, AggFunc::Count);
                assert!(arg.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn param_placeholders_parse() {
        let s = select("SELECT x FROM t WHERE a = ? AND b IN (?) LIMIT ?");
        assert!(s.where_clause.is_some());
        assert_eq!(s.limit, Some(Expr::Literal(Literal::Param)));
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_statement("SELECT 1 FROM t garbage garbage").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
    }

    #[test]
    fn null_safe_equality() {
        let s = select("SELECT x FROM t WHERE a <=> NULL");
        assert!(matches!(
            s.where_clause.unwrap(),
            Expr::Binary {
                op: BinOp::NullSafeEq,
                ..
            }
        ));
    }

    #[test]
    fn decimal_type_with_precision() {
        match parse_statement(
            "CREATE TABLE m (id BIGINT, price DECIMAL(10, 2), PRIMARY KEY (id))",
        )
        .unwrap()
        {
            Statement::CreateTable(c) => assert_eq!(c.columns[1].1, SqlType::Double),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn composite_primary_key() {
        match parse_statement(
            "CREATE TABLE e (a BIGINT, b BIGINT, v BIGINT, PRIMARY KEY (a, b))",
        )
        .unwrap()
        {
            Statement::CreateTable(c) => assert_eq!(c.primary_key, vec!["a", "b"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quoted_identifiers_usable_as_names() {
        let s = select("SELECT `order` FROM \"select\" WHERE `order` = 1");
        assert_eq!(s.from[0].name, "select");
    }

    #[test]
    fn chained_joins_fold_all_on_clauses() {
        let s = select(
            "SELECT a.x FROM a JOIN b ON a.id = b.id JOIN c ON b.id = c.id WHERE a.x = 1",
        );
        assert_eq!(s.from.len(), 3);
        match s.where_clause.unwrap() {
            Expr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn double_negative_and_nested_not() {
        let s = select("SELECT x FROM t WHERE NOT NOT a = 1");
        match s.where_clause.unwrap() {
            Expr::Not(inner) => assert!(matches!(*inner, Expr::Not(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_input_is_error() {
        assert!(parse_statement("").is_err());
        assert!(parse_statement("   ;  ;").is_err());
    }

    #[test]
    fn scientific_notation_literals() {
        let s = select("SELECT x FROM t WHERE a > 1.5e2");
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert_eq!(*right, Expr::Literal(Literal::Float(150.0)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn not_predicate() {
        let s = select("SELECT x FROM t WHERE NOT a = 1");
        assert!(matches!(s.where_clause.unwrap(), Expr::Not(_)));
    }
}
