//! Structural metadata extraction (Table I of the paper).
//!
//! For each table instance of a normalized query this module collects the
//! column-usage metadata AIM's candidate generation consumes: which columns
//! appear in filter predicates and with which operator class (index-prefix
//! predicate vs. range), the edges of the table join graph, GROUP BY /
//! ORDER BY column sequences, and the referenced-column set. Complex AND-OR
//! selection predicates are factorized into disjunctive normal form
//! (`FactorizeIndexPredicates` — the paper notes plain DNF "works well with
//! MySQL").

use aim_exec::{Binder, ExecError};
use aim_sql::ast::{BinOp, Expr, OrderByItem, Select, SelectItem, Statement};
use aim_storage::Database;
use std::collections::{BTreeMap, BTreeSet};

/// Cap on the number of DNF factors; beyond this the predicate collapses to
/// its conjunctive approximation (all atoms in one factor).
pub const MAX_DNF_FACTORS: usize = 64;

/// Operator class of a filter atom, per §IV-B2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Index prefix predicate: `=`, `<=>`, `IN`, `IS NULL` — matching rows
    /// share a constant prefix in an index on the column.
    Ipp,
    /// Range: `<`, `<=`, `>`, `>=`, `BETWEEN` — usable only as the column
    /// immediately after the equality prefix.
    Range,
    /// Anything else (`<>`, `NOT IN`, `LIKE`, arithmetic, ...): referenced
    /// but not useful for index construction.
    Other,
}

/// One DNF factor restricted to a single table instance: the columns in
/// index-prefix predicates and those in range predicates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactorGroup {
    pub ipp: BTreeSet<String>,
    pub range: BTreeSet<String>,
}

impl FactorGroup {
    /// True if the factor constrains no columns usefully.
    pub fn is_empty(&self) -> bool {
        self.ipp.is_empty() && self.range.is_empty()
    }

    /// All columns in the factor.
    pub fn columns(&self) -> BTreeSet<String> {
        self.ipp.union(&self.range).cloned().collect()
    }
}

/// Structural metadata for one table instance within a query.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Binding name within the query (alias or table name).
    pub binding: String,
    /// Underlying catalog table.
    pub table: String,
    /// DNF factors of the selection predicate restricted to this table.
    pub filter_groups: Vec<FactorGroup>,
    /// Join-graph edges: other binding → columns of *this* table in join
    /// predicates with that binding.
    pub join_edges: BTreeMap<String, BTreeSet<String>>,
    /// GROUP BY columns of this table, in clause order.
    pub group_by: Vec<String>,
    /// ORDER BY columns of this table, in clause order, with direction.
    pub order_by: Vec<(String, bool)>,
    /// Every column of this table referenced anywhere in the query.
    pub referenced: BTreeSet<String>,
    /// Columns assigned by an UPDATE (empty otherwise).
    pub write_columns: BTreeSet<String>,
}

impl TableInfo {
    /// Names of tables joined with this one (the `T` of Algorithm 3).
    pub fn joined_bindings(&self) -> Vec<&str> {
        self.join_edges.keys().map(String::as_str).collect()
    }
}

/// Structural metadata for a whole statement.
#[derive(Debug, Clone)]
pub struct QueryStructure {
    pub tables: Vec<TableInfo>,
    /// True for INSERT/UPDATE/DELETE.
    pub is_dml: bool,
}

impl QueryStructure {
    /// Table info by binding name.
    pub fn table(&self, binding: &str) -> Option<&TableInfo> {
        self.tables.iter().find(|t| t.binding == binding)
    }
}

/// Extracts structural metadata from a statement. Parameters (`?`) are fine
/// — structure is independent of literal values.
pub fn analyze_structure(db: &Database, stmt: &Statement) -> Result<QueryStructure, ExecError> {
    match stmt {
        Statement::Select(s) => analyze_select(db, s),
        Statement::Update(u) => {
            let select = Select::star_where(&u.table, u.where_clause.as_ref());
            let mut st = analyze_select(db, &select)?;
            if let Some(t) = st.tables.first_mut() {
                t.write_columns = u.assignments.iter().map(|(c, _)| c.clone()).collect();
                let writes = t.write_columns.clone();
                t.referenced.extend(writes);
            }
            st.is_dml = true;
            Ok(st)
        }
        Statement::Delete(d) => {
            let select = Select::star_where(&d.table, d.where_clause.as_ref());
            let mut st = analyze_select(db, &select)?;
            st.is_dml = true;
            Ok(st)
        }
        Statement::Insert(i) => {
            let table = db.table(&i.table)?;
            Ok(QueryStructure {
                tables: vec![TableInfo {
                    binding: i.table.clone(),
                    table: i.table.clone(),
                    filter_groups: Vec::new(),
                    join_edges: BTreeMap::new(),
                    group_by: Vec::new(),
                    order_by: Vec::new(),
                    referenced: table
                        .schema()
                        .columns
                        .iter()
                        .map(|c| c.name.clone())
                        .collect(),
                    write_columns: table
                        .schema()
                        .columns
                        .iter()
                        .map(|c| c.name.clone())
                        .collect(),
                }],
                is_dml: true,
            })
        }
        Statement::CreateTable(_) | Statement::CreateIndex(_) | Statement::DropIndex { .. } => {
            Ok(QueryStructure {
                tables: Vec::new(),
                is_dml: false,
            })
        }
    }
}

fn analyze_select(db: &Database, select: &Select) -> Result<QueryStructure, ExecError> {
    let binder = Binder::for_select(db, select)?;
    let n = binder.len();
    let mut tables: Vec<TableInfo> = binder
        .tables()
        .iter()
        .map(|b| TableInfo {
            binding: b.binding.clone(),
            table: b.table.clone(),
            filter_groups: Vec::new(),
            join_edges: BTreeMap::new(),
            group_by: Vec::new(),
            order_by: Vec::new(),
            referenced: BTreeSet::new(),
            write_columns: BTreeSet::new(),
        })
        .collect();

    // Referenced columns (wildcard = every column of every table).
    let mut refs: Vec<aim_sql::ast::ColumnRef> = Vec::new();
    let mut wildcard = false;
    for item in &select.items {
        match item {
            SelectItem::Wildcard => wildcard = true,
            SelectItem::Expr { expr, .. } => expr.referenced_columns(&mut refs),
        }
    }
    if let Some(w) = &select.where_clause {
        w.referenced_columns(&mut refs);
    }
    for g in &select.group_by {
        g.referenced_columns(&mut refs);
    }
    if let Some(h) = &select.having {
        h.referenced_columns(&mut refs);
    }
    for o in &select.order_by {
        o.expr.referenced_columns(&mut refs);
    }
    for c in &refs {
        if let Ok(bc) = binder.resolve(c) {
            let name = column_name(db, &binder, bc)?;
            tables[bc.table_idx].referenced.insert(name);
        }
    }
    if wildcard {
        for (i, info) in tables.iter_mut().enumerate().take(n) {
            let table = db.table(&binder.tables()[i].table)?;
            for c in &table.schema().columns {
                info.referenced.insert(c.name.clone());
            }
        }
    }

    // GROUP BY / ORDER BY sequences.
    for g in &select.group_by {
        if let Expr::Column(c) = g {
            if let Ok(bc) = binder.resolve(c) {
                let name = column_name(db, &binder, bc)?;
                tables[bc.table_idx].group_by.push(name);
            }
        }
    }
    for OrderByItem { expr, desc } in &select.order_by {
        if let Expr::Column(c) = expr {
            if let Ok(bc) = binder.resolve(c) {
                let name = column_name(db, &binder, bc)?;
                tables[bc.table_idx].order_by.push((name, *desc));
            }
        }
    }

    // Join edges + DNF factorization of the filter predicate.
    if let Some(w) = &select.where_clause {
        collect_join_edges(w, &binder, db, &mut tables)?;
        let factors = factorize(w);
        for factor_exprs in factors {
            let atoms: Vec<Atom> = factor_exprs
                .iter()
                .flat_map(|e| classify_atom(e, &binder))
                .collect();
            // Restrict the factor to each table instance.
            let mut per_table: Vec<FactorGroup> = vec![FactorGroup::default(); n];
            for (bc, class) in atoms {
                let name = column_name(db, &binder, bc)?;
                match class {
                    OpClass::Ipp => {
                        per_table[bc.table_idx].ipp.insert(name);
                    }
                    OpClass::Range => {
                        // A column both IPP and range in one factor stays IPP.
                        if !per_table[bc.table_idx].ipp.contains(&name) {
                            per_table[bc.table_idx].range.insert(name);
                        }
                    }
                    OpClass::Other => {}
                }
            }
            for (i, g) in per_table.into_iter().enumerate() {
                if !g.is_empty() && !tables[i].filter_groups.contains(&g) {
                    tables[i].filter_groups.push(g);
                }
            }
        }
    }

    Ok(QueryStructure {
        tables,
        is_dml: false,
    })
}

fn column_name(
    db: &Database,
    binder: &Binder,
    bc: aim_exec::BoundColumn,
) -> Result<String, ExecError> {
    let table = db.table(&binder.tables()[bc.table_idx].table)?;
    Ok(table.schema().columns[bc.col_idx].name.clone())
}

/// Collects join-graph edges (equality predicates between columns of two
/// different table instances) from anywhere in the predicate tree.
fn collect_join_edges(
    expr: &Expr,
    binder: &Binder,
    db: &Database,
    tables: &mut [TableInfo],
) -> Result<(), ExecError> {
    match expr {
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => {
            if let (Expr::Column(lc), Expr::Column(rc)) = (left.as_ref(), right.as_ref()) {
                if let (Ok(l), Ok(r)) = (binder.resolve(lc), binder.resolve(rc)) {
                    if l.table_idx != r.table_idx {
                        let lname = column_name(db, binder, l)?;
                        let rname = column_name(db, binder, r)?;
                        let rbind = binder.tables()[r.table_idx].binding.clone();
                        let lbind = binder.tables()[l.table_idx].binding.clone();
                        tables[l.table_idx]
                            .join_edges
                            .entry(rbind)
                            .or_default()
                            .insert(lname);
                        tables[r.table_idx]
                            .join_edges
                            .entry(lbind)
                            .or_default()
                            .insert(rname);
                    }
                }
            }
            Ok(())
        }
        Expr::And(cs) | Expr::Or(cs) => {
            for c in cs {
                collect_join_edges(c, binder, db, tables)?;
            }
            Ok(())
        }
        Expr::Not(inner) => collect_join_edges(inner, binder, db, tables),
        _ => Ok(()),
    }
}

/// One filter atom: the constrained column and its operator class.
type Atom = (aim_exec::BoundColumn, OpClass);

/// `FactorizeIndexPredicates`: converts the predicate into DNF over filter
/// atoms. Returns one factor (conjunction of atoms) per disjunct. Falls
/// back to the conjunctive approximation past [`MAX_DNF_FACTORS`].
fn factorize(expr: &Expr) -> Vec<Vec<AtomExpr>> {
    match dnf(expr) {
        Some(factors) if factors.len() <= MAX_DNF_FACTORS => factors,
        _ => {
            // Conjunctive approximation: every atom in one factor.
            let mut atoms = Vec::new();
            collect_atoms(expr, &mut atoms);
            vec![atoms]
        }
    }
}

type AtomExpr = Expr;

/// DNF as lists of atomic expressions; `None` signals factor explosion.
fn dnf(expr: &Expr) -> Option<Vec<Vec<Expr>>> {
    match expr {
        Expr::Or(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(dnf(c)?);
                if out.len() > MAX_DNF_FACTORS {
                    return None;
                }
            }
            Some(out)
        }
        Expr::And(children) => {
            // Cartesian product of child DNFs.
            let mut acc: Vec<Vec<Expr>> = vec![Vec::new()];
            for c in children {
                let child = dnf(c)?;
                let mut next = Vec::with_capacity(acc.len() * child.len());
                for a in &acc {
                    for b in &child {
                        let mut f = a.clone();
                        f.extend(b.iter().cloned());
                        next.push(f);
                    }
                }
                if next.len() > MAX_DNF_FACTORS {
                    return None;
                }
                acc = next;
            }
            Some(acc)
        }
        atom => Some(vec![vec![atom.clone()]]),
    }
}

fn collect_atoms(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::And(cs) | Expr::Or(cs) => cs.iter().for_each(|c| collect_atoms(c, out)),
        atom => out.push(atom.clone()),
    }
}

/// Classifies one atomic predicate; the classification logic used when
/// restricting factors to tables.
fn classify_atom(atom: &Expr, binder: &Binder) -> Vec<Atom> {
    match atom {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Column-to-column across tables is a join edge, not a filter.
            if let (Expr::Column(lc), Expr::Column(rc)) = (left.as_ref(), right.as_ref()) {
                if let (Ok(l), Ok(r)) = (binder.resolve(lc), binder.resolve(rc)) {
                    if l.table_idx != r.table_idx {
                        return Vec::new();
                    }
                }
            }
            let col = match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), _) | (_, Expr::Column(c)) => c,
                _ => return Vec::new(),
            };
            let Ok(bc) = binder.resolve(col) else {
                return Vec::new();
            };
            let class = if op.is_prefix_compatible() {
                OpClass::Ipp
            } else if matches!(op, BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) {
                OpClass::Range
            } else {
                OpClass::Other
            };
            vec![(bc, class)]
        }
        Expr::InList {
            expr,
            negated: false,
            ..
        } => column_atom(expr, binder, OpClass::Ipp),
        Expr::Between {
            expr,
            negated: false,
            ..
        } => column_atom(expr, binder, OpClass::Range),
        Expr::IsNull {
            expr,
            negated: false,
        } => column_atom(expr, binder, OpClass::Ipp),
        _ => Vec::new(),
    }
}

fn column_atom(expr: &Expr, binder: &Binder, class: OpClass) -> Vec<Atom> {
    if let Expr::Column(c) = expr {
        if let Ok(bc) = binder.resolve(c) {
            return vec![(bc, class)];
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new();
        for (name, cols) in [
            ("t1", vec!["id", "col1", "col2", "col3", "col4", "col5"]),
            ("t2", vec!["id", "col2", "col4"]),
            ("t3", vec!["id", "col2", "col7"]),
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
        db
    }

    fn structure(sql: &str) -> QueryStructure {
        let db = db();
        analyze_structure(&db, &parse_statement(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_filter_factor() {
        let st = structure("SELECT col1 FROM t1 WHERE col1 = 1 AND col2 = 2 AND col3 > 5");
        let t = st.table("t1").unwrap();
        assert_eq!(t.filter_groups.len(), 1);
        let g = &t.filter_groups[0];
        assert_eq!(g.ipp, ["col1".to_string(), "col2".to_string()].into());
        assert_eq!(g.range, ["col3".to_string()].into());
    }

    #[test]
    fn paper_e2_dnf_example() {
        // (col1=? AND col2=? AND col3=?) OR (col2=? AND col4=?)
        // from §IV-B1: two factors.
        let st = structure(
            "SELECT col1 FROM t1 WHERE (col1 = 1 AND col2 = 2 AND col3 = 3) OR (col2 = 4 AND col4 = 5)",
        );
        let t = st.table("t1").unwrap();
        assert_eq!(t.filter_groups.len(), 2);
        assert_eq!(
            t.filter_groups[0].ipp,
            ["col1".to_string(), "col2".to_string(), "col3".to_string()].into()
        );
        assert_eq!(
            t.filter_groups[1].ipp,
            ["col2".to_string(), "col4".to_string()].into()
        );
    }

    #[test]
    fn distributed_and_over_or() {
        // a = 1 AND (b = 2 OR c = 3) -> two factors {a,b}, {a,c}.
        let st = structure(
            "SELECT col1 FROM t1 WHERE col1 = 1 AND (col2 = 2 OR col3 = 3)",
        );
        let t = st.table("t1").unwrap();
        assert_eq!(t.filter_groups.len(), 2);
        assert!(t.filter_groups.iter().any(|g| g.ipp
            == ["col1".to_string(), "col2".to_string()].into()));
        assert!(t.filter_groups.iter().any(|g| g.ipp
            == ["col1".to_string(), "col3".to_string()].into()));
    }

    #[test]
    fn join_graph_edges_paper_q2() {
        // Q2: t1.col2 = t3.col2 AND t2.col4 = t3.col7
        let st = structure(
            "SELECT t1.col1, t2.col2, t3.col2 FROM t1, t2, t3 \
             WHERE t1.col2 = t3.col2 AND t2.col4 = t3.col7",
        );
        let t1 = st.table("t1").unwrap();
        let t2 = st.table("t2").unwrap();
        let t3 = st.table("t3").unwrap();
        assert_eq!(t1.joined_bindings(), vec!["t3"]);
        assert_eq!(t2.joined_bindings(), vec!["t3"]);
        assert_eq!(t3.joined_bindings(), vec!["t1", "t2"]);
        assert_eq!(t1.join_edges["t3"], ["col2".to_string()].into());
        assert_eq!(t3.join_edges["t2"], ["col7".to_string()].into());
    }

    #[test]
    fn operator_classification() {
        let st = structure(
            "SELECT col1 FROM t1 WHERE col1 IN (1,2) AND col2 BETWEEN 1 AND 5 \
             AND col3 IS NULL AND col4 <> 7 AND col5 <=> 3",
        );
        let g = &st.table("t1").unwrap().filter_groups[0];
        assert_eq!(
            g.ipp,
            ["col1".to_string(), "col3".to_string(), "col5".to_string()].into()
        );
        assert_eq!(g.range, ["col2".to_string()].into());
        // col4 <> 7 is Other: referenced but not constraining.
        assert!(st.table("t1").unwrap().referenced.contains("col4"));
    }

    #[test]
    fn group_and_order_sequences() {
        let st = structure(
            "SELECT col3, COUNT(*) FROM t1 WHERE col2 = 5 GROUP BY col3 ORDER BY col3 DESC",
        );
        let t = st.table("t1").unwrap();
        assert_eq!(t.group_by, vec!["col3"]);
        assert_eq!(t.order_by, vec![("col3".to_string(), true)]);
    }

    #[test]
    fn referenced_includes_projection_and_predicates() {
        let st = structure("SELECT col2, col3 FROM t1 WHERE col5 < 2");
        let t = st.table("t1").unwrap();
        assert_eq!(
            t.referenced,
            ["col2".to_string(), "col3".to_string(), "col5".to_string()].into()
        );
    }

    #[test]
    fn update_structure() {
        let db = db();
        let st = analyze_structure(
            &db,
            &parse_statement("UPDATE t1 SET col4 = 1 WHERE col1 = 5").unwrap(),
        )
        .unwrap();
        assert!(st.is_dml);
        let t = st.table("t1").unwrap();
        assert_eq!(t.write_columns, ["col4".to_string()].into());
        assert_eq!(t.filter_groups[0].ipp, ["col1".to_string()].into());
    }

    #[test]
    fn insert_structure_touches_all_columns() {
        let db = db();
        let st = analyze_structure(
            &db,
            &parse_statement("INSERT INTO t2 (id, col2, col4) VALUES (1, 2, 3)").unwrap(),
        )
        .unwrap();
        assert!(st.is_dml);
        assert_eq!(st.table("t2").unwrap().write_columns.len(), 3);
    }

    #[test]
    fn oversized_dnf_falls_back_to_conjunctive() {
        // 2^7 = 128 > MAX_DNF_FACTORS: falls back to a single factor.
        let pred = (0..7)
            .map(|_| "(col1 = 1 OR col2 = 2)".to_string())
            .collect::<Vec<_>>()
            .join(" AND ");
        let st = structure(&format!("SELECT col1 FROM t1 WHERE {pred}"));
        let t = st.table("t1").unwrap();
        assert_eq!(t.filter_groups.len(), 1);
        assert_eq!(
            t.filter_groups[0].ipp,
            ["col1".to_string(), "col2".to_string()].into()
        );
    }

    #[test]
    fn join_atoms_not_in_filter_groups() {
        let st = structure(
            "SELECT t1.col1 FROM t1, t2 WHERE t1.col2 = t2.col2 AND t1.col1 = 5",
        );
        let t1 = st.table("t1").unwrap();
        assert_eq!(t1.filter_groups.len(), 1);
        assert_eq!(t1.filter_groups[0].ipp, ["col1".to_string()].into());
    }
}
