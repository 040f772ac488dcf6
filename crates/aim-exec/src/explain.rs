//! Structured EXPLAIN: the planner's decision, with the paths it rejected.
//!
//! A [`Plan`] holds what the planner chose
//! ([`Plan::access_summary`] prints it in one line); an [`ExplainPlan`]
//! additionally records what it *didn't* choose —
//! every candidate access path per join step (full scan, PK, each
//! materialized secondary, each hypothetical index, OR-union) with its
//! estimated cost, or the reason it was unusable. That makes "why didn't
//! AIM's index get picked?" answerable from the plan itself, for real and
//! what-if configurations alike.
//!
//! Build one with [`explain_select`] (or [`Planner::explain`]); render with
//! [`ExplainPlan::render_text`] / [`ExplainPlan::render_json`]. Estimated
//! cardinalities come from the cost model; actual cardinalities can be
//! attached after executing the query via [`ExplainPlan::with_actuals`].
//!
//! An explanation is the search read back, not a second derivation: per
//! join step it lists the candidates the planner folded over, answered from
//! the prices the search memoized, with the same fold marking the pick. The
//! advisory hot path pays only for the strings — when asked.

use crate::cost::CostModel;
use crate::error::ExecError;
use crate::hypothetical::HypoConfig;
use crate::planner::{Plan, Planner};
use aim_sql::ast::Select;
use aim_storage::Database;
use aim_telemetry::report::json_escape;
use std::fmt::Write as _;

/// One candidate access path for a join step: either the chosen one or a
/// considered-but-rejected alternative.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainAlternative {
    /// Human description, e.g. `full scan`, `index ix_cust (eq 1, covering)`.
    pub access: String,
    /// Index label when index-driven (`PRIMARY`, a secondary name, or
    /// `<hypo#i>`); `None` for full scans.
    pub index: Option<String>,
    /// True when the path uses a hypothetical (what-if) index.
    pub hypothetical: bool,
    /// Length of the matched equality prefix.
    pub eq_prefix: usize,
    /// True when a range predicate narrows the column after the prefix.
    pub range: bool,
    /// True when the path needs no base-table lookups.
    pub covering: bool,
    /// Estimated cost; `None` when the path was unusable for this query.
    pub est_cost: Option<f64>,
    /// True for the path the planner picked.
    pub chosen: bool,
    /// Why this path lost: cost delta against the chosen path, or the
    /// structural reason it could not be used at all.
    pub reason: String,
}

/// One operator (join step) of the explained plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainNode {
    /// Position in the join order (0 = outermost).
    pub step: usize,
    /// Binding alias in the query text.
    pub binding: String,
    /// Catalog table name.
    pub table: String,
    /// Estimated matching rows produced per outer row.
    pub est_rows: f64,
    /// Estimated access cost per outer row (the chosen path's cost).
    pub est_cost: f64,
    /// All candidate paths, chosen first, then usable alternatives by
    /// ascending cost, then unusable ones.
    pub alternatives: Vec<ExplainAlternative>,
}

impl ExplainNode {
    /// The chosen path.
    pub fn chosen(&self) -> &ExplainAlternative {
        self.alternatives
            .iter()
            .find(|a| a.chosen)
            .expect("every node records its chosen path")
    }

    /// The rejected-but-usable alternatives (cost known).
    pub fn rejected(&self) -> impl Iterator<Item = &ExplainAlternative> {
        self.alternatives
            .iter()
            .filter(|a| !a.chosen && a.est_cost.is_some())
    }
}

/// Measured figures attached after actually executing the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplainActuals {
    /// Rows returned to the client.
    pub rows: u64,
    /// Base-table + index rows examined.
    pub rows_read: u64,
    /// Measured cost (same unit system as the estimates).
    pub cost: f64,
}

/// A physical plan explained: the operator tree with per-node costs and
/// cardinalities, the chosen access path, and every considered-but-rejected
/// alternative with its price.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainPlan {
    pub nodes: Vec<ExplainNode>,
    /// Estimated total plan cost (scan + sort/group + output).
    pub est_cost: f64,
    /// Estimated final result rows.
    pub est_rows: f64,
    /// Estimated rows out of the join, before grouping/limit.
    pub join_rows: f64,
    pub order_via_index: bool,
    pub group_via_index: bool,
    /// Legend for `<hypo#i>` labels: the what-if index definitions in play.
    pub hypotheticals: Vec<String>,
    /// Present when the query was executed and measured.
    pub actual: Option<ExplainActuals>,
}

impl ExplainPlan {
    /// Attaches measured execution figures (EXPLAIN ANALYZE style).
    pub fn with_actuals(mut self, rows: u64, rows_read: u64, cost: f64) -> Self {
        self.actual = Some(ExplainActuals {
            rows,
            rows_read,
            cost,
        });
        self
    }

    /// Multi-line text rendering: one block per join step listing the
    /// chosen path and each rejected alternative with its cost.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            let _ = writeln!(
                out,
                "{}: {} ({}) — ~{:.0} rows each, cost {:.1}",
                node.step, node.binding, node.table, node.est_rows, node.est_cost
            );
            for alt in &node.alternatives {
                let tag = if alt.chosen { "chosen  " } else { "rejected" };
                match alt.est_cost {
                    Some(cost) => {
                        let _ = writeln!(
                            out,
                            "     {tag} {:<52} cost {cost:>10.1}  {}",
                            alt.access, alt.reason
                        );
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "     {tag} {:<52} ({})",
                            alt.access, alt.reason
                        );
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "=> ~{:.0} rows, est cost {:.1}, order_via_index={}, group_via_index={}",
            self.est_rows, self.est_cost, self.order_via_index, self.group_via_index
        );
        if let Some(a) = &self.actual {
            let _ = writeln!(
                out,
                "   actual: {} rows, {} rows read, measured cost {:.1}",
                a.rows, a.rows_read, a.cost
            );
        }
        for h in &self.hypotheticals {
            let _ = writeln!(out, "   hypothetical: {h}");
        }
        out
    }

    /// The whole explanation as one JSON document (hand-emitted, matching
    /// the workspace's serde-free artifact style).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"nodes\":[");
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"step\":{},\"binding\":\"{}\",\"table\":\"{}\",\
                 \"est_rows\":{:.3},\"est_cost\":{:.3},\"alternatives\":[",
                node.step,
                json_escape(&node.binding),
                json_escape(&node.table),
                node.est_rows,
                node.est_cost
            );
            for (j, alt) in node.alternatives.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"access\":\"{}\",\"index\":{},\"hypothetical\":{},\
                     \"eq_prefix\":{},\"range\":{},\"covering\":{},\
                     \"est_cost\":{},\"chosen\":{},\"reason\":\"{}\"}}",
                    json_escape(&alt.access),
                    match &alt.index {
                        Some(ix) => format!("\"{}\"", json_escape(ix)),
                        None => "null".to_string(),
                    },
                    alt.hypothetical,
                    alt.eq_prefix,
                    alt.range,
                    alt.covering,
                    match alt.est_cost {
                        Some(c) => format!("{c:.3}"),
                        None => "null".to_string(),
                    },
                    alt.chosen,
                    json_escape(&alt.reason)
                );
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"est_cost\":{:.3},\"est_rows\":{:.3},\"join_rows\":{:.3},\
             \"order_via_index\":{},\"group_via_index\":{},\"hypotheticals\":[",
            self.est_cost,
            self.est_rows,
            self.join_rows,
            self.order_via_index,
            self.group_via_index
        );
        for (i, h) in self.hypotheticals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(h));
        }
        out.push(']');
        match &self.actual {
            Some(a) => {
                let _ = write!(
                    out,
                    ",\"actual\":{{\"rows\":{},\"rows_read\":{},\"cost\":{:.3}}}}}",
                    a.rows, a.rows_read, a.cost
                );
            }
            None => out.push_str(",\"actual\":null}"),
        }
        out
    }
}

/// Plans `select` and explains the result: the chosen plan plus every
/// considered-but-rejected access path per join step. Hypothetical indexes
/// in `config` participate exactly like materialized ones.
pub fn explain_select(
    db: &Database,
    select: &Select,
    config: &HypoConfig,
    cm: &CostModel,
) -> Result<(Plan, ExplainPlan), ExecError> {
    let planner = Planner::new(db, select, config, cm)?;
    let plan = planner.plan()?;
    let explain = planner.explain_plan(&plan)?;
    Ok((plan, explain))
}

/// Legend lines mapping `<hypo#i>` labels to their index definitions.
pub fn hypo_legend(config: &HypoConfig) -> Vec<String> {
    config
        .indexes
        .iter()
        .enumerate()
        .map(|(i, h)| {
            format!(
                "<hypo#{i}> = {}({})",
                h.def.table,
                h.def.columns.join(", ")
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypothetical::HypotheticalIndex;
    use aim_sql::{parse_statement, Statement};
    use aim_storage::{ColumnDef, ColumnType, IndexDef, IoStats, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..10_000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(i), Value::Int(i % 100)], &mut io)
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn explain_sql(db: &Database, sql: &str, config: &HypoConfig) -> ExplainPlan {
        let stmt = parse_statement(sql).unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        explain_select(db, &s, config, &CostModel::default())
            .unwrap()
            .1
    }

    #[test]
    fn chosen_and_rejected_paths_both_priced() {
        let mut db = db();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("ix_a", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let ex = explain_sql(&db, "SELECT a, id FROM t WHERE a = 5", &HypoConfig::none());
        assert_eq!(ex.nodes.len(), 1);
        let node = &ex.nodes[0];
        let chosen = node.chosen();
        assert_eq!(chosen.index.as_deref(), Some("ix_a"));
        assert!(chosen.est_cost.is_some());
        // The full scan it beat is recorded with its own price.
        let full = node
            .rejected()
            .find(|a| a.index.is_none())
            .expect("full scan alternative recorded");
        assert!(full.est_cost.unwrap() > chosen.est_cost.unwrap());
        assert!(full.reason.starts_with('+'), "cost delta: {}", full.reason);
        // The PK can't serve `a = 5` and says why.
        let pk = node
            .alternatives
            .iter()
            .find(|a| a.index.as_deref() == Some("PRIMARY"))
            .expect("PK alternative recorded");
        assert!(pk.est_cost.is_none());
        assert!(pk.reason.contains("not usable"));
    }

    #[test]
    fn hypothetical_alternative_carries_legend() {
        let db = db();
        let h =
            HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let cfg = HypoConfig::overlay(vec![h]);
        let ex = explain_sql(&db, "SELECT a, id FROM t WHERE a = 5", &cfg);
        let chosen = ex.nodes[0].chosen();
        assert!(chosen.hypothetical);
        assert_eq!(chosen.index.as_deref(), Some("<hypo#0>"));
        assert_eq!(ex.hypotheticals, vec!["<hypo#0> = t(a)".to_string()]);
        let text = ex.render_text();
        assert!(text.contains("<hypo#0>"));
        assert!(text.contains("hypothetical: <hypo#0> = t(a)"));
    }

    #[test]
    fn renderings_agree_with_structure() {
        let db = db();
        let ex = explain_sql(&db, "SELECT id FROM t WHERE id = 7", &HypoConfig::none())
            .with_actuals(1, 1, 4.2);
        // PK lookup chosen; full scan priced and rejected.
        let chosen = ex.nodes[0].chosen();
        assert_eq!(chosen.index.as_deref(), Some("PRIMARY"));
        let text = ex.render_text();
        assert!(text.contains("chosen"));
        assert!(text.contains("rejected full scan"));
        assert!(text.contains("actual: 1 rows"));
        let json = ex.render_json();
        let parsed = aim_telemetry::jsonv::parse(&json).expect("valid JSON");
        let nodes = parsed.path("nodes").and_then(|n| n.as_arr()).unwrap();
        assert_eq!(nodes.len(), 1);
        let alts = nodes[0].path("alternatives").and_then(|a| a.as_arr()).unwrap();
        assert!(alts.iter().any(|a| {
            a.path("chosen").and_then(|c| c.as_bool()) == Some(true)
                && a.path("index").and_then(|i| i.as_str()) == Some("PRIMARY")
        }));
        assert!(alts.iter().any(|a| {
            a.path("chosen").and_then(|c| c.as_bool()) == Some(false)
                && a.path("est_cost").and_then(|c| c.as_f64()).is_some()
        }));
        assert_eq!(
            parsed.path("actual/rows").and_then(|r| r.as_f64()),
            Some(1.0)
        );
    }
}
