//! CoPhy-style LP-relaxation index selection.
//!
//! The greedy knapsack ([`crate::ranking::knapsack_select`]) is the paper's
//! selection and stays the default. This module adds the classic
//! alternative from the index-advisor literature (CoPhy; see PAPERS.md):
//! phrase selection as a linear program over
//!
//! * `x_j ∈ [0, 1]` — "build candidate `j`", and
//! * `y_{q,j} ∈ [0, 1]` — "statement `q` is served by candidate `j`",
//!
//! maximizing `Σ b_{q,j}·y_{q,j} − Σ m_j·x_j` subject to `Σ_j y_{q,j} ≤ 1`
//! per statement, `y_{q,j} ≤ x_j`, and the storage budget
//! `Σ size_j·x_j ≤ B`. The relaxation is solved with an in-tree dense
//! primal simplex (no external solver), the fractional `x` is rounded
//! greedily in descending-`x` order, and — crucially — the rounded
//! selection only *replaces* the greedy one when its actual batched
//! workload cost is strictly lower. That final comparison makes the LP
//! path safe by construction: it matches or beats greedy on every
//! instance, and degrades to the bit-identical greedy selection otherwise.
//!
//! To bound the tableau, the LP runs on a *reduced* instance: the top
//! [`MAX_LP_CANDIDATES`] positive-utility candidates (ranked order), the
//! top [`MAX_LP_QUERIES`] statements by weight, and per statement the
//! [`MAX_ATOMS_PER_QUERY`] candidates with the largest benefit. All
//! per-(statement, candidate) benefits come from *batched* what-if costing
//! ([`aim_exec::estimate_statement_cost_batch_until`]) — one planner pass
//! per statement covers the empty baseline and every singleton
//! configuration — under the pass's [`RunCtl`]: a cancel or deadline lands
//! within one what-if call, and an injected (transient) what-if failure
//! surfaces as a retryable [`AimError::Fault`] instead of thinning the LP.

use crate::error::AimError;
use crate::ranking::{under_ctl, RankedCandidate};
use crate::session::RunCtl;
use aim_exec::{
    estimate_statement_cost_batch_until, CostModel, ExecError, HypoConfig, HypotheticalIndex,
};
use aim_monitor::WorkloadQuery;
use aim_sql::ast::Statement;
use aim_storage::Database;
use aim_telemetry as tel;
use std::sync::Arc;

/// Candidate shortlist cap (LP columns scale linearly with this).
pub const MAX_LP_CANDIDATES: usize = 32;
/// Statement cap (statements beyond this, by weight, are left to greedy).
pub const MAX_LP_QUERIES: usize = 64;
/// Per-statement benefit-variable cap.
pub const MAX_ATOMS_PER_QUERY: usize = 4;
/// Simplex pivot budget; hitting it falls back to the greedy selection.
const MAX_SIMPLEX_ITERATIONS: usize = 2_000;

/// One per-candidate verdict from the LP pass, for the decision ledger.
#[derive(Debug, Clone)]
pub struct LpDecision {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    /// `"lp_accepted"` or `"lp_rejected"`.
    pub stage: &'static str,
    pub detail: String,
}

/// Result of [`refine_selection`].
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// The selection to materialize (LP-rounded or the greedy fallback).
    pub chosen: Vec<RankedCandidate>,
    /// True when the LP-rounded selection replaced the greedy one.
    pub used_lp: bool,
    /// Actual batched workload cost of the LP-rounded selection.
    pub lp_cost: f64,
    /// Actual batched workload cost of the greedy selection.
    pub greedy_cost: f64,
    /// Simplex pivots performed (also accumulated into
    /// `selection.lp.iterations`).
    pub iterations: u64,
    pub decisions: Vec<LpDecision>,
}

/// Prices `stmt` under `configs` through the interruptible what-if entry
/// point. An injected failure in any slot aborts the refinement so the
/// session can retry it; a deterministic error stays in its slot.
fn price(
    db: &Database,
    stmt: &Statement,
    configs: &[&HypoConfig],
    cm: &CostModel,
    ctl: &RunCtl,
) -> Result<Vec<Result<f64, ExecError>>, AimError> {
    let costs = under_ctl(ctl, "selection_lp", |stop| {
        estimate_statement_cost_batch_until(db, stmt, configs, cm, stop)
    })?;
    match costs.iter().find_map(|c| c.as_ref().err().filter(|e| e.is_injected())) {
        Some(e) => Err(AimError::from_exec("selection_lp", e.clone())),
        None => Ok(costs),
    }
}

/// Solves the reduced LP relaxation, rounds it, and returns whichever of
/// {LP-rounded, `greedy`} has the lower actual workload cost within the
/// `remaining` bytes of budget. `ranked` must be in utility-density order
/// (the output of [`crate::ranking::rank_candidates_with`]); `greedy` is the
/// knapsack selection to fall back on. Fails only by abort (`ctl`) or with
/// a retryable injected fault.
pub fn refine_selection(
    db: &Database,
    workload: &[WorkloadQuery],
    ranked: &[RankedCandidate],
    greedy: &[RankedCandidate],
    remaining: u64,
    cm: &CostModel,
    ctl: &RunCtl,
) -> Result<LpOutcome, AimError> {
    // ------------------------------------------------- reduced instance
    // Shortlist: positive-utility candidates in ranked (density) order.
    let shortlist: Vec<(&RankedCandidate, Arc<HypotheticalIndex>)> = ranked
        .iter()
        .filter(|r| r.utility() > 0.0 && r.size_bytes <= remaining)
        .filter_map(|r| HypotheticalIndex::build(db, r.candidate.def()).map(|h| (r, Arc::new(h))))
        .take(MAX_LP_CANDIDATES)
        .collect();
    if shortlist.is_empty() || workload.is_empty() {
        return Ok(fallback(greedy, "empty reduced instance"));
    }

    // Statements by descending weight (stable: ties keep workload order).
    let mut q_order: Vec<usize> = (0..workload.len()).collect();
    q_order.sort_by(|&a, &b| {
        workload[b]
            .weight
            .total_cmp(&workload[a].weight)
            .then(a.cmp(&b))
    });
    q_order.truncate(MAX_LP_QUERIES);

    // Per-statement benefits b_{q,j} from ONE batched what-if pass per
    // statement: [empty, singleton_0, .., singleton_{n-1}].
    let empty_cfg = HypoConfig::shared(Vec::new());
    let singleton_cfgs: Vec<HypoConfig> = shortlist
        .iter()
        .map(|(_, h)| HypoConfig::shared(vec![Arc::clone(h)]))
        .collect();
    let mut batch_cfgs: Vec<&HypoConfig> = Vec::with_capacity(singleton_cfgs.len() + 1);
    batch_cfgs.push(&empty_cfg);
    batch_cfgs.extend(singleton_cfgs.iter());

    // atoms[q] = (candidate index j, benefit) — the y variables.
    let mut atoms: Vec<(usize, Vec<(usize, f64)>)> = Vec::with_capacity(q_order.len());
    for &qi in &q_order {
        let wq = &workload[qi];
        let costs = price(db, &wq.stats.exemplar, &batch_cfgs, cm, ctl)?;
        let Some(Ok(base)) = costs.first().cloned() else {
            continue;
        };
        if !base.is_finite() || base <= 0.0 {
            continue;
        }
        let mut qa: Vec<(usize, f64)> = costs[1..]
            .iter()
            .enumerate()
            .filter_map(|(j, res)| match res {
                Ok(c) if *c < base => {
                    Some((j, (base - c) / base * wq.stats.total_cpu))
                }
                _ => None,
            })
            .collect();
        qa.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        qa.truncate(MAX_ATOMS_PER_QUERY);
        if !qa.is_empty() {
            atoms.push((qi, qa));
        }
    }
    if atoms.is_empty() {
        return Ok(fallback(greedy, "no statement benefits from any shortlisted candidate"));
    }

    // -------------------------------------------------------- LP set-up
    // Variables: x_0..x_{n-1}, then one y per (q, j) atom.
    let n = shortlist.len();
    let n_y: usize = atoms.iter().map(|(_, qa)| qa.len()).sum();
    let mut objective = vec![0.0f64; n + n_y];
    for (j, (r, _)) in shortlist.iter().enumerate() {
        objective[j] = -r.maintenance; // building costs maintenance
    }
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut rhs: Vec<f64> = Vec::new();
    let mut y_base = n;
    for (_, qa) in &atoms {
        // Σ_j y_{q,j} ≤ 1.
        let mut row = vec![0.0; n + n_y];
        for (k, &(j, b)) in qa.iter().enumerate() {
            row[y_base + k] = 1.0;
            objective[y_base + k] = b;
            // y_{q,j} ≤ x_j.
            let mut link = vec![0.0; n + n_y];
            link[y_base + k] = 1.0;
            link[j] = -1.0;
            rows.push(link);
            rhs.push(0.0);
        }
        rows.push(row);
        rhs.push(1.0);
        y_base += qa.len();
    }
    // Storage budget and x_j ≤ 1 box constraints.
    let mut budget_row = vec![0.0; n + n_y];
    for (j, (r, _)) in shortlist.iter().enumerate() {
        budget_row[j] = r.size_bytes as f64;
        let mut box_row = vec![0.0; n + n_y];
        box_row[j] = 1.0;
        rows.push(box_row);
        rhs.push(1.0);
    }
    rows.push(budget_row);
    rhs.push(remaining as f64);

    let (solution, iterations, converged) =
        simplex_max(&objective, &rows, &rhs, MAX_SIMPLEX_ITERATIONS);
    tel::metrics::SELECTION_LP_ITERATIONS.add(iterations);
    if !converged {
        return Ok(fallback(greedy, "simplex iteration budget exhausted"));
    }

    // ------------------------------------------------- rounding + guard
    // Take candidates in descending fractional x (ties: ranked order)
    // while they fit the budget.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| solution[b].total_cmp(&solution[a]).then(a.cmp(&b)));
    let mut lp_chosen: Vec<RankedCandidate> = Vec::new();
    let mut left = remaining;
    for j in order {
        if solution[j] <= 1e-6 {
            continue;
        }
        let (r, _) = &shortlist[j];
        if r.size_bytes <= left {
            left -= r.size_bytes;
            lp_chosen.push((*r).clone());
        }
    }

    // The guard: actual batched workload cost decides, so the LP path can
    // only match or beat greedy. Both selections are costed in one batch
    // per statement (they differ only in access-path pricing).
    let greedy_cfg = selection_config(db, greedy);
    let lp_cfg = selection_config(db, &lp_chosen);
    let mut totals = [0.0f64; 2];
    for wq in workload {
        let costs = price(db, &wq.stats.exemplar, &[&greedy_cfg, &lp_cfg], cm, ctl)?;
        for (t, res) in totals.iter_mut().zip(costs) {
            *t += wq.weight * res.unwrap_or(f64::INFINITY);
        }
    }
    // An abort that arrived during the last what-if call belongs to this
    // phase, not to whichever phase checks next.
    ctl.check("selection_lp")?;
    let [greedy_cost, lp_cost] = totals;
    let used_lp = lp_cost < greedy_cost;
    let chosen = if used_lp { lp_chosen } else { greedy.to_vec() };

    let verdict = if used_lp {
        format!("LP-rounded selection kept ({lp_cost:.1} < greedy {greedy_cost:.1})")
    } else {
        format!("greedy selection kept (LP {lp_cost:.1} >= greedy {greedy_cost:.1})")
    };
    let decisions = shortlist
        .iter()
        .enumerate()
        .map(|(j, (r, _))| {
            let name = r.candidate.name();
            let accepted = chosen.iter().any(|c| c.candidate.name() == name);
            LpDecision {
                name,
                table: r.candidate.table.clone(),
                columns: r.candidate.columns.clone(),
                stage: if accepted { "lp_accepted" } else { "lp_rejected" },
                detail: format!("x = {:.3}; {verdict}", solution[j]),
            }
        })
        .collect();
    Ok(LpOutcome {
        chosen,
        used_lp,
        lp_cost,
        greedy_cost,
        iterations,
        decisions,
    })
}

/// What-if configuration of a selection (same construction ranking uses,
/// so costs are comparable across selections).
fn selection_config(db: &Database, selection: &[RankedCandidate]) -> HypoConfig {
    let hypos = selection
        .iter()
        .filter_map(|r| HypotheticalIndex::build(db, r.candidate.def()).map(Arc::new))
        .collect();
    HypoConfig::shared(hypos)
}

fn fallback(greedy: &[RankedCandidate], why: &str) -> LpOutcome {
    let decisions = greedy
        .iter()
        .map(|r| LpDecision {
            name: r.candidate.name(),
            table: r.candidate.table.clone(),
            columns: r.candidate.columns.clone(),
            stage: "lp_accepted",
            detail: format!("greedy selection kept: {why}"),
        })
        .collect();
    LpOutcome {
        chosen: greedy.to_vec(),
        used_lp: false,
        lp_cost: f64::INFINITY,
        greedy_cost: f64::INFINITY,
        iterations: 0,
        decisions,
    }
}

/// Dense primal simplex for `max c·v  s.t.  A·v ≤ b, v ≥ 0` with `b ≥ 0`
/// (so the slack basis is feasible and no phase-1 is needed). Bland's rule
/// on both the entering and leaving choice prevents cycling. Returns the
/// primal solution, the pivot count, and whether an optimum was reached
/// within `max_iter` pivots.
fn simplex_max(c: &[f64], a: &[Vec<f64>], b: &[f64], max_iter: usize) -> (Vec<f64>, u64, bool) {
    const EPS: f64 = 1e-9;
    let m = a.len();
    let n = c.len();
    // Tableau: m constraint rows + 1 objective row; columns are the n
    // structural variables, m slacks, and the RHS.
    let width = n + m + 1;
    let mut t: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    for i in 0..m {
        let mut row = vec![0.0; width];
        row[..n].copy_from_slice(&a[i]);
        row[n + i] = 1.0;
        row[width - 1] = b[i];
        t.push(row);
    }
    let mut obj = vec![0.0; width];
    for (j, &cj) in c.iter().enumerate() {
        obj[j] = -cj; // maximize c·v == minimize −c·v
    }
    t.push(obj);
    let mut basis: Vec<usize> = (n..n + m).collect();

    let mut iters = 0u64;
    let mut converged = false;
    while (iters as usize) < max_iter {
        // Entering variable: Bland — lowest index with negative reduced cost.
        let Some(e) = (0..n + m).find(|&j| t[m][j] < -EPS) else {
            converged = true;
            break;
        };
        // Leaving row: minimum ratio, ties broken by lowest basis index.
        let mut pivot: Option<(usize, f64)> = None;
        for i in 0..m {
            if t[i][e] > EPS {
                let ratio = t[i][width - 1] / t[i][e];
                let better = match pivot {
                    None => true,
                    Some((pi, pr)) => {
                        ratio < pr - EPS || (ratio <= pr + EPS && basis[i] < basis[pi])
                    }
                };
                if better {
                    pivot = Some((i, ratio));
                }
            }
        }
        let Some((r, _)) = pivot else {
            // Unbounded — cannot happen with the box constraints, but bail
            // safely rather than loop.
            break;
        };
        iters += 1;
        let pv = t[r][e];
        for v in t[r].iter_mut() {
            *v /= pv;
        }
        let pivot_row = t[r].clone();
        for (i, row) in t.iter_mut().enumerate() {
            if i != r {
                let f = row[e];
                if f != 0.0 {
                    for (v, &p) in row.iter_mut().zip(&pivot_row) {
                        *v -= f * p;
                    }
                }
            }
        }
        basis[r] = e;
    }

    let mut x = vec![0.0; n];
    for (i, &bv) in basis.iter().enumerate() {
        if bv < n {
            x[bv] = t[i][width - 1];
        }
    }
    (x, iters, converged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateGenConfig};
    use crate::ranking::{knapsack_select, rank_candidates_with};
    use aim_exec::Engine;
    use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    #[test]
    fn simplex_solves_a_known_lp() {
        // max x + 2y  s.t.  x ≤ 1, y ≤ 1, x + y ≤ 1.5  →  x=0.5, y=1.
        let c = vec![1.0, 2.0];
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let b = vec![1.0, 1.0, 1.5];
        let (x, iters, converged) = simplex_max(&c, &a, &b, 100);
        assert!(converged);
        assert!(iters > 0);
        assert!((x[0] - 0.5).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 1.0).abs() < 1e-9, "{x:?}");
    }

    #[test]
    fn simplex_respects_budget_style_constraint() {
        // max 10a + 6b  s.t.  5a + 4b ≤ 8, a ≤ 1, b ≤ 1  →  a=1, b=0.75.
        let c = vec![10.0, 6.0];
        let a = vec![vec![5.0, 4.0], vec![1.0, 0.0], vec![0.0, 1.0]];
        let b = vec![8.0, 1.0, 1.0];
        let (x, _, converged) = simplex_max(&c, &a, &b, 100);
        assert!(converged);
        assert!((x[0] - 1.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] - 0.75).abs() < 1e-9, "{x:?}");
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                    ColumnDef::new("c", ColumnType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..5000i64 {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 100),
                        Value::Int(i % 10),
                        Value::Int(i % 1000),
                    ],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    fn workload(db: &mut Database, sqls: &[(&str, usize)]) -> Vec<WorkloadQuery> {
        let engine = Engine::new();
        let mut m = WorkloadMonitor::new();
        for (sql, n) in sqls {
            let stmt = parse_statement(sql).unwrap();
            for _ in 0..*n {
                let out = engine.execute(db, &stmt).unwrap();
                m.record(&stmt, &out);
            }
        }
        select_workload(
            &m,
            &SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                max_queries: 100,
                include_dml: true,
            },
        )
    }

    #[test]
    fn lp_matches_or_beats_greedy_across_budgets() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[
                ("SELECT id FROM t WHERE a = 5", 20),
                ("SELECT id FROM t WHERE c = 7", 15),
                ("SELECT id FROM t WHERE b = 2 AND c > 100", 10),
                ("UPDATE t SET a = 3 WHERE id = 17", 25),
            ],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let cm = CostModel::default();
        let ranked = rank_candidates_with(&db, &w, &cands, &cm, 0);
        assert!(!ranked.is_empty());
        let all: u64 = ranked.iter().map(|r| r.size_bytes).sum();
        for budget in [u64::MAX, all, all / 2, all / 4, 1] {
            let greedy = knapsack_select(&ranked, budget, 0);
            let out =
                refine_selection(&db, &w, &ranked, &greedy, budget, &cm, &RunCtl::none()).unwrap();
            // The guard guarantees matches-or-beats on actual cost.
            if out.used_lp {
                assert!(out.lp_cost < out.greedy_cost);
            } else {
                // Bit-identical fallback: the greedy selection, unchanged.
                assert_eq!(out.chosen.len(), greedy.len());
                for (a, b) in out.chosen.iter().zip(&greedy) {
                    assert_eq!(a.candidate.name(), b.candidate.name());
                    assert_eq!(a.benefit.to_bits(), b.benefit.to_bits());
                }
            }
            // Budget respected either way.
            let used: u64 = out.chosen.iter().map(|r| r.size_bytes).sum();
            assert!(used <= budget);
        }
    }

    #[test]
    fn lp_agrees_with_greedy_on_provably_optimal_instance() {
        // One hot equality query, unlimited budget: the single useful
        // index is the provably optimal selection; both strategies must
        // choose it.
        let mut db = db();
        let w = workload(&mut db, &[("SELECT id FROM t WHERE a = 5", 30)]);
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let cm = CostModel::default();
        let ranked = rank_candidates_with(&db, &w, &cands, &cm, 0);
        let greedy = knapsack_select(&ranked, u64::MAX, 0);
        let out =
            refine_selection(&db, &w, &ranked, &greedy, u64::MAX, &cm, &RunCtl::none()).unwrap();
        assert_eq!(
            out.chosen.iter().map(|r| r.candidate.name()).collect::<Vec<_>>(),
            greedy.iter().map(|r| r.candidate.name()).collect::<Vec<_>>(),
        );
        assert!(out.chosen.iter().any(|r| r.candidate.columns == vec!["a".to_string()]));
    }
}
