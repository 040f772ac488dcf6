//! Structural candidate generation (§IV, Algorithms 2–7).
//!
//! Candidates are generated from *query structure* alone — the key design
//! decision of the paper. For each workload query, partial orders of index
//! columns are derived from its selection predicates (DNF factors split
//! into index-prefix vs. range columns), its join-graph neighbourhood
//! (bounded by the join parameter `j`), and its GROUP BY / ORDER BY
//! clauses. Partial orders from all queries are then merged (§III-E) and
//! one concrete index is chosen per merged order.
//!
//! Dataless-index statistics are consulted in exactly the three places the
//! paper allows (§V-B): picking the most selective non-prefix range column
//! (Algorithm 5 line 6), ordering columns inside a partition when a total
//! order is materialized, and join-order exploration (delegated to the
//! what-if optimizer during ranking).

use crate::metadata::{analyze_structure, FactorGroup, QueryStructure, TableInfo};
use crate::partial_order::{
    close, is_subset, merge_into, ones, ColumnIds, CompactOrder, PartialOrder,
};
use aim_monitor::{QueryStats, WorkloadQuery};
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IndexDef};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Whether a query's candidates are generated in covering mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoveringMode {
    NonCovering,
    Covering,
}

/// When covering candidates are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoveringPolicy {
    /// Production behaviour: the `TryCoveringIndex` gate — covering is
    /// tried only once a narrow index is in use and seeks stay high
    /// (the paper's two-phase flow arises from running AIM periodically).
    Adaptive,
    /// Benchmark/advisor behaviour: generate both the narrow and the
    /// covering variant for every query and let ranking decide.
    Both,
    /// Phase-1 only: never generate covering candidates.
    Never,
}

/// Configuration for candidate generation.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateGenConfig {
    /// The join parameter `j`: tables joined with more than `j` other
    /// tables are not exhaustively explored (Algorithm 3).
    pub join_parameter: usize,
    /// Maximum index width; wider candidates are truncated at the end.
    /// `0` means unlimited.
    pub max_width: usize,
    /// Covering-phase policy.
    pub covering: CoveringPolicy,
    /// Merge partial orders across queries (§III-E). Disabling this is an
    /// ablation switch: each query keeps its own candidates and wide
    /// composite orders shared across queries are never discovered.
    pub merge: bool,
    /// Use dataless-index statistics to order columns inside a partition
    /// and to pick the range column (§V-B). Disabling falls back to
    /// lexicographic choices — the ablation for "reduced optimizer
    /// reliance still needs statistics".
    pub use_stats: bool,
}

/// Minimum average seeks per execution before a covering index is tried
/// (§III-D: "this threshold is high for fast storage media").
const COVERING_SEEK_THRESHOLD: f64 = 16.0;

/// IPP relaxation (§V-A): when the most selective equality columns of a
/// factor group already isolate at most this many expected rows, an
/// additional *reduced* candidate dropping the remaining prefix columns is
/// emitted ("the additive selectivity falls below a certain threshold") —
/// ranking then prefers the narrower index when the wide one buys nothing.
const IPP_RELAXATION_ROWS: f64 = 2.0;

impl Default for CandidateGenConfig {
    fn default() -> Self {
        Self {
            join_parameter: 2,
            max_width: 0,
            covering: CoveringPolicy::Adaptive,
            merge: true,
            use_stats: true,
        }
    }
}

/// A concrete candidate index: one total order satisfying a merged partial
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateIndex {
    pub table: String,
    /// Key columns in index order.
    pub columns: Vec<String>,
    /// The partial order this index satisfies.
    pub po: PartialOrder,
    /// Fingerprints of workload queries this candidate may serve.
    pub sources: BTreeSet<QueryFingerprint>,
}

impl CandidateIndex {
    /// Index width.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Deterministic name for materialization.
    pub fn name(&self) -> String {
        format!("aim_{}_{}", self.table, self.columns.join("_"))
    }

    /// The definition this candidate is priced and materialized as.
    pub fn def(&self) -> IndexDef {
        IndexDef::new(self.name(), self.table.clone(), self.columns.clone())
    }
}

/// True when `prefix` is a leading part (or all) of the key `columns`: on
/// the same table, an index on `columns` then serves every access path an
/// index on `prefix` offers.
pub(crate) fn is_key_prefix(prefix: &[String], columns: &[String]) -> bool {
    columns.len() >= prefix.len() && columns[..prefix.len()] == *prefix
}

/// `TryCoveringIndex` (Algorithm 2 line 3): covering mode is tried only
/// when selectivity cannot improve further — the currently used index
/// already serves the full equality prefix — and the execution performs
/// enough base-table seeks to justify the extra storage.
pub fn try_covering_index(
    stats: &QueryStats,
    structure: &QueryStructure,
    cfg: &CandidateGenConfig,
) -> CoveringMode {
    match cfg.covering {
        CoveringPolicy::Never => return CoveringMode::NonCovering,
        CoveringPolicy::Both => return CoveringMode::Covering,
        CoveringPolicy::Adaptive => {}
    }
    if stats.seeks_avg() < COVERING_SEEK_THRESHOLD {
        return CoveringMode::NonCovering;
    }
    // Selectivity cannot improve further when, for some table the query
    // touches, the index currently in use already serves that table's full
    // equality prefix yet the scan still pays base-table seeks.
    let prefix_exhausted = stats.indexes_used.iter().any(|u| {
        if u.covering || u.index == "PRIMARY" {
            return false;
        }
        let table_max_ipp = structure
            .tables
            .iter()
            .filter(|t| t.table == u.table || u.table.is_empty())
            .flat_map(|t| t.filter_groups.iter().map(|g| g.ipp.len()))
            .max()
            .unwrap_or(0);
        u.eq_prefix_len >= table_max_ipp
    });
    if prefix_exhausted {
        CoveringMode::Covering
    } else {
        CoveringMode::NonCovering
    }
}

/// `JoinedTablesPowerset` (Algorithm 3): the power set of tables that have
/// join predicates with `t`, or `{∅}` when `t` joins more than `j` tables.
pub fn joined_tables_powerset(info: &TableInfo, j: usize) -> Vec<Vec<&str>> {
    let joined: Vec<&str> = info.joined_bindings();
    if joined.len() > j {
        return vec![Vec::new()];
    }
    let mut out = Vec::with_capacity(1 << joined.len());
    for mask in 0u32..(1u32 << joined.len()) {
        let subset: Vec<&str> = joined
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, b)| *b)
            .collect();
        out.push(subset);
    }
    out
}

/// Join columns of `info` toward every binding in `subset`.
fn join_columns(info: &TableInfo, subset: &[&str]) -> BTreeSet<String> {
    let mut cols = BTreeSet::new();
    for b in subset {
        if let Some(cs) = info.join_edges.get(*b) {
            cols.extend(cs.iter().cloned());
        }
    }
    cols
}

/// Picks the most selective range column via dataless-index statistics
/// (Algorithm 5 line 6). With parameterized predicates the bounds are
/// unknown, so selectivity is approximated by NDV: the column with the most
/// distinct values narrows a scan the most.
fn most_selective_range_column(
    db: &Database,
    table: &str,
    range_cols: &BTreeSet<String>,
) -> Option<String> {
    range_cols
        .iter()
        .max_by_key(|c| {
            db.stats(table)
                .and_then(|s| s.column(c))
                .map_or(0, |cs| cs.ndv)
        })
        .cloned()
}

/// `GenerateCandidateIndexPredicates` (Algorithm 5) for one factor group
/// plus the join columns of the current powerset element: produces
/// `<{C_IPP ∪ C_J}, {most selective range column}>`, optionally also
/// emitting the §V-A relaxed variant when the full IPP prefix is overkill
/// ([`IPP_RELAXATION_ROWS`]). The full-precision candidate is always first.
fn candidates_for_group_relaxed(
    db: &Database,
    table: &str,
    group: &FactorGroup,
    join_cols: &BTreeSet<String>,
    use_stats: bool,
) -> Vec<PartialOrder> {
    let mut ipp: BTreeSet<String> = group.ipp.clone();
    ipp.extend(join_cols.iter().cloned());
    let range: BTreeSet<String> = group
        .range
        .iter()
        .filter(|c| !ipp.contains(*c))
        .cloned()
        .collect();
    let last_col = if use_stats {
        most_selective_range_column(db, table, &range)
    } else {
        range.iter().next().cloned()
    };
    let build = |prefix: &BTreeSet<String>| -> Option<PartialOrder> {
        match (prefix.is_empty(), last_col.clone()) {
            (true, None) => None,
            (true, Some(c)) => PartialOrder::new([vec![c]]),
            (false, None) => PartialOrder::new([prefix.iter().cloned().collect::<Vec<_>>()]),
            (false, Some(c)) => {
                PartialOrder::new([prefix.iter().cloned().collect::<Vec<_>>(), vec![c]])
            }
        }
    };
    let mut out = Vec::with_capacity(2);
    if let Some(po) = build(&ipp) {
        out.push(po);
    }
    // Relaxation: walk IPP columns most-selective first; once the expected
    // match count drops to `IPP_RELAXATION_ROWS`, further columns add
    // nothing.
    if use_stats && ipp.len() > 1 {
        if let (Ok(t), Some(stats)) = (db.table(table), db.stats(table)) {
            let rows = t.row_count() as f64;
            let mut cols: Vec<(&String, u64)> = ipp
                .iter()
                .map(|c| (c, stats.column(c).map_or(1, |cs| cs.ndv.max(1))))
                .collect();
            cols.sort_by_key(|(c, ndv)| (std::cmp::Reverse(*ndv), (*c).clone()));
            let mut expected = rows;
            let mut kept: BTreeSet<String> = BTreeSet::new();
            for (c, ndv) in &cols {
                if expected <= IPP_RELAXATION_ROWS {
                    break;
                }
                kept.insert((*c).clone());
                expected /= *ndv as f64;
            }
            if !kept.is_empty() && kept.len() < ipp.len() {
                if let Some(po) = build(&kept) {
                    if !out.contains(&po) {
                        out.push(po);
                    }
                }
            }
        }
    }
    out
}

/// The factor groups to iterate: a query without filters still gets one
/// empty group so join-only candidates are produced.
fn groups_or_empty(info: &TableInfo) -> Vec<FactorGroup> {
    if info.filter_groups.is_empty() {
        vec![FactorGroup::default()]
    } else {
        info.filter_groups.clone()
    }
}

/// `GenerateCandidatesForSelection` (Algorithm 4). `use_stats` is the
/// dataless-statistics switch.
fn candidates_for_selection(
    db: &Database,
    structure: &QueryStructure,
    j: usize,
    mode: CoveringMode,
    use_stats: bool,
) -> Vec<(String, PartialOrder)> {
    let mut out = Vec::new();
    for info in &structure.tables {
        for subset in joined_tables_powerset(info, j) {
            let cj = join_columns(info, &subset);
            for group in groups_or_empty(info) {
                for mut po in candidates_for_group_relaxed(db, &info.table, &group, &cj, use_stats)
                {
                    if mode == CoveringMode::Covering {
                        // Append every referenced column not already present.
                        po = po.append(info.referenced.iter().cloned());
                    }
                    out.push((info.table.clone(), po));
                }
            }
        }
    }
    out
}

/// `GenerateCandidatesForGroupBy` (Algorithm 6).
pub fn candidates_for_group_by(
    structure: &QueryStructure,
    j: usize,
    mode: CoveringMode,
) -> Vec<(String, PartialOrder)> {
    let mut out = Vec::new();
    for info in &structure.tables {
        if info.group_by.is_empty() {
            continue;
        }
        let cg: BTreeSet<String> = info.group_by.iter().cloned().collect();
        if mode == CoveringMode::NonCovering {
            if let Some(po) = PartialOrder::new([cg.iter().cloned().collect::<Vec<_>>()]) {
                out.push((info.table.clone(), po));
            }
            continue;
        }
        for subset in joined_tables_powerset(info, j) {
            let cj = join_columns(info, &subset);
            for group in groups_or_empty(info) {
                let mut ipp: BTreeSet<String> = group.ipp.clone();
                ipp.extend(cj.iter().cloned());
                // Grouping columns come right after the prefix; prefix
                // columns that are also group columns stay in the prefix.
                let group_part: Vec<String> =
                    cg.iter().filter(|c| !ipp.contains(*c)).cloned().collect();
                let base = if ipp.is_empty() {
                    PartialOrder::new([group_part])
                } else {
                    PartialOrder::new([ipp.iter().cloned().collect::<Vec<_>>(), group_part])
                };
                let Some(po) = base else { continue };
                let po = po.append(info.referenced.iter().cloned());
                out.push((info.table.clone(), po));
            }
        }
    }
    out
}

/// `GenerateCandidatesForOrderBy` (Algorithm 7). Only uniform-ascending
/// ORDER BY clauses produce candidates: the engine scans indexes forward.
pub fn candidates_for_order_by(
    structure: &QueryStructure,
    j: usize,
    mode: CoveringMode,
) -> Vec<(String, PartialOrder)> {
    let mut out = Vec::new();
    for info in &structure.tables {
        if info.order_by.is_empty() || info.order_by.iter().any(|(_, desc)| *desc) {
            continue;
        }
        let order_cols: Vec<String> = info.order_by.iter().map(|(c, _)| c.clone()).collect();
        if mode == CoveringMode::NonCovering {
            if let Some(po) = PartialOrder::chain(order_cols.clone()) {
                out.push((info.table.clone(), po));
            }
            continue;
        }
        for subset in joined_tables_powerset(info, j) {
            let cj = join_columns(info, &subset);
            for group in groups_or_empty(info) {
                let mut ipp: BTreeSet<String> = group.ipp.clone();
                ipp.extend(cj.iter().cloned());
                let mut partitions: Vec<Vec<String>> = Vec::new();
                if !ipp.is_empty() {
                    partitions.push(ipp.iter().cloned().collect());
                }
                // ORDER BY columns are an ordered chain after the prefix.
                for c in &order_cols {
                    if !ipp.contains(c) && !partitions.iter().skip(1).any(|p| p.contains(c)) {
                        partitions.push(vec![c.clone()]);
                    }
                }
                let Some(po) = PartialOrder::new(partitions) else {
                    continue;
                };
                let po = po.append(info.referenced.iter().cloned());
                out.push((info.table.clone(), po));
            }
        }
    }
    out
}

/// `GenerateCandidates` (Algorithm 2) over a whole workload: per-query
/// partial orders from selection / group-by / order-by, merged across
/// queries per table, one concrete index per merged order.
pub fn generate_candidates(
    db: &Database,
    workload: &[WorkloadQuery],
    cfg: &CandidateGenConfig,
) -> Vec<CandidateIndex> {
    try_generate_candidates(db, workload, cfg, &crate::session::RunCtl::none())
        .expect("candidate generation without deadline or cancel cannot fail")
}

/// [`generate_candidates`] under a [`RunCtl`](crate::session::RunCtl):
/// the deadline / cancel token is checked between workload queries and
/// between the tables of the merge phase, so a session abort lands within
/// one query's or one table's worth of work.
pub fn try_generate_candidates(
    db: &Database,
    workload: &[WorkloadQuery],
    cfg: &CandidateGenConfig,
    ctl: &crate::session::RunCtl,
) -> Result<Vec<CandidateIndex>, crate::error::AimError> {
    // 1. Per-query partial orders with provenance, by table.
    let derive_span = aim_telemetry::span("derive_partial_orders");
    let mut by_table: BTreeMap<String, Vec<(PartialOrder, QueryFingerprint)>> = BTreeMap::new();
    for wq in workload {
        ctl.check("candidate_generation")?;
        let Ok(structure) = analyze_structure(db, &wq.stats.normalized) else {
            continue;
        };
        if structure.tables.is_empty() {
            continue;
        }
        // INSERTs only ever pay for indexes; they generate no candidates.
        if matches!(wq.stats.normalized, aim_sql::ast::Statement::Insert(_)) {
            continue;
        }
        let modes: Vec<CoveringMode> = match cfg.covering {
            CoveringPolicy::Both => {
                vec![CoveringMode::NonCovering, CoveringMode::Covering]
            }
            _ => vec![try_covering_index(&wq.stats, &structure, cfg)],
        };
        let mut query_pos: Vec<(String, PartialOrder)> = Vec::new();
        for mode in modes {
            query_pos.extend(candidates_for_selection(
                db,
                &structure,
                cfg.join_parameter,
                mode,
                cfg.use_stats,
            ));
            query_pos.extend(candidates_for_group_by(
                &structure,
                cfg.join_parameter,
                mode,
            ));
            query_pos.extend(candidates_for_order_by(
                &structure,
                cfg.join_parameter,
                mode,
            ));
        }
        for (table, po) in query_pos {
            if po.is_empty() {
                continue;
            }
            by_table
                .entry(table)
                .or_default()
                .push((po, wq.stats.fingerprint));
        }
    }

    drop(derive_span);

    // 2. Merge partial orders per table (§III-E).
    let _merge_span = aim_telemetry::span("partial_order_merge");
    let mut candidates: Vec<CandidateIndex> = Vec::new();
    for (table, derived) in &by_table {
        ctl.check("candidate_generation")?;
        candidates.extend(table_candidates(db, table, derived, cfg));
    }
    aim_telemetry::metrics::CANDIDATES_GENERATED.add(candidates.len() as u64);
    for c in &candidates {
        aim_telemetry::metrics::histogram_record("aim.candidate_width", c.width() as f64);
    }
    Ok(candidates)
}

/// One table's candidates from the partial orders its queries derived, in
/// the compact form of [`crate::partial_order`]: distinct orders with their
/// sources unioned, closed under merging, then one concrete index per
/// merged order carrying the sources of every input order it serves.
/// Ascending by key columns.
fn table_candidates(
    db: &Database,
    table: &str,
    derived: &[(PartialOrder, QueryFingerprint)],
    cfg: &CandidateGenConfig,
) -> Vec<CandidateIndex> {
    let ids = ColumnIds::of(derived.iter().map(|(po, _)| po));
    let mut scratch = ids.scratch();
    let mut inputs: BTreeMap<CompactOrder, BTreeSet<QueryFingerprint>> = BTreeMap::new();
    for (po, source) in derived {
        ids.compact_into(po, &mut scratch);
        match inputs.get_mut(&scratch) {
            Some(sources) => {
                sources.insert(*source);
            }
            None => {
                inputs.insert(
                    CompactOrder::new(scratch.clone(), ids.len()),
                    [*source].into(),
                );
            }
        }
    }

    let merged: Vec<CompactOrder> = if cfg.merge {
        close(&ids, inputs.keys().cloned())
    } else {
        inputs.keys().cloned().collect()
    };

    let pk: Option<Vec<String>> = db.table(table).ok().map(|t| {
        t.schema()
            .primary_key_names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    });
    let stats = if cfg.use_stats { db.stats(table) } else { None };
    let ndv: Vec<u64> = (0..ids.len())
        .map(|id| {
            stats
                .and_then(|s| s.column(ids.name(id)))
                .map_or(0, |cs| cs.ndv)
        })
        .collect();
    let mut out: BTreeMap<Vec<String>, CandidateIndex> = BTreeMap::new();
    let mut order: Vec<usize> = Vec::new();
    for po in &merged {
        // 3. One concrete index per partial order
        //    (`GenerateCandidateIndexPerPO`): more selective columns
        //    first within each partition, via dataless statistics, names
        //    (ascending ids) breaking ties.
        order.clear();
        for part in po.parts().iter() {
            let at = order.len();
            order.extend(ones(part));
            order[at..].sort_unstable_by_key(|&id| (Reverse(ndv[id]), id));
        }
        if cfg.max_width > 0 {
            order.truncate(cfg.max_width);
        }
        if order.is_empty() {
            continue;
        }
        let columns: Vec<String> = order.iter().map(|&id| ids.name(id).to_string()).collect();
        // Skip candidates that duplicate the table's primary key prefix.
        if pk.as_ref().is_some_and(|pk| is_key_prefix(&columns, pk)) {
            continue;
        }
        // Provenance: every input partial order this index serves.
        let mut sources = BTreeSet::new();
        for (input, from) in &inputs {
            if merge_into(input, po, &mut scratch) && scratch.is_satisfied_by(&order) {
                sources.extend(from);
            }
        }
        if sources.is_empty() {
            // Width truncation may have broken exact satisfaction; a
            // truncated index is a usable prefix of what the query
            // wanted, so attribute sources in either subset direction.
            let mut key = vec![0u64; po.mask().len()];
            for &id in &order {
                key[id / 64] |= 1 << (id % 64);
            }
            for (input, from) in &inputs {
                if is_subset(input.mask(), &key) || is_subset(&key, input.mask()) {
                    sources.extend(from);
                }
            }
        }
        if sources.is_empty() {
            continue;
        }
        match out.entry(columns) {
            Entry::Occupied(mut same_key) => same_key.get_mut().sources.extend(sources),
            Entry::Vacant(slot) => {
                let columns = slot.key().clone();
                slot.insert(CandidateIndex {
                    table: table.to_string(),
                    columns,
                    po: ids.expand(po.parts()),
                    sources,
                });
            }
        }
    }
    out.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_exec::Engine;
    use aim_monitor::{select_workload, SelectionConfig, WorkloadMonitor};
    use aim_sql::parse_statement;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    /// t1(id, col1..col6) with varying NDVs; t2, t3 for joins.
    fn db() -> Database {
        let mut db = Database::new();
        for (name, cols) in [
            (
                "t1",
                vec!["id", "col1", "col2", "col3", "col4", "col5", "col6"],
            ),
            ("t2", vec!["id", "col4", "col7"]),
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
        let mut io = IoStats::new();
        for i in 0..2000i64 {
            db.table_mut("t1")
                .unwrap()
                .insert(
                    vec![
                        Value::Int(i),
                        Value::Int(i % 10),
                        Value::Int(i % 100),
                        Value::Int(i % 500), // col3: high NDV
                        Value::Int(i % 5),   // col4: low NDV
                        Value::Int(i % 50),
                        Value::Int(i % 1000), // col6: two rows a value
                    ],
                    &mut io,
                )
                .unwrap();
        }
        for i in 0..200i64 {
            db.table_mut("t2")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 5), Value::Int(i % 20)],
                    &mut io,
                )
                .unwrap();
            db.table_mut("t3")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 100), Value::Int(i % 20)],
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
    fn equality_predicates_yield_unordered_prefix() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[("SELECT id FROM t1 WHERE col1 = 1 AND col2 = 2", 3)],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(cands.iter().any(|c| c.table == "t1"
            && c.columns.len() == 2
            && c.columns.contains(&"col1".to_string())
            && c.columns.contains(&"col2".to_string())));
    }

    #[test]
    fn range_column_most_selective_chosen_last() {
        let mut db = db();
        // col3 (ndv 500) and col4 (ndv 5) both ranged: col3 must be chosen.
        let w = workload(
            &mut db,
            &[(
                "SELECT id FROM t1 WHERE col1 = 1 AND col3 > 2 AND col4 > 1",
                3,
            )],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let c = cands
            .iter()
            .find(|c| c.columns.first() == Some(&"col1".to_string()))
            .unwrap();
        assert_eq!(c.columns, vec!["col1", "col3"]);
    }

    #[test]
    fn merged_candidates_across_queries() {
        let mut db = db();
        // Query A constrains {col1,col2,col3}; query B {col2,col3}: the
        // merged candidate puts {col2,col3} first (paper §III-E example).
        let w = workload(
            &mut db,
            &[
                (
                    "SELECT id FROM t1 WHERE col1 = 1 AND col2 = 2 AND col3 = 3",
                    3,
                ),
                ("SELECT id FROM t1 WHERE col2 = 5 AND col3 = 6", 3),
            ],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        let merged = cands
            .iter()
            .find(|c| c.columns.len() == 3 && c.sources.len() == 2)
            .expect("merged 3-wide candidate serving both queries");
        let first_two: BTreeSet<&str> = merged.columns[..2].iter().map(String::as_str).collect();
        assert_eq!(first_two, ["col2", "col3"].into());
        assert_eq!(merged.columns[2], "col1");
    }

    #[test]
    fn join_parameter_gates_powerset() {
        let mut db = db();
        let sql = "SELECT t1.col1 FROM t1, t2, t3 \
                   WHERE t1.col4 = t2.col4 AND t1.col2 = t3.col2 AND t2.col7 = t3.col7 \
                   AND t1.col1 = 5";
        let w = workload(&mut db, &[(sql, 3)]);
        // j = 0: no join columns explored; t1 candidates only from filters.
        let cands0 = generate_candidates(
            &db,
            &w,
            &CandidateGenConfig {
                join_parameter: 0,
                ..Default::default()
            },
        );
        assert!(!cands0
            .iter()
            .any(|c| c.table == "t1" && c.columns.contains(&"col4".to_string())));
        // j = 2: t1 joins 2 tables -> powerset explored; a candidate with
        // col1 + col4 (join col toward t2) must appear.
        let cands2 = generate_candidates(
            &db,
            &w,
            &CandidateGenConfig {
                join_parameter: 2,
                ..Default::default()
            },
        );
        assert!(cands2.iter().any(|c| c.table == "t1"
            && c.columns.contains(&"col1".to_string())
            && c.columns.contains(&"col4".to_string())));
        // More candidates with bigger j.
        assert!(cands2.len() > cands0.len());
    }

    #[test]
    fn group_by_candidate_generated() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[("SELECT col2, COUNT(*) FROM t1 GROUP BY col2", 3)],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(cands
            .iter()
            .any(|c| c.table == "t1" && c.columns == vec!["col2".to_string()]));
    }

    #[test]
    fn order_by_candidate_generated_asc_only() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[
                ("SELECT id FROM t1 ORDER BY col5 LIMIT 10", 3),
                ("SELECT id FROM t1 ORDER BY col4 DESC LIMIT 10", 3),
            ],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(cands
            .iter()
            .any(|c| c.columns.first() == Some(&"col5".to_string())));
        // DESC order-by produces no candidate (forward-scan engine).
        assert!(!cands
            .iter()
            .any(|c| c.columns.first() == Some(&"col4".to_string())));
    }

    #[test]
    fn update_where_clause_generates_candidates() {
        let mut db = db();
        let w = workload(&mut db, &[("UPDATE t1 SET col5 = 1 WHERE col2 = 7", 3)]);
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(cands
            .iter()
            .any(|c| c.table == "t1" && c.columns.contains(&"col2".to_string())));
    }

    #[test]
    fn insert_generates_no_candidates() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[("INSERT INTO t2 (id, col4, col7) VALUES (9999, 1, 2)", 1)],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(cands.is_empty());
    }

    #[test]
    fn max_width_truncates() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[(
                "SELECT id FROM t1 WHERE col1 = 1 AND col2 = 2 AND col4 = 4 AND col5 = 5",
                3,
            )],
        );
        let cands = generate_candidates(
            &db,
            &w,
            &CandidateGenConfig {
                max_width: 2,
                ..Default::default()
            },
        );
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.width() <= 2));
    }

    #[test]
    fn covering_mode_appends_projection_columns() {
        let db = db();
        let stmt = parse_statement("SELECT col2, col3 FROM t1 WHERE col5 = 2").unwrap();
        let st = analyze_structure(&db, &stmt).unwrap();
        let cands = candidates_for_selection(&db, &st, 2, CoveringMode::Covering, true);
        // §IV-A: <{col5}, {col2, col3}> (with id implicit as PK).
        assert!(cands.iter().any(|(t, po)| {
            t == "t1"
                && po.partitions().first().is_some_and(|p| p.contains("col5"))
                && po.columns().contains("col2")
                && po.columns().contains("col3")
        }));
    }

    #[test]
    fn powerset_respects_j() {
        let db = db();
        let stmt = parse_statement(
            "SELECT t3.col7 FROM t1, t2, t3 WHERE t3.col2 = t1.col2 AND t3.col7 = t2.col7",
        )
        .unwrap();
        let st = analyze_structure(&db, &stmt).unwrap();
        let t3 = st.table("t3").unwrap();
        assert_eq!(joined_tables_powerset(t3, 2).len(), 4);
        assert_eq!(joined_tables_powerset(t3, 1).len(), 1); // over-joined: {∅}
        let t1 = st.table("t1").unwrap();
        assert_eq!(joined_tables_powerset(t1, 1).len(), 2);
    }

    #[test]
    fn ipp_relaxation_emits_reduced_candidate() {
        let mut db = db();
        // col6 (ndv 1000) alone isolates 2 of 2000 rows, which is
        // IPP_RELAXATION_ROWS: the low-NDV columns col4 (ndv 5) and col1
        // (ndv 10) are dropped from a reduced variant.
        let w = workload(
            &mut db,
            &[(
                "SELECT id FROM t1 WHERE col6 = 7 AND col4 = 1 AND col1 = 2",
                3,
            )],
        );
        let relaxed = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(
            relaxed
                .iter()
                .any(|c| c.table == "t1" && c.columns == vec!["col6".to_string()]),
            "expected a reduced single-column candidate: {relaxed:?}"
        );
        // col3 (ndv 500) alone leaves ~4 expected rows, above the
        // threshold: its reduced variant keeps col1 as well.
        let w = workload(
            &mut db,
            &[(
                "SELECT id FROM t1 WHERE col3 = 7 AND col4 = 1 AND col1 = 2",
                3,
            )],
        );
        let strict = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(!strict
            .iter()
            .any(|c| c.table == "t1" && c.columns == vec!["col3".to_string()]));
    }

    #[test]
    fn relaxation_keeps_full_candidate_too() {
        let mut db = db();
        let w = workload(
            &mut db,
            &[("SELECT id FROM t1 WHERE col6 = 7 AND col4 = 1", 3)],
        );
        let cands = generate_candidates(&db, &w, &CandidateGenConfig::default());
        assert!(cands.iter().any(|c| c.columns == vec!["col6".to_string()]));
        assert!(cands.iter().any(|c| c.columns.len() == 2
            && c.columns.contains(&"col6".to_string())
            && c.columns.contains(&"col4".to_string())));
    }

    #[test]
    fn candidate_name_is_deterministic() {
        let c = CandidateIndex {
            table: "t1".into(),
            columns: vec!["a".into(), "b".into()],
            po: PartialOrder::chain(["a", "b"]).unwrap(),
            sources: BTreeSet::new(),
        };
        assert_eq!(c.name(), "aim_t1_a_b");
    }
}
