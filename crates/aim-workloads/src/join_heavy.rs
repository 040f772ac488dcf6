//! Join-heavy transactional workload for the join-parameter experiment
//! (Figure 6 of the paper).
//!
//! §VI-C's argument is built into the data: filter columns have low
//! individual selectivity (NDV ≈ 5) but high *joint* selectivity, so "any
//! combination of two sub-predicates is not selective enough but a
//! combination of all three is highly selective" — a configuration a
//! one-column-at-a-time greedy search cannot reach. The join topology is a
//! chain/star around the `child` fact table:
//!
//! ```text
//! grand ← parent ← child → dim_d
//!                        → dim_e
//! ```
//!
//! so `parent` joins two tables (needs j ≥ 2 for exhaustive join-order
//! candidates) and `child` joins up to three (j = 3), giving each value of
//! the join parameter a distinct slice of the workload to unlock.

use crate::datagen::{Distribution, RowGenerator};
use crate::replay::QuerySpec;
use crate::rng::{Rng, SeedableRng, StdRng};
use aim_core::WeightedQuery;
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct JoinHeavyConfig {
    pub child_rows: i64,
    pub parent_rows: i64,
    pub grand_rows: i64,
    pub dim_rows: i64,
    pub seed: u64,
}

impl Default for JoinHeavyConfig {
    fn default() -> Self {
        Self {
            child_rows: 12_000,
            parent_rows: 1_500,
            grand_rows: 200,
            dim_rows: 300,
            seed: 0xF16,
        }
    }
}

/// Low-NDV filter columns: individually unselective, jointly selective.
const FILTER_NDV: i64 = 5;

/// Builds and populates the chain/star database, statistics analyzed.
pub fn build_database(cfg: &JoinHeavyConfig) -> Database {
    let mut db = Database::new();
    use ColumnType::*;
    let mk = |name: &str, cols: Vec<(&str, ColumnType)>| {
        TableSchema::new(
            name,
            cols.into_iter()
                .map(|(c, t)| ColumnDef::new(c, t))
                .collect(),
            &["id"],
        )
        .expect("valid schema")
    };
    db.create_table(mk("grand", vec![("id", Int), ("g1", Int), ("gval", Float)]))
        .expect("fresh db");
    db.create_table(mk(
        "parent",
        vec![
            ("id", Int),
            ("fk_g", Int),
            ("p1", Int),
            ("p2", Int),
            ("pval", Float),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk("dim_d", vec![("id", Int), ("d1", Int), ("dval", Float)]))
        .expect("fresh db");
    db.create_table(mk("dim_e", vec![("id", Int), ("e1", Int), ("eval", Float)]))
        .expect("fresh db");
    db.create_table(mk(
        "child",
        vec![
            ("id", Int),
            ("fk_p", Int),
            ("fk_d", Int),
            ("fk_e", Int),
            ("a", Int),
            ("b", Int),
            ("cc", Int),
            ("val", Float),
        ],
    ))
    .expect("fresh db");

    let fill = |db: &mut Database, table: &str, n: i64, dists: Vec<Distribution>, seed: u64| {
        let mut g = RowGenerator::new(seed, dists);
        let mut io = IoStats::new();
        for _ in 0..n {
            db.table_mut(table)
                .expect("exists")
                .insert(g.next_row(), &mut io)
                .expect("serial keys");
        }
    };
    fill(
        &mut db,
        "grand",
        cfg.grand_rows,
        vec![
            Distribution::Serial,
            Distribution::UniformInt(50),
            Distribution::UniformFloat(100.0),
        ],
        cfg.seed ^ 1,
    );
    fill(
        &mut db,
        "parent",
        cfg.parent_rows,
        vec![
            Distribution::Serial,
            Distribution::ForeignKey(cfg.grand_rows),
            Distribution::UniformInt(FILTER_NDV),
            Distribution::UniformInt(FILTER_NDV),
            Distribution::UniformFloat(100.0),
        ],
        cfg.seed ^ 2,
    );
    for (t, s) in [("dim_d", 3u64), ("dim_e", 4)] {
        fill(
            &mut db,
            t,
            cfg.dim_rows,
            vec![
                Distribution::Serial,
                Distribution::UniformInt(30),
                Distribution::UniformFloat(100.0),
            ],
            cfg.seed ^ s,
        );
    }
    fill(
        &mut db,
        "child",
        cfg.child_rows,
        vec![
            Distribution::Serial,
            Distribution::ForeignKey(cfg.parent_rows),
            Distribution::ForeignKey(cfg.dim_rows),
            Distribution::ForeignKey(cfg.dim_rows),
            Distribution::UniformInt(FILTER_NDV),
            Distribution::UniformInt(FILTER_NDV),
            Distribution::UniformInt(FILTER_NDV),
            Distribution::UniformFloat(100.0),
        ],
        cfg.seed ^ 5,
    );
    db.analyze_all();
    db
}

/// Number of parameter variants per query shape.
const VARIANTS: usize = 6;

/// The workload mix. Weights reflect a transactional system: the greedy
/// trap and the 2-/3-way joins dominate; the 4-way is a minor report.
pub fn specs(seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = |template: &dyn Fn(&mut StdRng) -> String| -> Vec<aim_sql::Statement> {
        (0..VARIANTS)
            .map(|_| parse_statement(&template(&mut rng)).expect("generated SQL"))
            .collect()
    };
    let f = FILTER_NDV;
    vec![
        // Q1 — the greedy trap: three jointly selective sub-predicates.
        QuerySpec::new(
            "triple_filter",
            6.0,
            v(&|r: &mut StdRng| {
                format!(
                    "SELECT id, val FROM child WHERE a = {} AND b = {} AND cc = {}",
                    r.gen_range(0..f),
                    r.gen_range(0..f),
                    r.gen_range(0..f)
                )
            }),
        ),
        // Q2 — 2-way join: parent filter drives, child probed (j = 1).
        QuerySpec::new(
            "two_way",
            5.0,
            v(&|r: &mut StdRng| {
                format!(
                    "SELECT c.id, p.pval FROM child c, parent p \
                     WHERE c.fk_p = p.id AND p.p1 = {} AND p.p2 = {} AND c.a = {}",
                    r.gen_range(0..f),
                    r.gen_range(0..f),
                    r.gen_range(0..f)
                )
            }),
        ),
        // Q3 — 3-way chain: grand filter → parent (joins 2 tables: j = 2)
        // → child.
        QuerySpec::new(
            "chain_three",
            5.0,
            v(&|r: &mut StdRng| {
                format!(
                    "SELECT c.id, g.gval FROM grand g, parent p, child c \
                     WHERE g.id = p.fk_g AND p.id = c.fk_p AND g.g1 = {} \
                     AND c.a = {} AND c.b = {}",
                    r.gen_range(0..50),
                    r.gen_range(0..f),
                    r.gen_range(0..f)
                )
            }),
        ),
        // Q4 — star: child joins parent + dim_d (child joins 2: j = 2).
        QuerySpec::new(
            "star_three",
            4.0,
            v(&|r: &mut StdRng| {
                format!(
                    "SELECT c.id, d.dval FROM child c, parent p, dim_d d \
                     WHERE c.fk_p = p.id AND c.fk_d = d.id AND d.d1 = {} AND p.p1 = {} \
                     AND c.b = {}",
                    r.gen_range(0..30),
                    r.gen_range(0..f),
                    r.gen_range(0..f)
                )
            }),
        ),
        // Q5 — 4-way star: child joins 3 tables (j = 3), low weight.
        QuerySpec::new(
            "star_four",
            1.0,
            v(&|r: &mut StdRng| {
                format!(
                    "SELECT c.id FROM child c, parent p, dim_d d, dim_e e \
                     WHERE c.fk_p = p.id AND c.fk_d = d.id AND c.fk_e = e.id \
                     AND d.d1 = {} AND e.e1 = {} AND p.p2 = {}",
                    r.gen_range(0..30),
                    r.gen_range(0..30),
                    r.gen_range(0..f)
                )
            }),
        ),
        // DML — keeps maintenance costs visible.
        QuerySpec::new(
            "touch_child",
            2.0,
            v(&|r: &mut StdRng| {
                format!(
                    "UPDATE child SET val = {} WHERE id = {}",
                    r.gen_range(0..100),
                    r.gen_range(0..12_000)
                )
            }),
        ),
    ]
}

/// The same workload as a weighted advisor input.
pub fn weighted(seed: u64) -> Vec<WeightedQuery> {
    specs(seed)
        .into_iter()
        .flat_map(|s| {
            let w = s.weight / s.variants.len() as f64;
            s.variants
                .into_iter()
                .map(move |stmt| WeightedQuery::new(stmt, w))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_exec::Engine;

    #[test]
    fn database_and_specs_build() {
        let cfg = JoinHeavyConfig {
            child_rows: 1000,
            parent_rows: 200,
            grand_rows: 40,
            dim_rows: 50,
            seed: 1,
        };
        let mut db = build_database(&cfg);
        assert_eq!(db.table("child").unwrap().row_count(), 1000);
        let specs = specs(3);
        assert_eq!(specs.len(), 6);
        let engine = Engine::new();
        for s in &specs {
            for v in &s.variants {
                // UPDATE ids range over the default child count; tolerate
                // misses on the scaled-down fixture.
                let _ = engine.execute(&mut db, v);
            }
        }
    }

    #[test]
    fn triple_filter_is_a_greedy_trap() {
        // A single filter column matches ~20% of rows: a non-covering
        // single-column index must lose to a scan, while the 3-column
        // composite wins outright.
        let cfg = JoinHeavyConfig::default();
        let db = build_database(&cfg);
        let w = vec![WeightedQuery::new(
            parse_statement("SELECT id, val FROM child WHERE a = 1 AND b = 2 AND cc = 3").unwrap(),
            1.0,
        )];
        use aim_core::{defs_to_config, workload_cost};
        use aim_exec::{HypoConfig, WhatIfCache};
        use aim_storage::IndexDef;
        let cache = WhatIfCache::new();
        let base = workload_cost(&db, &w, &HypoConfig::none(), &cache);
        let single = workload_cost(
            &db,
            &w,
            &defs_to_config(&db, &[IndexDef::new("s", "child", vec!["a".into()])]),
            &cache,
        );
        let triple = workload_cost(
            &db,
            &w,
            &defs_to_config(
                &db,
                &[IndexDef::new(
                    "t3",
                    "child",
                    vec!["a".into(), "b".into(), "cc".into()],
                )],
            ),
            &cache,
        );
        assert!(
            single >= base * 0.999,
            "single must not help: {single} vs {base}"
        );
        // Non-covering (val is fetched), so lookups dominate: a ~40%
        // cut; the covering variant does far better still.
        assert!(triple < base * 0.7, "triple must help: {triple} vs {base}");
        let covering = workload_cost(
            &db,
            &w,
            &defs_to_config(
                &db,
                &[IndexDef::new(
                    "t4",
                    "child",
                    vec!["a".into(), "b".into(), "cc".into(), "val".into()],
                )],
            ),
            &cache,
        );
        assert!(covering < base * 0.1, "covering: {covering} vs {base}");
    }

    #[test]
    fn weighted_workload_flattens_variants() {
        let w = weighted(3);
        assert_eq!(w.len(), 6 * VARIANTS);
    }
}
