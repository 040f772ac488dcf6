//! TPC-DS-like analytical benchmark.
//!
//! The paper's §VI-B also ran TPC-DS ("graphs from the TPC-DS benchmark
//! followed the same trend"); §VIII-a notes DTA needed "a really high
//! timeout" there when exploring candidates of width ≥ 3. This module
//! provides a scaled-down snowflake: two sales fact tables sharing
//! dimension tables, and 24 query shapes in six families covering the
//! decision-support patterns (multi-dimension star joins, date-range
//! slices, grouped rollups, channel comparison), restricted to the
//! engine's SQL subset.

use crate::datagen::{Distribution, RowGenerator};
use crate::rng::{Rng, SeedableRng, StdRng};
use aim_core::WeightedQuery;
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema};

/// TPC-DS generator configuration.
#[derive(Debug, Clone)]
pub struct TpcdsConfig {
    /// Rows in each sales fact table; dimensions scale from it.
    pub sales_rows: i64,
    pub seed: u64,
}

impl Default for TpcdsConfig {
    fn default() -> Self {
        Self {
            sales_rows: 10_000,
            seed: 0xD5,
        }
    }
}

const YEARS: i64 = 5; // date_dim spans 5 years of days
const CATEGORIES: &[&str] = &["Books", "Electronics", "Home", "Music", "Shoes", "Sports"];

/// Builds and populates the snowflake database, statistics analyzed.
pub fn build_database(cfg: &TpcdsConfig) -> Database {
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

    let days = YEARS * 365;
    let items = (cfg.sales_rows / 20).max(50);
    let customers = (cfg.sales_rows / 10).max(100);
    let stores = 12;
    let promos = 30;

    db.create_table(mk(
        "date_dim",
        vec![
            ("id", Int),
            ("year", Int),
            ("month", Int),
            ("day_of_week", Int),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "item",
        vec![
            ("id", Int),
            ("category", Str),
            ("brand_id", Int),
            ("current_price", Float),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "customer",
        vec![
            ("id", Int),
            ("birth_year", Int),
            ("state", Int),
            ("credit_rating", Int),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "store",
        vec![("id", Int), ("state", Int), ("floor_space", Int)],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "promotion",
        vec![("id", Int), ("channel", Int), ("cost", Float)],
    ))
    .expect("fresh db");
    for fact in ["store_sales", "web_sales"] {
        db.create_table(mk(
            fact,
            vec![
                ("id", Int),
                ("date_id", Int),
                ("item_id", Int),
                ("customer_id", Int),
                ("store_id", Int),
                ("promo_id", Int),
                ("quantity", Int),
                ("sales_price", Float),
                ("net_profit", Float),
            ],
        ))
        .expect("fresh db");
    }

    // date_dim is structured, not random.
    {
        let mut io = IoStats::new();
        for d in 0..days {
            db.table_mut("date_dim")
                .expect("exists")
                .insert(
                    vec![
                        aim_storage::Value::Int(d),
                        aim_storage::Value::Int(1998 + d / 365),
                        aim_storage::Value::Int((d / 30) % 12 + 1),
                        aim_storage::Value::Int(d % 7),
                    ],
                    &mut io,
                )
                .expect("serial");
        }
    }
    let fill = |db: &mut Database, table: &str, n: i64, dists: Vec<Distribution>, seed: u64| {
        let mut g = RowGenerator::new(seed, dists);
        let mut io = IoStats::new();
        for _ in 0..n {
            db.table_mut(table)
                .expect("exists")
                .insert(g.next_row(), &mut io)
                .expect("serial");
        }
    };
    fill(
        &mut db,
        "item",
        items,
        vec![
            Distribution::Serial,
            Distribution::Categorical(CATEGORIES.iter().map(|s| s.to_string()).collect()),
            Distribution::UniformInt(100),
            Distribution::UniformFloat(300.0),
        ],
        cfg.seed ^ 1,
    );
    fill(
        &mut db,
        "customer",
        customers,
        vec![
            Distribution::Serial,
            Distribution::UniformInt(80), // birth_year offset from 1930
            Distribution::UniformInt(50),
            Distribution::UniformInt(4),
        ],
        cfg.seed ^ 2,
    );
    fill(
        &mut db,
        "store",
        stores,
        vec![
            Distribution::Serial,
            Distribution::UniformInt(50),
            Distribution::UniformInt(10_000),
        ],
        cfg.seed ^ 3,
    );
    fill(
        &mut db,
        "promotion",
        promos,
        vec![
            Distribution::Serial,
            Distribution::UniformInt(3),
            Distribution::UniformFloat(5_000.0),
        ],
        cfg.seed ^ 4,
    );
    for (i, fact) in ["store_sales", "web_sales"].iter().enumerate() {
        fill(
            &mut db,
            fact,
            cfg.sales_rows,
            vec![
                Distribution::Serial,
                Distribution::UniformInt(days),
                Distribution::Zipf { n: items, s: 1.1 },
                Distribution::ForeignKey(customers),
                Distribution::UniformInt(stores),
                Distribution::Zipf { n: promos, s: 1.2 },
                Distribution::UniformInt(100),
                Distribution::UniformFloat(500.0),
                Distribution::UniformFloat(100.0),
            ],
            cfg.seed ^ (10 + i as u64),
        );
    }
    db.analyze_all();
    db
}

/// 24 query shapes in six families (`ds1a`.. `ds6d`).
pub fn query_texts(seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();

    // Family 1: date-sliced store sales rollup (fact + date_dim).
    for v in 0..4 {
        let year = 1998 + rng.gen_range(0..YEARS);
        out.push((
            format!("ds1{}", (b'a' + v) as char),
            format!(
                "SELECT d.month, SUM(ss.sales_price), COUNT(*) \
             FROM store_sales ss, date_dim d \
             WHERE ss.date_id = d.id AND d.year = {year} AND d.day_of_week = {dow} \
             GROUP BY d.month ORDER BY d.month",
                dow = rng.gen_range(0..7)
            ),
        ));
    }
    // Family 2: category revenue (fact + item + date).
    for v in 0..4 {
        let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        let year = 1998 + rng.gen_range(0..YEARS);
        out.push((
            format!("ds2{}", (b'a' + v) as char),
            format!(
                "SELECT i.brand_id, SUM(ss.net_profit) \
             FROM store_sales ss, item i, date_dim d \
             WHERE ss.item_id = i.id AND ss.date_id = d.id \
             AND i.category = '{cat}' AND d.year = {year} \
             GROUP BY i.brand_id ORDER BY i.brand_id LIMIT 20"
            ),
        ));
    }
    // Family 3: customer-demographic slice (fact + customer + store).
    for v in 0..4 {
        let state = rng.gen_range(0..50);
        let rating = rng.gen_range(0..4);
        out.push((
            format!("ds3{}", (b'a' + v) as char),
            format!(
                "SELECT s.id, COUNT(*) FROM store_sales ss, customer c, store s \
             WHERE ss.customer_id = c.id AND ss.store_id = s.id \
             AND c.state = {state} AND c.credit_rating = {rating} \
             GROUP BY s.id ORDER BY s.id"
            ),
        ));
    }
    // Family 4: promotion effectiveness (fact + promotion + item).
    for v in 0..4 {
        let channel = rng.gen_range(0..3);
        let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        out.push((
            format!("ds4{}", (b'a' + v) as char),
            format!(
                "SELECT p.id, SUM(ss.quantity) FROM store_sales ss, promotion p, item i \
             WHERE ss.promo_id = p.id AND ss.item_id = i.id \
             AND p.channel = {channel} AND i.category = '{cat}' \
             GROUP BY p.id ORDER BY p.id LIMIT 10"
            ),
        ));
    }
    // Family 5: web channel, price-band scan (fact + item).
    for v in 0..4 {
        let lo = rng.gen_range(0..40);
        out.push((
            format!("ds5{}", (b'a' + v) as char),
            format!(
                "SELECT ws.id, ws.sales_price FROM web_sales ws, item i \
             WHERE ws.item_id = i.id AND i.current_price BETWEEN {lo}.0 AND {hi}.0 \
             AND ws.quantity > 80 ORDER BY ws.sales_price DESC LIMIT 50",
                hi = lo + 15
            ),
        ));
    }
    // Family 6: five-way star (fact + date + item + customer + store).
    for v in 0..4 {
        let year = 1998 + rng.gen_range(0..YEARS);
        let cat = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        let state = rng.gen_range(0..50);
        out.push((
            format!("ds6{}", (b'a' + v) as char),
            format!(
                "SELECT c.state, SUM(ss.net_profit) \
             FROM store_sales ss, date_dim d, item i, customer c, store s \
             WHERE ss.date_id = d.id AND ss.item_id = i.id AND ss.customer_id = c.id \
             AND ss.store_id = s.id AND d.year = {year} AND i.category = '{cat}' \
             AND s.state = {state} GROUP BY c.state ORDER BY c.state"
            ),
        ));
    }
    out
}

/// Parses the 24 queries into a weighted workload (weight 1 each).
pub fn weighted_workload(seed: u64) -> Vec<WeightedQuery> {
    query_texts(seed)
        .into_iter()
        .map(|(label, sql)| {
            let stmt = parse_statement(&sql)
                .unwrap_or_else(|e| panic!("{label} fails to parse: {e}\n{sql}"));
            WeightedQuery::new(stmt, 1.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_exec::Engine;

    #[test]
    fn all_queries_parse() {
        assert_eq!(weighted_workload(9).len(), 24);
    }

    #[test]
    fn database_builds_and_small_joins_execute() {
        let cfg = TpcdsConfig {
            sales_rows: 800,
            seed: 9,
        };
        let mut db = build_database(&cfg);
        assert_eq!(db.table("store_sales").unwrap().row_count(), 800);
        assert_eq!(
            db.table("date_dim").unwrap().row_count() as i64,
            YEARS * 365
        );
        let engine = Engine::new();
        for (label, sql) in query_texts(9) {
            let stmt = parse_statement(&sql).unwrap();
            if let aim_sql::Statement::Select(s) = &stmt {
                if s.from.len() <= 3 {
                    let r = engine.execute(&mut db, &stmt);
                    assert!(r.is_ok(), "{label}: {:?}", r.err());
                }
            }
        }
    }

    #[test]
    fn aim_advisor_improves_tpcds() {
        use aim_core::{defs_to_config, workload_cost, AimAdvisor, IndexAdvisor};
        use aim_exec::{HypoConfig, WhatIfCache};
        let cfg = TpcdsConfig {
            sales_rows: 2_000,
            seed: 9,
        };
        let db = build_database(&cfg);
        let w = weighted_workload(9);
        let cache = WhatIfCache::new();
        let base = workload_cost(&db, &w, &HypoConfig::none(), &cache);
        let mut advisor = AimAdvisor::new(3, 3);
        let defs = advisor.recommend(&db, &w, u64::MAX);
        assert!(!defs.is_empty());
        let with = workload_cost(&db, &w, &defs_to_config(&db, &defs), &cache);
        assert!(with < base * 0.8, "base {base}, with {with}");
    }
}
