//! TPC-H-like analytical benchmark (schema + 22 query shapes).
//!
//! The paper's Figure 4a/4b and Figure 5 evaluate advisors on TPC-H. This
//! module provides a scaled-down generator with the same table topology,
//! key relationships and column roles, and 22 queries that preserve each
//! TPC-H query's *structure* (join graph, predicate shapes, grouping and
//! ordering) within the engine's SQL subset — subqueries and outer joins
//! are rewritten or elided, which is documented per query. Since advisor
//! comparisons rank configurations by optimizer-estimated cost, preserving
//! structure preserves the comparison's shape.
//!
//! Dates are encoded as integer day numbers (days since 1992-01-01,
//! range 0..=2556 covering 1992–1998, as in TPC-H).

use crate::datagen::{Distribution, RowGenerator};
use crate::rng::{Rng, SeedableRng, StdRng};
use aim_core::WeightedQuery;
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema};

/// TPC-H generator configuration.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    /// Scale factor relative to SF 1 (SF 1 = 6M lineitems). The default
    /// 0.002 yields ~12k lineitem rows — enough for meaningful statistics
    /// while keeping the simulated engine fast.
    pub scale: f64,
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            scale: 0.002,
            seed: 0xAA17,
        }
    }
}

const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: &[&str] = &["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const RETURNFLAGS: &[&str] = &["A", "N", "R"];
const LINESTATUS: &[&str] = &["F", "O"];
const BRANDS: &[&str] = &["Brand#11", "Brand#22", "Brand#33", "Brand#44", "Brand#55"];
const TYPES: &[&str] = &["ANODIZED", "BRUSHED", "BURNISHED", "PLATED", "POLISHED"];
const CONTAINERS: &[&str] = &["SM BOX", "MED BOX", "LG BOX", "SM PKG", "MED PKG", "LG PKG"];

fn cat(options: &[&str]) -> Distribution {
    Distribution::Categorical(options.iter().map(|s| s.to_string()).collect())
}

/// Row counts for each table at the configured scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchCardinalities {
    pub supplier: i64,
    pub customer: i64,
    pub part: i64,
    pub partsupp: i64,
    pub orders: i64,
    pub lineitem: i64,
}

impl TpchConfig {
    /// Cardinalities at this scale (floored at small minimums).
    pub fn cardinalities(&self) -> TpchCardinalities {
        let s = self.scale.max(1e-5);
        let n = |base: f64, min: i64| ((base * s) as i64).max(min);
        TpchCardinalities {
            supplier: n(10_000.0, 20),
            customer: n(150_000.0, 100),
            part: n(200_000.0, 100),
            partsupp: n(800_000.0, 200),
            orders: n(1_500_000.0, 500),
            lineitem: n(6_000_000.0, 2_000),
        }
    }
}

/// Builds and populates the TPC-H-like database, with statistics analyzed.
pub fn build_database(cfg: &TpchConfig) -> Database {
    let card = cfg.cardinalities();
    let mut db = Database::new();
    let mut io = IoStats::new();

    let mk = |name: &str, cols: Vec<(&str, ColumnType)>, pk: Vec<&str>| {
        TableSchema::new(
            name,
            cols.into_iter()
                .map(|(c, t)| ColumnDef::new(c, t))
                .collect(),
            &pk,
        )
        .expect("valid schema")
    };
    use ColumnType::*;

    db.create_table(mk(
        "region",
        vec![("r_regionkey", Int), ("r_name", Str)],
        vec!["r_regionkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "nation",
        vec![("n_nationkey", Int), ("n_name", Str), ("n_regionkey", Int)],
        vec!["n_nationkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "supplier",
        vec![
            ("s_suppkey", Int),
            ("s_name", Str),
            ("s_nationkey", Int),
            ("s_acctbal", Float),
        ],
        vec!["s_suppkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "customer",
        vec![
            ("c_custkey", Int),
            ("c_name", Str),
            ("c_nationkey", Int),
            ("c_mktsegment", Str),
            ("c_acctbal", Float),
        ],
        vec!["c_custkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "part",
        vec![
            ("p_partkey", Int),
            ("p_name", Str),
            ("p_brand", Str),
            ("p_type", Str),
            ("p_size", Int),
            ("p_container", Str),
            ("p_retailprice", Float),
        ],
        vec!["p_partkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "partsupp",
        vec![
            ("ps_partkey", Int),
            ("ps_suppkey", Int),
            ("ps_availqty", Int),
            ("ps_supplycost", Float),
        ],
        vec!["ps_partkey", "ps_suppkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "orders",
        vec![
            ("o_orderkey", Int),
            ("o_custkey", Int),
            ("o_orderstatus", Str),
            ("o_totalprice", Float),
            ("o_orderdate", Int),
            ("o_orderpriority", Str),
            ("o_shippriority", Int),
        ],
        vec!["o_orderkey"],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "lineitem",
        vec![
            ("l_orderkey", Int),
            ("l_linenumber", Int),
            ("l_partkey", Int),
            ("l_suppkey", Int),
            ("l_quantity", Int),
            ("l_extendedprice", Float),
            ("l_discount", Float),
            ("l_tax", Float),
            ("l_returnflag", Str),
            ("l_linestatus", Str),
            ("l_shipdate", Int),
            ("l_commitdate", Int),
            ("l_receiptdate", Int),
            ("l_shipmode", Str),
        ],
        vec!["l_orderkey", "l_linenumber"],
    ))
    .expect("fresh db");

    // region / nation: fixed tiny tables.
    let regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    for (i, name) in regions.iter().enumerate() {
        db.table_mut("region")
            .expect("exists")
            .insert(
                vec![
                    aim_storage::Value::Int(i as i64),
                    aim_storage::Value::Str(name.to_string()),
                ],
                &mut io,
            )
            .expect("unique keys");
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in 0..25i64 {
        db.table_mut("nation")
            .expect("exists")
            .insert(
                vec![
                    aim_storage::Value::Int(i),
                    aim_storage::Value::Str(format!("NATION{i:02}")),
                    aim_storage::Value::Int(rng.gen_range(0..5)),
                ],
                &mut io,
            )
            .expect("unique keys");
    }

    let fill = |db: &mut Database, table: &str, n: i64, dists: Vec<Distribution>, seed: u64| {
        let mut g = RowGenerator::new(seed, dists);
        let mut io = IoStats::new();
        for _ in 0..n {
            let row = g.next_row();
            db.table_mut(table)
                .expect("exists")
                .insert(row, &mut io)
                .expect("unique serial keys");
        }
    };

    fill(
        &mut db,
        "supplier",
        card.supplier,
        vec![
            Distribution::Serial,
            Distribution::RandomString(12),
            Distribution::UniformInt(25),
            Distribution::UniformFloat(10_000.0),
        ],
        cfg.seed ^ 1,
    );
    fill(
        &mut db,
        "customer",
        card.customer,
        vec![
            Distribution::Serial,
            Distribution::RandomString(12),
            Distribution::UniformInt(25),
            cat(SEGMENTS),
            Distribution::UniformFloat(10_000.0),
        ],
        cfg.seed ^ 2,
    );
    fill(
        &mut db,
        "part",
        card.part,
        vec![
            Distribution::Serial,
            Distribution::RandomString(16),
            cat(BRANDS),
            cat(TYPES),
            Distribution::UniformInt(50),
            cat(CONTAINERS),
            Distribution::UniformFloat(2_000.0),
        ],
        cfg.seed ^ 3,
    );

    // partsupp: composite PK (ps_partkey, ps_suppkey) must be unique:
    // derive both from a serial counter.
    {
        let mut g = RowGenerator::new(
            cfg.seed ^ 4,
            vec![
                Distribution::Serial,
                Distribution::UniformInt(10_000),
                Distribution::UniformFloat(1_000.0),
            ],
        );
        let mut io = IoStats::new();
        let per_part = (card.partsupp / card.part.max(1)).max(1);
        for i in 0..card.partsupp {
            let row = g.next_row();
            let part = (i / per_part) % card.part.max(1);
            let supp = (i % card.supplier.max(1) + i / card.part.max(1)) % card.supplier.max(1);
            db.table_mut("partsupp")
                .expect("exists")
                .insert(
                    vec![
                        aim_storage::Value::Int(part),
                        aim_storage::Value::Int(supp),
                        row[1].clone(),
                        row[2].clone(),
                    ],
                    &mut io,
                )
                .ok(); // rare composite collisions are skipped
        }
    }

    fill(
        &mut db,
        "orders",
        card.orders,
        vec![
            Distribution::Serial,
            Distribution::ForeignKey(card.customer),
            cat(&["F", "O", "P"]),
            Distribution::UniformFloat(400_000.0),
            Distribution::UniformInt(2557), // o_orderdate day number
            cat(PRIORITIES),
            Distribution::UniformInt(2),
        ],
        cfg.seed ^ 5,
    );

    // lineitem: composite PK (l_orderkey, l_linenumber).
    {
        let mut g = RowGenerator::new(
            cfg.seed ^ 6,
            vec![
                Distribution::ForeignKey(card.part),
                Distribution::ForeignKey(card.supplier),
                Distribution::UniformInt(50),
                Distribution::UniformFloat(100_000.0),
                Distribution::UniformFloat(0.11),
                Distribution::UniformFloat(0.09),
                cat(RETURNFLAGS),
                cat(LINESTATUS),
                Distribution::UniformInt(2557),
                Distribution::UniformInt(2557),
                Distribution::UniformInt(2557),
                cat(SHIPMODES),
            ],
        );
        let mut io = IoStats::new();
        let per_order = (card.lineitem / card.orders.max(1)).max(1);
        for i in 0..card.lineitem {
            let rest = g.next_row();
            let orderkey = (i / per_order) % card.orders.max(1);
            let linenumber = i % per_order;
            let mut row = vec![
                aim_storage::Value::Int(orderkey),
                aim_storage::Value::Int(linenumber),
            ];
            row.extend(rest);
            db.table_mut("lineitem")
                .expect("exists")
                .insert(row, &mut io)
                .expect("unique composite keys");
        }
    }

    db.analyze_all();
    db
}

/// The 22 query shapes, parameterized deterministically from `seed`.
/// Returns `(label, SQL)` pairs; labels are `Q1`..`Q22`.
pub fn query_texts(seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut date = |lo: i64, hi: i64| rng.gen_range(lo..hi);
    let seg = SEGMENTS[2];
    let brand = BRANDS[1];
    let ty = TYPES[0];
    let mode1 = SHIPMODES[0];
    let mode2 = SHIPMODES[5];

    let d1 = date(300, 1500);
    let d2 = date(300, 1500);
    let d3 = date(300, 1500);
    let d4 = date(300, 1200);
    let d5 = date(300, 1200);

    vec![
        // Q1: pricing summary report (single table, range + group + order).
        ("Q1".into(), format!(
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
             AVG(l_discount), COUNT(*) FROM lineitem WHERE l_shipdate <= {d} \
             GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus",
            d = 2557 - 90
        )),
        // Q2: minimum cost supplier (correlated subquery flattened to a join
        // + tight filters).
        ("Q2".into(), format!(
            "SELECT s_acctbal, s_name, n_name, p_partkey FROM part, supplier, partsupp, nation, region \
             WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 \
             AND p_type = '{ty}' AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
             AND r_name = 'EUROPE' AND ps_supplycost < 100.0 ORDER BY s_acctbal DESC LIMIT 100"
        )),
        // Q3: shipping priority.
        ("Q3".into(), format!(
            "SELECT o_orderkey, SUM(l_extendedprice), o_orderdate, o_shippriority \
             FROM customer, orders, lineitem \
             WHERE c_mktsegment = '{seg}' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
             AND o_orderdate < {d1} AND l_shipdate > {d1} \
             GROUP BY o_orderkey, o_orderdate, o_shippriority ORDER BY o_orderkey LIMIT 10"
        )),
        // Q4: order priority checking (EXISTS flattened to a join).
        ("Q4".into(), format!(
            "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND o_orderdate >= {d2} AND o_orderdate < {e} \
             AND l_commitdate < l_receiptdate GROUP BY o_orderpriority ORDER BY o_orderpriority",
            e = d2 + 90
        )),
        // Q5: local supplier volume (6-way join).
        ("Q5".into(), format!(
            "SELECT n_name, SUM(l_extendedprice) FROM customer, orders, lineitem, supplier, nation, region \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
             AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey \
             AND n_regionkey = r_regionkey AND r_name = 'ASIA' \
             AND o_orderdate >= {d3} AND o_orderdate < {e} GROUP BY n_name ORDER BY n_name",
            e = d3 + 365
        )),
        // Q6: forecasting revenue change (single table, three ranges).
        ("Q6".into(), format!(
            "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
             WHERE l_shipdate >= {d4} AND l_shipdate < {e} \
             AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
            e = d4 + 365
        )),
        // Q7: volume shipping (two-nation join; nation pair as IN filters).
        ("Q7".into(), format!(
            "SELECT n_name, SUM(l_extendedprice) FROM supplier, lineitem, orders, customer, nation \
             WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey \
             AND s_nationkey = n_nationkey AND n_name IN ('NATION03', 'NATION07') \
             AND l_shipdate BETWEEN {d5} AND {e} GROUP BY n_name",
            e = d5 + 730
        )),
        // Q8: national market share (simplified join chain).
        ("Q8".into(), format!(
            "SELECT o_orderdate, SUM(l_extendedprice) FROM part, lineitem, orders, customer, nation, region \
             WHERE p_partkey = l_partkey AND l_orderkey = o_orderkey AND o_custkey = c_custkey \
             AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'AMERICA' \
             AND p_type = '{ty}' AND o_orderdate BETWEEN 730 AND 1460 \
             GROUP BY o_orderdate ORDER BY o_orderdate"
        )),
        // Q9: product type profit measure.
        ("Q9".into(), format!(
            "SELECT n_name, SUM(l_extendedprice) FROM part, supplier, lineitem, partsupp, nation \
             WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
             AND p_partkey = l_partkey AND s_nationkey = n_nationkey AND p_brand = '{brand}' \
             GROUP BY n_name ORDER BY n_name"
        )),
        // Q10: returned item reporting.
        ("Q10".into(), format!(
            "SELECT c_custkey, c_name, SUM(l_extendedprice), c_acctbal, n_name \
             FROM customer, orders, lineitem, nation \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
             AND o_orderdate >= {d1} AND o_orderdate < {e} AND l_returnflag = 'R' \
             AND c_nationkey = n_nationkey \
             GROUP BY c_custkey, c_name, c_acctbal, n_name ORDER BY c_custkey LIMIT 20",
            e = d1 + 90
        )),
        // Q11: important stock identification.
        ("Q11".into(), "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) FROM partsupp, supplier, nation \
             WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'NATION11' \
             GROUP BY ps_partkey ORDER BY ps_partkey LIMIT 50".to_string()),
        // Q12: shipping modes and order priority.
        ("Q12".into(), format!(
            "SELECT l_shipmode, COUNT(*) FROM orders, lineitem \
             WHERE o_orderkey = l_orderkey AND l_shipmode IN ('{mode1}', '{mode2}') \
             AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate \
             AND l_receiptdate >= {d2} AND l_receiptdate < {e} \
             GROUP BY l_shipmode ORDER BY l_shipmode",
            e = d2 + 365
        )),
        // Q13: customer distribution (outer join approximated inner).
        ("Q13".into(),
            "SELECT c_custkey, COUNT(*) FROM customer, orders \
             WHERE c_custkey = o_custkey AND o_orderpriority <> '1-URGENT' \
             GROUP BY c_custkey ORDER BY c_custkey LIMIT 100".into()
        ),
        // Q14: promotion effect.
        ("Q14".into(), format!(
            "SELECT SUM(l_extendedprice * l_discount) FROM lineitem, part \
             WHERE l_partkey = p_partkey AND l_shipdate >= {d3} AND l_shipdate < {e}",
            e = d3 + 30
        )),
        // Q15: top supplier (view flattened).
        ("Q15".into(), format!(
            "SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem \
             WHERE l_shipdate >= {d4} AND l_shipdate < {e} \
             GROUP BY l_suppkey ORDER BY l_suppkey LIMIT 25",
            e = d4 + 90
        )),
        // Q16: parts/supplier relationship.
        ("Q16".into(), format!(
            "SELECT p_brand, p_type, p_size, COUNT(DISTINCT ps_suppkey) FROM partsupp, part \
             WHERE p_partkey = ps_partkey AND p_brand <> '{brand}' AND p_size IN (1, 14, 23, 45) \
             GROUP BY p_brand, p_type, p_size ORDER BY p_brand LIMIT 40"
        )),
        // Q17: small-quantity-order revenue (agg subquery approximated by a
        // constant threshold).
        ("Q17".into(), format!(
            "SELECT AVG(l_extendedprice) FROM lineitem, part \
             WHERE p_partkey = l_partkey AND p_brand = '{brand}' \
             AND p_container = 'MED BOX' AND l_quantity < 5"
        )),
        // Q18: large volume customer.
        ("Q18".into(),
            "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
             FROM customer, orders, lineitem \
             WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND o_totalprice > 350000.0 \
             AND l_quantity > 45 ORDER BY o_totalprice DESC LIMIT 100".into()
        ),
        // Q19: discounted revenue (three-branch OR over part+lineitem).
        ("Q19".into(), format!(
            "SELECT SUM(l_extendedprice) FROM lineitem, part \
             WHERE p_partkey = l_partkey AND \
             ((p_brand = '{b1}' AND l_quantity BETWEEN 1 AND 11) \
             OR (p_brand = '{b2}' AND l_quantity BETWEEN 10 AND 20) \
             OR (p_brand = '{b3}' AND l_quantity BETWEEN 20 AND 30))",
            b1 = BRANDS[0], b2 = BRANDS[2], b3 = BRANDS[4]
        )),
        // Q20: potential part promotion (nested subqueries flattened).
        ("Q20".into(), "SELECT s_name FROM supplier, nation, partsupp \
             WHERE s_suppkey = ps_suppkey AND s_nationkey = n_nationkey \
             AND n_name = 'NATION05' AND ps_availqty > 5000 ORDER BY s_name LIMIT 50".to_string()),
        // Q21: suppliers who kept orders waiting (covering-index showcase).
        ("Q21".into(),
            "SELECT s_name, COUNT(*) FROM supplier, lineitem, orders, nation \
             WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND o_orderstatus = 'F' \
             AND l_receiptdate > l_commitdate AND s_nationkey = n_nationkey \
             AND n_name = 'NATION13' GROUP BY s_name ORDER BY s_name LIMIT 100".into()
        ),
        // Q22: global sales opportunity (country-code prefix as IN filter).
        ("Q22".into(),
            "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
             WHERE c_nationkey IN (3, 7, 11, 15, 19, 23) AND c_acctbal > 0.0 \
             GROUP BY c_nationkey ORDER BY c_nationkey".into()
        ),
    ]
}

/// Parses the 22 queries into weighted workload entries (weight 1 each, as
/// in the analytical benchmark setting).
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
    use aim_sql::ast::Statement;

    #[test]
    fn all_22_queries_parse() {
        let w = weighted_workload(7);
        assert_eq!(w.len(), 22);
    }

    #[test]
    fn database_builds_with_expected_cardinalities() {
        let cfg = TpchConfig {
            scale: 0.001,
            seed: 5,
        };
        let db = build_database(&cfg);
        let card = cfg.cardinalities();
        assert_eq!(db.table("orders").unwrap().row_count() as i64, card.orders);
        assert_eq!(
            db.table("lineitem").unwrap().row_count() as i64,
            card.lineitem
        );
        assert_eq!(db.table("region").unwrap().row_count(), 5);
        assert_eq!(db.table("nation").unwrap().row_count(), 25);
        assert!(db.stats("lineitem").is_some());
    }

    #[test]
    fn single_table_queries_execute() {
        let cfg = TpchConfig {
            scale: 0.0005,
            seed: 5,
        };
        let mut db = build_database(&cfg);
        let engine = Engine::new();
        for (label, sql) in query_texts(7) {
            let stmt = parse_statement(&sql).unwrap();
            // Execute the cheap single/double-table queries end to end.
            if let Statement::Select(s) = &stmt {
                if s.from.len() <= 2 {
                    let out = engine.execute(&mut db, &stmt);
                    assert!(out.is_ok(), "{label}: {:?}", out.err());
                }
            }
        }
    }

    #[test]
    fn q6_returns_plausible_aggregate() {
        let cfg = TpchConfig {
            scale: 0.001,
            seed: 5,
        };
        let mut db = build_database(&cfg);
        let engine = Engine::new();
        let (label, sql) = query_texts(7).into_iter().nth(5).unwrap();
        assert_eq!(label, "Q6");
        let out = engine
            .execute(&mut db, &parse_statement(&sql).unwrap())
            .unwrap();
        assert_eq!(out.rows.len(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TpchConfig {
            scale: 0.0005,
            seed: 99,
        };
        let a = build_database(&cfg);
        let b = build_database(&cfg);
        assert_eq!(
            a.table("orders").unwrap().data_bytes(),
            b.table("orders").unwrap().data_bytes()
        );
        assert_eq!(query_texts(3), query_texts(3));
    }
}
