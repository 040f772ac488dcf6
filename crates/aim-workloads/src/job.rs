//! JOB-like (Join Order Benchmark) workload.
//!
//! Figure 4c/4d evaluates advisors on JOB, whose defining property is many
//! complex joins over an IMDB-shaped schema with skewed, correlated
//! dimension filters. This module builds an IMDB-like star/snowflake schema
//! (title at the centre, satellite fact tables, small dimension tables) and
//! ~30 join queries of 3–7 tables with selective dimension predicates —
//! preserving the join-graph complexity that stresses width-limited
//! advisors.

use crate::datagen::{Distribution, RowGenerator};
use crate::rng::{Rng, SeedableRng, StdRng};
use aim_core::WeightedQuery;
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema};

/// JOB generator configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Row count of the central `title` table; satellites scale from it.
    pub titles: i64,
    pub seed: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            titles: 4000,
            seed: 0x10B,
        }
    }
}

const COUNTRY_CODES: &[&str] = &[
    "[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[it]", "[ca]",
];
const COMPANY_TYPES: i64 = 4;
const INFO_TYPES: i64 = 40;
const KINDS: i64 = 7;
const ROLES: i64 = 12;
const KEYWORDS: i64 = 500;

/// Builds and populates the IMDB-like database, with statistics analyzed.
pub fn build_database(cfg: &JobConfig) -> Database {
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

    db.create_table(mk(
        "title",
        vec![
            ("id", Int),
            ("kind_id", Int),
            ("production_year", Int),
            ("title", Str),
            ("episode_nr", Int),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "movie_companies",
        vec![
            ("id", Int),
            ("movie_id", Int),
            ("company_id", Int),
            ("company_type_id", Int),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "company_name",
        vec![("id", Int), ("name", Str), ("country_code", Str)],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "cast_info",
        vec![
            ("id", Int),
            ("movie_id", Int),
            ("person_id", Int),
            ("role_id", Int),
            ("nr_order", Int),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "name",
        vec![("id", Int), ("name", Str), ("gender", Str)],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "movie_info",
        vec![
            ("id", Int),
            ("movie_id", Int),
            ("info_type_id", Int),
            ("info", Str),
        ],
    ))
    .expect("fresh db");
    db.create_table(mk(
        "movie_keyword",
        vec![("id", Int), ("movie_id", Int), ("keyword_id", Int)],
    ))
    .expect("fresh db");
    db.create_table(mk("keyword", vec![("id", Int), ("keyword", Str)]))
        .expect("fresh db");
    db.create_table(mk("kind_type", vec![("id", Int), ("kind", Str)]))
        .expect("fresh db");
    db.create_table(mk("info_type", vec![("id", Int), ("info", Str)]))
        .expect("fresh db");
    db.create_table(mk("role_type", vec![("id", Int), ("role", Str)]))
        .expect("fresh db");

    let n = cfg.titles;
    let fill = |db: &mut Database, table: &str, count: i64, dists: Vec<Distribution>, seed: u64| {
        let mut g = RowGenerator::new(seed, dists);
        let mut io = IoStats::new();
        for _ in 0..count {
            db.table_mut(table)
                .expect("exists")
                .insert(g.next_row(), &mut io)
                .expect("serial keys");
        }
    };

    fill(
        &mut db,
        "title",
        n,
        vec![
            Distribution::Serial,
            Distribution::UniformInt(KINDS),
            Distribution::UniformInt(130), // production_year offset from 1890
            Distribution::RandomString(18),
            Distribution::UniformInt(50),
        ],
        cfg.seed ^ 1,
    );
    let companies = (n / 8).max(20);
    fill(
        &mut db,
        "company_name",
        companies,
        vec![
            Distribution::Serial,
            Distribution::RandomString(14),
            Distribution::Categorical(COUNTRY_CODES.iter().map(|s| s.to_string()).collect()),
        ],
        cfg.seed ^ 2,
    );
    fill(
        &mut db,
        "movie_companies",
        n * 2,
        vec![
            Distribution::Serial,
            Distribution::ForeignKey(n),
            Distribution::ForeignKey(companies),
            Distribution::UniformInt(COMPANY_TYPES),
        ],
        cfg.seed ^ 3,
    );
    let people = (n / 2).max(50);
    fill(
        &mut db,
        "name",
        people,
        vec![
            Distribution::Serial,
            Distribution::RandomString(12),
            Distribution::Categorical(vec!["m".into(), "f".into()]),
        ],
        cfg.seed ^ 4,
    );
    fill(
        &mut db,
        "cast_info",
        n * 6,
        vec![
            Distribution::Serial,
            Distribution::Zipf { n, s: 1.05 },
            Distribution::ForeignKey(people),
            Distribution::UniformInt(ROLES),
            Distribution::UniformInt(100),
        ],
        cfg.seed ^ 5,
    );
    fill(
        &mut db,
        "movie_info",
        n * 3,
        vec![
            Distribution::Serial,
            Distribution::ForeignKey(n),
            Distribution::Zipf {
                n: INFO_TYPES,
                s: 1.2,
            },
            Distribution::RandomString(10),
        ],
        cfg.seed ^ 6,
    );
    fill(
        &mut db,
        "movie_keyword",
        n * 3,
        vec![
            Distribution::Serial,
            Distribution::ForeignKey(n),
            Distribution::Zipf {
                n: KEYWORDS,
                s: 1.1,
            },
        ],
        cfg.seed ^ 7,
    );
    fill(
        &mut db,
        "keyword",
        KEYWORDS,
        vec![Distribution::Serial, Distribution::RandomString(10)],
        cfg.seed ^ 8,
    );
    for (table, count, col) in [
        ("kind_type", KINDS, "kind"),
        ("info_type", INFO_TYPES, "info"),
        ("role_type", ROLES, "role"),
    ] {
        let mut io = IoStats::new();
        for i in 0..count {
            db.table_mut(table)
                .expect("exists")
                .insert(
                    vec![
                        aim_storage::Value::Int(i),
                        aim_storage::Value::Str(format!("{col}{i}")),
                    ],
                    &mut io,
                )
                .expect("serial keys");
        }
    }

    db.analyze_all();
    db
}

/// Generates ~30 JOB-style join queries (label, SQL).
pub fn query_texts(seed: u64) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(String, String)> = Vec::new();

    // 1a-style: production company by country, recent titles.
    for (i, cc) in COUNTRY_CODES.iter().take(5).enumerate() {
        let y = rng.gen_range(80..125i64);
        out.push((
            format!("1{}", (b'a' + i as u8) as char),
            format!(
                "SELECT t.title FROM title t, movie_companies mc, company_name cn \
             WHERE t.id = mc.movie_id AND mc.company_id = cn.id \
             AND cn.country_code = '{cc}' AND t.production_year > {y} \
             AND mc.company_type_id = {ct} ORDER BY t.title LIMIT 25",
                ct = i as i64 % COMPANY_TYPES
            ),
        ));
    }
    // 2a-style: keyword-driven.
    for i in 0..5 {
        let kw = rng.gen_range(0..30); // hot keywords (zipf head)
        let y = rng.gen_range(60..105i64);
        out.push((
            format!("2{}", (b'a' + i as u8) as char),
            format!(
                "SELECT t.title FROM title t, movie_keyword mk, keyword k \
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.id = {kw} \
             AND t.production_year BETWEEN {y} AND {e} ORDER BY t.title LIMIT 25",
                e = y + 20
            ),
        ));
    }
    // 3a-style: info + kind filters, 4-way.
    for i in 0..5 {
        let it = rng.gen_range(0..INFO_TYPES);
        let kind = rng.gen_range(0..KINDS);
        out.push((
            format!("3{}", (b'a' + i as u8) as char),
            format!(
                "SELECT t.title, mi.info FROM title t, movie_info mi, info_type it, kind_type kt \
             WHERE t.id = mi.movie_id AND mi.info_type_id = it.id AND t.kind_id = kt.id \
             AND it.id = {it} AND kt.id = {kind} ORDER BY t.title LIMIT 25"
            ),
        ));
    }
    // 4a-style: cast + role + gender, 5-way.
    for i in 0..5 {
        let role = rng.gen_range(0..ROLES);
        let y = rng.gen_range(70..125i64);
        let g = if i % 2 == 0 { "f" } else { "m" };
        out.push((
            format!("4{}", (b'a' + i as u8) as char),
            format!(
                "SELECT n.name, t.title FROM title t, cast_info ci, name n, role_type rt \
             WHERE t.id = ci.movie_id AND ci.person_id = n.id AND ci.role_id = rt.id \
             AND rt.id = {role} AND n.gender = '{g}' AND t.production_year > {y} \
             ORDER BY n.name LIMIT 25"
            ),
        ));
    }
    // 5a-style: company + keyword + info, 6-way.
    for i in 0..5 {
        let cc = COUNTRY_CODES[rng.gen_range(0..COUNTRY_CODES.len())];
        let it = rng.gen_range(0..INFO_TYPES);
        let kw = rng.gen_range(0..50);
        out.push((
            format!("5{}", (b'a' + i as u8) as char),
            format!(
                "SELECT t.title FROM title t, movie_companies mc, company_name cn, \
             movie_info mi, info_type it, movie_keyword mk \
             WHERE t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id \
             AND mi.info_type_id = it.id AND t.id = mk.movie_id \
             AND cn.country_code = '{cc}' AND it.id = {it} AND mk.keyword_id = {kw} \
             ORDER BY t.title LIMIT 25"
            ),
        ));
    }
    // 6a-style: full 7-way.
    for i in 0..5 {
        let role = rng.gen_range(0..ROLES);
        let kw = rng.gen_range(0..50);
        let y = rng.gen_range(50..125i64);
        out.push((
            format!("6{}", (b'a' + i as u8) as char),
            format!(
                "SELECT n.name, t.title FROM title t, cast_info ci, name n, role_type rt, \
             movie_keyword mk, keyword k, kind_type kt \
             WHERE t.id = ci.movie_id AND ci.person_id = n.id AND ci.role_id = rt.id \
             AND t.id = mk.movie_id AND mk.keyword_id = k.id AND t.kind_id = kt.id \
             AND rt.id = {role} AND k.id = {kw} AND t.production_year > {y} \
             ORDER BY n.name LIMIT 25"
            ),
        ));
    }
    out
}

/// Parses the JOB queries into a weighted workload (weight 1 each).
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
        let w = weighted_workload(11);
        assert_eq!(w.len(), 30);
    }

    #[test]
    fn database_builds_and_executes_a_join() {
        let cfg = JobConfig {
            titles: 300,
            seed: 3,
        };
        let mut db = build_database(&cfg);
        assert_eq!(db.table("title").unwrap().row_count(), 300);
        let engine = Engine::new();
        let (_, sql) = query_texts(11).into_iter().next().unwrap();
        let out = engine
            .execute(&mut db, &parse_statement(&sql).unwrap())
            .unwrap();
        assert!(out.io.rows_read > 0);
    }

    #[test]
    fn join_fanout_varies_from_3_to_7() {
        let texts = query_texts(11);
        let tables = |sql: &str| match parse_statement(sql).unwrap() {
            aim_sql::Statement::Select(s) => s.from.len(),
            _ => 0,
        };
        let min = texts.iter().map(|(_, s)| tables(s)).min().unwrap();
        let max = texts.iter().map(|(_, s)| tables(s)).max().unwrap();
        assert_eq!(min, 3);
        assert_eq!(max, 7);
    }
}
