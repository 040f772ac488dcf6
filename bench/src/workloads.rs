//! The four workloads: every size, budget and share of the run's time is a
//! constant of this file, and every input is generated here from the seed.
//!
//! Each workload drives the same pipeline — set-up, ingest, tuning passes,
//! replay on the tuned database — and differs in the data, the backend,
//! whether candidates are validated on a clone, and where the time goes.

use crate::clock::cpu_seconds;
use aim_exec::ExecOutcome;
use aim_monitor::SelectionConfig;
use aim_sql::ast::Statement;
use aim_sql::normalize::{fnv1a, normalize_statement, QueryFingerprint};
use aim_sql::parse_statement;
use aim_storage::{ColumnDef, ColumnType, Database, IoStats, TableSchema};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use aim_workloads::{production, tpch, QuerySpec};
use std::collections::BTreeMap;

pub const NAMES: [&str; 4] = ["tpch_validate", "prod_advise", "ingest_stream", "disk_oltp"];

/// `Smoke` divides every data size by ten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn div(self) -> usize {
        match self {
            Size::Full => 1,
            Size::Smoke => 10,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Seed of every database and of every set of distinct statements. They are
/// a workload's definition and the same under every `--seed`, which draws
/// the traffic: which statements arrive, how often and in which order (and,
/// on `disk_oltp`, the parameters of the two mixes). The advisor's work then
/// differs between seeds by what the monitor saw, not by the size of the job.
const DATA_SEED: u64 = 0xA1;

/// TPC-H scale 0.004: 24 000 lineitem rows.
const TPCH_SCALE: f64 = 0.004;
/// Parameter variants of each of the 22 TPC-H templates in `tpch_validate`.
const TPCH_VARIANTS: u64 = 2;
/// Product B of `aim_workloads::production::profiles`: 184 tables, 733 join
/// queries, generated from the profile's own seed.
const PRODUCT_B: usize = 1;

/// Rows loaded into `orders` on the disk backend: about 1.6 MB of heap pages.
const DISK_ROWS: usize = 6_000;
/// 32 frames of 16 KiB: a 512 KiB pool under a working set three times larger.
pub const DISK_POOL_FRAMES: usize = 32;
/// Statements of each mix (before and after the pass).
const DISK_MIX: usize = 1_000;
/// Statements of a mix timed as one batch.
pub const DISK_MIX_BATCH: usize = 50;
pub const DISK_LOAD_BATCH: usize = 500;
const DISK_CUSTOMERS: i64 = 300;

/// Every recorded template is a tuning candidate source: no benefit or
/// frequency threshold hides part of the workload from the pass.
pub fn selection() -> SelectionConfig {
    SelectionConfig {
        min_executions: 1,
        min_benefit: 0.0,
        max_queries: usize::MAX,
        include_dml: true,
    }
}

/// The constants of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub disk: bool,
    pub skip_validation: bool,
    /// Storage budget of a pass in bytes, below what an unconstrained pass
    /// builds, so the ranking order decides what is kept.
    pub budget_bytes: u64,
    /// Statements per ingest batch.
    pub batch_len: usize,
    /// Batches per observation window. The first window precedes the rounds.
    pub window_batches: usize,
    /// Ingest batches per round: where a round's time goes beside its pass
    /// and its replay.
    pub round_batches: usize,
    /// A round replays every `replay_slices`-th distinct statement, starting
    /// one further each round; the first round replays them all.
    pub replay_slices: usize,
    /// Rounds of an untraced run, however short `--seconds` is.
    pub min_rounds: usize,
}

pub fn spec(name: &str, size: Size) -> Option<Spec> {
    let d = size.div();
    let base = Spec {
        name: "",
        disk: false,
        skip_validation: false,
        budget_bytes: 0,
        batch_len: 0,
        window_batches: 20,
        round_batches: 2,
        replay_slices: 1,
        min_rounds: 5,
    };
    Some(match name {
        "tpch_validate" => Spec {
            name: NAMES[0],
            budget_bytes: (4 << 20) / d as u64,
            batch_len: 1_000 / d,
            round_batches: 20,
            ..base
        },
        "prod_advise" => Spec {
            name: NAMES[1],
            skip_validation: true,
            budget_bytes: (12 << 20) / d as u64,
            batch_len: 5_000 / d,
            round_batches: 6,
            replay_slices: 4,
            ..base
        },
        // A window of 500 000 statements, then 100 000 more a round: most
        // of the run is the stream.
        "ingest_stream" => Spec {
            name: NAMES[2],
            skip_validation: true,
            budget_bytes: (12 << 20) / d as u64,
            batch_len: 50_000 / d,
            window_batches: 10,
            replay_slices: 4,
            ..base
        },
        "disk_oltp" => Spec {
            name: NAMES[3],
            disk: true,
            budget_bytes: (1 << 20) / d as u64,
            batch_len: 1_000 / d,
            round_batches: 20,
            ..base
        },
        _ => return None,
    })
}

/// One distinct statement of a workload.
#[derive(Clone)]
pub struct Entry {
    pub text: String,
    pub stmt: Statement,
    pub template: QueryFingerprint,
    /// Relative frequency in the statement stream.
    pub weight: f64,
}

impl Entry {
    fn new(text: String, weight: f64) -> Self {
        let stmt = parse_statement(&text).unwrap_or_else(|e| panic!("generated SQL: {e}\n{text}"));
        let template = normalize_statement(&stmt).fingerprint;
        Entry {
            text,
            stmt,
            template,
            weight,
        }
    }

    pub fn is_write(&self) -> bool {
        self.stmt.is_dml()
    }
}

/// What one set-up of an in-memory workload produces.
pub struct MemoryInputs {
    /// Loaded, analysed, without secondary indexes.
    pub db: Database,
    pub entries: Vec<Entry>,
    pub rows_loaded: usize,
    /// CPU seconds spent generating and loading the rows.
    pub load_s: f64,
}

fn tpch_entries(variants: u64) -> Vec<Entry> {
    (0..variants)
        .flat_map(|v| tpch::query_texts(DATA_SEED + v))
        .map(|(_, sql)| Entry::new(sql, 1.0))
        .collect()
}

fn product_b(size: Size) -> production::ProductionWorkload {
    let mut profile = production::profiles()[PRODUCT_B].clone();
    profile.tables /= size.div();
    profile.join_queries /= size.div();
    production::build(&profile)
}

fn production_entries(specs: &[QuerySpec]) -> Vec<Entry> {
    specs
        .iter()
        .flat_map(|s| {
            let weight = s.weight / s.variants.len() as f64;
            s.variants
                .iter()
                .map(move |v| Entry::new(v.to_string(), weight))
        })
        .collect()
}

fn total_rows(db: &Database) -> usize {
    db.tables().map(|t| t.row_count()).sum()
}

/// Copies every table of `src` into `dst`.
fn copy_tables(src: &Database, dst: &mut Database) {
    let mut io = IoStats::new();
    for table in src.tables() {
        let name = table.schema().name.clone();
        dst.create_table(table.schema().clone())
            .expect("table names do not collide");
        let rows: Vec<_> = table.scan_all(&mut io).cloned().collect();
        let target = dst.table_mut(&name).expect("just created");
        for row in rows {
            target
                .insert(row, &mut io)
                .expect("primary keys copied from a valid table");
        }
    }
    dst.analyze_all();
}

/// Zipf(s = 1) over templates, ranked by a fixed random permutation,
/// uniform over each template's variants.
fn zipf_weights(entries: &mut [Entry]) {
    let mut variants: BTreeMap<QueryFingerprint, usize> = BTreeMap::new();
    for e in entries.iter() {
        *variants.entry(e.template).or_default() += 1;
    }
    let mut order: Vec<QueryFingerprint> = variants.keys().copied().collect();
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let rank: BTreeMap<QueryFingerprint, usize> = order
        .into_iter()
        .enumerate()
        .map(|(r, t)| (t, r + 1))
        .collect();
    for e in entries.iter_mut() {
        e.weight = 1.0 / (rank[&e.template] * variants[&e.template]) as f64;
    }
}

pub fn memory_inputs(name: &str, size: Size) -> MemoryInputs {
    let started = cpu_seconds();
    let tpch_cfg = tpch::TpchConfig {
        scale: TPCH_SCALE / size.div() as f64,
        seed: DATA_SEED,
    };
    let (db, load_s, entries) = match name {
        "tpch_validate" => {
            let db = tpch::build_database(&tpch_cfg);
            let load_s = cpu_seconds() - started;
            (db, load_s, tpch_entries(TPCH_VARIANTS))
        }
        "prod_advise" => {
            let w = product_b(size);
            let load_s = cpu_seconds() - started;
            let entries = production_entries(&w.specs);
            (w.db, load_s, entries)
        }
        "ingest_stream" => {
            let production::ProductionWorkload { mut db, specs, .. } = product_b(size);
            copy_tables(&tpch::build_database(&tpch_cfg), &mut db);
            let load_s = cpu_seconds() - started;
            let mut entries = production_entries(&specs);
            entries.extend(tpch_entries(1));
            zipf_weights(&mut entries);
            (db, load_s, entries)
        }
        other => panic!("{other} is not an in-memory workload"),
    };
    MemoryInputs {
        rows_loaded: total_rows(&db),
        db,
        entries,
        load_s,
    }
}

/// Draws statement-stream batches: indices into the entries, by weight.
pub struct Sampler {
    cumulative: Vec<f64>,
    seed: u64,
}

impl Sampler {
    pub fn new(entries: &[Entry], seed: u64) -> Self {
        let mut acc = 0.0;
        let cumulative = entries
            .iter()
            .map(|e| {
                acc += e.weight;
                acc
            })
            .collect();
        Sampler { cumulative, seed }
    }

    /// Batch number `batch` of the stream: the same for the same seed.
    pub fn batch(&self, batch: usize, len: usize) -> Vec<u32> {
        let total = *self.cumulative.last().expect("a workload has statements");
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (batch as u64 + 1).wrapping_mul(0x9e37_79b9));
        (0..len)
            .map(|_| {
                let x: f64 = rng.gen_range(0.0..total);
                self.cumulative
                    .partition_point(|&c| c <= x)
                    .min(self.cumulative.len() - 1) as u32
            })
            .collect()
    }
}

/// The statements `disk_oltp` runs, in order.
pub struct DiskInputs {
    pub schema: TableSchema,
    pub load: Vec<Entry>,
    /// The mix run before the pass and the mix run after it: the same
    /// proportions, different parameters and fresh keys for the inserts.
    pub mixes: [Vec<Entry>; 2],
    /// A query whose answer is compared across the crash.
    pub probe: Entry,
}

pub fn disk_inputs(seed: u64, size: Size) -> DiskInputs {
    let rows = (DISK_ROWS / size.div()) as i64;
    let mut data_rng = StdRng::seed_from_u64(DATA_SEED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd15c);
    let schema = TableSchema::new(
        "orders",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("customer_id", ColumnType::Int),
            ColumnDef::new("region", ColumnType::Int),
            ColumnDef::new("amount", ColumnType::Float),
            ColumnDef::new("note", ColumnType::Str),
        ],
        &["id"],
    )
    .expect("valid schema");
    let pad = "x".repeat(200);
    let insert = |id: i64, rng: &mut StdRng| {
        Entry::new(
            format!(
                "INSERT INTO orders (id, customer_id, region, amount, note) \
                 VALUES ({id}, {}, {}, {}.5, '{pad}{id}')",
                rng.gen_range(0..DISK_CUSTOMERS),
                rng.gen_range(0..9),
                rng.gen_range(0..1000),
            ),
            1.0,
        )
    };
    let load: Vec<Entry> = (0..rows).map(|id| insert(id, &mut data_rng)).collect();
    let mut next_id = rows;
    // Exactly a tenth inserts, a tenth updates, three tenths range scans
    // and half secondary-key lookups, in an order the seed shuffles.
    let mut mix = |rng: &mut StdRng| -> Vec<Entry> {
        let n = DISK_MIX / size.div();
        let mut kinds: Vec<usize> = (0..n).map(|i| i * 10 / n).collect();
        for i in (1..n).rev() {
            kinds.swap(i, rng.gen_range(0..=i));
        }
        kinds
            .into_iter()
            .map(|kind| match kind {
                0 => {
                    next_id += 1;
                    insert(next_id - 1, rng)
                }
                1 => Entry::new(
                    format!(
                        "UPDATE orders SET customer_id = {} WHERE id = {}",
                        rng.gen_range(0..DISK_CUSTOMERS),
                        rng.gen_range(0..rows)
                    ),
                    1.0,
                ),
                2..=4 => {
                    let lo = rng.gen_range(0..rows - 40);
                    Entry::new(
                        format!(
                            "SELECT id, amount FROM orders WHERE id >= {lo} AND id < {}",
                            lo + 40
                        ),
                        1.0,
                    )
                }
                _ => Entry::new(
                    format!(
                        "SELECT id, amount FROM orders WHERE customer_id = {}",
                        rng.gen_range(0..DISK_CUSTOMERS)
                    ),
                    1.0,
                ),
            })
            .collect()
    };
    let mixes = [mix(&mut rng), mix(&mut rng)];
    let probe = Entry::new(
        format!(
            "SELECT id, customer_id, amount FROM orders WHERE customer_id = {}",
            rng.gen_range(0..DISK_CUSTOMERS)
        ),
        1.0,
    );
    DiskInputs {
        schema,
        load,
        mixes,
        probe,
    }
}

/// FNV-1a over every generated statement text and the stream: two runs had
/// the same inputs exactly when their digests are equal.
pub fn digest<'a>(texts: impl Iterator<Item = &'a str>, stream: &[u32]) -> u64 {
    let mut bytes = Vec::new();
    for t in texts {
        bytes.extend_from_slice(t.as_bytes());
        bytes.push(0);
    }
    for i in stream {
        bytes.extend_from_slice(&i.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Digest of what a statement answered: its rows in sorted order (a scan
/// and an index return them in different orders) and the rows it affected.
pub fn result_digest(out: &ExecOutcome) -> u64 {
    let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    digest(rows.iter().map(String::as_str), &[out.affected as u32])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_spec_and_shares_fit() {
        for name in NAMES {
            for size in [Size::Full, Size::Smoke] {
                let s = spec(name, size).expect("named workload");
                assert_eq!(s.name, name);
                assert!(s.batch_len > 0 && s.budget_bytes > 0 && s.min_rounds > 0);
            }
        }
        assert!(spec("nope", Size::Full).is_none());
    }

    #[test]
    fn sampler_repeats_per_seed_and_follows_weights() {
        let entries: Vec<Entry> = [9.0, 1.0]
            .iter()
            .enumerate()
            .map(|(i, w)| Entry::new(format!("SELECT id FROM t WHERE a = {i}"), *w))
            .collect();
        let a = Sampler::new(&entries, 7);
        assert_eq!(a.batch(0, 100), Sampler::new(&entries, 7).batch(0, 100));
        assert_ne!(a.batch(0, 100), a.batch(1, 100));
        assert_ne!(a.batch(0, 100), Sampler::new(&entries, 8).batch(0, 100));
        let hot = a.batch(0, 1000).iter().filter(|&&i| i == 0).count();
        assert!((850..=950).contains(&hot), "{hot}");
    }

    #[test]
    fn disk_inputs_differ_by_seed_and_never_reuse_a_key() {
        let a = disk_inputs(7, Size::Smoke);
        let b = disk_inputs(8, Size::Smoke);
        assert_eq!(a.load.len(), 600);
        assert_eq!(a.mixes[0].len(), 100);
        let texts = |d: &DiskInputs| -> Vec<String> {
            d.load
                .iter()
                .chain(d.mixes.iter().flatten())
                .map(|e| e.text.clone())
                .collect()
        };
        assert_eq!(
            texts(&a)[..600],
            texts(&b)[..600],
            "the rows are the workload's definition"
        );
        assert_ne!(
            texts(&a)[600..],
            texts(&b)[600..],
            "the mixes are the seed's traffic"
        );
        assert_eq!(texts(&a), texts(&disk_inputs(7, Size::Smoke)));
        let mut keys: Vec<String> = texts(&a)
            .iter()
            .filter(|t| t.starts_with("INSERT"))
            .map(|t| {
                t.split("VALUES (")
                    .nth(1)
                    .unwrap()
                    .split(',')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        let inserts = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), inserts);
    }

    #[test]
    fn zipf_weights_are_uniform_within_a_template() {
        let mut entries: Vec<Entry> = (0..6)
            .map(|i| Entry::new(format!("SELECT id FROM t WHERE c{} = {i}", i % 3), 1.0))
            .collect();
        zipf_weights(&mut entries);
        for i in 0..3 {
            assert_eq!(entries[i].weight, entries[i + 3].weight);
        }
        let mut by_template: Vec<f64> = (0..3).map(|i| entries[i].weight * 2.0).collect();
        by_template.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(by_template, vec![1.0, 0.5, 1.0 / 3.0]);
    }
}
