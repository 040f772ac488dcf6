//! `disk_oltp`: the pipeline on the disk backend, writes beside reads.
//!
//! One commit per statement under the shipped policy (an fsync per commit,
//! an automatic checkpoint every 4 MiB of WAL). The buffer pool is a third
//! of the data file, so reads miss; the other workloads are in memory.

use crate::clock::cpu_seconds;
use crate::pipeline::{
    execute_all, execute_batch, index_names, regression_gate, Ctx, Ingest, Latencies, Passes,
    Target,
};
use crate::stats::batch_rates;
use crate::workloads::{
    self, DiskInputs, Entry, DISK_LOAD_BATCH, DISK_MIX_BATCH, DISK_POOL_FRAMES, SETUPS,
};
use aim_exec::ExecOutcome;
use aim_sql::normalize::QueryFingerprint;
use aim_storage::{Database, IndexDef, IoStats, PagerOptions, StorageCounters};
use std::collections::BTreeMap;
use std::path::Path;

/// The storage metrics of a traced run; all zero off the disk backend.
#[derive(Default)]
pub(crate) struct StorageReport {
    /// Counters over the sections every run executes once: load, both mixes
    /// and the checkpoint. The passes, whose number follows the clock, and
    /// the index drops between them are left out.
    pub counters: StorageCounters,
    pub wal_bytes_per_write_stmt: [f64; 2],
    pub wal_bytes_per_row: f64,
    pub fsyncs_per_commit: f64,
    pub bytes_stored_per_user_byte: f64,
    pub recovered_records: u64,
}

impl StorageReport {
    pub fn report(&self, m: &mut crate::metrics::Samples) {
        let c = &self.counters;
        let lookups = c.bp_hits + c.bp_misses;
        for (name, value) in [
            ("storage.wal_bytes", c.wal_bytes as f64),
            ("storage.wal_fsyncs", c.wal_fsyncs as f64),
            ("storage.pages_read", c.pages_read as f64),
            ("storage.pages_written", c.pages_written as f64),
            ("storage.bp_evictions", c.bp_evictions as f64),
            ("storage.checkpoints", c.checkpoints as f64),
            (
                "storage.bp_hit_rate",
                if lookups == 0 {
                    0.0
                } else {
                    c.bp_hits as f64 / lookups as f64
                },
            ),
            ("storage.recovered_records", self.recovered_records as f64),
            (
                "storage.wal_bytes_per_write_stmt_pre",
                self.wal_bytes_per_write_stmt[0],
            ),
            (
                "storage.wal_bytes_per_write_stmt_post",
                self.wal_bytes_per_write_stmt[1],
            ),
            ("wal_bytes_per_row", self.wal_bytes_per_row),
            ("fsyncs_per_commit", self.fsyncs_per_commit),
            (
                "bytes_stored_per_user_byte",
                self.bytes_stored_per_user_byte,
            ),
        ] {
            m.set(name, value);
        }
    }
}

/// `total += after - before`, field by field, for the counters reported.
fn add_delta(total: &mut StorageCounters, before: &StorageCounters, after: &StorageCounters) {
    total.bp_hits += after.bp_hits - before.bp_hits;
    total.bp_misses += after.bp_misses - before.bp_misses;
    total.bp_evictions += after.bp_evictions - before.bp_evictions;
    total.wal_bytes += after.wal_bytes - before.wal_bytes;
    total.wal_fsyncs += after.wal_fsyncs - before.wal_fsyncs;
    total.pages_read += after.pages_read - before.pages_read;
    total.pages_written += after.pages_written - before.pages_written;
    total.checkpoints += after.checkpoints - before.checkpoints;
}

fn digests(outcomes: &[ExecOutcome]) -> Vec<u64> {
    outcomes.iter().map(workloads::result_digest).collect()
}

/// The answer every statement must give: the same sequence on the memory
/// backend. The oracle indexes `customer_id` from the start and analyses
/// after the load, which changes no answer and spares it a scan per lookup.
fn reference(ctx: &mut Ctx, inputs: &DiskInputs) -> Result<[Vec<u64>; 3], String> {
    let mut db = Database::new();
    db.create_table(inputs.schema.clone())
        .map_err(|e| e.to_string())?;
    let oracle_index = IndexDef::new("oracle_customer", "orders", vec!["customer_id".to_string()]);
    db.create_index(oracle_index, &mut IoStats::new())
        .map_err(|e| e.to_string())?;
    let load = digests(&execute_all(ctx, &mut db, &inputs.load)?);
    db.analyze_all();
    Ok([
        load,
        digests(&execute_all(ctx, &mut db, &inputs.mixes[0])?),
        digests(&execute_all(ctx, &mut db, &inputs.mixes[1])?),
    ])
}

fn writes(entries: &[Entry]) -> usize {
    entries.iter().filter(|e| e.is_write()).count()
}

/// Executes `entries` in batches of `batch`; returns the outcomes, each
/// batch's statements per second and the seconds spent executing.
fn execute_in_batches(
    ctx: &mut Ctx,
    db: &mut Database,
    entries: &[Entry],
    batch: usize,
    latencies: &mut Latencies,
) -> Result<(Vec<ExecOutcome>, Vec<f64>, f64), String> {
    let mut outcomes = Vec::with_capacity(entries.len());
    let (mut ops, mut seconds) = (Vec::new(), Vec::new());
    let mut total = 0.0;
    for chunk in entries.chunks(batch) {
        let (outs, batch_s, in_engine) = execute_batch(ctx, db, chunk, latencies);
        ops.push(chunk.len() as u64);
        seconds.push(batch_s);
        total += in_engine;
        for out in outs {
            outcomes.push(out.ok_or("a statement failed on the disk backend")?);
        }
    }
    Ok((outcomes, batch_rates(&ops, &seconds), total))
}

fn mean_cost_by_template(
    entries: &[Entry],
    outcomes: &[ExecOutcome],
) -> BTreeMap<QueryFingerprint, f64> {
    let mut sums: BTreeMap<QueryFingerprint, (f64, f64)> = BTreeMap::new();
    for (e, o) in entries.iter().zip(outcomes) {
        let s = sums.entry(e.template).or_default();
        s.0 += o.cost;
        s.1 += 1.0;
    }
    sums.into_iter().map(|(t, (sum, n))| (t, sum / n)).collect()
}

fn sections(
    ctx: &mut Ctx,
    dir: &Path,
    inputs: &DiskInputs,
    expected: &[Vec<u64>; 3],
) -> Result<u64, String> {
    let opts = PagerOptions {
        pool_frames: DISK_POOL_FRAMES,
        ..PagerOptions::default()
    };
    let err = |e: aim_storage::StorageError| e.to_string();
    let mut db = Database::open_disk(dir, opts).map_err(err)?;
    db.create_table(inputs.schema.clone()).map_err(err)?;
    let mut report = StorageReport::default();
    let mut unused = Latencies::default();
    ctx.start_clock();

    // Load by INSERT, one commit per row.
    let c0 = db.storage_counters();
    ctx.tr.set_pass(0);
    let batch = DISK_LOAD_BATCH / ctx.cfg.size.div();
    let (loaded, rates, load_s) =
        execute_in_batches(ctx, &mut db, &inputs.load, batch, &mut unused)?;
    let c1 = db.storage_counters();
    ctx.m.extend("load_rows_per_s", rates);
    ctx.m.set("storage.load_s", load_s);
    report.wal_bytes_per_row = (c1.wal_bytes - c0.wal_bytes) as f64 / inputs.load.len() as f64;

    // The mix before tuning: what the monitor observes.
    ctx.tr.set_pass(1);
    let mix_batch = DISK_MIX_BATCH / ctx.cfg.size.div();
    let (before, _, mix_s) =
        execute_in_batches(ctx, &mut db, &inputs.mixes[0], mix_batch, &mut unused)?;
    let c2 = db.storage_counters();
    report.wal_bytes_per_write_stmt[0] =
        (c2.wal_bytes - c1.wal_bytes) as f64 / writes(&inputs.mixes[0]) as f64;
    add_delta(&mut report.counters, &c0, &c2);
    let mut ingest = Ingest::new(&inputs.mixes[0], &before, ctx.cfg.seed);
    let monitor = ingest.first_window(ctx).monitor.clone();

    // For the regression gate, a quarter of the mix's reads run directly
    // before and directly after the first pass, on the same rows: between
    // the two mixes the writes move rows, and a range scan's cost with them.
    let sample: Vec<Entry> = inputs.mixes[0]
        .iter()
        .filter(|e| !e.is_write())
        .step_by(4)
        .cloned()
        .collect();
    let sample_before = mean_cost_by_template(&sample, &execute_all(ctx, &mut db, &sample)?);

    // Rounds: a pass in place (the previous pass's indexes dropped first)
    // and more of the monitor's stream, until what is left of `--seconds`
    // is what the mix after tuning will take — as long as the mix before.
    ctx.reserve(mix_s);
    let mut target = Target::InPlace(&mut db);
    let mut passes = Passes::default();
    let mut rounds = 0usize;
    while ctx.another_round(rounds) {
        ctx.calibrate();
        passes.round(ctx, &mut target, &monitor)?;
        if rounds == 0 {
            let costs = execute_all(ctx, target.tuned(), &sample)?;
            let sample_after = mean_cost_by_template(&sample, &costs);
            regression_gate(ctx, &sample, &sample_before, &sample_after);
        }
        ctx.calibrate();
        ingest.batches(ctx, ctx.spec.round_batches);
        rounds += 1;
    }
    ctx.iterations.push(("rounds", rounds as u64));
    passes.finish(ctx);
    let window = ingest.finish(ctx);

    // The mix after tuning: what the database's users feel. The checkpoint
    // before it empties the WAL, so that the automatic checkpoints inside the
    // mix fall where they fall however many passes the clock allowed.
    db.checkpoint().map_err(err)?;
    let c3 = db.storage_counters();
    ctx.tr.set_pass(2);
    let mut latencies = Latencies::default();
    let mut after: Vec<ExecOutcome> = Vec::with_capacity(inputs.mixes[1].len());
    let mut execute_s = 0.0;
    for chunk in inputs.mixes[1].chunks(mix_batch) {
        ctx.calibrate();
        let (outs, seconds, in_engine) = execute_batch(ctx, &mut db, chunk, &mut latencies);
        ctx.m
            .push("replay_stmts_per_s", chunk.len() as f64 / seconds);
        execute_s += in_engine;
        for out in outs {
            after.push(out.ok_or("a statement failed on the disk backend")?);
        }
    }
    ctx.iterations
        .push(("mix_statements", inputs.mixes[1].len() as u64));
    ctx.m.set("exec.execute_s", execute_s);
    let c4 = db.storage_counters();
    report.wal_bytes_per_write_stmt[1] =
        (c4.wal_bytes - c3.wal_bytes) as f64 / writes(&inputs.mixes[1]) as f64;
    let cost = |outs: &[ExecOutcome]| outs.iter().map(|o| o.cost).sum::<f64>() / outs.len() as f64;
    ctx.m.set("cost_ratio", cost(&after) / cost(&before));
    let read: u64 = after.iter().map(ExecOutcome::rows_read).sum();
    let sent: u64 = after.iter().map(ExecOutcome::rows_sent).sum();
    ctx.m.set(
        "exec.rows_read_per_row_sent",
        read as f64 / sent.max(1) as f64,
    );
    latencies.report(&mut ctx.m);

    let (result, seconds) = ctx.tr.time("storage.checkpoint", || db.checkpoint());
    result.map_err(err)?;
    ctx.m.set("storage.checkpoint_s", seconds);
    add_delta(&mut report.counters, &c3, &db.storage_counters());
    let commits = inputs.load.len() + writes(&inputs.mixes[0]) + writes(&inputs.mixes[1]);
    report.fsyncs_per_commit = report.counters.wal_fsyncs as f64 / commits as f64;
    let stored: u64 = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|f| f.ok()?.metadata().ok())
        .map(|md| md.len())
        .sum();
    let user: u64 = db.tables().map(|t| t.data_bytes()).sum();
    report.bytes_stored_per_user_byte = stored as f64 / user as f64;

    // Crash without flushing, reopen from the files alone.
    let probe = ctx
        .execute(&mut db, &inputs.probe)
        .ok_or("probe query failed")?;
    let rows: usize = db.tables().map(|t| t.row_count()).sum();
    let indexes = index_names(&db);
    db.simulate_crash();
    drop(db);
    let (reopened, seconds) = ctx
        .tr
        .time("storage.recovery", || Database::open_disk(dir, opts));
    let mut reopened = reopened.map_err(err)?;
    ctx.m.set("storage.recovery_s", seconds);
    report.recovered_records = reopened.storage_counters().recovered_records;
    let rows_after: usize = reopened.tables().map(|t| t.row_count()).sum();
    let indexes_after = index_names(&reopened);
    let probe_after = ctx
        .execute(&mut reopened, &inputs.probe)
        .ok_or("probe query failed")?;
    ctx.gate(
        "crash_recovery",
        rows_after == rows
            && indexes_after == indexes
            && workloads::result_digest(&probe_after) == workloads::result_digest(&probe),
        format!(
            "{rows_after} of {rows} rows, {} of {} indexes, probe of {} rows",
            indexes_after.len(),
            indexes.len(),
            probe.rows.len()
        ),
    );
    let got = [digests(&loaded), digests(&before), digests(&after)];
    let differing = got
        .iter()
        .flatten()
        .zip(expected.iter().flatten())
        .filter(|(a, b)| a != b)
        .count();
    ctx.gate(
        "disk_equals_memory",
        differing == 0,
        format!(
            "{differing} of {} statements answered differently than the memory backend",
            got.iter().map(Vec::len).sum::<usize>()
        ),
    );
    report.report(&mut ctx.m);
    let texts = inputs
        .load
        .iter()
        .chain(inputs.mixes.iter().flatten())
        .map(|e| e.text.as_str());
    Ok(workloads::digest(texts, &window.stream))
}

pub(crate) fn run_disk(ctx: &mut Ctx) -> Result<u64, String> {
    let cfg = ctx.cfg;
    let mut prepared = None;
    ctx.calibrate_setup();
    for _ in 0..if cfg.fixed { 1 } else { SETUPS } {
        let started = cpu_seconds();
        let inputs = workloads::disk_inputs(cfg.seed, cfg.size);
        let expected = reference(ctx, &inputs)?;
        ctx.m.push("setup_s", cpu_seconds() - started);
        ctx.calibrate_setup();
        prepared = Some((inputs, expected));
    }
    let (inputs, expected) = prepared.expect("at least one set-up");
    let dir = cfg
        .out_dir
        .join(format!("tmp-disk_oltp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = sections(ctx, &dir, &inputs, &expected);
    let _ = std::fs::remove_dir_all(&dir);
    result
}
