//! One run of one workload: set-up, ingest, tuning passes, replay, gates.
//!
//! Every layer is measured from outside, by timing calls into the public
//! functions the session itself calls. The harness runs on one thread and
//! issues each operation when the previous one returned (a closed loop); the
//! advisor keeps its shipped `workers = 0`, one worker per core.

use crate::clock::cpu_seconds;
use crate::env::{self, Env};
use crate::json::{array, quoted, Obj};
use crate::metrics::{defs, Reported, Samples, REFERENCE_KERNEL_S};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{self, Entry, Sampler, Size, Spec, SETUPS};
use aim_core::{
    generate_candidates, knapsack_select, rank_candidates_with, validate_on_clone, AimConfig,
    TuningSession,
};
use aim_exec::{whatif, ExecOutcome};
use aim_monitor::{select_workload, WorkloadMonitor};
use aim_sql::lexer::lex;
use aim_sql::normalize::{normalize_statement, QueryFingerprint};
use aim_sql::parse_statement;
use aim_storage::{Database, IndexDef, IoStats};
use aim_telemetry as tel;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub out_dir: PathBuf,
    /// Run each phase its minimum number of iterations whatever the clock
    /// says, so that two runs do exactly the same work (`verify`).
    pub fixed: bool,
}

pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: u64,
    pub gates: Vec<Gate>,
    pub findings: Vec<String>,
    pub metrics: Vec<Reported>,
    pub env: String,
    pub trace_json: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.ok)
    }

    fn metrics_json(&self, full: bool) -> String {
        let mut o = Obj::new();
        for Reported {
            def,
            summary: s,
            raw,
        } in &self.metrics
        {
            let mut m = Obj::new();
            m.num("value", s.median).str("unit", def.unit);
            if full {
                m.num("q1", s.q1).num("q3", s.q3).int("n", s.n as u64);
                m.num("raw", *raw).bool("exact", def.exact);
            }
            o.raw(def.name, &m.finish());
        }
        o.finish()
    }

    /// The line the benchmark contract asks for on standard output.
    pub fn result_line(&self) -> String {
        let mut o = Obj::new();
        o.bool("correct", self.correct())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", &self.metrics_json(false));
        o.finish()
    }

    /// The full report: the result line's content plus quartiles, sample
    /// counts, gates and the environment.
    pub fn to_json(&self) -> String {
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                let mut o = Obj::new();
                o.str("name", g.name)
                    .bool("ok", g.ok)
                    .str("detail", &g.detail);
                o.finish()
            })
            .collect();
        let mut o = Obj::new();
        o.str("workload", self.workload)
            .int("trace", u64::from(self.trace))
            .bool("correct", self.correct())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .str("input_digest", &format!("{:016x}", self.input_digest))
            .raw("env", &self.env)
            .raw("gates", &array(&gates))
            .raw(
                "findings",
                &array(&self.findings.iter().map(|f| quoted(f)).collect::<Vec<_>>()),
            )
            .raw("metrics", &self.metrics_json(true));
        o.finish()
    }

    /// Every metric by name with its unit, and every gate.
    pub fn print_human(&self) {
        eprintln!(
            "== {} (trace {}): {} operations, {} failed",
            self.workload,
            u8::from(self.trace),
            self.attempted,
            self.failed
        );
        for Reported {
            def, summary: s, ..
        } in &self.metrics
        {
            eprintln!(
                "  {:<40} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {} ({} is better)",
                def.name,
                s.median,
                def.unit,
                s.q1,
                s.q3,
                s.n,
                def.better.label()
            );
        }
        for g in &self.gates {
            eprintln!(
                "  gate {:<34} {} {}",
                g.name,
                if g.ok { "ok  " } else { "FAIL" },
                g.detail
            );
        }
        for f in &self.findings {
            eprintln!("  finding: {f}");
        }
    }
}

pub(crate) struct Ctx<'a> {
    pub cfg: &'a RunConfig,
    pub spec: Spec,
    pub tr: Tracer,
    pub m: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    pub findings: Vec<String>,
    pub iterations: Vec<(&'static str, u64)>,
    pub session: TuningSession,
    kernel: crate::calibrate::Kernel,
    /// Seconds of the calibration kernel: during the measured part, and
    /// around the set-ups.
    kernel_s: Vec<f64>,
    setup_kernel_s: Vec<f64>,
    deadline: Option<Instant>,
}

impl Ctx<'_> {
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: String) {
        self.gates.push(Gate { name, ok, detail });
    }

    /// Starts the measured part of the run: `--seconds` from now.
    pub fn start_clock(&mut self) {
        self.deadline =
            (!self.cfg.fixed).then(|| Instant::now() + Duration::from_secs_f64(self.cfg.seconds));
    }

    /// Ends the rounds `seconds` before `--seconds` are over, for work of
    /// known length that follows them.
    pub fn reserve(&mut self, seconds: f64) {
        self.deadline = self.deadline.map(|d| d - Duration::from_secs_f64(seconds));
    }

    /// Whether to run another round: at least the workload's minimum (a
    /// traced run makes three passes a round and needs fewer), then until
    /// `--seconds` have passed.
    pub fn another_round(&self, done: usize) -> bool {
        let min = if self.tr.is_on() {
            3
        } else {
            self.spec.min_rounds
        };
        done < min || self.deadline.is_some_and(|d| Instant::now() < d)
    }

    /// Times the calibration kernel once: a sample of the machine's speed
    /// beside the measurements of this round.
    pub fn calibrate(&mut self) {
        self.kernel_s.push(self.kernel.run());
    }

    /// The same beside a set-up.
    pub fn calibrate_setup(&mut self) {
        self.setup_kernel_s.push(self.kernel.run());
    }

    /// Executes one statement; a failure is counted and reported once.
    pub fn execute(&mut self, db: &mut Database, entry: &Entry) -> Option<ExecOutcome> {
        self.attempted += 1;
        match self.session.engine().execute(db, &entry.stmt) {
            Ok(out) => Some(out),
            Err(e) => {
                if self.failed == 0 {
                    eprintln!("statement failed: {e}\n  {}", entry.text);
                }
                self.failed += 1;
                None
            }
        }
    }
}

/// Executes every entry once on `db` and returns the outcomes.
pub(crate) fn execute_all(
    ctx: &mut Ctx,
    db: &mut Database,
    entries: &[Entry],
) -> Result<Vec<ExecOutcome>, String> {
    entries
        .iter()
        .map(|e| {
            ctx.execute(db, e)
                .ok_or_else(|| format!("cannot run: {}", e.text))
        })
        .collect()
}

/// The first observation window: what the passes tune for.
pub(crate) struct Window {
    /// The monitor at the window's close.
    pub monitor: WorkloadMonitor,
    /// How often each entry occurred in the window.
    pub counts: Vec<u64>,
    /// The window's stream, for the input digest.
    pub stream: Vec<u32>,
}

/// Parses and records one batch. Traced, it also times the lexer and the
/// normaliser on their own — both run again inside `parse_statement` and
/// `WorkloadMonitor::record` — and books the remainders to parser and monitor.
fn ingest_batch(
    ctx: &mut Ctx,
    entries: &[Entry],
    outcomes: &[ExecOutcome],
    batch: &[u32],
    monitor: &mut WorkloadMonitor,
) -> f64 {
    let open = ctx.tr.enter("ingest.batch");
    let mut failed = 0u64;
    if ctx.tr.is_on() {
        let [mut lex_s, mut parse_s, mut norm_s, mut record_s] = [0.0f64; 4];
        for &i in batch {
            let entry = &entries[i as usize];
            let t0 = Instant::now();
            black_box(lex(&entry.text).is_ok());
            let t1 = Instant::now();
            let parsed = parse_statement(&entry.text);
            let t2 = Instant::now();
            let Ok(stmt) = parsed else {
                failed += 1;
                continue;
            };
            black_box(normalize_statement(&stmt).fingerprint);
            let t3 = Instant::now();
            monitor.record(&stmt, &outcomes[i as usize]);
            let t4 = Instant::now();
            lex_s += (t1 - t0).as_secs_f64();
            parse_s += (t2 - t1).as_secs_f64();
            norm_s += (t3 - t2).as_secs_f64();
            record_s += (t4 - t3).as_secs_f64();
        }
        let n = batch.len() as u64;
        ctx.tr.add_summed("sql.lex", lex_s, n);
        ctx.tr
            .add_summed("sql.parse", (parse_s - lex_s).max(0.0), n);
        ctx.tr.add_summed("sql.normalize", norm_s, n);
        ctx.tr
            .add_summed("monitor.record", (record_s - norm_s).max(0.0), n);
    } else {
        for &i in batch {
            match parse_statement(&entries[i as usize].text) {
                Ok(stmt) => monitor.record(&stmt, &outcomes[i as usize]),
                Err(_) => failed += 1,
            }
        }
    }
    ctx.attempted += batch.len() as u64;
    ctx.failed += failed;
    ctx.tr.exit(open)
}

/// The ingest loop: SQL text → `parse_statement` → `WorkloadMonitor::record`
/// with the outcome the statement had when it was executed, in batches, with
/// `select_workload` and `reset` at each observation window's close.
pub(crate) struct Ingest<'a> {
    entries: &'a [Entry],
    outcomes: &'a [ExecOutcome],
    sampler: Sampler,
    monitor: WorkloadMonitor,
    counts: Vec<u64>,
    stream: Vec<u32>,
    batches: usize,
    first: Option<Window>,
    conserved: bool,
}

impl<'a> Ingest<'a> {
    pub fn new(entries: &'a [Entry], outcomes: &'a [ExecOutcome], seed: u64) -> Self {
        Ingest {
            entries,
            outcomes,
            sampler: Sampler::new(entries, seed),
            monitor: WorkloadMonitor::new(),
            counts: vec![0; entries.len()],
            stream: Vec::new(),
            batches: 0,
            first: None,
            conserved: true,
        }
    }

    /// Ingests the next `n` batches of the stream.
    pub fn batches(&mut self, ctx: &mut Ctx, n: usize) {
        let spec = ctx.spec;
        for _ in 0..n {
            ctx.tr.set_pass((self.batches / spec.window_batches) as u32);
            let batch = self.sampler.batch(self.batches, spec.batch_len);
            let seconds = ingest_batch(ctx, self.entries, self.outcomes, &batch, &mut self.monitor);
            ctx.m
                .push("ingest_stmts_per_s", batch.len() as f64 / seconds);
            for &i in &batch {
                self.counts[i as usize] += 1;
            }
            if self.first.is_none() {
                self.stream.extend(batch);
            }
            self.batches += 1;
            if self.batches.is_multiple_of(spec.window_batches) {
                self.close_window(ctx);
            }
        }
    }

    fn close_window(&mut self, ctx: &mut Ctx) {
        // Conservation: nothing the stream held was lost or counted twice.
        let recorded: u64 = self.monitor.queries().map(|q| q.executions).sum();
        let templates: BTreeSet<QueryFingerprint> = self
            .entries
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(e, _)| e.template)
            .collect();
        self.conserved &=
            recorded == self.counts.iter().sum::<u64>() && self.monitor.len() == templates.len();
        // A pass's own selection is timed in the pass, under its own name.
        let (selected, _) = ctx.tr.time("ingest.window_close", || {
            select_workload(&self.monitor, &workloads::selection())
        });
        black_box(selected.len());
        let counts = std::mem::replace(&mut self.counts, vec![0; self.entries.len()]);
        if self.first.is_none() {
            ctx.m.set("sql.stmts", recorded as f64);
            ctx.m.set("monitor.records", recorded as f64);
            ctx.m.set("monitor.templates", self.monitor.len() as f64);
            ctx.m.set(
                "monitor.first_sight_share",
                self.monitor.len() as f64 / recorded as f64,
            );
            self.first = Some(Window {
                monitor: self.monitor.clone(),
                counts,
                stream: std::mem::take(&mut self.stream),
            });
        }
        self.monitor.reset();
    }

    /// The first window; ingests it if it is not complete yet.
    pub fn first_window(&mut self, ctx: &mut Ctx) -> &Window {
        while self.first.is_none() {
            self.batches(ctx, 1);
        }
        self.first.as_ref().expect("just ingested")
    }

    pub fn finish(self, ctx: &mut Ctx) -> Window {
        let windows = self.batches / ctx.spec.window_batches;
        ctx.iterations.push(("ingest_batches", self.batches as u64));
        ctx.iterations
            .push(("ingest_batch_statements", ctx.spec.batch_len as u64));
        ctx.gate(
            "ingest_conservation",
            self.conserved && self.first.is_some(),
            format!("{windows} windows closed: executions recorded = statements accepted, templates = distinct expected"),
        );
        for (metric, span) in [
            ("sql.lex_s", "sql.lex"),
            ("sql.parse_s", "sql.parse"),
            ("sql.normalize_s", "sql.normalize"),
            ("monitor.record_s", "monitor.record"),
        ] {
            let per_batch: Vec<f64> = ctx
                .tr
                .spans()
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.seconds())
                .collect();
            ctx.m.extend(metric, per_batch);
        }
        self.first.expect("the first window precedes every pass")
    }
}

/// Where passes run: each on a fresh clone of an index-free database, or in
/// place on the disk database, dropping the previous pass's indexes first.
pub(crate) enum Target<'a> {
    Clones {
        base: &'a Database,
        tuned: Option<Database>,
    },
    InPlace(&'a mut Database),
}

impl Target<'_> {
    fn prepare(&mut self, tr: &mut Tracer) -> Result<&mut Database, String> {
        match self {
            Target::Clones { base, tuned } => {
                let (clone, _) = tr.time("storage.clone", || base.try_clone());
                Ok(tuned.insert(clone.map_err(|e| e.to_string())?))
            }
            Target::InPlace(db) => {
                for def in db.all_indexes() {
                    db.drop_index(&def.table, &def.name)
                        .map_err(|e| e.to_string())?;
                }
                // The call validation makes on this database, timed beside it.
                if tr.is_on() {
                    let (clone, _) = tr.time("storage.clone", || db.try_clone());
                    drop(clone.map_err(|e| e.to_string())?);
                }
                Ok(db)
            }
        }
    }

    /// The database the last pass tuned.
    pub fn tuned(&mut self) -> &mut Database {
        match self {
            Target::Clones { tuned, .. } => tuned.as_mut().expect("a pass ran"),
            Target::InPlace(db) => db,
        }
    }
}

pub(crate) fn index_names(db: &Database) -> BTreeSet<String> {
    db.all_indexes().into_iter().map(|d| d.name).collect()
}

/// What the session does before generating candidates and after building.
fn analyze_if_dirty(db: &mut Database) {
    if db.stats_dirty() {
        db.analyze_all();
    }
}

/// The session's pass, stage by stage, through the public functions
/// `TuningSession::run` calls, in its order, one span per call.
fn staged_pass(ctx: &mut Ctx, db: &mut Database, monitor: &WorkloadMonitor) -> Result<(), String> {
    let cfg: AimConfig = ctx.session.config().clone();
    let engine = ctx.session.engine().clone();
    let tr = &mut ctx.tr;
    let m = &mut ctx.m;
    let pass = tr.enter("pass");
    let (workload, _) = tr.time("monitor.select_workload", || {
        select_workload(monitor, &cfg.selection)
    });
    m.push("monitor.selected_queries", workload.len() as f64);
    tr.time("storage.analyze", || analyze_if_dirty(db));
    let (mut candidates, _) = tr.time("candidates.generate", || {
        generate_candidates(db, &workload, &cfg.candidate_gen)
    });
    candidates.retain(|c| {
        db.table(&c.table).is_ok_and(|t| {
            !t.indexes().any(|ix| {
                ix.def().columns.len() >= c.columns.len()
                    && ix.def().columns[..c.columns.len()] == c.columns[..]
            })
        })
    });
    m.push("candidates.generated", candidates.len() as f64);
    let (ranked, _) = tr.time("ranking.rank", || {
        rank_candidates_with(db, &workload, &candidates, &engine.cost_model, cfg.workers)
    });
    m.push("ranking.ranked", ranked.len() as f64);
    let used = db.total_secondary_index_bytes();
    let (chosen, _) = tr.time("ranking.knapsack", || {
        knapsack_select(&ranked, cfg.storage_budget, used)
    });
    m.push("ranking.chosen", chosen.len() as f64);
    m.push(
        "ranking.chosen_bytes",
        chosen.iter().map(|r| r.size_bytes).sum::<u64>() as f64,
    );

    // A skipped stage keeps its span: it then covers the branch alone.
    let validate = tr.enter("validate.validate");
    let accepted = if cfg.skip_validation || chosen.is_empty() {
        m.push("validate.accepted", 0.0);
        m.push("validate.rejected", 0.0);
        chosen
    } else {
        let mut vcfg = cfg.validation.clone();
        if vcfg.workers == 0 {
            vcfg.workers = cfg.workers;
        }
        let out =
            validate_on_clone(db, &workload, &chosen, &engine, &vcfg).map_err(|e| e.to_string())?;
        m.push("validate.accepted", out.accepted.len() as f64);
        m.push("validate.rejected", out.rejected.len() as f64);
        out.accepted
    };
    tr.exit(validate);

    let materialize = tr.enter("session.materialize");
    let mut io = IoStats::new();
    for r in accepted {
        let def = IndexDef::new(
            r.candidate.name(),
            r.candidate.table.clone(),
            r.candidate.columns.clone(),
        );
        let (built, _) = tr.time("storage.create_index", || db.create_index(def, &mut io));
        built.map_err(|e| e.to_string())?;
    }
    tr.time("storage.analyze", || analyze_if_dirty(db));
    tr.exit(materialize);
    tr.exit(pass);
    Ok(())
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Session,
    Armed,
    Staged,
}

/// The tuning passes of a run, every one from the same index-free state with
/// an empty what-if cache. Untraced, a round is one `TuningSession::run`;
/// traced, it is the session's pass, the same with telemetry armed, and the
/// staged pass, in turn.
#[derive(Default)]
pub(crate) struct Passes {
    sets: Vec<BTreeSet<String>>,
    /// Wall-clock seconds of each pass, by kind: what the spans of the staged
    /// pass are compared with.
    session_s: Vec<f64>,
    armed_s: Vec<f64>,
    staged_s: Vec<f64>,
}

impl Passes {
    pub fn round(
        &mut self,
        ctx: &mut Ctx,
        target: &mut Target,
        monitor: &WorkloadMonitor,
    ) -> Result<(), String> {
        // Traced, the three kinds take turns at going first, so that none is
        // always the one that follows the replay or the other two.
        let mut kinds = vec![Kind::Session];
        if ctx.tr.is_on() {
            kinds.extend([Kind::Armed, Kind::Staged]);
            kinds.rotate_left(self.staged_s.len() % 3);
        }
        for kind in kinds {
            ctx.tr.set_pass(self.sets.len() as u32);
            let db = target.prepare(&mut ctx.tr)?;
            let bytes_before = db.total_secondary_index_bytes();
            whatif::global().clear();
            ctx.attempted += 1;
            let (started, cpu_started) = (Instant::now(), cpu_seconds());
            let outcome = match kind {
                Kind::Staged => staged_pass(ctx, db, monitor),
                Kind::Session | Kind::Armed => {
                    if kind == Kind::Armed {
                        tel::enable();
                    }
                    let out = ctx
                        .session
                        .run(db, monitor)
                        .map(drop)
                        .map_err(|e| e.to_string());
                    tel::disable();
                    out
                }
            };
            let (wall, cpu) = (started.elapsed().as_secs_f64(), cpu_seconds() - cpu_started);
            if kind == Kind::Armed {
                tel::reset();
            }
            if let Err(e) = outcome {
                ctx.failed += 1;
                return Err(format!("tuning pass failed: {e}"));
            }
            match kind {
                Kind::Session => {
                    ctx.m.push("pass_s", cpu);
                    self.session_s.push(wall);
                }
                Kind::Armed => self.armed_s.push(wall),
                Kind::Staged => {
                    self.staged_s.push(wall);
                    let stats = whatif::global().stats();
                    ctx.m.push("whatif.calls", stats.misses as f64);
                    ctx.m.push("whatif.hits", stats.hits as f64);
                    ctx.m.push("whatif.hit_rate", stats.hit_rate());
                    ctx.m
                        .push("session.indexes_created", db.all_indexes().len() as f64);
                    ctx.m.push(
                        "storage.index_bytes_built",
                        (db.total_secondary_index_bytes() - bytes_before) as f64,
                    );
                }
            }
            self.sets.push(index_names(db));
        }
        Ok(())
    }

    pub fn finish(self, ctx: &mut Ctx) {
        ctx.iterations.push(("passes", self.sets.len() as u64));
        let same = self.sets.iter().all(|s| *s == self.sets[0]);
        ctx.gate(
            if ctx.tr.is_on() {
                "staged_equals_session"
            } else {
                "passes_repeat"
            },
            same && !self.sets[0].is_empty(),
            format!(
                "{} passes, each built the same {} indexes",
                self.sets.len(),
                self.sets[0].len()
            ),
        );
        if !ctx.tr.is_on() {
            return;
        }
        for (metric, span) in [
            ("monitor.select_workload_s", "monitor.select_workload"),
            ("storage.analyze_s", "storage.analyze"),
            ("candidates.generate_s", "candidates.generate"),
            ("ranking.rank_s", "ranking.rank"),
            ("ranking.knapsack_s", "ranking.knapsack"),
            ("validate.validate_s", "validate.validate"),
            ("session.materialize_s", "session.materialize"),
            ("storage.create_index_s", "storage.create_index"),
            ("storage.clone_s", "storage.clone"),
        ] {
            let per_pass = ctx.tr.per_pass(span);
            ctx.m.extend(metric, per_pass);
        }
        // The stages are the direct children of each staged pass. A round's
        // three passes ran within seconds of each other, so they are compared
        // round by round and the median of the differences is reported.
        let stages = ctx.tr.children_per_pass("pass");
        let sessions = &self.session_s;
        ctx.m
            .extend("session.pass_wall_s", sessions.iter().copied());
        let paired = |other: &[f64], f: fn(f64, f64) -> f64| {
            median(
                &sessions
                    .iter()
                    .zip(other)
                    .map(|(&s, &o)| f(s, o))
                    .collect::<Vec<_>>(),
            )
        };
        let untraced = median(sessions);
        let unattributed = paired(&stages, |session, stages| session - stages);
        ctx.m.set("session.unattributed_s", unattributed);
        let overhead = |session: f64, other: f64| (other / session - 1.0) * 100.0;
        ctx.m.set(
            "telemetry.armed_overhead_pct",
            paired(&self.armed_s, overhead),
        );
        ctx.m.set(
            "telemetry.trace_overhead_pct",
            paired(&self.staged_s, overhead),
        );
        let share = unattributed.abs() / untraced;
        let stages = median(&stages);
        // Not a correctness gate: a layer the stages miss is a finding.
        ctx.findings.push(format!(
            "a pass takes {untraced:.4} s and its stages {stages:.4} s; round by round, \
             {:.1} % of the pass is unattributed{}",
            share * 100.0,
            if share <= 0.10 {
                ""
            } else {
                " — MORE THAN A TENTH: a layer is not instrumented"
            }
        ));
    }
}

/// Latency samples of replayed statements, in seconds, by class.
#[derive(Default)]
pub(crate) struct Latencies {
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
}

impl Latencies {
    /// The `exec.*` metrics of a traced run.
    pub fn report(&self, m: &mut Samples) {
        let all: Vec<f64> = self.reads.iter().chain(&self.writes).copied().collect();
        let rate = |v: &[f64]| {
            let total: f64 = v.iter().sum();
            if total > 0.0 {
                v.len() as f64 / total
            } else {
                0.0
            }
        };
        m.set("exec.stmts", all.len() as f64);
        m.set("exec.stmt_p50_us", percentile(&all, 50.0) * 1e6);
        m.set("exec.stmt_p99_us", percentile(&all, 99.0) * 1e6);
        m.set("exec.read_stmts_per_s", rate(&self.reads));
        m.set("exec.write_stmts_per_s", rate(&self.writes));
    }
}

/// Executes `entries` in order as one timed batch; returns the outcomes,
/// the batch's seconds and the seconds inside `Engine::execute` (the same
/// but for the loop around it; traced, every statement is timed on its own).
pub(crate) fn execute_batch<'e>(
    ctx: &mut Ctx,
    db: &mut Database,
    entries: impl IntoIterator<Item = &'e Entry>,
    latencies: &mut Latencies,
) -> (Vec<Option<ExecOutcome>>, f64, f64) {
    let open = ctx.tr.enter("replay.batch");
    let mut outcomes = Vec::new();
    let mut execute_s = 0.0;
    if ctx.tr.is_on() {
        for e in entries {
            let t = Instant::now();
            let out = ctx.execute(db, e);
            let s = t.elapsed().as_secs_f64();
            execute_s += s;
            if e.is_write() {
                latencies.writes.push(s);
            } else {
                latencies.reads.push(s);
            }
            outcomes.push(out);
        }
        ctx.tr
            .add_summed("exec.execute", execute_s, outcomes.len() as u64);
    } else {
        for e in entries {
            outcomes.push(ctx.execute(db, e));
        }
    }
    let seconds = ctx.tr.exit(open);
    (
        outcomes,
        seconds,
        if ctx.tr.is_on() { execute_s } else { seconds },
    )
}

/// Gate: no read template's executed cost after the pass exceeds its cost
/// before by more than the validation tolerance. Writes are left out: every
/// index on a table adds to the cost of writing it, a price the ranking
/// charges against the index's benefit and no tolerance forbids.
pub(crate) fn regression_gate(
    ctx: &mut Ctx,
    entries: &[Entry],
    before: &BTreeMap<QueryFingerprint, f64>,
    after: &BTreeMap<QueryFingerprint, f64>,
) {
    let tolerance = ctx.session.config().validation.regression_tolerance;
    let reads: BTreeSet<QueryFingerprint> = entries
        .iter()
        .filter(|e| !e.is_write())
        .map(|e| e.template)
        .collect();
    let worst = before
        .iter()
        .filter(|(t, &b)| b > 0.0 && reads.contains(t))
        .map(|(t, &b)| after.get(t).copied().unwrap_or(0.0) / b)
        .fold(0.0f64, f64::max);
    ctx.gate(
        "no_template_regressed",
        worst <= 1.0 + tolerance,
        format!(
            "worst of {} read templates: cost after/before {worst:.4}, tolerance {tolerance}",
            reads.len()
        ),
    );
}

/// Executed cost of `entries`, each weighted by how often the first window
/// saw it: the total and the share of each template.
fn weighed(
    entries: &[Entry],
    counts: &[u64],
    costs: impl Iterator<Item = f64>,
) -> (f64, BTreeMap<QueryFingerprint, f64>) {
    let mut by_template: BTreeMap<QueryFingerprint, f64> = BTreeMap::new();
    let mut total = 0.0;
    for ((e, &n), cost) in entries.iter().zip(counts).zip(costs) {
        total += cost * n as f64;
        *by_template.entry(e.template).or_default() += cost * n as f64;
    }
    (total, by_template)
}

fn run_memory(ctx: &mut Ctx) -> Result<u64, String> {
    let cfg = ctx.cfg;
    // Set-up, several times over; the last one is used.
    let mut prepared = None;
    ctx.calibrate_setup();
    for _ in 0..if cfg.fixed { 1 } else { SETUPS } {
        let started = cpu_seconds();
        let mut inputs = workloads::memory_inputs(ctx.spec.name, cfg.size);
        // Each distinct statement runs once on the index-free database: the
        // outcome the monitor records for it, and its cost before tuning.
        let entries = std::mem::take(&mut inputs.entries);
        let outcomes = execute_all(ctx, &mut inputs.db, &entries)?;
        ctx.m.push("setup_s", cpu_seconds() - started);
        ctx.calibrate_setup();
        prepared = Some((inputs, entries, outcomes));
    }
    let (inputs, entries, outcomes) = prepared.expect("at least one set-up");
    ctx.m.set("storage.load_s", inputs.load_s);
    ctx.m
        .set("load_rows_per_s", inputs.rows_loaded as f64 / inputs.load_s);

    // The first window feeds every pass. After it the run goes in rounds —
    // a pass on a fresh clone, a sweep of every distinct statement over the
    // database that pass tuned, more of the stream — so that each metric's
    // samples span the whole run and its median sees the same machine.
    ctx.start_clock();
    let mut ingest = Ingest::new(&entries, &outcomes, cfg.seed);
    let monitor = ingest.first_window(ctx).monitor.clone();
    let mut target = Target::Clones {
        base: &inputs.db,
        tuned: None,
    };
    let mut passes = Passes::default();
    let mut latencies = Latencies::default();
    let slices = ctx.spec.replay_slices;
    let mut after = vec![0.0f64; entries.len()];
    let (mut rows_read, mut rows_sent) = (0u64, 0u64);
    let mut rounds = 0usize;
    while ctx.another_round(rounds) {
        ctx.calibrate();
        passes.round(ctx, &mut target, &monitor)?;
        ctx.tr.set_pass(rounds as u32);
        // Every slice in the first round, which also gives each statement's
        // cost after tuning; one slice a round from then on.
        for slice in if rounds == 0 {
            0..slices
        } else {
            rounds % slices..rounds % slices + 1
        } {
            ctx.calibrate();
            let part = entries.iter().skip(slice).step_by(slices);
            let (outs, seconds, execute_s) =
                execute_batch(ctx, target.tuned(), part, &mut latencies);
            ctx.m
                .push("replay_stmts_per_s", outs.len() as f64 / seconds);
            ctx.m.push("exec.execute_s", execute_s);
            if rounds == 0 {
                for (i, out) in outs.into_iter().enumerate() {
                    let out = out.ok_or("a replayed statement failed")?;
                    after[slice + i * slices] = out.cost;
                    rows_read += out.rows_read();
                    rows_sent += out.rows_sent();
                }
            }
        }
        ctx.calibrate();
        ingest.batches(ctx, ctx.spec.round_batches);
        rounds += 1;
    }
    ctx.m.set(
        "exec.rows_read_per_row_sent",
        rows_read as f64 / rows_sent.max(1) as f64,
    );
    ctx.iterations.push(("rounds", rounds as u64));
    ctx.iterations
        .push(("replay_slice_statements", (entries.len() / slices) as u64));
    passes.finish(ctx);
    let window = ingest.finish(ctx);
    latencies.report(&mut ctx.m);

    // The storage calls of the disk workload, made here too: a checkpoint of
    // a memory database returns at once, and there is nothing to recover, so
    // that span covers the branch alone.
    let tuned = target.tuned();
    let (result, seconds) = ctx.tr.time("storage.checkpoint", || tuned.checkpoint());
    result.map_err(|e| e.to_string())?;
    ctx.m.set("storage.checkpoint_s", seconds);
    let ((), seconds) = ctx.tr.time("storage.recovery", || ());
    ctx.m.set("storage.recovery_s", seconds);
    let report = crate::disk::StorageReport {
        counters: tuned.storage_counters(),
        ..Default::default()
    };
    report.report(&mut ctx.m);

    let (cost_before, before) = weighed(&entries, &window.counts, outcomes.iter().map(|o| o.cost));
    let (cost_after, after) = weighed(&entries, &window.counts, after.into_iter());
    ctx.m.set("cost_ratio", cost_after / cost_before);
    // The guarantee is validation's: without it there is nothing to hold.
    if !ctx.spec.skip_validation {
        regression_gate(ctx, &entries, &before, &after);
    }
    Ok(workloads::digest(
        entries.iter().map(|e| e.text.as_str()),
        &window.stream,
    ))
}

pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let spec = workloads::spec(&cfg.workload, cfg.size).ok_or_else(|| {
        format!(
            "unknown workload {:?}; one of {:?}",
            cfg.workload,
            workloads::NAMES
        )
    })?;
    let session = AimConfig::builder()
        .selection(workloads::selection())
        .storage_budget(spec.budget_bytes)
        .skip_validation(spec.skip_validation)
        .session();
    let mut ctx = Ctx {
        cfg,
        spec,
        tr: Tracer::new(cfg.trace),
        m: Samples::default(),
        attempted: 0,
        failed: 0,
        gates: Vec::new(),
        findings: Vec::new(),
        iterations: Vec::new(),
        session,
        kernel: crate::calibrate::Kernel::new(),
        kernel_s: Vec::new(),
        setup_kernel_s: Vec::new(),
        deadline: None,
    };
    tel::disable();
    let input_digest = if spec.disk {
        crate::disk::run_disk(&mut ctx)?
    } else {
        run_memory(&mut ctx)?
    };
    ctx.m.set("peak_rss_mb", env::peak_rss_mb());
    ctx.m.set(
        "failed_share",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
    );
    let failed = ctx.failed;
    ctx.gate(
        "no_operation_failed",
        failed == 0,
        format!("{failed} of {} failed", ctx.attempted),
    );
    let slowdown = median(&ctx.kernel_s) / REFERENCE_KERNEL_S;
    let setup_slowdown = median(&ctx.setup_kernel_s) / REFERENCE_KERNEL_S;
    let metrics = ctx.m.report(defs(cfg.trace), slowdown, setup_slowdown)?;
    let env = Env {
        seed: cfg.seed,
        size: cfg.size.label(),
        seconds: cfg.seconds,
        temp_dir: cfg.out_dir.clone(),
        iterations: ctx.iterations,
        kernel_s: median(&ctx.kernel_s),
        kernel_samples: ctx.kernel_s.len(),
        slowdown,
        setup_slowdown,
    };
    Ok(Report {
        workload: spec.name,
        trace: cfg.trace,
        attempted: ctx.attempted,
        failed: ctx.failed,
        input_digest,
        gates: ctx.gates,
        findings: ctx.findings,
        metrics,
        env: env.to_json(),
        trace_json: cfg.trace.then(|| ctx.tr.to_json()),
    })
}
