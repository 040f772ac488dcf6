//! Interactive AIM shell.
//!
//! A small REPL over the engine: type SQL to execute it (DDL, DML,
//! queries); every execution feeds the workload monitor; `\tune` runs an
//! AIM pass and prints each recommendation's metrics-driven explanation.
//!
//! ```sh
//! cargo run -p aim-bench --bin aim_cli --release
//! aim> \demo
//! aim> SELECT id FROM orders WHERE customer_id = 7;
//! aim> \tune
//! ```
//!
//! Non-interactive modes:
//!
//! The shell runs in-memory by default; `--backend disk:PATH` opens (or
//! creates) a durable pager-backed database instead — data survives
//! restarts, and `\storage` shows buffer-pool/WAL counters:
//!
//! ```sh
//! cargo run -p aim-bench --bin aim_cli --release -- --backend disk:/tmp/aim_db
//! ```
//!
//! ```sh
//! # one tuning pass with telemetry; prints span tree + counters
//! cargo run -p aim-bench --bin aim_cli --release -- --profile tpch
//!
//! # plan EXPLAIN: chosen access path per join step, plus every
//! # considered-but-rejected alternative with its cost
//! cargo run -p aim-bench --bin aim_cli --release -- \
//!     explain demo "SELECT id FROM orders WHERE customer_id = 7"
//!
//! # continuous tuning over N observation windows, with the live
//! # introspection endpoint (/metrics, /journal, /profile, /timeseries,
//! # /trace, /ledger); artifacts are written only where a path is given
//! cargo run -p aim-bench --bin aim_cli --release -- \
//!     continuous tpch --windows 3 --serve 7800 --trace-out /tmp/trace_tpch.json \
//!     --ledger-out /tmp/decision_ledger.json --telemetry-out /tmp/telemetry.json
//!
//! # tune a Zipf-skewed tenant fleet through one FleetSession run
//! # (fleet-level knapsack budget allocation; --uniform for the fixed
//! # per-shard split), optionally serving /metrics and /timeseries live
//! cargo run -p aim-bench --bin aim_cli --release -- \
//!     fleet --tenants 32 --skew 1.2 --selection lp --serve 7800
//! ```

use aim_bench::continuous::{tune_window, window_line};
use aim_core::{AimConfig, BackendSpec, SelectionStrategy, TuningSession};
use aim_exec::{Engine, HypoConfig};
use aim_monitor::{SelectionConfig, WorkloadMonitor};
use aim_sql::parse_statement;
use aim_storage::{Database, Value};
use std::io::{BufRead, Write};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--selection greedy|lp` applies to every mode (REPL \tune, --profile,
    // explain --tune, continuous): greedy knapsack (default) or the
    // LP-relaxation selector.
    let mut strategy = SelectionStrategy::Greedy;
    if let Some(i) = args.iter().position(|a| a == "--selection") {
        strategy = match args.get(i + 1).map(String::as_str) {
            Some("greedy") => SelectionStrategy::Greedy,
            Some("lp") => SelectionStrategy::Lp,
            other => {
                eprintln!(
                    "--selection must be 'greedy' or 'lp', got {:?}",
                    other.unwrap_or("")
                );
                std::process::exit(2);
            }
        };
        args.drain(i..(i + 2).min(args.len()));
    }
    // `--trace-out PATH` applies to the telemetry-enabled modes
    // (`--profile`, `continuous`): record every span close as a Chrome
    // trace event and write the trace to PATH on exit (load it in
    // chrome://tracing or Perfetto).
    let trace_out = take_path_flag(&mut args, "--trace-out");
    if let Some(i) = args.iter().position(|a| a == "--profile") {
        let workload = args.get(i + 1).map(String::as_str).unwrap_or("demo");
        run_profile(workload, strategy, trace_out.as_deref());
        return;
    }
    match args.first().map(String::as_str) {
        Some("explain") => {
            run_explain(&args[1..], strategy);
            return;
        }
        Some("continuous") => {
            run_continuous(&args[1..], strategy, trace_out.as_deref());
            return;
        }
        Some("fleet") => {
            run_fleet(&args[1..], strategy);
            return;
        }
        _ => {}
    }
    let mut backend = BackendSpec::Memory;
    if let Some(i) = args.iter().position(|a| a == "--backend") {
        let spec = args.get(i + 1).map(String::as_str).unwrap_or("");
        backend = BackendSpec::parse(spec).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    }
    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    let session = shell_config(strategy).session();
    let mut db = backend.provision().unwrap_or_else(|e| {
        eprintln!("failed to open database: {e}");
        std::process::exit(1);
    });

    println!(
        "AIM shell ({backend} backend) — type SQL, or \\help for commands."
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("aim> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            if !run_command(cmd, &mut db, &engine, &mut monitor, &session) {
                break;
            }
            continue;
        }
        run_sql(line.trim_end_matches(';'), &mut db, &engine, &mut monitor);
    }
}

/// Removes `FLAG PATH` from `args` and returns the path. Every artifact the
/// shell can write goes to a path given this way; there is no default.
fn take_path_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("{flag} needs a file path");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    Some(path)
}

/// The value after the flag at `args[*i]`, parsed; exits 2 when it is
/// missing or malformed.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    *i += 1;
    args.get(*i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{} needs {what}", args[*i - 1]);
        std::process::exit(2);
    })
}

/// The configuration every mode of the shell tunes with: any query seen
/// once is in, with the selector `--selection` names.
fn shell_config(strategy: SelectionStrategy) -> aim_core::AimConfigBuilder {
    AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.5,
            ..Default::default()
        })
        .selection_strategy(strategy)
}

/// Starts the loopback introspection endpoint and says what it serves.
fn serve(port: u16, routes: &str) -> aim_telemetry::IntrospectionServer {
    match aim_telemetry::IntrospectionServer::start(port) {
        Ok(s) => {
            println!("introspection endpoint: http://{} ({routes})", s.addr());
            s
        }
        Err(e) => {
            eprintln!("--serve {port}: {e}");
            std::process::exit(1);
        }
    }
}

/// Keeps a finished run's endpoint up until stdin closes.
fn hold(server: aim_telemetry::IntrospectionServer) {
    println!(
        "endpoint still serving on http://{}; press Enter (or close stdin) to exit",
        server.addr()
    );
    let _ = std::io::stdin().lock().read_line(&mut String::new());
    server.shutdown();
}

/// Handles a `\command`; returns false to exit.
fn run_command(
    cmd: &str,
    db: &mut Database,
    engine: &Engine,
    monitor: &mut WorkloadMonitor,
    session: &TuningSession,
) -> bool {
    let (name, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
    match name {
        "quit" | "q" | "exit" => return false,
        "help" => {
            println!("  <SQL>;           execute a statement (recorded by the monitor)");
            println!("  \\explain <SQL>  show the plan without executing");
            println!("  \\tune           run one AIM tuning pass on the observed workload");
            println!("  \\workload       show per-query statistics of the current window");
            println!("  \\indexes        list secondary indexes");
            println!("  \\storage        backend kind + buffer-pool/WAL counters");
            println!("  \\checkpoint     flush dirty pages and truncate the WAL");
            println!("  \\reset          start a new observation window");
            println!("  \\demo           load a small demo database + workload");
            println!("  \\quit           exit");
        }
        "explain" => match parse_statement(rest) {
            Ok(aim_sql::Statement::Select(s)) => {
                let cfg = HypoConfig::none();
                match aim_exec::explain_select(db, &s, &cfg, &engine.cost_model) {
                    Ok((_plan, ex)) => print!("{}", ex.render_text()),
                    Err(e) => println!("explain error: {e}"),
                }
            }
            Ok(_) => println!("\\explain supports SELECT statements"),
            Err(e) => println!("parse error: {e}"),
        },
        "tune" => match session.run(db, monitor) {
            Ok(outcome) => {
                println!(
                    "examined {} queries, {} candidates, {:?} elapsed",
                    outcome.workload_size, outcome.candidates_generated, outcome.elapsed
                );
                for c in &outcome.created {
                    println!("  CREATE {}", c.explanation);
                }
                for (name, why) in &outcome.rejected {
                    println!("  reject {name}: {why}");
                }
                if outcome.created.is_empty() && outcome.rejected.is_empty() {
                    println!("  nothing to do");
                }
            }
            Err(e) => println!("tuning error: {e}"),
        },
        "workload" => {
            for q in monitor.queries() {
                println!(
                    "  {:>6}x cpu_avg {:>9.1} ddr {:>4.2} B {:>9.1}  {}",
                    q.executions,
                    q.cpu_avg(),
                    q.ddr_avg(),
                    q.expected_benefit(),
                    q.normalized_text
                );
            }
            if monitor.is_empty() {
                println!("  (no queries observed)");
            }
        }
        "indexes" => {
            for d in db.all_indexes() {
                println!("  {} on {}({})", d.name, d.table, d.columns.join(", "));
            }
            println!(
                "  total secondary index bytes: {}",
                db.total_secondary_index_bytes()
            );
        }
        "storage" => {
            let c = db.storage_counters();
            println!("  backend: {:?}", db.backend_kind());
            println!(
                "  buffer pool: {} hits, {} misses, {} evictions",
                c.bp_hits, c.bp_misses, c.bp_evictions
            );
            println!(
                "  pager: {} pages read, {} written, {} checkpoints",
                c.pages_read, c.pages_written, c.checkpoints
            );
            println!("  wal: {} bytes, {} fsyncs", c.wal_bytes, c.wal_fsyncs);
        }
        "checkpoint" => match db.checkpoint() {
            Ok(()) => println!("  checkpoint complete"),
            Err(e) => println!("  checkpoint failed: {e}"),
        },
        "reset" => {
            monitor.reset();
            println!("  new observation window");
        }
        "demo" => {
            load_demo(db, engine, monitor);
            println!("  demo loaded: orders(20k rows); try:");
            println!("    SELECT id FROM orders WHERE customer_id = 7;");
            println!("    \\tune");
        }
        other => println!("unknown command \\{other} (try \\help)"),
    }
    true
}

fn run_sql(sql: &str, db: &mut Database, engine: &Engine, monitor: &mut WorkloadMonitor) {
    let stmt = match parse_statement(sql) {
        Ok(s) => s,
        Err(e) => {
            println!("parse error: {e}");
            return;
        }
    };
    match engine.execute(db, &stmt) {
        Ok(outcome) => {
            monitor.record(&stmt, &outcome);
            for row in outcome.rows.iter().take(20) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("  {}", cells.join(" | "));
            }
            if outcome.rows.len() > 20 {
                println!("  ... ({} rows total)", outcome.rows.len());
            }
            println!(
                "  -- {} rows, {} read, cost {:.1}",
                outcome.rows.len(),
                outcome.io.rows_read,
                outcome.cost
            );
        }
        Err(e) => println!("error: {e}"),
    }
}

/// Builds the named workload fixture: its database plus a weighted query
/// set to drive the monitor. For `demo` the monitor is additionally
/// seeded with a few executions (the REPL behaviour).
fn workload_fixture(
    workload: &str,
    engine: &Engine,
    monitor: &mut WorkloadMonitor,
) -> (Database, Vec<aim_core::WeightedQuery>) {
    match workload {
        "demo" => {
            let mut db = Database::new();
            load_demo(&mut db, engine, monitor);
            let weighted = [7, 13, 99]
                .iter()
                .map(|v| {
                    aim_core::WeightedQuery::new(
                        parse_statement(&format!(
                            "SELECT id FROM orders WHERE customer_id = {v}"
                        ))
                        .expect("valid"),
                        3.0,
                    )
                })
                .collect();
            (db, weighted)
        }
        "tpch" => (
            aim_workloads::tpch::build_database(&Default::default()),
            aim_workloads::tpch::weighted_workload(17),
        ),
        "tpcds" => (
            aim_workloads::tpcds::build_database(&Default::default()),
            aim_workloads::tpcds::weighted_workload(17),
        ),
        "job" => (
            aim_workloads::job::build_database(&Default::default()),
            aim_workloads::job::weighted_workload(17),
        ),
        "join_heavy" => (
            aim_workloads::join_heavy::build_database(&Default::default()),
            aim_workloads::join_heavy::weighted(17),
        ),
        other => {
            eprintln!("unknown workload '{other}' (demo, tpch, tpcds, job, join_heavy)");
            std::process::exit(2);
        }
    }
}

/// `explain [--json] [--execute] [--tune] [--hypo] [workload] "<SELECT>"`:
/// plan the query against the named workload fixture and show the chosen
/// access path per join step next to every considered-but-rejected
/// alternative with its cost. `--tune` runs an AIM pass first (so real
/// AIM indexes compete), `--hypo` adds the top generated candidates as
/// hypothetical indexes, `--execute` runs the query and appends measured
/// actuals, `--json` emits the machine-readable form.
fn run_explain(args: &[String], strategy: SelectionStrategy) {
    let mut json = false;
    let mut execute = false;
    let mut tune = false;
    let mut hypo = false;
    let mut positional: Vec<&String> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--execute" => execute = true,
            "--tune" => tune = true,
            "--hypo" => hypo = true,
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            _ => positional.push(a),
        }
    }
    let (workload, sql) = match positional.as_slice() {
        [sql] => ("demo".to_string(), (*sql).clone()),
        [wl, sql] => ((*wl).clone(), (*sql).clone()),
        _ => {
            eprintln!(
                "usage: aim_cli explain [--json] [--execute] [--tune] [--hypo] \
                 [workload] \"<SELECT>\""
            );
            std::process::exit(2);
        }
    };

    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    let (mut db, weighted) = workload_fixture(&workload, &engine, &mut monitor);
    let stmt = match parse_statement(&sql) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(2);
        }
    };
    let aim_sql::Statement::Select(select) = stmt.clone() else {
        eprintln!("explain supports SELECT statements");
        std::process::exit(2);
    };

    if tune || hypo {
        for wq in &weighted {
            if let Ok(out) = engine.execute(&mut db, &wq.statement) {
                monitor.record(&wq.statement, &out);
            }
        }
    }
    if tune {
        let session = shell_config(strategy).session();
        match session.run(&mut db, &monitor) {
            Ok(o) => eprintln!("tuned: {} indexes created, {} rejected", o.created.len(), o.rejected.len()),
            Err(e) => eprintln!("tuning failed: {e}"),
        }
    }
    let mut hypos = Vec::new();
    if hypo {
        let wl = aim_monitor::select_workload(
            &monitor,
            &SelectionConfig {
                min_executions: 1,
                min_benefit: 0.0,
                ..Default::default()
            },
        );
        let cands = aim_core::generate_candidates(&db, &wl, &Default::default());
        for c in cands.iter().take(8) {
            let def = aim_storage::IndexDef::new(c.name(), c.table.clone(), c.columns.clone());
            hypos.extend(aim_exec::HypotheticalIndex::build(&db, def));
        }
    }
    let cfg = HypoConfig::overlay(hypos);

    match aim_exec::explain_select(&db, &select, &cfg, &engine.cost_model) {
        Ok((_plan, mut ex)) => {
            if execute {
                match engine.execute(&mut db, &stmt) {
                    Ok(out) => {
                        ex = ex.with_actuals(out.rows.len() as u64, out.io.rows_read, out.cost);
                    }
                    Err(e) => eprintln!("execute failed: {e}"),
                }
            }
            if json {
                println!("{}", ex.render_json());
            } else {
                print!("{}", ex.render_text());
            }
        }
        Err(e) => {
            eprintln!("explain error: {e}");
            std::process::exit(1);
        }
    }
}

/// `continuous [workload] [--windows N] [--serve PORT] [--ledger-out PATH]
/// [--telemetry-out PATH]`: run N observation-window steps of the continuous
/// tuner with the decision ledger recording, optionally exposing the live
/// introspection endpoint. The ledger and the telemetry artifact are
/// written on completion to the paths given, and nowhere otherwise.
fn run_continuous(args: &[String], strategy: SelectionStrategy, trace_out: Option<&str>) {
    let mut args = args.to_vec();
    let ledger_out = take_path_flag(&mut args, "--ledger-out");
    let telemetry_out = take_path_flag(&mut args, "--telemetry-out");
    let mut workload = "demo".to_string();
    let mut windows = 3usize;
    let mut serve_on: Option<u16> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--windows" => windows = flag_value(&args, &mut i, "a number"),
            "--serve" => serve_on = Some(flag_value(&args, &mut i, "a port")),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => workload = other.to_string(),
        }
        i += 1;
    }

    let engine = Engine::new();
    let mut seed_monitor = WorkloadMonitor::new();
    let (mut db, weighted) = workload_fixture(&workload, &engine, &mut seed_monitor);

    aim_telemetry::reset();
    aim_telemetry::enable();
    if trace_out.is_some() {
        aim_telemetry::trace::start_recording();
    }
    let session = shell_config(strategy).ledger(true).session();
    // The /ledger endpoint reads through a clone: TuningSession clones
    // share one ledger.
    let ledger_handle = session.clone();
    aim_telemetry::set_ledger_source(Box::new(move || ledger_handle.ledger_json()));
    let server = serve_on
        .map(|port| serve(port, "/metrics /journal /profile /timeseries /trace /ledger"));

    let mut tuner = aim_core::ContinuousTuner::with_session(session.clone(), 0.5);
    for w in 1..=windows {
        let (_, stepped) = tune_window(&mut tuner, &mut db, |db, monitor| {
            for wq in &weighted {
                if let Ok(out) = engine.execute(db, &wq.statement) {
                    monitor.record(&wq.statement, &out);
                }
            }
        });
        match stepped {
            Ok(out) => println!("window {w}: {}", window_line(&out)),
            Err(e) => println!("window {w}: step failed: {e}"),
        }
        // Make this thread's span tree visible to the /profile endpoint.
        aim_telemetry::publish_profile();
    }

    let ledger = session.ledger();
    println!("decision ledger: {} records over {} passes", ledger.len(), ledger.passes);
    if let Some(path) = &ledger_out {
        match ledger.write_json(path) {
            Ok(()) => println!("decision ledger -> {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(path) = &telemetry_out {
        match aim_telemetry::write_artifact(path, &format!("continuous:{workload}")) {
            Ok(()) => println!("telemetry artifact -> {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Some(path) = trace_out {
        let n = aim_telemetry::trace::stop_recording();
        match aim_telemetry::trace::write_chrome_trace(path) {
            Ok(()) => println!("chrome trace: {n} events -> {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    if let Some(server) = server {
        hold(server);
    }
    aim_telemetry::clear_ledger_source();
    aim_telemetry::disable();
}

/// `fleet [--tenants N] [--skew S] [--workers W] [--uniform] [--serve PORT]`:
/// generate a Zipf-skewed tenant fleet, tune it through a single
/// [`aim_core::FleetSession`] run (fleet-level knapsack budget allocation
/// unless `--uniform`), and print per-tenant outcomes plus the fleet
/// counters. `--serve` exposes the live introspection endpoint
/// (/metrics with per-tenant labels, /timeseries, /fleet per-tenant
/// rollups — `?sort=`/`?top=N` — and /alerts SLO burn rates; a default
/// per-tenant p99 select-latency SLO is registered so /alerts has a rule
/// to evaluate) for the duration of the run and holds it open until stdin
/// closes.
fn run_fleet(args: &[String], strategy: SelectionStrategy) {
    let mut tenants = 16usize;
    let mut skew = 1.0f64;
    let mut workers = 0usize;
    let mut allocation = aim_core::fleet::BudgetAllocation::Knapsack;
    let mut serve_on: Option<u16> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tenants" => tenants = flag_value(args, &mut i, "a number"),
            "--skew" => skew = flag_value(args, &mut i, "a Zipf exponent (e.g. 1.0)"),
            "--workers" => workers = flag_value(args, &mut i, "a number (0 = one per core)"),
            "--uniform" => allocation = aim_core::fleet::BudgetAllocation::Uniform,
            "--serve" => serve_on = Some(flag_value(args, &mut i, "a port")),
            other => {
                eprintln!("unknown flag {other} (try --tenants/--skew/--workers/--uniform/--serve)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    aim_telemetry::reset();
    aim_telemetry::enable();
    let server = serve_on.map(|port| {
        // Give /alerts something real to evaluate: a per-tenant p99 SLO on
        // windowed select cost.
        aim_telemetry::slo::register(
            aim_telemetry::SloRule::new("fleet-select-p99", "exec.select_cost", 1000.0),
        );
        serve(port, "/metrics /timeseries /fleet /alerts")
    });

    println!("generating fleet: {tenants} tenants, Zipf s = {skew}");
    let spec = aim_workloads::fleet::FleetSpec {
        tenants,
        zipf_s: skew,
        ..Default::default()
    };
    let workloads = aim_workloads::fleet::generate_fleet(&spec);
    let mut fleet: Vec<aim_core::fleet::Tenant> =
        workloads.into_iter().map(|w| w.tenant).collect();

    let base = AimConfig::builder()
        .selection(SelectionConfig {
            min_executions: 1,
            min_benefit: 0.0,
            ..Default::default()
        })
        .selection_strategy(strategy)
        .build();
    let session = aim_core::fleet::FleetConfig::builder()
        .base(base)
        .fleet_workers(workers)
        .allocation(allocation)
        .session();
    let outcome = session.run(&mut fleet);

    for t in &outcome.tenants {
        match &t.result {
            Ok(o) => println!(
                "  {}: budget {:>10} | {} created, {} rejected | {} seeded orders | {:.1} ms",
                t.id,
                t.budget,
                o.created.len(),
                o.rejected.len(),
                t.seeded_orders,
                o.elapsed.as_secs_f64() * 1e3
            ),
            Err(e) => println!("  {}: FAILED: {e}", t.id),
        }
    }
    println!(
        "fleet: {}/{} tuned in {:.1} ms | {} budget transfers ({} bytes) | {} seed orders",
        outcome.tuned(),
        outcome.tenants.len(),
        outcome.elapsed.as_secs_f64() * 1e3,
        outcome.budget_transfers,
        outcome.transferred_bytes,
        outcome.seeded_orders,
    );
    if let Some((slow_id, slow)) = &outcome.slowest_tenant {
        println!(
            "straggler: {} gated the pool at {:.1} ms",
            slow_id,
            slow.as_secs_f64() * 1e3
        );
    }
    print!(
        "{}",
        aim_telemetry::render_counters(&aim_telemetry::snapshot())
    );

    if let Some(server) = server {
        hold(server);
    }
    aim_telemetry::disable();
}

/// `--profile <workload>`: execute the workload once, run one tuning pass
/// with telemetry on, and print the phase tree + counters.
fn run_profile(workload: &str, strategy: SelectionStrategy, trace_out: Option<&str>) {
    let engine = Engine::new();
    let mut monitor = WorkloadMonitor::new();
    let (mut db, weighted) = workload_fixture(workload, &engine, &mut monitor);

    aim_telemetry::enable();
    aim_telemetry::reset();
    if trace_out.is_some() {
        aim_telemetry::trace::start_recording();
    }
    let wall = std::time::Instant::now();

    for wq in &weighted {
        if let Ok(outcome) = engine.execute(&mut db, &wq.statement) {
            monitor.record(&wq.statement, &outcome);
        }
    }
    let session = shell_config(strategy).session();
    let result = session.run(&mut db, &monitor);
    let wall = wall.elapsed();

    if let Some(path) = trace_out {
        let n = aim_telemetry::trace::stop_recording();
        match aim_telemetry::trace::write_chrome_trace(path) {
            Ok(()) => println!("chrome trace: {n} events -> {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    let profile = aim_telemetry::take_profile();
    let snapshot = aim_telemetry::snapshot();
    println!("== profile: {workload} ==");
    print!("{}", aim_telemetry::render_profile(&profile));
    print!("{}", aim_telemetry::render_counters(&snapshot));
    println!("wall time: {:.1} ms", wall.as_secs_f64() * 1e3);
    match result {
        Ok(outcome) => println!(
            "tuning pass: {} queries, {} candidates, {} created, {} rejected, {:.1} ms",
            outcome.workload_size,
            outcome.candidates_generated,
            outcome.created.len(),
            outcome.rejected.len(),
            outcome.elapsed.as_secs_f64() * 1e3
        ),
        Err(e) => println!("tuning error: {e}"),
    }
}

fn load_demo(db: &mut Database, engine: &Engine, monitor: &mut WorkloadMonitor) {
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema};
    if db.table("orders").is_ok() {
        return;
    }
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("region", ColumnType::Int),
                ColumnDef::new("amount", ColumnType::Float),
            ],
            &["id"],
        )
        .expect("valid schema"),
    )
    .expect("fresh table");
    let mut io = IoStats::new();
    for i in 0..20_000i64 {
        db.table_mut("orders")
            .expect("exists")
            .insert(
                vec![
                    Value::Int(i),
                    Value::Int(i % 400),
                    Value::Int(i % 9),
                    Value::Float((i % 130) as f64),
                ],
                &mut io,
            )
            .expect("unique");
    }
    db.analyze_all();
    // Seed the monitor with a few executions so \tune has signal.
    for v in [7, 13, 99] {
        let stmt =
            parse_statement(&format!("SELECT id FROM orders WHERE customer_id = {v}"))
                .expect("valid");
        for _ in 0..3 {
            if let Ok(out) = engine.execute(db, &stmt) {
                monitor.record(&stmt, &out);
            }
        }
    }
}
