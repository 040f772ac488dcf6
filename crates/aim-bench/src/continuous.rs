//! §VI-D: continuous index tuning under a workload shift.
//!
//! The paper's scenario: "most of the times, expensive queries result from
//! new code pushes where developers forget to create supporting secondary
//! indexes beforehand." [`run`] bootstraps a database, tunes it for its
//! initial workload, then introduces a batch of new query shapes with no
//! supporting indexes. The continuous tuner runs at every window boundary;
//! the report shows the CPU saved by the post-shift pass and the fraction
//! of improved queries that got at least an order of magnitude faster —
//! the paper reports ~2% fleet CPU savings with ~31% of improved queries
//! gaining ≥10×.
//!
//! [`tune_window`] is the one spelling of "observe a window, then step the
//! tuner": the experiment and `aim_cli continuous` both loop over it.

use crate::{tuning_config, Scale};
use aim_core::{AimError, ContinuousOutcome, ContinuousTuner};
use aim_exec::Engine;
use aim_monitor::WorkloadMonitor;
use aim_storage::Database;
use aim_workloads::production::{build, profiles};
use aim_workloads::replay::{QuerySpec, Replayer};

/// One observation window of continuous tuning: `observe` runs the window's
/// statements into a fresh monitor, then the tuner steps on what it saw.
/// Returns the window with the step's result.
pub fn tune_window(
    tuner: &mut ContinuousTuner,
    db: &mut Database,
    observe: impl FnOnce(&mut Database, &mut WorkloadMonitor),
) -> (WorkloadMonitor, Result<ContinuousOutcome, AimError>) {
    let mut monitor = WorkloadMonitor::new();
    observe(db, &mut monitor);
    let stepped = tuner.step(db, &monitor);
    (monitor, stepped)
}

/// What one step did, as the counts both printers show per window.
pub fn window_line(out: &ContinuousOutcome) -> String {
    format!(
        "created {}, rejected {}, reverted {}, dropped {}",
        out.tuning.created.len(),
        out.tuning.rejected.len(),
        out.reverted.len(),
        out.dropped_unused.len()
    )
}

/// The workload-shift experiment's report.
#[derive(Debug, Clone)]
pub struct Shift {
    /// The three bootstrap windows on the initial workload, in order.
    pub bootstrap: Vec<ContinuousOutcome>,
    /// The step at the end of the first window that saw the new queries.
    pub post_shift: ContinuousOutcome,
    /// Templates of the post-shift window re-measured after the step.
    pub queries_measured: usize,
    /// … of which at least 10% cheaper per execution,
    pub queries_improved: usize,
    /// … of which at least 10× cheaper.
    pub improved_10x: usize,
    /// Executed cost of the post-shift window as observed,
    pub window_cost_before: f64,
    /// and of the same executions re-priced after the step.
    pub window_cost_after: f64,
}

impl Shift {
    pub fn cpu_saving_pct(&self) -> f64 {
        (1.0 - self.window_cost_after / self.window_cost_before.max(1e-9)) * 100.0
    }
}

/// Product C at full scale, the five-table Product F at the quick one.
pub fn run(scale: Scale) -> Shift {
    let mut profile = profiles()[scale.pick(5, 2)].clone();
    profile.rows_per_table = (1_500, 4_000);
    let w = build(&profile);
    let mut db = w.db;

    // Split the workload: the last third of read specs is the "new code
    // push" — unseen during initial tuning.
    let (dml, reads): (Vec<QuerySpec>, Vec<QuerySpec>) = w
        .specs
        .into_iter()
        .partition(|s| s.label.starts_with("dml"));
    let mut initial = reads[..reads.len() * 2 / 3].to_vec();
    initial.extend(dml.iter().cloned());
    let mut shifted = reads;
    shifted.extend(dml);
    let per_window = initial.len() * 4;

    let mut tuner = ContinuousTuner::with_session(tuning_config(2).session(), 0.5);
    let mut window = |db: &mut Database, replayer: &mut Replayer| {
        let (monitor, stepped) = tune_window(&mut tuner, db, |db, monitor| {
            replayer.run_tick(db, Some(monitor), per_window, f64::INFINITY);
        });
        (monitor, stepped.expect("tuning step"))
    };

    let mut replayer = Replayer::new(initial, 7);
    let bootstrap = (0..3).map(|_| window(&mut db, &mut replayer).1).collect();
    let (monitor, post_shift) = window(&mut db, &mut Replayer::new(shifted, 8));

    // Re-measure the shifted window's templates on the tuned database.
    let engine = Engine::new();
    let mut report = Shift {
        bootstrap,
        post_shift,
        queries_measured: 0,
        queries_improved: 0,
        improved_10x: 0,
        window_cost_before: monitor.total_cpu(),
        window_cost_after: 0.0,
    };
    for q in monitor.queries() {
        let after = engine
            .execute(&mut db, &q.exemplar)
            .expect("replayable exemplar")
            .cost;
        report.window_cost_after += after * q.executions as f64;
        report.queries_measured += 1;
        if after < q.cpu_avg() * 0.9 {
            report.queries_improved += 1;
            if after <= q.cpu_avg() / 10.0 {
                report.improved_10x += 1;
            }
        }
    }
    report
}
