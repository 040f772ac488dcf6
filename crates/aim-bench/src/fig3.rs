//! Figure 3: CPU utilisation & throughput profiles before and after AIM
//! execution.
//!
//! Two identical machines replay the same workload: the *control* keeps its
//! DBA-created indexes throughout; on the *test* machine all secondary
//! indexes are dropped mid-run, AIM is then initiated, and the indexes it
//! recommends are created incrementally (a few per tick, matching the
//! paper's "indexes were created incrementally with sleeps in between").
//! The expected shape: the test machine's CPU spikes and throughput
//! collapses at the drop, then both staircase back to the control's level
//! as AIM's indexes land.

use crate::{tuning_config, Scale};
use aim_monitor::WorkloadMonitor;
use aim_storage::{IndexDef, IoStats};
use aim_workloads::production::{apply_indexes, build, profiles};
use aim_workloads::replay::Replayer;

/// The tick at which the test machine loses every secondary index.
pub const DROP_TICK: usize = 6;
/// The tick at which AIM runs on the test machine's post-drop window.
pub const AIM_TICK: usize = 10;
/// Ticks replayed per product.
pub const TOTAL_TICKS: usize = 40;

/// Both machines' sample of one tick.
#[derive(Debug, Clone)]
pub struct Row {
    /// Product letter (`A`–`G`).
    pub product: String,
    pub tick: usize,
    pub control_cpu_pct: f64,
    pub control_throughput: f64,
    pub test_cpu_pct: f64,
    pub test_throughput: f64,
}

/// Replays [`TOTAL_TICKS`] ticks per product: Products A, B and C at full
/// scale, the small D and F at the quick one.
pub fn run(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for pi in scale.pick(vec![3, 5], vec![0, 1, 2]) {
        // Larger tables than the Table II runs: Figure 3 is about the
        // visible gap between indexed and unindexed execution, which needs
        // scans that dwarf indexed lookups.
        let mut profile = profiles()[pi].clone();
        profile.rows_per_table = scale.pick((1_000, 3_000), (2_000, 6_000));
        let product = profile.name.replace("Product ", "");
        let w = build(&profile);
        let per_tick = (w.specs.len() * 4).clamp(200, 2000);

        // Control machine: DBA indexes, untouched. The test machine starts
        // identical to it.
        let mut control_db = w.db.clone();
        apply_indexes(&mut control_db, &w.dba_indexes);
        let mut test_db = control_db.clone();

        // Calibrate capacity so the control machine runs at ~35% CPU.
        let mut calib = Replayer::new(w.specs.clone(), 99);
        let sample = calib.run_tick(&mut control_db.clone(), None, per_tick, f64::INFINITY);
        let capacity = sample.total_cost / 0.35;

        // Same seed: both machines see the identical statement stream, so
        // tick-to-tick sampling noise cancels in the comparison.
        let mut control = Replayer::new(w.specs.clone(), 1);
        let mut test = Replayer::new(w.specs.clone(), 1);

        let mut pending: Vec<IndexDef> = Vec::new();
        let mut monitor = WorkloadMonitor::new();
        let session = tuning_config(2).session();

        for tick in 0..TOTAL_TICKS {
            if tick == DROP_TICK {
                for def in test_db.all_indexes() {
                    let _ = test_db.drop_index(&def.table, &def.name);
                }
                test_db.analyze_all();
            }
            if tick == AIM_TICK {
                // AIM analyses the observed (post-drop) workload on a
                // clone, then its indexes are created a few per tick.
                let mut clone = test_db.clone();
                let outcome = session.run(&mut clone, &monitor).expect("tuning pass");
                pending = outcome.created.into_iter().map(|c| c.def).collect();
                // `created` is in descending utility order and `pop` takes
                // from the back: reverse so the most beneficial indexes
                // land first (fast initial recovery, as in the paper).
                pending.reverse();
            }
            if tick > AIM_TICK && !pending.is_empty() {
                // The rate scales with the size of the recommendation so
                // every profile finishes in time.
                let rate = (pending.len() / 15).max(4);
                for _ in 0..rate {
                    if let Some(def) = pending.pop() {
                        let _ = test_db.create_index(def, &mut IoStats::new());
                    }
                }
                test_db.analyze_all();
            }

            let c = control.run_tick(&mut control_db, None, per_tick, capacity);
            let observing = (DROP_TICK..AIM_TICK).contains(&tick);
            let t = test.run_tick(
                &mut test_db,
                observing.then_some(&mut monitor),
                per_tick,
                capacity,
            );
            rows.push(Row {
                product: product.clone(),
                tick,
                control_cpu_pct: c.cpu_pct,
                control_throughput: c.throughput,
                test_cpu_pct: t.cpu_pct,
                test_throughput: t.throughput,
            });
        }
    }
    rows
}
