//! Figure 6: effect of the join parameter `j`.
//!
//! Two identical machines start with *no* secondary indexes and replay the
//! join-heavy transactional workload of `aim_workloads::join_heavy` (the
//! paper's §VI-C scenario: jointly-selective sub-predicates and multi-table
//! join neighbourhoods). On one machine AIM progressively tunes with
//! j = 1, 2, 3 (two observation→tune rounds per phase, so the covering
//! phase can engage); on the other the greedy incremental algorithm
//! (GIA = Extend, as in the paper) builds its configuration once.
//!
//! Expected shape (paper): j=2 materially better than j=1, j=3 marginal,
//! AIM ahead of GIA on both throughput and CPU.

use crate::{tuning_config, Scale};
use aim_baselines::Gia;
use aim_core::{CandidateGenConfig, IndexAdvisor};
use aim_monitor::WorkloadMonitor;
use aim_storage::{Database, IoStats};
use aim_workloads::join_heavy::{build_database, specs, weighted, JoinHeavyConfig};
use aim_workloads::replay::{Replayer, TickSample};

/// One replayed tick of one machine.
#[derive(Debug, Clone)]
pub struct Tick {
    /// `AIM` or `GIA`.
    pub machine: &'static str,
    pub phase: &'static str,
    pub tick: usize,
    pub cpu_pct: f64,
    pub throughput: f64,
}

/// One machine's phase: the indexes the phase added, then the averages of
/// its measured ticks.
#[derive(Debug, Clone)]
pub struct Phase {
    pub machine: &'static str,
    /// `unindexed`, `j=1`, `j=2`, `j=3` (AIM); `unindexed`, `tuned` (GIA).
    pub phase: &'static str,
    /// `table(columns)` of every index created entering the phase.
    pub created: Vec<String>,
    pub cpu_pct: f64,
    pub throughput: f64,
    /// Executed cost units per statement — the capacity-free reading of
    /// the same ticks.
    pub cost_per_statement: f64,
}

#[derive(Debug, Clone)]
pub struct JoinParameter {
    pub ticks: Vec<Tick>,
    pub phases: Vec<Phase>,
}

impl JoinParameter {
    pub fn phase(&self, machine: &str, phase: &str) -> &Phase {
        self.phases
            .iter()
            .find(|p| p.machine == machine && p.phase == phase)
            .expect("a phase this experiment runs")
    }
}

/// One machine mid-experiment: replays measured ticks phase by phase.
struct Machine {
    name: &'static str,
    db: Database,
    replayer: Replayer,
    per_tick: usize,
    capacity: f64,
}

impl Machine {
    fn tick(&mut self, monitor: Option<&mut WorkloadMonitor>) -> TickSample {
        self.replayer
            .run_tick(&mut self.db, monitor, self.per_tick, self.capacity)
    }

    fn measure(
        &mut self,
        out: &mut JoinParameter,
        phase: &'static str,
        ticks: usize,
        created: Vec<String>,
    ) {
        let (mut cpu, mut throughput, mut cost, mut executed) = (0.0, 0.0, 0.0, 0usize);
        for tick in 0..ticks {
            let s = self.tick(None);
            out.ticks.push(Tick {
                machine: self.name,
                phase,
                tick,
                cpu_pct: s.cpu_pct,
                throughput: s.throughput,
            });
            cpu += s.cpu_pct;
            throughput += s.throughput;
            cost += s.total_cost;
            executed += s.executed;
        }
        out.phases.push(Phase {
            machine: self.name,
            phase,
            created,
            cpu_pct: cpu / ticks as f64,
            throughput: throughput / ticks as f64,
            cost_per_statement: cost / executed.max(1) as f64,
        });
    }
}

pub fn run(scale: Scale) -> JoinParameter {
    let cfg = scale.pick(
        JoinHeavyConfig {
            child_rows: 4_000,
            parent_rows: 600,
            grand_rows: 100,
            dim_rows: 120,
            ..Default::default()
        },
        JoinHeavyConfig::default(),
    );
    let base_db = build_database(&cfg);
    let per_tick = scale.pick(120, 200);
    let phase_len = scale.pick(5, 8);

    // Capacity: 20% of the unindexed per-tick cost — machines start deeply
    // saturated and stay near saturation through j=1, so both the
    // throughput climb (j=1→j=2) and the CPU gap (AIM vs GIA) are visible.
    let workload = specs(17);
    let mut calib = Replayer::new(workload.clone(), 99);
    let sample = calib.run_tick(&mut base_db.clone(), None, per_tick, f64::INFINITY);
    let capacity = sample.total_cost * 0.2;

    let mut out = JoinParameter {
        ticks: Vec::new(),
        phases: Vec::new(),
    };
    let machine = |name| Machine {
        name,
        db: base_db.clone(),
        // Same seed: both machines see the identical statement stream.
        replayer: Replayer::new(workload.clone(), 1),
        per_tick,
        capacity,
    };

    let mut aim = machine("AIM");
    aim.measure(&mut out, "unindexed", phase_len, Vec::new());
    for (j, phase) in [(1, "j=1"), (2, "j=2"), (3, "j=3")] {
        let session = tuning_config(1)
            .candidate_gen(CandidateGenConfig {
                join_parameter: j,
                ..Default::default()
            })
            .session();
        let mut created = Vec::new();
        // Two observation → tune rounds: the second lets the covering
        // phase (TryCoveringIndex) react to the narrow indexes.
        for _ in 0..2 {
            let mut monitor = WorkloadMonitor::new();
            aim.tick(Some(&mut monitor));
            let outcome = session.run(&mut aim.db, &monitor).expect("tuning pass");
            created.extend(outcome.created.iter().map(|c| c.def.to_string()));
        }
        aim.measure(&mut out, phase, phase_len, created);
    }

    let mut gia = machine("GIA");
    gia.measure(&mut out, "unindexed", phase_len, Vec::new());
    let defs = Gia::default().recommend(&gia.db, &weighted(17), u64::MAX);
    let created = defs.iter().map(|d| d.to_string()).collect();
    for d in defs {
        let _ = gia.db.create_index(d, &mut IoStats::new());
    }
    gia.db.analyze_all();
    gia.measure(&mut out, "tuned", phase_len * 3, created);
    out
}
