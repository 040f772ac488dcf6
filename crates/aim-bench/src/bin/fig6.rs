//! Prints Figure 6 (`aim_bench::fig6`): the tick series as CSV, then the
//! per-phase summary as `#` comment lines.
//!
//! Usage: `cargo run -p aim-bench --bin fig6 --release [-- quick]`

use aim_bench::{fig6, Scale};

fn main() {
    let fig = fig6::run(Scale::from_args());
    println!("machine,phase,tick,cpu_pct,throughput");
    for t in &fig.ticks {
        println!(
            "{},{},{},{:.1},{:.1}",
            t.machine, t.phase, t.tick, t.cpu_pct, t.throughput
        );
    }
    println!("# phase summary (indexes added; avg cpu%, avg throughput, cost per statement)");
    for p in &fig.phases {
        println!(
            "# {} {}: +{} indexes; cpu {:.1}%, throughput {:.1}, cost/stmt {:.1}",
            p.machine,
            p.phase,
            p.created.len(),
            p.cpu_pct,
            p.throughput,
            p.cost_per_statement
        );
        for index in &p.created {
            println!("#   {index}");
        }
    }
    let aim = |phase| fig.phase("AIM", phase);
    let gia = fig.phase("GIA", "tuned");
    let pct = |new: f64, old: f64| (new / old - 1.0) * 100.0;
    println!(
        "# throughput: j=1 vs unindexed {:+.1}%, j=2 vs j=1 {:+.1}%, j=3 vs j=2 {:+.1}%, AIM(j=3) vs GIA {:+.1}%",
        pct(aim("j=1").throughput, aim("unindexed").throughput),
        pct(aim("j=2").throughput, aim("j=1").throughput),
        pct(aim("j=3").throughput, aim("j=2").throughput),
        pct(aim("j=3").throughput, gia.throughput),
    );
    println!(
        "# cost per statement: j=2 vs j=1 {:+.1}%, j=3 vs j=2 {:+.1}%, AIM(j=3) vs GIA {:+.1}%",
        pct(aim("j=2").cost_per_statement, aim("j=1").cost_per_statement),
        pct(aim("j=3").cost_per_statement, aim("j=2").cost_per_statement),
        pct(aim("j=3").cost_per_statement, gia.cost_per_statement),
    );
}
