//! Prints Figure 4 (`aim_bench::fig4`) as CSV.
//!
//! Usage: `cargo run -p aim-bench --bin fig4 --release -- [tpch|job|tpcds] [quick]`

use aim_bench::fig4::{self, Benchmark};
use aim_bench::Scale;

fn main() {
    let name = std::env::args().skip(1).find(|a| a != "quick");
    let name = name.as_deref().unwrap_or("tpch");
    let Some(benchmark) = Benchmark::parse(name) else {
        eprintln!("unknown benchmark '{name}' (tpch, job, tpcds)");
        std::process::exit(2);
    };
    let sweep = fig4::run(benchmark, Scale::from_args());
    let label = benchmark.label();
    println!(
        "# {label}: base estimated cost = {:.0} cost units",
        sweep.base_cost
    );
    println!("benchmark,advisor,budget_bytes,relative_cost,runtime_s,whatif_calls,indexes");
    for r in &sweep.rows {
        println!(
            "{label},{},{},{:.4},{:.4},{},{}",
            r.advisor, r.budget_bytes, r.relative_cost, r.runtime_s, r.whatif_calls, r.indexes
        );
    }
}
