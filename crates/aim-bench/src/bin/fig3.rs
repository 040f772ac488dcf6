//! Prints Figure 3 (`aim_bench::fig3`) as CSV.
//!
//! Usage: `cargo run -p aim-bench --bin fig3 --release [-- quick]`

use aim_bench::{fig3, Scale};

fn main() {
    println!("product,tick,machine,cpu_pct,throughput");
    for r in fig3::run(Scale::from_args()) {
        let (product, tick) = (&r.product, r.tick);
        println!(
            "{product},{tick},control,{:.1},{:.1}",
            r.control_cpu_pct, r.control_throughput
        );
        println!(
            "{product},{tick},test,{:.1},{:.1}",
            r.test_cpu_pct, r.test_throughput
        );
    }
}
