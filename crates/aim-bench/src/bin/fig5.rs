//! Prints Figure 5 (`aim_bench::fig5`) as CSV.
//!
//! Usage: `cargo run -p aim-bench --bin fig5 --release [-- quick]`

use aim_bench::{fig5, Scale};

fn main() {
    let per_query = fig5::run(Scale::from_args());
    println!("# budget = {} bytes", per_query.budget_bytes);
    println!("query,advisor,estimated_cost,measured_cost");
    for r in &per_query.rows {
        println!(
            "{},{},{:.1},{:.1}",
            r.query, r.advisor, r.estimated_cost, r.measured_cost
        );
    }
}
