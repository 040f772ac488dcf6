//! Prints Table II (`aim_bench::table2`).
//!
//! Usage: `cargo run -p aim-bench --bin table2 --release [-- quick]`

use aim_bench::{table2, Scale};

fn main() {
    println!(
        "{:<10} {:>7} {:>6} {:>9} {:>12} {:>12} {:>8} {:>8} {:>10}",
        "Product",
        "Tables",
        "Joins",
        "DBA#/AIM#",
        "DBA bytes",
        "AIM bytes",
        "Jaccard",
        "J(sets)",
        "cost A/D"
    );
    for r in table2::run(Scale::from_args()) {
        println!(
            "{:<10} {:>7} {:>6} {:>4}/{:<4} {:>12} {:>12} {:>8.2} {:>8.2} {:>10.2}",
            format!("P-{}", r.product),
            r.tables,
            r.join_queries,
            r.dba_indexes,
            r.aim_indexes,
            r.dba_bytes,
            r.aim_bytes,
            r.jaccard,
            r.jaccard_sets,
            r.cost_ratio,
        );
    }
}
