//! Prints the §VI-D workload-shift experiment (`aim_bench::continuous`):
//! the window log as `#` comment lines, then `key,value` rows.
//!
//! Usage: `cargo run -p aim-bench --bin continuous --release [-- quick]`

use aim_bench::continuous::{self, window_line};
use aim_bench::Scale;

fn main() {
    let shift = continuous::run(Scale::from_args());
    for w in &shift.bootstrap {
        println!("# bootstrap window: {}", window_line(w));
    }
    println!("# post-shift window: {}", window_line(&shift.post_shift));
    println!("queries_measured,{}", shift.queries_measured);
    println!("queries_improved,{}", shift.queries_improved);
    println!("improved_at_least_10x,{}", shift.improved_10x);
    println!("cpu_saving_pct,{:.1}", shift.cpu_saving_pct());
    if shift.queries_improved > 0 {
        println!(
            "share_of_improved_10x_pct,{:.1}",
            shift.improved_10x as f64 / shift.queries_improved as f64 * 100.0
        );
    }
}
