//! Cost model.
//!
//! All costs are in abstract *cost units*, calibrated so that one unit is
//! roughly a microsecond of CPU on the simulated machine. The same constants
//! convert (a) planner *estimates* and (b) measured [`IoStats`] from real
//! execution, so estimated and observed costs are directly comparable — the
//! property Figure 5 of the paper relies on when comparing optimizer
//! estimates with execution behaviour.
//!
//! The prices are constants, like the one optimizer of the server AIM
//! tunes: nothing configures them, so no plan, stamp or what-if key
//! carries them (DESIGN.md §6). Flash-flavoured values (the paper's
//! deployment context): random access ~4x a sequential page read.

use aim_storage::{pages_for, IoStats};

/// Sequentially reading one page.
pub const SEQ_PAGE_COST: f64 = 1.0;
/// A random B+-tree descent (seek) plus its page read.
pub const RAND_PAGE_COST: f64 = 4.0;
/// Examining one row or index entry.
pub const ROW_COST: f64 = 0.05;
/// Writing one row / index entry.
pub const WRITE_ROW_COST: f64 = 0.2;
/// Writing one page.
pub const WRITE_PAGE_COST: f64 = 2.0;
/// Sorting: per `n * log2(n)` element-comparisons.
pub const SORT_ROW_COST: f64 = 0.02;
/// Producing one output row (projection + network).
pub const OUTPUT_ROW_COST: f64 = 0.02;

/// The engine's cost model: the constants above. It has no fields, and
/// `executor.rs` asserts that it stays zero-sized, so a price made
/// configurable fails to compile at the stamp that would have to carry it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostModel;

/// Converts measured physical I/O into cost units.
pub fn io_cost(io: &IoStats) -> f64 {
    // Each seek already charged one page read; bill that page at random
    // rate and the rest sequentially.
    let seq_pages = io.pages_read.saturating_sub(io.seeks) as f64;
    io.seeks as f64 * RAND_PAGE_COST
        + seq_pages * SEQ_PAGE_COST
        + io.rows_read as f64 * ROW_COST
        + io.rows_written as f64 * WRITE_ROW_COST
        + io.pages_written as f64 * WRITE_PAGE_COST
}

/// Cost of a full sequential scan over `bytes` holding `rows` rows.
pub fn full_scan_cost(bytes: u64, rows: f64) -> f64 {
    pages_for(bytes).max(1) as f64 * SEQ_PAGE_COST + rows * ROW_COST
}

/// Cost of one index range scan touching `entries` entries of
/// `entry_width` bytes, plus `lookups` base-table point lookups
/// (zero when the index covers the query).
pub fn index_scan_cost(entries: f64, entry_width: f64, lookups: f64) -> f64 {
    let pages = (entries * entry_width / aim_storage::PAGE_SIZE as f64)
        .ceil()
        .max(1.0);
    RAND_PAGE_COST + pages * SEQ_PAGE_COST + entries * ROW_COST + lookups * RAND_PAGE_COST
}

/// Cost of sorting `rows` rows.
pub fn sort_cost(rows: f64) -> f64 {
    if rows <= 1.0 {
        return 0.0;
    }
    SORT_ROW_COST * rows * rows.log2()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_storage::PAGE_SIZE;

    #[test]
    fn io_cost_separates_random_and_sequential() {
        // One seek (and its page), then four sequential pages.
        let io = IoStats {
            seeks: 1,
            pages_read: 5,
            ..IoStats::new()
        };
        let c = io_cost(&io);
        assert!((c - (4.0 + 4.0)).abs() < 1e-9, "c = {c}");
    }

    #[test]
    fn full_scan_scales_with_pages_and_rows() {
        let small = full_scan_cost(PAGE_SIZE, 100.0);
        let large = full_scan_cost(PAGE_SIZE * 100, 10_000.0);
        assert!(large > 50.0 * small);
    }

    #[test]
    fn covering_scan_cheaper_than_lookups() {
        let covering = index_scan_cost(1000.0, 32.0, 0.0);
        let non_covering = index_scan_cost(1000.0, 32.0, 1000.0);
        assert!(non_covering > 10.0 * covering);
    }

    #[test]
    fn sort_cost_is_superlinear_and_zero_for_singletons() {
        assert_eq!(sort_cost(0.0), 0.0);
        assert_eq!(sort_cost(1.0), 0.0);
        assert!(sort_cost(2000.0) > 2.0 * sort_cost(1000.0));
    }
}
