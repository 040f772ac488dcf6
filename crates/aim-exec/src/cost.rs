//! Cost model.
//!
//! All costs are in abstract *cost units*, calibrated so that one unit is
//! roughly a microsecond of CPU on the simulated machine. The same constants
//! convert (a) planner *estimates* and (b) measured [`IoStats`] from real
//! execution, so estimated and observed costs are directly comparable — the
//! property Figure 5 of the paper relies on when comparing optimizer
//! estimates with execution behaviour.

use aim_storage::{pages_for, IoStats};

/// Tunable cost constants of the simulated engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sequentially reading one page.
    pub seq_page_cost: f64,
    /// A random B+-tree descent (seek) plus its page read.
    pub rand_page_cost: f64,
    /// Examining one row or index entry.
    pub row_cost: f64,
    /// Writing one row / index entry.
    pub write_row_cost: f64,
    /// Writing one page.
    pub write_page_cost: f64,
    /// Sorting: per `n * log2(n)` element-comparisons.
    pub sort_row_cost: f64,
    /// Producing one output row (projection + network).
    pub output_row_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Flash-flavoured constants (the paper's deployment context):
        // random access ~4x a sequential page read.
        Self {
            seq_page_cost: 1.0,
            rand_page_cost: 4.0,
            row_cost: 0.05,
            write_row_cost: 0.2,
            write_page_cost: 2.0,
            sort_row_cost: 0.02,
            output_row_cost: 0.02,
        }
    }
}

impl CostModel {
    /// Converts measured physical I/O into cost units.
    pub fn io_cost(&self, io: &IoStats) -> f64 {
        // Each seek already charged one page read; bill that page at random
        // rate and the rest sequentially.
        let seq_pages = io.pages_read.saturating_sub(io.seeks) as f64;
        io.seeks as f64 * self.rand_page_cost
            + seq_pages * self.seq_page_cost
            + io.rows_read as f64 * self.row_cost
            + io.rows_written as f64 * self.write_row_cost
            + io.pages_written as f64 * self.write_page_cost
    }

    /// Cost of a full sequential scan over `bytes` holding `rows` rows.
    pub fn full_scan_cost(&self, bytes: u64, rows: f64) -> f64 {
        pages_for(bytes).max(1) as f64 * self.seq_page_cost + rows * self.row_cost
    }

    /// Cost of one index range scan touching `entries` entries of
    /// `entry_width` bytes, plus `lookups` base-table point lookups
    /// (zero when the index covers the query).
    pub fn index_scan_cost(&self, entries: f64, entry_width: f64, lookups: f64) -> f64 {
        let pages = (entries * entry_width / aim_storage::PAGE_SIZE as f64).ceil().max(1.0);
        self.rand_page_cost
            + pages * self.seq_page_cost
            + entries * self.row_cost
            + lookups * self.rand_page_cost
    }

    /// Cost of sorting `rows` rows.
    pub fn sort_cost(&self, rows: f64) -> f64 {
        if rows <= 1.0 {
            return 0.0;
        }
        self.sort_row_cost * rows * rows.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_storage::PAGE_SIZE;

    #[test]
    fn io_cost_separates_random_and_sequential() {
        let m = CostModel::default();
        let mut io = IoStats::new();
        io.charge_seek(); // 1 seek + 1 page
        io.charge_sequential(PAGE_SIZE * 4); // 4 seq pages
        let c = m.io_cost(&io);
        assert!((c - (4.0 + 4.0)).abs() < 1e-9, "c = {c}");
    }

    #[test]
    fn full_scan_scales_with_pages_and_rows() {
        let m = CostModel::default();
        let small = m.full_scan_cost(PAGE_SIZE, 100.0);
        let large = m.full_scan_cost(PAGE_SIZE * 100, 10_000.0);
        assert!(large > 50.0 * small);
    }

    #[test]
    fn covering_scan_cheaper_than_lookups() {
        let m = CostModel::default();
        let covering = m.index_scan_cost(1000.0, 32.0, 0.0);
        let non_covering = m.index_scan_cost(1000.0, 32.0, 1000.0);
        assert!(non_covering > 10.0 * covering);
    }

    #[test]
    fn sort_cost_is_superlinear_and_zero_for_singletons() {
        let m = CostModel::default();
        assert_eq!(m.sort_cost(0.0), 0.0);
        assert_eq!(m.sort_cost(1.0), 0.0);
        assert!(m.sort_cost(2000.0) > 2.0 * m.sort_cost(1000.0));
    }
}
