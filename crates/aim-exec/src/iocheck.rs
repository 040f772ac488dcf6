//! Estimated-vs-measured I/O validation.
//!
//! The advisor's decisions are only as good as the cost model feeding
//! them, and the disk backend finally provides ground truth to check it
//! against: every executed statement carries both the planner's estimate
//! ([`Plan::est_cost`]) and the I/O the storage engine actually performed
//! ([`ExecOutcome::io`] — real page walks when the database runs on the
//! pager, simulated charges in memory). [`IoAccuracy`] accumulates the
//! two streams and reports the model's relative error, the quantity the
//! paper's Fig. 4 experiments track across workload sweeps.

use crate::executor::ExecOutcome;
use crate::planner::Plan;
use aim_storage::IoStats;

/// Accumulator comparing estimated against measured execution cost.
///
/// Mergeable and cheap: one `record` per statement, no allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoAccuracy {
    /// Statements recorded.
    pub samples: u64,
    /// Sum of planner cost estimates.
    pub est_total: f64,
    /// Sum of measured costs.
    pub actual_total: f64,
    /// Sum of per-statement relative errors `|est - actual| / actual`
    /// (statements with zero measured cost are counted in `samples` but
    /// contribute no error term — there is nothing to be relative to).
    sum_rel_err: f64,
    /// Statements that contributed a relative-error term.
    err_samples: u64,
    /// Total pages touched (read + written) by the measured executions.
    pub pages_touched: u64,
}

impl IoAccuracy {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed statement: the plan the optimizer chose and
    /// the outcome the executor measured.
    pub fn record(&mut self, plan: &Plan, outcome: &ExecOutcome) {
        self.record_raw(plan.est_cost, outcome.cost, &outcome.io);
    }

    /// Records a raw (estimate, measurement) pair.
    pub fn record_raw(&mut self, est: f64, actual: f64, io: &IoStats) {
        self.samples += 1;
        self.est_total += est;
        self.actual_total += actual;
        self.pages_touched += io.pages_read + io.pages_written;
        if actual > 0.0 {
            self.sum_rel_err += (est - actual).abs() / actual;
            self.err_samples += 1;
        }
    }

    /// Mean relative error across recorded statements (`0.0` when
    /// nothing measurable was recorded). `0.15` means the model is off by
    /// 15% on an average statement.
    pub fn mean_relative_error(&self) -> f64 {
        if self.err_samples == 0 {
            0.0
        } else {
            self.sum_rel_err / self.err_samples as f64
        }
    }

    /// Aggregate bias: total estimated over total measured cost. `> 1`
    /// means the model systematically over-estimates, `< 1` under.
    pub fn bias(&self) -> f64 {
        if self.actual_total > 0.0 {
            self.est_total / self.actual_total
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(pages: u64) -> IoStats {
        let mut io = IoStats::new();
        io.pages_read = pages;
        io
    }

    #[test]
    fn perfect_estimates_have_zero_error_and_unit_bias() {
        let mut acc = IoAccuracy::new();
        acc.record_raw(10.0, 10.0, &io(3));
        acc.record_raw(4.0, 4.0, &io(1));
        assert_eq!(acc.samples, 2);
        assert_eq!(acc.mean_relative_error(), 0.0);
        assert_eq!(acc.bias(), 1.0);
        assert_eq!(acc.pages_touched, 4);
    }

    #[test]
    fn relative_error_averages_per_statement() {
        let mut acc = IoAccuracy::new();
        acc.record_raw(15.0, 10.0, &io(0)); // 50% over
        acc.record_raw(5.0, 10.0, &io(0)); // 50% under
        assert!((acc.mean_relative_error() - 0.5).abs() < 1e-12);
        assert!((acc.bias() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_actual_contributes_no_error_term() {
        let mut acc = IoAccuracy::new();
        acc.record_raw(3.0, 0.0, &io(0));
        assert_eq!(acc.samples, 1);
        assert_eq!(acc.mean_relative_error(), 0.0);
    }
}
