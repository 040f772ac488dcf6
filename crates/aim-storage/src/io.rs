//! Physical I/O accounting.
//!
//! The engine simulates a disk-backed B+-tree storage layout: data lives in
//! fixed-size pages, point lookups cost a *seek* plus a page read, and range
//! scans cost one seek plus sequential page reads. Only the reads and
//! writes of this crate charge an [`IoStats`] (the `charge_*` methods are
//! crate-private); the executor converts the totals into the
//! simulated-CPU metric that AIM's formulas consume (the paper's `cpu_avg`
//! includes `CPU_IOWAIT`, i.e. I/O shows up as CPU).

/// Fixed page size of the simulated storage engine (InnoDB default: 16 KiB).
pub const PAGE_SIZE: u64 = 16 * 1024;

/// Counters accumulated while executing physical operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read, sequential or random.
    pub pages_read: u64,
    /// Random repositioning operations (B+-tree descents).
    pub seeks: u64,
    /// Rows (or index entries) examined.
    pub rows_read: u64,
    /// Rows written (inserts + deletes + updated index entries).
    pub rows_written: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Pages that missed the buffer pool and were fetched from the disk
    /// file (disk backend only; always zero for the in-memory engine).
    pub pages_faulted: u64,
}

impl IoStats {
    /// New, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set into this one.
    pub fn add(&mut self, other: &IoStats) {
        self.pages_read += other.pages_read;
        self.seeks += other.seeks;
        self.rows_read += other.rows_read;
        self.rows_written += other.rows_written;
        self.pages_written += other.pages_written;
        self.pages_faulted += other.pages_faulted;
    }

    /// Charges a B+-tree point lookup: one seek plus one leaf page.
    pub(crate) fn charge_seek(&mut self) {
        self.seeks += 1;
        self.pages_read += 1;
    }

    /// Charges a sequential scan over `bytes` of data (at least one page).
    pub(crate) fn charge_sequential(&mut self, bytes: u64) {
        self.pages_read += bytes.div_ceil(PAGE_SIZE).max(1);
    }

    /// Charges examination of `n` rows/entries.
    pub(crate) fn charge_rows(&mut self, n: u64) {
        self.rows_read += n;
    }

    /// Charges `n` row writes over `bytes` of data.
    pub(crate) fn charge_writes(&mut self, n: u64, bytes: u64) {
        self.rows_written += n;
        self.pages_written += bytes.div_ceil(PAGE_SIZE).max(1);
    }
}

/// Number of pages needed to store `bytes` of data.
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_charge_rounds_up_and_floors_at_one() {
        let mut io = IoStats::new();
        io.charge_sequential(1);
        assert_eq!(io.pages_read, 1);
        io.charge_sequential(PAGE_SIZE + 1);
        assert_eq!(io.pages_read, 3);
    }

    #[test]
    fn seek_counts_page_and_seek() {
        let mut io = IoStats::new();
        io.charge_seek();
        assert_eq!(io.seeks, 1);
        assert_eq!(io.pages_read, 1);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let mut a = IoStats::new();
        a.charge_seek();
        a.charge_rows(5);
        let mut b = IoStats::new();
        b.charge_writes(2, 100);
        b.add(&a);
        assert_eq!(b.seeks, 1);
        assert_eq!(b.rows_read, 5);
        assert_eq!(b.rows_written, 2);
        assert_eq!(b.pages_written, 1);
    }

    #[test]
    fn pages_for_exact_multiples() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE * 2 + 1), 3);
    }
}
