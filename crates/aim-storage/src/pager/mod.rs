//! The pager: paged file + buffer pool + WAL, with per-operation
//! transactions.
//!
//! **Page access.** The buffer pool's frames are the only copies of a page
//! in memory and the pager lends them: [`Pager::read_page`] returns `&Page`
//! (a hit copies nothing; a miss is one read from the file into a recycled
//! buffer, verified), [`Pager::page_mut`] returns `&mut Page` for editing
//! in place, and [`Pager::write_page`] moves a whole new image in. A borrow
//! ends before the next pager call — the borrow checker sees to it — so a
//! caller keeps page *numbers* across calls, never pages.
//!
//! **Transactions.** Every mutating storage operation runs as one pager
//! transaction. The first `page_mut` or `write_page` of a page takes its
//! before-image — one copy, into a recycled buffer; for `write_page` the
//! replaced frame itself — and pins the frame un-evictable; later touches
//! of the same page cost nothing more. [`Pager::commit`] stamps and seals
//! the touched frames where they lie, frames the WAL batch straight from
//! them (the one copy a commit makes of an image) with a commit record,
//! and fsyncs. Only then do the frames become eligible to reach the
//! database file — via eviction write-back or a [`Pager::checkpoint`], both
//! of which write from the frame and are safe at any point after commit
//! because redo from full-page images is idempotent. [`Pager::rollback`]
//! swaps the before-images back.
//!
//! Recovery invariant: the database file plus the committed prefix of the
//! WAL always reconstructs the state as of the last successful commit.
//! [`Pager::open`] replays committed WAL batches into the file (repairing
//! any torn page from a crashed checkpoint), fsyncs, and truncates the log.
//!
//! Fault sites (see [`crate::fault`]): `storage.wal.fsync` (commit
//! durability), `storage.pager.write` (torn page write), and
//! `storage.pager.read` (transient read error). All surface as the
//! retryable [`StorageError::FaultInjected`].

pub mod buffer_pool;
pub mod page;
pub mod wal;

use crate::error::StorageError;
use crate::fault::{self, FaultKind};
use crate::io::IoStats;
use buffer_pool::{BufferPool, Evicted, PoolCounters};
use page::{Page, PageType, DISK_PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use wal::{Wal, WalCounters};

/// Fault site: physical page write to the database file (torn writes).
pub const SITE_PAGER_WRITE: &str = "storage.pager.write";
/// Fault site: physical page read from the database file.
pub const SITE_PAGER_READ: &str = "storage.pager.read";

const MAGIC: u64 = 0x4149_4d5f_5041_4745; // "AIM_PAGE"
/// File format. 2: pages and WAL records carry the word-wise
/// [`page::checksum32`]; version 1 stored byte-wise FNV-1a.
const VERSION: u32 = 2;
/// The meta page's one cell: magic, version, page count, freelist head,
/// catalog root. It is the first cell of a fresh page, so it ends the page.
const META_CELL: usize = 24;

/// Page buffers kept for reuse: a fault-in takes one instead of
/// allocating, an eviction or a commit's before-images give them back.
const SPARE_PAGES: usize = 16;

/// Tuning knobs for a [`Pager`].
#[derive(Debug, Clone, Copy)]
pub struct PagerOptions {
    /// Buffer pool capacity in frames (16 KiB each).
    pub pool_frames: usize,
    /// Auto-checkpoint once the WAL exceeds this many bytes.
    pub wal_autocheckpoint_bytes: u64,
}

impl Default for PagerOptions {
    fn default() -> Self {
        Self {
            pool_frames: 256,
            wal_autocheckpoint_bytes: 4 << 20,
        }
    }
}

/// File metadata held on page 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Meta {
    /// Pages in the file, including page 0.
    pub page_count: u32,
    /// Head of the free-page chain (0 = empty).
    pub freelist: u32,
    /// First page of the catalog blob chain (0 = no catalog yet).
    pub catalog_root: u32,
}

/// Physical-I/O and recovery counters for one pager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerCounters {
    /// Pages physically read from the database file.
    pub pages_read: u64,
    /// Pages physically written to the database file.
    pub pages_written: u64,
    /// Successful checkpoints.
    pub checkpoints: u64,
    /// Auto-checkpoints that failed (state stays WAL-protected).
    pub checkpoint_failures: u64,
    /// Committed WAL batches applied by recovery at open.
    pub recovered_batches: u64,
    /// WAL records those batches contained.
    pub recovered_records: u64,
    /// Torn WAL tails discarded at open.
    pub torn_tails_discarded: u64,
    /// Page reads that failed checksum verification.
    pub checksum_failures: u64,
}

/// What a page touched by the open transaction goes back to on rollback.
#[derive(Debug)]
enum Before {
    /// The frame as the transaction found it.
    Resident { page: Page, dirty: bool },
    /// No frame held the page: either the database file has its committed
    /// image or the transaction allocated it. Rollback drops the frame.
    Absent,
}

/// The pager.
#[derive(Debug)]
pub struct Pager {
    file: File,
    dir: PathBuf,
    pool: BufferPool,
    wal: Wal,
    meta: Meta,
    next_lsn: u64,
    /// The metadata as the open transaction found it; `None` between
    /// transactions.
    meta_before: Option<Meta>,
    /// Every page the open transaction staged, once, with its before-state.
    /// A frame is in here exactly while the pool has it `uncommitted`.
    touched: Vec<(u32, Before)>,
    spare: Vec<Page>,
    opts: PagerOptions,
    counters: PagerCounters,
}

fn io_err(op: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("pager {op}: {e}"))
}

fn db_path(dir: &Path) -> PathBuf {
    dir.join("aim.db")
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("aim.wal")
}

impl Pager {
    /// Opens (creating if needed) the database under directory `dir`,
    /// running crash recovery first: committed WAL batches are replayed
    /// into `aim.db`, the file is fsynced and the log truncated.
    pub fn open(dir: &Path, opts: PagerOptions) -> Result<Self, StorageError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("mkdir", e))?;
        let mut counters = PagerCounters::default();
        let mut next_lsn = 1;

        let replayed = wal::replay(&wal_path(dir))?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(db_path(dir))
            .map_err(|e| io_err("open", e))?;

        if !replayed.batches.is_empty() {
            for (lsn, pages) in replayed.batches {
                next_lsn = next_lsn.max(lsn + 1);
                for (no, img) in pages {
                    // A logged image is a sealed page; one that is not
                    // never reaches the file.
                    let page = Page::from_bytes(img, no)?;
                    write_at(&mut file, no, page.bytes())?;
                    counters.pages_written += 1;
                }
                counters.recovered_batches += 1;
            }
            counters.recovered_records = replayed.records;
            file.sync_data().map_err(|e| io_err("fsync", e))?;
        }
        if replayed.torn_tail {
            counters.torn_tails_discarded += 1;
        }

        let len = file.seek(SeekFrom::End(0)).map_err(|e| io_err("seek", e))?;
        let meta = if len == 0 {
            let meta = Meta {
                page_count: 1,
                freelist: 0,
                catalog_root: 0,
            };
            let mut p = meta_page(&meta, Page::new(PageType::Meta));
            p.seal();
            write_at(&mut file, 0, p.bytes())?;
            counters.pages_written += 1;
            file.sync_data().map_err(|e| io_err("fsync", e))?;
            meta
        } else {
            let mut p = Page::new(PageType::Meta);
            read_at(&mut file, 0, p.bytes_mut())?;
            counters.pages_read += 1;
            // Which format the file claims comes before whether its
            // checksum holds: another version sums differently, and must
            // not read as a torn write.
            if let Some(version) = claimed_version(&p).filter(|&v| v != VERSION) {
                return Err(unsupported(version));
            }
            p.verify(0)?;
            parse_meta(&p)?
        };

        let mut wal = Wal::open(&wal_path(dir))?;
        if wal.size() > 0 {
            // Everything committed is now in the file; the log restarts.
            wal.truncate()?;
        }

        Ok(Self {
            file,
            dir: dir.to_path_buf(),
            pool: BufferPool::new(opts.pool_frames),
            wal,
            meta,
            next_lsn,
            meta_before: None,
            touched: Vec::new(),
            spare: Vec::new(),
            opts,
            counters,
        })
    }

    /// Directory holding `aim.db` / `aim.wal`.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn meta(&self) -> Meta {
        self.meta
    }

    /// Updates the catalog root pointer (takes effect at commit).
    pub fn set_catalog_root(&mut self, no: u32) {
        self.begin();
        self.meta.catalog_root = no;
    }

    pub fn counters(&self) -> PagerCounters {
        self.counters
    }

    pub fn pool_counters(&self) -> PoolCounters {
        self.pool.counters()
    }

    pub fn wal_counters(&self) -> WalCounters {
        let mut c = self.wal.counters;
        c.records_replayed = self.counters.recovered_records;
        c.torn_tails_discarded = self.counters.torn_tails_discarded;
        c
    }

    /// True while a transaction has staged writes.
    pub fn in_tx(&self) -> bool {
        self.meta_before.is_some()
    }

    fn begin(&mut self) {
        self.meta_before.get_or_insert(self.meta);
    }

    // -------------------------------------------------------------- buffers

    /// A page buffer to overwrite whole, recycled when there is one.
    fn buffer(&mut self) -> Page {
        self.spare
            .pop()
            .unwrap_or_else(|| Page::new(PageType::Free))
    }

    /// A fresh, empty page of type `ty` to fill and hand to
    /// [`Pager::write_page`].
    pub fn blank(&mut self, ty: PageType) -> Page {
        let mut page = self.buffer();
        page.reset(ty);
        page
    }

    /// Takes a buffer a caller is done with.
    pub fn recycle(&mut self, page: Page) {
        if self.spare.len() < SPARE_PAGES {
            self.spare.push(page);
        }
    }

    // ---------------------------------------------------------------- reads

    /// Lends a page, charging `io`: one logical page touch always, plus a
    /// physical fault (`pages_faulted`) when the buffer pool misses and the
    /// image comes from the database file (with checksum verification).
    pub fn read_page(&mut self, no: u32, io: &mut IoStats) -> Result<&Page, StorageError> {
        io.pages_read += 1;
        if self.pool.get(no).is_none() {
            io.pages_faulted += 1;
            self.fault_in(no)?;
        }
        Ok(self.pool.peek(no).expect("page resident after fault-in"))
    }

    /// Reads page `no` from the database file into a frame: the victim's
    /// buffer or a spare one, allocated only while the pool still grows.
    fn fault_in(&mut self, no: u32) -> Result<(), StorageError> {
        if let Some(FaultKind::Fail) = fault::hit(SITE_PAGER_READ) {
            return Err(StorageError::FaultInjected {
                site: SITE_PAGER_READ.to_string(),
            });
        }
        if let Some(evicted) = self.pool.make_room() {
            self.write_back(evicted)?;
        }
        let mut page = self.buffer();
        let mut read = read_at(&mut self.file, no, page.bytes_mut());
        if read.is_ok() {
            self.counters.pages_read += 1;
            read = page.verify(no);
            if read.is_err() {
                self.counters.checksum_failures += 1;
            }
        }
        if let Err(e) = read {
            self.recycle(page);
            return Err(e);
        }
        self.pool.install(no, page, false, false);
        Ok(())
    }

    // --------------------------------------------------------------- writes

    /// Lends a page to the open transaction for editing in place. Called
    /// on a page the caller has just read — it is not a pool lookup of its
    /// own — and takes the page's before-image the first time the
    /// transaction touches it. The edited frame lives only in the buffer
    /// pool (un-evictable) until [`Pager::commit`].
    pub fn page_mut(&mut self, no: u32) -> Result<&mut Page, StorageError> {
        self.begin();
        if !self.pool.is_uncommitted(no) {
            if self.pool.peek(no).is_none() {
                // Evicted since the caller read it: a miss like any other.
                self.read_page(no, &mut IoStats::new())?;
            }
            let mut copy = self.buffer();
            copy.copy_from(self.pool.peek(no).expect("page resident"));
            let dirty = self.pool.is_dirty(no);
            self.touched.push((no, Before::Resident { page: copy, dirty }));
        }
        Ok(self.pool.stage(no).expect("page resident"))
    }

    /// Stages a whole page image into the open transaction: a page just
    /// allocated, freed, or rebuilt from nothing. The buffer moves into
    /// the pool; the frame it replaces, if any, is the before-image.
    pub fn write_page(&mut self, no: u32, page: Page) -> Result<(), StorageError> {
        self.begin();
        if self.pool.is_uncommitted(no) {
            if let Some(replaced) = self.pool.install(no, page, true, true) {
                self.recycle(replaced);
            }
            return Ok(());
        }
        let dirty = self.pool.is_dirty(no);
        if self.pool.peek(no).is_none() {
            if let Some(evicted) = self.pool.make_room() {
                self.write_back(evicted)?;
            }
        }
        let before = match self.pool.install(no, page, true, true) {
            Some(page) => Before::Resident { page, dirty },
            None => Before::Absent,
        };
        self.touched.push((no, before));
        Ok(())
    }

    /// Allocates a page: pops the freelist or extends the file. The caller
    /// stages its first image with [`Pager::write_page`] in the same
    /// transaction; the page is only durably allocated if that commits.
    pub fn allocate_page(&mut self) -> Result<u32, StorageError> {
        self.begin();
        if self.meta.freelist != 0 {
            let no = self.meta.freelist;
            self.meta.freelist = self.read_page(no, &mut IoStats::new())?.next_page();
            return Ok(no);
        }
        let no = self.meta.page_count;
        self.meta.page_count += 1;
        Ok(no)
    }

    /// Returns a page to the freelist.
    pub fn free_page(&mut self, no: u32) -> Result<(), StorageError> {
        let mut p = self.blank(PageType::Free);
        p.set_next_page(self.meta.freelist);
        self.write_page(no, p)?;
        self.meta.freelist = no;
        Ok(())
    }

    // ----------------------------------------------------------- tx control

    /// Commits the open transaction: seals every touched frame in place,
    /// appends the batch + commit record to the WAL and fsyncs. On failure
    /// the transaction is rolled back (pool and meta restored to
    /// before-state) and the error returned — the caller's in-memory
    /// structures must not be updated.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        let Some(meta_before) = self.meta_before else {
            return Ok(());
        };
        let meta_changed = self.meta != meta_before;
        if self.touched.is_empty() && !meta_changed {
            self.meta_before = None;
            return Ok(());
        }
        debug_assert!(
            (meta_before.page_count..self.meta.page_count).all(|no| self.pool.is_uncommitted(no)),
            "a page was allocated and never written"
        );
        if meta_changed {
            let blank = self.blank(PageType::Meta);
            if let Err(e) = self.write_page(0, meta_page(&self.meta, blank)) {
                self.rollback();
                return Err(e);
            }
        }
        let lsn = self.next_lsn;
        // Ascending page order: the batch is a function of the
        // transaction's effect, not of the order it touched pages in.
        self.touched.sort_unstable_by_key(|(no, _)| *no);
        for (no, _) in &self.touched {
            let page = self.pool.stage(*no).expect("staged page resident in pool");
            page.set_lsn(lsn);
            page.seal();
        }
        let pool = &self.pool;
        let images = self.touched.iter().map(|(no, _)| {
            let page = pool.peek(*no).expect("staged page resident in pool");
            (*no, page.bytes())
        });
        if let Err(e) = self.wal.append_commit(lsn, images) {
            self.rollback();
            return Err(e);
        }
        let mut touched = std::mem::take(&mut self.touched);
        for (no, before) in touched.drain(..) {
            self.pool.committed(no);
            if let Before::Resident { page, .. } = before {
                self.recycle(page);
            }
        }
        self.touched = touched;
        self.next_lsn += 1;
        self.meta_before = None;
        // A transaction larger than the pool grew it past capacity; now
        // that its pages are WAL-protected, shed the excess.
        while let Some(evicted) = self.pool.shed_excess() {
            self.write_back(evicted)?;
        }
        if self.wal.size() > self.opts.wal_autocheckpoint_bytes {
            // Auto-checkpoint failure is non-fatal: the WAL keeps growing
            // and keeps protecting every committed page.
            if self.checkpoint().is_err() {
                self.counters.checkpoint_failures += 1;
            }
        }
        Ok(())
    }

    /// Discards the open transaction, restoring every touched page and the
    /// metadata to their pre-transaction state.
    pub fn rollback(&mut self) {
        let Some(meta_before) = self.meta_before.take() else {
            return;
        };
        let mut touched = std::mem::take(&mut self.touched);
        for (no, before) in touched.drain(..) {
            let freed = match before {
                Before::Resident { page, dirty } => self.pool.install(no, page, dirty, false),
                Before::Absent => self.pool.remove(no),
            };
            if let Some(page) = freed {
                self.recycle(page);
            }
        }
        self.touched = touched;
        self.meta = meta_before;
    }

    /// Writes every dirty committed frame to the database file, fsyncs,
    /// and truncates the WAL. Refused while a transaction is open.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        if self.in_tx() {
            return Err(StorageError::Io(
                "checkpoint refused: transaction in flight".into(),
            ));
        }
        let dirty = self.pool.dirty_committed();
        if dirty.is_empty() && self.wal.size() == 0 {
            return Ok(());
        }
        // A frame stays dirty until the whole flush is on disk.
        for &no in &dirty {
            let page = self.pool.peek(no).expect("dirty frame resident");
            write_file(&mut self.file, &mut self.counters, no, page.bytes())?;
        }
        self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        for &no in &dirty {
            self.pool.mark_clean(no);
        }
        self.wal.truncate()?;
        self.counters.checkpoints += 1;
        Ok(())
    }

    /// Models a process crash: every buffered frame and any staged
    /// transaction vanish; nothing is flushed. The pager must not be used
    /// afterwards except to drop it — reopen the directory to recover.
    pub fn simulate_crash(&mut self) {
        self.pool.clear();
        self.touched.clear();
        self.meta_before = None;
    }

    /// A copy of page `no` as the open transaction sees it, for
    /// `btree_page::check`: moves no counter, no clock bit and no frame,
    /// so an audited run and an unaudited one stay in step.
    #[cfg(debug_assertions)]
    pub fn audit_page(&mut self, no: u32) -> Result<Page, StorageError> {
        if let Some(page) = self.pool.peek(no) {
            return Ok(page.clone());
        }
        let mut page = Page::new(PageType::Free);
        read_at(&mut self.file, no, page.bytes_mut())?;
        page.verify(no)?;
        Ok(page)
    }

    // ------------------------------------------------------------ internals

    /// Finishes an eviction: a committed dirty victim goes to the database
    /// file first, and on failure back into the pool (growing it) so no
    /// committed data is lost. The buffer is kept for the next fault-in.
    fn write_back(&mut self, evicted: Evicted) -> Result<(), StorageError> {
        let Evicted { page_no, page, dirty } = evicted;
        if dirty {
            if let Err(e) = write_file(&mut self.file, &mut self.counters, page_no, page.bytes()) {
                self.pool.install(page_no, page, true, false);
                return Err(e);
            }
        }
        self.recycle(page);
        Ok(())
    }
}

/// Physical page write with the torn-write fault gate: an injected
/// failure writes only the first half of the page, exactly what a
/// crashed kernel leaves behind.
fn write_file(
    file: &mut File,
    counters: &mut PagerCounters,
    no: u32,
    data: &[u8],
) -> Result<(), StorageError> {
    if let Some(FaultKind::Fail) = fault::hit(SITE_PAGER_WRITE) {
        let off = u64::from(no) * DISK_PAGE_SIZE as u64;
        let _ = file.seek(SeekFrom::Start(off));
        let _ = file.write_all(&data[..DISK_PAGE_SIZE / 2]);
        return Err(StorageError::FaultInjected {
            site: SITE_PAGER_WRITE.to_string(),
        });
    }
    write_at(file, no, data)?;
    counters.pages_written += 1;
    Ok(())
}

fn write_at(file: &mut File, no: u32, data: &[u8]) -> Result<(), StorageError> {
    debug_assert_eq!(data.len(), DISK_PAGE_SIZE);
    let off = u64::from(no) * DISK_PAGE_SIZE as u64;
    file.seek(SeekFrom::Start(off)).map_err(|e| io_err("seek", e))?;
    file.write_all(data).map_err(|e| io_err("write", e))
}

fn read_at(file: &mut File, no: u32, into: &mut [u8]) -> Result<(), StorageError> {
    let off = u64::from(no) * DISK_PAGE_SIZE as u64;
    file.seek(SeekFrom::Start(off)).map_err(|e| io_err("seek", e))?;
    file.read_exact(into).map_err(|e| io_err("read", e))
}

/// Fills the blank page `p` with the meta cell.
fn meta_page(meta: &Meta, mut p: Page) -> Page {
    let mut cell = [0u8; META_CELL];
    cell[..8].copy_from_slice(&MAGIC.to_le_bytes());
    cell[8..12].copy_from_slice(&VERSION.to_le_bytes());
    cell[12..16].copy_from_slice(&meta.page_count.to_le_bytes());
    cell[16..20].copy_from_slice(&meta.freelist.to_le_bytes());
    cell[20..24].copy_from_slice(&meta.catalog_root.to_le_bytes());
    p.add_cell(&cell).expect("an empty page holds the meta cell");
    p
}

/// The version an unverified page-0 image claims, if it carries the magic
/// where every version has put it.
fn claimed_version(p: &Page) -> Option<u32> {
    let cell = &p.bytes()[DISK_PAGE_SIZE - META_CELL..];
    let magic = u64::from_le_bytes(cell[..8].try_into().unwrap());
    (magic == MAGIC).then(|| u32::from_le_bytes(cell[8..12].try_into().unwrap()))
}

fn unsupported(version: u32) -> StorageError {
    StorageError::Corrupt {
        detail: format!("unsupported file version {version}"),
    }
}

fn parse_meta(p: &Page) -> Result<Meta, StorageError> {
    let corrupt = |d: &str| StorageError::Corrupt { detail: d.into() };
    if p.page_type()? != PageType::Meta || p.nslots() != 1 {
        return Err(corrupt("page 0 is not a meta page"));
    }
    let cell = p.cell(0);
    if cell.len() != META_CELL {
        return Err(corrupt("meta cell malformed"));
    }
    let magic = u64::from_le_bytes(cell[..8].try_into().unwrap());
    if magic != MAGIC {
        return Err(corrupt("bad magic: not an aim-storage file"));
    }
    let version = u32::from_le_bytes(cell[8..12].try_into().unwrap());
    if version != VERSION {
        return Err(unsupported(version));
    }
    Ok(Meta {
        page_count: u32::from_le_bytes(cell[12..16].try_into().unwrap()),
        freelist: u32::from_le_bytes(cell[16..20].try_into().unwrap()),
        catalog_root: u32::from_le_bytes(cell[20..24].try_into().unwrap()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aim-pager-test-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn data_page(fill: u8) -> Page {
        let mut p = Page::new(PageType::Heap);
        p.add_cell(&[fill; 64]).unwrap();
        p
    }

    fn first_cell(pg: &mut Pager, no: u32) -> Vec<u8> {
        pg.read_page(no, &mut IoStats::new()).unwrap().cell(0).to_vec()
    }

    #[test]
    fn create_write_commit_reopen() {
        let dir = tmp("roundtrip");
        {
            let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
            let no = pg.allocate_page().unwrap();
            assert_eq!(no, 1);
            pg.write_page(no, data_page(7)).unwrap();
            pg.commit().unwrap();
            pg.checkpoint().unwrap();
        }
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(pg.meta().page_count, 2);
        let mut io = IoStats::new();
        let p = pg.read_page(1, &mut io).unwrap();
        assert_eq!(p.cell(0), vec![7u8; 64].as_slice());
        assert_eq!(io.pages_read, 1);
        assert_eq!(io.pages_faulted, 1);
    }

    #[test]
    fn uncheckpointed_commit_recovers_from_wal() {
        let dir = tmp("wal-recovery");
        {
            let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
            let no = pg.allocate_page().unwrap();
            pg.write_page(no, data_page(3)).unwrap();
            pg.commit().unwrap();
            // Crash: no checkpoint, pool dropped.
            pg.simulate_crash();
        }
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        assert!(pg.counters().recovered_batches >= 1);
        assert_eq!(pg.meta().page_count, 2, "meta recovered from WAL");
        let mut io = IoStats::new();
        let p = pg.read_page(1, &mut io).unwrap();
        assert_eq!(p.cell(0), vec![3u8; 64].as_slice());
    }

    #[test]
    fn rollback_restores_pool_and_meta() {
        let dir = tmp("rollback");
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        let no = pg.allocate_page().unwrap();
        pg.write_page(no, data_page(1)).unwrap();
        pg.commit().unwrap();
        let count = pg.meta().page_count;

        // Stage: overwrite page 1, allocate page 2, then roll back.
        let fresh = pg.allocate_page().unwrap();
        pg.write_page(no, data_page(9)).unwrap();
        pg.write_page(fresh, data_page(8)).unwrap();
        pg.rollback();
        assert_eq!(pg.meta().page_count, count, "allocation rolled back");
        let mut io = IoStats::new();
        let p = pg.read_page(no, &mut io).unwrap();
        assert_eq!(p.cell(0), vec![1u8; 64].as_slice(), "old content restored");
    }

    #[test]
    fn freelist_reuses_pages() {
        let dir = tmp("freelist");
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        let a = pg.allocate_page().unwrap();
        let b = pg.allocate_page().unwrap();
        pg.write_page(a, data_page(1)).unwrap();
        pg.write_page(b, data_page(2)).unwrap();
        pg.commit().unwrap();
        pg.free_page(a).unwrap();
        pg.commit().unwrap();
        let c = pg.allocate_page().unwrap();
        assert_eq!(c, a, "freed page is recycled");
        pg.write_page(c, data_page(3)).unwrap();
        pg.commit().unwrap();
        assert_eq!(pg.meta().freelist, 0);
    }

    #[test]
    fn tiny_pool_evicts_and_stays_correct() {
        let dir = tmp("evict");
        let opts = PagerOptions {
            pool_frames: 2,
            ..Default::default()
        };
        let mut pg = Pager::open(&dir, opts).unwrap();
        let pages: Vec<u32> = (0..8)
            .map(|i| {
                let no = pg.allocate_page().unwrap();
                pg.write_page(no, data_page(i as u8)).unwrap();
                no
            })
            .collect();
        pg.commit().unwrap();
        let mut io = IoStats::new();
        for (i, &no) in pages.iter().enumerate() {
            let p = pg.read_page(no, &mut io).unwrap();
            assert_eq!(p.cell(0), vec![i as u8; 64].as_slice());
        }
        assert!(pg.pool_counters().evictions > 0, "tiny pool must evict");
        assert!(io.pages_faulted > 0, "evicted pages fault back in");
    }

    #[test]
    fn torn_checkpoint_write_repaired_by_recovery() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let dir = tmp("torn-checkpoint");
        {
            let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
            let no = pg.allocate_page().unwrap();
            pg.write_page(no, data_page(5)).unwrap();
            pg.commit().unwrap();
            crate::fault::arm(crate::fault::FaultPlan::new(3).fail(SITE_PAGER_WRITE, 0, 1));
            let err = pg.checkpoint().unwrap_err();
            assert!(err.is_injected(), "{err}");
            crate::fault::disarm();
            // The page in the file is now torn, but the WAL still holds it.
            pg.simulate_crash();
        }
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        let mut io = IoStats::new();
        let p = pg.read_page(1, &mut io).unwrap();
        assert_eq!(p.cell(0), vec![5u8; 64].as_slice(), "torn page repaired");
        assert_eq!(pg.counters().checksum_failures, 0);
    }

    #[test]
    fn wal_fsync_fault_rolls_back_commit() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let dir = tmp("fsync-fault");
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        let no = pg.allocate_page().unwrap();
        pg.write_page(no, data_page(1)).unwrap();
        pg.commit().unwrap();

        crate::fault::arm(crate::fault::FaultPlan::new(3).fail(wal::SITE_WAL_FSYNC, 0, 1));
        pg.write_page(no, data_page(2)).unwrap();
        let err = pg.commit().unwrap_err();
        crate::fault::disarm();
        assert!(err.is_injected(), "{err}");
        assert!(!pg.in_tx(), "failed commit leaves no open tx");
        let mut io = IoStats::new();
        let p = pg.read_page(no, &mut io).unwrap();
        assert_eq!(p.cell(0), vec![1u8; 64].as_slice(), "old value intact");
        // Retry works.
        pg.write_page(no, data_page(2)).unwrap();
        pg.commit().unwrap();
    }

    #[test]
    fn read_fault_is_transient() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let dir = tmp("read-fault");
        let opts = PagerOptions {
            pool_frames: 1,
            ..Default::default()
        };
        let mut pg = Pager::open(&dir, opts).unwrap();
        let a = pg.allocate_page().unwrap();
        let b = pg.allocate_page().unwrap();
        pg.write_page(a, data_page(1)).unwrap();
        pg.write_page(b, data_page(2)).unwrap();
        pg.commit().unwrap();
        pg.checkpoint().unwrap();
        let mut io = IoStats::new();
        pg.read_page(b, &mut io).unwrap(); // page a no longer pooled
        crate::fault::arm(crate::fault::FaultPlan::new(3).fail(SITE_PAGER_READ, 0, 1));
        let err = pg.read_page(a, &mut io).unwrap_err();
        assert!(err.is_injected(), "{err}");
        let p = pg.read_page(a, &mut io).unwrap();
        crate::fault::disarm();
        assert_eq!(p.cell(0), vec![1u8; 64].as_slice(), "retry succeeds");
    }

    #[test]
    fn auto_checkpoint_truncates_wal() {
        let dir = tmp("auto-checkpoint");
        let opts = PagerOptions {
            pool_frames: 64,
            wal_autocheckpoint_bytes: 2 * DISK_PAGE_SIZE as u64,
        };
        let mut pg = Pager::open(&dir, opts).unwrap();
        for i in 0..8 {
            let no = pg.allocate_page().unwrap();
            pg.write_page(no, data_page(i)).unwrap();
            pg.commit().unwrap();
        }
        assert!(pg.counters().checkpoints > 0, "auto-checkpoint fired");
        assert!(pg.wal_counters().bytes_written > 0);
    }

    #[test]
    fn page_mut_edits_the_frame_and_takes_one_before_image() {
        let dir = tmp("page-mut");
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        let no = pg.allocate_page().unwrap();
        pg.write_page(no, data_page(1)).unwrap();
        pg.commit().unwrap();
        let logged = pg.wal_counters().bytes_written;
        let lookups = pg.pool_counters();

        // Two edits of one page in one transaction, then a rollback: the
        // frame goes back to what the transaction found.
        pg.page_mut(no).unwrap().replace_cell(0, &[2; 64]);
        pg.page_mut(no).unwrap().add_cell(&[3; 8]).unwrap();
        assert_eq!(pg.touched.len(), 1, "one before-image however many edits");
        assert_eq!(first_cell(&mut pg, no), vec![2u8; 64], "a reader sees the edit");
        pg.rollback();
        let page = pg.read_page(no, &mut IoStats::new()).unwrap();
        assert_eq!((page.cell(0), page.nslots()), (&[1u8; 64][..], 1));

        // The same edits committed: one image in the log, sealed where it
        // lies, and `page_mut` itself was never a pool lookup.
        pg.page_mut(no).unwrap().replace_cell(0, &[2; 64]);
        pg.page_mut(no).unwrap().add_cell(&[3; 8]).unwrap();
        pg.commit().unwrap();
        let image = (17 + 4 + DISK_PAGE_SIZE) as u64;
        assert_eq!(pg.wal_counters().bytes_written - logged, image + 17);
        let now = pg.pool_counters();
        assert_eq!((now.hits - lookups.hits, now.misses - lookups.misses), (2, 0));
        let sealed = pg.read_page(no, &mut IoStats::new()).unwrap().bytes().to_vec();
        assert!(Page::from_bytes(sealed, no).is_ok(), "the frame is the logged image");
        pg.simulate_crash();
        drop(pg);
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        assert_eq!(first_cell(&mut pg, no), vec![2u8; 64]);
    }

    #[test]
    fn steady_state_recycles_page_buffers() {
        let dir = tmp("recycle");
        let opts = PagerOptions {
            pool_frames: 2,
            ..Default::default()
        };
        let mut pg = Pager::open(&dir, opts).unwrap();
        let pages: Vec<u32> = (0..6)
            .map(|i| {
                let no = pg.allocate_page().unwrap();
                pg.write_page(no, data_page(i)).unwrap();
                no
            })
            .collect();
        pg.commit().unwrap();
        // Every fault-in below takes the buffer its eviction freed.
        for &no in pages.iter().cycle().take(30) {
            pg.read_page(no, &mut IoStats::new()).unwrap();
            assert!(pg.spare.len() <= SPARE_PAGES);
            assert_eq!(pg.pool.len(), 2);
        }
        assert!(!pg.spare.is_empty(), "the commit's shed frames were kept");
    }

    /// Byte-wise FNV-1a, the page checksum of format version 1.
    fn fnv1a(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0x811c_9dc5, |h, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        })
    }

    #[test]
    fn version_1_file_is_refused_by_version_not_as_torn() {
        let dir = tmp("version-1");
        std::fs::create_dir_all(&dir).unwrap();
        // A version-1 meta page, sealed the way version 1 sealed it.
        let meta = Meta {
            page_count: 1,
            freelist: 0,
            catalog_root: 0,
        };
        let mut img = meta_page(&meta, Page::new(PageType::Meta)).bytes().to_vec();
        let version_at = DISK_PAGE_SIZE - META_CELL + 8;
        img[version_at..version_at + 4].copy_from_slice(&1u32.to_le_bytes());
        let sum = fnv1a(&img[4..]);
        img[..4].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(db_path(&dir), &img).unwrap();
        match Pager::open(&dir, PagerOptions::default()) {
            Err(StorageError::Corrupt { detail }) => {
                assert_eq!(detail, "unsupported file version 1")
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
        // Its own version with a damaged page 0 is still a torn write.
        let mut img = meta_page(&meta, Page::new(PageType::Meta));
        img.seal();
        let mut img = img.bytes().to_vec();
        img[100] ^= 1;
        std::fs::write(db_path(&dir), &img).unwrap();
        match Pager::open(&dir, PagerOptions::default()) {
            Err(StorageError::Corrupt { detail }) => assert!(detail.contains("torn"), "{detail}"),
            other => panic!("expected a checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let dir = tmp("empty-commit");
        let mut pg = Pager::open(&dir, PagerOptions::default()).unwrap();
        pg.commit().unwrap();
        assert_eq!(pg.wal_counters().fsyncs, 0);
    }
}
