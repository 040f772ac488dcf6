//! Redo-only write-ahead log with full-page images.
//!
//! Every transaction appends one *batch*: the sealed after-image of every
//! page it touched, followed by a commit record, flushed with a single
//! `fsync`. Recovery replays committed batches in order into the database
//! file and discards any torn tail — a batch without its commit record
//! (crash mid-commit) is as if the transaction never happened. Checkpoints
//! truncate the log after the buffer pool's dirty pages have been flushed
//! and fsynced to the database file.
//!
//! Record framing: `[len u32][checksum u32][kind u8][lsn u64][payload]`
//! where `len` covers everything after the checksum and the checksum is
//! [`checksum32`] over those same bytes. A record that fails either check
//! ends replay (torn tail).

use super::page::{checksum32, DISK_PAGE_SIZE};
use crate::error::StorageError;
use crate::fault::{self, FaultKind};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const KIND_PAGE_IMAGE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;

/// Fault site: the commit-time `fsync` of the log.
pub const SITE_WAL_FSYNC: &str = "storage.wal.fsync";

fn io_err(op: &str, e: std::io::Error) -> StorageError {
    StorageError::Io(format!("wal {op}: {e}"))
}

/// Cumulative WAL activity (telemetry: `storage.wal.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounters {
    /// Bytes appended to the log.
    pub bytes_written: u64,
    /// `fsync` calls issued on the log file.
    pub fsyncs: u64,
    /// Committed records applied by recovery at open.
    pub records_replayed: u64,
    /// Torn tails discarded by recovery at open.
    pub torn_tails_discarded: u64,
}

/// The write half of the log, owned by the pager.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    size: u64,
    /// The batch being framed; kept between commits of ordinary size so
    /// that a commit allocates nothing.
    batch: Vec<u8>,
    pub counters: WalCounters,
}

/// A batch buffer larger than this many page images is given back after
/// the commit that needed it.
const BATCH_IMAGES_KEPT: usize = 8;

/// Frames one record into `out`; the payload arrives in parts so that a
/// page image is copied once, from its frame into the batch.
fn frame_record(kind: u8, lsn: u64, payload: &[&[u8]], out: &mut Vec<u8>) {
    let body_len = 1 + 8 + payload.iter().map(|p| p.len()).sum::<usize>();
    let start = out.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // checksum backpatched below
    out.push(kind);
    out.extend_from_slice(&lsn.to_le_bytes());
    for part in payload {
        out.extend_from_slice(part);
    }
    let sum = checksum32(&out[start + 8..]);
    out[start + 4..start + 8].copy_from_slice(&sum.to_le_bytes());
}

impl Wal {
    /// Opens (creating if absent) the log for appending. Call only after
    /// [`replay`] has consumed any existing content.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", e))?;
        let size = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            size,
            batch: Vec::new(),
            counters: WalCounters::default(),
        })
    }

    /// Current log size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one committed transaction: all page images plus the commit
    /// record, then fsyncs. Nothing is durable until this returns `Ok`.
    ///
    /// The `storage.wal.fsync` fault site fires *before* the sync: the
    /// batch may be partially or fully buffered but is not durable, exactly
    /// the state a crashed commit leaves behind. Callers roll the
    /// transaction back; recovery discards the unsynced tail.
    pub fn append_commit<'a>(
        &mut self,
        lsn: u64,
        images: impl IntoIterator<Item = (u32, &'a [u8])>,
    ) -> Result<(), StorageError> {
        let images = images.into_iter();
        let mut buf = std::mem::take(&mut self.batch);
        buf.clear();
        buf.reserve(images.size_hint().0 * (DISK_PAGE_SIZE + 32) + 32);
        for (page_no, data) in images {
            debug_assert_eq!(data.len(), DISK_PAGE_SIZE);
            frame_record(KIND_PAGE_IMAGE, lsn, &[&page_no.to_le_bytes(), data], &mut buf);
        }
        frame_record(KIND_COMMIT, lsn, &[], &mut buf);
        let appended = self.append(&buf);
        if buf.capacity() <= BATCH_IMAGES_KEPT * (DISK_PAGE_SIZE + 32) {
            self.batch = buf;
        }
        appended
    }

    fn append(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        self.file.write_all(buf).map_err(|e| io_err("append", e))?;
        if let Some(FaultKind::Fail) = fault::hit(SITE_WAL_FSYNC) {
            // A failed fsync leaves the batch non-durable; model the
            // post-crash outcome by cutting the log back to its synced
            // prefix so a retried transaction appends cleanly.
            let _ = self.file.set_len(self.size);
            let _ = self.file.seek(SeekFrom::End(0));
            return Err(StorageError::FaultInjected {
                site: SITE_WAL_FSYNC.to_string(),
            });
        }
        self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        self.size += buf.len() as u64;
        self.counters.bytes_written += buf.len() as u64;
        self.counters.fsyncs += 1;
        Ok(())
    }

    /// Truncates the log after a successful checkpoint.
    pub fn truncate(&mut self) -> Result<(), StorageError> {
        self.file.set_len(0).map_err(|e| io_err("truncate", e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", e))?;
        self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        self.size = 0;
        self.counters.fsyncs += 1;
        Ok(())
    }
}

/// One committed batch: `(lsn, full-page images as (page_no, bytes))`.
pub type ReplayBatch = (u64, Vec<(u32, Vec<u8>)>);

/// Result of scanning a log at open.
#[derive(Debug, Default)]
pub struct Replay {
    /// Committed batches in commit order.
    pub batches: Vec<ReplayBatch>,
    /// Total committed records (images + commits) replayed.
    pub records: u64,
    /// True if a torn tail (unterminated or corrupt trailing bytes) was
    /// discarded.
    pub torn_tail: bool,
}

/// Scans the log, returning every *committed* batch and flagging any torn
/// tail. Missing file = empty log.
pub fn replay(path: &Path) -> Result<Replay, StorageError> {
    let mut out = Replay::default();
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes).map_err(|e| io_err("read", e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("open", e)),
    }
    let mut pos = 0usize;
    let mut pending: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut pending_records = 0u64;
    while pos < bytes.len() {
        let Some((kind, lsn, payload, next)) = read_record(&bytes, pos) else {
            out.torn_tail = true;
            break;
        };
        match kind {
            KIND_PAGE_IMAGE => {
                if payload.len() != 4 + DISK_PAGE_SIZE {
                    out.torn_tail = true;
                    break;
                }
                let page_no = u32::from_le_bytes(payload[..4].try_into().unwrap());
                pending.push((page_no, payload[4..].to_vec()));
                pending_records += 1;
            }
            KIND_COMMIT => {
                out.batches.push((lsn, std::mem::take(&mut pending)));
                out.records += pending_records + 1;
                pending_records = 0;
            }
            KIND_CHECKPOINT => {
                // A checkpoint record marks everything before it already
                // flushed; only batches after it need replay.
                out.batches.clear();
                out.records = 0;
            }
            _ => {
                out.torn_tail = true;
                break;
            }
        }
        pos = next;
    }
    if !pending.is_empty() {
        // Images without their commit: crash mid-commit. Discard.
        out.torn_tail = true;
    }
    Ok(out)
}

/// Parses one record at `pos`; `None` on any framing violation.
fn read_record(bytes: &[u8], pos: usize) -> Option<(u8, u64, &[u8], usize)> {
    if bytes.len() - pos < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let stored = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
    let body_start = pos + 8;
    if len < 9 || bytes.len() - body_start < len {
        return None;
    }
    let body = &bytes[body_start..body_start + len];
    if checksum32(body) != stored {
        return None;
    }
    let kind = body[0];
    let lsn = u64::from_le_bytes(body[1..9].try_into().unwrap());
    Some((kind, lsn, &body[9..], body_start + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aim-wal-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.wal")
    }

    fn page_img(fill: u8) -> Vec<u8> {
        vec![fill; DISK_PAGE_SIZE]
    }

    #[test]
    fn commit_then_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::open(&path).unwrap();
        let a = page_img(1);
        let b = page_img(2);
        wal.append_commit(1, [(3, &a[..]), (7, &b[..])]).unwrap();
        wal.append_commit(2, [(3, &b[..])]).unwrap();
        assert_eq!(wal.counters.fsyncs, 2);

        let r = replay(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.batches[0].0, 1);
        assert_eq!(r.batches[0].1.len(), 2);
        assert_eq!(r.batches[0].1[0], (3, a));
        assert_eq!(r.batches[1].1[0], (3, b));
        assert_eq!(r.records, 5);
    }

    #[test]
    fn missing_file_is_empty_log() {
        let path = tmp("missing");
        let r = replay(&path.with_extension("nope")).unwrap();
        assert!(r.batches.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_commit(1, [(3, &page_img(1)[..])]).unwrap();
        wal.append_commit(2, [(4, &page_img(2)[..])]).unwrap();
        drop(wal);
        // Chop bytes off the end: the second batch loses its commit.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.torn_tail, "truncated tail must be flagged");
        assert_eq!(r.batches.len(), 1, "only the complete batch survives");
        assert_eq!(r.batches[0].0, 1);
    }

    #[test]
    fn corrupt_record_ends_replay() {
        let path = tmp("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_commit(1, [(3, &page_img(1)[..])]).unwrap();
        let first_batch = std::fs::metadata(&path).unwrap().len();
        wal.append_commit(2, [(4, &page_img(2)[..])]).unwrap();
        drop(wal);
        // Flip a byte inside the second batch's page image.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = first_batch as usize + 100;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.batches.len(), 1);
    }

    /// One framed page-image record over seeded bytes.
    fn framed(seed: u64) -> Vec<u8> {
        let mut state = seed;
        let img: Vec<u8> = (0..DISK_PAGE_SIZE)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        let mut out = Vec::new();
        frame_record(KIND_PAGE_IMAGE, 7, &[&9u32.to_le_bytes(), &img], &mut out);
        out
    }

    /// Every bit when built optimized; in the default test profile every
    /// bit of the header and every 61st after it (see the page's twin).
    #[test]
    fn every_bit_flip_of_a_record_is_rejected() {
        let good = framed(0x5eed_0300);
        let (kind, lsn, payload, next) = read_record(&good, 0).expect("a whole record");
        assert_eq!((kind, lsn, payload.len(), next), (KIND_PAGE_IMAGE, 7, 4 + DISK_PAGE_SIZE, good.len()));
        let stride = if cfg!(debug_assertions) { 61 } else { 1 };
        let header = 17 * 8;
        for bit in (0..header).chain((header..good.len() * 8).step_by(stride)) {
            let mut bytes = good.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(read_record(&bytes, 0).is_none(), "bit {bit} flipped and the record still reads");
        }
    }

    #[test]
    fn every_torn_write_of_a_record_is_rejected() {
        let new = framed(0x5eed_0400);
        let stale = framed(0x5eed_0500);
        for cut in (512..new.len()).step_by(512) {
            // The append stopped at a sector boundary: the log ends there,
            // or goes on with what an earlier, longer log left behind.
            assert!(read_record(&new[..cut], 0).is_none(), "cut at byte {cut}");
            let mut bytes = new[..cut].to_vec();
            bytes.extend_from_slice(&stale[cut..]);
            assert!(read_record(&bytes, 0).is_none(), "torn at byte {cut}");
        }
    }

    #[test]
    fn truncate_resets_log() {
        let path = tmp("truncate");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_commit(1, [(3, &page_img(1)[..])]).unwrap();
        assert!(wal.size() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.size(), 0);
        let r = replay(&path).unwrap();
        assert!(r.batches.is_empty());
        assert!(!r.torn_tail);
    }

    #[test]
    fn injected_fsync_failure_keeps_synced_prefix() {
        let _g = crate::fault::tests::lock();
        crate::fault::disarm();
        let path = tmp("fsync-fault");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_commit(1, [(3, &page_img(1)[..])]).unwrap();
        crate::fault::arm(crate::fault::FaultPlan::new(5).fail(SITE_WAL_FSYNC, 0, 1));
        let err = wal
            .append_commit(2, [(4, &page_img(2)[..])])
            .unwrap_err();
        crate::fault::disarm();
        assert!(err.is_injected(), "{err}");
        let r = replay(&path).unwrap();
        assert_eq!(r.batches.len(), 1, "unsynced batch gone");
        // The log is still usable afterwards.
        wal.append_commit(3, [(5, &page_img(3)[..])]).unwrap();
        assert_eq!(replay(&path).unwrap().batches.len(), 2);
    }
}
