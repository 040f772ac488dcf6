//! Slotted pages: the fixed-size unit of disk layout.
//!
//! Every page is [`DISK_PAGE_SIZE`] bytes. A 32-byte header is followed by a
//! slot directory growing downward (4 bytes per slot: cell offset + length)
//! while cell payloads grow upward from the page end. The first four header
//! bytes hold an FNV-1a checksum over the rest of the page, written when a
//! page is *sealed* before hitting the WAL or the database file and
//! verified on every read — a torn write is detected as a checksum
//! mismatch, never silently served.
//!
//! Layout of the header:
//!
//! ```text
//! [0..4)   checksum (fnv1a-32 of bytes 4..)
//! [4]      page type
//! [5]      flags (reserved)
//! [6..8)   slot count
//! [8..10)  cell area start (lowest cell byte)
//! [10..12) fragmented (tombstoned) bytes, reclaimable by compaction
//! [12..20) lsn of the last transaction that wrote the page
//! [20..24) next page in chain (heap chain / leaf chain / freelist)
//! [24..28) aux (B+-tree internal nodes: rightmost child)
//! [28..32) reserved
//! ```

use crate::error::StorageError;

/// On-disk page size. Deliberately equal to the simulated
/// [`crate::io::PAGE_SIZE`] so estimated and measured page counts share
/// units.
pub const DISK_PAGE_SIZE: usize = 16 * 1024;
/// Bytes of fixed header at the start of every page.
pub const PAGE_HEADER: usize = 32;
/// Bytes per slot directory entry.
pub const SLOT_SIZE: usize = 4;

/// What a page stores; byte 4 of the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// On the freelist, content meaningless.
    Free = 0,
    /// Page 0: file metadata.
    Meta = 1,
    /// Table heap page: cells are encoded rows, slots are stable row ids.
    Heap = 2,
    /// B+-tree leaf: cells are (key, value) pairs in slot order.
    Leaf = 3,
    /// B+-tree internal node: cells are (separator key, child) pairs.
    Internal = 4,
    /// Catalog blob chunk.
    Catalog = 5,
}

impl PageType {
    fn from_u8(b: u8) -> Result<Self, StorageError> {
        Ok(match b {
            0 => PageType::Free,
            1 => PageType::Meta,
            2 => PageType::Heap,
            3 => PageType::Leaf,
            4 => PageType::Internal,
            5 => PageType::Catalog,
            t => {
                return Err(StorageError::Corrupt {
                    detail: format!("unknown page type {t}"),
                })
            }
        })
    }
}

/// FNV-1a over a byte slice; the page and WAL checksum.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One slotted page, held in memory as its full byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    pub data: Vec<u8>,
}

fn rd16(d: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([d[at], d[at + 1]])
}

fn wr16(d: &mut [u8], at: usize, v: u16) {
    d[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn rd32(d: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(d[at..at + 4].try_into().unwrap())
}

fn wr32(d: &mut [u8], at: usize, v: u32) {
    d[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

impl Page {
    /// A fresh, empty page of the given type.
    pub fn new(ty: PageType) -> Self {
        let mut data = vec![0u8; DISK_PAGE_SIZE];
        data[4] = ty as u8;
        wr16(&mut data, 8, DISK_PAGE_SIZE as u16);
        Self { data }
    }

    /// Wraps a page image read from disk, verifying its checksum.
    pub fn from_bytes(data: Vec<u8>, page_no: u32) -> Result<Self, StorageError> {
        if data.len() != DISK_PAGE_SIZE {
            return Err(StorageError::Corrupt {
                detail: format!("page {page_no}: short read of {} bytes", data.len()),
            });
        }
        let stored = rd32(&data, 0);
        let actual = checksum32(&data[4..]);
        if stored != actual {
            return Err(StorageError::Corrupt {
                detail: format!(
                    "page {page_no}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x}) — torn write"
                ),
            });
        }
        PageType::from_u8(data[4])?;
        Ok(Self { data })
    }

    /// Recomputes and stores the checksum. Must be called before the image
    /// is written to the WAL or the database file.
    pub fn seal(&mut self) {
        let sum = checksum32(&self.data[4..]);
        wr32(&mut self.data, 0, sum);
    }

    pub fn page_type(&self) -> Result<PageType, StorageError> {
        PageType::from_u8(self.data[4])
    }

    pub fn nslots(&self) -> usize {
        rd16(&self.data, 6) as usize
    }

    fn cell_start(&self) -> usize {
        rd16(&self.data, 8) as usize
    }

    fn frag(&self) -> usize {
        rd16(&self.data, 10) as usize
    }

    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.data[12..20].try_into().unwrap())
    }

    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[12..20].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Next page in this page's chain (0 = end of chain; page 0 is always
    /// the meta page, so 0 is unambiguous as a sentinel).
    pub fn next_page(&self) -> u32 {
        rd32(&self.data, 20)
    }

    pub fn set_next_page(&mut self, no: u32) {
        wr32(&mut self.data, 20, no);
    }

    /// Auxiliary pointer: the rightmost child of a B+-tree internal node.
    pub fn aux(&self) -> u32 {
        rd32(&self.data, 24)
    }

    pub fn set_aux(&mut self, no: u32) {
        wr32(&mut self.data, 24, no);
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let at = PAGE_HEADER + i * SLOT_SIZE;
        (rd16(&self.data, at) as usize, rd16(&self.data, at + 2) as usize)
    }

    fn set_slot(&mut self, i: usize, offset: usize, len: usize) {
        let at = PAGE_HEADER + i * SLOT_SIZE;
        wr16(&mut self.data, at, offset as u16);
        wr16(&mut self.data, at + 2, len as u16);
    }

    /// True if slot `i` holds no cell (tombstoned heap slot).
    pub fn is_tombstone(&self, i: usize) -> bool {
        self.slot(i).0 == 0
    }

    /// The cell at slot `i` (empty slice for tombstones).
    pub fn cell(&self, i: usize) -> &[u8] {
        let (off, len) = self.slot(i);
        if off == 0 {
            &[]
        } else {
            &self.data[off..off + len]
        }
    }

    /// Contiguous free bytes between the slot directory and the cell area.
    pub fn contiguous_free(&self) -> usize {
        self.cell_start() - (PAGE_HEADER + self.nslots() * SLOT_SIZE)
    }

    /// Total reclaimable free bytes (contiguous + fragmented).
    pub fn free_space(&self) -> usize {
        self.contiguous_free() + self.frag()
    }

    /// True if a cell of `len` bytes fits, reusing `reuse_slot` if given
    /// (otherwise a new slot directory entry is also needed).
    pub fn fits(&self, len: usize, reuse_slot: bool) -> bool {
        let need = len + if reuse_slot { 0 } else { SLOT_SIZE };
        self.free_space() >= need
    }

    /// Rewrites the cell area tightly packed, preserving slot numbering.
    pub fn compact(&mut self) {
        let n = self.nslots();
        let cells: Vec<(usize, Vec<u8>)> = (0..n)
            .filter(|&i| !self.is_tombstone(i))
            .map(|i| (i, self.cell(i).to_vec()))
            .collect();
        let mut top = DISK_PAGE_SIZE;
        for (i, bytes) in cells {
            top -= bytes.len();
            self.data[top..top + bytes.len()].copy_from_slice(&bytes);
            self.set_slot(i, top, bytes.len());
        }
        wr16(&mut self.data, 8, top as u16);
        wr16(&mut self.data, 10, 0);
    }

    fn place_cell(&mut self, bytes: &[u8]) -> usize {
        let top = self.cell_start() - bytes.len();
        self.data[top..top + bytes.len()].copy_from_slice(bytes);
        wr16(&mut self.data, 8, top as u16);
        top
    }

    /// Appends a cell into a fresh slot at the end of the directory,
    /// preferring to reuse a tombstoned slot (heap pages: row ids are slot
    /// numbers and must stay stable). Returns the slot index, or `None` if
    /// the cell does not fit.
    pub fn add_cell(&mut self, bytes: &[u8]) -> Option<usize> {
        let reuse = (0..self.nslots()).find(|&i| self.is_tombstone(i));
        if !self.fits(bytes.len(), reuse.is_some()) {
            return None;
        }
        let need = bytes.len() + if reuse.is_some() { 0 } else { SLOT_SIZE };
        if self.contiguous_free() < need {
            self.compact();
        }
        let off = self.place_cell(bytes);
        let i = match reuse {
            Some(i) => i,
            None => {
                let i = self.nslots();
                wr16(&mut self.data, 6, (i + 1) as u16);
                i
            }
        };
        self.set_slot(i, off, bytes.len());
        Some(i)
    }

    /// Tombstones slot `i`, keeping the directory entry (stable row ids).
    pub fn tombstone(&mut self, i: usize) {
        let (off, len) = self.slot(i);
        if off != 0 {
            let frag = self.frag() + len;
            wr16(&mut self.data, 10, frag as u16);
            self.set_slot(i, 0, 0);
        }
    }

    /// Replaces the cell in slot `i`. Returns false (page unchanged) if the
    /// new bytes do not fit.
    pub fn replace_cell(&mut self, i: usize, bytes: &[u8]) -> bool {
        let (off, len) = self.slot(i);
        if off != 0 && bytes.len() <= len {
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            let frag = self.frag() + (len - bytes.len());
            wr16(&mut self.data, 10, frag as u16);
            self.set_slot(i, off, bytes.len());
            return true;
        }
        // Tombstone first so its bytes count as reclaimable.
        let old = (off, len);
        self.tombstone(i);
        if !self.fits(bytes.len(), true) {
            // Roll the tombstone back.
            let frag = self.frag() - old.1;
            wr16(&mut self.data, 10, frag as u16);
            self.set_slot(i, old.0, old.1);
            return false;
        }
        if self.contiguous_free() < bytes.len() {
            self.compact();
        }
        let at = self.place_cell(bytes);
        self.set_slot(i, at, bytes.len());
        true
    }

    /// Replaces the entire slot directory and cell area with `cells`, in
    /// order. Used by the B+-tree, which rewrites nodes wholesale. Panics
    /// if the cells cannot fit (callers must check [`cells_fit`]).
    pub fn set_cells(&mut self, cells: &[Vec<u8>]) {
        assert!(cells_fit(cells), "cells overflow page");
        wr16(&mut self.data, 6, cells.len() as u16);
        wr16(&mut self.data, 10, 0);
        let mut top = DISK_PAGE_SIZE;
        // Clear the old cell area so identical logical content produces an
        // identical byte image (bit-identical recovery assertions).
        for b in &mut self.data[PAGE_HEADER..] {
            *b = 0;
        }
        for (i, bytes) in cells.iter().enumerate() {
            top -= bytes.len();
            self.data[top..top + bytes.len()].copy_from_slice(bytes);
            self.set_slot(i, top, bytes.len());
        }
        wr16(&mut self.data, 8, top as u16);
    }

    /// All non-tombstoned cells in slot order.
    pub fn cells(&self) -> Vec<Vec<u8>> {
        (0..self.nslots())
            .filter(|&i| !self.is_tombstone(i))
            .map(|i| self.cell(i).to_vec())
            .collect()
    }

    /// Bytes used by live cells plus their slots.
    pub fn used_bytes(&self) -> usize {
        (0..self.nslots())
            .filter(|&i| !self.is_tombstone(i))
            .map(|i| self.slot(i).1 + SLOT_SIZE)
            .sum()
    }
}

/// True if `cells` fit in a single (empty) page.
pub fn cells_fit(cells: &[Vec<u8>]) -> bool {
    let bytes: usize = cells.iter().map(|c| c.len() + SLOT_SIZE).sum();
    bytes <= DISK_PAGE_SIZE - PAGE_HEADER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_page_is_empty() {
        let p = Page::new(PageType::Heap);
        assert_eq!(p.page_type().unwrap(), PageType::Heap);
        assert_eq!(p.nslots(), 0);
        assert_eq!(p.free_space(), DISK_PAGE_SIZE - PAGE_HEADER);
    }

    #[test]
    fn add_and_read_cells() {
        let mut p = Page::new(PageType::Heap);
        let a = p.add_cell(b"alpha").unwrap();
        let b = p.add_cell(b"bravo!").unwrap();
        assert_eq!(p.cell(a), b"alpha");
        assert_eq!(p.cell(b), b"bravo!");
        assert_eq!(p.nslots(), 2);
    }

    #[test]
    fn tombstone_reuses_slot_and_space() {
        let mut p = Page::new(PageType::Heap);
        let a = p.add_cell(b"first").unwrap();
        let _b = p.add_cell(b"second").unwrap();
        p.tombstone(a);
        assert!(p.is_tombstone(a));
        assert_eq!(p.cell(a), b"");
        let c = p.add_cell(b"third").unwrap();
        assert_eq!(c, a, "tombstoned slot is reused");
        assert_eq!(p.cell(c), b"third");
    }

    #[test]
    fn page_fills_then_rejects() {
        let mut p = Page::new(PageType::Heap);
        let cell = vec![7u8; 1000];
        let mut n = 0;
        while p.add_cell(&cell).is_some() {
            n += 1;
        }
        assert!(n >= 15, "16 KiB page should hold >= 15 KB of cells, got {n}");
        assert!(p.add_cell(&cell).is_none());
        // Small cells still fit in the remainder.
        assert!(p.add_cell(&[1, 2, 3]).is_some());
    }

    #[test]
    fn compaction_reclaims_fragmentation() {
        let mut p = Page::new(PageType::Heap);
        let big = vec![1u8; 3000];
        let mut slots = Vec::new();
        while let Some(s) = p.add_cell(&big) {
            slots.push(s);
        }
        // Free every other cell, then insert a cell larger than any
        // contiguous hole.
        for &s in slots.iter().step_by(2) {
            p.tombstone(s);
        }
        let huge = vec![2u8; 4000];
        let got = p.add_cell(&huge).expect("fits after compaction");
        assert_eq!(p.cell(got), huge.as_slice());
        // Survivors are intact.
        for &s in slots.iter().skip(1).step_by(2) {
            assert_eq!(p.cell(s), big.as_slice());
        }
    }

    #[test]
    fn replace_cell_grow_and_shrink() {
        let mut p = Page::new(PageType::Heap);
        let s = p.add_cell(b"mid-size-cell").unwrap();
        assert!(p.replace_cell(s, b"tiny"));
        assert_eq!(p.cell(s), b"tiny");
        assert!(p.replace_cell(s, b"much larger replacement cell"));
        assert_eq!(p.cell(s), b"much larger replacement cell");
        let too_big = vec![0u8; DISK_PAGE_SIZE];
        assert!(!p.replace_cell(s, &too_big));
        assert_eq!(p.cell(s), b"much larger replacement cell", "failed replace leaves cell");
    }

    #[test]
    fn seal_then_verify_roundtrip() {
        let mut p = Page::new(PageType::Leaf);
        p.add_cell(b"payload").unwrap();
        p.set_lsn(42);
        p.set_next_page(7);
        p.seal();
        let q = Page::from_bytes(p.data.clone(), 3).unwrap();
        assert_eq!(q.lsn(), 42);
        assert_eq!(q.next_page(), 7);
        assert_eq!(q.cell(0), b"payload");
    }

    #[test]
    fn torn_write_detected_by_checksum() {
        let mut p = Page::new(PageType::Leaf);
        p.add_cell(b"payload").unwrap();
        p.seal();
        let mut bytes = p.data.clone();
        // Simulate a torn write: second half of the page is stale zeros.
        for b in &mut bytes[DISK_PAGE_SIZE / 2..] {
            *b = 0;
        }
        match Page::from_bytes(bytes, 9) {
            Err(StorageError::Corrupt { detail }) => {
                assert!(detail.contains("page 9"), "{detail}");
                assert!(detail.contains("torn"), "{detail}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn set_cells_is_deterministic() {
        let cells = vec![b"aa".to_vec(), b"bbb".to_vec(), b"c".to_vec()];
        let mut p = Page::new(PageType::Leaf);
        p.add_cell(b"garbage-from-before").unwrap();
        p.set_cells(&cells);
        let mut q = Page::new(PageType::Leaf);
        q.set_cells(&cells);
        p.seal();
        q.seal();
        assert_eq!(p.data, q.data, "same cells, same bytes regardless of history");
        assert_eq!(p.cells(), cells);
    }
}
