//! Slotted pages: the fixed-size unit of disk layout.
//!
//! Every page is [`DISK_PAGE_SIZE`] bytes. A 32-byte header is followed by a
//! slot directory growing downward (4 bytes per slot: cell offset + length)
//! while cell payloads grow upward from the page end. The first four header
//! bytes hold a checksum over the rest of the page ([`checksum32`]), written
//! when a page is *sealed* before hitting the WAL or the database file and
//! verified on every read — a torn write is detected as a checksum
//! mismatch, never silently served.
//!
//! A page is edited in place: a cell is added, replaced or removed by
//! moving slot-directory entries and writing that one cell; removed cells
//! leave *fragmented* bytes behind that [`Page::compact`] reclaims when an
//! insert needs them. The image is therefore a function of the page's
//! history of edits, not of its logical content alone — identical
//! histories give identical bytes, which is what recovery asserts.
//!
//! Layout of the header:
//!
//! ```text
//! [0..4)   checksum (checksum32 of bytes 4..)
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

const LANE_PRIME: u32 = 0x0100_0193;

/// Independent lanes of [`checksum32`]: lane `k` takes the `k`-th
/// little-endian word of every step. Eight lanes have no dependency on
/// one another, so their multiplies overlap where one chain waits.
const LANES: usize = 8;
/// Bytes one step of [`checksum32`] consumes: a word per lane.
const STEP: usize = 4 * LANES;

/// Distinct lane seeds, the FNV offset basis plus multiples of the
/// golden ratio.
const SEEDS: [u32; LANES] = {
    let mut seeds = [0; LANES];
    let mut k = 0;
    while k < LANES {
        seeds[k] = 0x811c_9dc5_u32.wrapping_add((k as u32).wrapping_mul(0x9e37_79b9));
        k += 1;
    }
    seeds
};

/// One checksum step of one lane. For a fixed `word` it is a bijection of
/// the lane, and for a fixed lane a bijection of `word`: two inputs that
/// differ in one word leave the lane different whatever follows.
fn lane_step(lane: u32, word: u32) -> u32 {
    (lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(13)
}

/// Feeds one [`STEP`]-byte step to the lanes, a word each.
#[inline(always)]
fn absorb(lanes: &mut [u32; LANES], step: &[u8; STEP]) {
    for (k, lane) in lanes.iter_mut().enumerate() {
        let word = [
            step[4 * k],
            step[4 * k + 1],
            step[4 * k + 2],
            step[4 * k + 3],
        ];
        *lane = lane_step(*lane, u32::from_le_bytes(word));
    }
}

/// The lanes of [`checksum32`] before they are folded into one sum.
fn lanes(bytes: &[u8]) -> [u32; LANES] {
    let mut lanes = SEEDS;
    let mut steps = bytes.chunks_exact(STEP);
    for step in &mut steps {
        absorb(&mut lanes, step.try_into().expect("a whole step"));
    }
    let mut tail = [0u8; STEP];
    let rest = steps.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    absorb(&mut lanes, &tail);
    lanes[0] = lane_step(lanes[0], bytes.len() as u32);
    lanes
}

/// The page and WAL checksum: 32 bytes a step, as eight independent
/// 32-bit FNV-1a style lanes, lane `k` over the `k`-th little-endian word
/// of each step (the layout of PostgreSQL's page checksum, with fewer
/// lanes). A tail shorter than a step is zero-padded, the length closes
/// lane 0, and the sum is the XOR of lane `k` rotated left by `4k`. Each
/// lane multiplies by the FNV prime and rotates, so a flipped high bit
/// reaches the low bits on the next step. Any change confined to one
/// four-byte word — every single-bit flip among them — changes exactly
/// one lane and therefore the sum; anything wider is caught with the odds
/// of any 32-bit sum.
pub fn checksum32(bytes: &[u8]) -> u32 {
    lanes(bytes)
        .iter()
        .enumerate()
        .fold(0, |sum, (k, lane)| sum ^ lane.rotate_left(4 * k as u32))
}

/// One slotted page, held in memory as its full byte image. The buffer
/// pool's frames are `Page`s; readers borrow them, writers edit them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Box<[u8; DISK_PAGE_SIZE]>,
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
        let data = vec![0u8; DISK_PAGE_SIZE]
            .into_boxed_slice()
            .try_into()
            .expect("a page-sized vector");
        let mut page = Self { data };
        page.set_empty(ty);
        page
    }

    /// The header of an empty page, over zeros.
    fn set_empty(&mut self, ty: PageType) {
        self.data[4] = ty as u8;
        wr16(&mut *self.data, 8, DISK_PAGE_SIZE as u16);
    }

    /// Makes this buffer the fresh, empty page [`Page::new`] returns —
    /// every byte, so that what a recycled buffer held before never
    /// reaches the file.
    pub fn reset(&mut self, ty: PageType) {
        self.data.fill(0);
        self.set_empty(ty);
    }

    /// Makes this buffer a copy of `other`.
    pub(crate) fn copy_from(&mut self, other: &Page) {
        self.data.copy_from_slice(&other.data[..]);
    }

    /// Wraps a page image read from disk, verifying its checksum.
    pub fn from_bytes(data: Vec<u8>, page_no: u32) -> Result<Self, StorageError> {
        let len = data.len();
        let data = data
            .into_boxed_slice()
            .try_into()
            .map_err(|_| StorageError::Corrupt {
                detail: format!("page {page_no}: short read of {len} bytes"),
            })?;
        let page = Self { data };
        page.verify(page_no)?;
        Ok(page)
    }

    /// Checks the stored checksum and the page type of an image that was
    /// read into this buffer through [`Page::bytes_mut`].
    pub(crate) fn verify(&self, page_no: u32) -> Result<(), StorageError> {
        let stored = rd32(&*self.data, 0);
        let actual = checksum32(&self.data[4..]);
        if stored != actual {
            return Err(StorageError::Corrupt {
                detail: format!(
                    "page {page_no}: checksum mismatch (stored {stored:#010x}, computed {actual:#010x}) — torn write"
                ),
            });
        }
        PageType::from_u8(self.data[4])?;
        Ok(())
    }

    /// Recomputes and stores the checksum. Must be called before the image
    /// is written to the WAL or the database file.
    pub fn seal(&mut self) {
        let sum = checksum32(&self.data[4..]);
        wr32(&mut *self.data, 0, sum);
    }

    /// The full image.
    pub fn bytes(&self) -> &[u8] {
        &self.data[..]
    }

    /// The full image, to read a file page into; the caller then calls
    /// [`Page::verify`].
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data[..]
    }

    pub fn page_type(&self) -> Result<PageType, StorageError> {
        PageType::from_u8(self.data[4])
    }

    pub fn nslots(&self) -> usize {
        rd16(&*self.data, 6) as usize
    }

    fn cell_start(&self) -> usize {
        rd16(&*self.data, 8) as usize
    }

    fn frag(&self) -> usize {
        rd16(&*self.data, 10) as usize
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
        rd32(&*self.data, 20)
    }

    pub fn set_next_page(&mut self, no: u32) {
        wr32(&mut *self.data, 20, no);
    }

    /// Auxiliary pointer: the rightmost child of a B+-tree internal node.
    pub fn aux(&self) -> u32 {
        rd32(&*self.data, 24)
    }

    pub fn set_aux(&mut self, no: u32) {
        wr32(&mut *self.data, 24, no);
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let at = PAGE_HEADER + i * SLOT_SIZE;
        (
            rd16(&*self.data, at) as usize,
            rd16(&*self.data, at + 2) as usize,
        )
    }

    fn set_slot(&mut self, i: usize, offset: usize, len: usize) {
        let at = PAGE_HEADER + i * SLOT_SIZE;
        wr16(&mut *self.data, at, offset as u16);
        wr16(&mut *self.data, at + 2, len as u16);
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

    /// The cell at slot `i`, to patch bytes of it where it lies.
    pub fn cell_mut(&mut self, i: usize) -> &mut [u8] {
        let (off, len) = self.slot(i);
        &mut self.data[off..off + len]
    }

    /// Contiguous free bytes between the slot directory and the cell area.
    fn contiguous_free(&self) -> usize {
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

    /// Bytes of live cells, without their slots.
    pub fn payload_bytes(&self) -> usize {
        DISK_PAGE_SIZE - self.cell_start() - self.frag()
    }

    /// Rewrites the cell area tightly packed, preserving slot numbering.
    pub fn compact(&mut self) {
        let old: [u8; DISK_PAGE_SIZE] = *self.data;
        let mut top = DISK_PAGE_SIZE;
        for i in 0..self.nslots() {
            let (off, len) = self.slot(i);
            if off != 0 {
                top -= len;
                self.data[top..top + len].copy_from_slice(&old[off..off + len]);
                self.set_slot(i, top, len);
            }
        }
        wr16(&mut *self.data, 8, top as u16);
        wr16(&mut *self.data, 10, 0);
    }

    /// Copies `bytes` below the cell area, compacting first when the room
    /// is there but fragmented. The caller has checked [`Page::fits`] and
    /// counted the slot entry it is about to add into `need`.
    fn place_cell(&mut self, bytes: &[u8], need: usize) -> usize {
        if self.contiguous_free() < need {
            self.compact();
        }
        let top = self.cell_start() - bytes.len();
        self.data[top..top + bytes.len()].copy_from_slice(bytes);
        wr16(&mut *self.data, 8, top as u16);
        top
    }

    fn set_nslots(&mut self, n: usize) {
        wr16(&mut *self.data, 6, n as u16);
    }

    fn add_frag(&mut self, bytes: usize) {
        let frag = self.frag() + bytes;
        wr16(&mut *self.data, 10, frag as u16);
    }

    /// Adds a cell, preferring to reuse a tombstoned slot and otherwise
    /// appending one to the directory (heap pages: row ids are slot
    /// numbers and must stay stable). Returns the slot index, or `None` if
    /// the cell does not fit.
    pub fn add_cell(&mut self, bytes: &[u8]) -> Option<usize> {
        let reuse = (0..self.nslots()).find(|&i| self.is_tombstone(i));
        if !self.fits(bytes.len(), reuse.is_some()) {
            return None;
        }
        let need = bytes.len() + if reuse.is_some() { 0 } else { SLOT_SIZE };
        let off = self.place_cell(bytes, need);
        let i = match reuse {
            Some(i) => i,
            None => {
                let i = self.nslots();
                self.set_nslots(i + 1);
                i
            }
        };
        self.set_slot(i, off, bytes.len());
        Some(i)
    }

    /// Inserts a cell at slot `i`, moving the slots from `i` on up by one
    /// (B+-tree nodes: slot order is key order). Returns false (page
    /// unchanged) if the cell does not fit.
    pub fn insert_cell(&mut self, i: usize, bytes: &[u8]) -> bool {
        if !self.fits(bytes.len(), false) {
            return false;
        }
        let off = self.place_cell(bytes, bytes.len() + SLOT_SIZE);
        let n = self.nslots();
        let at = PAGE_HEADER + i * SLOT_SIZE;
        self.data
            .copy_within(at..PAGE_HEADER + n * SLOT_SIZE, at + SLOT_SIZE);
        self.set_nslots(n + 1);
        self.set_slot(i, off, bytes.len());
        true
    }

    /// Removes slot `i`, moving the slots above it down by one; the cell's
    /// bytes become fragmented space.
    pub fn remove_cell(&mut self, i: usize) {
        let (_, len) = self.slot(i);
        self.add_frag(len);
        let n = self.nslots();
        let at = PAGE_HEADER + i * SLOT_SIZE;
        self.data
            .copy_within(at + SLOT_SIZE..PAGE_HEADER + n * SLOT_SIZE, at);
        self.set_nslots(n - 1);
    }

    /// Drops every slot from `n` on (the upper half of a node that
    /// splits), then packs what stays.
    pub fn truncate_cells(&mut self, n: usize) {
        self.set_nslots(n);
        self.compact();
    }

    /// Tombstones slot `i`, keeping the directory entry (stable row ids).
    pub fn tombstone(&mut self, i: usize) {
        let (off, len) = self.slot(i);
        if off != 0 {
            self.add_frag(len);
            self.set_slot(i, 0, 0);
        }
    }

    /// Replaces the cell in slot `i`. Returns false (page unchanged) if the
    /// new bytes do not fit.
    pub fn replace_cell(&mut self, i: usize, bytes: &[u8]) -> bool {
        let (off, len) = self.slot(i);
        if off != 0 && bytes.len() <= len {
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            self.add_frag(len - bytes.len());
            self.set_slot(i, off, bytes.len());
            return true;
        }
        // Tombstone first so its bytes count as reclaimable.
        let old = (off, len);
        self.tombstone(i);
        if !self.fits(bytes.len(), true) {
            // Roll the tombstone back.
            let frag = self.frag() - old.1;
            wr16(&mut *self.data, 10, frag as u16);
            self.set_slot(i, old.0, old.1);
            return false;
        }
        let at = self.place_cell(bytes, bytes.len());
        self.set_slot(i, at, bytes.len());
        true
    }
}

/// The largest cell an empty page takes.
pub const MAX_CELL: usize = DISK_PAGE_SIZE - PAGE_HEADER - SLOT_SIZE;

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
        assert!(
            n >= 15,
            "16 KiB page should hold >= 15 KB of cells, got {n}"
        );
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
        assert_eq!(
            p.cell(s),
            b"much larger replacement cell",
            "failed replace leaves cell"
        );
    }

    #[test]
    fn seal_then_verify_roundtrip() {
        let mut p = Page::new(PageType::Leaf);
        p.add_cell(b"payload").unwrap();
        p.set_lsn(42);
        p.set_next_page(7);
        p.seal();
        let q = Page::from_bytes(p.bytes().to_vec(), 3).unwrap();
        assert_eq!(q.lsn(), 42);
        assert_eq!(q.next_page(), 7);
        assert_eq!(q.cell(0), b"payload");
    }

    #[test]
    fn torn_write_detected_by_checksum() {
        let mut p = Page::new(PageType::Leaf);
        p.add_cell(b"payload").unwrap();
        p.seal();
        let mut bytes = p.bytes().to_vec();
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
    fn ordered_cells_shift_the_directory_only() {
        let mut p = Page::new(PageType::Leaf);
        assert!(p.insert_cell(0, b"delta"));
        assert!(p.insert_cell(0, b"alpha"));
        assert!(p.insert_cell(1, b"charlie"));
        assert!(p.insert_cell(1, b"bravo"));
        assert!(p.insert_cell(4, b"echo"));
        let cells = |p: &Page| {
            (0..p.nslots())
                .map(|i| p.cell(i).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            cells(&p),
            [&b"alpha"[..], b"bravo", b"charlie", b"delta", b"echo"]
        );
        assert_eq!(p.payload_bytes(), 26);
        p.cell_mut(2)[0] = b'C';
        p.remove_cell(1);
        p.remove_cell(0);
        assert_eq!(cells(&p), [&b"Charlie"[..], b"delta", b"echo"]);
        assert_eq!(p.payload_bytes(), 16, "removed cells are fragmented space");
        assert_eq!(
            p.free_space(),
            DISK_PAGE_SIZE - PAGE_HEADER - 16 - 3 * SLOT_SIZE
        );
        p.truncate_cells(1);
        assert_eq!(cells(&p), [&b"Charlie"[..]]);
        assert_eq!(p.free_space(), DISK_PAGE_SIZE - PAGE_HEADER - 7 - SLOT_SIZE);
        // A full page refuses and stays as it was.
        let big = vec![7u8; MAX_CELL - 7 - SLOT_SIZE];
        assert!(p.insert_cell(1, &big));
        assert!(!p.insert_cell(0, b"x"));
        assert_eq!(p.nslots(), 2);
        assert_eq!(p.cell(1), big.as_slice());
    }

    #[test]
    fn fragmented_room_is_found_by_compaction() {
        let mut p = Page::new(PageType::Leaf);
        let cell = vec![3u8; 1000];
        while p.insert_cell(p.nslots(), &cell) {}
        let n = p.nslots();
        for _ in 0..n / 2 {
            p.remove_cell(0);
        }
        let wide = vec![4u8; 5000];
        assert!(p.insert_cell(0, &wide), "the room is there, in pieces");
        assert_eq!(p.cell(0), wide.as_slice());
        assert!((1..p.nslots()).all(|i| p.cell(i) == cell.as_slice()));
    }

    #[test]
    fn same_edits_same_bytes_and_a_reset_buffer_is_fresh() {
        let edit = |p: &mut Page| {
            p.insert_cell(0, b"bbb");
            p.insert_cell(0, b"aa");
            p.remove_cell(1);
            p.insert_cell(1, b"c");
            p.seal();
        };
        let mut p = Page::new(PageType::Leaf);
        edit(&mut p);
        // A buffer that held something else, recycled.
        let mut q = Page::new(PageType::Heap);
        q.add_cell(b"garbage-from-before").unwrap();
        q.set_next_page(9);
        q.reset(PageType::Leaf);
        assert_eq!(q, Page::new(PageType::Leaf));
        edit(&mut q);
        assert_eq!(p, q, "same edits, same bytes, whatever the buffer held");
    }

    /// xorshift64, seeded.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A sealed page of type `ty` with seeded content over most of it.
    fn sealed(ty: PageType, seed: u64) -> Page {
        let mut rand = rng(seed);
        let mut p = Page::new(ty);
        if ty != PageType::Free {
            loop {
                let cell: Vec<u8> = (0..40 + rand() % 400).map(|_| rand() as u8).collect();
                if p.free_space() < 600 || p.add_cell(&cell).is_none() {
                    break;
                }
            }
        }
        p.set_lsn(rand());
        p.set_next_page(rand() as u32);
        p.set_aux(rand() as u32);
        p.seal();
        p
    }

    const ALL_TYPES: [PageType; 6] = [
        PageType::Free,
        PageType::Meta,
        PageType::Heap,
        PageType::Leaf,
        PageType::Internal,
        PageType::Catalog,
    ];

    /// Exhaustive — all 131 072 bits of each page — when built optimized
    /// (`cargo test --release`). The default test profile sums a page some
    /// twenty times slower, so there it flips every bit of the header and
    /// every 61st bit after a seeded start: each bit of a byte and each
    /// byte of a word come up, in every part of the page.
    #[test]
    fn every_bit_flip_of_a_sealed_page_is_rejected() {
        let stride = if cfg!(debug_assertions) { 61 } else { 1 };
        for (i, ty) in ALL_TYPES.into_iter().enumerate() {
            let good = sealed(ty, 0x5eed_0001 + i as u64);
            assert!(Page::from_bytes(good.bytes().to_vec(), 1).is_ok());
            let header = 0..PAGE_HEADER * 8;
            let rest = (PAGE_HEADER * 8 + i % stride..DISK_PAGE_SIZE * 8).step_by(stride);
            for bit in header.chain(rest) {
                let mut bytes = good.bytes().to_vec();
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    Page::from_bytes(bytes, 1).is_err(),
                    "{ty:?}: bit {bit} flipped and the page still verifies"
                );
            }
        }
    }

    #[test]
    fn every_torn_write_of_a_sealed_page_is_rejected() {
        for (i, ty) in ALL_TYPES.into_iter().enumerate() {
            // The page before and after a rewrite; the write stops at a
            // sector boundary, or only its tail arrives.
            let old = sealed(ty, 0x5eed_0100 + i as u64);
            let new = sealed(ty, 0x5eed_0200 + i as u64);
            for cut in (512..DISK_PAGE_SIZE).step_by(512) {
                for (head, tail) in [(&new, &old), (&old, &new)] {
                    let mut bytes = head.bytes()[..cut].to_vec();
                    bytes.extend_from_slice(&tail.bytes()[cut..]);
                    // A free page is zeros below its header: a write torn
                    // there has written all there was to write.
                    if bytes == head.bytes() || bytes == tail.bytes() {
                        assert_eq!(ty, PageType::Free);
                        continue;
                    }
                    assert!(
                        Page::from_bytes(bytes, 1).is_err(),
                        "{ty:?}: torn at byte {cut} and the page still verifies"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_sees_length_tail_and_order() {
        let bytes: Vec<u8> = (0..=40u8).collect();
        let sum = checksum32(&bytes);
        assert_ne!(sum, checksum32(&bytes[..40]), "a shorter input");
        let mut padded = bytes.clone();
        padded.push(0);
        assert_ne!(sum, checksum32(&padded), "zero padding is not free");
        let mut swapped = bytes.clone();
        swapped.swap(3, 11);
        assert_ne!(
            sum,
            checksum32(&swapped),
            "two bytes exchanged across words"
        );
        // Bytes 3 and 35 are the top bytes of lane 0's words in the first
        // step and in the tail; bytes 3 and 11 are in lanes 0 and 2.
        for (at, what) in [
            (35, "the same high bit in two words of a lane"),
            (11, "the same high bit in two lanes"),
        ] {
            let mut high = bytes.clone();
            high[3] ^= 0x80;
            high[at] ^= 0x80;
            assert_ne!(sum, checksum32(&high), "{what}");
        }
        assert_eq!(sum, checksum32(&bytes));
    }

    /// The proof obligation of [`checksum32`], lane by lane: a bit flipped
    /// anywhere in three whole steps and a part-filled tail changes the
    /// lane that takes its word and no other.
    #[test]
    fn a_flipped_bit_changes_exactly_its_lane() {
        let bytes: Vec<u8> = (0..3 * STEP as u32 + 13).map(|i| (i * 37) as u8).collect();
        let good = lanes(&bytes);
        assert!(
            (1..LANES).all(|k| !SEEDS[..k].contains(&SEEDS[k])),
            "the seeds are distinct"
        );
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let lanes = lanes(&flipped);
            let changed: Vec<usize> = (0..LANES).filter(|&k| lanes[k] != good[k]).collect();
            assert_eq!(changed, [bit / 32 % LANES], "bit {bit}");
            assert_ne!(checksum32(&flipped), checksum32(&bytes), "bit {bit}");
        }
    }
}
