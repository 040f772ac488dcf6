//! Fixed-capacity buffer pool with clock (second-chance) eviction.
//!
//! The pool holds the page frames between the pager and the database file
//! and lends them out: a reader gets `&Page`, a writer `&mut Page`, and
//! nothing is copied on either path. It accounts every hit, miss and
//! eviction — the counters surface through `aim-telemetry` as
//! `storage.bp.*`. Eviction policy is *no-steal until committed*: a frame
//! dirtied by the in-flight transaction can never be chosen as a victim
//! (its image exists nowhere durable yet), so the pool temporarily grows
//! past capacity if a transaction's working set exceeds it. A victim is
//! handed to the pager with its buffer: a committed dirty one is written to
//! the database file first — safe at any time, because the WAL already
//! holds its committed image and redo is idempotent — and the buffer is
//! then reused for the next page faulted in.

use super::page::Page;
use std::collections::HashMap;

#[derive(Debug)]
struct Frame {
    page_no: u32,
    page: Page,
    /// Modified since last flushed to the database file.
    dirty: bool,
    /// Written by the in-flight transaction: not evictable.
    uncommitted: bool,
    /// Clock reference bit (second chance).
    referenced: bool,
}

/// Hit/miss/eviction counts since the pool was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

/// A frame the clock chose: the caller writes `page` to the database file
/// if `dirty`, then owns the buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Evicted {
    pub page_no: u32,
    pub page: Page,
    pub dirty: bool,
}

/// The buffer pool.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Option<Frame>>,
    free_slots: Vec<usize>,
    map: HashMap<u32, usize>,
    hand: usize,
    counters: PoolCounters,
}

impl BufferPool {
    /// A pool holding at most `capacity` frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            frames: Vec::new(),
            free_slots: Vec::new(),
            map: HashMap::new(),
            hand: 0,
            counters: PoolCounters::default(),
        }
    }

    pub fn counters(&self) -> PoolCounters {
        self.counters
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn frame(&self, page_no: u32) -> Option<&Frame> {
        let idx = *self.map.get(&page_no)?;
        Some(self.frames[idx].as_ref().expect("mapped frame"))
    }

    fn frame_mut(&mut self, page_no: u32) -> Option<&mut Frame> {
        let idx = *self.map.get(&page_no)?;
        Some(self.frames[idx].as_mut().expect("mapped frame"))
    }

    /// Looks a page up, counting a hit or a miss.
    pub fn get(&mut self, page_no: u32) -> Option<&Page> {
        match self.map.get(&page_no) {
            Some(&idx) => {
                self.counters.hits += 1;
                let f = self.frames[idx].as_mut().expect("mapped frame");
                f.referenced = true;
                Some(&f.page)
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Looks a page up without touching the counters or the clock (pager
    /// internals: transaction bookkeeping, not query traffic).
    pub fn peek(&self, page_no: u32) -> Option<&Page> {
        self.frame(page_no).map(|f| &f.page)
    }

    /// True if the frame is resident and dirty.
    pub fn is_dirty(&self, page_no: u32) -> bool {
        self.frame(page_no).is_some_and(|f| f.dirty)
    }

    /// True if the frame is resident and written by the open transaction.
    pub fn is_uncommitted(&self, page_no: u32) -> bool {
        self.frame(page_no).is_some_and(|f| f.uncommitted)
    }

    /// Lends a resident frame to the open transaction for editing: from
    /// here to commit or rollback it is dirty and cannot be evicted.
    pub fn stage(&mut self, page_no: u32) -> Option<&mut Page> {
        let f = self.frame_mut(page_no)?;
        f.dirty = true;
        f.uncommitted = true;
        f.referenced = true;
        Some(&mut f.page)
    }

    /// The transaction that wrote this frame committed: its image is now
    /// redo-protected by the WAL and the frame evictable.
    pub fn committed(&mut self, page_no: u32) {
        if let Some(f) = self.frame_mut(page_no) {
            f.uncommitted = false;
        }
    }

    /// Installs a frame with exactly this state, growing the pool if
    /// needed — never evicts (staging, rollback restoration and
    /// failed-write-back reinstatement must not trigger an eviction; a
    /// fault-in calls [`BufferPool::make_room`] first). Returns the buffer
    /// of the frame it replaced.
    pub fn install(
        &mut self,
        page_no: u32,
        page: Page,
        dirty: bool,
        uncommitted: bool,
    ) -> Option<Page> {
        if let Some(f) = self.frame_mut(page_no) {
            f.dirty = dirty;
            f.uncommitted = uncommitted;
            f.referenced = true;
            return Some(std::mem::replace(&mut f.page, page));
        }
        let frame = Frame {
            page_no,
            page,
            dirty,
            uncommitted,
            referenced: true,
        };
        let idx = match self.free_slots.pop() {
            Some(i) => {
                self.frames[i] = Some(frame);
                i
            }
            None => {
                self.frames.push(Some(frame));
                self.frames.len() - 1
            }
        };
        self.map.insert(page_no, idx);
        None
    }

    /// Evicts one frame if the pool has no room for another.
    pub fn make_room(&mut self) -> Option<Evicted> {
        self.evict_above(self.capacity - 1)
    }

    /// Evicts one frame if the pool is over capacity — called in a loop
    /// after commit, when a transaction whose working set exceeded the pool
    /// has just made its frames evictable.
    pub fn shed_excess(&mut self) -> Option<Evicted> {
        self.evict_above(self.capacity)
    }

    /// No victim means every frame belongs to the in-flight transaction:
    /// the pool grows past capacity rather than steal an unlogged page.
    fn evict_above(&mut self, len: usize) -> Option<Evicted> {
        if self.map.len() <= len {
            return None;
        }
        let victim = self.pick_victim()?;
        let f = self.frames[victim].take().expect("victim frame");
        self.map.remove(&f.page_no);
        self.free_slots.push(victim);
        self.counters.evictions += 1;
        Some(Evicted {
            page_no: f.page_no,
            page: f.page,
            dirty: f.dirty,
        })
    }

    /// Clock sweep: skip uncommitted frames, give referenced frames a
    /// second chance, evict the first quiescent frame found.
    fn pick_victim(&mut self) -> Option<usize> {
        if self.frames.is_empty() {
            return None;
        }
        let n = self.frames.len();
        // Two full sweeps: the first clears reference bits, the second is
        // guaranteed to find any evictable frame.
        for _ in 0..2 * n {
            let idx = self.hand;
            self.hand = (self.hand + 1) % n;
            let Some(f) = self.frames[idx].as_mut() else {
                continue;
            };
            if f.uncommitted {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            return Some(idx);
        }
        None
    }

    /// Drops a page from the pool (rollback of a page the transaction
    /// brought in); returns its buffer.
    pub fn remove(&mut self, page_no: u32) -> Option<Page> {
        let idx = self.map.remove(&page_no)?;
        self.free_slots.push(idx);
        self.frames[idx].take().map(|f| f.page)
    }

    /// The dirty committed pages, ascending: what a checkpoint writes to
    /// the database file, each straight from its frame, before it calls
    /// [`BufferPool::mark_clean`] on them.
    pub fn dirty_committed(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .frames
            .iter()
            .flatten()
            .filter(|f| f.dirty && !f.uncommitted)
            .map(|f| f.page_no)
            .collect();
        out.sort_unstable();
        out
    }

    /// The frame's image is in the database file.
    pub fn mark_clean(&mut self, page_no: u32) {
        if let Some(f) = self.frame_mut(page_no) {
            f.dirty = false;
        }
    }

    /// Drops every frame without writing anything back — the crash half of
    /// kill-and-reopen tests.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.free_slots.clear();
        self.map.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::page::PageType;

    fn img(b: u8) -> Page {
        let mut p = Page::new(PageType::Heap);
        p.add_cell(&[b; 8]).unwrap();
        p
    }

    #[test]
    fn hit_miss_accounting() {
        let mut bp = BufferPool::new(4);
        assert!(bp.get(1).is_none());
        bp.install(1, img(1), false, false);
        assert_eq!(bp.get(1).unwrap(), &img(1));
        let c = bp.counters();
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn eviction_at_capacity_prefers_unreferenced() {
        let mut bp = BufferPool::new(2);
        bp.install(1, img(1), false, false);
        bp.install(2, img(2), false, false);
        // Touch page 1 so its reference bit survives the first sweep.
        bp.get(1);
        assert!(bp.make_room().is_some());
        bp.install(3, img(3), false, false);
        assert_eq!(bp.len(), 2);
        assert_eq!(bp.counters().evictions, 1);
        assert!(bp.peek(3).is_some());
    }

    #[test]
    fn dirty_committed_eviction_returns_writeback() {
        let mut bp = BufferPool::new(1);
        bp.install(1, img(1), true, false);
        let ev = bp.make_room().unwrap();
        assert_eq!(
            ev,
            Evicted {
                page_no: 1,
                page: img(1),
                dirty: true
            }
        );
        assert!(bp.make_room().is_none(), "an empty pool has room");
    }

    #[test]
    fn uncommitted_frames_are_not_stolen() {
        let mut bp = BufferPool::new(2);
        bp.install(1, img(1), true, true);
        bp.install(2, img(2), false, false);
        assert!(bp.stage(2).is_some());
        assert!(bp.is_uncommitted(2) && bp.is_dirty(2));
        assert!(bp.make_room().is_none());
        bp.install(3, img(3), true, true);
        assert_eq!(bp.len(), 3, "pool grows rather than steal uncommitted");
        assert_eq!(bp.counters().evictions, 0);
        for no in 1..=3 {
            bp.committed(no);
        }
        assert!(bp.shed_excess().is_some());
        assert!(bp.shed_excess().is_none(), "back at capacity");
        assert_eq!(bp.counters().evictions, 1, "evictable after commit");
    }

    #[test]
    fn install_over_a_resident_frame_returns_its_buffer() {
        let mut bp = BufferPool::new(2);
        bp.install(1, img(1), true, true);
        assert_eq!(bp.install(1, img(9), false, false), Some(img(1)));
        assert!(!bp.is_dirty(1) && !bp.is_uncommitted(1));
        assert_eq!(bp.remove(1), Some(img(9)));
        assert!(bp.is_empty());
    }

    #[test]
    fn checkpoint_set_is_dirty_committed_ascending() {
        let mut bp = BufferPool::new(4);
        bp.install(7, img(7), true, false);
        bp.install(2, img(2), false, false);
        bp.install(3, img(3), true, true);
        bp.install(1, img(1), true, false);
        assert_eq!(bp.dirty_committed(), vec![1, 7]);
        bp.mark_clean(1);
        assert_eq!(bp.dirty_committed(), vec![7]);
    }

    #[test]
    fn clear_drops_everything() {
        let mut bp = BufferPool::new(4);
        bp.install(1, img(1), true, false);
        bp.clear();
        assert!(bp.is_empty());
        assert!(bp.peek(1).is_none());
    }
}
