//! Paged heap: one chain of slotted [`PageType::Heap`] pages per table.
//!
//! Rows are [`codec`](crate::codec)-encoded tuples appended to the last
//! page of the chain; a full chain grows by one page at a time. A row's
//! identity is its *rowid* — `(page, slot)` packed by
//! [`codec::encode_rowid`](crate::codec::encode_rowid) — which stays stable
//! for the row's whole life: deletes tombstone the slot rather than shift
//! neighbours, and updates rewrite in place when the new image fits,
//! falling back to tombstone-and-move (returning the new location so the
//! caller can repoint its primary-key tree).

use crate::error::StorageError;
use crate::io::IoStats;
use crate::pager::page::{Page, PageType};
use crate::pager::Pager;

/// A row's physical address.
pub type RowLoc = (u32, u16);

fn expect_heap(page: &Page) -> Result<(), StorageError> {
    match page.page_type()? {
        PageType::Heap => Ok(()),
        t => Err(StorageError::Corrupt {
            detail: format!("expected heap page, found {t:?}"),
        }),
    }
}

/// Creates an empty one-page chain; returns its (first, last) page.
pub fn create(p: &mut Pager) -> Result<(u32, u32), StorageError> {
    let no = p.allocate_page()?;
    let page = p.blank(PageType::Heap);
    p.write_page(no, page)?;
    Ok((no, no))
}

/// Appends a row to the chain ending at `last`. Returns the row's location
/// and the possibly-new last page.
pub fn insert(p: &mut Pager, last: u32, row: &[u8]) -> Result<(RowLoc, u32), StorageError> {
    expect_heap(p.read_page(last, &mut IoStats::new())?)?;
    if let Some(slot) = p.page_mut(last)?.add_cell(row) {
        return Ok(((last, slot as u16), last));
    }
    let fresh = p.allocate_page()?;
    let mut fresh_page = p.blank(PageType::Heap);
    let slot = fresh_page.add_cell(row).ok_or_else(|| {
        StorageError::Io(format!("row of {} bytes exceeds page capacity", row.len()))
    })?;
    p.write_page(fresh, fresh_page)?;
    p.page_mut(last)?.set_next_page(fresh);
    Ok(((fresh, slot as u16), fresh))
}

/// Tombstones a row. The slot number is never reused, so every other
/// rowid in the page stays valid.
pub fn delete(p: &mut Pager, loc: RowLoc) -> Result<(), StorageError> {
    expect_heap(p.read_page(loc.0, &mut IoStats::new())?)?;
    p.page_mut(loc.0)?.tombstone(loc.1 as usize);
    Ok(())
}

/// Rewrites a row. In place when the new image fits in its page; otherwise
/// tombstones the old slot and appends to the chain end. Returns the row's
/// (possibly moved) location and the possibly-new last page.
pub fn update(
    p: &mut Pager,
    loc: RowLoc,
    last: u32,
    row: &[u8],
) -> Result<(RowLoc, u32), StorageError> {
    expect_heap(p.read_page(loc.0, &mut IoStats::new())?)?;
    let page = p.page_mut(loc.0)?;
    if page.replace_cell(loc.1 as usize, row) {
        return Ok((loc, last));
    }
    page.tombstone(loc.1 as usize);
    insert(p, last, row)
}

/// Reads a single row by location, where it lies in its page.
pub fn get<'a>(p: &'a mut Pager, loc: RowLoc, io: &mut IoStats) -> Result<&'a [u8], StorageError> {
    let page = p.read_page(loc.0, io)?;
    expect_heap(page)?;
    let slot = loc.1 as usize;
    if slot >= page.nslots() || page.is_tombstone(slot) {
        return Err(StorageError::Corrupt {
            detail: format!("rowid ({}, {}) points at a dead slot", loc.0, loc.1),
        });
    }
    Ok(page.cell(slot))
}

/// Walks the whole chain in physical order, visiting every live row.
/// Charges `io` one page per chain link. Returns the number of rows seen.
pub fn scan<F: FnMut(RowLoc, &[u8])>(
    p: &mut Pager,
    first: u32,
    io: &mut IoStats,
    mut visit: F,
) -> Result<u64, StorageError> {
    let mut no = first;
    let mut rows = 0u64;
    while no != 0 {
        let page = p.read_page(no, io)?;
        expect_heap(page)?;
        for slot in 0..page.nslots() {
            if !page.is_tombstone(slot) {
                visit((no, slot as u16), page.cell(slot));
                rows += 1;
            }
        }
        no = page.next_page();
    }
    Ok(rows)
}

/// Frees every page of the chain (DROP TABLE).
pub fn free(p: &mut Pager, first: u32) -> Result<(), StorageError> {
    let mut io = IoStats::new();
    let mut no = first;
    while no != 0 {
        let next = p.read_page(no, &mut io)?.next_page();
        p.free_page(no)?;
        no = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::page::DISK_PAGE_SIZE;
    use crate::pager::PagerOptions;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aim-heap-test-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pager(name: &str) -> Pager {
        Pager::open(&tmp(name), PagerOptions::default()).unwrap()
    }

    #[test]
    fn insert_get_scan_roundtrip() {
        let mut p = pager("roundtrip");
        let (first, mut last) = create(&mut p).unwrap();
        let mut locs = Vec::new();
        for i in 0..100u32 {
            let row = format!("row-{i}").into_bytes();
            let (loc, new_last) = insert(&mut p, last, &row).unwrap();
            last = new_last;
            locs.push((loc, row));
        }
        p.commit().unwrap();
        let mut io = IoStats::new();
        for (loc, row) in &locs {
            assert_eq!(&get(&mut p, *loc, &mut io).unwrap(), row);
        }
        let mut seen = Vec::new();
        scan(&mut p, first, &mut io, |loc, bytes| {
            seen.push((loc, bytes.to_vec()))
        })
        .unwrap();
        assert_eq!(seen, locs);
    }

    #[test]
    fn chain_grows_and_scan_charges_pages() {
        let mut p = pager("grow");
        let (first, mut last) = create(&mut p).unwrap();
        let row = vec![7u8; 1000];
        for _ in 0..100 {
            last = insert(&mut p, last, &row).unwrap().1;
        }
        p.commit().unwrap();
        assert_ne!(first, last, "100 KB of rows needs several 16 KB pages");
        let mut io = IoStats::new();
        let n = scan(&mut p, first, &mut io, |_, _| {}).unwrap();
        assert_eq!(n, 100);
        assert!(
            io.pages_read >= 7,
            "chain length charged: {}",
            io.pages_read
        );
    }

    #[test]
    fn delete_tombstones_without_shifting_rowids() {
        let mut p = pager("delete");
        let (first, mut last) = create(&mut p).unwrap();
        let mut locs = Vec::new();
        for i in 0..10u8 {
            let (loc, l) = insert(&mut p, last, &[i; 16]).unwrap();
            last = l;
            locs.push(loc);
        }
        delete(&mut p, locs[4]).unwrap();
        p.commit().unwrap();
        let mut io = IoStats::new();
        assert!(get(&mut p, locs[4], &mut io).is_err(), "dead slot");
        assert_eq!(get(&mut p, locs[5], &mut io).unwrap(), vec![5u8; 16]);
        let n = scan(&mut p, first, &mut io, |_, _| {}).unwrap();
        assert_eq!(n, 9);
    }

    #[test]
    fn update_in_place_and_moved() {
        let mut p = pager("update");
        let (_, mut last) = create(&mut p).unwrap();
        let (loc, l) = insert(&mut p, last, &[1u8; 64]).unwrap();
        last = l;
        // Same-size rewrite stays put.
        let (loc2, l) = update(&mut p, loc, last, &[2u8; 64]).unwrap();
        last = l;
        assert_eq!(loc2, loc);
        // Fill the page so a grown rewrite must move.
        while {
            let mut io = IoStats::new();
            let page = p.read_page(loc.0, &mut io).unwrap();
            page.fits(4000, false)
        } {
            last = insert(&mut p, last, &[9u8; 3000]).unwrap().1;
        }
        let (loc3, _) = update(&mut p, loc, last, &vec![3u8; 8000]).unwrap();
        assert_ne!(loc3, loc, "grown row must move off the full page");
        p.commit().unwrap();
        let mut io = IoStats::new();
        assert!(get(&mut p, loc, &mut io).is_err(), "old slot tombstoned");
        assert_eq!(get(&mut p, loc3, &mut io).unwrap(), vec![3u8; 8000]);
    }

    #[test]
    fn oversized_row_rejected() {
        let mut p = pager("oversize");
        let (_, last) = create(&mut p).unwrap();
        let err = insert(&mut p, last, &vec![0u8; DISK_PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
    }

    #[test]
    fn free_releases_chain() {
        let mut p = pager("free");
        let (first, mut last) = create(&mut p).unwrap();
        for _ in 0..50 {
            last = insert(&mut p, last, &[5u8; 2000]).unwrap().1;
        }
        p.commit().unwrap();
        let before = p.meta().page_count;
        free(&mut p, first).unwrap();
        p.commit().unwrap();
        // A fresh chain of the same size reuses the freed pages.
        let (_, mut last2) = create(&mut p).unwrap();
        for _ in 0..50 {
            last2 = insert(&mut p, last2, &[6u8; 2000]).unwrap().1;
        }
        p.commit().unwrap();
        assert_eq!(p.meta().page_count, before);
    }
}
