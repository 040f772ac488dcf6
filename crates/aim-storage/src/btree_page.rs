//! Paged B+-tree over the [`Pager`].
//!
//! Keys are [`codec`]-encoded [`Key`] tuples; because the encoding is not
//! order-preserving, every comparison goes through
//! [`codec::compare_keys`], which walks the encoded key against the probe
//! in the engine's total [`Value`] order — disk and memory collate
//! identically by construction, and a comparison builds nothing. Leaves
//! hold `(key, value)` cells in slot order and are chained left-to-right
//! for range scans; internal nodes hold `(separator, child)` cells where
//! `separator` bounds the keys reachable through `child` from above (it
//! *is* their maximum when the cell is written by a split or by
//! [`build`]; a later [`remove`] of that maximum leaves it standing as a
//! bound), plus a rightmost child in the page's aux pointer.
//!
//! Nodes are searched and edited where they lie, in the buffer pool's
//! frame: a lookup binary-searches `page.cell(i)`, an insert or remove
//! moves slot-directory entries and writes one cell. Splits divide a node
//! at half its payload bytes; a node that falls under a quarter page
//! merges with its right sibling when the combined payload fits. A tree
//! whose entries are known up front and sorted is built bottom-up by
//! [`build`] instead of insert by insert.

use crate::codec;
use crate::error::StorageError;
use crate::io::IoStats;
use crate::pager::page::{Page, PageType, DISK_PAGE_SIZE, MAX_CELL, PAGE_HEADER, SLOT_SIZE};
use crate::pager::Pager;
use crate::value::{Key, Value};
use std::cmp::Ordering;
use std::ops::Bound;

fn corrupt(detail: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        detail: detail.into(),
    }
}

// ------------------------------------------------------------------- cells

/// Makes `out` the leaf cell `(key, val)`.
fn leaf_cell(key: &[Value], val: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0; 2]); // the key's length, once it is encoded
    codec::encode_tuple_into(key, out);
    let klen = (out.len() - 2) as u16;
    out[..2].copy_from_slice(&klen.to_le_bytes());
    out.extend_from_slice(&(val.len() as u16).to_le_bytes());
    out.extend_from_slice(val);
}

fn parse_leaf_cell(cell: &[u8]) -> Result<(&[u8], &[u8]), StorageError> {
    if cell.len() < 2 {
        return Err(corrupt("leaf cell truncated"));
    }
    let klen = u16::from_le_bytes(cell[..2].try_into().unwrap()) as usize;
    if cell.len() < 2 + klen + 2 {
        return Err(corrupt("leaf cell key truncated"));
    }
    let key = &cell[2..2 + klen];
    let vlen = u16::from_le_bytes(cell[2 + klen..4 + klen].try_into().unwrap()) as usize;
    if cell.len() != 4 + klen + vlen {
        return Err(corrupt("leaf cell value truncated"));
    }
    Ok((key, &cell[4 + klen..]))
}

/// Makes `out` the internal cell `(key, child)`; `key` is already encoded.
fn internal_cell(key: &[u8], child: u32, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(key.len() as u16).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&child.to_le_bytes());
}

fn parse_internal_cell(cell: &[u8]) -> Result<(&[u8], u32), StorageError> {
    if cell.len() < 2 {
        return Err(corrupt("internal cell truncated"));
    }
    let klen = u16::from_le_bytes(cell[..2].try_into().unwrap()) as usize;
    if cell.len() != 2 + klen + 4 {
        return Err(corrupt("internal cell malformed"));
    }
    Ok((
        &cell[2..2 + klen],
        u32::from_le_bytes(cell[2 + klen..].try_into().unwrap()),
    ))
}

fn cell_key(cell: &[u8], leaf: bool) -> Result<&[u8], StorageError> {
    if leaf {
        parse_leaf_cell(cell).map(|(k, _)| k)
    } else {
        parse_internal_cell(cell).map(|(k, _)| k)
    }
}

// ------------------------------------------------------------------- nodes

/// Binary search over a node's cells: `Ok(i)` = exact match at `i`,
/// `Err(i)` = first cell whose key is greater than `target` (insertion
/// point).
fn search(page: &Page, target: &[Value], leaf: bool) -> Result<Result<usize, usize>, StorageError> {
    let mut lo = 0usize;
    let mut hi = page.nslots();
    while lo < hi {
        let mid = (lo + hi) / 2;
        match codec::compare_keys(cell_key(page.cell(mid), leaf)?, target)? {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(Ok(mid)),
        }
    }
    Ok(Err(lo))
}

fn is_leaf(page: &Page) -> Result<bool, StorageError> {
    match page.page_type()? {
        PageType::Leaf => Ok(true),
        PageType::Internal => Ok(false),
        t => Err(corrupt(format!("expected B+-tree page, found {t:?}"))),
    }
}

/// The child in slot `slot` of an internal node; the slot after the last
/// cell is the rightmost child.
fn child_at(page: &Page, slot: usize) -> Result<u32, StorageError> {
    if slot < page.nslots() {
        Ok(parse_internal_cell(page.cell(slot))?.1)
    } else {
        Ok(page.aux())
    }
}

/// Points slot `slot` of an internal node (see [`child_at`]) at `child`.
fn set_child(page: &mut Page, slot: usize, child: u32) {
    if slot < page.nslots() {
        let cell = page.cell_mut(slot);
        let at = cell.len() - 4;
        cell[at..].copy_from_slice(&child.to_le_bytes());
    } else {
        page.set_aux(child);
    }
}

/// The slot and child of an internal node that lead to `key`.
fn descend(page: &Page, key: &[Value]) -> Result<(usize, u32), StorageError> {
    let (Ok(slot) | Err(slot)) = search(page, key, false)?;
    Ok((slot, child_at(page, slot)?))
}

/// Bytes of a node's cells and their slots.
fn used(page: &Page) -> usize {
    page.payload_bytes() + page.nslots() * SLOT_SIZE
}

/// Under a quarter page of payload: merge candidate.
fn underfull(page: &Page) -> bool {
    page.payload_bytes() < DISK_PAGE_SIZE / 4
}

/// Where to split `n` cells of the given lengths: at roughly half the
/// payload bytes, both halves non-empty.
fn split_point(n: usize, len_of: impl Fn(usize) -> usize) -> usize {
    let total: usize = (0..n).map(&len_of).sum();
    let mut acc = 0usize;
    for i in 0..n {
        acc += len_of(i);
        if acc * 2 >= total {
            return (i + 1).min(n - 1).max(1);
        }
    }
    n / 2
}

fn must_fit(fits: bool) -> Result<(), StorageError> {
    if fits {
        Ok(())
    } else {
        Err(StorageError::Io(
            "B+-tree node does not fit a page after restructuring".into(),
        ))
    }
}

/// Refuses a leaf cell too large for a page — or whose key, which an
/// internal cell stores with two bytes more of framing, would be.
fn oversized(cell: &[u8]) -> Result<(), StorageError> {
    if cell.len() + 2 > MAX_CELL {
        return Err(StorageError::Io(format!(
            "record of {} bytes exceeds page capacity",
            cell.len()
        )));
    }
    Ok(())
}

// --------------------------------------------------------------- interface

/// Creates an empty tree; returns its root page.
pub fn create(p: &mut Pager) -> Result<u32, StorageError> {
    let no = p.allocate_page()?;
    let leaf = p.blank(PageType::Leaf);
    p.write_page(no, leaf)?;
    Ok(no)
}

enum Ins {
    Done,
    Split { sep: Vec<u8>, right: u32 },
}

/// Inserts (or replaces) `key → val`; returns the possibly-new root.
pub fn insert(p: &mut Pager, root: u32, key: &[Value], val: &[u8]) -> Result<u32, StorageError> {
    let mut cell = Vec::with_capacity(16 + key.len() * 9 + val.len());
    leaf_cell(key, val, &mut cell);
    oversized(&cell)?;
    #[cfg(debug_assertions)]
    let shape = p.meta();
    let root = match insert_rec(p, root, key, &cell)? {
        Ins::Done => root,
        Ins::Split { sep, right } => {
            let new_root = p.allocate_page()?;
            let mut page = p.blank(PageType::Internal);
            internal_cell(&sep, root, &mut cell);
            must_fit(page.insert_cell(0, &cell))?;
            page.set_aux(right);
            p.write_page(new_root, page)?;
            new_root
        }
    };
    // A page was allocated: a node split.
    #[cfg(debug_assertions)]
    {
        if p.meta() != shape {
            check(p, root, false)?;
        }
    }
    Ok(root)
}

fn insert_rec(p: &mut Pager, no: u32, key: &[Value], cell: &[u8]) -> Result<Ins, StorageError> {
    let page = p.read_page(no, &mut IoStats::new())?;
    if is_leaf(page)? {
        let found = search(page, key, true)?;
        let page = p.page_mut(no)?;
        let at = match found {
            Ok(i) => {
                if page.replace_cell(i, cell) {
                    return Ok(Ins::Done);
                }
                page.remove_cell(i);
                i
            }
            Err(i) => i,
        };
        if page.insert_cell(at, cell) {
            return Ok(Ins::Done);
        }
        return split_insert(p, no, true, at, cell);
    }

    let (slot, child) = descend(page, key)?;
    let Ins::Split { sep, right } = insert_rec(p, child, key, cell)? else {
        return Ok(Ins::Done);
    };
    // `child` kept the low half (keys <= sep) and gets a cell of its own;
    // what pointed at it — the cell now after that one, or aux — has the
    // rest of its old range, which is in `right`.
    let mut sep_cell = Vec::with_capacity(sep.len() + 6);
    internal_cell(&sep, child, &mut sep_cell);
    let page = p.page_mut(no)?;
    set_child(page, slot, right);
    if page.insert_cell(slot, &sep_cell) {
        return Ok(Ins::Done);
    }
    split_insert(p, no, false, slot, &sep_cell)
}

/// Splits the full node `no` around the insertion of `cell` at slot `at`:
/// the upper half of what the node would hold moves to a new right
/// sibling, cell by cell, and the lower half stays where it is.
fn split_insert(
    p: &mut Pager,
    no: u32,
    leaf: bool,
    at: usize,
    cell: &[u8],
) -> Result<Ins, StorageError> {
    let right_no = p.allocate_page()?;
    let mut right = p.blank(if leaf {
        PageType::Leaf
    } else {
        PageType::Internal
    });
    let left = p.page_mut(no)?;
    // The node with `cell` in: n + 1 cells, of which `cell` is the at-th
    // and the j-th other one is the left page's cell `held(j)`.
    let n = left.nslots();
    let held = |j: usize| j - usize::from(j > at);
    let cut = split_point(n + 1, |j| {
        if j == at {
            cell.len()
        } else {
            left.cell(held(j)).len()
        }
    });
    for j in cut..=n {
        let bytes = if j == at { cell } else { left.cell(held(j)) };
        must_fit(right.insert_cell(j - cut, bytes))?;
    }
    left.truncate_cells(cut - usize::from(at < cut));
    if at < cut {
        must_fit(left.insert_cell(at, cell))?;
    }
    let sep = cell_key(left.cell(cut - 1), leaf)?.to_vec();
    if leaf {
        right.set_next_page(left.next_page());
        left.set_next_page(right_no);
    } else {
        // The last cell of the lower half is promoted: its key goes up as
        // this node's separator, its child becomes this node's rightmost.
        let child = parse_internal_cell(left.cell(cut - 1))?.1;
        right.set_aux(left.aux());
        left.set_aux(child);
        left.remove_cell(cut - 1);
    }
    p.write_page(right_no, right)?;
    Ok(Ins::Split {
        sep,
        right: right_no,
    })
}

/// Removes `key`; returns `(possibly-new root, removed)`.
pub fn remove(p: &mut Pager, root: u32, key: &[Value]) -> Result<(u32, bool), StorageError> {
    #[cfg(debug_assertions)]
    let shape = p.meta();
    let (removed, _) = remove_rec(p, root, key)?;
    if !removed {
        return Ok((root, false));
    }
    // Root collapse: an internal root reduced to a single (aux) child.
    let page = p.read_page(root, &mut IoStats::new())?;
    let mut root = root;
    if !is_leaf(page)? && page.nslots() == 0 {
        let only_child = page.aux();
        p.free_page(root)?;
        root = only_child;
    }
    // A page was freed: two nodes merged, or the root collapsed.
    #[cfg(debug_assertions)]
    {
        if p.meta() != shape {
            check(p, root, false)?;
        }
    }
    Ok((root, true))
}

/// Returns `(removed, this node is now underfull)`.
fn remove_rec(p: &mut Pager, no: u32, key: &[Value]) -> Result<(bool, bool), StorageError> {
    let page = p.read_page(no, &mut IoStats::new())?;
    if is_leaf(page)? {
        let Ok(i) = search(page, key, true)? else {
            return Ok((false, false));
        };
        let page = p.page_mut(no)?;
        page.remove_cell(i);
        return Ok((true, underfull(page)));
    }

    let (slot, child) = descend(page, key)?;
    // Should `child` come back underfull, it merges with its right sibling
    // under this node (or, if it is the rightmost, its left sibling merges
    // into it): the two children around cell `j`. A node with a single
    // child (aux only) has nothing to merge it with and leaves that to its
    // own parent. All of it is read now, while the page is at hand.
    let n = page.nslots();
    let pair = match n {
        0 => None,
        _ => {
            let j = slot.min(n - 1);
            Some((j, child_at(page, j)?, child_at(page, j + 1)?))
        }
    };
    let was_underfull = underfull(page);
    let (removed, child_underflow) = remove_rec(p, child, key)?;
    if !removed || !child_underflow {
        return Ok((removed, false));
    }
    let Some((j, left_no, right_no)) = pair else {
        return Ok((true, true));
    };
    if !try_merge(p, no, j, left_no, right_no)? {
        return Ok((true, was_underfull));
    }
    // Cell `j` bounded `left_no`; what followed it — the next cell, or
    // aux — bounded `right_no` and now bounds the merged node.
    let page = p.page_mut(no)?;
    page.remove_cell(j);
    set_child(page, j, left_no);
    Ok((true, underfull(page)))
}

/// Merges `right_no` into `left_no` if the combined payload fits, and
/// frees `right_no`; cell `j` of `parent` separates the two (its key
/// rejoins two internal nodes). The merged node is assembled in a fresh
/// page — left's cells, then right's, each page borrowed in its turn — and
/// staged over the left one. Returns whether the merge happened.
fn try_merge(
    p: &mut Pager,
    parent: u32,
    j: usize,
    left_no: u32,
    right_no: u32,
) -> Result<bool, StorageError> {
    let mut io = IoStats::new();
    // Taken before `left` is borrowed; retyped once `left` is seen.
    let mut merged = p.blank(PageType::Leaf);
    let left = p.read_page(left_no, &mut io)?;
    let leaf = is_leaf(left)?;
    if !leaf {
        merged.reset(PageType::Internal);
    }
    for i in 0..left.nslots() {
        must_fit(merged.insert_cell(i, left.cell(i)))?;
    }
    let left_aux = left.aux();
    let mut fits = true;
    if !leaf {
        // The separator comes down between the halves, over left's
        // rightmost child. This node is rewritten if the merge happens.
        let sep_cell = p.page_mut(parent)?.cell(j);
        let at = merged.nslots();
        fits = merged.insert_cell(at, sep_cell);
        if fits {
            set_child(&mut merged, at, left_aux);
        }
    }
    let right = p.read_page(right_no, &mut io)?;
    if is_leaf(right)? != leaf {
        return Err(corrupt("sibling height mismatch"));
    }
    if !fits || merged.free_space() < used(right) {
        p.recycle(merged);
        return Ok(false);
    }
    for i in 0..right.nslots() {
        must_fit(merged.insert_cell(merged.nslots(), right.cell(i)))?;
    }
    merged.set_next_page(right.next_page());
    merged.set_aux(right.aux());
    p.write_page(left_no, merged)?;
    p.free_page(right_no)?;
    Ok(true)
}

/// Point lookup: `read` is handed the value where it lies in the leaf.
/// Charges one page per level touched (plus faults).
pub fn lookup<T>(
    p: &mut Pager,
    root: u32,
    key: &[Value],
    io: &mut IoStats,
    read: impl FnOnce(&[u8]) -> T,
) -> Result<Option<T>, StorageError> {
    let mut no = root;
    loop {
        let page = p.read_page(no, io)?;
        if is_leaf(page)? {
            return Ok(match search(page, key, true)? {
                Ok(i) => Some(read(parse_leaf_cell(page.cell(i))?.1)),
                Err(_) => None,
            });
        }
        no = descend(page, key)?.1;
    }
}

/// The first slot of a leaf that `lower` admits.
fn first_slot(page: &Page, lower: &Bound<&Key>) -> Result<usize, StorageError> {
    Ok(match lower {
        Bound::Included(k) => {
            let (Ok(i) | Err(i)) = search(page, k, true)?;
            i
        }
        Bound::Excluded(k) => match search(page, k, true)? {
            Ok(i) => i + 1,
            Err(i) => i,
        },
        Bound::Unbounded => 0,
    })
}

fn within_upper(key: &[u8], upper: &Bound<&Key>) -> Result<bool, StorageError> {
    Ok(match upper {
        Bound::Included(u) => codec::compare_keys(key, u)? != Ordering::Greater,
        Bound::Excluded(u) => codec::compare_keys(key, u)? == Ordering::Less,
        Bound::Unbounded => true,
    })
}

/// Ordered range scan: calls `visit(encoded key, value)` for every entry
/// within the bounds, where it lies, charging `io` one page per node
/// touched — each node once. Returns the number of entries visited.
pub fn range<F: FnMut(&[u8], &[u8])>(
    p: &mut Pager,
    root: u32,
    lower: Bound<&Key>,
    upper: Bound<&Key>,
    io: &mut IoStats,
    mut visit: F,
) -> Result<u64, StorageError> {
    let probe: Option<&Key> = match &lower {
        Bound::Included(k) | Bound::Excluded(k) => Some(k),
        Bound::Unbounded => None,
    };
    let mut no = root;
    // Down to the leaf that may hold the lower bound, then along the chain.
    let mut descending = true;
    let mut visited = 0u64;
    loop {
        let page = p.read_page(no, io)?;
        if !is_leaf(page)? {
            if !descending {
                return Err(corrupt("leaf chain reached an internal node"));
            }
            no = match probe {
                Some(k) => descend(page, k)?.1,
                None => child_at(page, 0)?,
            };
            continue;
        }
        let start = if descending {
            first_slot(page, &lower)?
        } else {
            0
        };
        descending = false;
        for i in start..page.nslots() {
            let (key, val) = parse_leaf_cell(page.cell(i))?;
            if !within_upper(key, &upper)? {
                return Ok(visited);
            }
            visit(key, val);
            visited += 1;
        }
        no = page.next_page();
        if no == 0 {
            return Ok(visited);
        }
    }
}

/// Frees every page of the tree (DROP INDEX).
pub fn free(p: &mut Pager, root: u32) -> Result<(), StorageError> {
    let page = p.read_page(root, &mut IoStats::new())?;
    if !is_leaf(page)? {
        let children = (0..=page.nslots())
            .map(|slot| child_at(page, slot))
            .collect::<Result<Vec<u32>, _>>()?;
        for child in children {
            free(p, child)?;
        }
    }
    p.free_page(root)
}

/// Height of the tree in levels (1 = a lone leaf).
pub fn height(p: &mut Pager, root: u32) -> Result<u32, StorageError> {
    let mut io = IoStats::new();
    let mut no = root;
    let mut h = 1;
    loop {
        let page = p.read_page(no, &mut io)?;
        if is_leaf(page)? {
            return Ok(h);
        }
        no = child_at(page, 0)?;
        h += 1;
    }
}

/// Total entries in the tree (consistency audits).
pub fn count(p: &mut Pager, root: u32) -> Result<u64, StorageError> {
    let mut io = IoStats::new();
    range(
        p,
        root,
        Bound::Unbounded,
        Bound::Unbounded,
        &mut io,
        |_, _| {},
    )
}

// -------------------------------------------------------------- bulk build

/// How full [`build`] packs a node before starting the next: half, which
/// is what a run of ascending inserts leaves behind every split, so a
/// built index and one grown insert by insert take the same pages and a
/// scan of either touches as many. Like those, it has room for the inserts
/// that follow.
const BUILD_FILL: usize = (DISK_PAGE_SIZE - PAGE_HEADER) / 2;

/// Stages the finished node `page` as page `no`, notes it with the largest
/// key under it for the level above, and starts the next node.
fn stage_node(
    p: &mut Pager,
    no: u32,
    page: &mut Page,
    largest: Vec<u8>,
    done: &mut Vec<(Vec<u8>, u32)>,
) -> Result<(), StorageError> {
    done.push((largest, no));
    let next = p.blank(page.page_type()?);
    p.write_page(no, std::mem::replace(page, next))
}

/// The last key of a leaf being built (empty for the leaf of an empty
/// tree, which no level above will ask for).
fn last_key(leaf: &Page) -> Result<Vec<u8>, StorageError> {
    match leaf.nslots() {
        0 => Ok(Vec::new()),
        n => Ok(cell_key(leaf.cell(n - 1), true)?.to_vec()),
    }
}

/// Builds a tree bottom-up from entries in strictly ascending key order:
/// leaves packed left to right to [`BUILD_FILL`] and chained, then each
/// internal level over the one below, every page filled in a buffer of its
/// own and staged once. Returns the root. Nothing is read, and a failure
/// leaves only pages of the caller's open transaction behind.
pub fn build<'a>(
    p: &mut Pager,
    entries: impl Iterator<Item = (&'a [Value], &'a [u8])>,
) -> Result<u32, StorageError> {
    let mut cell = Vec::new();
    // The finished nodes of the level being built: largest key, page.
    let mut level: Vec<(Vec<u8>, u32)> = Vec::new();
    let mut no = p.allocate_page()?;
    let mut page = p.blank(PageType::Leaf);
    let mut prev: Option<&[Value]> = None;
    for (key, val) in entries {
        if prev.is_some_and(|prev| prev >= key) {
            return Err(StorageError::Io(
                "bulk build: keys are not in strictly ascending order".into(),
            ));
        }
        prev = Some(key);
        leaf_cell(key, val, &mut cell);
        oversized(&cell)?;
        if used(&page) > BUILD_FILL || !page.fits(cell.len(), false) {
            let next = p.allocate_page()?;
            page.set_next_page(next);
            let largest = last_key(&page)?;
            stage_node(p, no, &mut page, largest, &mut level)?;
            no = next;
        }
        must_fit(page.insert_cell(page.nslots(), &cell))?;
    }
    let largest = last_key(&page)?;
    stage_node(p, no, &mut page, largest, &mut level)?;
    p.recycle(page);

    // A node's last child hangs off aux; its key goes up instead of in.
    while level.len() > 1 {
        let mut above = Vec::new();
        let mut page = p.blank(PageType::Internal);
        let children = level.len();
        for (i, (key, child)) in level.into_iter().enumerate() {
            let left = children - i;
            internal_cell(&key, child, &mut cell);
            // Close at the fill mark, unless that would leave the next
            // node a lone child.
            let full = page.nslots() > 0 && used(&page) > BUILD_FILL && left > 2;
            if left > 1 && !full && page.insert_cell(page.nslots(), &cell) {
                continue;
            }
            page.set_aux(child);
            let no = p.allocate_page()?;
            stage_node(p, no, &mut page, key, &mut above)?;
        }
        p.recycle(page);
        level = above;
    }
    let root = level[0].1;
    #[cfg(debug_assertions)]
    check(p, root, true)?;
    Ok(root)
}

// ------------------------------------------------------------------- audit

#[cfg(debug_assertions)]
fn keys_ascend(a: &[u8], b: &[u8]) -> Result<bool, StorageError> {
    Ok(codec::compare_keys(a, &codec::decode_tuple(b)?)? == Ordering::Less)
}

/// Audits the tree under `root`: keys strictly ascending within every
/// node and across the leaves, every subtree inside the separators that
/// bound it (`tight`: each separator *equal* to its child's largest key,
/// which holds until a remove), and the leaf chain running through every
/// leaf once, in key order. Called after every split, merge and bulk
/// build in builds with debug assertions — the test profile — through
/// [`Pager::audit_page`], which leaves the pool and its counters alone.
#[cfg(debug_assertions)]
pub fn check(p: &mut Pager, root: u32, tight: bool) -> Result<(), StorageError> {
    let mut chain = Vec::new();
    check_node(p, root, None, None, tight, &mut chain)?;
    for (i, &(no, next)) in chain.iter().enumerate() {
        let follows = chain.get(i + 1).map_or(0, |&(no, _)| no);
        if next != follows {
            return Err(corrupt(format!(
                "leaf {no} chains to page {next}, the next leaf in key order is {follows}"
            )));
        }
    }
    Ok(())
}

/// Audits the subtree under `no`, whose keys lie in `(above, upto]`;
/// appends its leaves to `chain` as `(page, next page)` and returns its
/// largest key.
#[cfg(debug_assertions)]
fn check_node(
    p: &mut Pager,
    no: u32,
    above: Option<&[u8]>,
    upto: Option<&[u8]>,
    tight: bool,
    chain: &mut Vec<(u32, u32)>,
) -> Result<Option<Vec<u8>>, StorageError> {
    let page = p.audit_page(no)?;
    let leaf = is_leaf(&page)?;
    let (mut prev, mut last) = (above, None);
    for i in 0..page.nslots() {
        let key = cell_key(page.cell(i), leaf)?;
        if let Some(prev) = prev {
            if !keys_ascend(prev, key)? {
                return Err(corrupt(format!("page {no}: key {i} does not ascend")));
            }
        }
        prev = Some(key);
        last = Some(key);
    }
    if let (Some(last), Some(upto)) = (last, upto) {
        if keys_ascend(upto, last)? {
            return Err(corrupt(format!("page {no}: a key above its separator")));
        }
    }
    if leaf {
        chain.push((no, page.next_page()));
        return Ok(last.map(<[u8]>::to_vec));
    }
    let mut above = above;
    for i in 0..page.nslots() {
        let (sep, child) = parse_internal_cell(page.cell(i))?;
        let largest = check_node(p, child, above, Some(sep), tight, chain)?;
        if tight {
            let is_largest = match &largest {
                Some(key) => !keys_ascend(key, sep)?,
                None => false,
            };
            if !is_largest {
                return Err(corrupt(format!(
                    "page {no}: separator {i} is not its child's largest key"
                )));
            }
        }
        above = Some(sep);
    }
    check_node(p, page.aux(), above, upto, tight, chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PagerOptions;
    use crate::value::Value;
    use std::collections::BTreeMap;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "aim-btree-test-{}-{}-{name}",
            std::process::id(),
            N.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pager(name: &str) -> Pager {
        Pager::open(&tmp(name), PagerOptions::default()).unwrap()
    }

    fn k(i: i64) -> Key {
        vec![Value::Int(i), Value::Str(format!("key-{i:06}"))]
    }

    fn collect_all(p: &mut Pager, root: u32) -> Vec<(Key, Vec<u8>)> {
        let mut out = Vec::new();
        let mut io = IoStats::new();
        range(
            p,
            root,
            Bound::Unbounded,
            Bound::Unbounded,
            &mut io,
            |k, v| out.push((codec::decode_tuple(k).unwrap(), v.to_vec())),
        )
        .unwrap();
        out
    }

    fn get(p: &mut Pager, root: u32, key: &Key) -> Option<Vec<u8>> {
        lookup(p, root, key, &mut IoStats::new(), <[u8]>::to_vec).unwrap()
    }

    #[test]
    fn insert_lookup_small() {
        let mut p = pager("small");
        let mut root = create(&mut p).unwrap();
        for i in [5, 1, 9, 3, 7] {
            root = insert(&mut p, root, &k(i), &i.to_le_bytes()).unwrap();
        }
        p.commit().unwrap();
        for i in [1, 3, 5, 7, 9] {
            assert_eq!(get(&mut p, root, &k(i)).unwrap(), i.to_le_bytes());
        }
        assert!(get(&mut p, root, &k(2)).is_none());
        let all = collect_all(&mut p, root);
        assert_eq!(all.len(), 5);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted order");
    }

    #[test]
    fn replace_existing_key() {
        let mut p = pager("replace");
        let mut root = create(&mut p).unwrap();
        root = insert(&mut p, root, &k(1), b"old").unwrap();
        root = insert(&mut p, root, &k(1), b"new").unwrap();
        p.commit().unwrap();
        assert_eq!(get(&mut p, root, &k(1)).unwrap(), b"new");
        assert_eq!(count(&mut p, root).unwrap(), 1);
    }

    #[test]
    fn grows_past_one_page_and_stays_sorted() {
        let mut p = pager("grow");
        let mut root = create(&mut p).unwrap();
        let n = 3000i64;
        // Insert in a scrambled deterministic order.
        let mut order: Vec<i64> = (0..n).collect();
        for i in 0..order.len() {
            let j = ((i as u64).wrapping_mul(0x9e37_79b9) % n as u64) as usize;
            order.swap(i, j);
        }
        for &i in &order {
            root = insert(&mut p, root, &k(i), &i.to_le_bytes()).unwrap();
        }
        p.commit().unwrap();
        assert!(
            height(&mut p, root).unwrap() >= 2,
            "3000 entries must split"
        );
        let all = collect_all(&mut p, root);
        assert_eq!(all.len(), n as usize);
        for (i, (key, val)) in all.iter().enumerate() {
            assert_eq!(key, &k(i as i64));
            assert_eq!(val, &(i as i64).to_le_bytes());
        }
    }

    #[test]
    fn range_scan_bounds() {
        let mut p = pager("range");
        let mut root = create(&mut p).unwrap();
        for i in 0..2000 {
            root = insert(&mut p, root, &k(i), b"").unwrap();
        }
        p.commit().unwrap();
        let lo = k(100);
        let hi = k(200);
        let mut io = IoStats::new();
        let mut got = Vec::new();
        range(
            &mut p,
            root,
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &mut io,
            |key, _| got.push(codec::decode_tuple(key).unwrap()),
        )
        .unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got[0], k(100));
        assert_eq!(got[99], k(199));
        assert!(
            io.pages_read < 20,
            "bounded scan must not touch the whole tree: {}",
            io.pages_read
        );
    }

    #[test]
    fn delete_shrinks_and_merges() {
        let mut p = pager("shrink");
        let mut root = create(&mut p).unwrap();
        let n = 3000i64;
        for i in 0..n {
            root = insert(&mut p, root, &k(i), &i.to_le_bytes()).unwrap();
        }
        p.commit().unwrap();
        let grown_height = height(&mut p, root).unwrap();
        assert!(grown_height >= 2);
        // Delete all but a handful.
        for i in 0..n - 5 {
            let (new_root, removed) = remove(&mut p, root, &k(i)).unwrap();
            assert!(removed, "key {i} present");
            root = new_root;
        }
        p.commit().unwrap();
        assert_eq!(count(&mut p, root).unwrap(), 5);
        assert_eq!(
            height(&mut p, root).unwrap(),
            1,
            "root must collapse back to a lone leaf"
        );
        let all = collect_all(&mut p, root);
        assert_eq!(all[0].0, k(n - 5));
        // Removing a missing key reports false.
        let (_, removed) = remove(&mut p, root, &k(0)).unwrap();
        assert!(!removed);
    }

    /// 4 000 seeded inserts, replacements and removes over 500 keys,
    /// mirrored in a `BTreeMap`; the tree must read back as the mirror.
    fn random_ops(
        p: &mut Pager,
        mut root: u32,
        mut mirror: BTreeMap<Key, Vec<u8>>,
        key_of: fn(i64) -> Key,
    ) {
        let mut state = 0x1234_5678_u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..4000 {
            let key = key_of((rand() % 500) as i64);
            match rand() % 3 {
                0 | 1 => {
                    let val = format!("v{step}").into_bytes();
                    root = insert(p, root, &key, &val).unwrap();
                    mirror.insert(key, val);
                }
                _ => {
                    let (new_root, removed) = remove(p, root, &key).unwrap();
                    root = new_root;
                    assert_eq!(removed, mirror.remove(&key).is_some());
                }
            }
            if step % 512 == 0 {
                p.commit().unwrap();
            }
        }
        p.commit().unwrap();
        let all = collect_all(p, root);
        let expect: Vec<(Key, Vec<u8>)> =
            mirror.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn random_ops_match_btreemap_mirror() {
        let mut p = pager("mirror");
        let root = create(&mut p).unwrap();
        random_ops(&mut p, root, BTreeMap::new(), k);
    }

    /// A key some 420 bytes wide: 19 to a half-full node, so that a few
    /// hundred entries make a tree of three levels.
    fn wide(i: i64) -> Key {
        vec![Value::Str(format!("{i:0400}")), Value::Int(i)]
    }

    fn build_from(p: &mut Pager, entries: &[(Key, Vec<u8>)]) -> u32 {
        build(p, entries.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))).unwrap()
    }

    #[test]
    fn bulk_built_equals_insert_built() {
        // Empty, one entry, one leaf, two levels, three levels.
        for (n, levels) in [(0, 1), (1, 1), (12, 1), (150, 2), (900, 3)] {
            let mut p = pager("bulk");
            let entries: Vec<(Key, Vec<u8>)> = (0..n)
                .map(|i| (wide(i), i.to_le_bytes().to_vec()))
                .collect();
            let built = build_from(&mut p, &entries);
            let mut grown = create(&mut p).unwrap();
            for (key, val) in &entries {
                grown = insert(&mut p, grown, key, val).unwrap();
            }
            p.commit().unwrap();
            assert_eq!(height(&mut p, built).unwrap(), levels, "{n} entries, built");
            assert_eq!(height(&mut p, grown).unwrap(), levels, "{n} entries, grown");
            // `range` walks the leaf chain; `check` holds it to key order.
            assert_eq!(collect_all(&mut p, built), entries, "{n} entries");
            assert_eq!(collect_all(&mut p, grown), entries, "{n} entries");
            #[cfg(debug_assertions)]
            for root in [built, grown] {
                check(&mut p, root, true).unwrap();
            }
            assert_eq!(count(&mut p, built).unwrap(), n as u64);
            for (key, val) in &entries {
                assert_eq!(get(&mut p, built, key).as_ref(), Some(val));
            }
            assert!(get(&mut p, built, &wide(n)).is_none());
            // A bounded scan starts at its lower bound's slot in both.
            if n > 20 {
                let (lo, hi) = (wide(n / 2), wide(n / 2 + 7));
                for root in [built, grown] {
                    let mut got = Vec::new();
                    range(
                        &mut p,
                        root,
                        Bound::Excluded(&lo),
                        Bound::Included(&hi),
                        &mut IoStats::new(),
                        |key, _| got.push(codec::decode_tuple(key).unwrap()),
                    )
                    .unwrap();
                    assert_eq!(got, (n / 2 + 1..=n / 2 + 7).map(wide).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn random_ops_from_a_bulk_built_tree_match_mirror() {
        let mut p = pager("bulk-mirror");
        let entries: Vec<(Key, Vec<u8>)> = (0..500).map(|i| (wide(i), b"built".to_vec())).collect();
        let root = build_from(&mut p, &entries);
        p.commit().unwrap();
        assert_eq!(height(&mut p, root).unwrap(), 3);
        random_ops(&mut p, root, entries.into_iter().collect(), wide);
    }

    #[test]
    fn bulk_build_refuses_unsorted_and_oversized_entries() {
        let mut p = pager("bulk-refuse");
        for entries in [vec![k(2), k(1)], vec![k(1), k(1)]] {
            let err = build(&mut p, entries.iter().map(|k| (k.as_slice(), &[][..]))).unwrap_err();
            assert!(matches!(err, StorageError::Io(_)), "{err}");
            p.rollback();
        }
        let huge = vec![0u8; DISK_PAGE_SIZE];
        let err = build(&mut p, [(k(1).as_slice(), huge.as_slice())].into_iter()).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
        p.rollback();
        assert_eq!(p.meta().page_count, 1, "nothing of a refused build stays");
    }

    /// Pool lookups since `before`.
    fn lookups_since(p: &Pager, before: (u64, u64)) -> u64 {
        let c = p.pool_counters();
        c.hits + c.misses - before.0 - before.1
    }

    #[test]
    fn range_looks_every_page_up_once() {
        let mut p = pager("range-once");
        let entries: Vec<(Key, Vec<u8>)> = (0..150).map(|i| (wide(i), Vec::new())).collect();
        let root = build_from(&mut p, &entries);
        p.commit().unwrap();
        let before = (p.pool_counters().hits, p.pool_counters().misses);
        let mut io = IoStats::new();
        let (lo, hi) = (wide(40), wide(60));
        let n = range(
            &mut p,
            root,
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &mut io,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(n, 20);
        // Root, and the two or three leaves the twenty keys lie in — not
        // the first of them a second time.
        assert!((3..=4).contains(&io.pages_read), "{}", io.pages_read);
        assert_eq!(
            lookups_since(&p, before),
            io.pages_read,
            "a lookup no page was charged for"
        );
    }

    #[test]
    fn range_starting_after_a_leaf_s_last_key_charges_the_next_leaf() {
        let mut p = pager("range-edge");
        let entries: Vec<(Key, Vec<u8>)> = (0..150).map(|i| (wide(i), Vec::new())).collect();
        let root = build_from(&mut p, &entries);
        p.commit().unwrap();
        // The root's first separator is the first leaf's last key.
        let page = p.read_page(root, &mut IoStats::new()).unwrap();
        let last_of_first =
            codec::decode_tuple(parse_internal_cell(page.cell(0)).unwrap().0).unwrap();
        let Value::Int(i) = last_of_first[1] else {
            panic!("{last_of_first:?}")
        };
        let before = (p.pool_counters().hits, p.pool_counters().misses);
        let mut io = IoStats::new();
        let hi = wide(i + 3);
        let mut got = Vec::new();
        range(
            &mut p,
            root,
            Bound::Excluded(&last_of_first),
            Bound::Included(&hi),
            &mut io,
            |key, _| got.push(codec::decode_tuple(key).unwrap()),
        )
        .unwrap();
        assert_eq!(got, (i + 1..=i + 3).map(wide).collect::<Vec<_>>());
        // Root, the first leaf (nothing in it qualifies) and the second.
        assert_eq!(io.pages_read, 3);
        assert_eq!(lookups_since(&p, before), 3);
    }

    #[test]
    fn free_returns_pages_to_freelist() {
        let mut p = pager("free");
        let mut root = create(&mut p).unwrap();
        for i in 0..2000 {
            root = insert(&mut p, root, &k(i), b"x").unwrap();
        }
        p.commit().unwrap();
        let before = p.meta().page_count;
        free(&mut p, root).unwrap();
        p.commit().unwrap();
        assert_eq!(p.meta().page_count, before, "freeing shrinks nothing yet");
        // Building a new tree of the same size reuses the freed pages.
        let mut root2 = create(&mut p).unwrap();
        for i in 0..2000 {
            root2 = insert(&mut p, root2, &k(i), b"x").unwrap();
        }
        p.commit().unwrap();
        assert_eq!(
            p.meta().page_count,
            before,
            "rebuilt tree must reuse freed pages, not grow the file"
        );
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = pager("oversize");
        let root = create(&mut p).unwrap();
        let huge = vec![0u8; DISK_PAGE_SIZE];
        let err = insert(&mut p, root, &k(1), &huge).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)), "{err}");
    }

    #[test]
    fn int_float_collation_matches_memory() {
        let mut p = pager("collation");
        let mut root = create(&mut p).unwrap();
        root = insert(&mut p, root, &[Value::Int(3)], b"int").unwrap();
        // Float(3.0) compares equal to Int(3): this must *replace*.
        root = insert(&mut p, root, &[Value::Float(3.0)], b"float").unwrap();
        p.commit().unwrap();
        assert_eq!(count(&mut p, root).unwrap(), 1);
        assert_eq!(get(&mut p, root, &vec![Value::Int(3)]).unwrap(), b"float");
    }
}
