//! What the paged engine pays per operation, as counts: heap allocations
//! and bytes allocated (exact, from the counting allocator of
//! `common/counting.rs`), buffer-pool lookups, and the page images and
//! bytes a commit logs. One 6 000-row table behind a 32-frame pool — the
//! data is about twice the pool — driven through the `StorageBackend`
//! hooks the engine calls, so nothing of the in-memory twin is in the
//! numbers. *Cold* is the first run of an operation after the directory is
//! reopened, *warm* the same operation again. The contract the numbers
//! hold (DESIGN.md §9, Conventions): a page touch allocates nothing and
//! copies no page image, and a page the pool holds is looked up once per
//! touch charged. Beside each bound stands what the engine paid before
//! frames were borrowed (PR 24), measured by this test on that code.
//!
//! `cargo test -p aim-integration --test storage_counts -- --nocapture`
//! prints the table. This is its own test binary because of the
//! `#[global_allocator]` in `common/counting.rs`.

#[path = "common/counting.rs"]
mod counting;

use aim_storage::{
    ColumnDef, ColumnType, DiskBackend, IndexDef, IoStats, Key, PagerOptions, Row, StorageBackend,
    TableSchema, TaggedEntry, Value,
};
use counting::measure;
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ROWS: i64 = 6_000;
/// Rows per customer; a customer's rows are neighbours in the heap and in
/// the primary key, so its lookups stay inside the pool.
const PER_CUSTOMER: i64 = 20;
/// One page image in the WAL: record header, page number, the page.
const WAL_IMAGE: u64 = 17 + 4 + 16 * 1024;
/// The commit record that ends a batch.
const WAL_COMMIT: u64 = 17;

fn schema() -> TableSchema {
    TableSchema::new(
        "orders",
        vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("customer_id", ColumnType::Int),
            ColumnDef::new("region", ColumnType::Int),
            ColumnDef::new("note", ColumnType::Str),
        ],
        &["id"],
    )
    .unwrap()
}

fn row(id: i64, customer: i64) -> Row {
    vec![
        Value::Int(id),
        Value::Int(customer),
        Value::Int(id % 9),
        Value::Str(format!("note-{id:05}")),
    ]
}

fn pk(id: i64) -> Key {
    vec![Value::Int(id)]
}

fn by_customer(customer: i64, id: i64) -> Vec<TaggedEntry> {
    vec![(
        "ix_customer".to_string(),
        vec![Value::Int(customer), Value::Int(id)],
    )]
}

fn open(dir: &Path) -> Arc<DiskBackend> {
    let opts = PagerOptions {
        pool_frames: 32,
        ..PagerOptions::default()
    };
    DiskBackend::open(dir, opts).unwrap().0
}

/// What one operation cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    allocations: u64,
    bytes: u64,
    /// Buffer-pool lookups that found the page resident / had to read it.
    hits: u64,
    misses: u64,
    /// Page images the commit logged (0 for a read).
    images: u64,
}

fn cost<T>(be: &DiskBackend, what: &str, f: impl FnOnce() -> T) -> Cost {
    let before = be.counters();
    let (allocations, bytes) = measure(f);
    let after = be.counters();
    let wal = after.wal_bytes - before.wal_bytes;
    let images = wal.saturating_sub(WAL_COMMIT) / WAL_IMAGE;
    assert!(
        wal == 0 || wal == images * WAL_IMAGE + WAL_COMMIT,
        "{what}: {wal} WAL bytes is not one batch of whole images"
    );
    let c = Cost {
        allocations,
        bytes,
        hits: after.bp_hits - before.bp_hits,
        misses: after.bp_misses - before.bp_misses,
        images,
    };
    eprintln!(
        "{what:<34} {:>9} allocations {:>12} bytes  pool {:>6} hits {:>3} misses  {:>3} images logged",
        c.allocations, c.bytes, c.hits, c.misses, c.images
    );
    c
}

#[test]
fn paged_operations_cost_what_they_touch() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("aim-storage-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ix_customer = IndexDef::new("ix_customer", "orders", vec!["customer_id".into()]);
    {
        let be = open(&dir);
        be.persist_create_table(&schema()).unwrap();
        be.persist_create_index(&ix_customer, &[]).unwrap();
        for id in 0..ROWS {
            let customer = id / PER_CUSTOMER;
            be.persist_insert(
                "orders",
                &pk(id),
                &row(id, customer),
                &by_customer(customer, id),
            )
            .unwrap();
        }
    }

    // Reads. Each is measured cold, right after a reopen, then warm; the
    // keys are built beforehand, so the counts are the engine's alone.
    let key = pk(3_456);
    let lookup = |be: &DiskBackend| {
        let mut io = IoStats::new();
        assert!(be.account_pk_lookup("orders", &key, &mut io));
        assert_eq!(io.rows_read, 1);
        io
    };
    let be = open(&dir);
    let lookup_cold = cost(&be, "pk lookup, cold", || lookup(&be));
    let lookup_warm = cost(&be, "pk lookup, warm", || lookup(&be));

    let (lo, hi) = (pk(1_000), pk(1_040));
    let pk_range = |be: &DiskBackend| {
        let mut io = IoStats::new();
        assert!(be.account_pk_range(
            "orders",
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &mut io
        ));
        assert_eq!(io.rows_read, 40);
        io
    };
    let be = open(&dir);
    let range_cold = cost(&be, "pk range of 40, cold", || pk_range(&be));
    let range_warm = cost(&be, "pk range of 40, warm", || pk_range(&be));
    let range_pages = pk_range(&be).pages_read;
    eprintln!("pk range of 40 charges {range_pages} pages");

    // Customer 7's 20 entries, then the 20 rows they point at.
    let (lo, hi) = (vec![Value::Int(7)], vec![Value::Int(7), Value::MaxKey]);
    let its_rows: Vec<Key> = (0..PER_CUSTOMER)
        .map(|n| pk(7 * PER_CUSTOMER + n))
        .collect();
    let index_range = |be: &DiskBackend| {
        let mut io = IoStats::new();
        assert!(be.account_index_range(
            "orders",
            "ix_customer",
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &mut io
        ));
        assert_eq!(io.rows_read, 20);
        for key in &its_rows {
            assert!(be.account_pk_lookup("orders", key, &mut io));
        }
        assert_eq!(io.rows_read, 40);
        io
    };
    let be = open(&dir);
    let index_cold = cost(&be, "index range of 20 + lookups, cold", || {
        index_range(&be)
    });
    let index_warm = cost(&be, "index range of 20 + lookups, warm", || {
        index_range(&be)
    });
    let index_pages = index_range(&be).pages_read;
    eprintln!("index range of 20 + lookups charges {index_pages} pages");

    // Writes, one commit each. The first insert warms the tail pages; the
    // second is the measured one and splits nothing.
    be.persist_insert(
        "orders",
        &pk(ROWS),
        &row(ROWS, 300),
        &by_customer(300, ROWS),
    )
    .unwrap();
    let (key, new_row, entry) = (pk(ROWS + 1), row(ROWS + 1, 300), by_customer(300, ROWS + 1));
    let insert = cost(&be, "insert, warm", || {
        be.persist_insert("orders", &key, &new_row, &entry).unwrap()
    });
    // Row 1 234 moves from customer 61 to customer 62: same-size heap
    // rewrite, one entry out of the index and one in.
    let (key, moved) = (pk(1_234), row(1_234, 62));
    let (out, into) = (by_customer(61, 1_234), by_customer(62, 1_234));
    let update = cost(&be, "update of an indexed column", || {
        be.persist_update("orders", &key, &moved, &out, &into)
            .unwrap()
    });

    // A second index over all 6 002 rows, entries in key order.
    let ix_region = IndexDef::new("ix_region", "orders", vec!["region".into()]);
    let mut entries: Vec<Key> = (0..ROWS + 2)
        .map(|id| vec![Value::Int(id % 9), Value::Int(id)])
        .collect();
    entries.sort();
    let create = cost(&be, "create_index over 6 002 entries", || {
        be.persist_create_index(&ix_region, &entries).unwrap()
    });
    drop(be);

    // The index reads back whole after a reopen.
    let (_, loaded) = DiskBackend::open(&dir, PagerOptions::default()).unwrap();
    let built = loaded[0]
        .indexes
        .iter()
        .find(|(def, _)| def.name == "ix_region")
        .expect("ix_region in the catalog");
    assert_eq!(built.1, entries);
    let _ = std::fs::remove_dir_all(&dir);

    let c = |allocations, bytes, hits, misses, images| Cost {
        allocations,
        bytes,
        hits,
        misses,
        images,
    };
    // A point lookup reads root, leaf and heap page, each where it lies in
    // its frame; a miss reads into the buffer its eviction freed.
    // Was 350 allocations / 115 407 bytes cold and 348 / 82 639 warm: a
    // 16 KiB copy of every frame, a vector per cell of it, a decoded key
    // per comparison.
    assert_eq!(lookup_cold, c(0, 0, 1, 2, 0));
    assert_eq!(lookup_warm, c(0, 0, 3, 0, 0));
    // Root, leaf, leaf, heap page: four charged and four looked up. Were
    // five lookups — the first leaf read a second time and booked as a
    // hit — and 794 / 215 860 cold, 790 / 150 324 warm. The one allocation
    // left is the backend's list of heap pages, made once and kept.
    assert_eq!(range_cold, c(1, 16, 0, 4, 0));
    assert_eq!(range_warm, c(0, 0, 4, 0, 0));
    assert_eq!(range_pages, 4);
    // 62 pages charged, 62 looked up (were 63, same phantom hit), nothing
    // allocated. Was 7 801 / 1 825 066 cold, 7 798 / 1 775 914 warm.
    assert_eq!(index_cold, c(0, 0, 59, 3, 0));
    assert_eq!(index_warm, c(0, 0, 62, 0, 0));
    assert_eq!(index_pages, 62);
    // Heap page, primary-key leaf and index leaf: one cell written into
    // each, one before-image each into a recycled buffer, three images
    // logged from the frames. Was 1 141 / 468 410. Of the 31 left, 28 are
    // the backend's two copies of the table's catalog entry (rollback
    // snapshot, working copy), 3 the encoded row and the two cells.
    assert_eq!(insert, c(31, 4_581, 5, 0, 3));
    // The heap page is rewritten in place; both entries are in one leaf.
    // Was 1 087 / 468 613.
    assert_eq!(update, c(30, 4_548, 6, 2, 2));
    // Built bottom-up: the tree's 22 pages (21 leaves and the root; grown
    // by insert it had 20 and the root), the catalog page and the meta
    // page are staged once each and logged — 24 images — and the only
    // lookups are the catalog rewrite's. Was 6 002 root-to-leaf inserts:
    // 11 420 hits, 2 747 744 allocations, 533 428 330 bytes. What is
    // allocated now is the batch the commit frames (24 images, 394 KiB),
    // a key per finished node and the catalog; with debug assertions,
    // also `btree_page::check`'s copy of every page and decoded key.
    let (allocations, bytes) = if cfg!(debug_assertions) {
        (6_197, 1_055_696)
    } else {
        (90, 403_468)
    };
    assert_eq!(create, c(allocations, bytes, 1, 1, 24));
}
