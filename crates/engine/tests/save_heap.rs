//! Saving a bundle streams the index pool into the file through a small
//! reused buffer: the heap a save needs is O(chunk), not O(bundle).
//!
//! A counting global allocator tracks the peak of live heap bytes. The
//! test saves a multi-megabyte bundle through `Registry::save_bundle`
//! and checks that the peak rose by less than 1 MiB over the live heap
//! before the save, and that the file is the same bytes the buffered
//! encoder wrote (pinned by length and CRC-32).
//!
//! This file holds one test on purpose: the allocator counts every
//! thread of the process, so a second test running beside it would
//! move the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use anns_core::{AnnIndex, BuildOptions};
use anns_engine::testkit::TempDir;
use anns_engine::Registry;
use anns_hamming::gen;
use anns_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`System`], counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Length and CRC-32 of the bundle below as the buffered encoder wrote
/// it, before the pool was streamed.
const BUNDLE_BYTES: usize = 4_853_376;
const BUNDLE_CRC: u32 = 0x5c30_b4c4;

#[test]
fn saving_a_bundle_holds_no_bundle_sized_buffer() {
    let seed = 4242;
    let mut rng = StdRng::seed_from_u64(seed);
    let index = Arc::new(AnnIndex::build(
        gen::uniform(4096, 256, &mut rng),
        SketchParams::practical(2.0, seed),
        BuildOptions::default(),
    ));
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_lambda("lambda-8", Arc::clone(&index), 8.0);
    let dir = TempDir::new("save-heap");
    let path = dir.file("bundle.anns");
    // A built index sketches its `N` half at the first need, which would
    // otherwise be this save: that is preprocessing the index keeps, not
    // a save buffer, so it is done before the peak is measured.
    index.db_sketches();

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    registry.save_bundle(&path).expect("save");
    let grown = PEAK.load(Ordering::SeqCst) - before;

    let bytes = std::fs::read(&path).expect("read back");
    eprintln!(
        "bundle {} bytes, crc {:#010x}; save peak heap growth {grown} bytes",
        bytes.len(),
        anns_store::crc32(&bytes)
    );
    assert!(bytes.len() >= 4 << 20, "bundle of {} bytes", bytes.len());
    assert_eq!(bytes.len(), BUNDLE_BYTES);
    assert_eq!(anns_store::crc32(&bytes), BUNDLE_CRC);
    assert!(
        grown < 1 << 20,
        "saving a {}-byte bundle grew the live heap by {grown} bytes",
        bytes.len()
    );
}
