//! Assembling an index from its parts grows the live heap by the
//! membership index only: `next_pow2(2n)` slots of 8 bytes, at most 16 B
//! per row, plus the index's fixed-size shared header. No database point
//! is copied.
//!
//! A counting global allocator tracks live heap bytes. This file holds
//! one test on purpose: the allocator counts every thread of the
//! process, so a second test running beside it would move the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use anns_core::AnnIndex;
use anns_hamming::gen;
use anns_sketch::{DbSketches, SketchFamily, SketchParams};
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

/// Rows of the database.
const N: usize = 4096;
/// Bytes the index may add per row.
const PER_ROW: usize = 16;
/// The one allocation the index adds besides its membership index: the
/// shared header that holds the moved-in parts.
const HEADER: usize = 1024;

#[test]
fn assembling_an_index_copies_no_database_point() {
    let seed = 2024;
    let mut rng = StdRng::seed_from_u64(seed);
    let dataset = gen::uniform(N, 256, &mut rng);
    let family = SketchFamily::generate(256, N, &SketchParams::practical(2.0, seed));
    let db = DbSketches::build(&family, &dataset, 2);

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let index = AnnIndex::from_parts(dataset, family, db, None).expect("consistent parts");
    let grown = LIVE.load(Ordering::SeqCst) - before;
    let peak = PEAK.load(Ordering::SeqCst) - before;

    let membership = index.memory().membership;
    eprintln!("n = {N}: live heap grew {grown} B (peak {peak} B), membership index {membership} B");
    assert!(
        grown <= PER_ROW * N + HEADER && peak <= PER_ROW * N + HEADER,
        "assembling {N} rows grew the live heap by {grown} B (peak {peak} B), \
         over {PER_ROW} B per row plus a {HEADER} B header"
    );
    assert!(membership <= grown && grown - membership <= HEADER);
}
