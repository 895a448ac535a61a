//! Hostile-prefix fuzz over the [`DbSketches`] slab decoder. The scale
//! counts, point counts and per-sketch dims of a stored index are
//! attacker-controlled in a corrupted-but-checksummed (or adversarially
//! authored) bundle, so any value they can take must yield a typed
//! [`StoreError`] — never a panic, and never an allocation sized by the
//! prefix instead of by the bytes actually present. A counting global
//! allocator records the largest single request made while decoding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anns_hamming::gen;
use anns_sketch::{DbSketches, SketchFamily, SketchParams};
use anns_store::{Codec, StoreError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards to [`System`], recording the largest request per thread.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards to `System` unchanged; recording touches a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Points in the fixture database. At d = 96 the family has 15 scales,
/// 111-bit M sketches (two limbs, a partial tail) and 56-bit N sketches.
const N: usize = 24;
const D: u32 = 96;

/// The fixture's family, database sketches and their encoding.
fn fixture(seed: u64) -> (SketchFamily, DbSketches, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = gen::uniform(N, D, &mut rng);
    let family = SketchFamily::generate(D, N, &SketchParams::practical(2.0, seed));
    let db = DbSketches::build(&family, &ds, 1);
    let bytes = db.to_bytes();
    (family, db, bytes)
}

/// Bytes of one encoded M sketch (`u32` dim + limbs).
fn m_sketch_bytes(family: &SketchFamily) -> usize {
    4 + 8 * family.m_rows().div_ceil(64) as usize
}

/// Offset of the `u64` point count of M scale `i`.
fn m_count_at(family: &SketchFamily, i: usize) -> usize {
    8 + i * (8 + N * m_sketch_bytes(family))
}

/// Offset of the `u32` dim of M sketch `z` at scale `i`.
fn m_dim_at(family: &SketchFamily, i: usize, z: usize) -> usize {
    m_count_at(family, i) + 8 + z * m_sketch_bytes(family)
}

/// Decodes, returning the result and the largest single allocation
/// request made during the decode.
fn decode_tracked(bytes: &[u8]) -> (Result<DbSketches, StoreError>, usize) {
    LARGEST.with(|l| l.set(0));
    let result = DbSketches::from_bytes(bytes);
    (result, LARGEST.with(Cell::get))
}

/// The decode must fail with a typed error, and no allocation may exceed
/// a small multiple of the bytes present.
fn assert_typed_and_bounded(bytes: &[u8]) {
    let (result, largest) = decode_tracked(bytes);
    match result {
        Err(StoreError::Malformed(_) | StoreError::Truncated { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
        Ok(_) => panic!("hostile bytes decoded"),
    }
    assert!(
        largest <= 8 * bytes.len(),
        "allocated {largest} bytes decoding {} bytes",
        bytes.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The M kind's `u64` scale count at bytes `[0..8]`, inflated by any
    /// amount: the decode runs out of scales' worth of bytes.
    #[test]
    fn inflated_scale_count_is_a_typed_error(
        seed in any::<u64>(),
        delta in 1u64..u64::MAX / 2,
    ) {
        let (family, _, mut bytes) = fixture(seed);
        let count = u64::from(family.top() + 1).saturating_add(delta);
        bytes[0..8].copy_from_slice(&count.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// A scale's `u64` point count, inflated by any amount: either
    /// impossible in the remaining bytes (rejected before the slab is
    /// reserved) or read into the next scale's bytes until a width or
    /// count check fails.
    #[test]
    fn inflated_point_count_is_a_typed_error(
        seed in any::<u64>(),
        scale in 0usize..4,
        delta in 1u64..u64::MAX / 2,
    ) {
        let (family, _, mut bytes) = fixture(seed);
        let at = m_count_at(&family, scale);
        let count = (N as u64).saturating_add(delta);
        bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// A huge first dim implies a huge per-sketch limb count; it must
    /// fail the bytes-present check instead of reserving `count · dim/8`.
    #[test]
    fn huge_first_dim_is_a_typed_error(seed in any::<u64>(), dim in 1u32 << 20..u32::MAX) {
        let (family, _, mut bytes) = fixture(seed);
        let at = m_dim_at(&family, 0, 0);
        bytes[at..at + 4].copy_from_slice(&dim.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// Any later sketch whose dim disagrees with its scale's first one —
    /// even by one bit inside the same limb count — breaks the
    /// uniform-width rule.
    #[test]
    fn dims_that_disagree_within_a_scale_are_typed(
        seed in any::<u64>(),
        z in 1usize..N,
        dim in 1u32..=256,
    ) {
        let (family, _, mut bytes) = fixture(seed);
        prop_assume!(dim != family.m_rows());
        let at = m_dim_at(&family, 0, z);
        bytes[at..at + 4].copy_from_slice(&dim.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// Arbitrary damage in the leading scale's header and first sketch
    /// never panics and never over-allocates.
    #[test]
    fn header_region_fuzz_never_panics(
        seed in any::<u64>(),
        offset in 0usize..40,
        value in any::<u8>(),
    ) {
        let (_, _, mut bytes) = fixture(seed);
        bytes[offset] = value;
        let (_, largest) = decode_tracked(&bytes);
        prop_assert!(largest <= 8 * bytes.len());
    }
}

/// A whole scale of another width (every dim in the scale consistent) still
/// breaks the uniform-width rule of its kind.
#[test]
fn a_scale_of_another_width_is_typed() {
    let (family, _, mut bytes) = fixture(3);
    let narrower = family.m_rows() - 1; // same limb count, so the layout parses
    for z in 0..N {
        let at = m_dim_at(&family, 1, z);
        bytes[at..at + 4].copy_from_slice(&narrower.to_le_bytes());
    }
    assert!(matches!(
        DbSketches::from_bytes(&bytes),
        Err(StoreError::Malformed(_))
    ));
}

#[test]
fn every_strict_prefix_is_a_typed_error() {
    let (_, _, bytes) = fixture(5);
    for cut in 0..bytes.len() {
        let (result, largest) = decode_tracked(&bytes[..cut]);
        assert!(
            matches!(
                result,
                Err(StoreError::Malformed(_) | StoreError::Truncated { .. })
            ),
            "prefix of {cut} bytes"
        );
        assert!(largest <= 8 * cut.max(64), "prefix of {cut} bytes");
    }
    assert!(DbSketches::from_bytes(&bytes).is_ok());
}

#[test]
fn tail_bits_are_masked_on_decode() {
    let (family, db, clean) = fixture(7);
    let w = family.m_rows().div_ceil(64) as usize;
    let tail = !0u64 << (family.m_rows() % 64);
    assert_ne!(family.m_rows() % 64, 0, "fixture needs a partial tail limb");
    // Set every bit past the row count in scale 0's sketches.
    let mut dirty = clean.clone();
    for z in 0..N {
        let at = m_dim_at(&family, 0, z) + 4 + 8 * (w - 1);
        let limb = u64::from_le_bytes(dirty[at..at + 8].try_into().unwrap()) | tail;
        dirty[at..at + 8].copy_from_slice(&limb.to_le_bytes());
    }
    assert_ne!(dirty, clean);
    let back = DbSketches::from_bytes(&dirty).expect("tail bits are not an error");
    for z in 0..N {
        assert_eq!(back.m_limbs(0, z), db.m_limbs(0, z), "point {z}");
        assert_eq!(back.m_limbs(0, z)[w - 1] & tail, 0);
    }
    assert_eq!(back.to_bytes(), clean);
}
