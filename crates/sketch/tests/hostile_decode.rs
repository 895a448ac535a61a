//! Hostile-prefix fuzz over the [`DbSketches`] slab decoder. The row
//! counts, scale counts, point counts and alignment padding of a stored
//! index are attacker-controlled in a corrupted-but-checksummed (or
//! adversarially authored) bundle, so any value they can take must yield
//! a typed [`StoreError`] — never a panic, and never an allocation sized
//! by the prefix instead of by the bytes actually present. A counting
//! global allocator records the largest single request made while
//! decoding. Every case runs twice: through a plain reader, which copies
//! the slabs, and through a reader over a parsed container, which
//! borrows them in place when it can.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anns_hamming::gen;
use anns_sketch::{DbSketches, SketchFamily, SketchParams};
use anns_store::{
    ByteReader, Codec, MappedStore, PayloadSource, StoreError, StoreWriter, KIND_BUNDLE,
};
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

/// Bytes of each kind's header: `rows u32`, `scales u64`, `points u64`
/// and four bytes of zero padding (the kind starts 8-aligned).
const KIND_HEADER: usize = 24;

/// The fixture's family, database sketches and their encoding.
fn fixture(seed: u64) -> (SketchFamily, DbSketches, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = gen::uniform(N, D, &mut rng);
    let family = SketchFamily::generate(D, N, &SketchParams::practical(2.0, seed));
    let db = DbSketches::build(&family, &ds, 1);
    let bytes = db.to_bytes();
    (family, db, bytes)
}

/// Limbs per M sketch.
fn m_width(family: &SketchFamily) -> usize {
    family.m_rows().div_ceil(64) as usize
}

/// Offset of the N kind's header.
fn n_kind_at(family: &SketchFamily) -> usize {
    KIND_HEADER + (family.top() as usize + 1) * N * 8 * m_width(family)
}

/// Offset of the M sketch of point `z` at scale `i`.
fn m_sketch_at(family: &SketchFamily, i: usize, z: usize) -> usize {
    KIND_HEADER + (i * N + z) * 8 * m_width(family)
}

/// Decodes `bytes` through a reader with no owner (the copy path).
fn decode_copied(bytes: &[u8]) -> Result<DbSketches, StoreError> {
    DbSketches::from_bytes(bytes)
}

/// Decodes `bytes` as the payload of a parsed container's section,
/// through the owner-carrying reader a mapped mount uses. The payload
/// sits 64-aligned in the container's buffer, and the allocator returns
/// buffers aligned for `u64`, so the slabs are 8-aligned.
fn decode_in_place(bytes: &[u8]) -> Result<DbSketches, StoreError> {
    let mut writer = StoreWriter::new(KIND_BUNDLE);
    writer.section(*b"DBSK", bytes.to_vec());
    let store = MappedStore::from_bytes(writer.to_bytes())?;
    let source = PayloadSource::mapped(store.find(*b"DBSK").expect("section"));
    let mut reader: ByteReader<'_> = source.reader();
    let db = DbSketches::decode(&mut reader)?;
    reader.finish()?;
    Ok(db)
}

/// Decodes through `decode`, returning the result and the largest single
/// allocation request made during the decode.
fn decode_tracked(
    decode: fn(&[u8]) -> Result<DbSketches, StoreError>,
    bytes: &[u8],
) -> (Result<DbSketches, StoreError>, usize) {
    LARGEST.with(|l| l.set(0));
    let result = decode(bytes);
    (result, LARGEST.with(Cell::get))
}

/// On both decode paths the decode must fail with a typed error, and no
/// allocation may exceed a small multiple of the bytes present.
fn assert_typed_and_bounded(bytes: &[u8]) {
    for decode in [decode_copied, decode_in_place] {
        let (result, largest) = decode_tracked(decode, bytes);
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Either kind's `u64` scale count, inflated by any amount: the
    /// slabs no longer fit in the bytes remaining.
    #[test]
    fn inflated_scale_count_is_a_typed_error(
        seed in any::<u64>(),
        n_kind in any::<bool>(),
        delta in 1u64..u64::MAX / 2,
    ) {
        let (family, _, mut bytes) = fixture(seed);
        let at = if n_kind { n_kind_at(&family) } else { 0 } + 4;
        let count = u64::from(family.top() + 1).saturating_add(delta);
        bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// Either kind's `u64` point count, inflated by any amount: the
    /// slabs no longer fit (rejected before any slab is reserved), or
    /// the two kinds disagree.
    #[test]
    fn inflated_point_count_is_a_typed_error(
        seed in any::<u64>(),
        n_kind in any::<bool>(),
        delta in 1u64..u64::MAX / 2,
    ) {
        let (family, _, mut bytes) = fixture(seed);
        let at = if n_kind { n_kind_at(&family) } else { 0 } + 12;
        let count = (N as u64).saturating_add(delta);
        bytes[at..at + 8].copy_from_slice(&count.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// A huge row count implies a huge per-sketch limb count; it must
    /// fail the bytes-present check instead of reserving
    /// `scales · points · rows/8`.
    #[test]
    fn inflated_rows_are_a_typed_error(seed in any::<u64>(), rows in 1u32 << 20..u32::MAX) {
        let (_, _, mut bytes) = fixture(seed);
        bytes[0..4].copy_from_slice(&rows.to_le_bytes());
        assert_typed_and_bounded(&bytes);
    }

    /// Any nonzero byte in either kind's alignment padding is
    /// `Malformed`.
    #[test]
    fn nonzero_alignment_padding_is_malformed(
        seed in any::<u64>(),
        n_kind in any::<bool>(),
        at in 20usize..KIND_HEADER,
        value in 1u8..=255,
    ) {
        let (family, _, mut bytes) = fixture(seed);
        let at = if n_kind { n_kind_at(&family) } else { 0 } + at;
        bytes[at] = value;
        for decode in [decode_copied, decode_in_place] {
            prop_assert!(matches!(decode(&bytes), Err(StoreError::Malformed(_))));
        }
    }

    /// Arbitrary damage in the leading kind's header and first sketch
    /// never panics and never over-allocates.
    #[test]
    fn header_region_fuzz_never_panics(
        seed in any::<u64>(),
        offset in 0usize..40,
        value in any::<u8>(),
    ) {
        let (_, _, mut bytes) = fixture(seed);
        bytes[offset] = value;
        for decode in [decode_copied, decode_in_place] {
            let (_, largest) = decode_tracked(decode, &bytes);
            prop_assert!(largest <= 8 * bytes.len());
        }
    }
}

/// A kind of another width that fits the same limbs decodes (the row
/// count is written once per kind, so nothing disagrees within it), but
/// no longer matches its family: the check every decoded index passes
/// before it serves.
#[test]
fn a_kind_of_another_width_fails_its_family() {
    let (family, _, mut bytes) = fixture(3);
    let narrower = family.m_rows() - 1; // same limb count, so the layout parses
    bytes[0..4].copy_from_slice(&narrower.to_le_bytes());
    for decode in [decode_copied, decode_in_place] {
        let db = decode(&bytes).expect("the layout parses");
        assert!(db.check_family(&family).is_err());
    }
}

#[test]
fn every_strict_prefix_is_a_typed_error() {
    let (_, _, bytes) = fixture(5);
    for cut in 0..bytes.len() {
        for decode in [decode_copied, decode_in_place] {
            let (result, largest) = decode_tracked(decode, &bytes[..cut]);
            assert!(
                matches!(
                    result,
                    Err(StoreError::Malformed(_) | StoreError::Truncated { .. })
                ),
                "prefix of {cut} bytes"
            );
            assert!(largest <= 8 * cut.max(64), "prefix of {cut} bytes");
        }
    }
    assert!(decode_copied(&bytes).is_ok());
    assert!(decode_in_place(&bytes).is_ok());
}

#[test]
fn slabs_are_borrowed_only_through_an_owner() {
    let (family, db, bytes) = fixture(6);
    let copied = decode_copied(&bytes).unwrap();
    let in_place = decode_in_place(&bytes).unwrap();
    assert!(!copied.is_borrowed());
    assert!(in_place.is_borrowed());
    for i in 0..=family.top() {
        for z in 0..N {
            assert_eq!(in_place.m_limbs(i, z), db.m_limbs(i, z));
            assert_eq!(in_place.n_limbs(i, z), db.n_limbs(i, z));
        }
    }
    assert_eq!(in_place.to_bytes(), bytes);
}

#[test]
fn tail_bits_are_masked_on_decode() {
    let (family, db, clean) = fixture(7);
    let w = m_width(&family);
    let tail = !0u64 << (family.m_rows() % 64);
    assert_ne!(family.m_rows() % 64, 0, "fixture needs a partial tail limb");
    // Set every bit past the row count in scale 0's sketches.
    let mut dirty = clean.clone();
    for z in 0..N {
        let at = m_sketch_at(&family, 0, z) + 8 * (w - 1);
        let limb = u64::from_le_bytes(dirty[at..at + 8].try_into().unwrap()) | tail;
        dirty[at..at + 8].copy_from_slice(&limb.to_le_bytes());
    }
    assert_ne!(dirty, clean);
    // Dirty tails take the copy path on both readers, never an error.
    for decode in [decode_copied, decode_in_place] {
        let back = decode(&dirty).expect("tail bits are not an error");
        assert!(!back.is_borrowed());
        for z in 0..N {
            assert_eq!(back.m_limbs(0, z), db.m_limbs(0, z), "point {z}");
            assert_eq!(back.m_limbs(0, z)[w - 1] & tail, 0);
        }
        assert_eq!(back.to_bytes(), clean);
    }
}

/// The fixture with its `N` half never sketched, and its encoding, whose
/// `N` kind is its header alone: the family's `n_rows`, no scale, and the
/// fixture's point count.
fn fixture_without_n(seed: u64) -> (SketchFamily, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = gen::uniform(N, D, &mut rng);
    let family = SketchFamily::generate(D, N, &SketchParams::practical(2.0, seed));
    let bytes = DbSketches::build_m(&family, &ds, 1).to_bytes();
    (family, bytes)
}

#[test]
fn an_absent_n_kind_decodes_unsketched() {
    let (family, bytes) = fixture_without_n(8);
    let at = n_kind_at(&family);
    assert_eq!(bytes.len(), at + KIND_HEADER, "the N kind is its header");
    let m_bytes = (family.top() as usize + 1) * N * 8 * m_width(&family);
    for decode in [decode_copied, decode_in_place] {
        let db = decode(&bytes).expect("the absent form decodes");
        assert!(db.check_family(&family).is_ok());
        let (owned, borrowed) = db.slab_bytes();
        assert_eq!(owned + borrowed, m_bytes, "the M slabs alone");
        assert_eq!(db.to_bytes(), bytes);
    }
}

/// An absent `N` kind still names its width and point count. Another
/// width parses (it has no slab to disagree with) but fails its family,
/// the check every decoded index passes before it serves; another point
/// count, or a width of 0, is `Malformed` at decode.
#[test]
fn an_absent_n_kind_of_another_shape_is_rejected() {
    let (family, bytes) = fixture_without_n(9);
    let at = n_kind_at(&family);
    for rows in [family.n_rows() - 1, family.n_rows() + 64] {
        let mut other = bytes.clone();
        other[at..at + 4].copy_from_slice(&rows.to_le_bytes());
        for decode in [decode_copied, decode_in_place] {
            let db = decode(&other).expect("the layout parses");
            assert!(db.check_family(&family).is_err(), "{rows} rows");
        }
    }
    let mut zero_rows = bytes.clone();
    zero_rows[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
    let mut cases = vec![zero_rows];
    for points in [0, N as u64 - 1, N as u64 + 1, u64::MAX] {
        let mut other = bytes.clone();
        other[at + 12..at + 20].copy_from_slice(&points.to_le_bytes());
        cases.push(other);
    }
    for (case, bad) in cases.iter().enumerate() {
        for decode in [decode_copied, decode_in_place] {
            assert!(
                matches!(decode(bad), Err(StoreError::Malformed(_))),
                "case {case}"
            );
        }
    }
}

/// An `M` kind with no scale is `Malformed`, beside a stored `N` kind or
/// an absent one: only the `N` half may be left unsketched.
#[test]
fn an_m_kind_without_scales_is_malformed() {
    let (family, _, whole) = fixture(10);
    let (_, without_n) = fixture_without_n(10);
    let at = n_kind_at(&family);
    for n_kind in [&whole[at..], &without_n[at..]] {
        let mut bytes = whole[..KIND_HEADER].to_vec();
        bytes[4..12].copy_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(n_kind);
        for decode in [decode_copied, decode_in_place] {
            assert!(matches!(decode(&bytes), Err(StoreError::Malformed(_))));
        }
    }
}

/// A stored `N` kind holds every scale the `M` kind holds: one with
/// fewer or more (but some), whose slabs are all present, is `Malformed`.
#[test]
fn an_n_kind_of_another_scale_count_is_malformed() {
    let (family, _, bytes) = fixture(11);
    let at = n_kind_at(&family);
    let slab = N * 8 * family.n_rows().div_ceil(64) as usize;
    let scales = family.top() as usize + 1;
    for count in [1, scales - 1, scales + 1] {
        let mut bad = bytes[..at + KIND_HEADER + count.min(scales) * slab].to_vec();
        if count > scales {
            bad.extend_from_slice(&bytes[at + KIND_HEADER..][..slab]);
        }
        bad[at + 4..at + 12].copy_from_slice(&(count as u64).to_le_bytes());
        for decode in [decode_copied, decode_in_place] {
            assert!(
                matches!(decode(&bad), Err(StoreError::Malformed(_))),
                "{count} N scales"
            );
        }
    }
}
