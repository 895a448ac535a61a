//! Property tests over damaged store files.
//!
//! The container's promise: **no corruption is silent about content**.
//! Every strict prefix of a valid file reads as
//! [`StoreError::Truncated`], and every single-bit flip in a checksummed
//! byte (magic, version, section preludes, payloads) yields a typed
//! error rather than different content. The v2 format adds two
//! *uncovered* regions with no content semantics: the alignment `pad`
//! field (damage shifts the payload window, surfacing as a checksum,
//! alignment, or truncation error) and the zero padding itself (damage
//! there is invisible to the decoder and — the property that matters —
//! cannot change a single decoded byte).

use anns_store::{
    MappedStore, StoreError, StoreWriter, HEADER_BYTES, KIND_BUNDLE, SECTION_PRELUDE_BYTES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A container with several sections of pseudo-random payload.
fn sample_file(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut writer = StoreWriter::new(KIND_BUNDLE);
    for (i, tag) in [b"META", b"IDXP", b"SHRD", b"XTRA"].iter().enumerate() {
        let len = (i * 37) % 200 + 1;
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        writer.section(**tag, payload);
    }
    writer.to_bytes()
}

/// Parses an owned copy, verifying every section; the container-level
/// "load" operation.
fn read_all(bytes: &[u8]) -> Result<usize, StoreError> {
    Ok(MappedStore::from_bytes(bytes.to_vec())?.section_count())
}

/// Reads all payloads (for content-identity checks on padding damage).
fn read_payloads(bytes: &[u8]) -> Result<Vec<Vec<u8>>, StoreError> {
    let store = MappedStore::from_bytes(bytes.to_vec())?;
    (0..store.section_count())
        .map(|i| Ok(store.section(i).expect("in range").bytes()?.to_vec()))
        .collect()
}

/// Where a byte position falls in the v2 layout.
#[derive(Debug, PartialEq)]
enum Region {
    Magic,
    Version,
    /// Kind, reserved, and section count: advisory / legitimately
    /// re-interpretable, excluded from the flip property.
    Advisory,
    /// tag / len / crc prelude fields (checksummed or checksum-bearing).
    Prelude,
    /// The u32 alignment pad field (uncovered, but structural).
    PadField,
    /// Zero padding (uncovered, no content semantics).
    Padding,
    Payload,
}

/// Classifies `pos` by walking the v2 layout of a well-formed file.
fn classify(bytes: &[u8], pos: usize) -> Region {
    match pos {
        0..=3 => return Region::Magic,
        4..=5 => return Region::Version,
        6..=11 => return Region::Advisory,
        _ => {}
    }
    let mut offset = HEADER_BYTES;
    loop {
        let len = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap()) as usize;
        let pad = u32::from_le_bytes(bytes[offset + 12..offset + 16].try_into().unwrap()) as usize;
        let padding_at = offset + SECTION_PRELUDE_BYTES;
        let payload_at = padding_at + pad;
        if pos < offset + 12 {
            return Region::Prelude;
        }
        if pos < padding_at {
            return Region::PadField;
        }
        if pos < payload_at {
            return Region::Padding;
        }
        if pos < payload_at + len {
            return Region::Payload;
        }
        offset = payload_at + len;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any strict prefix is reported as truncation — never a short-but-
    /// plausible read, never a panic.
    #[test]
    fn every_strict_prefix_is_truncated(seed in any::<u64>(), frac in 0.0f64..1.0) {
        let bytes = sample_file(seed);
        let cut = ((bytes.len() as f64) * frac) as usize; // < len since frac < 1
        prop_assert!(cut < bytes.len());
        match read_all(&bytes[..cut]) {
            Err(StoreError::Truncated { .. }) => {}
            other => prop_assert!(false, "cut at {cut}/{}: got {other:?}", bytes.len()),
        }
    }

    /// A single bit flip is a typed error wherever the byte carries
    /// content or structure; flips in the uncovered padding cannot
    /// change decoded content.
    #[test]
    fn every_bit_flip_is_detected(seed in any::<u64>(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = sample_file(seed);
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        let region = classify(&bytes, pos);
        prop_assume!(region != Region::Advisory);
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        let got = read_all(&corrupt);
        match (&got, &region) {
            (Err(StoreError::BadMagic { .. }), Region::Magic) => {}
            (Err(StoreError::UnsupportedVersion { .. }), Region::Version) => {}
            (Err(StoreError::Truncated { .. }), Region::Prelude | Region::Payload)
            | (Err(StoreError::ChecksumMismatch { .. }), Region::Prelude | Region::Payload) => {}
            // Pad-field damage shifts or invalidates the payload window:
            // any typed error is a catch, silence is not.
            (
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Malformed(_),
                ),
                Region::PadField,
            ) => {}
            // Padding has no content semantics: the read must succeed
            // AND decode byte-identical payloads.
            (Ok(4), Region::Padding) => {
                prop_assert_eq!(
                    read_payloads(&corrupt).unwrap(),
                    read_payloads(&bytes).unwrap(),
                    "padding flip changed content"
                );
            }
            _ => prop_assert!(false, "flip at {pos}:{bit} ({region:?}) gave {got:?}"),
        }
    }

    /// Flipping section-count bits can only shrink the visible list or
    /// truncate — it can never invent content or damage what is read.
    #[test]
    fn section_count_damage_is_never_silent_content_change(seed in any::<u64>(), bit in 0u8..8) {
        let original = sample_file(seed);
        let mut bytes = original.clone();
        bytes[8] ^= 1 << bit; // low byte of the u32 section count
        match read_all(&bytes) {
            Err(StoreError::Truncated { .. }) => {} // count grew
            Ok(n) => prop_assert!(n < 4, "count shrank to {n}"),
            other => prop_assert!(false, "got {other:?}"),
        }
    }
}

#[test]
fn double_flips_in_one_section_are_still_caught() {
    // CRC-32 detects all 2-bit errors within its span comfortably below
    // the codeword bound; spot-check pairs inside one payload (IDXP is
    // 38 bytes in this fixture).
    let bytes = sample_file(9);
    let idxp_payload = (0..bytes.len())
        .find(|&p| classify(&bytes, p) == Region::Payload && bytes[p - 1] == 0 && p > 100)
        .expect("IDXP payload start");
    for delta in [1usize, 7, 31, 36] {
        let mut corrupt = bytes.clone();
        let a = idxp_payload + 1;
        let b = a + delta;
        assert_eq!(classify(&bytes, b), Region::Payload);
        corrupt[a] ^= 0x10;
        corrupt[b] ^= 0x01;
        assert!(
            matches!(
                read_all(&corrupt),
                Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Truncated { .. })
            ),
            "double flip at {a},{b} undetected"
        );
    }
}

#[test]
fn valid_file_reads_fully() {
    assert_eq!(read_all(&sample_file(3)).unwrap(), 4);
}
