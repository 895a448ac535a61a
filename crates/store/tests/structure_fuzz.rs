//! Structure-aware fuzz tests over the container and manifest layers.
//!
//! The corruption properties in `corruption_properties.rs` cover bit rot
//! (truncation, bit flips — damage the checksums catch). This file
//! covers *structural* adversaries whose files pass every per-section
//! checksum: sections reordered wholesale, manifests spliced between
//! files, and hostile nested length/count prefixes inside codec
//! payloads, including the raw limb slabs of format v3 (a row count and
//! a row total, zero padding to 8 bytes, then the limbs). The promise is
//! the same at every layer: a typed [`StoreError`], never a panic, and
//! never an allocation sized by attacker-controlled bytes.

use anns_store::{
    scan, section_tag, ByteReader, ByteWriter, Codec, Limbs, Manifest, MappedStore, PayloadSource,
    StoreError, StoreWriter, KIND_BUNDLE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A manifested container with three pseudo-random payload sections.
fn manifested_file(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut writer = StoreWriter::new(KIND_BUNDLE);
    for (i, tag) in [b"META", b"IDXP", b"SHRD"].iter().enumerate() {
        let len = (i * 53) % 160 + 9;
        let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        writer.section(**tag, payload);
    }
    let manifest = Manifest {
        tool: "fuzz/1".into(),
        sections: writer.digests(),
    };
    writer.section(section_tag::MANIFEST, manifest.to_bytes());
    writer.to_bytes()
}

/// Decomposes a valid file into `(tag, payload)` pairs.
fn sections_of(bytes: &[u8]) -> Vec<([u8; 4], Vec<u8>)> {
    let store = MappedStore::from_bytes(bytes.to_vec()).unwrap();
    (0..store.section_count())
        .map(|i| {
            let section = store.section(i).unwrap();
            (section.tag(), section.bytes().unwrap().to_vec())
        })
        .collect()
}

/// Reassembles a container from `(tag, payload)` pairs. Each section's
/// own checksum is recomputed, so the result is *container-valid*: any
/// rejection must come from the structural rules, not from CRCs.
fn reassemble(sections: &[([u8; 4], Vec<u8>)]) -> Vec<u8> {
    let mut writer = StoreWriter::new(KIND_BUNDLE);
    for (tag, payload) in sections {
        writer.section(*tag, payload.clone());
    }
    writer.to_bytes()
}

/// A slab in the v3 layout: `bits u32`, `rows u64`, zero padding to
/// the next multiple of 8, then `rows` rows of `⌈bits/64⌉` random limbs
/// with clean tails.
fn slab_payload(bits: u32, rows: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = ByteWriter::new();
    w.put_u32(bits);
    w.put_u64(rows as u64);
    w.align(8);
    let width = bits.div_ceil(64) as usize;
    for _ in 0..rows {
        for limb in 0..width {
            let bits_here = (bits as usize - 64 * limb).min(64);
            w.put_u64(rng.gen::<u64>() >> (64 - bits_here));
        }
    }
    w.into_bytes()
}

fn read_slab(r: &mut ByteReader<'_>) -> Result<Limbs, StoreError> {
    let bits = r.u32()?;
    let rows = usize::decode(r)?;
    r.align(8)?;
    let limbs = r.limbs(rows, bits)?;
    r.finish()?;
    Ok(limbs)
}

/// Reads a slab payload through a plain reader (which copies) and
/// through a parsed container's owner-carrying reader (which borrows
/// when it can); both must give the same verdict.
fn read_slab_both_ways(bytes: &[u8]) -> Result<Limbs, StoreError> {
    let copied = read_slab(&mut ByteReader::new(bytes));
    let mut writer = StoreWriter::new(KIND_BUNDLE);
    writer.section(*b"SLAB", bytes.to_vec());
    let store = MappedStore::from_bytes(writer.to_bytes()).unwrap();
    let source = PayloadSource::mapped(store.find(*b"SLAB").unwrap());
    let in_place = read_slab(&mut source.reader());
    match (&copied, &in_place) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        _ => panic!("readers disagree: {copied:?} vs {in_place:?}"),
    }
    copied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A slab's row count or row total inflated by any amount is a typed
    /// error on both readers: the size is checked against the bytes
    /// present before anything is reserved.
    #[test]
    fn inflated_slab_headers_are_typed(
        seed in any::<u64>(),
        bits in 1u32..200,
        rows in 1usize..16,
        inflate_rows in any::<bool>(),
        delta in 1u64..u64::MAX / 2,
    ) {
        let mut bytes = slab_payload(bits, rows, seed);
        prop_assert!(read_slab_both_ways(&bytes).is_ok());
        if inflate_rows {
            let hostile = (rows as u64).saturating_add(delta);
            bytes[4..12].copy_from_slice(&hostile.to_le_bytes());
        } else {
            // At least one more limb per row than the bytes hold.
            let hostile = (bits.div_ceil(64) * 64).saturating_add(delta.min(u32::MAX as u64) as u32);
            bytes[0..4].copy_from_slice(&hostile.to_le_bytes());
        }
        prop_assert!(matches!(read_slab_both_ways(&bytes), Err(StoreError::Malformed(_))));
    }

    /// Any nonzero byte in the alignment padding is `Malformed`.
    #[test]
    fn nonzero_slab_padding_is_malformed(
        seed in any::<u64>(),
        at in 12usize..16,
        value in 1u8..=255,
    ) {
        let mut bytes = slab_payload(111, 5, seed);
        bytes[at] = value;
        prop_assert!(matches!(read_slab_both_ways(&bytes), Err(StoreError::Malformed(_))));
    }

    /// Reordering the sections of a manifested file — every individual
    /// checksum still passes — is caught by the manifest rules: either
    /// the digests no longer match in order, or a section now trails the
    /// manifest. Identity permutations still scan clean.
    #[test]
    fn section_reordering_is_never_silent(seed in any::<u64>(), shuffle_seed in any::<u64>()) {
        let original = manifested_file(seed);
        let sections = sections_of(&original);
        let mut order: Vec<usize> = (0..sections.len()).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let shuffled: Vec<_> = order.iter().map(|&i| sections[i].clone()).collect();
        let bytes = reassemble(&shuffled);
        let identity = order.iter().enumerate().all(|(i, &o)| i == o);
        match scan(&bytes[..]) {
            Ok(_) => prop_assert!(identity, "non-identity order {order:?} scanned clean"),
            Err(StoreError::Malformed(_)) => prop_assert!(!identity),
            Err(other) => prop_assert!(false, "wrong error kind: {other:?}"),
        }
    }

    /// Splicing one file's manifest onto another file's sections — the
    /// "rebuilt from two half-bundles" attack, where every section
    /// checksum passes — always trips the manifest cross-check.
    #[test]
    fn manifest_splices_between_files_are_rejected(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        prop_assume!(seed_a != seed_b);
        let file_a = manifested_file(seed_a);
        let file_b = manifested_file(seed_b);
        let mut spliced = sections_of(&file_a);
        let manifest_b = sections_of(&file_b)
            .into_iter()
            .find(|(tag, _)| *tag == section_tag::MANIFEST)
            .expect("file B carries a manifest");
        *spliced.last_mut().unwrap() = manifest_b;
        let bytes = reassemble(&spliced);
        match scan(&bytes[..]) {
            Err(StoreError::Malformed(msg)) => prop_assert!(
                msg.contains("manifest"),
                "rejection must name the manifest: {msg}"
            ),
            other => prop_assert!(false, "splice not rejected: {other:?}"),
        }
    }

    /// Hostile nested length prefixes inside a manifest payload — the
    /// tool-string length and the digest count, repacked so the section
    /// checksum passes — decode to a typed error with allocation capped
    /// by the bytes actually present.
    #[test]
    fn manifest_prefix_mutations_yield_typed_errors(
        seed in any::<u64>(),
        count_attack in any::<bool>(),
        hostile in (200u64..u64::MAX),
    ) {
        let original = manifested_file(seed);
        let mut sections = sections_of(&original);
        let (_, payload) = sections
            .iter_mut()
            .find(|(tag, _)| *tag == section_tag::MANIFEST)
            .expect("manifest present");
        if count_attack {
            // The digest-count prefix sits right after the tool string.
            let tool_len = u64::from_le_bytes(payload[0..8].try_into().unwrap()) as usize;
            let count_at = 8 + tool_len;
            payload[count_at..count_at + 8].copy_from_slice(&hostile.to_le_bytes());
        } else {
            // The tool-string length prefix leads the payload.
            payload[0..8].copy_from_slice(&hostile.to_le_bytes());
        }
        let bytes = reassemble(&sections);
        match scan(&bytes[..]) {
            Err(StoreError::Malformed(_)) => {}
            other => prop_assert!(false, "hostile prefix not rejected: {other:?}"),
        }
    }

    /// The codec's container impls under hostile inner prefixes: a
    /// length-prefixed list of byte strings whose *inner* prefix is
    /// rewritten to an arbitrary value either fails typed or re-decodes
    /// to data actually present in the buffer — never a panic, never an
    /// oversized reservation.
    #[test]
    fn nested_codec_prefix_mutations_never_panic(
        items in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..8),
        which in any::<u64>(),
        hostile in any::<u64>(),
    ) {
        let mut w = ByteWriter::new();
        let vecs: Vec<Vec<u8>> = items;
        vecs.encode(&mut w);
        let mut bytes = w.into_bytes();
        // Locate the chosen item's inner length prefix and overwrite it.
        let target = which as usize % vecs.len();
        let mut offset = 8; // outer count
        for item in vecs.iter().take(target) {
            offset += 8 + item.len();
        }
        bytes[offset..offset + 8].copy_from_slice(&hostile.to_le_bytes());
        match Vec::<Vec<u8>>::from_bytes(&bytes) {
            Ok(decoded) => {
                // A small hostile value can legally re-frame the buffer;
                // whatever decodes must fit in the original bytes.
                let total: usize = decoded.iter().map(Vec::len).sum();
                prop_assert!(total <= bytes.len());
            }
            Err(StoreError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "wrong error kind: {other:?}"),
        }
    }
}

#[test]
fn every_strict_prefix_of_a_slab_is_typed() {
    let bytes = slab_payload(130, 4, 9);
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                read_slab_both_ways(&bytes[..cut]),
                Err(StoreError::Malformed(_))
            ),
            "prefix of {cut} bytes"
        );
    }
    assert_eq!(read_slab_both_ways(&bytes).unwrap().len(), 4 * 3);
}

#[test]
fn reordered_but_unmanifested_files_still_load() {
    // Without a manifest the reorder detector has nothing to pin — the
    // container itself accepts any section order (documented forward
    // compatibility), which is exactly why bundles ship manifests.
    let mut writer = StoreWriter::new(KIND_BUNDLE);
    writer.section(*b"AAAA", vec![1, 2, 3]);
    writer.section(*b"BBBB", vec![4, 5]);
    let sections = sections_of(&writer.to_bytes());
    let swapped = vec![sections[1].clone(), sections[0].clone()];
    let (_, digests, manifest) = scan(&reassemble(&swapped)[..]).unwrap();
    assert_eq!(digests.len(), 2);
    assert!(manifest.is_none());
}
