//! The `IDXP` (index pool) payload layout: a checksummed entry table
//! up front, then [`crate::SECTION_ALIGN`]-aligned, individually
//! CRC'd entry payloads.
//!
//! ```text
//! count      u32                      pool entries
//! table_crc  u32                      crc32 of the table bytes below
//! table      count × { offset u64, len u64, crc u32 }
//! padding    zeros to the next aligned offset
//! payloads   entry bytes at their offsets (aligned, zero-padded apart)
//! ```
//!
//! Offsets are relative to the section payload start; because section
//! payloads are themselves aligned in the file, every entry is aligned
//! in a mapping too. The per-entry CRC is what makes *lazy* loading
//! working-set-proportional: touching one entry verifies that entry's
//! bytes only — the section-level checksum (which would page in the
//! whole pool) is left to the heap backend, which verifies every section
//! when it parses its owned buffer.

use crate::checksum::{crc32, crc32_concat};
use crate::codec::{decode_capacity, ByteWriter};
use crate::error::StoreError;
use crate::SECTION_ALIGN;

/// Bytes of one entry-table row (`offset u64, len u64, crc u32`).
pub const POOL_ENTRY_BYTES: usize = 20;

/// Bytes of the table prefix (`count u32, table_crc u32`).
pub const POOL_TABLE_PREFIX_BYTES: usize = 8;

/// One row of the pool's entry table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolEntry {
    /// Payload offset relative to the section payload start.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the entry payload alone.
    pub crc: u32,
}

/// An encoded `IDXP` payload with its CRC-32, for
/// [`crate::StoreWriter::pool_section`]. Only [`encode_pool_with`]
/// builds one, so the CRC always matches the bytes.
pub struct EncodedPool {
    /// The section payload.
    pub(crate) bytes: Vec<u8>,
    /// `crc32(&bytes)`, stitched rather than re-hashed.
    pub(crate) crc: u32,
}

/// Encodes one pool entry per item straight into the `IDXP` layout:
/// `encode` appends an item's bytes to the section buffer at the
/// entry's aligned offset, so no per-entry buffer is built or copied.
///
/// Every entry is hashed once, as it lands. The payload CRC is then
/// stitched with [`crc32_concat`] from the table region's CRC, each
/// entry CRC and the CRCs of the zero runs between entries, so no entry
/// byte is hashed twice. Entries start [`SECTION_ALIGN`]-aligned in the
/// buffer, so an encoder's [`ByteWriter::align`] to any divisor of it
/// pads exactly as it would in a buffer of its own.
pub fn encode_pool_with<T>(
    items: &[T],
    mut encode: impl FnMut(&T, &mut ByteWriter),
) -> EncodedPool {
    let table_end = POOL_TABLE_PREFIX_BYTES + items.len() * POOL_ENTRY_BYTES;
    let mut w = ByteWriter::new();
    w.put_raw(&vec![0; table_end]);
    let mut entries = Vec::with_capacity(items.len());
    for item in items {
        w.align(SECTION_ALIGN);
        let offset = w.len();
        encode(item, &mut w);
        let payload = &w.as_bytes()[offset..];
        entries.push(PoolEntry {
            offset: offset as u64,
            len: payload.len() as u64,
            crc: crc32(payload),
        });
    }
    let mut bytes = w.into_bytes();
    let mut table = Vec::with_capacity(table_end - POOL_TABLE_PREFIX_BYTES);
    for entry in &entries {
        table.extend_from_slice(&entry.offset.to_le_bytes());
        table.extend_from_slice(&entry.len.to_le_bytes());
        table.extend_from_slice(&entry.crc.to_le_bytes());
    }
    bytes[..4].copy_from_slice(&(items.len() as u32).to_le_bytes());
    bytes[4..8].copy_from_slice(&crc32(&table).to_le_bytes());
    bytes[POOL_TABLE_PREFIX_BYTES..table_end].copy_from_slice(&table);

    // Stitch: the bytes before each entry (table region, then zero
    // padding) are short and hashed here; entries contribute their CRCs.
    let mut crc = crc32(b"");
    let mut at = 0;
    for entry in &entries {
        let gap = &bytes[at..entry.offset as usize];
        crc = crc32_concat(crc, crc32(gap), gap.len() as u64);
        crc = crc32_concat(crc, entry.crc, entry.len);
        at = (entry.offset + entry.len) as usize;
    }
    let rest = &bytes[at..];
    crc = crc32_concat(crc, crc32(rest), rest.len() as u64);
    EncodedPool { bytes, crc }
}

/// Encodes ready-made payloads into the `IDXP` section layout.
pub fn encode_pool(payloads: &[Vec<u8>]) -> Vec<u8> {
    encode_pool_with(payloads, |payload, w| w.put_raw(payload)).bytes
}

/// Decodes and verifies the entry table from a pool section payload.
///
/// Reads only the table prefix — for a mapped section this touches just
/// the leading pages, never the entry payloads. The table carries its
/// own CRC (verified here, eagerly: it is manifest-sized, not
/// pool-sized), and every row is bounds-checked against the section
/// length, so a forged count or offset is a typed error before any
/// entry-sized allocation or read.
pub fn decode_pool_table(payload: &[u8]) -> Result<Vec<PoolEntry>, StoreError> {
    if payload.len() < POOL_TABLE_PREFIX_BYTES {
        return Err(StoreError::Malformed(format!(
            "pool table prefix needs {POOL_TABLE_PREFIX_BYTES} bytes, section has {}",
            payload.len()
        )));
    }
    let count = u32::from_le_bytes(payload[..4].try_into().expect("len 4")) as usize;
    let stored_crc = u32::from_le_bytes(payload[4..8].try_into().expect("len 4"));
    let table_bytes = count.checked_mul(POOL_ENTRY_BYTES).ok_or_else(|| {
        StoreError::Malformed(format!("pool entry count {count} overflows the table size"))
    })?;
    let table_end = POOL_TABLE_PREFIX_BYTES + table_bytes;
    if payload.len() < table_end {
        return Err(StoreError::Malformed(format!(
            "pool table claims {count} entries ({table_bytes} bytes); section has {}",
            payload.len()
        )));
    }
    let table = &payload[POOL_TABLE_PREFIX_BYTES..table_end];
    let computed = crc32(table);
    if computed != stored_crc {
        return Err(StoreError::ChecksumMismatch {
            tag: crate::section_tag::INDEX_POOL,
            stored: stored_crc,
            computed,
        });
    }
    let mut entries = Vec::with_capacity(decode_capacity(count, POOL_ENTRY_BYTES));
    for row in table.chunks_exact(POOL_ENTRY_BYTES) {
        let entry = PoolEntry {
            offset: u64::from_le_bytes(row[..8].try_into().expect("len 8")),
            len: u64::from_le_bytes(row[8..16].try_into().expect("len 8")),
            crc: u32::from_le_bytes(row[16..20].try_into().expect("len 4")),
        };
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or_else(|| StoreError::Malformed("pool entry range overflows".into()))?;
        if end > payload.len() as u64 || entry.offset < table_end as u64 {
            return Err(StoreError::Malformed(format!(
                "pool entry {}+{} outside the {}-byte section",
                entry.offset,
                entry.len,
                payload.len()
            )));
        }
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crc32_pair, MappedStore, StoreWriter, KIND_BUNDLE};
    use proptest::prelude::*;

    /// The pool layout built the two-pass way: each payload in a buffer
    /// of its own, then table and payloads copied into the section.
    fn reference_pool(payloads: &[Vec<u8>]) -> Vec<u8> {
        let table_bytes = payloads.len() * POOL_ENTRY_BYTES;
        let mut offset = (POOL_TABLE_PREFIX_BYTES + table_bytes).next_multiple_of(SECTION_ALIGN);
        let mut table = Vec::new();
        let mut offsets = Vec::new();
        for payload in payloads {
            table.extend_from_slice(&(offset as u64).to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&crc32(payload).to_le_bytes());
            offsets.push(offset);
            offset = (offset + payload.len()).next_multiple_of(SECTION_ALIGN);
        }
        let mut out = (payloads.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(&table).to_le_bytes());
        out.extend_from_slice(&table);
        for (at, payload) in offsets.into_iter().zip(payloads) {
            out.resize(at, 0);
            out.extend_from_slice(payload);
        }
        out
    }

    /// An entry encoder that pads mid-entry, as the db-sketch slabs do.
    fn encode_item((head, slab): &(Vec<u8>, Vec<u8>), w: &mut ByteWriter) {
        w.put_bytes(head);
        w.align(8);
        w.put_raw(slab);
    }

    fn check_in_place_matches_reference(items: &[(Vec<u8>, Vec<u8>)]) {
        let payloads: Vec<Vec<u8>> = items
            .iter()
            .map(|item| {
                let mut w = ByteWriter::new();
                encode_item(item, &mut w);
                w.into_bytes()
            })
            .collect();
        let pool = encode_pool_with(items, encode_item);
        assert_eq!(pool.bytes, reference_pool(&payloads));
        assert_eq!(pool.crc, crc32(&pool.bytes));
        // The tag-inclusive section digest a writer stitches from it.
        let tag = crate::section_tag::INDEX_POOL;
        assert_eq!(
            crc32_concat(crc32(&tag), pool.crc, pool.bytes.len() as u64),
            crc32_pair(&tag, &pool.bytes)
        );
        // A writer handed the CRC writes the file it would hash itself.
        let (mut hashed, mut handed) =
            (StoreWriter::new(KIND_BUNDLE), StoreWriter::new(KIND_BUNDLE));
        hashed.section(tag, pool.bytes.clone());
        handed.pool_section(pool);
        assert_eq!(hashed.digests(), handed.digests());
        let file = handed.to_bytes();
        assert_eq!(file, hashed.to_bytes());
        MappedStore::from_bytes(file).expect("a stitched section verifies");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pools: empty, one entry, and entries of any length,
        /// most of them not a multiple of the alignment.
        #[test]
        fn in_place_pool_matches_the_two_pass_encoder(
            items in prop::collection::vec(
                (
                    prop::collection::vec(any::<u8>(), 0..40),
                    prop::collection::vec(any::<u8>(), 0..300),
                ),
                0..5,
            ),
        ) {
            check_in_place_matches_reference(&items);
        }
    }

    #[test]
    fn in_place_pool_matches_at_the_edges() {
        check_in_place_matches_reference(&[]);
        check_in_place_matches_reference(&[(Vec::new(), Vec::new())]);
        check_in_place_matches_reference(&[(vec![1; 3], vec![2; 61])]);
        check_in_place_matches_reference(&[
            (vec![1; 5], vec![2; 64]),
            (Vec::new(), Vec::new()),
            (vec![3; 17], vec![4; 4097]),
        ]);
    }

    #[test]
    fn roundtrip_preserves_payloads_aligned() {
        let payloads = vec![vec![1u8; 10], Vec::new(), (0..200u8).collect()];
        let encoded = encode_pool(&payloads);
        let entries = decode_pool_table(&encoded).unwrap();
        assert_eq!(entries.len(), 3);
        for (entry, payload) in entries.iter().zip(&payloads) {
            assert_eq!(entry.offset as usize % SECTION_ALIGN, 0);
            let got = &encoded[entry.offset as usize..(entry.offset + entry.len) as usize];
            assert_eq!(got, &payload[..]);
            assert_eq!(entry.crc, crc32(payload));
        }
    }

    #[test]
    fn empty_pool_roundtrips() {
        let encoded = encode_pool(&[]);
        assert!(decode_pool_table(&encoded).unwrap().is_empty());
    }

    #[test]
    fn forged_count_is_typed_not_allocated() {
        // A count claiming billions of entries in a small section fails
        // the table-size bound before any entry-scale reservation.
        let mut bytes = encode_pool(&[vec![7u8; 30]]);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_pool_table(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_table_is_a_checksum_mismatch() {
        let mut bytes = encode_pool(&[vec![7u8; 30], vec![9u8; 5]]);
        bytes[POOL_TABLE_PREFIX_BYTES + 2] ^= 0x80; // inside the table
        assert!(matches!(
            decode_pool_table(&bytes),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        let mut bytes = encode_pool(&[vec![7u8; 30]]);
        // Point the entry past the end of the section.
        let far = (bytes.len() as u64 + 1).to_le_bytes();
        bytes[POOL_TABLE_PREFIX_BYTES..POOL_TABLE_PREFIX_BYTES + 8].copy_from_slice(&far);
        // Re-stamp the table CRC so only the bounds check can object.
        let table_end = POOL_TABLE_PREFIX_BYTES + POOL_ENTRY_BYTES;
        let crc = crc32(&bytes[POOL_TABLE_PREFIX_BYTES..table_end]);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_pool_table(&bytes),
            Err(StoreError::Malformed(_))
        ));
    }
}
