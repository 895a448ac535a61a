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
//!
//! The writer streams: [`crate::SectionWriter::pool_section`] writes the
//! table region as zeros, encodes each entry at its aligned offset
//! through a draining [`ByteWriter`] (one reused chunk buffer, each
//! chunk hashed as it is written), then seeks back once to stamp the
//! section prelude and the table. A save therefore holds O(chunk) bytes
//! of the pool, never O(pool), and the bytes are those of an encoder
//! that built the whole section in memory.

use std::io::{self, Read, Write};

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

/// An `IDXP` payload [`stream_pool`] wrote, less its table.
pub(crate) struct StreamedPool {
    /// The table prefix and entry table, to stamp over the zeros
    /// streamed in their place.
    pub(crate) table: Vec<u8>,
    /// Payload length in bytes.
    pub(crate) len: u64,
    /// CRC-32 of the payload as it reads once the table is stamped.
    pub(crate) crc: u32,
}

/// Writes `n` zero bytes.
pub(crate) fn write_zeros(out: &mut dyn Write, n: u64) -> io::Result<()> {
    io::copy(&mut io::repeat(0).take(n), out).map(drop)
}

/// Streams an `IDXP` payload to `out`: the table region as zeros, then
/// one entry per item, which `encode` writes at the entry's aligned
/// offset through a draining [`ByteWriter`].
///
/// Entries start [`SECTION_ALIGN`]-aligned and each gets a writer of its
/// own, so an encoder's [`ByteWriter::align`] to any divisor of it pads
/// exactly as it would in a buffer of its own. Every entry is hashed
/// once, chunk by chunk as it is written. The payload CRC is stitched
/// with [`crc32_concat`] from the table's CRC, the CRCs of the zero runs
/// between entries and each entry CRC, so no entry byte is hashed twice.
/// A write error inside an entry is returned as [`StoreError::Io`] once
/// that entry's encoder returns.
pub(crate) fn stream_pool<T>(
    out: &mut dyn Write,
    items: &[T],
    mut encode: impl FnMut(&T, &mut ByteWriter),
) -> Result<StreamedPool, StoreError> {
    let table_end = (POOL_TABLE_PREFIX_BYTES + items.len() * POOL_ENTRY_BYTES) as u64;
    write_zeros(out, table_end)?;
    let mut entries = Vec::with_capacity(items.len());
    let mut end = table_end;
    let mut buf = Vec::new();
    for item in items {
        let offset = end.next_multiple_of(SECTION_ALIGN as u64);
        write_zeros(out, offset - end)?;
        let mut w = ByteWriter::draining(out, buf);
        encode(item, &mut w);
        let len = w.len() as u64;
        let crc;
        (buf, crc) = w.finish_drain()?;
        entries.push(PoolEntry { offset, len, crc });
        end = offset + len;
    }

    let mut rows = Vec::with_capacity(items.len() * POOL_ENTRY_BYTES);
    for entry in &entries {
        rows.extend_from_slice(&entry.offset.to_le_bytes());
        rows.extend_from_slice(&entry.len.to_le_bytes());
        rows.extend_from_slice(&entry.crc.to_le_bytes());
    }
    let mut table = (items.len() as u32).to_le_bytes().to_vec();
    table.extend_from_slice(&crc32(&rows).to_le_bytes());
    table.extend_from_slice(&rows);

    let mut crc = crc32(&table);
    let mut at = table_end;
    for entry in &entries {
        let gap = entry.offset - at;
        crc = crc32_concat(crc, crc32(&[0; SECTION_ALIGN][..gap as usize]), gap);
        crc = crc32_concat(crc, entry.crc, entry.len);
        at = entry.offset + entry.len;
    }
    Ok(StreamedPool {
        table,
        len: end,
        crc,
    })
}

/// Encodes ready-made payloads into the `IDXP` section layout, in
/// memory: the bytes [`crate::SectionWriter::pool_section`] streams.
pub fn encode_pool(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let pool = stream_pool(&mut bytes, payloads, |payload, w| w.put_raw(payload))
        .expect("Vec write cannot fail");
    bytes[..pool.table.len()].copy_from_slice(&pool.table);
    bytes
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
    use std::io::Cursor;

    use super::*;
    use crate::codec::DRAIN_CHUNK_BYTES;
    use crate::{crc32_pair, MappedStore, SectionWriter, StoreWriter, KIND_BUNDLE};
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

    /// Streams `items` as the middle section of a three-section file and
    /// checks it against the same file with the reference pool buffered.
    fn check_streamed_matches_reference(
        items: &[(Vec<u8>, Vec<u8>)],
        encode: fn(&(Vec<u8>, Vec<u8>), &mut ByteWriter),
    ) {
        let payloads: Vec<Vec<u8>> = items
            .iter()
            .map(|item| {
                let mut w = ByteWriter::new();
                encode(item, &mut w);
                w.into_bytes()
            })
            .collect();
        let reference = reference_pool(&payloads);
        assert_eq!(encode_pool(&payloads), reference);

        let tag = crate::section_tag::INDEX_POOL;
        let mut streamed =
            SectionWriter::new(Cursor::new(Vec::new()), KIND_BUNDLE, 3).expect("header");
        streamed.section(*b"META", b"hello").expect("META");
        streamed.pool_section(items, encode).expect("pool");
        streamed.section(*b"TAIL", b"after the pool").expect("TAIL");
        let digests = streamed.digests().to_vec();
        let file = streamed.finish().expect("all sections").into_inner();

        let mut buffered = StoreWriter::new(KIND_BUNDLE);
        buffered.section(*b"META", b"hello".to_vec());
        buffered.section(tag, reference.clone());
        buffered.section(*b"TAIL", b"after the pool".to_vec());
        assert_eq!(digests, buffered.digests());
        assert_eq!(file, buffered.to_bytes());
        // The stamped prelude's CRC covers the tag and the whole payload.
        assert_eq!(digests[1].crc, crc32_pair(&tag, &reference));
        let store = MappedStore::from_bytes(file).expect("a stamped section verifies");
        assert_eq!(store.find(tag).unwrap().bytes().unwrap(), &reference[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pools: empty, one entry, and entries of any length,
        /// most of them not a multiple of the alignment.
        #[test]
        fn streamed_pool_matches_the_two_pass_encoder(
            items in prop::collection::vec(
                (
                    prop::collection::vec(any::<u8>(), 0..40),
                    prop::collection::vec(any::<u8>(), 0..300),
                ),
                0..5,
            ),
        ) {
            check_streamed_matches_reference(&items, encode_item);
        }
    }

    #[test]
    fn streamed_pool_matches_at_the_edges() {
        check_streamed_matches_reference(&[], encode_item);
        check_streamed_matches_reference(&[(Vec::new(), Vec::new())], encode_item);
        check_streamed_matches_reference(&[(vec![1; 3], vec![2; 61])], encode_item);
        check_streamed_matches_reference(
            &[
                (vec![1; 5], vec![2; 64]),
                (Vec::new(), Vec::new()),
                (vec![3; 17], vec![4; 4097]),
            ],
            encode_item,
        );
    }

    #[test]
    fn streamed_pool_matches_across_drain_chunks() {
        // Entries larger than a drain chunk: one handed over whole by
        // `put_raw`, one byte by byte so every chunk boundary falls
        // mid-entry.
        let big: Vec<u8> = (0..3 * DRAIN_CHUNK_BYTES + 77).map(|i| i as u8).collect();
        let items = [
            (vec![9; 7], big.clone()),
            (Vec::new(), vec![5; 10]),
            (vec![1; 2], big[..DRAIN_CHUNK_BYTES + 1].to_vec()),
        ];
        check_streamed_matches_reference(&items, encode_item);
        check_streamed_matches_reference(&items, |(head, slab), w| {
            w.put_bytes(head);
            w.align(8);
            for &byte in slab {
                w.put_u8(byte);
            }
        });
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
