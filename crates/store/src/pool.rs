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

use crate::checksum::crc32;
use crate::codec::decode_capacity;
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

/// Encodes pool payloads into the `IDXP` section layout.
pub fn encode_pool(payloads: &[Vec<u8>]) -> Vec<u8> {
    let table_bytes = payloads.len() * POOL_ENTRY_BYTES;
    let mut entries = Vec::with_capacity(payloads.len());
    let mut offset = (POOL_TABLE_PREFIX_BYTES + table_bytes).next_multiple_of(SECTION_ALIGN);
    for payload in payloads {
        entries.push(PoolEntry {
            offset: offset as u64,
            len: payload.len() as u64,
            crc: crc32(payload),
        });
        offset = (offset + payload.len()).next_multiple_of(SECTION_ALIGN);
    }
    let mut table = Vec::with_capacity(table_bytes);
    for entry in &entries {
        table.extend_from_slice(&entry.offset.to_le_bytes());
        table.extend_from_slice(&entry.len.to_le_bytes());
        table.extend_from_slice(&entry.crc.to_le_bytes());
    }
    let total = entries
        .last()
        .map(|e| (e.offset + e.len) as usize)
        .unwrap_or(POOL_TABLE_PREFIX_BYTES + table_bytes);
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&table).to_le_bytes());
    out.extend_from_slice(&table);
    for (entry, payload) in entries.iter().zip(payloads) {
        out.resize(entry.offset as usize, 0);
        out.extend_from_slice(payload);
    }
    out
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
