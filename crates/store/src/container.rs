//! The container's write side: header plus checksummed sections.
//!
//! Each section prelude is `tag/len/crc/pad`, and the writer zero-fills
//! `pad` bytes so every payload starts on a [`SECTION_ALIGN`]-byte file
//! offset — the property that makes payloads directly memory-mappable.
//! The one reader is [`crate::MappedStore`].

use std::io::Write;

use crate::checksum::{crc32, crc32_concat};
use crate::error::StoreError;
use crate::pool::EncodedPool;
use crate::{FORMAT_VERSION, MAGIC, SECTION_ALIGN};

/// A section's four-byte tag.
pub type SectionTag = [u8; 4];

/// Bytes of the fixed file header (magic + version + kind + reserved +
/// section count).
pub const HEADER_BYTES: usize = 12;

/// Bytes of a section prelude (`tag`, `len`, `crc`, `pad`), unchanged
/// since format v2.
pub const SECTION_PRELUDE_BYTES: usize = 16;

/// The fixed-size file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Format version stamped in the file.
    pub version: u16,
    /// Container kind: [`crate::KIND_BUNDLE`] or a scheme kind for
    /// single-scheme files.
    pub kind: u8,
    /// Number of sections that follow.
    pub sections: u32,
}

/// Assembles a store file: sections are buffered, then written with the
/// header in one pass.
///
/// Each payload is digested once as it is appended; the tag-inclusive
/// section checksum is derived by the streaming combine
/// ([`crate::crc32_concat`]) wherever it is needed, so multi-megabyte
/// payloads are hashed exactly once no matter how many times
/// [`StoreWriter::digests`] and [`StoreWriter::write_to`] run.
pub struct StoreWriter {
    kind: u8,
    sections: Vec<(SectionTag, Vec<u8>, u32)>,
}

impl StoreWriter {
    /// A writer for a container of the given kind.
    pub fn new(kind: u8) -> Self {
        StoreWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn section(&mut self, tag: SectionTag, payload: Vec<u8>) -> &mut Self {
        let payload_crc = crc32(&payload);
        self.sections.push((tag, payload, payload_crc));
        self
    }

    /// Appends the `IDXP` section, taking the payload CRC the pool
    /// encoder stitched instead of hashing the pool again.
    pub fn pool_section(&mut self, pool: EncodedPool) -> &mut Self {
        self.sections
            .push((crate::section_tag::INDEX_POOL, pool.bytes, pool.crc));
        self
    }

    /// The tag-inclusive checksum of a section, stitched from the
    /// payload digest computed at append time.
    fn section_crc(tag: &SectionTag, payload_len: usize, payload_crc: u32) -> u32 {
        crc32_concat(crc32(tag), payload_crc, payload_len as u64)
    }

    /// Digests (tag, length, CRC-32) of every section appended so far, in
    /// order — what a writer embeds in a trailing `MNFT` manifest section
    /// (see [`crate::manifest`]).
    pub fn digests(&self) -> Vec<crate::manifest::SectionDigest> {
        self.sections
            .iter()
            .map(
                |(tag, payload, payload_crc)| crate::manifest::SectionDigest {
                    tag: *tag,
                    len: payload.len() as u32,
                    crc: Self::section_crc(tag, payload.len(), *payload_crc),
                },
            )
            .collect()
    }

    /// Writes header and sections to `out`.
    pub fn write_to(&self, out: &mut impl Write) -> Result<(), StoreError> {
        out.write_all(&MAGIC).map_err(StoreError::Io)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())
            .map_err(StoreError::Io)?;
        out.write_all(&[self.kind, 0]).map_err(StoreError::Io)?;
        out.write_all(&(self.sections.len() as u32).to_le_bytes())
            .map_err(StoreError::Io)?;
        let mut offset = HEADER_BYTES;
        for (tag, payload, payload_crc) in &self.sections {
            // The length field is u32: refuse to write what cannot be
            // read back rather than silently truncating the prefix.
            let len: u32 = payload.len().try_into().map_err(|_| {
                StoreError::Unsupported(format!(
                    "section {} is {} bytes; the format caps sections at 4 GiB",
                    String::from_utf8_lossy(tag),
                    payload.len()
                ))
            })?;
            let crc = Self::section_crc(tag, payload.len(), *payload_crc);
            out.write_all(tag).map_err(StoreError::Io)?;
            out.write_all(&len.to_le_bytes()).map_err(StoreError::Io)?;
            out.write_all(&crc.to_le_bytes()).map_err(StoreError::Io)?;
            // Zero-fill so the payload lands on an aligned offset.
            let prelude_end = offset + SECTION_PRELUDE_BYTES;
            let pad = prelude_end.next_multiple_of(SECTION_ALIGN) - prelude_end;
            out.write_all(&(pad as u32).to_le_bytes())
                .map_err(StoreError::Io)?;
            out.write_all(&vec![0u8; pad]).map_err(StoreError::Io)?;
            offset = prelude_end + pad + payload.len();
            out.write_all(payload).map_err(StoreError::Io)?;
        }
        Ok(())
    }

    /// The whole container as bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("Vec write cannot fail");
        buf
    }

    /// Writes the container to a file path.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), StoreError> {
        let file = std::fs::File::create(path).map_err(StoreError::Io)?;
        let mut out = std::io::BufWriter::new(file);
        self.write_to(&mut out)?;
        out.flush().map_err(StoreError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MappedStore, KIND_BUNDLE};

    fn sample() -> Vec<u8> {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"hello".to_vec());
        w.section(*b"IDXP", vec![0u8; 300]);
        w.section(*b"SHRD", Vec::new());
        w.to_bytes()
    }

    #[test]
    fn roundtrip_yields_identical_sections() {
        let store = MappedStore::from_bytes(sample()).unwrap();
        assert_eq!(
            *store.header(),
            StoreHeader {
                version: FORMAT_VERSION,
                kind: KIND_BUNDLE,
                sections: 3
            }
        );
        assert_eq!(store.section_count(), 3);
        let meta = store.section(0).unwrap();
        assert_eq!(meta.tag(), *b"META");
        assert_eq!(meta.bytes().unwrap(), b"hello");
        assert_eq!(store.section(1).unwrap().bytes().unwrap().len(), 300);
        assert!(store.section(2).unwrap().bytes().unwrap().is_empty());
        assert!(store.section(3).is_none());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample();
        bytes[0] = b'J';
        match MappedStore::from_bytes(bytes) {
            Err(StoreError::BadMagic { found }) => assert_eq!(found[0], b'J'),
            Err(other) => panic!("expected BadMagic, got {other:?}"),
            Ok(_) => panic!("expected BadMagic, got a store"),
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut bytes = sample();
        bytes[4] = 99;
        assert!(matches!(
            MappedStore::from_bytes(bytes),
            Err(StoreError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn v1_containers_are_an_unsupported_version() {
        // A hand-written v1 file: header, then one packed 12-byte v1
        // prelude and its payload. The version check refuses it before
        // any prelude is read.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&[KIND_BUNDLE, 0]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(b"META");
        v1.extend_from_slice(&5u32.to_le_bytes());
        v1.extend_from_slice(&crate::crc32_pair(b"META", b"hello").to_le_bytes());
        v1.extend_from_slice(b"hello");
        assert!(matches!(
            MappedStore::from_bytes(v1),
            Err(StoreError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn v2_payloads_are_aligned_in_the_file() {
        let bytes = sample();
        // Walk the raw layout and check every payload offset.
        let mut offset = HEADER_BYTES;
        for _ in 0..3 {
            let pad = u32::from_le_bytes(bytes[offset + 12..offset + 16].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
            let payload_at = offset + SECTION_PRELUDE_BYTES + pad as usize;
            assert_eq!(payload_at % SECTION_ALIGN, 0, "payload at {payload_at}");
            assert!(
                bytes[offset + SECTION_PRELUDE_BYTES..payload_at]
                    .iter()
                    .all(|&b| b == 0),
                "padding is zero-filled"
            );
            offset = payload_at + len as usize;
        }
        assert_eq!(offset, bytes.len());
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let mut bytes = sample();
        let last = bytes.len() - 150; // inside IDXP's payload
        bytes[last] ^= 0x40;
        assert!(matches!(
            MappedStore::from_bytes(bytes),
            Err(StoreError::ChecksumMismatch { tag, .. }) if tag == *b"IDXP"
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_layer() {
        let bytes = sample();
        // Header truncations, then a mid-section one.
        for cut in [0, 3, 5, 7, 9, bytes.len() - 10] {
            assert!(
                matches!(
                    MappedStore::from_bytes(bytes[..cut].to_vec()),
                    Err(StoreError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = StoreWriter::new(7).to_bytes();
        let store = MappedStore::from_bytes(bytes).unwrap();
        assert_eq!(store.header().kind, 7);
        assert_eq!(store.section_count(), 0);
    }
}
