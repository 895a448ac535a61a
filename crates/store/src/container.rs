//! The container's write side: header plus checksummed sections.
//!
//! Each section prelude is `tag/len/crc/pad`, and the writer zero-fills
//! `pad` bytes so every payload starts on a [`SECTION_ALIGN`]-byte file
//! offset — the property that makes payloads directly memory-mappable.
//! [`SectionWriter`] writes a file front to back and streams the index
//! pool; [`StoreWriter`] buffers small sections and writes them through
//! it. The one reader is [`crate::MappedStore`].

use std::io::{Seek, SeekFrom, Write};

use crate::checksum::{crc32, crc32_concat, crc32_pair};
use crate::codec::ByteWriter;
use crate::error::StoreError;
use crate::manifest::SectionDigest;
use crate::pool::{stream_pool, write_zeros};
use crate::{section_tag, FORMAT_VERSION, MAGIC, SECTION_ALIGN};

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

/// A section's `u32` length field, or [`StoreError::Unsupported`] for a
/// payload the format cannot describe: refuse to write what cannot be
/// read back rather than silently truncate the prefix.
fn section_len(tag: &SectionTag, len: u64) -> Result<u32, StoreError> {
    len.try_into().map_err(|_| {
        StoreError::Unsupported(format!(
            "section {} is {len} bytes; the format caps sections at 4 GiB",
            String::from_utf8_lossy(tag)
        ))
    })
}

/// A section prelude.
fn prelude(tag: SectionTag, len: u32, crc: u32, pad: usize) -> [u8; SECTION_PRELUDE_BYTES] {
    let mut prelude = [0; SECTION_PRELUDE_BYTES];
    prelude[..4].copy_from_slice(&tag);
    prelude[4..8].copy_from_slice(&len.to_le_bytes());
    prelude[8..12].copy_from_slice(&crc.to_le_bytes());
    prelude[12..].copy_from_slice(&(pad as u32).to_le_bytes());
    prelude
}

/// Writes a store file front to back: the header first, then each
/// section as it is handed over, digesting every section as it goes.
///
/// The header declares the section count up front, and
/// [`SectionWriter::finish`] checks that exactly that many were written.
/// Offsets count from the writer's first byte, which must be the file's
/// first byte for payloads to land aligned in the file.
pub struct SectionWriter<W> {
    out: W,
    /// Bytes written so far.
    offset: u64,
    /// Sections the header declares.
    declared: u32,
    digests: Vec<SectionDigest>,
}

impl<W: Write> SectionWriter<W> {
    /// Writes the header of a container of the given kind holding
    /// `sections` sections.
    pub fn new(mut out: W, kind: u8, sections: u32) -> Result<Self, StoreError> {
        let mut header = [0; HEADER_BYTES];
        header[..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[6] = kind;
        header[8..].copy_from_slice(&sections.to_le_bytes());
        out.write_all(&header)?;
        Ok(SectionWriter {
            out,
            offset: HEADER_BYTES as u64,
            declared: sections,
            digests: Vec::new(),
        })
    }

    /// Zero bytes after a prelude written at the current offset, so its
    /// payload lands aligned.
    fn pad(&self) -> usize {
        let prelude_end = self.offset as usize + SECTION_PRELUDE_BYTES;
        prelude_end.next_multiple_of(SECTION_ALIGN) - prelude_end
    }

    /// Writes one section.
    pub fn section(&mut self, tag: SectionTag, payload: &[u8]) -> Result<(), StoreError> {
        let len = section_len(&tag, payload.len() as u64)?;
        let crc = crc32_pair(&tag, payload);
        let pad = self.pad();
        self.out.write_all(&prelude(tag, len, crc, pad))?;
        write_zeros(&mut self.out, pad as u64)?;
        self.out.write_all(payload)?;
        self.offset += (SECTION_PRELUDE_BYTES + pad + payload.len()) as u64;
        self.digests.push(SectionDigest { tag, len, crc });
        Ok(())
    }

    /// Digests (tag, length, CRC-32) of every section written so far, in
    /// order — what a writer embeds in a trailing `MNFT` manifest section
    /// (see [`crate::manifest`]).
    pub fn digests(&self) -> &[SectionDigest] {
        &self.digests
    }

    /// The output, once every declared section has been written.
    pub fn finish(self) -> Result<W, StoreError> {
        if self.digests.len() != self.declared as usize {
            return Err(StoreError::Malformed(format!(
                "header declares {} sections, {} written",
                self.declared,
                self.digests.len()
            )));
        }
        Ok(self.out)
    }
}

impl<W: Write + Seek> SectionWriter<W> {
    /// Streams the `IDXP` index pool section, one entry per item, which
    /// `encode` writes at its aligned offset (see [`crate::pool`]).
    ///
    /// The prelude goes out with its length and CRC zeroed and the table
    /// as zeros; once the entries have streamed, the writer seeks back
    /// once to stamp prelude and table (they are contiguous) and returns
    /// to the end. The bytes equal those of the whole section written at
    /// once. A pool past the 4 GiB section cap is only known after
    /// streaming: it is [`StoreError::Unsupported`] before the stamp.
    pub fn pool_section<T>(
        &mut self,
        items: &[T],
        encode: impl FnMut(&T, &mut ByteWriter),
    ) -> Result<(), StoreError> {
        let tag = section_tag::INDEX_POOL;
        let pad = self.pad();
        self.out.write_all(&prelude(tag, 0, 0, pad))?;
        write_zeros(&mut self.out, pad as u64)?;
        let pool = stream_pool(&mut self.out, items, encode)?;
        let len = section_len(&tag, pool.len)?;
        let crc = crc32_concat(crc32(&tag), pool.crc, pool.len);

        let mut stamp = prelude(tag, len, crc, pad).to_vec();
        stamp.resize(SECTION_PRELUDE_BYTES + pad, 0);
        stamp.extend_from_slice(&pool.table);
        let written = (SECTION_PRELUDE_BYTES + pad) as i64 + pool.len as i64;
        self.out.seek(SeekFrom::Current(-written))?;
        self.out.write_all(&stamp)?;
        self.out
            .seek(SeekFrom::Current(written - stamp.len() as i64))?;
        self.offset += written as u64;
        self.digests.push(SectionDigest { tag, len, crc });
        Ok(())
    }
}

/// Assembles a small store file in memory: sections are buffered, then
/// written with the header in one pass through a [`SectionWriter`].
/// Hand-built containers (test fixtures, format examples) use it; a
/// bundle save streams through a [`SectionWriter`] directly.
pub struct StoreWriter {
    kind: u8,
    sections: Vec<(SectionTag, Vec<u8>)>,
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
        self.sections.push((tag, payload));
        self
    }

    /// Digests (tag, length, CRC-32) of every section appended so far, in
    /// order — what a writer embeds in a trailing `MNFT` manifest section
    /// (see [`crate::manifest`]).
    pub fn digests(&self) -> Vec<SectionDigest> {
        self.sections
            .iter()
            .map(|(tag, payload)| SectionDigest {
                tag: *tag,
                len: payload.len() as u32,
                crc: crc32_pair(tag, payload),
            })
            .collect()
    }

    /// Writes header and sections to `out`.
    pub fn write_to(&self, out: &mut impl Write) -> Result<(), StoreError> {
        let mut writer = SectionWriter::new(out, self.kind, self.sections.len() as u32)?;
        for (tag, payload) in &self.sections {
            writer.section(*tag, payload)?;
        }
        writer.finish().map(drop)
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
