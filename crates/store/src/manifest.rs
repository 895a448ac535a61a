//! The self-describing `MNFT` manifest section.
//!
//! A bundle's last section is a manifest listing the digest — tag, length
//! and CRC-32 — of every section written before it, plus the writing
//! tool. It exists for *operators*, not for the decoder (each section is
//! already individually checksummed): `annsctl inspect` and the mount
//! tooling can state the exact provenance of a mounted bundle, and a
//! reader that finds a manifest cross-checks it against the sections it
//! actually saw, so a file spliced together from two half-bundles fails
//! loudly even though every individual section checksum passes.
//!
//! Bundles from before the manifest existed load with
//! `manifest_verified = false` in their mount report. The rules
//! themselves (manifest last, covering every section before it) are
//! enforced by the one parser, [`MappedStore`]; see
//! `docs/STORE_FORMAT.md` for the normative text.

use std::io::Read;

use crate::codec::{ByteReader, ByteWriter, Codec};
use crate::container::StoreHeader;
use crate::error::StoreError;
use crate::mapped::MappedStore;

/// Digest of one section: its tag, payload length, and CRC-32 (the same
/// CRC the section header stores, covering `tag ++ payload`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionDigest {
    /// The section's four-byte tag.
    pub tag: [u8; 4],
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 over `tag ++ payload`.
    pub crc: u32,
}

impl SectionDigest {
    /// The section tag as ASCII where printable (for reports).
    pub fn tag_string(&self) -> String {
        String::from_utf8_lossy(&self.tag).into_owned()
    }
}

impl Codec for SectionDigest {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_raw(&self.tag);
        w.put_u32(self.len);
        w.put_u32(self.crc);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        let tag: [u8; 4] = r.take(4)?.try_into().expect("len 4");
        Ok(SectionDigest {
            tag,
            len: r.u32()?,
            crc: r.u32()?,
        })
    }
}

/// The decoded payload of a `MNFT` section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The writing tool, e.g. `anns-store/1`.
    pub tool: String,
    /// Digest of every section written before the manifest, in file
    /// order.
    pub sections: Vec<SectionDigest>,
}

impl Manifest {
    /// Checks the manifest against the digests of the sections actually
    /// read (excluding the manifest section itself). Order matters: the
    /// manifest pins the exact section layout, not just the set.
    pub fn matches(&self, observed: &[SectionDigest]) -> bool {
        self.sections == observed
    }
}

impl Codec for Manifest {
    fn encode(&self, w: &mut ByteWriter) {
        self.tool.encode(w);
        self.sections.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(Manifest {
            tool: String::decode(r)?,
            sections: Vec::decode(r)?,
        })
    }
}

/// Parses a whole container, returning its header, the digest of every
/// section before the manifest, and the decoded manifest if one is
/// present — without decoding any payload. The cheap "what is this
/// file?" primitive behind multi-bundle mount tooling; the stream is
/// read into memory and every section checksum is verified on the way.
///
/// Fails with [`StoreError::Malformed`] if a manifest is present but does
/// not match the sections that precede it, or breaks any other container
/// rule.
pub fn scan(
    inner: impl Read,
) -> Result<(StoreHeader, Vec<SectionDigest>, Option<Manifest>), StoreError> {
    let store = MappedStore::read(inner)?;
    let mut digests = store.digests();
    let manifest = store.manifest().cloned();
    if manifest.is_some() {
        digests.pop();
    }
    Ok((*store.header(), digests, manifest))
}

/// [`scan`] over a file.
pub fn scan_file(
    path: impl AsRef<std::path::Path>,
) -> Result<(StoreHeader, Vec<SectionDigest>, Option<Manifest>), StoreError> {
    scan(std::fs::File::open(path).map_err(StoreError::Io)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::StoreWriter;
    use crate::KIND_BUNDLE;

    fn bundle_with_manifest() -> Vec<u8> {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"meta".to_vec());
        w.section(*b"SHRD", b"shards".to_vec());
        let manifest = Manifest {
            tool: "test/1".into(),
            sections: w.digests(),
        };
        w.section(crate::section_tag::MANIFEST, manifest.to_bytes());
        w.to_bytes()
    }

    #[test]
    fn scan_returns_digests_and_verified_manifest() {
        let bytes = bundle_with_manifest();
        let (header, digests, manifest) = scan(&bytes[..]).unwrap();
        assert_eq!(header.sections, 3);
        assert_eq!(digests.len(), 2);
        assert_eq!(digests[0].tag, *b"META");
        assert_eq!(digests[0].len, 4);
        assert_eq!(digests[1].tag_string(), "SHRD");
        let manifest = manifest.expect("manifest present");
        assert_eq!(manifest.tool, "test/1");
        assert!(manifest.matches(&digests));
    }

    #[test]
    fn scan_without_manifest_is_fine() {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"x".to_vec());
        let (_, digests, manifest) = scan(&w.to_bytes()[..]).unwrap();
        assert_eq!(digests.len(), 1);
        assert!(manifest.is_none());
    }

    #[test]
    fn spliced_sections_fail_the_manifest_check() {
        // Write a manifest over META only, then append an extra section
        // *before* it by rebuilding the file with a stale manifest.
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"meta".to_vec());
        let stale = Manifest {
            tool: "test/1".into(),
            sections: w.digests(),
        };
        w.section(*b"EVIL", b"spliced-in".to_vec());
        w.section(crate::section_tag::MANIFEST, stale.to_bytes());
        match scan(&w.to_bytes()[..]) {
            Err(StoreError::Malformed(msg)) => assert!(msg.contains("manifest")),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_manifests_are_rejected() {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"meta".to_vec());
        let manifest = Manifest {
            tool: "test/1".into(),
            sections: w.digests(),
        };
        let payload = manifest.to_bytes();
        w.section(crate::section_tag::MANIFEST, payload.clone());
        w.section(crate::section_tag::MANIFEST, payload);
        assert!(matches!(
            scan(&w.to_bytes()[..]),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn sections_after_the_manifest_are_rejected() {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"meta".to_vec());
        let manifest = Manifest {
            tool: "test/1".into(),
            sections: w.digests(),
        };
        w.section(crate::section_tag::MANIFEST, manifest.to_bytes());
        w.section(*b"LATE", b"trailing".to_vec());
        assert!(matches!(
            scan(&w.to_bytes()[..]),
            Err(StoreError::Malformed(_))
        ));
    }

    #[test]
    fn digest_codec_roundtrips() {
        let digest = SectionDigest {
            tag: *b"IDXP",
            len: 123,
            crc: 0xDEAD_BEEF,
        };
        assert_eq!(
            SectionDigest::from_bytes(&digest.to_bytes()).unwrap(),
            digest
        );
    }
}
