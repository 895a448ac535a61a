//! `anns-store` — the persistent index store's binary container format.
//!
//! The paper's schemes are static data structures: preprocessing is the
//! expensive half, after which a query needs only `k` bounded rounds of
//! reads. That build-once/serve-many split wants a durable artifact — an
//! instance built today must load tomorrow (or in a CI job) in
//! milliseconds and answer *byte-identically*. This crate defines the
//! container those artifacts live in; the entity codecs themselves sit
//! next to the types they persist (`anns_hamming::store`,
//! `anns_sketch::store`, `anns_core::store`, `anns_lsh::store`) and the
//! bundle assembly in `anns_engine::registry`.
//!
//! # Format
//!
//! Everything is little-endian. A store file is:
//!
//! ```text
//! magic      [u8; 4]   = b"ANNS"
//! version    u16       = 3
//! kind       u8        container kind: 0 = registry bundle,
//!                      1.. = single-scheme file of that scheme kind
//! reserved   u8        = 0
//! sections   u32       section count
//! section*   tag [u8;4], len u32, crc32 u32, pad u32,
//!            zeros [u8; pad], payload [u8; len]
//! ```
//!
//! Each section prelude is zero-padded so every payload begins on a
//! [`SECTION_ALIGN`]-byte file offset — the property that lets payloads
//! be memory-mapped in place and verified lazily at first touch instead
//! of at mount. Each payload is covered by a CRC-32 (IEEE) checksum over
//! `tag ++ payload` (padding excluded), so a flipped bit anywhere in a
//! payload surfaces as [`StoreError::ChecksumMismatch`] rather than a
//! silently different index.
//!
//! One parser reads every file: [`MappedStore`], over a file mapping
//! (payloads verified at first touch) or an owned buffer (every payload
//! verified at parse). All decode failures are typed ([`StoreError`]):
//! truncation, foreign magic, version skew, checksum damage, duplicate
//! sections, unknown scheme kinds. Writers close a file with a
//! [`manifest`] (`MNFT`) section pinning the digest of every section
//! before it, and the parser cross-checks it — the normative rules
//! (including unknown-section and forward-compatibility semantics) live
//! in `docs/STORE_FORMAT.md`.
//!
//! # Example
//!
//! Write a two-section container and parse it back, checksums verified:
//!
//! ```
//! use anns_store::{MappedStore, StoreWriter, KIND_BUNDLE};
//!
//! let mut writer = StoreWriter::new(KIND_BUNDLE);
//! writer.section(*b"META", b"hello".to_vec());
//! writer.section(*b"BODY", vec![1, 2, 3]);
//! let bytes = writer.to_bytes();
//!
//! let store = MappedStore::from_bytes(bytes)?;
//! assert_eq!(store.header().kind, KIND_BUNDLE);
//! assert_eq!(store.section_count(), 2);
//! assert_eq!(store.find(*b"META").unwrap().bytes()?, b"hello");
//! # Ok::<(), anns_store::StoreError>(())
//! ```

mod checksum;
mod codec;
mod container;
mod error;
mod limbs;
pub mod manifest;
pub mod mapped;
pub mod pool;
mod writeback;

pub use checksum::{crc32, crc32_concat, crc32_pair};
pub use codec::{
    decode_capacity, encode_slice, ByteReader, ByteWriter, Codec, MAX_DECODE_PREALLOC_BYTES,
};
pub use container::{
    SectionTag, SectionWriter, StoreHeader, StoreWriter, HEADER_BYTES, SECTION_PRELUDE_BYTES,
};
pub use error::{PayloadFault, StoreError};
pub use limbs::Limbs;
pub use manifest::{scan, scan_file, Manifest, SectionDigest};
pub use mapped::{LazySection, MappedStore, PayloadSource};
pub use writeback::{WritebackFile, WRITEBACK_STEP_BYTES};

/// The four magic bytes opening every store file.
pub const MAGIC: [u8; 4] = *b"ANNS";

/// The format version, the only one read or written: sections padded so
/// payloads are [`SECTION_ALIGN`]-aligned and therefore mappable, and
/// database sketches stored as raw 8-aligned limb slabs a mapped reader
/// scans in place. (Versions 1 and 2 are retired; reading them is
/// [`StoreError::UnsupportedVersion`].)
pub const FORMAT_VERSION: u16 = 3;

/// File-offset alignment of every section payload (and of every entry
/// inside a [`pool`] section) — a cache line, so mapped
/// sketch rows never straddle an unaligned boundary.
pub const SECTION_ALIGN: usize = 64;

/// Container kind byte for a registry bundle (several named shards).
pub const KIND_BUNDLE: u8 = 0;

/// Scheme kind tags, shared by single-scheme headers and shard records.
///
/// Kinds `1..=15` are reserved for `anns-core` schemes; `16..` for
/// foreign (baseline) schemes whose payloads other crates own.
pub mod scheme_kind {
    /// Algorithm 1 at a fixed round budget.
    pub const ALG1: u8 = 1;
    /// Algorithm 2 under an `Alg2Config`.
    pub const ALG2: u8 = 2;
    /// The 1-probe λ-ANNS scheme.
    pub const LAMBDA: u8 = 3;
    /// Subsampled repetition over inner schemes (the adaptive-adversary
    /// defense; record carries the wrapper spec plus its inner records).
    pub const SUBSAMPLE: u8 = 4;
    /// First *foreign* kind: records at or above this tag carry a
    /// self-contained opaque payload owned by another crate; records
    /// below it are core specs referencing the bundle's index pool.
    /// Loaders branch on this constant, not a literal.
    pub const FOREIGN_MIN: u8 = 16;
    /// Bit-sampling LSH (payload owned by `anns-lsh`).
    pub const LSH: u8 = 16;
    /// Exact linear scan (payload owned by `anns-lsh`).
    pub const LINEAR: u8 = 17;

    /// Human-readable name of a scheme kind (for `annsctl inspect`).
    pub fn name(kind: u8) -> &'static str {
        match kind {
            ALG1 => "alg1",
            ALG2 => "alg2",
            LAMBDA => "lambda",
            SUBSAMPLE => "subsampled",
            LSH => "lsh",
            LINEAR => "linear",
            _ => "unknown",
        }
    }
}

/// Well-known section tags written by the workspace's encoders.
pub mod section_tag {
    /// Bundle metadata: tool string, index/shard counts, shard directory.
    pub const META: [u8; 4] = *b"META";
    /// Index pool: the deduplicated `AnnIndex` payloads.
    pub const INDEX_POOL: [u8; 4] = *b"IDXP";
    /// Shard list: named scheme records referencing the pool.
    pub const SHARDS: [u8; 4] = *b"SHRD";
    /// Trailing manifest: tool string plus the digest of every preceding
    /// section (see [`crate::manifest`]). Must be the final section.
    pub const MANIFEST: [u8; 4] = *b"MNFT";
}
