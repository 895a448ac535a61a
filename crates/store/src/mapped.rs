//! The store's one container parser: header, section preludes and the
//! `MNFT` manifest, over either a file mapping or an owned buffer.
//!
//! [`MappedStore::open`] maps a container and reads *only* its fixed
//! header, the section preludes, and the trailing `MNFT` manifest
//! payload — work proportional to the manifest, not to the index bytes.
//! The manifest is checksum-verified eagerly and cross-checked against
//! the `(tag, len, crc)` triples recorded in the section preludes, so a
//! spliced file still fails loudly at mount without a single payload
//! page being touched. Every other payload stays cold until first touch,
//! at which point a verified-once latch checks its CRC exactly once and
//! replays the verdict (success, or a typed [`PayloadFault`]) to every
//! later reader.
//!
//! [`MappedStore::from_bytes`] (and [`MappedStore::read`] over a stream)
//! runs the same parser over an owned buffer, verifying every section's
//! CRC during the prelude walk — the eager schedule of the heap backend.
//! Either way the parser enforces the container rules of
//! `docs/STORE_FORMAT.md` §1–§4: payloads 64-aligned by file offset and
//! in bounds, no tag twice, `MNFT` last and covering every section
//! before it. Any version other than [`FORMAT_VERSION`] is
//! [`StoreError::UnsupportedVersion`].
//!
//! [`PayloadSource::reader`] hands decoders a reader that keeps the
//! parsed file alive, so database-sketch slabs are scanned in place in
//! the mapping instead of copied to the heap. [`PayloadSource::crc32`]
//! checks a window before that decode by reading it through the file,
//! not the mapping, so the check leaves none of the window's pages in
//! the process's resident set: a slab's pages map in when a scan first
//! reads them. The mapping is private and read-only, but it still reads
//! the file: a bundle file must never be rewritten in place while it is
//! mounted (`Registry::save_bundle` renames a new file over the path
//! instead).

use std::collections::HashSet;
use std::io::Read;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use crate::checksum::{self, crc32_pair};
use crate::codec::ByteReader;
use crate::container::{SectionTag, StoreHeader, HEADER_BYTES, SECTION_PRELUDE_BYTES};
use crate::error::{PayloadFault, StoreError};
use crate::limbs::KeepAlive;
use crate::manifest::{Manifest, SectionDigest};
use crate::{Codec, FORMAT_VERSION, MAGIC, SECTION_ALIGN};

/// The crate's system calls, through a minimal hand-rolled FFI (std
/// already links libc): a read-only mapping of a whole file, a real
/// `mmap(PROT_READ, MAP_PRIVATE)`, and (Linux only) the writeback hint
/// [`crate::writeback`] gives while a save streams. Elsewhere
/// [`MappedStore::open`] reads the file into an owned buffer instead, so
/// every backend-generic caller still compiles and behaves identically,
/// minus the paging benefits, and the hint is a no-op.
#[cfg(unix)]
pub(crate) mod sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sync_file_range(fd: i32, offset: i64, nbytes: i64, flags: u32) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    #[cfg(target_os = "linux")]
    const SYNC_FILE_RANGE_WRITE: u32 = 2;

    /// Asks the kernel to start writing `len` bytes of `file` from `from`
    /// back to the device, and returns without waiting. Advisory: its
    /// error, like a range past `i64`, is ignored, since the caller's
    /// closing `sync_all` alone makes the bytes durable.
    #[cfg(target_os = "linux")]
    pub fn start_writeback(file: &File, from: u64, len: u64) {
        if let (Ok(from), Ok(len)) = (i64::try_from(from), i64::try_from(len)) {
            // SAFETY: the call reads and writes no memory of this
            // process: it takes an open descriptor (`file` keeps it open
            // for the call) and three integers, and only schedules I/O
            // of the file's own page cache.
            unsafe {
                sync_file_range(file.as_raw_fd(), from, len, SYNC_FILE_RANGE_WRITE);
            }
        }
    }

    pub struct Mapping {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: both fields describe one read-only mapping this value owns
    // and never remaps: sending it moves the sole owner, and sharing
    // `&Mapping` across threads only ever reads the mapped bytes.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub fn map(file: &File, len: usize) -> std::io::Result<Mapping> {
            if len == 0 {
                // mmap rejects zero-length maps; an empty file has no
                // bytes to expose anyway.
                return Ok(Mapping {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            // SAFETY: a fresh read-only private mapping at an address
            // the kernel picks aliases no Rust object; `file` keeps the
            // descriptor open for the call, and the mapping outlives it.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // Safety: ptr/len describe a live PROT_READ mapping (or a
            // dangling pointer with len 0, which from_raw_parts allows).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len != 0 {
                // SAFETY: ptr/len are the live mapping `map` made, and no
                // borrow of it outlives `self`: `bytes` borrows `self`, and
                // a borrowed slab holds the store that owns it alive.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

/// Where a store's bytes live.
enum Backing {
    /// A read-only file mapping: pages fault in on first touch. The file
    /// stays open so checksums can read it without touching the mapping.
    #[cfg(unix)]
    Mapped {
        map: sys::Mapping,
        file: std::fs::File,
    },
    /// A file or stream read into memory.
    Owned(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped { map, .. } => map.bytes(),
            Backing::Owned(buf) => buf,
        }
    }
}

/// Bytes [`PayloadSource::crc32`] reads from the file per call to
/// `read_at`: the size of its one buffer.
#[cfg(unix)]
const READ_CHUNK_BYTES: usize = 64 * 1024;

/// CRC-32 of `len` bytes of `file` from offset `at`, read through one
/// reused buffer of at most [`READ_CHUNK_BYTES`]. A file that ends
/// early, or a failed read, is [`PayloadFault::Read`].
#[cfg(unix)]
fn crc32_read_at(file: &std::fs::File, at: u64, len: usize) -> Result<u32, PayloadFault> {
    use std::os::unix::fs::FileExt;
    let mut buf = vec![0u8; len.min(READ_CHUNK_BYTES)];
    let mut crc = 0xFFFF_FFFF;
    let mut done = 0;
    while done < len {
        let chunk = &mut buf[..(len - done).min(READ_CHUNK_BYTES)];
        file.read_exact_at(chunk, at + done as u64)
            .map_err(|e| PayloadFault::Read {
                kind: e.kind(),
                what: format!("{len} bytes at file offset {at}: {e}"),
            })?;
        crc = checksum::update(crc, chunk);
        done += chunk.len();
    }
    Ok(!crc)
}

/// Digest and file offset of one section's payload.
struct SectionMeta {
    digest: SectionDigest,
    payload_offset: usize,
}

struct Inner {
    backing: Backing,
    header: StoreHeader,
    metas: Vec<SectionMeta>,
    /// Per-section verified-once latch: `None` until first touch, then
    /// the permanent verdict.
    verified: Vec<OnceLock<Result<(), PayloadFault>>>,
    manifest: Option<Manifest>,
    eager_bytes: u64,
}

// SAFETY: `Inner` lives only behind an `Arc` and is never mutated: an
// owned buffer is never reallocated, and a mapping stays at one address
// until `Drop`. (A foreign writer of the mapped file is outside what the
// process can guard; the store documents that mounted files must be
// replaced by rename, never rewritten.)
unsafe impl KeepAlive for Inner {
    fn bytes(&self) -> &[u8] {
        self.backing.bytes()
    }
}

/// A parsed container: a file mapping with lazily verified sections,
/// or an owned buffer whose sections were all verified at parse time.
#[derive(Clone)]
pub struct MappedStore {
    inner: Arc<Inner>,
}

impl MappedStore {
    /// Maps `path` and performs the O(manifest) eager work: header and
    /// section-prelude parse, manifest checksum + cross-check. No other
    /// payload bytes are read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        #[cfg(unix)]
        let backing = {
            let file = std::fs::File::open(path).map_err(StoreError::Io)?;
            let file_len = file.metadata().map_err(StoreError::Io)?.len();
            let file_len: usize = file_len
                .try_into()
                .map_err(|_| StoreError::Unsupported("file exceeds the address space".into()))?;
            Backing::Mapped {
                map: sys::Mapping::map(&file, file_len)?,
                file,
            }
        };
        #[cfg(not(unix))]
        let backing = Backing::Owned(std::fs::read(path).map_err(StoreError::Io)?);
        Self::parse(backing, false)
    }

    /// Parses an owned buffer, verifying every section's CRC as its
    /// prelude is walked: a damaged payload fails here, before any later
    /// prelude is trusted.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        Self::parse(Backing::Owned(bytes), true)
    }

    /// Reads a whole stream into memory, then [`MappedStore::from_bytes`].
    /// The buffer grows as bytes arrive, so no header field sizes an
    /// allocation; a short stream is [`StoreError::Truncated`].
    pub fn read(mut inner: impl Read) -> Result<Self, StoreError> {
        let mut bytes = Vec::new();
        inner.read_to_end(&mut bytes).map_err(StoreError::Io)?;
        Self::from_bytes(bytes)
    }

    fn parse(backing: Backing, eager: bool) -> Result<Self, StoreError> {
        let bytes = backing.bytes();
        if let Some(found) = bytes.get(..4).filter(|&magic| magic != MAGIC) {
            return Err(StoreError::BadMagic {
                found: found.try_into().expect("len 4"),
            });
        }
        if bytes.len() < HEADER_BYTES {
            return Err(StoreError::Truncated { context: "header" });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("len 2"));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let header = StoreHeader {
            version,
            kind: bytes[6],
            sections: u32::from_le_bytes(bytes[8..12].try_into().expect("len 4")),
        };
        let mut metas = Vec::with_capacity(crate::codec::decode_capacity(
            header.sections as usize,
            std::mem::size_of::<SectionMeta>(),
        ));
        let mut offset = HEADER_BYTES;
        let mut eager_bytes = HEADER_BYTES as u64;
        for _ in 0..header.sections {
            if bytes.len() < offset + SECTION_PRELUDE_BYTES {
                return Err(StoreError::Truncated {
                    context: "section prelude",
                });
            }
            let prelude = &bytes[offset..offset + SECTION_PRELUDE_BYTES];
            let tag: SectionTag = prelude[..4].try_into().expect("len 4");
            let len = u32::from_le_bytes(prelude[4..8].try_into().expect("len 4"));
            let crc = u32::from_le_bytes(prelude[8..12].try_into().expect("len 4"));
            let pad = u32::from_le_bytes(prelude[12..16].try_into().expect("len 4"));
            eager_bytes += SECTION_PRELUDE_BYTES as u64;
            if pad as usize >= SECTION_ALIGN {
                return Err(StoreError::Malformed(format!(
                    "section padding {pad} exceeds the {SECTION_ALIGN}-byte alignment unit"
                )));
            }
            let payload_offset = offset + SECTION_PRELUDE_BYTES + pad as usize;
            if !payload_offset.is_multiple_of(SECTION_ALIGN) {
                return Err(StoreError::Malformed(format!(
                    "section {} payload at misaligned offset {payload_offset}",
                    String::from_utf8_lossy(&tag)
                )));
            }
            let end = payload_offset
                .checked_add(len as usize)
                .filter(|&end| end <= bytes.len())
                .ok_or(StoreError::Truncated {
                    context: "section payload",
                })?;
            if eager {
                let computed = crc32_pair(&tag, &bytes[payload_offset..end]);
                if computed != crc {
                    return Err(StoreError::ChecksumMismatch {
                        tag,
                        stored: crc,
                        computed,
                    });
                }
                eager_bytes += len as u64;
            }
            metas.push(SectionMeta {
                digest: SectionDigest { tag, len, crc },
                payload_offset,
            });
            offset = end;
        }

        // Container rules, checked before any payload is decoded: the
        // manifest is last, and no tag appears twice (a reader that looks
        // sections up by tag must never have to pick one).
        let manifest_at = metas
            .iter()
            .position(|m| m.digest.tag == crate::section_tag::MANIFEST);
        if manifest_at.is_some_and(|at| at + 1 != metas.len()) {
            return Err(StoreError::Malformed(
                "sections after the manifest are not covered by it".into(),
            ));
        }
        let mut tags = HashSet::with_capacity(metas.len());
        if let Some(dup) = metas.iter().find(|m| !tags.insert(m.digest.tag)) {
            return Err(StoreError::Malformed(format!(
                "duplicate {} section",
                dup.digest.tag_string()
            )));
        }
        let verified: Vec<OnceLock<Result<(), PayloadFault>>> = metas
            .iter()
            .map(|_| {
                if eager {
                    OnceLock::from(Ok(()))
                } else {
                    OnceLock::new()
                }
            })
            .collect();

        // The manifest is the one payload always verified at parse time.
        let mut manifest = None;
        if let Some(at) = manifest_at {
            let SectionMeta {
                digest,
                payload_offset,
            } = metas[at];
            let payload = &bytes[payload_offset..payload_offset + digest.len as usize];
            if !eager {
                let computed = crc32_pair(&digest.tag, payload);
                if computed != digest.crc {
                    return Err(StoreError::ChecksumMismatch {
                        tag: digest.tag,
                        stored: digest.crc,
                        computed,
                    });
                }
                verified[at].set(Ok(())).expect("fresh latch");
                eager_bytes += digest.len as u64;
            }
            let decoded = Manifest::from_bytes(payload)?;
            let observed: Vec<SectionDigest> = metas[..at].iter().map(|m| m.digest).collect();
            if !decoded.matches(&observed) {
                return Err(StoreError::Malformed(
                    "manifest does not match the sections preceding it".into(),
                ));
            }
            manifest = Some(decoded);
        }
        Ok(MappedStore {
            inner: Arc::new(Inner {
                backing,
                header,
                metas,
                verified,
                manifest,
                eager_bytes,
            }),
        })
    }

    /// The validated header.
    pub fn header(&self) -> &StoreHeader {
        &self.inner.header
    }

    /// Total bytes of the file or buffer.
    pub fn file_bytes(&self) -> u64 {
        self.inner.backing.bytes().len() as u64
    }

    /// Bytes examined eagerly at parse time: header and section
    /// preludes, plus the manifest payload (mapped) or every payload
    /// (owned) — the measurable mount cost.
    pub fn eager_bytes(&self) -> u64 {
        self.inner.eager_bytes
    }

    /// The verified manifest, if the file carries one.
    pub fn manifest(&self) -> Option<&Manifest> {
        self.inner.manifest.as_ref()
    }

    /// Digest of every section in file order (the manifest included),
    /// derived from the section preludes without reading any payload.
    pub fn digests(&self) -> Vec<SectionDigest> {
        self.inner.metas.iter().map(|m| m.digest).collect()
    }

    /// Number of sections.
    pub fn section_count(&self) -> usize {
        self.inner.metas.len()
    }

    /// A lazy handle to section `idx` (file order).
    pub fn section(&self, idx: usize) -> Option<LazySection> {
        if idx < self.inner.metas.len() {
            Some(LazySection {
                inner: Arc::clone(&self.inner),
                idx,
            })
        } else {
            None
        }
    }

    /// The section with the given tag (tags are unique in a parsed
    /// store).
    pub fn find(&self, tag: SectionTag) -> Option<LazySection> {
        self.inner
            .metas
            .iter()
            .position(|m| m.digest.tag == tag)
            .and_then(|idx| self.section(idx))
    }
}

/// A clone-able handle to one section, verified on first touch.
#[derive(Clone)]
pub struct LazySection {
    inner: Arc<Inner>,
    idx: usize,
}

impl LazySection {
    fn meta(&self) -> &SectionMeta {
        &self.inner.metas[self.idx]
    }

    /// The section tag.
    pub fn tag(&self) -> SectionTag {
        self.meta().digest.tag
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.meta().digest.len as usize
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The CRC-32 recorded in the section prelude.
    pub fn crc(&self) -> u32 {
        self.meta().digest.crc
    }

    /// The payload bytes with *no* checksum verification — for
    /// callers that bring their own finer-grained digests (the index
    /// pool verifies per entry, so touching one entry doesn't page in
    /// the whole section).
    pub fn raw(&self) -> &[u8] {
        let meta = self.meta();
        &self.inner.backing.bytes()[meta.payload_offset..][..meta.digest.len as usize]
    }

    /// The payload bytes, CRC-verified exactly once: the first call
    /// reads and checks the whole section; every later call replays the
    /// latched verdict without re-hashing.
    pub fn bytes(&self) -> Result<&[u8], StoreError> {
        Ok(self.try_bytes()?)
    }

    /// [`LazySection::bytes`], with the clone-able fault type.
    pub fn try_bytes(&self) -> Result<&[u8], PayloadFault> {
        let raw = self.raw();
        let digest = self.meta().digest;
        let verdict = self.inner.verified[self.idx].get_or_init(|| {
            let computed = crc32_pair(&digest.tag, raw);
            if computed == digest.crc {
                Ok(())
            } else {
                Err(PayloadFault::Checksum {
                    tag: digest.tag,
                    stored: digest.crc,
                    computed,
                })
            }
        });
        verdict.clone().map(|()| raw)
    }

    /// The latched verdict, if this section has been touched.
    pub fn fault(&self) -> Option<PayloadFault> {
        match self.inner.verified[self.idx].get() {
            Some(Err(fault)) => Some(fault.clone()),
            _ => None,
        }
    }
}

/// A window of one section's payload — what registry loaders and pool
/// entries hold, so a pool entry is addressed (and bounds-checked) once
/// and read on demand.
#[derive(Clone)]
pub struct PayloadSource {
    section: LazySection,
    offset: usize,
    len: usize,
}

impl PayloadSource {
    /// A source over a whole section.
    pub fn mapped(section: LazySection) -> Self {
        let len = section.len();
        PayloadSource {
            section,
            offset: 0,
            len,
        }
    }

    /// A bounds-checked sub-window (offsets relative to this source).
    pub fn window(&self, offset: usize, len: usize) -> Result<PayloadSource, StoreError> {
        offset
            .checked_add(len)
            .filter(|&end| end <= self.len)
            .ok_or_else(|| {
                StoreError::Malformed(format!(
                    "window {offset}+{len} exceeds the {} payload bytes",
                    self.len
                ))
            })?;
        Ok(PayloadSource {
            section: self.section.clone(),
            offset: self.offset + offset,
            len,
        })
    }

    /// Window length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes with *no* verification (callers bring their own
    /// digests).
    pub fn raw(&self) -> &[u8] {
        &self.section.raw()[self.offset..self.offset + self.len]
    }

    /// CRC-32 of the window's bytes, for callers that verify a window
    /// against their own digest. Over a mapping the bytes are read
    /// through the file, not the mapping, so the check maps none of the
    /// window's pages into the process; a file that no longer holds the
    /// whole window (truncated under the mount) or a failed read is a
    /// typed [`PayloadFault::Read`]. Over an owned buffer it hashes
    /// [`PayloadSource::raw`].
    pub fn crc32(&self) -> Result<u32, PayloadFault> {
        #[cfg(unix)]
        if let Backing::Mapped { file, .. } = &self.section.inner.backing {
            let at = self.section.meta().payload_offset + self.offset;
            return crc32_read_at(file, at as u64, self.len);
        }
        Ok(crate::crc32(self.raw()))
    }

    /// The bytes, through the owning section's verified-once latch
    /// (typed [`PayloadFault`] on damage).
    pub fn bytes(&self) -> Result<&[u8], PayloadFault> {
        Ok(&self.section.try_bytes()?[self.offset..self.offset + self.len])
    }

    /// A reader over [`PayloadSource::raw`] that keeps the parsed file
    /// alive, so the limb slabs it decodes borrow the file's bytes
    /// instead of copying them. Like `raw`, it verifies nothing.
    pub fn reader(&self) -> ByteReader<'_> {
        ByteReader::with_owner(self.raw(), Arc::clone(&self.section.inner) as _)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::StoreWriter;
    use crate::section_tag::MANIFEST;
    use crate::KIND_BUNDLE;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("anns-store-mapped-{}-{name}", std::process::id()));
        p
    }

    fn write_sample(name: &str, with_manifest: bool) -> std::path::PathBuf {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"META", b"hello".to_vec());
        w.section(*b"IDXP", (0..1000u32).flat_map(u32::to_le_bytes).collect());
        if with_manifest {
            let manifest = Manifest {
                tool: "test/1".into(),
                sections: w.digests(),
            };
            w.section(MANIFEST, manifest.to_bytes());
        }
        let path = temp_path(name);
        w.write_file(&path).unwrap();
        path
    }

    #[test]
    fn open_reads_only_manifest_bytes_eagerly() {
        let path = write_sample("eager", true);
        let store = MappedStore::open(&path).unwrap();
        assert_eq!(store.header().kind, KIND_BUNDLE);
        assert_eq!(store.section_count(), 3);
        assert!(store.manifest().is_some());
        // Eager work: header + 3 preludes + manifest payload — far less
        // than the 4000-byte IDXP section.
        let mnft_len = store.find(MANIFEST).unwrap().len() as u64;
        assert_eq!(store.eager_bytes(), 12 + 3 * 16 + mnft_len);
        assert!(store.eager_bytes() < store.file_bytes() / 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lazy_sections_verify_once_and_latch() {
        let path = write_sample("latch", true);
        let store = MappedStore::open(&path).unwrap();
        let idxp = store.find(*b"IDXP").unwrap();
        assert!(idxp.fault().is_none());
        let bytes = idxp.bytes().unwrap();
        assert_eq!(bytes.len(), 4000);
        assert!(idxp.fault().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn post_open_corruption_surfaces_as_typed_fault_at_first_touch() {
        let path = write_sample("flip", true);
        // Flip a byte inside IDXP *after* the writer finished: open
        // succeeds (O(manifest) — the damage is in a cold payload), and
        // the fault surfaces lazily, typed, on first touch.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.len() - 200; // inside IDXP (MNFT is ~60 bytes)
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let store = MappedStore::open(&path).unwrap();
        let idxp = store.find(*b"IDXP").unwrap();
        let fault = idxp.try_bytes().unwrap_err();
        assert!(matches!(fault, PayloadFault::Checksum { tag, .. } if tag == *b"IDXP"));
        // The verdict is latched and replayed.
        assert_eq!(idxp.fault(), Some(fault.clone()));
        assert_eq!(idxp.try_bytes().unwrap_err(), fault);
        // And converts to the classic typed StoreError.
        assert!(matches!(
            idxp.bytes(),
            Err(StoreError::ChecksumMismatch { tag, .. }) if tag == *b"IDXP"
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_damage_fails_open_eagerly() {
        let path = write_sample("mnft", true);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 4; // inside the MNFT payload
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            MappedStore::open(&path),
            Err(StoreError::ChecksumMismatch { tag, .. }) if tag == MANIFEST
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_an_unsupported_version() {
        // A hand-written v1 header: magic, version 1, bundle kind, zero
        // sections. Format v1 is retired; both schedules refuse it typed.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(&[KIND_BUNDLE, 0]);
        v1.extend_from_slice(&0u32.to_le_bytes());
        let path = temp_path("v1");
        std::fs::write(&path, &v1).unwrap();
        for parsed in [MappedStore::open(&path), MappedStore::from_bytes(v1)] {
            assert!(matches!(
                parsed,
                Err(StoreError::UnsupportedVersion {
                    found: 1,
                    supported: FORMAT_VERSION
                })
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_and_stray_sections_are_malformed_on_both_schedules() {
        let manifested = |tags: &[[u8; 4]]| {
            let mut w = StoreWriter::new(KIND_BUNDLE);
            for tag in tags {
                w.section(*tag, tag.to_vec());
            }
            let manifest = Manifest {
                tool: "test/1".into(),
                sections: w.digests(),
            };
            w.section(MANIFEST, manifest.to_bytes());
            w.to_bytes()
        };
        // A duplicate tag, and a stray MNFT covered by the final manifest.
        for (name, bytes) in [
            ("dup", manifested(&[*b"META", *b"SHRD", *b"META"])),
            ("stray", manifested(&[*b"META", MANIFEST, *b"SHRD"])),
        ] {
            let path = temp_path(name);
            std::fs::write(&path, &bytes).unwrap();
            for parsed in [MappedStore::open(&path), MappedStore::from_bytes(bytes)] {
                assert!(
                    matches!(parsed, Err(StoreError::Malformed(_))),
                    "{name}: {:?}",
                    parsed.map(|_| ())
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn payload_source_windows_are_bounds_checked() {
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"BODY", vec![1, 2, 3, 4, 5]);
        let store = MappedStore::from_bytes(w.to_bytes()).unwrap();
        let src = PayloadSource::mapped(store.find(*b"BODY").unwrap());
        assert_eq!(src.len(), 5);
        let win = src.window(1, 3).unwrap();
        assert_eq!(win.bytes().unwrap(), &[2, 3, 4]);
        assert_eq!(win.raw(), &[2, 3, 4]);
        let sub = win.window(2, 1).unwrap();
        assert_eq!(sub.bytes().unwrap(), &[4]);
        assert!(src.window(4, 2).is_err());
        assert!(src.window(usize::MAX, 1).is_err());
    }

    #[test]
    fn window_crcs_read_the_file_and_type_a_short_read() {
        // A section of 40,000 words: 160,000 bytes, so windows cross the
        // 64 KiB read chunks.
        let words: Vec<u8> = (0..40_000u32).flat_map(u32::to_le_bytes).collect();
        let mut w = StoreWriter::new(KIND_BUNDLE);
        w.section(*b"BODY", words.clone());
        let path = temp_path("crc");
        w.write_file(&path).unwrap();
        let store = MappedStore::open(&path).unwrap();
        let owned = MappedStore::from_bytes(std::fs::read(&path).unwrap()).unwrap();
        for store in [&store, &owned] {
            let src = PayloadSource::mapped(store.find(*b"BODY").unwrap());
            for (offset, len) in [(0, 160_000), (3, 1), (1000, 0), (65_535, 2), (17, 140_000)] {
                let win = src.window(offset, len).unwrap();
                let want = crate::crc32(&words[offset..offset + len]);
                assert_eq!(win.crc32(), Ok(want), "{offset}+{len}");
            }
        }
        // Cut the file inside the section under the mount: a window past
        // the cut is a typed short read, a window before it still
        // verifies, and neither reads the mapping.
        let body = PayloadSource::mapped(store.find(*b"BODY").unwrap());
        let cut = body.section.meta().payload_offset + 100_000;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut as u64).unwrap();
        let before = body.window(0, 100_000).unwrap();
        assert_eq!(before.crc32(), Ok(crate::crc32(&words[..100_000])));
        assert!(matches!(
            body.window(99_000, 2_000).unwrap().crc32(),
            Err(PayloadFault::Read {
                kind: std::io::ErrorKind::UnexpectedEof,
                ..
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_payload_source_defers_to_the_section_latch() {
        let path = write_sample("source", true);
        let store = MappedStore::open(&path).unwrap();
        let src = PayloadSource::mapped(store.find(*b"META").unwrap());
        assert_eq!(src.bytes().unwrap(), b"hello");
        assert_eq!(src.window(1, 3).unwrap().bytes().unwrap(), b"ell");
        std::fs::remove_file(&path).ok();
    }
}
