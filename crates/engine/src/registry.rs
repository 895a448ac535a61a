//! The sharded index registry: every servable instance the engine holds.
//!
//! A *shard* is one built index instance behind the
//! [`ServableScheme`] trait-object surface — an `AnnIndex` served by
//! Algorithm 1 at some `k`, the same index served by Algorithm 2, an LSH
//! baseline, … Each shard owns its own table oracle, so the scheduler's
//! coalescer groups every generation-round's probe addresses *by shard*
//! and dispatches one sorted, deduplicated batch per shard.
//!
//! Registering the same `Arc<AnnIndex>` under several schemes is cheap
//! (the index state is shared); it is the intended way to A/B round
//! budgets or algorithms on live traffic.
//!
//! # Bundles and mounts
//!
//! A registry persists to — and restores from — a binary *bundle*
//! (`anns-store` container). [`Registry::load_bundle`] restores one
//! bundle as a standalone registry; [`Registry::mount`] loads a bundle
//! *into* an existing registry under a **namespace**, prefixing every
//! shard name with `ns/`. Mounting is how a serving tier assembles N
//! data shards side by side: each mount records a [`MountManifest`]
//! (source, section digests, skipped sections, dedup counts), and index
//! payloads that are byte
//! identical across bundles are pooled once — the shards share one
//! `Arc<AnnIndex>` no matter which bundle they arrived in. Atomic
//! replacement of a live mount is the [`crate::MountTable`]'s job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use anns_core::serve::{ServableScheme, ServeAlg1, ServeAlg2, ServeLambda};
use anns_core::{
    Aggregation, Alg2Config, AnnIndex, SchemeSpec, StoredScheme, SubsampledRepetition,
};
use anns_store::pool::decode_pool_table;
use anns_store::{
    ByteReader, ByteWriter, Codec, Manifest, MappedStore, SectionDigest, SectionWriter, StoreError,
};

use crate::lazy::{LazyPool, LazyServable};
use crate::mount::{MountError, MountManifest, StoreBackend};

/// Identifier of a registered shard; stable for the registry's lifetime.
///
/// Across a hot swap the new epoch is a *different* registry: ids are
/// only meaningful against the epoch they were resolved from (route by
/// name — [`crate::NamedRequest`] — when swaps are in play).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ShardId(pub usize);

#[derive(Clone)]
struct Entry {
    name: String,
    scheme: Arc<dyn ServableScheme>,
}

/// One pooled index payload: content digest plus a weak handle, so the
/// pool can deduplicate across mounts without keeping retired indexes
/// alive (the strong references live in the scheme objects).
#[derive(Clone)]
struct PoolSlot {
    len: usize,
    crc: u32,
    index: Weak<AnnIndex>,
}

/// Holds every servable instance, addressable by name or [`ShardId`].
#[derive(Default)]
pub struct Registry {
    entries: Vec<Entry>,
    mounts: Vec<MountManifest>,
    pool: Vec<PoolSlot>,
    /// Deferred index pools of mapped mounts, keyed by namespace. Mapped
    /// bundles skip the byte-dedup `pool` (interning would force every
    /// payload, defeating laziness); their decoded working set is
    /// reported here instead.
    lazy_pools: Vec<(String, Arc<LazyPool>)>,
    epoch: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a scheme under a unique name.
    ///
    /// # Panics
    /// If the name is already taken (shards are static configuration;
    /// colliding names are a deployment bug worth failing loudly on).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        scheme: Box<dyn ServableScheme>,
    ) -> ShardId {
        let name = name.into();
        assert!(
            self.resolve(&name).is_none(),
            "shard name {name:?} already registered"
        );
        self.entries.push(Entry {
            name,
            scheme: Arc::from(scheme),
        });
        ShardId(self.entries.len() - 1)
    }

    /// Registers Algorithm 1 over a built index at round budget `k`.
    pub fn register_alg1(
        &mut self,
        name: impl Into<String>,
        index: Arc<AnnIndex>,
        k: u32,
    ) -> ShardId {
        self.register(
            name,
            Box::new(ServeAlg1 {
                index,
                k,
                tau_override: None,
            }),
        )
    }

    /// Registers Algorithm 2 over a built index, sketching the index's
    /// `N` half now if it is not yet held (Algorithm 2's auxiliary cells
    /// read it).
    pub fn register_alg2(
        &mut self,
        name: impl Into<String>,
        index: Arc<AnnIndex>,
        config: Alg2Config,
    ) -> ShardId {
        index.db_sketches();
        self.register(name, Box::new(ServeAlg2 { index, config }))
    }

    /// Registers the 1-probe λ-ANNS scheme over a built index.
    pub fn register_lambda(
        &mut self,
        name: impl Into<String>,
        index: Arc<AnnIndex>,
        lambda: f64,
    ) -> ShardId {
        self.register(name, Box::new(ServeLambda { index, lambda }))
    }

    /// Looks a shard up by name.
    pub fn resolve(&self, name: &str) -> Option<ShardId> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(ShardId)
    }

    /// The scheme behind a shard id.
    ///
    /// # Panics
    /// If the id is out of range (ids come from this registry's
    /// `register`/`resolve`, so a bad one is a caller bug).
    pub fn scheme(&self, id: ShardId) -> &dyn ServableScheme {
        &*self.entries[id.0].scheme
    }

    /// The shard's registered name.
    pub fn name(&self, id: ShardId) -> &str {
        &self.entries[id.0].name
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(name, scheme label)` of every shard, in id order.
    pub fn listing(&self) -> Vec<(String, String)> {
        self.entries
            .iter()
            .map(|e| (e.name.clone(), e.scheme.label()))
            .collect()
    }

    /// The epoch sequence number stamped by the owning
    /// [`crate::MountTable`] (0 for standalone registries).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Load report of every mounted bundle, mount order.
    pub fn mounts(&self) -> &[MountManifest] {
        &self.mounts
    }

    /// The mount manifest of one namespace, if mounted.
    pub fn manifest(&self, namespace: &str) -> Option<&MountManifest> {
        self.mounts.iter().find(|m| m.namespace == namespace)
    }

    /// Every distinct `AnnIndex` currently alive in the dedup pool, plus
    /// the decoded working set of every mapped mount. Shards that share
    /// an index (same bundle or byte-identical payloads across bundles)
    /// contribute it once; lazily mounted indexes appear only once a
    /// query (or an explicit `ready()`) has forced them.
    pub fn pooled_indexes(&self) -> Vec<Arc<AnnIndex>> {
        let mut indexes: Vec<Arc<AnnIndex>> =
            self.pool.iter().filter_map(|s| s.index.upgrade()).collect();
        for (_, lazy) in &self.lazy_pools {
            indexes.extend(lazy.decoded());
        }
        indexes
    }

    /// One pooled index, for callers that only need dataset geometry
    /// (workload generators, dimension checks): the first heap-pooled
    /// index if any, else the first entry of the first mapped pool —
    /// decoded (and thereby verified) on demand, leaving the rest of
    /// that pool untouched.
    pub fn any_pooled_index(&self) -> Option<Arc<AnnIndex>> {
        if let Some(index) = self.pool.iter().find_map(|s| s.index.upgrade()) {
            return Some(index);
        }
        self.lazy_pools
            .iter()
            .find(|(_, lazy)| !lazy.is_empty())
            .and_then(|(_, lazy)| lazy.get(0).ok())
    }

    /// A cheap structural copy sharing every scheme `Arc` — the "build
    /// the new mount off to the side" primitive behind
    /// [`crate::MountTable`] mutations. Serving state is never mutated in
    /// place.
    pub fn fork(&self) -> Registry {
        Registry {
            entries: self.entries.clone(),
            mounts: self.mounts.clone(),
            pool: self.pool.clone(),
            lazy_pools: self.lazy_pools.clone(),
            epoch: self.epoch,
        }
    }

    /// [`Registry::fork`] minus one namespace's shards and manifest.
    pub(crate) fn fork_without(&self, namespace: &str) -> Registry {
        let dropped: std::collections::HashSet<&str> = self
            .manifest(namespace)
            .map(|m| m.shards.iter().map(String::as_str).collect())
            .unwrap_or_default();
        Registry {
            entries: self
                .entries
                .iter()
                .filter(|e| !dropped.contains(e.name.as_str()))
                .cloned()
                .collect(),
            mounts: self
                .mounts
                .iter()
                .filter(|m| m.namespace != namespace)
                .cloned()
                .collect(),
            pool: self.pool.clone(),
            lazy_pools: self
                .lazy_pools
                .iter()
                .filter(|(ns, _)| ns != namespace)
                .cloned()
                .collect(),
            epoch: self.epoch,
        }
    }

    /// Interns one index payload into the dedup pool: byte-identical
    /// payloads (same length, same CRC-32, same bytes) resolve to the
    /// already-decoded `Arc<AnnIndex>`, so N bundles saved from one build
    /// cost one index in memory. Returns the index and whether it was
    /// shared.
    fn intern(&mut self, payload: &[u8]) -> Result<(Arc<AnnIndex>, bool), StoreError> {
        self.pool.retain(|slot| slot.index.strong_count() > 0);
        let crc = anns_store::crc32(payload);
        for slot in &self.pool {
            if slot.crc == crc && slot.len == payload.len() {
                if let Some(existing) = slot.index.upgrade() {
                    // CRC collisions exist (and store files may be
                    // adversarial), so only byte equality may share. The
                    // re-encode is O(index size), but it runs on the
                    // cold mount path and is still cheaper than the
                    // alternative on a dedup hit: decoding a whole
                    // duplicate index.
                    if existing.to_bytes() == payload {
                        return Ok((existing, true));
                    }
                }
            }
        }
        let index = Arc::new(AnnIndex::from_bytes(payload)?);
        self.pool.push(PoolSlot {
            len: payload.len(),
            crc,
            index: Arc::downgrade(&index),
        });
        Ok((index, false))
    }
}

/// One shard's directory entry in a bundle's `META` section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Registered shard name.
    pub name: String,
    /// Scheme-kind tag (`anns_store::scheme_kind`).
    pub kind: u8,
    /// The scheme's display label at save time.
    pub label: String,
}

/// Bundle metadata: enough for `annsctl inspect` to describe a store file
/// without instantiating any index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BundleMeta {
    /// The writing tool, e.g. `anns-store/1`.
    pub tool: String,
    /// Number of pooled index payloads in the `IDXP` section.
    pub indexes: u32,
    /// Directory of every shard in the `SHRD` section, id order.
    pub shards: Vec<ShardInfo>,
}

impl Codec for ShardInfo {
    fn encode(&self, w: &mut ByteWriter) {
        self.name.encode(w);
        w.put_u8(self.kind);
        self.label.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(ShardInfo {
            name: String::decode(r)?,
            kind: r.u8()?,
            label: String::decode(r)?,
        })
    }
}

impl Codec for BundleMeta {
    fn encode(&self, w: &mut ByteWriter) {
        self.tool.encode(w);
        w.put_u32(self.indexes);
        self.shards.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        Ok(BundleMeta {
            tool: String::decode(r)?,
            indexes: r.u32()?,
            shards: Vec::decode(r)?,
        })
    }
}

/// A reloaded bundle: the registry, plus the pooled indexes for callers
/// (benchmarks, warm-start tooling) that need direct index access.
pub struct LoadedBundle {
    /// The registry with every stored shard re-registered, id order
    /// preserved.
    pub registry: Registry,
    /// The deduplicated `AnnIndex` pool, in stored order. Shards that
    /// shared an index at save time share the same `Arc` again.
    pub indexes: Vec<Arc<AnnIndex>>,
    /// The bundle's metadata section.
    pub meta: BundleMeta,
    /// The load report: provenance, section digests, and — crucially for
    /// version-skew debugging — every section that was *skipped* because
    /// this build does not know its tag.
    pub report: MountManifest,
    /// The deferred index pool of a mapped load (`None` on the heap
    /// path). For mapped loads `indexes` is empty — force entries
    /// through [`LazyPool::get`] instead.
    pub lazy: Option<Arc<LazyPool>>,
}

/// Everything one bundle ingest produced.
struct Ingested {
    manifest: MountManifest,
    indexes: Vec<Arc<AnnIndex>>,
    meta: BundleMeta,
    lazy: Option<Arc<LazyPool>>,
}

impl Registry {
    /// Persists every shard to a binary store bundle.
    ///
    /// Indexes shared by several shards (the A/B pattern: one
    /// `Arc<AnnIndex>` served under Algorithm 1, Algorithm 2 and λ) are
    /// pooled by pointer identity and written once; shard records
    /// reference the pool. The file closes with a `MNFT` manifest section
    /// pinning the digest of every section before it. Fails with
    /// [`StoreError::Unsupported`] if any scheme has no stored form — a
    /// bundle must never silently drop a shard; that check runs before
    /// the first byte is written.
    ///
    /// The index pool streams into `out` through one small reused buffer
    /// and `out` is sought back once to stamp the pool's prelude and
    /// table, so a save never holds a whole bundle in memory (see
    /// [`SectionWriter::pool_section`]). Write to a file, or to a
    /// `Cursor<Vec<u8>>` for the bytes. A write or seek error is
    /// [`StoreError::Io`], and `out` then holds a partial bundle.
    pub fn save_bundle_to(
        &self,
        out: &mut (impl std::io::Write + std::io::Seek),
    ) -> Result<(), StoreError> {
        let mut pool: Vec<Arc<AnnIndex>> = Vec::new();
        let mut pool_ids: HashMap<*const AnnIndex, u32> = HashMap::new();
        let mut shard_records: Vec<(String, StoredScheme)> = Vec::new();
        let mut directory = Vec::new();
        for entry in &self.entries {
            let stored = entry.scheme.stored().ok_or_else(|| {
                StoreError::Unsupported(format!(
                    "shard {:?} ({})",
                    entry.name,
                    entry.scheme.label()
                ))
            })?;
            let mut pool_index = |index: &Arc<AnnIndex>| {
                let ptr = Arc::as_ptr(index);
                *pool_ids.entry(ptr).or_insert_with(|| {
                    pool.push(Arc::clone(index));
                    pool.len() as u32 - 1
                })
            };
            let kind = match &stored {
                StoredScheme::Core { index, spec } => {
                    pool_index(index);
                    spec.kind()
                }
                StoredScheme::Foreign { kind, .. } => *kind,
                StoredScheme::Subsampled { inners, .. } => {
                    for inner in inners {
                        match inner {
                            StoredScheme::Core { index, .. } => {
                                pool_index(index);
                            }
                            StoredScheme::Foreign { .. } => {}
                            // One level only: the record format (and the
                            // wrapper's table-id striding) is flat.
                            StoredScheme::Subsampled { .. } => {
                                return Err(StoreError::Unsupported(format!(
                                    "shard {:?}: nested subsampled repetition",
                                    entry.name
                                )));
                            }
                        }
                    }
                    anns_store::scheme_kind::SUBSAMPLE
                }
            };
            directory.push(ShardInfo {
                name: entry.name.clone(),
                kind,
                label: entry.scheme.label(),
            });
            shard_records.push((entry.name.clone(), stored));
        }

        let meta = BundleMeta {
            tool: format!("anns-store/{}", anns_store::FORMAT_VERSION),
            indexes: pool.len() as u32,
            shards: directory,
        };
        let mut shrd = ByteWriter::new();
        shrd.put_u32(shard_records.len() as u32);
        // Inner records of a subsampled wrapper share the top-level
        // layout (kind byte, then pool reference + spec payload or an
        // opaque foreign payload); nesting is rejected above.
        let flat_record = |shrd: &mut ByteWriter, stored: &StoredScheme| match stored {
            StoredScheme::Core { index, spec } => {
                shrd.put_u8(spec.kind());
                shrd.put_u32(pool_ids[&Arc::as_ptr(index)]);
                spec.encode_payload(shrd);
            }
            StoredScheme::Foreign { kind, payload } => {
                shrd.put_u8(*kind);
                shrd.put_bytes(payload);
            }
            StoredScheme::Subsampled { .. } => unreachable!("nesting rejected during pooling"),
        };
        for (name, stored) in &shard_records {
            name.encode(&mut shrd);
            match stored {
                StoredScheme::Subsampled {
                    sample,
                    seed,
                    agg,
                    inners,
                } => {
                    shrd.put_u8(anns_store::scheme_kind::SUBSAMPLE);
                    SchemeSpec::Subsampled {
                        sample: *sample,
                        seed: *seed,
                        agg: *agg,
                    }
                    .encode_payload(&mut shrd);
                    shrd.put_u32(inners.len() as u32);
                    for inner in inners {
                        flat_record(&mut shrd, inner);
                    }
                }
                flat => flat_record(&mut shrd, flat),
            }
        }

        // Single-scheme files advertise their scheme kind in the header.
        let container_kind = match &meta.shards[..] {
            [only] => only.kind,
            _ => anns_store::KIND_BUNDLE,
        };
        let mut writer = SectionWriter::new(out, container_kind, 4)?;
        writer.section(anns_store::section_tag::META, &meta.to_bytes())?;
        // The pool layout: a CRC'd entry table up front, payloads aligned
        // behind it — the shape that lets a mapped mount read O(table)
        // bytes and verify each index only when a query first touches it.
        // Each index streams to `out` and is hashed once on the way.
        writer.pool_section(&pool, |index, w| index.encode(w))?;
        writer.section(anns_store::section_tag::SHARDS, &shrd.into_bytes())?;
        let manifest = Manifest {
            tool: meta.tool.clone(),
            sections: writer.digests().to_vec(),
        };
        writer.section(anns_store::section_tag::MANIFEST, &manifest.to_bytes())?;
        writer.finish().map(drop)
    }

    /// [`Registry::save_bundle_to`] targeting a file path, atomically:
    /// the bundle is written to a sibling temporary file, synced, and
    /// renamed over `path`. A bundle mounted from `path` keeps reading
    /// the old file, which a mapped mount scans in place; rewriting that
    /// file's bytes would change them under the live mapping.
    pub fn save_bundle(&self, path: impl AsRef<std::path::Path>) -> Result<(), StoreError> {
        static SAVES: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SAVES.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = std::path::PathBuf::from(tmp);
        let written = (|| -> Result<(), StoreError> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            self.save_bundle_to(&mut out)?;
            out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp, path)?;
            // Make the rename itself durable.
            #[cfg(unix)]
            {
                let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
                std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()?;
            }
            Ok(())
        })();
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    /// Mounts a bundle file into this registry under a namespace: every
    /// shard registers as `namespace/name`, index payloads deduplicate
    /// against the pool, and the returned [`MountManifest`] records the
    /// bundle's provenance (it is also kept in [`Registry::mounts`]).
    pub fn mount(
        &mut self,
        namespace: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<MountManifest, MountError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path).map_err(StoreError::Io)?;
        self.mount_from(namespace, file, path.display().to_string())
    }

    /// [`Registry::mount`] over any byte stream, with a caller-supplied
    /// source label for the manifest.
    pub fn mount_from(
        &mut self,
        namespace: &str,
        inner: impl std::io::Read,
        source: impl Into<String>,
    ) -> Result<MountManifest, MountError> {
        self.check_namespace(namespace)?;
        let ingested = self.ingest(namespace, source.into(), StoreBackend::Heap, || {
            MappedStore::read(inner)
        })?;
        Ok(ingested.manifest)
    }

    /// Reads a bundle stream into a fresh registry.
    ///
    /// The stream is read into memory, every section checksum verified,
    /// every index decoded, and the buffer dropped again — the registry
    /// keeps only the decoded indexes. Unknown sections are skipped for
    /// forward compatibility but recorded in the returned
    /// [`LoadedBundle::report`]; unknown *scheme kinds* are an error,
    /// because dropping a shard would change serving behavior.
    pub fn load_bundle_from(inner: impl std::io::Read) -> Result<LoadedBundle, StoreError> {
        Self::load_bundle_labeled(inner, "<stream>")
    }

    /// [`Registry::load_bundle_from`] with a source label for the report.
    pub fn load_bundle_labeled(
        inner: impl std::io::Read,
        source: impl Into<String>,
    ) -> Result<LoadedBundle, StoreError> {
        Self::load_fresh(source.into(), StoreBackend::Heap, || {
            MappedStore::read(inner)
        })
    }

    /// [`Registry::load_bundle_from`] over a file.
    pub fn load_bundle(path: impl AsRef<std::path::Path>) -> Result<LoadedBundle, StoreError> {
        let path = path.as_ref();
        Self::load_fresh(path.display().to_string(), StoreBackend::Heap, || {
            MappedStore::from_bytes(std::fs::read(path).map_err(StoreError::Io)?)
        })
    }

    /// Mounts a bundle through the mmap backend: `namespace/name` shards
    /// whose indexes verify and decode on first query touch. Eager work
    /// is O(manifest) — header, section preludes, `META`/`SHRD`/`MNFT`
    /// payloads and the pool's entry table — so mount time and resident
    /// memory do not scale with the bundle's index payloads.
    pub fn mount_mapped(
        &mut self,
        namespace: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<MountManifest, MountError> {
        self.check_namespace(namespace)?;
        let path = path.as_ref();
        let ingested = self.ingest(
            namespace,
            path.display().to_string(),
            StoreBackend::Mmap,
            || MappedStore::open(path),
        )?;
        Ok(ingested.manifest)
    }

    /// Loads a bundle into a fresh registry through the mmap backend.
    /// [`LoadedBundle::indexes`] is empty (nothing decoded yet); the
    /// deferred pool is in [`LoadedBundle::lazy`].
    pub fn load_bundle_mapped(
        path: impl AsRef<std::path::Path>,
    ) -> Result<LoadedBundle, StoreError> {
        let path = path.as_ref();
        Self::load_fresh(path.display().to_string(), StoreBackend::Mmap, || {
            MappedStore::open(path)
        })
    }

    /// [`Registry::mount`] or [`Registry::mount_mapped`], by backend.
    pub(crate) fn mount_file(
        &mut self,
        namespace: &str,
        path: &std::path::Path,
        backend: StoreBackend,
    ) -> Result<MountManifest, MountError> {
        match backend {
            StoreBackend::Heap => self.mount(namespace, path),
            StoreBackend::Mmap => self.mount_mapped(namespace, path),
        }
    }

    fn check_namespace(&self, namespace: &str) -> Result<(), MountError> {
        if namespace.is_empty() || namespace.contains('/') {
            return Err(MountError::InvalidNamespace(namespace.to_string()));
        }
        if self.manifest(namespace).is_some() {
            return Err(MountError::AlreadyMounted(namespace.to_string()));
        }
        Ok(())
    }

    fn load_fresh(
        source: String,
        backend: StoreBackend,
        open: impl FnOnce() -> Result<MappedStore, StoreError>,
    ) -> Result<LoadedBundle, StoreError> {
        let mut registry = Registry::new();
        let ingested = registry.ingest("", source, backend, open)?;
        Ok(LoadedBundle {
            registry,
            indexes: ingested.indexes,
            meta: ingested.meta,
            report: ingested.manifest,
            lazy: ingested.lazy,
        })
    }

    /// The one bundle ingest behind every load and mount (namespace `""`
    /// for a fresh registry). `open` parses the container; the backend
    /// then decides only how shards come alive:
    ///
    /// * **heap** — the parser verified every section of its owned
    ///   buffer, so every pool entry is decoded now (through the
    ///   cross-bundle [`Registry::intern`] dedup) and every shard
    ///   instantiated; the buffer is dropped on return.
    /// * **mmap** — the pool stays a [`LazyPool`] over the mapping and
    ///   shards register as [`LazyServable`]s, so no index payload is
    ///   read, hashed or decoded until a query first touches its shard.
    ///
    /// Either way `META`, `SHRD` and the pool table are parsed now, pool
    /// references are validated, and a failure leaves the registry
    /// exactly as it was.
    fn ingest(
        &mut self,
        namespace: &str,
        source: String,
        backend: StoreBackend,
        open: impl FnOnce() -> Result<MappedStore, StoreError>,
    ) -> Result<Ingested, StoreError> {
        use anns_store::section_tag::{INDEX_POOL, MANIFEST, META, SHARDS};
        let started = std::time::Instant::now();
        let store = open()?;
        let header = *store.header();
        let sections = store.digests();
        // Tags are unique in a parsed store, so every section with a tag
        // this build does not know is exactly the set left unread.
        let skipped: Vec<SectionDigest> = sections
            .iter()
            .filter(|d| ![META, INDEX_POOL, SHARDS, MANIFEST].contains(&d.tag))
            .copied()
            .collect();
        let meta_section = store.find(META);
        let meta = match &meta_section {
            Some(section) => BundleMeta::from_bytes(section.bytes()?)?,
            None => BundleMeta::default(),
        };
        let shrd = store
            .find(SHARDS)
            .ok_or_else(|| StoreError::Malformed("bundle has no SHRD section".into()))?;
        let records = parse_shard_records(shrd.bytes()?)?;
        let idxp = store.find(INDEX_POOL);
        let prefix = if namespace.is_empty() {
            String::new()
        } else {
            format!("{namespace}/")
        };

        let first_new_entry = self.entries.len();
        let mut indexes: Vec<Arc<AnnIndex>> = Vec::new();
        let mut lazy: Option<Arc<LazyPool>> = None;
        let mut shared = 0u32;
        let result: Result<Vec<String>, StoreError> = (|| {
            let pool_len = match backend {
                StoreBackend::Heap => {
                    if let Some(section) = &idxp {
                        // Verified whole at parse time, so the per-entry
                        // CRCs are not re-checked here.
                        let payload = section.bytes()?;
                        for entry in decode_pool_table(payload)? {
                            let bytes = &payload[entry.offset as usize..][..entry.len as usize];
                            let (index, was_shared) = self.intern(bytes)?;
                            shared += u32::from(was_shared);
                            indexes.push(index);
                        }
                    }
                    indexes.len()
                }
                StoreBackend::Mmap => lazy.insert(Arc::new(LazyPool::new(idxp)?)).len(),
            };
            let mut shard_names = Vec::with_capacity(records.len());
            for (i, (name, record)) in records.into_iter().enumerate() {
                // Pool references are validated now, not at first touch:
                // a dangling id is a malformed file, not deferred damage.
                if let Some(max) = record.max_pool_id() {
                    if max as usize >= pool_len {
                        return Err(StoreError::Malformed(format!(
                            "shard {name:?} references index {max} of {pool_len}"
                        )));
                    }
                }
                let full = format!("{prefix}{name}");
                if self.resolve(&full).is_some() {
                    return Err(StoreError::Malformed(format!(
                        "duplicate shard name {full:?}"
                    )));
                }
                let scheme: Box<dyn ServableScheme> = match &lazy {
                    None => instantiate_record(&name, &record, &mut |id| {
                        Ok(Arc::clone(&indexes[id as usize]))
                    })?,
                    Some(pool) => {
                        let label = meta
                            .shards
                            .get(i)
                            .map(|info| info.label.clone())
                            .unwrap_or_else(|| format!("{full} (deferred)"));
                        Box::new(LazyServable::new(
                            full.clone(),
                            label,
                            record,
                            Arc::clone(pool),
                        ))
                    }
                };
                shard_names.push(full.clone());
                self.register(full, scheme);
            }
            Ok(shard_names)
        })();
        let shard_names = match result {
            Ok(names) => names,
            Err(e) => {
                // Dropping the partial entries and local index handles
                // lets the pool prune to the slots that were alive
                // before this ingest started.
                self.entries.truncate(first_new_entry);
                indexes.clear();
                self.pool.retain(|slot| slot.index.strong_count() > 0);
                return Err(e);
            }
        };

        let file_bytes: u64 = sections.iter().map(|d| d.len as u64).sum();
        let (pooled, eager_bytes) = match &lazy {
            // The heap backend reads and checksums every payload byte.
            None => (indexes.len() as u32 - shared, file_bytes),
            // Nothing decoded yet, and mapped mounts skip cross-bundle
            // byte dedup (interning would force every payload).
            Some(pool) => (
                pool.len() as u32,
                store.eager_bytes()
                    + meta_section.map_or(0, |s| s.len() as u64)
                    + shrd.len() as u64
                    + pool.table_bytes(),
            ),
        };
        let manifest = MountManifest {
            namespace: namespace.to_string(),
            source,
            format_version: header.version,
            container_kind: header.kind,
            tool: meta.tool.clone(),
            sections,
            skipped,
            shards: shard_names,
            pooled,
            shared,
            manifest_verified: store.manifest().is_some(),
            backend,
            mount_ms: started.elapsed().as_secs_f64() * 1e3,
            eager_bytes,
            file_bytes,
        };
        self.mounts.push(manifest.clone());
        if let Some(pool) = &lazy {
            self.lazy_pools
                .push((namespace.to_string(), Arc::clone(pool)));
        }
        Ok(Ingested {
            manifest,
            indexes,
            meta,
            lazy,
        })
    }
}

/// Parses a `SHRD` payload: a `u32` count, then `(name, kind, record)`
/// triples.
fn parse_shard_records(bytes: &[u8]) -> Result<Vec<(String, ShardRecord)>, StoreError> {
    let mut r = ByteReader::new(bytes);
    let count = r.u32()?;
    let mut records = Vec::new();
    for _ in 0..count {
        let name = String::decode(&mut r)?;
        let kind = r.u8()?;
        let record = parse_shard_record(&name, kind, &mut r, false)?;
        records.push((name, record));
    }
    r.finish()?;
    Ok(records)
}

/// One shard's parsed `SHRD` record: the manifest-sized *description* of
/// a shard, split from instantiation so a mapped mount can parse (and
/// validate) every record eagerly while deferring the expensive part —
/// decoding the pooled indexes a record references — to first touch.
#[derive(Clone, Debug)]
pub(crate) enum ShardRecord {
    /// A core scheme over a pooled index.
    Core {
        /// Position in the bundle's `IDXP` pool.
        pool_id: u32,
        /// The scheme's stored parameters.
        spec: SchemeSpec,
    },
    /// An opaque foreign scheme owned by `anns-lsh`.
    Foreign {
        /// Scheme-kind tag (`>= FOREIGN_MIN`).
        kind: u8,
        /// The scheme's self-contained payload (indexes inline, no pool).
        payload: Vec<u8>,
    },
    /// The subsampled-repetition wrapper over flat inner records.
    Subsampled {
        /// Tables sampled per replica per query.
        sample: u32,
        /// Seed of the per-query sampling stream.
        seed: u64,
        /// How replica answers combine.
        agg: Aggregation,
        /// Inner records (never `Subsampled`; one level only).
        inners: Vec<ShardRecord>,
    },
}

impl ShardRecord {
    /// The highest pool id this record (or any inner) references, if any
    /// — lets a mapped mount validate pool references at mount time, so
    /// a dangling id is a malformed file rather than deferred damage.
    pub(crate) fn max_pool_id(&self) -> Option<u32> {
        match self {
            ShardRecord::Core { pool_id, .. } => Some(*pool_id),
            ShardRecord::Foreign { .. } => None,
            ShardRecord::Subsampled { inners, .. } => {
                inners.iter().filter_map(ShardRecord::max_pool_id).max()
            }
        }
    }
}

/// Parses one shard record (kind byte already read). Core kinds carry a
/// pool reference plus a spec payload; foreign kinds an opaque payload;
/// `SUBSAMPLE` records the wrapper spec plus a flat list of inner
/// records in this same layout. `nested` guards the one-level rule — a
/// subsampled record inside a subsampled record is malformed, not merely
/// unsupported, because no writer in this workspace ever produces it.
pub(crate) fn parse_shard_record(
    name: &str,
    kind: u8,
    r: &mut ByteReader<'_>,
    nested: bool,
) -> Result<ShardRecord, StoreError> {
    if kind == anns_store::scheme_kind::SUBSAMPLE {
        if nested {
            return Err(StoreError::Malformed(format!(
                "shard {name:?}: nested subsampled repetition"
            )));
        }
        let SchemeSpec::Subsampled { sample, seed, agg } = SchemeSpec::decode_kind(kind, r)? else {
            unreachable!("SUBSAMPLE kind decodes to SchemeSpec::Subsampled")
        };
        let count = r.u32()?;
        if count == 0 || count as usize > SubsampledRepetition::MAX_REPLICAS {
            return Err(StoreError::Malformed(format!(
                "shard {name:?}: {count} subsampled replicas (1..={} allowed)",
                SubsampledRepetition::MAX_REPLICAS
            )));
        }
        let mut inners: Vec<ShardRecord> = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let inner_kind = r.u8()?;
            inners.push(parse_shard_record(name, inner_kind, r, true)?);
        }
        return Ok(ShardRecord::Subsampled {
            sample,
            seed,
            agg,
            inners,
        });
    }
    if kind < anns_store::scheme_kind::FOREIGN_MIN {
        let pool_id = r.u32()?;
        let spec = SchemeSpec::decode_kind(kind, r)?;
        Ok(ShardRecord::Core { pool_id, spec })
    } else {
        Ok(ShardRecord::Foreign {
            kind,
            payload: r.bytes()?.to_vec(),
        })
    }
}

/// Instantiates a parsed record into a servable scheme, resolving pool
/// references through `lookup` — eager decoded indexes on the heap path,
/// [`LazyPool::get`] on the mapped path.
pub(crate) fn instantiate_record(
    name: &str,
    record: &ShardRecord,
    lookup: &mut dyn FnMut(u32) -> Result<Arc<AnnIndex>, StoreError>,
) -> Result<Box<dyn ServableScheme>, StoreError> {
    match record {
        ShardRecord::Core { pool_id, spec } => Ok(spec.clone().instantiate(lookup(*pool_id)?)),
        ShardRecord::Foreign { kind, payload } => anns_lsh::decode_foreign_scheme(*kind, payload),
        ShardRecord::Subsampled {
            sample,
            seed,
            agg,
            inners,
        } => {
            let mut schemes: Vec<Arc<dyn ServableScheme>> = Vec::with_capacity(inners.len());
            for inner in inners {
                schemes.push(Arc::from(instantiate_record(name, inner, lookup)?));
            }
            let wrapped = SubsampledRepetition::new(schemes, *sample, *seed, *agg)
                .map_err(|e| StoreError::Malformed(format!("shard {name:?}: {e}")))?;
            Ok(Box::new(wrapped))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use anns_core::BuildOptions;
    use anns_hamming::gen;
    use anns_sketch::SketchParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_index() -> Arc<AnnIndex> {
        let mut rng = StdRng::seed_from_u64(50);
        let ds = gen::uniform(32, 64, &mut rng);
        Arc::new(AnnIndex::build(
            ds,
            SketchParams::practical(2.0, 50),
            BuildOptions::default(),
        ))
    }

    #[test]
    fn register_resolve_roundtrip() {
        let index = small_index();
        let mut reg = Registry::new();
        let a = reg.register_alg1("alg1-k3", Arc::clone(&index), 3);
        let b = reg.register_alg2("alg2-k8", Arc::clone(&index), Alg2Config::with_k(8));
        let c = reg.register_lambda("lambda-4", index, 4.0);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.resolve("alg1-k3"), Some(a));
        assert_eq!(reg.resolve("alg2-k8"), Some(b));
        assert_eq!(reg.resolve("lambda-4"), Some(c));
        assert_eq!(reg.resolve("nope"), None);
        assert_eq!(reg.name(b), "alg2-k8");
        assert_eq!(reg.scheme(a).label(), "alg1[k=3]");
        let listing = reg.listing();
        assert_eq!(listing[2], ("lambda-4".into(), "lambda[4]".into()));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_are_rejected() {
        let index = small_index();
        let mut reg = Registry::new();
        reg.register_alg1("x", Arc::clone(&index), 2);
        reg.register_alg1("x", index, 3);
    }

    #[test]
    fn fork_shares_schemes_and_serves_identically() {
        let index = small_index();
        let mut reg = Registry::new();
        let id = reg.register_alg1("a", Arc::clone(&index), 2);
        let fork = reg.fork();
        assert_eq!(fork.len(), 1);
        assert_eq!(fork.resolve("a"), Some(id));
        // Same trait object, not a copy.
        assert!(std::ptr::eq(reg.scheme(id), fork.scheme(id)));
    }

    #[test]
    fn subsampled_shard_roundtrips_through_a_bundle() {
        use anns_cellprobe::{ExecOptions, RoundExecutor};
        use anns_core::serve::ServeAlg1;
        use anns_core::Aggregation;

        let mut rng = StdRng::seed_from_u64(51);
        let inst = gen::planted(48, 96, 4, &mut rng);
        let shared = Arc::new(AnnIndex::build(
            inst.dataset.clone(),
            SketchParams::practical(2.0, 60),
            BuildOptions::default(),
        ));
        let other = Arc::new(AnnIndex::build(
            inst.dataset,
            SketchParams::practical(2.0, 61),
            BuildOptions::default(),
        ));
        let inners: Vec<Arc<dyn ServableScheme>> = vec![
            Arc::new(ServeAlg1 {
                index: Arc::clone(&shared),
                k: 2,
                tau_override: None,
            }),
            Arc::new(ServeAlg1 {
                index: Arc::clone(&other),
                k: 2,
                tau_override: None,
            }),
            Arc::new(ServeAlg1 {
                index: Arc::clone(&shared),
                k: 3,
                tau_override: None,
            }),
        ];
        let wrapper = SubsampledRepetition::new(inners, 2, 99, Aggregation::BestOf).unwrap();
        let mut reg = Registry::new();
        // A plain shard over the same index, to exercise pool sharing
        // between top-level and inner records.
        reg.register_alg1("plain", Arc::clone(&shared), 2);
        reg.register("defended", Box::new(wrapper));
        let mut bytes = Cursor::new(Vec::new());
        reg.save_bundle_to(&mut bytes).unwrap();
        let bytes = bytes.into_inner();

        let bundle = Registry::load_bundle_from(&bytes[..]).unwrap();
        // Two distinct indexes total: `shared` is pooled once across
        // three references (plain shard + two inner replicas).
        assert_eq!(bundle.registry.pooled_indexes().len(), 2);
        let id = bundle.registry.resolve("defended").unwrap();
        let loaded = bundle.registry.scheme(id);
        let orig_id = reg.resolve("defended").unwrap();
        let orig = reg.scheme(orig_id);
        assert_eq!(loaded.label(), orig.label());
        assert_eq!(loaded.round_budget(), orig.round_budget());
        assert_eq!(loaded.probe_budget(), orig.probe_budget());
        // Byte-identical serving across the round-trip.
        let serve = |s: &dyn ServableScheme| {
            let mut exec = RoundExecutor::new(s.table(), ExecOptions::with_transcript());
            let answer = s.serve(&inst.query, &mut exec);
            let (ledger, transcript) = exec.finish();
            (format!("{answer:?}"), ledger, transcript)
        };
        assert_eq!(serve(orig), serve(loaded));
    }

    #[test]
    fn nested_subsampled_shards_are_rejected_at_save() {
        use anns_core::serve::ServeAlg1;
        use anns_core::Aggregation;

        let index = small_index();
        let leaf: Arc<dyn ServableScheme> = Arc::new(ServeAlg1 {
            index,
            k: 2,
            tau_override: None,
        });
        let inner = SubsampledRepetition::new(vec![leaf], 1, 7, Aggregation::Majority).unwrap();
        let outer = SubsampledRepetition::new(
            vec![Arc::new(inner) as Arc<dyn ServableScheme>],
            1,
            8,
            Aggregation::Majority,
        )
        .unwrap();
        let mut reg = Registry::new();
        reg.register("nested", Box::new(outer));
        let mut out = Cursor::new(Vec::new());
        let err = reg.save_bundle_to(&mut out).unwrap_err();
        assert!(matches!(err, StoreError::Unsupported(msg) if msg.contains("nested")));
    }

    /// The worked example of `docs/STORE_FORMAT.md` §6: one `linear`
    /// shard over two 64-bit points. Its length and header bytes are
    /// pinned here so the document cannot drift from the writer.
    #[test]
    fn store_format_worked_example_is_pinned() {
        use anns_hamming::{Dataset, Point};
        let scan = anns_lsh::LinearScan::new(Dataset::new(vec![Point::zeros(64), Point::ones(64)]));
        let mut reg = Registry::new();
        reg.register(
            "lin",
            Box::new(anns_lsh::ServeLinear {
                scan: Arc::new(scan),
            }),
        );
        let mut bytes = Cursor::new(Vec::new());
        reg.save_bundle_to(&mut bytes).unwrap();
        let bytes = bytes.into_inner();
        assert_eq!(bytes.len(), 448);
        assert_eq!(
            bytes[..12],
            [0x41, 0x4e, 0x4e, 0x53, 0x03, 0x00, 0x11, 0x00, 0x04, 0x00, 0x00, 0x00]
        );
        let digests: Vec<(String, u32, u32)> = MappedStore::from_bytes(bytes)
            .unwrap()
            .digests()
            .iter()
            .map(|d| (d.tag_string(), d.len, d.crc))
            .collect();
        assert_eq!(
            digests,
            [
                ("META".into(), 63, 0xfbb2_a6f2),
                ("IDXP".into(), 8, 0x681f_a6a9),
                ("SHRD".into(), 52, 0x55c7_0c02),
                ("MNFT".into(), 64, 0xb29a_2851),
            ]
        );
    }

    #[test]
    fn invalid_namespaces_are_rejected() {
        let mut reg = Registry::new();
        let bytes = {
            let mut inner = Registry::new();
            inner.register_alg1("a", small_index(), 2);
            let mut out = Cursor::new(Vec::new());
            inner.save_bundle_to(&mut out).unwrap();
            out.into_inner()
        };
        assert!(matches!(
            reg.mount_from("", &bytes[..], "<mem>"),
            Err(MountError::InvalidNamespace(_))
        ));
        assert!(matches!(
            reg.mount_from("a/b", &bytes[..], "<mem>"),
            Err(MountError::InvalidNamespace(_))
        ));
        reg.mount_from("ns", &bytes[..], "<mem>").unwrap();
        assert!(matches!(
            reg.mount_from("ns", &bytes[..], "<mem>"),
            Err(MountError::AlreadyMounted(_))
        ));
        assert_eq!(reg.resolve("ns/a"), Some(ShardId(0)));
    }
}
