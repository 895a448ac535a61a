//! The mount table: N bundles served side by side, replaced atomically.
//!
//! A serving tier for real traffic holds more than one bundle: one per
//! data shard, mounted under a *namespace*, and replaced without downtime
//! when a new build lands. [`MountTable`] is that layer. It holds the
//! current [`Registry`] behind an `ArcSwap`-style pointer
//! (`RwLock<Arc<Registry>>` — readers clone the `Arc`, never block on a
//! build), and every mutation follows the same discipline:
//!
//! 1. **build off to the side** — fork the current registry (entries are
//!    `Arc`-shared, so a fork is cheap and does not touch serving state),
//!    apply the mount/swap/unmount to the fork;
//! 2. **flip** — exchange the pointer under a write lock that is held for
//!    the duration of one pointer store, nothing more. In-flight
//!    generations keep the old `Arc` and finish on the old epoch; new
//!    admissions see the new one ([`crate::Engine`] pins one epoch per
//!    generation);
//! 3. **retire** — when the last in-flight generation drains, the old
//!    registry's `Arc` count hits zero and it is dropped. The returned
//!    [`SwapReceipt`] holds a `Weak` to the old epoch so operators (and
//!    tests) can *observe* retirement instead of assuming it.
//!
//! A failed load — corrupt bundle, version skew, duplicate shard — errors
//! out of step 1, so the old mount keeps serving untouched; there is no
//! window in which queries can observe a half-mounted table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

use anns_obs::{NullRecorder, Recorder, TraceEvent};
use anns_store::{SectionDigest, StoreError};

use crate::registry::Registry;

/// Everything that can go wrong mounting, swapping or unmounting.
#[derive(Debug)]
pub enum MountError {
    /// Namespaces must be non-empty and must not contain `/`.
    InvalidNamespace(String),
    /// `mount` refuses to replace an existing namespace (use `swap`).
    AlreadyMounted(String),
    /// `swap`/`unmount` require the namespace to exist (use `mount`).
    NotMounted(String),
    /// The bundle itself failed to load; serving state is untouched.
    Store(StoreError),
}

impl std::fmt::Display for MountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MountError::InvalidNamespace(ns) => {
                write!(
                    f,
                    "invalid namespace {ns:?}: must be non-empty, without '/'"
                )
            }
            MountError::AlreadyMounted(ns) => {
                write!(
                    f,
                    "namespace {ns:?} is already mounted (swap to replace it)"
                )
            }
            MountError::NotMounted(ns) => write!(f, "namespace {ns:?} is not mounted"),
            MountError::Store(e) => write!(f, "bundle failed to load: {e}"),
        }
    }
}

impl std::error::Error for MountError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MountError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for MountError {
    fn from(e: StoreError) -> Self {
        MountError::Store(e)
    }
}

/// Where a bundle's bytes live while it loads, and when their CRCs run.
/// Both backends share one parser and one bundle ingest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// Read the file into memory, verify every section CRC, decode every
    /// index eagerly, then drop the buffer: only the decoded indexes stay
    /// resident.
    #[default]
    Heap,
    /// Memory-map the file: header and `MNFT` manifest verify eagerly,
    /// per-index CRC checks and decoding defer to first query touch, so
    /// mount cost and resident memory track the manifest and the queried
    /// working set rather than the file size.
    Mmap,
}

impl StoreBackend {
    /// Parses the CLI spelling (`heap` | `mmap`).
    pub fn parse(s: &str) -> Result<StoreBackend, String> {
        match s {
            "heap" => Ok(StoreBackend::Heap),
            "mmap" => Ok(StoreBackend::Mmap),
            other => Err(format!(
                "unknown store backend {other:?} (expected heap or mmap)"
            )),
        }
    }
}

impl std::fmt::Display for StoreBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StoreBackend::Heap => "heap",
            StoreBackend::Mmap => "mmap",
        })
    }
}

/// Resident-set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`), or 0 where procfs is unavailable. This is the
/// number the mmap backend moves: after a mapped mount, RSS grows with
/// the shards actually queried, not the bundle size on disk.
pub fn current_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS:")
}

/// The anonymous part of [`current_rss_bytes`] (`RssAnon`): heap and
/// other private pages, without file mappings. Freed heap the allocator
/// keeps shows here, which mapped bundle pages never do. 0 where procfs
/// is unavailable.
pub fn current_rss_anon_bytes() -> u64 {
    proc_status_bytes("RssAnon:")
}

/// The file-backed part of [`current_rss_bytes`] (`RssFile`): pages of
/// mapped files, such as mapped bundles, that this process has touched.
/// 0 where procfs is unavailable.
pub fn current_rss_file_bytes() -> u64 {
    proc_status_bytes("RssFile:")
}

/// A `kB` field of `/proc/self/status`, in bytes, or 0.
fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Provenance and load report of one mounted bundle: where it came from,
/// what the file contained, and what the loader did with it. This is the
/// registry's answer to "what exactly is serving right now?" — and the
/// record that makes version-skew debugging possible (skipped sections
/// are counted here, not dropped silently).
#[derive(Clone, Debug)]
pub struct MountManifest {
    /// The namespace the bundle is mounted under (`""` for a bundle
    /// loaded without namespacing via `Registry::load_bundle`).
    pub namespace: String,
    /// Source path (or a caller-supplied label for in-memory loads).
    pub source: String,
    /// Format version stamped in the file.
    pub format_version: u16,
    /// Container kind byte from the header.
    pub container_kind: u8,
    /// The writing tool recorded in the `META` section (empty if absent).
    pub tool: String,
    /// Digest of every section in the file, in order (including `MNFT`).
    pub sections: Vec<SectionDigest>,
    /// Sections with tags this build does not know. They are skipped for
    /// forward compatibility — a newer writer may add sections — but
    /// *recorded*, so an operator can tell "new-format extras ignored"
    /// from "nothing unusual".
    pub skipped: Vec<SectionDigest>,
    /// Namespaced names of every shard the bundle registered, id order.
    pub shards: Vec<String>,
    /// Index payloads decoded fresh into the pool by this mount.
    pub pooled: u32,
    /// Index payloads deduplicated against an already-pooled index (byte
    /// identical payload → the shards share one `Arc<AnnIndex>` across
    /// bundles).
    pub shared: u32,
    /// Whether the file carried a `MNFT` manifest section and its digests
    /// matched the sections actually read. `false` for pre-manifest
    /// bundles (they still load).
    pub manifest_verified: bool,
    /// Which backend loaded the bundle.
    pub backend: StoreBackend,
    /// Wall-clock time of the ingest itself, in milliseconds.
    pub mount_ms: f64,
    /// Bytes read (and checksummed) eagerly at mount. The heap backend
    /// reads the whole file; the mmap backend reads O(manifest): header,
    /// section preludes, `META`/`SHRD`/`MNFT` payloads and the index
    /// pool's entry table — never the pool payloads themselves.
    pub eager_bytes: u64,
    /// Total payload bytes across every section in the file — the bound
    /// `eager_bytes` would hit if nothing were deferred.
    pub file_bytes: u64,
}

impl MountManifest {
    /// One-line summary for logs and CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{ns}: {shards} shard(s), {pooled} pooled + {shared} shared index(es), \
             {sections} section(s), {skipped} skipped, manifest {verified}, \
             {backend} backend ({eager}/{file} B eager, {ms:.2} ms) [{source}]",
            ns = if self.namespace.is_empty() {
                "<root>"
            } else {
                &self.namespace
            },
            shards = self.shards.len(),
            pooled = self.pooled,
            shared = self.shared,
            sections = self.sections.len(),
            skipped = self.skipped.len(),
            verified = if self.manifest_verified {
                "verified"
            } else {
                "absent"
            },
            backend = self.backend,
            eager = self.eager_bytes,
            file = self.file_bytes,
            ms = self.mount_ms,
            source = self.source,
        )
    }
}

/// Receipt of one mount-table mutation: the epoch it created and a watch
/// on the epoch it replaced.
pub struct SwapReceipt {
    /// The namespace that was mounted / swapped / unmounted.
    pub namespace: String,
    /// Epoch sequence number of the *new* current registry.
    pub epoch: u64,
    /// The new mount's load report (`None` for `unmount`).
    pub manifest: Option<MountManifest>,
    retired: Weak<Registry>,
}

impl SwapReceipt {
    /// Whether the replaced epoch has fully retired — every in-flight
    /// generation that pinned it has drained and its registry is dropped.
    pub fn retired(&self) -> bool {
        self.retired.upgrade().is_none()
    }

    /// Blocks until the replaced epoch retires, or the timeout elapses.
    /// Returns the final [`SwapReceipt::retired`] verdict.
    pub fn wait_retired(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while !self.retired() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        true
    }
}

/// The atomically swappable mount table behind a serving [`crate::Engine`].
pub struct MountTable {
    current: RwLock<Arc<Registry>>,
    /// Serializes builders (mount/swap/unmount). Readers never take it.
    swap_lock: Mutex<()>,
    /// Epoch sequence; bumped once per flip.
    seq: AtomicU64,
    /// Trace sink for `SwapEpoch` / `SwapFailed` events. Installed by
    /// [`crate::Engine::recorded`] (or directly); defaults to the
    /// [`NullRecorder`].
    obs: RwLock<Arc<dyn Recorder>>,
}

impl Default for MountTable {
    fn default() -> Self {
        MountTable::new()
    }
}

impl MountTable {
    /// An empty mount table (epoch 0, no shards).
    pub fn new() -> Self {
        MountTable::with_registry(Registry::new())
    }

    /// A mount table whose initial epoch is a pre-built registry.
    pub fn with_registry(mut registry: Registry) -> Self {
        registry.set_epoch(0);
        MountTable {
            current: RwLock::new(Arc::new(registry)),
            swap_lock: Mutex::new(()),
            seq: AtomicU64::new(0),
            obs: RwLock::new(Arc::new(NullRecorder)),
        }
    }

    /// Installs a trace recorder; swap-plane events flow into it from
    /// now on. Usually called through [`crate::Engine::recorded`], so
    /// the data plane and the swap plane share one ring.
    pub fn set_recorder(&self, recorder: Arc<dyn Recorder>) {
        *self.obs.write().unwrap_or_else(|e| e.into_inner()) = recorder;
    }

    fn recorder(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.obs.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Records a failed mount/swap/unmount — the flight-recorder trigger
    /// for "a deploy went wrong but the old epoch kept serving".
    fn swap_failed(&self, namespace: &str, error: &MountError) {
        let obs = self.recorder();
        if obs.enabled() {
            obs.record(TraceEvent::SwapFailed {
                namespace: namespace.to_string(),
                error: error.to_string(),
            });
        }
    }

    /// The current epoch's registry. Callers that hold the returned `Arc`
    /// keep that epoch alive; generations pin exactly one.
    pub fn current(&self) -> Arc<Registry> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Epoch sequence number of the current registry. Read from the
    /// registry pointer itself (not the internal counter), so callers
    /// polling `epoch()` and then calling [`MountTable::current`] can
    /// never observe a newer epoch number than the registry they get.
    pub fn epoch(&self) -> u64 {
        self.current().epoch()
    }

    /// Every mount-table mutation, built off to the side: under the swap
    /// lock, check the namespace is absent (`replace == false`) or
    /// present (`replace == true`), fork the current registry (without
    /// the namespace when replacing), apply `load` to the fork, and flip
    /// it in. A failure becomes a `SwapFailed` trace event (and a
    /// flight-recorder trigger) on its way back to the caller.
    fn mutate(
        &self,
        namespace: &str,
        replace: bool,
        load: impl FnOnce(&mut Registry) -> Result<Option<MountManifest>, MountError>,
    ) -> Result<SwapReceipt, MountError> {
        let result = (|| {
            let _build = self.swap_lock.lock().unwrap_or_else(|e| e.into_inner());
            let base = self.current();
            let mounted = base.manifest(namespace).is_some();
            if mounted && !replace {
                return Err(MountError::AlreadyMounted(namespace.to_string()));
            }
            if !mounted && replace {
                return Err(MountError::NotMounted(namespace.to_string()));
            }
            let mut next = if replace {
                base.fork_without(namespace)
            } else {
                base.fork()
            };
            let manifest = load(&mut next)?;
            Ok(self.flip(namespace, next, manifest))
        })();
        if let Err(e) = &result {
            self.swap_failed(namespace, e);
        }
        result
    }

    /// Mounts a bundle file under a new namespace. Fails if the namespace
    /// is already mounted.
    pub fn mount(
        &self,
        namespace: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SwapReceipt, MountError> {
        self.mount_with_backend(namespace, path, StoreBackend::Heap)
    }

    /// [`MountTable::mount`] over any byte stream, with a caller-supplied
    /// source label for the manifest.
    pub fn mount_from(
        &self,
        namespace: &str,
        inner: impl std::io::Read,
        source: impl Into<String>,
    ) -> Result<SwapReceipt, MountError> {
        self.mutate(namespace, false, |next| {
            next.mount_from(namespace, inner, source).map(Some)
        })
    }

    /// [`MountTable::mount`] through an explicit store backend: `Heap`
    /// behaves exactly like `mount`; `Mmap` maps the file and defers
    /// index verification/decoding to first query touch.
    pub fn mount_with_backend(
        &self,
        namespace: &str,
        path: impl AsRef<std::path::Path>,
        backend: StoreBackend,
    ) -> Result<SwapReceipt, MountError> {
        self.mutate(namespace, false, |next| {
            next.mount_file(namespace, path.as_ref(), backend).map(Some)
        })
    }

    /// Replaces an existing namespace with a new bundle, atomically: the
    /// new mount is built off to the side, the pointer flips at a
    /// generation boundary, in-flight generations finish on the old
    /// epoch, and the old mount retires when the last of them drains. A
    /// failing load leaves the old mount serving untouched.
    pub fn swap(
        &self,
        namespace: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SwapReceipt, MountError> {
        self.swap_with_backend(namespace, path, StoreBackend::Heap)
    }

    /// [`MountTable::swap`] over any byte stream.
    pub fn swap_from(
        &self,
        namespace: &str,
        inner: impl std::io::Read,
        source: impl Into<String>,
    ) -> Result<SwapReceipt, MountError> {
        self.mutate(namespace, true, |next| {
            next.mount_from(namespace, inner, source).map(Some)
        })
    }

    /// [`MountTable::swap`] through an explicit store backend.
    pub fn swap_with_backend(
        &self,
        namespace: &str,
        path: impl AsRef<std::path::Path>,
        backend: StoreBackend,
    ) -> Result<SwapReceipt, MountError> {
        self.mutate(namespace, true, |next| {
            next.mount_file(namespace, path.as_ref(), backend).map(Some)
        })
    }

    /// Removes a namespace's shards from serving.
    pub fn unmount(&self, namespace: &str) -> Result<SwapReceipt, MountError> {
        self.mutate(namespace, true, |_| Ok(None))
    }

    /// The pointer exchange. Called with the swap lock held.
    fn flip(
        &self,
        namespace: &str,
        mut next: Registry,
        manifest: Option<MountManifest>,
    ) -> SwapReceipt {
        let epoch = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        next.set_epoch(epoch);
        let next = Arc::new(next);
        let old = {
            let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
            std::mem::replace(&mut *current, next)
        };
        let obs = self.recorder();
        if obs.enabled() {
            obs.record(TraceEvent::SwapEpoch {
                namespace: namespace.to_string(),
                epoch,
            });
        }
        SwapReceipt {
            namespace: namespace.to_string(),
            epoch,
            manifest,
            retired: Arc::downgrade(&old),
        }
    }
}
