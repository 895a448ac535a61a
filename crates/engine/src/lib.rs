//! A round-synchronous query-serving subsystem with cross-query probe
//! coalescing.
//!
//! # Why the paper's model is a serving architecture
//!
//! The paper (§1–§2) organizes a query's cell-probes into `k` rounds: the
//! addresses of round `i` are a function of the query and the contents
//! read in rounds `< i` only, so *all* of a round's addresses exist
//! before any of its contents are revealed. §1 motivates this with
//! parallelism inside one query; this crate exploits the same property
//! *across* queries. If many concurrent queries each expose a full round
//! of addresses up front, a server can merge those rounds into one batch
//! per index shard — sorted for locality, deduplicated so a cell shared
//! by several queries (hot queries, shared scales, degenerate-case
//! probes) is computed once — without changing any query's observable
//! execution. Limited adaptivity is precisely what makes the batch
//! boundary exist: a fully adaptive query (`k = t`) exposes one address
//! at a time and coalesces with nothing.
//!
//! # Architecture
//!
//! * [`registry`] — the **sharded index registry**: built instances
//!   (Algorithm 1/2 at chosen round budgets, λ-ANNS, LSH/linear
//!   baselines) behind the object-safe `anns_core::serve::ServableScheme`
//!   surface, each shard owning its own table oracle. Registries persist
//!   to store bundles and restore from N of them at once:
//!   [`registry::Registry::mount`] loads a bundle under a namespace
//!   (`ns/shard` ids) with cross-bundle deduplication of identical index
//!   payloads;
//! * [`mount`] — the **atomically swappable mount table**:
//!   [`mount::MountTable::swap`] builds a replacement registry off to the
//!   side and flips it in with a pointer exchange at a generation
//!   boundary — in-flight generations finish on the epoch that admitted
//!   them, new admissions see the new bundle, and the old mount retires
//!   (observably, via [`mount::SwapReceipt`]) when its last generation
//!   drains;
//! * [`scheduler`] — the **generation loop**: queries admitted together
//!   are step machines (`ServableScheme::start`) advanced one round at a
//!   time by one loop on the calling thread, which gathers every live
//!   query's round, runs the coalesced dispatch (sort + dedup + one
//!   `anns_cellprobe::read_batch` per shard), and steps each query with
//!   its words; every dispatch is recorded in an auditable
//!   [`scheduler::DispatchTrace`];
//! * [`engine`] — the **front-end**: [`engine::Engine::submit`] /
//!   [`engine::Engine::submit_batch`] admit queries in generations, and
//!   per-query results carry the answer, the probe [`ProbeLedger`]
//!   (byte-identical to solo execution), an optional `Transcript`, the
//!   observed latency, and a budget-adherence verdict;
//! * [`admission`] — the **online admission queue**: clients
//!   [`admission::AdmissionQueue::enqueue`] one request at a time; a
//!   drive loop seals the continuously filling window into the next
//!   generation at `max_generation` queries or a `max_wait` deadline,
//!   whichever first, sheds arrivals beyond a bounded capacity with a
//!   typed `ServeError::Overloaded`, and resolves [`admission::Ticket`]s
//!   epoch-pinned — requests enqueued around a hot swap are served by
//!   the epoch that admitted their window. Time is injectable
//!   ([`Clock`], from `anns-obs`): production uses [`RealClock`], tests
//!   prove deadline behavior deterministically with a [`VirtualClock`];
//! * [`stats`] — **served metrics**: cumulative engine counters (merged
//!   ledgers, coalescing ratio, budget violations) and the JSON
//!   [`stats::ServeReport`] emitted by `annsctl serve` /
//!   `annsctl bench-serve`;
//! * **observability** (the `anns-obs` crate, threaded through all of
//!   the above): install a recorder with [`engine::Engine::recorded`]
//!   and every admission, window seal, coalesced dispatch, batch read,
//!   completion, shed, and epoch flip becomes a typed
//!   `anns_obs::TraceEvent` in a bounded ring — deterministic under a
//!   [`VirtualClock`], dumped automatically on anomalies by the
//!   flight recorder, free (one guarded branch per site) under the
//!   default `anns_obs::NullRecorder`. See `docs/OBSERVABILITY.md`.
//!
//! Within-round non-adaptivity is preserved *by construction*: a step
//! machine hands out a whole round before it sees any of its words, every
//! query's round is still accounted by its own `RoundExecutor`, and the
//! engine's equivalence audits (see
//! `tests/engine_equivalence.rs`) check answers, ledgers and transcripts
//! against sequential `execute_with` runs — the round count per query is
//! identical, which is the paper's `k` showing up unchanged under
//! coalesced serving.
//!
//! [`ProbeLedger`]: anns_cellprobe::ProbeLedger
//!
//! # Example
//!
//! Build a tiny index, register the paper's Algorithm 1
//! (`anns_core::ServeAlg1`) and λ-ANNS schemes over it as shards, and
//! serve a coalesced batch:
//!
//! ```
//! use std::sync::Arc;
//! use anns_core::{AnnIndex, BuildOptions};
//! use anns_engine::{Engine, EngineOptions, QueryRequest, Registry};
//! use anns_hamming::{gen, Point};
//! use anns_sketch::SketchParams;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let index = Arc::new(AnnIndex::build(
//!     gen::uniform(64, 64, &mut rng),
//!     SketchParams::practical(2.0, 7),
//!     BuildOptions::default(),
//! ));
//! let mut registry = Registry::new();
//! let alg1 = registry.register_alg1("alg1-k2", Arc::clone(&index), 2);
//! registry.register_lambda("lambda-6", index, 6.0);
//!
//! let engine = Engine::new(registry, EngineOptions::default());
//! let query = Point::random(64, &mut rng);
//! let served = engine.submit_batch(&[
//!     QueryRequest { shard: alg1, query: query.clone() },
//!     QueryRequest { shard: alg1, query: query.clone() },
//! ]);
//! assert_eq!(served.len(), 2);
//! assert!(served.iter().all(|s| s.within_budget));
//! // The identical queries coalesced: fewer probes executed than submitted.
//! assert!(engine.stats().coalescing_ratio() <= 0.5);
//! ```

pub mod admission;
pub mod engine;
pub mod lazy;
pub mod mount;
pub mod registry;
pub mod scheduler;
pub mod stats;
pub mod testkit;

pub use admission::{
    AdmissionOptions, AdmissionQueue, Resolution, SealReason, Ticket, WindowTrace,
};
pub use anns_obs::clock::{Clock, RealClock, VirtualClock};
pub use anns_obs::{
    FlightRecorder, NullRecorder, Recorder, RingRecorder, TraceCounters, TraceEvent, TraceRecord,
};
pub use engine::{
    Engine, EngineOptions, GenerationTrace, NamedRequest, QueryRequest, ServeError, Served,
};
pub use lazy::{LazyPool, LazyServable};
pub use mount::{
    current_rss_anon_bytes, current_rss_bytes, current_rss_file_bytes, MountError, MountManifest,
    MountTable, StoreBackend, SwapReceipt,
};
pub use registry::{BundleMeta, LoadedBundle, Registry, ShardId, ShardInfo};
pub use scheduler::DispatchTrace;
pub use stats::{
    percentile, EngineStats, Histogram, LatencySummary, OnlineStats, ServeReport, TenantUsage,
};
