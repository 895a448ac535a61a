//! The serving front-end: admission, generations, per-query results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use anns_cellprobe::{ExecOptions, ProbeLedger, Transcript};
use anns_core::serve::ServedAnswer;
use anns_hamming::Point;
use anns_obs::{NullRecorder, Recorder, TraceEvent};

use crate::mount::MountTable;
use crate::registry::{Registry, ShardId};
use crate::scheduler::{DispatchTrace, Shards};
use crate::stats::EngineStats;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineOptions {
    /// Maximum queries admitted into one generation: the coalescing
    /// width. One loop on the calling thread steps all of them.
    pub generation: usize,
    /// Per-query executor options (transcripts, serialization, word caps).
    /// The `parallel*` fields are inert on the engine path — parallelism
    /// happens at the coalesced-batch level instead.
    pub exec: ExecOptions,
    /// Worker threads per coalesced shard batch.
    pub batch_threads: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            generation: 64,
            exec: ExecOptions::default(),
            batch_threads: 4,
        }
    }
}

/// One query request: which shard to ask (by id), and the query point.
///
/// Shard ids are positions *within one epoch's registry*. Under hot
/// swapping, prefer [`NamedRequest`]: names are the stable addressing
/// surface across epochs.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Target shard.
    pub shard: ShardId,
    /// The query point.
    pub query: Point,
}

/// One query request addressed by shard *name* (`ns/shard` for mounted
/// bundles). Names are resolved against the epoch each generation pins,
/// so requests admitted after a hot swap are served by the new bundle
/// while in-flight generations finish on the old one.
#[derive(Clone, Debug)]
pub struct NamedRequest {
    /// Target shard name, e.g. `"tenant-a/alg1-k3"`.
    pub shard: String,
    /// The query point.
    pub query: Point,
}

/// Why a named request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The shard name did not resolve in the epoch the request was
    /// admitted under (e.g. its namespace was unmounted, or a swap
    /// changed the bundle's shard set).
    UnknownShard {
        /// The name that failed to resolve.
        shard: String,
        /// The epoch it was resolved against.
        epoch: u64,
    },
    /// The admission queue was at capacity and shed this request — the
    /// backpressure signal of [`crate::AdmissionQueue`], telling the
    /// caller to retry later (or route elsewhere) instead of queueing
    /// unbounded work behind a deadline it can no longer meet.
    Overloaded {
        /// Requests already waiting when this one arrived.
        depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The admission queue was closed before this request could be
    /// admitted — or its driver unwound before resolving the ticket.
    Closed,
    /// The shard resolved but could not be made ready: its mmap-backed
    /// payload failed deferred (first-touch) verification or decoding.
    /// The fault is latched — every retry against this epoch returns the
    /// same error; remounting a repaired bundle clears it.
    ShardFault {
        /// The shard whose backing bytes are damaged.
        shard: String,
        /// The latched verification/decode fault.
        fault: anns_store::PayloadFault,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownShard { shard, epoch } => {
                write!(f, "shard {shard:?} not mounted in epoch {epoch}")
            }
            ServeError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "admission queue overloaded: {depth} of {capacity} slots in use"
                )
            }
            ServeError::Closed => write!(f, "admission queue closed"),
            ServeError::ShardFault { shard, fault } => {
                write!(f, "shard {shard:?} failed deferred load: {fault}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One served query: the answer plus its first-class served metrics.
#[derive(Clone, Debug)]
pub struct Served {
    /// The scheme's answer.
    pub answer: ServedAnswer,
    /// Probe accounting, identical to a solo execution of the same query.
    pub ledger: ProbeLedger,
    /// Full probe transcript when `exec.record_transcript` is set.
    pub transcript: Option<Transcript>,
    /// Wall-clock latency of this query inside its generation, in
    /// nanoseconds: from the generation's start to this query's answer,
    /// including the rounds it waited on peers' reads and steps — the
    /// latency a caller actually observes under coalesced serving.
    pub latency_ns: u64,
    /// Whether the query stayed within the shard scheme's declared round
    /// and probe budgets (`true` when no budget is declared).
    pub within_budget: bool,
    /// Mount-table epoch this query's generation pinned: which snapshot
    /// of the mounted bundles answered it.
    pub epoch: u64,
}

/// The audit log of one generation: its coalesced dispatches in order.
#[derive(Clone, Debug, serde::Serialize)]
pub struct GenerationTrace {
    /// Mount-table epoch the generation pinned at admission.
    pub epoch: u64,
    /// One entry per generation-round dispatch.
    pub dispatches: Vec<DispatchTrace>,
}

/// The round-synchronous serving engine over a [`MountTable`] of epochs.
///
/// Each *generation* (a batch of queries admitted together) pins the
/// mount table's current registry for its whole lifetime: a hot swap
/// lands between generations, never inside one, so in-flight queries
/// finish on the epoch that admitted them and the retired epoch is
/// dropped when its last generation drains.
pub struct Engine {
    mounts: Arc<MountTable>,
    opts: EngineOptions,
    totals: std::sync::Mutex<EngineStats>,
    /// Trace sink, threaded through every generation, dispatch, and
    /// batch read. Defaults to [`NullRecorder`]: one branch per
    /// emission site, no events constructed.
    obs: Arc<dyn Recorder>,
    /// Monotonic generation id, labeling trace events so a flat ring
    /// reconstructs per-generation timelines.
    gen_seq: AtomicU64,
}

impl Engine {
    /// An engine over a populated registry (a single-epoch mount table).
    ///
    /// # Panics
    /// If the registry is empty or `opts.generation == 0`.
    pub fn new(registry: Registry, opts: EngineOptions) -> Self {
        assert!(!registry.is_empty(), "engine needs at least one shard");
        Engine::over(Arc::new(MountTable::with_registry(registry)), opts)
    }

    /// An engine over a shared mount table — the hot-swap deployment
    /// shape: the caller keeps the `Arc<MountTable>` and swaps bundles
    /// while the engine serves.
    ///
    /// `opts.batch_threads` is clamped to `1..=available_parallelism()`:
    /// the default of 4 would otherwise spawn three idle workers per
    /// coalesced dispatch on a 1-core container. The clamped value is
    /// what [`Engine::options`] reports and what `ServeReport` records.
    ///
    /// # Panics
    /// If `opts.generation == 0`.
    pub fn over(mounts: Arc<MountTable>, mut opts: EngineOptions) -> Self {
        assert!(opts.generation >= 1, "generation width must be positive");
        let available = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        opts.batch_threads = opts.batch_threads.clamp(1, available);
        Engine {
            mounts,
            opts,
            totals: std::sync::Mutex::new(EngineStats::default()),
            obs: Arc::new(NullRecorder),
            gen_seq: AtomicU64::new(0),
        }
    }

    /// Installs a trace recorder on this engine *and* its mount table
    /// (so swap events share the same ring). The default is
    /// [`NullRecorder`]; with it installed, answers, ledgers, and
    /// transcripts are byte-identical to an engine built without this
    /// call — the observability equivalence test asserts exactly that.
    pub fn recorded(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.mounts.set_recorder(Arc::clone(&recorder));
        self.obs = recorder;
        self
    }

    /// The installed trace recorder (the admission queue emits its
    /// events through this same sink).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.obs
    }

    /// The mount table this engine serves from.
    pub fn mounts(&self) -> &Arc<MountTable> {
        &self.mounts
    }

    /// A snapshot of the current epoch's registry. Holding the returned
    /// `Arc` pins that epoch (it cannot retire until the `Arc` drops);
    /// queries submitted later may be served by a newer epoch.
    pub fn registry(&self) -> Arc<Registry> {
        self.mounts.current()
    }

    /// The engine configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Serves one query (a generation of width 1 — no cross-query
    /// coalescing, but the same dispatch path and accounting).
    pub fn submit(&self, shard: ShardId, query: &Point) -> Served {
        let request = QueryRequest {
            shard,
            query: query.clone(),
        };
        self.submit_batch(std::slice::from_ref(&request))
            .pop()
            .expect("one served result")
    }

    /// Serves a batch of queries, admitted in generations of at most
    /// `opts.generation`; results are in request order.
    pub fn submit_batch(&self, requests: &[QueryRequest]) -> Vec<Served> {
        self.submit_batch_traced(requests).0
    }

    /// [`Engine::submit_batch`] plus the per-generation audit log of every
    /// coalesced dispatch — the raw material for non-adaptivity audits and
    /// coalescing-efficiency reports.
    pub fn submit_batch_traced(
        &self,
        requests: &[QueryRequest],
    ) -> (Vec<Served>, Vec<GenerationTrace>) {
        // Shard ids are epoch-relative, so the *whole call* pins the
        // epoch current at admission: validating ids against one epoch
        // and then serving chunks from a newer one would misroute (or
        // panic mid-generation) if a swap landed between chunks.
        // Name-addressed requests ([`Engine::submit_named`]) re-pin per
        // generation instead — names stay valid across the flip, ids do
        // not.
        let epoch = self.mounts.current();
        for request in requests {
            assert!(
                request.shard.0 < epoch.len(),
                "unknown shard {:?} (registry holds {})",
                request.shard,
                epoch.len()
            );
        }
        let mut served = Vec::with_capacity(requests.len());
        let mut traces = Vec::new();
        for generation_slice in requests.chunks(self.opts.generation) {
            let (mut results, trace) = self.run_generation(&epoch, generation_slice);
            served.append(&mut results);
            traces.push(trace);
        }
        (served, traces)
    }

    /// Serves name-addressed queries, resolving each generation's names
    /// against the epoch it pins. A name that does not resolve in its
    /// epoch yields [`ServeError::UnknownShard`] for that query; the rest
    /// of its generation is served normally. Results are in request
    /// order.
    pub fn submit_named(&self, requests: &[NamedRequest]) -> Vec<Result<Served, ServeError>> {
        let mut out: Vec<Option<Result<Served, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (chunk_start, chunk) in requests
            .chunks(self.opts.generation)
            .enumerate()
            .map(|(i, c)| (i * self.opts.generation, c))
        {
            let epoch = self.mounts.current();
            let mut slots: Vec<usize> = Vec::with_capacity(chunk.len());
            let mut generation: Vec<QueryRequest> = Vec::with_capacity(chunk.len());
            for (offset, request) in chunk.iter().enumerate() {
                match epoch.resolve(&request.shard) {
                    // `ready()` forces any deferred (mmap-backed) load
                    // before the query enters a generation, so damaged
                    // backing bytes surface as a typed per-query error
                    // here instead of a panic mid-generation.
                    Some(shard) => match epoch.scheme(shard).ready() {
                        Ok(()) => {
                            slots.push(chunk_start + offset);
                            generation.push(QueryRequest {
                                shard,
                                query: request.query.clone(),
                            });
                        }
                        Err(fault) => {
                            out[chunk_start + offset] = Some(Err(ServeError::ShardFault {
                                shard: request.shard.clone(),
                                fault,
                            }))
                        }
                    },
                    None => {
                        out[chunk_start + offset] = Some(Err(ServeError::UnknownShard {
                            shard: request.shard.clone(),
                            epoch: epoch.epoch(),
                        }))
                    }
                }
            }
            if generation.is_empty() {
                continue;
            }
            let (results, _) = self.run_generation(&epoch, &generation);
            for (slot, result) in slots.into_iter().zip(results) {
                out[slot] = Some(Ok(result));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every request served or errored"))
            .collect()
    }

    /// Cumulative served metrics since the engine was built.
    pub fn stats(&self) -> EngineStats {
        self.totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Folds an update into the online-admission slice of the totals
    /// (the [`crate::AdmissionQueue`]'s accounting hook).
    pub(crate) fn absorb_online(&self, fold: impl FnOnce(&mut crate::stats::OnlineStats)) {
        fold(&mut self.totals.lock().unwrap_or_else(|e| e.into_inner()).online)
    }

    /// Folds an update into one tenant's usage row (created zeroed on
    /// first sight). The accounting hook of the tenant-aware serving
    /// tier: the admission queue tags enqueue/shed outcomes through it,
    /// and the network front adds bucket throttles and per-ticket
    /// resolution outcomes.
    pub fn absorb_tenant(&self, tenant: &str, fold: impl FnOnce(&mut crate::stats::TenantUsage)) {
        fold(
            self.totals
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .online
                .tenant_mut(tenant),
        )
    }

    /// Runs one generation against a pinned epoch: one loop on this
    /// thread steps every query's machine round by round (serve-only
    /// schemes run on scoped threads behind channel-backed machines).
    fn run_generation(
        &self,
        epoch: &Arc<Registry>,
        requests: &[QueryRequest],
    ) -> (Vec<Served>, GenerationTrace) {
        // Materialize table oracles only for the shards this generation
        // actually targets: forcing every shard in the epoch would make
        // one query page in (and decode) every mmap-deferred index.
        let mut tables: Vec<Option<&dyn anns_cellprobe::Table>> = vec![None; epoch.len()];
        for request in requests {
            if tables[request.shard.0].is_none() {
                tables[request.shard.0] = Some(epoch.scheme(request.shard).table());
            }
        }
        let obs = self.obs.as_ref();
        let gen_id = self.gen_seq.fetch_add(1, Ordering::Relaxed);
        let gen_started_ns = if obs.enabled() { obs.now_ns() } else { 0 };
        let shards = Shards {
            tables,
            batch_threads: self.opts.batch_threads,
            probe_tile: self.opts.exec.probe_tile,
            mount_epoch: epoch.epoch(),
            gen_id,
            obs,
        };
        let (served, dispatches) = shards.run(epoch, requests, self.opts.exec);
        if obs.enabled() {
            // Emit completions here — sequentially, in slot order, once
            // the generation ends — so a VirtualClock trace is byte-stable
            // across runs. `wait_ns` is the generation's wall time on the
            // recorder's clock (per-query latency_ns stays on `Instant`).
            let wait_ns = obs.now_ns().saturating_sub(gen_started_ns);
            for (slot, query) in served.iter().enumerate() {
                obs.record(TraceEvent::QueryServed {
                    gen: gen_id,
                    slot: slot as u64,
                    rounds: query.ledger.rounds() as u64,
                    probes: query.ledger.total_probes() as u64,
                    wait_ns,
                    within_budget: query.within_budget,
                });
            }
        }
        let trace = GenerationTrace {
            epoch: epoch.epoch(),
            dispatches,
        };
        self.totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .absorb(&served, &trace);
        (served, trace)
    }
}
