//! The online admission queue: a continuously filling generation window.
//!
//! [`crate::Engine::submit_batch`] requires the caller to hand over a
//! pre-formed batch, but a real server receives queries one at a time.
//! [`AdmissionQueue`] closes that gap: clients [`AdmissionQueue::enqueue`]
//! name-addressed requests at any moment and get a [`Ticket`] back; a
//! drive loop seals the open *window* into the next generation when it
//! reaches [`AdmissionOptions::max_generation`] queries **or** when the
//! oldest waiter has been parked for [`AdmissionOptions::max_wait`] —
//! whichever comes first. Batching-under-deadline is how the paper's
//! limited-adaptivity model pays off online: coalescing needs many
//! queries per generation-round, but waiting indefinitely for a full
//! window would push tail latency unbounded, so the deadline caps what
//! any single query can be charged for the batching win.
//!
//! Three properties are load-bearing:
//!
//! * **Backpressure, not collapse** — the queue is bounded
//!   ([`AdmissionOptions::capacity`]); an arrival beyond the bound is
//!   *shed* with a typed [`ServeError::Overloaded`], never queued into a
//!   deadline it cannot meet and never a panic;
//! * **Epoch pinning** — a sealed window executes through
//!   [`crate::Engine::submit_named`], so each generation resolves shard
//!   names against the epoch current at execution: requests enqueued
//!   around a [`crate::MountTable::swap`] survive the flip and are served
//!   by the bundle of the epoch that admitted their window;
//! * **Injectable time** — every deadline decision reads the
//!   [`Clock`] seam, so tier-1 tests drive a
//!   [`crate::VirtualClock`] and *prove* deadline sealing,
//!   deadline-vs-fill races, overload shedding and swap-during-enqueue
//!   behavior deterministically, with no sleeps anywhere.
//!
//! Seal precedence, normative: **fill, then drain, then deadline.** A
//! window that is both full and past-deadline seals as `Fill` (the
//! stronger reason: it would have sealed even with time frozen); a closed
//! queue flushes partial windows as `Drain` without waiting out the
//! deadline.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use anns_core::{AnnIndex, BuildOptions};
//! use anns_engine::VirtualClock;
//! use anns_engine::{
//!     AdmissionOptions, AdmissionQueue, Engine, EngineOptions, NamedRequest, Registry,
//!     SealReason,
//! };
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
//! registry.register_alg1("alg1-k2", index, 2);
//! let engine = Arc::new(Engine::new(registry, EngineOptions::default()));
//!
//! let clock = Arc::new(VirtualClock::new());
//! let queue = AdmissionQueue::new(
//!     Arc::clone(&engine),
//!     AdmissionOptions {
//!         max_generation: 8,
//!         max_wait: Duration::from_millis(2),
//!         capacity: 64,
//!     },
//!     clock.clone(),
//! );
//! let ticket = queue
//!     .enqueue(NamedRequest {
//!         shard: "alg1-k2".into(),
//!         query: Point::random(64, &mut rng),
//!     })
//!     .unwrap();
//! // One request is not a full window; only the deadline can seal it.
//! assert!(queue.pump_now().is_none());
//! clock.advance(Duration::from_millis(2));
//! let window = queue.pump_now().expect("deadline seals the window");
//! assert_eq!(window.seal, SealReason::Deadline);
//! assert!(ticket.wait().result.is_ok());
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Duration;

use anns_obs::TraceEvent;

use crate::engine::{Engine, NamedRequest, ServeError, Served};
use crate::Clock;

/// Admission-window configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionOptions {
    /// Seal the window once this many queries are waiting (the coalescing
    /// width; keep ≤ the engine's `EngineOptions::generation`, or a
    /// sealed window will be split across several generations).
    pub max_generation: usize,
    /// Seal a non-empty window once its *oldest* request has waited this
    /// long — the bound on latency a query can be charged for batching.
    pub max_wait: Duration,
    /// Maximum requests waiting for a seal. Arrivals beyond this are shed
    /// with [`ServeError::Overloaded`].
    pub capacity: usize,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions {
            max_generation: 64,
            max_wait: Duration::from_millis(2),
            capacity: 1024,
        }
    }
}

/// Why a window was sealed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub enum SealReason {
    /// The window reached `max_generation` queries.
    Fill,
    /// The oldest waiter hit `max_wait`.
    Deadline,
    /// The queue was closed; the partial window was flushed.
    Drain,
}

impl SealReason {
    /// Stable lowercase label, used by `GenerationSealed` trace events.
    pub fn label(&self) -> &'static str {
        match self {
            SealReason::Fill => "fill",
            SealReason::Deadline => "deadline",
            SealReason::Drain => "drain",
        }
    }
}

/// Audit record of one sealed window.
#[derive(Clone, Debug, serde::Serialize)]
pub struct WindowTrace {
    /// Window sequence number (0-based, in seal order).
    pub seq: u64,
    /// What sealed it.
    pub seal: SealReason,
    /// Queries in the window.
    pub fill: usize,
    /// Clock time the window's oldest request was enqueued.
    pub opened_at_ns: u64,
    /// Clock time the window was sealed.
    pub sealed_at_ns: u64,
    /// Mount-table epoch the window's generation(s) pinned.
    pub epoch: u64,
}

/// One resolved ticket: the serve outcome plus its admission accounting.
#[derive(Clone, Debug)]
pub struct Resolution {
    /// The serve outcome. `Err` means the request was never executed
    /// ([`ServeError::UnknownShard`] in its window's epoch, or
    /// [`ServeError::Closed`] if the driver unwound first).
    pub result: Result<Served, ServeError>,
    /// Admission wait — enqueue to window seal (or to the flush, for
    /// requests a dying driver never sealed) — in clock nanoseconds.
    pub wait_ns: u64,
    /// The sealing window's [`WindowTrace::seq`]; `None` for a request
    /// that was never sealed into a window (the driver unwound first).
    pub window: Option<u64>,
}

struct TicketSlot {
    state: Mutex<Option<Resolution>>,
    ready: Condvar,
}

impl TicketSlot {
    fn resolve(&self, resolution: Resolution) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some(resolution);
            self.ready.notify_all();
        }
    }
}

/// A claim on one enqueued request, resolved when its window executes.
pub struct Ticket {
    slot: Arc<TicketSlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = self
            .slot
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some();
        f.debug_struct("Ticket")
            .field("resolved", &resolved)
            .finish()
    }
}

impl Ticket {
    /// Blocks until the request's window has been driven through the
    /// engine. Something must be pumping the queue ([`AdmissionQueue::run`]
    /// on a driver thread, or explicit [`AdmissionQueue::pump_now`] calls)
    /// or this waits forever — the ticket does not drive the queue itself.
    pub fn wait(self) -> Resolution {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(resolution) = state.take() {
                return resolution;
            }
            state = self
                .slot
                .ready
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Takes the resolution if the window has already executed.
    pub fn try_take(&self) -> Option<Resolution> {
        self.slot
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }
}

/// One waiting request.
struct Waiting {
    request: NamedRequest,
    slot: Arc<TicketSlot>,
    enqueued_at_ns: u64,
}

/// A window taken out of the open queue, ready to execute.
struct SealedWindow {
    seq: u64,
    seal: SealReason,
    opened_at_ns: u64,
    sealed_at_ns: u64,
    queries: Vec<Waiting>,
}

/// Executed-window traces retained for [`AdmissionQueue::window_log`].
/// A ring, not a log: the queue is built for an indefinitely running
/// serving loop, so unbounded retention would be a slow leak. Cumulative
/// accounting lives in `EngineStats::online`, which never truncates.
const WINDOW_LOG_CAP: usize = 1024;

struct QueueState {
    open: VecDeque<Waiting>,
    closed: bool,
    next_window: u64,
    windows: VecDeque<WindowTrace>,
}

struct QueueShared {
    state: Mutex<QueueState>,
    /// Signaled on enqueue, close, and (virtual) clock ticks.
    changed: Condvar,
}

/// The continuously filling admission window in front of an [`Engine`].
///
/// Clients enqueue from any thread; one or more drivers call
/// [`AdmissionQueue::run`] (blocking loop) or [`AdmissionQueue::pump_now`]
/// (non-blocking single step, the deterministic test surface). See the
/// [module docs](self) for the seal rules.
pub struct AdmissionQueue {
    engine: Arc<Engine>,
    clock: Arc<dyn Clock>,
    opts: AdmissionOptions,
    /// The *live* seal deadline in nanoseconds. Starts at
    /// `opts.max_wait` and is retuned at runtime by
    /// [`AdmissionQueue::set_max_wait`] (the network tier adapts it to
    /// the observed arrival rate); every deadline decision reads this,
    /// never `opts`.
    max_wait_ns: AtomicU64,
    shared: Arc<QueueShared>,
}

impl AdmissionQueue {
    /// A queue over a shared engine and clock.
    ///
    /// # Panics
    /// If `max_generation == 0` or `capacity == 0`.
    pub fn new(engine: Arc<Engine>, opts: AdmissionOptions, clock: Arc<dyn Clock>) -> Self {
        assert!(opts.max_generation >= 1, "window width must be positive");
        assert!(opts.capacity >= 1, "queue capacity must be positive");
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState {
                open: VecDeque::new(),
                closed: false,
                next_window: 0,
                windows: VecDeque::new(),
            }),
            changed: Condvar::new(),
        });
        // A virtual clock's advance() must wake a parked driver exactly
        // like an enqueue does; the hook takes the state lock so a driver
        // between "checked the deadline" and "parked" cannot miss it.
        // Returning `false` once the queue is dropped lets the clock
        // prune the registration.
        let weak: Weak<QueueShared> = Arc::downgrade(&shared);
        clock.on_tick(Box::new(move || match weak.upgrade() {
            Some(shared) => {
                let _sync = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                shared.changed.notify_all();
                true
            }
            None => false,
        }));
        AdmissionQueue {
            engine,
            clock,
            max_wait_ns: AtomicU64::new(opts.max_wait.as_nanos() as u64),
            opts,
            shared,
        }
    }

    /// The engine this queue admits into.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The queue configuration, with `max_wait` reflecting the *live*
    /// value (the configured one until [`AdmissionQueue::set_max_wait`]
    /// retunes it).
    pub fn options(&self) -> AdmissionOptions {
        AdmissionOptions {
            max_wait: self.max_wait(),
            ..self.opts
        }
    }

    /// The live seal deadline.
    pub fn max_wait(&self) -> Duration {
        Duration::from_nanos(self.max_wait_ns.load(Ordering::Relaxed))
    }

    /// Retunes the seal deadline at runtime — the knob an adaptive
    /// driver pool turns as the observed arrival rate changes. Takes
    /// effect for the *next* seal decision: parked drivers are woken so
    /// a shortened deadline is honored immediately, and a window whose
    /// oldest waiter already exceeds the new deadline seals on the next
    /// pump. Zero is allowed (every non-empty window seals instantly —
    /// batching off).
    pub fn set_max_wait(&self, max_wait: Duration) {
        self.max_wait_ns
            .store(max_wait.as_nanos() as u64, Ordering::Relaxed);
        // Same wake discipline as the clock-tick hook: take the state
        // lock so a driver between "checked the deadline" and "parked"
        // cannot miss the retune.
        let _sync = self.lock();
        self.shared.changed.notify_all();
    }

    /// Requests currently waiting for a seal.
    pub fn depth(&self) -> usize {
        self.lock().open.len()
    }

    /// Whether [`AdmissionQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// The audit log of recently *executed* windows (the newest 1024),
    /// in seal order (`seq` ascending). With several concurrent drivers,
    /// a window appears here only once its execution finishes, so a
    /// long-running window may be momentarily absent while higher
    /// sequence numbers are already logged. Cumulative window counters
    /// that never truncate live in `EngineStats::online`.
    pub fn window_log(&self) -> Vec<WindowTrace> {
        let mut log: Vec<WindowTrace> = self.lock().windows.iter().cloned().collect();
        log.sort_by_key(|w| w.seq);
        log
    }

    /// Admits one request into the open window, joining the *next*
    /// generation. Fails with [`ServeError::Overloaded`] when the queue
    /// is at capacity and [`ServeError::Closed`] after a close; neither
    /// failure leaves a dangling ticket.
    pub fn enqueue(&self, request: NamedRequest) -> Result<Ticket, ServeError> {
        self.enqueue_as(None, request)
    }

    /// Tenant-tagged admission: exactly [`AdmissionQueue::enqueue`], but
    /// the outcome is also attributed to `tenant` — admitted requests
    /// bump the tenant's `enqueued` counter, capacity sheds its `shed`
    /// counter (in `EngineStats::online.tenants`), and each emits one
    /// `tenant_decision` trace event so a complete trace reconciles
    /// exactly with the usage accounting. A [`ServeError::Closed`]
    /// rejection is *not* attributed (shutdown races are the caller's
    /// bookkeeping, not workload accounting).
    pub fn enqueue_as(
        &self,
        tenant: Option<&str>,
        request: NamedRequest,
    ) -> Result<Ticket, ServeError> {
        let obs = Arc::clone(self.engine.recorder());
        let slot = {
            let mut st = self.lock();
            if st.closed {
                let depth = st.open.len();
                drop(st);
                if obs.enabled() {
                    obs.record(TraceEvent::Shed {
                        reason: "closed".to_string(),
                        depth: depth as u64,
                    });
                }
                return Err(ServeError::Closed);
            }
            if st.open.len() >= self.opts.capacity {
                let depth = st.open.len();
                drop(st);
                self.engine.absorb_online(|o| o.shed += 1);
                if let Some(tenant) = tenant {
                    self.engine.absorb_tenant(tenant, |u| u.shed += 1);
                }
                if obs.enabled() {
                    obs.record(TraceEvent::Shed {
                        reason: "overloaded".to_string(),
                        depth: depth as u64,
                    });
                    if let Some(tenant) = tenant {
                        obs.record(TraceEvent::TenantDecision {
                            tenant: tenant.to_string(),
                            decision: "shed".to_string(),
                            depth: depth as u64,
                        });
                    }
                }
                return Err(ServeError::Overloaded {
                    depth,
                    capacity: self.opts.capacity,
                });
            }
            let slot = Arc::new(TicketSlot {
                state: Mutex::new(None),
                ready: Condvar::new(),
            });
            st.open.push_back(Waiting {
                request,
                slot: Arc::clone(&slot),
                enqueued_at_ns: self.clock.now_ns(),
            });
            let depth = st.open.len();
            self.shared.changed.notify_all();
            drop(st);
            self.engine.absorb_online(|o| {
                o.enqueued += 1;
                o.depth_hist.record(depth as u64);
            });
            if let Some(tenant) = tenant {
                self.engine.absorb_tenant(tenant, |u| u.enqueued += 1);
            }
            if obs.enabled() {
                obs.record(TraceEvent::QueryAdmitted {
                    depth: depth as u64,
                });
                if let Some(tenant) = tenant {
                    obs.record(TraceEvent::TenantDecision {
                        tenant: tenant.to_string(),
                        decision: "admitted".to_string(),
                        depth: depth as u64,
                    });
                }
            }
            slot
        };
        Ok(Ticket { slot })
    }

    /// Closes the queue: later enqueues fail with [`ServeError::Closed`],
    /// and drivers flush the remaining requests as `Drain`-sealed windows
    /// before exiting. Already-issued tickets still resolve.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.shared.changed.notify_all();
    }

    /// Non-blocking drive step: if a seal condition holds *right now*,
    /// seals one window, executes it through the engine, resolves its
    /// tickets, and returns its trace. Returns `None` when nothing is
    /// sealable at the current clock reading.
    ///
    /// This is the deterministic test surface: with a
    /// [`crate::VirtualClock`], a test fully controls when windows
    /// can seal and in what state the queue is when they do.
    pub fn pump_now(&self) -> Option<WindowTrace> {
        let window = {
            let mut st = self.lock();
            let now = self.clock.now_ns();
            let reason = self.seal_reason(&st, now)?;
            self.seal(&mut st, reason, now)
        };
        Some(self.execute(window))
    }

    /// Blocking drive step: parks until a window seals (executing it and
    /// returning its trace) or until the queue is closed and drained
    /// (`None` — the driver should exit).
    pub fn pump(&self) -> Option<WindowTrace> {
        let window = {
            let mut st = self.lock();
            loop {
                let now = self.clock.now_ns();
                if let Some(reason) = self.seal_reason(&st, now) {
                    break self.seal(&mut st, reason, now);
                }
                if st.closed && st.open.is_empty() {
                    return None;
                }
                // On a realtime clock a pending deadline bounds the park;
                // on a virtual clock, advance() ticks the condvar instead.
                let deadline_ns = st
                    .open
                    .front()
                    .map(|w| w.enqueued_at_ns + self.max_wait_ns.load(Ordering::Relaxed));
                st = match deadline_ns {
                    Some(deadline) if self.clock.realtime() => {
                        let remaining = Duration::from_nanos(deadline.saturating_sub(now).max(1));
                        self.shared
                            .changed
                            .wait_timeout(st, remaining)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    _ => self
                        .shared
                        .changed
                        .wait(st)
                        .unwrap_or_else(|e| e.into_inner()),
                };
            }
        };
        Some(self.execute(window))
    }

    /// Drives the queue until it is closed and drained — the body of a
    /// driver thread.
    pub fn run(&self) {
        while self.pump().is_some() {}
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The seal decision at one instant. Precedence is normative (see the
    /// module docs): fill beats drain beats deadline.
    fn seal_reason(&self, st: &QueueState, now_ns: u64) -> Option<SealReason> {
        let front = st.open.front()?;
        if st.open.len() >= self.opts.max_generation {
            Some(SealReason::Fill)
        } else if st.closed {
            Some(SealReason::Drain)
        } else if now_ns >= front.enqueued_at_ns + self.max_wait_ns.load(Ordering::Relaxed) {
            Some(SealReason::Deadline)
        } else {
            None
        }
    }

    /// Takes up to `max_generation` requests out of the open window.
    /// Called with the state lock held; capacity frees immediately, so
    /// arrivals during execution join the next window.
    fn seal(&self, st: &mut QueueState, seal: SealReason, now_ns: u64) -> SealedWindow {
        let take = st.open.len().min(self.opts.max_generation);
        let queries: Vec<Waiting> = st.open.drain(..take).collect();
        let seq = st.next_window;
        st.next_window += 1;
        let opened_at_ns = queries.first().map(|w| w.enqueued_at_ns).unwrap_or(now_ns);
        let obs = self.engine.recorder();
        if obs.enabled() {
            // Emitted with the state lock held: the ring mutex is a leaf
            // lock, and sealing under the lock is what keeps the event's
            // position deterministic relative to later admissions.
            obs.record(TraceEvent::GenerationSealed {
                window: seq,
                reason: seal.label().to_string(),
                fill: queries.len() as u64,
                wait_ns: now_ns.saturating_sub(opened_at_ns),
            });
        }
        SealedWindow {
            seq,
            seal,
            opened_at_ns,
            sealed_at_ns: now_ns,
            queries,
        }
    }

    /// Executes a sealed window through the engine and resolves every
    /// ticket. Runs outside the state lock, so enqueues (and further
    /// seals by other drivers) proceed concurrently.
    fn execute(&self, window: SealedWindow) -> WindowTrace {
        // Split the owned entries instead of cloning per request: the
        // shard names and query points move straight into the slice
        // `submit_named` borrows.
        let fill = window.queries.len();
        let mut requests: Vec<NamedRequest> = Vec::with_capacity(fill);
        let mut slots: Vec<(Arc<TicketSlot>, u64)> = Vec::with_capacity(fill);
        for waiting in window.queries {
            requests.push(waiting.request);
            slots.push((waiting.slot, waiting.enqueued_at_ns));
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.engine.submit_named(&requests)
        }));
        let results = match outcome {
            Ok(results) => results,
            Err(payload) => {
                // A scheme panicked mid-generation. Resolve every ticket
                // (typed, not hung) before letting the panic reach the
                // driver, so clients blocked on wait() are released.
                for (slot, enqueued_at_ns) in &slots {
                    slot.resolve(Resolution {
                        result: Err(ServeError::Closed),
                        wait_ns: window.sealed_at_ns.saturating_sub(*enqueued_at_ns),
                        window: Some(window.seq),
                    });
                }
                // The unwind kills this driver, so requests still waiting
                // in the open queue would otherwise hang their tickets
                // forever (another driver, if any, keeps its own sealed
                // window alive). Close the queue and flush them typed —
                // the documented `ServeError::Closed` promise.
                let now_ns = self.clock.now_ns();
                let stranded: Vec<Waiting> = {
                    let mut st = self.lock();
                    st.closed = true;
                    self.shared.changed.notify_all();
                    st.open.drain(..).collect()
                };
                for waiting in &stranded {
                    waiting.slot.resolve(Resolution {
                        result: Err(ServeError::Closed),
                        wait_ns: now_ns.saturating_sub(waiting.enqueued_at_ns),
                        // Never sealed into any window: say so.
                        window: None,
                    });
                }
                std::panic::resume_unwind(payload);
            }
        };
        // Epoch served: every Ok result of one generation carries it, and
        // UnknownShard records the epoch it failed to resolve against.
        let epoch = results
            .iter()
            .map(|r| match r {
                Ok(served) => served.epoch,
                Err(ServeError::UnknownShard { epoch, .. }) => *epoch,
                Err(_) => 0,
            })
            .max()
            .unwrap_or(0);
        let trace = WindowTrace {
            seq: window.seq,
            seal: window.seal,
            fill,
            opened_at_ns: window.opened_at_ns,
            sealed_at_ns: window.sealed_at_ns,
            epoch,
        };
        self.engine.absorb_online(|o| {
            o.windows += 1;
            match window.seal {
                SealReason::Fill => o.sealed_by_fill += 1,
                SealReason::Deadline => o.sealed_by_deadline += 1,
                SealReason::Drain => o.sealed_by_drain += 1,
            }
            o.fill_hist.record(fill as u64);
            for (_, enqueued_at_ns) in &slots {
                o.wait_hist
                    .record(window.sealed_at_ns.saturating_sub(*enqueued_at_ns));
            }
        });
        {
            let mut st = self.lock();
            if st.windows.len() == WINDOW_LOG_CAP {
                st.windows.pop_front();
            }
            st.windows.push_back(trace.clone());
        }
        // Resolve last: a client that wakes from wait() observes the
        // window already on the log and in the stats.
        for ((slot, enqueued_at_ns), result) in slots.into_iter().zip(results) {
            slot.resolve(Resolution {
                result,
                wait_ns: window.sealed_at_ns.saturating_sub(enqueued_at_ns),
                window: Some(window.seq),
            });
        }
        trace
    }
}
