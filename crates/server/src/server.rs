//! The TCP front: accept loop, per-connection protocol handlers, and
//! the driver pool that pumps the shared admission queue.
//!
//! One thread per connection, blocking I/O, no async runtime: the
//! workspace's zero-new-deps rule, and honest at this tier's scale —
//! the expensive part of a query is the engine's coalesced execution,
//! not the socket. The pool of queue drivers sizes itself from
//! [`std::thread::available_parallelism`] (clamped the same way
//! `Engine::new` clamps `batch_threads`), and a [`WaitAdapter`] retunes
//! the queue's seal deadline from the observed arrival rate: when
//! arrivals are fast a window fills long before the configured
//! deadline, so waiting the full deadline buys nothing; when arrivals
//! are slow the deadline stretches back toward the configured cap so
//! batching still happens.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use anns_engine::admission::{AdmissionOptions, AdmissionQueue};
use anns_engine::registry::ShardId;
use anns_engine::Clock;
use anns_engine::{Engine, NamedRequest};

use crate::frame::{
    read_frame, write_frame, ErrorCode, Frame, TransportError, WireAnswer, WireFault, WireShard,
};
use crate::report::ServerReport;
use crate::tenant::{TenantGate, TenantPolicy};

/// Network-tier configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Shared admission-queue configuration; `max_wait` is the adaptive
    /// deadline's *cap*.
    pub admission: AdmissionOptions,
    /// Queue-driver threads. 0 = size from `available_parallelism`;
    /// any value is clamped to `1..=available_parallelism`.
    pub drivers: usize,
    /// Policy for tenants without an explicit entry in `policies`.
    pub default_policy: TenantPolicy,
    /// Per-tenant policy overrides.
    pub policies: Vec<(String, TenantPolicy)>,
    /// Whether to adapt `max_wait` to the observed arrival rate.
    pub adapt_max_wait: bool,
    /// Concurrent-connection cap for the thread-per-connection accept
    /// loop (the hardening bound on handler threads). An accepted
    /// connection beyond the cap is refused with one typed
    /// [`ErrorCode::Overloaded`] error frame and closed — clients see
    /// the same refusal class as a full admission queue, never a silent
    /// hangup. `0` means unlimited.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            admission: AdmissionOptions::default(),
            drivers: 0,
            default_policy: TenantPolicy::default(),
            policies: Vec::new(),
            adapt_max_wait: true,
            max_connections: 256,
        }
    }
}

/// Bounded accounting of live connection-handler threads. The accept
/// loop acquires a slot before spawning a handler; the slot releases
/// when the handler's guard drops, so `active` tracks threads actually
/// running (not sockets the OS has queued).
struct ConnSlots {
    max: usize,
    active: Arc<AtomicUsize>,
}

impl ConnSlots {
    /// A slot pool capped at `max` (`0` = unlimited).
    fn new(max: usize) -> Self {
        ConnSlots {
            max,
            active: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Live handler count.
    fn active(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Claims a slot, or `None` at the cap. Lock-free: a compare-exchange
    /// loop so two racing accepts never overshoot the cap.
    fn try_acquire(&self) -> Option<ConnGuard> {
        let mut current = self.active.load(Ordering::SeqCst);
        loop {
            if self.max != 0 && current >= self.max {
                return None;
            }
            match self.active.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Some(ConnGuard {
                        active: Arc::clone(&self.active),
                    })
                }
                Err(observed) => current = observed,
            }
        }
    }
}

/// RAII slot release: moved into the handler thread, decrements when the
/// connection's exchange fully finishes (whatever the exit path).
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Retunes the admission deadline from the observed arrival rate.
///
/// Every `window` arrivals it estimates the rate over the elapsed
/// clock time and answers with the deadline under which a window of
/// `target_fill` queries would *just* fill at that rate —
/// `target_fill × elapsed ∕ window` — clamped to `[cap∕16, cap]`.
/// Deterministic: pure arithmetic on caller-supplied clock readings,
/// so tests drive it with fabricated nanoseconds.
#[derive(Debug)]
pub struct WaitAdapter {
    cap_ns: u64,
    floor_ns: u64,
    target_fill: u64,
    window: u64,
    count: u64,
    window_start_ns: u64,
    primed: bool,
}

impl WaitAdapter {
    /// Recompute cadence: arrivals between retunes.
    pub const WINDOW: u64 = 32;

    /// An adapter capped at `cap` for windows of `target_fill` queries.
    pub fn new(cap: Duration, target_fill: usize) -> Self {
        let cap_ns = (cap.as_nanos() as u64).max(1);
        WaitAdapter {
            cap_ns,
            floor_ns: (cap_ns / 16).max(1),
            target_fill: target_fill.max(1) as u64,
            window: Self::WINDOW,
            count: 0,
            window_start_ns: 0,
            primed: false,
        }
    }

    /// Notes one arrival at `now_ns`; every [`WaitAdapter::WINDOW`]
    /// arrivals, returns the retuned deadline.
    pub fn observe(&mut self, now_ns: u64) -> Option<Duration> {
        if !self.primed {
            self.primed = true;
            self.window_start_ns = now_ns;
            self.count = 0;
        }
        self.count += 1;
        if self.count < self.window {
            return None;
        }
        let elapsed = now_ns.saturating_sub(self.window_start_ns);
        // Deadline at which `target_fill` arrivals at the observed pace
        // fill a window exactly; saturating math so a stalled clock
        // (elapsed = 0) lands on the floor, not a panic.
        let ideal = (elapsed / self.window).saturating_mul(self.target_fill);
        let tuned = ideal.clamp(self.floor_ns, self.cap_ns);
        self.count = 0;
        self.window_start_ns = now_ns;
        Some(Duration::from_nanos(tuned))
    }
}

struct Inner {
    engine: Arc<Engine>,
    queue: Arc<AdmissionQueue>,
    gate: TenantGate,
    clock: Arc<dyn Clock>,
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    served_total: AtomicU64,
    adapter: Option<Mutex<WaitAdapter>>,
    drivers: usize,
    slots: ConnSlots,
}

impl Inner {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // The accept loop is parked in accept(); a throwaway connection
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// The serving front: a bound listener plus everything behind it.
/// Cheap to clone (one `Arc`); clone it into the thread that calls
/// [`AnnsServer::run`] and keep a handle for [`AnnsServer::report`] /
/// [`AnnsServer::shutdown`].
#[derive(Clone)]
pub struct AnnsServer {
    inner: Arc<Inner>,
}

impl AnnsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// `engine`. The queue, gate, and driver pool read time from
    /// `clock`.
    pub fn bind(
        addr: &str,
        engine: Arc<Engine>,
        opts: ServerOptions,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<AnnsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue = Arc::new(AdmissionQueue::new(
            Arc::clone(&engine),
            opts.admission,
            Arc::clone(&clock),
        ));
        let mut gate = TenantGate::new(Arc::clone(&queue), Arc::clone(&clock), opts.default_policy);
        for (tenant, policy) in &opts.policies {
            gate = gate.with_policy(tenant, *policy);
        }
        let available = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let drivers = if opts.drivers == 0 {
            available
        } else {
            opts.drivers.clamp(1, available)
        };
        let adapter = opts.adapt_max_wait.then(|| {
            Mutex::new(WaitAdapter::new(
                opts.admission.max_wait,
                opts.admission.max_generation,
            ))
        });
        Ok(AnnsServer {
            inner: Arc::new(Inner {
                engine,
                queue,
                gate,
                clock,
                listener,
                local_addr,
                shutdown: AtomicBool::new(false),
                served_total: AtomicU64::new(0),
                adapter,
                drivers,
                slots: ConnSlots::new(opts.max_connections),
            }),
        })
    }

    /// The bound address (the ephemeral port, when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// The shared admission queue (test and introspection surface).
    pub fn queue(&self) -> &Arc<AdmissionQueue> {
        &self.inner.queue
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// Driver threads the pool will run.
    pub fn drivers(&self) -> usize {
        self.inner.drivers
    }

    /// Connection-handler threads currently live (test and
    /// introspection surface).
    pub fn active_connections(&self) -> usize {
        self.inner.slots.active()
    }

    /// Initiates drain from outside the protocol (signal handlers,
    /// tests). Idempotent.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Lifetime accounting so far (callable before or after drain).
    pub fn report(&self) -> ServerReport {
        ServerReport::from_stats(
            &self.inner.engine.stats(),
            self.inner.drivers,
            self.inner.queue.max_wait(),
            self.inner.engine.recorder().counters(),
        )
    }

    /// Serves until a `Shutdown` frame (or [`AnnsServer::shutdown`])
    /// arrives, then drains: the queue closes, drivers flush partial
    /// windows as `Drain` seals, every in-flight connection finishes
    /// its exchange, and all threads are joined before returning.
    pub fn run(&self) {
        let mut drivers = Vec::with_capacity(self.inner.drivers);
        for _ in 0..self.inner.drivers {
            let queue = Arc::clone(&self.inner.queue);
            drivers.push(std::thread::spawn(move || queue.run()));
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.inner.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => match self.inner.slots.try_acquire() {
                    Some(guard) => {
                        let inner = Arc::clone(&self.inner);
                        handlers.push(std::thread::spawn(move || {
                            let _slot = guard;
                            handle_conn(&inner, stream);
                        }));
                    }
                    // At the cap: one typed refusal frame, then close —
                    // inline, so the flood itself never spawns threads.
                    None => refuse_conn(&self.inner, stream),
                },
                Err(_) => continue,
            }
            // Reap finished handlers so an indefinitely running server
            // does not accumulate one JoinHandle per past connection.
            handlers.retain(|h| !h.is_finished());
        }
        // Shutdown path: close once more (idempotent; covers external
        // shutdown()), then wait for every exchange and driver.
        self.inner.queue.close();
        for h in handlers {
            let _ = h.join();
        }
        for d in drivers {
            let _ = d.join();
        }
    }
}

/// Refuses a connection accepted past the cap: one
/// [`ErrorCode::Overloaded`] frame (depth = live handlers, capacity =
/// the cap, so clients can log how full the server was), then drop.
fn refuse_conn(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let fault = WireFault {
        code: ErrorCode::Overloaded,
        depth: inner.slots.active() as u64,
        capacity: inner.slots.max as u64,
        message: "connection limit reached; retry later".to_string(),
    };
    let _ = write_frame(&mut stream, &Frame::Error(fault));
}

fn welcome(inner: &Inner) -> Frame {
    let registry = inner.engine.registry();
    let shards = registry
        .listing()
        .into_iter()
        .enumerate()
        .map(|(i, (name, label))| WireShard {
            name,
            label,
            dim: registry.scheme(ShardId(i)).query_dim().unwrap_or(0),
        })
        .collect();
    Frame::Welcome { shards }
}

fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean close at a frame boundary: the client is done.
            Ok(None) => return,
            Err(TransportError::Frame(e)) => {
                // Unframeable bytes poison the stream (no resync point):
                // answer typed, then hang up.
                let fault = WireFault {
                    code: ErrorCode::BadRequest,
                    depth: 0,
                    capacity: 0,
                    message: e.to_string(),
                };
                let _ = write_frame(&mut stream, &Frame::Error(fault));
                return;
            }
            Err(TransportError::Io(_)) => return,
        };
        match frame {
            Frame::Hello => {
                if write_frame(&mut stream, &welcome(inner)).is_err() {
                    return;
                }
            }
            Frame::Query {
                tenant,
                shard,
                point,
            } => {
                if let Some(adapter) = &inner.adapter {
                    let retuned = adapter
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .observe(inner.clock.now_ns());
                    if let Some(max_wait) = retuned {
                        inner.queue.set_max_wait(max_wait);
                    }
                }
                let request = NamedRequest {
                    shard,
                    query: point,
                };
                match inner.gate.submit(&tenant, request) {
                    Err(denied) => {
                        let fault = denied.to_fault(inner.queue.depth() as u64);
                        if write_frame(&mut stream, &Frame::Error(fault)).is_err() {
                            return;
                        }
                    }
                    Ok(ticket) => {
                        let acked = write_frame(
                            &mut stream,
                            &Frame::Ticket {
                                depth: inner.queue.depth() as u64,
                            },
                        )
                        .is_ok();
                        // Settle even when the client vanished mid-
                        // exchange: usage accounting follows the work,
                        // not the socket.
                        let resolution = ticket.wait();
                        inner.gate.settle(&tenant, &resolution);
                        let reply = match &resolution.result {
                            Ok(served) => {
                                inner.served_total.fetch_add(1, Ordering::Relaxed);
                                Frame::Answer(WireAnswer {
                                    index: served.answer.index(),
                                    rounds: served.ledger.rounds() as u64,
                                    probes: served.ledger.total_probes() as u64,
                                    wait_ns: resolution.wait_ns,
                                    latency_ns: served.latency_ns,
                                    within_budget: served.within_budget,
                                    epoch: served.epoch,
                                })
                            }
                            Err(e) => Frame::Error(WireFault::from_serve_error(e)),
                        };
                        if !acked || write_frame(&mut stream, &reply).is_err() {
                            return;
                        }
                    }
                }
            }
            Frame::Shutdown => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::ShutdownAck {
                        served: inner.served_total.load(Ordering::Relaxed),
                    },
                );
                inner.begin_shutdown();
                return;
            }
            // Server-to-client frames arriving at the server are a
            // protocol violation: answer typed, hang up.
            other => {
                let fault = WireFault {
                    code: ErrorCode::BadRequest,
                    depth: 0,
                    capacity: 0,
                    message: format!("unexpected {} frame", other.kind_name()),
                };
                let _ = write_frame(&mut stream, &Frame::Error(fault));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn conn_slots_cap_and_release() {
        let slots = ConnSlots::new(2);
        let a = slots.try_acquire().expect("slot 1");
        let b = slots.try_acquire().expect("slot 2");
        assert_eq!(slots.active(), 2);
        assert!(slots.try_acquire().is_none(), "at the cap");
        drop(a);
        assert_eq!(slots.active(), 1);
        let c = slots.try_acquire().expect("released slot is reusable");
        assert!(slots.try_acquire().is_none());
        drop(b);
        drop(c);
        assert_eq!(slots.active(), 0);
    }

    #[test]
    fn conn_slots_zero_means_unlimited() {
        let slots = ConnSlots::new(0);
        let guards: Vec<ConnGuard> = (0..512).map(|_| slots.try_acquire().unwrap()).collect();
        assert_eq!(slots.active(), 512);
        drop(guards);
        assert_eq!(slots.active(), 0);
    }

    #[test]
    fn conn_slots_never_overshoot_under_racing_accepts() {
        let slots = Arc::new(ConnSlots::new(4));
        let peak = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let slots = Arc::clone(&slots);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    let mut refused = 0usize;
                    for _ in 0..2_000 {
                        match slots.try_acquire() {
                            Some(_guard) => {
                                peak.fetch_max(slots.active(), Ordering::SeqCst);
                            }
                            None => refused += 1,
                        }
                    }
                    refused
                })
            })
            .collect();
        for t in threads {
            let _ = t.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 4,
            "cap held under contention"
        );
        assert_eq!(slots.active(), 0);
    }

    #[test]
    fn adapter_shrinks_deadline_under_fast_arrivals() {
        // Cap 2ms, windows of 64. Arrivals every 10µs → a window fills
        // in 640µs, so the deadline should come down to ~640µs.
        let mut a = WaitAdapter::new(Duration::from_millis(2), 64);
        let mut tuned = None;
        for i in 0..WaitAdapter::WINDOW {
            tuned = a.observe(i * 10_000).or(tuned);
        }
        let tuned = tuned.expect("one full window retunes");
        // 32 arrivals spaced 10µs span 310µs: mean spacing 310µs/32,
        // scaled to the 64-query fill target.
        assert_eq!(tuned, Duration::from_nanos(310_000 / 32 * 64));
        assert!(tuned < Duration::from_millis(2));
    }

    #[test]
    fn adapter_clamps_to_cap_when_arrivals_are_slow() {
        // Arrivals every 1ms → ideal fill time 64ms, far over the 2ms
        // cap: the deadline must stay at the cap.
        let mut a = WaitAdapter::new(Duration::from_millis(2), 64);
        let mut tuned = None;
        for i in 0..WaitAdapter::WINDOW {
            tuned = a.observe(i * MS).or(tuned);
        }
        assert_eq!(tuned, Some(Duration::from_millis(2)));
    }

    #[test]
    fn adapter_floors_on_a_frozen_clock() {
        // All arrivals at one instant (elapsed 0): floor = cap/16, not
        // a zero deadline and not a divide-by-zero.
        let mut a = WaitAdapter::new(Duration::from_millis(2), 64);
        let mut tuned = None;
        for _ in 0..WaitAdapter::WINDOW {
            tuned = a.observe(5 * MS).or(tuned);
        }
        assert_eq!(tuned, Some(Duration::from_nanos(2 * MS / 16)));
    }

    #[test]
    fn adapter_recomputes_per_window_not_cumulatively() {
        let mut a = WaitAdapter::new(Duration::from_millis(2), 64);
        // First window: slow (1ms spacing) → cap.
        let mut now = 0;
        let mut tuned = None;
        for _ in 0..WaitAdapter::WINDOW {
            now += MS;
            tuned = a.observe(now).or(tuned);
        }
        assert_eq!(tuned, Some(Duration::from_millis(2)));
        // Second window: fast (10µs spacing) → retunes down; the slow
        // first window must not drag the estimate.
        let mut tuned = None;
        for _ in 0..WaitAdapter::WINDOW {
            now += 10_000;
            tuned = a.observe(now).or(tuned);
        }
        assert_eq!(tuned, Some(Duration::from_nanos(10_000 * 64)));
    }
}
