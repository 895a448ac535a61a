//! Phases: open-loop and closed-loop traffic through the admission queue
//! or over the wire, and the batch call. Each returns per-request samples
//! plus the requests kept for the answer check.

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use anns_core::serve::ServedAnswer;
use anns_engine::{AdmissionQueue, NamedRequest, QueryRequest, Ticket};
use anns_hamming::Point;
use anns_server::{read_frame, ErrorCode, Frame, WireAnswer};

use crate::loadgen::{open_loop, Pacer, RealPacer};
use crate::workload::{engine_over, Stack, Swapper, Traffic, BATCH_WIDTH};

/// Every this-many-th request of a phase is replayed solo.
pub const CHECK_EVERY: u64 = 16;

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Answered.
    Served,
    /// Refused by the `hot` tenant's token bucket: expected, not a failure.
    Throttled,
    /// A typed error, a shed, or a refusal of a compliant tenant.
    Failed,
}

/// One request, timed in run nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Sender lane (tenant-wire: 0 = `steady`, 1 = `hot`).
    pub lane: u8,
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was handed to the queue or written to the socket.
    pub sent_ns: u64,
    /// When its answer (or refusal) was observed.
    pub done_ns: u64,
    /// Send to ticket acknowledgment (wire only).
    pub ticket_ns: u64,
    /// Admission wait, enqueue to window seal.
    pub wait_ns: u64,
    /// Execution inside its generation (`Served::latency_ns`).
    pub query_ns: u64,
    /// Queue depth observed after admission.
    pub depth: u64,
    /// Outcome.
    pub status: Status,
    /// Served outside the scheme's declared round or probe budget.
    pub over_budget: bool,
}

impl Sample {
    /// Due-to-resolution latency.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }

    /// The residual: latency not spent late, waiting, or executing.
    pub fn gap_ns(&self) -> u64 {
        self.latency_ns()
            .saturating_sub(self.late_ns() + self.wait_ns + self.query_ns)
    }

    fn failed(lane: u8, due_ns: u64, sent_ns: u64, done_ns: u64) -> Sample {
        Sample {
            lane,
            due_ns,
            sent_ns,
            done_ns,
            ticket_ns: 0,
            wait_ns: 0,
            query_ns: 0,
            depth: 0,
            status: Status::Failed,
            over_budget: false,
        }
    }
}

/// A served request kept for the solo replay.
#[derive(Clone, Debug)]
pub struct Check {
    /// Shard name it was addressed to.
    pub shard: String,
    /// The query.
    pub query: Point,
    /// Mount-table epoch that served it.
    pub epoch: u64,
    /// The full answer (in process) — the wire carries only its index.
    pub answer: Option<ServedAnswer>,
    /// Returned database index.
    pub index: Option<u64>,
    /// Rounds used.
    pub rounds: u64,
    /// Probes used.
    pub probes: u64,
}

/// What one phase produced.
#[derive(Default)]
pub struct Requests {
    /// Every request, in due order.
    pub samples: Vec<Sample>,
    /// Every [`CHECK_EVERY`]-th served request.
    pub checks: Vec<Check>,
}

impl Requests {
    fn merge(mut self, other: Requests) -> Requests {
        self.samples.extend(other.samples);
        self.checks.extend(other.checks);
        self.samples.sort_by_key(|s| s.due_ns);
        self
    }
}

struct Pending {
    due_ns: u64,
    sent_ns: u64,
    depth: u64,
    ticket: Ticket,
    check: Option<(String, Point)>,
}

/// Holds the closed loop at a fixed number of outstanding requests.
struct Permits {
    in_flight: Mutex<usize>,
    freed: Condvar,
    max: usize,
}

impl Permits {
    fn new(max: usize) -> Self {
        Permits {
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            max,
        }
    }

    /// Takes a permit, or gives up at `end_ns`.
    fn acquire(&self, pacer: &RealPacer, end_ns: u64) -> bool {
        let mut n = self.in_flight.lock().expect("permit lock poisoned");
        while *n >= self.max {
            if pacer.now_ns() >= end_ns {
                return false;
            }
            n = self
                .freed
                .wait_timeout(n, Duration::from_millis(10))
                .expect("permit lock poisoned")
                .0;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        *self.in_flight.lock().expect("permit lock poisoned") -= 1;
        self.freed.notify_one();
    }
}

/// A copy of request `seq` for the answer check, if it is sampled.
fn kept_for_check(seq: u64, shard: &str, query: &Point) -> Option<(String, Point)> {
    seq.is_multiple_of(CHECK_EVERY)
        .then(|| (shard.to_string(), query.clone()))
}

fn secs_ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// Waits every ticket in arrival order, stamping each resolution.
fn collect(pacer: &RealPacer, rx: Receiver<Pending>, permits: Option<&Permits>) -> Requests {
    let mut out = Requests::default();
    for p in rx {
        let resolution = p.ticket.wait();
        let done_ns = pacer.now_ns();
        if let Some(permits) = permits {
            permits.release();
        }
        let Ok(served) = resolution.result else {
            out.samples
                .push(Sample::failed(0, p.due_ns, p.sent_ns, done_ns));
            continue;
        };
        out.samples.push(Sample {
            lane: 0,
            due_ns: p.due_ns,
            sent_ns: p.sent_ns,
            done_ns,
            ticket_ns: 0,
            wait_ns: resolution.wait_ns,
            query_ns: served.latency_ns,
            depth: p.depth,
            status: Status::Served,
            over_budget: !served.within_budget,
        });
        if let Some((shard, query)) = p.check {
            out.checks.push(Check {
                shard,
                query,
                epoch: served.epoch,
                index: served.answer.index(),
                rounds: served.ledger.rounds() as u64,
                probes: served.ledger.total_probes() as u64,
                answer: Some(served.answer),
            });
        }
    }
    out
}

/// The load generator's side of the in-process phases.
pub struct Generator<'a> {
    /// Run clock.
    pub pacer: &'a RealPacer,
    /// Request stream.
    pub traffic: &'a mut Traffic,
    /// Hot swaps, ticked before every send.
    pub swapper: Option<&'a mut Swapper>,
}

impl Generator<'_> {
    /// Sends the request numbered `seq` (swapping first if a swap is due),
    /// due at `due_ns` or, in a closed loop, now. An admitted request goes
    /// to the collector; a refused one becomes a failed sample. Returns
    /// whether it was admitted.
    fn send(
        &mut self,
        queue: &AdmissionQueue,
        seq: u64,
        due_ns: Option<u64>,
        collector: &Sender<Pending>,
        refused: &mut Vec<Sample>,
    ) -> bool {
        if let Some(swapper) = self.swapper.as_deref_mut() {
            swapper.tick(self.pacer.now_ns());
        }
        let (shard, query) = self.traffic.next_request();
        let check = kept_for_check(seq, &shard, &query);
        let sent_ns = self.pacer.now_ns();
        let due_ns = due_ns.unwrap_or(sent_ns);
        match queue.enqueue(NamedRequest { shard, query }) {
            Ok(ticket) => {
                let pending = Pending {
                    due_ns,
                    sent_ns,
                    depth: queue.depth() as u64,
                    ticket,
                    check,
                };
                collector
                    .send(pending)
                    .expect("collector outlives the generator");
                true
            }
            Err(_) => {
                refused.push(Sample::failed(0, due_ns, sent_ns, self.pacer.now_ns()));
                false
            }
        }
    }

    /// Open loop at `rate` requests/s for `secs` through `queue`: one
    /// thread sends on schedule, one collects tickets.
    pub fn open_queue(&mut self, queue: &AdmissionQueue, rate: f64, secs: f64) -> Requests {
        let pacer = self.pacer;
        let (tx, rx) = mpsc::channel::<Pending>();
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || collect(pacer, rx, None));
            let mut refused = Vec::new();
            let mut seq = 0;
            let start = pacer.now_ns();
            open_loop(pacer, &[rate], start, secs_ns(secs), |_, due_ns| {
                self.send(queue, seq, Some(due_ns), &tx, &mut refused);
                seq += 1;
            });
            drop(tx);
            let collected = collector.join().expect("collector panicked");
            collected.merge(Requests {
                samples: refused,
                checks: Vec::new(),
            })
        })
    }

    /// Closed loop for `secs`: keeps `outstanding` requests in the queue,
    /// sending the next as soon as one resolves.
    pub fn closed_queue(
        &mut self,
        queue: &AdmissionQueue,
        outstanding: usize,
        secs: f64,
    ) -> Requests {
        let pacer = self.pacer;
        let permits = Permits::new(outstanding);
        let (tx, rx) = mpsc::channel::<Pending>();
        std::thread::scope(|scope| {
            let permits = &permits;
            let collector = scope.spawn(move || collect(pacer, rx, Some(permits)));
            let mut refused = Vec::new();
            let end_ns = pacer.now_ns() + secs_ns(secs);
            let mut seq = 0;
            while permits.acquire(pacer, end_ns) && pacer.now_ns() < end_ns {
                if !self.send(queue, seq, None, &tx, &mut refused) {
                    permits.release();
                }
                seq += 1;
            }
            drop(tx);
            let collected = collector.join().expect("collector panicked");
            collected.merge(Requests {
                samples: refused,
                checks: Vec::new(),
            })
        })
    }
}

struct WirePending {
    due_ns: u64,
    sent_ns: u64,
    check: Option<(String, Point)>,
}

/// Reads one request's reply frames off `conn`: a ticket then an answer,
/// or an error frame alone.
fn read_reply(
    conn: &mut TcpStream,
    pacer: &RealPacer,
    lane: u8,
    hot: bool,
    p: WirePending,
    out: &mut Requests,
) -> Result<(), String> {
    let frame = |conn: &mut TcpStream| {
        read_frame(conn)
            .map_err(|e| format!("wire read failed: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    };
    let mut sample = Sample::failed(lane, p.due_ns, p.sent_ns, 0);
    let answer: Option<WireAnswer> = match frame(conn)? {
        Frame::Ticket { depth } => {
            sample.ticket_ns = pacer.now_ns().saturating_sub(p.sent_ns);
            sample.depth = depth;
            match frame(conn)? {
                Frame::Answer(answer) => Some(answer),
                Frame::Error(_) => None,
                other => return Err(format!("expected an answer, got {}", other.kind_name())),
            }
        }
        Frame::Error(fault) => {
            if hot && fault.code == ErrorCode::Throttled {
                sample.status = Status::Throttled;
            }
            None
        }
        other => return Err(format!("expected a ticket, got {}", other.kind_name())),
    };
    sample.done_ns = pacer.now_ns();
    if let Some(a) = answer {
        sample.status = Status::Served;
        sample.wait_ns = a.wait_ns;
        sample.query_ns = a.latency_ns;
        sample.over_budget = !a.within_budget;
        if let Some((shard, query)) = p.check {
            out.checks.push(Check {
                shard,
                query,
                epoch: a.epoch,
                answer: None,
                index: a.index,
                rounds: a.rounds,
                probes: a.probes,
            });
        }
    }
    out.samples.push(sample);
    Ok(())
}

/// Tenant names per connection in the open-loop phases, and whether the
/// connection's refusals by throttle are expected.
const WIRE_TENANTS: [(&str, bool); 2] = [("steady", false), ("hot", true)];
/// Tenant names per connection in `sat`, where both comply.
const SAT_TENANTS: [&str; 2] = ["steady", "steady-2"];

fn query_frame(tenant: &str, shard: String, point: Point) -> Vec<u8> {
    Frame::Query {
        tenant: tenant.to_string(),
        shard,
        point,
    }
    .encode()
}

/// Open loop over the two connections of a wire stack at per-connection
/// `rates`: one thread writes every frame on schedule (replies are not
/// awaited before the next send), one reader per connection collects
/// the replies in order.
pub fn open_wire(
    pacer: &RealPacer,
    conns: &[TcpStream],
    traffic: &mut Traffic,
    rates: [f64; 2],
    secs: f64,
) -> Result<Requests, String> {
    let io = |e: std::io::Error| format!("wire setup failed: {e}");
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    let mut senders = Vec::new();
    for (lane, conn) in conns.iter().enumerate() {
        let (tx, rx) = mpsc::channel::<WirePending>();
        writers.push(conn.try_clone().map_err(io)?);
        readers.push((lane as u8, conn.try_clone().map_err(io)?, rx));
        senders.push(tx);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = readers
            .into_iter()
            .map(|(lane, mut conn, rx)| {
                scope.spawn(move || -> Result<Requests, String> {
                    let mut out = Requests::default();
                    let hot = WIRE_TENANTS[lane as usize].1;
                    for p in rx {
                        read_reply(&mut conn, pacer, lane, hot, p, &mut out)?;
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut seq = 0u64;
        let mut write_errors = Vec::new();
        let start = pacer.now_ns();
        open_loop(pacer, &rates, start, secs_ns(secs), |lane, due_ns| {
            let (shard, query) = traffic.next_request();
            let check = kept_for_check(seq, &shard, &query);
            seq += 1;
            let bytes = query_frame(WIRE_TENANTS[lane].0, shard, query);
            let sent_ns = pacer.now_ns();
            let queued = senders[lane].send(WirePending {
                due_ns,
                sent_ns,
                check,
            });
            if queued.is_err() || writers[lane].write_all(&bytes).is_err() {
                write_errors.push(Sample::failed(lane as u8, due_ns, sent_ns, sent_ns));
            }
        });
        drop(senders);
        let mut merged = Requests {
            samples: write_errors,
            checks: Vec::new(),
        };
        for handle in handles {
            merged = merged.merge(handle.join().expect("wire reader panicked")?);
        }
        Ok(merged)
    })
}

/// Closed loop over both connections for `secs`: each connection sends
/// its next query as soon as the last one is answered.
pub fn closed_wire(
    pacer: &RealPacer,
    conns: &[TcpStream],
    traffic: &mut Traffic,
    secs: f64,
) -> Result<Requests, String> {
    let end_ns = pacer.now_ns() + secs_ns(secs);
    let mut lanes = Vec::new();
    for conn in conns {
        let conn = conn
            .try_clone()
            .map_err(|e| format!("wire setup failed: {e}"))?;
        lanes.push((conn, traffic.split()));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(lane, (mut conn, mut traffic))| {
                scope.spawn(move || -> Result<Requests, String> {
                    let mut out = Requests::default();
                    let mut seq = 0u64;
                    while pacer.now_ns() < end_ns {
                        let (shard, query) = traffic.next_request();
                        let check = kept_for_check(seq, &shard, &query);
                        seq += 1;
                        let bytes = query_frame(SAT_TENANTS[lane], shard, query);
                        let sent_ns = pacer.now_ns();
                        conn.write_all(&bytes)
                            .map_err(|e| format!("wire write failed: {e}"))?;
                        let p = WirePending {
                            due_ns: sent_ns,
                            sent_ns,
                            check,
                        };
                        read_reply(&mut conn, pacer, lane as u8, false, p, &mut out)?;
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut merged = Requests::default();
        for handle in handles {
            merged = merged.merge(handle.join().expect("wire sender panicked")?);
        }
        Ok(merged)
    })
}

/// What the `batch` phase measured.
pub struct Batch {
    /// Queries submitted.
    pub queries: usize,
    /// Wall time of the `submit_batch` call, seconds.
    pub wall_s: f64,
    /// Generations it ran.
    pub generations: usize,
    /// Every query, for the answer check.
    pub checks: Vec<Check>,
    /// Queries served outside their declared budgets.
    pub over_budget: u64,
}

/// `count` stream queries through `Engine::submit_batch` at width
/// [`BATCH_WIDTH`], over the stack's mount table.
pub fn batch(stack: &Stack, traffic: &mut Traffic, count: usize) -> Result<Batch, String> {
    let engine = engine_over(&stack.mounts, BATCH_WIDTH);
    let registry = stack.mounts.current();
    let mut names = Vec::with_capacity(count);
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        let (shard, query) = traffic.next_request();
        let id = registry
            .resolve(&shard)
            .ok_or_else(|| format!("shard {shard} is not mounted"))?;
        names.push(shard);
        requests.push(QueryRequest { shard: id, query });
    }
    drop(registry);
    let started = Instant::now();
    let (served, traces) = engine.submit_batch_traced(&requests);
    let wall_s = started.elapsed().as_secs_f64();
    let over_budget = served.iter().filter(|s| !s.within_budget).count() as u64;
    let checks = served
        .into_iter()
        .zip(requests.into_iter().zip(names))
        .map(|(s, (request, shard))| Check {
            shard,
            query: request.query,
            epoch: s.epoch,
            index: s.answer.index(),
            rounds: s.ledger.rounds() as u64,
            probes: s.ledger.total_probes() as u64,
            answer: Some(s.answer),
        })
        .collect();
    Ok(Batch {
        queries: count,
        wall_s,
        generations: traces.len(),
        checks,
        over_budget,
    })
}
