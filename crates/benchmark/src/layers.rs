//! Bench-side instrumentation: a [`ServableScheme`] wrapper whose table
//! times every `Table::read`, and the spans a traced run writes out.
//!
//! Everything here sits outside the program: the wrapper is registered
//! in place of the real scheme and forwards every call to it, so the
//! engine, the executor and the schemes run unmodified.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use anns_cellprobe::{Address, ProbeLedger, RoundExecutor, SpaceModel, Table, Word};
use anns_core::serve::{ServableScheme, ServedAnswer};
use anns_engine::{Registry, ShardId};
use anns_hamming::Point;

/// One span of a traced run, in run nanoseconds.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name: `request`, a request stage, `cellprobe.read`, or
    /// `store.swap`.
    pub name: &'static str,
    /// Span id; a request's stages share its id as their parent.
    pub id: u64,
    /// The request span that caused this one.
    pub parent: Option<u64>,
    /// Start, run nanoseconds.
    pub start_ns: u64,
    /// End, run nanoseconds.
    pub end_ns: u64,
    /// Benchmark-assigned id of the recording thread (read spans only:
    /// a coalesced read serves many requests, so it has no parent).
    pub thread: Option<u64>,
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.name,
            s.id,
            opt(s.parent),
            s.start_ns,
            s.end_ns,
            opt(s.thread)
        )?;
    }
    out.flush()
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    TAG.with(|t| *t)
}

/// Counters (and optionally spans) of every read through a
/// [`TimedTable`]. Atomics: reads arrive from the engine's batch threads.
pub struct ReadLog {
    epoch: Instant,
    reads: AtomicU64,
    read_ns: AtomicU64,
    spans: Option<Mutex<Vec<Span>>>,
}

impl ReadLog {
    /// A log timing against `epoch`; `spans` keeps one span per read.
    pub fn new(epoch: Instant, spans: bool) -> Self {
        ReadLog {
            epoch,
            reads: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            spans: spans.then(|| Mutex::new(Vec::new())),
        }
    }

    /// `(reads, nanoseconds inside Table::read)` so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.read_ns.load(Ordering::Relaxed),
        )
    }

    /// Takes the recorded read spans.
    pub fn take_spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(|s| std::mem::take(&mut *s.lock().expect("read-span log poisoned")))
            .unwrap_or_default()
    }

    fn record(&self, start: Instant, end: Instant) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(spans) = &self.spans {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            spans.lock().expect("read-span log poisoned").push(Span {
                name: "cellprobe.read",
                id: 0,
                parent: None,
                start_ns: at(start),
                end_ns: at(end),
                thread: Some(thread_tag()),
            });
        }
    }
}

/// The shard's real table, with every read counted and timed.
pub struct TimedTable {
    src: Arc<Registry>,
    id: ShardId,
    log: Arc<ReadLog>,
}

impl Table for TimedTable {
    fn read(&self, addr: &Address) -> Word {
        let start = Instant::now();
        let word = self.src.scheme(self.id).table().read(addr);
        self.log.record(start, Instant::now());
        word
    }

    fn space_model(&self) -> SpaceModel {
        self.src.scheme(self.id).table().space_model()
    }
}

/// A registered shard with a [`TimedTable`] in front of its table; every
/// other call goes to the real scheme.
pub struct TimedScheme {
    table: TimedTable,
}

impl TimedScheme {
    /// Wraps shard `id` of `src`, logging reads into `log`.
    pub fn new(src: Arc<Registry>, id: ShardId, log: Arc<ReadLog>) -> Self {
        TimedScheme {
            table: TimedTable { src, id, log },
        }
    }

    fn real(&self) -> &dyn ServableScheme {
        self.table.src.scheme(self.table.id)
    }
}

impl ServableScheme for TimedScheme {
    fn label(&self) -> String {
        self.real().label()
    }

    fn ready(&self) -> Result<(), anns_store::PayloadFault> {
        self.real().ready()
    }

    fn table(&self) -> &dyn Table {
        &self.table
    }

    fn word_bits(&self) -> u64 {
        self.real().word_bits()
    }

    fn query_dim(&self) -> Option<u32> {
        self.real().query_dim()
    }

    fn round_budget(&self) -> Option<u32> {
        self.real().round_budget()
    }

    fn probe_budget(&self) -> Option<u64> {
        self.real().probe_budget()
    }

    fn within_budget(&self, ledger: &ProbeLedger) -> bool {
        self.real().within_budget(ledger)
    }

    fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        self.real().serve(query, exec)
    }
}

/// A registry serving every shard of `src` under its own name, each
/// behind a [`TimedScheme`] logging into `log`.
pub fn timed_registry(src: &Arc<Registry>, log: &Arc<ReadLog>) -> Registry {
    let mut registry = Registry::new();
    for i in 0..src.len() {
        let id = ShardId(i);
        registry.register(
            src.name(id).to_string(),
            Box::new(TimedScheme::new(Arc::clone(src), id, Arc::clone(log))),
        );
    }
    registry
}
