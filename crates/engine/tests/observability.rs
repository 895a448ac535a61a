//! The observability layer's three contracts, tested end to end:
//!
//! 1. **Free when off** — with the default [`NullRecorder`] installed
//!    explicitly, answers, ledgers, and transcripts are byte-identical
//!    to an engine built without any recorder call: tracing is not
//!    allowed to perturb serving behavior at all.
//! 2. **Deterministic when on** — a single-shard workload recorded over
//!    a `VirtualClock` produces a byte-stable JSON-lines trace: two
//!    fresh engines serving the same requests write identical bytes.
//! 3. **Anomalies dump** — a shed arrival trips the flight recorder,
//!    which snapshots the ring (admissions, seals, dispatches,
//!    completions, the shed itself) to the artifact path mid-run.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use anns_cellprobe::ExecOptions;
use anns_core::AnnIndex;
use anns_engine::testkit::{clustered_index, hot_set_workload, TempDir};
use anns_engine::{
    AdmissionOptions, AdmissionQueue, Engine, EngineOptions, FlightRecorder, NamedRequest,
    NullRecorder, QueryRequest, Recorder, Registry, RingRecorder, TraceEvent, VirtualClock,
};
use anns_obs::parse_jsonl;

const D: u32 = 192;

fn shared_index() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(10, 14, D, 0.05, 7007)))
}

/// One shard: single-shard traces are the documented full-determinism
/// case (multi-shard batch reads run concurrently, so only their
/// interleaving — not their content — can vary).
fn registry() -> Registry {
    let mut r = Registry::new();
    r.register_alg1("alg1-k3", shared_index(), 3);
    r
}

fn engine(generation: usize) -> Engine {
    Engine::new(
        registry(),
        EngineOptions {
            generation,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    )
}

fn requests(seed: u64, count: usize) -> Vec<QueryRequest> {
    hot_set_workload(&shared_index(), count, (count / 2).max(1), 5, seed)
        .into_iter()
        .map(|query| QueryRequest {
            shard: anns_engine::ShardId(0),
            query,
        })
        .collect()
}

#[test]
fn null_recorder_serving_is_byte_identical_to_default() {
    let reqs = requests(11, 24);
    let exec = ExecOptions::with_transcript();
    let plain = Engine::new(
        registry(),
        EngineOptions {
            generation: 8,
            exec,
            batch_threads: 1,
        },
    );
    let nulled = Engine::new(
        registry(),
        EngineOptions {
            generation: 8,
            exec,
            batch_threads: 1,
        },
    )
    .recorded(Arc::new(NullRecorder));

    let (a, traces_a) = plain.submit_batch_traced(&reqs);
    let (b, traces_b) = nulled.submit_batch_traced(&reqs);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.answer, y.answer, "answers must not depend on tracing");
        assert_eq!(x.ledger, y.ledger, "ledgers must not depend on tracing");
        assert_eq!(
            x.transcript, y.transcript,
            "transcripts must match probe for probe"
        );
        assert_eq!(x.within_budget, y.within_budget);
    }
    // Dispatch audit logs agree too: same rounds, same coalescing.
    let flat = |ts: &[anns_engine::GenerationTrace]| {
        ts.iter()
            .flat_map(|t| t.dispatches.iter())
            .map(|d| (d.submitted, d.executed, d.shards, d.participants.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(flat(&traces_a), flat(&traces_b));
    assert_eq!(nulled.recorder().counters().events, 0);
}

/// Runs one traced batch over a fresh engine + ring on a virtual clock,
/// returning the trace as JSONL bytes.
fn traced_run(
    reqs: &[QueryRequest],
) -> (String, anns_obs::TraceCounters, anns_engine::EngineStats) {
    let clock = Arc::new(VirtualClock::new());
    let ring = Arc::new(RingRecorder::new(4096, clock));
    let e = engine(8).recorded(Arc::clone(&ring) as Arc<dyn Recorder>);
    let _ = e.submit_batch(reqs);
    (ring.to_jsonl(), ring.counters(), e.stats())
}

#[test]
fn virtual_clock_trace_is_byte_stable() {
    let reqs = requests(23, 20);
    let (trace1, counters1, stats) = traced_run(&reqs);
    let (trace2, counters2, _) = traced_run(&reqs);
    assert!(!trace1.is_empty());
    assert_eq!(trace1, trace2, "same workload, same clock, same bytes");
    assert_eq!(counters1, counters2);
    assert_eq!(counters1.dropped, 0, "ring sized for the whole run");

    // The trace is internally consistent with the engine's own totals.
    let records = parse_jsonl(&trace1).expect("trace parses");
    assert_eq!(counters1.events, records.len() as u64);
    let mut served = 0u64;
    let mut dispatched_submitted = 0u64;
    let mut dispatched_deduped = 0u64;
    let mut reads = 0u64;
    for r in &records {
        // Frozen clock: every stamp is 0; seq carries the total order.
        assert_eq!(r.ts_ns, 0);
        match &r.event {
            TraceEvent::QueryServed { within_budget, .. } => {
                served += 1;
                assert!(within_budget);
            }
            TraceEvent::RoundDispatched {
                submitted, deduped, ..
            } => {
                dispatched_submitted += submitted;
                dispatched_deduped += deduped;
            }
            TraceEvent::ProbeBatchRead { len, .. } => reads += len,
            other => panic!("unexpected event in a batch-path trace: {other:?}"),
        }
    }
    assert_eq!(served, reqs.len() as u64);
    assert_eq!(dispatched_submitted, stats.probes_submitted);
    assert_eq!(dispatched_deduped, stats.probes_executed);
    assert_eq!(reads, stats.probes_executed, "every deduped probe was read");
    let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..records.len() as u64).collect::<Vec<_>>());
}

#[test]
fn shed_arrival_trips_the_flight_recorder() {
    let dir = TempDir::new("obs-flight");
    let flight_path = dir.path().join("trace.flight.jsonl");
    let clock = Arc::new(VirtualClock::new());
    let flight = Arc::new(FlightRecorder::new(
        1024,
        Arc::clone(&clock) as Arc<dyn anns_engine::Clock>,
        &flight_path,
    ));
    let engine = Arc::new(engine(4).recorded(Arc::clone(&flight) as Arc<dyn Recorder>));
    let queue = AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: 4,
            max_wait: Duration::from_millis(2),
            capacity: 2,
        },
        clock,
    );
    let named = |q: &QueryRequest| NamedRequest {
        shard: "alg1-k3".to_string(),
        query: q.query.clone(),
    };
    let reqs = requests(31, 3);

    let t1 = queue.enqueue(named(&reqs[0])).expect("fits");
    let t2 = queue.enqueue(named(&reqs[1])).expect("fits");
    assert!(!flight_path.exists(), "no anomaly yet, no dump");
    let shed = queue.enqueue(named(&reqs[2]));
    assert!(shed.is_err(), "capacity 2 sheds the third arrival");
    assert_eq!(flight.dumps(), 1, "the shed dumped the ring");

    let dumped = parse_jsonl(&std::fs::read_to_string(&flight_path).unwrap()).unwrap();
    let kinds: Vec<&str> = dumped.iter().map(|r| r.event.kind()).collect();
    assert_eq!(
        kinds,
        vec!["query_admitted", "query_admitted", "shed"],
        "the dump holds the history leading up to the anomaly"
    );

    // Drain cleanly: the queue still works after a dump, and the final
    // ring holds the full story (seal → dispatches → completions).
    queue.close();
    while queue.pump_now().is_some() {}
    assert!(t1.wait().result.is_ok());
    assert!(t2.wait().result.is_ok());
    let final_kinds: Vec<&str> = flight
        .ring()
        .snapshot()
        .iter()
        .map(|r| r.event.kind())
        .collect();
    assert!(final_kinds.contains(&"generation_sealed"));
    assert!(final_kinds.contains(&"round_dispatched"));
    assert!(final_kinds.contains(&"query_served"));
}
