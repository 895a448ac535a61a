//! The admission queue's central claims, proven deterministically on a
//! virtual clock — no sleeps, no wall-clock timing anywhere:
//!
//! 1. **Seal rules** — a partial window seals exactly when the oldest
//!    waiter hits `max_wait`; a window seals immediately at
//!    `max_generation` with time frozen; when both conditions hold at
//!    once, fill wins (the documented precedence);
//! 2. **Backpressure** — arrivals beyond `capacity` are shed with a typed
//!    `ServeError::Overloaded`, and capacity frees as windows seal;
//! 3. **Epoch pinning** — requests enqueued around a hot swap are served
//!    by the epoch that admitted their window, byte-identical to a solo
//!    replay against that epoch's bundle;
//! 4. **Equivalence** — any interleaving of concurrent enqueues yields
//!    answers and ledgers byte-identical to solo `execute_with`, and a
//!    saturated queue coalesces exactly like `submit_batch` over the same
//!    request stream.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::SoloServable;
use anns_core::AnnIndex;
use anns_engine::testkit::{bundle_bytes, clustered_index, hot_set_workload};
use anns_engine::{
    AdmissionOptions, AdmissionQueue, Engine, EngineOptions, MountTable, NamedRequest,
    QueryRequest, Registry, SealReason, ServeError, Ticket, VirtualClock,
};
use anns_hamming::Point;
use proptest::prelude::*;

const D: u32 = 192;
const MAX_WAIT: Duration = Duration::from_millis(2);

fn index_a() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 12, D, 0.05, 1901)))
}

fn index_b() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 12, D, 0.05, 1902)))
}

/// The "tenant" build: one shard name served by generation A of the
/// index, replaced by generation B in swap tests.
fn registry_over(index: &Arc<AnnIndex>) -> Registry {
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(index), 3);
    registry.register_lambda("lambda-8", Arc::clone(index), 8.0);
    registry
}

fn bytes_a() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| bundle_bytes(&registry_over(&index_a())))
}

fn bytes_b() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| bundle_bytes(&registry_over(&index_b())))
}

fn workload(seed: u64, count: usize) -> Vec<Point> {
    hot_set_workload(&index_a(), count, count.max(1), 5, seed)
}

/// An engine over index A with shard names `alg1-k3` / `lambda-8`, plus a
/// queue on a virtual clock. The engine generation width matches the
/// window so one sealed window is exactly one generation.
fn queue_fixture(
    max_generation: usize,
    capacity: usize,
) -> (Arc<Engine>, Arc<VirtualClock>, AdmissionQueue) {
    let engine = Arc::new(Engine::new(
        registry_over(&index_a()),
        EngineOptions {
            generation: max_generation,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    ));
    let clock = Arc::new(VirtualClock::new());
    let queue = AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation,
            max_wait: MAX_WAIT,
            capacity,
        },
        clock.clone(),
    );
    (engine, clock, queue)
}

fn named(query: &Point) -> NamedRequest {
    NamedRequest {
        shard: "alg1-k3".into(),
        query: query.clone(),
    }
}

#[test]
fn deadline_seals_a_partial_window() {
    let (engine, clock, queue) = queue_fixture(8, 64);
    let queries = workload(11, 3);
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| queue.enqueue(named(q)).unwrap())
        .collect();
    assert_eq!(queue.depth(), 3);

    // Time is frozen and the window is not full: nothing can seal.
    assert!(queue.pump_now().is_none());
    clock.advance(MAX_WAIT - Duration::from_nanos(1));
    assert!(queue.pump_now().is_none(), "one ns early is still early");

    clock.advance(Duration::from_nanos(1));
    let window = queue.pump_now().expect("deadline reached");
    assert_eq!(window.seal, SealReason::Deadline);
    assert_eq!(window.fill, 3);
    assert_eq!(window.opened_at_ns, 0);
    assert_eq!(window.sealed_at_ns, MAX_WAIT.as_nanos() as u64);
    assert_eq!(queue.depth(), 0);

    for (ticket, query) in tickets.into_iter().zip(&queries) {
        let resolution = ticket.wait();
        assert_eq!(resolution.wait_ns, MAX_WAIT.as_nanos() as u64);
        assert_eq!(resolution.window, Some(0));
        let served = resolution.result.expect("served");
        let shard = engine.registry().resolve("alg1-k3").unwrap();
        let (answer, ledger, _) = execute_with(
            &SoloServable(engine.registry().scheme(shard)),
            query,
            ExecOptions::default(),
        );
        assert_eq!(served.answer, answer);
        assert_eq!(served.ledger, ledger);
    }
    let online = engine.stats().online;
    assert_eq!(online.enqueued, 3);
    assert_eq!(online.windows, 1);
    assert_eq!(online.sealed_by_deadline, 1);
    assert_eq!(online.sealed_by_fill, 0);
    assert_eq!(online.wait_hist.count, 3);
    assert_eq!(online.wait_hist.max, MAX_WAIT.as_nanos() as u64);
}

#[test]
fn fill_seals_with_time_frozen() {
    let (engine, _clock, queue) = queue_fixture(4, 64);
    let queries = workload(12, 4);
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| queue.enqueue(named(q)).unwrap())
        .collect();
    // No clock advance at all: the fill condition alone seals.
    let window = queue.pump_now().expect("window is full");
    assert_eq!(window.seal, SealReason::Fill);
    assert_eq!(window.fill, 4);
    assert_eq!(window.sealed_at_ns, 0);
    for ticket in tickets {
        let resolution = ticket.wait();
        assert_eq!(resolution.wait_ns, 0, "virtual time never moved");
        assert!(resolution.result.is_ok());
    }
    assert_eq!(engine.stats().online.sealed_by_fill, 1);
}

#[test]
fn fill_wins_the_deadline_vs_fill_race() {
    // Both seal conditions hold at the same instant: the window is full
    // AND its oldest waiter is past the deadline. Precedence is
    // documented: fill wins, because it would have sealed with time
    // frozen.
    let (engine, clock, queue) = queue_fixture(4, 64);
    let queries = workload(13, 4);
    let _tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| queue.enqueue(named(q)).unwrap())
        .collect();
    clock.advance(MAX_WAIT * 10);
    let window = queue.pump_now().expect("both conditions hold");
    assert_eq!(window.seal, SealReason::Fill);

    // The mirror race: deadline passes with the window under-full — the
    // deadline must not wait for more arrivals.
    let queries = workload(14, 2);
    let _tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| queue.enqueue(named(q)).unwrap())
        .collect();
    clock.advance(MAX_WAIT);
    let window = queue.pump_now().expect("deadline holds");
    assert_eq!(window.seal, SealReason::Deadline);
    assert_eq!(window.fill, 2);
    let online = engine.stats().online;
    assert_eq!((online.sealed_by_fill, online.sealed_by_deadline), (1, 1));
}

#[test]
fn overload_sheds_with_a_typed_error_and_capacity_frees_on_seal() {
    let (engine, clock, queue) = queue_fixture(8, 4);
    let queries = workload(15, 6);
    let mut tickets = Vec::new();
    for q in &queries[..4] {
        tickets.push(queue.enqueue(named(q)).unwrap());
    }
    // The 5th arrival is shed — an error, not a panic, and no ticket.
    match queue.enqueue(named(&queries[4])) {
        Err(ServeError::Overloaded { depth, capacity }) => {
            assert_eq!((depth, capacity), (4, 4));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(queue.depth(), 4, "the shed arrival was never queued");

    // Sealing the window frees capacity for new arrivals.
    clock.advance(MAX_WAIT);
    let window = queue.pump_now().expect("deadline seals at capacity");
    assert_eq!(window.seal, SealReason::Deadline);
    tickets.push(queue.enqueue(named(&queries[5])).unwrap());
    assert_eq!(queue.depth(), 1);

    let online = engine.stats().online;
    assert_eq!(online.shed, 1);
    assert_eq!(online.enqueued, 5);
    assert_eq!(online.depth_hist.max, 4);
}

#[test]
fn fifo_windows_partition_the_stream_in_order() {
    let (engine, _clock, queue) = queue_fixture(4, 64);
    let queries = workload(16, 11);
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| queue.enqueue(named(q)).unwrap())
        .collect();
    // 11 waiting at width 4: two full windows seal immediately…
    assert_eq!(queue.pump_now().unwrap().seal, SealReason::Fill);
    assert_eq!(queue.pump_now().unwrap().seal, SealReason::Fill);
    // …the 3-query remainder cannot seal with time frozen…
    assert!(queue.pump_now().is_none());
    // …until close flushes it as a drain.
    queue.close();
    let last = queue.pump_now().expect("drain flushes the remainder");
    assert_eq!(last.seal, SealReason::Drain);
    assert_eq!(last.fill, 3);

    // FIFO: window sequence numbers partition the stream in enqueue
    // order — queries 0..4 in window 0, 4..8 in window 1, 8..11 in 2.
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resolution = ticket.wait();
        assert_eq!(resolution.window, Some((i / 4) as u64), "query {i}");
        assert!(resolution.result.is_ok());
    }
    let log = queue.window_log();
    assert_eq!(log.len(), 3);
    assert_eq!(log.iter().map(|w| w.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
    assert_eq!(engine.stats().online.fill_hist.count, 3);
    assert_eq!(engine.stats().online.sealed_by_drain, 1);
}

#[test]
fn window_log_is_a_bounded_ring() {
    // The audit log must not grow without bound in a long-running loop:
    // only the newest 1024 windows are retained (cumulative counters
    // live in EngineStats::online and never truncate).
    let (engine, _clock, queue) = queue_fixture(1, 2048);
    let query = workload(28, 1).pop().unwrap();
    const WINDOWS: usize = 1100;
    let tickets: Vec<Ticket> = (0..WINDOWS)
        .map(|_| {
            queue
                .enqueue(NamedRequest {
                    shard: "lambda-8".into(),
                    query: query.clone(),
                })
                .unwrap()
        })
        .collect();
    queue.close();
    queue.run();
    for ticket in tickets {
        assert!(ticket.wait().result.is_ok());
    }
    let log = queue.window_log();
    assert_eq!(log.len(), 1024, "ring keeps the newest 1024");
    assert_eq!(log.first().unwrap().seq, (WINDOWS - 1024) as u64);
    assert_eq!(log.last().unwrap().seq, (WINDOWS - 1) as u64);
    assert_eq!(
        engine.stats().online.windows,
        WINDOWS as u64,
        "cumulative stats never truncate"
    );
}

#[test]
fn closed_queue_rejects_enqueues_and_run_returns() {
    let (_engine, _clock, queue) = queue_fixture(4, 64);
    queue.close();
    assert!(matches!(
        queue.enqueue(named(&workload(17, 1)[0])),
        Err(ServeError::Closed)
    ));
    // Closed and drained: the driver loop exits immediately.
    queue.run();
    assert!(queue.is_closed());
    assert!(queue.pump().is_none());
}

#[test]
fn enqueue_across_swap_resolves_each_window_in_its_epoch() {
    // Mounted serving: requests are name-addressed so they survive the
    // flip; windows sealed before the swap serve from bundle A, windows
    // sealed after it from bundle B — proven by solo replay against each
    // bundle, deterministically (the swap happens between two pump_now
    // calls the test makes itself).
    let mounts = Arc::new(MountTable::new());
    let receipt_a = mounts.mount_from("live", bytes_a(), "<a>").unwrap();
    let engine = Arc::new(Engine::over(
        Arc::clone(&mounts),
        EngineOptions {
            generation: 8,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    ));
    let clock = Arc::new(VirtualClock::new());
    let queue = AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: 8,
            max_wait: MAX_WAIT,
            capacity: 64,
        },
        clock.clone(),
    );
    let queries = workload(18, 6);
    let request = |q: &Point| NamedRequest {
        shard: "live/alg1-k3".into(),
        query: q.clone(),
    };

    // Window 0: enqueued and sealed under epoch A.
    let before: Vec<Ticket> = queries[..3]
        .iter()
        .map(|q| queue.enqueue(request(q)).unwrap())
        .collect();
    clock.advance(MAX_WAIT);
    let w0 = queue.pump_now().expect("deadline seals window 0");
    assert_eq!(w0.epoch, receipt_a.epoch);

    // The swap lands while the queue is idle-open; then window 1 is
    // enqueued and sealed under epoch B.
    let receipt_b = mounts.swap_from("live", bytes_b(), "<b>").unwrap();
    let after: Vec<Ticket> = queries[3..]
        .iter()
        .map(|q| queue.enqueue(request(q)).unwrap())
        .collect();
    clock.advance(MAX_WAIT);
    let w1 = queue.pump_now().expect("deadline seals window 1");
    assert_eq!(w1.epoch, receipt_b.epoch);

    // Byte-identical to solo replay against the admitting epoch's bundle.
    let solo_a = Registry::load_bundle_from(bytes_a()).unwrap().registry;
    let solo_b = Registry::load_bundle_from(bytes_b()).unwrap().registry;
    for (tickets, solo, epoch, window_queries) in [
        (before, &solo_a, receipt_a.epoch, &queries[..3]),
        (after, &solo_b, receipt_b.epoch, &queries[3..]),
    ] {
        let id = solo.resolve("alg1-k3").unwrap();
        for (ticket, query) in tickets.into_iter().zip(window_queries) {
            let served = ticket.wait().result.expect("served");
            assert_eq!(served.epoch, epoch, "window pinned the wrong epoch");
            let (answer, ledger, _) = execute_with(
                &SoloServable(solo.scheme(id)),
                query,
                ExecOptions::default(),
            );
            assert_eq!(served.answer, answer, "answer from the wrong epoch");
            assert_eq!(served.ledger, ledger);
        }
    }

    // Old epoch retires once nothing pins it.
    assert!(receipt_b.wait_retired(Duration::from_secs(5)));
}

#[test]
fn unknown_names_resolve_to_typed_errors_in_their_epoch() {
    let mounts = Arc::new(MountTable::new());
    let receipt = mounts.mount_from("live", bytes_a(), "<a>").unwrap();
    let engine = Arc::new(Engine::over(Arc::clone(&mounts), EngineOptions::default()));
    let clock = Arc::new(VirtualClock::new());
    let queue = AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: 4,
            max_wait: MAX_WAIT,
            capacity: 16,
        },
        clock.clone(),
    );
    let queries = workload(19, 2);
    let good = queue
        .enqueue(NamedRequest {
            shard: "live/alg1-k3".into(),
            query: queries[0].clone(),
        })
        .unwrap();
    let bad = queue
        .enqueue(NamedRequest {
            shard: "gone/alg1-k3".into(),
            query: queries[1].clone(),
        })
        .unwrap();
    clock.advance(MAX_WAIT);
    queue.pump_now().expect("deadline seals");
    assert!(good.wait().result.is_ok());
    match bad.wait().result {
        Err(ServeError::UnknownShard { shard, epoch }) => {
            assert_eq!(shard, "gone/alg1-k3");
            assert_eq!(epoch, receipt.epoch);
        }
        other => panic!("expected UnknownShard, got {other:?}"),
    }
}

#[test]
fn saturated_queue_coalesces_exactly_like_submit_batch() {
    // 32 requests over 4 distinct queries, one shard, window = generation
    // = 8: the queue's windows are the same chunks submit_batch would
    // form, so the coalescing accounting must be identical.
    let (engine, _clock, queue) = queue_fixture(8, 64);
    let queries = hot_set_workload(&index_a(), 32, 4, 5, 20);
    let tickets: Vec<Ticket> = queries
        .iter()
        .map(|q| queue.enqueue(named(q)).unwrap())
        .collect();
    queue.close();
    queue.run(); // 4 full windows seal by fill, nothing left to drain
    for ticket in tickets {
        assert!(ticket.wait().result.is_ok());
    }
    let online_stats = engine.stats();
    assert_eq!(online_stats.online.windows, 4);
    assert_eq!(online_stats.online.sealed_by_fill, 4);

    let batch_engine = Engine::new(
        registry_over(&index_a()),
        EngineOptions {
            generation: 8,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    );
    let shard = batch_engine.registry().resolve("alg1-k3").unwrap();
    let requests: Vec<QueryRequest> = queries
        .iter()
        .map(|q| QueryRequest {
            shard,
            query: q.clone(),
        })
        .collect();
    batch_engine.submit_batch(&requests);
    let batch_stats = batch_engine.stats();
    assert_eq!(
        online_stats.probes_submitted, batch_stats.probes_submitted,
        "same probes submitted"
    );
    assert_eq!(
        online_stats.probes_executed, batch_stats.probes_executed,
        "same probes survive coalescing"
    );
    assert_eq!(
        online_stats.coalescing_ratio(),
        batch_stats.coalescing_ratio()
    );
    assert!(
        online_stats.coalescing_ratio() <= 0.5,
        "8-wide windows over 4 distinct queries must share probes"
    );
}

#[test]
fn driver_panic_resolves_every_ticket_typed_and_closes_the_queue() {
    use anns_cellprobe::{MaterializedTable, RoundExecutor, SpaceModel, Table};
    use anns_core::serve::{ServableScheme, ServedAnswer};

    /// A scheme that panics while serving — the broken-shard case.
    struct Trap {
        table: MaterializedTable,
    }
    impl ServableScheme for Trap {
        fn label(&self) -> String {
            "trap".into()
        }
        fn table(&self) -> &dyn Table {
            &self.table
        }
        fn word_bits(&self) -> u64 {
            64
        }
        fn serve(&self, _query: &Point, _exec: &mut RoundExecutor<'_>) -> ServedAnswer {
            panic!("trap scheme always panics");
        }
    }

    let mut registry = Registry::new();
    registry.register(
        "trap",
        Box::new(Trap {
            table: MaterializedTable::new(SpaceModel::from_exact_cells(2, 64)),
        }),
    );
    let engine = Arc::new(Engine::new(
        registry,
        EngineOptions {
            generation: 1,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    ));
    let clock = Arc::new(VirtualClock::new());
    let queue = AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: 1,
            max_wait: MAX_WAIT,
            capacity: 16,
        },
        clock,
    );
    let query = workload(29, 1).pop().unwrap();
    let request = || NamedRequest {
        shard: "trap".into(),
        query: query.clone(),
    };
    // Window width 1: the first ticket seals alone and panics in
    // execution; the second is still waiting in the open queue when the
    // driver dies.
    let executing = queue.enqueue(request()).unwrap();
    let stranded = queue.enqueue(request()).unwrap();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| queue.pump_now()));
    assert!(outcome.is_err(), "the trap panic must propagate");

    // Both tickets resolve typed — no client hangs on a dead driver —
    // and the queue is closed so nothing new can strand either.
    assert!(matches!(executing.wait().result, Err(ServeError::Closed)));
    assert!(matches!(stranded.wait().result, Err(ServeError::Closed)));
    assert!(queue.is_closed());
    assert!(matches!(queue.enqueue(request()), Err(ServeError::Closed)));
    assert!(queue.pump().is_none(), "closed and drained");
}

#[test]
fn swap_races_concurrent_enqueues_without_losing_a_ticket() {
    // Three enqueuer threads, a swap thread, and a driver thread all
    // race. Every ticket must resolve exactly once, each served by the
    // epoch that admitted its window (proven by solo replay), with zero
    // lost or double-served queries. The virtual clock stays frozen:
    // windows seal by fill while the stream is deep and by drain at
    // close, so the test never depends on timing.
    const PER_THREAD: usize = 12;
    let mounts = Arc::new(MountTable::new());
    let receipt_a = mounts.mount_from("live", bytes_a(), "<a>").unwrap();
    let engine = Arc::new(Engine::over(
        Arc::clone(&mounts),
        EngineOptions {
            generation: 4,
            exec: ExecOptions::default(),
            batch_threads: 1,
        },
    ));
    let clock = Arc::new(VirtualClock::new());
    let queue = Arc::new(AdmissionQueue::new(
        Arc::clone(&engine),
        AdmissionOptions {
            max_generation: 4,
            max_wait: MAX_WAIT,
            capacity: usize::MAX >> 1,
        },
        clock,
    ));

    let resolutions = std::thread::scope(|scope| {
        let driver = {
            let queue = Arc::clone(&queue);
            scope.spawn(move || queue.run())
        };
        let swapper = {
            let mounts = Arc::clone(&mounts);
            scope.spawn(move || mounts.swap_from("live", bytes_b(), "<b>").unwrap())
        };
        let enqueuers: Vec<_> = (0..3u64)
            .map(|t| {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    let queries = workload(100 + t, PER_THREAD);
                    queries
                        .into_iter()
                        .map(|q| {
                            let ticket = queue
                                .enqueue(NamedRequest {
                                    shard: "live/alg1-k3".into(),
                                    query: q.clone(),
                                })
                                .expect("capacity is effectively unbounded here");
                            (q, ticket)
                        })
                        .collect::<Vec<(Point, Ticket)>>()
                })
            })
            .collect();
        // Collect tickets first, *then* close: with the virtual clock
        // frozen, a sub-width remainder can only seal at drain, so
        // waiting on tickets before close would deadlock by design.
        let mut pending = Vec::new();
        for handle in enqueuers {
            pending.extend(handle.join().expect("enqueuer"));
        }
        let receipt_b = swapper.join().expect("swap");
        queue.close();
        let all: Vec<(Point, anns_engine::Resolution)> = pending
            .into_iter()
            .map(|(q, ticket)| (q, ticket.wait()))
            .collect();
        driver.join().expect("driver");
        (all, receipt_b)
    });
    let (resolved, receipt_b) = resolutions;

    assert_eq!(resolved.len(), 3 * PER_THREAD, "zero lost tickets");
    let solo_a = Registry::load_bundle_from(bytes_a()).unwrap().registry;
    let solo_b = Registry::load_bundle_from(bytes_b()).unwrap().registry;
    for (query, resolution) in &resolved {
        let served = resolution
            .result
            .as_ref()
            .expect("zero failed queries across the swap");
        let solo = if served.epoch == receipt_a.epoch {
            &solo_a
        } else {
            assert_eq!(served.epoch, receipt_b.epoch, "unknown epoch");
            &solo_b
        };
        let id = solo.resolve("alg1-k3").unwrap();
        let (answer, ledger, _) = execute_with(
            &SoloServable(solo.scheme(id)),
            query,
            ExecOptions::default(),
        );
        assert_eq!(&served.answer, &answer, "answer from the wrong epoch");
        assert_eq!(&served.ledger, &ledger);
    }
    let online = engine.stats().online;
    assert_eq!(online.enqueued, 3 * PER_THREAD as u64);
    assert_eq!(online.shed, 0);
    assert_eq!(
        online.fill_hist.sum,
        3 * PER_THREAD as u64,
        "every enqueued query appears in exactly one window"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of concurrent enqueues — thread count, per-thread
    /// load and window width all randomized — resolves every ticket with
    /// answers and ledgers byte-identical to solo `execute_with`.
    #[test]
    fn interleaved_enqueues_match_solo_execution(
        seed in any::<u64>(),
        threads in 1usize..4,
        per_thread in 1usize..10,
        width in 1usize..6,
    ) {
        let (engine, _clock, queue) = queue_fixture(width, 1024);
        let queue = Arc::new(queue);
        let resolved = std::thread::scope(|scope| {
            let driver = {
                let queue = Arc::clone(&queue);
                scope.spawn(move || queue.run())
            };
            let enqueuers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let queue = Arc::clone(&queue);
                    scope.spawn(move || {
                        let queries = workload(seed ^ t, per_thread);
                        queries
                            .into_iter()
                            .enumerate()
                            .map(|(i, q)| {
                                // Alternate shards so generations mix schemes.
                                let shard = if i % 2 == 0 { "alg1-k3" } else { "lambda-8" };
                                let ticket = queue
                                    .enqueue(NamedRequest { shard: shard.into(), query: q.clone() })
                                    .expect("under capacity");
                                (shard, q, ticket)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // Join enqueuers before closing, and only wait tickets after
            // the close: the frozen clock means a sub-width remainder
            // seals exclusively at drain.
            let mut pending = Vec::new();
            for handle in enqueuers {
                pending.extend(handle.join().expect("enqueuer"));
            }
            queue.close();
            let all: Vec<_> = pending
                .into_iter()
                .map(|(shard, q, ticket)| (shard, q, ticket.wait()))
                .collect();
            driver.join().expect("driver");
            all
        });

        prop_assert_eq!(resolved.len(), threads * per_thread);
        let registry = engine.registry();
        for (shard, query, resolution) in &resolved {
            let served = resolution.result.as_ref().expect("served");
            let id = registry.resolve(shard).unwrap();
            let (answer, ledger, _) = execute_with(
                &SoloServable(registry.scheme(id)),
                query,
                ExecOptions::default(),
            );
            prop_assert_eq!(&served.answer, &answer);
            prop_assert_eq!(&served.ledger, &ledger);
            prop_assert!(served.within_budget);
        }
        let online = engine.stats().online;
        prop_assert_eq!(online.enqueued, (threads * per_thread) as u64);
        prop_assert_eq!(online.fill_hist.sum, (threads * per_thread) as u64);
        prop_assert_eq!(online.shed, 0);
    }
}
