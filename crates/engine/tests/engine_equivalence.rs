//! The engine's central correctness claims, tested end to end:
//!
//! 1. **Equivalence** — serving through the round-synchronous coalescing
//!    scheduler returns answers and ledgers *byte-identical* to sequential
//!    `execute_with` runs of the same schemes on the same queries (the
//!    table oracles are pure functions, so coalescing must be
//!    unobservable);
//! 2. **Round integrity** — coalescing merges probes only *within* a
//!    generation-round, never across rounds: per-query transcripts match
//!    solo execution entry for entry, and the dispatch audit log shows
//!    every query's rounds dispatched strictly in order, exactly once
//!    each.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Duration;

use anns_cellprobe::{execute_with, ExecOptions, RoundExecutor, RoundMachine, Step, Table, Word};
use anns_core::serve::{QueryMachine, ServableScheme, ServedAnswer, SoloServable};
use anns_core::{
    Aggregation, Alg2Config, AnnIndex, ServeAlg1, ServeAlg2, ServeLambda, SubsampledRepetition,
};
use anns_engine::testkit::{clustered_index, hot_set_workload};
use anns_engine::{Engine, EngineOptions, QueryRequest, Registry};
use anns_hamming::Point;
use anns_lsh::{LshIndex, LshParams, ServeLsh};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 192;
const D: u32 = 256;

fn shared_index() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(12, 16, D, 0.04, 4242)))
}

fn engine_over_shared_index(exec: ExecOptions, generation: usize) -> Engine {
    let index = shared_index();
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k1", Arc::clone(&index), 1);
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_alg2(
        "alg2-k8",
        Arc::clone(&index),
        anns_core::Alg2Config::with_k(8),
    );
    registry.register_lambda("lambda-8", index, 8.0);
    Engine::new(
        registry,
        EngineOptions {
            generation,
            exec,
            batch_threads: 2,
        },
    )
}

/// A query workload mixing near-planted and uniform points, with
/// repetition (`distinct < count`) so coalescing has something to merge.
fn workload(seed: u64, count: usize, distinct: usize) -> Vec<Point> {
    hot_set_workload(&shared_index(), count, distinct, 5, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine answers and ledgers are byte-identical to sequential
    /// `execute_with` answers for the same seeds, across shard mixes,
    /// generation widths, and workload repetition.
    #[test]
    fn engine_matches_sequential_execution(
        seed in any::<u64>(),
        generation in 1usize..24,
        count in 1usize..32,
    ) {
        let engine = engine_over_shared_index(ExecOptions::default(), generation);
        let queries = workload(seed, count, (count / 2).max(1));
        let shards = engine.registry().len();
        let requests: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryRequest {
                shard: anns_engine::ShardId((seed as usize + i) % shards),
                query: q.clone(),
            })
            .collect();
        let served = engine.submit_batch(&requests);
        prop_assert_eq!(served.len(), requests.len());
        let registry = engine.registry();
        for (request, s) in requests.iter().zip(served.iter()) {
            let scheme = registry.scheme(request.shard);
            let (answer, ledger, _) = execute_with(
                &SoloServable(scheme),
                &request.query,
                ExecOptions::default(),
            );
            prop_assert_eq!(&s.answer, &answer);
            prop_assert_eq!(&s.ledger, &ledger);
            prop_assert!(s.within_budget, "declared budgets must hold when serving");
        }
    }
}

#[test]
fn transcripts_survive_coalescing_and_rounds_never_merge() {
    let engine = engine_over_shared_index(ExecOptions::with_transcript(), 16);
    let queries = workload(7, 24, 6);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest {
            shard: anns_engine::ShardId(i % engine.registry().len()),
            query: q.clone(),
        })
        .collect();
    let (served, traces) = engine.submit_batch_traced(&requests);

    // (a) Per-query transcript replay: the full (round, address, word)
    // record under coalesced serving equals the solo record.
    let registry = engine.registry();
    for (request, s) in requests.iter().zip(served.iter()) {
        let scheme = registry.scheme(request.shard);
        let (_, _, solo_transcript) = execute_with(
            &SoloServable(scheme),
            &request.query,
            ExecOptions::with_transcript(),
        );
        assert_eq!(
            s.transcript, solo_transcript,
            "coalescing must not change any query's probe record"
        );
    }

    // (b) Dispatch audit: within each generation, each slot's rounds are
    // dispatched strictly in order 0, 1, 2, … — a probe of round i+1 is
    // never dispatched before (or together with) round i.
    for generation in &traces {
        let mut next_round: std::collections::HashMap<usize, usize> = Default::default();
        for dispatch in &generation.dispatches {
            assert!(dispatch.executed <= dispatch.submitted);
            let mut seen_this_dispatch = std::collections::HashSet::new();
            for &(slot, round) in &dispatch.participants {
                assert!(
                    seen_this_dispatch.insert(slot),
                    "a slot may park at most one round per dispatch"
                );
                let expected = next_round.entry(slot).or_insert(0);
                assert_eq!(
                    round, *expected,
                    "slot {slot} round {round} dispatched out of order"
                );
                *expected += 1;
            }
        }
    }

    // (c) The audited dispatch rounds agree with each query's own ledger:
    // slot round counts in the trace equal ledger.rounds().
    let mut dispatched_rounds: std::collections::HashMap<usize, usize> = Default::default();
    let generation_width = 16usize;
    for (g, generation) in traces.iter().enumerate() {
        for dispatch in &generation.dispatches {
            for &(slot, _) in &dispatch.participants {
                *dispatched_rounds
                    .entry(g * generation_width + slot)
                    .or_insert(0) += 1;
            }
        }
    }
    for (i, s) in served.iter().enumerate() {
        assert_eq!(
            dispatched_rounds.get(&i).copied().unwrap_or(0),
            s.ledger.rounds(),
            "query {i}: audited dispatches must equal its round count"
        );
    }
}

#[test]
fn repeated_queries_coalesce_within_a_generation() {
    let engine = engine_over_shared_index(ExecOptions::default(), 32);
    // 32 requests over 4 distinct queries on one shard: every dispatch
    // should execute far fewer probes than were submitted.
    let queries = workload(11, 32, 4);
    let shard = engine.registry().resolve("alg1-k3").unwrap();
    let requests: Vec<QueryRequest> = queries
        .into_iter()
        .map(|query| QueryRequest { shard, query })
        .collect();
    let (_, traces) = engine.submit_batch_traced(&requests);
    let (mut submitted, mut executed) = (0usize, 0usize);
    for generation in &traces {
        for dispatch in &generation.dispatches {
            submitted += dispatch.submitted;
            executed += dispatch.executed;
        }
    }
    assert!(submitted > 0);
    assert!(
        executed * 4 <= submitted,
        "8x-repeated queries must coalesce ≥ 4x: executed {executed} of {submitted}"
    );
    let stats = engine.stats();
    assert_eq!(stats.queries, 32);
    assert_eq!(stats.probes_submitted, submitted as u64);
    assert_eq!(stats.probes_executed, executed as u64);
    assert!(stats.coalescing_ratio() <= 0.25);
    assert_eq!(stats.budget_violations, 0);
}

#[test]
fn mixed_shards_route_and_account_independently() {
    let index = shared_index();
    let mut rng = StdRng::seed_from_u64(77);
    let lsh = Arc::new(LshIndex::build(
        index.dataset().clone(),
        LshParams::for_radius(N, D, 6.0, 2.0, 4.0),
        &mut rng,
    ));
    let mut registry = Registry::new();
    let a = registry.register_alg1("alg1", Arc::clone(&index), 3);
    let b = registry.register("lsh", Box::new(ServeLsh { index: lsh }));
    let engine = Engine::new(registry, EngineOptions::default());
    let queries = workload(13, 10, 10);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest {
            shard: if i % 2 == 0 { a } else { b },
            query: q.clone(),
        })
        .collect();
    let (served, traces) = engine.submit_batch_traced(&requests);
    for (i, s) in served.iter().enumerate() {
        if i % 2 == 0 {
            assert!(s.ledger.rounds() <= 3, "alg1 obeys its round budget");
        } else {
            assert_eq!(s.ledger.rounds(), 1, "LSH is non-adaptive");
        }
        assert!(s.within_budget);
    }
    // Round 1 dispatches to both shards at once.
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].dispatches[0].shards, 2);
}

#[test]
fn panicking_query_does_not_deadlock_its_generation() {
    use anns_cellprobe::{Address, MaterializedTable, RoundExecutor, SpaceModel, Table, Word};
    use anns_core::serve::{Candidate, ServableScheme, ServedAnswer};

    /// Two-round scheme that panics between rounds when the query's bit 0
    /// is set — after its peers have parked their round-2 probes, which is
    /// exactly the state that would deadlock without depart-on-drop.
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
        fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
            let first = exec.round(&[Address::with_u64(0, 0)]);
            assert!(!query.get(0), "trap query");
            let second = exec.round(&[Address::with_u64(0, first[0].to_u64())]);
            ServedAnswer::Candidate(Some(Candidate {
                index: second[0].to_u64(),
                distance: 0,
            }))
        }
    }

    let table = MaterializedTable::new(SpaceModel::from_exact_cells(2, 64));
    table.write(Address::with_u64(0, 0), Word::from_u64(1));
    table.write(Address::with_u64(0, 1), Word::from_u64(42));
    let mut registry = Registry::new();
    let shard = registry.register("trap", Box::new(Trap { table }));
    let engine = Engine::new(
        registry,
        EngineOptions {
            generation: 4,
            ..EngineOptions::default()
        },
    );
    let mut good = Point::random(8, &mut StdRng::seed_from_u64(1));
    if good.get(0) {
        good.flip(0);
    }
    let mut bad = good.clone();
    bad.flip(0);
    let requests: Vec<QueryRequest> = [good.clone(), bad, good]
        .iter()
        .map(|q| QueryRequest {
            shard,
            query: q.clone(),
        })
        .collect();
    // Must return (propagating the panic), not hang at the round barrier.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.submit_batch(&requests)
    }));
    assert!(result.is_err(), "the trap panic must propagate");
}

#[test]
fn unknown_shard_is_rejected_before_any_query_runs() {
    let engine = engine_over_shared_index(ExecOptions::default(), 8);
    let query = workload(23, 1, 1).pop().unwrap();
    let bogus = anns_engine::ShardId(engine.registry().len() + 3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.submit_batch(&[QueryRequest {
            shard: bogus,
            query,
        }])
    }));
    assert!(result.is_err(), "unknown shard must be rejected");
    assert_eq!(engine.stats().queries, 0, "nothing may have been served");
}

#[test]
fn batch_threads_clamp_round_trips_through_serve_report() {
    // The container default of 4 threads is meaningless on a 1-core box:
    // Engine::new clamps to available parallelism, and the clamped value
    // is what `options()` exposes and ServeReport records.
    let available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let index = shared_index();
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k1", Arc::clone(&index), 1);
    let engine = Engine::new(
        registry,
        EngineOptions {
            generation: 8,
            exec: ExecOptions::default(),
            batch_threads: 4096,
        },
    );
    let clamped = engine.options().batch_threads;
    assert_eq!(clamped, available, "4096 clamps down to the machine");
    assert!(clamped >= 1);

    // And a zero request clamps *up* — the engine never runs threadless.
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k1", index, 1);
    let engine_zero = Engine::new(
        registry,
        EngineOptions {
            generation: 8,
            exec: ExecOptions::default(),
            batch_threads: 0,
        },
    );
    assert_eq!(engine_zero.options().batch_threads, 1);

    // Round trip: the effective options survive serialization, so a
    // committed ServeReport records what actually ran.
    let report = anns_engine::ServeReport::from_run("clamp", &[], &[], Duration::from_millis(1))
        .with_options(engine.options());
    let json = serde_json::to_string(&report).unwrap();
    let back: anns_engine::ServeReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.generation, 8);
    assert_eq!(back.batch_threads, clamped as u64);
}

#[test]
fn submit_single_query_matches_batch_of_one() {
    let engine = engine_over_shared_index(ExecOptions::default(), 8);
    let query = workload(21, 1, 1).pop().unwrap();
    let shard = engine.registry().resolve("alg1-k3").unwrap();
    let solo = engine.submit(shard, &query);
    let batch = engine.submit_batch(&[QueryRequest {
        shard,
        query: query.clone(),
    }]);
    assert_eq!(solo.answer, batch[0].answer);
    assert_eq!(solo.ledger, batch[0].ledger);
}

/// The native scheme mix over the shared index's data: Algorithm 1
/// and 2, λ-ANNS, LSH, and a subsampled-repetition ensemble.
fn native_schemes() -> Vec<Box<dyn ServableScheme>> {
    let index = shared_index();
    let mut rng = StdRng::seed_from_u64(91);
    let lsh = LshIndex::build(
        index.dataset().clone(),
        LshParams::for_radius(N, D, 6.0, 2.0, 4.0),
        &mut rng,
    );
    let replicas = (0..3u64)
        .map(|seed| {
            let index = clustered_index(12, 16, D, 0.04, 500 + seed);
            Arc::new(ServeAlg1 {
                index,
                k: 2,
                tau_override: None,
            }) as Arc<dyn ServableScheme>
        })
        .collect();
    vec![
        Box::new(ServeAlg1 {
            index: Arc::clone(&index),
            k: 3,
            tau_override: None,
        }),
        Box::new(ServeAlg2 {
            index: Arc::clone(&index),
            config: Alg2Config::with_k(8),
        }),
        Box::new(ServeLambda { index, lambda: 8.0 }),
        Box::new(ServeLsh {
            index: Arc::new(lsh),
        }),
        Box::new(SubsampledRepetition::new(replicas, 2, 5, Aggregation::BestOf).unwrap()),
    ]
}

/// A wrapped scheme: `native: false` hides its machine, so the engine
/// runs its queries on serve threads; `native: true` keeps the machine
/// and records the thread of its every step in `STEP_THREADS`.
struct Wrapped {
    inner: Box<dyn ServableScheme>,
    native: bool,
}

static STEP_THREADS: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

struct Watched<'a>(Box<dyn QueryMachine + 'a>);

impl RoundMachine for Watched<'_> {
    type Answer = ServedAnswer;
    fn step(&mut self, words: &[Word]) -> Step<ServedAnswer> {
        STEP_THREADS
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.0.step(words)
    }
}

impl ServableScheme for Wrapped {
    fn label(&self) -> String {
        self.inner.label()
    }
    fn table(&self) -> &dyn Table {
        self.inner.table()
    }
    fn word_bits(&self) -> u64 {
        self.inner.word_bits()
    }
    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let machine = self.inner.start(query).filter(|_| self.native)?;
        Some(Box::new(Watched(machine)))
    }
    fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        self.inner.serve(query, exec)
    }
}

fn round_robin(registry: &Registry, queries: Vec<Point>) -> Vec<QueryRequest> {
    let shards = registry.len();
    queries
        .into_iter()
        .enumerate()
        .map(|(i, query)| QueryRequest {
            shard: anns_engine::ShardId(i % shards),
            query,
        })
        .collect()
}

#[test]
fn mixed_native_and_serve_only_generation_matches_solo_execution() {
    let mut registry = Registry::new();
    for (i, scheme) in native_schemes().into_iter().enumerate() {
        registry.register(format!("native-{i}"), scheme);
    }
    let alg2 = ServeAlg2 {
        index: shared_index(),
        config: Alg2Config::with_k(8),
    };
    let serve_only = Wrapped {
        inner: Box::new(alg2),
        native: false,
    };
    registry.register("serve-only", Box::new(serve_only));
    let requests = round_robin(&registry, workload(31, 48, 20));
    let engine = Engine::new(
        registry,
        EngineOptions {
            generation: 24,
            exec: ExecOptions::with_transcript(),
            batch_threads: 2,
        },
    );
    let registry = engine.registry();
    let served = engine.submit_batch(&requests);
    for (request, s) in requests.iter().zip(&served) {
        let scheme = registry.scheme(request.shard);
        let opts = ExecOptions::with_transcript();
        let (answer, ledger, transcript) =
            execute_with(&SoloServable(scheme), &request.query, opts);
        assert_eq!(
            (&s.answer, &s.ledger),
            (&answer, &ledger),
            "{}",
            scheme.label()
        );
        assert_eq!(s.transcript, transcript, "{}", scheme.label());
        assert!(s.within_budget);
    }
}

#[test]
fn every_step_of_a_native_generation_runs_on_the_calling_thread() {
    let mut registry = Registry::new();
    for (i, inner) in native_schemes().into_iter().enumerate() {
        registry.register(
            format!("native-{i}"),
            Box::new(Wrapped {
                inner,
                native: true,
            }),
        );
    }
    let requests = round_robin(&registry, workload(3, 64, 64));
    let engine = Engine::new(
        registry,
        EngineOptions {
            generation: 64,
            ..Default::default()
        },
    );
    let (_, traces) = engine.submit_batch_traced(&requests);
    assert_eq!(traces.len(), 1, "one width-64 generation");
    let threads: HashSet<ThreadId> = STEP_THREADS.lock().unwrap().drain(..).collect();
    assert_eq!(
        threads,
        HashSet::from([std::thread::current().id()]),
        "every step runs on the thread that submitted the generation"
    );
}
