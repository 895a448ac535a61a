//! The generation loop.
//!
//! A *generation* is a set of queries admitted together and advanced **one
//! round at a time** by a single loop on the calling thread. Each query is
//! a step machine ([`QueryMachine`]): given its last round's words it
//! returns the next round's addresses or its answer. One pass of the loop
//! gathers the outstanding round of every live query, executes the union —
//! one sorted, deduplicated batch per shard — and steps each of those
//! queries with its own words. This is the paper's round structure lifted
//! from one query to many: a round's addresses are fixed before any of its
//! contents return, and other queries' addresses are data-independent of
//! it, so coalescing is correctness-free by construction.
//!
//! Every query keeps its own [`RoundExecutor`], fed from a source that
//! already holds that query's words, so its ledger, transcript and
//! declared word-size checks are byte-identical to a solo execution.
//! Every pass appends a [`DispatchTrace`] so audits can verify that a
//! query's rounds are never reordered or merged across dispatches.
//!
//! A scheme that implements only `serve` (no machine) runs its query on a
//! scoped thread behind a channel-backed machine (`serve_on_thread`);
//! the loop steps it like any other and re-raises the thread's panic, if
//! it has one, on the loop's thread.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use anns_cellprobe::{
    chunked_parallel_map, read_batch_observed, Address, ExecOptions, RoundExecutor, RoundMachine,
    RoundSource, Step, Table, Word,
};
use anns_core::serve::{QueryMachine, ServableScheme, ServedAnswer};
use anns_hamming::Point;
use anns_obs::{Recorder, TraceEvent};

use crate::engine::{QueryRequest, Served};
use crate::registry::Registry;

/// Total order on addresses: shard batches are dispatched sorted so the
/// table oracle sees cache-friendly, deterministic access patterns.
pub fn addr_cmp(a: &Address, b: &Address) -> Ordering {
    (a.table, &a.key).cmp(&(b.table, &b.key))
}

/// Audit record of one coalesced dispatch (one generation-round).
#[derive(Clone, Debug, serde::Serialize)]
pub struct DispatchTrace {
    /// Mount-table epoch the generation pinned at admission; every
    /// dispatch of one generation carries the same epoch (a hot swap
    /// never lands mid-generation).
    pub epoch: u64,
    /// Probe addresses submitted by all participants.
    pub submitted: usize,
    /// Unique addresses executed after per-shard sort + dedup.
    pub executed: usize,
    /// Distinct shards dispatched to.
    pub shards: usize,
    /// `(slot, that query's 0-based round index)` per participant.
    pub participants: Vec<(usize, usize)>,
}

/// The read side of one generation: its shard tables and how to read
/// them.
pub(crate) struct Shards<'t> {
    /// Table oracle of each shard, indexed by shard id. `None` for
    /// shards no query in this generation targets — the engine only
    /// materializes (and, for mmap-deferred shards, decodes) the tables
    /// it will actually probe.
    pub tables: Vec<Option<&'t dyn Table>>,
    /// Worker threads per coalesced shard batch.
    pub batch_threads: usize,
    /// Cache-block tile size for each shard batch (0 = untiled).
    pub probe_tile: usize,
    /// Mount-table epoch pinned at admission (stamped on every trace).
    pub mount_epoch: u64,
    /// Engine-wide generation id (labels trace events, not dispatches).
    pub gen_id: u64,
    /// Trace sink; `RoundDispatched` / `ProbeBatchRead` events flow here.
    pub obs: &'t dyn Recorder,
}

/// Each shard's sorted unique addresses of one round, and their words.
type ShardBatches = BTreeMap<usize, (Vec<Address>, Vec<Word>)>;

/// A query in flight: its machine, its executor and its outstanding
/// round (empty once answered).
struct InFlight<'s, 'm> {
    shard: usize,
    machine: Box<dyn QueryMachine + 'm>,
    exec: RoundExecutor<'s>,
    probe: Vec<Address>,
    rounds: usize,
    answer: Option<(ServedAnswer, u64)>,
}

impl InFlight<'_, '_> {
    /// Steps the machine past `words` to its next non-empty round or its
    /// answer. An empty round reads nothing and is not counted, exactly
    /// as `RoundExecutor::round` treats it.
    fn advance(&mut self, mut words: &[Word], started: Instant) {
        loop {
            match self.machine.step(words) {
                Step::Probe(addrs) if addrs.is_empty() => words = &[],
                Step::Probe(addrs) => {
                    self.probe = addrs;
                    return;
                }
                Step::Done(answer) => {
                    self.answer = Some((answer, started.elapsed().as_nanos() as u64));
                    return;
                }
            }
        }
    }
}

/// The round source every in-flight executor reads through: it holds
/// the words of the one query the loop is stepping.
#[derive(Default)]
struct Held(Mutex<Option<Vec<Word>>>);

impl RoundSource for Held {
    fn read_round(&self, _addrs: &[Address]) -> Vec<Word> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("no words held for this round")
    }
}

impl Shards<'_> {
    /// Runs a generation of `requests` against the shards of `epoch` to
    /// completion: results in request order, plus one trace per
    /// dispatch. `exec` is every query's executor options (each capped
    /// at its scheme's declared word size).
    pub(crate) fn run(
        &self,
        epoch: &Registry,
        requests: &[QueryRequest],
        exec: ExecOptions,
    ) -> (Vec<Served>, Vec<DispatchTrace>) {
        let started = Instant::now();
        let held = Held::default();
        let mut traces = Vec::new();
        std::thread::scope(|scope| {
            let mut live: Vec<InFlight<'_, '_>> = requests
                .iter()
                .map(|request| {
                    let scheme = epoch.scheme(request.shard);
                    let query = &request.query;
                    InFlight {
                        shard: request.shard.0,
                        machine: scheme
                            .start(query)
                            .unwrap_or_else(|| serve_on_thread(scope, scheme, query)),
                        exec: RoundExecutor::with_source(&held, exec.capped_at(scheme.word_bits())),
                        probe: Vec::new(),
                        rounds: 0,
                        answer: None,
                    }
                })
                .collect();
            for query in &mut live {
                query.advance(&[], started);
            }
            loop {
                let mut by_shard: BTreeMap<usize, Vec<Address>> = BTreeMap::new();
                let mut participants = Vec::new();
                for (slot, query) in live.iter().enumerate() {
                    if !query.probe.is_empty() {
                        let batch = by_shard.entry(query.shard).or_default();
                        batch.extend(query.probe.iter().cloned());
                        participants.push((slot, query.rounds));
                    }
                }
                if participants.is_empty() {
                    break;
                }
                let submitted = by_shard.values().map(Vec::len).sum();
                let batches = self.read(by_shard);
                for &(slot, _) in &participants {
                    let query = &mut live[slot];
                    let (unique, words) = &batches[&query.shard];
                    let probe = std::mem::take(&mut query.probe);
                    let held_words = probe.iter().map(|a| {
                        let i = unique
                            .binary_search_by(|u| addr_cmp(u, a))
                            .expect("probed address must be in its shard batch");
                        words[i].clone()
                    });
                    *held.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(held_words.collect());
                    let words = query.exec.round(&probe);
                    query.rounds += 1;
                    query.advance(&words, started);
                }
                traces.push(DispatchTrace {
                    epoch: self.mount_epoch,
                    submitted,
                    executed: batches.values().map(|(unique, _)| unique.len()).sum(),
                    shards: batches.len(),
                    participants,
                });
            }
            let served = live
                .into_iter()
                .zip(requests)
                .map(|(query, request)| {
                    let (answer, latency_ns) = query.answer.expect("every query answered");
                    let (ledger, transcript) = query.exec.finish();
                    Served {
                        answer,
                        within_budget: epoch.scheme(request.shard).within_budget(&ledger),
                        ledger,
                        transcript,
                        latency_ns,
                        epoch: self.mount_epoch,
                    }
                })
                .collect();
            (served, traces)
        })
    }

    /// Executes one generation-round: per shard, sorts and deduplicates
    /// the submitted addresses and reads them.
    fn read(&self, by_shard: BTreeMap<usize, Vec<Address>>) -> ShardBatches {
        // One event per shard, in shard order and *before* any read, so
        // dispatch events sit at a deterministic position in the trace.
        let unique: Vec<(usize, Vec<Address>)> = by_shard
            .into_iter()
            .map(|(shard, mut addrs)| {
                let submitted = addrs.len();
                addrs.sort_by(addr_cmp);
                addrs.dedup();
                if self.obs.enabled() {
                    self.obs.record(TraceEvent::RoundDispatched {
                        gen: self.gen_id,
                        shard: shard as u64,
                        submitted: submitted as u64,
                        deduped: addrs.len() as u64,
                    });
                }
                (shard, addrs)
            })
            .collect();
        // Shard tables are independent oracles, so their batches read
        // concurrently (one worker per shard, each fanning its own batch
        // out over `batch_threads`, cache-blocked per tile).
        let words = chunked_parallel_map(&unique, unique.len(), |(shard, addrs)| {
            read_batch_observed(
                self.tables[*shard].expect("dispatch to unmaterialized shard"),
                addrs,
                self.batch_threads,
                self.probe_tile,
                self.obs,
                *shard as u64,
                self.gen_id,
            )
        });
        unique
            .into_iter()
            .zip(words)
            .map(|((shard, addrs), words)| (shard, (addrs, words)))
            .collect()
    }
}

/// Runs a serve-only scheme's query on a thread of `scope`, returning
/// the machine the generation loop steps: each step hands the thread its
/// last round's words and waits for its next round or answer.
fn serve_on_thread<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    scheme: &'env dyn ServableScheme,
    query: &'env Point,
) -> Box<dyn QueryMachine + 'scope> {
    let (words_tx, words_rx) = mpsc::channel();
    let (steps_tx, steps_rx) = mpsc::channel();
    let thread = scope.spawn(move || {
        let relay = Relay {
            steps: steps_tx,
            words: Mutex::new(words_rx),
        };
        // The first step's (empty) words start the query.
        relay.wait();
        let mut exec = RoundExecutor::with_source(&relay, ExecOptions::default());
        let answer = scheme.serve(query, &mut exec);
        let _ = relay.steps.send(Step::Done(answer));
    });
    Box::new(ServeThread {
        words: words_tx,
        steps: steps_rx,
        thread: Some(thread),
    })
}

/// The loop's side of a [`serve_on_thread`] query.
struct ServeThread<'scope> {
    words: Sender<Vec<Word>>,
    steps: Receiver<Step<ServedAnswer>>,
    thread: Option<ScopedJoinHandle<'scope, ()>>,
}

impl RoundMachine for ServeThread<'_> {
    type Answer = ServedAnswer;

    fn step(&mut self, words: &[Word]) -> Step<ServedAnswer> {
        let _ = self.words.send(words.to_vec());
        match self.steps.recv() {
            Ok(step) => step,
            // The thread ended without an answer, so it panicked:
            // re-raise its panic here, where the generation runs.
            Err(_) => match self.thread.take().map(ScopedJoinHandle::join) {
                Some(Err(payload)) => std::panic::resume_unwind(payload),
                _ => panic!("serve thread stepped after it ended"),
            },
        }
    }
}

/// The serve thread's round source: sends each round's addresses to
/// the loop and blocks for their words.
struct Relay {
    steps: Sender<Step<ServedAnswer>>,
    /// `Mutex` only for the `Sync` bound on [`RoundSource`].
    words: Mutex<Receiver<Vec<Word>>>,
}

impl Relay {
    /// Blocks for the loop's next words. None arrive when the loop has
    /// dropped this query's machine because another query panicked:
    /// unwind quietly (no panic message) so the scope can join this
    /// thread and re-raise that panic.
    fn wait(&self) -> Vec<Word> {
        let words = self.words.lock().unwrap_or_else(|e| e.into_inner()).recv();
        words.unwrap_or_else(|_| std::panic::resume_unwind(Box::new("generation abandoned")))
    }
}

impl RoundSource for Relay {
    fn read_round(&self, addrs: &[Address]) -> Vec<Word> {
        let _ = self.steps.send(Step::Probe(addrs.to_vec()));
        self.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_cellprobe::{MaterializedTable, SpaceModel};
    use anns_core::serve::Candidate;
    use anns_obs::NullRecorder;
    use std::sync::LazyLock;

    use crate::registry::ShardId;

    /// Cell `i` holds `7i`.
    static TABLE: LazyLock<MaterializedTable> = LazyLock::new(|| {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(64, 64));
        for i in 0..64u64 {
            t.write(Address::with_u64(0, i), Word::from_u64(7 * i));
        }
        t
    });

    /// Probes, in round `r`, the cells whose bits are set in the query's
    /// limb `r`, answering with the sum of every word read.
    struct Cells;

    struct CellsMachine<'a>(std::slice::Iter<'a, u64>, u64);

    impl RoundMachine for CellsMachine<'_> {
        type Answer = ServedAnswer;
        fn step(&mut self, words: &[Word]) -> Step<ServedAnswer> {
            self.1 += words.iter().map(Word::to_u64).sum::<u64>();
            match self.0.next() {
                Some(limb) => Step::Probe(
                    (0..64)
                        .filter(|bit| limb >> bit & 1 == 1)
                        .map(|bit| Address::with_u64(0, bit))
                        .collect(),
                ),
                None => Step::Done(ServedAnswer::Candidate(Some(Candidate {
                    index: self.1,
                    distance: 0,
                }))),
            }
        }
    }

    impl ServableScheme for Cells {
        fn label(&self) -> String {
            "cells".into()
        }
        fn table(&self) -> &dyn Table {
            &*TABLE
        }
        fn word_bits(&self) -> u64 {
            64
        }
        fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
            Some(Box::new(CellsMachine(query.limbs().iter(), 0)))
        }
    }

    /// Runs one generation of `Cells` queries, each given as its rounds'
    /// cell lists.
    fn run(queries: &[&[&[u64]]]) -> (Vec<Served>, Vec<DispatchTrace>) {
        let mut registry = Registry::new();
        registry.register("cells", Box::new(Cells));
        let requests: Vec<QueryRequest> = queries
            .iter()
            .map(|rounds| QueryRequest {
                shard: ShardId(0),
                query: Point::from_limbs(
                    64 * rounds.len() as u32,
                    rounds
                        .iter()
                        .map(|cells| cells.iter().map(|c| 1 << c).sum())
                        .collect(),
                ),
            })
            .collect();
        let shards = Shards {
            tables: vec![Some(&*TABLE)],
            batch_threads: 1,
            probe_tile: 64,
            mount_epoch: 0,
            gen_id: 0,
            obs: &NullRecorder,
        };
        shards.run(&registry, &requests, ExecOptions::default())
    }

    fn sums(served: &[Served]) -> Vec<u64> {
        served.iter().map(|s| s.answer.index().unwrap()).collect()
    }

    #[test]
    fn addr_order_is_table_then_key() {
        let a = Address::with_u64(0, 5);
        let b = Address::with_u64(1, 0);
        assert_eq!(addr_cmp(&a, &b), Ordering::Less);
        assert_eq!(addr_cmp(&a, &a), Ordering::Equal);
        let c = Address::new(0, vec![0, 1]);
        let d = Address::new(0, vec![0, 2]);
        assert_eq!(addr_cmp(&c, &d), Ordering::Less);
    }

    #[test]
    fn two_queries_coalesce_shared_addresses() {
        // Both queries probe cells {1, 2} in round 1, then a
        // slot-specific cell in round 2.
        let (served, traces) = run(&[&[&[1, 2], &[10]], &[&[1, 2], &[11]]]);
        assert_eq!(sums(&served), vec![7 + 14 + 70, 7 + 14 + 77]);
        assert_eq!(served[0].ledger.per_round, vec![2, 1]);
        assert_eq!(traces.len(), 2, "two generation-rounds");
        // Round 1: 4 submitted, 2 unique after coalescing.
        assert_eq!((traces[0].submitted, traces[0].executed), (4, 2));
        // Round 2: disjoint addresses, nothing to coalesce.
        assert_eq!((traces[1].submitted, traces[1].executed), (2, 2));
        for trace in &traces {
            assert_eq!(trace.shards, 1);
            assert_eq!(trace.participants.len(), 2);
        }
    }

    #[test]
    fn answered_queries_leave_later_rounds_and_empty_rounds_are_free() {
        let (served, traces) = run(&[&[&[0], &[1], &[2]], &[&[], &[9], &[]]]);
        assert_eq!(sums(&served), vec![7 + 14, 63]);
        assert_eq!(
            served[1].ledger.per_round,
            vec![1],
            "empty rounds uncounted"
        );
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].participants, vec![(0, 0), (1, 0)]);
        assert_eq!(traces[1].participants, vec![(0, 1)], "peer answered");
    }

    #[test]
    fn per_slot_rounds_advance_monotonically_in_traces() {
        let (_, traces) = run(&[&[&[0]], &[&[1], &[2]], &[&[2], &[3], &[4]]]);
        let mut seen = [0usize; 3];
        for trace in &traces {
            for &(slot, round) in &trace.participants {
                assert_eq!(round, seen[slot], "slot {slot} rounds must not reorder");
                seen[slot] += 1;
            }
        }
        assert_eq!(seen, [1, 2, 3]);
    }
}
