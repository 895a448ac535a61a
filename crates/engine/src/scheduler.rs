//! The round-synchronous generation scheduler.
//!
//! A *generation* is a set of queries admitted together and advanced **one
//! round at a time**: every in-flight query computes its next round's
//! addresses, parks them at a barrier, and only when *all* still-active
//! queries of the generation have parked does the scheduler execute the
//! union — one sorted, deduplicated batch per shard — and hand each query
//! its words back. This is the paper's round structure lifted from one
//! query to many: within a generation-round, no query's probe contents can
//! influence any probe address of the same round (its own addresses were
//! fixed before dispatch — [`RoundExecutor`] enforces that per query — and
//! other queries' addresses are data-independent of it), so coalescing is
//! correctness-free by construction and every per-query `Transcript` is
//! byte-identical to a solo execution.
//!
//! Implementation: each query runs on its own scoped thread whose
//! [`RoundSource`] is a handle onto the shared [`Generation`] state. The
//! *last* participant to park a round becomes the leader and executes the
//! coalesced dispatch in place (no separate coordinator thread); queries
//! that finish *depart*, shrinking the barrier width, and trigger the
//! dispatch themselves if they were the ones holding it open. Every
//! dispatch appends a [`DispatchTrace`] so audits can verify that a
//! query's rounds are never reordered or merged across engine dispatches.
//!
//! [`RoundExecutor`]: anns_cellprobe::RoundExecutor

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};

use anns_cellprobe::{
    chunked_parallel_map, read_batch_observed, Address, RoundSource, Table, Word,
};
use anns_obs::{Recorder, TraceEvent};

/// Total order on addresses: shard batches are dispatched sorted so the
/// table oracle sees cache-friendly, deterministic access patterns.
pub fn addr_cmp(a: &Address, b: &Address) -> Ordering {
    (a.table, &a.key).cmp(&(b.table, &b.key))
}

/// One query's parked round.
struct Pending {
    slot: usize,
    shard: usize,
    addrs: Vec<Address>,
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

struct GenState {
    /// Queries still running (parked or computing); the barrier width.
    active: usize,
    /// Bumped once per dispatch; parked threads wait on it.
    epoch: u64,
    /// Rounds parked since the last dispatch (at most one per active query).
    pending: Vec<Pending>,
    /// Per-slot words from the last dispatch, taken by their owners.
    results: Vec<Option<Vec<Word>>>,
    /// Per-slot count of rounds already dispatched.
    rounds_done: Vec<usize>,
    /// Audit log, one entry per dispatch.
    traces: Vec<DispatchTrace>,
}

/// Shared state of one in-flight generation.
pub struct Generation<'a> {
    /// Table oracle of each shard, indexed by shard id. `None` for
    /// shards no query in this generation targets — the engine only
    /// materializes (and, for mmap-deferred shards, decodes) the tables
    /// it will actually probe.
    tables: Vec<Option<&'a dyn Table>>,
    state: Mutex<GenState>,
    parked: Condvar,
    /// Worker threads per coalesced shard batch.
    batch_threads: usize,
    /// Cache-block tile size for each shard batch (0 = untiled).
    probe_tile: usize,
    /// Mount-table epoch pinned at admission (stamped on every trace).
    mount_epoch: u64,
    /// Engine-wide generation id (labels trace events, not dispatches).
    gen_id: u64,
    /// Trace sink; `RoundDispatched` / `ProbeBatchRead` events flow here.
    obs: &'a dyn Recorder,
}

impl<'a> Generation<'a> {
    /// A generation of `slots` queries over the given shard tables
    /// (`None` for shards the generation will not touch), pinned to one
    /// mount-table epoch. `probe_tile` cache-blocks each shard's
    /// coalesced batch (see `anns_cellprobe::read_batch_tiled`).
    pub fn new(
        tables: Vec<Option<&'a dyn Table>>,
        slots: usize,
        batch_threads: usize,
        probe_tile: usize,
        mount_epoch: u64,
        gen_id: u64,
        obs: &'a dyn Recorder,
    ) -> Self {
        Generation {
            tables,
            state: Mutex::new(GenState {
                active: slots,
                epoch: 0,
                pending: Vec::with_capacity(slots),
                results: (0..slots).map(|_| None).collect(),
                rounds_done: vec![0; slots],
                traces: Vec::new(),
            }),
            parked: Condvar::new(),
            batch_threads,
            probe_tile,
            mount_epoch,
            gen_id,
            obs,
        }
    }

    /// The round source for one slot; pass to `execute_on`.
    pub fn source(&self, slot: usize, shard: usize) -> SlotSource<'_, 'a> {
        SlotSource {
            generation: self,
            slot,
            shard,
        }
    }

    /// Marks a slot's query as finished, shrinking the barrier. If the
    /// departing query was the last one the barrier was waiting for, the
    /// parked rounds are dispatched now.
    pub fn depart(&self) {
        let mut st = self.lock();
        st.active -= 1;
        if st.active > 0 && st.pending.len() == st.active {
            self.dispatch(&mut st);
        }
    }

    /// A guard that departs when dropped — including during a panic
    /// unwind, so one failing query shrinks the barrier instead of
    /// deadlocking every peer parked at it.
    pub fn depart_guard(&self) -> DepartOnDrop<'_, 'a> {
        DepartOnDrop(self)
    }

    /// Consumes the generation, returning its audit log.
    pub fn into_traces(self) -> Vec<DispatchTrace> {
        let st = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(st.active, 0, "generation finished with active queries");
        st.traces
    }

    fn lock(&self) -> MutexGuard<'_, GenState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Executes every parked round as one sorted, deduplicated batch per
    /// shard and distributes the words. Called with the state lock held;
    /// all other active queries are parked, so holding it is contention-free.
    fn dispatch(&self, st: &mut GenState) {
        let pending = std::mem::take(&mut st.pending);
        let mut by_shard: BTreeMap<usize, Vec<Address>> = BTreeMap::new();
        let mut submitted = 0usize;
        for p in &pending {
            submitted += p.addrs.len();
            by_shard
                .entry(p.shard)
                .or_default()
                .extend(p.addrs.iter().cloned());
        }
        let batch_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut executed = 0usize;
            // Per shard: (shard, pre-dedup submitted count, unique addrs).
            let mut prepared: Vec<(usize, usize, Vec<Address>)> =
                Vec::with_capacity(by_shard.len());
            for (shard, mut addrs) in by_shard {
                let shard_submitted = addrs.len();
                addrs.sort_by(addr_cmp);
                addrs.dedup();
                executed += addrs.len();
                prepared.push((shard, shard_submitted, addrs));
            }
            if self.obs.enabled() {
                // One event per shard, emitted in shard order *before*
                // the parallel reads, so dispatch events sit at a
                // deterministic position in the trace.
                for (shard, shard_submitted, addrs) in &prepared {
                    self.obs.record(TraceEvent::RoundDispatched {
                        gen: self.gen_id,
                        shard: *shard as u64,
                        submitted: *shard_submitted as u64,
                        deduped: addrs.len() as u64,
                    });
                }
            }
            // Shard tables are independent oracles, so their batches read
            // concurrently (one worker per shard, each fanning its own
            // batch out over `batch_threads`, cache-blocked per tile).
            let shard_words =
                chunked_parallel_map(&prepared, prepared.len(), |(shard, _, addrs)| {
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
            let batches: BTreeMap<usize, (Vec<Address>, Vec<Word>)> = prepared
                .into_iter()
                .zip(shard_words)
                .map(|((shard, _, addrs), words)| (shard, (addrs, words)))
                .collect();
            (executed, batches)
        }));
        let (executed, batches) = match batch_result {
            Ok(v) => v,
            Err(payload) => {
                // A shard oracle panicked mid-dispatch. Wake every parked
                // peer with no results — their result takes fail and unwind
                // their own threads — instead of leaving them at a barrier
                // no one will ever release.
                st.epoch += 1;
                self.parked.notify_all();
                std::panic::resume_unwind(payload);
            }
        };
        let mut participants = Vec::with_capacity(pending.len());
        for p in pending {
            let (unique, words) = &batches[&p.shard];
            let round_words: Vec<Word> = p
                .addrs
                .iter()
                .map(|a| {
                    let i = unique
                        .binary_search_by(|u| addr_cmp(u, a))
                        .expect("parked address must be in its shard batch");
                    words[i].clone()
                })
                .collect();
            participants.push((p.slot, st.rounds_done[p.slot]));
            st.rounds_done[p.slot] += 1;
            st.results[p.slot] = Some(round_words);
        }
        st.traces.push(DispatchTrace {
            epoch: self.mount_epoch,
            submitted,
            executed,
            shards: batches.len(),
            participants,
        });
        st.epoch += 1;
        self.parked.notify_all();
    }
}

/// Departs its generation on drop (see [`Generation::depart_guard`]).
pub struct DepartOnDrop<'g, 'a>(&'g Generation<'a>);

impl Drop for DepartOnDrop<'_, '_> {
    fn drop(&mut self) {
        // If this drop runs during a panic unwind and the departure itself
        // re-dispatches a batch that panics again (a broken table oracle),
        // a second panic here would abort the process — swallow it and let
        // the primary panic propagate through the scope join instead.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.0.depart()));
    }
}

/// One slot's handle onto the generation barrier: parking a round here is
/// what makes the scheme's execution round-synchronous with its peers.
pub struct SlotSource<'g, 'a> {
    generation: &'g Generation<'a>,
    slot: usize,
    shard: usize,
}

impl RoundSource for SlotSource<'_, '_> {
    fn read_round(&self, addrs: &[Address]) -> Vec<Word> {
        let generation = self.generation;
        let mut st = generation.lock();
        let parked_epoch = st.epoch;
        st.pending.push(Pending {
            slot: self.slot,
            shard: self.shard,
            addrs: addrs.to_vec(),
        });
        if st.pending.len() == st.active {
            // Last to park: lead the dispatch for the whole generation.
            generation.dispatch(&mut st);
        } else {
            while st.epoch == parked_epoch {
                st = generation
                    .parked
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        st.results[self.slot]
            .take()
            .expect("no words for this slot: the leading peer's dispatch panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_cellprobe::{ExecOptions, RoundExecutor, SpaceModel};
    use anns_cellprobe::{MaterializedTable, Table};
    use anns_obs::NullRecorder;

    fn table(seed: u64) -> MaterializedTable {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(64, 64));
        for i in 0..64u64 {
            t.write(
                Address::with_u64(0, i),
                anns_cellprobe::Word::from_u64(i.wrapping_mul(seed) % 1000),
            );
        }
        t
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
        let t = table(7);
        let generation =
            Generation::new(vec![Some(&t as &dyn Table)], 2, 1, 64, 0, 0, &NullRecorder);
        let generation_ref = &generation;
        let answers = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for slot in 0..2usize {
                let source = generation_ref.source(slot, 0);
                handles.push(scope.spawn(move || {
                    let mut exec = RoundExecutor::with_source(&source, ExecOptions::default());
                    // Both queries probe cells {1, 2} in round 1, then a
                    // slot-specific cell in round 2.
                    let r1 = exec.round(&[Address::with_u64(0, 1), Address::with_u64(0, 2)]);
                    let r2 = exec.round(&[Address::with_u64(0, 10 + slot as u64)]);
                    generation_ref.depart();
                    (r1[0].to_u64(), r1[1].to_u64(), r2[0].to_u64())
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread"))
                .collect::<Vec<_>>()
        });
        assert_eq!(answers[0].0, 7);
        assert_eq!(answers[0].1, 14);
        assert_eq!(answers[0], (answers[1].0, answers[1].1, 70));
        assert_eq!(answers[1].2, 77);
        let traces = generation.into_traces();
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
    fn departing_query_releases_the_barrier() {
        let t = table(3);
        let generation =
            Generation::new(vec![Some(&t as &dyn Table)], 2, 1, 64, 0, 0, &NullRecorder);
        let generation_ref = &generation;
        let sums = std::thread::scope(|scope| {
            let long = {
                let source = generation_ref.source(0, 0);
                scope.spawn(move || {
                    let mut exec = RoundExecutor::with_source(&source, ExecOptions::default());
                    let mut sum = 0u64;
                    // Three rounds; the peer departs after one.
                    for r in 0..3u64 {
                        sum += exec.round(&[Address::with_u64(0, r)])[0].to_u64();
                    }
                    generation_ref.depart();
                    sum
                })
            };
            let short = {
                let source = generation_ref.source(1, 0);
                scope.spawn(move || {
                    let mut exec = RoundExecutor::with_source(&source, ExecOptions::default());
                    let sum = exec.round(&[Address::with_u64(0, 9)])[0].to_u64();
                    generation_ref.depart();
                    sum
                })
            };
            (
                long.join().expect("long query"),
                short.join().expect("short query"),
            )
        });
        assert_eq!(sums.0, 3 + 6, "cells 0,1,2 at multiplier 3");
        assert_eq!(sums.1, 27);
        let traces = generation.into_traces();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].participants.len(), 2);
        assert_eq!(traces[1].participants.len(), 1, "peer departed");
    }

    #[test]
    fn per_slot_rounds_advance_monotonically_in_traces() {
        let t = table(11);
        let generation =
            Generation::new(vec![Some(&t as &dyn Table)], 3, 1, 64, 0, 0, &NullRecorder);
        let generation_ref = &generation;
        std::thread::scope(|scope| {
            for slot in 0..3usize {
                let source = generation_ref.source(slot, 0);
                scope.spawn(move || {
                    let mut exec = RoundExecutor::with_source(&source, ExecOptions::default());
                    for r in 0..=slot as u64 {
                        let _ = exec.round(&[Address::with_u64(0, r + slot as u64)]);
                    }
                    generation_ref.depart();
                });
            }
        });
        let traces = generation.into_traces();
        let mut seen: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for trace in &traces {
            for &(slot, round) in &trace.participants {
                let next = seen.entry(slot).or_insert(0);
                assert_eq!(round, *next, "slot {slot} rounds must not reorder");
                *next += 1;
            }
        }
        assert_eq!(seen[&0], 1);
        assert_eq!(seen[&1], 2);
        assert_eq!(seen[&2], 3);
    }
}
