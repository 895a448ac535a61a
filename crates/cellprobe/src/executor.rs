//! Round-structured probe execution and accounting.
//!
//! A `k`-round cell-probing algorithm (paper §2) is described by lookup
//! functions `L₁ … L_k` — round `i`'s addresses depend only on the query and
//! on rounds `< i` — plus an output map. [`RoundExecutor`] realizes exactly
//! this interface: the scheme hands a full round of addresses to
//! [`RoundExecutor::round`] and only then sees their contents, so adaptivity
//! *within* a round is impossible by construction and the round count is
//! simply the number of `round` calls.
//!
//! Every probe is charged to a [`ProbeLedger`] (the `t = Σ tᵢ` accounting of
//! the paper), and an optional [`Transcript`] records `(round, address,
//! word)` triples for audits — e.g. the integration tests replay transcripts
//! with permuted in-round order to verify schemes really are non-adaptive
//! within rounds.

use serde::{Deserialize, Serialize};

use crate::table::{Address, Table};
use crate::word::Word;

/// Default probe tile: 64 addresses per tile keeps a tile's addresses,
/// output slots and the table's touched cells inside L1/L2 while staying
/// large enough to amortize the per-tile dispatch.
pub const DEFAULT_PROBE_TILE: usize = 64;

/// Execution options for a query.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Execute a round's probes on parallel threads when the round has at
    /// least [`ExecOptions::parallel_threshold`] probes.
    pub parallel: bool,
    /// Minimum probes in a round before threads are spawned.
    pub parallel_threshold: usize,
    /// Number of worker threads for parallel rounds.
    pub threads: usize,
    /// Cache-block tile size for batched table reads: a round's addresses
    /// are processed in contiguous tiles of this many probes (see
    /// [`read_batch_tiled`]). `0` disables tiling. Recorded by the serving
    /// engine's `ServeReport` so benchmark artifacts pin it.
    pub probe_tile: usize,
    /// Record a full probe transcript.
    pub record_transcript: bool,
    /// If set, panic when a read word exceeds this many bits — enforces the
    /// scheme's declared word size `w`.
    pub word_bits_limit: Option<u64>,
    /// Charge every probe as its own single-probe round. This is a *valid
    /// serialization* of any scheme (contents are revealed only after the
    /// whole batch either way, so later probes never depend on earlier
    /// ones), and it is how the paper's remark "every round of the
    /// algorithm contains only 1 cell-probe" (Theorem 3's extreme, §1) is
    /// made measurable: the serialized round count is the probe count.
    pub serialize_rounds: bool,
}

impl Default for ExecOptions {
    /// The baseline configuration every call site starts from: sequential
    /// probes (`parallel: false`, threshold 8, 4 worker threads when
    /// enabled), no transcript, no extra word-size cap beyond the scheme's
    /// declared `w`, rounds as the scheme issues them. Customize with
    /// struct-update syntax (`ExecOptions { threads: 8, ..Default::default() }`)
    /// or one of the named builders below.
    fn default() -> Self {
        ExecOptions {
            parallel: false,
            parallel_threshold: 8,
            threads: 4,
            probe_tile: DEFAULT_PROBE_TILE,
            record_transcript: false,
            word_bits_limit: None,
            serialize_rounds: false,
        }
    }
}

impl ExecOptions {
    /// Default options plus a full probe transcript — the common audit
    /// configuration (replay tests, engine coalescing audits).
    pub fn with_transcript() -> Self {
        ExecOptions {
            record_transcript: true,
            ..ExecOptions::default()
        }
    }

    /// Default options with in-round probes executed on `threads` worker
    /// threads once a round has at least `threshold` probes.
    pub fn parallel_probes(threads: usize, threshold: usize) -> Self {
        ExecOptions {
            parallel: true,
            parallel_threshold: threshold.max(1),
            threads,
            ..ExecOptions::default()
        }
    }

    /// Default options with every probe charged as its own single-probe
    /// round (the paper's "1 cell-probe per round" serialization).
    pub fn serialized() -> Self {
        ExecOptions {
            serialize_rounds: true,
            ..ExecOptions::default()
        }
    }

    /// These options with the word-size limit lowered to at most
    /// `declared` bits — how every executor enforces a scheme's declared
    /// `w` on top of the caller's own cap.
    pub fn capped_at(mut self, declared: u64) -> Self {
        self.word_bits_limit = Some(self.word_bits_limit.map_or(declared, |l| l.min(declared)));
        self
    }
}

/// Probe accounting for one query: the paper's `(t₁, …, t_k)`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeLedger {
    /// Probes per round, in round order.
    pub per_round: Vec<usize>,
    /// Total bits of cell content read.
    pub word_bits_read: u64,
    /// Widest single word read, in bits.
    pub max_word_bits: u64,
    /// Total bits of addresses emitted (for the communication translation).
    pub address_bits_sent: u64,
}

impl ProbeLedger {
    /// Number of rounds used (`k`).
    pub fn rounds(&self) -> usize {
        self.per_round.len()
    }

    /// Total probes (`t = Σ tᵢ`).
    pub fn total_probes(&self) -> usize {
        self.per_round.iter().sum()
    }

    /// Largest single round (`max tᵢ`).
    pub fn max_round_probes(&self) -> usize {
        self.per_round.iter().copied().max().unwrap_or(0)
    }

    /// Average probes per round; 0 for probe-free queries.
    pub fn avg_probes_per_round(&self) -> f64 {
        if self.per_round.is_empty() {
            0.0
        } else {
            self.total_probes() as f64 / self.rounds() as f64
        }
    }

    /// Accumulates another query's ledger into this one: element-wise sums
    /// of the per-round probe counts, sums of the bit totals, max of the
    /// single-word maximum. This is the *aggregate served cost* over a set
    /// of queries (what an engine pays in total), as opposed to
    /// [`ProbeLedger::worst_case`], which is the per-query bound the
    /// paper's theorems describe.
    pub fn merge(&mut self, other: &ProbeLedger) {
        while self.per_round.len() < other.per_round.len() {
            self.per_round.push(0);
        }
        for (i, &p) in other.per_round.iter().enumerate() {
            self.per_round[i] += p;
        }
        self.word_bits_read += other.word_bits_read;
        self.max_word_bits = self.max_word_bits.max(other.max_word_bits);
        self.address_bits_sent += other.address_bits_sent;
    }

    /// Element-wise max — the worst case over a set of queries, which is the
    /// quantity the paper's upper bounds describe.
    pub fn worst_case(mut self, other: &ProbeLedger) -> ProbeLedger {
        while self.per_round.len() < other.per_round.len() {
            self.per_round.push(0);
        }
        for (i, &p) in other.per_round.iter().enumerate() {
            self.per_round[i] = self.per_round[i].max(p);
        }
        self.word_bits_read = self.word_bits_read.max(other.word_bits_read);
        self.max_word_bits = self.max_word_bits.max(other.max_word_bits);
        self.address_bits_sent = self.address_bits_sent.max(other.address_bits_sent);
        self
    }
}

/// One recorded probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Round index (0-based).
    pub round: usize,
    /// Probed address.
    pub addr: Address,
    /// Word that came back.
    pub word: Word,
}

/// Full probe record of one query execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript(pub Vec<TranscriptEntry>);

impl Transcript {
    /// Entries of a given round.
    pub fn round_entries(&self, round: usize) -> impl Iterator<Item = &TranscriptEntry> {
        self.0.iter().filter(move |e| e.round == round)
    }
}

/// A batched-address round entry point: everything that can execute one
/// full round of probes, given *all* of the round's addresses at once.
///
/// The default implementor is a [`Table`] (each address is read from the
/// oracle, possibly on parallel threads — see [`read_batch`]). The serving
/// engine substitutes a source that already holds the round's words,
/// read in one sorted batch per shard together with the same round of
/// every other in-flight query, so each query's executor still does its
/// own accounting. That is the paper's point: a round's addresses are
/// fixed before any content is revealed, so *who* executes the batch is
/// irrelevant to correctness.
pub trait RoundSource: Sync {
    /// Executes one round of probes, returning words in address order.
    fn read_round(&self, addrs: &[Address]) -> Vec<Word>;
}

/// Reads a batch of addresses from a table, words in address order, on up
/// to `threads` scoped threads (sequential when `threads <= 1`
/// or the batch is a single address).
///
/// Probes within a round are independent by the model's definition, so
/// this is always safe; it pays off when cell evaluation is expensive
/// (lazy oracles scan sketches of all n database points per probe). This
/// is the one batched read primitive shared by [`RoundExecutor`]'s
/// in-round parallelism and the engine's cross-query coalesced dispatch.
pub fn read_batch(table: &dyn Table, addrs: &[Address], threads: usize) -> Vec<Word> {
    chunked_parallel_map(addrs, threads, |a| table.read(a))
}

/// [`read_batch`] with the address list processed in contiguous tiles of
/// `tile` probes: each worker walks whole tiles, so a tile's addresses and
/// its output slots stay cache-resident while the table oracle streams its
/// cells — the cache-blocked inner loop of the engine's batch read path.
/// Words come back in address order; `tile == 0` (or a batch no larger
/// than one tile) falls through to the untiled [`read_batch`]. Output is
/// identical either way — probes within a round are independent, so
/// blocking only reorders the schedule, never the words.
pub fn read_batch_tiled(
    table: &dyn Table,
    addrs: &[Address],
    threads: usize,
    tile: usize,
) -> Vec<Word> {
    if tile == 0 || addrs.len() <= tile {
        return read_batch(table, addrs, threads);
    }
    let tiles: Vec<&[Address]> = addrs.chunks(tile).collect();
    let per_tile = chunked_parallel_map(&tiles, threads, |t| {
        t.iter().map(|a| table.read(a)).collect::<Vec<Word>>()
    });
    per_tile.into_iter().flatten().collect()
}

/// [`read_batch_tiled`] with a [`ProbeBatchRead`] trace event emitted
/// before the read: the engine's observed dispatch path. `shard` and
/// `gen` label the event with the caller's shard index and generation
/// id; the read itself is byte-identical to the untraced variant, and
/// with a disabled recorder (`enabled() == false`) the only extra cost
/// is the guard branch.
///
/// [`ProbeBatchRead`]: anns_obs::TraceEvent::ProbeBatchRead
pub fn read_batch_observed(
    table: &dyn Table,
    addrs: &[Address],
    threads: usize,
    tile: usize,
    obs: &dyn anns_obs::Recorder,
    shard: u64,
    gen: u64,
) -> Vec<Word> {
    if obs.enabled() {
        obs.record(anns_obs::TraceEvent::ProbeBatchRead {
            gen,
            shard,
            tile: tile as u64,
            len: addrs.len() as u64,
        });
    }
    read_batch_tiled(table, addrs, threads, tile)
}

/// Maps `f` over `items` on up to `threads` threads (contiguous chunks,
/// never an empty-range worker), results in item order; runs inline when
/// `threads <= 1` or there is at most one item. The calling thread works
/// the last chunk itself, so `threads` workers cost `threads - 1` spawns.
/// The one scatter/gather primitive behind [`read_batch`], the batch
/// driver's query sharding, and the engine's per-shard dispatch fan-out.
pub fn chunked_parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(items.len());
    let chunk = items.len().div_ceil(workers).max(1);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    let fill = |slots: &mut [Option<R>], chunk: &[T]| {
        for (slot, item) in slots.iter_mut().zip(chunk) {
            *slot = Some(f(item));
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = out.chunks_mut(chunk).zip(items.chunks(chunk));
        let last = chunks.next_back();
        for (slots, items) in chunks {
            let fill = &fill;
            scope.spawn(move || fill(slots, items));
        }
        if let Some((slots, items)) = last {
            fill(slots, items);
        }
    });
    out.into_iter()
        .map(|r| r.expect("item not processed"))
        .collect()
}

/// What a [`RoundExecutor`] executes rounds against: a plain table oracle
/// (with the executor's own parallelism options) or an external
/// [`RoundSource`].
enum Backend<'a> {
    Table(&'a dyn Table),
    Source(&'a dyn RoundSource),
}

/// Mediates all table access for one query, enforcing round structure.
pub struct RoundExecutor<'a> {
    backend: Backend<'a>,
    opts: ExecOptions,
    ledger: ProbeLedger,
    transcript: Option<Transcript>,
}

impl<'a> RoundExecutor<'a> {
    /// New executor over a table oracle.
    pub fn new(table: &'a dyn Table, opts: ExecOptions) -> Self {
        Self::build(Backend::Table(table), opts)
    }

    /// New executor over an external round source. Accounting (ledger,
    /// transcript, word-size enforcement) is identical to a table-backed
    /// executor; only the execution of each round's batch is delegated.
    pub fn with_source(source: &'a dyn RoundSource, opts: ExecOptions) -> Self {
        Self::build(Backend::Source(source), opts)
    }

    fn build(backend: Backend<'a>, opts: ExecOptions) -> Self {
        RoundExecutor {
            backend,
            opts,
            ledger: ProbeLedger::default(),
            transcript: if opts.record_transcript {
                Some(Transcript::default())
            } else {
                None
            },
        }
    }

    /// Executes one round of parallel probes and returns the words in
    /// address order. An empty address list performs no probes and does
    /// *not* count as a round.
    pub fn round(&mut self, addrs: &[Address]) -> Vec<Word> {
        if addrs.is_empty() {
            return Vec::new();
        }
        let words = match self.backend {
            Backend::Table(table) => {
                let threads = if self.opts.parallel && addrs.len() >= self.opts.parallel_threshold {
                    self.opts.threads
                } else {
                    1
                };
                read_batch_tiled(table, addrs, threads, self.opts.probe_tile)
            }
            Backend::Source(source) => {
                let words = source.read_round(addrs);
                assert_eq!(
                    words.len(),
                    addrs.len(),
                    "round source must answer every address"
                );
                words
            }
        };
        let base_round = self.ledger.per_round.len();
        if self.opts.serialize_rounds {
            self.ledger
                .per_round
                .extend(std::iter::repeat_n(1, addrs.len()));
        } else {
            self.ledger.per_round.push(addrs.len());
        }
        for (pos, (addr, word)) in addrs.iter().zip(words.iter()).enumerate() {
            let bits = word.bits();
            if let Some(limit) = self.opts.word_bits_limit {
                assert!(
                    bits <= limit,
                    "word of {bits} bits exceeds declared word size {limit} at {addr:?}"
                );
            }
            self.ledger.word_bits_read += bits;
            self.ledger.max_word_bits = self.ledger.max_word_bits.max(bits);
            self.ledger.address_bits_sent += addr.bits();
            if let Some(t) = &mut self.transcript {
                t.0.push(TranscriptEntry {
                    round: if self.opts.serialize_rounds {
                        base_round + pos
                    } else {
                        base_round
                    },
                    addr: addr.clone(),
                    word: word.clone(),
                });
            }
        }
        words
    }

    /// Accounting so far.
    pub fn ledger(&self) -> &ProbeLedger {
        &self.ledger
    }

    /// Consumes the executor, returning the ledger and transcript.
    pub fn finish(self) -> (ProbeLedger, Option<Transcript>) {
        (self.ledger, self.transcript)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceModel;
    use crate::table::MaterializedTable;

    fn table_mod7() -> MaterializedTable {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(100, 64));
        for i in 0..100u64 {
            t.write(Address::with_u64(0, i), Word::from_u64(i % 7));
        }
        t
    }

    #[test]
    fn rounds_and_probes_are_counted() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(&t, ExecOptions::default());
        let w1 = exec.round(&[Address::with_u64(0, 1), Address::with_u64(0, 2)]);
        assert_eq!(w1.len(), 2);
        let _ = exec.round(&[Address::with_u64(0, 3)]);
        let (ledger, _) = exec.finish();
        assert_eq!(ledger.per_round, vec![2, 1]);
        assert_eq!(ledger.total_probes(), 3);
        assert_eq!(ledger.rounds(), 2);
        assert_eq!(ledger.max_round_probes(), 2);
        assert!((ledger.avg_probes_per_round() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_round_is_free() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(&t, ExecOptions::default());
        assert!(exec.round(&[]).is_empty());
        let (ledger, _) = exec.finish();
        assert_eq!(ledger.rounds(), 0);
    }

    #[test]
    fn words_return_in_address_order() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..50).map(|i| Address::with_u64(0, i)).collect();
        let mut exec = RoundExecutor::new(&t, ExecOptions::default());
        let words = exec.round(&addrs);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.to_u64(), (i as u64) % 7);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..97).map(|i| Address::with_u64(0, i)).collect();
        let mut seq = RoundExecutor::new(&t, ExecOptions::default());
        let expect = seq.round(&addrs);
        let mut par = RoundExecutor::new(&t, ExecOptions::parallel_probes(8, 1));
        let got = par.round(&addrs);
        assert_eq!(got, expect);
        assert_eq!(par.ledger().total_probes(), 97);
    }

    #[test]
    fn transcript_records_all_probes_in_order() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(&t, ExecOptions::with_transcript());
        exec.round(&[Address::with_u64(0, 5), Address::with_u64(0, 6)]);
        exec.round(&[Address::with_u64(0, 7)]);
        let (_, transcript) = exec.finish();
        let tr = transcript.unwrap();
        assert_eq!(tr.0.len(), 3);
        assert_eq!(tr.round_entries(0).count(), 2);
        assert_eq!(tr.round_entries(1).count(), 1);
        assert_eq!(tr.0[2].word.to_u64(), 0); // 7 % 7
    }

    #[test]
    #[should_panic(expected = "exceeds declared word size")]
    fn word_size_limit_is_enforced() {
        let t = MaterializedTable::new(SpaceModel::from_exact_cells(1, 8));
        t.write(Address::with_u64(0, 0), Word::from_bytes(vec![1, 2, 3, 4]));
        let mut exec = RoundExecutor::new(
            &t,
            ExecOptions {
                word_bits_limit: Some(16),
                ..ExecOptions::default()
            },
        );
        let _ = exec.round(&[Address::with_u64(0, 0)]);
    }

    #[test]
    fn serialize_rounds_charges_one_probe_per_round() {
        let t = table_mod7();
        let mut exec = RoundExecutor::new(
            &t,
            ExecOptions {
                record_transcript: true,
                ..ExecOptions::serialized()
            },
        );
        let addrs: Vec<Address> = (0..5).map(|i| Address::with_u64(0, i)).collect();
        let words = exec.round(&addrs);
        let _ = exec.round(&[Address::with_u64(0, 9)]);
        let (ledger, transcript) = exec.finish();
        assert_eq!(ledger.per_round, vec![1; 6]);
        assert_eq!(ledger.rounds(), 6);
        assert_eq!(ledger.total_probes(), 6);
        // Contents identical to the batched execution.
        for (i, w) in words.iter().enumerate() {
            assert_eq!(w.to_u64(), (i as u64) % 7);
        }
        // Transcript rounds are strictly increasing single-probe rounds.
        let tr = transcript.unwrap();
        for (i, entry) in tr.0.iter().enumerate() {
            assert_eq!(entry.round, i);
        }
    }

    #[test]
    fn worst_case_merges_ledgers() {
        let a = ProbeLedger {
            per_round: vec![3, 1],
            word_bits_read: 64,
            max_word_bits: 32,
            address_bits_sent: 100,
        };
        let b = ProbeLedger {
            per_round: vec![1, 4, 2],
            word_bits_read: 50,
            max_word_bits: 40,
            address_bits_sent: 90,
        };
        let m = a.worst_case(&b);
        assert_eq!(m.per_round, vec![3, 4, 2]);
        assert_eq!(m.word_bits_read, 64);
        assert_eq!(m.max_word_bits, 40);
    }

    #[test]
    fn merge_sums_ledgers() {
        let mut acc = ProbeLedger {
            per_round: vec![3, 1],
            word_bits_read: 64,
            max_word_bits: 32,
            address_bits_sent: 100,
        };
        acc.merge(&ProbeLedger {
            per_round: vec![1, 4, 2],
            word_bits_read: 50,
            max_word_bits: 40,
            address_bits_sent: 90,
        });
        assert_eq!(acc.per_round, vec![4, 5, 2]);
        assert_eq!(acc.total_probes(), 11);
        assert_eq!(acc.word_bits_read, 114);
        assert_eq!(acc.max_word_bits, 40);
        assert_eq!(acc.address_bits_sent, 190);
        // Merging the empty ledger is a no-op.
        acc.merge(&ProbeLedger::default());
        assert_eq!(acc.per_round, vec![4, 5, 2]);
    }

    #[test]
    fn read_batch_handles_more_threads_than_addresses() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..3).map(|i| Address::with_u64(0, i)).collect();
        for threads in [0usize, 1, 2, 3, 64] {
            let words = read_batch(&t, &addrs, threads);
            let got: Vec<u64> = words.iter().map(Word::to_u64).collect();
            assert_eq!(got, vec![0, 1, 2], "threads={threads}");
        }
        assert!(read_batch(&t, &[], 8).is_empty());
    }

    #[test]
    fn read_batch_tiled_matches_untiled_for_every_tile_size() {
        let t = table_mod7();
        let addrs: Vec<Address> = (0..97).map(|i| Address::with_u64(0, i)).collect();
        let expect = read_batch(&t, &addrs, 1);
        for tile in [0usize, 1, 2, 7, 64, 97, 1000] {
            for threads in [1usize, 4] {
                let got = read_batch_tiled(&t, &addrs, threads, tile);
                assert_eq!(got, expect, "tile={tile} threads={threads}");
            }
        }
        assert!(read_batch_tiled(&t, &[], 4, 64).is_empty());
    }

    #[test]
    fn source_backed_executor_accounts_identically() {
        struct Mod7Source(MaterializedTable);
        impl RoundSource for Mod7Source {
            fn read_round(&self, addrs: &[Address]) -> Vec<Word> {
                read_batch(&self.0, addrs, 1)
            }
        }
        let source = Mod7Source(table_mod7());
        let addrs: Vec<Address> = (0..9).map(|i| Address::with_u64(0, i)).collect();
        let mut direct = RoundExecutor::new(&source.0, ExecOptions::with_transcript());
        let expect = direct.round(&addrs);
        let _ = direct.round(&[Address::with_u64(0, 11)]);
        let mut sourced = RoundExecutor::with_source(&source, ExecOptions::with_transcript());
        let got = sourced.round(&addrs);
        let _ = sourced.round(&[Address::with_u64(0, 11)]);
        assert_eq!(got, expect);
        let (l1, t1) = direct.finish();
        let (l2, t2) = sourced.finish();
        assert_eq!(l1, l2);
        assert_eq!(t1, t2);
    }

    #[test]
    #[should_panic(expected = "must answer every address")]
    fn short_source_answers_are_rejected() {
        struct Mute;
        impl RoundSource for Mute {
            fn read_round(&self, _addrs: &[Address]) -> Vec<Word> {
                Vec::new()
            }
        }
        let mute = Mute;
        let mut exec = RoundExecutor::with_source(&mute, ExecOptions::default());
        let _ = exec.round(&[Address::with_u64(0, 0)]);
    }
}
