//! An executable version of Yao's cell-probe model with *limited adaptivity*.
//!
//! The paper (§2) refines the classic cell-probe model by organizing the
//! query algorithm's probes into `k` **rounds**: the addresses probed in
//! round `i` may depend on the query and on the contents read in rounds
//! `< i`, but not on each other. The complexity of a scheme is the triple
//! (table size `s`, word size `w`, total probes `t = t₁ + … + t_k`).
//!
//! This crate makes that model a concrete, enforceable API:
//!
//! * [`Word`] / [`Address`] — cell contents and multi-table addressing;
//! * [`Table`] — the data-structure side: an oracle mapping addresses to
//!   words. Implementations may be materialized ([`MaterializedTable`]) or
//!   lazy (computed on demand — see substitution S1 in `DESIGN.md`);
//! * [`RoundExecutor`] — the *only* way a scheme reads cells. One call to
//!   [`RoundExecutor::round`] is one round of parallel probes; the API shape
//!   itself enforces the round discipline (all addresses of a round are
//!   produced before any of its contents are visible), and every probe is
//!   charged to a [`ProbeLedger`];
//! * [`CellProbeScheme`] — the trait shared by Algorithms 1/2, λ-ANNS, LSH
//!   and the adaptive baseline, so complexity accounting is uniform;
//! * [`RoundMachine`] — the same algorithms as step functions
//!   (`words → next round | answer`), run by [`drive`] or by a serving
//!   loop that steps many queries at once;
//! * [`space`] — table-size accounting, including the public-coin →
//!   private-coin translation of Lemma 5 / Proposition 6 (Newman's theorem);
//! * [`batch`] — a scoped-thread parallel driver for query batches.
//!
//! Probes inside one round are *independent by definition of the model*;
//! [`RoundExecutor`] optionally executes them on parallel threads
//! (`std::thread::scope`), which is precisely the parallelism the paper
//! says limited adaptivity exposes ("the ability to be implemented in
//! parallel", §1).
//!
//! # Example
//!
//! A two-round scheme (`k = 2`): round 2's address depends on round 1's
//! contents, and the ledger charges exactly what the model defines:
//!
//! ```
//! use anns_cellprobe::{
//!     execute, Address, CellProbeScheme, MaterializedTable, RoundExecutor, SpaceModel,
//!     Table, Word,
//! };
//!
//! struct Chase {
//!     table: MaterializedTable,
//! }
//! impl CellProbeScheme for Chase {
//!     type Query = u64;
//!     type Answer = u64;
//!     fn table(&self) -> &dyn Table { &self.table }
//!     fn word_bits(&self) -> u64 { 64 }
//!     fn run(&self, query: &u64, exec: &mut RoundExecutor<'_>) -> u64 {
//!         let first = exec.round(&[Address::with_u64(0, *query)]);
//!         let second = exec.round(&[Address::with_u64(0, first[0].to_u64())]);
//!         second[0].to_u64()
//!     }
//! }
//!
//! let table = MaterializedTable::new(SpaceModel::from_exact_cells(4, 64));
//! table.write(Address::with_u64(0, 0), Word::from_u64(1));
//! table.write(Address::with_u64(0, 1), Word::from_u64(42));
//! let (answer, ledger) = execute(&Chase { table }, &0);
//! assert_eq!(answer, 42);
//! assert_eq!((ledger.rounds(), ledger.total_probes()), (2, 2));
//! ```

pub mod audit;
pub mod batch;
pub mod executor;
pub mod scheme;
pub mod space;
pub mod table;
pub mod word;

pub use audit::{CountingTable, PurityAuditTable};
pub use batch::{run_batch, run_one, worst_case_ledger, BatchItem};
pub use executor::{
    chunked_parallel_map, read_batch, read_batch_observed, read_batch_tiled, ExecOptions,
    ProbeLedger, RoundExecutor, RoundSource, Transcript, TranscriptEntry, DEFAULT_PROBE_TILE,
};
pub use scheme::{
    drive, execute, execute_with, CellProbeScheme, Map, OneRound, RoundMachine, Step,
};
pub use space::{newman_private_coin_cells_log2, SpaceModel};
pub use table::{Address, MaterializedTable, Table, TableId};
pub use word::Word;
