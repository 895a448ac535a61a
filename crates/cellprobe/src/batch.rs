//! Parallel batch-query driver.
//!
//! Limited adaptivity is motivated by parallel implementations (paper §1);
//! beyond parallelizing the probes *within* a round ([`RoundExecutor`]),
//! whole queries are independent of each other and batch workloads shard
//! across threads. This module provides that driver for benches and
//! experiments: deterministic output order, `std` scoped threads, no
//! unsafe.
//!
//! [`RoundExecutor`]: crate::executor::RoundExecutor

use crate::executor::{ExecOptions, ProbeLedger};
use crate::scheme::{execute_with, CellProbeScheme};

/// Outcome of one query in a batch.
pub struct BatchItem<A> {
    /// The scheme's answer.
    pub answer: A,
    /// Probe accounting for this query.
    pub ledger: ProbeLedger,
}

/// Executes a single query solo against the scheme's own table — the one
/// per-query code path shared by [`run_batch`]'s inline and threaded
/// branches and by the serving engine's solo baseline (`anns-engine` uses
/// it for its engine-vs-solo equivalence audits).
pub fn run_one<S: CellProbeScheme>(
    scheme: &S,
    query: &S::Query,
    opts: ExecOptions,
) -> BatchItem<S::Answer> {
    let (answer, ledger, _) = execute_with(scheme, query, opts);
    BatchItem { answer, ledger }
}

/// Runs all queries, sharding across `threads` workers; results are in
/// query order. With `threads <= 1` runs inline (no spawning). Requesting
/// more threads than queries runs exactly one worker per query — never
/// an empty-range worker (see `chunked_parallel_map`).
pub fn run_batch<S>(
    scheme: &S,
    queries: &[S::Query],
    threads: usize,
    opts: ExecOptions,
) -> Vec<BatchItem<S::Answer>>
where
    S: CellProbeScheme + Sync,
    S::Query: Sync,
    S::Answer: Send,
{
    crate::executor::chunked_parallel_map(queries, threads, |q| run_one(scheme, q, opts))
}

/// Worst-case ledger over a batch — the quantity the paper's bounds are
/// stated for ("within t cell-probes in k rounds … in the worst case").
pub fn worst_case_ledger<A>(items: &[BatchItem<A>]) -> ProbeLedger {
    items.iter().fold(ProbeLedger::default(), |acc, item| {
        acc.worst_case(&item.ledger)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::RoundExecutor;
    use crate::space::SpaceModel;
    use crate::table::{Address, MaterializedTable, Table};
    use crate::word::Word;

    struct Square {
        table: MaterializedTable,
    }

    impl Square {
        fn new() -> Self {
            let table = MaterializedTable::new(SpaceModel::from_exact_cells(256, 64));
            for i in 0..256u64 {
                table.write(Address::with_u64(0, i), Word::from_u64(i * i));
            }
            Square { table }
        }
    }

    impl CellProbeScheme for Square {
        type Query = u64;
        type Answer = u64;
        fn table(&self) -> &dyn Table {
            &self.table
        }
        fn word_bits(&self) -> u64 {
            64
        }
        fn run(&self, query: &u64, exec: &mut RoundExecutor<'_>) -> u64 {
            exec.round(&[Address::with_u64(0, *query)])[0].to_u64()
        }
    }

    #[test]
    fn more_threads_than_queries_is_safe_and_complete() {
        let scheme = Square::new();
        let queries: Vec<u64> = (0..3).collect();
        for threads in [4usize, 64] {
            let items = run_batch(&scheme, &queries, threads, ExecOptions::default());
            assert_eq!(items.len(), 3, "threads={threads}");
            for (q, item) in queries.iter().zip(items.iter()) {
                assert_eq!(item.answer, q * q, "threads={threads}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let scheme = Square::new();
        let queries: Vec<u64> = (0..100).collect();
        for threads in [1usize, 2, 7, 200] {
            let items = run_batch(&scheme, &queries, threads, ExecOptions::default());
            assert_eq!(items.len(), 100);
            for (q, item) in queries.iter().zip(items.iter()) {
                assert_eq!(item.answer, q * q, "threads={threads}");
                assert_eq!(item.ledger.total_probes(), 1);
            }
        }
    }

    #[test]
    fn worst_case_ledger_over_batch() {
        let scheme = Square::new();
        let queries: Vec<u64> = (0..10).collect();
        let items = run_batch(&scheme, &queries, 3, ExecOptions::default());
        let wc = worst_case_ledger(&items);
        assert_eq!(wc.per_round, vec![1]);
    }

    #[test]
    fn empty_batch_is_empty() {
        let scheme = Square::new();
        let items = run_batch(&scheme, &[], 4, ExecOptions::default());
        assert!(items.is_empty());
        assert_eq!(worst_case_ledger(&items).rounds(), 0);
    }
}
