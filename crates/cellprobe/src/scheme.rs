//! The scheme trait: one interface for every algorithm in the workspace.
//!
//! A cell-probing scheme `(A, T)` (paper §2) is a table structure plus a
//! query algorithm. [`CellProbeScheme`] packages both: the scheme owns its
//! table oracle and its query logic; [`execute`] wires them through a
//! [`RoundExecutor`] so Algorithms 1/2, λ-ANNS, LSH and the baselines are
//! all measured by the same ledger.
//!
//! [`RoundMachine`] is the same query algorithm written as a step
//! function: every round's addresses are fixed before any of its contents
//! return (paper §2), so a query can hand out one round, wait for its
//! words, and hand out the next. [`drive`] runs a machine through a
//! [`RoundExecutor`]; a serving engine instead steps many machines from
//! one loop and executes their rounds together.

use crate::executor::{ExecOptions, ProbeLedger, RoundExecutor, Transcript};
use crate::table::{Address, Table};
use crate::word::Word;

/// A static data structure plus its query algorithm.
pub trait CellProbeScheme {
    /// Query type (`x ∈ A` in the paper's notation).
    type Query;
    /// Answer type (`z ∈ C`).
    type Answer;

    /// The table oracle this scheme probes.
    fn table(&self) -> &dyn Table;

    /// Declared word size `w` in bits; enforced by the executor.
    fn word_bits(&self) -> u64;

    /// The query algorithm. All table access must go through `exec`.
    fn run(&self, query: &Self::Query, exec: &mut RoundExecutor<'_>) -> Self::Answer;
}

/// Runs one query with default options, returning answer + accounting.
pub fn execute<S: CellProbeScheme>(scheme: &S, query: &S::Query) -> (S::Answer, ProbeLedger) {
    let (answer, ledger, _) = execute_with(scheme, query, ExecOptions::default());
    (answer, ledger)
}

/// Runs one query with explicit options; the declared word size is always
/// enforced on top of whatever the options say.
pub fn execute_with<S: CellProbeScheme>(
    scheme: &S,
    query: &S::Query,
    opts: ExecOptions,
) -> (S::Answer, ProbeLedger, Option<Transcript>) {
    let mut exec = RoundExecutor::new(scheme.table(), clamp_word_limit(scheme, opts));
    let answer = scheme.run(query, &mut exec);
    let (ledger, transcript) = exec.finish();
    (answer, ledger, transcript)
}

/// The declared word size is always enforced on top of whatever the
/// options say.
fn clamp_word_limit<S: CellProbeScheme>(scheme: &S, opts: ExecOptions) -> ExecOptions {
    opts.capped_at(scheme.word_bits())
}

/// What a [`RoundMachine`] wants next.
#[derive(Debug)]
pub enum Step<A> {
    /// One round of probes; the next `step` receives their words in
    /// address order. An empty round is free and not counted.
    Probe(Vec<Address>),
    /// The query's answer; the machine is not stepped again.
    Done(A),
}

/// A query algorithm as a step function over rounds.
///
/// The first `step` receives no words; every later one receives the
/// words of the round the previous `step` asked for. A machine reads no
/// cell on its own, so whoever steps it decides how its rounds execute:
/// [`drive`] sends them through one query's [`RoundExecutor`], the
/// serving engine merges them with the same round of other queries.
pub trait RoundMachine {
    /// The answer type.
    type Answer;

    /// Consumes the words of the last round, returns the next round or
    /// the answer.
    fn step(&mut self, words: &[Word]) -> Step<Self::Answer>;

    /// This machine with its answer passed through `f`.
    fn map<B, F: FnMut(Self::Answer) -> B>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { machine: self, f }
    }
}

/// A machine whose answer is mapped (see [`RoundMachine::map`]).
pub struct Map<M, F> {
    machine: M,
    f: F,
}

impl<M: RoundMachine, B, F: FnMut(M::Answer) -> B> RoundMachine for Map<M, F> {
    type Answer = B;

    fn step(&mut self, words: &[Word]) -> Step<B> {
        match self.machine.step(words) {
            Step::Probe(addrs) => Step::Probe(addrs),
            Step::Done(answer) => Step::Done((self.f)(answer)),
        }
    }
}

/// A non-adaptive (one-round) machine: probes `addrs`, then answers
/// with `finish(words)`.
pub struct OneRound<F> {
    addrs: Option<Vec<Address>>,
    finish: Option<F>,
}

impl<F> OneRound<F> {
    /// Probes `addrs` in one round and answers with `finish`.
    pub fn new(addrs: Vec<Address>, finish: F) -> Self {
        OneRound {
            addrs: Some(addrs),
            finish: Some(finish),
        }
    }
}

impl<A, F: FnOnce(&[Word]) -> A> RoundMachine for OneRound<F> {
    type Answer = A;

    fn step(&mut self, words: &[Word]) -> Step<A> {
        match self.addrs.take() {
            Some(addrs) => Step::Probe(addrs),
            None => {
                let finish = self
                    .finish
                    .take()
                    .expect("machine stepped after its answer");
                Step::Done(finish(words))
            }
        }
    }
}

/// Runs a machine to its answer, executing each round through `exec`.
pub fn drive<M: RoundMachine + ?Sized>(machine: &mut M, exec: &mut RoundExecutor<'_>) -> M::Answer {
    let mut words = Vec::new();
    loop {
        match machine.step(&words) {
            Step::Probe(addrs) => words = exec.round(&addrs),
            Step::Done(answer) => return answer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceModel;
    use crate::table::{Address, MaterializedTable};
    use crate::word::Word;

    /// Toy scheme: table stores f(i) = 3i; query x is answered by reading
    /// cell x, then cell f(x) — two adaptive rounds of one probe each.
    struct Toy {
        table: MaterializedTable,
    }

    impl Toy {
        fn new() -> Self {
            let table = MaterializedTable::new(SpaceModel::from_exact_cells(64, 64));
            for i in 0..64u64 {
                table.write(Address::with_u64(0, i), Word::from_u64(3 * i));
            }
            Toy { table }
        }
    }

    impl CellProbeScheme for Toy {
        type Query = u64;
        type Answer = u64;

        fn table(&self) -> &dyn Table {
            &self.table
        }

        fn word_bits(&self) -> u64 {
            64
        }

        fn run(&self, query: &u64, exec: &mut RoundExecutor<'_>) -> u64 {
            let first = exec.round(&[Address::with_u64(0, *query)]);
            let mid = first[0].to_u64() % 64;
            let second = exec.round(&[Address::with_u64(0, mid)]);
            second[0].to_u64()
        }
    }

    #[test]
    fn execute_returns_answer_and_ledger() {
        let scheme = Toy::new();
        let (answer, ledger) = execute(&scheme, &5);
        assert_eq!(answer, 45); // 3 * (3*5 % 64)
        assert_eq!(ledger.per_round, vec![1, 1]);
        assert_eq!(ledger.rounds(), 2);
    }

    #[test]
    fn execute_with_transcript() {
        let scheme = Toy::new();
        let (_, _, transcript) = execute_with(&scheme, &2, ExecOptions::with_transcript());
        let tr = transcript.unwrap();
        assert_eq!(tr.0.len(), 2);
        assert_eq!(tr.0[0].round, 0);
        assert_eq!(tr.0[1].round, 1);
    }

    #[test]
    fn driven_machine_matches_the_scheme() {
        // Toy's two rounds as a machine: the same probes, ledger and
        // transcript as `Toy::run`.
        struct Chase {
            query: u64,
            round: u8,
        }
        impl RoundMachine for Chase {
            type Answer = u64;
            fn step(&mut self, words: &[Word]) -> Step<u64> {
                self.round += 1;
                match self.round {
                    1 => Step::Probe(vec![Address::with_u64(0, self.query)]),
                    2 => Step::Probe(vec![Address::with_u64(0, words[0].to_u64() % 64)]),
                    _ => Step::Done(words[0].to_u64()),
                }
            }
        }
        let scheme = Toy::new();
        let opts = ExecOptions::with_transcript();
        let (a1, l1, t1) = execute_with(&scheme, &5, opts);
        let mut exec = RoundExecutor::new(scheme.table(), opts.capped_at(64));
        let a2 = drive(&mut Chase { query: 5, round: 0 }, &mut exec);
        let (l2, t2) = exec.finish();
        assert_eq!((a1, l1, t1), (a2, l2, t2));
    }

    #[test]
    fn one_round_machine_probes_once() {
        let scheme = Toy::new();
        let mut exec = RoundExecutor::new(scheme.table(), ExecOptions::default());
        let addrs = vec![Address::with_u64(0, 2), Address::with_u64(0, 3)];
        let sum = drive(
            &mut OneRound::new(addrs, |w: &[Word]| w.iter().map(Word::to_u64).sum::<u64>()),
            &mut exec,
        );
        assert_eq!(sum, 15);
        assert_eq!(exec.ledger().per_round, vec![2]);
    }

    #[test]
    fn declared_word_size_is_enforced_automatically() {
        // A scheme that lies about its word size panics on execution.
        struct Liar {
            table: MaterializedTable,
        }
        impl CellProbeScheme for Liar {
            type Query = ();
            type Answer = ();
            fn table(&self) -> &dyn Table {
                &self.table
            }
            fn word_bits(&self) -> u64 {
                8
            }
            fn run(&self, _q: &(), exec: &mut RoundExecutor<'_>) {
                let _ = exec.round(&[Address::with_u64(0, 0)]);
            }
        }
        let table = MaterializedTable::new(SpaceModel::from_exact_cells(1, 8));
        table.write(Address::with_u64(0, 0), Word::from_bytes(vec![0; 10]));
        let liar = Liar { table };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&liar, &())));
        assert!(result.is_err(), "oversized word must be rejected");
    }
}
