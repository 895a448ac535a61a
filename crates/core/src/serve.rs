//! The serving surface: one object-safe trait over every query scheme.
//!
//! The paper's algorithms differ in answer shape (`QueryOutcome` for
//! Algorithms 1/2, `LambdaAnswer` for the 1-probe λ-ANNS scheme, a bare
//! candidate for the LSH/linear baselines) and in configuration (round
//! budget `k`, `Alg2Config`, λ). A serving engine wants none of that
//! variety: it holds *instances* behind one trait-object surface, routes
//! `Point` queries at them, and accounts every probe through the same
//! [`RoundExecutor`]. [`ServableScheme`] is that surface, and
//! [`ServedAnswer`] the unified answer.
//!
//! The trait also declares the scheme's *budgets* — the round count `k`
//! and worst-case probe total the paper's theorems promise — so an engine
//! can track budget adherence as a first-class served metric (the
//! adaptive-distance-estimation and adversarially-robust-ANN lines of work
//! make exactly this accounting the object of study; see `PAPERS.md`).
//!
//! A scheme serves a query either as a step machine ([`QueryMachine`],
//! from [`ServableScheme::start`]) or by running it to completion
//! against an executor ([`ServableScheme::serve`]). Every in-tree scheme
//! is a machine, which lets an engine step a whole generation of
//! queries from one loop; `serve` drives the same machine for the solo
//! paths.
//!
//! [`RoundExecutor`]: anns_cellprobe::RoundExecutor

use std::sync::Arc;

use anns_cellprobe::{drive, CellProbeScheme, ProbeLedger, RoundExecutor, RoundMachine, Table};
use anns_hamming::Point;

use crate::alg1::{choose_tau_alg1, Alg1Machine};
use crate::alg2::{Alg2Config, Alg2Machine};
use crate::concrete::AnnIndex;
use crate::instance::AnnsInstance;
use crate::lambda::{lambda_machine, lambda_scale, LambdaAnswer};
use crate::outcome::QueryOutcome;

/// A candidate neighbor returned by a baseline scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Candidate {
    /// Database index of the candidate.
    pub index: u64,
    /// Its Hamming distance from the query.
    pub distance: u32,
}

/// The unified answer type served by any [`ServableScheme`].
#[derive(Clone, Debug, PartialEq)]
pub enum ServedAnswer {
    /// An Algorithm 1/2 outcome.
    Outcome(QueryOutcome),
    /// A λ-ANNS answer.
    Lambda(LambdaAnswer),
    /// A best-candidate answer (LSH, linear scan); `None` = nothing found.
    Candidate(Option<Candidate>),
}

impl ServedAnswer {
    /// The returned database point index, if the query succeeded.
    pub fn index(&self) -> Option<u64> {
        match self {
            ServedAnswer::Outcome(o) => o.index(),
            ServedAnswer::Lambda(LambdaAnswer::Neighbor { index, .. }) => Some(*index),
            ServedAnswer::Lambda(LambdaAnswer::No) => None,
            ServedAnswer::Candidate(c) => c.map(|c| c.index),
        }
    }
}

/// One served query as a step machine: a [`RoundMachine`] answering
/// with a [`ServedAnswer`].
pub trait QueryMachine: RoundMachine<Answer = ServedAnswer> {}

impl<M: RoundMachine<Answer = ServedAnswer> + ?Sized> QueryMachine for M {}

/// An index instance servable behind a trait object: table oracle, declared
/// word size, declared budgets, and the query algorithm itself.
///
/// Implement [`ServableScheme::start`] (a step machine, stepped by the
/// engine's generation loop and driven by the default `serve`), or
/// override [`ServableScheme::serve`] alone; an engine runs a
/// serve-only scheme's query on a thread of its own.
///
/// This is the object-safe sibling of [`CellProbeScheme`], with the query
/// type fixed to [`Point`] and the answer unified to [`ServedAnswer`];
/// [`SoloServable`] bridges back so servable instances run through the
/// ordinary `execute`/`run_batch` machinery too.
pub trait ServableScheme: Send + Sync {
    /// Display label for registry listings and reports, e.g. `alg1[k=3]`.
    fn label(&self) -> String;

    /// Forces any deferred loading this scheme carries (mmap-backed
    /// shards verify and decode their payload at first touch; Algorithm 2
    /// over a built index sketches its `N` half), returning the latched
    /// fault if the backing bytes are damaged. Eagerly loaded schemes are
    /// always ready. Engines call this before
    /// routing a query so corruption surfaces as a typed serve error
    /// rather than a panic mid-probe.
    fn ready(&self) -> Result<(), anns_store::PayloadFault> {
        Ok(())
    }

    /// The table oracle this scheme probes.
    fn table(&self) -> &dyn Table;

    /// Declared word size `w` in bits; enforced by the executor.
    fn word_bits(&self) -> u64;

    /// The query dimension this scheme expects (`None` if it accepts any
    /// [`Point`]). Serving layers use it to validate that one workload
    /// can be routed across a set of shards.
    fn query_dim(&self) -> Option<u32> {
        None
    }

    /// Declared round budget (`k`), if the scheme commits to one.
    fn round_budget(&self) -> Option<u32> {
        None
    }

    /// Declared worst-case total-probe budget, if the scheme commits to
    /// one.
    fn probe_budget(&self) -> Option<u64> {
        None
    }

    /// Whether an execution's accounting stayed within the declared
    /// budgets (`true` when no budget is declared). The single verdict
    /// every serving/benching surface reports, so they cannot drift.
    fn within_budget(&self, ledger: &ProbeLedger) -> bool {
        self.round_budget()
            .is_none_or(|k| ledger.rounds() as u32 <= k)
            && self
                .probe_budget()
                .is_none_or(|t| ledger.total_probes() as u64 <= t)
    }

    /// The query algorithm as a step machine, or `None` for a scheme
    /// that implements only [`ServableScheme::serve`].
    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let _ = query;
        None
    }

    /// The query algorithm. All table access must go through `exec`.
    /// The default drives the [`ServableScheme::start`] machine.
    ///
    /// # Panics
    /// If the scheme overrides neither method.
    fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        let mut machine = self
            .start(query)
            .expect("a servable scheme implements `start` or `serve`");
        drive(&mut *machine, exec)
    }

    /// The scheme's persistent form for the binary store
    /// ([`crate::store`]), or `None` if it cannot be persisted (ad-hoc
    /// test schemes). `Registry::save_bundle` fails loudly on `None`
    /// rather than writing a bundle that silently drops shards.
    fn stored(&self) -> Option<crate::store::StoredScheme> {
        None
    }
}

/// [`CellProbeScheme`] adapter over a servable instance, so the solo
/// execution paths (`execute_with`, `run_one`, `run_batch`) and the
/// engine's coalesced path run *the same object* — the engine's
/// equivalence audits compare exactly these two executions.
pub struct SoloServable<'a>(pub &'a dyn ServableScheme);

impl CellProbeScheme for SoloServable<'_> {
    type Query = Point;
    type Answer = ServedAnswer;

    fn table(&self) -> &dyn Table {
        self.0.table()
    }

    fn word_bits(&self) -> u64 {
        self.0.word_bits()
    }

    fn run(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        self.0.serve(query, exec)
    }
}

/// Algorithm 1 over a built [`AnnIndex`], served at a fixed round budget.
pub struct ServeAlg1 {
    /// The built index (shared with any other schemes serving it).
    pub index: Arc<AnnIndex>,
    /// Round budget `k ≥ 1`.
    pub k: u32,
    /// Optional grid-width override (see [`crate::alg1::alg1`]).
    pub tau_override: Option<u32>,
}

impl ServableScheme for ServeAlg1 {
    fn label(&self) -> String {
        match self.tau_override {
            Some(tau) => format!("alg1[k={},tau={tau}]", self.k),
            None => format!("alg1[k={}]", self.k),
        }
    }

    fn table(&self) -> &dyn Table {
        crate::instance::AnnsInstance::table(&*self.index)
    }

    fn word_bits(&self) -> u64 {
        crate::instance::AnnsInstance::word_bits(&*self.index)
    }

    fn query_dim(&self) -> Option<u32> {
        Some(self.index.dataset().dim())
    }

    fn round_budget(&self) -> Option<u32> {
        Some(self.k)
    }

    fn probe_budget(&self) -> Option<u64> {
        // k rounds of ≤ τ−1 probes, plus the two degenerate-case probes
        // riding along in round 1 (§3.1).
        let tau = self
            .tau_override
            .unwrap_or_else(|| choose_tau_alg1(self.index.top(), self.k));
        Some(u64::from(self.k) * u64::from(tau - 1) + 2)
    }

    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let machine = Alg1Machine::new(&*self.index, query, self.k, self.tau_override);
        Some(Box::new(machine.map(ServedAnswer::Outcome)))
    }

    fn stored(&self) -> Option<crate::store::StoredScheme> {
        Some(crate::store::StoredScheme::Core {
            index: Arc::clone(&self.index),
            spec: crate::store::SchemeSpec::Alg1 {
                k: self.k,
                tau_override: self.tau_override,
            },
        })
    }
}

/// Algorithm 2 over a built [`AnnIndex`].
pub struct ServeAlg2 {
    /// The built index.
    pub index: Arc<AnnIndex>,
    /// Algorithm configuration (round budget, constant `c`).
    pub config: Alg2Config,
}

impl ServableScheme for ServeAlg2 {
    fn label(&self) -> String {
        format!("alg2[k={}]", self.config.k)
    }

    /// Sketches the index's `N` half if it is not yet held: the
    /// auxiliary cells read it, and a generation should not stall on it.
    fn ready(&self) -> Result<(), anns_store::PayloadFault> {
        self.index.db_sketches();
        Ok(())
    }

    fn table(&self) -> &dyn Table {
        crate::instance::AnnsInstance::table(&*self.index)
    }

    fn word_bits(&self) -> u64 {
        crate::instance::AnnsInstance::word_bits(&*self.index)
    }

    fn query_dim(&self) -> Option<u32> {
        Some(self.index.dataset().dim())
    }

    fn round_budget(&self) -> Option<u32> {
        Some(self.config.k)
    }

    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let machine = Alg2Machine::new(&*self.index, query, &self.config);
        Some(Box::new(machine.map(ServedAnswer::Outcome)))
    }

    fn stored(&self) -> Option<crate::store::StoredScheme> {
        Some(crate::store::StoredScheme::Core {
            index: Arc::clone(&self.index),
            spec: crate::store::SchemeSpec::Alg2(self.config),
        })
    }
}

/// The 1-probe λ-ANNS scheme (Theorem 11) over a built [`AnnIndex`].
pub struct ServeLambda {
    /// The built index.
    pub index: Arc<AnnIndex>,
    /// The distance threshold λ.
    pub lambda: f64,
}

impl ServableScheme for ServeLambda {
    fn label(&self) -> String {
        format!("lambda[{}]", self.lambda)
    }

    fn table(&self) -> &dyn Table {
        crate::instance::AnnsInstance::table(&*self.index)
    }

    fn word_bits(&self) -> u64 {
        crate::instance::AnnsInstance::word_bits(&*self.index)
    }

    fn query_dim(&self) -> Option<u32> {
        Some(self.index.dataset().dim())
    }

    fn round_budget(&self) -> Option<u32> {
        Some(1)
    }

    fn probe_budget(&self) -> Option<u64> {
        Some(1)
    }

    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let scale = lambda_scale(
            self.lambda,
            self.index.family().alpha(),
            self.index.family().top(),
        );
        let machine = lambda_machine(&*self.index, query, scale);
        Some(Box::new(machine.map(ServedAnswer::Lambda)))
    }

    fn stored(&self) -> Option<crate::store::StoredScheme> {
        Some(crate::store::StoredScheme::Core {
            index: Arc::clone(&self.index),
            spec: crate::store::SchemeSpec::Lambda {
                lambda: self.lambda,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_cellprobe::{execute, execute_with, ExecOptions};
    use anns_hamming::gen;
    use anns_sketch::SketchParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planted() -> (Arc<AnnIndex>, Point, usize) {
        let mut rng = StdRng::seed_from_u64(40);
        let inst = gen::planted(128, 256, 6, &mut rng);
        let index = AnnIndex::build(
            inst.dataset,
            SketchParams::practical(2.0, 40),
            crate::concrete::BuildOptions::default(),
        );
        (Arc::new(index), inst.query, inst.planted_index)
    }

    #[test]
    fn servable_alg1_matches_direct_query() {
        let (index, query, needle) = planted();
        let servable = ServeAlg1 {
            index: Arc::clone(&index),
            k: 3,
            tau_override: None,
        };
        let (answer, ledger) = execute(&SoloServable(&servable), &query);
        let (direct, direct_ledger) = index.query(&query, 3);
        assert_eq!(answer, ServedAnswer::Outcome(direct));
        assert_eq!(ledger, direct_ledger);
        assert_eq!(answer.index(), Some(needle as u64));
        assert!(ledger.rounds() as u32 <= servable.round_budget().unwrap());
        assert!(ledger.total_probes() as u64 <= servable.probe_budget().unwrap());
        assert_eq!(servable.label(), "alg1[k=3]");
    }

    #[test]
    fn servable_alg2_matches_direct_query() {
        let (index, query, needle) = planted();
        let servable = ServeAlg2 {
            index: Arc::clone(&index),
            config: Alg2Config::with_k(8),
        };
        let (answer, ledger) = execute(&SoloServable(&servable), &query);
        let (direct, direct_ledger) = index.query_alg2(&query, Alg2Config::with_k(8));
        assert_eq!(answer, ServedAnswer::Outcome(direct));
        assert_eq!(ledger, direct_ledger);
        assert_eq!(answer.index(), Some(needle as u64));
    }

    #[test]
    fn servable_lambda_is_one_probe() {
        let (index, query, _) = planted();
        let servable = ServeLambda {
            index: Arc::clone(&index),
            lambda: 6.0,
        };
        let (answer, ledger, _) = execute_with(
            &SoloServable(&servable),
            &query,
            ExecOptions::with_transcript(),
        );
        assert_eq!(ledger.total_probes(), 1);
        assert_eq!(ledger.rounds(), 1);
        let (direct, _) = index.query_lambda(&query, 6.0);
        assert_eq!(answer, ServedAnswer::Lambda(direct));
    }

    #[test]
    fn budgets_are_declared() {
        let (index, _, _) = planted();
        let a1 = ServeAlg1 {
            index: Arc::clone(&index),
            k: 2,
            tau_override: None,
        };
        assert_eq!(a1.round_budget(), Some(2));
        assert!(a1.probe_budget().unwrap() >= 4);
        let l = ServeLambda { index, lambda: 4.0 };
        assert_eq!((l.round_budget(), l.probe_budget()), (Some(1), Some(1)));
    }
}
