//! Subsampled repetition: the adaptive-adversary defense from the
//! robustness literature as a [`ServableScheme`] wrapper.
//!
//! A single randomized structure answering a long-lived query stream
//! leaks its internal randomness through its answers: an adaptive
//! attacker can walk queries toward the failure region and then stay
//! there, because the *same* coins decide every query
//! (Cherapanamjeri–Nelson 2020; Andoni–Haris–Kelman–Onak 2026 — see
//! `PAPERS.md`). The standard repair is **independent repetition with
//! per-query subsampling**: build `R` independent instances of the
//! scheme, and answer each query from a pseudorandom subsample of `K`
//! of them. A query that defeats one instance's coins says nothing
//! about its siblings, so a latched failure does not transfer — the
//! attacker is back to the non-adaptive failure probability, now
//! amplified to roughly `p^K` by the aggregation.
//!
//! [`SubsampledRepetition`] implements exactly that over any inner
//! [`ServableScheme`]s. Every inner probe is re-routed into the
//! *outer* [`RoundExecutor`] (replica `i`'s table ids are offset by
//! `i × REPLICA_STRIDE`), so the whole ensemble's probe cost lands in
//! one ledger and the wrapper composes with the engine's cross-query
//! coalescing unchanged. The subsample is derandomized per query —
//! a keyed hash of the query bits picks the `K` replicas — which keeps
//! answers byte-stable under repetition (the determinism baseline the
//! attack harness and the store replay tests rely on) while still
//! decorrelating *distinct* queries, which is what defeats the
//! hill-climbing adversary.
//!
//! Persistence: the wrapper saves as `scheme_kind::SUBSAMPLE` records
//! carrying its inner schemes (see [`crate::store::StoredScheme`] and
//! the bundle codec in `anns-engine`), so a defended shard mounts,
//! hot-swaps, and warm-starts like any other.

use std::sync::{Arc, Mutex};

use anns_cellprobe::{
    drive, Address, ExecOptions, RoundExecutor, RoundMachine, RoundSource, SpaceModel, Step, Table,
    TableId, Word,
};
use anns_hamming::Point;

use crate::lambda::LambdaAnswer;
use crate::serve::{QueryMachine, ServableScheme, ServedAnswer};

/// Table-id block reserved per replica: replica `i`'s inner table `t`
/// appears on the shared oracle as `i × REPLICA_STRIDE + t`.
pub const REPLICA_STRIDE: TableId = 1 << 24;

/// How the `K` subsampled answers collapse into one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Aggregation {
    /// Plurality vote over the returned database index (`None` votes
    /// too); earliest replica breaks ties.
    Majority,
    /// The answer closest to the query, judged by the carried
    /// candidate distance or returned point; answers without a point
    /// rank below measured ones, and `None` ranks last.
    BestOf,
}

impl Aggregation {
    /// Store-codec byte (stable across releases).
    pub fn to_byte(self) -> u8 {
        match self {
            Aggregation::Majority => 0,
            Aggregation::BestOf => 1,
        }
    }

    /// Inverse of [`Aggregation::to_byte`]; `None` on unknown bytes.
    pub fn from_byte(byte: u8) -> Option<Aggregation> {
        match byte {
            0 => Some(Aggregation::Majority),
            1 => Some(Aggregation::BestOf),
            _ => None,
        }
    }

    /// Short label for scheme listings.
    pub fn label(self) -> &'static str {
        match self {
            Aggregation::Majority => "maj",
            Aggregation::BestOf => "best",
        }
    }
}

/// `R` independently-built inner instances; each query is answered by
/// a per-query pseudorandom subsample of `K` of them. See the module
/// docs for why this defeats adaptive attackers.
pub struct SubsampledRepetition {
    inners: Vec<Arc<dyn ServableScheme>>,
    sample: u32,
    seed: u64,
    agg: Aggregation,
    router: ReplicaRouter,
}

impl SubsampledRepetition {
    /// Replica count ceiling (the table-id striding reserves
    /// `REPLICA_STRIDE` ids per replica within a `u32`).
    pub const MAX_REPLICAS: usize = 255;

    /// Wraps `inners` (the `R` independently-built instances),
    /// answering each query from `sample` (`K`) of them chosen by a
    /// hash keyed on `seed`. Fails on an empty ensemble, `K` outside
    /// `1..=R`, `R > MAX_REPLICAS`, or inners that disagree on the
    /// query dimension.
    pub fn new(
        inners: Vec<Arc<dyn ServableScheme>>,
        sample: u32,
        seed: u64,
        agg: Aggregation,
    ) -> Result<SubsampledRepetition, String> {
        if inners.is_empty() {
            return Err("subsampled repetition needs at least one inner scheme".into());
        }
        if inners.len() > Self::MAX_REPLICAS {
            return Err(format!(
                "{} replicas exceed the maximum of {}",
                inners.len(),
                Self::MAX_REPLICAS
            ));
        }
        if sample == 0 || sample as usize > inners.len() {
            return Err(format!(
                "sample K = {sample} must be in 1..={}",
                inners.len()
            ));
        }
        let dim = inners[0].query_dim();
        if inners.iter().any(|inner| inner.query_dim() != dim) {
            return Err("inner schemes disagree on query dimension".into());
        }
        let router = ReplicaRouter {
            inners: inners.iter().map(Arc::clone).collect(),
        };
        Ok(SubsampledRepetition {
            inners,
            sample,
            seed,
            agg,
            router,
        })
    }

    /// Replica count `R`.
    pub fn replicas(&self) -> usize {
        self.inners.len()
    }

    /// Subsample size `K`.
    pub fn sample(&self) -> u32 {
        self.sample
    }

    /// The subsample-selection seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The aggregation rule.
    pub fn aggregation(&self) -> Aggregation {
        self.agg
    }

    /// One inner replica (test/introspection surface).
    pub fn inner(&self, replica: usize) -> &Arc<dyn ServableScheme> {
        &self.inners[replica]
    }

    /// The replica indices that answer `query`: a partial
    /// Fisher–Yates shuffle driven by a splitmix64 chain over
    /// `(seed, query bits)`. Identical queries always draw the same
    /// subsample; distinct queries draw fresh, decorrelated ones.
    pub fn subsample_for(&self, query: &Point) -> Vec<usize> {
        let mut h = splitmix64(self.seed ^ u64::from(query.dim()));
        for &limb in query.limbs() {
            h = splitmix64(h ^ limb);
        }
        let r = self.inners.len();
        let mut order: Vec<usize> = (0..r).collect();
        for i in 0..self.sample as usize {
            h = splitmix64(h);
            let j = i + (h % (r - i) as u64) as usize;
            order.swap(i, j);
        }
        order.truncate(self.sample as usize);
        order
    }

    fn aggregate(&self, query: &Point, answers: &[(usize, ServedAnswer)]) -> ServedAnswer {
        match self.agg {
            Aggregation::BestOf => {
                let mut best = 0;
                for i in 1..answers.len() {
                    if quality(query, &answers[i].1) < quality(query, &answers[best].1) {
                        best = i;
                    }
                }
                answers[best].1.clone()
            }
            Aggregation::Majority => {
                // Plurality over the returned index; first occurrence
                // in subsample order breaks count ties.
                let mut tally: Vec<(Option<u64>, usize, usize)> = Vec::new();
                for (pos, (_, answer)) in answers.iter().enumerate() {
                    let key = answer.index();
                    match tally.iter_mut().find(|(k, _, _)| *k == key) {
                        Some(entry) => entry.1 += 1,
                        None => tally.push((key, 1, pos)),
                    }
                }
                let winner = tally
                    .iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
                    .expect("aggregation over a non-empty subsample");
                answers[winner.2].1.clone()
            }
        }
    }
}

/// Ranking key for best-of aggregation: lower is better. Class 0 =
/// a measurable distance, class 1 = an index without a point, class
/// 2 = no answer.
fn quality(query: &Point, answer: &ServedAnswer) -> (u8, u32) {
    match answer {
        ServedAnswer::Candidate(Some(c)) => (0, c.distance),
        ServedAnswer::Candidate(None) => (2, 0),
        ServedAnswer::Outcome(o) => match (o.index(), o.point()) {
            (Some(_), Some(p)) => (0, query.distance(p)),
            (Some(_), None) => (1, 0),
            _ => (2, 0),
        },
        ServedAnswer::Lambda(LambdaAnswer::Neighbor { point, .. }) => match point {
            Some(p) => (0, query.distance(p)),
            None => (1, 0),
        },
        ServedAnswer::Lambda(LambdaAnswer::No) => (2, 0),
    }
}

impl ServableScheme for SubsampledRepetition {
    fn label(&self) -> String {
        format!(
            "subsampled[R={},K={},{}|{}]",
            self.inners.len(),
            self.sample,
            self.agg.label(),
            self.inners[0].label()
        )
    }

    fn ready(&self) -> Result<(), anns_store::PayloadFault> {
        self.inners.iter().try_for_each(|inner| inner.ready())
    }

    fn table(&self) -> &dyn Table {
        &self.router
    }

    fn word_bits(&self) -> u64 {
        self.inners
            .iter()
            .map(|inner| inner.word_bits())
            .max()
            .unwrap_or(0)
    }

    fn query_dim(&self) -> Option<u32> {
        self.inners[0].query_dim()
    }

    fn round_budget(&self) -> Option<u32> {
        // The K subsampled instances run sequentially, so rounds add:
        // K × the worst inner budget. None if any inner declines.
        let worst = self
            .inners
            .iter()
            .map(|inner| inner.round_budget())
            .collect::<Option<Vec<u32>>>()?;
        Some(self.sample * worst.into_iter().max().unwrap_or(0))
    }

    fn probe_budget(&self) -> Option<u64> {
        let worst = self
            .inners
            .iter()
            .map(|inner| inner.probe_budget())
            .collect::<Option<Vec<u64>>>()?;
        Some(u64::from(self.sample) * worst.into_iter().max().unwrap_or(0))
    }

    /// A machine running the `K` picked inners' machines one after
    /// another, or `None` if a picked inner is serve-only.
    fn start<'a>(&'a self, query: &'a Point) -> Option<Box<dyn QueryMachine + 'a>> {
        let inners = self
            .subsample_for(query)
            .into_iter()
            .map(|replica| Some((replica, self.inners[replica].start(query)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(Box::new(Ensemble {
            owner: self,
            query,
            answers: Vec::with_capacity(inners.len()),
            inners,
        }))
    }

    fn serve(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
        if let Some(mut machine) = self.start(query) {
            return drive(&mut *machine, exec);
        }
        // A picked inner is serve-only: run each inner on its own
        // executor whose rounds are re-issued (table ids offset into
        // the replica's block) against the outer executor, so the
        // outer ledger sees every probe, exactly as the machine does.
        let mut answers = Vec::with_capacity(self.sample as usize);
        for replica in self.subsample_for(query) {
            let source = OffsetSource {
                outer: Mutex::new(&mut *exec),
                base: replica_base(replica),
            };
            let mut sub = RoundExecutor::with_source(&source, ExecOptions::default());
            answers.push((replica, self.inners[replica].serve(query, &mut sub)));
        }
        self.aggregate(query, &answers)
    }

    fn stored(&self) -> Option<crate::store::StoredScheme> {
        let inners = self
            .inners
            .iter()
            .map(|inner| inner.stored())
            .collect::<Option<Vec<_>>>()?;
        Some(crate::store::StoredScheme::Subsampled {
            sample: self.sample,
            seed: self.seed,
            agg: self.agg,
            inners,
        })
    }
}

/// The ensemble's shared table oracle: routes each address to the
/// replica owning its table-id block.
struct ReplicaRouter {
    inners: Vec<Arc<dyn ServableScheme>>,
}

impl Table for ReplicaRouter {
    fn read(&self, addr: &Address) -> Word {
        let replica = (addr.table / REPLICA_STRIDE) as usize;
        assert!(
            replica < self.inners.len(),
            "table id {} addresses replica {replica}, but only {} exist",
            addr.table,
            self.inners.len()
        );
        let inner = Address::new(addr.table % REPLICA_STRIDE, addr.key.clone());
        self.inners[replica].table().read(&inner)
    }

    fn space_model(&self) -> SpaceModel {
        self.inners.iter().fold(SpaceModel::zero(), |acc, inner| {
            acc.combine(inner.table().space_model())
        })
    }
}

/// The first table id of replica `replica`'s block.
fn replica_base(replica: usize) -> TableId {
    replica as TableId * REPLICA_STRIDE
}

/// Shifts inner addresses into a replica's table-id block.
fn shifted(base: TableId, addrs: &[Address]) -> Vec<Address> {
    addrs
        .iter()
        .map(|a| Address::new(base + a.table, a.key.clone()))
        .collect()
}

/// The ensemble's step machine: the picked inners run one after
/// another (never in lock-step), their rounds shifted into each
/// replica's table-id block, so the outer ledger is the concatenation
/// of the inner ones.
struct Ensemble<'a> {
    owner: &'a SubsampledRepetition,
    query: &'a Point,
    /// The picked inners in subsample order; the first
    /// `answers.len()` of them have answered.
    inners: Vec<(usize, Box<dyn QueryMachine + 'a>)>,
    answers: Vec<(usize, ServedAnswer)>,
}

impl RoundMachine for Ensemble<'_> {
    type Answer = ServedAnswer;

    fn step(&mut self, mut words: &[Word]) -> Step<ServedAnswer> {
        while let Some((replica, machine)) = self.inners.get_mut(self.answers.len()) {
            match machine.step(words) {
                Step::Probe(addrs) => return Step::Probe(shifted(replica_base(*replica), &addrs)),
                Step::Done(answer) => {
                    self.answers.push((*replica, answer));
                    // The next inner starts from no words.
                    words = &[];
                }
            }
        }
        Step::Done(self.owner.aggregate(self.query, &self.answers))
    }
}

/// Re-issues a sub-executor's rounds against the outer executor with
/// the replica's table-id offset applied. `Mutex` only to satisfy the
/// `Sync` bound on [`RoundSource`]; rounds arrive one at a time.
struct OffsetSource<'e, 'o> {
    outer: Mutex<&'e mut RoundExecutor<'o>>,
    base: TableId,
}

impl RoundSource for OffsetSource<'_, '_> {
    fn read_round(&self, addrs: &[Address]) -> Vec<Word> {
        self.outer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .round(&shifted(self.base, addrs))
    }
}

/// One step of the splitmix64 chain (Steele–Lea–Flood): the keyed
/// hash behind per-query subsample selection. Hand-rolled so the
/// subsample is a stable function of `(seed, query)` independent of
/// any RNG crate's stream details.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Candidate, SoloServable};
    use anns_cellprobe::execute;
    use anns_hamming::{gen, Dataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A deterministic toy scheme: one probe, answers with a fixed
    /// index and a distance derived from the query's first limb.
    struct Fixed {
        id: u64,
        table: anns_cellprobe::MaterializedTable,
    }

    impl Fixed {
        fn new(id: u64) -> Fixed {
            let table = anns_cellprobe::MaterializedTable::new(SpaceModel::from_exact_cells(1, 64));
            table.write(Address::with_u64(0, 0), anns_cellprobe::Word::from_u64(id));
            Fixed { id, table }
        }
    }

    impl ServableScheme for Fixed {
        fn label(&self) -> String {
            format!("fixed[{}]", self.id)
        }
        fn table(&self) -> &dyn Table {
            &self.table
        }
        fn word_bits(&self) -> u64 {
            64
        }
        fn round_budget(&self) -> Option<u32> {
            Some(1)
        }
        fn probe_budget(&self) -> Option<u64> {
            Some(1)
        }
        fn serve(&self, _query: &Point, exec: &mut RoundExecutor<'_>) -> ServedAnswer {
            let words = exec.round(&[Address::with_u64(0, 0)]);
            let id = words[0].to_u64();
            ServedAnswer::Candidate(Some(Candidate {
                index: id,
                distance: id as u32,
            }))
        }
    }

    fn ensemble(r: usize, sample: u32, agg: Aggregation) -> SubsampledRepetition {
        let inners: Vec<Arc<dyn ServableScheme>> = (0..r)
            .map(|i| Arc::new(Fixed::new(i as u64)) as Arc<dyn ServableScheme>)
            .collect();
        SubsampledRepetition::new(inners, sample, 42, agg).expect("valid ensemble")
    }

    #[test]
    fn constructor_validates() {
        assert!(SubsampledRepetition::new(Vec::new(), 1, 0, Aggregation::BestOf).is_err());
        let inners: Vec<Arc<dyn ServableScheme>> = vec![Arc::new(Fixed::new(0))];
        assert!(
            SubsampledRepetition::new(inners.clone(), 2, 0, Aggregation::BestOf).is_err(),
            "K > R rejected"
        );
        assert!(SubsampledRepetition::new(inners, 0, 0, Aggregation::BestOf).is_err());
    }

    #[test]
    fn subsample_is_deterministic_per_query_and_distinct_across_queries() {
        let s = ensemble(8, 3, Aggregation::BestOf);
        let mut rng = StdRng::seed_from_u64(7);
        let q1 = Point::random(128, &mut rng);
        let picks = s.subsample_for(&q1);
        assert_eq!(picks.len(), 3);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas are distinct");
        assert_eq!(picks, s.subsample_for(&q1), "same query, same subsample");
        // Across many fresh queries every replica gets sampled: the
        // selection really varies with the query bits.
        let mut seen = [false; 8];
        for _ in 0..200 {
            let q = Point::random(128, &mut rng);
            for r in s.subsample_for(&q) {
                seen[r] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all replicas reachable: {seen:?}");
    }

    #[test]
    fn probes_land_in_outer_ledger_with_replica_striding() {
        let s = ensemble(8, 3, Aggregation::BestOf);
        let mut rng = StdRng::seed_from_u64(9);
        let q = Point::random(128, &mut rng);
        let (answer, ledger) = execute(&SoloServable(&s), &q);
        // 3 subsampled one-probe inners, run sequentially: 3 rounds of
        // one probe each, all charged to the single outer ledger.
        assert_eq!(ledger.rounds(), 3);
        assert_eq!(ledger.total_probes(), 3);
        assert!(s.within_budget(&ledger));
        // Best-of over candidates whose distance equals their replica
        // id: the smallest sampled replica wins.
        let min = *s.subsample_for(&q).iter().min().unwrap() as u64;
        assert_eq!(answer.index(), Some(min));
    }

    #[test]
    fn majority_prefers_plurality_and_breaks_ties_earliest() {
        let s = ensemble(4, 3, Aggregation::Majority);
        let q = Point::from_fn(64, |_| false);
        let picks = s.subsample_for(&q);
        // Fixed inners all answer with distinct indices: a 3-way tie,
        // broken by the earliest pick.
        let (answer, _) = execute(&SoloServable(&s), &q);
        assert_eq!(answer.index(), Some(picks[0] as u64));
    }

    #[test]
    fn budgets_scale_with_sample_not_replicas() {
        let s = ensemble(8, 3, Aggregation::BestOf);
        assert_eq!(s.round_budget(), Some(3));
        assert_eq!(s.probe_budget(), Some(3));
        assert_eq!(s.word_bits(), 64);
        assert!(s.label().starts_with("subsampled[R=8,K=3,best|"));
    }

    #[test]
    fn defended_alg1_end_to_end() {
        // The real defense shape: R independently-built indexes over
        // one dataset (independent sketch coins per replica), wrapped
        // behind Algorithm 1. Identical queries stay byte-identical
        // and the planted neighbor is still found.
        let mut rng = StdRng::seed_from_u64(11);
        let inst = gen::planted(96, 128, 4, &mut rng);
        let ds: Dataset = inst.dataset;
        let inners: Vec<Arc<dyn ServableScheme>> = (0..4u64)
            .map(|i| {
                let index = crate::concrete::AnnIndex::build(
                    ds.clone(),
                    anns_sketch::SketchParams::practical(2.0, 100 + i),
                    crate::concrete::BuildOptions::default(),
                );
                Arc::new(crate::serve::ServeAlg1 {
                    index: Arc::new(index),
                    k: 2,
                    tau_override: None,
                }) as Arc<dyn ServableScheme>
            })
            .collect();
        let s = SubsampledRepetition::new(inners, 2, 7, Aggregation::BestOf).expect("ensemble");
        let q = inst.query;
        let (a1, l1) = execute(&SoloServable(&s), &q);
        let (a2, l2) = execute(&SoloServable(&s), &q);
        assert_eq!(a1, a2);
        assert_eq!(l1, l2);
        assert_eq!(a1.index(), Some(inst.planted_index as u64));
        assert!(s.within_budget(&l1));
    }
}
