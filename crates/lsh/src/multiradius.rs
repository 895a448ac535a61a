//! Multi-radius LSH: the natural way to lift `(r, γr)`-LSH to *nearest*
//! neighbor search — and in doing so, to spend **rounds**.
//!
//! Classic LSH solves the fixed-radius near-neighbor problem. To search for
//! the nearest neighbor one runs a geometric ladder of radii
//! `r_j = α^j` and queries them smallest-first until a candidate appears —
//! each radius level is one round of `L_j` parallel bucket probes. This is
//! exactly the adaptivity the paper's introduction attributes to
//! LSH-descendant schemes, and it makes LSH commensurable with Algorithm 1
//! in the (rounds, probes) plane: `⌈log_α d⌉` rounds of `O~(n^ρ)` probes
//! in the worst case, against Algorithm 1's `k` rounds of
//! `O((log d)^{1/k})`.
//!
//! A `rungs_per_round` knob trades rounds for probes *within LSH itself*
//! (probe several radius levels in one round), giving LSH its own
//! limited-adaptivity tradeoff curve for experiment E8.

use rand::Rng;

use anns_cellprobe::{
    execute_with, Address, CellProbeScheme, ExecOptions, ProbeLedger, RoundExecutor, SpaceModel,
    Table, Word,
};
use anns_hamming::{ceil_log_alpha, Dataset, Point};

use crate::bitsampling::{LshIndex, LshParams};

/// Configuration of the radius ladder.
#[derive(Clone, Copy, Debug)]
pub struct MultiRadiusParams {
    /// Radius growth factor per rung (`α`; the paper's `√γ` is natural).
    pub alpha: f64,
    /// Approximation ratio each rung's LSH is tuned for.
    pub gamma: f64,
    /// Per-query success boost of each rung (multiplies `L`).
    pub boost: f64,
    /// Radius levels probed per round (1 = fully sequential ladder,
    /// `#rungs` = fully parallel single round).
    pub rungs_per_round: u32,
}

impl Default for MultiRadiusParams {
    fn default() -> Self {
        MultiRadiusParams {
            alpha: std::f64::consts::SQRT_2,
            gamma: 2.0,
            boost: 4.0,
            rungs_per_round: 1,
        }
    }
}

/// A ladder of per-radius LSH structures.
pub struct MultiRadiusLsh {
    params: MultiRadiusParams,
    /// `(radius, index)` per rung, ascending radius.
    rungs: Vec<(u32, LshIndex)>,
}

impl MultiRadiusLsh {
    /// Builds one LSH structure per radius `α^j ≤ d/γ`, `j ≥ 1`.
    pub fn build<R: Rng + ?Sized>(
        dataset: Dataset,
        params: MultiRadiusParams,
        rng: &mut R,
    ) -> Self {
        assert!(params.alpha > 1.0 && params.gamma > 1.0);
        assert!(params.rungs_per_round >= 1);
        let d = dataset.dim();
        let top = ceil_log_alpha(u64::from(d), params.alpha);
        let mut rungs = Vec::new();
        for j in 1..=top {
            let r = params.alpha.powi(j as i32);
            if params.gamma * r >= f64::from(d) {
                break;
            }
            let lsh_params = LshParams::for_radius(dataset.len(), d, r, params.gamma, params.boost);
            rungs.push((
                r.floor() as u32,
                LshIndex::build(dataset.clone(), lsh_params, rng),
            ));
        }
        assert!(!rungs.is_empty(), "dimension too small for any rung");
        MultiRadiusLsh { params, rungs }
    }

    /// Number of radius levels.
    pub fn num_rungs(&self) -> usize {
        self.rungs.len()
    }

    /// The ladder parameters.
    pub fn params(&self) -> &MultiRadiusParams {
        &self.params
    }

    /// Runs one query through the ladder.
    pub fn query(&self, x: &Point) -> (Option<(usize, u32)>, ProbeLedger) {
        let (answer, ledger, _) = execute_with(self, x, ExecOptions::default());
        (answer, ledger)
    }
}

/// Routes addresses to the rung's own table: the high 16 bits of the table
/// id select the rung, the low 16 bits are the rung-local LSH table id.
fn pack_table(rung: usize, local: u32) -> u32 {
    assert!(local < (1 << 16), "rung-local table id overflow");
    ((rung as u32) << 16) | local
}

impl Table for MultiRadiusLsh {
    fn read(&self, addr: &Address) -> Word {
        let rung = (addr.table >> 16) as usize;
        let local = addr.table & 0xFFFF;
        let inner = Address::new(local, addr.key.clone());
        self.rungs[rung].1.read(&inner)
    }

    fn space_model(&self) -> SpaceModel {
        self.rungs
            .iter()
            .map(|(_, lsh)| lsh.space_model())
            .fold(SpaceModel::zero(), SpaceModel::combine)
    }
}

impl CellProbeScheme for MultiRadiusLsh {
    type Query = Point;
    /// Closest candidate found: `(database index, distance)`.
    type Answer = Option<(usize, u32)>;

    fn table(&self) -> &dyn Table {
        self
    }

    fn word_bits(&self) -> u64 {
        self.space_model().word_bits
    }

    fn run(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> Self::Answer {
        // Climb the ladder smallest-radius first; each round covers
        // `rungs_per_round` levels. Stop at the first level that yields a
        // candidate within γ·r (the ladder geometry then certifies a
        // γ·α-approximate nearest neighbor).
        let chunk = self.params.rungs_per_round as usize;
        let mut best: Option<(usize, u32)> = None;
        let mut rung = 0usize;
        while rung < self.rungs.len() {
            let group_end = (rung + chunk).min(self.rungs.len());
            let mut addrs = Vec::new();
            for (ri, (_, lsh)) in self.rungs.iter().enumerate().take(group_end).skip(rung) {
                for mut a in lsh.bucket_addresses(query) {
                    a.table = pack_table(ri, a.table);
                    addrs.push(a);
                }
            }
            let words = exec.round(&addrs);
            // Decode the group's buckets in word order and fold them through
            // the batched kernel, carrying the running best across groups —
            // same strict-min tie-break as the scalar per-candidate loop.
            let candidates: Vec<(u64, Point)> = words
                .iter()
                .flat_map(crate::bitsampling::decode_bucket_word)
                .collect();
            best = crate::bitsampling::best_candidate(query, &candidates, best);
            // Early exit once certified against the group's largest radius.
            if let Some((_, dist)) = best {
                let r_max = f64::from(self.rungs[group_end - 1].0);
                if f64::from(dist) <= self.params.gamma * r_max {
                    break;
                }
            }
            rung = group_end;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_hamming::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ladder(seed: u64, rungs_per_round: u32) -> (MultiRadiusLsh, Point, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let planted = gen::planted(512, 512, 8, &mut rng);
        let ladder = MultiRadiusLsh::build(
            planted.dataset,
            MultiRadiusParams {
                rungs_per_round,
                ..MultiRadiusParams::default()
            },
            &mut rng,
        );
        (ladder, planted.query, planted.planted_index)
    }

    #[test]
    fn finds_the_planted_needle_sequentially() {
        let (ladder, query, needle) = ladder(1, 1);
        let (answer, ledger) = ladder.query(&query);
        let (idx, dist) = answer.expect("needle must be found");
        assert_eq!(idx, needle);
        assert_eq!(dist, 8);
        // Sequential ladder: several rounds (one per rung climbed), but it
        // stops early once the candidate is certified — well before the top
        // rung. (Rungs below the needle's radius can still catch it with
        // their lower per-table collision probability, so the exact stop
        // round varies with the seed.)
        assert!(ledger.rounds() <= ladder.num_rungs());
        assert!(
            ledger.rounds() >= 2,
            "distance-8 needle cannot certify at rung 1"
        );
    }

    #[test]
    fn parallel_ladder_uses_fewer_rounds_more_probes() {
        let (seq, query, _) = ladder(2, 1);
        let (_, ledger_seq) = seq.query(&query);
        let (par, query2, _) = ladder(2, 8);
        let (_, ledger_par) = par.query(&query2);
        assert!(ledger_par.rounds() < ledger_seq.rounds());
        assert!(ledger_par.total_probes() >= ledger_seq.total_probes());
    }

    #[test]
    fn rung_count_tracks_dimension() {
        let mut rng = StdRng::seed_from_u64(3);
        let small = MultiRadiusLsh::build(
            gen::uniform(64, 128, &mut rng),
            MultiRadiusParams::default(),
            &mut rng,
        );
        let large = MultiRadiusLsh::build(
            gen::uniform(64, 1024, &mut rng),
            MultiRadiusParams::default(),
            &mut rng,
        );
        assert!(large.num_rungs() > small.num_rungs());
    }

    #[test]
    fn space_model_combines_rungs() {
        let mut rng = StdRng::seed_from_u64(4);
        let ladder = MultiRadiusLsh::build(
            gen::uniform(128, 256, &mut rng),
            MultiRadiusParams::default(),
            &mut rng,
        );
        let total = ladder.space_model();
        let first = ladder.rungs[0].1.space_model();
        assert!(total.cells_log2 >= first.cells_log2);
    }
}
