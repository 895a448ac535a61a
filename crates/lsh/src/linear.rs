//! The trivial exact baseline: a one-round linear scan.
//!
//! The database is stored one point per cell; a query probes all `n` cells
//! in a single (non-adaptive) round and takes the minimum distance
//! query-side. Complexity: table size `n`, word `O(d)`, probes `n`,
//! rounds 1 — the row every comparison table starts from, and a way to
//! route exact nearest-neighbor computation through the same cell-probe
//! ledger as everything else.

use anns_cellprobe::{
    drive, execute_with, Address, CellProbeScheme, ExecOptions, OneRound, ProbeLedger,
    RoundExecutor, RoundMachine, SpaceModel, Table, Word,
};
use anns_hamming::{Dataset, ExactNeighbor, Point};

/// One-round exact scan over the whole database.
pub struct LinearScan {
    dataset: Dataset,
}

impl LinearScan {
    /// Wraps a database.
    pub fn new(dataset: Dataset) -> Self {
        LinearScan { dataset }
    }

    /// The database.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The query as a step machine: one round over every database cell,
    /// then the strict minimum over one batched kernel pass (every
    /// decoded distance is < u32::MAX, so the fold resolves ties exactly
    /// like a per-cell scalar loop).
    pub fn machine<'a>(&self, query: &'a Point) -> impl RoundMachine<Answer = ExactNeighbor> + 'a {
        let addrs = (0..self.dataset.len())
            .map(|i| Address::with_u64(0, i as u64))
            .collect();
        OneRound::new(addrs, move |words: &[Word]| {
            let cells: Vec<(u64, Point)> = words.iter().map(decode_point_cell).collect();
            let (index, distance) = crate::bitsampling::best_candidate(query, &cells, None)
                .expect("linear scan over a non-empty database yields a candidate");
            ExactNeighbor { index, distance }
        })
    }

    /// Runs one query through the cell-probe machinery.
    pub fn query(&self, x: &Point) -> (ExactNeighbor, ProbeLedger) {
        let (answer, ledger, _) = execute_with(self, x, ExecOptions::default());
        (answer, ledger)
    }
}

fn encode_point_cell(idx: u64, p: &Point) -> Word {
    let mut bytes = Vec::with_capacity(12 + p.limbs().len() * 8);
    bytes.extend_from_slice(&idx.to_le_bytes());
    bytes.extend_from_slice(&p.dim().to_le_bytes());
    for limb in p.limbs() {
        bytes.extend_from_slice(&limb.to_le_bytes());
    }
    Word::from_bytes(bytes)
}

fn decode_point_cell(word: &Word) -> (u64, Point) {
    let bytes = word.bytes();
    let idx = u64::from_le_bytes(bytes[0..8].try_into().expect("idx"));
    let dim = u32::from_le_bytes(bytes[8..12].try_into().expect("dim"));
    let n_limbs = dim.div_ceil(64) as usize;
    let mut limbs = Vec::with_capacity(n_limbs);
    for chunk in bytes[12..12 + n_limbs * 8].chunks_exact(8) {
        limbs.push(u64::from_le_bytes(chunk.try_into().expect("limb")));
    }
    (idx, Point::from_limbs(dim, limbs))
}

impl Table for LinearScan {
    fn read(&self, addr: &Address) -> Word {
        let idx = u64::from_le_bytes(addr.key[0..8].try_into().expect("cell index")) as usize;
        encode_point_cell(idx as u64, self.dataset.point(idx))
    }

    fn space_model(&self) -> SpaceModel {
        SpaceModel::from_exact_cells(
            self.dataset.len() as u64,
            (12 + 8 * u64::from(self.dataset.dim().div_ceil(64))) * 8,
        )
    }
}

impl CellProbeScheme for LinearScan {
    type Query = Point;
    type Answer = ExactNeighbor;

    fn table(&self) -> &dyn Table {
        self
    }

    fn word_bits(&self) -> u64 {
        self.space_model().word_bits
    }

    fn run(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> ExactNeighbor {
        drive(&mut self.machine(query), exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_hamming::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_brute_force_ground_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = gen::uniform(200, 96, &mut rng);
        let scan = LinearScan::new(ds.clone());
        for _ in 0..20 {
            let q = Point::random(96, &mut rng);
            let (got, ledger) = scan.query(&q);
            let expect = ds.exact_nn(&q);
            assert_eq!(got.distance, expect.distance);
            assert_eq!(q.distance(ds.point(got.index)), expect.distance);
            assert_eq!(ledger.rounds(), 1, "non-adaptive");
            assert_eq!(ledger.total_probes(), 200);
        }
    }

    #[test]
    fn point_cell_codec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = Point::random(200, &mut rng);
        let (idx, q) = decode_point_cell(&encode_point_cell(7, &p));
        assert_eq!(idx, 7);
        assert_eq!(q, p);
    }

    #[test]
    fn space_model_is_n_cells() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = gen::uniform(128, 64, &mut rng);
        let scan = LinearScan::new(ds);
        let model = scan.space_model();
        assert!((model.cells_log2 - 7.0).abs() < 1e-9);
    }
}
