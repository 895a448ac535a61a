//! Bit-sampling LSH for Hamming space (Indyk–Motwani).
//!
//! For the `(r, γr)` near-neighbor problem the bit-sampling family samples
//! a coordinate uniformly; points at distance `≤ r` collide with probability
//! `p₁ = 1 − r/d`, points at distance `> γr` with `p₂ = 1 − γr/d`.
//! Concatenating `K = ⌈log_{1/p₂} n⌉` samples and repeating over
//! `L ≈ n^ρ, ρ = ln(1/p₁)/ln(1/p₂)` tables gives the classic guarantee:
//! a near point collides in some table with constant probability while the
//! expected number of far collisions stays `O(L)`.
//!
//! As a cell-probing scheme this is **non-adaptive**: all `L` bucket
//! addresses are functions of the query alone, so the whole query is one
//! round — exactly the property the paper's introduction highlights. Each
//! bucket cell stores up to [`LshParams::bucket_cap`] point records, so the
//! word size is `O(cap·d)` bits; the ledger's `word_bits_read` makes the
//! information cost comparable with the paper's schemes in experiment E8.

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::Rng;

use anns_cellprobe::{
    drive, execute_with, Address, CellProbeScheme, ExecOptions, OneRound, ProbeLedger,
    RoundExecutor, RoundMachine, SpaceModel, Table, Word,
};
use anns_hamming::{Dataset, PackedBlock, Point};

/// LSH configuration.
#[derive(Clone, Copy, Debug)]
pub struct LshParams {
    /// Bits sampled per hash function (`K ≤ 64`).
    pub k_bits: u32,
    /// Number of hash tables `L`.
    pub l_tables: u32,
    /// Maximum point records stored per bucket cell.
    pub bucket_cap: usize,
}

impl LshParams {
    /// The collision exponent `ρ = ln(1/p₁)/ln(1/p₂)` for radius `r`,
    /// approximation `γ`, dimension `d`.
    pub fn rho(d: u32, r: f64, gamma: f64) -> f64 {
        assert!(r > 0.0 && gamma > 1.0);
        assert!(gamma * r < f64::from(d), "γr must stay below d");
        let p1 = 1.0 - r / f64::from(d);
        let p2 = 1.0 - gamma * r / f64::from(d);
        (1.0 / p1).ln() / (1.0 / p2).ln()
    }

    /// Textbook parameters for the `(r, γr)` near-neighbor problem:
    /// `K = ⌈log_{1/p₂} n⌉`, `L = ⌈n^ρ · boost⌉`. `boost > 1` raises the
    /// per-query success probability (`1 − (1 − p₁^K)^L`).
    pub fn for_radius(n: usize, d: u32, r: f64, gamma: f64, boost: f64) -> Self {
        let p2 = 1.0 - gamma * r / f64::from(d);
        let k_bits = ((n as f64).ln() / (1.0 / p2).ln()).ceil().max(1.0) as u32;
        let k_bits = k_bits.min(64).min(d);
        let rho = Self::rho(d, r, gamma);
        let l_tables = ((n as f64).powf(rho) * boost).ceil().max(1.0) as u32;
        LshParams {
            k_bits,
            l_tables,
            bucket_cap: 16,
        }
    }

    /// Per-query success probability on a point at distance exactly `r`:
    /// `1 − (1 − p₁^K)^L`.
    pub fn success_probability(&self, d: u32, r: f64) -> f64 {
        let p1 = 1.0 - r / f64::from(d);
        let hit = p1.powi(self.k_bits as i32);
        1.0 - (1.0 - hit).powi(self.l_tables as i32)
    }
}

/// Encodes a bucket's contents: up to `cap` `(index, point)` records.
fn encode_bucket(records: &[(u64, &Point)]) -> Word {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for (idx, p) in records {
        bytes.extend_from_slice(&idx.to_le_bytes());
        bytes.extend_from_slice(&p.dim().to_le_bytes());
        for limb in p.limbs() {
            bytes.extend_from_slice(&limb.to_le_bytes());
        }
    }
    Word::from_bytes(bytes)
}

/// Decodes a bucket cell.
fn decode_bucket(word: &Word) -> Vec<(u64, Point)> {
    let bytes = word.bytes();
    let count = u32::from_le_bytes(bytes[0..4].try_into().expect("bucket count")) as usize;
    let mut offset = 4;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let idx = u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("idx"));
        offset += 8;
        let dim = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("dim"));
        offset += 4;
        let n_limbs = dim.div_ceil(64) as usize;
        let mut limbs = Vec::with_capacity(n_limbs);
        for chunk in bytes[offset..offset + n_limbs * 8].chunks_exact(8) {
            limbs.push(u64::from_le_bytes(chunk.try_into().expect("limb")));
        }
        offset += n_limbs * 8;
        out.push((idx, Point::from_limbs(dim, limbs)));
    }
    out
}

/// A built LSH index (the table side) plus its query scheme.
pub struct LshIndex {
    params: LshParams,
    dataset: Dataset,
    /// `masks[j]` = the K coordinates sampled by table `j`.
    masks: Vec<Vec<u32>>,
    /// Bucket store: `(table, key) → capped point list`.
    buckets: HashMap<(u32, u64), Vec<usize>>,
    /// Points dropped because their bucket was full (overflow accounting).
    overflowed: usize,
}

impl LshIndex {
    /// Builds the index: samples `L` coordinate masks and hashes every
    /// database point into its `L` buckets (capped per bucket).
    pub fn build<R: Rng + ?Sized>(dataset: Dataset, params: LshParams, rng: &mut R) -> Self {
        assert!(params.k_bits >= 1 && params.k_bits <= 64);
        assert!(params.k_bits <= dataset.dim());
        assert!(params.l_tables >= 1);
        let mut masks = Vec::with_capacity(params.l_tables as usize);
        for _ in 0..params.l_tables {
            let mut coords: Vec<u32> = (0..dataset.dim()).collect();
            // The uniformly chosen K-subset is the first tuple element.
            let (sample, _) = coords.partial_shuffle(rng, params.k_bits as usize);
            masks.push(sample.to_vec());
        }
        let mut buckets: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
        let mut overflowed = 0usize;
        for (idx, p) in dataset.points().iter().enumerate() {
            for (j, mask) in masks.iter().enumerate() {
                let key = hash_key(p, mask);
                let bucket = buckets.entry((j as u32, key)).or_default();
                if bucket.len() < params.bucket_cap {
                    bucket.push(idx);
                } else {
                    overflowed += 1;
                }
            }
        }
        LshIndex {
            params,
            dataset,
            masks,
            buckets,
            overflowed,
        }
    }

    /// Reassembles an index from its stored parts (`crate::store`).
    /// Bucket lists keep their stored order — candidate order decides
    /// ties, so reordering would change answers. Returns a description of
    /// the violated invariant on inconsistency.
    pub fn from_parts(
        dataset: Dataset,
        params: LshParams,
        masks: Vec<Vec<u32>>,
        bucket_list: Vec<((u32, u64), Vec<usize>)>,
        overflowed: usize,
    ) -> Result<Self, String> {
        if masks.len() != params.l_tables as usize {
            return Err(format!(
                "{} masks for L = {} tables",
                masks.len(),
                params.l_tables
            ));
        }
        if masks
            .iter()
            .any(|m| m.len() != params.k_bits as usize || m.iter().any(|&c| c >= dataset.dim()))
        {
            return Err("mask does not sample K in-range coordinates".into());
        }
        let mut buckets = HashMap::with_capacity(bucket_list.len());
        for ((table, key), members) in bucket_list {
            if table as usize >= masks.len() {
                return Err(format!("bucket table {table} out of range"));
            }
            if members.len() > params.bucket_cap || members.iter().any(|&z| z >= dataset.len()) {
                return Err("bucket exceeds cap or references a missing point".into());
            }
            if buckets.insert((table, key), members).is_some() {
                return Err(format!("duplicate bucket ({table}, {key:#x})"));
            }
        }
        Ok(LshIndex {
            params,
            dataset,
            masks,
            buckets,
            overflowed,
        })
    }

    /// The build parameters.
    pub fn params(&self) -> &LshParams {
        &self.params
    }

    /// The sampled coordinate masks, table order (the store encode path).
    pub fn masks(&self) -> &[Vec<u32>] {
        &self.masks
    }

    /// Every populated bucket as `(&(table, key), &members)`, sorted by
    /// key for a deterministic encoding (member order within a bucket is
    /// the build's insertion order, preserved exactly). Borrowed — the
    /// store encoder walks this without cloning the bucket lists.
    pub fn buckets_by_key(&self) -> Vec<(&(u32, u64), &Vec<usize>)> {
        let mut out: Vec<_> = self.buckets.iter().collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// The indexed database.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Number of `(point, table)` pairs dropped to bucket caps.
    pub fn overflowed(&self) -> usize {
        self.overflowed
    }

    /// Number of non-empty buckets across all tables.
    pub fn populated_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Runs one query: probes all `L` buckets in a single round and returns
    /// the closest candidate found, with the probe ledger.
    pub fn query(&self, x: &Point) -> (Option<(usize, u32)>, ProbeLedger) {
        let (answer, ledger, _) = execute_with(self, x, ExecOptions::default());
        (answer, ledger)
    }

    /// The query as a step machine: one non-adaptive round over every
    /// bucket address, computed from the query alone. Every bucket is
    /// decoded in word order, then the whole round's candidate list is
    /// folded through the batched kernel in that same order.
    pub fn machine<'a>(
        &'a self,
        query: &'a Point,
    ) -> impl RoundMachine<Answer = Option<(usize, u32)>> + 'a {
        OneRound::new(self.bucket_addresses(query), move |words: &[Word]| {
            let candidates: Vec<(u64, Point)> = words.iter().flat_map(decode_bucket).collect();
            best_candidate(query, &candidates, None)
        })
    }

    /// The query's `L` bucket addresses (table ids are this structure's
    /// local table indices `0..L`). Exposed for composing schemes.
    pub fn bucket_addresses(&self, x: &Point) -> Vec<Address> {
        self.masks
            .iter()
            .enumerate()
            .map(|(j, mask)| Address::new(j as u32, hash_key(x, mask).to_le_bytes().to_vec()))
            .collect()
    }
}

/// Decodes a bucket cell word into its `(index, point)` records — exposed
/// for schemes composing LSH structures (the multi-radius ladder).
pub fn decode_bucket_word(word: &Word) -> Vec<(u64, Point)> {
    decode_bucket(word)
}

/// Candidate batches below this length stay on the scalar path — packing
/// a [`PackedBlock`] costs one pass over the points, which only pays off
/// once the kernel gets a few cache lines of contiguous limbs to stream.
const KERNEL_MIN_CANDIDATES: usize = 16;

/// Folds a batch of decoded bucket candidates into the running best
/// `(index, distance)`, keeping the scalar path's exact tie-break: the
/// *first* candidate (in slice order) attaining a strictly smaller
/// distance wins. Large batches are evaluated through the limb-major
/// [`PackedBlock`] kernel; the distances are byte-identical to
/// `Point::distance`, so only the evaluation order of the arithmetic
/// changes, never the answer.
pub(crate) fn best_candidate(
    query: &Point,
    candidates: &[(u64, Point)],
    mut best: Option<(usize, u32)>,
) -> Option<(usize, u32)> {
    if candidates.len() < KERNEL_MIN_CANDIDATES {
        for (idx, point) in candidates {
            let dist = query.distance(point);
            if best.is_none_or(|(_, b)| dist < b) {
                best = Some((*idx as usize, dist));
            }
        }
        return best;
    }
    let refs: Vec<&Point> = candidates.iter().map(|(_, p)| p).collect();
    let block = PackedBlock::from_refs(query.dim(), &refs);
    for (dist, (idx, _)) in block.distances(query).into_iter().zip(candidates) {
        if best.is_none_or(|(_, b)| dist < b) {
            best = Some((*idx as usize, dist));
        }
    }
    best
}

/// Packs the masked coordinates of `p` into a bucket key.
fn hash_key(p: &Point, mask: &[u32]) -> u64 {
    let mut key = 0u64;
    for (bit, &coord) in mask.iter().enumerate() {
        if p.get(coord) {
            key |= 1u64 << bit;
        }
    }
    key
}

impl Table for LshIndex {
    fn read(&self, addr: &Address) -> Word {
        let key = u64::from_le_bytes(addr.key[0..8].try_into().expect("bucket key"));
        let records: Vec<(u64, &Point)> = self
            .buckets
            .get(&(addr.table, key))
            .map(|idxs| {
                idxs.iter()
                    .map(|&i| (i as u64, self.dataset.point(i)))
                    .collect()
            })
            .unwrap_or_default();
        encode_bucket(&records)
    }

    fn space_model(&self) -> SpaceModel {
        // L tables of 2^K cells, word = header + cap · O(d) bits.
        let cells_log2 = f64::from(self.params.l_tables).log2() + f64::from(self.params.k_bits);
        let word = (4 + self.params.bucket_cap as u64
            * (12 + 8 * u64::from(self.dataset.dim().div_ceil(64))))
            * 8;
        SpaceModel::from_cells(cells_log2, word)
    }
}

impl CellProbeScheme for LshIndex {
    type Query = Point;
    /// Closest candidate seen: `(database index, distance)`.
    type Answer = Option<(usize, u32)>;

    fn table(&self) -> &dyn Table {
        self
    }

    fn word_bits(&self) -> u64 {
        self.space_model().word_bits
    }

    fn run(&self, query: &Point, exec: &mut RoundExecutor<'_>) -> Self::Answer {
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
    fn rho_decreases_with_gamma() {
        let r1 = LshParams::rho(1024, 16.0, 1.5);
        let r2 = LshParams::rho(1024, 16.0, 2.0);
        let r4 = LshParams::rho(1024, 16.0, 4.0);
        assert!(r1 > r2 && r2 > r4, "ρ must fall as γ grows: {r1} {r2} {r4}");
        // ρ ≈ 1/γ for small r/d.
        assert!((r2 - 0.5).abs() < 0.05, "ρ(γ=2) = {r2}");
    }

    #[test]
    fn success_probability_increases_with_l() {
        let base = LshParams {
            k_bits: 12,
            l_tables: 4,
            bucket_cap: 8,
        };
        let more = LshParams {
            l_tables: 32,
            ..base
        };
        let p_base = base.success_probability(512, 8.0);
        let p_more = more.success_probability(512, 8.0);
        assert!(p_more > p_base);
        assert!(p_more <= 1.0 && p_base >= 0.0);
    }

    #[test]
    fn planted_needle_is_recovered() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = gen::planted(512, 512, 8, &mut rng);
        // Boost L so the fixed-seed test sits far from the success boundary.
        let params = LshParams::for_radius(512, 512, 8.0, 2.0, 8.0);
        assert!(params.success_probability(512, 8.0) > 0.99);
        let index = LshIndex::build(inst.dataset, params, &mut rng);
        let (answer, ledger) = index.query(&inst.query);
        let (idx, dist) = answer.expect("needle must be found");
        assert_eq!(idx, inst.planted_index);
        assert_eq!(dist, 8);
        // Non-adaptive: exactly one round of exactly L probes.
        assert_eq!(ledger.rounds(), 1);
        assert_eq!(ledger.total_probes(), params.l_tables as usize);
    }

    #[test]
    fn far_points_rarely_collide() {
        // With textbook K, the expected far collisions per table are O(1):
        // probing with a random (far-from-everything) query returns few
        // candidates.
        let mut rng = StdRng::seed_from_u64(2);
        let ds = gen::uniform(1024, 512, &mut rng);
        let params = LshParams::for_radius(1024, 512, 8.0, 2.0, 1.0);
        let index = LshIndex::build(ds, params, &mut rng);
        let mut total_candidates = 0usize;
        let trials = 10;
        for _ in 0..trials {
            let q = Point::random(512, &mut rng);
            let (_, ledger) = index.query(&q);
            // Candidates are visible through word_bits_read: each record is
            // ≈ 12 + 64·8 bytes. Bound the average loosely.
            let record_bits = (12 + 8 * 8) * 8u64;
            total_candidates += (ledger.word_bits_read / record_bits) as usize;
        }
        let avg = total_candidates as f64 / trials as f64;
        assert!(
            avg <= 4.0 * f64::from(params.l_tables),
            "avg candidates {avg} vs L = {}",
            params.l_tables
        );
    }

    #[test]
    fn bucket_codec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let points: Vec<Point> = (0..5).map(|_| Point::random(130, &mut rng)).collect();
        let records: Vec<(u64, &Point)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        let word = encode_bucket(&records);
        let back = decode_bucket(&word);
        assert_eq!(back.len(), 5);
        for ((idx, point), orig) in back.iter().zip(points.iter()) {
            assert_eq!(
                *idx as usize,
                back.iter().position(|(i, _)| i == idx).unwrap()
            );
            assert_eq!(point, orig);
        }
        assert!(decode_bucket(&encode_bucket(&[])).is_empty());
    }

    #[test]
    fn bucket_cap_limits_and_counts_overflow() {
        let mut rng = StdRng::seed_from_u64(4);
        // All points identical → one bucket per table → cap overflow.
        let p = Point::random(64, &mut rng);
        let ds = Dataset::new(vec![p.clone(); 10]);
        let params = LshParams {
            k_bits: 8,
            l_tables: 2,
            bucket_cap: 3,
        };
        let index = LshIndex::build(ds, params, &mut rng);
        assert_eq!(index.overflowed(), 2 * (10 - 3));
        let (answer, _) = index.query(&p);
        assert_eq!(answer.expect("bucket hit").1, 0);
    }

    #[test]
    fn hash_key_uses_only_masked_coordinates() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Point::random(100, &mut rng);
        let mask = vec![3u32, 50, 99];
        let key = hash_key(&p, &mask);
        // Flipping an unmasked coordinate leaves the key unchanged.
        let mut q = p.clone();
        q.flip(42);
        assert_eq!(hash_key(&q, &mask), key);
        // Flipping a masked coordinate changes it.
        let mut r = p.clone();
        r.flip(50);
        assert_ne!(hash_key(&r, &mask), key);
    }

    #[test]
    fn space_model_reports_l_times_2k_cells() {
        let mut rng = StdRng::seed_from_u64(6);
        let ds = gen::uniform(64, 128, &mut rng);
        let params = LshParams {
            k_bits: 10,
            l_tables: 8,
            bucket_cap: 4,
        };
        let index = LshIndex::build(ds, params, &mut rng);
        let model = index.space_model();
        assert!((model.cells_log2 - (3.0 + 10.0)).abs() < 1e-9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The kernelized candidate fold equals the scalar first-wins
        /// strict-min fold for every batch size — below, at, and above
        /// [`KERNEL_MIN_CANDIDATES`] — every dimension, and every running
        /// best carried in from a previous bucket group.
        #[test]
        fn best_candidate_matches_scalar_fold(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..48,
            d in 1u32..300,
            carry_in in (proptest::prelude::any::<bool>(), 0usize..1000, 0u32..300),
        ) {
            let carry = carry_in.0.then_some((carry_in.1, carry_in.2));
            let mut rng = StdRng::seed_from_u64(seed);
            let query = Point::random(d, &mut rng);
            let candidates: Vec<(u64, Point)> = (0..n)
                .map(|i| ((i * 3 + 5) as u64, Point::random(d, &mut rng)))
                .collect();
            let mut expect = carry;
            for (idx, point) in &candidates {
                let dist = query.distance(point);
                if expect.is_none_or(|(_, b)| dist < b) {
                    expect = Some((*idx as usize, dist));
                }
            }
            proptest::prop_assert_eq!(best_candidate(&query, &candidates, carry), expect);
        }
    }
}
