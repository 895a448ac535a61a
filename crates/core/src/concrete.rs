//! The concrete (real-data) instance backend: [`AnnIndex`].
//!
//! This realizes the paper's data structure over an actual database:
//!
//! * the main tables `T_i` (§3.1 "Table construction") — cell `T_i[j]`
//!   holds a database point `z` with `dist(j, M_i z) ≤ threshold_i`, or
//!   `EMPTY`;
//! * the auxiliary tables `T̃_{u,·}` (§3.2) answering grouped
//!   `|D_{u,ρ(r)}| > n^{-1/s}·|C_u|` comparisons in one word;
//! * the two degenerate-case structures (§3.1): exact membership `x ∈ B`
//!   and membership in the 1-neighborhood `N1(B)`, each answerable with one
//!   probe. Both read one row-number index over the database
//!   (`membership::RowIndex`): `next_pow2(2n)` slots of 8 bytes, keyed
//!   by a hash of the point's limbs, every hit checked against the
//!   dataset row. No point is copied: the `N1` cell visits the key's `d`
//!   neighbours by rehashing one limb each.
//!
//! Per substitution S1 (`DESIGN.md`): the paper materializes `n^{c₁}` cells
//! per table; here every cell's content is computed on demand from the
//! stored database sketches, as the *same deterministic function of
//! (database, randomness, address)* that the paper's preprocessing would
//! tabulate. A probe reveals exactly the cell's content and nothing else,
//! so probe/round accounting and correctness are unaffected; only
//! preprocessing cost moves from table-fill time to probe time.
//!
//! [`AnnIndex::build`] samples the `M_i` and computes the `M_i` database
//! sketches, which the main tables read, and not the `N_j` or their
//! sketches, which only Algorithm 2 reads. Those follow once, at their
//! first need: an Algorithm 2 address or auxiliary-cell read, `ready()`
//! on an Algorithm 2 shard, its registration with an engine, or
//! [`AnnIndex::db_sketches`]. Encoding the index samples the `N_j` (they
//! stay: 0.29 MiB at n = 32768, d = 512) and writes the sketch halves
//! it holds: an index serving Algorithm 1 alone stores no `N` sketch.
//! A decoded index holds what was stored, and sketches a missing `N`
//! half at its first need, from the stored `N_j`, as a build would.

use std::sync::Arc;

use anns_cellprobe::{execute_with, Address, ExecOptions, ProbeLedger, SpaceModel, Table, Word};
use anns_hamming::{Dataset, Point};
use anns_sketch::{DbSketches, Sketch, SketchFamily, SketchParams};

use crate::alg1::Alg1Scheme;
use crate::alg2::{Alg2Config, Alg2Scheme};
use crate::instance::{table_ids, AnnsInstance, AuxGroupSpec};
use crate::lambda::{lambda_scale, LambdaAnswer, LambdaScheme};
use crate::membership::RowIndex;
use crate::outcome::{encode_aux_cell, encode_t_cell, QueryOutcome};

/// Deterministic erasure injection on the main tables: a non-empty `T_i`
/// cell reads `EMPTY` with the given probability (per cell, fixed once —
/// the table stays a function of database + randomness). Models the
/// lower-violation direction of a Lemma 8 failure (`C_i` losing members)
/// for robustness experiments; degenerate-case and auxiliary cells are
/// untouched.
#[derive(Clone, Copy, Debug)]
pub struct ErasureModel {
    /// Per-cell erasure probability.
    pub probability: f64,
    /// Seed of the deterministic per-cell coin.
    pub seed: u64,
}

/// Build-time options.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Worker threads for sketching the database.
    pub threads: usize,
    /// Optional fault injection on the main tables.
    pub erasures: Option<ErasureModel>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            threads: 4,
            erasures: None,
        }
    }
}

/// Shared immutable state between the index (query side) and its table
/// oracle (database side). In the public-coin model both sides legitimately
/// hold the sketch family; only the oracle holds the database.
struct Inner {
    dataset: Dataset,
    family: SketchFamily,
    /// The database sketches: the `N` half is sketched at its first
    /// need ([`Inner::db_n`]) on a built index, and on a decoded one
    /// whose bundle stored none.
    db: DbSketches,
    /// Worker threads for sketching that `N` half.
    threads: usize,
    /// Row numbers by point: exact membership (degenerate case 1) and the
    /// `N1(B)` oracle (degenerate case 2: d single-limb rehashes per probe).
    rows: RowIndex,
    /// Optional deterministic fault injection on `T_i` cells.
    erasures: Option<ErasureModel>,
}

impl Inner {
    /// The database sketches with their `N` half, sketched now if this is
    /// its first need.
    fn db_n(&self) -> &DbSketches {
        self.db.ensure_n(&self.family, &self.dataset, self.threads)
    }
}

/// The lazy table oracle over the index's shared state.
pub struct ConcreteTables {
    inner: Arc<Inner>,
}

/// Encodes a point as an address key (degenerate-case probes).
fn point_key(p: &Point) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(4 + p.limbs().len() * 8);
    bytes.extend_from_slice(&p.dim().to_le_bytes());
    for limb in p.limbs() {
        bytes.extend_from_slice(&limb.to_le_bytes());
    }
    bytes
}

/// The limb bytes of an address key that encodes a point of dimension
/// `dim`, or `None` for a key of another dimension (or too short to hold
/// its limbs), which no database point matches.
fn point_key_limbs(bytes: &[u8], dim: u32) -> Option<&[u8]> {
    let key_dim = u32::from_le_bytes(bytes.get(0..4)?.try_into().expect("point dim"));
    if key_dim != dim {
        return None;
    }
    bytes.get(4..4 + dim.div_ceil(64) as usize * 8)
}

/// Decodes a sketch from raw limb bytes given its bit width.
fn sketch_from_bytes(bytes: &[u8], bits: u32) -> Sketch {
    let n_limbs = bits.div_ceil(64) as usize;
    let mut limbs = Vec::with_capacity(n_limbs);
    for chunk in bytes[..n_limbs * 8].chunks_exact(8) {
        limbs.push(u64::from_le_bytes(chunk.try_into().expect("sketch limb")));
    }
    Sketch::from_point(Point::from_limbs(bits, limbs))
}

/// Auxiliary-cell address payload: the paper's `⟨l, u, w₀, w₁ … w_{w₀}⟩`
/// plus the `M_u x` sketch that names the table `T̃_{u, M_u x}` (folded into
/// the key — same information, same polynomial address space) and the
/// explicit covered indices (see `AuxGroupSpec`).
struct AuxKey {
    m_sketch: Sketch,
    indices: Vec<u32>,
    n_sketches: Vec<Sketch>,
}

fn encode_aux_key(
    lo: u32,
    hi: u32,
    m_sketch: &Sketch,
    indices: &[u32],
    n_sketches: &[Sketch],
) -> Vec<u8> {
    debug_assert_eq!(indices.len(), n_sketches.len());
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&lo.to_le_bytes());
    bytes.extend_from_slice(&hi.to_le_bytes());
    bytes.extend_from_slice(&(indices.len() as u32).to_le_bytes());
    for &i in indices {
        bytes.extend_from_slice(&i.to_le_bytes());
    }
    bytes.extend_from_slice(&m_sketch.address_bytes());
    for sk in n_sketches {
        bytes.extend_from_slice(&sk.address_bytes());
    }
    bytes
}

fn decode_aux_key(bytes: &[u8], m_bits: u32, n_bits: u32) -> AuxKey {
    let count = u32::from_le_bytes(bytes[8..12].try_into().expect("aux count")) as usize;
    let mut offset = 12;
    let mut indices = Vec::with_capacity(count);
    for _ in 0..count {
        indices.push(u32::from_le_bytes(
            bytes[offset..offset + 4].try_into().expect("aux index"),
        ));
        offset += 4;
    }
    let m_len = m_bits.div_ceil(64) as usize * 8;
    let m_sketch = sketch_from_bytes(&bytes[offset..offset + m_len], m_bits);
    offset += m_len;
    let n_len = n_bits.div_ceil(64) as usize * 8;
    let mut n_sketches = Vec::with_capacity(count);
    for _ in 0..count {
        n_sketches.push(sketch_from_bytes(&bytes[offset..offset + n_len], n_bits));
        offset += n_len;
    }
    AuxKey {
        m_sketch,
        indices,
        n_sketches,
    }
}

impl Table for ConcreteTables {
    fn read(&self, addr: &Address) -> Word {
        let inner = &*self.inner;
        match addr.table {
            table_ids::DEGEN_EXACT | table_ids::DEGEN_N1 => {
                let ds = &inner.dataset;
                let found = point_key_limbs(&addr.key, ds.dim()).and_then(|key| {
                    if addr.table == table_ids::DEGEN_EXACT {
                        inner.rows.find(ds, key)
                    } else {
                        inner.rows.find_near_one(ds, key)
                    }
                });
                encode_t_cell(found.map(|idx| (idx as u64, ds.point(idx))))
            }
            t if t >= table_ids::AUX_BASE => {
                let u = t - table_ids::AUX_BASE;
                let key = decode_aux_key(&addr.key, inner.family.m_rows(), inner.family.n_rows());
                let db = inner.db_n();
                let c_members = db.c_members(&inner.family, u, &key.m_sketch);
                let threshold = c_members.len() as f64
                    * (inner.dataset.len() as f64).powf(-1.0 / inner.family.params().s);
                for (pos, (&scale, n_sketch)) in
                    key.indices.iter().zip(key.n_sketches.iter()).enumerate()
                {
                    let n_row = db.n_scale(scale);
                    let d_count = c_members
                        .iter()
                        .filter(|&&z| inner.family.n_passes(scale, n_sketch, n_row(z)))
                        .count();
                    if d_count as f64 > threshold {
                        return encode_aux_cell(Some(pos as u32 + 1));
                    }
                }
                encode_aux_cell(None)
            }
            t if t >= table_ids::T_BASE => {
                let i = t - table_ids::T_BASE;
                if let Some(model) = &inner.erasures {
                    let coin = crate::synthetic::deterministic_cell_unit(
                        model.seed, addr.table, &addr.key,
                    );
                    if coin < model.probability {
                        return encode_t_cell(None);
                    }
                }
                let sketch = sketch_from_bytes(&addr.key, inner.family.m_rows());
                match inner.db.c_first(&inner.family, i, &sketch) {
                    Some(z) => encode_t_cell(Some((z as u64, inner.dataset.point(z)))),
                    None => encode_t_cell(None),
                }
            }
            other => panic!("unknown table id {other}"),
        }
    }

    fn space_model(&self) -> SpaceModel {
        let inner = &*self.inner;
        let top = inner.family.top() as f64;
        let n = inner.dataset.len() as f64;
        let d = f64::from(inner.dataset.dim());
        let w = self.inner_word_bits();
        // Main tables: (top+1) tables of 2^{c₁ log n} = 2^{m_rows} cells.
        let main = SpaceModel::from_cells((top + 1.0).log2() + f64::from(inner.family.m_rows()), w);
        // Auxiliary tables: (top+1)·2^{c₁ log n} tables, each with
        // (log_α d)^s · 2^{c₂ log n} cells (paper §3.2); address entropy =
        // m_rows + s·(n_rows + log top) + O(log top).
        let s_int = inner.family.params().s.floor().max(1.0);
        let aux = SpaceModel::from_cells(
            (top + 1.0).log2()
                + f64::from(inner.family.m_rows())
                + s_int * (f64::from(inner.family.n_rows()) + (top + 2.0).log2())
                + 2.0 * (top + 2.0).log2(),
            w,
        );
        // Degenerate structures, as the paper counts them: perfect hashing
        // of n points (O(n²) cells) and of the (d+1)·n points of N1(B)
        // (quadratic again). The index itself answers both from one table
        // of next_pow2(2n) row numbers checked against the dataset (module
        // docs).
        let degen = SpaceModel::from_cells(2.0 * n.log2(), w)
            .combine(SpaceModel::from_cells(2.0 * ((d + 1.0) * n).log2(), w));
        main.combine(aux).combine(degen)
    }
}

impl ConcreteTables {
    fn inner_word_bits(&self) -> u64 {
        word_bits_for_dim(self.inner.dataset.dim())
    }
}

/// Declared word size for dimension `d`: a T-cell stores a tag, an index,
/// and the point bits — `O(d)` as the paper requires.
fn word_bits_for_dim(d: u32) -> u64 {
    8 * (13 + u64::from(d.div_ceil(64)) * 8)
}

/// The bytes an index holds, by owner, computed from lengths (see
/// [`AnnIndex::memory`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexMemory {
    /// The database points, and their packed kernel view once built.
    pub dataset: usize,
    /// The sketch family: matrices and thresholds. On a built index the
    /// `N_j` count only once sampled (module docs).
    pub family: usize,
    /// Database-sketch slabs on the heap: built, decoded by copy, or
    /// copied from a mapped slab whose tail check failed. On a built
    /// index the `N` slabs count only once sketched (module docs), so an
    /// index serving Algorithm 1 alone holds the `M` slabs only.
    pub slabs_owned: usize,
    /// Database-sketch slabs read in place from a mapped bundle:
    /// file-backed page cache, not heap. Not part of [`IndexMemory::owned`].
    pub slabs_borrowed: usize,
    /// The degenerate-case membership index: row numbers and hash tags.
    pub membership: usize,
}

impl IndexMemory {
    /// Heap bytes the index owns: every count but the borrowed slabs.
    pub fn owned(&self) -> usize {
        self.dataset + self.family + self.slabs_owned + self.membership
    }

    /// Every count with its name, in field order.
    pub fn named(&self) -> [(&'static str, usize); 5] {
        [
            ("dataset", self.dataset),
            ("family", self.family),
            ("slabs_owned", self.slabs_owned),
            ("slabs_borrowed", self.slabs_borrowed),
            ("membership", self.membership),
        ]
    }
}

/// The public index: build once, query with any of the paper's schemes.
pub struct AnnIndex {
    inner: Arc<Inner>,
    tables: ConcreteTables,
}

impl AnnIndex {
    /// Preprocesses a database: samples the sketch family (public coins)
    /// and sketches every point under the `M_i`. The `N_j` sketches
    /// follow at their first need (module docs).
    ///
    /// # Panics
    /// Panics if the database has fewer than 2 points or dimensions, or
    /// `params` has `gamma ≤ 1` or `s < 1`: the family of Definition 7
    /// needs them ([`SketchFamily::generate`]).
    pub fn build(dataset: Dataset, params: SketchParams, opts: BuildOptions) -> Self {
        let family = SketchFamily::generate(dataset.dim(), dataset.len(), &params);
        let db = DbSketches::build_m(&family, &dataset, opts.threads);
        Self::assemble(dataset, family, db, opts)
    }

    fn assemble(
        dataset: Dataset,
        family: SketchFamily,
        db: DbSketches,
        opts: BuildOptions,
    ) -> Self {
        let rows = RowIndex::build(&dataset);
        let inner = Arc::new(Inner {
            dataset,
            family,
            db,
            threads: opts.threads,
            rows,
            erasures: opts.erasures,
        });
        AnnIndex {
            tables: ConcreteTables {
                inner: Arc::clone(&inner),
            },
            inner,
        }
    }

    /// Reassembles an index from its stored parts — the store decode path
    /// (`anns_core::store`), which is the index's one on-disk form. It
    /// carries the erasure model too, so a reloaded fault-injection
    /// instance probes identically to the freshly built one. Only the
    /// membership index is rebuilt; the sketches are taken as stored, so
    /// they must match the family's shape ([`DbSketches::check_family`])
    /// and cover every database point.
    pub fn from_parts(
        dataset: Dataset,
        family: SketchFamily,
        db: DbSketches,
        erasures: Option<ErasureModel>,
    ) -> Result<Self, String> {
        if dataset.dim() != family.dim() {
            return Err(format!(
                "dataset dimension {} != family dimension {}",
                dataset.dim(),
                family.dim()
            ));
        }
        if db.len() != dataset.len() {
            return Err(format!(
                "db sketches cover {} points, dataset has {}",
                db.len(),
                dataset.len()
            ));
        }
        db.check_family(&family)?;
        let opts = BuildOptions {
            erasures,
            ..BuildOptions::default()
        };
        Ok(Self::assemble(dataset, family, db, opts))
    }

    /// The database-side sketches, both halves: sketches the `N` half
    /// first, and keeps it, if this is its first need.
    pub fn db_sketches(&self) -> &DbSketches {
        self.inner.db_n()
    }

    /// The database-side sketches as held, the `N` half only once
    /// sketched (the store encode path, which writes what is held).
    pub(crate) fn held_db_sketches(&self) -> &DbSketches {
        &self.inner.db
    }

    /// The fault-injection model the index was built with, if any.
    pub fn erasure_model(&self) -> Option<ErasureModel> {
        self.inner.erasures
    }

    /// The indexed database.
    pub fn dataset(&self) -> &Dataset {
        &self.inner.dataset
    }

    /// The sketch family (public randomness).
    pub fn family(&self) -> &SketchFamily {
        &self.inner.family
    }

    /// The bytes the index holds, by owner. Computed from lengths; reads
    /// no sketch slab, so it pages nothing in on a mapped index.
    pub fn memory(&self) -> IndexMemory {
        let inner = &*self.inner;
        let (slabs_owned, slabs_borrowed) = inner.db.slab_bytes();
        IndexMemory {
            dataset: inner.dataset.heap_bytes(),
            family: inner.family.heap_bytes(),
            slabs_owned,
            slabs_borrowed,
            membership: inner.rows.heap_bytes(),
        }
    }

    /// Runs Algorithm 1 with `k` rounds.
    pub fn query(&self, x: &Point, k: u32) -> (QueryOutcome, ProbeLedger) {
        self.query_with(x, k, ExecOptions::default())
    }

    /// Runs Algorithm 1 with explicit executor options (e.g. parallel
    /// in-round probes).
    pub fn query_with(&self, x: &Point, k: u32, opts: ExecOptions) -> (QueryOutcome, ProbeLedger) {
        let scheme = Alg1Scheme {
            instance: self,
            k,
            tau_override: None,
        };
        let (outcome, ledger, _) = execute_with(&scheme, x, opts);
        (outcome, ledger)
    }

    /// Runs Algorithm 2.
    pub fn query_alg2(&self, x: &Point, config: Alg2Config) -> (QueryOutcome, ProbeLedger) {
        let scheme = Alg2Scheme {
            instance: self,
            config,
        };
        let (outcome, ledger, _) = execute_with(&scheme, x, ExecOptions::default());
        (outcome, ledger)
    }

    /// Runs the 1-probe λ-ANNS scheme (Theorem 11).
    pub fn query_lambda(&self, x: &Point, lambda: f64) -> (LambdaAnswer, ProbeLedger) {
        let scale = lambda_scale(lambda, self.inner.family.alpha(), self.inner.family.top());
        let scheme = LambdaScheme {
            instance: self,
            scale,
        };
        let (answer, ledger, _) = execute_with(&scheme, x, ExecOptions::default());
        (answer, ledger)
    }

    /// Resolves an outcome to the returned database point, if any.
    pub fn outcome_point<'a>(&'a self, outcome: &'a QueryOutcome) -> Option<&'a Point> {
        outcome
            .index()
            .map(|idx| self.inner.dataset.point(idx as usize))
    }

    /// Checks the paper's guarantee: is the returned point a γ-approximate
    /// nearest neighbor of `x`? Returns `false` for failed queries.
    pub fn verify_gamma(&self, x: &Point, outcome: &QueryOutcome) -> bool {
        match self.outcome_point(outcome) {
            Some(z) => {
                self.inner
                    .dataset
                    .is_gamma_approximate_nn(x, z, self.inner.family.params().gamma)
            }
            None => false,
        }
    }
}

impl AnnsInstance for AnnIndex {
    type Query = Point;

    fn top(&self) -> u32 {
        self.inner.family.top()
    }

    fn table(&self) -> &dyn Table {
        &self.tables
    }

    fn word_bits(&self) -> u64 {
        word_bits_for_dim(self.inner.dataset.dim())
    }

    fn s(&self) -> f64 {
        self.inner.family.params().s
    }

    fn degen_addresses(&self, query: &Point) -> Option<[Address; 2]> {
        let key = point_key(query);
        Some([
            Address::new(table_ids::DEGEN_EXACT, key.clone()),
            Address::new(table_ids::DEGEN_N1, key),
        ])
    }

    fn t_address(&self, query: &Point, i: u32) -> Address {
        Address::new(
            table_ids::T_BASE + i,
            self.inner.family.sketch_m(i, query).address_bytes(),
        )
    }

    fn aux_address(&self, query: &Point, group: &AuxGroupSpec) -> Address {
        let m_sketch = self.inner.family.sketch_m(group.u_scale, query);
        let n_sketches: Vec<Sketch> = group
            .indices
            .iter()
            .map(|&j| self.inner.family.sketch_n(j, query))
            .collect();
        Address::new(
            table_ids::AUX_BASE + group.u_scale,
            encode_aux_key(group.lo, group.hi, &m_sketch, &group.indices, &n_sketches),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_hamming::gen;
    use anns_store::Codec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const GAMMA: f64 = 2.0;

    fn planted_index(seed: u64, n: usize, d: u32, dist: u32) -> (AnnIndex, Point, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = gen::planted(n, d, dist, &mut rng);
        let index = AnnIndex::build(
            inst.dataset,
            SketchParams::practical(GAMMA, seed ^ 0x5555),
            BuildOptions {
                threads: 2,
                ..BuildOptions::default()
            },
        );
        (index, inst.query, inst.planted_index)
    }

    #[test]
    fn planted_needle_is_found_for_various_k() {
        let (index, query, needle) = planted_index(1, 128, 512, 8);
        for k in 1..=6u32 {
            let (outcome, ledger) = index.query(&query, k);
            assert_eq!(
                outcome.index(),
                Some(needle as u64),
                "k={k}: outcome {outcome:?}"
            );
            assert!(ledger.rounds() <= k as usize, "k={k}");
            assert!(index.verify_gamma(&query, &outcome), "k={k}");
        }
    }

    #[test]
    fn degenerate_exact_hit_resolves_in_one_round() {
        let (index, _, _) = planted_index(2, 64, 256, 6);
        let x = index.dataset().point(17).clone();
        let (outcome, ledger) = index.query(&x, 4);
        match outcome.kind {
            crate::outcome::OutcomeKind::Exact { index: idx } => {
                assert_eq!(index.dataset().point(idx as usize), &x);
            }
            ref other => panic!("expected Exact, got {other:?}"),
        }
        assert_eq!(ledger.rounds(), 1, "degenerate hit short-circuits");
    }

    #[test]
    fn degenerate_near_one_hit() {
        let (index, _, _) = planted_index(3, 64, 256, 6);
        let x = index.dataset().point(5).flipped(100);
        let (outcome, _) = index.query(&x, 4);
        match outcome.kind {
            crate::outcome::OutcomeKind::Exact { index: idx }
            | crate::outcome::OutcomeKind::NearOne { index: idx, .. } => {
                assert!(x.distance(index.dataset().point(idx as usize)) <= 1);
            }
            ref other => panic!("expected degenerate hit, got {other:?}"),
        }
    }

    #[test]
    fn alg2_on_concrete_instance() {
        let (index, query, needle) = planted_index(4, 128, 512, 8);
        let (outcome, _) = index.query_alg2(&query, Alg2Config::with_k(8));
        assert_eq!(outcome.index(), Some(needle as u64));
        assert!(index.verify_gamma(&query, &outcome));
    }

    #[test]
    fn lambda_yes_and_no() {
        let (index, query, needle) = planted_index(5, 128, 512, 8);
        // YES at λ = 8 (needle within 8): must return a point within γλ=16.
        let (answer, ledger) = index.query_lambda(&query, 8.0);
        assert_eq!(ledger.total_probes(), 1);
        match answer {
            LambdaAnswer::Neighbor { index: idx, point } => {
                let z = index.dataset().point(idx as usize);
                assert!(query.distance(z) as f64 <= GAMMA * 8.0);
                assert_eq!(point.as_ref(), Some(z));
                let _ = needle;
            }
            LambdaAnswer::No => panic!("YES instance answered NO"),
        }
        // NO at λ = 2 (nothing within γλ = 4): must answer NO.
        let (answer, ledger) = index.query_lambda(&query, 2.0);
        assert_eq!(ledger.total_probes(), 1);
        assert_eq!(answer, LambdaAnswer::No);
    }

    #[test]
    fn success_rate_on_uniform_data() {
        let mut rng = StdRng::seed_from_u64(6);
        let ds = gen::uniform(256, 256, &mut rng);
        let index = AnnIndex::build(
            ds,
            SketchParams::practical(GAMMA, 99),
            BuildOptions {
                threads: 2,
                ..BuildOptions::default()
            },
        );
        let mut ok = 0;
        let trials = 20;
        for _ in 0..trials {
            let q = Point::random(256, &mut rng);
            let (outcome, _) = index.query(&q, 3);
            if index.verify_gamma(&q, &outcome) {
                ok += 1;
            }
        }
        assert!(
            ok * 4 >= trials * 3,
            "γ-approximation held for only {ok}/{trials} queries"
        );
    }

    #[test]
    fn probe_counts_match_alg1_bound_on_concrete() {
        let (index, query, _) = planted_index(7, 256, 512, 10);
        let top = index.top();
        for k in 1..=5u32 {
            let tau = crate::alg1::choose_tau_alg1(top, k);
            let (_, ledger) = index.query(&query, k);
            // +2 degenerate probes in round 1.
            assert!(
                ledger.total_probes() <= (k * (tau - 1) + 2) as usize,
                "k={k}: {} probes, τ={tau}",
                ledger.total_probes()
            );
        }
    }

    #[test]
    fn aux_key_codec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let ds = gen::uniform(32, 128, &mut rng);
        let params = SketchParams::practical(GAMMA, 3);
        let family = SketchFamily::generate(128, 32, &params);
        let x = Point::random(128, &mut rng);
        let m_sketch = family.sketch_m(5, &x);
        let indices = vec![1u32, 3, 4];
        let n_sketches: Vec<Sketch> = indices.iter().map(|&j| family.sketch_n(j, &x)).collect();
        let bytes = encode_aux_key(1, 4, &m_sketch, &indices, &n_sketches);
        let key = decode_aux_key(&bytes, family.m_rows(), family.n_rows());
        assert_eq!(key.indices, indices);
        assert_eq!(key.m_sketch, m_sketch);
        assert_eq!(key.n_sketches, n_sketches);
        let _ = ds;
    }

    #[test]
    fn point_key_codec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        for d in [1u32, 64, 65, 300] {
            let p = Point::random(d, &mut rng);
            let key = point_key(&p);
            let limbs: Vec<u64> = point_key_limbs(&key, d)
                .expect("same dimension")
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(Point::from_limbs(d, limbs), p);
            assert_eq!(point_key_limbs(&key, d + 1), None);
            assert_eq!(point_key_limbs(&key[..key.len() - 1], d), None);
        }
        assert_eq!(point_key_limbs(&[1, 0], 1), None);
    }

    #[test]
    fn space_model_is_polynomial() {
        let (index, _, _) = planted_index(10, 128, 256, 8);
        let model = index.table().space_model();
        // Polynomial in n with the practical constants: log₂ cells ≈
        // m_rows + … = c₁·log₂ n + lower order ⇒ exponent ≈ c₁ = 24.
        assert!(model.is_poly_in(128, 64.0));
        assert!(!model.is_poly_in(128, 1.0));
        assert_eq!(model.word_bits, word_bits_for_dim(256));
    }

    #[test]
    fn memory_counts_name_every_owned_byte() {
        let (index, query, _) = planted_index(11, 100, 130, 6);
        let mem = index.memory();
        let named: usize = mem.named().iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(mem.owned(), named - mem.slabs_borrowed);
        // Each count, re-derived from the shapes it is made of.
        let (n, limbs) = (100, 3 * 8);
        let point = std::mem::size_of::<Point>();
        assert_eq!(mem.dataset, n * (point + limbs));
        let family = index.family();
        let scales = family.top() as usize + 1;
        let matrix = std::mem::size_of::<anns_sketch::SketchMatrix>();
        let matrices = |rows: u32| scales * (rows as usize * (point + limbs) + matrix);
        let thresholds = 2 * scales * 4;
        // A build samples the `M_i` and sketches the `M` slabs; the `N_j`
        // and the `N` slabs count once a first need has made them.
        assert_eq!(mem.family, matrices(family.m_rows()) + thresholds);
        let m_width = family.m_rows().div_ceil(64) as usize;
        assert_eq!(mem.slabs_owned, scales * n * m_width * 8);
        index.db_sketches();
        let forced = index.memory();
        assert_eq!(
            forced.family,
            matrices(family.m_rows()) + matrices(family.n_rows()) + thresholds
        );
        let widths = m_width + family.n_rows().div_ceil(64) as usize;
        assert_eq!(forced.slabs_owned, scales * n * widths * 8);
        assert_eq!(mem.slabs_borrowed, 0, "a built index borrows nothing");
        assert_eq!(mem.membership, 256 * 8, "next_pow2(2n) slots of 8 bytes");
        // The packed kernel view counts once a query has built it.
        index.dataset().exact_nn(&query);
        assert_eq!(index.memory().dataset, mem.dataset + n * limbs);
    }

    #[test]
    fn word_size_is_linear_in_d() {
        assert!(word_bits_for_dim(1024) <= 8 * (13 + 16 * 8));
        assert!(word_bits_for_dim(64) < word_bits_for_dim(1024));
    }

    #[test]
    fn aux_cell_content_matches_reference_computation() {
        // Read an auxiliary cell through the oracle and re-derive its
        // answer from first principles: C_u from the M-sketches, each
        // |D_{u,idx}| from the N-sketches, compared against n^{-1/s}|C_u|.
        let mut rng = StdRng::seed_from_u64(30);
        let ds = gen::clustered(8, 16, 256, 0.04, &mut rng);
        let index = AnnIndex::build(
            ds,
            SketchParams::practical(GAMMA, 6),
            BuildOptions::default(),
        );
        let x = gen::corrupt(index.dataset().point(3), 0.02, &mut rng);
        let u = index.top() - 2;
        let indices: Vec<u32> = vec![u / 4, u / 2, 3 * u / 4];
        let group = AuxGroupSpec {
            u_scale: u,
            lo: indices[0],
            hi: *indices.last().unwrap(),
            indices: indices.clone(),
        };
        let word = index.table().read(&index.aux_address(&x, &group));
        let got = crate::outcome::decode_aux_cell(&word);
        // Reference: recompute via the sketch-family oracles.
        let family = index.family();
        let db = anns_sketch::DbSketches::build(family, index.dataset(), 1);
        let m_sketch = family.sketch_m(u, &x);
        let c_count = db.c_count(family, u, &m_sketch);
        let threshold =
            c_count as f64 * (index.dataset().len() as f64).powf(-1.0 / family.params().s);
        let expect = indices
            .iter()
            .position(|&j| {
                let n_sketch = family.sketch_n(j, &x);
                db.d_count(family, u, j, &m_sketch, &n_sketch) as f64 > threshold
            })
            .map(|p| p as u32 + 1);
        assert_eq!(got, expect);
    }

    #[test]
    fn codec_roundtrip_preserves_query_behaviour() {
        let (index, query, needle) = planted_index(20, 64, 128, 6);
        let restored = AnnIndex::from_bytes(&index.to_bytes()).expect("decode");
        for k in 1..=3u32 {
            let (o1, l1) = index.query(&query, k);
            let (o2, l2) = restored.query(&query, k);
            assert_eq!(o1, o2, "k={k}");
            assert_eq!(l1, l2, "k={k}");
            assert_eq!(o1.index(), Some(needle as u64));
        }
    }

    #[test]
    fn zero_erasures_change_nothing() {
        let mut rng = StdRng::seed_from_u64(21);
        let planted = gen::planted(64, 128, 6, &mut rng);
        let clean = AnnIndex::build(
            planted.dataset.clone(),
            SketchParams::practical(GAMMA, 3),
            BuildOptions::default(),
        );
        let faulty = AnnIndex::build(
            planted.dataset,
            SketchParams::practical(GAMMA, 3),
            BuildOptions {
                erasures: Some(ErasureModel {
                    probability: 0.0,
                    seed: 9,
                }),
                ..BuildOptions::default()
            },
        );
        let (o1, l1) = clean.query(&planted.query, 3);
        let (o2, l2) = faulty.query(&planted.query, 3);
        assert_eq!(o1, o2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn full_erasures_leave_only_the_degenerate_paths() {
        let mut rng = StdRng::seed_from_u64(22);
        let planted = gen::planted(64, 128, 6, &mut rng);
        let index = AnnIndex::build(
            planted.dataset,
            SketchParams::practical(GAMMA, 4),
            BuildOptions {
                erasures: Some(ErasureModel {
                    probability: 1.0,
                    seed: 10,
                }),
                ..BuildOptions::default()
            },
        );
        // Main path: every T-cell erased → the search cannot find anything.
        let (outcome, _) = index.query(&planted.query, 3);
        assert_eq!(outcome.kind, crate::outcome::OutcomeKind::NotFound);
        // Degenerate path is untouched.
        let member = index.dataset().point(0).clone();
        let (outcome, _) = index.query(&member, 3);
        assert!(matches!(
            outcome.kind,
            crate::outcome::OutcomeKind::Exact { .. }
        ));
    }

    #[test]
    fn erasures_are_deterministic_per_cell() {
        let mut rng = StdRng::seed_from_u64(23);
        let planted = gen::planted(64, 128, 6, &mut rng);
        let index = AnnIndex::build(
            planted.dataset,
            SketchParams::practical(GAMMA, 5),
            BuildOptions {
                erasures: Some(ErasureModel {
                    probability: 0.5,
                    seed: 11,
                }),
                ..BuildOptions::default()
            },
        );
        let (o1, l1) = index.query(&planted.query, 2);
        let (o2, l2) = index.query(&planted.query, 2);
        assert_eq!(o1, o2);
        assert_eq!(l1, l2);
    }
}
