//! The full sketch family of an ANNS instance, plus database-side sketches.
//!
//! [`SketchFamily`] bundles everything Definition 7 samples once per
//! instance: the accurate matrices `M_0 … M_top`, the coarse matrices
//! `N_0 … N_top` (`top = ⌈log_α d⌉`), and the integer acceptance thresholds
//! per scale. In the public-coin presentation (paper §2, substitution S3 of
//! `DESIGN.md`) this family *is* the shared randomness `r`: both the
//! cell-probing algorithm and the table oracle hold it, reconstructed
//! deterministically from a seed.
//!
//! [`DbSketches`] holds the table side's precomputation: the sketches of
//! every database point under every matrix, as one flat limb slab per
//! matrix. Lazy table oracles answer a probed address by scanning these
//! slabs — the `C_i` / `D_{i,j}` membership oracles at the bottom of this
//! file.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use anns_hamming::point::LIMB_BITS;
use anns_hamming::{ceil_log_alpha, kernel, Dataset, Point};
use anns_store::Limbs;

use crate::delta::{threshold_fraction, ThresholdMode};
use crate::matrix::{Sketch, SketchMatrix, SlicedBlock, BLOCK_POINTS};

/// Parameters of the sketch family (the constants of Definition 7).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SketchParams {
    /// Approximation ratio `γ > 1` (paper assumes `γ < 4` wlog; `α = √γ`).
    pub gamma: f64,
    /// Accurate matrices have `c₁·log₂ n` rows.
    pub c1: f64,
    /// Coarse matrices have `(c₂/s)·log₂ n` rows.
    pub c2: f64,
    /// The paper's round-group parameter `1 < s < ln ln n` (Algorithm 2);
    /// also divides the coarse row count.
    pub s: f64,
    /// Threshold rule (midpoint in normal operation; literal for ablation).
    pub threshold_mode: ThresholdMode,
    /// Seed of the public randomness.
    pub seed: u64,
}

impl SketchParams {
    /// Laptop-scale defaults: constants far below the paper's union-bound
    /// values but validated empirically by experiment E5 (the sandwich
    /// holds with probability ≫ 3/4 at the n we run).
    pub fn practical(gamma: f64, seed: u64) -> Self {
        SketchParams {
            gamma,
            c1: 24.0,
            c2: 24.0,
            s: 2.0,
            threshold_mode: ThresholdMode::Midpoint,
            seed,
        }
    }

    /// Asymptotically sufficient constants: `c₁` chosen numerically so the
    /// union bound over all points and scales is below `1/8` (the paper's
    /// Lemma 8 targets overall failure ≤ 1/4 across both conditions).
    pub fn paper(gamma: f64, n: usize, d: u64, seed: u64) -> Self {
        let alpha = gamma.sqrt();
        let c = crate::delta::recommended_c1(n, d, alpha, 1.0 / 8.0);
        SketchParams {
            gamma,
            c1: c,
            c2: c,
            s: 2.0,
            threshold_mode: ThresholdMode::Midpoint,
            seed,
        }
    }

    /// `α = √γ`.
    pub fn alpha(&self) -> f64 {
        self.gamma.sqrt()
    }
}

/// The sampled public randomness: matrices and thresholds for every scale.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SketchFamily {
    params: SketchParams,
    dim: u32,
    n: usize,
    top: u32,
    m_mats: Vec<SketchMatrix>,
    n_mats: Vec<SketchMatrix>,
    m_thresholds: Vec<u32>,
    n_thresholds: Vec<u32>,
}

impl SketchFamily {
    /// Samples the family for an instance of dimension `d` and database
    /// size `n`, deterministically from `params.seed`.
    pub fn generate(d: u32, n: usize, params: &SketchParams) -> Self {
        assert!(d >= 2, "dimension must be at least 2");
        assert!(n >= 2, "database size must be at least 2");
        assert!(params.gamma > 1.0, "gamma must exceed 1");
        assert!(params.s >= 1.0, "s must be at least 1");
        let alpha = params.alpha();
        let top = ceil_log_alpha(d as u64, alpha);
        let log2n = (n as f64).log2();
        let m_rows = ((params.c1 * log2n).ceil() as u32).max(8);
        let n_rows = (((params.c2 / params.s) * log2n).ceil() as u32).max(4);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut m_mats = Vec::with_capacity(top as usize + 1);
        let mut n_mats = Vec::with_capacity(top as usize + 1);
        let mut m_thresholds = Vec::with_capacity(top as usize + 1);
        let mut n_thresholds = Vec::with_capacity(top as usize + 1);
        for i in 0..=top {
            let beta = alpha.powi(i as i32);
            let p = 1.0 / (4.0 * beta);
            m_mats.push(SketchMatrix::sample(m_rows, d, p, &mut rng));
            let theta = threshold_fraction(beta, alpha, params.threshold_mode);
            m_thresholds.push((theta * m_rows as f64).floor() as u32);
        }
        for j in 0..=top {
            let beta = alpha.powi(j as i32);
            let p = 1.0 / (4.0 * beta);
            n_mats.push(SketchMatrix::sample(n_rows, d, p, &mut rng));
            let theta = threshold_fraction(beta, alpha, params.threshold_mode);
            n_thresholds.push((theta * n_rows as f64).floor() as u32);
        }
        SketchFamily {
            params: *params,
            dim: d,
            n,
            top,
            m_mats,
            n_mats,
            m_thresholds,
            n_thresholds,
        }
    }

    /// Reassembles a family from its sampled parts (the store decode
    /// path). Validates every structural invariant `generate` establishes;
    /// returns a description of the violated one on inconsistency.
    pub fn from_parts(
        params: SketchParams,
        dim: u32,
        n: usize,
        m_mats: Vec<SketchMatrix>,
        n_mats: Vec<SketchMatrix>,
        m_thresholds: Vec<u32>,
        n_thresholds: Vec<u32>,
    ) -> Result<Self, String> {
        if dim < 2 || n < 2 {
            return Err(format!("family needs d ≥ 2 and n ≥ 2, got d={dim}, n={n}"));
        }
        if params.gamma <= 1.0 || params.gamma.is_nan() || params.s < 1.0 {
            return Err(format!(
                "family params out of range: gamma={}, s={}",
                params.gamma, params.s
            ));
        }
        let top = ceil_log_alpha(dim as u64, params.alpha());
        let scales = top as usize + 1;
        if m_mats.len() != scales
            || n_mats.len() != scales
            || m_thresholds.len() != scales
            || n_thresholds.len() != scales
        {
            return Err(format!(
                "family scale mismatch: expected {scales} scales, got {}/{}/{}/{} entries",
                m_mats.len(),
                n_mats.len(),
                m_thresholds.len(),
                n_thresholds.len()
            ));
        }
        if let Some(bad) = m_mats.iter().chain(n_mats.iter()).find(|m| m.dim() != dim) {
            return Err(format!("matrix dimension {} != family {dim}", bad.dim()));
        }
        if m_mats.iter().any(|m| m.rows() != m_mats[0].rows())
            || n_mats.iter().any(|m| m.rows() != n_mats[0].rows())
        {
            return Err("matrices of one kind must share a row count".into());
        }
        Ok(SketchFamily {
            params,
            dim,
            n,
            top,
            m_mats,
            n_mats,
            m_thresholds,
            n_thresholds,
        })
    }

    /// The accurate matrices `M_0 … M_top` (the store encode path).
    pub fn m_matrices(&self) -> &[SketchMatrix] {
        &self.m_mats
    }

    /// The coarse matrices `N_0 … N_top`.
    pub fn n_matrices(&self) -> &[SketchMatrix] {
        &self.n_mats
    }

    /// All accurate acceptance thresholds, scale order.
    pub fn m_thresholds(&self) -> &[u32] {
        &self.m_thresholds
    }

    /// All coarse acceptance thresholds, scale order.
    pub fn n_thresholds(&self) -> &[u32] {
        &self.n_thresholds
    }

    /// Heap bytes of the matrices and thresholds, from their lengths.
    pub fn heap_bytes(&self) -> usize {
        let mats = self.m_mats.iter().chain(&self.n_mats);
        let thresholds = self.m_thresholds.len() + self.n_thresholds.len();
        mats.map(|m| std::mem::size_of::<SketchMatrix>() + m.heap_bytes())
            .sum::<usize>()
            + thresholds * std::mem::size_of::<u32>()
    }

    /// The parameters the family was generated with.
    pub fn params(&self) -> &SketchParams {
        &self.params
    }

    /// `α = √γ`.
    pub fn alpha(&self) -> f64 {
        self.params.alpha()
    }

    /// Top scale index `⌈log_α d⌉`.
    pub fn top(&self) -> u32 {
        self.top
    }

    /// Ambient dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Database size the row counts were derived from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows per accurate matrix (`c₁·log₂ n`).
    pub fn m_rows(&self) -> u32 {
        self.m_mats[0].rows()
    }

    /// Rows per coarse matrix (`(c₂/s)·log₂ n`).
    pub fn n_rows(&self) -> u32 {
        self.n_mats[0].rows()
    }

    /// Accurate sketch `M_i x`.
    pub fn sketch_m(&self, i: u32, x: &Point) -> Sketch {
        self.m_mats[i as usize].sketch(x)
    }

    /// Coarse sketch `N_j x`.
    pub fn sketch_n(&self, j: u32, x: &Point) -> Sketch {
        self.n_mats[j as usize].sketch(x)
    }

    /// Integer acceptance threshold of the accurate test at scale `i`.
    pub fn m_threshold(&self, i: u32) -> u32 {
        self.m_thresholds[i as usize]
    }

    /// Integer acceptance threshold of the coarse test at scale `j`.
    pub fn n_threshold(&self, j: u32) -> u32 {
        self.n_thresholds[j as usize]
    }

    /// The accurate membership test: does the sketch with limbs `b` (a
    /// database slab row) fall within the scale-i threshold of sketch
    /// (= cell address) `a`?
    pub fn m_passes(&self, i: u32, a: &Sketch, b: &[u64]) -> bool {
        a.distance_limbs(b) <= self.m_thresholds[i as usize]
    }

    /// The coarse membership test at scale `j`.
    pub fn n_passes(&self, j: u32, a: &Sketch, b: &[u64]) -> bool {
        a.distance_limbs(b) <= self.n_thresholds[j as usize]
    }
}

/// All database sketches of one kind (every `M_i`, or every `N_j`) as flat
/// limb slabs: one slab per scale, `points · w` limbs with
/// `w = ⌈rows/64⌉`, point `z` at `[z·w, (z+1)·w)`. The row count is stored
/// once for the kind; tail bits past it are zero in every sketch. A slab
/// is owned after a build or a copying decode, and borrowed in place from
/// the bundle after a mapped mount.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct SketchSlabs {
    pub(crate) rows: u32,
    pub(crate) scales: Vec<Limbs>,
}

impl SketchSlabs {
    /// Limbs per sketch.
    fn width(&self) -> usize {
        self.rows.div_ceil(LIMB_BITS) as usize
    }

    /// The scale-`i` sketch of a point, as a function of the point. The
    /// slab is dereferenced once, here, so a loop over many points pays
    /// for that (and a borrowed slab's tail-check latch) once.
    pub(crate) fn rows<'a>(&'a self, i: u32) -> impl Fn(usize) -> &'a [u64] + 'a {
        let (slab, w) = (&*self.scales[i as usize], self.width());
        move |z| &slab[z * w..(z + 1) * w]
    }

    /// The scale-`i` slab, checked against the width of the address it is
    /// about to be scanned with.
    fn scale(&self, i: u32, addr: &Sketch) -> &[u64] {
        assert_eq!(addr.bits(), self.rows, "address/slab sketch width mismatch");
        &self.scales[i as usize]
    }
}

/// Database-side sketches: `M_i·B[z]` and `N_j·B[z]` for every scale and
/// database point `z`.
///
/// This is the table's preprocessing: `(top+1) · n` sketches per kind, the
/// polynomial space of paper §3.1 (unlike the materialized tables,
/// substitution S1). Each kind is a set of flat limb slabs, one per scale,
/// holding `(top+1) · n · (⌈m_rows/64⌉ + ⌈n_rows/64⌉) · 8` bytes in all:
/// 42.75 MiB at the serving benchmark's unique-large shape (n = 32768,
/// d = 512, 19 scales, 360 + 180 rows), of which the 14.25 MiB of `N`
/// slabs are never read by Algorithm 1. A build or a copying decode puts
/// them on the heap in `2·(top+1)` allocations. A mapped mount borrows
/// them in place from the bundle (store format v3 writes each scale as
/// one raw 8-aligned slab), so they cost file-backed page cache, shared
/// and reclaimable, instead of anonymous memory, and only once scanned:
/// a borrowed slab checks its tail bits on its first scan, and the
/// entry's CRC is read through the file. Forcing a mapped unique-large
/// index ready grows anonymous RSS by 2.7 MiB (its dataset and family),
/// where decoding heap copies grew it by 45.5 MiB, and total RSS by
/// 2.8 MB, where mapping in the whole 47.6 MB entry grew it by 47.5 MB
/// (x86-64, glibc). The `C_i` /
/// `D_{i,j}` oracles scan a scale's slab contiguously with the
/// `anns_hamming::kernel` row scans. Serializable, so indices can be
/// snapshotted and reloaded without re-sketching.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DbSketches {
    points: usize,
    m: SketchSlabs,
    n: SketchSlabs,
}

impl DbSketches {
    /// Sketches every database point under every matrix with the
    /// bit-sliced kernel behind [`SketchMatrix::sketch_all_into`], walking
    /// the points one block at a time.
    ///
    /// Work runs on `min(threads, available parallelism)` scoped threads,
    /// in two passes. First each worker allocates a contiguous run of
    /// `ceil(2·(top+1) / workers)` slabs, `M` slabs before `N` slabs (at
    /// two workers, all `M` slabs on one and all `N` slabs on the other).
    /// Then the workers claim point blocks in
    /// order: a worker transposes its block once into its own small buffer
    /// and runs every matrix over it while it is hot, writing that block's
    /// range of every slab. No transient scales with `n`, and the output
    /// does not depend on `threads`.
    pub fn build(family: &SketchFamily, dataset: &Dataset, threads: usize) -> Self {
        assert_eq!(dataset.dim(), family.dim(), "dataset/family dimension");
        let points = dataset.points();
        let mats: Vec<&SketchMatrix> = family.m_mats.iter().chain(&family.n_mats).collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = threads.min(cores).max(1);
        let mut slabs: Vec<Vec<u64>> = vec![Vec::new(); mats.len()];
        // The workers, not the calling thread, allocate the slabs, in
        // contiguous runs of equal count (not of equal bytes: an M slab is
        // twice an N slab). Allocated on the calling thread, the freed
        // sketches of a dropped index stayed resident in its allocator
        // arena, where the threads that later decode mapped bundles never
        // reuse them (swap-mixed rss_mb rose 16% in the serving benchmark).
        // Fixed runs, not claims: with no sketching between claims, one
        // worker could take nearly all the slabs and another just one, and
        // glibc keeps a thread arena's freed top while it is under the trim
        // threshold (unique-large rss_mb rose ~1 MiB in 3 of 5 pairs). At
        // two workers each run is 19 slabs, far above that threshold.
        let share = mats.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for (mats, slabs) in mats.chunks(share).zip(slabs.chunks_mut(share)) {
                scope.spawn(move || {
                    for (mat, slab) in mats.iter().zip(slabs) {
                        *slab = vec![0u64; points.len() * mat.sketch_limbs()];
                    }
                });
            }
        });
        let chunks = slabs
            .iter_mut()
            .zip(&mats)
            .map(|(slab, mat)| slab.chunks_mut(BLOCK_POINTS * mat.sketch_limbs()))
            .collect::<Vec<_>>();
        let blocks = Mutex::new((points.chunks(BLOCK_POINTS), chunks));
        let work = || {
            let mut block = SlicedBlock::new(family.dim());
            loop {
                let (xs, outs) = {
                    let mut jobs = blocks.lock().expect("a sketch worker panicked");
                    let (xs, chunks) = &mut *jobs;
                    let Some(xs) = xs.next() else { break };
                    let outs = chunks
                        .iter_mut()
                        .map(|c| c.next().expect("a chunk per block"));
                    (xs, outs.collect::<Vec<_>>())
                };
                block.load(xs);
                for (mat, out) in mats.iter().zip(outs) {
                    mat.sketch_block_into(&block, out);
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..workers.min(points.len().div_ceil(BLOCK_POINTS)) {
                scope.spawn(work);
            }
        });
        let mut slabs: Vec<Limbs> = slabs.into_iter().map(Limbs::from).collect();
        let n = slabs.split_off(family.m_mats.len());
        DbSketches {
            points: points.len(),
            m: SketchSlabs {
                rows: family.m_rows(),
                scales: slabs,
            },
            n: SketchSlabs {
                rows: family.n_rows(),
                scales: n,
            },
        }
    }

    /// Reassembles database sketches from decoded slabs (the store decode
    /// path, which has already checked that every slab holds exactly
    /// `points` sketches of its kind's width). Both kinds must cover the
    /// same scales.
    pub(crate) fn from_slabs(
        points: usize,
        m: SketchSlabs,
        n: SketchSlabs,
    ) -> Result<Self, String> {
        if m.scales.is_empty() || m.scales.len() != n.scales.len() {
            return Err(format!(
                "db sketches need matching non-empty scale lists, got {}/{}",
                m.scales.len(),
                n.scales.len()
            ));
        }
        Ok(DbSketches { points, m, n })
    }

    /// Errors unless these sketches were made by `family`'s shape: exactly
    /// `top+1` scales per kind, `m_rows()` / `n_rows()` bits per sketch,
    /// and full slabs (a deserialized JSON snapshot has had no decoder
    /// check them). Decoded and deserialized indexes pass through this
    /// before serving, so a mismatched bundle is rejected at load rather
    /// than panicking at its first query.
    pub fn check_family(&self, family: &SketchFamily) -> Result<(), String> {
        let scales = family.top() as usize + 1;
        if self.m.scales.len() != scales || self.n.scales.len() != scales {
            return Err(format!(
                "db sketches cover {}/{} scales, family has {scales}",
                self.m.scales.len(),
                self.n.scales.len()
            ));
        }
        if self.m.rows != family.m_rows() || self.n.rows != family.n_rows() {
            return Err(format!(
                "db sketch widths {}/{} bits != family rows {}/{}",
                self.m.rows,
                self.n.rows,
                family.m_rows(),
                family.n_rows()
            ));
        }
        for kind in [&self.m, &self.n] {
            let want = self.points * kind.width();
            if let Some(bad) = kind.scales.iter().find(|s| s.len() != want) {
                return Err(format!(
                    "every scale must sketch every database point: slab of {} limbs, \
                     {} points need {want}",
                    bad.len(),
                    self.points
                ));
            }
        }
        Ok(())
    }

    /// Whether every slab is borrowed in place from a mapped bundle
    /// rather than owned. Runs the slabs' deferred tail checks, so it
    /// reads them: a slab with a dirty tail reads as copied.
    pub fn is_borrowed(&self) -> bool {
        self.m
            .scales
            .iter()
            .chain(&self.n.scales)
            .all(|s| s.is_borrowed())
    }

    /// Slab bytes as `(owned, borrowed)`: held on the heap, and read in
    /// place from a mapped bundle. Reads no slab: a borrowed slab whose
    /// tail check has not run yet counts as borrowed.
    pub fn slab_bytes(&self) -> (usize, usize) {
        let slabs = self.m.scales.iter().chain(&self.n.scales);
        slabs.fold((0, 0), |(owned, borrowed), slab| {
            let held = slab.owned_len();
            (owned + 8 * held, borrowed + 8 * (slab.len() - held))
        })
    }

    /// The accurate slabs (the store encode path).
    pub(crate) fn m_slabs(&self) -> &SketchSlabs {
        &self.m
    }

    /// The coarse slabs.
    pub(crate) fn n_slabs(&self) -> &SketchSlabs {
        &self.n
    }

    /// Limbs of the `M_i`-sketch of database point `z`.
    pub fn m_limbs(&self, i: u32, z: usize) -> &[u64] {
        self.m.rows(i)(z)
    }

    /// Limbs of the `N_j`-sketch of database point `z`.
    pub fn n_limbs(&self, j: u32, z: usize) -> &[u64] {
        self.n.rows(j)(z)
    }

    /// [`DbSketches::n_limbs`] at scale `j`, as a function of the point:
    /// for loops over many points, which then look the slab up once.
    pub fn n_scale<'a>(&'a self, j: u32) -> impl Fn(usize) -> &'a [u64] + 'a {
        self.n.rows(j)
    }

    /// Database size.
    pub fn len(&self) -> usize {
        self.points
    }

    /// Whether there are no points (never true for valid datasets).
    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// Members of `C_i` relative to an address sketch `a` (which is `M_i x`
    /// when the algorithm probes): indices `z` with
    /// `dist(a, M_i z) ≤ threshold_i`, ascending.
    pub fn c_members(&self, family: &SketchFamily, i: u32, addr: &Sketch) -> Vec<usize> {
        kernel::rows_within(self.m.scale(i, addr), addr.limbs(), family.m_threshold(i))
    }

    /// First member of `C_i` (the content the paper's `T_i` cell stores), if
    /// any.
    pub fn c_first(&self, family: &SketchFamily, i: u32, addr: &Sketch) -> Option<usize> {
        kernel::first_row_within(self.m.scale(i, addr), addr.limbs(), family.m_threshold(i))
    }

    /// `|C_i|` for an address sketch.
    pub fn c_count(&self, family: &SketchFamily, i: u32, addr: &Sketch) -> usize {
        kernel::count_rows_within(self.m.scale(i, addr), addr.limbs(), family.m_threshold(i))
    }

    /// `|D_{i,j}|` for address sketches `a = M_i x` and `b = N_j x`:
    /// members of `C_i` that also pass the coarse scale-`j` test.
    pub fn d_count(
        &self,
        family: &SketchFamily,
        i: u32,
        j: u32,
        addr_m: &Sketch,
        addr_n: &Sketch,
    ) -> usize {
        self.d_members(family, i, j, addr_m, addr_n).len()
    }

    /// Members of `D_{i,j}`, ascending.
    pub fn d_members(
        &self,
        family: &SketchFamily,
        i: u32,
        j: u32,
        addr_m: &Sketch,
        addr_n: &Sketch,
    ) -> Vec<usize> {
        let mut members = self.c_members(family, i, addr_m);
        let n_row = self.n_scale(j);
        members.retain(|&z| family.n_passes(j, addr_n, n_row(z)));
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns_hamming::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const GAMMA: f64 = 2.0;

    fn family_and_ds(seed: u64, n: usize, d: u32) -> (SketchFamily, Dataset, DbSketches) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = gen::uniform(n, d, &mut rng);
        let params = SketchParams::practical(GAMMA, seed ^ 0xABCD);
        let family = SketchFamily::generate(d, n, &params);
        let db = DbSketches::build(&family, &ds, 1);
        (family, ds, db)
    }

    #[test]
    fn generation_is_deterministic_from_seed() {
        let params = SketchParams::practical(GAMMA, 42);
        let f1 = SketchFamily::generate(128, 100, &params);
        let f2 = SketchFamily::generate(128, 100, &params);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Point::random(128, &mut rng);
        for i in 0..=f1.top() {
            assert_eq!(f1.sketch_m(i, &x), f2.sketch_m(i, &x));
            assert_eq!(f1.sketch_n(i, &x), f2.sketch_n(i, &x));
            assert_eq!(f1.m_threshold(i), f2.m_threshold(i));
        }
    }

    #[test]
    fn row_counts_scale_with_log_n() {
        let p = SketchParams::practical(GAMMA, 1);
        let f_small = SketchFamily::generate(64, 16, &p);
        let f_large = SketchFamily::generate(64, 4096, &p);
        assert_eq!(f_small.m_rows(), (24.0f64 * 4.0).ceil() as u32);
        assert_eq!(f_large.m_rows(), (24.0f64 * 12.0).ceil() as u32);
        assert!(f_large.n_rows() > f_small.n_rows());
    }

    #[test]
    fn self_sketch_always_in_c() {
        // A database point probed with its own sketch is a member of C_i
        // for every scale (distance 0 ≤ any threshold).
        let (family, ds, db) = family_and_ds(7, 50, 128);
        for z in [0usize, 17, 49] {
            for i in 0..=family.top() {
                let addr = family.sketch_m(i, ds.point(z));
                assert!(
                    db.c_members(&family, i, &addr).contains(&z),
                    "point {z} missing from its own C_{i}"
                );
            }
        }
    }

    #[test]
    fn top_scale_c_contains_everything() {
        // At scale top, every point is within radius d, i.e. in B_top, and
        // the sandwich (tested at scale) puts B_top ⊆ C_top whp.
        let (family, ds, db) = family_and_ds(8, 60, 128);
        let mut rng = StdRng::seed_from_u64(99);
        let x = Point::random(128, &mut rng);
        let addr = family.sketch_m(family.top(), &x);
        let count = db.c_count(&family, family.top(), &addr);
        assert!(
            count as f64 >= 0.9 * ds.len() as f64,
            "C_top holds {count}/{} points",
            ds.len()
        );
    }

    #[test]
    fn c_membership_separates_planted_from_far() {
        // Planted needle at distance 4 must be in C_i for scales with
        // α^i ≥ 4; uniform points at distance ≈ d/2 must be out of C_i for
        // small i.
        let mut rng = StdRng::seed_from_u64(9);
        let inst = gen::planted(64, 512, 4, &mut rng);
        let params = SketchParams::practical(GAMMA, 11);
        let family = SketchFamily::generate(512, 64, &params);
        let db = DbSketches::build(&family, &inst.dataset, 1);
        let alpha = family.alpha();
        // One scale above ceil(log_α 4), so the needle sits well inside the
        // ball and the per-point Chernoff margin is comfortable at
        // practical row counts (at the boundary scale the margin is only
        // δ/2 and would make this test seed-sensitive).
        let i_in = anns_hamming::ceil_log_alpha(4, alpha) + 1;
        let addr = family.sketch_m(i_in, &inst.query);
        assert!(
            db.c_members(&family, i_in, &addr)
                .contains(&inst.planted_index),
            "needle missing from C_{i_in}"
        );
        // Tiny scale: nothing within distance α^1, so C_1 ⊆ B_2 should be
        // empty (uniform points are at distance ≈ 256).
        let addr1 = family.sketch_m(1, &inst.query);
        assert_eq!(db.c_count(&family, 1, &addr1), 0, "C_1 must be empty");
    }

    #[test]
    fn d_count_bounded_by_c_count() {
        let (family, ds, db) = family_and_ds(10, 80, 128);
        let mut rng = StdRng::seed_from_u64(123);
        let x = Point::random(128, &mut rng);
        let _ = ds;
        for i in (0..=family.top()).step_by(3) {
            let addr_m = family.sketch_m(i, &x);
            for j in (0..=i).step_by(2) {
                let addr_n = family.sketch_n(j, &x);
                let dc = db.d_count(&family, i, j, &addr_m, &addr_n);
                let cc = db.c_count(&family, i, &addr_m);
                assert!(dc <= cc, "D_{{{i},{j}}} larger than C_{i}");
                assert_eq!(dc, db.d_members(&family, i, j, &addr_m, &addr_n).len());
            }
        }
    }

    #[test]
    fn parallel_db_sketches_match_sequential() {
        // Three whole point blocks and a partial one.
        let n = 3 * BLOCK_POINTS + 17;
        let mut rng = StdRng::seed_from_u64(13);
        let ds = gen::uniform(n, 96, &mut rng);
        let params = SketchParams::practical(GAMMA, 77);
        let family = SketchFamily::generate(96, n, &params);
        let seq = DbSketches::build(&family, &ds, 1);
        for i in 0..=family.top() {
            for z in 0..n {
                assert_eq!(seq.m_limbs(i, z), family.sketch_m(i, ds.point(z)).limbs());
                assert_eq!(seq.n_limbs(i, z), family.sketch_n(i, ds.point(z)).limbs());
            }
        }
        fn slabs(db: &DbSketches) -> impl Iterator<Item = &Limbs> {
            db.m.scales.iter().chain(&db.n.scales)
        }
        // 64 exceeds both the core count and the blocks.
        for threads in [1, 2, 3, 8, 64] {
            let par = DbSketches::build(&family, &ds, threads);
            for (k, (a, b)) in slabs(&seq).zip(slabs(&par)).enumerate() {
                assert!(a[..] == b[..], "t={threads}: slab {k}");
            }
        }
    }

    #[test]
    fn check_family_rejects_other_shapes() {
        let (family, _, db) = family_and_ds(14, 20, 96);
        assert!(db.check_family(&family).is_ok());
        let mut short = db.clone();
        short.m.scales[1] = Limbs::from(short.m.scales[1][1..].to_vec());
        let mut narrow = db.clone();
        narrow.n.rows -= 1;
        let mut fewer = db.clone();
        fewer.m.scales.pop();
        fewer.n.scales.pop();
        for bad in [short, narrow, fewer] {
            assert!(bad.check_family(&family).is_err());
        }
    }

    #[test]
    fn paper_params_produce_larger_c1() {
        let practical = SketchParams::practical(GAMMA, 0);
        let paper = SketchParams::paper(GAMMA, 4096, 1024, 0);
        assert!(paper.c1 > practical.c1, "paper c1 {} too small", paper.c1);
    }
}
