//! Sparse Bernoulli GF(2) matrices and sketches.
//!
//! A [`SketchMatrix`] is the paper's `M_i` (or `N_j`): `rows × d` with iid
//! `Bernoulli(p)` entries. A point's [`Sketch`] is the matrix-vector product
//! over GF(2): bit `r` of the sketch is the parity `⟨row_r, x⟩`.
//!
//! Rows are bit-packed [`Point`]s, so sketching one query point
//! ([`SketchMatrix::sketch`]) costs `rows × d/64` AND+XOR word operations
//! and one popcount per row, and sketch distances are XOR+popcount — the
//! same hot loop as raw Hamming distances, just in sketch space.
//! Sketching a whole database ([`SketchMatrix::sketch_all_into`]) instead
//! bit-slices the points: a block of [`BLOCK_POINTS`] points is transposed
//! with 64×64 bit transposes so each input column is one word across the
//! block, a sketch row of the whole block is the XOR of the words at the
//! row's set columns (listed once per call, not found again per block),
//! and each 64-row group is transposed back into the slab's row-major
//! layout. Row generation uses geometric skip-sampling.
//! Both therefore cost time proportional to the number of set bits rather
//! than to `d`, and `p = 1/(4α^i)` decays geometrically in the scale `i`:
//! at d = 512 a scale-0 row has 128 set bits, a scale-18 row under one.

use std::ops::Range;

use rand::Rng;

use anns_hamming::point::LIMB_BITS;
use anns_hamming::Point;

/// A sketch: the GF(2) image `Mx` of a point, bit-packed.
///
/// Sketches serve two roles: (1) operands of the threshold test, via
/// [`Sketch::distance`]; (2) *cell addresses* in the paper's tables
/// (`T_i[M_i x]`), via [`Sketch::address_bytes`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Sketch(Point);

impl Sketch {
    /// Number of sketch bits (matrix rows).
    pub fn bits(&self) -> u32 {
        self.0.dim()
    }

    /// Hamming distance between sketches.
    pub fn distance(&self, other: &Sketch) -> u32 {
        self.0.distance(&other.0)
    }

    /// Hamming distance to a sketch stored as raw limbs (a database
    /// sketch slab row), tail bits zero.
    ///
    /// # Panics
    /// Panics if `limbs` is not exactly this sketch's limb count.
    pub fn distance_limbs(&self, limbs: &[u64]) -> u32 {
        let own = self.0.limbs();
        assert_eq!(own.len(), limbs.len(), "distance between mismatched dims");
        own.iter()
            .zip(limbs)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// The raw limbs (little-endian bit order; tail bits are zero).
    pub fn limbs(&self) -> &[u64] {
        self.0.limbs()
    }

    /// The sketch as a byte string for use as a table-cell address.
    pub fn address_bytes(&self) -> Vec<u8> {
        self.0
            .limbs()
            .iter()
            .flat_map(|l| l.to_le_bytes())
            .collect()
    }

    /// Access to the underlying bit vector.
    pub fn as_point(&self) -> &Point {
        &self.0
    }

    /// Rebuilds a sketch from its bit vector (for tests / table-side code).
    pub fn from_point(p: Point) -> Self {
        Sketch(p)
    }
}

/// A `rows × d` random GF(2) matrix with iid `Bernoulli(p)` entries.
#[derive(Clone, Debug)]
pub struct SketchMatrix {
    dim: u32,
    density: f64,
    rows: Vec<Point>,
}

impl SketchMatrix {
    /// Samples a matrix. `p` is clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `dim == 0`.
    pub fn sample<R: Rng + ?Sized>(rows: u32, dim: u32, p: f64, rng: &mut R) -> Self {
        assert!(rows > 0, "a sketch matrix needs at least one row");
        assert!(dim > 0);
        let p = p.clamp(0.0, 1.0);
        let rows_vec = (0..rows)
            .map(|_| sample_bernoulli_row(dim, p, rng))
            .collect();
        SketchMatrix {
            dim,
            density: p,
            rows: rows_vec,
        }
    }

    /// Reassembles a matrix from its parts (the store decode path).
    /// Returns a description of the violated invariant on inconsistency.
    pub fn from_parts(dim: u32, density: f64, rows: Vec<Point>) -> Result<Self, String> {
        if rows.is_empty() {
            return Err("sketch matrix needs at least one row".into());
        }
        if dim == 0 {
            return Err("sketch matrix dimension 0".into());
        }
        if let Some(bad) = rows.iter().find(|r| r.dim() != dim) {
            return Err(format!(
                "matrix row dimension {} != declared {dim}",
                bad.dim()
            ));
        }
        if !(0.0..=1.0).contains(&density) {
            return Err(format!("matrix density {density} outside [0, 1]"));
        }
        Ok(SketchMatrix { dim, density, rows })
    }

    /// Number of rows (sketch bits produced).
    pub fn rows(&self) -> u32 {
        self.rows.len() as u32
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// The Bernoulli density the matrix was sampled with.
    pub fn density(&self) -> f64 {
        self.density
    }

    /// The raw rows.
    pub fn row_points(&self) -> &[Point] {
        &self.rows
    }

    /// Heap bytes of the rows (each a limb box behind its header), from
    /// their lengths.
    pub fn heap_bytes(&self) -> usize {
        let limbs = self.dim.div_ceil(LIMB_BITS) as usize * 8;
        self.rows.len() * (std::mem::size_of::<Point>() + limbs)
    }

    /// Sketches a point: bit `r` is the GF(2) inner product with row `r`.
    ///
    /// # Panics
    /// Panics if the point's dimension does not match the matrix.
    pub fn sketch(&self, x: &Point) -> Sketch {
        assert_eq!(x.dim(), self.dim, "point/matrix dimension mismatch");
        let mut limbs = vec![0u64; self.rows.len().div_ceil(LIMB)];
        for (limb, rows) in limbs.iter_mut().zip(self.rows.chunks(LIMB)) {
            for (bit, row) in rows.iter().enumerate() {
                *limb |= u64::from(row.inner_product_parity(x)) << bit;
            }
        }
        Sketch(Point::from_limbs(self.rows(), limbs))
    }

    /// Limbs of one sketch: `⌈rows/64⌉`.
    pub fn sketch_limbs(&self) -> usize {
        self.rows.len().div_ceil(LIMB)
    }

    /// Sketches every point of a batch into a row-major limb slab: with
    /// `w = sketch_limbs()`, `out[k·w..(k+1)·w]` becomes the limbs of
    /// `sketch(&points[k])`, tail bits zero.
    ///
    /// Bit-sliced and sparse. The points go [`BLOCK_POINTS`] at a time
    /// into a transposed block, where each input column is one word holding
    /// that coordinate of every point in the block; sketch row `r` of the
    /// whole block is then the XOR of the words at row `r`'s set columns,
    /// read from a list of them built once per call, so a row costs its
    /// weight (128 words at d = 512 and scale 0, under one at the top
    /// scale) rather than a pass over `d`. Each 64-row group is transposed
    /// back into the slab's row-major layout. A single query point should
    /// use [`SketchMatrix::sketch`].
    ///
    /// # Panics
    /// Panics if a point's dimension does not match the matrix or
    /// `out.len() != points.len() · sketch_limbs()`.
    pub fn sketch_all_into(&self, points: &[Point], out: &mut [u64]) {
        let w = self.sketch_limbs();
        assert_eq!(
            out.len(),
            points.len() * w,
            "output slab must hold one sketch per point"
        );
        let set = SetColumns::of(&[self]);
        let mut block = SlicedBlock::new(self.dim);
        for (xs, dst) in points
            .chunks(BLOCK_POINTS)
            .zip(out.chunks_mut(BLOCK_POINTS * w))
        {
            block.load(xs);
            set.sketch_block_into(0..self.rows.len(), &block, dst);
        }
    }
}

/// The set columns of every row of some matrices, as one flat list: row
/// `r`, counting the matrices' rows in order, has
/// `cols[starts[r]..starts[r + 1]]`, ascending. This is what the batch
/// kernel reads: one walk over the rows' limbs lists them, and one
/// allocation holds them all. The indices are `u32` because `d` may
/// exceed 16 bits.
pub(crate) struct SetColumns {
    dim: u32,
    starts: Vec<usize>,
    cols: Vec<u32>,
}

impl SetColumns {
    /// Lists the set columns of every row of `mats`, in order.
    ///
    /// # Panics
    /// If `mats` is empty or the matrices differ in dimension.
    pub(crate) fn of(mats: &[&SketchMatrix]) -> Self {
        let dim = mats[0].dim;
        assert!(
            mats.iter().all(|m| m.dim == dim),
            "matrix dimensions differ"
        );
        let rows = || mats.iter().flat_map(|m| &m.rows);
        let mut starts = Vec::with_capacity(rows().count() + 1);
        let mut cols = Vec::with_capacity(rows().map(|row| row.weight() as usize).sum());
        starts.push(0);
        for row in rows() {
            cols.extend(row.iter_ones());
            starts.push(cols.len());
        }
        SetColumns { dim, starts, cols }
    }

    /// Sketches a loaded block into its region of a slab: `out` holds
    /// `block`'s points' sketches under the matrix whose rows are this
    /// list's `rows`, `⌈rows.len()/64⌉` limbs each.
    ///
    /// # Panics
    /// Panics if the block's dimension does not match the matrices, `rows`
    /// is out of range, or `out` is not exactly the block's sketches.
    pub(crate) fn sketch_block_into(
        &self,
        rows: Range<usize>,
        block: &SlicedBlock,
        out: &mut [u64],
    ) {
        assert_eq!(block.dim, self.dim, "point/matrix dimension mismatch");
        let w = rows.len().div_ceil(LIMB);
        assert_eq!(
            out.len(),
            block.len * w,
            "output must hold the block's sketches"
        );
        let mut group = [[0u64; LANES]; LIMB];
        for limb in 0..w {
            let first = rows.start + limb * LIMB;
            let group_rows = first..rows.end.min(first + LIMB);
            let height = group_rows.len();
            for (word, r) in group.iter_mut().zip(group_rows) {
                // A local accumulator stays in registers.
                let mut acc = [0u64; LANES];
                for &c in &self.cols[self.starts[r]..self.starts[r + 1]] {
                    for (a, x) in acc.iter_mut().zip(&block.cols[c as usize]) {
                        *a ^= x;
                    }
                }
                *word = acc;
            }
            group[height..].fill([0; LANES]);
            // Word `p`, lane `g` now holds this group's 64 sketch bits of
            // point `g·64 + p`.
            transpose(&mut group);
            for (k, sketch) in out.chunks_exact_mut(w).enumerate() {
                sketch[limb] = group[k % LIMB][k / LIMB];
            }
        }
    }
}

/// Bits per limb, as a `usize` for indexing.
const LIMB: usize = LIMB_BITS as usize;

/// 64-point groups a [`SlicedBlock`] holds side by side. Every word of the
/// kernel is `[u64; LANES]`, which the compiler keeps in vector registers.
const LANES: usize = 8;

/// Points the batch kernel ([`SketchMatrix::sketch_all_into`]) transposes
/// and sketches at a time: one 64-point group per lane.
pub const BLOCK_POINTS: usize = LIMB * LANES;

/// Up to [`BLOCK_POINTS`] points, bit-sliced: `cols[c]` holds coordinate
/// `c` of every point, point `g·64 + p` at bit `p` of lane `g`. Columns
/// past the last point, and past `d` up to a whole limb, are zero.
pub(crate) struct SlicedBlock {
    dim: u32,
    len: usize,
    cols: Vec<[u64; LANES]>,
}

impl SlicedBlock {
    /// An empty block for points of dimension `dim`
    /// (`⌈dim/64⌉·64·LANES` limbs: 32 KiB at d = 512).
    pub(crate) fn new(dim: u32) -> Self {
        let width = dim.div_ceil(LIMB_BITS) as usize * LIMB;
        SlicedBlock {
            dim,
            len: 0,
            cols: vec![[0; LANES]; width],
        }
    }

    /// Replaces the block's points with `points`, transposing each
    /// 64-point, 64-coordinate tile.
    ///
    /// # Panics
    /// Panics if there are more than [`BLOCK_POINTS`] points or one has
    /// another dimension.
    pub(crate) fn load(&mut self, points: &[Point]) {
        assert!(
            points.len() <= BLOCK_POINTS,
            "a block holds {BLOCK_POINTS} points"
        );
        for x in points {
            assert_eq!(x.dim(), self.dim, "point/matrix dimension mismatch");
        }
        self.len = points.len();
        for (limb, tile) in self.cols.chunks_exact_mut(LIMB).enumerate() {
            let tile: &mut [[u64; LANES]; LIMB] = tile.try_into().expect("whole limbs");
            for (p, word) in tile.iter_mut().enumerate() {
                *word = std::array::from_fn(|g| {
                    points.get(g * LIMB + p).map_or(0, |x| x.limbs()[limb])
                });
            }
            transpose(tile);
        }
    }
}

/// Transposes `LANES` 64×64 bit matrices at once: afterwards bit `i` of
/// `a[j][g]` is what bit `j` of `a[i][g]` was. Six rounds of block swaps,
/// from 32×32 blocks down to single bits.
fn transpose(a: &mut [[u64; LANES]; LIMB]) {
    swap_blocks::<32>(a, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(a, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(a, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(a, 0x3333_3333_3333_3333);
    swap_blocks::<1>(a, 0x5555_5555_5555_5555);
}

/// One transpose round: in every `2J × 2J` tile, swaps the high `J` bits
/// of the first `J` words with the low `J` bits of the next `J`.
#[inline(always)]
fn swap_blocks<const J: usize>(a: &mut [[u64; LANES]; LIMB], mask: u64) {
    for base in (0..LIMB).step_by(2 * J) {
        for k in base..base + J {
            let (lo, hi) = (a[k], a[k + J]);
            let t: [u64; LANES] = std::array::from_fn(|g| ((lo[g] >> J) ^ hi[g]) & mask);
            a[k] = std::array::from_fn(|g| lo[g] ^ (t[g] << J));
            a[k + J] = std::array::from_fn(|g| hi[g] ^ t[g]);
        }
    }
}

/// Samples one `Bernoulli(p)` row by geometric skip-sampling: the gap to the
/// next set coordinate is `⌊ln U / ln(1−p)⌋`, costing O(weight) instead of
/// O(d) for sparse rows.
fn sample_bernoulli_row<R: Rng + ?Sized>(dim: u32, p: f64, rng: &mut R) -> Point {
    let mut row = Point::zeros(dim);
    if p <= 0.0 {
        return row;
    }
    if p >= 1.0 {
        return Point::ones(dim);
    }
    let ln_q = (1.0 - p).ln(); // < 0
    let mut pos: u64 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / ln_q).floor();
        // Guard against pathological f64 values before casting.
        if !skip.is_finite() || skip >= dim as f64 {
            break;
        }
        pos += skip as u64;
        if pos >= dim as u64 {
            break;
        }
        row.set(pos as u32, true);
        pos += 1;
        if pos >= dim as u64 {
            break;
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn density_is_respected() {
        let mut rng = StdRng::seed_from_u64(1);
        for &p in &[0.01f64, 0.1, 0.25, 0.5, 0.9] {
            let m = SketchMatrix::sample(200, 500, p, &mut rng);
            let total: u32 = m.row_points().iter().map(|r| r.weight()).sum();
            let expect = 200.0 * 500.0 * p;
            let got = total as f64;
            // 5 sigma of Binomial(100000, p).
            let sigma = (200.0 * 500.0 * p * (1.0 - p)).sqrt();
            assert!(
                (got - expect).abs() < 5.0 * sigma + 5.0,
                "p={p}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn degenerate_densities() {
        let mut rng = StdRng::seed_from_u64(2);
        let zero = SketchMatrix::sample(10, 64, 0.0, &mut rng);
        assert!(zero.row_points().iter().all(|r| r.weight() == 0));
        let one = SketchMatrix::sample(10, 64, 1.0, &mut rng);
        assert!(one.row_points().iter().all(|r| r.weight() == 64));
    }

    #[test]
    fn sketch_is_linear_over_gf2() {
        // sketch(x) XOR sketch(z) = sketch(x XOR z) — linearity of parity.
        let mut rng = StdRng::seed_from_u64(3);
        let m = SketchMatrix::sample(64, 128, 0.2, &mut rng);
        let x = Point::random(128, &mut rng);
        let z = Point::random(128, &mut rng);
        let mut xz = x.clone();
        xz.xor_assign(&z);
        let sx = m.sketch(&x);
        let sz = m.sketch(&z);
        let sxz = m.sketch(&xz);
        let mut combined = sx.as_point().clone();
        combined.xor_assign(sz.as_point());
        assert_eq!(&combined, sxz.as_point());
        // Consequently sketch distance = weight of sketch of difference.
        assert_eq!(sx.distance(&sz), sxz.as_point().weight());
    }

    #[test]
    fn sketch_distance_statistics_match_mismatch_probability() {
        // Points at distance D have sketch distance ≈ f(D)·rows.
        let mut rng = StdRng::seed_from_u64(4);
        let d = 512u32;
        let beta = 16.0f64;
        let p = 1.0 / (4.0 * beta);
        let rows = 4000u32;
        let m = SketchMatrix::sample(rows, d, p, &mut rng);
        let x = Point::random(d, &mut rng);
        for dist in [4u32, 16, 32, 64] {
            let z = anns_hamming::gen::point_at_distance(&x, dist, &mut rng);
            let observed = m.sketch(&x).distance(&m.sketch(&z)) as f64 / rows as f64;
            let expect = crate::delta::mismatch_probability(p, dist as f64);
            let sigma = (expect * (1.0 - expect) / rows as f64).sqrt();
            assert!(
                (observed - expect).abs() < 6.0 * sigma + 0.01,
                "dist={dist}: observed {observed:.4}, expect {expect:.4}"
            );
        }
    }

    #[test]
    fn identical_points_have_zero_sketch_distance() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = SketchMatrix::sample(32, 100, 0.3, &mut rng);
        let x = Point::random(100, &mut rng);
        assert_eq!(m.sketch(&x).distance(&m.sketch(&x)), 0);
    }

    #[test]
    fn address_bytes_injective_on_samples() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = SketchMatrix::sample(96, 200, 0.25, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let x = Point::random(200, &mut rng);
            seen.insert(m.sketch(&x).address_bytes());
        }
        // 96-bit sketches of 200 random points collide with prob ≈ 0.
        assert!(seen.len() >= 199, "unexpected address collisions");
    }

    #[test]
    fn transpose_swaps_bit_and_word_indices() {
        let mut rng = StdRng::seed_from_u64(8);
        let a: [[u64; LANES]; LIMB] = std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
        let mut t = a;
        transpose(&mut t);
        for (i, j, g) in
            (0..LIMB).flat_map(|i| (0..LIMB).flat_map(move |j| (0..LANES).map(move |g| (i, j, g))))
        {
            assert_eq!(
                t[j][g] >> i & 1,
                a[i][g] >> j & 1,
                "bit ({i}, {j}) of lane {g}"
            );
        }
        transpose(&mut t);
        assert_eq!(t, a, "a transpose is its own inverse");
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = SketchMatrix::sample(8, 64, 0.25, &mut rng);
        let x = Point::random(65, &mut rng);
        let _ = m.sketch(&x);
    }
}
