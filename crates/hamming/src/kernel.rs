//! Bit-sliced batch distance kernels over a limb-major point block.
//!
//! [`Point::distance`] is the hot loop of the whole workspace, but it is
//! called one pair at a time over `Box<[u64]>` allocations scattered on
//! the heap: every candidate costs a pointer chase, a dimension assert and
//! a short dependent loop. [`PackedBlock`] transposes `n` points into a
//! *limb-major* structure-of-arrays — limb `l` of every point stored
//! contiguously — so batch kernels stream long rows of `u64`s per limb,
//! XOR them against one broadcast query limb and accumulate popcounts into
//! per-point counters. The layout keeps the inner loop free of pointer
//! indirection and branch-free, which is what lets the compiler unroll and
//! autovectorize it; fixed-width limb chunks (4 and 8 limbs per pass) keep
//! a small number of query limbs in registers across a whole tile.
//!
//! Three kernels cover the workspace's batch shapes:
//!
//! * [`PackedBlock::distances_into`] — one query vs. all points (exact NN,
//!   kNN, histograms, ball profiles, LSH candidate scans);
//! * [`PackedBlock::many_distances_into`] — many queries vs. all points,
//!   tiled so a data tile is reused across every query while it is hot in
//!   cache (`annsctl bench-kernels`' throughput headline);
//! * [`PackedBlock::within_indices`] — radius filter with a
//!   *threshold early exit*: popcount contributions are nonnegative, so a
//!   tile whose smallest partial sum already exceeds the radius can skip
//!   its remaining limb chunks without changing the answer.
//!
//! Row-major slabs — `w` limbs per row, rows back to back, the layout of
//! the database sketch slabs in `anns-sketch` — get threshold scans
//! instead: [`first_row_within`], [`count_rows_within`] and
//! [`rows_within`] visit rows in order and compare each row's distance to
//! the query against a threshold. Those rows are short (a few limbs), so
//! row order keeps the first-hit early exit and needs no transpose.
//!
//! On x86-64 the kernels runtime-dispatch to copies compiled with the
//! `popcnt` (and, when present, `avx2`) target features: the default
//! x86-64 baseline is SSE2-only, which lowers `u64::count_ones` to a
//! ~12-op SWAR sequence, so hardware popcount alone is worth several× on
//! popcount-bound batches. Dispatch happens once per kernel call (the
//! feature test is a cached atomic load), never inside the hot loop, and
//! every dispatched copy runs the *same* Rust body — hardware popcount
//! computes the same value, so answers cannot depend on the CPU.
//!
//! Every kernel is **byte-identical** to the scalar [`Point::distance`]
//! path — same distances, and (because callers keep their visitation
//! order) the same tie-breaks — which the proptests in
//! `tests/kernel_properties.rs` enforce for every dimension across the
//! tail-limb boundary and every block width.

use std::ops::ControlFlow;

use crate::point::{Point, LIMB_BITS};

/// Points per cache tile: 1024 `u32` accumulators (4 KiB) plus one 8 KiB
/// limb row stay comfortably inside L1 while a tile is being accumulated.
pub const DEFAULT_TILE: usize = 1024;

/// Limbs consumed per unrolled pass of the inner loop (512 bits).
pub const DEFAULT_LIMB_CHUNK: usize = 8;

/// `n` points of one dimension, bit-packed limb-major: limb `l` of point
/// `i` lives at `limbs[l * n + i]`, tail bits beyond `dim` zero (inherited
/// from the [`Point`] invariant, so distances need no masking).
#[derive(Clone, Debug)]
pub struct PackedBlock {
    n: usize,
    dim: u32,
    n_limbs: usize,
    limbs: Box<[u64]>,
}

impl PackedBlock {
    /// Packs a slice of points (all of dimension `dim`) into a block.
    ///
    /// # Panics
    /// Panics if `dim == 0` or any point has a different dimension.
    pub fn from_points(dim: u32, points: &[Point]) -> Self {
        Self::build(dim, points.len(), |i| &points[i])
    }

    /// Packs borrowed points — the scratch path for candidate batches that
    /// were decoded elsewhere (LSH bucket scans).
    pub fn from_refs(dim: u32, points: &[&Point]) -> Self {
        Self::build(dim, points.len(), |i| points[i])
    }

    fn build<'a>(dim: u32, n: usize, point: impl Fn(usize) -> &'a Point) -> Self {
        assert!(dim > 0, "block dimension must be positive");
        let n_limbs = dim.div_ceil(LIMB_BITS) as usize;
        let mut limbs = vec![0u64; n_limbs * n].into_boxed_slice();
        for i in 0..n {
            let p = point(i);
            assert_eq!(p.dim(), dim, "all block points must share one dimension");
            for (l, &limb) in p.limbs().iter().enumerate() {
                limbs[l * n + i] = limb;
            }
        }
        PackedBlock {
            n,
            dim,
            n_limbs,
            limbs,
        }
    }

    /// Number of points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Heap bytes of the packed limbs.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.limbs)
    }

    /// True when the block holds no points (an empty candidate batch).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Ambient dimension `d`.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Reconstructs point `i` (test/debug path; the kernels never do this).
    pub fn point(&self, i: usize) -> Point {
        assert!(i < self.n, "point {i} out of range {}", self.n);
        let limbs = (0..self.n_limbs)
            .map(|l| self.limbs[l * self.n + i])
            .collect();
        Point::from_limbs(self.dim, limbs)
    }

    /// One-vs-many distances: `out[i] = dist(query, point i)`, identical to
    /// the scalar [`Point::distance`] for every point.
    ///
    /// # Panics
    /// Panics if the query dimension differs or `out.len() != self.len()`.
    pub fn distances_into(&self, query: &Point, out: &mut [u32]) {
        self.distances_into_tuned(query, out, DEFAULT_TILE, DEFAULT_LIMB_CHUNK);
    }

    /// Convenience wrapper allocating the output vector.
    pub fn distances(&self, query: &Point) -> Vec<u32> {
        let mut out = vec![0u32; self.n];
        self.distances_into(query, &mut out);
        out
    }

    /// [`PackedBlock::distances_into`] with explicit tile size and limb
    /// chunk width — exposed so the equivalence proptests and the
    /// microbench can sweep every block width; `tile`/`limb_chunk` are
    /// clamped to at least 1. Results never depend on the tuning.
    pub fn distances_into_tuned(
        &self,
        query: &Point,
        out: &mut [u32],
        tile: usize,
        limb_chunk: usize,
    ) {
        assert_eq!(query.dim(), self.dim, "distance between mismatched dims");
        assert_eq!(out.len(), self.n, "output slice must cover the block");
        let tile = tile.max(1);
        let limb_chunk = limb_chunk.max(1);
        let q = query.limbs();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2 (which implies popcnt on every shipping
                // CPU, and we enable both explicitly) verified at runtime.
                return unsafe { self.distances_core_avx2(q, out, tile, limb_chunk) };
            }
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: popcnt verified at runtime.
                return unsafe { self.distances_core_popcnt(q, out, tile, limb_chunk) };
            }
        }
        self.distances_core(q, out, tile, limb_chunk);
    }

    /// The one-vs-many tile loop; inlined into each dispatched copy.
    #[inline(always)]
    fn distances_core(&self, q: &[u64], out: &mut [u32], tile: usize, limb_chunk: usize) {
        let mut start = 0usize;
        while start < self.n {
            let width = tile.min(self.n - start);
            let acc = &mut out[start..start + width];
            acc.fill(0);
            let mut l = 0usize;
            while l < self.n_limbs {
                let step = limb_chunk.min(self.n_limbs - l);
                self.accumulate_chunk(q, l, step, start, acc);
                l += step;
            }
            start += width;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn distances_core_avx2(&self, q: &[u64], out: &mut [u32], tile: usize, chunk: usize) {
        self.distances_core(q, out, tile, chunk);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn distances_core_popcnt(&self, q: &[u64], out: &mut [u32], tile: usize, chunk: usize) {
        self.distances_core(q, out, tile, chunk);
    }

    /// Adds the popcount contribution of limbs `[l, l + step)` to `acc`
    /// (the accumulators of points `[start, start + acc.len())`).
    /// Fixed-width unrolled bodies for the common 4- and 8-limb chunks keep
    /// the query limbs in registers; any other width takes the row-at-a-
    /// time path. All bodies compute exactly the same sums.
    /// `inline(always)` so each feature-dispatched caller gets its own copy
    /// compiled with that caller's target features.
    #[inline(always)]
    fn accumulate_chunk(&self, q: &[u64], l: usize, step: usize, start: usize, acc: &mut [u32]) {
        let width = acc.len();
        let n = self.n;
        let row = |k: usize| &self.limbs[(l + k) * n + start..(l + k) * n + start + width];
        match step {
            4 => {
                let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                let (q0, q1, q2, q3) = (q[l], q[l + 1], q[l + 2], q[l + 3]);
                for i in 0..width {
                    acc[i] += (r0[i] ^ q0).count_ones()
                        + (r1[i] ^ q1).count_ones()
                        + (r2[i] ^ q2).count_ones()
                        + (r3[i] ^ q3).count_ones();
                }
            }
            8 => {
                let (r0, r1, r2, r3) = (row(0), row(1), row(2), row(3));
                let (r4, r5, r6, r7) = (row(4), row(5), row(6), row(7));
                let (q0, q1, q2, q3) = (q[l], q[l + 1], q[l + 2], q[l + 3]);
                let (q4, q5, q6, q7) = (q[l + 4], q[l + 5], q[l + 6], q[l + 7]);
                for i in 0..width {
                    acc[i] += (r0[i] ^ q0).count_ones()
                        + (r1[i] ^ q1).count_ones()
                        + (r2[i] ^ q2).count_ones()
                        + (r3[i] ^ q3).count_ones()
                        + (r4[i] ^ q4).count_ones()
                        + (r5[i] ^ q5).count_ones()
                        + (r6[i] ^ q6).count_ones()
                        + (r7[i] ^ q7).count_ones();
                }
            }
            _ => {
                for k in 0..step {
                    let r = row(k);
                    let ql = q[l + k];
                    for i in 0..width {
                        acc[i] += (r[i] ^ ql).count_ones();
                    }
                }
            }
        }
    }

    /// Many-vs-many distances: `out[qi * n + i] = dist(queries[qi], point
    /// i)`. Tiles over the *data* points on the outside and loops queries
    /// on the inside, so each data tile is reused by every query while it
    /// is hot in cache — the layout win that makes batch probes cheaper
    /// than `queries × distances_into` on large blocks.
    ///
    /// # Panics
    /// Panics on any dimension mismatch or if
    /// `out.len() != queries.len() * self.len()`.
    pub fn many_distances_into(&self, queries: &[Point], out: &mut [u32]) {
        assert_eq!(
            out.len(),
            queries.len() * self.n,
            "output must hold queries × points distances"
        );
        for query in queries {
            assert_eq!(query.dim(), self.dim, "distance between mismatched dims");
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2+popcnt verified at runtime.
                return unsafe { self.many_core_avx2(queries, out) };
            }
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: popcnt verified at runtime.
                return unsafe { self.many_core_popcnt(queries, out) };
            }
        }
        self.many_core(queries, out);
    }

    /// The many-vs-many tile loop; inlined into each dispatched copy.
    #[inline(always)]
    fn many_core(&self, queries: &[Point], out: &mut [u32]) {
        let n = self.n;
        let mut start = 0usize;
        while start < n {
            let width = DEFAULT_TILE.min(n - start);
            for (qi, query) in queries.iter().enumerate() {
                let q = query.limbs();
                let acc = &mut out[qi * n + start..qi * n + start + width];
                acc.fill(0);
                let mut l = 0usize;
                while l < self.n_limbs {
                    let step = DEFAULT_LIMB_CHUNK.min(self.n_limbs - l);
                    self.accumulate_chunk(q, l, step, start, acc);
                    l += step;
                }
            }
            start += width;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn many_core_avx2(&self, queries: &[Point], out: &mut [u32]) {
        self.many_core(queries, out);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn many_core_popcnt(&self, queries: &[Point], out: &mut [u32]) {
        self.many_core(queries, out);
    }

    /// Indices of all points within distance `radius` of the query,
    /// ascending — identical to filtering on scalar distances.
    ///
    /// Early exit: partial per-point sums only grow as limb chunks are
    /// added, so once *every* accumulator of a tile exceeds `radius` the
    /// remaining limb chunks of that tile are skipped — no point it could
    /// still admit exists.
    pub fn within_indices(&self, query: &Point, radius: u32) -> Vec<usize> {
        assert_eq!(query.dim(), self.dim, "distance between mismatched dims");
        let q = query.limbs();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: avx2+popcnt verified at runtime.
                return unsafe { self.within_core_avx2(q, radius) };
            }
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: popcnt verified at runtime.
                return unsafe { self.within_core_popcnt(q, radius) };
            }
        }
        self.within_core(q, radius)
    }

    /// The radius-filter tile loop; inlined into each dispatched copy.
    #[inline(always)]
    fn within_core(&self, q: &[u64], radius: u32) -> Vec<usize> {
        let mut out = Vec::new();
        let mut acc = vec![0u32; DEFAULT_TILE.min(self.n.max(1))];
        let mut start = 0usize;
        while start < self.n {
            let width = DEFAULT_TILE.min(self.n - start);
            let acc = &mut acc[..width];
            acc.fill(0);
            let mut l = 0usize;
            let mut live = true;
            while l < self.n_limbs {
                let step = DEFAULT_LIMB_CHUNK.min(self.n_limbs - l);
                self.accumulate_chunk(q, l, step, start, acc);
                l += step;
                if l < self.n_limbs && acc.iter().all(|&a| a > radius) {
                    live = false;
                    break;
                }
            }
            if live {
                for (i, &d) in acc.iter().enumerate() {
                    if d <= radius {
                        out.push(start + i);
                    }
                }
            }
            start += width;
        }
        out
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn within_core_avx2(&self, q: &[u64], radius: u32) -> Vec<usize> {
        self.within_core(q, radius)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn within_core_popcnt(&self, q: &[u64], radius: u32) -> Vec<usize> {
        self.within_core(q, radius)
    }
}

/// Index of the first row of a row-major slab within Hamming distance `t`
/// of `query`.
///
/// `slab` holds rows of `query.len()` limbs back to back (row `z` at
/// `[z·w, (z+1)·w)`), the layout of the database sketch slabs. The answer
/// is the first `z` whose scalar fold `Σ (row ^ query).count_ones()` is at
/// most `t`.
///
/// # Panics
/// Panics if `query` is empty or `slab.len()` is not a multiple of it.
pub fn first_row_within(slab: &[u64], query: &[u64], t: u32) -> Option<usize> {
    let mut first = None;
    scan_rows(slab, query, t, |z| {
        first = Some(z);
        ControlFlow::Break(())
    });
    first
}

/// Number of rows of a row-major slab within Hamming distance `t` of
/// `query` (layout as in [`first_row_within`]).
pub fn count_rows_within(slab: &[u64], query: &[u64], t: u32) -> usize {
    let mut count = 0;
    scan_rows(slab, query, t, |_| {
        count += 1;
        ControlFlow::Continue(())
    });
    count
}

/// Indices of all rows of a row-major slab within Hamming distance `t` of
/// `query`, ascending (layout as in [`first_row_within`]).
pub fn rows_within(slab: &[u64], query: &[u64], t: u32) -> Vec<usize> {
    let mut out = Vec::new();
    scan_rows(slab, query, t, |z| {
        out.push(z);
        ControlFlow::Continue(())
    });
    out
}

/// Calls `visit` on every row within `t` of `query`, in order, until it
/// breaks; dispatched once per scan like the block kernels above.
fn scan_rows(slab: &[u64], query: &[u64], t: u32, mut visit: impl FnMut(usize) -> ControlFlow<()>) {
    assert!(!query.is_empty(), "slab rows need at least one limb");
    assert_eq!(
        slab.len() % query.len(),
        0,
        "slab length must be a whole number of rows"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2+popcnt verified at runtime.
            return unsafe { scan_rows_avx2(slab, query, t, &mut visit) };
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: popcnt verified at runtime.
            return unsafe { scan_rows_popcnt(slab, query, t, &mut visit) };
        }
    }
    scan_rows_core(slab, query, t, &mut visit);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "popcnt")]
unsafe fn scan_rows_avx2(
    slab: &[u64],
    query: &[u64],
    t: u32,
    visit: &mut impl FnMut(usize) -> ControlFlow<()>,
) {
    scan_rows_core(slab, query, t, visit);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn scan_rows_popcnt(
    slab: &[u64],
    query: &[u64],
    t: u32,
    visit: &mut impl FnMut(usize) -> ControlFlow<()>,
) {
    scan_rows_core(slab, query, t, visit);
}

/// The row scan; widths up to 8 limbs get a fixed-width body whose query
/// limbs stay in registers — at 6 limbs (360-row sketches) and 32768 rows
/// it scanned about 1.7× faster than the generic loop on a 2-vCPU AVX2
/// host. Inlined into each dispatched copy.
#[inline(always)]
fn scan_rows_core(
    slab: &[u64],
    query: &[u64],
    t: u32,
    visit: &mut impl FnMut(usize) -> ControlFlow<()>,
) {
    match query.len() {
        1 => scan_rows_fixed::<1>(slab, query, t, visit),
        2 => scan_rows_fixed::<2>(slab, query, t, visit),
        3 => scan_rows_fixed::<3>(slab, query, t, visit),
        4 => scan_rows_fixed::<4>(slab, query, t, visit),
        5 => scan_rows_fixed::<5>(slab, query, t, visit),
        6 => scan_rows_fixed::<6>(slab, query, t, visit),
        7 => scan_rows_fixed::<7>(slab, query, t, visit),
        8 => scan_rows_fixed::<8>(slab, query, t, visit),
        w => {
            for (z, row) in slab.chunks_exact(w).enumerate() {
                let dist: u32 = row
                    .iter()
                    .zip(query)
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                if dist <= t && visit(z).is_break() {
                    return;
                }
            }
        }
    }
}

#[inline(always)]
fn scan_rows_fixed<const W: usize>(
    slab: &[u64],
    query: &[u64],
    t: u32,
    visit: &mut impl FnMut(usize) -> ControlFlow<()>,
) {
    let q: [u64; W] = query.try_into().expect("query width");
    for (z, row) in slab.chunks_exact(W).enumerate() {
        let mut dist = 0u32;
        for k in 0..W {
            dist += (row[k] ^ q[k]).count_ones();
        }
        if dist <= t && visit(z).is_break() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_points(n: usize, d: u32, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point::random(d, &mut rng)).collect()
    }

    #[test]
    fn roundtrips_points_through_the_block() {
        for d in [1u32, 63, 64, 65, 130, 512] {
            let pts = random_points(7, d, u64::from(d));
            let block = PackedBlock::from_points(d, &pts);
            assert_eq!(block.len(), 7);
            assert_eq!(block.dim(), d);
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(&block.point(i), p, "d={d} i={i}");
            }
        }
    }

    #[test]
    fn one_vs_many_matches_scalar_across_tail_boundary() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in [1u32, 2, 63, 64, 65, 127, 128, 129, 512, 1000] {
            let pts = random_points(50, d, u64::from(d) + 1);
            let q = Point::random(d, &mut rng);
            let block = PackedBlock::from_points(d, &pts);
            let got = block.distances(&q);
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(got[i], q.distance(p), "d={d} i={i}");
            }
        }
    }

    #[test]
    fn tuned_kernels_agree_for_every_block_width() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = 519;
        let pts = random_points(33, d, 3);
        let q = Point::random(d, &mut rng);
        let block = PackedBlock::from_points(d, &pts);
        let reference = block.distances(&q);
        let mut out = vec![0u32; pts.len()];
        for tile in [1usize, 2, 7, 33, 64, 4096] {
            for chunk in 1..=9 {
                block.distances_into_tuned(&q, &mut out, tile, chunk);
                assert_eq!(out, reference, "tile={tile} chunk={chunk}");
            }
        }
    }

    #[test]
    fn many_vs_many_matches_scalar() {
        let d = 200;
        let pts = random_points(70, d, 4);
        let queries = random_points(5, d, 5);
        let block = PackedBlock::from_points(d, &pts);
        let mut out = vec![0u32; queries.len() * pts.len()];
        block.many_distances_into(&queries, &mut out);
        for (qi, q) in queries.iter().enumerate() {
            for (i, p) in pts.iter().enumerate() {
                assert_eq!(out[qi * pts.len() + i], q.distance(p), "q={qi} i={i}");
            }
        }
    }

    #[test]
    fn within_indices_matches_scalar_filter() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = 320;
        let pts = random_points(60, d, 7);
        let q = Point::random(d, &mut rng);
        let block = PackedBlock::from_points(d, &pts);
        for r in [0u32, 5, 100, 150, 160, 200, 320] {
            let got = block.within_indices(&q, r);
            let expect: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| q.distance(p) <= r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(got, expect, "r={r}");
        }
    }

    #[test]
    fn empty_block_is_fine() {
        let block = PackedBlock::from_points(64, &[]);
        assert!(block.is_empty());
        let q = Point::zeros(64);
        assert!(block.distances(&q).is_empty());
        assert!(block.within_indices(&q, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "mismatched dims")]
    fn mismatched_query_dimension_panics() {
        let block = PackedBlock::from_points(64, &random_points(3, 64, 8));
        let q = Point::zeros(65);
        let _ = block.distances(&q);
    }

    #[test]
    #[should_panic(expected = "share one dimension")]
    fn mixed_point_dimensions_panic() {
        let _ = PackedBlock::from_points(64, &[Point::zeros(64), Point::zeros(65)]);
    }
}
