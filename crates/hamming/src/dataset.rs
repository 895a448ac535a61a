//! Databases of Hamming points with exact ground truth.
//!
//! [`Dataset`] is the `B ⊆ {0,1}^d, |B| = n` of the paper. Besides storage
//! it provides the two oracles every experiment needs:
//!
//! * exact nearest neighbors (brute force — the ground truth all approximate
//!   answers are judged against), and
//! * the *ball profile* of a query: the sizes of
//!   `B_i = {y ∈ B : dist(x, y) ≤ α^i}` for `i = 0..⌈log_α d⌉` (paper §3
//!   eq. (1)), which drives both the correctness proofs and the synthetic
//!   instance backend.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::ceil_log_alpha;
use crate::kernel::PackedBlock;
use crate::point::{Point, LIMB_BITS};

/// An exact nearest neighbor: index into the dataset plus its distance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExactNeighbor {
    /// Index of the nearest database point.
    pub index: usize,
    /// Its Hamming distance to the query.
    pub distance: u32,
}

/// The sizes of the paper's distance balls `B_i` around one query.
///
/// `sizes[i] = |{y ∈ B : dist(x,y) ≤ α^i}|` for `i = 0..=⌈log_α d⌉`.
/// `B_{⌈log_α d⌉}` always equals the whole database since `α^{⌈log_α d⌉} ≥ d`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BallProfile {
    /// `|B_i|` for each scale `i`.
    pub sizes: Vec<usize>,
    /// The exact nearest-neighbor distance (`min_z dist(x,z)`).
    pub nn_distance: u32,
}

impl BallProfile {
    /// Smallest scale `i` with `B_i` non-empty.
    pub fn first_nonempty(&self) -> usize {
        self.sizes
            .iter()
            .position(|&s| s > 0)
            .expect("profile of a non-empty database has a non-empty top ball")
    }

    /// Number of scales (`⌈log_α d⌉ + 1`).
    pub fn num_scales(&self) -> usize {
        self.sizes.len()
    }
}

/// A database of `n` points in `{0,1}^d`.
///
/// Carries a lazily built limb-major [`PackedBlock`] view so the batch
/// kernels (exact NN, kNN, histograms, ball profiles) pay the transpose
/// once per database instead of once per query. The cache is derived
/// state: the store codec never encodes it, and it is rebuilt on demand,
/// which is sound because points are immutable after construction.
#[derive(Clone, Debug)]
pub struct Dataset {
    dim: u32,
    points: Vec<Point>,
    packed: OnceLock<PackedBlock>,
}

impl Dataset {
    /// Wraps a vector of points; all must share the same dimension.
    ///
    /// # Panics
    /// Panics if `points` is empty or dimensions are inconsistent.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(!points.is_empty(), "database must be non-empty");
        let dim = points[0].dim();
        assert!(
            points.iter().all(|p| p.dim() == dim),
            "all database points must share one dimension"
        );
        Dataset {
            dim,
            points,
            packed: OnceLock::new(),
        }
    }

    /// The limb-major kernel view of the database, built on first use and
    /// cached for the dataset's lifetime.
    pub fn packed(&self) -> &PackedBlock {
        self.packed
            .get_or_init(|| PackedBlock::from_points(self.dim, &self.points))
    }

    /// Ambient dimension `d`.
    #[inline]
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Database size `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false (construction rejects empty databases); provided for
    /// clippy-idiomatic pairing with [`Dataset::len`].
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Heap bytes of the points (each a limb box behind its header) and
    /// of the packed kernel view once it is built, from their lengths.
    pub fn heap_bytes(&self) -> usize {
        let limbs = self.dim.div_ceil(LIMB_BITS) as usize * 8;
        let points = self.points.len() * (std::mem::size_of::<Point>() + limbs);
        points + self.packed.get().map_or(0, PackedBlock::heap_bytes)
    }

    /// The points.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Point by index.
    #[inline]
    pub fn point(&self, i: usize) -> &Point {
        &self.points[i]
    }

    /// Exact nearest neighbor by brute force over the batched kernel
    /// distances (ties broken by lowest index — the first strict minimum
    /// in index order, exactly as the scalar scan resolved them).
    pub fn exact_nn(&self, query: &Point) -> ExactNeighbor {
        let dists = self.packed().distances(query);
        let mut best = ExactNeighbor {
            index: 0,
            distance: u32::MAX,
        };
        for (i, &dist) in dists.iter().enumerate() {
            if dist < best.distance {
                best = ExactNeighbor {
                    index: i,
                    distance: dist,
                };
                if dist == 0 {
                    break;
                }
            }
        }
        best
    }

    /// All indices within distance `r` of the query (the ball `B` at radius
    /// `r`), ascending — the kernel's threshold-early-exit radius filter.
    pub fn within(&self, query: &Point, r: u32) -> Vec<usize> {
        self.packed().within_indices(query, r)
    }

    /// The paper's ball profile `i ↦ |B_i|` for `B_i = {y : dist ≤ α^i}`,
    /// `i = 0..=⌈log_α d⌉`.
    pub fn ball_profile(&self, query: &Point, alpha: f64) -> BallProfile {
        let top = ceil_log_alpha(self.dim as u64, alpha) as usize;
        let mut sizes = vec![0usize; top + 1];
        let mut nn = u32::MAX;
        for &dist in &self.packed().distances(query) {
            nn = nn.min(dist);
            // Smallest scale i with scale_radius(i) ≥ dist (see
            // `crate::scale_radius` for the integer-radius convention):
            // dist 0 → B_0, dist 1 → B_1, dist ≥ 2 → ⌈log_α dist⌉.
            let first = if dist <= 1 {
                dist as usize
            } else {
                ceil_log_alpha(dist as u64, alpha) as usize
            };
            if first <= top {
                sizes[first] += 1;
            }
        }
        // Prefix sums: a point inside B_i is inside every larger ball.
        for i in 1..=top {
            sizes[i] += sizes[i - 1];
        }
        BallProfile {
            sizes,
            nn_distance: nn,
        }
    }

    /// Checks whether `candidate` is a γ-approximate nearest neighbor of
    /// `query` in this database (`dist(x, z) ≤ γ · min_y dist(x, y)`).
    pub fn is_gamma_approximate_nn(&self, query: &Point, candidate: &Point, gamma: f64) -> bool {
        let opt = self.exact_nn(query).distance as f64;
        let got = query.distance(candidate) as f64;
        got <= gamma * opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_ds(seed: u64, n: usize, d: u32) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new((0..n).map(|_| Point::random(d, &mut rng)).collect())
    }

    #[test]
    fn exact_nn_finds_identical_point() {
        let ds = small_ds(1, 50, 64);
        for i in 0..ds.len() {
            let nn = ds.exact_nn(ds.point(i));
            assert_eq!(nn.distance, 0);
            assert_eq!(ds.point(nn.index), ds.point(i));
        }
    }

    #[test]
    fn exact_nn_matches_full_scan_minimum() {
        let ds = small_ds(2, 80, 96);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let q = Point::random(96, &mut rng);
            let nn = ds.exact_nn(&q);
            let min = ds.points().iter().map(|p| q.distance(p)).min().unwrap();
            assert_eq!(nn.distance, min);
        }
    }

    #[test]
    fn within_agrees_with_exact_distances() {
        let ds = small_ds(4, 60, 64);
        let mut rng = StdRng::seed_from_u64(5);
        let q = Point::random(64, &mut rng);
        for r in [0u32, 5, 20, 32, 64] {
            let inside = ds.within(&q, r);
            for (i, p) in ds.points().iter().enumerate() {
                assert_eq!(inside.contains(&i), q.distance(p) <= r);
            }
        }
    }

    #[test]
    fn ball_profile_is_monotone_and_tops_at_n() {
        let ds = small_ds(6, 100, 128);
        let mut rng = StdRng::seed_from_u64(7);
        let alpha = std::f64::consts::SQRT_2;
        for _ in 0..10 {
            let q = Point::random(128, &mut rng);
            let prof = ds.ball_profile(&q, alpha);
            for w in prof.sizes.windows(2) {
                assert!(w[0] <= w[1], "profile must be monotone");
            }
            assert_eq!(*prof.sizes.last().unwrap(), ds.len());
        }
    }

    #[test]
    fn ball_profile_matches_direct_counts() {
        let ds = small_ds(8, 40, 64);
        let mut rng = StdRng::seed_from_u64(9);
        let alpha = 1.3f64;
        let q = Point::random(64, &mut rng);
        let prof = ds.ball_profile(&q, alpha);
        for (i, &size) in prof.sizes.iter().enumerate() {
            let radius = crate::scale_radius(i as u32, alpha);
            let direct = ds.within(&q, radius).len();
            assert_eq!(size, direct, "scale {i} (radius {radius})");
        }
    }

    #[test]
    fn ball_profile_nn_distance_matches_exact() {
        let ds = small_ds(10, 70, 80);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let q = Point::random(80, &mut rng);
            let prof = ds.ball_profile(&q, 1.5);
            assert_eq!(prof.nn_distance, ds.exact_nn(&q).distance);
        }
    }

    #[test]
    fn gamma_approximation_check() {
        let ds = small_ds(12, 30, 64);
        let mut rng = StdRng::seed_from_u64(13);
        let q = Point::random(64, &mut rng);
        let nn = ds.exact_nn(&q);
        assert!(ds.is_gamma_approximate_nn(&q, ds.point(nn.index), 1.0));
        // A far random point is (whp) not a 1.01-approx NN unless it ties.
        let far = Point::ones(64);
        let is_approx = ds.is_gamma_approximate_nn(&q, &far, 1.01);
        let ratio = q.distance(&far) as f64 / nn.distance.max(1) as f64;
        assert_eq!(is_approx, ratio <= 1.01 || q.distance(&far) == 0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_database() {
        let _ = Dataset::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn rejects_mixed_dimensions() {
        let _ = Dataset::new(vec![Point::zeros(8), Point::zeros(9)]);
    }
}
