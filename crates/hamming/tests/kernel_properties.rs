//! Property-based equivalence tests for the bit-sliced kernel layer.
//!
//! Every kernel in [`anns_hamming::kernel`] must be byte-identical to the
//! scalar [`Point::distance`] loop — across the tail-limb boundary (d = 63,
//! 64, 65, …), for every limb-chunk width the tuned entry point accepts,
//! and through the `Dataset` surfaces (`exact_nn`, `within`, `k_nearest`,
//! `DistanceHistogram`) that now route over the packed view.

use anns_hamming::kernel::{count_rows_within, first_row_within, rows_within};
use anns_hamming::{gen, k_nearest, Dataset, DistanceHistogram, PackedBlock, Point};
use anns_store::Codec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scalar reference: one-vs-many distances via `Point::distance`.
fn scalar_distances(query: &Point, points: &[Point]) -> Vec<u32> {
    points.iter().map(|p| query.distance(p)).collect()
}

fn random_points(n: usize, d: u32, seed: u64) -> (Vec<Point>, Point) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Point> = (0..n).map(|_| Point::random(d, &mut rng)).collect();
    let query = Point::random(d, &mut rng);
    (points, query)
}

/// Scalar reference for the row-major slab scans: each row's distance as
/// the plain `count_ones` fold.
fn scalar_row_distances(slab: &[u64], query: &[u64]) -> Vec<u32> {
    slab.chunks_exact(query.len())
        .map(|row| {
            row.iter()
                .zip(query)
                .fold(0, |acc, (a, b)| acc + (a ^ b).count_ones())
        })
        .collect()
}

/// Checks all three slab scans against the scalar fold at every threshold
/// edge: 0, `u32::MAX`, and one below, at and above each row's distance.
fn assert_slab_scans_match(slab: &[u64], query: &[u64]) {
    let dists = scalar_row_distances(slab, query);
    let mut thresholds = vec![0, u32::MAX];
    for &d in &dists {
        thresholds.extend([d.saturating_sub(1), d, d + 1]);
    }
    for t in thresholds {
        let expect: Vec<usize> = (0..dists.len()).filter(|&z| dists[z] <= t).collect();
        assert_eq!(rows_within(slab, query, t), expect, "t={t}");
        assert_eq!(count_rows_within(slab, query, t), expect.len(), "t={t}");
        assert_eq!(
            first_row_within(slab, query, t),
            expect.first().copied(),
            "t={t}"
        );
    }
}

/// Strategy: dimensions covering the whole 1..=1024 range so the tail limb
/// takes every possible width, plus a point count and a seed.
fn shape() -> impl Strategy<Value = (u32, usize, u64)> {
    (1u32..=1024, 1usize..80, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-vs-many kernel equals the scalar loop for arbitrary shapes.
    #[test]
    fn distances_match_scalar((d, n, seed) in shape()) {
        let (points, query) = random_points(n, d, seed);
        let block = PackedBlock::from_points(d, &points);
        prop_assert_eq!(block.distances(&query), scalar_distances(&query, &points));
    }

    /// The tuned entry point is invariant under every tile size and limb
    /// chunk width — including widths past the fixed-width unrolled arms.
    #[test]
    fn tuned_sweep_is_invariant((d, n, seed) in shape()) {
        let (points, query) = random_points(n, d, seed);
        let block = PackedBlock::from_points(d, &points);
        let reference = scalar_distances(&query, &points);
        let mut out = vec![0u32; n];
        for limb_chunk in 1..=9usize {
            for tile in [1usize, 2, 7, n, n + 13, 1024] {
                block.distances_into_tuned(&query, &mut out, tile, limb_chunk);
                prop_assert_eq!(&out, &reference, "tile {} chunk {}", tile, limb_chunk);
            }
        }
    }

    /// Many-vs-many kernel equals per-query scalar loops, in query order.
    #[test]
    fn many_distances_match_scalar((d, n, seed) in shape(), q in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<Point> = (0..n).map(|_| Point::random(d, &mut rng)).collect();
        let queries: Vec<Point> = (0..q).map(|_| Point::random(d, &mut rng)).collect();
        let block = PackedBlock::from_points(d, &points);
        let mut out = vec![0u32; q * n];
        block.many_distances_into(&queries, &mut out);
        for (qi, query) in queries.iter().enumerate() {
            prop_assert_eq!(&out[qi * n..(qi + 1) * n], &scalar_distances(query, &points)[..]);
        }
    }

    /// The threshold-early-exit radius kernel returns exactly the scalar
    /// filter, in index order, for every radius.
    #[test]
    fn within_indices_match_scalar((d, n, seed) in shape(), r_frac in 0.0f64..=1.0) {
        let (points, query) = random_points(n, d, seed);
        let block = PackedBlock::from_points(d, &points);
        let radius = ((d as f64) * r_frac).floor() as u32;
        let expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| query.distance(p) <= radius)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(block.within_indices(&query, radius), expect);
    }

    /// Heap-based kNN over the kernel output equals sort-and-truncate over
    /// scalar distances, including the (distance, index) tie-break.
    #[test]
    fn k_nearest_matches_sorted_scan((d, n, seed) in shape(), k in 0usize..90) {
        let (points, query) = random_points(n, d, seed);
        let ds = Dataset::new(points.clone());
        let got = k_nearest(&ds, &query, k);
        let mut expect: Vec<(u32, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (query.distance(p), i))
            .collect();
        expect.sort_unstable();
        expect.truncate(k);
        prop_assert_eq!(got.len(), expect.len());
        for (g, (dist, idx)) in got.iter().zip(&expect) {
            prop_assert_eq!((g.distance, g.index), (*dist, *idx));
        }
    }

    /// The kernelized histogram still counts every point exactly once and
    /// buckets it by its scalar distance.
    #[test]
    fn histogram_matches_scalar((d, n, seed) in shape(), width in 1u32..64) {
        let (points, query) = random_points(n, d, seed);
        let ds = Dataset::new(points.clone());
        let hist = DistanceHistogram::build(&ds, &query, width);
        prop_assert_eq!(hist.total(), n);
        let mut expect = vec![0usize; hist.counts.len()];
        for p in &points {
            expect[(query.distance(p) / width) as usize] += 1;
        }
        prop_assert_eq!(&hist.counts, &expect);
    }

    /// `Dataset` survives a store-codec round trip and rebuilds an
    /// identical packed view lazily (the cache itself is never encoded).
    #[test]
    fn dataset_codec_roundtrip(seed in any::<u64>(), n in 1usize..40, d in 1u32..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = gen::uniform(n, d, &mut rng);
        let query = Point::random(d, &mut rng);
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        prop_assert_eq!(back.points(), ds.points());
        prop_assert_eq!(back.packed().distances(&query), ds.packed().distances(&query));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-major slab scans equal the scalar fold for widths 1–9
    /// limbs (both sides of the fixed-width arms), empty slabs included.
    #[test]
    fn slab_scans_match_scalar_fold(w in 1usize..=9, rows in 0usize..40, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query: Vec<u64> = (0..w).map(|_| rng.gen()).collect();
        // Rows near the query (sparse noise), so small thresholds split
        // the slab instead of rejecting every row.
        let slab: Vec<u64> = (0..rows * w)
            .map(|k| query[k % w] ^ (rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>()))
            .collect();
        assert_slab_scans_match(&slab, &query);
    }
}

#[test]
fn empty_slabs_scan_to_nothing() {
    for w in 1..=9 {
        let query = vec![u64::MAX; w];
        assert_slab_scans_match(&[], &query);
        assert_eq!(first_row_within(&[], &query, u32::MAX), None);
        assert_eq!(count_rows_within(&[], &query, u32::MAX), 0);
    }
}

/// The tail-limb boundary dims, pinned explicitly: one limb exactly full,
/// one bit either side, and the two headline full-limb shapes.
#[test]
fn boundary_dims_exhaustive() {
    for d in [1u32, 63, 64, 65, 127, 128, 129, 512, 1024] {
        let (points, query) = random_points(33, d, u64::from(d) * 1009 + 17);
        let block = PackedBlock::from_points(d, &points);
        assert_eq!(
            block.distances(&query),
            scalar_distances(&query, &points),
            "d = {d}"
        );
        let mut out = vec![0u32; points.len()];
        for limb_chunk in 1..=9usize {
            block.distances_into_tuned(&query, &mut out, 8, limb_chunk);
            assert_eq!(
                out,
                scalar_distances(&query, &points),
                "d = {d} chunk {limb_chunk}"
            );
        }
    }
}
