//! The batch kernel `SketchMatrix::sketch_all_into` is bit-identical to
//! the per-point row path `SketchMatrix::sketch`, across partial input and
//! output limbs, partial 64-point groups and point blocks, column indices
//! past 16 bits, and every density regime.

use anns_hamming::Point;
use anns_sketch::matrix::BLOCK_POINTS;
use anns_sketch::SketchMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIMS: [u32; 10] = [1, 3, 63, 64, 65, 127, 129, 256, 512, 1000];
const ROWS: [u32; 6] = [1, 63, 64, 65, 180, 360];
const DENSITIES: [f64; 4] = [0.0, 1.0 / 2048.0, 0.25, 1.0];
/// Batch sizes around the kernel's 64-point groups and point blocks,
/// ending with three blocks and a partial one.
const BATCHES: [usize; 9] = [
    0,
    1,
    63,
    64,
    65,
    BLOCK_POINTS - 1,
    BLOCK_POINTS,
    BLOCK_POINTS + 1,
    3 * BLOCK_POINTS + 17,
];

/// `n` points: the all-ones point, then uniform ones.
fn points(n: usize, d: u32, rng: &mut StdRng) -> Vec<Point> {
    (0..n)
        .map(|k| {
            if k == 0 {
                Point::ones(d)
            } else {
                Point::random(d, rng)
            }
        })
        .collect()
}

fn assert_kernel_matches_rows(d: u32, rows: u32, p: f64, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = SketchMatrix::sample(rows, d, p, &mut rng);
    let xs = points(n, d, &mut rng);
    let w = m.sketch_limbs();
    let mut batch = vec![u64::MAX; xs.len() * w];
    m.sketch_all_into(&xs, &mut batch);
    for (k, (got, x)) in batch.chunks_exact(w).zip(&xs).enumerate() {
        assert_eq!(
            got,
            m.sketch(x).limbs(),
            "d={d} rows={rows} p={p} point {k}"
        );
    }
}

#[test]
fn every_grid_shape_matches_the_row_path() {
    for (k, &d) in DIMS.iter().enumerate() {
        for &rows in &ROWS {
            for &p in &DENSITIES {
                assert_kernel_matches_rows(d, rows, p, 4, k as u64);
            }
        }
    }
}

#[test]
fn every_batch_size_around_the_block_matches_the_row_path() {
    for &n in &BATCHES {
        for (d, rows) in [(65, 65), (512, 360)] {
            for p in [1.0 / 2048.0, 0.25] {
                assert_kernel_matches_rows(d, rows, p, n, n as u64);
            }
        }
    }
}

#[test]
fn columns_past_sixteen_bits_are_not_truncated() {
    // 4,464 columns at index 65,536 or more: a column index narrowed to
    // 16 bits would alias them onto the first ones.
    for p in [1.0 / 2048.0, 0.25] {
        assert_kernel_matches_rows(70_000, 65, p, 65, 3);
    }
}

#[test]
fn an_empty_batch_sketches_to_nothing() {
    let mut rng = StdRng::seed_from_u64(1);
    let m = SketchMatrix::sample(65, 129, 0.25, &mut rng);
    m.sketch_all_into(&[], &mut []);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn a_mismatched_point_panics() {
    let mut rng = StdRng::seed_from_u64(2);
    let m = SketchMatrix::sample(8, 64, 0.25, &mut rng);
    m.sketch_all_into(&[Point::zeros(64), Point::zeros(65)], &mut [0; 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_all_equals_pointwise_sketch(
        d in 0..DIMS.len(),
        rows in 0..ROWS.len(),
        p in 0..DENSITIES.len(),
        n in 0usize..24,
        seed in any::<u64>(),
    ) {
        assert_kernel_matches_rows(DIMS[d], ROWS[rows], DENSITIES[p], n, seed);
    }
}
