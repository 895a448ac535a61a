//! Kernel throughput: the limb-major `PackedBlock` batch distance kernels
//! vs the scalar per-`Point` loop, at the d = 512 shape `annsctl
//! bench-kernels` headlines (8 limbs — the fully unrolled chunk).
//!
//! The CI `microbench-gate` job runs this in quick mode alongside
//! `annsctl bench-kernels`, whose JSON output is what `annsctl bench-gate
//! --current … --reference BENCH_kernels_quick.json` actually compares;
//! the criterion numbers are the human-readable side of the same
//! measurement.

use criterion::{criterion_group, criterion_main, Criterion};

use anns_hamming::{gen, PackedBlock, Point};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4096;
const D: u32 = 512;
const QUERIES: usize = 8;

struct Fixture {
    points: Vec<Point>,
    block: PackedBlock,
    queries: Vec<Point>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(7);
    let ds = gen::uniform(N, D, &mut rng);
    let points = ds.points().to_vec();
    let block = PackedBlock::from_points(D, &points);
    let queries = (0..QUERIES).map(|_| Point::random(D, &mut rng)).collect();
    Fixture {
        points,
        block,
        queries,
    }
}

fn bench_kernels(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("kernel_throughput");
    group.sample_size(20);

    group.bench_function("scalar_point_distance", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for q in &f.queries {
                for p in &f.points {
                    sum += u64::from(q.distance(p));
                }
            }
            sum
        })
    });

    group.bench_function("one_vs_many", |b| {
        let mut out = vec![0u32; N];
        b.iter(|| {
            let mut sum = 0u64;
            for q in &f.queries {
                f.block.distances_into(q, &mut out);
                sum += out.iter().map(|&x| u64::from(x)).sum::<u64>();
            }
            sum
        })
    });

    group.bench_function("many_vs_many", |b| {
        let mut out = vec![0u32; N * QUERIES];
        b.iter(|| {
            f.block.many_distances_into(&f.queries, &mut out);
            out.iter().map(|&x| u64::from(x)).sum::<u64>()
        })
    });

    group.bench_function("within_radius_early_exit", |b| {
        b.iter(|| {
            f.queries
                .iter()
                .map(|q| f.block.within_indices(q, D / 8).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
