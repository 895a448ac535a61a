//! Preprocessing cost: index construction at the serving benchmark's
//! d = 512 shape (n = 8192 is its in-memory `hot-online` index, n = 32768
//! its `unique-large` one).
//!
//! The paper charges preprocessing nothing (the cell-probe model measures
//! queries); the lazy-oracle implementation's real build cost is sketching
//! the database under every `M_i`, and under every `N_j` once Algorithm 2
//! needs them. `SketchMatrix::sketch_all_into` does that bit-sliced: a
//! block of 512 points is transposed once so each input column is one
//! 512-bit word, a sketch row of the whole block is the XOR of the words
//! at the row's set columns, listed once per matrix (a row costs its
//! weight, which falls geometrically with the scale), and each 64-row
//! group is transposed back into the slab. The per-query row path
//! (`SketchMatrix::sketch`) takes one AND+parity pass per row; the `m0_*`
//! pair compares the two on the densest matrix. `DbSketches::build`
//! sketches the `M_i` half, then the `N_j` half, each in one pass over
//! the point blocks on `min(threads, available parallelism)` workers,
//! each running every matrix of the half over its block; the thread
//! sweep therefore stops at this
//! machine's available parallelism, above which every count measures the
//! same thing. `ann_index_n*` is `AnnIndex::build`, which sketches the
//! `M_i` half only; `ann_index_alg2_ready_n*` adds the `N_j` half as
//! registering an Algorithm 2 shard forces it, so the deferred work stays
//! measured. `db_sketches_n32768` is the `unique-large` build at the
//! default `BuildOptions` thread count. Each line prints the median
//! sample with its `[min, max]`.

use criterion::{criterion_group, criterion_main, Criterion};

use anns_core::{AnnIndex, BuildOptions};
use anns_hamming::gen;
use anns_lsh::{LshIndex, LshParams};
use anns_sketch::{DbSketches, SketchFamily, SketchParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: u32 = 512;

fn bench_builds(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sweep = vec![1, cores];
    sweep.dedup();
    let mut group = c.benchmark_group("build_throughput");
    group.sample_size(10);
    for n in [2048usize, 8192] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let ds = gen::uniform(n, D, &mut rng);
        let params = SketchParams::practical(2.0, 7);
        let family = SketchFamily::generate(D, n, &params);
        let m0 = &family.m_matrices()[0];
        let mut slab = vec![0u64; n * m0.sketch_limbs()];
        group.bench_function(format!("m0_sketch_all_into_n{n}"), |b| {
            b.iter(|| m0.sketch_all_into(ds.points(), &mut slab))
        });
        group.bench_function(format!("m0_row_path_n{n}"), |b| {
            b.iter(|| ds.points().iter().map(|x| m0.sketch(x)).collect::<Vec<_>>())
        });
        for &threads in &sweep {
            group.bench_function(format!("db_sketches_n{n}_t{threads}"), |b| {
                b.iter(|| DbSketches::build(&family, &ds, threads))
            });
            group.bench_function(format!("ann_index_n{n}_t{threads}"), |b| {
                b.iter(|| {
                    AnnIndex::build(
                        ds.clone(),
                        params,
                        BuildOptions {
                            threads,
                            ..BuildOptions::default()
                        },
                    )
                })
            });
        }
        group.bench_function(format!("ann_index_alg2_ready_n{n}"), |b| {
            b.iter(|| {
                let index = AnnIndex::build(ds.clone(), params, BuildOptions::default());
                index.db_sketches();
                index
            })
        });
        group.bench_function(format!("lsh_n{n}"), |b| {
            let lsh = LshParams::for_radius(n, D, 8.0, 2.0, 1.0);
            b.iter(|| {
                let mut rng2 = StdRng::seed_from_u64(9);
                LshIndex::build(ds.clone(), lsh, &mut rng2)
            })
        });
    }
    let n = 32768;
    let mut rng = StdRng::seed_from_u64(n as u64);
    let ds = gen::uniform(n, D, &mut rng);
    let family = SketchFamily::generate(D, n, &SketchParams::practical(2.0, 7));
    let threads = BuildOptions::default().threads;
    group.bench_function(format!("db_sketches_n{n}"), |b| {
        b.iter(|| DbSketches::build(&family, &ds, threads))
    });
    group.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
