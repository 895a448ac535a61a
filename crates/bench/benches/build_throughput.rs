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
//! default `BuildOptions` thread count. `save_bundle_n*` times
//! `Registry::save_bundle` of one Algorithm 1 shard over an index built
//! once with its `N` half forced (a 47.6 MB bundle at n = 32768): the
//! streamed encode, the writeback kicked per MiB, `sync_all`, the rename
//! and the directory sync, into a file under the system temporary
//! directory, so it measures that directory's device.
//! `save_bundle_alg1_n32768` saves the same shard over the index never
//! forced, as `unique-large` saves it: a bundle without the `N` slabs
//! (32.7 MB). Each line prints the median sample with its `[min, max]`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};

use anns_core::{AnnIndex, BuildOptions};
use anns_engine::testkit::TempDir;
use anns_engine::Registry;
use anns_hamming::gen;
use anns_lsh::{LshIndex, LshParams};
use anns_sketch::{DbSketches, SketchFamily, SketchParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: u32 = 512;

/// Times saving `index` as a one-shard Algorithm 1 bundle, as bench
/// `name`.
fn bench_save(group: &mut BenchmarkGroup<'_>, name: &str, index: Arc<AnnIndex>) {
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", index, 3);
    let dir = TempDir::new(name);
    let path = dir.file("bundle.anns");
    group.bench_function(name, |b| {
        b.iter(|| registry.save_bundle(&path).expect("save"))
    });
}

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
        if n == 8192 {
            let index = Arc::new(AnnIndex::build(ds, params, BuildOptions::default()));
            index.db_sketches();
            bench_save(&mut group, &format!("save_bundle_n{n}"), index);
        }
    }
    let n = 32768;
    let mut rng = StdRng::seed_from_u64(n as u64);
    let ds = gen::uniform(n, D, &mut rng);
    let params = SketchParams::practical(2.0, 7);
    let family = SketchFamily::generate(D, n, &params);
    let threads = BuildOptions::default().threads;
    group.bench_function(format!("db_sketches_n{n}"), |b| {
        b.iter(|| DbSketches::build(&family, &ds, threads))
    });
    drop(family);
    let index = Arc::new(AnnIndex::build(ds, params, BuildOptions::default()));
    bench_save(
        &mut group,
        &format!("save_bundle_alg1_n{n}"),
        Arc::clone(&index),
    );
    index.db_sketches();
    bench_save(&mut group, &format!("save_bundle_n{n}"), index);
    group.finish();
}

criterion_group!(benches, bench_builds);
criterion_main!(benches);
