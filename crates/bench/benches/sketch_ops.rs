//! Micro-benchmarks of the hot kernels at the serving benchmark's
//! unique-large shape (d = 512, n = 32768): Hamming distance, GF(2)
//! sketching, sketch distance, and the lazy-table cell evaluations — a
//! `C_i` first-member scan (a `T_i` cell read) and a `|C_i|` count scan
//! (an auxiliary cell's denominator) over one scale's sketch slab, and
//! the two degenerate-case cells every Algorithm 1 query reads in round
//! 1 (`x ∈ B`, `x ∈ N1(B)`), read through the index's table.

use criterion::{criterion_group, criterion_main, Criterion};

use anns_core::{AnnIndex, AnnsInstance};
use anns_hamming::{gen, Point};
use anns_sketch::{DbSketches, SketchFamily, SketchParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: u32 = 512;
const N: usize = 32768;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = Point::random(D, &mut rng);
    let b = Point::random(D, &mut rng);

    c.bench_function("hamming_distance_d512", |bch| {
        bch.iter(|| std::hint::black_box(&a).distance(std::hint::black_box(&b)))
    });

    let ds = gen::uniform(N, D, &mut rng);
    let family = SketchFamily::generate(D, N, &SketchParams::practical(2.0, 5));
    let db = DbSketches::build(&family, &ds, 4);
    let index = AnnIndex::from_parts(ds, family, db, None).expect("consistent parts");
    let (ds, family, db) = (index.dataset(), index.family(), index.db_sketches());
    let mid_scale = family.top() / 2;

    c.bench_function("sketch_point_d512", |bch| {
        bch.iter(|| family.sketch_m(mid_scale, std::hint::black_box(&a)))
    });

    let sa = family.sketch_m(mid_scale, &a);
    let sb = family.sketch_m(mid_scale, &b);
    c.bench_function("sketch_distance", |bch| {
        bch.iter(|| std::hint::black_box(&sa).distance(std::hint::black_box(&sb)))
    });

    // A uniform query has no near neighbour, so `C_i` at the middle scale
    // is empty and the first-member scan reads the whole slab: the cost of
    // a missed `T_i` cell.
    c.bench_function("c_first_scan_n32768", |bch| {
        bch.iter(|| db.c_first(family, mid_scale, std::hint::black_box(&sa)))
    });

    c.bench_function("c_count_scan_n32768", |bch| {
        bch.iter(|| db.c_count(family, mid_scale, std::hint::black_box(&sa)))
    });

    c.bench_function("exact_nn_n32768_d512", |bch| {
        bch.iter(|| ds.exact_nn(std::hint::black_box(&a)))
    });

    // A member query hits the `x ∈ B` cell; a uniform query misses every
    // `N1(B)` candidate, so that cell visits all d neighbours.
    let member = ds.point(N / 2).clone();
    let [exact, _] = index.degen_addresses(&member).expect("concrete index");
    let [_, near_one] = index.degen_addresses(&a).expect("concrete index");
    c.bench_function("degen_exact_read_n32768", |bch| {
        bch.iter(|| index.table().read(std::hint::black_box(&exact)))
    });
    c.bench_function("degen_n1_read_n32768", |bch| {
        bch.iter(|| index.table().read(std::hint::black_box(&near_one)))
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
