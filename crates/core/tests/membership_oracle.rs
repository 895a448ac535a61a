//! The degenerate-case cells of a built index (`DEGEN_EXACT`, `DEGEN_N1`)
//! against a reference kept here: a `HashMap<Point, usize>` filled in
//! row order, first row winning, and the `N1(B)` rule read off it
//! directly — the exact hit first, else the neighbour at the lowest
//! flipped coordinate.
//!
//! `d = 1` has no sketch family (it needs `d ≥ 2`), hence no index; the
//! membership index's own unit tests cover it exhaustively.

use std::collections::HashMap;

use anns_cellprobe::Address;
use anns_core::outcome::decode_t_cell;
use anns_core::{AnnIndex, AnnsInstance, BuildOptions};
use anns_hamming::{Dataset, Point};
use anns_sketch::SketchParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIMS: [u32; 6] = [2, 63, 64, 65, 130, 512];

/// The reference `x ∈ B` oracle: the first row equal to `x`.
fn exact(reference: &HashMap<Point, usize>, x: &Point) -> Option<usize> {
    reference.get(x).copied()
}

/// The reference `x ∈ N1(B)` oracle.
fn near_one(reference: &HashMap<Point, usize>, x: &Point) -> Option<usize> {
    exact(reference, x).or_else(|| (0..x.dim()).find_map(|i| exact(reference, &x.flipped(i))))
}

/// A point at distance exactly `dist` from `p` (`dist ≤ d`).
fn at_distance(p: &Point, dist: u32, rng: &mut StdRng) -> Point {
    let mut q = p.clone();
    let mut flipped = Vec::new();
    while (flipped.len() as u32) < dist {
        let i = rng.gen_range(0..p.dim());
        if !flipped.contains(&i) {
            flipped.push(i);
            q.flip(i);
        }
    }
    q
}

/// A database of `n` random rows, with duplicates of earlier rows and
/// distance-1 neighbours of one `hub` point placed in shuffled row order,
/// so a first row and a lowest coordinate are both decided by the data.
fn database(d: u32, n: usize, rng: &mut StdRng) -> (Dataset, Point) {
    let hub = Point::random(d, rng);
    let mut points: Vec<Point> = (0..n).map(|_| Point::random(d, rng)).collect();
    for _ in 0..rng.gen_range(1..4) {
        let i = rng.gen_range(0..d);
        points.insert(rng.gen_range(0..=points.len()), hub.flipped(i));
    }
    for _ in 0..rng.gen_range(1..4) {
        let dup = points[rng.gen_range(0..points.len())].clone();
        points.insert(rng.gen_range(0..=points.len()), dup);
    }
    (Dataset::new(points), hub)
}

/// The two degenerate cells' contents for `x`: row number and point bits.
fn read_cells(index: &AnnIndex, x: &Point) -> [Option<(u64, Option<Point>)>; 2] {
    let [e, n1] = index
        .degen_addresses(x)
        .expect("a concrete index models them");
    [
        decode_t_cell(&index.table().read(&e)),
        decode_t_cell(&index.table().read(&n1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn degenerate_cells_match_a_hash_map_reference(
        (dim_at, n, seed) in (0usize..DIMS.len(), 1usize..24, any::<u64>())
    ) {
        let d = DIMS[dim_at];
        let mut rng = StdRng::seed_from_u64(seed);
        let (dataset, hub) = database(d, n, &mut rng);
        let mut reference = HashMap::new();
        for (row, p) in dataset.points().iter().enumerate() {
            reference.entry(p.clone()).or_insert(row);
        }
        let index = AnnIndex::build(
            dataset.clone(),
            SketchParams::practical(2.0, seed),
            BuildOptions { threads: 1, ..BuildOptions::default() },
        );

        let row = rng.gen_range(0..dataset.len());
        let member = dataset.point(row).clone();
        let mut queries = vec![hub.clone(), member.clone(), Point::random(d, &mut rng)];
        for dist in 1..=2u32.min(d) {
            queries.push(at_distance(&member, dist, &mut rng));
            queries.push(at_distance(&hub, dist, &mut rng));
        }
        for x in &queries {
            let want = [exact(&reference, x), near_one(&reference, x)]
                .map(|hit| hit.map(|r| (r as u64, Some(dataset.point(r).clone()))));
            prop_assert_eq!(read_cells(&index, x), want, "d={} query {:?}", d, x);
        }
        // Every row reads back as its point's first row.
        for p in dataset.points() {
            let first = reference[p];
            let got = read_cells(&index, p).map(|cell| cell.map(|(r, _)| r));
            prop_assert_eq!(got, [Some(first as u64); 2]);
        }
        // The hub has several distance-1 neighbours in the database; the
        // lowest flipped coordinate wins whatever their row order.
        prop_assert!(near_one(&reference, &hub).is_some());

        // A key of another dimension names no database point.
        let other = Point::random(d + 1, &mut rng);
        prop_assert_eq!(read_cells(&index, &other), [None, None]);

        // Bits past `d` in a key's last limb are ignored, as decoding the
        // key into a `Point` would mask them.
        if !d.is_multiple_of(64) {
            let want = [exact(&reference, &member), near_one(&reference, &member)];
            let addrs = index.degen_addresses(&member).expect("modelled");
            for (addr, want) in addrs.into_iter().zip(want) {
                let mut key = addr.key;
                *key.last_mut().expect("limb bytes") |= 0x80;
                let cell = decode_t_cell(&index.table().read(&Address::new(addr.table, key)));
                prop_assert_eq!(cell.map(|(r, _)| r as usize), want);
            }
        }
    }
}
