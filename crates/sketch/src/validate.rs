//! Empirical validation of Lemma 8 (experiment E5).
//!
//! Lemma 8 asserts that with probability ≥ 3/4 over the matrices, for
//! *every* scale simultaneously:
//!
//! 1. `B_i ⊆ C_i ⊆ B_{i+1}` (the sandwich), and
//! 2. for all `j ≤ i`, at most an `n^{-1/s}` fraction of `B_j` is missing
//!    from `D_{i,j}`, and at most an `n^{-1/s}` fraction of `C_i \ B_{j+1}`
//!    is present in `D_{i,j}`.
//!
//! The paper's constants (`c₁, c₂ > 64/(1−e^{(1−α)/2})²`) make this hold by
//! union bounds at any `n`; the reproduction runs with much smaller
//! constants and *measures* how often the events hold. This module is that
//! measurement: it evaluates the events exactly (brute-force distances
//! against the dataset) for a sample of queries.

use anns_hamming::{scale_radius, Dataset, Point};
use serde::{Deserialize, Serialize};

use crate::family::{DbSketches, SketchFamily};

/// Outcome of the sandwich validation (Lemma 8, condition 1).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SandwichReport {
    /// Queries evaluated.
    pub trials: usize,
    /// Queries for which the sandwich held at *every* scale.
    pub all_scales_ok: usize,
    /// Per-scale count of lower violations (`z ∈ B_i` but `z ∉ C_i`).
    pub lower_violations: Vec<usize>,
    /// Per-scale count of upper violations (`z ∈ C_i` but `z ∉ B_{i+1}`).
    pub upper_violations: Vec<usize>,
}

impl SandwichReport {
    /// Empirical probability that the sandwich held at all scales.
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            return 1.0;
        }
        self.all_scales_ok as f64 / self.trials as f64
    }
}

/// Outcome of the fraction validation (Lemma 8, condition 2).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FractionReport {
    /// Queries evaluated.
    pub trials: usize,
    /// `(i, j)` pairs evaluated across all queries (pairs with empty
    /// denominators are skipped).
    pub pairs_checked: usize,
    /// Pairs where the missing-fraction bound (`B_j` side) was violated.
    pub missing_violations: usize,
    /// Pairs where the spurious-fraction bound (`C_i \ B_{j+1}` side) was
    /// violated.
    pub spurious_violations: usize,
    /// Largest observed missing fraction.
    pub max_missing_fraction: f64,
    /// Largest observed spurious fraction.
    pub max_spurious_fraction: f64,
    /// The bound `n^{-1/s}` the fractions are compared against.
    pub bound: f64,
}

/// Validates the sandwich `B_i ⊆ C_i ⊆ B_{i+1}` for each query, exactly.
pub fn validate_sandwich(
    dataset: &Dataset,
    family: &SketchFamily,
    db: &DbSketches,
    queries: &[Point],
) -> SandwichReport {
    let top = family.top();
    let alpha = family.alpha();
    let mut report = SandwichReport {
        trials: queries.len(),
        all_scales_ok: 0,
        lower_violations: vec![0; top as usize + 1],
        upper_violations: vec![0; top as usize + 1],
    };
    for x in queries {
        let mut ok = true;
        // Distances once per query; scales reuse them.
        let dists: Vec<u32> = dataset.points().iter().map(|z| x.distance(z)).collect();
        for i in 0..=top {
            let addr = family.sketch_m(i, x);
            let r_in = scale_radius(i, alpha);
            let r_out = scale_radius(i + 1, alpha);
            let mut lower = false;
            let mut upper = false;
            for (z, &dist) in dists.iter().enumerate() {
                let in_c = family.m_passes(i, &addr, db.m_limbs(i, z));
                if dist <= r_in && !in_c {
                    lower = true;
                }
                if in_c && dist > r_out {
                    upper = true;
                }
            }
            if lower {
                report.lower_violations[i as usize] += 1;
                ok = false;
            }
            if upper {
                report.upper_violations[i as usize] += 1;
                ok = false;
            }
        }
        if ok {
            report.all_scales_ok += 1;
        }
    }
    report
}

/// Validates the `n^{-1/s}` fraction bounds for all `j ≤ i` pairs, exactly.
///
/// `stride` subsamples the `(i, j)` grid (1 = every pair) to keep the
/// O(queries · top² · n) cost manageable in tests.
pub fn validate_fractions(
    dataset: &Dataset,
    family: &SketchFamily,
    db: &DbSketches,
    queries: &[Point],
    stride: usize,
) -> FractionReport {
    let top = family.top();
    let alpha = family.alpha();
    let n = dataset.len() as f64;
    let s = family.params().s;
    let bound = n.powf(-1.0 / s);
    let stride = stride.max(1);
    let mut report = FractionReport {
        trials: queries.len(),
        bound,
        ..FractionReport::default()
    };
    for x in queries {
        let dists: Vec<u32> = dataset.points().iter().map(|z| x.distance(z)).collect();
        for i in (0..=top).step_by(stride) {
            let addr_m = family.sketch_m(i, x);
            let c_members = db.c_members(family, i, &addr_m);
            for j in (0..=i).step_by(stride) {
                let addr_n = family.sketch_n(j, x);
                let in_d = |z: usize| family.n_passes(j, &addr_n, db.n_limbs(j, z));
                let r_j = scale_radius(j, alpha);
                let r_j1 = scale_radius(j + 1, alpha);
                // Side 1: fraction of B_j missing from D_{i,j}.
                let b_j: Vec<usize> = (0..dataset.len()).filter(|&z| dists[z] <= r_j).collect();
                if !b_j.is_empty() {
                    report.pairs_checked += 1;
                    let missing = b_j
                        .iter()
                        .filter(|&&z| !(c_members.contains(&z) && in_d(z)))
                        .count();
                    let frac = missing as f64 / b_j.len() as f64;
                    report.max_missing_fraction = report.max_missing_fraction.max(frac);
                    if frac > bound {
                        report.missing_violations += 1;
                    }
                }
                // Side 2: fraction of C_i \ B_{j+1} inside D_{i,j}.
                let outside: Vec<usize> = c_members
                    .iter()
                    .copied()
                    .filter(|&z| dists[z] > r_j1)
                    .collect();
                if !outside.is_empty() {
                    report.pairs_checked += 1;
                    let spurious = outside.iter().filter(|&&z| in_d(z)).count();
                    let frac = spurious as f64 / outside.len() as f64;
                    report.max_spurious_fraction = report.max_spurious_fraction.max(frac);
                    if frac > bound {
                        report.spurious_violations += 1;
                    }
                }
            }
        }
    }
    report
}

/// The adversarial Lemma 8 workload: a database with one point on the
/// *boundary* of every scale ball around the query — exactly where the
/// membership test's Chernoff margin collapses to `δ/2`. Interior points
/// enjoy larger margins; this workload is the worst case per scale, and E5
/// uses it to show where the paper's constants are actually needed.
pub fn boundary_workload<R: rand::Rng + ?Sized>(
    dim: u32,
    alpha: f64,
    rng: &mut R,
) -> (Dataset, Point) {
    let query = Point::random(dim, rng);
    let top = anns_hamming::ceil_log_alpha(u64::from(dim), alpha);
    let mut radii = Vec::new();
    // One point exactly on each scale radius, starting at scale 2
    // (Assumption 1 keeps B_0, B_1 empty).
    for i in 2..=top {
        let r = scale_radius(i, alpha).min(dim);
        if radii.last() != Some(&r) {
            radii.push(r);
        }
    }
    let sizes = vec![1usize; radii.len()];
    (gen_shells(&query, &radii, &sizes, rng), query)
}

// Thin alias so the adversarial builder reads naturally above.
use anns_hamming::gen::shells as gen_shells;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::ThresholdMode;
    use crate::family::SketchParams;
    use anns_hamming::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn boundary_workload_sits_on_every_scale() {
        let mut rng = StdRng::seed_from_u64(31);
        let alpha = std::f64::consts::SQRT_2;
        let (ds, query) = boundary_workload(256, alpha, &mut rng);
        // Every point lies exactly on some scale radius ≥ 2.
        for p in ds.points() {
            let dist = query.distance(p);
            assert!(dist >= 2);
            let i = anns_hamming::ceil_log_alpha(u64::from(dist), alpha);
            assert_eq!(
                scale_radius(i, alpha),
                dist,
                "distance {dist} is not a scale radius"
            );
        }
        // And the profile's first non-empty scale is 2 (Assumption 1 safe).
        let prof = ds.ball_profile(&query, alpha);
        assert!(prof.first_nonempty() >= 2);
    }

    #[test]
    fn boundary_workload_is_harder_than_interior() {
        // At equal constants, the all-scales sandwich fails more often on
        // the boundary workload than on a far-interior one (uniform data:
        // all points near d/2, deep inside the top scales). Averaged over
        // several families to keep the comparison stable.
        let alpha = std::f64::consts::SQRT_2;
        let mut boundary_viol = 0usize;
        let mut interior_viol = 0usize;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let (bds, bq) = boundary_workload(256, alpha, &mut rng);
            let uds = gen::uniform(bds.len(), 256, &mut rng);
            let uq = Point::random(256, &mut rng);
            let params = SketchParams {
                gamma: 2.0,
                c1: 48.0,
                c2: 48.0,
                s: 2.0,
                threshold_mode: ThresholdMode::Midpoint,
                seed: 900 + seed,
            };
            let bfam = SketchFamily::generate(256, bds.len(), &params);
            let bdb = DbSketches::build(&bfam, &bds, 2);
            let br = validate_sandwich(&bds, &bfam, &bdb, &[bq]);
            boundary_viol += br.lower_violations.iter().sum::<usize>()
                + br.upper_violations.iter().sum::<usize>();
            let ufam = SketchFamily::generate(256, uds.len(), &params);
            let udb = DbSketches::build(&ufam, &uds, 2);
            let ur = validate_sandwich(&uds, &ufam, &udb, &[uq]);
            interior_viol += ur.lower_violations.iter().sum::<usize>()
                + ur.upper_violations.iter().sum::<usize>();
        }
        assert!(
            boundary_viol > interior_viol,
            "boundary {boundary_viol} vs interior {interior_viol}"
        );
    }

    #[test]
    fn sandwich_holds_with_paper_constants() {
        // Paper-grade c₁ (solved numerically for this n, d) must deliver the
        // Lemma 8 sandwich with probability ≥ 3/4. n and d are kept small so
        // the large row counts stay cheap in debug builds.
        let mut rng = StdRng::seed_from_u64(21);
        let (n, d) = (64usize, 128u32);
        let ds = gen::uniform(n, d, &mut rng);
        let params = SketchParams::paper(2.0, n, d as u64, 5);
        let family = SketchFamily::generate(d, n, &params);
        let db = DbSketches::build(&family, &ds, 4);
        let queries: Vec<_> = (0..8)
            .map(|_| anns_hamming::Point::random(d, &mut rng))
            .collect();
        let report = validate_sandwich(&ds, &family, &db, &queries);
        assert!(
            report.success_rate() >= 0.75,
            "sandwich rate {} below Lemma 8's 3/4",
            report.success_rate()
        );
    }

    #[test]
    fn sandwich_fails_with_literal_delta_threshold() {
        // Ablation A3: the literal Definition 7 threshold rejects in-ball
        // points, so lower violations are pervasive as soon as some B_i is
        // non-trivially populated.
        let mut rng = StdRng::seed_from_u64(22);
        let ds = gen::clustered(8, 16, 256, 0.02, &mut rng);
        let mut params = SketchParams::practical(2.0, 6);
        params.threshold_mode = ThresholdMode::LiteralDelta;
        let family = SketchFamily::generate(256, 128, &params);
        let db = DbSketches::build(&family, &ds, 1);
        // Query near a cluster: its B_i are populated at small radii.
        let queries = vec![gen::corrupt(ds.point(0), 0.01, &mut rng)];
        let report = validate_sandwich(&ds, &family, &db, &queries);
        assert_eq!(
            report.all_scales_ok, 0,
            "literal delta threshold should break the sandwich"
        );
        assert!(report.lower_violations.iter().sum::<usize>() > 0);
    }

    #[test]
    fn fractions_hold_with_paper_constants() {
        let mut rng = StdRng::seed_from_u64(23);
        let (n, d) = (64usize, 128u32);
        let ds = gen::clustered(4, 16, d, 0.05, &mut rng);
        let params = SketchParams::paper(2.0, n, d as u64, 7);
        let family = SketchFamily::generate(d, n, &params);
        let db = DbSketches::build(&family, &ds, 4);
        let queries = vec![gen::corrupt(ds.point(0), 0.02, &mut rng)];
        let report = validate_fractions(&ds, &family, &db, &queries, 2);
        assert!(report.pairs_checked > 0);
        // The missing side must be essentially clean at paper constants:
        // members of B_j are deep inside the coarse threshold too.
        assert_eq!(
            report.missing_violations, 0,
            "max missing fraction {}",
            report.max_missing_fraction
        );
    }

    #[test]
    fn reports_are_well_formed_on_empty_query_set() {
        let mut rng = StdRng::seed_from_u64(24);
        let ds = gen::uniform(16, 64, &mut rng);
        let params = SketchParams::practical(2.0, 8);
        let family = SketchFamily::generate(64, 16, &params);
        let db = DbSketches::build(&family, &ds, 1);
        let sandwich = validate_sandwich(&ds, &family, &db, &[]);
        assert_eq!(sandwich.trials, 0);
        assert_eq!(sandwich.success_rate(), 1.0);
        let fractions = validate_fractions(&ds, &family, &db, &[], 1);
        assert_eq!(fractions.pairs_checked, 0);
    }
}
