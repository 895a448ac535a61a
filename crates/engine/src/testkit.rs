//! Shared test-and-bench support: workload generators and fixture
//! plumbing used by the engine's integration tests, `annsctl
//! serve`/`bench-serve`, and the criterion benches.
//!
//! This is a normal (always-compiled) module rather than a `cfg(test)`
//! one because its consumers live in *other* compilation units —
//! integration tests and the `anns-bench` crate — which cannot see
//! test-gated items. It stays dependency-light on purpose: everything
//! here is deterministic in its seed, so a workload generated by a test
//! is byte-identical to the one a benchmark or CI smoke run generates
//! from the same parameters.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use anns_core::{AnnIndex, BuildOptions};
use anns_hamming::{gen, Point};
use anns_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::registry::Registry;

/// A hot-set serving workload over a built index: `requests` queries
/// drawn round-robin from a pool of `distinct` points — half near
/// database points at distance `flips`, half uniform. The repetition
/// models the hot-query traffic a serving tier sees, which is what the
/// engine's cross-query probe coalescing feeds on; used by the engine's
/// equivalence tests, `annsctl serve` / `bench-serve`, and the
/// `serve_throughput` criterion bench, so all of them measure the same
/// traffic shape. Deterministic in `seed`.
pub fn hot_set_workload(
    index: &AnnIndex,
    requests: usize,
    distinct: usize,
    flips: u32,
    seed: u64,
) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = index.dataset().dim();
    let pool: Vec<Point> = (0..distinct.max(1))
        .map(|i| {
            if i % 2 == 0 {
                let base = rng.gen_range(0..index.dataset().len());
                gen::point_at_distance(index.dataset().point(base), flips.min(d), &mut rng)
            } else {
                Point::random(d, &mut rng)
            }
        })
        .collect();
    (0..requests)
        .map(|i| pool[i % pool.len()].clone())
        .collect()
}

/// A small clustered index, deterministic in `seed` — the standard
/// fixture the engine's integration tests build once per process.
pub fn clustered_index(
    clusters: usize,
    per_cluster: usize,
    d: u32,
    spread: f64,
    seed: u64,
) -> Arc<AnnIndex> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = gen::clustered(clusters, per_cluster, d, spread, &mut rng);
    Arc::new(AnnIndex::build(
        ds,
        SketchParams::practical(2.0, seed),
        BuildOptions::default(),
    ))
}

/// Serializes a registry to in-memory bundle bytes (the store round-trip
/// fixture used by the mount/swap tests and `bench-serve --shards`).
///
/// # Panics
/// If any registered scheme has no stored form.
pub fn bundle_bytes(registry: &Registry) -> Vec<u8> {
    let mut bytes = std::io::Cursor::new(Vec::new());
    registry
        .save_bundle_to(&mut bytes)
        .expect("test registries hold only storable schemes");
    bytes.into_inner()
}

/// A per-test scratch directory under the system temp dir, removed on
/// drop. Labels keep parallel tests from sharing a tree; the process id
/// keeps concurrent test *processes* apart.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMPDIR/anns-<label>-<pid>/`.
    pub fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!("anns-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_set_workload_repeats_its_pool_deterministically() {
        let index = clustered_index(4, 8, 64, 0.05, 3);
        let w = hot_set_workload(&index, 12, 4, 5, 9);
        assert_eq!(w.len(), 12);
        for (i, q) in w.iter().enumerate() {
            assert_eq!(q, &w[i % 4], "round-robin over the pool");
            assert_eq!(q.dim(), 64);
        }
        assert_ne!(w[0], w[1], "pool members are distinct");
        assert_eq!(hot_set_workload(&index, 12, 4, 5, 9), w);
    }

    #[test]
    fn temp_dir_cleans_up_after_itself() {
        let kept_path;
        {
            let dir = TempDir::new("testkit-selftest");
            kept_path = dir.path().to_path_buf();
            std::fs::write(dir.file("probe.txt"), b"x").unwrap();
            assert!(kept_path.exists());
        }
        assert!(!kept_path.exists(), "dropped TempDir removes its tree");
    }

    #[test]
    fn bundle_bytes_round_trip() {
        let index = clustered_index(4, 8, 64, 0.05, 5);
        let mut registry = Registry::new();
        registry.register_alg1("a", index, 2);
        let bytes = bundle_bytes(&registry);
        let loaded = Registry::load_bundle_from(&bytes[..]).unwrap();
        assert_eq!(loaded.registry.len(), 1);
    }
}
