//! A mapped shard's resident set is the sketch slabs its queries scan.
//!
//! Forcing a mapped shard ready verifies its pool entry's CRC and
//! decodes the index, but maps in almost none of the database-sketch
//! slabs that make up most of the entry: the CRC reads the entry
//! through the file, not the mapping, and each slab checks its tail
//! bits on its first scan, not at decode. The test mounts a bundle of a
//! few MB mapped, forces it ready and checks that the process's
//! file-backed resident set (`RssFile`) grew by less than a quarter of
//! the slab bytes; then it scans every slab and checks that the same
//! reading does see them arrive, so the bound is not vacuous.
//!
//! Linux only (`RssFile` comes from `/proc/self/status`). This file
//! holds one test on purpose: `RssFile` counts every thread of the
//! process, so a second test mapping files beside it would move it.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use anns_core::{AnnIndex, BuildOptions};
use anns_engine::{current_rss_file_bytes, Registry, ShardId};
use anns_hamming::gen;
use anns_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Saves a two-shard bundle over one `n`-point index at `path` and
/// returns the bytes of the index's database-sketch slabs.
fn save(n: usize, seed: u64, path: &std::path::Path) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let index = Arc::new(AnnIndex::build(
        gen::uniform(n, 256, &mut rng),
        SketchParams::practical(2.0, seed),
        BuildOptions::default(),
    ));
    let family = index.family();
    let limbs_per_point = family.m_rows().div_ceil(64) + family.n_rows().div_ceil(64);
    let slab_bytes = (family.top() as u64 + 1) * n as u64 * limbs_per_point as u64 * 8;
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_lambda("lambda-8", index, 8.0);
    registry.save_bundle(path).expect("save");
    slab_bytes
}

/// Mounts `path` mapped and forces every shard ready.
fn mount_ready(path: &std::path::Path) -> anns_engine::LoadedBundle {
    let mapped = Registry::load_bundle_mapped(path).expect("mount");
    for i in 0..mapped.registry.len() {
        mapped.registry.scheme(ShardId(i)).ready().expect("ready");
    }
    mapped
}

#[test]
fn readying_a_mapped_shard_leaves_its_sketch_slabs_out_of_the_resident_set() {
    // Under the target directory, not the system temp dir: a tmpfs
    // page counts as `RssShmem`, not `RssFile`.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("residency-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    // A small bundle through the same path first, so the code that
    // mounts and decodes is already paged in when the large one is
    // measured: the binary's own text counts in `RssFile` too.
    let warm = dir.join("warm.anns");
    save(256, 7, &warm);
    drop(mount_ready(&warm));

    let path = dir.join("bundle.anns");
    let slab_bytes = save(4096, 4242, &path);
    let file_bytes = std::fs::metadata(&path).expect("stat").len();
    assert!(slab_bytes > file_bytes / 2, "{slab_bytes} of {file_bytes}");

    let before = current_rss_file_bytes();
    assert!(before > 0, "RssFile unreadable");
    let mapped = mount_ready(&path);
    let ready = current_rss_file_bytes().saturating_sub(before);

    // Scan every slab once: the tail checks read every row.
    let index = mapped.lazy.as_ref().expect("mapped pool").decoded();
    assert_eq!(index.len(), 1);
    assert!(index[0].db_sketches().is_borrowed());
    let scanned = current_rss_file_bytes().saturating_sub(before);
    drop((index, mapped));
    std::fs::remove_dir_all(&dir).ok();

    eprintln!(
        "{slab_bytes} slab bytes in a {file_bytes}-byte bundle: RssFile grew \
         {ready} bytes when ready, {scanned} once every slab was scanned"
    );
    assert!(
        ready < slab_bytes / 4,
        "forcing the shards ready made {ready} of {slab_bytes} slab bytes resident"
    );
    assert!(
        scanned > slab_bytes / 2,
        "scanning every slab made only {scanned} of {slab_bytes} bytes resident"
    );
}
