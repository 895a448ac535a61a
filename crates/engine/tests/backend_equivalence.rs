//! The mmap backend's central claim, tested end to end: **a mapped
//! mount is observationally identical to a heap load** — answers,
//! probe ledgers and transcripts match byte for byte, for every scheme
//! kind including subsampled repetition, under both solo and coalesced
//! execution — while reading only O(manifest) bytes eagerly. Damage
//! that lands *after* the eager checks surfaces as a typed
//! [`ServeError::ShardFault`] at first touch, never a panic. Both
//! backends run one parser, so hostile files (duplicate or stray
//! sections, retired format v1) get the same verdict on each.

use std::sync::{Arc, OnceLock};

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::{ServableScheme, ServeAlg1, SoloServable};
use anns_core::{Aggregation, AnnIndex, SubsampledRepetition};
use anns_engine::testkit::{clustered_index, hot_set_workload, TempDir};
use anns_engine::{
    Engine, EngineOptions, MountTable, NamedRequest, Registry, ServeError, StoreBackend,
};
use anns_hamming::Point;
use anns_lsh::{LinearScan, LshIndex, LshParams, ServeLinear, ServeLsh};
use anns_store::{Codec, Manifest, MappedStore, PayloadFault, StoreError, StoreWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 128;
const D: u32 = 192;

fn shared_index() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 16, D, 0.05, 991)))
}

/// A registry covering every persistable scheme kind — the three core
/// specs, both foreign kinds, and a subsampled-repetition wrapper whose
/// inner replicas share the pooled index.
fn full_registry() -> Registry {
    let index = shared_index();
    let mut rng = StdRng::seed_from_u64(992);
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_alg2(
        "alg2-k8",
        Arc::clone(&index),
        anns_core::Alg2Config::with_k(8),
    );
    registry.register_lambda("lambda-8", Arc::clone(&index), 8.0);
    let params = LshParams::for_radius(N, D, 5.0, 2.0, 8.0);
    registry.register(
        "lsh",
        Box::new(ServeLsh {
            index: Arc::new(LshIndex::build(index.dataset().clone(), params, &mut rng)),
        }),
    );
    registry.register(
        "linear",
        Box::new(ServeLinear {
            scan: Arc::new(LinearScan::new(index.dataset().clone())),
        }),
    );
    let inners: Vec<Arc<dyn ServableScheme>> = (2..5)
        .map(|k| {
            Arc::new(ServeAlg1 {
                index: Arc::clone(&index),
                k,
                tau_override: None,
            }) as Arc<dyn ServableScheme>
        })
        .collect();
    registry.register(
        "subsampled",
        Box::new(SubsampledRepetition::new(inners, 2, 99, Aggregation::BestOf).unwrap()),
    );
    registry
}

/// Saves the full registry into `dir` and returns the bundle path.
fn saved_bundle(dir: &TempDir) -> std::path::PathBuf {
    let path = dir.file("bundle.anns");
    full_registry().save_bundle(&path).unwrap();
    path
}

fn workload(seed: u64, count: usize) -> Vec<Point> {
    hot_set_workload(&shared_index(), count, count, 5, seed)
}

/// Heap load vs mapped mount of the same file: identical listings, and
/// byte-identical answers, ledgers and transcripts on every shard under
/// solo execution.
#[test]
fn backends_serve_byte_identical_answers_solo() {
    let dir = TempDir::new("backend-eq-solo");
    let path = saved_bundle(&dir);
    let heap = Registry::load_bundle(&path).unwrap();
    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    assert_serve_identically(&heap.registry, &mapped.registry, 7);
}

/// Identical listings, and byte-identical answers, ledgers and
/// transcripts on every shard under solo execution.
fn assert_serve_identically(heap: &Registry, mapped: &Registry, seed: u64) {
    assert_eq!(heap.listing(), mapped.listing());
    for q in workload(seed, 12) {
        for shard in 0..heap.len() {
            let id = anns_engine::ShardId(shard);
            let (a1, l1, t1) = execute_with(
                &SoloServable(heap.scheme(id)),
                &q,
                ExecOptions::with_transcript(),
            );
            let (a2, l2, t2) = execute_with(
                &SoloServable(mapped.scheme(id)),
                &q,
                ExecOptions::with_transcript(),
            );
            assert_eq!(a1, a2, "answer diverged on shard {shard}");
            assert_eq!(l1, l2, "ledger diverged on shard {shard}");
            assert_eq!(t1, t2, "transcript diverged on shard {shard}");
        }
    }
}

/// The same equivalence through the coalescing engine: `submit_named`
/// over every shard (including the subsampled wrapper) returns the same
/// answers, ledgers, transcripts and budget verdicts on both backends.
#[test]
fn backends_agree_through_the_coalescing_engine() {
    let dir = TempDir::new("backend-eq-engine");
    let path = saved_bundle(&dir);
    let heap = Registry::load_bundle(&path).unwrap();
    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    let names = heap.registry.listing();
    let reqs: Vec<NamedRequest> = workload(13, 24)
        .into_iter()
        .enumerate()
        .map(|(i, q)| NamedRequest {
            shard: names[i % names.len()].0.clone(),
            query: q,
        })
        .collect();
    let opts = EngineOptions {
        generation: 8,
        exec: ExecOptions::with_transcript(),
        batch_threads: 2,
    };
    let served_heap = Engine::new(heap.registry, opts).submit_named(&reqs);
    let served_mapped = Engine::new(mapped.registry, opts).submit_named(&reqs);
    for (i, (a, b)) in served_heap.iter().zip(served_mapped.iter()).enumerate() {
        let a = a.as_ref().expect("heap backend serves");
        let b = b.as_ref().expect("mapped backend serves");
        assert_eq!(a.answer, b.answer, "answer diverged on request {i}");
        assert_eq!(a.ledger, b.ledger, "ledger diverged on request {i}");
        assert_eq!(
            a.transcript, b.transcript,
            "transcript diverged on request {i}"
        );
        assert_eq!(a.within_budget, b.within_budget);
    }
}

/// The O(manifest) accounting: a mapped mount's eagerly-read byte count
/// stays a small fraction of the file, while the heap path reads (and
/// reports) the whole thing. Pool-backed core shards carry the claim —
/// foreign payloads ride inside `SHRD` and are always read with the
/// directory — so this bundle is all core shards over distinct indexes.
#[test]
fn mapped_mount_reads_o_manifest_bytes() {
    let dir = TempDir::new("backend-eq-eager");
    let path = dir.file("core.anns");
    {
        let mut registry = Registry::new();
        for (i, seed) in [101u64, 102, 103].into_iter().enumerate() {
            let index = clustered_index(8, 16, D, 0.05, seed);
            registry.register_alg1(format!("alg1-{i}"), Arc::clone(&index), 3);
            registry.register_lambda(format!("lambda-{i}"), index, 8.0);
        }
        registry.save_bundle(&path).unwrap();
    }
    let heap = Registry::load_bundle(&path).unwrap();
    assert_eq!(heap.report.backend, StoreBackend::Heap);
    assert_eq!(heap.report.eager_bytes, heap.report.file_bytes);
    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    assert_eq!(mapped.report.backend, StoreBackend::Mmap);
    assert!(mapped.report.manifest_verified);
    assert!(
        mapped.report.eager_bytes * 4 < mapped.report.file_bytes,
        "eager {} bytes should be well under the {}-byte file",
        mapped.report.eager_bytes,
        mapped.report.file_bytes
    );
    // Nothing is decoded until a query lands; then only that shard's
    // pool entry is.
    let lazy = mapped.lazy.as_ref().expect("mapped load exposes the pool");
    assert_eq!(lazy.decoded().len(), 0);
    let id = anns_engine::ShardId(0);
    let q = workload(17, 1).pop().unwrap();
    let _ = execute_with(
        &SoloServable(mapped.registry.scheme(id)),
        &q,
        ExecOptions::default(),
    );
    assert_eq!(lazy.decoded().len(), 1);
}

/// A byte flip landing in a pooled index payload *after* the eager
/// checks (preludes and manifest untouched) mounts fine, then surfaces
/// as a typed, latched [`ServeError::ShardFault`] on first probe —
/// never a panic, and never a silently different answer.
#[test]
fn post_mount_byte_flip_is_a_typed_fault() {
    use anns_store::Codec;
    let dir = TempDir::new("backend-eq-fault");
    let path = saved_bundle(&dir);
    // Locate the whole pooled index payload inside the file by content
    // (a short slice of it may also match padding elsewhere) and flip one
    // byte a third of the way into it.
    let payload = shared_index().to_bytes();
    let mut file = std::fs::read(&path).unwrap();
    let hit = file
        .windows(payload.len())
        .position(|w| w == payload)
        .expect("pooled index payload appears in the bundle");
    file[hit + payload.len() / 3] ^= 0xff;
    std::fs::write(&path, &file).unwrap();

    // Eager checks still pass: header, preludes and MNFT are intact.
    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    let engine = Engine::new(mapped.registry, EngineOptions::default());
    let q = workload(19, 1).pop().unwrap();
    let req = |shard: &str| NamedRequest {
        shard: shard.to_string(),
        query: q.clone(),
    };
    for attempt in 0..2 {
        let out = engine.submit_named(&[req("alg1-k3")]);
        match &out[0] {
            Err(ServeError::ShardFault { shard, fault }) => {
                assert_eq!(shard, "alg1-k3");
                assert!(
                    matches!(fault, PayloadFault::Checksum { .. }),
                    "attempt {attempt}: expected a checksum fault, got {fault}"
                );
            }
            other => panic!("attempt {attempt}: expected a shard fault, got {other:?}"),
        }
    }
    // Foreign shards live in SHRD (verified eagerly), so they keep
    // serving next to the faulted core shard.
    let out = engine.submit_named(&[req("linear")]);
    assert!(out[0].is_ok(), "undamaged shard keeps serving: {out:?}");
}

/// Formats v1 and v2 are retired: a hand-written v1 or v2 header is the
/// typed [`StoreError::UnsupportedVersion`] on both backends.
#[test]
fn v1_and_v2_bundles_are_an_unsupported_version_on_both_backends() {
    let dir = TempDir::new("backend-eq-retired");
    for version in [1u16, 2] {
        let path = dir.file(&format!("v{version}.anns"));
        let mut header = b"ANNS".to_vec();
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&[anns_store::scheme_kind::ALG1, 0]);
        header.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &header).unwrap();
        for (backend, loaded) in [
            ("heap", Registry::load_bundle(&path)),
            ("mmap", Registry::load_bundle_mapped(&path)),
        ] {
            match loaded {
                Err(StoreError::UnsupportedVersion {
                    found,
                    supported: 3,
                }) if found == version => {}
                Err(other) => panic!("{backend}: expected UnsupportedVersion, got {other}"),
                Ok(_) => panic!("{backend}: a v{version} bundle loaded"),
            }
        }
    }
}

/// A mapped mount's index scans its sketch slabs in place in the file,
/// a heap load's index owns copies; both encode to the same bytes.
#[test]
fn mapped_and_heap_indexes_snapshot_identically() {
    let dir = TempDir::new("backend-eq-snapshot");
    let path = saved_bundle(&dir);
    let heap = Registry::load_bundle(&path).unwrap();
    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    let registry = &mapped.registry;
    for i in 0..registry.len() {
        registry.scheme(anns_engine::ShardId(i)).ready().unwrap();
    }
    let decoded = mapped.lazy.as_ref().unwrap().decoded();
    assert_eq!((heap.indexes.len(), decoded.len()), (1, 1));
    let (heap_index, mapped_index) = (&heap.indexes[0], &decoded[0]);
    assert!(!heap_index.db_sketches().is_borrowed());
    assert!(mapped_index.db_sketches().is_borrowed());
    assert_eq!(heap_index.to_bytes(), mapped_index.to_bytes());
}

/// What a hostile file must do on *both* backends.
#[derive(Debug)]
enum Verdict {
    Malformed,
    Loads,
}

/// Hostile section layouts, each re-manifested so every checksum and
/// the final manifest verify: the container rules alone decide, and
/// they decide identically on both backends. `MNFT` must be last and
/// unique, no tag may repeat, and any other order is accepted.
#[test]
fn hostile_layouts_get_the_same_verdict_on_both_backends() {
    let dir = TempDir::new("backend-eq-hostile");
    let store = MappedStore::open(saved_bundle(&dir)).unwrap();
    let section = |tag: [u8; 4]| {
        let bytes = store.find(tag).unwrap().bytes().unwrap().to_vec();
        (tag, bytes)
    };
    let meta = section(anns_store::section_tag::META);
    let idxp = section(anns_store::section_tag::INDEX_POOL);
    let shrd = section(anns_store::section_tag::SHARDS);
    let stray_mnft = (anns_store::section_tag::MANIFEST, b"garbage".to_vec());
    let cases = [
        (
            "stray MNFT before the manifest",
            vec![meta.clone(), idxp.clone(), shrd.clone(), stray_mnft],
            Verdict::Malformed,
        ),
        (
            "duplicate META",
            vec![meta.clone(), meta.clone(), idxp.clone(), shrd.clone()],
            Verdict::Malformed,
        ),
        (
            "duplicate IDXP",
            vec![meta.clone(), idxp.clone(), idxp.clone(), shrd.clone()],
            Verdict::Malformed,
        ),
        (
            "duplicate SHRD",
            vec![meta.clone(), idxp.clone(), shrd.clone(), shrd.clone()],
            Verdict::Malformed,
        ),
        (
            "SHRD before IDXP",
            vec![meta.clone(), shrd.clone(), idxp.clone()],
            Verdict::Loads,
        ),
    ];
    for (name, sections, verdict) in cases {
        let mut writer = StoreWriter::new(anns_store::KIND_BUNDLE);
        for (tag, payload) in sections {
            writer.section(tag, payload);
        }
        let manifest = Manifest {
            tool: "hostile/1".into(),
            sections: writer.digests(),
        };
        writer.section(anns_store::section_tag::MANIFEST, manifest.to_bytes());
        let path = dir.file("hostile.anns");
        writer.write_file(&path).unwrap();
        let heap = Registry::load_bundle(&path);
        let mapped = Registry::load_bundle_mapped(&path);
        match (verdict, heap, mapped) {
            (Verdict::Malformed, Err(StoreError::Malformed(_)), Err(StoreError::Malformed(_))) => {}
            (Verdict::Loads, Ok(heap), Ok(mapped)) => {
                assert!(heap.report.skipped.is_empty() && mapped.report.skipped.is_empty());
                assert_serve_identically(&heap.registry, &mapped.registry, 31);
            }
            (verdict, heap, mapped) => panic!(
                "{name}: expected {verdict:?} on both, got heap {:?} / mmap {:?}",
                heap.map(|_| ()),
                mapped.map(|_| ())
            ),
        }
    }
}

/// The mount table's backend plumbing: an mmap mount lands in the live
/// epoch with its provenance in the summary, and serves named queries.
#[test]
fn mount_table_mounts_and_serves_through_the_mmap_backend() {
    let dir = TempDir::new("backend-eq-mount");
    let path = saved_bundle(&dir);
    let table = Arc::new(MountTable::new());
    let receipt = table
        .mount_with_backend("tenant-a", &path, StoreBackend::Mmap)
        .unwrap();
    let manifest = receipt.manifest.as_ref().expect("mount carries a report");
    assert_eq!(manifest.backend, StoreBackend::Mmap);
    assert!(manifest.summary().contains("mmap backend"));
    let engine = Engine::over(Arc::clone(&table), EngineOptions::default());
    let q = workload(29, 1).pop().unwrap();
    let out = engine.submit_named(&[NamedRequest {
        shard: "tenant-a/alg1-k3".to_string(),
        query: q,
    }]);
    assert!(out[0].is_ok(), "mounted shard serves: {out:?}");
}
