//! The mount table's central claims, tested end to end:
//!
//! 1. **Mount equivalence** — a registry assembled by mounting N bundles
//!    under namespaces answers *byte-identically* (answers, ledgers,
//!    transcripts) to the single registry the bundles were saved from;
//! 2. **Cross-bundle deduplication** — byte-identical index payloads
//!    arriving in different bundles share one `Arc<AnnIndex>`;
//! 3. **Atomic hot swap** — queries admitted before, during and after a
//!    swap all complete, each answered by exactly the epoch that admitted
//!    it; a failing swap leaves the old mount serving untouched; and the
//!    replaced epoch observably retires once its last generation drains;
//! 4. **Atomic saves** — re-saving a bundle over a path that is mounted
//!    through the mmap backend leaves the mount serving its own bundle.

use std::sync::{Arc, OnceLock};

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::SoloServable;
use anns_core::AnnIndex;
use anns_engine::testkit::{bundle_bytes, clustered_index, hot_set_workload, TempDir};
use anns_engine::{
    Engine, EngineOptions, MountError, MountTable, NamedRequest, QueryRequest, Registry, ShardId,
    StoreBackend,
};
use anns_hamming::Point;
use anns_store::StoreError;
use proptest::prelude::*;

const D: u32 = 192;

fn index_a() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 12, D, 0.05, 901)))
}

fn index_b() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 12, D, 0.05, 902)))
}

/// Registry serving index A under two schemes (the "tenant-a" build).
fn registry_a() -> Registry {
    let index = index_a();
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_lambda("lambda-8", index, 8.0);
    registry
}

/// Registry serving index B under the *same shard names* (the next build
/// of tenant-a, for swaps) plus an extra shard.
fn registry_b() -> Registry {
    let index = index_b();
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_lambda("lambda-8", Arc::clone(&index), 8.0);
    registry.register_alg2("alg2-k8", index, anns_core::Alg2Config::with_k(8));
    registry
}

/// Registry serving index B under bundle A's shards: a bundle with A's
/// layout and sizes but different bytes.
fn registry_a_over_b() -> Registry {
    let index = index_b();
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    registry.register_lambda("lambda-8", index, 8.0);
    registry
}

fn bytes_a() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| bundle_bytes(&registry_a()))
}

fn bytes_b() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| bundle_bytes(&registry_b()))
}

fn workload(seed: u64, count: usize) -> Vec<Point> {
    hot_set_workload(&index_a(), count, count, 5, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole equivalence: mounting bundles A and B side by side under
    /// namespaces serves every shard byte-identically (answers, ledgers,
    /// transcripts) to the registries the bundles were saved from — solo
    /// and through the coalescing engine.
    #[test]
    fn sharded_mount_matches_single_bundles(seed in any::<u64>(), count in 1usize..10) {
        let mut mounted = Registry::new();
        mounted.mount_from("a", bytes_a(), "<a>").unwrap();
        mounted.mount_from("b", bytes_b(), "<b>").unwrap();
        let originals = [registry_a(), registry_b()];
        prop_assert_eq!(mounted.len(), originals[0].len() + originals[1].len());

        // Solo path, shard by shard.
        for q in workload(seed, count) {
            for (ns, original) in [("a", &originals[0]), ("b", &originals[1])] {
                for id in 0..original.len() {
                    let name = original.name(ShardId(id));
                    let mounted_id = mounted.resolve(&format!("{ns}/{name}")).unwrap();
                    let (a1, l1, t1) = execute_with(
                        &SoloServable(original.scheme(ShardId(id))),
                        &q,
                        ExecOptions::with_transcript(),
                    );
                    let (a2, l2, t2) = execute_with(
                        &SoloServable(mounted.scheme(mounted_id)),
                        &q,
                        ExecOptions::with_transcript(),
                    );
                    prop_assert_eq!(&a1, &a2, "answer diverged on {}/{}", ns, name);
                    prop_assert_eq!(&l1, &l2, "ledger diverged on {}/{}", ns, name);
                    prop_assert_eq!(&t1, &t2, "transcript diverged on {}/{}", ns, name);
                }
            }
        }

        // Engine path: the mounted registry through coalesced serving vs
        // each original registry through coalesced serving.
        let queries = workload(seed ^ 0xF00D, count.max(2) * 3);
        let shards = mounted.len();
        let requests: Vec<QueryRequest> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| QueryRequest { shard: ShardId(i % shards), query: q.clone() })
            .collect();
        let opts = EngineOptions {
            generation: 8,
            exec: ExecOptions::with_transcript(),
            batch_threads: 2,
        };
        let names: Vec<String> = (0..shards).map(|i| mounted.name(ShardId(i)).to_string()).collect();
        let served = Engine::new(mounted, opts).submit_batch(&requests);
        for ((request, s), name) in requests.iter().zip(served.iter()).zip(names.iter().cycle()) {
            let (ns, plain) = name.split_once('/').unwrap();
            let original = if ns == "a" { &originals[0] } else { &originals[1] };
            let id = original.resolve(plain).unwrap();
            let (answer, ledger, transcript) = execute_with(
                &SoloServable(original.scheme(id)),
                &request.query,
                ExecOptions::with_transcript(),
            );
            prop_assert_eq!(&s.answer, &answer);
            prop_assert_eq!(&s.ledger, &ledger);
            prop_assert_eq!(&s.transcript, &transcript);
        }
    }

    /// Hot-swap race: queries stream through the engine by name while the
    /// mount table swaps bundle A out for bundle B. Every query completes,
    /// and each one's answer is byte-identical to a solo execution against
    /// the bundle of the epoch that admitted it.
    #[test]
    fn swap_under_load_serves_every_query_from_its_epoch(
        seed in any::<u64>(),
        generation in 1usize..6,
        swap_after in 0usize..12,
    ) {
        let mounts = Arc::new(MountTable::new());
        let receipt_a = mounts.mount_from("live", bytes_a(), "<a>").unwrap();
        let epoch_a = receipt_a.epoch;
        let engine = Engine::over(Arc::clone(&mounts), EngineOptions {
            generation,
            exec: ExecOptions::default(),
            batch_threads: 1,
        });
        let queries = workload(seed, 24);
        let requests: Vec<NamedRequest> = queries
            .iter()
            .map(|q| NamedRequest { shard: "live/alg1-k3".into(), query: q.clone() })
            .collect();

        let (served, receipt_b) = std::thread::scope(|scope| {
            let engine = &engine;
            let serve = scope.spawn(move || {
                // Two waves with the swap racing in between.
                let mut all = engine.submit_named(&requests[..swap_after.min(requests.len())]);
                all.extend(engine.submit_named(&requests[swap_after.min(requests.len())..]));
                all
            });
            let swap = scope.spawn({
                let mounts = Arc::clone(&mounts);
                move || mounts.swap_from("live", bytes_b(), "<b>").unwrap()
            });
            (serve.join().unwrap(), swap.join().unwrap())
        });

        let epoch_b = receipt_b.epoch;
        prop_assert!(epoch_b > epoch_a);
        let solo_a = registry_a();
        let solo_b = registry_b();
        for (q, result) in queries.iter().zip(served) {
            let s = result.expect("zero failed queries across the swap");
            let reference = if s.epoch == epoch_a {
                &solo_a
            } else {
                prop_assert_eq!(s.epoch, epoch_b, "epoch must be one of the two bundles");
                &solo_b
            };
            let id = reference.resolve("alg1-k3").unwrap();
            let (answer, ledger, _) = execute_with(
                &SoloServable(reference.scheme(id)),
                q,
                ExecOptions::default(),
            );
            prop_assert_eq!(&s.answer, &answer, "answer must match the admitting epoch's bundle");
            prop_assert_eq!(&s.ledger, &ledger);
        }

        // With serving drained and no outside holders, the old epoch
        // retires: its registry Arc is gone.
        prop_assert!(
            receipt_b.wait_retired(std::time::Duration::from_secs(5)),
            "old mount must fully retire after its generations drain"
        );
    }
}

/// A mapped mount reads its bundle file on first touch and then scans
/// the file's pages in place, so a save over the mounted path must not
/// change those bytes: `save_bundle` writes a new file and renames it
/// over the path. The mount, forced only after the re-save, still
/// serves bundle A byte-identically.
#[test]
fn resaving_a_mounted_path_leaves_the_mount_on_its_bundle() {
    let dir = TempDir::new("mount-swap-resave");
    let path = dir.file("live.anns");
    registry_a().save_bundle(&path).unwrap();
    let mounts = Arc::new(MountTable::new());
    mounts
        .mount_with_backend("live", &path, StoreBackend::Mmap)
        .unwrap();
    registry_a_over_b().save_bundle(&path).unwrap();
    assert_ne!(std::fs::read(&path).unwrap(), bytes_a());
    assert_eq!(
        std::fs::read_dir(dir.path()).unwrap().count(),
        1,
        "no temp file left"
    );

    let engine = Engine::over(Arc::clone(&mounts), EngineOptions::default());
    let original = registry_a();
    for (i, query) in workload(23, 6).into_iter().enumerate() {
        let name = ["alg1-k3", "lambda-8"][i % 2];
        let served = engine.submit_named(&[NamedRequest {
            shard: format!("live/{name}"),
            query: query.clone(),
        }]);
        let served = served
            .into_iter()
            .next()
            .unwrap()
            .expect("the mount still serves");
        let id = original.resolve(name).unwrap();
        let (answer, ledger, _) = execute_with(
            &SoloServable(original.scheme(id)),
            &query,
            ExecOptions::default(),
        );
        assert_eq!(served.answer, answer, "{name}");
        assert_eq!(served.ledger, ledger, "{name}");
    }
}

#[test]
fn cross_bundle_identical_payloads_share_one_index() {
    let mut registry = Registry::new();
    let m1 = registry.mount_from("s0", bytes_a(), "<a0>").unwrap();
    let m2 = registry.mount_from("s1", bytes_a(), "<a1>").unwrap();
    // First mount decodes the payload; second deduplicates against it.
    assert_eq!((m1.pooled, m1.shared), (1, 0));
    assert_eq!((m2.pooled, m2.shared), (0, 1));
    // One live index in the pool, shared by all four shards.
    let pooled = registry.pooled_indexes();
    assert_eq!(pooled.len(), 1);
    assert!(Arc::strong_count(&pooled[0]) >= 5, "4 shards + this handle");
    assert!(m1.manifest_verified && m2.manifest_verified);
    // Distinct payloads do not share.
    let m3 = registry.mount_from("s2", bytes_b(), "<b>").unwrap();
    assert_eq!((m3.pooled, m3.shared), (1, 0));
    assert_eq!(registry.pooled_indexes().len(), 2);
}

#[test]
fn mount_table_lifecycle_and_errors() {
    let mounts = MountTable::new();
    assert!(matches!(
        mounts.swap_from("live", bytes_a(), "<a>"),
        Err(MountError::NotMounted(_))
    ));
    let r1 = mounts.mount_from("live", bytes_a(), "<a>").unwrap();
    assert_eq!(r1.epoch, 1);
    assert!(matches!(
        mounts.mount_from("live", bytes_a(), "<a>"),
        Err(MountError::AlreadyMounted(_))
    ));
    // The mounted epoch serves both namespaced shards.
    let current = mounts.current();
    assert_eq!(current.len(), 2);
    assert!(current.resolve("live/alg1-k3").is_some());
    assert!(current.resolve("live/lambda-8").is_some());
    assert_eq!(current.mounts().len(), 1);
    assert_eq!(current.manifest("live").unwrap().shards.len(), 2);

    // Swap replaces the namespace; the new epoch has bundle B's shards.
    let r2 = mounts.swap_from("live", bytes_b(), "<b>").unwrap();
    assert_eq!(r2.epoch, 2);
    let swapped = mounts.current();
    assert_eq!(swapped.len(), 3, "bundle B has three shards");
    assert!(swapped.resolve("live/alg2-k8").is_some());
    // `current` still pins the old epoch; retirement happens on release.
    assert!(!r2.retired());
    drop(current);
    assert!(r2.wait_retired(std::time::Duration::from_secs(5)));

    // Unmount empties the table.
    let r3 = mounts.unmount("live").unwrap();
    assert_eq!(r3.epoch, 3);
    assert!(r3.manifest.is_none());
    assert!(mounts.current().is_empty());
    assert!(matches!(
        mounts.unmount("live"),
        Err(MountError::NotMounted(_))
    ));
}

#[test]
fn failing_swap_leaves_the_old_mount_serving_untouched() {
    let mounts = Arc::new(MountTable::new());
    mounts.mount_from("live", bytes_a(), "<a>").unwrap();
    let before = mounts.current();
    let epoch_before = mounts.epoch();

    // Corrupt bundle: flip a payload byte deep in the file.
    let mut corrupt = bytes_a().to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    let err = mounts.swap_from("live", &corrupt[..], "<corrupt>");
    assert!(matches!(
        err,
        Err(MountError::Store(
            StoreError::ChecksumMismatch { .. } | StoreError::Truncated { .. }
        ))
    ));

    // Same epoch, same registry object, still serving.
    assert_eq!(mounts.epoch(), epoch_before);
    assert!(Arc::ptr_eq(&before, &mounts.current()));
    let engine = Engine::over(Arc::clone(&mounts), EngineOptions::default());
    let served = engine.submit_named(&[NamedRequest {
        shard: "live/alg1-k3".into(),
        query: workload(3, 1).pop().unwrap(),
    }]);
    assert!(
        served[0].is_ok(),
        "old mount keeps serving after a bad swap"
    );

    // Truncated stream fails the same way.
    let err = mounts.swap_from("live", &bytes_a()[..40], "<truncated>");
    assert!(matches!(err, Err(MountError::Store(_))));
    assert_eq!(mounts.epoch(), epoch_before);
}

#[test]
fn failed_mount_rolls_the_registry_back() {
    let mut registry = Registry::new();
    registry.mount_from("ok", bytes_a(), "<a>").unwrap();
    let len_before = registry.len();
    let pooled_before = registry.pooled_indexes().len();

    let mut corrupt = bytes_b().to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x04;
    assert!(registry
        .mount_from("bad", &corrupt[..], "<corrupt>")
        .is_err());

    assert_eq!(registry.len(), len_before, "no half-mounted shards");
    assert_eq!(registry.pooled_indexes().len(), pooled_before);
    assert!(registry.manifest("bad").is_none());
    // The namespace is free again after the failure.
    registry.mount_from("bad", bytes_b(), "<b>").unwrap();
    assert!(registry.manifest("bad").is_some());
}

#[test]
fn unknown_sections_are_skipped_but_reported() {
    // Splice an unknown section into a bundle *before* re-manifesting:
    // build the same sections a newer writer would, with one extra tag.
    let store = anns_store::MappedStore::from_bytes(bytes_a().to_vec()).unwrap();
    let sections: Vec<_> = (0..store.section_count())
        .map(|i| store.section(i).unwrap())
        .collect();
    let mut writer = anns_store::StoreWriter::new(anns_store::KIND_BUNDLE);
    for section in &sections {
        if section.tag() == anns_store::section_tag::MANIFEST {
            // A future section type this build does not know.
            writer.section(*b"FUTR", vec![0xAB; 17]);
        }
    }
    for section in &sections {
        if section.tag() != anns_store::section_tag::MANIFEST {
            writer.section(section.tag(), section.bytes().unwrap().to_vec());
        }
    }
    // No MNFT at all: also exercises the pre-manifest compatibility path.
    let hybrid = writer.to_bytes();

    let loaded = Registry::load_bundle_from(&hybrid[..]).unwrap();
    assert_eq!(loaded.registry.len(), 2, "known shards all load");
    assert_eq!(
        loaded.report.skipped.len(),
        1,
        "the unknown section is on the record"
    );
    assert_eq!(&loaded.report.skipped[0].tag, b"FUTR");
    assert_eq!(loaded.report.skipped[0].len, 17);
    assert!(!loaded.report.manifest_verified);

    // The pristine bundle reports no skips and a verified manifest.
    let pristine = Registry::load_bundle_from(bytes_a()).unwrap();
    assert!(pristine.report.skipped.is_empty());
    assert!(pristine.report.manifest_verified);
    assert_eq!(
        pristine.report.sections.len(),
        4,
        "META + IDXP + SHRD + MNFT"
    );
}

#[test]
fn shard_id_requests_still_serve_through_a_mount_table() {
    let mounts = Arc::new(MountTable::new());
    mounts.mount_from("a", bytes_a(), "<a>").unwrap();
    mounts.mount_from("b", bytes_b(), "<b>").unwrap();
    let engine = Engine::over(Arc::clone(&mounts), EngineOptions::default());
    let registry = engine.registry();
    let queries = workload(17, 6);
    let requests: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest {
            shard: ShardId(i % registry.len()),
            query: q.clone(),
        })
        .collect();
    let served = engine.submit_batch(&requests);
    assert_eq!(served.len(), requests.len());
    assert!(served.iter().all(|s| s.epoch == registry.epoch()));
    let stats = engine.stats();
    assert_eq!(stats.queries, 6);
    assert_eq!(stats.epochs_served, 1);
    assert_eq!(stats.last_epoch, registry.epoch());
}

#[test]
fn unknown_names_error_without_failing_their_generation() {
    let mounts = Arc::new(MountTable::new());
    mounts.mount_from("live", bytes_a(), "<a>").unwrap();
    let engine = Engine::over(Arc::clone(&mounts), EngineOptions::default());
    let queries = workload(5, 3);
    let served = engine.submit_named(&[
        NamedRequest {
            shard: "live/alg1-k3".into(),
            query: queries[0].clone(),
        },
        NamedRequest {
            shard: "gone/alg1-k3".into(),
            query: queries[1].clone(),
        },
        NamedRequest {
            shard: "live/lambda-8".into(),
            query: queries[2].clone(),
        },
    ]);
    assert!(served[0].is_ok());
    assert!(matches!(
        &served[1],
        Err(anns_engine::ServeError::UnknownShard { shard, .. }) if shard == "gone/alg1-k3"
    ));
    assert!(served[2].is_ok());
}
