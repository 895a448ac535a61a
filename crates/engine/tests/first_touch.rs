//! What a mapped shard's first touch checks, and what it does with bytes
//! that fail or bend the rules.
//!
//! The entry CRC is read through the file before anything decodes, so a
//! bundle truncated under its mount is a typed read fault on the shards
//! that need the lost bytes, never a `SIGBUS`, while the other shards
//! keep serving. A database-sketch slab whose tail bits are set, in an
//! entry whose CRC covers them, is masked on its first scan: the mapped
//! index answers exactly as the heap backend's copy does.

use std::sync::Arc;

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::SoloServable;
use anns_core::AnnIndex;
use anns_engine::testkit::{bundle_bytes, clustered_index, hot_set_workload, TempDir};
use anns_engine::{Engine, EngineOptions, NamedRequest, Registry, ServeError, ShardId};
use anns_lsh::{LinearScan, ServeLinear};
use anns_store::pool::decode_pool_table;
use anns_store::{crc32, section_tag, Codec, Manifest, MappedStore, PayloadFault, StoreWriter};

/// Which `M` scale the dirty-tail test dirties.
const DIRTY_SCALE: u32 = 1;

fn index() -> Arc<AnnIndex> {
    clustered_index(8, 16, 200, 0.05, 4711)
}

/// A pooled Algorithm 1 shard and a foreign linear scan, whose payload
/// lives in the shard records rather than the pool.
fn registry(index: &Arc<AnnIndex>) -> Registry {
    let mut registry = Registry::new();
    registry.register_alg1("alg1-k3", Arc::clone(index), 3);
    registry.register_lambda("lambda-8", Arc::clone(index), 8.0);
    registry.register(
        "linear",
        Box::new(ServeLinear {
            scan: Arc::new(LinearScan::new(index.dataset().clone())),
        }),
    );
    registry
}

#[test]
fn a_bundle_truncated_under_its_mount_is_a_typed_fault_at_first_touch() {
    let index = index();
    let dir = TempDir::new("first-touch-truncated");
    let path = dir.file("bundle.anns");
    registry(&index).save_bundle(&path).unwrap();
    let payload = index.to_bytes();
    let bytes = std::fs::read(&path).unwrap();
    let entry_at = bytes
        .windows(payload.len())
        .position(|w| w == payload)
        .expect("pooled index payload appears in the bundle");

    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    // Cut the file halfway through the pool entry, before any shard has
    // touched it.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len((entry_at + payload.len() / 2) as u64).unwrap();
    drop(file);

    let short_read = |fault: &PayloadFault| {
        matches!(
            fault,
            PayloadFault::Read {
                kind: std::io::ErrorKind::UnexpectedEof,
                ..
            }
        )
    };
    let fault = mapped.registry.scheme(ShardId(0)).ready().unwrap_err();
    assert!(short_read(&fault), "expected a short read, got {fault}");

    let engine = Engine::new(mapped.registry, EngineOptions::default());
    let q = hot_set_workload(&index, 1, 1, 5, 3).pop().unwrap();
    let req = |shard: &str| NamedRequest {
        shard: shard.to_string(),
        query: q.clone(),
    };
    for shard in ["alg1-k3", "lambda-8", "alg1-k3"] {
        match &engine.submit_named(&[req(shard)])[0] {
            Err(ServeError::ShardFault { shard: s, fault: f }) => {
                assert_eq!(s, shard);
                assert_eq!(f, &fault, "the fault is latched and shared");
            }
            other => panic!("{shard}: expected a shard fault, got {other:?}"),
        }
    }
    let out = engine.submit_named(&[req("linear")]);
    assert!(out[0].is_ok(), "the foreign shard keeps serving: {out:?}");
}

/// Sets every tail bit of `DIRTY_SCALE`'s `M` slab in the bundle's one
/// pool entry, restamps the entry and table CRCs, and re-manifests the
/// container, so every checksum verifies.
fn dirty_bundle(index: &AnnIndex, clean: Vec<u8>) -> Vec<u8> {
    let store = MappedStore::from_bytes(clean).unwrap();
    let mut pool = store
        .find(section_tag::INDEX_POOL)
        .unwrap()
        .bytes()
        .unwrap()
        .to_vec();
    let entries = decode_pool_table(&pool).unwrap();
    assert_eq!(entries.len(), 1);
    let entry = &mut pool[entries[0].offset as usize..][..entries[0].len as usize];

    let (db, rows) = (index.db_sketches(), index.family().m_rows());
    let width = rows.div_ceil(64) as usize;
    let slab: Vec<u8> = (0..db.len())
        .flat_map(|z| db.m_limbs(DIRTY_SCALE, z).to_vec())
        .flat_map(u64::to_le_bytes)
        .collect();
    let at = entry
        .windows(slab.len())
        .position(|w| w == slab)
        .expect("the slab appears in the entry");
    let tail = !0u64 << (rows % 64);
    for z in 0..db.len() {
        let limb = &mut entry[at + 8 * ((z + 1) * width - 1)..][..8];
        let dirty = u64::from_le_bytes(limb.try_into().unwrap()) | tail;
        limb.copy_from_slice(&dirty.to_le_bytes());
    }

    // Row 0 of the table: `offset u64, len u64, crc u32` after the
    // `count u32, table_crc u32` prefix.
    let entry_crc = crc32(entry);
    pool[24..28].copy_from_slice(&entry_crc.to_le_bytes());
    let table_crc = crc32(&pool[8..28]);
    pool[4..8].copy_from_slice(&table_crc.to_le_bytes());

    let mut writer = StoreWriter::new(store.header().kind);
    for digest in store.digests() {
        let payload = match digest.tag {
            section_tag::MANIFEST => continue,
            section_tag::INDEX_POOL => pool.clone(),
            tag => store.find(tag).unwrap().bytes().unwrap().to_vec(),
        };
        writer.section(digest.tag, payload);
    }
    let manifest = Manifest {
        tool: store.manifest().unwrap().tool.clone(),
        sections: writer.digests(),
    };
    writer.section(section_tag::MANIFEST, manifest.to_bytes());
    writer.to_bytes()
}

#[test]
fn a_dirty_tailed_slab_is_masked_on_first_scan_and_answers_like_the_heap() {
    let index = index();
    let rows = index.family().m_rows();
    assert_ne!(rows % 64, 0, "the fixture needs a partial tail limb");
    let clean = bundle_bytes(&registry(&index));
    let dir = TempDir::new("first-touch-dirty");
    let path = dir.file("dirty.anns");
    std::fs::write(&path, dirty_bundle(&index, clean.clone())).unwrap();
    let clean_path = dir.file("clean.anns");
    std::fs::write(&clean_path, clean).unwrap();

    let heap = Registry::load_bundle(&path).unwrap();
    let mapped = Registry::load_bundle_mapped(&path).unwrap();
    let pristine = Registry::load_bundle(&clean_path).unwrap();
    let queries = hot_set_workload(&index, 24, 24, 5, 17);
    for shard in 0..heap.registry.len() {
        let id = ShardId(shard);
        for q in &queries {
            let run = |registry: &Registry| {
                execute_with(
                    &SoloServable(registry.scheme(id)),
                    q,
                    ExecOptions::with_transcript(),
                )
            };
            let want = run(&heap.registry);
            assert_eq!(run(&mapped.registry), want, "mapped vs heap, shard {shard}");
            assert_eq!(
                run(&pristine.registry),
                want,
                "dirty vs clean, shard {shard}"
            );
        }
    }

    let decoded = mapped.lazy.as_ref().unwrap().decoded();
    let db = decoded[0].db_sketches();
    assert!(!db.is_borrowed(), "the dirty slab reads as copied");
    let tail = !0u64 << (rows % 64);
    let width = rows.div_ceil(64) as usize;
    for z in 0..db.len() {
        assert_eq!(db.m_limbs(DIRTY_SCALE, z)[width - 1] & tail, 0);
        assert_eq!(
            db.m_limbs(DIRTY_SCALE, z),
            index.db_sketches().m_limbs(DIRTY_SCALE, z)
        );
    }
}
