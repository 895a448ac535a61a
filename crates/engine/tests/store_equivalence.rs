//! The store's central claim, tested at the bundle level: **a reloaded
//! registry is observationally identical to the one that was saved** —
//! answers, probe ledgers and transcripts match byte for byte, for every
//! scheme kind, under both solo and coalesced execution — and damaged
//! bundles fail with typed errors instead of serving different content.

use std::io::Cursor;
use std::sync::{Arc, OnceLock};

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::SoloServable;
use anns_core::AnnIndex;
use anns_engine::testkit::{clustered_index, hot_set_workload, TempDir};
use anns_engine::{Engine, EngineOptions, QueryRequest, Registry, ShardId};
use anns_hamming::Point;
use anns_lsh::{LinearScan, LshIndex, LshParams, ServeLinear, ServeLsh};
use anns_store::StoreError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 128;
const D: u32 = 192;

fn shared_index() -> Arc<AnnIndex> {
    static INDEX: OnceLock<Arc<AnnIndex>> = OnceLock::new();
    Arc::clone(INDEX.get_or_init(|| clustered_index(8, 16, D, 0.05, 777)))
}

/// A registry covering every persistable scheme kind, with three shards
/// sharing one `Arc<AnnIndex>` (the pooling case).
fn full_registry() -> Registry {
    let index = shared_index();
    let mut rng = StdRng::seed_from_u64(778);
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
    registry
}

fn saved_bundle_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut bytes = Cursor::new(Vec::new());
        full_registry().save_bundle_to(&mut bytes).unwrap();
        bytes.into_inner()
    })
}

fn workload(seed: u64, count: usize) -> Vec<Point> {
    hot_set_workload(&shared_index(), count, count, 5, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Build → save → load → answers, ledgers and transcripts identical,
    /// shard by shard, for every scheme kind.
    #[test]
    fn reloaded_bundle_is_byte_identical_solo(seed in any::<u64>(), count in 1usize..12) {
        let original = full_registry();
        let loaded = Registry::load_bundle_from(saved_bundle_bytes())
            .expect("bundle reloads");
        prop_assert_eq!(loaded.registry.len(), original.len());
        prop_assert_eq!(loaded.registry.listing(), original.listing());
        for q in workload(seed, count) {
            for shard in 0..original.len() {
                let id = ShardId(shard);
                let (a1, l1, t1) = execute_with(
                    &SoloServable(original.scheme(id)),
                    &q,
                    ExecOptions::with_transcript(),
                );
                let (a2, l2, t2) = execute_with(
                    &SoloServable(loaded.registry.scheme(id)),
                    &q,
                    ExecOptions::with_transcript(),
                );
                prop_assert_eq!(&a1, &a2, "answer diverged on shard {}", shard);
                prop_assert_eq!(&l1, &l2, "ledger diverged on shard {}", shard);
                prop_assert_eq!(&t1, &t2, "transcript diverged on shard {}", shard);
            }
        }
    }
}

#[test]
fn reloaded_bundle_serves_identically_through_the_engine() {
    let loaded = Registry::load_bundle_from(saved_bundle_bytes()).unwrap();
    let original = full_registry();
    let queries = workload(42, 24);
    let reqs: Vec<QueryRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| QueryRequest {
            shard: ShardId(i % original.len()),
            query: q.clone(),
        })
        .collect();
    let opts = EngineOptions {
        generation: 8,
        exec: ExecOptions::with_transcript(),
        batch_threads: 2,
    };
    let served_orig = Engine::new(original, opts).submit_batch(&reqs);
    let served_loaded = Engine::new(loaded.registry, opts).submit_batch(&reqs);
    for (a, b) in served_orig.iter().zip(served_loaded.iter()) {
        assert_eq!(a.answer, b.answer);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.transcript, b.transcript);
        assert_eq!(a.within_budget, b.within_budget);
    }
}

#[test]
fn index_pool_is_deduplicated_and_shared_on_load() {
    let loaded = Registry::load_bundle_from(saved_bundle_bytes()).unwrap();
    // Three core shards shared one index at save time → one pool entry.
    assert_eq!(loaded.indexes.len(), 1);
    assert_eq!(loaded.meta.indexes, 1);
    assert_eq!(loaded.meta.shards.len(), 5);
    // And the reloaded core shards share one Arc again.
    let strong = Arc::strong_count(&loaded.indexes[0]);
    assert!(
        strong >= 4,
        "pool + 3 core shards, got strong count {strong}"
    );
}

/// One section of a bundle, as [`remanifested`] hands it to `mutate`.
struct Section {
    tag: [u8; 4],
    payload: Vec<u8>,
}

/// Rebuilds the saved bundle with `mutate` applied to its payload
/// sections and a *fresh, matching* `MNFT` appended — the adversarial
/// shape: every container checksum and the manifest verify, so the
/// mutated bytes reach the IDXP/SHRD decoders themselves.
fn remanifested(mutate: impl FnOnce(&mut Vec<Section>)) -> Vec<u8> {
    use anns_store::Codec;
    let store = anns_store::MappedStore::from_bytes(saved_bundle_bytes().to_vec()).unwrap();
    let mut sections: Vec<Section> = (0..store.section_count())
        .map(|i| {
            let section = store.section(i).unwrap();
            Section {
                tag: section.tag(),
                payload: section.bytes().unwrap().to_vec(),
            }
        })
        .collect();
    sections.retain(|s| s.tag != anns_store::section_tag::MANIFEST);
    mutate(&mut sections);
    let mut writer = anns_store::StoreWriter::new(anns_store::KIND_BUNDLE);
    for section in &sections {
        writer.section(section.tag, section.payload.clone());
    }
    let manifest = anns_store::Manifest {
        tool: "fuzz/1".into(),
        sections: writer.digests(),
    };
    writer.section(anns_store::section_tag::MANIFEST, manifest.to_bytes());
    writer.to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structure-aware fuzz at the bundle layer: hostile *nested* length
    /// and count fields inside the `IDXP` / `SHRD` payloads — the
    /// values a corrupted-but-checksummed (or adversarial) file would
    /// present to the decoders — always yield a typed [`StoreError`],
    /// never a panic and never an attacker-sized allocation (decode
    /// capacities are capped by the bytes actually present). For the v2
    /// pool the entry table's own CRC is re-stamped after each mutation,
    /// so only the semantic bounds checks can object.
    #[test]
    fn nested_length_prefix_mutations_yield_typed_errors(
        target_shrd in any::<bool>(),
        kind in 0u8..3,
        delta in 1u64..1 << 40,
    ) {
        use anns_store::pool::{POOL_ENTRY_BYTES, POOL_TABLE_PREFIX_BYTES};
        let bytes = remanifested(|sections| {
            if target_shrd {
                // SHRD: count u32, then length-prefixed records.
                let section = sections
                    .iter_mut()
                    .find(|s| s.tag == anns_store::section_tag::SHARDS)
                    .expect("bundle has a SHRD section");
                match kind {
                    // The first record's u64 length prefix (after the
                    // u32 count): claim more bytes than the payload
                    // holds.
                    0 => {
                        let huge = section.payload.len() as u64 + delta;
                        section.payload[4..12].copy_from_slice(&huge.to_le_bytes());
                    }
                    // The same prefix at u64::MAX — the "allocate
                    // everything" probe.
                    1 => {
                        section.payload[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
                    }
                    // The u32 record count itself: a count the payload
                    // cannot possibly satisfy must run out of bytes, not
                    // memory.
                    _ => {
                        section.payload[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                    }
                }
            } else {
                // IDXP (v2): count u32, table_crc u32, then entry rows
                // of {offset u64, len u64, crc u32}.
                let section = sections
                    .iter_mut()
                    .find(|s| s.tag == anns_store::section_tag::INDEX_POOL)
                    .expect("bundle has an IDXP section");
                let payload = &mut section.payload;
                let first_len = POOL_TABLE_PREFIX_BYTES + 8;
                match kind {
                    // First entry's length: claim more bytes than the
                    // section holds.
                    0 => {
                        let huge = payload.len() as u64 + delta;
                        payload[first_len..first_len + 8].copy_from_slice(&huge.to_le_bytes());
                    }
                    // u64::MAX length — the offset+len overflow probe.
                    1 => {
                        payload[first_len..first_len + 8]
                            .copy_from_slice(&u64::MAX.to_le_bytes());
                    }
                    // An entry count the section cannot satisfy.
                    _ => {
                        payload[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                    }
                }
                // Re-stamp the table CRC where the table is still in
                // bounds, so the bounds checks (not the checksum) must
                // reject the hostile values.
                if kind != 2 {
                    let count = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
                    let table_end = POOL_TABLE_PREFIX_BYTES + count * POOL_ENTRY_BYTES;
                    let crc = anns_store::crc32(&payload[POOL_TABLE_PREFIX_BYTES..table_end]);
                    payload[4..8].copy_from_slice(&crc.to_le_bytes());
                }
            }
        });
        match Registry::load_bundle_from(&bytes[..]) {
            Err(StoreError::Malformed(_)) | Err(StoreError::Truncated { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
            Ok(_) => prop_assert!(false, "hostile prefix decoded successfully"),
        }
    }
}

/// A pooled index whose db sketches are narrower than its family's rows
/// — every checksum, the pool table and the manifest re-stamped, so only
/// the shape check can object — is a typed error at load, not a panic at
/// the first query.
#[test]
fn narrow_db_sketches_in_the_pool_are_typed() {
    use anns_store::{ByteWriter, Codec};
    let index = shared_index();
    let mut w = ByteWriter::new();
    index.dataset().encode(&mut w);
    index.family().encode(&mut w);
    for _ in 0..2 {
        w.put_u64(u64::from(index.family().top()) + 1);
        for _ in 0..=index.family().top() {
            w.put_u64(N as u64);
            for _ in 0..N {
                w.put_u32(8);
                w.put_u64(0);
            }
        }
    }
    index.erasure_model().encode(&mut w);
    let narrow = w.into_bytes();
    let bytes = remanifested(|sections| {
        let section = sections
            .iter_mut()
            .find(|s| s.tag == anns_store::section_tag::INDEX_POOL)
            .expect("bundle has an IDXP section");
        let entries = anns_store::pool::decode_pool_table(&section.payload).unwrap();
        assert_eq!(entries.len(), 1, "one pooled index");
        let entry = entries[0];
        let stored = &section.payload[entry.offset as usize..(entry.offset + entry.len) as usize];
        assert_eq!(stored, &index.to_bytes()[..], "the pool entry is the index");
        section.payload = anns_store::pool::encode_pool(&[narrow]);
    });
    match Registry::load_bundle_from(&bytes[..]) {
        Err(StoreError::Malformed(_)) => {}
        Err(other) => panic!("unexpected error kind: {other:?}"),
        Ok(_) => panic!("narrow db sketches loaded"),
    }
}

#[test]
fn bundle_corruption_yields_typed_errors() {
    let bytes = saved_bundle_bytes().to_vec();
    // Truncation at several depths.
    for cut in [2, 9, bytes.len() / 2, bytes.len() - 3] {
        assert!(
            matches!(
                Registry::load_bundle_from(&bytes[..cut]),
                Err(StoreError::Truncated { .. })
            ),
            "cut at {cut}"
        );
    }
    // Flipped magic.
    let mut corrupt = bytes.clone();
    corrupt[1] ^= 0xFF;
    assert!(matches!(
        Registry::load_bundle_from(&corrupt[..]),
        Err(StoreError::BadMagic { .. })
    ));
    // Version skew.
    let mut corrupt = bytes.clone();
    corrupt[4] = 0xEE;
    assert!(matches!(
        Registry::load_bundle_from(&corrupt[..]),
        Err(StoreError::UnsupportedVersion { found: 0xEE, .. })
    ));
    // Payload damage deep in the index pool.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 3;
    corrupt[mid] ^= 0x20;
    assert!(matches!(
        Registry::load_bundle_from(&corrupt[..]),
        Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Truncated { .. })
    ));
}

/// A registry holding one scheme with no stored form.
fn unsupported_registry() -> Registry {
    struct Opaque(Arc<AnnIndex>);
    impl anns_core::ServableScheme for Opaque {
        fn label(&self) -> String {
            "opaque".into()
        }
        fn table(&self) -> &dyn anns_cellprobe::Table {
            anns_core::AnnsInstance::table(&*self.0)
        }
        fn word_bits(&self) -> u64 {
            anns_core::AnnsInstance::word_bits(&*self.0)
        }
        fn serve(
            &self,
            query: &Point,
            exec: &mut anns_cellprobe::RoundExecutor<'_>,
        ) -> anns_core::ServedAnswer {
            anns_core::ServedAnswer::Outcome(anns_core::alg1(&*self.0, query, 1, None, exec))
        }
        // No `stored()` override: the default None marks it unsupported.
    }
    let mut registry = Registry::new();
    registry.register("opaque", Box::new(Opaque(shared_index())));
    registry
}

#[test]
fn unsupported_schemes_fail_the_save_loudly() {
    let registry = unsupported_registry();
    let mut sink = Cursor::new(Vec::new());
    match registry.save_bundle_to(&mut sink) {
        Err(StoreError::Unsupported(what)) => assert!(what.contains("opaque")),
        other => panic!("expected Unsupported, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn a_failed_save_leaves_the_saved_file_alone() {
    let dir = TempDir::new("store-failed-save");
    let path = dir.file("bundle.anns");
    full_registry().save_bundle(&path).unwrap();
    let before = std::fs::read(&path).unwrap();
    assert!(matches!(
        unsupported_registry().save_bundle(&path),
        Err(StoreError::Unsupported(_))
    ));
    assert_eq!(std::fs::read(&path).unwrap(), before);
    let names: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["bundle.anns"], "no temporary sibling is left");
}

/// A `Write + Seek` over memory whose first write reaching offset
/// `fail_at` fails once (a transient device error), and whose seeks
/// optionally all fail. Every later write succeeds, so an error the
/// saver swallowed would surface as a successful save.
struct Failing {
    inner: Cursor<Vec<u8>>,
    fail_at: u64,
    failed: bool,
    seek_fails: bool,
}

impl Failing {
    fn new(fail_at: u64, seek_fails: bool) -> Self {
        Failing {
            inner: Cursor::new(Vec::new()),
            fail_at,
            failed: false,
            seek_fails,
        }
    }
}

impl std::io::Write for Failing {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let room = self.fail_at.saturating_sub(self.inner.position());
        if !self.failed && room < bytes.len() as u64 {
            if room == 0 {
                self.failed = true;
                return Err(std::io::Error::other("device error"));
            }
            return self.inner.write(&bytes[..room as usize]);
        }
        self.inner.write(bytes)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl std::io::Seek for Failing {
    fn seek(&mut self, to: std::io::SeekFrom) -> std::io::Result<u64> {
        if self.seek_fails {
            return Err(std::io::Error::other("seek refused"));
        }
        self.inner.seek(to)
    }
}

/// `(tag, payload offset, payload length)` of every section, walked
/// from the raw preludes.
fn section_spans(bytes: &[u8]) -> Vec<([u8; 4], usize, usize)> {
    let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut spans = Vec::new();
    let mut at = anns_store::HEADER_BYTES;
    while at < bytes.len() {
        let tag = bytes[at..at + 4].try_into().unwrap();
        let payload = at + anns_store::SECTION_PRELUDE_BYTES + field(at + 12);
        spans.push((tag, payload, field(at + 4)));
        at = payload + field(at + 4);
    }
    spans
}

#[test]
fn failed_writes_and_seeks_are_typed_io_errors() {
    let bytes = saved_bundle_bytes();
    let spans = section_spans(bytes);
    let span = |tag: [u8; 4]| *spans.iter().find(|s| s.0 == tag).unwrap();
    let (_, meta, meta_len) = span(anns_store::section_tag::META);
    let (_, pool, _) = span(anns_store::section_tag::INDEX_POOL);
    let (_, mnft, mnft_len) = span(anns_store::section_tag::MANIFEST);
    let entries = anns_store::pool::decode_pool_table(&bytes[pool..]).unwrap();
    let entry = pool + entries[0].offset as usize;
    let cuts = [
        ("header", 5),
        ("mid-META", meta + meta_len / 2),
        (
            "pool table",
            pool + anns_store::pool::POOL_TABLE_PREFIX_BYTES + 3,
        ),
        ("mid-entry", entry + entries[0].len as usize / 2),
        ("mid-MNFT", mnft + mnft_len / 2),
    ];
    for (what, at) in cuts {
        let mut out = Failing::new(at as u64, false);
        match full_registry().save_bundle_to(&mut out) {
            Err(StoreError::Io(e)) => assert_eq!(e.to_string(), "device error", "{what}"),
            other => panic!("{what}: expected Io, got {:?}", other.map(|_| ())),
        }
    }
    // Every write succeeds, but the seek back to stamp the pool fails.
    let mut out = Failing::new(u64::MAX, true);
    match full_registry().save_bundle_to(&mut out) {
        Err(StoreError::Io(e)) => assert_eq!(e.to_string(), "seek refused"),
        other => panic!("failing seek: expected Io, got {:?}", other.map(|_| ())),
    }
    // The same writer with no fault writes the saved bundle.
    let mut out = Failing::new(u64::MAX, false);
    full_registry().save_bundle_to(&mut out).unwrap();
    assert_eq!(out.inner.into_inner(), bytes);
}

#[test]
fn file_roundtrip_through_disk() {
    let dir = TempDir::new("store-equivalence");
    let path = dir.file("bundle.anns");
    full_registry().save_bundle(&path).unwrap();
    let loaded = Registry::load_bundle(&path).unwrap();
    assert_eq!(loaded.registry.len(), 5);
    // Loading a nonexistent path is an Io error, not a panic.
    assert!(matches!(
        Registry::load_bundle(dir.file("missing.anns")),
        Err(StoreError::Io(_))
    ));
}
