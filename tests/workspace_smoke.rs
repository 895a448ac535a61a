//! Workspace smoke test: the facade re-exports resolve and the quickstart
//! path works end to end on a small planted instance. This is the first
//! test a fresh checkout should run — it fails loudly if the workspace
//! wiring (manifests, re-exports, vendored shims) regresses.

use anns::core::{AnnIndex, BuildOptions};
use anns::hamming::gen;
use anns::sketch::SketchParams;
use anns::store::Codec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every facade module path resolves to the workspace crate behind it.
#[test]
fn facade_reexports_resolve() {
    // One representative symbol per re-exported crate; a rename or a
    // dropped manifest dependency turns this into a compile error.
    let _: fn(u32, &mut StdRng) -> anns::hamming::Point = anns::hamming::Point::random;
    let _ = anns::cellprobe::ProbeLedger::default();
    let _ = anns::sketch::SketchParams::practical(2.0, 1);
    let _ = anns::core::Alg2Config::with_k(4);
    let _ = anns::lsh::LshParams::for_radius(64, 64, 4.0, 2.0, 1.0);
    let _ = anns::lpm::lcp_len(&[1, 2, 3], &[1, 2, 9]);
    let _ = anns::engine::Registry::new();
    let _ = anns::engine::EngineOptions::default();
}

/// The engine serves the quickstart index through the facade: registry →
/// engine → submit_batch, with coalesced answers equal to direct queries.
#[test]
fn engine_serves_through_the_facade() {
    use std::sync::Arc;
    let mut rng = StdRng::seed_from_u64(7);
    let planted = gen::planted(128, 128, 5, &mut rng);
    let query = planted.query.clone();
    let index = Arc::new(AnnIndex::build(
        planted.dataset,
        SketchParams::practical(2.0, 7),
        BuildOptions::default(),
    ));
    let mut registry = anns::engine::Registry::new();
    let shard = registry.register_alg1("alg1-k3", Arc::clone(&index), 3);
    let engine = anns::engine::Engine::new(registry, anns::engine::EngineOptions::default());
    let requests: Vec<anns::engine::QueryRequest> = (0..8)
        .map(|_| anns::engine::QueryRequest {
            shard,
            query: query.clone(),
        })
        .collect();
    let served = engine.submit_batch(&requests);
    let (direct, direct_ledger) = index.query(&query, 3);
    for s in &served {
        assert_eq!(s.answer.index(), direct.index());
        assert_eq!(s.ledger, direct_ledger);
    }
    // Eight copies of one query: one query's worth of unique probes.
    let stats = engine.stats();
    assert_eq!(stats.probes_executed * 8, stats.probes_submitted);
}

/// The `src/lib.rs` quickstart, as a plain test: build → query →
/// verify_gamma, with the round budget respected.
#[test]
fn quickstart_path_works_on_planted_instance() {
    let mut rng = StdRng::seed_from_u64(7);
    let planted = gen::planted(256, 256, 6, &mut rng);
    let index = AnnIndex::build(
        planted.dataset,
        SketchParams::practical(2.0, 7),
        BuildOptions::default(),
    );

    let k = 3;
    let (outcome, ledger) = index.query(&planted.query, k);
    assert!(
        index.verify_gamma(&planted.query, &outcome),
        "answer must be gamma-approximate"
    );
    assert!(ledger.rounds() <= k as usize, "round budget exceeded");
    assert_eq!(
        outcome.index(),
        Some(planted.planted_index as u64),
        "planted neighbor should be found at this margin"
    );
}

/// Store-codec round trip, the index's one on-disk form: a decoded index
/// answers identically, probe for probe.
#[test]
fn codec_round_trip_preserves_answers() {
    let mut rng = StdRng::seed_from_u64(11);
    let planted = gen::planted(128, 128, 5, &mut rng);
    let index = AnnIndex::build(
        planted.dataset,
        SketchParams::practical(2.0, 11),
        BuildOptions::default(),
    );
    let restored = AnnIndex::from_bytes(&index.to_bytes()).expect("decode index");
    let (a, la) = index.query(&planted.query, 3);
    let (b, lb) = restored.query(&planted.query, 3);
    assert_eq!(a, b, "restored index must answer identically");
    assert_eq!(la, lb, "restored index must probe identically");
}
