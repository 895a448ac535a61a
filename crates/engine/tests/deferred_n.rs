//! A built index samples the `M_i` and sketches its database under them
//! only; the `N_j` and their sketches, which only Algorithm 2 reads,
//! follow at their first need. Serving Algorithm 1 and λ never makes
//! them; registering or readying Algorithm 2 does, before any query.
//! Encoding writes the sketch halves held, so a bundle of an index that
//! never needed its `N` sketches stores none; decoded, on either
//! backend, that index answers Algorithm 1 and λ exactly as the built
//! one does, sketches the `N` half at its first need as the build
//! would, and answers Algorithm 2 exactly as the built index does.

use std::sync::Arc;

use anns_cellprobe::{execute_with, ExecOptions};
use anns_core::serve::{ServableScheme, ServeAlg2, SoloServable};
use anns_core::{Aggregation, Alg2Config, AnnIndex, SubsampledRepetition};
use anns_engine::testkit::{clustered_index, hot_set_workload, TempDir};
use anns_engine::{Engine, EngineOptions, NamedRequest, Registry, ShardId};
use anns_store::Codec;

const SEED: u64 = 5150;
const D: u32 = 192;

fn index() -> Arc<AnnIndex> {
    clustered_index(10, 16, D, 0.05, SEED)
}

/// Slab bytes of the `M` half alone, and of both halves.
fn slab_bytes(index: &AnnIndex) -> (usize, usize) {
    let family = index.family();
    let per_scale = (family.top() as usize + 1) * index.dataset().len() * 8;
    let m = per_scale * family.m_rows().div_ceil(64) as usize;
    (m, m + per_scale * family.n_rows().div_ceil(64) as usize)
}

#[test]
fn serving_alg1_and_lambda_never_sketches_n() {
    let index = index();
    let (m_only, _) = slab_bytes(&index);
    let family = index.memory().family;
    let mut registry = Registry::new();
    registry.register_alg1("alg1", Arc::clone(&index), 3);
    registry.register_lambda("lambda", Arc::clone(&index), 8.0);
    let engine = Engine::new(registry, EngineOptions::default());
    let queries = hot_set_workload(&index, 24, 8, 3, 17);
    let requests: Vec<NamedRequest> = queries
        .iter()
        .enumerate()
        .map(|(i, query)| NamedRequest {
            shard: ["alg1", "lambda"][i % 2].to_string(),
            query: query.clone(),
        })
        .collect();
    let served = engine.submit_named(&requests);
    assert!(served.iter().all(|s| s.is_ok()), "every query served");
    assert_eq!(index.memory().slabs_owned, m_only, "the M slabs only");
    assert_eq!(index.memory().family, family, "no N_j sampled");
}

#[test]
fn registering_alg2_sketches_n_before_any_query() {
    let index = index();
    let (m_only, both) = slab_bytes(&index);
    let before = index.memory();
    assert_eq!(before.slabs_owned, m_only);
    let mut registry = Registry::new();
    registry.register_alg2("alg2", Arc::clone(&index), Alg2Config::with_k(8));
    let after = index.memory();
    assert_eq!(after.slabs_owned, both);
    assert!(after.family > before.family, "the N_j sampled");
    // `ready()` does the same for an Algorithm 2 shard registered by
    // hand, and for one inside the subsampled-repetition wrapper.
    let index = self::index();
    let inner: Arc<dyn ServableScheme> = Arc::new(ServeAlg2 {
        index: Arc::clone(&index),
        config: Alg2Config::with_k(8),
    });
    let defended = SubsampledRepetition::new(vec![inner], 1, 7, Aggregation::BestOf)
        .expect("valid defense parameters");
    assert_eq!(index.memory().slabs_owned, m_only);
    defended.ready().expect("ready");
    assert_eq!(index.memory().slabs_owned, both);
}

#[test]
fn encoding_leaves_out_exactly_the_n_slabs_not_held() {
    let never = index();
    let (m_only, both) = slab_bytes(&never);
    let forced = index();
    forced.db_sketches();
    let bytes = forced.to_bytes();
    let short = never.to_bytes();
    assert_eq!(
        short.len() + (both - m_only),
        bytes.len(),
        "less the N slabs"
    );
    // The encode sampled the `N_j`, which stay, and sketched nothing.
    assert_eq!(never.memory().family, forced.memory().family);
    assert_eq!(never.memory().slabs_owned, m_only);
    assert_eq!(forced.memory().slabs_owned, both);
    // Decoded, the index holds what was stored and writes it back; its
    // first need then sketches the bits the build sketched.
    let decoded = AnnIndex::from_bytes(&short).expect("decode");
    assert_eq!(decoded.memory().slabs_owned, m_only);
    assert_eq!(decoded.to_bytes(), short);
    decoded.db_sketches();
    assert_eq!(decoded.memory().slabs_owned, both);
    assert_eq!(decoded.to_bytes(), bytes);
}

#[test]
fn saving_an_alg1_index_keeps_the_m_half_alone() {
    let index = index();
    let (m_only, both) = slab_bytes(&index);
    let mut registry = Registry::new();
    registry.register_alg1("alg1", Arc::clone(&index), 3);
    let dir = TempDir::new("deferred-n-save");
    let (first, second) = (dir.file("first.anns"), dir.file("second.anns"));
    registry.save_bundle(&first).expect("save");
    assert_eq!(
        index.memory().slabs_owned,
        m_only,
        "the save kept no N slab"
    );
    registry.save_bundle(&second).expect("save again");
    assert_eq!(index.memory().slabs_owned, m_only);
    let bytes = std::fs::read(&first).expect("read back");
    assert_eq!(std::fs::read(&second).expect("read back"), bytes);
    // Registering Algorithm 2 afterwards still builds the `N` half, and
    // a save then writes the held half: the bytes of an index forced
    // before its first save, longer by exactly the `N` slabs.
    registry.register_alg2("alg2", Arc::clone(&index), Alg2Config::with_k(8));
    assert_eq!(index.memory().slabs_owned, both);
    let mut alg1_only = Registry::new();
    alg1_only.register_alg1("alg1", Arc::clone(&index), 3);
    alg1_only.save_bundle(&second).expect("save held");
    let held = std::fs::read(&second).expect("read back");
    assert_eq!(held.len(), bytes.len() + (both - m_only));
    let forced = self::index();
    forced.db_sketches();
    let mut from_forced = Registry::new();
    from_forced.register_alg1("alg1", forced, 3);
    from_forced.save_bundle(&second).expect("save forced");
    assert_eq!(std::fs::read(&second).expect("read back"), held);
}

#[test]
fn a_bundle_without_n_serves_alg1_and_lambda_like_the_built_index() {
    let built = index();
    let (m_only, _) = slab_bytes(&built);
    let mut registry = Registry::new();
    registry.register_alg1("alg1", Arc::clone(&built), 3);
    registry.register_lambda("lambda", Arc::clone(&built), 8.0);
    let dir = TempDir::new("deferred-n-serve");
    let path = dir.file("bundle.anns");
    registry.save_bundle(&path).expect("save");
    let heap = Registry::load_bundle(&path).expect("heap load");
    let mapped = Registry::load_bundle_mapped(&path).expect("mmap mount");
    let queries = hot_set_workload(&built, 24, 12, 3, 41);
    for (backend, loaded) in [("heap", &heap), ("mmap", &mapped)] {
        for shard in 0..registry.len() {
            let id = ShardId(shard);
            loaded.registry.scheme(id).ready().expect("ready");
            for (q, query) in queries.iter().enumerate() {
                let run = |registry: &Registry| {
                    execute_with(
                        &SoloServable(registry.scheme(id)),
                        query,
                        ExecOptions::with_transcript(),
                    )
                };
                assert_eq!(
                    run(&loaded.registry),
                    run(&registry),
                    "{backend}, shard {shard}, query {q}"
                );
            }
        }
    }
    // No side holds an `N` slab: not the built index, not the heap
    // copy, not the mapped one, which owns nothing.
    assert_eq!(built.memory().slabs_owned, m_only);
    assert_eq!(heap.indexes[0].memory().slabs_owned, m_only);
    let mapped = mapped.lazy.as_ref().expect("mapped pool").decoded();
    assert_eq!(mapped[0].memory().slabs_owned, 0);
    assert_eq!(mapped[0].memory().slabs_borrowed, m_only);
}

#[test]
fn readying_a_mapped_subsampled_alg2_shard_sketches_n_before_any_query() {
    let index = index();
    let (m_only, both) = slab_bytes(&index);
    let config = Alg2Config::with_k(8);
    let inners: Vec<Arc<dyn ServableScheme>> = (0..2)
        .map(|_| -> Arc<dyn ServableScheme> {
            Arc::new(ServeAlg2 {
                index: Arc::clone(&index),
                config,
            })
        })
        .collect();
    let defended = SubsampledRepetition::new(inners, 1, 7, Aggregation::BestOf)
        .expect("valid defense parameters");
    // `register` readies nothing, so the save finds no `N` half to write.
    let mut registry = Registry::new();
    registry.register("defended", Box::new(defended));
    let dir = TempDir::new("deferred-n-subsampled");
    let path = dir.file("bundle.anns");
    registry.save_bundle(&path).expect("save");
    assert_eq!(index.memory().slabs_owned, m_only);

    let mapped = Registry::load_bundle_mapped(&path).expect("mmap mount");
    mapped.registry.scheme(ShardId(0)).ready().expect("ready");
    let decoded = mapped.lazy.as_ref().expect("mapped pool").decoded();
    assert_eq!(decoded.len(), 1);
    let memory = decoded[0].memory();
    assert_eq!(
        memory.slabs_owned,
        both - m_only,
        "the N half, before any query"
    );
    assert_eq!(memory.slabs_borrowed, m_only);

    let heap = Registry::load_bundle(&path).expect("heap load");
    let queries = hot_set_workload(&index, 12, 6, 3, 53);
    for (q, query) in queries.iter().enumerate() {
        let run = |registry: &Registry| {
            execute_with(
                &SoloServable(registry.scheme(ShardId(0))),
                query,
                ExecOptions::with_transcript(),
            )
        };
        assert_eq!(run(&mapped.registry), run(&heap.registry), "query {q}");
    }
}

#[test]
fn alg2_on_a_never_forced_index_matches_its_decoded_copy() {
    let built = index();
    let decoded = AnnIndex::from_bytes(&index().to_bytes()).expect("decode");
    let (m_only, both) = slab_bytes(&built);
    assert_eq!(decoded.memory().slabs_owned, m_only, "stored without N");
    let config = Alg2Config::with_k(8);
    let queries = hot_set_workload(&built, 12, 6, 3, 29);
    for (q, query) in queries.iter().enumerate() {
        // The first auxiliary-cell read sketches the built index's `N` half.
        let (a, la) = built.query_alg2(query, config);
        let (b, lb) = decoded.query_alg2(query, config);
        assert_eq!(a, b, "query {q}");
        assert_eq!(la, lb, "query {q}");
    }
    assert_eq!(built.memory().slabs_owned, both);
    assert_eq!(decoded.memory().slabs_owned, both);
    // And served: the registered built index against the decoded copy.
    let mut registry = Registry::new();
    registry.register_alg2("built", Arc::clone(&built), config);
    registry.register_alg2("decoded", Arc::new(decoded), config);
    let engine = Engine::new(registry, EngineOptions::default());
    let named = |shard: &str| -> Vec<NamedRequest> {
        queries
            .iter()
            .map(|query| NamedRequest {
                shard: shard.to_string(),
                query: query.clone(),
            })
            .collect()
    };
    let built = engine.submit_named(&named("built"));
    let decoded = engine.submit_named(&named("decoded"));
    for (q, (a, b)) in built.iter().zip(&decoded).enumerate() {
        let (a, b) = (a.as_ref().expect("served"), b.as_ref().expect("served"));
        assert_eq!(a.answer, b.answer, "query {q}");
        assert_eq!(a.ledger, b.ledger, "query {q}");
    }
}
