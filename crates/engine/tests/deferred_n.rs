//! A built index samples the `M_i` and sketches its database under them
//! only; the `N_j` and their sketches, which only Algorithm 2 reads,
//! follow at their first need. Serving Algorithm 1 and λ never makes
//! them; registering or readying Algorithm 2 does, before any query;
//! encoding forces them and writes the same bytes either way; and
//! Algorithm 2 answers a never-forced built index exactly as it answers
//! the decoded copy.

use std::sync::Arc;

use anns_core::serve::{ServableScheme, ServeAlg2};
use anns_core::{Aggregation, Alg2Config, AnnIndex, SubsampledRepetition};
use anns_engine::testkit::{clustered_index, hot_set_workload};
use anns_engine::{Engine, EngineOptions, NamedRequest, Registry};
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
fn encoding_writes_the_same_bytes_forced_or_not() {
    let never = index();
    let forced = index();
    forced.db_sketches();
    let bytes = forced.to_bytes();
    assert_eq!(
        never.to_bytes(),
        bytes,
        "encoding sketches N as a build would"
    );
    assert_eq!(never.memory(), forced.memory());
}

#[test]
fn alg2_on_a_never_forced_index_matches_its_decoded_copy() {
    let built = index();
    let decoded = AnnIndex::from_bytes(&index().to_bytes()).expect("decode");
    let config = Alg2Config::with_k(8);
    let queries = hot_set_workload(&built, 12, 6, 3, 29);
    for (q, query) in queries.iter().enumerate() {
        // The first auxiliary-cell read sketches the built index's `N` half.
        let (a, la) = built.query_alg2(query, config);
        let (b, lb) = decoded.query_alg2(query, config);
        assert_eq!(a, b, "query {q}");
        assert_eq!(la, lb, "query {q}");
    }
    assert_eq!(built.memory().slabs_owned, slab_bytes(&built).1);
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
