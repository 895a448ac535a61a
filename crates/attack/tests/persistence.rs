//! The defense survives persistence: a scenario registry — undefended
//! LSH, the `SubsampledRepetition` wrapper over independently built
//! replicas, and Algorithm 1 — saved to a store bundle and loaded back
//! answers an identical attack replay *byte-for-byte*: same failure
//! counts, same bucketed curves, same replay counters, same CRC-32
//! trace fingerprints. And a bundle with any byte flipped (or the tail
//! cut off) loads as a typed [`anns_store::StoreError`], never as a
//! silently different defense.

use std::io::Cursor;

use anns_attack::{
    build_scenario, default_strategies, ArmReport, AttackHarness, Judge, ScenarioConfig, SHARDS,
};
use anns_engine::Registry;
use anns_hamming::{Dataset, Point};
use proptest::prelude::*;

/// A persistence-sized scenario: tiny geometry, few rounds — each
/// proptest case builds 1 + replicas LSH indexes and runs 18 arms.
fn config(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        rounds: 10,
        bucket: 5,
        ..ScenarioConfig::tiny(seed)
    }
}

/// Runs the full strategy lineup against every shard of `registry`
/// with fixed per-arm seeds; the trace is a pure function of the
/// registry's serving behavior.
fn attack_all(
    registry: Registry,
    dataset: Dataset,
    target: &Point,
    cfg: &ScenarioConfig,
) -> Vec<ArmReport> {
    let harness = AttackHarness::new(registry, Judge::new(dataset, cfg.band()));
    let mut arms = Vec::new();
    for (si, shard) in SHARDS.iter().enumerate() {
        for (ti, mut strategy) in default_strategies(target, cfg.r).into_iter().enumerate() {
            let arm_seed = cfg.seed ^ ((si * 8 + ti) as u64) << 17;
            arms.push(harness.run_arm(shard, strategy.as_mut(), cfg.rounds, cfg.bucket, arm_seed));
        }
    }
    arms
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// build → save → load → attack: the loaded registry's attack trace
    /// is byte-identical to the original's.
    #[test]
    fn loaded_bundle_replays_the_attack_byte_identically(seed in any::<u64>()) {
        let cfg = config(seed);
        let scenario = build_scenario(&cfg);
        let mut bytes = Cursor::new(Vec::new());
        scenario.registry.save_bundle_to(&mut bytes).expect("save bundle");
        let bytes = bytes.into_inner();
        let loaded = Registry::load_bundle_from(bytes.as_slice()).expect("load bundle");
        prop_assert_eq!(loaded.registry.listing(), scenario.registry.listing());

        let original = attack_all(
            scenario.registry,
            scenario.dataset.clone(),
            &scenario.target,
            &cfg,
        );
        let replayed = attack_all(loaded.registry, scenario.dataset, &scenario.target, &cfg);
        prop_assert_eq!(original, replayed);
    }

    /// Any flipped byte past the container header makes the load fail
    /// typed — every section byte is pinned by a CRC (and the closing
    /// manifest pins the sections), so corruption can never load as a
    /// subtly different scheme.
    #[test]
    fn corrupted_bundles_are_rejected_typed(seed in 0u64..64, flip in any::<u64>(), bit in 0u8..8) {
        let scenario = build_scenario(&config(seed));
        let mut bytes = Cursor::new(Vec::new());
        scenario.registry.save_bundle_to(&mut bytes).expect("save bundle");
        let mut bytes = bytes.into_inner();
        const HEADER: usize = 16;
        prop_assume!(bytes.len() > HEADER);
        let at = HEADER + (flip as usize) % (bytes.len() - HEADER);
        bytes[at] ^= 1 << bit;
        let result = Registry::load_bundle_from(bytes.as_slice());
        prop_assert!(
            result.is_err(),
            "flipping bit {bit} of byte {at} must not load cleanly"
        );
    }

    /// A truncated bundle is a typed error too, at every cut point.
    #[test]
    fn truncated_bundles_are_rejected_typed(cut in any::<u64>()) {
        let scenario = build_scenario(&config(3));
        let mut bytes = Cursor::new(Vec::new());
        scenario.registry.save_bundle_to(&mut bytes).expect("save bundle");
        let mut bytes = bytes.into_inner();
        let keep = (cut as usize) % bytes.len().max(1);
        bytes.truncate(keep);
        prop_assert!(
            Registry::load_bundle_from(bytes.as_slice()).is_err(),
            "a bundle cut to {keep} bytes must not load"
        );
    }
}
