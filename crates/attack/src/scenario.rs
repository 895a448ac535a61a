//! Canned attack scenarios: the fixture, the arms, the suite runner.
//!
//! A scenario plants one target point in a uniform database and
//! registers three shards over that *same* database:
//!
//! * `"lsh"` — an undefended bit-sampling LSH index, tables drawn once
//!   at build: the structure whose fixed coins an adaptive attacker can
//!   learn;
//! * `"lsh-sub"` — the defense under test: `replicas` independently
//!   built LSH indexes wrapped in
//!   [`anns_core::SubsampledRepetition`], each query answered by the
//!   best of a per-query pseudorandom subsample of `sample` replicas;
//! * `"alg1"` — the paper's Algorithm 1 over a sketch index, the
//!   deterministic comparison arm.
//!
//! [`run_suite`] drives every strategy against every shard and returns
//! the [`RobustnessReport`]; two calls with equal configs return equal
//! reports — that equality is asserted by `annsctl bench-attack` and
//! re-asserted by the CI attack gate against the committed artifact.

use std::sync::Arc;

use anns_core::serve::ServableScheme;
use anns_core::{Aggregation, AnnIndex, BuildOptions, SubsampledRepetition};
use anns_engine::Registry;
use anns_hamming::{gen, Dataset, Point};
use anns_lsh::{LshIndex, LshParams, ServeLsh};
use anns_sketch::SketchParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::harness::{AttackHarness, Judge};
use crate::report::RobustnessReport;
use crate::splitmix64;
use crate::strategy::{AttackStrategy, BitFlipHillClimb, NonAdaptiveControl, RepetitionProbe};

/// Everything that determines an attack run, and therefore everything
/// the gate refuses to compare across: two reports are comparable only
/// if their configs are equal.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ScenarioConfig {
    /// Scenario name (`"tiny"`, `"quick"`, `"full"`).
    pub name: String,
    /// Database size.
    pub n: usize,
    /// Dimension.
    pub d: u32,
    /// Planted/attack shell radius `r`.
    pub r: u32,
    /// Approximation factor γ; the judge's band is `⌊γ·r⌋`.
    pub gamma: f64,
    /// LSH table boost (success-probability knob for the baselines).
    pub boost: f64,
    /// Defense: independently built replicas `R`.
    pub replicas: u32,
    /// Defense: per-query subsample size `K`.
    pub sample: u32,
    /// Adaptive rounds per arm.
    pub rounds: usize,
    /// Failure-curve bucket width, in rounds.
    pub bucket: usize,
    /// Master seed: fixture, index builds, defense subsampling and every
    /// strategy RNG stream derive from it.
    pub seed: u64,
}

impl ScenarioConfig {
    /// A seconds-scale scenario for doctests and unit tests.
    pub fn tiny(seed: u64) -> Self {
        ScenarioConfig {
            name: "tiny".into(),
            n: 64,
            d: 64,
            r: 4,
            gamma: 2.0,
            boost: 2.0,
            replicas: 4,
            sample: 2,
            rounds: 24,
            bucket: 8,
            seed,
        }
    }

    /// The CI-gated quick scenario (`BENCH_attack_quick.json`).
    pub fn quick(seed: u64) -> Self {
        ScenarioConfig {
            name: "quick".into(),
            n: 512,
            d: 128,
            r: 8,
            gamma: 2.0,
            boost: 4.0,
            replicas: 8,
            sample: 3,
            rounds: 240,
            bucket: 40,
            seed,
        }
    }

    /// The full scenario: same geometry as quick, more adaptive rounds
    /// for smoother curves.
    pub fn full(seed: u64) -> Self {
        ScenarioConfig {
            rounds: 960,
            bucket: 80,
            name: "full".into(),
            ..ScenarioConfig::quick(seed)
        }
    }

    /// The judge's acceptance band, `⌊γ·r⌋`.
    pub fn band(&self) -> u32 {
        (self.gamma * f64::from(self.r)).floor() as u32
    }
}

/// A built scenario: the fixture plus the registry of shards to attack.
pub struct Scenario {
    /// The generating config.
    pub config: ScenarioConfig,
    /// The shared database (needle included).
    pub dataset: Dataset,
    /// The planted target the strategies orbit.
    pub target: Point,
    /// The target's database index.
    pub target_index: usize,
    /// Shards under attack, registered as `"lsh"`, `"lsh-sub"`,
    /// `"alg1"`.
    pub registry: Registry,
}

/// The shard names every scenario registers, in report order.
pub const SHARDS: [&str; 3] = ["lsh", "lsh-sub", "alg1"];

/// Builds the scenario fixture and registry for a config.
pub fn build_scenario(config: &ScenarioConfig) -> Scenario {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let inst = gen::planted(config.n, config.d, config.r, &mut rng);
    let target = inst.dataset.point(inst.planted_index).clone();
    let params = LshParams::for_radius(
        config.n,
        config.d,
        f64::from(config.r),
        config.gamma,
        config.boost,
    );

    let mut registry = Registry::new();
    let lsh = LshIndex::build(
        inst.dataset.clone(),
        params,
        &mut StdRng::seed_from_u64(splitmix64(config.seed ^ 0x15A)),
    );
    registry.register(
        "lsh",
        Box::new(ServeLsh {
            index: Arc::new(lsh),
        }),
    );

    let inners: Vec<Arc<dyn ServableScheme>> = (0..config.replicas)
        .map(|i| {
            let replica = LshIndex::build(
                inst.dataset.clone(),
                params,
                &mut StdRng::seed_from_u64(splitmix64(config.seed ^ (0x5AB + u64::from(i)))),
            );
            Arc::new(ServeLsh {
                index: Arc::new(replica),
            }) as Arc<dyn ServableScheme>
        })
        .collect();
    let defended = SubsampledRepetition::new(
        inners,
        config.sample,
        splitmix64(config.seed ^ 0xDEF),
        Aggregation::BestOf,
    )
    .expect("scenario defense parameters are valid");
    registry.register("lsh-sub", Box::new(defended));

    let index = Arc::new(AnnIndex::build(
        inst.dataset.clone(),
        SketchParams::practical(config.gamma, splitmix64(config.seed ^ 0xA1)),
        BuildOptions::default(),
    ));
    registry.register_alg1("alg1", index, 2);

    Scenario {
        config: config.clone(),
        dataset: inst.dataset,
        target,
        target_index: inst.planted_index,
        registry,
    }
}

/// The strategy lineup every shard faces, in report order.
pub fn default_strategies(target: &Point, r: u32) -> Vec<Box<dyn AttackStrategy>> {
    vec![
        Box::new(NonAdaptiveControl::new(target.clone(), r)),
        Box::new(BitFlipHillClimb::new(target.clone(), r)),
        Box::new(RepetitionProbe::new(target.clone(), r)),
    ]
}

/// Builds the scenario and drives every (shard, strategy) arm through
/// the serving stack. Pure in `config`: equal configs produce equal
/// reports.
pub fn run_suite(config: &ScenarioConfig) -> RobustnessReport {
    let scenario = build_scenario(config);
    let judge = Judge::new(scenario.dataset.clone(), config.band());
    let harness = AttackHarness::new(scenario.registry, judge);
    let mut arms = Vec::new();
    for shard in SHARDS {
        for mut strategy in default_strategies(&scenario.target, config.r) {
            let arm_seed = splitmix64(
                config.seed
                    ^ u64::from(anns_store::crc32(shard.as_bytes()))
                    ^ (u64::from(anns_store::crc32(strategy.name().as_bytes())) << 32),
            );
            arms.push(harness.run_arm(
                shard,
                strategy.as_mut(),
                config.rounds,
                config.bucket,
                arm_seed,
            ));
        }
    }
    RobustnessReport {
        scenario: config.clone(),
        arms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_registers_all_arms_and_replays() {
        let config = ScenarioConfig::tiny(9);
        let report = run_suite(&config);
        assert_eq!(report.arms.len(), SHARDS.len() * 3);
        for shard in SHARDS {
            for strategy in ["control", "hillclimb", "replay"] {
                let arm = report.arm(shard, strategy).expect("arm present");
                assert_eq!(arm.rounds, config.rounds);
            }
        }
        assert_eq!(run_suite(&config), report, "byte-replayable");
    }

    #[test]
    fn defended_label_names_the_wrapper() {
        let scenario = build_scenario(&ScenarioConfig::tiny(10));
        let id = scenario.registry.resolve("lsh-sub").unwrap();
        let label = scenario.registry.scheme(id).label();
        assert!(label.starts_with("subsampled["), "{label}");
    }
}
