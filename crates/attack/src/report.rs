//! Attack-run reports: the serializable output of the harness.
//!
//! Reports are plain data — failure counts, bucketed failure curves,
//! replay counters and a CRC-32 trace fingerprint per arm — and they are
//! `PartialEq`, which is the replay contract made executable: two runs
//! of the same scenario at the same seed must produce *equal* reports,
//! and `annsctl bench-attack` checks exactly that before committing an
//! artifact the CI attack gate compares against.

use serde::Serialize;

use crate::scenario::ScenarioConfig;

/// One (scheme, strategy) arm's measured outcome.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct ArmReport {
    /// Registry shard name the arm attacked (e.g. `"lsh-sub"`).
    pub shard: String,
    /// The shard scheme's label at attack time.
    pub scheme: String,
    /// Strategy name (`"control"`, `"hillclimb"`, `"replay"`).
    pub strategy: String,
    /// Adaptive rounds driven (one query per round).
    pub rounds: usize,
    /// Rounds the judge scored as failures (no answer, or answer outside
    /// the `γr` band).
    pub failures: u64,
    /// Rounds per bucket of the failure curve.
    pub bucket: usize,
    /// Failure count per consecutive bucket of `bucket` rounds — the
    /// failure-probability curve vs adaptive rounds.
    pub bucket_failures: Vec<u64>,
    /// Queries that were byte-identical replays of an earlier query in
    /// this arm.
    pub replay_repeats: u64,
    /// Replays whose answer fingerprint differed from the first
    /// serving of the same query. Nonzero means answer instability —
    /// always a bug under this workspace's determinism contract.
    pub replay_mismatches: u64,
    /// Total cell-probes charged across the arm's queries.
    pub total_probes: u64,
    /// CRC-32 fold over every round's (query limbs, answer, verdict) —
    /// the byte-replayability witness.
    pub fingerprint: u32,
}

impl ArmReport {
    /// Failures as a fraction of rounds.
    pub fn failure_rate(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.failures as f64 / self.rounds as f64
        }
    }

    /// Failure rate over the final bucket only — where an adaptive
    /// attacker has had the most answers to learn from.
    pub fn final_bucket_rate(&self) -> f64 {
        match self.bucket_failures.last() {
            Some(&fails) if self.bucket > 0 => fails as f64 / self.bucket as f64,
            _ => 0.0,
        }
    }
}

/// A full suite run: every (scheme, strategy) arm under one scenario.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct RobustnessReport {
    /// The scenario that produced this report.
    pub scenario: ScenarioConfig,
    /// One report per arm, in deterministic (shard, strategy) order.
    pub arms: Vec<ArmReport>,
}

impl RobustnessReport {
    /// Looks an arm up by shard and strategy name.
    pub fn arm(&self, shard: &str, strategy: &str) -> Option<&ArmReport> {
        self.arms
            .iter()
            .find(|a| a.shard == shard && a.strategy == strategy)
    }

    /// The adaptive degradation of one shard: hill-climb failure rate
    /// minus control failure rate. Near zero for a robust scheme;
    /// strongly positive for a fixed randomized structure under an
    /// adaptive attacker.
    pub fn adaptive_delta(&self, shard: &str) -> Option<f64> {
        let climb = self.arm(shard, "hillclimb")?;
        let control = self.arm(shard, "control")?;
        Some(climb.failure_rate() - control.failure_rate())
    }
}

/// The committed `bench-attack` artifact the CI attack gate diffs
/// against: a suite run plus its replay verification and wall-clock.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct BenchAttackReport {
    /// The scenario that produced this report.
    pub scenario: ScenarioConfig,
    /// Per-arm outcomes (from the first of the two verification runs).
    pub arms: Vec<ArmReport>,
    /// Whether a second run of the identical scenario reproduced every
    /// arm byte-for-byte. Committed artifacts must say `true`.
    pub replay_verified: bool,
    /// Wall-clock of one suite run, nanoseconds. Gated loosely (machine
    /// dependent); the failure counts are gated exactly.
    pub wall_ns: u64,
}

/// Folds one round's observation into a running CRC-32 trace
/// fingerprint: query limbs, the answer's debug form, and the judge's
/// verdict.
pub fn fold_fingerprint(fp: u32, query_limbs: &[u64], answer_debug: &str, failed: bool) -> u32 {
    let mut bytes = Vec::with_capacity(query_limbs.len() * 8 + answer_debug.len() + 5);
    bytes.extend_from_slice(&fp.to_le_bytes());
    for limb in query_limbs {
        bytes.extend_from_slice(&limb.to_le_bytes());
    }
    bytes.extend_from_slice(answer_debug.as_bytes());
    bytes.push(u8::from(failed));
    anns_store::crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = fold_fingerprint(0, &[1, 2], "Candidate(None)", false);
        let b = fold_fingerprint(0, &[2, 1], "Candidate(None)", false);
        let c = fold_fingerprint(0, &[1, 2], "Candidate(None)", true);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fold_fingerprint(0, &[1, 2], "Candidate(None)", false));
        // Folding chains: a different prior fingerprint changes the fold.
        assert_ne!(
            fold_fingerprint(a, &[3], "x", false),
            fold_fingerprint(b, &[3], "x", false)
        );
    }

    #[test]
    fn rates_handle_empty_arms() {
        let arm = ArmReport {
            shard: "s".into(),
            scheme: "l".into(),
            strategy: "control".into(),
            rounds: 0,
            failures: 0,
            bucket: 0,
            bucket_failures: vec![],
            replay_repeats: 0,
            replay_mismatches: 0,
            total_probes: 0,
            fingerprint: 0,
        };
        assert_eq!(arm.failure_rate(), 0.0);
        assert_eq!(arm.final_bucket_rate(), 0.0);
    }
}
