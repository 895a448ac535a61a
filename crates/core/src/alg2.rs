//! **Algorithm 2** — the sophisticated k-round scheme for large `k`
//! (Theorem 3 / §3.2).
//!
//! Like Algorithm 1 it maintains `l < u` with `C_l = ∅ ∧ C_u ≠ ∅`, but each
//! *shrinking phase* (≤ 2 rounds) makes a stronger dichotomy: it either
//! shrinks the gap by a `τ` factor **or** shrinks `|C_u|` by `n^{-1/2s}`.
//! The first round of a phase probes `T_u[M_u x]` plus `⌈(τ−1)/s⌉`
//! *auxiliary* cells, each answering — in a single word — which of `s`
//! grouped coarse queries `|D_{u,ρ(r)}| > n^{-1/s}·|C_u|` fires first; the
//! optional second round probes one accurate cell `T_{ρ(r*−1)−1}` to decide
//! between CASE 2 (both thresholds move) and CASE 3 (`|C_u|` shrinks).
//! Once `u − l < max(3τ, k)` a completion round finishes as in Algorithm 1.
//!
//! With `s = (1/4 − 1/(2c))·k − 1/4` and `τ` s.t.
//! `(τ/2)^{(k−1)/2−2s} ≥ ⌈log_α d / k⌉` — exponent `k/c` — the phase count
//! is at most `(k−1)/2` and the probe total is
//! `O(k + ((log d)/k)^{c/k})` (paper eq. (4)).

use anns_cellprobe::{
    drive, Address, CellProbeScheme, RoundExecutor, RoundMachine, Step, Table, Word,
};
use serde::{Deserialize, Serialize};

use crate::alg1::{choose_tau_alg1, complete, decode_degen};
use crate::instance::{AnnsInstance, AuxGroupSpec};
use crate::outcome::{decode_aux_cell, decode_t_cell, OutcomeKind, QueryOutcome};

/// Configuration of Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Alg2Config {
    /// Round budget `k` (the theorem needs `k > 5c²/(c−2)`; smaller `k`
    /// falls back to an Algorithm 1-style grid, documented in `DESIGN.md`).
    pub k: u32,
    /// The constant `c > 2` of Theorem 3.
    pub c: f64,
    /// Optional grid-width override for ablations.
    pub tau_override: Option<u32>,
}

impl Alg2Config {
    /// Standard configuration at a given round budget (`c = 3`).
    pub fn with_k(k: u32) -> Self {
        Alg2Config {
            k,
            c: 3.0,
            tau_override: None,
        }
    }
}

/// The paper's `s = (1/4 − 1/(2c))·k − 1/4`, clamped to `≥ 1` (the theorem
/// regime `k > 5c²/(c−2)` guarantees `s > 1` by itself).
pub fn alg2_s(k: u32, c: f64) -> f64 {
    assert!(c > 2.0, "Theorem 3 requires c > 2");
    ((0.25 - 0.5 / c) * f64::from(k) - 0.25).max(1.0)
}

/// Grid width `τ` satisfying `(τ/2)^{(k−1)/2−2s} ≥ ⌈top/k⌉` — the paper's
/// requirement bounding the gap-shrinking phases by `(k−1)/2 − 2s`.
///
/// The exponent equals `k/c` when `s` is unclamped; below the theorem's
/// validity range (exponent < 1/2) this falls back to Algorithm 1's grid.
pub fn choose_tau_alg2(top: u32, k: u32, c: f64) -> u32 {
    assert!(k >= 2, "Algorithm 2 needs at least two rounds");
    assert!(c > 2.0, "Theorem 3 requires c > 2");
    // The regime test must use the *unclamped* s: below the theorem's
    // validity (s_raw < 1) the exponent bookkeeping is meaningless and the
    // safe grid is Algorithm 1's.
    let s_raw = (0.25 - 0.5 / c) * f64::from(k) - 0.25;
    let exponent = (f64::from(k) - 1.0) / 2.0 - 2.0 * s_raw;
    let target = (f64::from(top) / f64::from(k)).ceil().max(1.0);
    if s_raw >= 1.0 && exponent >= 0.5 {
        let tau = (2.0 * target.powf(1.0 / exponent)).ceil() as u32;
        tau.max(3)
    } else {
        choose_tau_alg1(top, k).max(3)
    }
}

/// Runs Algorithm 2 against any instance backend. A thin driver over
/// [`Alg2Machine`].
pub fn alg2<I: AnnsInstance>(
    instance: &I,
    query: &I::Query,
    cfg: &Alg2Config,
    exec: &mut RoundExecutor<'_>,
) -> QueryOutcome {
    drive(&mut Alg2Machine::new(instance, query, cfg), exec)
}

/// The round an [`Alg2Machine`] is waiting on.
enum Pending {
    /// Nothing issued yet.
    Start,
    /// The completion round over these scales.
    Completion { scales: Vec<u32> },
    /// A phase's first round, issued with the phase's `l` and gap.
    PhaseFirst { l: u32, gap: u64 },
    /// A phase's second round, probing `T_{probe_scale}`.
    PhaseSecond {
        probe_scale: u32,
        r_star: u32,
        l: u32,
        gap: u64,
    },
}

/// Algorithm 2 as a step machine: each step consumes one round's words
/// and returns the next round's addresses or the outcome.
pub struct Alg2Machine<'a, I: AnnsInstance> {
    instance: &'a I,
    query: &'a I::Query,
    /// Group size `s` (see [`Alg2Machine::new`]).
    s_int: u32,
    tau: u32,
    completion_width: u32,
    l: u32,
    u: u32,
    /// The degenerate-case probes, taken by the first round.
    degen: Option<[Address; 2]>,
    /// Whether the outstanding round leads with the degenerate probes.
    degen_led: bool,
    /// The gap strictly shrinks every phase; capped defensively for
    /// error-injected oracles.
    phases_left: u32,
    pending: Pending,
}

impl<'a, I: AnnsInstance> Alg2Machine<'a, I> {
    /// A machine for one query under `cfg`.
    pub fn new(instance: &'a I, query: &'a I::Query, cfg: &Alg2Config) -> Self {
        let top = instance.top();
        let k = cfg.k;
        assert!(k >= 2, "Algorithm 2 needs at least two rounds");
        // Group size: the instance's tables were built for a fixed s (it
        // enters the n^{-1/s} threshold on the table side), so the query
        // side takes it from the instance rather than recomputing from
        // (k, c).
        let s_int = (instance.s().floor() as u32).max(1);
        let tau = cfg
            .tau_override
            .unwrap_or_else(|| choose_tau_alg2(top, k, cfg.c));
        assert!(tau >= 3, "grid width must be at least 3");
        Alg2Machine {
            instance,
            query,
            s_int,
            tau,
            completion_width: (3 * tau).max(k),
            l: 0,
            u: top,
            degen: instance.degen_addresses(query),
            degen_led: false,
            phases_left: 2 * top + 8,
            pending: Pending::Start,
        }
    }

    /// Starts a round's address list, leading with the degenerate probes
    /// if this is the first round.
    fn round_start(&mut self, capacity: usize) -> Vec<Address> {
        let mut addrs = Vec::with_capacity(capacity + 2);
        if let Some(two) = self.degen.take() {
            addrs.extend(two);
            self.degen_led = true;
        }
        addrs
    }

    /// Issues the completion round once the gap is below the completion
    /// width, else a shrinking phase's first round.
    fn next_round(&mut self) -> Step<QueryOutcome> {
        let (l, u, tau, s_int) = (self.l, self.u, self.tau, self.s_int);
        if u - l < self.completion_width {
            // Completion round (shared logic with Algorithm 1's final round).
            let scales: Vec<u32> = (l + 1..=u).collect();
            let mut addrs = self.round_start(scales.len());
            addrs.extend(
                scales
                    .iter()
                    .map(|&i| self.instance.t_address(self.query, i)),
            );
            self.pending = Pending::Completion { scales };
            return Step::Probe(addrs);
        }
        // Arrange the τ−1 coarse queries into groups of (at most) s.
        let gap = u64::from(u - l);
        let num_groups = (tau - 1).div_ceil(s_int);
        let mut addrs = self.round_start(num_groups as usize + 1);
        addrs.push(self.instance.t_address(self.query, u)); // T_u[M_u x], per the paper
        for j in 1..=num_groups {
            let r_start = 1 + (j - 1) * s_int;
            let r_end = (j * s_int).min(tau - 1);
            let indices: Vec<u32> = (r_start..=r_end).map(|r| rho(l, gap, tau, r)).collect();
            let group = AuxGroupSpec {
                u_scale: u,
                lo: indices[0],
                hi: *indices.last().expect("groups are non-empty"),
                indices,
            };
            addrs.push(self.instance.aux_address(self.query, &group));
        }
        self.pending = Pending::PhaseFirst { l, gap };
        Step::Probe(addrs)
    }

    /// Closes a shrinking phase: checks the invariant and the phase cap,
    /// then issues the next round.
    fn end_phase(&mut self) -> Step<QueryOutcome> {
        // `u <= l` is unreachable with a consistent oracle (the paper's
        // invariant argument); reachable only under injected errors.
        self.phases_left -= 1;
        if self.u <= self.l || self.phases_left == 0 {
            return Step::Done(QueryOutcome {
                kind: OutcomeKind::NotFound,
            });
        }
        self.next_round()
    }
}

/// `ρ(r) = ⌊l + r·gap/τ⌋`, the r-th interior grid point of a phase.
fn rho(l: u32, gap: u64, tau: u32, r: u32) -> u32 {
    l + ((u64::from(r) * gap) / u64::from(tau)) as u32
}

impl<I: AnnsInstance> RoundMachine for Alg2Machine<'_, I> {
    type Answer = QueryOutcome;

    fn step(&mut self, mut words: &[Word]) -> Step<QueryOutcome> {
        let tau = self.tau;
        if std::mem::take(&mut self.degen_led) {
            if let Some(kind) = decode_degen(words) {
                return Step::Done(QueryOutcome { kind });
            }
            words = &words[2..];
        }
        match std::mem::replace(&mut self.pending, Pending::Start) {
            Pending::Start => self.next_round(),
            Pending::Completion { scales } => Step::Done(complete(words, &scales)),
            Pending::PhaseFirst { l, gap } => {
                // r* = smallest r ∈ [τ] with |D_{u,ρ(r)}| > n^{-1/s}|C_u|, else τ.
                let r_star = words[1..]
                    .iter()
                    .enumerate()
                    .find_map(|(jpos, word)| {
                        decode_aux_cell(word)
                            .map(|r_in_group| jpos as u32 * self.s_int + r_in_group)
                    })
                    .unwrap_or(tau);
                debug_assert!((1..=tau).contains(&r_star));
                if r_star == 1 {
                    // CASE 1: gap shrinks to ρ(1)+1 − l; no second round.
                    self.u = rho(l, gap, tau, 1) + 1;
                    return self.end_phase();
                }
                // ---- Shrinking phase, second round ----
                let probe_scale = rho(l, gap, tau, r_star - 1) - 1;
                self.pending = Pending::PhaseSecond {
                    probe_scale,
                    r_star,
                    l,
                    gap,
                };
                Step::Probe(vec![self.instance.t_address(self.query, probe_scale)])
            }
            Pending::PhaseSecond {
                probe_scale,
                r_star,
                l,
                gap,
            } => {
                if decode_t_cell(&words[0]).is_none() {
                    // CASE 2: C_{ρ(r*−1)−1} = ∅ — raise l (and trim u if r* < τ).
                    self.l = probe_scale;
                    if r_star < tau {
                        self.u = rho(l, gap, tau, r_star) + 1;
                    }
                } else {
                    // CASE 3: C_{ρ(r*−1)−1} ≠ ∅ — |C_u| shrinks by ≈ n^{-1/2s}.
                    self.u = probe_scale;
                }
                self.end_phase()
            }
        }
    }
}

/// [`CellProbeScheme`] adapter for Algorithm 2.
pub struct Alg2Scheme<'a, I: AnnsInstance> {
    /// The instance to query.
    pub instance: &'a I,
    /// Algorithm configuration.
    pub config: Alg2Config,
}

impl<I: AnnsInstance> CellProbeScheme for Alg2Scheme<'_, I> {
    type Query = I::Query;
    type Answer = QueryOutcome;

    fn table(&self) -> &dyn Table {
        self.instance.table()
    }

    fn word_bits(&self) -> u64 {
        self.instance.word_bits()
    }

    fn run(&self, query: &Self::Query, exec: &mut RoundExecutor<'_>) -> QueryOutcome {
        alg2(self.instance, query, &self.config, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticInstance, SyntheticProfile};
    use anns_cellprobe::execute;

    fn instance_for(profile: SyntheticProfile, k: u32, c: f64) -> SyntheticInstance {
        SyntheticInstance::new(profile, alg2_s(k, c))
    }

    fn run(
        inst: &SyntheticInstance,
        cfg: Alg2Config,
    ) -> (QueryOutcome, anns_cellprobe::ProbeLedger) {
        let scheme = Alg2Scheme {
            instance: inst,
            config: cfg,
        };
        execute(&scheme, &())
    }

    #[test]
    fn finds_the_planted_scale_point_mass() {
        let top = 300u32;
        for i0 in [2u32, 50, 177, 300] {
            for k in [46u32, 60, 100] {
                let cfg = Alg2Config::with_k(k);
                let inst = instance_for(SyntheticProfile::point_mass(top, i0, 40.0), k, cfg.c);
                let (outcome, _) = run(&inst, cfg);
                assert_eq!(outcome.scale(), Some(i0), "k={k}, i0={i0}");
            }
        }
    }

    #[test]
    fn finds_the_planted_scale_geometric() {
        // Gradually filling balls exercise CASE 3 (|C_u| shrinking).
        let top = 400u32;
        let k = 60u32;
        let cfg = Alg2Config::with_k(k);
        let profile = SyntheticProfile::geometric(top, 10, 0.5, 40.0);
        let inst = SyntheticInstance::new(profile, 4.0);
        let (outcome, ledger) = run(&inst, cfg);
        assert_eq!(outcome.scale(), Some(10));
        assert!(ledger.rounds() >= 2);
    }

    #[test]
    fn round_structure_phases_of_at_most_two_rounds() {
        // All rounds except the completion have at most 1 + ⌈(τ−1)/s⌉
        // probes (first round of a phase) or exactly 1 probe (second round).
        let top = 2000u32;
        let k = 80u32;
        let cfg = Alg2Config::with_k(k);
        let s = alg2_s(k, cfg.c);
        let s_int = s.floor() as u32;
        let tau = choose_tau_alg2(top, k, cfg.c);
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 321, 64.0), s);
        let (outcome, ledger) = run(&inst, cfg);
        assert_eq!(outcome.scale(), Some(321));
        let completion_width = (3 * tau).max(k) as usize;
        let phase_round_width = 1 + (tau - 1).div_ceil(s_int) as usize;
        for (idx, &probes) in ledger.per_round.iter().enumerate() {
            let last = idx + 1 == ledger.per_round.len();
            if last {
                assert!(probes <= completion_width, "completion width {probes}");
            } else {
                assert!(
                    probes == 1 || probes <= phase_round_width,
                    "round {idx} has {probes} probes (limit {phase_round_width})"
                );
            }
        }
    }

    #[test]
    fn round_budget_respected_in_theorem_regime() {
        // c = 3 ⇒ theorem regime k > 5·9/1 = 45. At k ≥ 46 the phase budget
        // (k−1)/2 plus completion must hold.
        let top = 1000u32;
        for k in [46u32, 64, 100, 200] {
            let cfg = Alg2Config::with_k(k);
            let inst = instance_for(SyntheticProfile::point_mass(top, 123, 40.0), k, cfg.c);
            let (outcome, ledger) = run(&inst, cfg);
            assert_eq!(outcome.scale(), Some(123), "k={k}");
            assert!(
                ledger.rounds() <= k as usize,
                "k={k}: used {} rounds",
                ledger.rounds()
            );
        }
    }

    #[test]
    fn probe_total_matches_paper_formula_shape() {
        // Paper eq. (4): probes ≤ (k−1)/2·(⌈(τ−1)/s⌉+2) + max(3τ, k).
        let top = 5000u32;
        for k in [50u32, 80, 140] {
            let cfg = Alg2Config::with_k(k);
            let s = alg2_s(k, cfg.c);
            let s_int = s.floor() as u32;
            let tau = choose_tau_alg2(top, k, cfg.c);
            let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 999, 64.0), s);
            let (_, ledger) = run(&inst, cfg);
            let bound = ((k - 1) / 2 + 1) as usize * ((tau - 1).div_ceil(s_int) as usize + 2)
                + (3 * tau).max(k) as usize;
            assert!(
                ledger.total_probes() <= bound,
                "k={k}: {} probes > bound {bound}",
                ledger.total_probes()
            );
        }
    }

    #[test]
    fn small_k_fallback_still_correct() {
        // Below the theorem regime the τ fallback keeps the algorithm
        // correct (this is the documented practical extension).
        let top = 120u32;
        for k in [2u32, 4, 8, 16] {
            let cfg = Alg2Config::with_k(k);
            let inst = instance_for(SyntheticProfile::point_mass(top, 77, 24.0), k, cfg.c);
            let (outcome, _) = run(&inst, cfg);
            assert_eq!(outcome.scale(), Some(77), "k={k}");
        }
    }

    #[test]
    fn s_and_tau_formulas() {
        // s grows linearly in k; τ shrinks as k grows (for fixed top).
        assert!((alg2_s(46, 3.0) - (0.25 - 1.0 / 6.0) * 46.0 + 0.25).abs() < 1e-9);
        assert_eq!(alg2_s(2, 3.0), 1.0, "clamped below theorem regime");
        let top = 100_000u32;
        let mut prev = u32::MAX;
        for k in [46u32, 60, 90, 140, 220] {
            let tau = choose_tau_alg2(top, k, 3.0);
            assert!(tau <= prev, "τ not non-increasing at k={k}");
            prev = tau;
        }
    }

    #[test]
    fn approaches_one_probe_per_round_at_large_k() {
        // The phase-transition claim: for large enough
        // k = Θ(log log d / log log log d) the total probes are O(k), i.e.
        // amortized O(1) per round of the budget — each parallel probe could
        // be serialized into its own round. (The used-rounds count is much
        // smaller than k here because the synthetic profile converges fast;
        // the claim is about t/k, the worst-case budget ratio.)
        let top = 4000u32; // log_α d ≈ 4000 → "d ≈ 2^2000"
        let k = 300u32;
        let cfg = Alg2Config::with_k(k);
        let inst = instance_for(SyntheticProfile::point_mass(top, 1234, 64.0), k, cfg.c);
        let (outcome, ledger) = run(&inst, cfg);
        assert_eq!(outcome.scale(), Some(1234));
        let ratio = ledger.total_probes() as f64 / f64::from(k);
        assert!(ratio <= 2.0, "t/k = {ratio}");
        assert!(ledger.rounds() <= k as usize);
    }
}
