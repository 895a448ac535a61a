//! **Algorithm 1** — the simple k-round scheme (Theorem 2 / §3.1).
//!
//! The algorithm maintains thresholds `l < u` with the invariant
//! `C_l = ∅ ∧ C_u ≠ ∅` (initially `l = 0, u = ⌈log_α d⌉`: `C_0 ⊆ B_1 = ∅`
//! by Assumption 1+2 and `C_top ⊇ B_top = B`). Each *shrinking round* probes
//! the `τ−1` interior grid points `ρ(r) = ⌊l + r(u−l)/τ⌋` in parallel and
//! jumps to the first non-empty one, cutting the gap to `≤ (u−l)/τ + 1`.
//! Once the gap drops below `τ`, the *completion round* probes every
//! remaining scale at once and returns the point stored at the first
//! non-empty `C_{i*}`; by the sandwich `B_{i*−1} ⊆ C_{i*−1} = ∅` and
//! `C_{i*} ⊆ B_{i*+1}`, that point is a `γ = α²`-approximate nearest
//! neighbor.
//!
//! With `τ` chosen so `τ·(τ/2)^{k−1} ≥ ⌈log_α d⌉` ([`choose_tau_alg1`])
//! there are at most `k−1` shrinking rounds, giving `k` rounds and
//! `O(k·(log d)^{1/k})` probes total. The two degenerate-case probes
//! (`x ∈ B?`, `x ∈ N1(B)?`) ride along in the first round, exactly as in
//! the paper.

use anns_cellprobe::{
    drive, Address, CellProbeScheme, RoundExecutor, RoundMachine, Step, Table, Word,
};

use crate::instance::AnnsInstance;
use crate::outcome::{decode_t_cell, OutcomeKind, QueryOutcome};

/// Smallest grid width `τ ≥ 2` with `τ·(τ/2)^{k−1} ≥ top` — the paper's
/// requirement guaranteeing at most `k−1` shrinking rounds (§3.1 sets
/// `τ = c'·(log d)^{1/k}` for a constant `c' ≥ log_α 4`; solving the actual
/// inequality gives the same `Θ((log d)^{1/k})` growth without slack).
///
/// For `k = 1` returns `top + 1`, so the algorithm is a single
/// (non-adaptive) completion round over all scales — the `O(log d)` 1-round
/// scheme the paper contrasts with LSH.
pub fn choose_tau_alg1(top: u32, k: u32) -> u32 {
    assert!(k >= 1, "at least one round");
    if k == 1 {
        return top + 1;
    }
    let target = f64::from(top.max(1));
    let mut tau = 2u32;
    loop {
        let val = f64::from(tau) * (f64::from(tau) / 2.0).powi(k as i32 - 1);
        if val >= target {
            return tau;
        }
        tau += 1;
    }
}

/// Runs Algorithm 1 for `k` rounds against any instance backend.
///
/// `tau_override` forces a grid width (used by the fully-adaptive baseline,
/// `τ = 2`, and by the A2 τ-sensitivity ablation); `None` uses
/// [`choose_tau_alg1`]. A thin driver over [`Alg1Machine`].
pub fn alg1<I: AnnsInstance>(
    instance: &I,
    query: &I::Query,
    k: u32,
    tau_override: Option<u32>,
    exec: &mut RoundExecutor<'_>,
) -> QueryOutcome {
    drive(
        &mut Alg1Machine::new(instance, query, k, tau_override),
        exec,
    )
}

/// Algorithm 1 as a step machine: each step consumes one round's words
/// and returns the next round's addresses or the outcome.
pub struct Alg1Machine<'a, I: AnnsInstance> {
    instance: &'a I,
    query: &'a I::Query,
    tau: u32,
    l: u32,
    u: u32,
    /// The degenerate-case probes, taken by the first round.
    degen: Option<[Address; 2]>,
    /// Whether the outstanding round leads with the degenerate probes.
    degen_led: bool,
    /// Defensive cap: the gap strictly shrinks every round, so `top + 2`
    /// rounds are impossible unless an (error-injected) oracle breaks the
    /// invariant; bail out rather than loop.
    rounds_left: u32,
    /// The outstanding round: its scales, and whether it is the
    /// completion round. `None` before the first step.
    pending: Option<(Vec<u32>, bool)>,
}

impl<'a, I: AnnsInstance> Alg1Machine<'a, I> {
    /// A machine for one query (see [`alg1`] for `k` and `tau_override`).
    pub fn new(instance: &'a I, query: &'a I::Query, k: u32, tau_override: Option<u32>) -> Self {
        let top = instance.top();
        let tau = tau_override.unwrap_or_else(|| choose_tau_alg1(top, k));
        assert!(tau >= 2, "grid width must be at least 2");
        Alg1Machine {
            instance,
            query,
            tau,
            l: 0,
            u: top,
            degen: instance.degen_addresses(query),
            degen_led: false,
            rounds_left: top + 2,
            pending: None,
        }
    }

    /// `ρ(r) = ⌊l + r(u−l)/τ⌋`, the r-th interior grid point.
    fn rho(&self, r: u32) -> u32 {
        self.l + ((u64::from(r) * u64::from(self.u - self.l)) / u64::from(self.tau)) as u32
    }

    /// Issues the next round: the completion round once the gap is below
    /// `τ`, a shrinking round otherwise.
    fn next_round(&mut self) -> Step<QueryOutcome> {
        let completing = self.u - self.l < self.tau;
        let scales: Vec<u32> = if completing {
            (self.l + 1..=self.u).collect()
        } else {
            (1..self.tau).map(|r| self.rho(r)).collect()
        };
        let mut addrs: Vec<Address> = Vec::with_capacity(scales.len() + 2);
        if let Some(two) = self.degen.take() {
            addrs.extend(two);
            self.degen_led = true;
        }
        addrs.extend(
            scales
                .iter()
                .map(|&i| self.instance.t_address(self.query, i)),
        );
        self.pending = Some((scales, completing));
        Step::Probe(addrs)
    }
}

impl<I: AnnsInstance> RoundMachine for Alg1Machine<'_, I> {
    type Answer = QueryOutcome;

    fn step(&mut self, mut cells: &[Word]) -> Step<QueryOutcome> {
        let Some((scales, completing)) = self.pending.take() else {
            return self.next_round();
        };
        if std::mem::take(&mut self.degen_led) {
            // Degenerate hits take precedence: they are exact / distance-1
            // answers and short-circuit the main search.
            if let Some(kind) = decode_degen(cells) {
                return Step::Done(QueryOutcome { kind });
            }
            cells = &cells[2..];
        }
        if completing {
            return Step::Done(complete(cells, &scales));
        }
        // Shrinking round: r* = smallest r with C_ρ(r) ≠ ∅, else τ.
        let r_star = cells
            .iter()
            .position(|w| decode_t_cell(w).is_some())
            .map(|pos| pos as u32 + 1)
            .unwrap_or(self.tau);
        let (new_l, new_u) = (self.rho(r_star - 1), self.rho(r_star));
        debug_assert!(new_l < new_u, "grid points must be distinct when gap ≥ τ");
        debug_assert!(
            new_u - new_l <= (self.u - self.l) / self.tau + 1,
            "paper's gap bound"
        );
        self.l = new_l;
        self.u = new_u;
        self.rounds_left -= 1;
        if self.rounds_left == 0 {
            return Step::Done(QueryOutcome {
                kind: OutcomeKind::NotFound,
            });
        }
        self.next_round()
    }
}

/// The completion round's outcome: the point stored at the first
/// non-empty `C_i` among `scales` (read as `cells`). `NotFound` is
/// possible only when the sketch assumptions failed: `C_u` read empty
/// although the invariant said otherwise.
pub(crate) fn complete(cells: &[Word], scales: &[u32]) -> QueryOutcome {
    let kind = cells
        .iter()
        .zip(scales)
        .find_map(|(word, &scale)| {
            decode_t_cell(word).map(|(index, point)| OutcomeKind::AtScale {
                scale,
                index,
                point,
            })
        })
        .unwrap_or(OutcomeKind::NotFound);
    QueryOutcome { kind }
}

/// The outcome of the two degenerate-case probes leading a first round
/// (`x ∈ B`, then `x ∈ N1(B)`), if either hit.
pub(crate) fn decode_degen(words: &[Word]) -> Option<OutcomeKind> {
    if let Some((index, _)) = decode_t_cell(&words[0]) {
        return Some(OutcomeKind::Exact { index });
    }
    decode_t_cell(&words[1]).map(|(index, point)| OutcomeKind::NearOne { index, point })
}

/// [`CellProbeScheme`] adapter for Algorithm 1, so executions share the
/// uniform ledger accounting of `anns-cellprobe`.
pub struct Alg1Scheme<'a, I: AnnsInstance> {
    /// The instance to query.
    pub instance: &'a I,
    /// Round budget `k ≥ 1`.
    pub k: u32,
    /// Optional grid-width override (see [`alg1`]).
    pub tau_override: Option<u32>,
}

impl<I: AnnsInstance> CellProbeScheme for Alg1Scheme<'_, I> {
    type Query = I::Query;
    type Answer = QueryOutcome;

    fn table(&self) -> &dyn Table {
        self.instance.table()
    }

    fn word_bits(&self) -> u64 {
        self.instance.word_bits()
    }

    fn run(&self, query: &Self::Query, exec: &mut RoundExecutor<'_>) -> QueryOutcome {
        alg1(self.instance, query, self.k, self.tau_override, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{ErrorModel, SyntheticInstance, SyntheticProfile};
    use anns_cellprobe::execute;

    fn run_k(inst: &SyntheticInstance, k: u32) -> (QueryOutcome, anns_cellprobe::ProbeLedger) {
        let scheme = Alg1Scheme {
            instance: inst,
            k,
            tau_override: None,
        };
        execute(&scheme, &())
    }

    #[test]
    fn finds_the_planted_scale_for_every_k() {
        let top = 40u32;
        for i0 in [2u32, 3, 17, 39, 40] {
            let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, i0, 20.0), 2.0);
            for k in 1..=10u32 {
                let (outcome, ledger) = run_k(&inst, k);
                assert_eq!(
                    outcome.scale(),
                    Some(i0),
                    "k={k}, i0={i0}: wrong scale ({outcome:?})"
                );
                assert!(
                    ledger.rounds() <= k as usize,
                    "k={k}, i0={i0}: used {} rounds",
                    ledger.rounds()
                );
            }
        }
    }

    #[test]
    fn round_budget_is_respected_at_large_top() {
        // top = 2000 ≈ log_α d for d ≈ 2^1000 at α = √2: far beyond
        // concrete instances — the point of the synthetic backend.
        let top = 2000u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 747, 64.0), 2.0);
        for k in 1..=14u32 {
            let (outcome, ledger) = run_k(&inst, k);
            assert_eq!(outcome.scale(), Some(747), "k={k}");
            assert!(
                ledger.rounds() <= k as usize,
                "k={k}: rounds {}",
                ledger.rounds()
            );
        }
    }

    #[test]
    fn probe_totals_track_k_times_tau() {
        // Worst-case probes ≤ (k−1)·(τ−1) + (τ−1): each round probes at
        // most τ−1 cells (no degenerate probes in synthetic mode).
        let top = 500u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 100, 32.0), 2.0);
        for k in 2..=10u32 {
            let tau = choose_tau_alg1(top, k);
            let (_, ledger) = run_k(&inst, k);
            assert!(
                ledger.max_round_probes() <= (tau - 1) as usize,
                "k={k}: round width {} exceeds τ−1 = {}",
                ledger.max_round_probes(),
                tau - 1
            );
            assert!(
                ledger.total_probes() <= (k * (tau - 1)) as usize,
                "k={k}: {} probes",
                ledger.total_probes()
            );
        }
    }

    #[test]
    fn k_equals_one_is_nonadaptive_full_scan_of_scales() {
        let top = 64u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 9, 16.0), 2.0);
        let (outcome, ledger) = run_k(&inst, 1);
        assert_eq!(outcome.scale(), Some(9));
        assert_eq!(ledger.rounds(), 1, "k=1 must be non-adaptive");
        assert_eq!(ledger.total_probes(), top as usize, "reads scales 1..=top");
    }

    #[test]
    fn tau_override_two_gives_binary_search() {
        // τ = 2 degenerates into adaptive binary search: 1 probe per round,
        // ~log₂(top) rounds — the fully-adaptive O(log log d) regime.
        let top = 1024u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, 100, 16.0), 2.0);
        let scheme = Alg1Scheme {
            instance: &inst,
            k: 30,
            tau_override: Some(2),
        };
        let (outcome, ledger) = execute(&scheme, &());
        assert_eq!(outcome.scale(), Some(100));
        assert_eq!(ledger.max_round_probes(), 1);
        assert!(
            ledger.rounds() <= 12,
            "binary search should need ≈ log₂ 1024 rounds, used {}",
            ledger.rounds()
        );
    }

    #[test]
    fn choose_tau_satisfies_paper_inequality_and_is_minimal() {
        for top in [4u32, 40, 400, 4000] {
            for k in 2..=12u32 {
                let tau = choose_tau_alg1(top, k);
                let val = |t: u32| f64::from(t) * (f64::from(t) / 2.0).powi(k as i32 - 1);
                assert!(val(tau) >= f64::from(top), "top={top}, k={k}");
                if tau > 2 {
                    assert!(
                        val(tau - 1) < f64::from(top),
                        "not minimal: top={top}, k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn tau_shrinks_as_k_grows() {
        let top = 2000u32;
        let mut prev = u32::MAX;
        for k in 1..=16u32 {
            let tau = choose_tau_alg1(top, k);
            assert!(tau <= prev, "τ must be non-increasing in k");
            prev = tau;
        }
        assert_eq!(choose_tau_alg1(top, 1), top + 1);
    }

    #[test]
    fn geometric_profiles_are_also_solved() {
        let inst = SyntheticInstance::new(SyntheticProfile::geometric(200, 23, 0.5, 40.0), 2.0);
        for k in 1..=8u32 {
            let (outcome, _) = run_k(&inst, k);
            assert_eq!(outcome.scale(), Some(23), "k={k}");
        }
    }

    #[test]
    fn heavy_errors_degrade_gracefully_not_catastrophically() {
        // With flip probability 0 the answer is exact; the error path must
        // terminate and return *something* (possibly NotFound) without
        // panicking or looping.
        let profile = SyntheticProfile::point_mass(100, 37, 24.0);
        for flip in [0.0f64, 0.2, 0.8] {
            let inst = SyntheticInstance::with_errors(
                profile.clone(),
                2.0,
                ErrorModel {
                    flip_probability: flip,
                    seed: 5,
                },
            );
            let (outcome, ledger) = run_k(&inst, 4);
            assert!(ledger.rounds() <= 102);
            if flip == 0.0 {
                assert_eq!(outcome.scale(), Some(37));
            }
        }
    }
}
