//! The 1-probe λ-near-neighbor search scheme (Theorem 11 / §3.3).
//!
//! The folklore result the paper includes for contrast: once the *nearest*
//! requirement is relaxed to a fixed radius λ, a single probe suffices. Set
//! `i = ⌈log_α λ⌉` and read `T_i[M_i x]`:
//!
//! * if some database point is within λ of the query then `B_i ≠ ∅`, so by
//!   the sandwich `C_i ≠ ∅` and the cell holds a point of
//!   `C_i ⊆ B_{i+1}`, i.e. within `α^{i+1} ≤ α²λ = γλ` — a valid answer
//!   for the search version `λ-ANNS`;
//! * if no point is within γλ then `B_{i+1} = ∅ ⊇ C_i`, the cell reads
//!   `EMPTY`, and the scheme answers NO.
//!
//! This is why the paper's lower bound must target the *search* problem:
//! the decision version collapses to `O(1)` probes (§1, §4 prelude).

use anns_cellprobe::{drive, CellProbeScheme, OneRound, RoundExecutor, RoundMachine, Table, Word};

use crate::instance::AnnsInstance;
use crate::outcome::decode_t_cell;

/// The probed scale: smallest `i` with `α^i ≥ λ`.
pub fn lambda_scale(lambda: f64, alpha: f64, top: u32) -> u32 {
    assert!(
        lambda >= 1.0,
        "radii below 1 degenerate to exact membership"
    );
    assert!(alpha > 1.0);
    let i = (lambda.ln() / alpha.ln()).ceil().max(0.0) as u32;
    // Guard float rounding at exact powers.
    let i = if alpha.powi(i as i32) < lambda {
        i + 1
    } else {
        i
    };
    i.min(top)
}

/// Answer of the λ-ANNS scheme.
#[derive(Clone, Debug, PartialEq)]
pub enum LambdaAnswer {
    /// A database point within `γλ` of the query (index, bits if carried).
    Neighbor {
        /// Index of the returned point.
        index: u64,
        /// The point's bits (concrete mode).
        point: Option<anns_hamming::Point>,
    },
    /// No database point within `γλ` (valid whenever none is within λ).
    No,
}

/// Runs the 1-probe λ-ANNS scheme: reads `T_i[M_i x]` at `i = ⌈log_α λ⌉`.
/// A thin driver over [`lambda_machine`].
pub fn lambda_ann<I: AnnsInstance>(
    instance: &I,
    query: &I::Query,
    scale: u32,
    exec: &mut RoundExecutor<'_>,
) -> LambdaAnswer {
    drive(&mut lambda_machine(instance, query, scale), exec)
}

/// The λ-ANNS scheme as a step machine: one round of one probe.
pub fn lambda_machine<I: AnnsInstance>(
    instance: &I,
    query: &I::Query,
    scale: u32,
) -> impl RoundMachine<Answer = LambdaAnswer> {
    OneRound::new(
        vec![instance.t_address(query, scale)],
        |words: &[Word]| match decode_t_cell(&words[0]) {
            Some((index, point)) => LambdaAnswer::Neighbor { index, point },
            None => LambdaAnswer::No,
        },
    )
}

/// [`CellProbeScheme`] adapter for the λ-ANNS scheme.
pub struct LambdaScheme<'a, I: AnnsInstance> {
    /// The instance to query.
    pub instance: &'a I,
    /// The probed scale (precomputed via [`lambda_scale`]).
    pub scale: u32,
}

impl<I: AnnsInstance> CellProbeScheme for LambdaScheme<'_, I> {
    type Query = I::Query;
    type Answer = LambdaAnswer;

    fn table(&self) -> &dyn Table {
        self.instance.table()
    }

    fn word_bits(&self) -> u64 {
        self.instance.word_bits()
    }

    fn run(&self, query: &Self::Query, exec: &mut RoundExecutor<'_>) -> LambdaAnswer {
        lambda_ann(self.instance, query, self.scale, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticInstance, SyntheticProfile};
    use anns_cellprobe::execute;

    #[test]
    fn lambda_scale_is_minimal_exponent() {
        let alpha = std::f64::consts::SQRT_2;
        for lambda in [1.0f64, 1.5, 2.0, 4.0, 100.0] {
            let i = lambda_scale(lambda, alpha, 1000);
            assert!(alpha.powi(i as i32) >= lambda - 1e-9, "λ={lambda}");
            if i > 0 {
                assert!(alpha.powi(i as i32 - 1) < lambda, "λ={lambda} not minimal");
            }
        }
    }

    #[test]
    fn lambda_scale_clamps_to_top() {
        assert_eq!(lambda_scale(1e30, 1.5, 17), 17);
    }

    #[test]
    fn one_probe_yes_and_no_instances() {
        let top = 60u32;
        let i0 = 20u32;
        let inst = SyntheticInstance::new(SyntheticProfile::point_mass(top, i0, 24.0), 2.0);
        // Probing at a scale ≥ i0 (λ at least the planted distance): YES.
        let yes = LambdaScheme {
            instance: &inst,
            scale: i0 + 1,
        };
        let (answer, ledger) = execute(&yes, &());
        assert!(matches!(answer, LambdaAnswer::Neighbor { .. }));
        assert_eq!(ledger.total_probes(), 1, "exactly one probe");
        assert_eq!(ledger.rounds(), 1);
        // Probing below i0 (no point within λ or even γλ): NO.
        let no = LambdaScheme {
            instance: &inst,
            scale: i0 - 2,
        };
        let (answer, ledger) = execute(&no, &());
        assert_eq!(answer, LambdaAnswer::No);
        assert_eq!(ledger.total_probes(), 1);
    }

    #[test]
    #[should_panic]
    fn sub_unit_lambda_rejected() {
        let _ = lambda_scale(0.5, 1.5, 10);
    }
}
