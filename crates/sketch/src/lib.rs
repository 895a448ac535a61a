//! The sketching substrate of Definition 7 / Lemma 8.
//!
//! Both of the paper's algorithms (and the 1-probe λ-ANNS scheme) never look
//! at raw points on the table side; they work with randomized GF(2)
//! *sketches* in the style of Kushilevitz–Ostrovsky–Rabani, as assembled by
//! Chakrabarti–Regev and restated in the paper's Definition 7:
//!
//! * for every scale `i = 0..⌈log_α d⌉`, a random matrix `M_i` of
//!   `c₁·log n` rows whose entries are iid `Bernoulli(1/(4α^i))`, giving the
//!   **accurate** ball approximations
//!   `C_i = {z ∈ B : dist(M_i x, M_i z) ≤ threshold_i}` with the sandwich
//!   guarantee `B_i ⊆ C_i ⊆ B_{i+1}` (Lemma 8.1);
//! * coarser matrices `N_j` of `(c₂/s)·log n` rows giving the **coarse**
//!   approximations `D_{i,j} = {z ∈ C_i : dist(N_j x, N_j z) ≤
//!   threshold'_j}` with the `n^{-1/s}` fraction guarantees (Lemma 8.2).
//!
//! Modules:
//! * [`delta`] — the `δ(β,α)` gap function, per-row mismatch probabilities,
//!   and the corrected midpoint thresholds (see `DESIGN.md`, "Threshold
//!   clarification");
//! * [`matrix`] — sparse Bernoulli GF(2) matrices and sketches;
//! * [`family`] — the full family `{M_i}, {N_j}` for an instance, plus
//!   precomputed database sketches and the `C_i` / `D_{i,j}` membership
//!   oracles the lazy tables are built from;
//! * [`validate`] — empirical validation of Lemma 8 (experiment E5).
//!
//! # Example
//!
//! Generate the family `{M_i}, {N_j}` for an instance and sketch a point
//! at the finest scale:
//!
//! ```
//! use anns_hamming::Point;
//! use anns_sketch::{SketchFamily, SketchParams};
//!
//! let params = SketchParams::practical(2.0, 7);
//! // d = 64, n = 128: one accurate matrix M_i per scale 0..=top.
//! let family = SketchFamily::generate(64, 128, &params);
//! assert!(family.top() >= 1);
//!
//! let x = Point::zeros(64);
//! let sketch = family.sketch_m(0, &x);
//! assert_eq!(sketch.bits(), family.m_rows());
//! // Identical sketches always pass the C_i membership threshold.
//! assert!(family.m_passes(0, &sketch, sketch.limbs()));
//! ```

pub mod delta;
pub mod family;
pub mod matrix;
pub mod store;
pub mod validate;

pub use delta::{delta_gap, mismatch_probability, threshold_fraction, ThresholdMode};
pub use family::{DbSketches, SketchFamily, SketchParams};
pub use matrix::{Sketch, SketchMatrix};
pub use validate::{
    boundary_workload, validate_fractions, validate_sandwich, FractionReport, SandwichReport,
};
