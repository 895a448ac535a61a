//! Limited-adaptivity approximate nearest neighbor search.
//!
//! This crate is the paper's primary contribution, implemented end to end:
//!
//! * [`alg1`](mod@alg1) — **Algorithm 1** (Theorem 2/9): the simple `k`-round scheme
//!   with `O(k·(log d)^{1/k})` probes — a multi-way search over the ball
//!   scales `0..⌈log_α d⌉` driven solely by the accurate ball
//!   approximations `C_i`;
//! * [`alg2`](mod@alg2) — **Algorithm 2** (Theorem 3/10): the sophisticated scheme for
//!   large `k` with `O(k + ((log d)/k)^{c/k})` probes — shrinking *phases*
//!   of at most two rounds, using grouped coarse-ball queries `D_{i,j}`
//!   through auxiliary tables to either shrink the scale gap by a `τ`
//!   factor or shrink `|C_u|` by `n^{-1/2s}`;
//! * [`lambda`] — the folklore 1-probe scheme for the approximate λ-near
//!   neighbor *search* problem (Theorem 11);
//! * [`concrete`] — [`concrete::AnnIndex`], the real-data backend: lazy
//!   table oracles over database sketches (substitution S1 of `DESIGN.md`),
//!   a row-number membership index for the degenerate cases, build +
//!   query API;
//! * [`synthetic`] — [`synthetic::SyntheticInstance`], the asymptotic-scale
//!   backend: the same algorithms run against a specified ball profile
//!   (substitution S4), so probe/round accounting is measurable for `d` far
//!   beyond anything storable;
//! * [`instance`] — the [`instance::AnnsInstance`] trait both backends
//!   implement; the algorithms are generic over it;
//! * [`outcome`] — answers, cell-content codecs shared by the algorithm
//!   (decode) and the table oracles (encode);
//! * [`serve`] — the object-safe [`serve::ServableScheme`] surface the
//!   `anns-engine` serving subsystem holds instances behind, with
//!   adapters for Algorithm 1/2 and λ-ANNS over a built index;
//! * [`subsample`] — [`subsample::SubsampledRepetition`], independent
//!   repetition with per-query subsampling: the adaptive-adversary
//!   defense as a wrapper over any servable schemes (see
//!   `docs/ROBUSTNESS.md`).
//!
//! All schemes speak the [`anns_cellprobe`] model: probes go through a
//! `RoundExecutor`, rounds and probes are charged to a `ProbeLedger`, word
//! sizes are enforced.
//!
//! Where the paper's names live in code: **Algorithm 1** is
//! [`alg1::alg1`] (served as [`serve::ServeAlg1`], persisted as
//! `store::SchemeSpec::Alg1`); **Algorithm 2** is [`alg2::alg2`] under an
//! [`alg2::Alg2Config`] (served as [`serve::ServeAlg2`]); the **λ-ANNS**
//! 1-probe scheme of Theorem 11 is [`lambda::lambda_ann`] (served as
//! [`serve::ServeLambda`]).
//!
//! # Example
//!
//! Build an index over a planted instance and query it with Algorithm 1
//! at round budget `k = 2`:
//!
//! ```
//! use anns_core::{AnnIndex, BuildOptions};
//! use anns_hamming::gen;
//! use anns_sketch::SketchParams;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let planted = gen::planted(64, 128, 4, &mut rng);
//! let index = AnnIndex::build(
//!     planted.dataset,
//!     SketchParams::practical(2.0, 7),
//!     BuildOptions::default(),
//! );
//! let (outcome, ledger) = index.query(&planted.query, 2); // Algorithm 1, k = 2
//! assert!(index.verify_gamma(&planted.query, &outcome));
//! assert!(ledger.rounds() <= 2);
//! ```

pub mod alg1;
pub mod alg2;
pub mod boosted;
pub mod concrete;
pub mod instance;
pub mod lambda;
mod membership;
pub mod outcome;
pub mod serve;
pub mod store;
pub mod subsample;
pub mod synthetic;

pub use alg1::{alg1, choose_tau_alg1, Alg1Machine, Alg1Scheme};
pub use alg2::{alg2, alg2_s, choose_tau_alg2, Alg2Config, Alg2Machine, Alg2Scheme};
pub use boosted::{BoostedIndex, BoostedLedger};
pub use concrete::{AnnIndex, BuildOptions, ErasureModel, IndexMemory};
pub use instance::{AnnsInstance, AuxGroupSpec};
pub use lambda::{lambda_ann, lambda_machine, lambda_scale, LambdaScheme};
pub use outcome::{OutcomeKind, QueryOutcome};
pub use serve::{
    Candidate, QueryMachine, ServableScheme, ServeAlg1, ServeAlg2, ServeLambda, ServedAnswer,
    SoloServable,
};
pub use store::{SchemeSpec, StoredScheme};
pub use subsample::{Aggregation, SubsampledRepetition, REPLICA_STRIDE};
pub use synthetic::{ErrorModel, SyntheticInstance, SyntheticProfile};
