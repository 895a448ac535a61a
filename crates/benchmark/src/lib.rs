//! # anns-benchmark: the serving benchmark
//!
//! Drives the real serving stack — `Engine`, `AdmissionQueue`,
//! `MountTable`, `Registry`, and `AnnsServer` over TCP — through public
//! APIs only, under four workloads that stress different layers. One
//! process runs one workload from a seed. An untraced run reports the
//! gated end-to-end metrics, a traced run the per-layer split; both
//! replay a sample of answers solo to check them. See `README.md` for the
//! load model, the workloads and the metric glossary.
//!
//! - `loadgen` — fixed-rate open-loop schedules, Zipf and query mixes;
//! - [`workload`] — set-up of each workload and its serving stack;
//! - `drive` — the phases: open and closed loops, in process and over
//!   the wire, and the batch call;
//! - `layers` — bench-side timing wrappers and spans;
//! - `replay` — the answer check;
//! - [`run`] — one run, start to finish, and its metrics;
//! - `stats`, [`report`], [`compare`] — numbers in and out.

pub mod compare;
mod drive;
mod layers;
mod loadgen;
mod replay;
pub mod report;
pub mod run;
mod stats;
pub mod workload;
