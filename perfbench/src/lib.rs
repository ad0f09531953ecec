//! End-to-end benchmark of the EDS rewriter: ESQL text in, rows out.
//!
//! One process, one closed-loop client, four seeded workloads (see
//! [`workload::Workload`]). The untraced run prints the end-to-end
//! metrics; the traced run replays each facade call layer by layer,
//! records spans in memory (see [`trace`]) and prints per-layer self
//! times and program counters. `README.md` in this directory maps each
//! metric to the layer it measures.

#![warn(missing_docs)]

pub mod bench;
pub mod probe;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workload;
