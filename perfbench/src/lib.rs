//! End-to-end and per-layer benchmark of the polaroct E_pol pipeline.
//! See `perfbench/README.md` for the workloads, metrics and method.

pub mod inputs;
pub mod report;
pub mod trace;
pub mod workloads;
