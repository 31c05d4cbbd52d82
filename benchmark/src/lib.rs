//! # vxmeter
//!
//! The repository's benchmark: four long workloads, end-to-end host and
//! simulated metrics measured with tracing off, and per-layer attribution
//! taken from outside the simulator — spans around calls into public
//! functions, A/B legs through public configuration, isolated drivers.
//! See `README.md` beside this crate for the metric tables and how the
//! layers are expected to move the end-to-end numbers.

#![warn(missing_docs)]

pub mod compare;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod run;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod workloads;
