//! # vortex-obs
//!
//! Observability exporters for the Vortex simulator: the serialization
//! side of the telemetry subsystem.
//!
//! The collection side lives in the simulator itself — `vortex-core`'s
//! [`telemetry`](vortex_core::telemetry) module samples per-core counter
//! deltas and occupancies every `GpuConfig::sample_interval` cycles, and
//! the instruction [`trace`](vortex_core::trace) records issued
//! instructions. This crate turns those in-memory structures into
//! artifacts:
//!
//! * [`stats::render_stats`] — the final `GpuStats` (with derived
//!   metrics) plus the sampled time series as a JSON document
//!   (`vxsim --stats-json`);
//! * [`stats::render_sweep`] — per-point rows for design-space sweeps
//!   (the fig binaries' `--stats-json`);
//! * [`perfetto::Timeline`] — Chrome/Perfetto `trace_event` JSON with one
//!   track per core/warp, stall/occupancy counter tracks, and hang-report
//!   instants (`vxsim --timeline`);
//! * [`profile::render_report`] / [`profile::render_profile_json`] /
//!   [`profile::render_folded`] — the PC-level profiler's disassembly-
//!   annotated hotspot table, `vortex-profile-v1` export, and folded
//!   flamegraph stacks (`vxsim --profile`, `vxprof`);
//! * [`json`] — the dependency-free writer/reader both are built on (the
//!   schema smoke tests parse exports back with [`json::Value`]).
//!
//! Everything is hand-rolled per the offline-shim policy: no new
//! dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
pub mod profile;
pub mod stats;

pub use json::Value;
pub use perfetto::Timeline;
pub use profile::{
    parse_profile, render_annotated, render_folded, render_profile_json, render_report, Symbols,
    PROFILE_SCHEMA,
};
pub use stats::{render_stats, render_sweep, STATS_SCHEMA};
