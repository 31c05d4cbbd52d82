//! # vortex-core
//!
//! The Vortex SIMT processor (paper §4.1, Figure 4): a cycle-level model of
//! the five-stage in-order RISC-V pipeline augmented with the SIMT hardware
//! components —
//!
//! * the **wavefront scheduler** with its four masks (active / stalled /
//!   barrier / visible) and two-level scheduling policy,
//! * per-wavefront **thread masks** and the hardware **IPDOM stack** driven
//!   by `split`/`join`,
//! * **banked GPRs** (one register file per thread per wavefront),
//! * **barrier tables** for intra-core and inter-core synchronization,
//! * the per-core **L1 caches**, **shared memory**, and **texture unit**,
//! * a multi-core **GPU top level** ([`Gpu`]) tying cores to the shared
//!   L2/L3/DRAM hierarchy and the global barrier table.
//!
//! The model is *functional-first, timing-accurate* (the approach of the
//! paper's own SIMX driver): instructions execute functionally at issue,
//! while the pipeline machinery decides when their results write back, when
//! wavefronts stall, and how the caches and memory system behave. IPC and
//! all cache/memory counters come from the timing side.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod config;
pub mod core;
pub mod decode_cache;
pub mod error;
pub mod exec;
pub mod frontend;
pub mod gpu;
pub mod ipdom;
pub mod lsu;
pub mod profile;
pub mod regfile;
pub mod scheduler;
pub mod scoreboard;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod warp;

pub use crate::core::Core;
pub use config::{smem_phys, CoreConfig, GpuConfig, MAX_CORES, SMEM_BASE};
pub use error::{CoreHangState, HangReport, SimError, WarpHangState};
pub use gpu::Gpu;
pub use profile::{CoreProfile, GpuProfile, PcStats};
pub use stats::{CoreStats, GpuStats, StallStats};
pub use telemetry::{CoreWindow, TelemetrySample, TimeSeries};
