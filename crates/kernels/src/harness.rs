//! The benchmark abstraction the experiment harness drives.

use vortex_core::profile::GpuProfile;
use vortex_core::telemetry::TimeSeries;
use vortex_core::{GpuConfig, GpuStats};

/// The paper's benchmark classification (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchClass {
    /// `sgemm`, `vecadd`, `sfilter` — IPC scales with cores (Figure 18).
    ComputeBound,
    /// `saxpy`, `nearn`, `gaussian`, `bfs` — limited by memory bandwidth.
    MemoryBound,
    /// The synthetic texture-filtering benchmarks (§6.4).
    Texture,
    /// The 3D-graphics rasterization benchmark (§5.5/§6.4): full
    /// render-pipeline frames rather than a single kernel loop.
    Graphics,
}

/// One benchmark execution's outcome.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Device counters.
    pub stats: GpuStats,
    /// `true` when the device output matched the host reference.
    pub validated: bool,
    /// Work items processed.
    pub work: usize,
    /// The sampled telemetry time series, when the config enabled one
    /// (`GpuConfig::sample_interval > 0`); `None` otherwise.
    pub series: Option<TimeSeries>,
    /// The merged PC-level profile, when the config enabled the profiler
    /// (`GpuConfig::profile`); `None` otherwise. Observation-only: `stats`
    /// is bit-identical whether or not this is collected (the invariant
    /// matrix asserts it per gate workload).
    pub profile: Option<GpuProfile>,
}

impl BenchResult {
    /// Aggregate issue-slot IPC.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Aggregate thread-level IPC (the paper's figure metric).
    pub fn thread_ipc(&self) -> f64 {
        self.stats.thread_ipc()
    }
}

/// A runnable benchmark: generates inputs, runs the kernel on a device of
/// the given configuration, and validates against the host reference.
///
/// `Send + Sync` so the experiment harness can fan a sweep out across
/// worker threads (each `run_on` builds its own device; benchmarks hold
/// only their immutable problem description).
pub trait Benchmark: Send + Sync {
    /// Short name (`sgemm`, `bfs`, ...).
    fn name(&self) -> &'static str;

    /// The paper's classification.
    fn class(&self) -> BenchClass;

    /// Runs on a freshly opened device of shape `config`.
    ///
    /// # Panics
    /// Panics if the kernel fails to assemble or times out — benchmark
    /// inputs are fixed, so either indicates a bug, not a user error.
    fn run_on(&self, config: &GpuConfig) -> BenchResult;
}
