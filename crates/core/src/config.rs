//! Processor configuration: the design-space knobs of §6.2.1.

use vortex_mem::cache::CacheConfig;
use vortex_mem::dram::DramConfig;
use vortex_mem::smem::SharedMemConfig;
use crate::scheduler::SchedPolicy;
use vortex_tex::TexUnitConfig;

/// Device addresses at or above this value target the per-core shared
/// memory scratchpad instead of the global memory hierarchy.
pub const SMEM_BASE: u32 = 0xFF00_0000;

/// Functional-unit latencies (cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuLatencies {
    /// Single-cycle integer ALU.
    pub alu: u32,
    /// Pipelined integer multiplier.
    pub mul: u32,
    /// Iterative (blocking) integer divider.
    pub div: u32,
    /// Pipelined FP add/mul/FMA (maps onto the FPGA's DSP blocks).
    pub fpu: u32,
    /// Iterative (blocking) FP divide.
    pub fdiv: u32,
    /// Iterative (blocking) FP square root — the long-latency operation
    /// that makes `nearn` compute-bound in the paper (§6.2.3).
    pub fsqrt: u32,
}

impl Default for FuLatencies {
    fn default() -> Self {
        Self {
            alu: 1,
            mul: 3,
            div: 16,
            fpu: 4,
            fdiv: 16,
            fsqrt: 16,
        }
    }
}

/// One SIMT core's configuration. The paper names configurations
/// `<W>W-<T>T`, e.g. the baseline `4W-4T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Wavefronts per core (`NW`).
    pub num_wavefronts: usize,
    /// Threads per wavefront (`NT`).
    pub num_threads: usize,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Shared-memory scratchpad geometry.
    pub smem: SharedMemConfig,
    /// Texture unit configuration.
    pub tex: TexUnitConfig,
    /// Functional-unit latencies.
    pub latencies: FuLatencies,
    /// Outstanding load instructions the LSU tracks (non-blocking depth).
    pub lsu_entries: usize,
    /// Barriers in the per-core barrier table.
    pub num_barriers: usize,
    /// Wavefront scheduling policy.
    pub sched_policy: SchedPolicy,
    /// Memoize `vortex_isa::decode` results in a per-core host-side cache
    /// keyed by instruction word. Pure host-throughput optimization:
    /// simulated timing and results are bit-identical either way (the
    /// equivalence tests flip this switch to prove it).
    pub decode_cache: bool,
}

impl CoreConfig {
    /// The paper's baseline per-core configuration: 4 wavefronts × 4
    /// threads, 16 KiB 4-bank D$, 8 KiB I$, 8 KiB shared memory.
    pub fn baseline() -> Self {
        Self::with_dims(4, 4)
    }

    /// A `<wavefronts>W-<threads>T` configuration with baseline memories.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `threads > 32`.
    pub fn with_dims(wavefronts: usize, threads: usize) -> Self {
        assert!(wavefronts >= 1, "need at least one wavefront");
        assert!(
            (1..=32).contains(&threads),
            "threads per wavefront must be in 1..=32"
        );
        // The RTL scales D$/shared-memory banks with the lane count so a
        // full wavefront can access in parallel.
        let dcache = CacheConfig {
            num_banks: threads.next_power_of_two().clamp(2, 8),
            ..CacheConfig::dcache_default()
        };
        let smem = SharedMemConfig {
            num_banks: threads.next_power_of_two().max(2),
            ..SharedMemConfig::default()
        };
        Self {
            num_wavefronts: wavefronts,
            num_threads: threads,
            icache: CacheConfig::icache_default(),
            dcache,
            smem,
            tex: TexUnitConfig::default(),
            latencies: FuLatencies::default(),
            // Non-blocking depth: deep enough that the cache subsystem —
            // not the LSU table — is what limits memory-level parallelism
            // (with a shallower table, virtual-port coalescing can
            // *lose* performance by saturating it, inverting Figure 19).
            lsu_entries: 8,
            num_barriers: 16,
            sched_policy: SchedPolicy::default(),
            decode_cache: true,
        }
    }

    /// Short name in the paper's `4W-4T` style.
    pub fn name(&self) -> String {
        format!("{}W-{}T", self.num_wavefronts, self.num_threads)
    }

    /// Total hardware threads on the core.
    pub fn total_threads(&self) -> usize {
        self.num_wavefronts * self.num_threads
    }
}

/// Whole-GPU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Cores per cluster (cluster = L2 sharing domain).
    pub cores_per_cluster: usize,
    /// Per-core configuration (homogeneous).
    pub core: CoreConfig,
    /// Attach a shared L2 per cluster.
    pub l2: Option<CacheConfig>,
    /// Attach an L3 shared by all clusters.
    pub l3: Option<CacheConfig>,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Hang-watchdog window: abort with a structured hang report when no
    /// component makes forward progress for this many consecutive cycles.
    /// Must comfortably exceed the longest legitimate quiet period (DRAM
    /// latency plus any injected delays). `0` disables the watchdog.
    pub watchdog_cycles: u64,
    /// Telemetry sampling interval in cycles: every `sample_interval`
    /// cycles [`crate::Gpu::run`] snapshots per-core counter deltas and
    /// occupancies into an in-memory time series (see
    /// [`crate::telemetry`]). `0` (the default) disables sampling; the
    /// disabled cost is one branch per run-loop iteration. Sampling is
    /// read-only: simulated cycles and [`crate::GpuStats`] are
    /// bit-identical on or off.
    pub sample_interval: u64,
    /// Ignored: the simulator has one run loop. Retained (always `1` from
    /// [`GpuConfig::with_cores`]) until the benchmark drops its Threads2
    /// leg; never enters the snapshot fingerprint.
    pub sim_threads: usize,
    /// Checkpoint *drill* interval in cycles: when non-zero, `Gpu::run`
    /// kills and resurrects the machine every `checkpoint_drill` cycles —
    /// serialize with `Gpu::save_snapshot`, rebuild a fresh `Gpu` from
    /// this configuration, restore, continue. A host-side exercise of the
    /// crash-recovery path (used by the CI snapshot smoke job to prove the
    /// gate workloads' cycle counts survive interruption); simulated
    /// behavior is bit-identical on or off, and it never enters the
    /// snapshot fingerprint. `0` (the default) disables the
    /// drill at the cost of one branch per `run` call.
    pub checkpoint_drill: u64,
    /// Event-driven idle-cycle fast-forward: when every component
    /// reports its next event strictly beyond `cycle + 1`, `Gpu::run`
    /// jumps straight to the earliest horizon, bulk-advancing stall
    /// counters, profile attribution, telemetry windows and watchdog/
    /// drill deadlines as if each cycle had ticked. Pure host-throughput
    /// optimization: simulated cycles, [`crate::GpuStats`], telemetry,
    /// profiles and snapshots are bit-identical on or off (proven by
    /// `tests/ff_determinism.rs`); skipping is horizon-clamped at fault
    /// sites so injected decision streams advance cycle by cycle.
    /// Defaults to on; [`GpuConfig::with_cores`] seeds it from
    /// `VORTEX_FF` (`0`/`off`/`false` disable), and `vxsim` exposes
    /// `--no-fast-forward`. Never enters the snapshot fingerprint.
    pub fast_forward: bool,
    /// Enable the PC-level profiler ([`crate::profile`]): per-PC issue
    /// counts, stall attribution, lane-utilization histograms and LSU/
    /// D-cache attribution, merged deterministically in core-id order.
    /// Observation-only — simulated cycles and [`crate::GpuStats`] are
    /// bit-identical on or off (asserted by the bench profile gate); the
    /// disabled cost is one `Option` test per issue-stage event. Unlike
    /// the host-only knobs, profiling *does* enter the snapshot fingerprint:
    /// profiled snapshots carry extra per-core payload and must not be
    /// restored into an unprofiled machine (or vice versa).
    pub profile: bool,
}

impl GpuConfig {
    /// A `cores × baseline-core` processor without L2/L3 (the single-
    /// cluster configurations of Figure 18). Configurations above 16
    /// cores target the Stratix 10 board and get its 8 memory banks
    /// (§6.5: "2 on A10 and 8 on S10"); smaller ones get the Arria 10's 2.
    pub fn with_cores(num_cores: usize) -> Self {
        assert!(num_cores >= 1, "need at least one core");
        let mut dram = DramConfig::default();
        if num_cores > 16 {
            dram.channels = 8;
        }
        Self {
            num_cores,
            cores_per_cluster: num_cores,
            core: CoreConfig::baseline(),
            l2: None,
            l3: None,
            dram,
            watchdog_cycles: 10_000,
            sample_interval: 0,
            sim_threads: 1,
            checkpoint_drill: 0,
            fast_forward: fast_forward_from_env(),
            profile: false,
        }
    }

    /// Total hardware threads across the processor (the paper scales to
    /// 512 = 32 cores × 4 wavefronts × 4 threads).
    pub fn total_threads(&self) -> usize {
        self.num_cores * self.core.total_threads()
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::with_cores(1)
    }
}

/// Idle-cycle fast-forward requested via `VORTEX_FF` (default on).
/// `0`, `off`, or `false` (case-insensitive) disable it; anything else —
/// including an unset variable — leaves it enabled. This knob never
/// changes simulated behavior, only host wall-clock; reading it here
/// (inside [`GpuConfig::with_cores`]) lets CI run the entire suite with
/// skipping disabled.
pub fn fast_forward_from_env() -> bool {
    match std::env::var("VORTEX_FF") {
        Ok(v) => !matches!(v.trim().to_ascii_lowercase().as_str(), "0" | "off" | "false"),
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = CoreConfig::baseline();
        assert_eq!(c.name(), "4W-4T");
        assert_eq!(c.total_threads(), 16);
        assert_eq!(c.dcache.size_bytes, 16 * 1024);
        assert_eq!(c.icache.size_bytes, 8 * 1024);
        assert_eq!(c.smem.size_bytes, 8 * 1024);
    }

    #[test]
    fn design_space_configs_construct() {
        for (w, t) in [(4, 4), (2, 8), (8, 2), (4, 8), (8, 4), (16, 16)] {
            let c = CoreConfig::with_dims(w, t);
            assert_eq!(c.total_threads(), w * t);
        }
    }

    #[test]
    fn gpu_scales_to_32_cores() {
        let g = GpuConfig::with_cores(32);
        assert_eq!(g.total_threads(), 512);
    }

    #[test]
    #[should_panic(expected = "threads per wavefront")]
    fn too_many_threads_rejected() {
        let _ = CoreConfig::with_dims(4, 64);
    }
}
