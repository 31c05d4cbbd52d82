//! CI snapshot smoke: the four gate workloads run under the
//! checkpoint *drill* (`GpuConfig::checkpoint_drill`), which kills and
//! resurrects the simulator — serialize, rebuild from the configuration,
//! restore — every few thousand cycles mid-kernel. The drilled runs must
//! land on exactly the gate cycle counts pinned below and produce
//! `GpuStats` bit-identical to an undrilled run; any drift means
//! checkpoint/restore is not the identity on real workloads.
//!
//! `--release` strongly recommended (the bfs gate simulates ~800k
//! cycles, with a full save/rebuild/restore every 10k of them).

use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, Bfs, FilterKind, Nearn, Sgemm, TexBench};

/// The full-tier gate workloads and their pinned cycle counts (the
/// numbers CHANGES.md tracks PR-to-PR; `profile_gate.rs` holds the
/// profiled runs to the same ones).
fn gates() -> Vec<(Box<dyn Benchmark>, u64)> {
    vec![
        (Box::new(Sgemm::default()) as Box<dyn Benchmark>, 81_970),
        (Box::new(Bfs::default()), 793_827),
        (Box::new(Nearn::default()), 23_140),
        (Box::new(TexBench::new(FilterKind::Bilinear, true, 6)), 47_603),
    ]
}

#[test]
fn gate_workloads_survive_checkpoint_drill() {
    let baseline_config = GpuConfig::with_cores(1);
    let mut drilled_config = GpuConfig::with_cores(1);
    // Not a divisor of any gate's cycle count, so kills land at awkward
    // mid-flight points rather than aligned ones.
    drilled_config.checkpoint_drill = 9_973;
    for (bench, gate_cycles) in gates() {
        let baseline = bench.run_on(&baseline_config);
        let drilled = bench.run_on(&drilled_config);
        assert!(
            drilled.validated,
            "{}: device output must match the host reference after \
             repeated kill-and-resume",
            bench.name()
        );
        assert_eq!(
            drilled.stats.cycles,
            gate_cycles,
            "{}: gate cycle count changed under the checkpoint drill",
            bench.name()
        );
        assert_eq!(
            drilled.stats,
            baseline.stats,
            "{}: GpuStats must be bit-identical with the drill on or off",
            bench.name()
        );
    }
}
