//! Fast-forward identity + skip-schedule gates. `bfs` — the paper's
//! irregular, DRAM-latency-dominated workload — runs with skipping on and
//! off in three configurations:
//!
//! 1. **Default single-core** (the 793 827-cycle gate workload): stats
//!    must be bit-identical, more than a quarter of the cycles must be
//!    skipped, and the jump count is pinned.
//! 2. **Memory-bound single-core** (`dram.latency = 400`, the deep end of
//!    the Figure 21 latency sweep): idle spans quadruple, the skip share
//!    must exceed 60%, and the jump count is pinned.
//! 3. **bfs-mc16** (16-core tier): identity only. With 16 cores in
//!    flight the *global* horizon — the minimum over every core and the
//!    shared DRAM — almost never opens (measured skip share ~1%: some
//!    channel completes a fill nearly every cycle); what must hold is
//!    that skipping never perturbs the multi-core simulation.
//!
//! Everything asserted here is a count that repeats exactly. The
//! wall-clock ratio of the two legs is printed, not asserted: on a shared
//! host it does not reproduce (the floors this file used to hold failed
//! on the unchanged parent), and as live ticks get cheaper — core parking
//! already makes a stalled core's tick two increments — the GPU-level
//! probe can cost more than the jump saves (0.8–0.9× on the default
//! configuration, ~1.3× at latency 400). The measurement of record is
//! vxmeter's paired `core.ff.speedup` on `bfs-1c` (`benchmark/`).

use std::time::Instant;
use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, Bfs};

/// Runs per leg: the best wall-clock is printed, and the repeats must
/// agree on every statistic.
const RUNS: usize = 3;

fn best_cps(bench: &dyn Benchmark, config: &GpuConfig) -> (f64, vortex_core::GpuStats) {
    let mut best = 0.0f64;
    let mut stats = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let r = bench.run_on(config);
        let wall = start.elapsed().as_secs_f64().max(1e-9);
        assert!(r.validated, "bfs failed validation");
        best = best.max(r.stats.cycles as f64 / wall);
        if let Some(prev) = &stats {
            assert_eq!(prev, &r.stats, "bfs must be run-to-run deterministic");
        }
        stats = Some(r.stats);
    }
    (best, stats.expect("at least one run"))
}

/// Runs `bench` with skipping on and off, asserts the identity contract,
/// prints the measured wall-clock ratio, and returns the skipping run's
/// stats.
fn ab_legs(label: &str, bench: &dyn Benchmark, mut config: GpuConfig) -> vortex_core::GpuStats {
    // Explicit on both legs: the gate must measure the engine even under
    // a `VORTEX_FF=0` CI leg, and the off leg must be truly off.
    config.fast_forward = true;
    let (ff_cps, ff_stats) = best_cps(bench, &config);
    config.fast_forward = false;
    let (live_cps, live_stats) = best_cps(bench, &config);
    assert_eq!(
        ff_stats.cycles, live_stats.cycles,
        "{label}: cycle count must not move under fast-forward"
    );
    assert_eq!(
        ff_stats, live_stats,
        "{label}: GpuStats must be bit-identical with skipping on or off"
    );
    assert_eq!(
        live_stats.cycles_skipped, 0,
        "{label}: off leg must tick every cycle"
    );
    let speedup = ff_cps / live_cps;
    eprintln!(
        "{label}: {:.2} Mcps skipping vs {:.2} Mcps live — {speedup:.2}x \
         ({} of {} cycles skipped in {} jumps)",
        ff_cps / 1e6,
        live_cps / 1e6,
        ff_stats.cycles_skipped,
        ff_stats.cycles,
        ff_stats.skip_events
    );
    ff_stats
}

#[test]
fn bfs_default_fast_forward_skips_a_quarter() {
    let config = GpuConfig::with_cores(1);
    let stats = ab_legs("bfs", &Bfs::default(), config);
    assert!(
        stats.cycles_skipped > stats.cycles / 4,
        "bfs is memory-bound — a healthy engine skips a large share \
         (skipped {} of {})",
        stats.cycles_skipped,
        stats.cycles
    );
    // The jump schedule is a function of simulated state alone.
    assert_eq!(stats.skip_events, 6559, "bfs jump count moved");
}

#[test]
fn bfs_high_latency_fast_forward_skips_most() {
    let mut config = GpuConfig::with_cores(1);
    // Figure 21's deepest latency point: DRAM round trips of 400 cycles
    // turn almost every miss into a long certified-idle span.
    config.dram.latency = 400;
    let stats = ab_legs("bfs @ dram latency 400", &Bfs::default(), config);
    assert!(
        stats.cycles_skipped * 10 > stats.cycles * 6,
        "at 400-cycle DRAM latency the skip share must exceed 60% \
         (skipped {} of {})",
        stats.cycles_skipped,
        stats.cycles
    );
    assert_eq!(
        stats.skip_events, 6700,
        "bfs @ latency 400 jump count moved"
    );
}

#[test]
fn bfs_mc16_fast_forward_is_invisible() {
    ab_legs("bfs-mc16", &Bfs::default(), GpuConfig::with_cores(16));
}
