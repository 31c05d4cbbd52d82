//! The graphics cycle gate: `RasterBench::quick()` — geometry, binning
//! and the SIMT raster kernel with hardware texture sampling — on 16 flat
//! cores, pinned to its exact simulated cycle count. Any change to the
//! raster kernel, the fill rule or the texture unit that moves simulated
//! timing shows up here as a one-number diff to review, exactly like the
//! compute gates in `snapshot_smoke.rs`.

use vortex_core::GpuConfig;
use vortex_gfx::RasterBench;
use vortex_kernels::Benchmark;

/// The pinned cycle count for `raster-mc16` in quick mode. Update
/// deliberately, with the reason in the PR.
const RASTER_QUICK_CYCLES: u64 = 226_212;

#[test]
fn raster_mc16_quick_cycles_are_pinned() {
    let r = RasterBench::quick().run_on(&GpuConfig::with_cores(16));
    assert!(r.validated, "raster bench must validate device against host");
    assert_eq!(
        r.stats.cycles, RASTER_QUICK_CYCLES,
        "raster-mc16 (quick) simulated cycles moved — if intentional, \
         update the pin and say why in the PR"
    );
}
