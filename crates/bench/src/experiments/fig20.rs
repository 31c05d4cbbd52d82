//! Figure 20: hardware texture acceleration vs software filtering across
//! core counts, for point, bilinear and trilinear sampling.
//!
//! The paper renders a full 1080p frame; [`Scale::FullHd`] (`--1080p`)
//! reproduces that scale exactly (a 1024×1024 source sampled to a
//! 1920×1080 target). The default is a 128×128 blit with the same
//! per-pixel structure so the sweep stays quick ([`Scale::Fast`]: 32×32).
//! Reported metric: pixels per kilocycle, plus the HW/SW speedup the
//! figure plots.
//!
//! The 30-run sweep (5 core counts × 3 filters × {SW, HW}) is dispatched
//! across host workers with `vortex-par`; each run owns its GPU instance,
//! and results are reassembled in sweep order, so the tables are identical
//! to a serial sweep.

use super::{run_jobs, Report, Scale};
use crate::{f2, Table};
use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, FilterKind, TexBench};

pub fn report(scale: Scale) -> Report {
    let log_size = match scale {
        Scale::Fast => 5,
        Scale::Default => 7,
        Scale::FullHd => 10,
    };
    let cores = [1usize, 2, 4, 8, 16];
    let filters = [
        FilterKind::Point,
        FilterKind::Bilinear,
        FilterKind::Trilinear,
    ];
    let kernels = filters.map(|filter| {
        [false, true].map(|hw| {
            let b = TexBench::new(filter, hw, log_size);
            match scale {
                Scale::FullHd => b.with_target(1920, 1080),
                _ => b,
            }
        })
    });

    // The full cross product (filter × cores × {SW, HW}), flattened so the
    // whole sweep can fan out.
    let jobs: Vec<(&dyn Benchmark, _)> = kernels
        .iter()
        .flat_map(|pair| {
            cores
                .iter()
                .flat_map(move |&c| pair.iter().map(move |b| (b as _, GpuConfig::with_cores(c))))
        })
        .collect();
    let rates: Vec<f64> = run_jobs(&jobs)
        .iter()
        .map(|r| r.work as f64 / (r.stats.cycles as f64 / 1000.0))
        .collect();

    let mut markdown = String::new();
    let mut next = rates.iter();
    for filter in filters {
        let mut t = Table::new(["cores", "SW px/kcycle", "HW px/kcycle", "HW/SW speedup"]);
        for &c in &cores {
            let sw = *next.next().expect("sweep order");
            let hw = *next.next().expect("sweep order");
            t.row([c.to_string(), f2(sw), f2(hw), f2(hw / sw)]);
        }
        markdown += &format!("### {}\n\n{}\n", filter.name(), t.to_markdown());
    }
    markdown += "(paper's shape: point sampling shows negligible HW benefit — the SW \
                 path is a copy; bilinear gains ~2x on one core, shrinking as cores \
                 saturate memory bandwidth; trilinear gains less than bilinear since \
                 it doubles memory requests)\n";
    Report::from(markdown)
}
