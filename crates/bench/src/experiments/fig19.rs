//! Figure 19: the effect of virtual multi-port caches — per-benchmark
//! data-cache bank utilization and IPC at 1/2/4 virtual ports on a single
//! baseline core.

use super::{run_jobs, suite, Report, Scale};
use crate::{f2, Table};
use vortex_core::GpuConfig;

pub fn report(scale: Scale) -> Report {
    let ports = [1usize, 2, 4];
    let mut util_t = Table::new(
        std::iter::once("benchmark (bank util %)".to_string())
            .chain(ports.iter().map(|p| format!("{p}-port"))),
    );
    let mut ipc_t = Table::new(
        std::iter::once("benchmark (IPC)".to_string())
            .chain(ports.iter().map(|p| format!("{p}-port"))),
    );

    // One job per (benchmark, port count), benchmark-major: the results
    // come back in job order, so each benchmark's row is one chunk.
    let benches = suite(scale);
    let jobs: Vec<_> = benches
        .iter()
        .flat_map(|b| {
            ports.map(|p| {
                let mut config = GpuConfig::with_cores(1);
                config.core.dcache.ports = p;
                (b.as_ref(), config)
            })
        })
        .collect();
    let results = run_jobs(&jobs);
    for row in results.chunks(ports.len()) {
        let util = row
            .iter()
            .map(|r| r.stats.cores[0].dcache.bank_utilization());
        util_t.row(std::iter::once(row[0].name.clone()).chain(util.map(|u| f2(u * 100.0))));
        let ipc = row.iter().map(|r| f2(r.thread_ipc()));
        ipc_t.row(std::iter::once(row[0].name.clone()).chain(ipc));
    }
    let markdown = format!("{}\n{}\n", util_t.to_markdown(), ipc_t.to_markdown())
        + "(paper's shape: sgemm and vecadd show the lowest 1-port utilization \
           — 67%/71% — and utilization rises toward 100% with ports; sgemm \
           benefits most in IPC; 2 ports is the cost/benefit sweet spot)\n";
    let rows = jobs
        .iter()
        .zip(results)
        .map(|((_, c), r)| (format!("{}/{}-port", r.name, c.core.dcache.ports), r.stats))
        .collect();
    Report { markdown, rows }
}
