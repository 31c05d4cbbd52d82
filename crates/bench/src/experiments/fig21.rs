//! Figure 21: the effect of memory scaling — IPC of a 16-core,
//! 16-wavefront, 16-thread configuration as DRAM latency and bandwidth
//! vary (the design-space exploration that exceeds FPGA capacity and runs
//! on the cycle-level simulator, §6.5).

use super::{run_jobs, Report, Scale};
use crate::{f2, Table};
use vortex_core::{CoreConfig, GpuConfig};
use vortex_kernels::{Benchmark, Saxpy, Sgemm};

pub fn report(scale: Scale) -> Report {
    let latencies = [50u32, 100, 200, 400];
    let channels = [2u32, 4, 8, 16];
    // One compute-bound and one memory-bound representative, sized up for
    // the 4096-thread machine.
    let fast = scale == Scale::Fast;
    let sgemm = Sgemm::new(if fast { 16 } else { 48 });
    let saxpy = Saxpy::new(if fast { 8192 } else { 65536 });
    let benches: [&dyn Benchmark; 2] = [&sgemm, &saxpy];

    // The full (benchmark × latency × channels) grid as one parallel work
    // list — these 16-core simulations are the heaviest in the harness,
    // and they are all independent.
    let jobs: Vec<_> = benches
        .iter()
        .flat_map(|&bench| {
            latencies.iter().flat_map(move |&latency| {
                channels.map(|ch| {
                    let mut config = GpuConfig::with_cores(16);
                    config.core = CoreConfig::with_dims(16, 16);
                    config.dram.latency = latency;
                    config.dram.channels = ch;
                    (bench, config)
                })
            })
        })
        .collect();
    let points = run_jobs(&jobs);

    let mut markdown = String::new();
    let mut next = points.iter();
    for name in benches.map(|b| b.name()) {
        let mut t = Table::new(
            std::iter::once("latency \\ channels".to_string())
                .chain(channels.iter().map(|c| format!("{c}ch"))),
        );
        for &lat in &latencies {
            let mut cells = vec![format!("{lat} cyc")];
            for _ in &channels {
                cells.push(f2(next.next().expect("grid result").thread_ipc()));
            }
            t.row(cells);
        }
        markdown += &format!("### {name}\n\n{}\n", t.to_markdown());
    }
    markdown += "(paper's shape: IPC falls with latency and recovers with added \
                 bandwidth; the memory-bound kernel reacts much more strongly)\n";
    let rows = jobs
        .iter()
        .zip(points)
        .map(|((_, c), r)| {
            let (lat, ch) = (c.dram.latency, c.dram.channels);
            (format!("{}/lat{lat}/{ch}ch", r.name), r.stats)
        })
        .collect();
    Report { markdown, rows }
}
