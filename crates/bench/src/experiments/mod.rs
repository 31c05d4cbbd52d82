//! The paper's evaluation (§6) as in-process reports, one module per table
//! or figure. Each is a `fn(Scale) -> Report`: its markdown, plus the typed
//! rows of its sweep. [`REPORTS`] lists them in EXPERIMENTS.md order;
//! `all_experiments <name>` runs one, `all_experiments` runs them all.

mod ablation;
mod fig14;
mod fig15;
mod fig16_17;
mod fig18;
mod fig19;
mod fig20;
mod fig21;
mod table1;
mod table3;
mod table4;
mod table5;
mod table6;

use crate::{f2, par, Table};
use std::fmt::Write as _;
use vortex_core::{GpuConfig, GpuStats};
use vortex_kernels::{BenchResult, Benchmark};

/// The problem sizes a report runs at — the only input it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes (`--fast`), for smoke-testing the harness.
    Fast,
    /// The sizes EXPERIMENTS.md is generated at.
    Default,
    /// `Default`, except that `fig20` renders the paper's 1920×1080 frame
    /// (`--1080p`).
    FullHd,
}

/// What a report produces.
#[derive(Debug)]
pub struct Report {
    /// The markdown the report prints.
    pub markdown: String,
    /// One `(point label, stats)` per point of the sweep; empty for a
    /// report with no sweep to export.
    pub rows: Vec<(String, GpuStats)>,
}

impl From<String> for Report {
    /// A report with no sweep to export.
    fn from(markdown: String) -> Self {
        let rows = Vec::new();
        Self { markdown, rows }
    }
}

/// A report: the sweep it runs at a [`Scale`], rendered.
pub type ReportFn = fn(Scale) -> Report;

/// Every report as `(name, title, sweep, report)`, in EXPERIMENTS.md
/// order. `sweep` titles the `vortex-sweep-v1` export of the report's
/// rows, and is `None` exactly when the report has no rows.
pub const REPORTS: [(&str, &str, Option<&str>, ReportFn); 13] = [
    (
        "table1",
        "Table 1 — GPGPU ISA taxonomy",
        None,
        table1::report,
    ),
    (
        "table6",
        "Table 6 — open-source GPGPU comparison",
        None,
        table6::report,
    ),
    (
        "table3",
        "Table 3 — core-configuration synthesis",
        None,
        table3::report,
    ),
    (
        "fig14",
        "Figure 14 — IPC by core configuration",
        Some("fig14: IPC by core configuration"),
        fig14::report,
    ),
    (
        "table4",
        "Table 4 — multi-core synthesis",
        None,
        table4::report,
    ),
    (
        "fig15",
        "Figure 15 — area distribution",
        None,
        fig15::report,
    ),
    (
        "fig16_17",
        "Figures 16/17 — ASIC power",
        None,
        fig16_17::report,
    ),
    (
        "fig18",
        "Figure 18 — performance scaling",
        Some("fig18: performance scaling by core count"),
        fig18::report,
    ),
    (
        "table5",
        "Table 5 — virtual-port cache synthesis",
        None,
        table5::report,
    ),
    (
        "fig19",
        "Figure 19 — bank utilization and IPC vs ports",
        Some("fig19: virtual-port bank utilization and IPC"),
        fig19::report,
    ),
    (
        "fig20",
        "Figure 20 — HW vs SW texture filtering",
        None,
        fig20::report,
    ),
    (
        "fig21",
        "Figure 21 — memory latency/bandwidth scaling",
        Some("fig21: memory latency/bandwidth scaling"),
        fig21::report,
    ),
    (
        "ablation",
        "Ablation studies (beyond the paper)",
        None,
        ablation::report,
    ),
];

/// Runs every report at `scale`, concurrently (each is itself a parallel
/// sweep); the results come back in [`REPORTS`] order.
pub fn run_all(scale: Scale) -> Vec<Report> {
    par::par_map(&REPORTS, |_, &(.., report)| report(scale))
}

/// Assembles the reports of [`run_all`] into the EXPERIMENTS.md body:
/// a header, then each report's markdown under its title.
pub fn render_all(scale: Scale, reports: &[Report]) -> String {
    let mut out = String::from("# Vortex-rs experiment report\n\n");
    let _ = writeln!(
        out,
        "Generated by `all_experiments{}`. Paper reference values are \
         printed alongside measured/modelled values where published.\n",
        if scale == Scale::Fast { " --fast" } else { "" }
    );
    for ((_, title, ..), report) in REPORTS.iter().zip(reports) {
        let _ = writeln!(out, "## {title}\n\n{}\n", report.markdown.trim_end());
    }
    out
}

/// The five design-space configurations of Table 3 / Figure 14, as
/// `(wavefronts, threads)`.
const DESIGN_SPACE: [(usize, usize); 5] = [(4, 4), (2, 8), (8, 2), (4, 8), (8, 4)];

/// The core counts of Table 4 / Figure 18.
const CORE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The Rodinia suite at `scale`.
fn suite(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    if scale == Scale::Fast {
        vortex_kernels::rodinia::all_rodinia_small()
    } else {
        vortex_kernels::all_rodinia()
    }
}

/// Runs every `(benchmark, configuration)` job on its own simulator, in
/// parallel, and returns the results in job order regardless of worker
/// count — see [`par::par_map`].
///
/// # Panics
/// Panics if a benchmark fails validation — the experiments must not
/// report numbers from wrong results.
fn run_jobs(jobs: &[(&dyn Benchmark, GpuConfig)]) -> Vec<BenchResult> {
    par::par_map(jobs, |_, (bench, config)| {
        let r = bench.run_on(config);
        assert!(r.validated, "{} failed validation", r.name);
        r
    })
}

/// Runs the suite at `scale` on each labelled configuration: one
/// thread-IPC table (benchmark × configuration) with `caption` under it,
/// and one sweep row per run, labelled `configuration/benchmark`.
fn suite_report(scale: Scale, configs: &[(String, GpuConfig)], caption: &str) -> Report {
    let suite = suite(scale);
    let jobs: Vec<_> = configs
        .iter()
        .flat_map(|(_, config)| suite.iter().map(|b| (b.as_ref(), config.clone())))
        .collect();
    let runs = run_jobs(&jobs);
    let n = suite.len();
    let mut t = Table::new(
        std::iter::once("benchmark".to_string()).chain(configs.iter().map(|(l, _)| l.clone())),
    );
    for (i, r) in runs[..n].iter().enumerate() {
        let ipcs = runs.chunks(n).map(|rs| f2(rs[i].thread_ipc()));
        t.row(std::iter::once(r.name.clone()).chain(ipcs));
    }
    let markdown = format!("{}\n{caption}\n", t.to_markdown());
    let rows = runs
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("{}/{}", configs[i / n].0, r.name), r.stats))
        .collect();
    Report { markdown, rows }
}
