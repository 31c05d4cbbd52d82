//! # vortex-bench
//!
//! The experiment harness: one binary per table and figure of the paper's
//! evaluation (§6), each printing a paper-vs-measured comparison in
//! markdown. `all_experiments` chains every regenerator and emits the
//! content of `EXPERIMENTS.md`.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table3` | Table 3 — per-core synthesis across `W×T` configs |
//! | `fig14` | Figure 14 — IPC across `W×T` configs × 7 benchmarks |
//! | `table4` | Table 4 — multi-core synthesis 1..32 cores |
//! | `fig15` | Figure 15 — area distribution |
//! | `fig16_17` | Figures 16/17 — ASIC power report |
//! | `fig18` | Figure 18 — IPC scaling vs core count |
//! | `table5` | Table 5 — cache synthesis vs virtual ports |
//! | `fig19` | Figure 19 — bank utilization + IPC vs virtual ports |
//! | `fig20` | Figure 20 — HW vs SW texture filtering |
//! | `fig21` | Figure 21 — memory latency/bandwidth scaling |
//!
//! Run with `--release`; the cycle-level simulator is 20-50× slower in
//! debug builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use vortex_core::{GpuConfig, GpuStats};
use vortex_kernels::{all_rodinia, BenchResult, Benchmark};

pub use vortex_par as par;

/// A printable markdown table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 0 decimals.
pub fn f0(v: f64) -> String {
    format!("{v:.0}")
}

/// `true` when the user asked for reduced problem sizes (`--fast` flag or
/// `VORTEX_FAST` env var) — useful for smoke-testing the harness.
pub fn is_fast() -> bool {
    std::env::args().any(|a| a == "--fast") || std::env::var("VORTEX_FAST").is_ok()
}

/// The `--stats-json FILE` argument, when the user passed one.
pub fn stats_json_arg() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--stats-json" {
            return args.next();
        }
    }
    None
}

/// Writes the sweep's per-point stats as JSON when `--stats-json FILE`
/// was given; a no-op otherwise. Every fig binary calls this after its
/// markdown tables, so sweeps become machine-diffable without re-running.
pub fn dump_sweep(title: &str, rows: &[(String, GpuStats)]) {
    let Some(path) = stats_json_arg() else { return };
    let doc = vortex_obs::render_sweep(title, rows);
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("cannot write sweep JSON {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote sweep JSON to {path}");
}

/// The benchmark suite at the selected scale.
pub fn suite() -> Vec<Box<dyn Benchmark>> {
    if is_fast() {
        vortex_kernels::rodinia::all_rodinia_small()
    } else {
        all_rodinia()
    }
}

/// Runs every Rodinia benchmark on `config` (in parallel, one simulator
/// instance per worker), asserting validation. Results come back in suite
/// order regardless of worker count — see [`par::par_map`].
///
/// # Panics
/// Panics if any benchmark fails validation — the experiments must not
/// report numbers from wrong results.
pub fn run_rodinia_suite(config: &GpuConfig) -> Vec<BenchResult> {
    par::par_map(&suite(), |_, b| {
        let r = b.run_on(config);
        assert!(
            r.validated,
            "{} failed validation on {} cores",
            r.name, config.num_cores
        );
        r
    })
}

/// The named workloads `vxprof` can profile: the four snapshot-gate
/// kernels plus the full graphics pipeline. `fast` selects the CI smoke
/// sizes; otherwise the gate-pinned full sizes run.
pub fn registered_benches(fast: bool) -> Vec<(&'static str, Box<dyn Benchmark>)> {
    use vortex_gfx::RasterBench;
    use vortex_kernels::{Bfs, FilterKind, Nearn, Sgemm, TexBench};
    if fast {
        vec![
            ("sgemm", Box::new(Sgemm::new(12)) as Box<dyn Benchmark>),
            ("bfs", Box::new(Bfs::new(96, 3))),
            ("nearn", Box::new(Nearn::new(256))),
            (
                "texture",
                Box::new(TexBench::new(FilterKind::Bilinear, true, 5)),
            ),
            ("raster", Box::new(RasterBench::quick())),
        ]
    } else {
        vec![
            ("sgemm", Box::new(Sgemm::default()) as Box<dyn Benchmark>),
            ("bfs", Box::new(Bfs::default())),
            ("nearn", Box::new(Nearn::default())),
            (
                "texture",
                Box::new(TexBench::new(FilterKind::Bilinear, true, 6)),
            ),
            ("raster", Box::new(RasterBench::default())),
        ]
    }
}

/// The five design-space configurations of Table 3 / Figure 14, as
/// `(wavefronts, threads)`.
pub const DESIGN_SPACE: [(usize, usize); 5] = [(4, 4), (2, 8), (8, 2), (4, 8), (8, 4)];

/// The core counts of Table 4 / Figure 18.
pub const CORE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Standard experiment preamble: name + reminder about release builds.
pub fn preamble(what: &str) {
    eprintln!("# Reproducing {what}");
    if cfg!(debug_assertions) {
        eprintln!("(note: debug build — run with --release for sane wall-clock times)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        assert_eq!(md.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        Table::new(["a"]).row(["1", "2"]);
    }
}
