//! # vortex-bench
//!
//! The experiment harness: one report per table and figure of the paper's
//! evaluation (§6), each a library function ([`experiments`]) returning a
//! paper-vs-measured comparison in markdown and, for a simulated sweep,
//! its typed rows. `all_experiments`, the one report binary, runs a report
//! by name, or all of them to emit the content of `EXPERIMENTS.md`.
//!
//! | Report | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — GPGPU ISA taxonomy |
//! | `table6` | Table 6 — open-source GPGPU comparison |
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
//! | `ablation` | Ablations of design choices beyond the paper |
//!
//! Run with `--release`; the cycle-level simulator is 20-50× slower in
//! debug builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use vortex_kernels::Benchmark;

pub mod experiments;
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
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
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
