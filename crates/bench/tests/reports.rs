//! The paper's evaluation in-process, at `Scale::Fast`: the assembled
//! report against its checked-in text, and the first paper-shape
//! predicates over the reports' typed rows. Every test reads the same
//! run of every report, made once per process.
//!
//! Re-pinning `all_experiments_fast.txt` is deliberate: regenerate it with
//! `cargo run --release -p vortex-bench --bin all_experiments -- --fast`
//! and list every moved line in CHANGES.md with the reason it moved.

use std::sync::OnceLock;
use vortex_bench::experiments::{render_all, run_all, Report, Scale, REPORTS};
use vortex_core::GpuStats;

fn fast() -> &'static [Report] {
    static FAST: OnceLock<Vec<Report>> = OnceLock::new();
    FAST.get_or_init(|| run_all(Scale::Fast))
}

fn rows(name: &str) -> &'static [(String, GpuStats)] {
    let i = REPORTS.iter().position(|r| r.0 == name).expect("a report");
    &fast()[i].rows
}

#[test]
fn fast_report_matches_the_checked_in_text() {
    let pinned = include_str!("all_experiments_fast.txt");
    let now = render_all(Scale::Fast, fast());
    let moved = now
        .lines()
        .zip(pinned.lines())
        .enumerate()
        .find(|(_, (n, p))| n != p);
    if let Some((i, (now, pinned))) = moved {
        panic!(
            "the fast report differs from tests/all_experiments_fast.txt at \
             line {}:\n  pinned: {pinned}\n  now:    {now}",
            i + 1
        );
    }
    assert_eq!(now.lines().count(), pinned.lines().count(), "line count");
    assert_eq!(now, pinned, "same lines, different line endings");
}

#[test]
fn sweep_titles_name_exactly_the_reports_with_rows() {
    for ((name, _, sweep, _), report) in REPORTS.iter().zip(fast()) {
        assert_eq!(sweep.is_some(), !report.rows.is_empty(), "{name}");
    }
}

/// Fig. 19: more virtual ports never lower a kernel's D$ bank utilization.
#[test]
fn fig19_bank_utilization_does_not_fall_with_ports() {
    let rows = rows("fig19");
    assert_eq!(rows.len(), 21, "7 kernels x 3 port counts");
    for kernel in rows.chunks(3) {
        let labels: Vec<_> = kernel
            .iter()
            .map(|(l, _)| l.split_once('/').unwrap())
            .collect();
        assert!(labels.iter().all(|(k, _)| *k == labels[0].0));
        let ports: Vec<_> = labels.iter().map(|(_, p)| *p).collect();
        assert_eq!(ports, ["1-port", "2-port", "4-port"]);
        let util: Vec<f64> = kernel
            .iter()
            .map(|(_, s)| s.cores[0].dcache.bank_utilization())
            .collect();
        assert!(
            util.windows(2).all(|w| w[0] <= w[1]),
            "{}: {util:?}",
            labels[0].0
        );
    }
}

/// Fig. 21: compute-bound sgemm is insensitive to DRAM bandwidth — its
/// IPC is the same at 2, 4, 8 and 16 channels, at every latency.
#[test]
fn fig21_sgemm_ipc_is_flat_in_channels() {
    let sgemm: Vec<_> = rows("fig21")
        .iter()
        .filter(|(l, _)| l.starts_with("sgemm/"))
        .collect();
    assert_eq!(sgemm.len(), 16, "4 latencies x 4 channel counts");
    for latency in sgemm.chunks(4) {
        let ipc: Vec<f64> = latency.iter().map(|(_, s)| s.thread_ipc()).collect();
        assert!(
            ipc.iter().all(|&i| i == ipc[0]),
            "{}: {ipc:?}",
            latency[0].0
        );
    }
}
