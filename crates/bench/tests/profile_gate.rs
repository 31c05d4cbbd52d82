//! The profiler's overhead gate plus CLI smoke tests.
//!
//! The gate half proves the PC-level profiler is observation-only on the
//! real gate workloads: with `GpuConfig::profile = true` every gate must
//! land on *exactly* the pinned cycle count the profiling-off runs are
//! held to (`snapshot_smoke.rs`), with `GpuStats` bit for bit
//! unchanged. The CLI half drives the installed `vxprof` and
//! `vxsim` binaries end to end: hotspot table shape, JSON schema,
//! folded-stack output, and the structured rejection of bad numeric
//! flags (`--sample 0` and friends).
//!
//! `--release` strongly recommended (the bfs gate simulates ~800k
//! cycles, twice).

use std::process::Command;
use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, Bfs, FilterKind, Nearn, Sgemm, TexBench};

/// The full-tier gate workloads and their pinned cycle counts — the same
/// numbers `snapshot_smoke.rs` pins for profiling-off runs.
fn gates() -> Vec<(Box<dyn Benchmark>, u64)> {
    vec![
        (Box::new(Sgemm::default()) as Box<dyn Benchmark>, 81_970),
        (Box::new(Bfs::default()), 793_827),
        (Box::new(Nearn::default()), 23_140),
        (Box::new(TexBench::new(FilterKind::Bilinear, true, 6)), 47_603),
    ]
}

#[test]
fn gate_cycles_identical_with_profiling_on() {
    let baseline_config = GpuConfig::with_cores(1);
    let mut profiled_config = GpuConfig::with_cores(1);
    profiled_config.profile = true;
    for (bench, gate_cycles) in gates() {
        let baseline = bench.run_on(&baseline_config);
        let profiled = bench.run_on(&profiled_config);
        assert!(
            profiled.validated,
            "{}: device output must stay correct with profiling on",
            bench.name()
        );
        assert_eq!(
            profiled.stats.cycles,
            gate_cycles,
            "{}: gate cycle count changed with profiling on",
            bench.name()
        );
        assert_eq!(
            profiled.stats,
            baseline.stats,
            "{}: GpuStats must be bit-identical with profiling on or off",
            bench.name()
        );
        let profile = profiled.profile.expect("profiling was enabled");
        assert_eq!(
            profile.total_thread_instrs(),
            profiled.stats.total_thread_instrs(),
            "{}: hotspot table's issue column must sum to the run's \
             thread-instruction total",
            bench.name()
        );
        assert!(baseline.profile.is_none(), "profiling off yields no profile");
    }
}

#[test]
fn vxprof_cli_end_to_end() {
    let dir = std::env::temp_dir().join("vxprof_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("sgemm.profile.json");
    let folded = dir.join("sgemm.folded");
    let out = Command::new(env!("CARGO_BIN_EXE_vxprof"))
        .args([
            "sgemm",
            "--fast",
            "--top",
            "5",
            "--json",
            json.to_str().unwrap(),
            "--folded",
            folded.to_str().unwrap(),
        ])
        .output()
        .expect("vxprof runs");
    assert!(out.status.success(), "vxprof sgemm --fast must pass");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("thr-instrs"), "hotspot table header");
    assert!(stdout.contains("0x8000"), "PC column present");
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"schema\": \"vortex-profile-v1\""));
    let folded_text = std::fs::read_to_string(&folded).unwrap();
    assert!(
        folded_text.lines().next().is_some_and(|l| l.starts_with("vortex;")),
        "folded stacks must be non-empty and well-formed"
    );

    // --list enumerates without simulating.
    let out = Command::new(env!("CARGO_BIN_EXE_vxprof"))
        .arg("--list")
        .output()
        .expect("vxprof --list runs");
    assert!(out.status.success());
    let names = String::from_utf8(out.stdout).unwrap();
    for expected in ["sgemm", "bfs", "nearn", "texture", "raster"] {
        assert!(names.lines().any(|l| l == expected), "--list lists {expected}");
    }

    // Unknown workloads and bad numerics are structured usage errors.
    let out = Command::new(env!("CARGO_BIN_EXE_vxprof"))
        .arg("nosuch")
        .output()
        .expect("vxprof runs");
    assert_eq!(out.status.code(), Some(2), "unknown workload exits 2");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("available:"), "error lists available names");
    let out = Command::new(env!("CARGO_BIN_EXE_vxprof"))
        .args(["sgemm", "--top", "0"])
        .output()
        .expect("vxprof runs");
    assert_eq!(out.status.code(), Some(2), "--top 0 exits 2");
}

#[test]
fn vxsim_rejects_bad_numeric_flags() {
    // Every numeric flag must reject 0 and garbage, and every flag that
    // would silently select nothing must be refused, with a structured
    // usage error (exit 2) — never a silent no-op or a panic.
    let positive = "positive integer";
    let rows: &[(&[&str], &str)] = &[
        (&["--sample", "0"], positive),
        (&["--sample", "banana"], positive),
        (&["--max-cycles", "0"], positive),
        (&["--cores", "0"], positive),
        (&["--checkpoint-every", "-5"], positive),
        // Sizes the core model refuses (it would panic, not report).
        (&["--threads", "33"], "--threads must be in 1..=32"),
        (&["--warps", "65"], "--warps must be in 1..=64"),
        // An L3 no request can reach, clusters that share nothing.
        (&["--l3"], "--l3 has no effect without --l2"),
        (&["--cores", "4", "--clusters", "2"], "--clusters has no effect without --l2"),
        // Removed with the intra-simulation worker pool: unknown flag.
        (&["--sim-threads", "4"], "usage: vxsim"),
    ];
    for &(bad, expect) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_vxsim"))
            .arg("/nonexistent.s")
            .args(bad)
            .output()
            .expect("vxsim runs");
        assert_eq!(out.status.code(), Some(2), "vxsim {bad:?} must exit 2 (usage)");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(expect),
            "vxsim {bad:?}: error must name the expectation, got: {err}"
        );
    }
    // A flag expecting a path must not swallow the next flag.
    let out = Command::new(env!("CARGO_BIN_EXE_vxsim"))
        .args(["/nonexistent.s", "--profile-out", "--annotate"])
        .output()
        .expect("vxsim runs");
    assert_eq!(out.status.code(), Some(2), "flag-like path value exits 2");
}
