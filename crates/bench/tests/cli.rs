//! Process-level smokes for the installed binaries and the export paths:
//! `vxsim` and `vxprof` end to end, `vxsim --trace` on failing outcomes
//! (where it matters most), the hang exit code and its artifacts, the
//! stats-JSON and Perfetto exports parsing with their schemas' required
//! keys, structured rejection of bad numeric flags, and the parallel
//! sweep runner being invisible to sweep results. The simulator's
//! bit-identity contract lives in `invariants.rs`.

use std::process::Command;
use vortex_bench::par;
use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, Sgemm};
use vortex_obs::Value;

/// The parallel sweep runner must return exactly what a sequential run
/// returns, in the same order — here on real simulator work (a mix of
/// configurations with very different runtimes, so workers genuinely
/// finish out of order).
#[test]
fn parallel_sweep_matches_sequential_byte_for_byte() {
    let sgemm = Sgemm::new(8);
    let sweep: Vec<usize> = vec![1, 2, 1, 4, 2, 1];
    let run = |_i: usize, &cores: &usize| {
        let r = sgemm.run_on(&GpuConfig::with_cores(cores));
        assert!(r.validated);
        format!("{cores}c: {} cycles {} instrs", r.stats.cycles, r.stats.total_instrs())
    };
    let sequential = par::par_map_with_jobs(1, &sweep, run);
    let parallel = par::par_map_with_jobs(4, &sweep, run);
    assert_eq!(sequential, parallel);
}

#[test]
fn vxprof_cli_end_to_end() {
    let dir = std::env::temp_dir().join(format!("vxprof_cli_smoke_{}", std::process::id()));
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
    std::fs::remove_dir_all(&dir).unwrap();

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
fn cli_rejects_bad_numeric_flags() {
    // Every numeric flag must reject 0 and garbage, and every flag that
    // would silently select nothing must be refused, with a structured
    // usage error (exit 2) — never a silent no-op or a panic.
    let positive = "positive integer";
    let rows: &[(&str, &[&str], &str)] = &[
        ("vxsim", &["--sample", "0"], positive),
        ("vxsim", &["--sample", "banana"], positive),
        ("vxsim", &["--max-cycles", "0"], positive),
        ("vxsim", &["--cores", "0"], positive),
        ("vxsim", &["--checkpoint-every", "-5"], positive),
        // Sizes the core model refuses (it would panic, not report).
        ("vxsim", &["--threads", "33"], "--threads must be in 1..=32"),
        ("vxsim", &["--warps", "65"], "--warps must be in 1..=64"),
        // Sizes that would overflow a capacity or exhaust host memory.
        ("vxsim", &["--ports", "33"], "--ports must be in 1..=32"),
        ("vxsim", &["--ports", "18446744073709551615"], "--ports must be in 1..=32"),
        ("vxsim", &["--cores", "1025"], "--cores must be in 1..=256"),
        ("vxsim", &["--cores", "100000000"], "--cores must be in 1..=256"),
        ("vxprof", &["sgemm", "--fast", "--cores", "100000000"], "--cores must be in 1..=256"),
        // Beyond 256 cores a scratchpad window would alias the heap.
        ("vxsim", &["--cores", "257"], "--cores must be in 1..=256"),
        ("vxprof", &["sgemm", "--fast", "--cores", "257"], "--cores must be in 1..=256"),
        // An L3 no request can reach, clusters that share nothing.
        ("vxsim", &["--l3"], "--l3 has no effect without --l2"),
        ("vxsim", &["--cores", "4", "--clusters", "2"], "--clusters has no effect without --l2"),
        // Removed with the intra-simulation worker pool: unknown flag.
        ("vxsim", &["--sim-threads", "4"], "usage: vxsim"),
        // Removed with the rollback-and-retry policy: unknown flag.
        ("vxsim", &["--resume-retry", "4"], "usage: vxsim"),
        // Removed fault classes (they could only hang, or no workload
        // reached their site): unknown keys.
        ("vxsim", &["--inject", "dram_drop=5"], "fault key `dram_drop`"),
        ("vxsim", &["--inject", "corrupt=5"], "fault key `corrupt`"),
        ("vxsim", &["--inject", "tex_stall=5"], "fault key `tex_stall`"),
        ("vxsim", &["--inject", "cache_rsp_stall=5"], "fault key `cache_rsp_stall`"),
        // A stall that fires every cycle never lets a handshake complete.
        ("vxsim", &["--inject", "elastic_stall=1000"], "`elastic_stall` exceeds 999"),
    ];
    for &(bin, bad, expect) in rows {
        let mut cmd = match bin {
            "vxsim" => {
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_vxsim"));
                cmd.arg("/nonexistent.s");
                cmd
            }
            _ => Command::new(env!("CARGO_BIN_EXE_vxprof")),
        };
        let out = cmd.args(bad).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {bad:?} must exit 2 (usage)");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(expect),
            "{bin} {bad:?}: error must name the expectation, got: {err}"
        );
    }
    // A flag expecting a path must not swallow the next flag.
    let out = Command::new(env!("CARGO_BIN_EXE_vxsim"))
        .args(["/nonexistent.s", "--profile-out", "--annotate"])
        .output()
        .expect("vxsim runs");
    assert_eq!(out.status.code(), Some(2), "flag-like path value exits 2");
}

/// A hang is exit 10 with the watchdog report on stderr, and the
/// artifacts of the run up to the hang survive it: the partial stats JSON
/// (with no rollback bookkeeping) and the checkpoints written before the
/// watchdog fired. One wavefront waits at a barrier sized for two, so the
/// machine stops making progress deterministically.
#[test]
fn vxsim_hang_exits_10_with_artifacts() {
    let src = "    li t0, 0\n    li t1, 2\n    bar t0, t1\n    ecall\n";
    let dir = std::env::temp_dir().join(format!("vxsim_hang_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let kernel = dir.join("hang.s");
    let stats = dir.join("stats.json");
    std::fs::write(&kernel, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_vxsim"))
        .arg(&kernel)
        .args(["--checkpoint-every", "10000", "--checkpoint-dir"])
        .arg(&dir)
        .arg("--stats-json")
        .arg(&stats)
        .output()
        .expect("vxsim runs");
    assert_eq!(out.status.code(), Some(10), "a hang exits 10: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("HANG: hang detected"), "hang report on stderr: {err}");
    assert!(err.contains("stall=Barrier"), "report names the stuck warp: {err}");
    let v = Value::parse(&std::fs::read_to_string(&stats).unwrap()).expect("stats JSON parses");
    assert!(v.get("cycles").is_some());
    assert!(v.get("recovery").is_none(), "no rollback bookkeeping");
    let checkpoints = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name().into_string().unwrap();
            name.starts_with("ckpt-") && name.ends_with(".vxsnap")
        })
        .count();
    assert!(checkpoints >= 1, "checkpoints before the hang are kept");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `vxsim --trace N` must dump the retained trace even when the run does
/// not complete — a spin kernel hits the cycle budget (TIMEOUT, exit ≠ 0)
/// and the last instructions must still appear on **stderr** (the trace's
/// default sink, so it never interleaves with the stdout report).
#[test]
fn vxsim_dumps_trace_on_timeout() {
    let src = "spin:\n    j spin\n";
    let path = std::env::temp_dir().join(format!("vxsim_spin_{}.s", std::process::id()));
    std::fs::write(&path, src).expect("write spin kernel");
    let out = Command::new(env!("CARGO_BIN_EXE_vxsim"))
        .arg(&path)
        .args(["--trace", "16", "--max-cycles", "2000"])
        .output()
        .expect("vxsim runs");
    let _ = std::fs::remove_file(&path);
    assert!(!out.status.success(), "spin kernel must not PASS");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("TIMEOUT"), "expected TIMEOUT, got: {stderr}");
    let trace_lines = stderr.lines().filter(|l| l.contains("core0 w0")).count();
    assert!(
        trace_lines > 0,
        "trace must be dumped on the failure path; stderr was: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("core0 w0"),
        "trace must not leak onto stdout; stdout was: {stdout}"
    );
}

/// A small loop kernel with memory traffic, used by the export smoke
/// tests below.
const EXPORT_KERNEL: &str = "\
    li x5, 0
    li x6, 16
loop:
    slli x7, x5, 2
    lw x8, 0x100(x7)
    add x8, x8, x5
    sw x8, 0x100(x7)
    addi x5, x5, 1
    blt x5, x6, loop
    ecall
";

fn run_vxsim_exports(tag: &str, extra: &[&str]) -> (std::process::Output, Vec<String>) {
    let dir = std::env::temp_dir();
    let asm = dir.join(format!("vxsim_export_{tag}_{}.s", std::process::id()));
    std::fs::write(&asm, EXPORT_KERNEL).expect("write kernel");
    let outputs: Vec<String> = extra
        .iter()
        .map(|f| {
            dir.join(format!("vxsim_{}_{tag}_{}.json", f.trim_start_matches("--"), std::process::id()))
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vxsim"));
    cmd.arg(&asm);
    for (flag, file) in extra.iter().zip(&outputs) {
        cmd.arg(flag).arg(file);
    }
    let out = cmd
        .args(["--sample", "64", "--trace", "4096"])
        .output()
        .expect("vxsim runs");
    let _ = std::fs::remove_file(&asm);
    (out, outputs)
}

/// `vxsim --stats-json` must emit a document that parses with the
/// in-repo JSON reader and carries every `vortex-stats-v1` key, including
/// the sampled time series.
#[test]
fn vxsim_stats_json_parses_with_required_keys() {
    let (out, files) = run_vxsim_exports("stats", &["--stats-json"]);
    assert!(out.status.success(), "kernel must PASS: {:?}", out);
    let text = std::fs::read_to_string(&files[0]).expect("stats JSON written");
    let _ = std::fs::remove_file(&files[0]);
    let v = Value::parse(&text).expect("stats JSON parses");
    assert_eq!(v.get("schema").unwrap().as_str(), Some(vortex_obs::STATS_SCHEMA));
    for key in [
        "label", "cycles", "total_instrs", "total_thread_instrs", "ipc",
        "thread_ipc", "dram_reads", "dram_writes", "stalls", "icache",
        "dcache", "tex", "cores", "timeseries",
    ] {
        assert!(v.get(key).is_some(), "stats JSON must carry '{key}'");
    }
    let cores = v.get("cores").unwrap().as_arr().unwrap();
    assert_eq!(cores.len(), 1);
    assert!(cores[0].get("stalls").unwrap().get("total").unwrap().as_num().is_some());
    // --sample 64 was on: the time series must be present with windows.
    let ts = v.get("timeseries").unwrap();
    assert!(ts.get("interval").unwrap().as_num() == Some(64.0));
    assert!(
        !ts.get("samples").unwrap().as_arr().unwrap().is_empty(),
        "sampled run must produce windows"
    );
}

/// `vxsim --timeline` must emit Chrome/Perfetto trace-event JSON: a
/// `traceEvents` array holding track-name metadata, instruction duration
/// events, and counter samples.
#[test]
fn vxsim_timeline_parses_as_trace_events() {
    let (out, files) = run_vxsim_exports("timeline", &["--timeline"]);
    assert!(out.status.success(), "kernel must PASS: {:?}", out);
    let text = std::fs::read_to_string(&files[0]).expect("timeline written");
    let _ = std::fs::remove_file(&files[0]);
    let v = Value::parse(&text).expect("timeline parses");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let ph = |p: &str| events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some(p)).count();
    assert!(ph("M") >= 2, "process + thread name metadata");
    assert!(ph("X") > 10, "instruction duration events from --trace");
    assert!(ph("C") > 0, "counter tracks from --sample");
    let x = events
        .iter()
        .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
        .unwrap();
    for key in ["name", "ts", "dur", "pid", "tid"] {
        assert!(x.get(key).is_some(), "duration events must carry '{key}'");
    }
}

/// Acceptance: with telemetry enabled, the *real* sgemm benchmark's
/// stats JSON and Perfetto timeline must load cleanly — the sampled time
/// series lands in the stats document and drives counter tracks.
#[test]
fn sgemm_stats_json_and_timeline_load_cleanly() {
    let mut config = GpuConfig::with_cores(1);
    config.sample_interval = 256;
    let r = Sgemm::new(8).run_on(&config);
    assert!(r.validated, "sgemm must validate");
    let series = r.series.as_ref().expect("sampling was enabled");
    assert!(!series.samples.is_empty(), "sgemm runs long enough to sample");

    let stats_doc = vortex_obs::render_stats("sgemm", &r.stats, Some(series));
    let v = Value::parse(&stats_doc).expect("sgemm stats JSON parses");
    assert_eq!(v.get("label").unwrap().as_str(), Some("sgemm"));
    assert_eq!(
        v.get("cycles").unwrap().as_num(),
        Some(r.stats.cycles as f64)
    );
    let windows = v
        .get("timeseries")
        .unwrap()
        .get("samples")
        .unwrap()
        .as_arr()
        .unwrap();
    assert_eq!(windows.len(), series.samples.len());

    let mut tl = vortex_obs::Timeline::new();
    tl.add_time_series(series);
    let v = Value::parse(&tl.render()).expect("sgemm timeline parses");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .count()
            >= series.samples.len(),
        "every window must produce counter events"
    );
}

/// `--trace-out FILE` must move the instruction trace into the file and
/// keep both stdout and stderr free of trace lines.
#[test]
fn vxsim_trace_out_redirects_the_dump() {
    let (out, files) = run_vxsim_exports("traceout", &["--trace-out"]);
    assert!(out.status.success(), "kernel must PASS: {:?}", out);
    let text = std::fs::read_to_string(&files[0]).expect("trace file written");
    let _ = std::fs::remove_file(&files[0]);
    assert!(text.lines().filter(|l| l.contains("core0 w0")).count() > 10);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("core0 w0"));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("core0 w0"));
}
