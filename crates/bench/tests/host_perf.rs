//! Integration tests for the host-performance and observability
//! machinery: decode memoization and telemetry sampling must be invisible
//! to simulated timing, the parallel sweep runner must be invisible to
//! sweep results, `vxsim --trace` must dump the retained trace on failing
//! outcomes (where it matters most), and the JSON exports must parse and
//! carry their schemas' required keys.

use std::process::Command;
use vortex_bench::par;
use vortex_core::{Gpu, GpuConfig, GpuStats};
use vortex_kernels::{Benchmark, Bfs, FilterKind, Nearn, Sgemm, TexBench};
use vortex_obs::Value;

/// Runs `bench` with the decode memo forced on or off.
fn run_with_memo(bench: &dyn Benchmark, memo: bool) -> GpuStats {
    let mut config = GpuConfig::with_cores(1);
    config.core.decode_cache = memo;
    let r = bench.run_on(&config);
    assert!(r.validated, "{} must validate", r.name);
    r.stats
}

/// The decode memo is a pure host-side cache: every workload must produce
/// bit-identical `GpuStats` (cycles, instruction counts, cache counters,
/// stall breakdowns — everything) with the memo on and off.
#[test]
fn decode_memo_is_timing_invisible() {
    let benches: Vec<(&str, Box<dyn Benchmark>)> = vec![
        ("sgemm", Box::new(Sgemm::new(8))),
        ("bfs", Box::new(Bfs::new(64, 3))),
        ("nearn", Box::new(Nearn::new(128))),
        ("texture", Box::new(TexBench::new(FilterKind::Bilinear, true, 4))),
    ];
    for (name, b) in &benches {
        let with = run_with_memo(b.as_ref(), true);
        let without = run_with_memo(b.as_ref(), false);
        assert_eq!(
            with, without,
            "{name}: GpuStats must be identical with the decode memo on/off"
        );
    }
}

/// Every instruction word the registered workloads execute resolves to the
/// same slot (need mask, gate, fetch-blocking) through the decode memo —
/// on a miss, on a hit, and after other words have contended for its entry
/// — as through a fresh `Slot::resolve`; and the workloads themselves run
/// identically, stats and per-PC profile, with the memo on and off.
#[test]
fn memoized_slots_equal_fresh_resolution_on_every_workload_word() {
    use vortex_core::decode_cache::DecodeCache;
    use vortex_core::frontend::Slot;
    for (name, bench) in vortex_bench::registered_benches(true) {
        let run = |memo: bool| {
            let mut config = GpuConfig::with_cores(4);
            config.profile = true;
            config.core.decode_cache = memo;
            let r = bench.run_on(&config);
            assert!(r.validated, "{name} must validate");
            (r.stats, r.profile.expect("profiling enabled"))
        };
        let (stats_on, profile_on) = run(true);
        let (stats_off, profile_off) = run(false);
        assert_eq!(stats_on, stats_off, "{name}: GpuStats, memo on/off");
        assert_eq!(profile_on, profile_off, "{name}: profile, memo on/off");
        assert!(profile_on.sites.len() > 20, "{name}: profile covers the kernel");
        let mut memo = DecodeCache::new();
        for pass in 0..2 {
            for (&pc, site) in &profile_on.sites {
                let instr = vortex_isa::decode(site.word).expect("executed word decodes");
                assert_eq!(
                    memo.decode(site.word).expect("executed word decodes").at(pc),
                    Slot::resolve(&instr).at(pc),
                    "{name} pass {pass} pc {pc:#x} word {:#010x}",
                    site.word
                );
            }
        }
    }
}

/// Telemetry sampling is read-only observation: every workload must
/// produce bit-identical `GpuStats` (cycles, instruction counts, cache
/// counters, stall breakdowns — everything) with sampling off and with an
/// aggressive 64-cycle window. This is the overhead-discipline guarantee:
/// `--sample` can never perturb what it measures.
#[test]
fn telemetry_sampling_is_timing_invisible() {
    let benches: Vec<(&str, Box<dyn Benchmark>)> = vec![
        ("sgemm", Box::new(Sgemm::new(8))),
        ("bfs", Box::new(Bfs::new(64, 3))),
        ("nearn", Box::new(Nearn::new(128))),
        ("texture", Box::new(TexBench::new(FilterKind::Bilinear, true, 4))),
    ];
    for (name, b) in &benches {
        let mut off = GpuConfig::with_cores(1);
        off.sample_interval = 0;
        let mut on = GpuConfig::with_cores(1);
        on.sample_interval = 64;
        let r_off = b.run_on(&off);
        let r_on = b.run_on(&on);
        assert!(r_off.validated && r_on.validated, "{name} must validate");
        assert_eq!(
            r_off.stats, r_on.stats,
            "{name}: GpuStats must be identical with telemetry on/off"
        );
    }
}

/// Builds a small multi-wavefront kernel with enough control flow that a
/// decode-order bug would scramble the trace.
fn traced_program() -> vortex_asm::Program {
    let mut a = vortex_asm::Assembler::new();
    use vortex_isa::Reg;
    a.li(Reg::X5, 0);
    a.li(Reg::X6, 24);
    a.label("loop").unwrap();
    a.slli(Reg::X7, Reg::X5, 2);
    a.lw(Reg::X8, Reg::X7, 0x100);
    a.add(Reg::X8, Reg::X8, Reg::X5);
    a.sw(Reg::X8, Reg::X7, 0x100);
    a.addi(Reg::X5, Reg::X5, 1);
    a.blt(Reg::X5, Reg::X6, "loop");
    a.ecall();
    a.assemble(0x8000_0000).expect("assembles")
}

fn run_traced(memo: bool) -> (GpuStats, String) {
    let mut config = GpuConfig::with_cores(1);
    config.core.decode_cache = memo;
    let mut gpu = Gpu::new(config);
    let prog = traced_program();
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.core_mut(0).trace = vortex_core::trace::Trace::with_capacity(256);
    gpu.launch(prog.entry);
    let stats = gpu.run(1_000_000).expect("kernel finishes");
    (stats, gpu.core(0).trace.dump())
}

/// The instruction-by-instruction trace (cycle, wavefront, PC, tmask,
/// disassembly) must also be byte-identical with the memo on and off.
#[test]
fn decode_memo_preserves_trace_dumps() {
    let (stats_on, trace_on) = run_traced(true);
    let (stats_off, trace_off) = run_traced(false);
    assert_eq!(stats_on, stats_off);
    assert!(trace_on.lines().count() > 10, "trace captured something");
    assert_eq!(trace_on, trace_off, "trace dumps must match");
}

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
