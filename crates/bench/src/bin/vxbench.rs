//! `vxbench` — simulator *host-throughput* benchmark.
//!
//! The cycle-level simulator is the instrument behind every design-space
//! sweep in the paper's evaluation (§6.5 explicitly moves the 64-core
//! exploration off the FPGA and onto SIMX); its host throughput bounds how
//! wide those sweeps can go. `vxbench` runs a fixed workload suite
//! (`sgemm`, `bfs`, `nearn`, `texture`), reports simulated cycles per
//! wall-clock second for each, and can emit / check a JSON baseline so the
//! perf trajectory is tracked PR over PR.
//!
//! A second, *multi-core* tier (`sgemm-mc16`, `bfs-mc16`, `raster-mc16`)
//! runs on a 16-core GPU under the same cps floor. `raster-mc16` drives
//! the full 3D pipeline (geometry → binning → SIMT raster kernel with HW
//! texture sampling), so the graphics path is throughput-gated alongside
//! the compute kernels.
//!
//! ```sh
//! # Measure and write the baseline:
//! cargo run --release -p vortex-bench --bin vxbench -- --out BENCH_PR2.json
//! # CI smoke: fail when any workload regresses >30% vs the baseline:
//! cargo run --release -p vortex-bench --bin vxbench -- --quick --check BENCH_PR2.json
//! # One workload only (e.g. the graphics gate):
//! cargo run --release -p vortex-bench --bin vxbench -- --quick --only raster-mc16
//! ```
//!
//! Simulated cycle counts are fully deterministic (asserted against the
//! expected values recorded in the baseline when sizes match); only the
//! wall-clock side varies with the host.

use std::time::Instant;
use vortex_bench::Table;
use vortex_core::GpuConfig;
use vortex_gfx::RasterBench;
use vortex_kernels::{Benchmark, Bfs, FilterKind, Nearn, Sgemm, TexBench};

/// Allowed throughput regression vs the checked-in baseline (CI gate).
const REGRESSION_TOLERANCE: f64 = 0.30;

/// Timing runs per workload; the best (max cps) is reported so scheduler
/// noise on loaded CI hosts biases toward false *passes*, not failures.
const RUNS: usize = 3;

/// Cores in the multi-core tier configuration.
const MC_CORES: usize = 16;

struct Measurement {
    name: &'static str,
    cycles: u64,
    instrs: u64,
    /// Simulated cycles the fast-forward engine covered with jumps rather
    /// than live ticks (subset of `cycles`; 0 with `VORTEX_FF=0`).
    cycles_skipped: u64,
    /// Fast-forward jumps taken.
    skip_events: u64,
    wall_ms: f64,
    cps: f64,
}

fn workloads(quick: bool) -> Vec<(&'static str, Box<dyn Benchmark>)> {
    if quick {
        vec![
            ("sgemm", Box::new(Sgemm::new(12)) as Box<dyn Benchmark>),
            ("bfs", Box::new(Bfs::new(96, 3))),
            ("nearn", Box::new(Nearn::new(256))),
            (
                "texture",
                Box::new(TexBench::new(FilterKind::Bilinear, true, 5)),
            ),
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
        ]
    }
}

/// The multi-core tier: the paper's scaling workloads on a 16-core GPU
/// (Figure 18's axis). Grid-stride kernels redistribute the same problem
/// over 256 hardware threads, so sizes match the single-core tier.
fn mc_workloads(quick: bool) -> Vec<(&'static str, Box<dyn Benchmark>)> {
    if quick {
        vec![
            ("sgemm-mc16", Box::new(Sgemm::new(12)) as Box<dyn Benchmark>),
            ("bfs-mc16", Box::new(Bfs::new(96, 3))),
            ("raster-mc16", Box::new(RasterBench::quick())),
        ]
    } else {
        vec![
            ("sgemm-mc16", Box::new(Sgemm::default()) as Box<dyn Benchmark>),
            ("bfs-mc16", Box::new(Bfs::default())),
            ("raster-mc16", Box::new(RasterBench::default())),
        ]
    }
}

/// Best-of-[`RUNS`] measurement of `bench` on `config`, asserting
/// run-to-run determinism. Returns the measurement plus the stats of the
/// last run for cross-configuration equality checks.
fn measure_on(
    name: &'static str,
    bench: &dyn Benchmark,
    config: &GpuConfig,
) -> (Measurement, vortex_core::GpuStats) {
    let mut best: Option<Measurement> = None;
    let mut reference_stats = None;
    for _ in 0..RUNS {
        let start = Instant::now();
        let r = bench.run_on(config);
        let wall = start.elapsed();
        assert!(r.validated, "{name} failed validation");
        let wall_s = wall.as_secs_f64().max(1e-9);
        let m = Measurement {
            name,
            cycles: r.stats.cycles,
            instrs: r.stats.total_instrs(),
            cycles_skipped: r.stats.cycles_skipped,
            skip_events: r.stats.skip_events,
            wall_ms: wall_s * 1e3,
            cps: r.stats.cycles as f64 / wall_s,
        };
        if let Some(b) = &best {
            assert_eq!(
                b.cycles, m.cycles,
                "{name}: simulated cycle count must be run-to-run deterministic"
            );
        }
        if best.as_ref().is_none_or(|b| m.cps > b.cps) {
            best = Some(m);
        }
        reference_stats = Some(r.stats);
    }
    (
        best.expect("at least one run"),
        reference_stats.expect("at least one run"),
    )
}

fn measure(name: &'static str, bench: &dyn Benchmark) -> Measurement {
    let config = GpuConfig::with_cores(1);
    let (best, reference_stats) = measure_on(name, bench, &config);
    // Telemetry gate: one extra run with an aggressive sampling window.
    // Sampling is read-only observation, so every counter — cycles, stall
    // breakdowns, cache stats — must be bit-identical to the unsampled
    // runs; any divergence means a hook perturbed simulated timing.
    let mut sampled_config = GpuConfig::with_cores(1);
    sampled_config.sample_interval = 64;
    let sampled = bench.run_on(&sampled_config);
    assert!(sampled.validated, "{name} failed validation (sampled)");
    assert_eq!(
        sampled.stats, reference_stats,
        "{name}: GpuStats must be bit-identical with telemetry on/off"
    );
    // Profiler gate: same discipline for the PC-level profiler. It hooks
    // the issue, stall, and LSU paths, so any timing perturbation would
    // show up as a cycle/stat divergence here.
    let mut profiled_config = GpuConfig::with_cores(1);
    profiled_config.profile = true;
    let profiled = bench.run_on(&profiled_config);
    assert!(profiled.validated, "{name} failed validation (profiled)");
    assert_eq!(
        profiled.stats, reference_stats,
        "{name}: GpuStats must be bit-identical with profiling on/off"
    );
    assert!(
        profiled.profile.is_some(),
        "{name}: profiled run must surface a GpuProfile"
    );
    best
}

/// Multi-core tier: the kernel on a [`MC_CORES`]-core GPU.
fn measure_mc(name: &'static str, bench: &dyn Benchmark) -> Measurement {
    measure_on(name, bench, &GpuConfig::with_cores(MC_CORES)).0
}

fn to_json(mode: &str, results: &[Measurement]) -> String {
    // Hand-rolled, line-oriented JSON: one workload object per line so the
    // (dependency-free) baseline reader in `--check` can parse it with
    // string operations alone. Keep the field order stable.
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"vxbench\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str("  \"metric\": \"simulated-cycles-per-second\",\n");
    out.push_str("  \"workloads\": [\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"instrs\": {}, \
             \"cycles_skipped\": {}, \"skip_events\": {}, \
             \"wall_ms\": {:.3}, \"cps\": {:.0}}}{comma}\n",
            m.name, m.cycles, m.instrs, m.cycles_skipped, m.skip_events, m.wall_ms, m.cps
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts the `"mode"` a baseline was recorded in. Quick-suite and
/// full-suite cps are *not* comparable (short runs do not amortize
/// setup), so `--check` refuses to compare across modes.
fn parse_baseline_mode(json: &str) -> Option<String> {
    json.lines()
        .find(|l| l.trim_start().starts_with("\"mode\""))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().trim_matches(',').trim_matches('"').to_string())
}

fn json_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c == ',' || c == '}')
        .unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"').to_string())
}

/// One workload's gated numbers from a [`to_json`] baseline.
struct BaselineEntry {
    name: String,
    cps: f64,
}

/// Extracts the per-workload entries from a baseline produced by
/// [`to_json`].
fn parse_baseline(json: &str) -> Vec<BaselineEntry> {
    json.lines()
        .filter(|l| l.contains("\"name\"") && l.contains("\"cps\""))
        .filter_map(|l| {
            Some(BaselineEntry {
                name: json_field(l, "name")?,
                cps: json_field(l, "cps")?.parse().ok()?,
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_file: Option<String> = None;
    let mut check_file: Option<String> = None;
    let mut only: Option<String> = None;
    let mut list = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            "--out" => out_file = it.next().cloned(),
            "--check" => check_file = it.next().cloned(),
            "--only" => only = it.next().cloned(),
            _ => {
                eprintln!(
                    "usage: vxbench [--quick] [--list] [--only NAME] [--out FILE] [--check FILE]"
                );
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    // Every workload name the selected suite knows, for `--list` and for
    // rejecting an unknown `--only` before any simulation runs.
    let known: Vec<&'static str> = workloads(quick)
        .iter()
        .chain(mc_workloads(quick).iter())
        .map(|(name, _)| *name)
        .collect();
    if list {
        for name in &known {
            println!("{name}");
        }
        return;
    }
    if let Some(o) = &only {
        if !known.iter().any(|name| name == o) {
            eprintln!(
                "vxbench: unknown workload {o:?}; available: {}",
                known.join(", ")
            );
            std::process::exit(2);
        }
    }
    eprintln!("vxbench ({mode} suite, best of {RUNS} runs per workload)");
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — throughput numbers are meaningless");
    }

    // `--only` narrows the run to one workload (baseline entries absent
    // from the results are already skipped by the `--check` loop).
    let selected = |name: &str| only.as_ref().is_none_or(|o| o == name);
    let mut results = Vec::new();
    for (name, bench) in &workloads(quick) {
        if !selected(name) {
            continue;
        }
        eprintln!("  running {name} ...");
        results.push(measure(name, bench.as_ref()));
    }
    for (name, bench) in &mc_workloads(quick) {
        if !selected(name) {
            continue;
        }
        eprintln!("  running {name} ({MC_CORES} cores) ...");
        results.push(measure_mc(name, bench.as_ref()));
    }
    if results.is_empty() {
        eprintln!("no workload matches --only {}", only.as_deref().unwrap_or(""));
        std::process::exit(2);
    }

    let mut t = Table::new([
        "workload",
        "sim cycles",
        "instrs",
        "skipped",
        "wall ms",
        "Mcycles/s",
    ]);
    for m in &results {
        t.row([
            m.name.to_string(),
            m.cycles.to_string(),
            m.instrs.to_string(),
            // Share of simulated cycles the fast-forward engine jumped
            // over rather than ticked live (0% with VORTEX_FF=0).
            format!(
                "{:.0}%",
                100.0 * m.cycles_skipped as f64 / (m.cycles.max(1)) as f64
            ),
            format!("{:.1}", m.wall_ms),
            format!("{:.2}", m.cps / 1e6),
        ]);
    }
    println!("{}", t.to_markdown());

    if let Some(path) = out_file {
        std::fs::write(&path, to_json(mode, &results)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }

    if let Some(path) = check_file {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        let baseline = parse_baseline(&json);
        if baseline.is_empty() {
            eprintln!("baseline {path} holds no workloads — malformed?");
            std::process::exit(1);
        }
        let base_mode = parse_baseline_mode(&json).unwrap_or_else(|| "full".into());
        if base_mode != mode {
            eprintln!(
                "baseline {path} was recorded in {base_mode} mode but this is a \
                 {mode} run — cps across suite sizes is not comparable \
                 (re-record the baseline with {})",
                if mode == "quick" { "--quick --out" } else { "--out" }
            );
            std::process::exit(1);
        }
        let mut failed = false;
        for entry in &baseline {
            let name = &entry.name;
            let Some(m) = results.iter().find(|m| m.name == name.as_str()) else {
                continue; // baseline workload not in this suite selection
            };
            let floor = entry.cps * (1.0 - REGRESSION_TOLERANCE);
            let verdict = if m.cps >= floor { "ok" } else { "REGRESSED" };
            eprintln!(
                "  {name}: {:.2} Mcps vs baseline {:.2} Mcps (floor {:.2}) — {verdict}",
                m.cps / 1e6,
                entry.cps / 1e6,
                floor / 1e6
            );
            failed |= m.cps < floor;
        }
        if failed {
            eprintln!(
                "vxbench: throughput regression beyond {:.0}%",
                REGRESSION_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
    }
}
