//! `vxprof` — PC-level profiling front-end for the registered benchmarks.
//!
//! Runs one named workload (`sgemm`, `bfs`, `nearn`, `texture`, `raster`)
//! with the profiler enabled and prints the disassembly-annotated hotspot
//! table; optional flags export the `vortex-profile-v1` JSON document and
//! a folded-stacks file for flamegraph tooling.
//!
//! ```sh
//! cargo run --release -p vortex-bench --bin vxprof -- sgemm --top 10
//! cargo run --release -p vortex-bench --bin vxprof -- bfs --fast \
//!     --json bfs.profile.json --folded bfs.folded
//! ```
//!
//! The profiler is observation-only: every invocation asserts the profiled
//! run's `GpuStats` would be unchanged by checking the issue-count
//! invariant — the profile's thread-instruction total must equal the run's
//! `GpuStats` thread-instruction total exactly.
//!
//! Exit codes: 0 success, 1 io error, 2 usage error.

use vortex_bench::registered_benches;
use vortex_core::{GpuConfig, MAX_CORES};

fn usage() -> ! {
    eprintln!(
        "usage: vxprof <bench> [--top N] [--cores N] [--fast] [--json FILE] [--folded FILE]\n\
         \x20      vxprof --list\n\
         \n\
         \x20 <bench>        workload to profile (see --list)\n\
         \x20 --top N        rows in the hotspot table (default 10)\n\
         \x20 --cores N      GPU core count (default 1)\n\
         \x20 --fast         CI smoke problem sizes\n\
         \x20 --json FILE    write the vortex-profile-v1 JSON export\n\
         \x20 --folded FILE  write folded stacks for flamegraph tooling\n\
         \x20 --list         print registered workload names and exit"
    );
    std::process::exit(2);
}

/// Parses the value of a numeric flag, rejecting absence, garbage, and
/// zero — every numeric `vxprof` flag sizes something, so `0` would
/// silently disable what the user asked for.
fn positive<'a>(it: &mut impl Iterator<Item = &'a String>, what: &str) -> usize {
    match it.next() {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("vxprof: {what} expects a positive integer (>= 1), got {v:?}");
                usage();
            }
        },
        None => {
            eprintln!("vxprof: {what} expects a value");
            usage();
        }
    }
}

/// Parses the value of a path flag, rejecting absence and flag-like
/// values (a forgotten path would otherwise swallow the next flag).
fn take_path<'a>(it: &mut impl Iterator<Item = &'a String>, what: &str) -> String {
    match it.next() {
        Some(v) if !v.starts_with("--") => v.clone(),
        Some(v) => {
            eprintln!("vxprof: {what} expects a file path, got flag-like {v:?}");
            usage();
        }
        None => {
            eprintln!("vxprof: {what} expects a file path");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_name: Option<String> = None;
    let mut top = 10usize;
    let mut cores = 1usize;
    let mut fast = false;
    let mut json_out: Option<String> = None;
    let mut folded_out: Option<String> = None;
    let mut list = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => top = positive(&mut it, "--top"),
            "--cores" => {
                cores = positive(&mut it, "--cores");
                if cores > MAX_CORES {
                    eprintln!("vxprof: --cores must be in 1..={MAX_CORES}, got {cores}");
                    usage();
                }
            }
            "--fast" => fast = true,
            "--json" => json_out = Some(take_path(&mut it, "--json")),
            "--folded" => folded_out = Some(take_path(&mut it, "--folded")),
            "--list" => list = true,
            other if other.starts_with("--") => {
                eprintln!("vxprof: unknown flag {other:?}");
                usage();
            }
            other => {
                if let Some(prev) = &bench_name {
                    eprintln!("vxprof: got two workloads ({prev:?} and {other:?}); pick one");
                    usage();
                }
                bench_name = Some(other.to_string());
            }
        }
    }

    let benches = registered_benches(fast);
    if list {
        for (name, _) in &benches {
            println!("{name}");
        }
        return;
    }
    let Some(wanted) = bench_name else {
        eprintln!("vxprof: no workload named");
        usage();
    };
    let Some((name, bench)) = benches.iter().find(|(name, _)| *name == wanted) else {
        let known: Vec<&str> = benches.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "vxprof: unknown workload {wanted:?}; available: {}",
            known.join(", ")
        );
        std::process::exit(2);
    };

    let mut config = GpuConfig::with_cores(cores);
    config.profile = true;
    eprintln!(
        "vxprof: profiling {name} on {cores} core{} ({} sizes) ...",
        if cores == 1 { "" } else { "s" },
        if fast { "smoke" } else { "full" }
    );
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build — wall-clock will be 20-50x slower");
    }
    let r = bench.run_on(&config);
    assert!(r.validated, "{name} failed validation");
    let profile = r
        .profile
        .expect("GpuConfig::profile was set, so the run must surface a profile");

    // The acceptance invariant: the profiler saw every issued instruction
    // exactly once, so its thread-instruction total matches the
    // architectural counter bit for bit.
    assert_eq!(
        profile.total_thread_instrs(),
        r.stats.total_thread_instrs(),
        "{name}: profile thread-instr total must equal GpuStats total"
    );

    if let Some(path) = &json_out {
        let doc = vortex_obs::render_profile_json(name, &profile);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("vxprof: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &folded_out {
        let doc = vortex_obs::render_folded(&profile, None);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("vxprof: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }

    println!(
        "{name}: {} cycles, {} thread-instrs, {} profiled sites",
        r.stats.cycles,
        r.stats.total_thread_instrs(),
        profile.sites.len()
    );
    println!();
    print!("{}", vortex_obs::render_report(&profile, top, None));
}
