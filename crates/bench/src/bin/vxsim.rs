//! `vxsim` — a SIMX-style command-line driver: assemble a Vortex kernel
//! from a `.s` file and run it on a configurable simulated GPU.
//!
//! ```sh
//! cargo run --release -p vortex-bench --bin vxsim -- kernel.s \
//!     [--cores N] [--warps W] [--threads T] [--ports P] [--trace N] [--disasm] \
//!     [--sample N] [--stats-json FILE] [--timeline FILE] [--trace-out FILE] \
//!     [--inject seed=S,dram_delay=R,...] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume FILE] \
//!     [--no-fast-forward]
//! ```
//!
//! `--inject` enables deterministic fault injection: handshake stalls and
//! DRAM delays that slow the machine down but never change its results.
//! The spec is a comma-separated `key=value` list (see
//! `vortex_faults::FaultConfig::from_spec`). On a hang the watchdog's
//! structured report is printed.
//!
//! Observability flags:
//! * `--sample N` snapshots per-core counter deltas every N cycles into a
//!   time series (exported by `--stats-json` / `--timeline`);
//! * `--stats-json FILE` writes the final `GpuStats` (plus the time
//!   series, when sampled) as JSON — also on TIMEOUT/HANG/TRAP, where the
//!   partial counters are the diagnosis;
//! * `--timeline FILE` writes a Chrome/Perfetto `trace_event` JSON
//!   timeline built from the instruction trace (enable with `--trace N`),
//!   counter tracks from `--sample`, and watchdog instants on a hang;
//! * `--trace-out FILE` redirects the instruction-trace dump, which
//!   otherwise goes to stderr so it never interleaves with the report;
//! * `--profile` enables the PC-level profiler (observation-only: cycle
//!   counts and stats are bit-identical on or off) and prints the top-10
//!   disassembly-annotated hotspot table after the PASS report, with
//!   labels symbolized from the kernel's symbol table;
//! * `--profile-out FILE` writes the `vortex-profile-v1` JSON export
//!   (implies `--profile`; written on every outcome — on HANG/TRAP/
//!   TIMEOUT the partial profile is the diagnosis);
//! * `--annotate` prints the full program-order annotated listing
//!   (implies `--profile`). With `--timeline`, profiling adds a top-N
//!   hotspot counter track.
//!
//! Checkpoint/restore (crash safety):
//! * `--checkpoint-every N` pauses the simulation every N cycles and
//!   writes the complete machine state (architectural state, memory
//!   image, fault-plan positions, telemetry) to a versioned, checksummed
//!   snapshot `ckpt-<cycle>.vxsnap` under `--checkpoint-dir` (default
//!   `.`). A run interrupted at any checkpoint boundary and resumed is
//!   bit-identical to an uninterrupted run. Hang detection happens inside
//!   each checkpoint chunk, so N should exceed the watchdog window (it is
//!   rounded up with a warning otherwise).
//! * `--resume FILE` restores a snapshot instead of booting the kernel
//!   image. The command line must rebuild the same configuration (same
//!   `--cores/--warps/...` and `--inject`) — a mismatch is refused with a
//!   structured error, never undefined behavior.
//! * `--no-fast-forward` disables the idle-cycle fast-forward engine and
//!   ticks every cycle live. Skipping is a pure host optimization —
//!   cycle counts, stats, telemetry, profiles, checkpoint boundaries, and
//!   snapshot bytes are bit-identical either way — so the flag exists for
//!   A/B timing audits and for bisecting the engine itself, not for
//!   correctness.
//!
//! Exit codes (stable, for scripting):
//! * `0` — PASS; `1` — host I/O error; `2` — usage error;
//! * `10` — HANG (watchdog declared no forward progress);
//! * `11` — TRAP (divergence misuse, illegal instruction, ...);
//! * `12` — BAD ACCESS (reserved for the runtime driver's bounds faults;
//!   raw `vxsim` kernels fault through the trap path instead);
//! * `13` — SNAPSHOT CORRUPT (`--resume` file truncated, checksum
//!   mismatch, wrong version, or taken under a different configuration);
//! * `14` — TIMEOUT (cycle budget exhausted while still making progress).
//!
//! The program boots like real Vortex: every core starts wavefront 0,
//! thread 0 at the image base; use `wspawn`/`tmc` (or the `emit_spawn_tasks`
//! prologue) to light up the machine, and `ecall` to finish.

use std::io::Write as _;
use vortex_asm::parse_asm;
use vortex_core::{CoreConfig, Gpu, GpuConfig, SimError, MAX_CORES};
use vortex_faults::FaultConfig;
use vortex_obs::Timeline;
use vortex_runtime::abi;

/// Host-side I/O failure (unreadable kernel, unwritable artifact).
const EXIT_IO: i32 = 1;
/// Command-line usage error.
const EXIT_USAGE: i32 = 2;
/// The watchdog declared a hang.
const EXIT_HANG: i32 = 10;
/// The pipeline raised a structured trap.
const EXIT_TRAP: i32 = 11;
/// Reserved: the runtime driver's out-of-bounds buffer faults. Raw
/// `vxsim` kernels have no driver-tracked buffers, so this code is
/// documented here for tools sharing the convention but never produced
/// by this binary.
#[allow(dead_code)]
const EXIT_BAD_ACCESS: i32 = 12;
/// A `--resume` snapshot could not be restored.
const EXIT_SNAPSHOT_CORRUPT: i32 = 13;
/// The cycle budget ran out while the machine was still making progress.
const EXIT_TIMEOUT: i32 = 14;

fn usage() -> ! {
    eprintln!(
        "usage: vxsim <kernel.s> [--cores N] [--warps W] [--threads T] \
         [--ports P] [--clusters N] [--l2] [--l3] [--trace N] [--disasm] [--max-cycles N] \
         [--sample N] [--stats-json FILE] [--timeline FILE] \
         [--trace-out FILE] [--inject k=v,...] \
         [--checkpoint-every N] [--checkpoint-dir DIR] [--resume FILE] \
         [--profile] [--profile-out FILE] [--annotate] \
         [--no-fast-forward]\n\
         exit codes: 0 pass, 1 io, 2 usage, 10 hang, 11 trap, \
         12 bad-access (reserved), 13 snapshot-corrupt, 14 timeout"
    );
    std::process::exit(EXIT_USAGE);
}

fn write_file(path: &str, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} {path}: {e}");
        std::process::exit(EXIT_IO);
    }
}

fn take_path<'a>(it: &mut impl Iterator<Item = &'a String>, what: &str) -> String {
    match it.next() {
        // A following flag almost certainly means the path was forgotten;
        // swallowing it as a filename would silently drop that flag too.
        Some(v) if !v.starts_with("--") => v.clone(),
        Some(v) => {
            eprintln!("vxsim: {what} expects a file path, got flag-like {v:?}");
            usage()
        }
        None => {
            eprintln!("vxsim: {what} expects a file path");
            usage()
        }
    }
}

/// Parses the next argument as a strictly positive integer. Missing
/// values, garbage, and zero are structured usage errors — every numeric
/// flag here enables or sizes something, so `0` (e.g. `--sample 0`) would
/// silently disable the feature the user just asked for, and the old
/// lenient parser accepted it without a word.
fn positive<'a>(it: &mut impl Iterator<Item = &'a String>, what: &str) -> u64 {
    let Some(v) = it.next() else {
        eprintln!("vxsim: {what} expects a positive integer");
        usage()
    };
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => n,
        _ => {
            eprintln!("vxsim: {what} expects a positive integer (>= 1), got {v:?}");
            usage()
        }
    }
}

/// [`positive`] with an upper bound. Past it the model either panics in
/// a constructor or sizes host buffers until allocation aborts, instead
/// of reporting a usage error.
fn at_most<'a>(it: &mut impl Iterator<Item = &'a String>, what: &str, max: u64) -> usize {
    let n = positive(it, what);
    if n > max {
        eprintln!("vxsim: {what} must be in 1..={max}, got {n}");
        usage()
    }
    n as usize
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut file = None;
    let (mut cores, mut warps, mut threads, mut ports) = (1usize, 4usize, 4usize, 1usize);
    let mut clusters: Option<usize> = None;
    let (mut l2, mut l3) = (false, false);
    let mut trace = 0usize;
    let mut disasm = false;
    let mut max_cycles = 100_000_000u64;
    let mut sample = 0u64;
    let mut stats_json: Option<String> = None;
    let mut timeline_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut checkpoint_every = 0u64;
    let mut checkpoint_dir = ".".to_string();
    let mut resume: Option<String> = None;
    let mut profile = false;
    let mut profile_out: Option<String> = None;
    let mut annotate = false;
    let mut no_fast_forward = false;
    let mut faults = FaultConfig::off();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cores" => cores = at_most(&mut it, "--cores", MAX_CORES as u64),
            "--warps" => warps = at_most(&mut it, "--warps", 64),
            "--threads" => threads = at_most(&mut it, "--threads", 32),
            // A wavefront offers at most one request per lane, so ports
            // beyond the thread ceiling can never coalesce more.
            "--ports" => ports = at_most(&mut it, "--ports", 32),
            "--clusters" => clusters = Some(positive(&mut it, "--clusters") as usize),
            "--l2" => l2 = true,
            "--l3" => l3 = true,
            "--trace" => trace = positive(&mut it, "--trace") as usize,
            "--max-cycles" => max_cycles = positive(&mut it, "--max-cycles"),
            "--sample" => sample = positive(&mut it, "--sample"),
            "--checkpoint-every" => checkpoint_every = positive(&mut it, "--checkpoint-every"),
            "--checkpoint-dir" => checkpoint_dir = take_path(&mut it, "--checkpoint-dir"),
            "--resume" => resume = Some(take_path(&mut it, "--resume")),
            "--stats-json" => stats_json = Some(take_path(&mut it, "--stats-json")),
            "--timeline" => timeline_out = Some(take_path(&mut it, "--timeline")),
            "--trace-out" => trace_out = Some(take_path(&mut it, "--trace-out")),
            "--profile" => profile = true,
            "--profile-out" => profile_out = Some(take_path(&mut it, "--profile-out")),
            "--annotate" => annotate = true,
            "--no-fast-forward" => no_fast_forward = true,
            "--inject" => {
                let spec = it.next().unwrap_or_else(|| {
                    eprintln!("--inject needs a spec (e.g. seed=1,dram_delay=300)");
                    usage()
                });
                faults = FaultConfig::from_spec(spec).unwrap_or_else(|e| {
                    eprintln!("bad --inject spec: {e}");
                    usage()
                });
            }
            "--disasm" => disasm = true,
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string());
            }
            _ => usage(),
        }
    }
    let Some(file) = file else { usage() };
    // The L2 is what makes a cluster a sharing domain and what feeds the
    // L3: without it L1 misses go straight to DRAM, so either flag alone
    // would change the snapshot fingerprint and nothing else.
    if !l2 && (l3 || clusters.is_some()) {
        let flag = if l3 { "--l3" } else { "--clusters" };
        eprintln!("vxsim: {flag} has no effect without --l2");
        usage()
    }
    let source = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("cannot read {file}: {e}");
        std::process::exit(EXIT_IO);
    });
    let program = parse_asm(&source, abi::CODE_BASE).unwrap_or_else(|e| {
        eprintln!("assembly error: {e}");
        std::process::exit(EXIT_IO);
    });
    if disasm {
        println!("{}", program.disassemble());
    }

    let mut config = GpuConfig::with_cores(cores);
    config.core = CoreConfig::with_dims(warps, threads);
    config.core.dcache.ports = ports;
    // Clustered topology: `--clusters N` splits the cores into N equal
    // clusters and `--l2`/`--l3` hang the default shared levels behind
    // them. All three are timing knobs like `--cores`.
    if let Some(n) = clusters {
        if cores % n != 0 {
            eprintln!("vxsim: --clusters {n} must divide --cores {cores}");
            usage()
        }
        config.cores_per_cluster = cores / n;
    }
    if l2 {
        config.l2 = Some(vortex_mem::hierarchy::l2_default());
    }
    if l3 {
        config.l3 = Some(vortex_mem::hierarchy::l3_default());
    }
    config.sample_interval = sample;
    // --profile-out and --annotate imply collection; all three are
    // observation-only (cycles and stats are bit-identical on or off).
    let profiling = profile || profile_out.is_some() || annotate;
    config.profile = profiling;
    // A host-only knob: every simulated observable (cycle counts, stats,
    // checkpoints) is bit-identical with skipping on or off.
    if no_fast_forward {
        config.fast_forward = false;
    }
    // Hang detection runs inside each checkpoint chunk; a chunk shorter
    // than the watchdog window would never accumulate a full window, so
    // round the interval up rather than silently disarm the watchdog.
    if checkpoint_every > 0 && config.watchdog_cycles > checkpoint_every {
        eprintln!(
            "note: --checkpoint-every {checkpoint_every} is shorter than the \
             watchdog window ({}); using the window instead",
            config.watchdog_cycles
        );
        checkpoint_every = config.watchdog_cycles;
    }
    let mut gpu = Gpu::new(config);
    gpu.apply_faults(&faults);
    match &resume {
        Some(path) => {
            // The snapshot carries the full memory image, fault-plan
            // positions, and telemetry; nothing is booted here. The
            // configuration (rebuilt from the command line above) is
            // checked against the snapshot's fingerprint on restore.
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read snapshot {path}: {e}");
                std::process::exit(EXIT_IO);
            });
            if let Err(e) = gpu.restore_snapshot(&bytes) {
                eprintln!("SNAPSHOT CORRUPT: {e}");
                std::process::exit(EXIT_SNAPSHOT_CORRUPT);
            }
        }
        None => {
            gpu.ram.write_bytes(program.base, &program.to_bytes());
            gpu.launch(program.entry);
        }
    }
    if trace > 0 {
        for c in 0..cores {
            gpu.core_mut(c).trace =
                vortex_core::trace::Trace::with_capacity_for(trace, threads);
        }
    }
    if checkpoint_every > 0 {
        if let Err(e) = std::fs::create_dir_all(&checkpoint_dir) {
            eprintln!("cannot create checkpoint dir {checkpoint_dir}: {e}");
            std::process::exit(EXIT_IO);
        }
    }

    // The run loop: with checkpointing off this is a single `run` to the
    // budget; with it on, the budget is covered in checkpoint-interval
    // chunks, each pause writing a snapshot any later invocation can
    // `--resume` from with bit-identical results.
    let outcome = loop {
        let target = gpu
            .cycle()
            .checked_div(checkpoint_every)
            .map_or(max_cycles, |n| ((n + 1) * checkpoint_every).min(max_cycles));
        match gpu.run(target) {
            Err(SimError::Timeout { cycles }) if cycles < max_cycles => {
                // A checkpoint boundary, not a real timeout: persist and
                // keep going.
                let path = format!("{checkpoint_dir}/ckpt-{cycles}.vxsnap");
                if let Err(e) = std::fs::write(&path, gpu.save_snapshot()) {
                    eprintln!("cannot write checkpoint {path}: {e}");
                    std::process::exit(EXIT_IO);
                }
            }
            other => break other,
        }
    };
    // Dump the trace on *every* outcome: on HANG/TRAP/TIMEOUT the last
    // instructions before the machine stopped are exactly what is needed.
    // Default sink is stderr so the trace never interleaves with the
    // stats report on stdout; --trace-out redirects it to a file.
    if trace > 0 {
        let mut dump = String::new();
        for c in 0..cores {
            dump.push_str(&gpu.core(c).trace.dump());
        }
        match &trace_out {
            Some(path) => write_file(path, "trace", &dump),
            None => {
                let _ = std::io::stderr().write_all(dump.as_bytes());
            }
        }
    }
    // The stats snapshot is valid on every outcome; on an abnormal stop
    // the partial counters (plus the sampled series) are the diagnosis.
    if let Some(path) = &stats_json {
        let doc = vortex_obs::render_stats(&file, &gpu.stats(), gpu.time_series());
        write_file(path, "stats JSON", &doc);
    }
    // The PC-level profile, like the stats, is valid on every outcome —
    // on HANG/TRAP/TIMEOUT the hotspots up to the stop are the diagnosis.
    let gpu_profile = if profiling { gpu.profile() } else { None };
    let symbols =
        vortex_obs::Symbols::new(program.symbols.iter().map(|(name, &addr)| (name.clone(), addr)));
    if let (Some(p), Some(path)) = (&gpu_profile, &profile_out) {
        write_file(
            path,
            "profile JSON",
            &vortex_obs::render_profile_json(&file, p),
        );
    }
    if let Some(path) = &timeline_out {
        let mut tl = Timeline::new();
        for c in 0..cores {
            tl.add_core_trace(c, gpu.core(c).trace.events());
        }
        if let Some(ts) = gpu.time_series() {
            tl.add_time_series(ts);
        }
        if let Some(p) = &gpu_profile {
            tl.add_profile_summary(p, 10);
        }
        if let Err(SimError::Hang(report)) = &outcome {
            tl.add_hang_report(report);
        }
        write_file(path, "timeline", &tl.render());
    }
    match outcome {
        Ok(stats) => {
            println!(
                "PASS: {} cycles, {} instructions ({} thread-instructions)",
                stats.cycles,
                stats.total_instrs(),
                stats.total_thread_instrs()
            );
            println!(
                "IPC {:.3} (thread IPC {:.3}); DRAM {} reads / {} writes",
                stats.ipc(),
                stats.thread_ipc(),
                stats.dram_reads,
                stats.dram_writes
            );
            let merged = stats.merged_dcache();
            if let Some(r) = merged.measured_hit_rate() {
                println!(
                    "D$ (all cores): {} reads, hit rate {:.1}%",
                    merged.reads,
                    r * 100.0
                );
            }
            for (i, c) in stats.cores.iter().enumerate() {
                // Idle D-caches (no reads served) have no hit rate — print
                // `n/a` rather than the vacuous 100%.
                let hit_rate = match c.dcache.measured_hit_rate() {
                    Some(r) => format!("{:.1}%", r * 100.0),
                    None => "n/a".to_string(),
                };
                println!(
                    "  core {i}: {} instrs, D$ hit rate {hit_rate}, {} divergences, {} barriers",
                    c.instrs, c.divergences, c.barriers
                );
            }
            if let Some(p) = &gpu_profile {
                if annotate {
                    println!("\nannotated listing:");
                    print!("{}", vortex_obs::render_annotated(p, Some(&symbols)));
                }
                println!("\nhotspots (top 10 by thread-instructions):");
                print!("{}", vortex_obs::render_report(p, 10, Some(&symbols)));
            }
        }
        Err(e) => {
            let (label, code) = match &e {
                SimError::Timeout { .. } => ("TIMEOUT", EXIT_TIMEOUT),
                SimError::Hang(_) => ("HANG", EXIT_HANG),
                SimError::SnapshotCorrupt(_) => ("SNAPSHOT CORRUPT", EXIT_SNAPSHOT_CORRUPT),
                _ => ("TRAP", EXIT_TRAP),
            };
            eprintln!("{label}: {e}");
            std::process::exit(code);
        }
    }
}
