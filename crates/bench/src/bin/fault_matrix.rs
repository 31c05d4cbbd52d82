//! `fault_matrix` — sweep the fault-injection space and classify outcomes.
//!
//! Runs a small memory-heavy kernel under every fault mode × a range of
//! seeds and prints one row per mode: how many runs passed, timed out,
//! hung (watchdog report), or trapped. Benign modes (stalls and delays
//! only) must always PASS with correct results — anything else is a
//! simulator bug, so the binary exits non-zero.
//!
//! Every run that hangs is additionally re-executed under the
//! checkpoint-rollback recovery policy (periodic in-memory snapshots; on
//! a hang, roll back to the newest remaining checkpoint — popping it, so
//! a repeated failure reaches further back — mask fault injection, and
//! re-run). The `recovery` column reports how many of the hangs
//! converged to a correct PASS this way and the total rollbacks spent.
//!
//! ```sh
//! cargo run --release -p vortex-bench --bin fault_matrix -- [--seeds N]
//! ```

use vortex_asm::Assembler;
use vortex_core::{Gpu, GpuConfig, SimError};
use vortex_faults::FaultConfig;
use vortex_isa::Reg;

const ENTRY: u32 = 0x8000_0000;
const OUT: u32 = 0x2_0000;
const N: u32 = 64;

/// A strided read-modify-write loop: enough cache/DRAM traffic that every
/// fault site on the memory path gets exercised.
fn kernel() -> vortex_asm::Program {
    let mut a = Assembler::new();
    a.li(Reg::X5, 0); // i
    a.li(Reg::X6, OUT as i32);
    a.label("loop").unwrap();
    a.slli(Reg::X7, Reg::X5, 2);
    a.add(Reg::X7, Reg::X7, Reg::X6);
    a.lw(Reg::X8, Reg::X7, 0);
    a.add(Reg::X8, Reg::X8, Reg::X5);
    a.sw(Reg::X8, Reg::X7, 0);
    a.addi(Reg::X5, Reg::X5, 1);
    a.li(Reg::X9, N as i32);
    a.blt(Reg::X5, Reg::X9, "loop");
    a.ecall();
    a.assemble(ENTRY).expect("kernel assembles")
}

#[derive(Default)]
struct Tally {
    pass: u32,
    wrong: u32,
    timeout: u32,
    hang: u32,
    trap: u32,
    recovered: u32,
    retries: u32,
}

const MAX_CYCLES: u64 = 2_000_000;
const CHECKPOINT_EVERY: u64 = 10_000;
const MAX_RETRIES: u32 = 4;

fn boot(faults: &FaultConfig) -> Gpu {
    let mut config = GpuConfig::with_cores(1);
    config.watchdog_cycles = 5_000;
    let mut gpu = Gpu::new(config);
    gpu.apply_faults(faults);
    let prog = kernel();
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    gpu
}

fn output_correct(gpu: &Gpu) -> bool {
    (0..N).all(|i| gpu.ram.read_u32(OUT + i * 4) == i)
}

fn run_one(faults: &FaultConfig) -> &'static str {
    let mut gpu = boot(faults);
    match gpu.run(MAX_CYCLES) {
        Ok(_) => {
            if output_correct(&gpu) {
                "pass"
            } else {
                "wrong"
            }
        }
        Err(SimError::Timeout { .. }) => "timeout",
        Err(SimError::Hang(_)) => "hang",
        Err(_) => "trap",
    }
}

/// Checkpoint-rollback retry for a configuration that hangs: the same
/// kernel runs with periodic in-memory snapshots; each hang rolls back
/// to the newest remaining checkpoint (popped, so a failure already
/// latched in it reaches one checkpoint further back on the next round),
/// masks fault injection, and re-executes. Returns the number of
/// rollbacks spent when the run converges to a correct PASS, `None` when
/// the retry budget runs out or the result is wrong.
fn recover_one(faults: &FaultConfig) -> Option<u32> {
    let mut gpu = boot(faults);
    // The boot state is the floor of the rollback stack: even a hang
    // before the first periodic checkpoint can restart from cycle 0.
    let mut good: Vec<Vec<u8>> = vec![gpu.save_snapshot()];
    let mut retries = 0u32;
    loop {
        let target = ((gpu.cycle() / CHECKPOINT_EVERY + 1) * CHECKPOINT_EVERY).min(MAX_CYCLES);
        match gpu.run(target) {
            Ok(_) => return output_correct(&gpu).then_some(retries),
            Err(SimError::Timeout { cycles }) if cycles < MAX_CYCLES => {
                if good.len() == 8 {
                    good.remove(0);
                }
                good.push(gpu.save_snapshot());
            }
            Err(SimError::Hang(_)) if retries < MAX_RETRIES && !good.is_empty() => {
                let snap = good.pop().expect("non-empty");
                retries += 1;
                if gpu.restore_snapshot(&snap).is_err() {
                    return None;
                }
                gpu.clear_faults();
            }
            Err(_) => return None,
        }
    }
}

fn main() {
    let mut seeds = 8u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--seeds needs a number");
                        std::process::exit(2);
                    });
            }
            _ => {
                eprintln!("usage: fault_matrix [--seeds N]");
                std::process::exit(2);
            }
        }
    }

    let off = FaultConfig::off();
    let modes: Vec<(&str, FaultConfig)> = vec![
        ("none", off),
        ("elastic_stall", FaultConfig { elastic_stall: 200, ..off }),
        ("dram_stall", FaultConfig { dram_stall: 300, ..off }),
        (
            "dram_delay",
            FaultConfig { dram_delay: 300, dram_extra_latency: 64, ..off },
        ),
        ("cache_rsp_stall", FaultConfig { cache_rsp_stall: 200, ..off }),
        ("tex_stall", FaultConfig { tex_stall: 300, ..off }),
        ("dram_drop", FaultConfig { dram_drop: 400, ..off }),
        ("corrupt", FaultConfig { corrupt: 100, ..off }),
        (
            "storm",
            FaultConfig {
                elastic_stall: 100,
                dram_stall: 100,
                dram_delay: 100,
                dram_extra_latency: 32,
                dram_drop: 50,
                cache_rsp_stall: 100,
                corrupt: 50,
                ..off
            },
        ),
    ];

    println!(
        "{:<16} {:>5} {:>6} {:>8} {:>5} {:>5}   {:<14} verdict",
        "mode", "pass", "wrong", "timeout", "hang", "trap", "recovery"
    );
    // The whole (mode × seed) matrix is one parallel work list; outcomes
    // come back in input order, so the per-mode tallies (and therefore the
    // printed table) are identical at any worker count.
    let matrix: Vec<(usize, u64)> = (0..modes.len())
        .flat_map(|mi| (1..=seeds).map(move |seed| (mi, seed)))
        .collect();
    let outcomes = vortex_bench::par::par_map(&matrix, |_, &(mi, seed)| {
        let faults = FaultConfig { seed, ..modes[mi].1 };
        let outcome = run_one(&faults);
        // Hanging runs get a second life under the recovery policy; the
        // result feeds the `recovery` column only, never the tallies.
        let recovery = (outcome == "hang").then(|| recover_one(&faults));
        (outcome, recovery)
    });
    let mut failed = false;
    for (mi, (name, base)) in modes.iter().enumerate() {
        let mut tally = Tally::default();
        for (outcome, recovery) in &outcomes[mi * seeds as usize..(mi + 1) * seeds as usize] {
            match *outcome {
                "pass" => tally.pass += 1,
                "wrong" => tally.wrong += 1,
                "timeout" => tally.timeout += 1,
                "hang" => tally.hang += 1,
                _ => tally.trap += 1,
            }
            if let Some(Some(rollbacks)) = recovery {
                tally.recovered += 1;
                tally.retries += rollbacks;
            }
        }
        let benign = base.is_benign();
        // Benign faults only slow the machine down: every run must pass.
        // Destructive faults may hang or time out, but results that do
        // complete must never be silently wrong, and nothing may panic.
        let ok = if benign {
            tally.pass == seeds as u32
        } else {
            tally.wrong == 0
        };
        failed |= !ok;
        let recovery = if tally.hang == 0 {
            "-".to_string()
        } else {
            format!(
                "{}/{} ({} rb)",
                tally.recovered, tally.hang, tally.retries
            )
        };
        println!(
            "{:<16} {:>5} {:>6} {:>8} {:>5} {:>5}   {:<14} {}",
            name,
            tally.pass,
            tally.wrong,
            tally.timeout,
            tally.hang,
            tally.trap,
            recovery,
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failed {
        std::process::exit(1);
    }
}
