//! `fault_matrix` — sweep the fault-injection space and classify outcomes.
//!
//! Runs a small memory-heavy kernel under every fault mode × a range of
//! seeds and prints one row per mode: how many runs passed, timed out,
//! hung (watchdog report), or trapped. Benign modes (stalls and delays
//! only) must always PASS with correct results — anything else is a
//! simulator bug, so the binary exits non-zero.
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
}

const MAX_CYCLES: u64 = 2_000_000;

fn run_one(faults: &FaultConfig) -> &'static str {
    let mut config = GpuConfig::with_cores(1);
    config.watchdog_cycles = 5_000;
    let mut gpu = Gpu::new(config);
    gpu.apply_faults(faults);
    let prog = kernel();
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    match gpu.run(MAX_CYCLES) {
        Ok(_) => {
            if (0..N).all(|i| gpu.ram.read_u32(OUT + i * 4) == i) {
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

fn main() {
    let mut seeds = 8u64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                // Zero seeds would build an empty matrix that reports every
                // mode `ok` without running anything.
                seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--seeds needs a positive integer");
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
        "{:<16} {:>5} {:>6} {:>8} {:>5} {:>5}   verdict",
        "mode", "pass", "wrong", "timeout", "hang", "trap"
    );
    // The whole (mode × seed) matrix is one parallel work list; outcomes
    // come back in input order, so the per-mode tallies (and therefore the
    // printed table) are identical at any worker count.
    let matrix: Vec<(usize, u64)> = (0..modes.len())
        .flat_map(|mi| (1..=seeds).map(move |seed| (mi, seed)))
        .collect();
    let outcomes = vortex_bench::par::par_map(&matrix, |_, &(mi, seed)| {
        run_one(&FaultConfig { seed, ..modes[mi].1 })
    });
    let mut failed = false;
    for (mi, (name, base)) in modes.iter().enumerate() {
        let mut tally = Tally::default();
        for outcome in &outcomes[mi * seeds as usize..(mi + 1) * seeds as usize] {
            match *outcome {
                "pass" => tally.pass += 1,
                "wrong" => tally.wrong += 1,
                "timeout" => tally.timeout += 1,
                "hang" => tally.hang += 1,
                _ => tally.trap += 1,
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
        println!(
            "{:<16} {:>5} {:>6} {:>8} {:>5} {:>5}   {}",
            name,
            tally.pass,
            tally.wrong,
            tally.timeout,
            tally.hang,
            tally.trap,
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failed {
        std::process::exit(1);
    }
}
