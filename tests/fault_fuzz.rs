//! Fault-injection fuzzing: random seeds and fault plans against two small
//! kernels. Every fault class is a timing perturbation (handshake stalls,
//! DRAM delays), so the contract under test is:
//!
//! * any plan may slow the machine down arbitrarily, but every kernel
//!   still completes with correct results;
//! * identical seeds give identical cycle counts.

use proptest::prelude::*;
use vortex::asm::{Assembler, Program};
use vortex::faults::FaultConfig;
use vortex::gpu::{Gpu, GpuConfig, SimError};
use vortex::isa::{csr, Reg};

const ENTRY: u32 = 0x8000_0000;
const OUT: u32 = 0x4_0000;
const LANES: u32 = 4;
/// Words the strided read-modify-write kernel updates.
const N: u32 = 64;

/// A SIMT kernel with divergence, shared DRAM traffic, and a loop: each
/// lane computes `sum(0..=tid) * 2 + 1` and stores it to `OUT[tid]`.
fn simt_kernel() -> Program {
    let mut a = Assembler::new();
    a.li(Reg::X5, LANES as i32);
    a.tmc(Reg::X5);
    a.csrr(Reg::X6, csr::VX_TID);
    a.li(Reg::X7, 0); // acc
    a.li(Reg::X8, 0); // i
    // Uniform trip count; lanes mask their contribution with `i <= tid`
    // arithmetically so the loop branch never diverges.
    a.label("loop").unwrap();
    a.slt(Reg::X12, Reg::X6, Reg::X8); // tid < i
    a.xori(Reg::X12, Reg::X12, 1); // i <= tid
    a.mul(Reg::X13, Reg::X8, Reg::X12);
    a.add(Reg::X7, Reg::X7, Reg::X13);
    a.addi(Reg::X8, Reg::X8, 1);
    a.li(Reg::X9, LANES as i32);
    a.blt(Reg::X8, Reg::X9, "loop");
    // Divergent tail: odd lanes double-and-increment, even lanes copy.
    a.andi(Reg::X9, Reg::X6, 1);
    a.split(Reg::X9);
    a.beqz(Reg::X9, "even");
    a.slli(Reg::X7, Reg::X7, 1);
    a.addi(Reg::X7, Reg::X7, 1);
    a.j("merge");
    a.label("even").unwrap();
    a.slli(Reg::X7, Reg::X7, 1);
    a.addi(Reg::X7, Reg::X7, 1);
    a.label("merge").unwrap();
    a.join();
    a.slli(Reg::X10, Reg::X6, 2);
    a.li(Reg::X11, OUT as i32);
    a.add(Reg::X10, Reg::X10, Reg::X11);
    a.sw(Reg::X7, Reg::X10, 0);
    a.ecall();
    a.assemble(ENTRY).expect("kernel assembles")
}

/// A strided read-modify-write loop on one lane: `OUT[i] += i`, enough
/// cache and DRAM traffic that every fault site on the memory path draws.
fn rmw_kernel() -> Program {
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

/// Each kernel with the words it must leave at `OUT`.
fn kernels() -> [(Program, Vec<u32>); 2] {
    [
        (
            simt_kernel(),
            (0..LANES)
                .map(|tid| (0..=tid).sum::<u32>() * 2 + 1)
                .collect(),
        ),
        (rmw_kernel(), (0..N).collect()),
    ]
}

/// Runs `kernel` under `faults` and returns the structured outcome.
fn run_under(
    (prog, expected): &(Program, Vec<u32>),
    faults: &FaultConfig,
) -> Result<u64, SimError> {
    let mut config = GpuConfig::with_cores(1);
    config.watchdog_cycles = 5_000;
    let mut gpu = Gpu::new(config);
    gpu.apply_faults(faults);
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    let stats = gpu.run(1_000_000)?;
    for (i, &want) in (0u32..).zip(expected) {
        assert_eq!(
            gpu.ram.read_u32(OUT + i * 4),
            want,
            "word {i} wrong after a completed run under {faults:?}"
        );
    }
    Ok(stats.cycles)
}

fn plan_strategy() -> impl Strategy<Value = FaultConfig> {
    (1u64..u64::MAX, 0u16..401, 0u16..401, (0u16..401, 1u32..97)).prop_map(
        |(seed, elastic_stall, dram_stall, (dram_delay, dram_extra_latency))| FaultConfig {
            seed,
            elastic_stall,
            dram_stall,
            dram_delay,
            dram_extra_latency,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fault plans only cost cycles: every kernel always completes and
    /// its results are always correct.
    #[test]
    fn benign_faults_never_change_results(plan in plan_strategy()) {
        for kernel in &kernels() {
            let cycles = run_under(kernel, &plan).expect("faults cannot stop the machine");
            // Sanity: the clean machine's cycle count is a lower bound.
            let clean = run_under(kernel, &FaultConfig::off()).expect("clean run");
            prop_assert!(cycles >= clean);
        }
    }

    /// Fault injection is deterministic: the same plan (same seed) gives
    /// the same outcome and cycle count.
    #[test]
    fn identical_seeds_are_identical_runs(plan in plan_strategy()) {
        for kernel in &kernels() {
            prop_assert_eq!(run_under(kernel, &plan), run_under(kernel, &plan));
        }
    }
}
