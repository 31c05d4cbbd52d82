//! Timing-model tests: the cycle costs the microarchitecture promises —
//! blocking functional units, pipelined units, memory latency — observed
//! through the `cycle` CSR from inside kernels.

use vortex_asm::Assembler;
use vortex_core::{CoreConfig, Gpu, GpuConfig};
use vortex_isa::{csr, FReg, Reg};

const ENTRY: u32 = 0x8000_0000;

/// Runs a single-wavefront kernel that measures the cycle cost of `body`
/// via two `csrr cycle` reads, storing the delta at 0x1000.
fn measure(body: impl FnOnce(&mut Assembler)) -> u64 {
    let mut a = Assembler::new();
    a.csrr(Reg::X30, csr::CYCLE);
    body(&mut a);
    a.csrr(Reg::X31, csr::CYCLE);
    a.sub(Reg::X31, Reg::X31, Reg::X30);
    a.li(Reg::X5, 0x1000);
    a.sw(Reg::X31, Reg::X5, 0);
    a.ecall();
    let prog = a.assemble(ENTRY).expect("assembles");
    let mut gpu = Gpu::new(GpuConfig::with_cores(1));
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    gpu.run(1_000_000).expect("finishes");
    u64::from(gpu.ram.read_u32(0x1000))
}

#[test]
fn blocking_fsqrt_serializes_back_to_back_issues() {
    // Two dependent-free fsqrts must still be ≥ fsqrt latency apart
    // because the unit is iterative (not pipelined).
    let latency = u64::from(CoreConfig::baseline().latencies.fsqrt);
    let one = measure(|a| {
        a.lfi(FReg::X1, 2.0);
        a.fsqrt(FReg::X2, FReg::X1);
        a.fadd(FReg::X4, FReg::X2, FReg::X2); // consume (wait for writeback)
    });
    let two = measure(|a| {
        a.lfi(FReg::X1, 2.0);
        a.fsqrt(FReg::X2, FReg::X1);
        a.fsqrt(FReg::X3, FReg::X1);
        a.fadd(FReg::X4, FReg::X2, FReg::X3); // consume both
    });
    assert!(
        two >= one + latency,
        "second fsqrt must wait for the blocking unit: {one} → {two}"
    );
}

#[test]
fn pipelined_fpu_accepts_independent_ops_without_blocking() {
    // Independent fadds are pipelined: four of them cost much less than
    // 4 × latency on top of the baseline.
    let latency = u64::from(CoreConfig::baseline().latencies.fpu);
    let one = measure(|a| {
        a.lfi(FReg::X1, 2.0);
        a.fadd(FReg::X2, FReg::X1, FReg::X1);
    });
    let four = measure(|a| {
        a.lfi(FReg::X1, 2.0);
        a.fadd(FReg::X2, FReg::X1, FReg::X1);
        a.fadd(FReg::X3, FReg::X1, FReg::X1);
        a.fadd(FReg::X4, FReg::X1, FReg::X1);
        a.fadd(FReg::X5, FReg::X1, FReg::X1);
    });
    assert!(
        four < one + 4 * latency,
        "pipelined FPU must overlap: {one} → {four} (latency {latency})"
    );
}

#[test]
fn raw_dependent_chain_pays_fpu_latency_per_link() {
    let latency = u64::from(CoreConfig::baseline().latencies.fpu);
    let chain = measure(|a| {
        a.lfi(FReg::X1, 1.5);
        a.fadd(FReg::X1, FReg::X1, FReg::X1);
        a.fadd(FReg::X1, FReg::X1, FReg::X1);
        a.fadd(FReg::X1, FReg::X1, FReg::X1);
    });
    assert!(
        chain >= 3 * latency,
        "RAW chain of 3 fadds must cost ≥ 3×{latency}: {chain}"
    );
}

#[test]
fn cold_load_costs_dram_latency_warm_load_does_not() {
    let dram_latency = u64::from(GpuConfig::with_cores(1).dram.latency);
    let cold = measure(|a| {
        a.li(Reg::X6, 0x5000);
        a.lw(Reg::X7, Reg::X6, 0);
        a.add(Reg::X8, Reg::X7, Reg::X7); // force the wait (RAW)
    });
    let warm = measure(|a| {
        a.li(Reg::X6, 0x5000);
        a.lw(Reg::X7, Reg::X6, 0);
        a.add(Reg::X8, Reg::X7, Reg::X7);
        a.csrr(Reg::X30, csr::CYCLE); // restart the measurement window
        a.lw(Reg::X9, Reg::X6, 4);
        a.add(Reg::X8, Reg::X9, Reg::X9);
    });
    assert!(
        cold >= dram_latency,
        "cold miss must include DRAM latency: {cold} < {dram_latency}"
    );
    assert!(
        warm < dram_latency / 2,
        "warm hit must avoid DRAM: {warm}"
    );
}

#[test]
fn integer_div_blocks_its_unit() {
    let latency = u64::from(CoreConfig::baseline().latencies.div);
    let two = measure(|a| {
        a.li(Reg::X6, 100);
        a.li(Reg::X7, 7);
        a.div(Reg::X8, Reg::X6, Reg::X7);
        a.div(Reg::X9, Reg::X6, Reg::X7);
        a.add(Reg::X10, Reg::X8, Reg::X9); // consume both results
    });
    assert!(two >= 2 * latency, "two divs ≥ 2×{latency}: {two}");
}

/// Two cores race on one word: `storer` stores 1 to it, the other core
/// loads it. Returns `(load issue cycle − store issue cycle, loaded value)`.
///
/// Both cores run the same prologue, warm their I-caches in a first pass
/// and leave a global barrier in lock step; from there each path is a
/// `div` → `div` dependency chain ending in `csrr x6, cycle` (held back by
/// the write-after-write hazard on `x6`) with the memory instruction
/// buffered right behind it, so the access issues exactly one cycle after
/// the cycle the `csrr` read. `pad_store` / `pad_load` splice one
/// dependent no-op (`addi x6, x6, 0`) into a chain, delaying that core's
/// access by exactly one cycle — independent `nop`s would vanish in the
/// divider's shadow, and a lone wavefront fetches one only every third
/// cycle.
fn race(storer: usize, pad_store: bool, pad_load: bool) -> (i64, u32) {
    const WORD: i32 = 0x1000;
    const OUT: u32 = 0x2000; // per core: [cycle read, loaded value]
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_CID);
    a.li(Reg::X8, storer as i32);
    a.li(Reg::X9, 1);
    a.li(Reg::X11, WORD);
    a.slli(Reg::X12, Reg::X5, 3);
    a.li(Reg::X13, OUT as i32);
    a.add(Reg::X12, Reg::X12, Reg::X13);
    a.li(Reg::X14, vortex_isa::vx::BAR_GLOBAL_BIT as i32);
    a.li(Reg::X15, 2);
    a.li(Reg::X20, 0); // pass number, and the value stored: 0 then 1
    a.label("pass").unwrap();
    a.bar(Reg::X14, Reg::X15);
    a.bne(Reg::X5, Reg::X8, "loader");
    let chain = |a: &mut Assembler, pad: bool| {
        a.div(Reg::X6, Reg::X9, Reg::X9);
        if pad {
            a.addi(Reg::X6, Reg::X6, 0);
        }
        a.div(Reg::X6, Reg::X6, Reg::X9);
        a.csrr(Reg::X6, csr::CYCLE);
    };
    chain(&mut a, pad_store);
    a.sw(Reg::X20, Reg::X11, 0);
    a.j("record");
    a.label("loader").unwrap();
    chain(&mut a, pad_load);
    a.lw(Reg::X7, Reg::X11, 0);
    a.label("record").unwrap();
    a.sw(Reg::X6, Reg::X12, 0);
    a.sw(Reg::X7, Reg::X12, 4);
    a.addi(Reg::X20, Reg::X20, 1);
    a.bne(Reg::X20, Reg::X15, "pass");
    a.ecall();
    let prog = a.assemble(ENTRY).expect("assembles");
    let mut gpu = Gpu::new(GpuConfig::with_cores(2));
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    gpu.run(1_000_000).expect("finishes");
    let out = |core: usize, word: u32| gpu.ram.read_u32(OUT + core as u32 * 8 + word * 4);
    let loader = 1 - storer;
    let delta = i64::from(out(loader, 0)) - i64::from(out(storer, 0));
    (delta, out(loader, 1))
}

/// The publication rule of DESIGN §10: cores tick in ascending id order
/// against one memory, so a load issuing in the same cycle as another
/// core's store sees it iff the storing core has the lower id. A cycle
/// earlier it never does, a cycle later it always does.
#[test]
fn same_cycle_store_is_visible_to_higher_core_ids_only() {
    for (storer, same_cycle) in [(0, 1), (1, 0)] {
        let sweep = [(true, false, 0), (false, false, same_cycle), (false, true, 1)];
        for (want_delta, (pad_store, pad_load, want)) in (-1..=1).zip(sweep) {
            let (delta, loaded) = race(storer, pad_store, pad_load);
            assert_eq!(delta, want_delta, "pad sweep missed its cycle (storer {storer})");
            assert_eq!(
                loaded, want,
                "core {storer} stores, load issues {delta:+} cycles from the store"
            );
        }
    }
}
