//! Property test: `restore(save(gpu))` is the identity at *arbitrary*
//! machine states. Random small configurations (cores × warps × threads ×
//! telemetry sampling × benign fault injection) run a parameterized
//! kernel to a random mid-flight pause point; the snapshot taken there
//! must (a) re-save from a freshly-restored machine to byte-identical
//! bytes — nothing lost, nothing reordered — and (b) resume to a
//! completion bit-identical to a machine that was never interrupted.

use proptest::prelude::*;
use vortex_asm::Assembler;
use vortex_core::CoreConfig;
use vortex_core::{Gpu, GpuConfig, GpuStats, SimError};
use vortex_faults::FaultConfig;
use vortex_isa::{csr, Reg};

const ENTRY: u32 = 0x8000_0000;
const OUT: u32 = 0x9000;

/// Every thread of every warp of every core bumps a private counter
/// `iters` times through the D$, then halts. Small, but mid-flight state
/// still spans regfiles, warp masks, ibuffers, in-flight loads, and
/// cache/DRAM queue contents.
fn kernel(iters: u32) -> vortex_asm::Program {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_NW);
    a.la(Reg::X6, "worker");
    a.wspawn(Reg::X5, Reg::X6);
    a.j("worker");
    a.label("worker").unwrap();
    a.csrr(Reg::X5, csr::VX_NT);
    a.tmc(Reg::X5);
    a.csrr(Reg::X6, csr::VX_GTID);
    a.slli(Reg::X7, Reg::X6, 2);
    a.li(Reg::X8, OUT as i32);
    a.add(Reg::X7, Reg::X7, Reg::X8);
    a.li(Reg::X9, 0);
    a.li(Reg::X10, iters as i32);
    a.label("bump").unwrap();
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 1);
    a.sw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X9, Reg::X9, 1);
    a.blt(Reg::X9, Reg::X10, "bump");
    a.ecall();
    a.assemble(ENTRY).expect("kernel assembles")
}

#[derive(Debug, Clone)]
struct Case {
    cores: usize,
    warps: usize,
    threads: usize,
    sample: u64,
    fault_seed: Option<u64>,
    iters: u32,
    pause: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..3,
        1usize..5,
        1usize..5,
        prop_oneof![Just(0u64), Just(32u64)],
        prop_oneof![Just(None), (1u64..u64::MAX).prop_map(Some)],
        8u32..65,
        20u64..3_001,
    )
        .prop_map(
            |(cores, warps, threads, sample, fault_seed, iters, pause)| Case {
                cores,
                warps,
                threads,
                sample,
                fault_seed,
                iters,
                pause,
            },
        )
}

fn make_config(case: &Case) -> GpuConfig {
    let mut config = GpuConfig::with_cores(case.cores);
    config.core = CoreConfig::with_dims(case.warps, case.threads);
    config.sample_interval = case.sample;
    config
}

fn boot(case: &Case) -> Gpu {
    let prog = kernel(case.iters);
    let mut gpu = Gpu::new(make_config(case));
    if let Some(seed) = case.fault_seed {
        // Fault classes reshape timing without ever wedging the machine,
        // so every random case is guaranteed to complete.
        let spec = format!(
            "seed={seed},elastic_stall=200,dram_stall=300,dram_delay=300,\
             dram_extra_latency=24"
        );
        gpu.apply_faults(&FaultConfig::from_spec(&spec).expect("valid spec"));
    }
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    gpu
}

fn fingerprint(gpu: &Gpu, stats: GpuStats) -> (GpuStats, Vec<u8>, Vec<u64>, bool) {
    let mem = (OUT..OUT + 4 * 32).map(|a| gpu.ram.read_u8(a)).collect();
    let has_series = gpu.time_series().is_some();
    (stats, mem, gpu.fault_draws(), has_series)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_restore_is_identity_at_random_pause_points(case in case_strategy()) {
        // Continuous reference run.
        let mut reference = boot(&case);
        let ref_stats = reference.run(5_000_000).expect("kernel completes");
        let expect = fingerprint(&reference, ref_stats);

        // Interrupted run: pause at a random cycle (if the kernel is
        // still in flight there), snapshot, restore into a fresh
        // machine, prove the re-save is byte-identical, and finish.
        let mut gpu = boot(&case);
        match gpu.run(case.pause) {
            Ok(_) => {
                // Kernel beat the pause point; the snapshot of a *done*
                // machine must still round-trip.
            }
            Err(SimError::Timeout { .. }) => {}
            Err(e) => panic!("unexpected outcome: {e}"),
        }
        let bytes = gpu.save_snapshot();
        let mut restored = Gpu::new(make_config(&case));
        restored.restore_snapshot(&bytes).expect("own snapshot restores");
        prop_assert_eq!(
            &bytes,
            &restored.save_snapshot(),
            "re-saved snapshot must be byte-identical (pause {})", case.pause
        );
        let stats = restored.run(5_000_000).expect("resumed kernel completes");
        let got = fingerprint(&restored, stats);
        prop_assert_eq!(&expect.0, &got.0, "GpuStats after resume");
        prop_assert_eq!(&expect.1, &got.1, "memory image after resume");
        prop_assert_eq!(&expect.2, &got.2, "fault draws after resume");
        prop_assert_eq!(expect.3, got.3, "telemetry presence after resume");
    }
}
