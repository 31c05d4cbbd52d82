//! Fast-forward ≡ live ticking: skipping idle cycles is a pure host
//! optimization, so simulated cycles, every `GpuStats` counter, the final
//! memory image, the telemetry time series, the rendered
//! `vortex-profile-v1` document, fault-site draw counts, and snapshot
//! bytes must be bit-identical with [`GpuConfig::fast_forward`] on or
//! off. The workload is memory-bound (cold strided loads through the D$
//! into DRAM) precisely so real multi-hundred-cycle idle spans exist to
//! skip.

use vortex_asm::Assembler;
use vortex_core::{Gpu, GpuConfig, GpuStats, SimError};
use vortex_faults::FaultConfig;
use vortex_isa::{csr, Reg};

const ENTRY: u32 = 0x8000_0000;
const NUM_CORES: usize = 4;
const OUT: u32 = 0xA000;

/// Memory-bound kernel: each core walks a core-private region with a
/// stride larger than a cache line, so every load is a cold D$ miss that
/// parks the core on the scoreboard for a full DRAM round trip — the
/// canonical dead span the fast-forward engine must collapse without
/// changing a single counter.
fn kernel() -> Assembler {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_CID);
    a.slli(Reg::X6, Reg::X5, 12);
    a.li(Reg::X7, 0x0001_0000);
    a.add(Reg::X6, Reg::X6, Reg::X7); // base = 0x10000 + 4096·cid
    a.li(Reg::X8, 0); // i
    a.li(Reg::X9, 16); // iterations
    a.li(Reg::X10, 0); // sum
    a.label("chase").unwrap();
    a.lw(Reg::X11, Reg::X6, 0);
    a.add(Reg::X10, Reg::X10, Reg::X11); // depends on the load
    a.addi(Reg::X6, Reg::X6, 256); // next (cold) line
    a.addi(Reg::X8, Reg::X8, 1);
    a.blt(Reg::X8, Reg::X9, "chase");
    a.slli(Reg::X12, Reg::X5, 2);
    a.li(Reg::X13, OUT as i32);
    a.add(Reg::X12, Reg::X12, Reg::X13);
    a.sw(Reg::X10, Reg::X12, 0);
    a.ecall();
    a
}

fn config(fast_forward: bool, sample: u64, profile: bool) -> GpuConfig {
    let mut config = GpuConfig::with_cores(NUM_CORES);
    config.fast_forward = fast_forward;
    config.sample_interval = sample;
    config.profile = profile;
    config
}

/// Same knobs on a clustered topology: 2 clusters of 2 cores behind
/// per-cluster L2s and a shared L3 — the hierarchy skips the tick of a
/// quiet level, and those early-outs must agree byte-for-byte with live
/// ticking.
fn clustered_config(fast_forward: bool, sample: u64, profile: bool) -> GpuConfig {
    let mut config = config(fast_forward, sample, profile);
    config.cores_per_cluster = 2;
    config.l2 = Some(vortex_mem::hierarchy::l2_default());
    config.l3 = Some(vortex_mem::hierarchy::l3_default());
    config
}

struct RunOutcome {
    stats: GpuStats,
    mem: Vec<u8>,
    series: Option<vortex_core::TimeSeries>,
    fault_draws: Vec<u64>,
    snapshot: Vec<u8>,
    profile_doc: Option<String>,
}

fn run_with(
    fast_forward: bool,
    sample: u64,
    profile: bool,
    faults: Option<&FaultConfig>,
) -> RunOutcome {
    run_cfg(config(fast_forward, sample, profile), faults)
}

fn run_cfg(config: GpuConfig, faults: Option<&FaultConfig>) -> RunOutcome {
    drive_cfg(config, faults, |gpu| {
        gpu.run(5_000_000).expect("kernel completes")
    })
}

/// Boots [`kernel`] on `config` and lets `drive` take it to completion.
fn drive_cfg(
    config: GpuConfig,
    faults: Option<&FaultConfig>,
    drive: impl FnOnce(&mut Gpu) -> GpuStats,
) -> RunOutcome {
    let prog = kernel().assemble(ENTRY).expect("kernel assembles");
    let mut gpu = Gpu::new(config);
    if let Some(f) = faults {
        gpu.apply_faults(f);
    }
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    let stats = drive(&mut gpu);
    let mem = (OUT..OUT + 4 * NUM_CORES as u32)
        .map(|addr| gpu.ram.read_u8(addr))
        .collect();
    RunOutcome {
        mem,
        series: gpu.time_series().cloned(),
        fault_draws: gpu.fault_draws(),
        snapshot: gpu.save_snapshot(),
        profile_doc: gpu
            .profile()
            .map(|p| vortex_obs::render_profile_json("ff", &p)),
        stats,
    }
}

/// Everything invariant between a skipping and a live run must agree.
fn assert_same(label: &str, live: &RunOutcome, ff: &RunOutcome) {
    assert_eq!(live.stats.cycles, ff.stats.cycles, "{label}: cycle count");
    assert_eq!(live.stats, ff.stats, "{label}: GpuStats");
    assert_eq!(live.mem, ff.mem, "{label}: final memory image");
    assert_eq!(live.series, ff.series, "{label}: telemetry time series");
    assert_eq!(live.fault_draws, ff.fault_draws, "{label}: fault draws");
    assert_eq!(live.snapshot, ff.snapshot, "{label}: snapshot bytes");
    assert_eq!(live.profile_doc, ff.profile_doc, "{label}: profile export");
}

#[test]
fn skipping_is_bit_identical() {
    let live = run_with(false, 0, false, None);
    assert_eq!(
        live.stats.cycles_skipped, 0,
        "skipping off must never skip"
    );
    assert_eq!(live.stats.skip_events, 0);
    // Sanity: the kernel did its memory-bound work.
    let sum0 = u32::from_le_bytes(live.mem[0..4].try_into().unwrap());
    assert_eq!(sum0, 0, "cold RAM reads sum to zero");
    assert!(live.stats.merged_dcache().read_misses >= 16 * NUM_CORES as u64 / 4);

    let ff = run_with(true, 0, false, None);
    assert_same("ff on", &live, &ff);
    assert!(ff.stats.cycles_skipped > 0, "memory-bound run must actually skip");
    assert!(ff.stats.skip_events > 0);
    assert!(
        ff.stats.cycles_skipped < ff.stats.cycles,
        "skipped cycles are a subset of simulated cycles"
    );
}

#[test]
fn skipping_preserves_telemetry_and_profile() {
    let live = run_with(false, 64, true, None);
    let series = live.series.as_ref().expect("sampling enabled");
    assert!(!series.samples.is_empty(), "run long enough to sample");
    assert!(live.profile_doc.is_some(), "profiling enabled");
    let ff = run_with(true, 64, true, None);
    assert_same("sampled+profiled", &live, &ff);
    assert!(ff.stats.cycles_skipped > 0, "windows don't stop skipping");
}

#[test]
fn fault_draws_identical_with_skipping() {
    // Fault plans draw at per-tick sites, so faulted components refuse to
    // fast-forward; the audit chains must come out equal.
    let faults = FaultConfig::from_spec(
        "seed=77,elastic_stall=300,dram_stall=400,dram_delay=500,\
         dram_extra_latency=40,cache_rsp_stall=300",
    )
    .expect("valid spec");
    let live = run_with(false, 0, false, Some(&faults));
    assert!(
        live.fault_draws.iter().sum::<u64>() > 0,
        "fault streams actually consumed"
    );
    let ff = run_with(true, 0, false, Some(&faults));
    assert_same("faulted", &live, &ff);
}

#[test]
fn clustered_l2_l3_skipping_is_bit_identical() {
    let live = run_cfg(clustered_config(false, 64, true), None);
    assert_eq!(live.stats.cycles_skipped, 0, "skipping off never skips");
    assert!(
        live.stats.dram_reads > 0,
        "traffic must reach DRAM through the L2/L3 levels"
    );
    assert!(live.profile_doc.is_some(), "profiling enabled");
    let ff = run_cfg(clustered_config(true, 64, true), None);
    assert_same("clustered ff on", &live, &ff);
    assert!(
        ff.stats.cycles_skipped > 0,
        "clustered memory-bound run must actually skip"
    );
}

#[test]
fn clustered_fault_draws_identical_with_skipping() {
    let faults = FaultConfig::from_spec(
        "seed=99,elastic_stall=300,dram_stall=400,dram_delay=500,\
         dram_extra_latency=40,cache_rsp_stall=300",
    )
    .expect("valid spec");
    let live = run_cfg(clustered_config(false, 0, false), Some(&faults));
    assert!(
        live.fault_draws.iter().sum::<u64>() > 0,
        "fault streams actually consumed"
    );
    let ff = run_cfg(clustered_config(true, 0, false), Some(&faults));
    assert_same("clustered faulted", &live, &ff);
}

/// [`Gpu::step`] is the run loop's live-tick body: driving it by hand to
/// completion must land where `run` with skipping off does. (The run is
/// shorter than one watchdog window, so the watchdog baseline inside the
/// snapshot is the boot one on both sides and the bytes compare too.)
#[test]
fn hand_stepped_run_equals_run() {
    for (label, cfg) in [
        ("flat", config(false, 0, false)),
        ("clustered", clustered_config(false, 0, false)),
    ] {
        let ran = run_cfg(cfg.clone(), None);
        let stepped = drive_cfg(cfg, None, |gpu| {
            while !gpu.is_done() {
                gpu.step().expect("kernel does not trap");
            }
            gpu.stats()
        });
        assert_same(&format!("{label}: step vs run"), &ran, &stepped);
    }
}

#[test]
fn paused_machines_snapshot_identically() {
    // Interrupt both runs mid-flight (inside the DRAM-bound phase): the
    // skipping machine must stop on exactly the budget cycle with exactly
    // the live machine's snapshot bytes.
    let run_until = |fast_forward: bool, budget: u64| {
        let prog = kernel().assemble(ENTRY).expect("kernel assembles");
        let mut gpu = Gpu::new(config(fast_forward, 0, false));
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        assert_eq!(
            gpu.run(budget),
            Err(SimError::Timeout { cycles: budget }),
            "budget lands mid-run (ff {fast_forward})"
        );
        gpu.save_snapshot()
    };
    for budget in [100, 400, 1500] {
        assert_eq!(
            run_until(false, budget),
            run_until(true, budget),
            "snapshot bytes at paused cycle {budget}"
        );
    }
}

#[test]
fn gpu_stats_equality_ignores_host_skip_accounting() {
    // GpuStats equality is simulated-state equality: two identical
    // simulations that reached the end through different jump schedules
    // still compare equal, while any architectural divergence does not.
    let a = run_with(false, 0, false, None).stats;
    let b = run_with(true, 0, false, None).stats;
    assert_ne!(
        (a.cycles_skipped, a.skip_events),
        (b.cycles_skipped, b.skip_events)
    );
    assert_eq!(a, b);
    let mut c = b.clone();
    c.cycles += 1;
    assert_ne!(a, c);
}
