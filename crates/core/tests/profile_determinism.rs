//! The PC-level profiler's determinism contract: the merged
//! [`vortex_core::GpuProfile`] — and therefore the rendered
//! `vortex-profile-v1` export — must be *byte-identical* run to run and
//! across checkpoint/restore boundaries, and collecting it must not
//! perturb a single architectural counter.
//!
//! The workload is a multi-core kernel with divergent branches and
//! store→load D$ traffic, so every profiled dimension (issue counts, lane
//! histograms, divergence sites, stall attribution, memory attribution)
//! is actually exercised.

use vortex_asm::Assembler;
use vortex_core::{Gpu, GpuConfig, GpuProfile, GpuStats};
use vortex_isa::{csr, Reg};

const ENTRY: u32 = 0x8000_0000;
const NUM_CORES: usize = 4;
const SLOTS: u32 = 0x9000;

/// Divergence + memory traffic on every core: each thread bumps a private
/// counter through the D$ eight times, and odd global-thread-ids take a
/// divergent extra path through the IPDOM stack.
fn kernel() -> Assembler {
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
    a.li(Reg::X8, SLOTS as i32);
    a.add(Reg::X7, Reg::X7, Reg::X8);
    a.li(Reg::X9, 0);
    a.li(Reg::X10, 8);
    a.label("bump").unwrap();
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 1);
    a.sw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X9, Reg::X9, 1);
    a.blt(Reg::X9, Reg::X10, "bump");
    a.andi(Reg::X12, Reg::X6, 1);
    a.split(Reg::X12);
    a.beqz(Reg::X12, "even");
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 100);
    a.sw(Reg::X11, Reg::X7, 0);
    a.label("even").unwrap();
    a.join();
    a.ecall();
    a
}

/// Runs [`kernel`] with profiling on and returns the merged profile, the
/// architectural stats, and the rendered `vortex-profile-v1` document.
fn profiled_run(checkpoint_drill: u64) -> (GpuProfile, GpuStats, String) {
    let prog = kernel().assemble(ENTRY).expect("kernel assembles");
    let mut config = GpuConfig::with_cores(NUM_CORES);
    config.checkpoint_drill = checkpoint_drill;
    config.profile = true;
    let mut gpu = Gpu::new(config);
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    let stats = gpu.run(1_000_000).expect("kernel completes");
    let profile = gpu.profile().expect("profiling enabled");
    let doc = vortex_obs::render_profile_json("determinism", &profile);
    (profile, stats, doc)
}

/// Same run with profiling off — the architectural baseline.
fn unprofiled_stats() -> GpuStats {
    let prog = kernel().assemble(ENTRY).expect("kernel assembles");
    let config = GpuConfig::with_cores(NUM_CORES);
    let mut gpu = Gpu::new(config);
    gpu.ram.write_bytes(prog.base, &prog.to_bytes());
    gpu.launch(prog.entry);
    gpu.run(1_000_000).expect("kernel completes")
}

#[test]
fn profile_is_byte_identical_run_to_run() {
    let (p1, s1, doc1) = profiled_run(0);
    assert!(!p1.sites.is_empty(), "kernel must produce profiled sites");
    assert!(
        p1.sites.values().any(|s| s.divergences > 0),
        "divergent branch site must be attributed"
    );
    assert!(
        p1.sites.values().any(|s| s.loads > 0 && s.stores == 0),
        "load sites must be attributed"
    );
    let (p, s, doc) = profiled_run(0);
    assert_eq!(s1, s, "GpuStats run to run");
    assert_eq!(p1, p, "GpuProfile run to run");
    assert_eq!(
        doc1.as_bytes(),
        doc.as_bytes(),
        "vortex-profile-v1 export must be byte-identical run to run"
    );
}

#[test]
fn profile_survives_checkpoint_restore() {
    let (p_plain, s_plain, doc_plain) = profiled_run(0);
    // A tight drill forces many save→teardown→rebuild→restore round trips
    // mid-run; the profile payload rides in the core snapshot, so any
    // field missed by save/restore shows up as a diff here.
    let (p_drill, s_drill, doc_drill) = profiled_run(777);
    assert_eq!(s_plain, s_drill, "GpuStats across checkpoint drill");
    assert_eq!(p_plain, p_drill, "GpuProfile across checkpoint drill");
    assert_eq!(
        doc_plain.as_bytes(),
        doc_drill.as_bytes(),
        "vortex-profile-v1 export must survive checkpoint/restore byte-identically"
    );
}

#[test]
fn profiling_is_observation_only_and_totals_match() {
    let baseline = unprofiled_stats();
    let (profile, stats, _) = profiled_run(0);
    assert_eq!(
        baseline, stats,
        "GpuStats must be bit-identical with profiling on/off"
    );
    assert_eq!(
        profile.total_thread_instrs(),
        stats.total_thread_instrs(),
        "every issued thread-instruction is profiled exactly once"
    );
    assert_eq!(
        profile.total_issues(),
        stats.total_instrs(),
        "every issue slot is profiled exactly once"
    );
    assert_eq!(
        profile
            .sites
            .values()
            .map(|s| s.divergences)
            .sum::<u64>(),
        stats.total_divergences(),
        "per-site divergences sum to the architectural counter"
    );
}

#[test]
fn profile_json_round_trips_through_reader() {
    let (profile, _, doc) = profiled_run(0);
    let parsed = vortex_obs::parse_profile(&doc).expect("export parses");
    assert_eq!(profile, parsed, "reader must reconstruct the profile");
    // Re-rendering the parsed profile reproduces the document exactly.
    let doc2 = vortex_obs::render_profile_json("determinism", &parsed);
    assert_eq!(doc.as_bytes(), doc2.as_bytes(), "render∘parse is identity");
}
