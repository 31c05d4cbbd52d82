//! Ablation studies for the design choices DESIGN.md calls out — beyond
//! the paper's own evaluation, these quantify why the microarchitecture is
//! built the way it is:
//!
//! * MSHR capacity (the non-blocking-cache design of §4.3),
//! * data-cache bank count (the multi-banking baseline),
//! * wavefront scheduling policy (the two-level policy of Narasiman et al.),
//! * cache hierarchy depth (the optional L2/L3 of §4.1.4),
//! * partial-sum staging in shared vs global memory (§4.1.4).
//!
//! Each sweep fans out across worker threads ([`run_jobs`]); results print
//! in sweep order regardless of the worker count.

use super::{run_jobs, Report, Scale};
use crate::{f0, f2, Table};
use vortex_core::scheduler::SchedPolicy;
use vortex_core::GpuConfig;
use vortex_kernels::{Benchmark, Bfs, Reduce, Saxpy, Sgemm};

pub fn report(scale: Scale) -> Report {
    let fast = scale == Scale::Fast;
    let mut md = String::new();

    // --- MSHR capacity: miss-level parallelism on a miss-heavy kernel. --
    md += "### MSHR capacity (saxpy, 1 core)\n\n";
    let saxpy: &dyn Benchmark = &Saxpy::new(if fast { 1024 } else { 8192 });
    let jobs = [2usize, 4, 8, 16, 32].map(|mshr| {
        let mut config = GpuConfig::with_cores(1);
        config.core.dcache.mshr_size = mshr;
        (saxpy, config)
    });
    let mut t = Table::new(["MSHR entries/bank", "IPC", "cycles"]);
    for ((_, config), r) in jobs.iter().zip(run_jobs(&jobs)) {
        let mshr = config.core.dcache.mshr_size;
        t.row([
            mshr.to_string(),
            f2(r.thread_ipc()),
            r.stats.cycles.to_string(),
        ]);
    }
    md += &t.to_markdown();
    md += "\n(deeper MSHRs expose more memory-level parallelism until the DRAM \
           channels saturate)\n\n";

    // --- D-cache banks. -------------------------------------------------
    md += "### D-cache bank count (sgemm, 1 core)\n\n";
    let sgemm: &dyn Benchmark = &Sgemm::new(if fast { 12 } else { 32 });
    let jobs = [1usize, 2, 4, 8].map(|banks| {
        let mut config = GpuConfig::with_cores(1);
        config.core.dcache.num_banks = banks;
        (sgemm, config)
    });
    let mut t = Table::new(["banks", "IPC", "bank conflicts"]);
    for ((_, config), r) in jobs.iter().zip(run_jobs(&jobs)) {
        t.row([
            config.core.dcache.num_banks.to_string(),
            f2(r.thread_ipc()),
            r.stats.cores[0].dcache.bank_conflicts.to_string(),
        ]);
    }
    md += &t.to_markdown();
    md += "\n(with the RTL's wavefront-wide cache interface, one wavefront's \
           unit-stride accesses all land in one line and therefore one bank, \
           whatever the bank count — exactly why the paper adds virtual ports \
           rather than more banks)\n\n";

    // --- Scheduling policy. ----------------------------------------------
    md += "### Wavefront scheduling policy (8 wavefronts, 1 core)\n\n";
    let bfs: &dyn Benchmark = &Bfs::new(if fast { 64 } else { 512 }, 3);
    let policies = [SchedPolicy::TwoLevel, SchedPolicy::RoundRobin];
    let jobs: Vec<_> = [sgemm, bfs]
        .into_iter()
        .flat_map(|bench| {
            policies.map(|policy| {
                let mut config = GpuConfig::with_cores(1);
                config.core.num_wavefronts = 8;
                config.core.sched_policy = policy;
                (bench, config)
            })
        })
        .collect();
    let mut t = Table::new(["benchmark", "two-level IPC", "round-robin IPC"]);
    for row in run_jobs(&jobs).chunks(policies.len()) {
        let ipcs = row.iter().map(|r| f2(r.thread_ipc()));
        t.row(std::iter::once(row[0].name.clone()).chain(ipcs));
    }
    md += &t.to_markdown();
    md += "\n";

    // --- Cache hierarchy depth. -------------------------------------------
    md += "### Cache hierarchy (4 cores, sgemm)\n\n";
    let depths = [
        ("L1 only", false, false),
        ("L1 + L2", true, false),
        ("L1 + L2 + L3", true, true),
    ];
    let jobs = depths.map(|(_, l2, l3)| {
        let mut config = GpuConfig::with_cores(4);
        if l2 {
            config.cores_per_cluster = 2;
            config.l2 = Some(vortex_mem::hierarchy::l2_default());
        }
        if l3 {
            config.l3 = Some(vortex_mem::hierarchy::l3_default());
        }
        (sgemm, config)
    });
    let mut t = Table::new(["hierarchy", "IPC", "DRAM reads", "DRAM writes"]);
    for ((name, ..), r) in depths.iter().zip(run_jobs(&jobs)) {
        t.row([
            (*name).to_string(),
            f2(r.thread_ipc()),
            f0(r.stats.dram_reads as f64),
            f0(r.stats.dram_writes as f64),
        ]);
    }
    md += &t.to_markdown();
    md += "\n(shared levels absorb refills that would otherwise hit DRAM — the \
           paper's motivation for the optional L2/L3)\n\n";

    // --- Shared memory vs global memory staging. ---------------------------
    md += "### Partial-sum staging: shared memory vs global (reduce, 2 cores)\n\n";
    let n = if fast { 4096 } else { 65536 };
    let (shared, global) = (Reduce::new(n), Reduce::global(n));
    let jobs: [(&dyn Benchmark, _); 2] = [
        (&shared, GpuConfig::with_cores(2)),
        (&global, GpuConfig::with_cores(2)),
    ];
    let mut t = Table::new(["staging", "IPC", "cycles", "smem accesses", "DRAM writes"]);
    for r in run_jobs(&jobs) {
        let smem: u64 = r.stats.cores.iter().map(|c| c.smem_accesses).sum();
        t.row([
            r.name.clone(),
            f2(r.thread_ipc()),
            r.stats.cycles.to_string(),
            smem.to_string(),
            r.stats.dram_writes.to_string(),
        ]);
    }
    md += &t.to_markdown();
    md += "\n(the scratchpad keeps partial traffic on-core — §4.1.4's optional \
           shared memory)\n";
    Report::from(md)
}
