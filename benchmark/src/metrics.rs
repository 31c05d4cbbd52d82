//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root mirrors these tables
//! (`tests/contract.rs` keeps the two in step).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only; 0 on
    /// per-layer metrics, which have no bound).
    pub bound: f64,
    /// A simulated statistic: two runs of one commit at one seed must
    /// agree exactly, in both directions, whatever `bound` says.
    pub exact: bool,
    /// What it measures.
    pub meaning: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    meaning: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
        meaning,
    }
}

/// A per-layer host timing, ratio or rate: no bound, noisy.
const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricDef {
    def(name, unit, better, 0.0, false, meaning)
}

/// A per-layer simulated statistic: no bound, repeats exactly.
const fn counter(
    name: &'static str,
    unit: &'static str,
    better: Better,
    meaning: &'static str,
) -> MetricDef {
    def(name, unit, better, 0.0, true, meaning)
}

use Better::{Higher, Lower};

/// End-to-end metrics, per workload, measured with tracing off. Timing
/// samples are per rep.
///
/// The bounds on `sim_cycles` and `sim_thread_ipc` only leave room for
/// the seed-to-seed spread of the BFS and raster inputs (the acceptance
/// check runs every seed once); at one seed they repeat exactly and
/// `compare` demands that.
pub const END_TO_END: &[MetricDef] = &[
    def("sim_wall_s_p50", "s", Lower, 0.20, false,
        "median host wall time inside the simulate section (Device::run_kernel calls summed per rep; Renderer::draw for raster)"),
    def("sim_wall_s_tail", "s", Lower, 0.25, false,
        "the same at the highest percentile with at least 10 samples beyond it (printed as tail_pct)"),
    def("sim_cpu_s_p50", "s", Lower, 0.20, false,
        "the same section in thread CPU time: the cost when the shared host deschedules us"),
    def("rep_wall_s_p50", "s", Lower, 0.20, false,
        "whole rep: set-up + simulate + read-back + host validation + teardown"),
    def("setup_s", "s", Lower, 0.25, false,
        "median per rep from rep start to first launch: inputs, assembly, Device/Renderer::new, alloc/upload/args/program"),
    def("sim_mcps", "Mcycle/s", Higher, 0.20, false,
        "simulated cycles per host second of sim_wall_s_p50"),
    def("sim_mips", "Minstr/s", Higher, 0.20, false,
        "warp-instructions (GpuStats::total_instrs) per host second: host time per simulated event"),
    def("sim_cycles", "cycles", Lower, 0.08, true,
        "simulated cycles of one rep (device counter after the last launch)"),
    def("sim_thread_ipc", "instr/cycle", Higher, 0.08, true,
        "GpuStats::thread_ipc, the paper's figure metric"),
    def("peak_rss_mb", "MiB", Lower, 0.05, false,
        "VmHWM of the workload process at exit"),
];

/// Per-layer metrics, from the traced run. Names lead with the crate.
pub const PER_LAYER: &[MetricDef] = &[
    // core: host time around run_kernel/draw, A/B legs, counters.
    timing("core.run_s", "s", Lower,
        "median host time inside run_kernel per rep (raster: draw minus the gfx host stages)"),
    timing("core.ns_per_instr", "ns", Lower, "core.run_s per warp-instruction"),
    timing("core.ns_per_live_cycle", "ns", Lower,
        "core.run_s per ticked core-cycle: (cycles - skipped) x cores"),
    timing("core.ff.speedup", "ratio", Higher, "fast_forward off / on, sim wall p50"),
    timing("core.decode_cache.speedup", "ratio", Higher,
        "decode_cache off / on (sgemm-1c, raster-mc16; 0 elsewhere)"),
    timing("core.pool.speedup_t2", "ratio", Higher,
        "sim_threads 1 / 2 (mc16 workloads on hosts with 2+ CPUs; 0 elsewhere)"),
    timing("core.profile.overhead", "ratio", Lower,
        "profile on / off - 1 (sgemm-1c; 0 elsewhere)"),
    timing("core.telemetry.overhead", "ratio", Lower,
        "sample_interval 1000 / 0 - 1 (sgemm-1c; 0 elsewhere)"),
    counter("core.instrs", "count", Lower, "warp-instructions issued"),
    counter("core.thread_instrs", "count", Lower, "thread-instructions issued"),
    counter("core.loads", "count", Lower, "loads issued"),
    counter("core.stores", "count", Lower, "stores issued"),
    counter("core.tex_ops", "count", Lower, "tex instructions issued"),
    counter("core.divergences", "count", Lower, "splits that diverged"),
    counter("core.stall.ibuffer_empty", "cycles", Lower, "issue slots lost: nothing decoded"),
    counter("core.stall.scoreboard", "cycles", Lower, "issue slots lost: data hazard"),
    counter("core.stall.fu_busy", "cycles", Lower, "issue slots lost: unit busy"),
    counter("core.ff.cycles_skipped_share", "ratio", Higher, "cycles covered by fast-forward jumps / cycles"),
    counter("core.ff.skip_events", "count", Higher, "fast-forward jumps"),
    // mem: L1 and DRAM counters of the run, isolated drivers.
    counter("mem.icache.read_hit_rate", "ratio", Higher, "I$ read hits / reads"),
    counter("mem.dcache.reads", "count", Lower, "D$ reads accepted"),
    counter("mem.dcache.read_hit_rate", "ratio", Higher, "D$ read hits / reads"),
    counter("mem.dcache.mshr_merges", "count", Higher, "secondary misses merged"),
    counter("mem.dcache.bank_conflicts", "count", Lower, "D$ offers lost to a claimed bank"),
    counter("mem.dcache.bank_utilization", "ratio", Higher, "offers that met no bank conflict"),
    counter("mem.dram.reads", "count", Lower, "DRAM reads serviced"),
    counter("mem.dram.writes", "count", Lower, "DRAM writes serviced"),
    timing("mem.cache.ns_per_access", "ns", Lower,
        "isolated: one dcache_default Cache on a seeded lane stream, host time per accepted access"),
    timing("mem.hier_flat.ns_per_tick", "ns", Lower,
        "isolated: flat MemHierarchy, 1 port, host time per tick"),
    timing("mem.hier_flat16.ns_per_tick", "ns", Lower,
        "isolated: flat MemHierarchy, 16 ports, host time per tick"),
    timing("mem.hier_l2l3.ns_per_tick", "ns", Lower,
        "isolated: 4x4 clustered MemHierarchy with L2+L3, host time per tick"),
    counter("mem.hier_l2l3.l2_read_hit_rate", "ratio", Higher,
        "isolated: L2 read hits / reads over that stream"),
    // tex
    counter("tex.requests", "count", Lower, "tex instructions processed"),
    counter("tex.texels_generated", "count", Lower, "texel addresses before de-duplication"),
    counter("tex.texels_fetched", "count", Lower, "unique texel reads sent to the cache"),
    counter("tex.dedup_ratio", "ratio", Lower, "texels fetched / generated"),
    counter("tex.mem_busy_cycles", "cycles", Lower, "cycles a texel batch was outstanding"),
    // gfx: host stages of the seeded scene, timed in isolation.
    timing("gfx.geometry_us", "us", Lower, "isolated: process_geometry"),
    timing("gfx.binning_us", "us", Lower, "isolated: TileBins::build + to_device_arrays"),
    timing("gfx.program_us", "us", Lower, "isolated: raster::program"),
    timing("gfx.host_raster_ms", "ms", Lower, "isolated: Renderer::draw_host"),
    // kernels / asm / isa
    timing("kernels.inputs_us", "us", Lower, "seeded input generation per rep"),
    timing("kernels.reference_ms", "ms", Lower,
        "the host oracle per rep: sgemm::reference, bfs::reference_bfs, Renderer::draw_host"),
    timing("asm.build_us", "us", Lower, "assembling the kernel: *::program()"),
    timing("isa.decode.ns_per_word", "ns", Lower, "vortex_isa::decode over the kernel's words"),
    // runtime
    timing("runtime.device_new_us", "us", Lower, "Device::new / Renderer::new"),
    timing("runtime.upload_mb_s", "MB/s", Higher,
        "set-up uploads (alloc/upload/args/program); 0 on raster-mc16, whose uploads are inside draw"),
    timing("runtime.download_mb_s", "MB/s", Higher,
        "result read-back; 0 on raster-mc16, whose read-back is inside draw"),
    counter("runtime.launches", "count", Lower, "kernel launches per rep"),
    // snapshot: a 16-core L2+L3 device stopped mid-kernel.
    timing("snapshot.save_ms", "ms", Lower, "isolated: Device::save_snapshot mid-flight"),
    timing("snapshot.restore_ms", "ms", Lower, "isolated: Device::restore_snapshot into a fresh device"),
    counter("snapshot.bytes", "bytes", Lower, "isolated: size of that snapshot"),
    // the benchmark's own tracing
    timing("trace.overhead_share", "ratio", Lower, "traced / untraced sim wall p50 - 1"),
];

/// Named values in table order.
pub type Values = Vec<(&'static str, f64)>;

/// Panics unless `values` names exactly the metrics of `table`, in order
/// — a metric the code forgot (or invented) must not reach a result file.
pub fn assert_matches(table: &[MetricDef], values: &Values) {
    let want: Vec<_> = table.iter().map(|m| m.name).collect();
    let got: Vec<_> = values.iter().map(|(n, _)| *n).collect();
    assert_eq!(want, got, "metric names out of step with the table");
}

/// Looks a metric up by name.
#[cfg(test)]
pub(crate) fn lookup(table: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    table.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for w in Workload::ALL {
            assert!(well_formed(w.name(), 64) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }

    #[test]
    fn bounds_fit_the_contract() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = lookup(END_TO_END, "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
