//! Performance counters: the quantities the paper's evaluation reports
//! (IPC in Figures 14/18/19/21, texture/cache behaviour elsewhere).

use vortex_mem::cache::CacheStats;
use vortex_tex::TexUnitStats;

/// Issue-stall breakdown for one core.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StallStats {
    /// Cycles with no decoded instruction ready to issue.
    pub ibuffer_empty: u64,
    /// Cycles blocked by a scoreboard (data) hazard.
    pub scoreboard: u64,
    /// Cycles blocked by a busy functional unit.
    pub fu_busy: u64,
}

impl StallStats {
    /// All issue-stall cycles. The issue stage charges every cycle to
    /// exactly one bucket — an issued instruction or one stall reason —
    /// so per core `cycles == instrs + stalls.total()` holds exactly (the
    /// invariant `tests/stall_attribution.rs` asserts).
    pub fn total(&self) -> u64 {
        self.ibuffer_empty + self.scoreboard + self.fu_busy
    }

    /// Charges `cycles` no-issue cycles to their one bucket: a scoreboard
    /// block outranks a busy unit, which outranks an empty buffer.
    #[inline]
    pub fn charge(&mut self, scoreboard: bool, fu_busy: bool, cycles: u64) {
        if scoreboard {
            self.scoreboard += cycles;
        } else if fu_busy {
            self.fu_busy += cycles;
        } else {
            self.ibuffer_empty += cycles;
        }
    }
}

/// One core's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Wavefront-instructions issued.
    pub instrs: u64,
    /// Thread-instructions issued (instrs × active lanes).
    pub thread_instrs: u64,
    /// Loads issued (wavefront granularity).
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// `tex` instructions issued.
    pub tex_ops: u64,
    /// Barrier arrivals.
    pub barriers: u64,
    /// `split` instructions that actually diverged.
    pub divergences: u64,
    /// Issue-stall breakdown.
    pub stalls: StallStats,
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
    /// Texture-unit counters.
    pub tex: TexUnitStats,
    /// Shared-memory accesses.
    pub smem_accesses: u64,
    /// Shared-memory bank conflicts.
    pub smem_conflicts: u64,
}

impl CoreStats {
    /// Instructions per cycle at wavefront granularity (issue-slot
    /// utilization).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Instructions per cycle at *thread* granularity (each active lane
    /// counts) — the metric of the paper's IPC figures, which is why
    /// wide-thread configurations score higher there even at equal issue
    /// rates.
    pub fn thread_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instrs as f64 / self.cycles as f64
        }
    }
}

/// Whole-GPU counters.
///
/// Equality compares the *simulated* counters only: `cycles_skipped` and
/// `skip_events` describe how the host reached that state (how many idle
/// spans fast-forward collapsed), which depends on leg segmentation
/// (checkpoint drills, resume boundaries) even when the simulated outcome
/// is bit-identical. See the manual [`PartialEq`] impl below.
#[derive(Debug, Default, Clone)]
pub struct GpuStats {
    /// Cycles simulated (same for every core).
    pub cycles: u64,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// DRAM reads serviced.
    pub dram_reads: u64,
    /// DRAM writes serviced.
    pub dram_writes: u64,
    /// Simulated cycles covered by fast-forward skips instead of live
    /// ticks (host accounting only — included in `cycles`, and the
    /// architectural counters are identical with skipping off).
    pub cycles_skipped: u64,
    /// Number of fast-forward jumps taken.
    pub skip_events: u64,
}

impl PartialEq for GpuStats {
    /// Simulated-state equality: every architectural counter, but not the
    /// host-side fast-forward accounting (`cycles_skipped`/`skip_events`),
    /// which may segment differently across checkpoint drills and resume
    /// boundaries while the simulation itself stays bit-identical.
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.cores == other.cores
            && self.dram_reads == other.dram_reads
            && self.dram_writes == other.dram_writes
    }
}

impl GpuStats {
    /// Total wavefront-instructions across cores.
    pub fn total_instrs(&self) -> u64 {
        self.cores.iter().map(|c| c.instrs).sum()
    }

    /// Aggregate IPC: total instructions / cycles — the processor-level IPC
    /// the paper plots in Figure 18 (it grows with core count).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_instrs() as f64 / self.cycles as f64
        }
    }

    /// Aggregate thread-level IPC (see [`CoreStats::thread_ipc`]).
    pub fn thread_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_thread_instrs() as f64 / self.cycles as f64
        }
    }

    /// Total thread-instructions across cores (each active lane counts).
    pub fn total_thread_instrs(&self) -> u64 {
        self.cores.iter().map(|c| c.thread_instrs).sum()
    }

    /// Total IPDOM `split` instructions that actually diverged (both sides
    /// of the branch non-empty), across cores.
    pub fn total_divergences(&self) -> u64 {
        self.cores.iter().map(|c| c.divergences).sum()
    }

    /// Instruction-cache counters merged across cores.
    pub fn merged_icache(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for c in &self.cores {
            merged.merge(&c.icache);
        }
        merged
    }

    /// Data-cache counters merged across cores.
    pub fn merged_dcache(&self) -> CacheStats {
        let mut merged = CacheStats::default();
        for c in &self.cores {
            merged.merge(&c.dcache);
        }
        merged
    }

    /// Texture-unit counters merged across cores.
    pub fn merged_tex(&self) -> TexUnitStats {
        let mut merged = TexUnitStats::default();
        for c in &self.cores {
            merged.merge(&c.tex);
        }
        merged
    }

    /// Issue-stall counters merged across cores.
    pub fn merged_stalls(&self) -> StallStats {
        let mut merged = StallStats::default();
        for c in &self.cores {
            merged.ibuffer_empty += c.stalls.ibuffer_empty;
            merged.scoreboard += c.stalls.scoreboard;
            merged.fu_busy += c.stalls.fu_busy;
        }
        merged
    }
}

impl vortex_snapshot::Snap for StallStats {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u64(self.ibuffer_empty);
        w.u64(self.scoreboard);
        w.u64(self.fu_busy);
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        Ok(Self {
            ibuffer_empty: r.u64()?,
            scoreboard: r.u64()?,
            fu_busy: r.u64()?,
        })
    }
}

impl vortex_snapshot::Snap for CoreStats {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u64(self.cycles);
        w.u64(self.instrs);
        w.u64(self.thread_instrs);
        w.u64(self.loads);
        w.u64(self.stores);
        w.u64(self.tex_ops);
        w.u64(self.barriers);
        w.u64(self.divergences);
        self.stalls.save(w);
        self.icache.save(w);
        self.dcache.save(w);
        self.tex.save(w);
        w.u64(self.smem_accesses);
        w.u64(self.smem_conflicts);
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        Ok(Self {
            cycles: r.u64()?,
            instrs: r.u64()?,
            thread_instrs: r.u64()?,
            loads: r.u64()?,
            stores: r.u64()?,
            tex_ops: r.u64()?,
            barriers: r.u64()?,
            divergences: r.u64()?,
            stalls: vortex_snapshot::Snap::load(r)?,
            icache: vortex_snapshot::Snap::load(r)?,
            dcache: vortex_snapshot::Snap::load(r)?,
            tex: vortex_snapshot::Snap::load(r)?,
            smem_accesses: r.u64()?,
            smem_conflicts: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_instrs_over_cycles() {
        let s = CoreStats {
            cycles: 100,
            instrs: 42,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 0.42).abs() < 1e-12);
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn gpu_ipc_sums_cores() {
        let core = CoreStats {
            cycles: 100,
            instrs: 50,
            ..CoreStats::default()
        };
        let g = GpuStats {
            cycles: 100,
            cores: vec![core; 4],
            ..GpuStats::default()
        };
        assert!((g.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_accessors_sum_across_cores() {
        let mut a = CoreStats {
            cycles: 100,
            instrs: 10,
            thread_instrs: 40,
            ..CoreStats::default()
        };
        a.icache.reads = 7;
        a.icache.read_hits = 6;
        a.dcache.reads = 20;
        a.dcache.writes = 5;
        a.tex.requests = 3;
        a.stalls = StallStats {
            ibuffer_empty: 50,
            scoreboard: 30,
            fu_busy: 10,
        };
        let mut b = a;
        b.thread_instrs = 80;
        b.dcache.reads = 30;
        b.tex.requests = 4;
        b.stalls.scoreboard = 5;
        let g = GpuStats {
            cycles: 100,
            cores: vec![a, b],
            ..GpuStats::default()
        };
        assert_eq!(g.total_thread_instrs(), 120);
        assert_eq!(g.merged_icache().reads, 14);
        assert_eq!(g.merged_icache().read_hits, 12);
        assert_eq!(g.merged_dcache().reads, 50);
        assert_eq!(g.merged_dcache().writes, 10);
        assert_eq!(g.merged_tex().requests, 7);
        assert_eq!(g.merged_stalls().scoreboard, 35);
        assert_eq!(g.merged_stalls().total(), 50 + 50 + 35 + 10 + 10);
    }

    #[test]
    fn stall_total_sums_every_reason() {
        let s = StallStats {
            ibuffer_empty: 1,
            scoreboard: 2,
            fu_busy: 3,
        };
        assert_eq!(s.total(), 6);
    }
}
