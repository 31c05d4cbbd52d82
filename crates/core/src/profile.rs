//! PC-level profiling: per-instruction-address attribution of issue
//! slots, stall cycles, SIMT lane utilization, divergence, and LSU/D-cache
//! behaviour.
//!
//! The profiler is *observation-only*: enabling it
//! ([`crate::GpuConfig::profile`]) must not change a single architectural
//! or timing decision, so every hook in `core.rs` reads state the pipeline
//! already computed and the whole subsystem is skipped (one `Option` test)
//! when disabled. Cycle counts with profiling on are asserted identical to
//! the pinned gate values by the invariant matrix
//! (`crates/bench/tests/invariants.rs`).
//!
//! ## Counter semantics
//!
//! - `issues` — times the instruction at this PC won the issue slot.
//! - `thread_instrs` — active lanes summed over those issues (the paper's
//!   thread-level instruction count); the per-site `lane_hist` histogram
//!   (index = active-lane count, `0..=num_threads`) shows the utilization
//!   shape behind the average.
//! - `divergences` — issues whose execution took the IPDOM `split` path
//!   with both sides non-empty (same event `CoreStats::divergences`
//!   counts, here attributed to the branch site).
//! - `stall_scoreboard` / `stall_fu_busy` — cycles the issue stage charged
//!   to that stall reason while *this* PC was the first blocked candidate
//!   in round-robin order. `ibuffer_empty` has no instruction to blame and
//!   stays whole-core only.
//! - `loads` / `stores` — LSU issues from this PC.
//! - `dcache_probe_hits` / `dcache_probe_misses` — per *lane access*, a
//!   non-mutating D-cache tag probe at issue time. The real hit/miss
//!   resolves later at the cache bank (which no longer knows the PC), so
//!   this is a presence probe: "was the line resident when the access
//!   issued". Shared-memory lanes are counted in `smem_accesses` instead.
//!
//! ## Determinism
//!
//! Each core accumulates its own [`CoreProfile`] in a `BTreeMap` keyed by
//! PC; [`crate::Gpu::profile`] merges them in core-id order. Both
//! iteration orders are total and data-independent, so the merged
//! [`GpuProfile`] — and any rendering of it — is bit-identical run to run
//! and across checkpoint/resume boundaries (the profile rides inside
//! [`super::core::Core::save_state`]).

use crate::config::SMEM_BASE;
use crate::exec::LaneAccess;
use std::collections::BTreeMap;

/// Counters for one instruction address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcStats {
    /// The 32-bit instruction encoding at this PC (captured on first
    /// touch, so reports can disassemble without the program image).
    pub word: u32,
    /// Issue-slot wins.
    pub issues: u64,
    /// Active lanes summed over issues.
    pub thread_instrs: u64,
    /// Issues that actually diverged (`split` with both sides non-empty).
    pub divergences: u64,
    /// Stall cycles charged to this PC: operand not ready.
    pub stall_scoreboard: u64,
    /// Stall cycles charged to this PC: functional unit busy.
    pub stall_fu_busy: u64,
    /// LSU load issues.
    pub loads: u64,
    /// LSU store issues.
    pub stores: u64,
    /// Lane accesses whose D-cache line was resident at issue time.
    pub dcache_probe_hits: u64,
    /// Lane accesses whose D-cache line was absent at issue time.
    pub dcache_probe_misses: u64,
    /// Lane accesses routed to shared memory (`addr >= SMEM_BASE`).
    pub smem_accesses: u64,
    /// Active-lane histogram: `lane_hist[k]` = issues with exactly `k`
    /// active lanes. Length `num_threads + 1`.
    pub lane_hist: Vec<u64>,
}

impl PcStats {
    fn new(word: u32, num_threads: usize) -> Self {
        Self {
            word,
            issues: 0,
            thread_instrs: 0,
            divergences: 0,
            stall_scoreboard: 0,
            stall_fu_busy: 0,
            loads: 0,
            stores: 0,
            dcache_probe_hits: 0,
            dcache_probe_misses: 0,
            smem_accesses: 0,
            lane_hist: vec![0; num_threads + 1],
        }
    }

    /// Average active lanes per issue (`0.0` for stall-only sites).
    pub fn avg_lanes(&self) -> f64 {
        if self.issues == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.thread_instrs as f64 / self.issues as f64
            }
        }
    }

    /// Total stall cycles attributed to this site.
    pub fn stalls(&self) -> u64 {
        self.stall_scoreboard + self.stall_fu_busy
    }

    fn merge(&mut self, other: &PcStats) {
        // `word` is kept from the first core that touched the site; in a
        // single-program run every core observes the same encoding.
        self.issues += other.issues;
        self.thread_instrs += other.thread_instrs;
        self.divergences += other.divergences;
        self.stall_scoreboard += other.stall_scoreboard;
        self.stall_fu_busy += other.stall_fu_busy;
        self.loads += other.loads;
        self.stores += other.stores;
        self.dcache_probe_hits += other.dcache_probe_hits;
        self.dcache_probe_misses += other.dcache_probe_misses;
        self.smem_accesses += other.smem_accesses;
        for (a, b) in self.lane_hist.iter_mut().zip(&other.lane_hist) {
            *a += *b;
        }
    }
}

/// One core's PC-level profile accumulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreProfile {
    num_threads: usize,
    sites: BTreeMap<u32, PcStats>,
}

impl CoreProfile {
    /// Empty profile for a core with `num_threads` SIMT lanes.
    pub fn new(num_threads: usize) -> Self {
        Self {
            num_threads,
            sites: BTreeMap::new(),
        }
    }

    /// SIMT lane count (histogram length minus one).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Profiled sites, ascending PC.
    pub fn sites(&self) -> impl Iterator<Item = (u32, &PcStats)> {
        self.sites.iter().map(|(&pc, s)| (pc, s))
    }

    fn site(&mut self, pc: u32, word: impl FnOnce() -> u32) -> &mut PcStats {
        let nt = self.num_threads;
        self.sites
            .entry(pc)
            .or_insert_with(|| PcStats::new(word(), nt))
    }

    /// Records one issue. `word` is only evaluated the first time a PC is
    /// seen, so the encode cost is O(sites), not O(issues).
    pub fn record_issue(
        &mut self,
        pc: u32,
        word: impl FnOnce() -> u32,
        active_lanes: u32,
        diverged: bool,
    ) {
        let s = self.site(pc, word);
        s.issues += 1;
        s.thread_instrs += u64::from(active_lanes);
        if diverged {
            s.divergences += 1;
        }
        let k = (active_lanes as usize).min(s.lane_hist.len() - 1);
        s.lane_hist[k] += 1;
    }

    /// Charges one stall cycle to the instruction waiting at `pc`.
    pub fn record_stall(&mut self, pc: u32, word: impl FnOnce() -> u32, scoreboard: bool) {
        self.record_stall_n(pc, word, scoreboard, 1);
    }

    /// Charges `n` stall cycles to the instruction waiting at `pc` — the
    /// bulk form the fast-forward engine uses when it skips a span of
    /// cycles whose issue scan would have charged this site every cycle.
    pub fn record_stall_n(
        &mut self,
        pc: u32,
        word: impl FnOnce() -> u32,
        scoreboard: bool,
        n: u64,
    ) {
        let s = self.site(pc, word);
        if scoreboard {
            s.stall_scoreboard += n;
        } else {
            s.stall_fu_busy += n;
        }
    }

    /// Records an LSU issue from `pc`: direction plus a per-lane
    /// shared-memory / D-cache-presence attribution. The site already
    /// exists (the issue was recorded first), so `lanes` never creates one.
    pub fn record_mem<'a>(
        &mut self,
        pc: u32,
        is_load: bool,
        lanes: impl Iterator<Item = &'a LaneAccess>,
        dcache_has_line: impl Fn(u32) -> bool,
    ) {
        let Some(s) = self.sites.get_mut(&pc) else {
            return;
        };
        if is_load {
            s.loads += 1;
        } else {
            s.stores += 1;
        }
        for a in lanes {
            if a.addr >= SMEM_BASE {
                s.smem_accesses += 1;
            } else if dcache_has_line(a.addr) {
                s.dcache_probe_hits += 1;
            } else {
                s.dcache_probe_misses += 1;
            }
        }
    }
}

vortex_snapshot::snapshot! {
    impl Snap for PcStats {
        word, issues, thread_instrs, divergences, stall_scoreboard, stall_fu_busy, loads, stores,
        dcache_probe_hits, dcache_probe_misses, smem_accesses, lane_hist,
    }
}

vortex_snapshot::snapshot! {
    impl pub state for CoreProfile {
        config num_threads,
        sites for (_, s) if s.lane_hist.len() == *num_threads + 1 => "profile lane histogram",
    }
}

/// Deterministically merged whole-GPU profile (core-id order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuProfile {
    /// SIMT lane count per core (uniform across the machine).
    pub num_threads: usize,
    /// Merged sites, keyed by PC.
    pub sites: BTreeMap<u32, PcStats>,
}

impl GpuProfile {
    /// Empty merged profile.
    pub fn new(num_threads: usize) -> Self {
        Self {
            num_threads,
            sites: BTreeMap::new(),
        }
    }

    /// Folds one core's accumulator in. Call in ascending core-id order;
    /// addition is commutative but `word` capture keeps first-writer-wins.
    pub fn merge_core(&mut self, core: &CoreProfile) {
        for (pc, s) in core.sites() {
            self.sites
                .entry(pc)
                .and_modify(|m| m.merge(s))
                .or_insert_with(|| s.clone());
        }
    }

    /// Total issue slots across all sites (equals `GpuStats` total
    /// instruction count when profiling covered the whole run).
    pub fn total_issues(&self) -> u64 {
        self.sites.values().map(|s| s.issues).sum()
    }

    /// Total thread-level instructions across all sites (equals
    /// `GpuStats::total_thread_instrs` when profiling covered the run).
    pub fn total_thread_instrs(&self) -> u64 {
        self.sites.values().map(|s| s.thread_instrs).sum()
    }

    /// Total stall cycles attributed to a PC (scoreboard + FU-busy).
    pub fn total_attributed_stalls(&self) -> u64 {
        self.sites.values().map(PcStats::stalls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_snapshot::{Reader, Writer};

    fn word() -> u32 {
        0x0000_0013 // addi x0, x0, 0
    }

    #[test]
    fn issue_recording_accumulates_and_histograms() {
        let mut p = CoreProfile::new(4);
        p.record_issue(0x8000_0000, word, 4, false);
        p.record_issue(0x8000_0000, word, 2, true);
        p.record_issue(0x8000_0004, word, 1, false);
        let s = &p.sites[&0x8000_0000];
        assert_eq!(s.issues, 2);
        assert_eq!(s.thread_instrs, 6);
        assert_eq!(s.divergences, 1);
        assert_eq!(s.lane_hist, vec![0, 0, 1, 0, 1]);
        assert!((s.avg_lanes() - 3.0).abs() < 1e-12);
        assert_eq!(p.sites.len(), 2);
    }

    #[test]
    fn merge_sums_counters_in_any_core_order() {
        let mut a = CoreProfile::new(2);
        a.record_issue(16, word, 2, false);
        a.record_stall(16, word, true);
        let mut b = CoreProfile::new(2);
        b.record_issue(16, word, 1, false);
        b.record_stall(16, word, false);
        b.record_issue(32, word, 2, false);

        let mut g = GpuProfile::new(2);
        g.merge_core(&a);
        g.merge_core(&b);
        assert_eq!(g.total_issues(), 3);
        assert_eq!(g.total_thread_instrs(), 5);
        assert_eq!(g.total_attributed_stalls(), 2);
        let s = &g.sites[&16];
        assert_eq!(s.stall_scoreboard, 1);
        assert_eq!(s.stall_fu_busy, 1);
        assert_eq!(s.lane_hist, vec![0, 1, 1]);
    }

    #[test]
    fn mem_attribution_splits_smem_from_dcache_probe() {
        let mut p = CoreProfile::new(4);
        p.record_issue(64, word, 4, false);
        let lanes = [
            LaneAccess {
                addr: 0x100,
                write: false,
            },
            LaneAccess {
                addr: 0xFF00_0010,
                write: false,
            },
            LaneAccess {
                addr: 0x200,
                write: false,
            },
        ];
        p.record_mem(64, true, lanes.iter(), |addr| addr == 0x100);
        let s = &p.sites[&64];
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 0);
        assert_eq!(s.smem_accesses, 1);
        assert_eq!(s.dcache_probe_hits, 1);
        assert_eq!(s.dcache_probe_misses, 1);
    }

    #[test]
    fn snapshot_round_trip_is_lossless() {
        let mut p = CoreProfile::new(3);
        p.record_issue(0x8000_0000, || 0xDEAD_BEEF, 3, true);
        p.record_stall(0x8000_0004, word, false);
        let mut w = Writer::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut q = CoreProfile::new(3);
        let mut r = Reader::new(&bytes);
        q.restore_state(&mut r).expect("round trip");
        assert_eq!(p, q);
    }

    #[test]
    fn restore_rejects_mismatched_histogram() {
        let mut p = CoreProfile::new(3);
        p.record_issue(0, word, 1, false);
        let mut w = Writer::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut q = CoreProfile::new(5);
        let mut r = Reader::new(&bytes);
        assert!(q.restore_state(&mut r).is_err());
    }
}
