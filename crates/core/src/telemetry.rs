//! Windowed performance-counter sampling.
//!
//! The paper's evaluation is counter-driven (IPC figures, cache behaviour,
//! stall effects), but end-of-run aggregates cannot say *when* a workload
//! stalled. The sampler closes that gap: every `sample_interval` cycles it
//! snapshots the machine's counters and occupancies into an in-memory
//! [`TimeSeries`] — per-core instruction and stall-reason deltas, ibuffer
//! and MSHR occupancy, cache hit counters, and DRAM traffic deltas.
//!
//! Overhead discipline: sampling is *read-only* — it never touches
//! simulated state, so cycle counts and [`crate::stats::GpuStats`] are
//! bit-identical with telemetry on or off (asserted by the host-perf
//! equivalence tests). With the interval at `0` (the default) the only
//! cost is one branch per [`crate::Gpu::run`] iteration.
//!
//! Serialization lives in the `vortex-obs` crate; this module only
//! collects.

use crate::stats::{CoreStats, StallStats};

/// One core's slice of a sampling window.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CoreWindow {
    /// Wavefront-instructions issued during the window.
    pub instrs: u64,
    /// Thread-instructions issued during the window.
    pub thread_instrs: u64,
    /// Issue-stall cycles during the window, by reason.
    pub stalls: StallStats,
    /// Decoded instructions parked in the core's ibuffers at sample time.
    pub ibuffer_occupancy: usize,
    /// D-cache MSHR entries outstanding at sample time.
    pub mshr_pending: usize,
    /// I-cache reads served during the window.
    pub icache_reads: u64,
    /// I-cache read hits during the window.
    pub icache_hits: u64,
    /// D-cache reads served during the window.
    pub dcache_reads: u64,
    /// D-cache read hits during the window.
    pub dcache_hits: u64,
}

impl CoreWindow {
    /// Issue-slot IPC over a window of `interval` cycles.
    pub fn ipc(&self, interval: u64) -> f64 {
        if interval == 0 {
            0.0
        } else {
            self.instrs as f64 / interval as f64
        }
    }
}

/// One sampling window across the whole processor.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Cycle at which the sample was taken (the window's *end*).
    pub cycle: u64,
    /// Per-core deltas and occupancies.
    pub cores: Vec<CoreWindow>,
    /// DRAM reads serviced during the window.
    pub dram_reads: u64,
    /// DRAM writes serviced during the window.
    pub dram_writes: u64,
}

/// The collected time series: one [`TelemetrySample`] per elapsed window.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TimeSeries {
    /// Sampling interval in cycles.
    pub interval: u64,
    /// Samples, oldest first.
    pub samples: Vec<TelemetrySample>,
    /// `true` when [`TimeSeries::MAX_SAMPLES`] was reached and later
    /// windows were discarded (exporters surface this so a truncated
    /// series is never mistaken for a short run).
    pub truncated: bool,
}

impl TimeSeries {
    /// Hard bound on retained samples, so a tiny interval on a long run
    /// cannot grow host memory without bound (~100 MB worst case at the
    /// baseline core counts).
    pub const MAX_SAMPLES: usize = 1 << 20;
}

/// Sampler state owned by the GPU while telemetry is enabled: the time
/// series plus the previous cumulative counters the deltas are computed
/// against.
#[derive(Debug)]
pub struct Telemetry {
    series: TimeSeries,
    /// Cycle at which the next sample is due.
    next_at: u64,
    /// Cumulative per-core counters at the previous sample.
    prev_cores: Vec<CoreStats>,
    /// Cumulative DRAM reads at the previous sample.
    prev_dram_reads: u64,
    /// Cumulative DRAM writes at the previous sample.
    prev_dram_writes: u64,
}

impl Telemetry {
    /// Creates a sampler that fires every `interval` cycles on `num_cores`
    /// cores.
    ///
    /// # Panics
    /// Panics on a zero interval — a disabled sampler is represented by
    /// `Option::None`, not an interval of zero.
    pub fn new(interval: u64, num_cores: usize) -> Self {
        assert!(interval > 0, "telemetry interval must be non-zero");
        Self {
            series: TimeSeries {
                interval,
                samples: Vec::new(),
                truncated: false,
            },
            next_at: interval,
            prev_cores: vec![CoreStats::default(); num_cores],
            prev_dram_reads: 0,
            prev_dram_writes: 0,
        }
    }

    /// `true` when a sample is due at `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.next_at
    }

    /// The cycle at which the next sample falls due. The fast-forward
    /// engine clamps its skip horizon here so a window closing inside a
    /// skipped span is still sampled exactly at its boundary.
    pub fn next_due(&self) -> u64 {
        self.next_at
    }

    /// Records one window. `cores` are the *cumulative* per-core counter
    /// snapshots, `ibuffer`/`mshr` the instantaneous occupancies, and the
    /// DRAM counts cumulative; deltas against the previous window are
    /// computed here.
    pub fn record(
        &mut self,
        cycle: u64,
        cores: &[CoreStats],
        occupancies: &[(usize, usize)],
        dram_reads: u64,
        dram_writes: u64,
    ) {
        self.next_at = cycle + self.series.interval;
        if self.series.samples.len() >= TimeSeries::MAX_SAMPLES {
            self.series.truncated = true;
            return;
        }
        let windows = cores
            .iter()
            .zip(&self.prev_cores)
            .zip(occupancies)
            .map(|((now, prev), &(ibuf, mshr))| CoreWindow {
                instrs: now.instrs - prev.instrs,
                thread_instrs: now.thread_instrs - prev.thread_instrs,
                stalls: StallStats {
                    ibuffer_empty: now.stalls.ibuffer_empty - prev.stalls.ibuffer_empty,
                    scoreboard: now.stalls.scoreboard - prev.stalls.scoreboard,
                    fu_busy: now.stalls.fu_busy - prev.stalls.fu_busy,
                },
                ibuffer_occupancy: ibuf,
                mshr_pending: mshr,
                icache_reads: now.icache.reads - prev.icache.reads,
                icache_hits: now.icache.read_hits - prev.icache.read_hits,
                dcache_reads: now.dcache.reads - prev.dcache.reads,
                dcache_hits: now.dcache.read_hits - prev.dcache.read_hits,
            })
            .collect();
        self.series.samples.push(TelemetrySample {
            cycle,
            cores: windows,
            dram_reads: dram_reads - self.prev_dram_reads,
            dram_writes: dram_writes - self.prev_dram_writes,
        });
        self.prev_cores.copy_from_slice(cores);
        self.prev_dram_reads = dram_reads;
        self.prev_dram_writes = dram_writes;
    }

    /// The series collected so far.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the sampler, yielding the series.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

vortex_snapshot::snapshot! {
    impl Snap for CoreWindow {
        instrs, thread_instrs, stalls, ibuffer_occupancy, mshr_pending, icache_reads, icache_hits,
        dcache_reads, dcache_hits,
    }
}

vortex_snapshot::snapshot! {
    impl Snap for TelemetrySample { cycle, cores, dram_reads, dram_writes }
}

vortex_snapshot::snapshot! {
    impl Snap for TimeSeries { interval, samples, truncated }
}

// The series plus the previous-window baselines the next deltas are computed
// against, so a resumed run produces the same remaining samples. The
// interval and the core count are this sampler's configuration: a payload
// that disagrees is refused.
vortex_snapshot::snapshot! {
    impl pub state for Telemetry {
        series as new if new.interval == series.interval => "telemetry interval",
        next_at,
        prev_cores as new if new.len() == prev_cores.len() => "telemetry core count",
        prev_dram_reads, prev_dram_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(instrs: u64, scoreboard: u64) -> CoreStats {
        CoreStats {
            instrs,
            thread_instrs: instrs * 4,
            stalls: StallStats {
                scoreboard,
                ..StallStats::default()
            },
            ..CoreStats::default()
        }
    }

    #[test]
    fn windows_hold_deltas_not_cumulative_counts() {
        let mut t = Telemetry::new(100, 1);
        assert!(!t.due(99));
        assert!(t.due(100));
        t.record(100, &[core(40, 10)], &[(2, 3)], 5, 1);
        t.record(200, &[core(90, 25)], &[(0, 0)], 8, 1);
        let s = t.series();
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].cores[0].instrs, 40);
        assert_eq!(s.samples[1].cores[0].instrs, 50);
        assert_eq!(s.samples[1].cores[0].stalls.scoreboard, 15);
        assert_eq!(s.samples[0].cores[0].ibuffer_occupancy, 2);
        assert_eq!(s.samples[0].cores[0].mshr_pending, 3);
        assert_eq!(s.samples[0].dram_reads, 5);
        assert_eq!(s.samples[1].dram_reads, 3);
        assert_eq!(s.samples[1].dram_writes, 0);
        assert!((s.samples[1].cores[0].ipc(100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn series_is_bounded() {
        let mut t = Telemetry::new(1, 1);
        // Simulate hitting the cap without allocating a million samples:
        // pre-fill, then record past the bound.
        t.series.samples = vec![TelemetrySample::default(); TimeSeries::MAX_SAMPLES];
        t.record(1, &[core(1, 0)], &[(0, 0)], 0, 0);
        assert_eq!(t.series().samples.len(), TimeSeries::MAX_SAMPLES);
        assert!(t.series().truncated);
    }
}
