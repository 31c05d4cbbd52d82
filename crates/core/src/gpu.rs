//! The multi-core GPU top level.
//!
//! Assembles cores, the shared memory hierarchy (optional L2 per cluster,
//! optional L3, DRAM) and the global barrier table, and provides the
//! kernel-execution entry points the runtime drives. In the paper's system
//! this sits below the AFU command processor (Figure 4); the command
//! processor itself lives in `vortex-runtime`.
//!
//! ### One cycle
//!
//! [`Gpu::step`] is the whole protocol, on one thread:
//!
//! 1. every core ticks, in ascending id order, against the one functional
//!    [`Ram`] — loads read it and stores write it at issue time;
//! 2. each core's L1 miss queues (I-cache, then D-cache) drain into the
//!    shared hierarchy, the hierarchy ticks, fill responses go back to
//!    the L1s, and global barriers resolve.
//!
//! A store is visible to its own core at once and to every other core from
//! the next cycle; within the cycle it issues, a load on another core sees
//! it iff the storing core has the lower id. The order is fixed, so cycles,
//! [`GpuStats`], telemetry and fault decisions are a pure function of the
//! configuration. Independent simulations parallelise at the sweep level
//! (`vortex_par::par_map`).

use crate::barrier::{BarrierOutcome, BarrierTable};
use crate::config::{GpuConfig, MAX_CORES};
use crate::core::Core;
use crate::decode_cache::DecodeCache;
use crate::error::{HangReport, SimError};
use crate::stats::GpuStats;
use crate::telemetry::{Telemetry, TimeSeries};
use vortex_faults::FaultConfig;
use vortex_mem::hierarchy::{HierarchyConfig, MemHierarchy};
use vortex_mem::{MemRsp, Ram, Tag};

/// Tag bit distinguishing I-cache from D-cache fills above the L1s.
const ICACHE_BIT: Tag = 1 << 61;

/// The Vortex processor: cores + memory system + global barriers.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    cores: Vec<Core>,
    hierarchy: MemHierarchy,
    global_barriers: BarrierTable,
    /// Functional device memory.
    pub ram: Ram,
    /// The one decode memo every core consults ([`None`] when
    /// `CoreConfig::decode_cache` is off). All cores run the same kernel
    /// text and the memo is keyed by the fetched word, so one table
    /// serves them all. Host-side scratch like the skip counters: never
    /// serialized, carried across checkpoint-drill rebuilds by hand.
    decode_memo: Option<DecodeCache>,
    cycle: u64,
    /// Watchdog: progress token at the last cycle progress was observed.
    last_progress_token: u64,
    /// Watchdog: cycle of the last observed progress.
    last_progress_cycle: u64,
    /// Windowed counter sampler ([`None`] when
    /// [`GpuConfig::sample_interval`] is 0 — the run loop then pays one
    /// branch per iteration and nothing else).
    telemetry: Option<Telemetry>,
    /// Reused scratch for global-barrier release ids, so the commit phase
    /// never allocates in the steady state.
    release_scratch: Vec<usize>,
    /// Simulated cycles covered by fast-forward jumps instead of live
    /// ticks. Host accounting only: never serialized into snapshots (a
    /// snapshot describes simulated state, which skipping provably does
    /// not change), carried across checkpoint-drill rebuilds by hand.
    cycles_skipped: u64,
    /// Number of fast-forward jumps taken (same host-only status).
    skip_events: u64,
}

impl Gpu {
    /// Builds a GPU from `config` with zeroed memory.
    ///
    /// # Panics
    /// If `config.num_cores` exceeds [`MAX_CORES`]: beyond it a core's
    /// scratchpad window would alias the device heap.
    pub fn new(config: GpuConfig) -> Self {
        assert!(
            config.num_cores <= MAX_CORES,
            "{} cores exceed MAX_CORES ({MAX_CORES})",
            config.num_cores
        );
        let mut cores: Vec<Core> = (0..config.num_cores)
            .map(|id| Core::new(id, config.num_cores, config.core.clone()))
            .collect();
        if config.profile {
            for core in &mut cores {
                core.enable_profile();
            }
        }
        let hierarchy = MemHierarchy::new(HierarchyConfig {
            num_cores: config.num_cores,
            cores_per_cluster: config.cores_per_cluster,
            l2: config.l2,
            l3: config.l3,
            dram: config.dram,
        });
        let telemetry = (config.sample_interval > 0)
            .then(|| Telemetry::new(config.sample_interval, config.num_cores));
        Self {
            cores,
            hierarchy,
            global_barriers: BarrierTable::new(16),
            ram: Ram::new(),
            decode_memo: config.core.decode_cache.then(DecodeCache::new),
            cycle: 0,
            last_progress_token: 0,
            last_progress_cycle: 0,
            telemetry,
            release_scratch: Vec::new(),
            cycles_skipped: 0,
            skip_events: 0,
            config,
        }
    }

    /// Attaches deterministic fault plans (from `faults`'s seed and rates)
    /// to every core and the shared memory hierarchy. A no-op
    /// configuration leaves the zero-overhead default paths in place.
    pub fn apply_faults(&mut self, faults: &FaultConfig) {
        if faults.is_noop() {
            return;
        }
        for core in &mut self.cores {
            core.apply_faults(faults);
        }
        self.hierarchy.apply_faults(faults);
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Access to a core (tests, tracing).
    pub fn core(&self, id: usize) -> &Core {
        &self.cores[id]
    }

    /// Mutable access to a core (to enable tracing).
    pub fn core_mut(&mut self, id: usize) -> &mut Core {
        &mut self.cores[id]
    }

    /// Starts a kernel: every core boots wavefront 0, thread 0 at `entry`
    /// (the Vortex boot convention — the kernel stub reads `VX_CID` /
    /// `VX_NW` / `VX_NT` and spreads out with `wspawn`/`tmc`).
    pub fn launch(&mut self, entry: u32) {
        for core in &mut self.cores {
            core.launch(entry);
        }
    }

    /// Advances the whole processor one cycle: tick every core in id order
    /// against [`Gpu::ram`], then run the commit walk. [`Gpu::run`] is
    /// this plus fast-forward, telemetry and the watchdog, so a
    /// `step`-driven simulation is bit-identical to a `run` one. Between
    /// steps a core may hold deferred idle ticks (a park): [`Gpu::stats`]
    /// folds them in and [`Gpu::save_snapshot`] replays them first; the
    /// profile is complete only after a `run`, which flushes them.
    ///
    /// # Errors
    /// Propagates structured execution traps from the cores. Every core
    /// still ticks even when an earlier core traps, so the state a caller
    /// inspects after the error (stats, profile, trace) does not depend on
    /// which core id trapped; the lowest-core-id trap is returned and the
    /// commit walk is skipped. Stores the non-trapping cores issued that
    /// cycle have already landed in [`Gpu::ram`].
    pub fn step(&mut self) -> Result<(), SimError> {
        let mut first_err = None;
        for core in &mut self.cores {
            if let Err(e) = core.tick(&mut self.ram, self.decode_memo.as_mut()) {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        self.commit_cycle();
        self.cycle += 1;
        Ok(())
    }

    /// The commit walk, the same for every topology: L1 miss queues
    /// drain into the hierarchy, the hierarchy ticks, fill responses and
    /// global-barrier releases distribute back. Every loop walks cores in
    /// ascending id order — with the single thread, that fixed order is
    /// the whole determinism argument.
    fn commit_cycle(&mut self) {
        let hierarchy = &mut self.hierarchy;
        for (cid, core) in self.cores.iter_mut().enumerate() {
            let (icache, dcache) = core.l1s_mut();
            hierarchy.accept_from(cid, icache, ICACHE_BIT);
            hierarchy.accept_from(cid, dcache, 0);
        }

        hierarchy.tick();

        for (cid, core) in self.cores.iter_mut().enumerate() {
            while let Some(rsp) = hierarchy.pop_rsp(cid) {
                let icache = rsp.tag & ICACHE_BIT != 0;
                core.push_l1_mem_rsp(
                    MemRsp {
                        tag: rsp.tag & !ICACHE_BIT,
                    },
                    icache,
                );
            }
        }

        self.commit_barriers();
    }

    /// Global barriers (barrier ids with the MSB set): participants are
    /// wavefronts across all cores, identified as core*NW + wid.
    fn commit_barriers(&mut self) {
        let nw = self.config.core.num_wavefronts;
        let releases = &mut self.release_scratch;
        releases.clear();
        for (cid, core) in self.cores.iter_mut().enumerate() {
            let arrivals = core.global_barrier_arrivals();
            if arrivals.is_empty() {
                continue;
            }
            for arrival in arrivals.drain(..) {
                let slot = (arrival.id as usize) % self.global_barriers.len();
                match self
                    .global_barriers
                    .arrive(slot, cid * nw + arrival.wid, arrival.count)
                {
                    BarrierOutcome::Wait => {}
                    BarrierOutcome::Release(ids) => releases.extend(ids),
                }
            }
        }
        for &gid in releases.iter() {
            // Per release, not per cycle: this division is off the hot path.
            let cid = gid / nw;
            self.cores[cid].release_wavefront(gid - cid * nw);
        }
    }

    /// `true` when every core has drained and the memory system is quiet.
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(Core::is_done) && self.hierarchy.is_idle()
    }

    /// Monotone whole-machine progress token: changes whenever any core
    /// retires work or the DRAM services traffic. Used by the watchdog.
    fn progress_token(&self) -> u64 {
        let mut token = self
            .hierarchy
            .dram_reads()
            .wrapping_add(self.hierarchy.dram_writes());
        for core in &self.cores {
            token = token.wrapping_add(core.progress_token());
        }
        token
    }

    /// Builds the watchdog's diagnosis of the current (stuck) state.
    pub fn hang_report(&self) -> HangReport {
        HangReport {
            cycle: self.cycle,
            window: self.config.watchdog_cycles,
            cores: self.cores.iter().map(Core::hang_state).collect(),
            memory: self.hierarchy.occupancy(),
        }
    }

    /// Per-site fault-plan draw counts: one entry per core (its I-cache
    /// and D-cache plans summed) plus a final entry for the shared
    /// hierarchy (DRAM + L2s + L3). Equal vectors at equal simulation
    /// points across fast-forward, checkpoint and resume variants audit
    /// that fault decision streams are consumed deterministically.
    pub fn fault_draws(&self) -> Vec<u64> {
        let mut draws: Vec<u64> = self.cores.iter().map(Core::fault_draws).collect();
        draws.push(self.hierarchy.fault_draws());
        draws
    }

    /// Runs until the kernel finishes, up to `max_cycles`.
    ///
    /// # Errors
    /// * [`SimError::Timeout`] when the budget is exhausted while the
    ///   machine is still making progress (likely a spin-wait or an
    ///   undersized budget);
    /// * [`SimError::Hang`] when the watchdog sees no forward progress for
    ///   a full [`GpuConfig::watchdog_cycles`] window — the boxed
    ///   [`HangReport`] names the stuck warps, units, and queues;
    /// * any structured execution trap from the cores (divergence misuse,
    ///   illegal instructions).
    ///
    /// The watchdog *samples*: the progress token is a full walk of every
    /// core and the hierarchy, so it is evaluated once per window rather
    /// than every cycle. The contract is unchanged — a hang is declared
    /// only after at least one full window with no progress — but detection
    /// happens at window granularity, i.e. up to `2 × watchdog_cycles`
    /// after the machine actually stopped.
    pub fn run(&mut self, max_cycles: u64) -> Result<GpuStats, SimError> {
        let drill = self.config.checkpoint_drill;
        if drill == 0 {
            return self.run_leg(max_cycles);
        }
        // Checkpoint drill (`GpuConfig::checkpoint_drill`): every `drill`
        // cycles the machine is serialized, torn down, rebuilt from the
        // configuration, and restored from the bytes — a continuous
        // crash-and-resume exercise. Because save→restore is the identity
        // (the invariant matrix's resume rows), the drilled run is bit-identical
        // to an undrilled one. Note the watchdog caveat shared with any
        // chunked driver: each leg re-arms the progress baseline, so drill
        // intervals below `watchdog_cycles` blunt hang detection.
        loop {
            let target = ((self.cycle / drill + 1) * drill).min(max_cycles);
            match self.run_leg(target) {
                Err(SimError::Timeout { cycles }) if cycles < max_cycles => {
                    let bytes = self.save_snapshot();
                    let mut fresh = Gpu::new(self.config.clone());
                    fresh.restore_snapshot(&bytes)?;
                    // Skip accounting is host-side and deliberately outside
                    // the snapshot; carry it across the rebuild by hand.
                    fresh.cycles_skipped = self.cycles_skipped;
                    fresh.skip_events = self.skip_events;
                    fresh.decode_memo = self.decode_memo.take();
                    *self = fresh;
                }
                other => return other,
            }
        }
    }

    fn run_leg(&mut self, max_cycles: u64) -> Result<GpuStats, SimError> {
        let result = self.run_loop(max_cycles);
        // Parks are a host-side replay optimization scoped to the run
        // loop: flush them on every exit path so callers (snapshots,
        // checkpoint drills, stats consumers) always see fully material-
        // ized core state.
        for core in &mut self.cores {
            core.unpark();
        }
        result
    }

    fn run_loop(&mut self, max_cycles: u64) -> Result<GpuStats, SimError> {
        self.last_progress_token = self.progress_token();
        self.last_progress_cycle = self.cycle;
        while !self.is_done() {
            if self.cycle >= max_cycles {
                return Err(SimError::Timeout { cycles: self.cycle });
            }
            // Fast-forward: when every core has parked or drained and the
            // hierarchy agrees nothing observable happens before cycle H,
            // jump there in one step and run the same post-cycle checks a
            // live tick would. A jump clamped by a telemetry window or
            // watchdog deadline retries on the next iteration, so one span
            // may take several jumps.
            if !self.try_fast_forward(max_cycles) {
                self.step()?;
            }
            self.after_cycle_checks()?;
        }
        Ok(self.stats())
    }

    /// The per-cycle telemetry and watchdog work of the run loop, shared
    /// by the live-step and fast-forward paths (a skipped span must sample
    /// and check progress at exactly the cycles a live span would).
    ///
    /// # Errors
    /// [`SimError::Hang`] from the watchdog.
    fn after_cycle_checks(&mut self) -> Result<(), SimError> {
        if let Some(tel) = &self.telemetry {
            if tel.due(self.cycle) {
                self.take_sample();
            }
        }
        let window = self.config.watchdog_cycles;
        if window != 0 && self.cycle - self.last_progress_cycle >= window {
            let token = self.progress_token();
            if token == self.last_progress_token {
                return Err(SimError::Hang(Box::new(self.hang_report())));
            }
            self.last_progress_token = token;
            self.last_progress_cycle = self.cycle;
        }
        Ok(())
    }

    /// The fast-forward horizon: the first cycle the machine must tick
    /// live, or `None` while any core is live. Parked and drained cores
    /// have already proven their idle spans ([`Core::idle_until`]); the
    /// minimum of those and the hierarchy's next event is clamped by the
    /// host-visible deadlines (cycle budget, next watchdog evaluation,
    /// next telemetry window close).
    fn ff_horizon(&self, max_cycles: u64) -> Option<u64> {
        let mut horizon = max_cycles;
        for core in &self.cores {
            horizon = horizon.min(core.idle_until()?);
        }
        horizon = horizon.min(self.hierarchy.next_event_cycle(self.cycle));
        // The live loop evaluates the progress token at exactly
        // `last_progress_cycle + window`; a skip must not jump past it.
        if self.config.watchdog_cycles != 0 {
            let deadline = self
                .last_progress_cycle
                .saturating_add(self.config.watchdog_cycles);
            horizon = horizon.min(deadline);
        }
        if let Some(tel) = &self.telemetry {
            horizon = horizon.min(tel.next_due());
        }
        Some(horizon)
    }

    /// Attempts one fast-forward jump. Returns `true` and advances the
    /// machine to the horizon when every core is parked or drained and a
    /// skip of at least two cycles is possible; otherwise leaves the
    /// machine untouched. The skipped ticks land in each park's deferred
    /// count, so [`Core::unpark`] is their only replay.
    fn try_fast_forward(&mut self, max_cycles: u64) -> bool {
        if !self.config.fast_forward {
            return false;
        }
        let now = self.cycle;
        let Some(horizon) = self.ff_horizon(max_cycles) else {
            return false;
        };
        if horizon <= now.saturating_add(1) {
            return false;
        }
        let delta = horizon - now;
        for core in &mut self.cores {
            core.bulk_advance(delta);
        }
        self.hierarchy.bulk_advance(delta);
        self.cycle = horizon;
        self.cycles_skipped += delta;
        self.skip_events += 1;
        true
    }

    /// Records one telemetry window: cumulative counter snapshots plus
    /// instantaneous occupancies. Read-only with respect to simulated
    /// state — the machine cannot observe that it is being sampled.
    fn take_sample(&mut self) {
        let tel = self.telemetry.as_mut().expect("caller checked enablement");
        let snapshots: Vec<_> = self.cores.iter().map(Core::stats_snapshot).collect();
        let occupancies: Vec<_> = self
            .cores
            .iter()
            .map(|c| (c.ibuffer_occupancy(), c.dcache_mshr_pending()))
            .collect();
        tel.record(
            self.cycle,
            &snapshots,
            &occupancies,
            self.hierarchy.dram_reads(),
            self.hierarchy.dram_writes(),
        );
    }

    /// The sampled time series, when telemetry is enabled (empty until the
    /// first full window elapses).
    pub fn time_series(&self) -> Option<&TimeSeries> {
        self.telemetry.as_ref().map(Telemetry::series)
    }

    /// The merged PC-level profile, when [`GpuConfig::profile`] enabled
    /// one. Per-core accumulators are folded in ascending core-id order so
    /// the result is bit-identical across checkpoint/resume boundaries
    /// (the accumulators ride inside the per-core snapshot payload).
    pub fn profile(&self) -> Option<crate::profile::GpuProfile> {
        let mut merged: Option<crate::profile::GpuProfile> = None;
        for core in &self.cores {
            if let Some(cp) = core.profile() {
                merged
                    .get_or_insert_with(|| crate::profile::GpuProfile::new(cp.num_threads()))
                    .merge_core(cp);
            }
        }
        merged
    }

    /// `(hits, misses)` of the GPU's one decode memo, summed over every
    /// core's fetches; `(0, 0)` when `CoreConfig::decode_cache` is off.
    /// Host-side diagnostics only — deliberately not part of
    /// [`GpuStats`], so simulation statistics stay identical with the
    /// memo on or off.
    pub fn decode_memo_stats(&self) -> (u64, u64) {
        self.decode_memo.as_ref().map_or((0, 0), DecodeCache::stats)
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> GpuStats {
        GpuStats {
            cycles: self.cycle,
            cores: self.cores.iter().map(Core::stats_snapshot).collect(),
            dram_reads: self.hierarchy.dram_reads(),
            dram_writes: self.hierarchy.dram_writes(),
            cycles_skipped: self.cycles_skipped,
            skip_events: self.skip_events,
        }
    }

    // --- Checkpoint / restore -------------------------------------------

    /// Fingerprint of everything about this configuration that shapes
    /// simulated state. [`GpuConfig::checkpoint_drill`] and
    /// [`GpuConfig::fast_forward`] are excluded on purpose: both are
    /// host-execution knobs that never affect simulated behavior (the
    /// save→restore identity and the skip-equivalence proof guarantee
    /// bit-identical results), so a snapshot taken under one setting
    /// restores at any other. The inert [`GpuConfig::sim_threads`] is
    /// normalised too, so snapshots written when it selected a thread
    /// count still restore.
    pub fn config_fingerprint(&self) -> u64 {
        let mut c = self.config.clone();
        c.sim_threads = 1;
        c.checkpoint_drill = 0;
        c.fast_forward = true;
        vortex_snapshot::fnv1a64(format!("{c:?}").as_bytes())
    }

    /// Serializes the complete simulator state — every core's architectural
    /// and pipeline state, the shared memory hierarchy with everything in
    /// flight, the functional RAM image, global barriers, fault-plan stream
    /// positions, telemetry, and the cycle/watchdog counters — into a
    /// self-describing, checksummed container (see `vortex-snapshot`).
    ///
    /// The contract: `restore_snapshot` on a freshly built GPU of the same
    /// configuration, followed by `run`, is bit-identical (cycles, stats,
    /// memory image, fault draws, telemetry) to the original uninterrupted
    /// run. A core parked between [`Gpu::step`]s first replays its
    /// deferred idle ticks, so the bytes never depend on how the host
    /// drove the machine.
    pub fn save_snapshot(&mut self) -> Vec<u8> {
        for core in &mut self.cores {
            core.unpark();
        }
        let mut w = vortex_snapshot::Writer::new();
        self.save_state(&mut w);
        vortex_snapshot::seal(self.config_fingerprint(), &w.into_bytes())
    }

    /// Restores the complete simulator state from a snapshot taken by
    /// [`Gpu::save_snapshot`] on an identically-configured GPU.
    ///
    /// # Errors
    /// [`SimError::SnapshotCorrupt`] — never a panic — when the container
    /// is truncated, fails its checksum, has an unsupported version, was
    /// taken under a different configuration, or violates a structural
    /// invariant. On error the GPU may be partially overwritten and must
    /// be discarded (rebuild from the configuration before retrying).
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        vortex_snapshot::unseal(bytes, self.config_fingerprint(), |r| self.restore_state(r))
            .map_err(|e| SimError::SnapshotCorrupt(e.to_string()))
    }
}

// The whole machine, in the order `Gpu::save_snapshot` writes it. The
// telemetry sampler is present iff sampling is configured.
vortex_snapshot::snapshot! {
    impl state for Gpu {
        config config, cycle, last_progress_token, last_progress_cycle, cores: each state,
        hierarchy: state, global_barriers: state, telemetry: each state, ram: state,
        // Host-side: the shared decode memo and the skip accounting are
        // carried across checkpoint-drill rebuilds by hand.
        scratch decode_memo, scratch release_scratch, scratch cycles_skipped, scratch skip_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_asm::Assembler;
    use vortex_isa::Reg;

    const ENTRY: u32 = 0x8000_0000;

    #[test]
    #[should_panic(expected = "exceed MAX_CORES")]
    fn more_cores_than_scratchpad_windows_rejected() {
        let _ = Gpu::new(GpuConfig::with_cores(MAX_CORES + 1));
    }

    fn run_program(gpu: &mut Gpu, asm: &Assembler) -> GpuStats {
        let prog = asm.assemble(ENTRY).expect("assembles");
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        gpu.run(1_000_000).expect("kernel finishes")
    }

    #[test]
    fn trivial_kernel_halts() {
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.ecall();
        let stats = run_program(&mut gpu, &a);
        assert_eq!(stats.total_instrs(), 1);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn arithmetic_and_store_produce_memory_effects() {
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.li(Reg::X5, 21);
        a.add(Reg::X5, Reg::X5, Reg::X5);
        a.li(Reg::X6, 0x2000);
        a.sw(Reg::X5, Reg::X6, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        assert_eq!(gpu.ram.read_u32(0x2000), 42);
    }

    #[test]
    fn loop_with_raw_hazards_computes_correctly() {
        // sum 1..=10 via a data-dependent loop.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.li(Reg::X5, 10); // i
        a.li(Reg::X6, 0); // sum
        a.label("loop").unwrap();
        a.add(Reg::X6, Reg::X6, Reg::X5);
        a.addi(Reg::X5, Reg::X5, -1);
        a.bnez(Reg::X5, "loop");
        a.li(Reg::X7, 0x3000);
        a.sw(Reg::X6, Reg::X7, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        assert_eq!(gpu.ram.read_u32(0x3000), 55);
    }

    #[test]
    fn tmc_activates_simd_lanes() {
        // Activate all 4 threads, each stores its TID to 0x4000 + 4*tid.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.li(Reg::X5, 4);
        a.tmc(Reg::X5);
        a.csrr(Reg::X6, vortex_isa::csr::VX_TID);
        a.slli(Reg::X7, Reg::X6, 2);
        a.li(Reg::X8, 0x4000);
        a.add(Reg::X7, Reg::X7, Reg::X8);
        a.sw(Reg::X6, Reg::X7, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        for tid in 0..4u32 {
            assert_eq!(gpu.ram.read_u32(0x4000 + tid * 4), tid, "tid {tid}");
        }
    }

    #[test]
    fn wspawn_runs_other_wavefronts() {
        // Wavefront 0 spawns 3 others at `worker`; each stores its WID.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.li(Reg::X5, 4);
        a.la(Reg::X6, "worker");
        a.wspawn(Reg::X5, Reg::X6);
        a.j("worker");
        a.label("worker").unwrap();
        a.csrr(Reg::X6, vortex_isa::csr::VX_WID);
        a.slli(Reg::X7, Reg::X6, 2);
        a.li(Reg::X8, 0x5000);
        a.add(Reg::X7, Reg::X7, Reg::X8);
        a.addi(Reg::X9, Reg::X6, 100);
        a.sw(Reg::X9, Reg::X7, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        for wid in 0..4u32 {
            assert_eq!(gpu.ram.read_u32(0x5000 + wid * 4), 100 + wid, "wid {wid}");
        }
    }

    #[test]
    fn divergence_executes_both_paths() {
        // Threads 0,1 write A; threads 2,3 write B; all write C after join.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.li(Reg::X5, 4);
        a.tmc(Reg::X5);
        a.csrr(Reg::X6, vortex_isa::csr::VX_TID);
        a.slti(Reg::X7, Reg::X6, 2); // pred: tid < 2
        a.slli(Reg::X8, Reg::X6, 2);
        a.li(Reg::X9, 0x6000);
        a.add(Reg::X8, Reg::X8, Reg::X9); // &out[tid]
        a.split(Reg::X7);
        a.beqz(Reg::X7, "else_side");
        a.li(Reg::X10, 111);
        a.sw(Reg::X10, Reg::X8, 0);
        a.j("merge");
        a.label("else_side").unwrap();
        a.li(Reg::X10, 222);
        a.sw(Reg::X10, Reg::X8, 0);
        a.label("merge").unwrap();
        a.join();
        a.li(Reg::X11, 7);
        a.sw(Reg::X11, Reg::X8, 16); // out[tid+4] = 7 from all threads
        a.ecall();
        run_program(&mut gpu, &a);
        assert_eq!(gpu.ram.read_u32(0x6000), 111);
        assert_eq!(gpu.ram.read_u32(0x6004), 111);
        assert_eq!(gpu.ram.read_u32(0x6008), 222);
        assert_eq!(gpu.ram.read_u32(0x600C), 222);
        for t in 0..4 {
            assert_eq!(gpu.ram.read_u32(0x6010 + t * 4), 7, "post-join lane {t}");
        }
    }

    #[test]
    fn local_barrier_synchronizes_wavefronts() {
        // 4 wavefronts: each increments a flag before the barrier; after
        // the barrier, each checks all flags were set.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.li(Reg::X5, 4);
        a.la(Reg::X6, "work");
        a.wspawn(Reg::X5, Reg::X6);
        a.j("work");
        a.label("work").unwrap();
        a.csrr(Reg::X6, vortex_isa::csr::VX_WID);
        a.slli(Reg::X7, Reg::X6, 2);
        a.li(Reg::X8, 0x7000);
        a.add(Reg::X7, Reg::X7, Reg::X8);
        a.li(Reg::X9, 1);
        a.sw(Reg::X9, Reg::X7, 0); // flags[wid] = 1
        a.li(Reg::X10, 0); // barrier id
        a.li(Reg::X11, 4); // count
        a.bar(Reg::X10, Reg::X11);
        // After the barrier every flag must read 1; sum and store.
        a.li(Reg::X12, 0);
        a.li(Reg::X13, 0x7000);
        for i in 0..4 {
            a.lw(Reg::X14, Reg::X13, i * 4);
            a.add(Reg::X12, Reg::X12, Reg::X14);
        }
        a.slli(Reg::X7, Reg::X6, 2);
        a.li(Reg::X8, 0x7100);
        a.add(Reg::X7, Reg::X7, Reg::X8);
        a.sw(Reg::X12, Reg::X7, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        for wid in 0..4u32 {
            assert_eq!(
                gpu.ram.read_u32(0x7100 + wid * 4),
                4,
                "wavefront {wid} saw all flags"
            );
        }
    }

    #[test]
    fn global_barrier_synchronizes_cores() {
        // 2 cores × 1 wavefront arrive at a global barrier.
        let mut gpu = Gpu::new(GpuConfig::with_cores(2));
        let mut a = Assembler::new();
        a.csrr(Reg::X5, vortex_isa::csr::VX_CID);
        a.slli(Reg::X6, Reg::X5, 2);
        a.li(Reg::X7, 0x7200);
        a.add(Reg::X6, Reg::X6, Reg::X7);
        a.li(Reg::X8, 1);
        a.sw(Reg::X8, Reg::X6, 0);
        a.fence();
        // Global barrier: id MSB set, 2 expected arrivals.
        a.li(Reg::X9, vortex_isa::vx::BAR_GLOBAL_BIT as i32);
        a.li(Reg::X10, 2);
        a.bar(Reg::X9, Reg::X10);
        a.lw(Reg::X11, Reg::X7, 0);
        a.lw(Reg::X12, Reg::X7, 4);
        a.add(Reg::X11, Reg::X11, Reg::X12);
        a.slli(Reg::X6, Reg::X5, 2);
        a.li(Reg::X13, 0x7300);
        a.add(Reg::X6, Reg::X6, Reg::X13);
        a.sw(Reg::X11, Reg::X6, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        assert_eq!(gpu.ram.read_u32(0x7300), 2);
        assert_eq!(gpu.ram.read_u32(0x7304), 2);
    }

    /// Runs a 4-core kernel of two passes, each opened by a global
    /// barrier. Every core executes the `addi` at `patch` in both passes
    /// and stores its result (pass 1 at `0x7410 + 4*cid`, pass 2 at
    /// `0x7400 + 4*cid`); core 0 overwrites that `addi` between them.
    fn run_code_patched_by_core_zero(decode_cache: bool) -> (Gpu, vortex_asm::Program) {
        let mut patch = Assembler::new();
        patch.addi(Reg::X7, Reg::X0, 99);
        let patched = patch.assemble(0).expect("assembles").image[0];

        let mut config = GpuConfig::with_cores(4);
        config.core.decode_cache = decode_cache;
        let mut gpu = Gpu::new(config);
        let mut a = Assembler::new();
        a.csrr(Reg::X5, vortex_isa::csr::VX_CID);
        a.li(Reg::X13, 2); // passes left
        a.label("pass").unwrap();
        a.li(Reg::X10, vortex_isa::vx::BAR_GLOBAL_BIT as i32);
        a.li(Reg::X11, 4);
        // `bar` blocks fetch: nothing past it is fetched before every
        // core arrived, so pass 2 fetches `patch` after core 0's store.
        a.bar(Reg::X10, Reg::X11);
        a.label("patch").unwrap();
        a.addi(Reg::X7, Reg::X0, 1);
        a.addi(Reg::X6, Reg::X13, -1);
        a.slli(Reg::X6, Reg::X6, 4);
        a.slli(Reg::X12, Reg::X5, 2);
        a.add(Reg::X6, Reg::X6, Reg::X12);
        a.li(Reg::X12, 0x7400);
        a.add(Reg::X6, Reg::X6, Reg::X12);
        a.sw(Reg::X7, Reg::X6, 0);
        a.bnez(Reg::X5, "next");
        a.li(Reg::X8, patched as i32);
        a.la(Reg::X9, "patch");
        a.sw(Reg::X8, Reg::X9, 0);
        a.label("next").unwrap();
        a.addi(Reg::X13, Reg::X13, -1);
        a.bnez(Reg::X13, "pass");
        a.ecall();
        let prog = a.assemble(ENTRY).expect("assembles");
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        gpu.run(1_000_000).expect("kernel finishes");
        assert_eq!(gpu.ram.read_u32(prog.addr_of("patch")), patched);
        (gpu, prog)
    }

    #[test]
    fn code_patched_by_one_core_runs_on_every_core() {
        let (on, prog) = run_code_patched_by_core_zero(true);
        let (off, _) = run_code_patched_by_core_zero(false);
        for cid in 0..4 {
            assert_eq!(on.ram.read_u32(0x7410 + 4 * cid), 1, "core {cid}, pass 1");
            assert_eq!(on.ram.read_u32(0x7400 + 4 * cid), 99, "core {cid}, pass 2");
        }
        assert_eq!(on.stats(), off.stats());
        let image = |gpu: &Gpu| {
            let mut w = vortex_snapshot::Writer::new();
            gpu.ram.save_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(image(&on), image(&off));
        // One shared table: every distinct word the kernel ever held (its
        // text plus the patched `addi`) missed once for all four cores.
        let mut words: std::collections::BTreeSet<u32> = prog.image.iter().copied().collect();
        words.insert(on.ram.read_u32(prog.addr_of("patch")));
        let (hits, misses) = on.decode_memo_stats();
        assert_eq!(misses, words.len() as u64, "every distinct word once");
        assert!(hits > misses);
        assert_eq!(off.decode_memo_stats(), (0, 0));
    }

    #[test]
    fn float_pipeline_works() {
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.lfi(vortex_isa::FReg::X1, 3.0);
        a.lfi(vortex_isa::FReg::X2, 4.0);
        a.fmul(
            vortex_isa::FReg::X3,
            vortex_isa::FReg::X1,
            vortex_isa::FReg::X1,
        );
        a.fmadd(
            vortex_isa::FReg::X3,
            vortex_isa::FReg::X2,
            vortex_isa::FReg::X2,
            vortex_isa::FReg::X3,
        );
        a.fsqrt(vortex_isa::FReg::X4, vortex_isa::FReg::X3);
        a.li(Reg::X6, 0x8000);
        a.fsw(vortex_isa::FReg::X4, Reg::X6, 0);
        a.ecall();
        run_program(&mut gpu, &a);
        assert_eq!(gpu.ram.read_f32(0x8000), 5.0, "hypot(3,4)");
    }

    #[test]
    fn spin_loop_is_a_timeout_not_a_hang() {
        // A spin loop keeps retiring instructions, so the watchdog must
        // stay quiet and the cycle budget is what fires.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.label("spin").unwrap();
        a.j("spin");
        let prog = a.assemble(ENTRY).unwrap();
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        assert_eq!(gpu.run(1000), Err(SimError::Timeout { cycles: 1000 }));
    }

    #[test]
    fn unbalanced_join_traps_to_host() {
        // `join` with an empty IPDOM stack must surface as a structured
        // divergence-underflow error naming the faulting site, not a panic.
        let mut gpu = Gpu::new(GpuConfig::with_cores(1));
        let mut a = Assembler::new();
        a.join();
        a.ecall();
        let prog = a.assemble(ENTRY).unwrap();
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        match gpu.run(10_000) {
            Err(SimError::DivergenceUnderflow { core, wid, pc }) => {
                assert_eq!(core, 0);
                assert_eq!(wid, 0);
                assert_eq!(pc, ENTRY);
            }
            other => panic!("expected divergence underflow, got {other:?}"),
        }
    }

    /// One wavefront at a barrier sized for two: nothing can ever release
    /// it. A dependent load first gives the memory system (and a fault
    /// plan) work that the warp waits on.
    fn barrier_hang_program() -> vortex_asm::Program {
        let mut a = Assembler::new();
        a.li(Reg::X5, 0x2000);
        a.lw(Reg::X6, Reg::X5, 0);
        a.add(Reg::X7, Reg::X6, Reg::X0);
        a.li(Reg::X8, 2);
        a.bar(Reg::X7, Reg::X8);
        a.ecall();
        a.assemble(ENTRY).unwrap()
    }

    #[test]
    fn barrier_hang_names_the_stuck_warp() {
        // The watchdog must abort with a report naming the stuck core,
        // its warp and its occupancies.
        let mut config = GpuConfig::with_cores(1);
        config.watchdog_cycles = 2_000;
        let mut gpu = Gpu::new(config);
        let prog = barrier_hang_program();
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        match gpu.run(100_000) {
            Err(SimError::Hang(report)) => {
                assert_eq!(report.window, 2_000);
                assert_eq!(report.stuck_core_mask(), 1, "core 0 is stuck");
                assert!(!report.cores[0].warps.is_empty(), "stuck warps named");
                let text = report.to_string();
                assert!(text.contains("no forward progress"), "{text}");
                assert!(text.contains("warp 0"), "{text}");
            }
            other => panic!("expected hang report, got {other:?}"),
        }
    }

    #[test]
    fn identical_fault_seeds_give_identical_hang_reports() {
        // The delay plan decides when the load returns, so the stall
        // counters at the hang depend on the seed; the same seed must
        // reproduce the report and the counters exactly.
        let run_once = |seed| {
            let mut config = GpuConfig::with_cores(1);
            config.watchdog_cycles = 1_000;
            let mut gpu = Gpu::new(config);
            gpu.apply_faults(&FaultConfig {
                seed,
                dram_delay: 500,
                dram_extra_latency: 40,
                ..FaultConfig::off()
            });
            let prog = barrier_hang_program();
            gpu.ram.write_bytes(prog.base, &prog.to_bytes());
            gpu.launch(prog.entry);
            (gpu.run(50_000), gpu.stats())
        };
        let first = run_once(99);
        assert!(matches!(first.0, Err(SimError::Hang(_))), "{:?}", first.0);
        assert_eq!(first, run_once(99));
        assert_ne!(run_once(0).1, first.1, "the seed moves the stall counters");
    }

    #[test]
    fn multicore_runs_independent_kernels() {
        let mut gpu = Gpu::new(GpuConfig::with_cores(4));
        let mut a = Assembler::new();
        a.csrr(Reg::X5, vortex_isa::csr::VX_CID);
        a.slli(Reg::X6, Reg::X5, 2);
        a.li(Reg::X7, 0x9000);
        a.add(Reg::X6, Reg::X6, Reg::X7);
        a.addi(Reg::X8, Reg::X5, 500);
        a.sw(Reg::X8, Reg::X6, 0);
        a.ecall();
        let stats = run_program(&mut gpu, &a);
        for cid in 0..4u32 {
            assert_eq!(gpu.ram.read_u32(0x9000 + cid * 4), 500 + cid);
        }
        assert_eq!(stats.cores.len(), 4);
        assert!(stats.cores.iter().all(|c| c.instrs > 0));
    }

    /// A 50-iteration strided load/store loop: DRAM-bound, so the core
    /// parks between steps.
    fn strided_loop() -> Assembler {
        let mut a = Assembler::new();
        a.li(Reg::X5, 50);
        a.li(Reg::X6, 0x20000);
        a.label("loop").unwrap();
        a.lw(Reg::X7, Reg::X6, 0);
        a.addi(Reg::X7, Reg::X7, 1);
        a.sw(Reg::X7, Reg::X6, 0);
        a.addi(Reg::X6, Reg::X6, 256);
        a.addi(Reg::X5, Reg::X5, -1);
        a.bnez(Reg::X5, "loop");
        a.ecall();
        a
    }

    #[test]
    fn snapshot_taken_between_steps_resumes_identically() {
        let asm = strided_loop();
        let whole = run_program(&mut Gpu::new(GpuConfig::with_cores(1)), &asm);
        let prog = asm.assemble(ENTRY).expect("assembles");
        for k in [50, 100, 200, 400, 1000] {
            let mut gpu = Gpu::new(GpuConfig::with_cores(1));
            gpu.ram.write_bytes(prog.base, &prog.to_bytes());
            gpu.launch(prog.entry);
            for _ in 0..k {
                gpu.step().expect("no trap");
            }
            let bytes = gpu.save_snapshot();
            let mut resumed = Gpu::new(GpuConfig::with_cores(1));
            resumed
                .restore_snapshot(&bytes)
                .expect("own snapshot restores");
            let stats = resumed.run(1_000_000).expect("kernel finishes");
            assert_eq!(stats, whole, "resumed after {k} steps");
            let core = &stats.cores[0];
            assert_eq!(
                core.cycles,
                core.instrs + core.stalls.total(),
                "after {k} steps"
            );
        }
    }
}
