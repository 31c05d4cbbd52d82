//! One SIMT core: the five-stage in-order pipeline of Figure 4 with its
//! SIMT extensions, L1 caches, shared memory and texture unit.
//!
//! Pipeline model per cycle (back to front, so transactions advance one
//! stage per cycle):
//!
//! 1. **writeback** — one instruction per cycle claims the register write
//!    port (priority: LSU loads > texture responses > arithmetic units) and
//!    clears its scoreboard entry;
//! 2. **issue/execute** — one decoded instruction issues if its scoreboard
//!    and functional unit allow; it executes *functionally* right here
//!    (registers read, memory touched, PC updated) while its timing is
//!    dispatched to the owning functional unit;
//! 3. **fetch** — the wavefront scheduler picks a wavefront and sends its
//!    PC to the I-cache; the response decodes into the per-wavefront
//!    instruction buffer.
//!
//! Each wavefront owns a small instruction buffer (the RTL's per-warp
//! ibuffer): fetch runs ahead of issue as long as the buffer has space and
//! no unresolved PC redirect (branch/jump/`join`) is pending, and I-cache
//! hits resolve on a two-cycle fast path (SIMT fetch needs only one word
//! per cycle). Multi-wavefront interleaving on top of this modest
//! per-wavefront pipelining is what fills the machine — the behaviour the
//! paper's design-space study (Figure 14) explores.
//!
//! The buffer is a fixed two-entry ring of pre-resolved
//! [`Slot`](crate::frontend::Slot)s, and the per-wavefront front-end
//! predicates (buffer non-empty / full, redirect pending, fetch
//! outstanding) are mirrored as `u64` masks in
//! [`FrontEnd`](crate::frontend::FrontEnd): a live tick answers "which
//! wavefronts can fetch / may issue / are all idle" with a few word
//! operations and walks only the wavefronts that qualify.

use crate::barrier::{BarrierOutcome, BarrierTable};
use crate::config::CoreConfig;
use crate::decode_cache::DecodeCache;
use crate::error::{CoreHangState, SimError, WarpHangState};
use crate::exec::{self, CsrFile, ExecEnv, ExecPool, FuKind, Trap, Writeback};
use crate::frontend::{FrontEnd, Gate, Slot};
use crate::lsu::{tags, Lsu};
use crate::profile::CoreProfile;
use crate::regfile::RegFile;
use crate::scheduler::{rr_order, wavefront_mask, WavefrontScheduler};
use crate::scoreboard::{RegId, Scoreboard};
use crate::stats::CoreStats;
use crate::trace::{Trace, TraceEvent};
use crate::warp::{StallReason, Wavefront};
use std::collections::HashMap;
use vortex_faults::{site, FaultConfig};
use vortex_isa::Reg;
use vortex_mem::{Cache, MemReq, MemRsp, Ram, SharedMem, Tag};
use vortex_tex::{TexRequest, TexUnit};

/// A pending arithmetic completion waiting for the writeback port.
#[derive(Debug)]
struct Completion {
    ready: u64,
    wid: usize,
    wb: Writeback,
}

/// Deferred state of a *parked* core: a core whose own
/// [`Core::horizon_probe`] proved that every tick until `until` is a
/// pure idle bump. While parked, [`Core::tick`] reduces to two counter
/// increments and the per-tick side effects (stall bucket, profiler
/// attribution, shared-memory clock, texture countdowns) accumulate in
/// `delta`, to be replayed in one batch by [`Core::unpark`]. A GPU-level
/// jump over the span adds to the same `delta` ([`Core::bulk_advance`]).
/// The replay is exact because any state change that could alter the
/// memoized classification is an event that would have kept the horizon
/// at "now", or arrives through an external entry point that unparks
/// first.
///
/// Parking is host-side scheduling, invisible to the simulated machine:
/// it is never serialized, and the run loop flushes all parks before
/// returning so snapshots and profiles observe fully-replayed state.
#[derive(Debug, Clone, Copy)]
struct Park {
    /// First cycle whose tick must run live (`u64::MAX`: only an
    /// external event — fill response, barrier release — can wake the
    /// core).
    until: u64,
    /// Idle ticks taken while parked but not yet replayed.
    delta: u64,
    /// Memoized no-pick classification (see [`IssueScan`]) — constant
    /// over the span because nothing in it is an event.
    blocked_scoreboard: bool,
    blocked_fu: bool,
    /// Memoized profiler attribution site `(pc, encoded word)`; `None`
    /// when the stall is `ibuffer_empty` or profiling is off.
    site: Option<(u32, u32)>,
}

/// Outcome of the pure issue-candidate scan. One scan is shared by the
/// issue stage and the park probe (which memoizes it for the replay), so
/// both classify a no-pick cycle identically (same bucket, same profiler
/// attribution site) by construction.
#[derive(Debug, Clone, Copy)]
struct IssueScan {
    /// Wavefront the issue stage would pick this cycle, if any.
    picked: Option<usize>,
    /// First candidate in round-robin order that lost the scoreboard
    /// hazard check.
    scoreboard_blocked: Option<usize>,
    /// First candidate in round-robin order that found its functional
    /// unit busy.
    fu_blocked: Option<usize>,
    /// Earliest `busy_until` among candidates blocked on a *timed*
    /// (div/fdiv/fsqrt) unit; `u64::MAX` when every block is
    /// state-based (LSU/texture acceptance), which only clears via
    /// events accounted elsewhere.
    next_fu_ready: u64,
}

impl IssueScan {
    /// The wavefront whose head instruction a no-pick cycle is charged to
    /// by the profiler: the first scoreboard-blocked candidate, else the
    /// first FU-blocked one (mirroring the stall-bucket priority). `None`
    /// for `ibuffer_empty`, which has no waiting instruction and stays
    /// whole-core only.
    fn stall_wid(&self) -> Option<usize> {
        self.scoreboard_blocked.or(self.fu_blocked)
    }
}

/// A global-barrier arrival the GPU level must process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalBarrierArrival {
    /// Barrier id (MSB already stripped).
    pub id: u32,
    /// Arriving wavefront.
    pub wid: usize,
    /// Expected total arrivals.
    pub count: u32,
}

/// One Vortex SIMT core.
#[derive(Debug)]
pub struct Core {
    /// Core id within the processor.
    pub id: usize,
    config: CoreConfig,
    num_cores: usize,

    wavefronts: Vec<Wavefront>,
    scheduler: WavefrontScheduler,
    regs: RegFile,
    scoreboard: Scoreboard,
    csrf: CsrFile,
    barriers: BarrierTable,

    icache: Cache,
    dcache: Cache,
    smem: SharedMem,
    tex_unit: TexUnit,
    lsu: Lsu,

    /// Per-wavefront instruction buffers, redirect blocks and outstanding
    /// fetches, with their mask mirrors.
    front: FrontEnd,
    /// One bit per wavefront of this core.
    all_wavefronts: u64,
    /// Fast-path I-cache hits waiting their fixed latency:
    /// `(ready cycle, wavefront, pc)`.
    fast_fetch: std::collections::VecDeque<(u64, usize, u32)>,
    /// Scratch buffer for the (at most one per cycle) I-cache miss
    /// request, reused so the fetch stage never allocates.
    fetch_req: Vec<MemReq>,
    /// Recycled writeback/lane-access buffers for the execute stage.
    exec_pool: ExecPool,
    issue_rr: usize,

    completions: Vec<Completion>,
    div_busy_until: u64,
    fdiv_busy_until: u64,
    fsqrt_busy_until: u64,

    /// Wavefronts waiting on `fence`.
    fence_waiters: Vec<usize>,
    /// Pending global-barrier arrivals for the GPU level.
    global_barrier_out: Vec<GlobalBarrierArrival>,
    /// Texture request tag → (wavefront, destination register).
    tex_dest: HashMap<Tag, (usize, RegId)>,
    next_tex_tag: Tag,
    /// Texture-unit memory requests waiting for the D-cache.
    tex_mem_pending: Vec<MemReq>,

    cycle: u64,
    /// Sticky quiescence flag: set once every wavefront has halted and
    /// every queue, pipeline, and cache in the core is empty. From that
    /// point a full [`Core::tick`] reduces to exactly two counter bumps
    /// (`cycle` and the ibuffer-empty stall counter), so the tick takes a
    /// short-circuit path that performs only those — the stats stay
    /// bit-identical while idle cores in a multi-core run stop paying the
    /// full pipeline walk every cycle. Cleared by [`Core::launch`] and by
    /// a (defensive, should-be-impossible) late memory response. Never set
    /// while fault plans are attached: faulted components draw from their
    /// decision streams even on empty offers, so skipping ticks would
    /// desynchronize them.
    drained: bool,
    /// Active park, when the core has proven an idle span (see
    /// [`Park`]). Host-side scheduling state, never serialized: a run
    /// flushes it before returning, and `Gpu::save_snapshot` before saving.
    park: Option<Park>,
    /// Issued-instruction count at the last park probe — probing only
    /// makes sense on ticks that issued nothing.
    park_mark: u64,
    /// Remaining ticks before the next park probe after a failed one.
    park_backoff: u32,
    /// `true` once [`Core::apply_faults`] attached non-noop fault plans.
    has_faults: bool,
    /// Performance counters. Holds only the directly-incremented issue-side
    /// counters during simulation; cycle and component (cache/tex/smem)
    /// counters are folded in on demand by [`Core::stats_snapshot`] so the
    /// hot loop does not copy them every cycle.
    stats: CoreStats,
    /// PC-level profile accumulator ([`None`] unless
    /// [`Core::enable_profile`] ran). Boxed so the disabled case costs one
    /// pointer-sized field; observation-only, never consulted by the
    /// pipeline.
    profile: Option<Box<CoreProfile>>,
    /// Instruction trace (disabled by default).
    pub trace: Trace,
}

impl Core {
    /// Shortest proven-idle span worth parking for: below this the
    /// park/replay bookkeeping costs about as much as the live idle
    /// ticks it would skip (short fetch bubbles in particular).
    const PARK_MIN_SPAN: u64 = 4;
    /// Ticks to wait before re-probing after a failed park probe, so a
    /// core bouncing between short bubbles doesn't pay the probe every
    /// cycle. A successful issue resets the gate (see `park_mark`).
    const PARK_PROBE_BACKOFF: u32 = 3;

    /// Builds core `id` of `num_cores` with the given configuration.
    pub fn new(id: usize, num_cores: usize, config: CoreConfig) -> Self {
        let nw = config.num_wavefronts;
        Self {
            id,
            num_cores,
            wavefronts: (0..nw)
                .map(|wid| Wavefront::new(wid, config.num_threads))
                .collect(),
            scheduler: WavefrontScheduler::with_policy(nw, config.sched_policy),
            regs: RegFile::new(nw, config.num_threads),
            scoreboard: Scoreboard::new(nw),
            csrf: CsrFile::default(),
            barriers: BarrierTable::new(config.num_barriers),
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            smem: SharedMem::new(config.smem),
            tex_unit: TexUnit::new(config.tex),
            lsu: Lsu::new(config.lsu_entries),
            front: FrontEnd::new(nw),
            all_wavefronts: wavefront_mask(nw),
            fast_fetch: std::collections::VecDeque::new(),
            fetch_req: Vec::with_capacity(1),
            exec_pool: ExecPool::default(),
            issue_rr: 0,
            completions: Vec::new(),
            div_busy_until: 0,
            fdiv_busy_until: 0,
            fsqrt_busy_until: 0,
            fence_waiters: Vec::new(),
            global_barrier_out: Vec::new(),
            tex_dest: HashMap::new(),
            next_tex_tag: 0,
            tex_mem_pending: Vec::new(),
            cycle: 0,
            drained: false,
            park: None,
            park_mark: u64::MAX,
            park_backoff: 0,
            has_faults: false,
            stats: CoreStats::default(),
            profile: None,
            trace: Trace::disabled(),
            config,
        }
    }

    /// Attaches an empty PC-level profile accumulator (see
    /// [`crate::profile`]). Call before the first tick; profiled and
    /// unprofiled cores produce bit-identical simulations, but their
    /// snapshot payloads differ in shape.
    pub fn enable_profile(&mut self) {
        self.profile = Some(Box::new(CoreProfile::new(self.config.num_threads)));
    }

    /// This core's PC-level profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&CoreProfile> {
        self.profile.as_deref()
    }

    /// Resets and starts wavefront 0 at `pc` with one active thread — the
    /// hardware boot condition; the kernel stub then uses `wspawn`/`tmc`
    /// to light up the rest of the machine.
    pub fn launch(&mut self, pc: u32) {
        for wid in 0..self.config.num_wavefronts {
            self.wavefronts[wid].halt();
            self.scoreboard.clear_wavefront(wid);
            self.front.clear(wid);
        }
        self.fast_fetch.clear();
        self.completions.clear();
        self.fence_waiters.clear();
        self.tex_dest.clear();
        self.tex_mem_pending.clear();
        self.drained = false;
        self.park = None;
        self.park_mark = u64::MAX;
        self.park_backoff = 0;
        self.wavefronts[0].spawn(pc, 1);
    }

    /// `true` when every wavefront has halted and all machinery drained.
    pub fn is_done(&self) -> bool {
        self.drained || self.is_done_slow()
    }

    fn is_done_slow(&self) -> bool {
        self.wavefronts.iter().all(|w| !w.active)
            && self.lsu.is_idle()
            && self.tex_unit.is_idle()
            && self.icache.is_idle()
            && self.dcache.is_idle()
            && self.smem.is_idle()
            && self.completions.is_empty()
    }

    /// The per-core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Applies a writeback and returns its values buffer to the exec pool
    /// (the per-instruction payload vectors are recycled, not dropped).
    fn apply_writeback(&mut self, wid: usize, wb: Writeback) {
        for (lane, value) in wb.values.iter().enumerate() {
            if let Some(v) = value {
                if wb.reg.0 < 32 {
                    self.regs
                        .write_x(wid, lane, Reg::from_index(u32::from(wb.reg.0)), *v);
                } else {
                    self.regs.write_f(
                        wid,
                        lane,
                        vortex_isa::FReg::from_index(u32::from(wb.reg.0 - 32)),
                        *v,
                    );
                }
            }
        }
        self.scoreboard.clear_pending(wid, wb.reg);
        self.exec_pool.recycle_values(wb.values);
    }

    /// Writeback stage: one register write per cycle.
    fn writeback_stage(&mut self) {
        // Priority 1: completed loads.
        if let Some((wid, wb)) = self.lsu.pop_ready() {
            self.apply_writeback(wid, wb);
            return;
        }
        // Priority 2: texture responses.
        if let Some(rsp) = self.tex_unit.pop_rsp() {
            if let Some((wid, reg)) = self.tex_dest.remove(&rsp.tag) {
                let wb = Writeback {
                    reg,
                    values: rsp.colors,
                };
                self.apply_writeback(wid, wb);
            }
            return;
        }
        // Priority 3: earliest ready arithmetic completion.
        if let Some(idx) = self
            .completions
            .iter()
            .enumerate()
            .filter(|(_, c)| c.ready <= self.cycle)
            .min_by_key(|(_, c)| c.ready)
            .map(|(i, _)| i)
        {
            let c = self.completions.remove(idx);
            self.apply_writeback(c.wid, c.wb);
        }
    }

    /// The issue stage's candidate scan, as a pure function of core state:
    /// which wavefront would issue this cycle, or — when none can — how the
    /// stalled cycle would be classified. Shared verbatim by
    /// [`Core::issue_stage`] (which acts on it) and
    /// [`Core::horizon_probe`] (which requires `picked == None` to park,
    /// and whose classification [`Core::unpark`] replays for every
    /// parked cycle), so both agree bit for bit.
    fn issue_scan(&self) -> IssueScan {
        let mut scan = IssueScan {
            picked: None,
            scoreboard_blocked: None,
            fu_blocked: None,
            next_fu_ready: u64::MAX,
        };
        for wid in rr_order(self.front.nonempty(), self.issue_rr) {
            let slot = self.front.front(wid).expect("non-empty mask bit");
            // Hazard check: one AND against the pre-resolved need mask.
            if self.scoreboard.pending_mask(wid) & slot.need != 0 {
                scan.scoreboard_blocked.get_or_insert(wid);
                continue;
            }
            // `timer` is the busy-until deadline when the block is a timed
            // unit: the earliest cycle the scan outcome can change without
            // any other event.
            let (fu_free, timer) = match slot.gate {
                Gate::Free => (true, u64::MAX),
                Gate::Load => (self.lsu.can_accept_load(), u64::MAX),
                Gate::Store => (self.lsu.can_accept_store(), u64::MAX),
                Gate::Tex => (self.tex_unit.can_accept(), u64::MAX),
                Gate::Div => (self.div_busy_until <= self.cycle, self.div_busy_until),
                Gate::FDiv => (self.fdiv_busy_until <= self.cycle, self.fdiv_busy_until),
                Gate::FSqrt => (self.fsqrt_busy_until <= self.cycle, self.fsqrt_busy_until),
            };
            if !fu_free {
                scan.fu_blocked.get_or_insert(wid);
                scan.next_fu_ready = scan.next_fu_ready.min(timer);
                continue;
            }
            scan.picked = Some(wid);
            break;
        }
        scan
    }

    /// Issue + execute stage.
    ///
    /// # Errors
    /// Propagates execution traps (divergence misuse, divergent branches)
    /// as [`SimError`]s carrying the trap site.
    fn issue_stage(&mut self, ram: &mut Ram) -> Result<(), SimError> {
        let scan = self.issue_scan();
        let Some(wid) = scan.picked else {
            let (scoreboard, fu) = (scan.scoreboard_blocked.is_some(), scan.fu_blocked.is_some());
            self.stats.stalls.charge(scoreboard, fu, 1);
            if let Some(p) = self.profile.as_deref_mut() {
                if let Some(slot) = scan.stall_wid().and_then(|w| self.front.front(w)) {
                    p.record_stall(slot.pc, || vortex_isa::encode(&slot.instr), scoreboard);
                }
            }
            return Ok(());
        };
        self.issue_rr = if wid + 1 == self.config.num_wavefronts {
            0
        } else {
            wid + 1
        };
        let Slot {
            instr,
            pc: instr_pc,
            blocks_fetch,
            ..
        } = self.front.pop(wid).expect("picked non-empty");

        // Execute functionally.
        let env = ExecEnv {
            core_id: self.id,
            num_cores: self.num_cores,
            num_wavefronts: self.config.num_wavefronts,
            num_threads: self.config.num_threads,
            cycle: self.cycle,
            instret: self.stats.instrs,
        };
        let wf = &mut self.wavefronts[wid];
        let tmask_at_issue = wf.tmask;
        if blocks_fetch {
            // The front end stalled at this instruction (the pop above
            // lifted its redirect block); resolve the PC now (execution
            // overwrites it on taken redirects).
            wf.pc = instr_pc.wrapping_add(4);
        }
        let result = exec::execute_with(
            wf,
            &self.regs,
            ram,
            &mut self.csrf,
            &env,
            &instr,
            instr_pc,
            &mut self.exec_pool,
        )
        .map_err(|trap| {
            let (core, pc) = (self.id, instr_pc);
            match trap {
                Trap::DivergenceUnderflow => SimError::DivergenceUnderflow { core, wid, pc },
                Trap::DivergenceOverflow => SimError::DivergenceOverflow { core, wid, pc },
                Trap::DivergentBranch => SimError::DivergentBranch { core, wid, pc },
            }
        })?;
        if result.halted {
            // Discard any prefetched work of the halted wavefront.
            self.front.clear(wid);
        }

        self.stats.instrs += 1;
        self.stats.thread_instrs += u64::from(tmask_at_issue.count_ones());
        if result.diverged {
            self.stats.divergences += 1;
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.record_issue(
                instr_pc,
                || vortex_isa::encode(&instr),
                tmask_at_issue.count_ones(),
                result.diverged,
            );
        }
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                cycle: self.cycle,
                core: self.id,
                wid,
                pc: instr_pc,
                tmask: tmask_at_issue,
                text: instr.to_string(),
            });
        }

        // Dispatch timing.
        let lat = self.config.latencies;
        match result.fu {
            FuKind::Lsu if result.fence => {
                // Fence: flush the D-cache, stall until drained.
                self.dcache.flush();
                self.wavefronts[wid].stall = StallReason::Fence;
                self.fence_waiters.push(wid);
            }
            FuKind::Lsu => {
                let accesses = result.mem.expect("LSU instruction carries accesses");
                let is_load = result.wb.is_some();
                match result.wb {
                    Some(wb) => {
                        self.stats.loads += 1;
                        self.scoreboard.set_pending(wid, wb.reg);
                        self.lsu.issue_load(wid, &accesses, wb);
                    }
                    None => {
                        self.stats.stores += 1;
                        self.lsu.issue_store(&accesses);
                    }
                }
                if let Some(p) = self.profile.as_deref_mut() {
                    // Issue-time attribution: a non-mutating tag probe per
                    // lane (the bank-stage hit/miss no longer knows the
                    // PC). See `crate::profile` for the exact semantics.
                    let dcache = &self.dcache;
                    p.record_mem(instr_pc, is_load, accesses.iter().flatten(), |addr| {
                        dcache.probe(addr)
                    });
                }
                self.exec_pool.recycle_accesses(accesses);
            }
            FuKind::Tex => {
                self.stats.tex_ops += 1;
                let (stage, lanes) = result.tex.expect("tex instruction carries coords");
                let wb = result.wb.expect("tex writes a destination");
                let tag = self.next_tex_tag;
                self.next_tex_tag = self.next_tex_tag.wrapping_add(1);
                self.scoreboard.set_pending(wid, wb.reg);
                self.tex_dest.insert(tag, (wid, wb.reg));
                let states = self.csrf.tex_states();
                self.tex_unit
                    .issue(TexRequest { tag, stage, lanes }, &states, ram)
                    .expect("tex unit acceptance checked at issue");
                self.exec_pool.recycle_values(wb.values);
            }
            fu => {
                if let Some((id, count)) = result.barrier {
                    self.stats.barriers += 1;
                    self.arrive_barrier(wid, id, count);
                }
                if let Some((count, pc)) = result.wspawn {
                    self.do_wspawn(wid, count, pc);
                }
                if let Some(wb) = result.wb {
                    let latency = match fu {
                        FuKind::Alu | FuKind::Sfu => lat.alu,
                        FuKind::Mul => lat.mul,
                        FuKind::Div => {
                            self.div_busy_until = self.cycle + u64::from(lat.div);
                            lat.div
                        }
                        FuKind::Fpu => lat.fpu,
                        FuKind::FDiv => {
                            self.fdiv_busy_until = self.cycle + u64::from(lat.fdiv);
                            lat.fdiv
                        }
                        FuKind::FSqrt => {
                            self.fsqrt_busy_until = self.cycle + u64::from(lat.fsqrt);
                            lat.fsqrt
                        }
                        FuKind::Lsu | FuKind::Tex => unreachable!("handled above"),
                    };
                    self.scoreboard.set_pending(wid, wb.reg);
                    self.completions.push(Completion {
                        ready: self.cycle + u64::from(latency),
                        wid,
                        wb,
                    });
                } else {
                    // No writeback: blocking units still go busy.
                    match fu {
                        FuKind::Div => self.div_busy_until = self.cycle + u64::from(lat.div),
                        FuKind::FDiv => {
                            self.fdiv_busy_until = self.cycle + u64::from(lat.fdiv);
                        }
                        FuKind::FSqrt => {
                            self.fsqrt_busy_until = self.cycle + u64::from(lat.fsqrt);
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }

    fn arrive_barrier(&mut self, wid: usize, id: u32, count: u32) {
        use vortex_isa::vx::BAR_GLOBAL_BIT;
        self.wavefronts[wid].stall = StallReason::Barrier;
        if id & BAR_GLOBAL_BIT != 0 {
            self.global_barrier_out.push(GlobalBarrierArrival {
                id: id & !BAR_GLOBAL_BIT,
                wid,
                count,
            });
        } else {
            let slot = (id as usize) % self.barriers.len();
            match self.barriers.arrive(slot, wid, count) {
                BarrierOutcome::Wait => {}
                BarrierOutcome::Release(wids) => {
                    for w in wids {
                        self.release_wavefront(w);
                    }
                }
            }
        }
    }

    fn do_wspawn(&mut self, caller: usize, count: u32, pc: u32) {
        let n = (count as usize).min(self.config.num_wavefronts);
        for wid in 0..n {
            if wid != caller && !self.wavefronts[wid].active {
                self.wavefronts[wid].spawn(pc, 1);
                self.scoreboard.clear_wavefront(wid);
                self.front.clear(wid);
            }
        }
    }

    /// Unstalls a wavefront released from a (local or global) barrier or
    /// fence.
    pub fn release_wavefront(&mut self, wid: usize) {
        // A release can wake a core parked on a barrier wait.
        self.unpark();
        if self.wavefronts[wid].active {
            self.wavefronts[wid].stall = StallReason::None;
        }
    }

    /// The fetch stage's ready mask as a pure function of core state:
    /// wavefronts the scheduler would be offered this cycle. Shared by
    /// [`Core::fetch_stage`] and [`Core::horizon_probe`] — a
    /// non-zero mask means fetch would engage the (stateful) scheduler,
    /// so the cycle is not skippable.
    fn fetch_ready_mask(&self) -> u64 {
        let mut ready_mask = 0u64;
        for wid in rr_order(self.all_wavefronts & !self.front.fetch_blocked(), 0) {
            ready_mask |= u64::from(self.wavefronts[wid].schedulable()) << wid;
        }
        ready_mask
    }

    /// Fetch stage: scheduler pick, fast-path hit probe, or I-cache miss
    /// request.
    fn fetch_stage(&mut self) {
        let ready_mask = self.fetch_ready_mask();
        if ready_mask == 0 {
            return;
        }
        let Some(wid) = self.scheduler.pick(ready_mask) else {
            return;
        };
        let pc = self.wavefronts[wid].pc;
        if self.icache.lookup_for_fetch(pc) {
            // Two-cycle hit path.
            self.fast_fetch.push_back((self.cycle + 2, wid, pc));
            self.front.set_fetch_pending(wid, pc);
            return;
        }
        self.fetch_req.clear();
        self.fetch_req.push(MemReq::read(wid as Tag, pc));
        self.icache.offer(&mut self.fetch_req);
        if self.fetch_req.is_empty() {
            self.front.set_fetch_pending(wid, pc);
        }
        // Rejected (bank busy / FIFO full): retry next cycle.
    }

    /// Decodes a fetched word into the wavefront's instruction buffer and
    /// lets the front end run ahead when the instruction cannot redirect
    /// the PC.
    ///
    /// # Errors
    /// [`SimError::IllegalInstruction`] when the word does not decode —
    /// surfaced to the host instead of crashing the simulator.
    fn decode_into_ibuffer(
        &mut self,
        wid: usize,
        pc: u32,
        ram: &Ram,
        memo: Option<&mut DecodeCache>,
    ) -> Result<(), SimError> {
        if !self.wavefronts[wid].active {
            return Ok(()); // halted while the fetch was in flight
        }
        let word = ram.read_u32(pc);
        // Memoized decode. Keying by the *word just fetched* makes the memo
        // self-invalidating under self-modifying code — this core's or any
        // other's: a code write changes the lookup key, never the cached
        // mapping, so one table serves every core of the GPU.
        let decoded = match memo {
            Some(memo) => memo.decode(word),
            None => Slot::decode(word),
        };
        match decoded {
            Ok(slot) => {
                if !slot.blocks_fetch {
                    self.wavefronts[wid].pc = pc.wrapping_add(4);
                }
                self.front.push(wid, slot.at(pc));
                Ok(())
            }
            Err(_) => Err(SimError::IllegalInstruction {
                core: self.id,
                wid,
                pc,
                word,
            }),
        }
    }

    /// Advances the core one cycle against the one functional memory:
    /// loads and instruction fetches read `ram`, stores write it, both at
    /// issue time. A store is therefore visible to this core's own later
    /// accesses at once, and to another core ticked later in the same
    /// cycle — the caller ticks cores in ascending id order, which makes
    /// that a modelled rule rather than an accident (DESIGN §10).
    ///
    /// `memo` is the GPU's one decode memo ([`None`] when
    /// `CoreConfig::decode_cache` is off); every core consults the same
    /// table, which is sound because it is keyed by the fetched word.
    ///
    /// # Errors
    /// Propagates structured traps ([`SimError`]) from the issue and
    /// decode stages; the caller aborts the simulation and reports them.
    pub fn tick(
        &mut self,
        ram: &mut Ram,
        mut memo: Option<&mut DecodeCache>,
    ) -> Result<(), SimError> {
        if self.drained {
            // The full tick below is a no-op for a drained core except for
            // these two counters (issue finds every ibuffer empty; every
            // other stage finds its queues empty) — keep them so the
            // counters match the unskipped path bit for bit.
            self.stats.stalls.ibuffer_empty += 1;
            self.cycle += 1;
            return Ok(());
        }
        if let Some(p) = &mut self.park {
            if self.cycle < p.until {
                // Proven-idle tick: defer its side effects into the park
                // and pay two increments instead of the pipeline walk.
                p.delta += 1;
                self.cycle += 1;
                return Ok(());
            }
            // First live cycle of the horizon: replay the span, then run
            // the tick below normally.
            self.unpark();
        }
        self.icache.begin_cycle();
        self.dcache.begin_cycle();

        self.writeback_stage();
        self.issue_stage(ram)?;
        self.fetch_stage();

        // LSU → D-cache / shared memory (LSU has priority over texture).
        // Only the *oldest* lane group is presented: the core↔cache
        // interface is wavefront-wide, so a partially accepted group
        // blocks the next memory instruction (the throughput cost virtual
        // multi-porting removes).
        if let Some(group) = self.lsu.dcache_groups.front_mut() {
            let writes_before = self.dcache.stats.writes;
            self.dcache.offer(group);
            let accepted_stores = (self.dcache.stats.writes - writes_before) as usize;
            if group.is_empty() {
                let drained = self.lsu.dcache_groups.pop_front().expect("front exists");
                self.lsu.recycle_group(drained);
            }
            self.lsu.stores_accepted(accepted_stores);
        }
        if let Some(group) = self.lsu.smem_groups.front_mut() {
            self.smem.offer(group);
            if group.is_empty() {
                let drained = self.lsu.smem_groups.pop_front().expect("front exists");
                self.lsu.recycle_group(drained);
            }
        }

        // Texture unit → D-cache (tags marked with the TEX bit).
        while let Some(req) = self.tex_unit.pop_mem_req() {
            self.tex_mem_pending.push(MemReq {
                tag: req.tag | tags::TEX_BIT,
                addr: req.addr,
                write: req.write,
            });
        }
        self.dcache.offer(&mut self.tex_mem_pending);

        self.icache.tick();
        self.dcache.tick();
        self.smem.tick();
        self.tex_unit.tick();

        // Fast-path fetches that reached their latency → decode.
        while let Some(&(ready, wid, pc)) = self.fast_fetch.front() {
            if ready > self.cycle {
                break;
            }
            self.fast_fetch.pop_front();
            if self.front.fetch_pending(wid) == Some(pc) {
                self.front.take_fetch_pending(wid);
                self.decode_into_ibuffer(wid, pc, ram, memo.as_deref_mut())?;
            }
        }
        // I-cache miss responses → decode into the ibuffer.
        while let Some(MemRsp { tag }) = self.icache.pop_rsp() {
            let wid = tag as usize;
            let Some(pc) = self.front.take_fetch_pending(wid) else {
                continue;
            };
            self.decode_into_ibuffer(wid, pc, ram, memo.as_deref_mut())?;
        }

        // D-cache responses → LSU or texture unit.
        while let Some(MemRsp { tag }) = self.dcache.pop_rsp() {
            if tag & tags::TEX_BIT != 0 {
                self.tex_unit.push_mem_rsp(MemRsp {
                    tag: tag & !tags::TEX_BIT,
                });
            } else {
                self.lsu.push_rsp(tag);
            }
        }
        while let Some(MemRsp { tag }) = self.smem.pop_rsp() {
            self.lsu.push_rsp(tag);
        }

        // Fence release: core-local memory machinery fully drained.
        if !self.fence_waiters.is_empty()
            && self.lsu.is_idle()
            && self.dcache.is_idle()
            && self.smem.is_idle()
        {
            for wid in std::mem::take(&mut self.fence_waiters) {
                self.release_wavefront(wid);
            }
        }

        self.cycle += 1;
        self.check_front_end_masks();

        // Quiescence detection for the fast path above. The first clause
        // fails on the first active wavefront, so live cores pay almost
        // nothing for the probe; a winding-down core runs the full check
        // for the few cycles between its last retirement and idle caches.
        if self.quiescent() {
            self.drained = true;
        } else if self.stats.instrs == self.park_mark {
            // Nothing issued since the last probe: the core may be
            // stalled. Probe for a parkable span, rate-limited after
            // failures.
            if self.park_backoff == 0 {
                self.try_park();
            } else {
                self.park_backoff -= 1;
            }
        } else {
            self.park_mark = self.stats.instrs;
            self.park_backoff = 0;
        }
        Ok(())
    }

    /// Park probe: asks [`Core::horizon_probe`] for
    /// the first live cycle and parks the core when the proven-idle span
    /// is long enough to beat the replay bookkeeping.
    fn try_park(&mut self) {
        if self.has_faults {
            // Fault plans draw on every live tick; parking would desync
            // their decision streams.
            return;
        }
        let (horizon, scan) = self.horizon_probe();
        if horizon < self.cycle + Self::PARK_MIN_SPAN {
            self.park_backoff = Self::PARK_PROBE_BACKOFF;
            return;
        }
        let scan = scan.expect("a future horizon implies the scan ran");
        let site = self
            .profile
            .as_ref()
            .and(scan.stall_wid())
            .and_then(|w| self.front.front(w))
            .map(|slot| (slot.pc, vortex_isa::encode(&slot.instr)));
        self.park = Some(Park {
            until: horizon,
            delta: 0,
            blocked_scoreboard: scan.scoreboard_blocked.is_some(),
            blocked_fu: scan.fu_blocked.is_some(),
            site,
        });
    }

    /// Replays a park's deferred ticks — the exact per-cycle effects of
    /// the idle span, except the cycle counter, which already advanced
    /// tick by tick (or by [`Core::bulk_advance`]). Idempotent;
    /// called from every external entry point that could invalidate the
    /// memoized horizon, and by the run loop before it returns.
    pub(crate) fn unpark(&mut self) {
        let Some(p) = self.park.take() else { return };
        if p.delta == 0 {
            return;
        }
        // Live idle ticks open each cycle by clearing the caches'
        // serialized arbitration claims; replay that so snapshots taken
        // after a parked span match the unskipped bytes.
        self.icache.begin_cycle();
        self.dcache.begin_cycle();
        self.stats
            .stalls
            .charge(p.blocked_scoreboard, p.blocked_fu, p.delta);
        if let Some(prof) = self.profile.as_deref_mut() {
            if let Some((pc, word)) = p.site {
                prof.record_stall_n(pc, || word, p.blocked_scoreboard, p.delta);
            }
        }
        self.smem.advance(p.delta);
        self.tex_unit.bulk_advance(p.delta);
    }

    /// Whether the core has fully wound down (the condition under which
    /// [`Core::tick`] latches `drained`).
    fn quiescent(&self) -> bool {
        !self.has_faults
            && self.wavefronts.iter().all(|w| !w.active)
            && self.completions.is_empty()
            && self.fast_fetch.is_empty()
            && self.fence_waiters.is_empty()
            && self.global_barrier_out.is_empty()
            && self.tex_mem_pending.is_empty()
            && self.front.is_idle()
            && self.is_done_slow()
    }

    /// First cycle at which ticking this core is *not* a pure, replicable
    /// idle bump: `self.cycle` ("now") when the next tick does real work
    /// (or consumes a fault draw), `u64::MAX` when the core is stalled
    /// purely on external events, and an exact future cycle when the only
    /// pending work is a timer expiry (arithmetic completion, fast-fetch
    /// arrival, FU busy-until, shared-memory latency, texture sampler).
    /// Also returns the [`IssueScan`] when the probe got far enough to run
    /// it (`Some` exactly when the returned horizon is in the future); the
    /// park memoizes its classification.
    ///
    /// Every cycle in `[now, horizon)` charges the same stall bucket and
    /// profiler site as a live tick would: any state change that could
    /// alter the [`Core::issue_scan`] outcome is itself an event that
    /// returns "now" here, or arrives through an entry point that unparks
    /// ([`Core::push_l1_mem_rsp`], bounded by the hierarchy's horizon).
    ///
    /// The one caller is [`Core::try_park`], which runs only after
    /// [`Core::tick`] found the core neither drained nor quiescent.
    fn horizon_probe(&self) -> (u64, Option<IssueScan>) {
        let now = self.cycle;
        // Any fault plan attached to this core draws at fixed per-tick
        // sites (the cache offers) — skipping would desync the
        // audited decision streams, so faulted cores never fast-forward.
        if self.has_faults
            || !self.global_barrier_out.is_empty()
            || !self.tex_mem_pending.is_empty()
            || self.lsu.has_ready()
            || !self.lsu.dcache_groups.is_empty()
            || !self.lsu.smem_groups.is_empty()
            || !self.icache.ff_idle()
            || !self.dcache.ff_idle()
        {
            return (now, None);
        }
        // Fence release would fire this tick.
        if !self.fence_waiters.is_empty()
            && self.lsu.is_idle()
            && self.dcache.is_idle()
            && self.smem.is_idle()
        {
            return (now, None);
        }
        // Fetch would engage the (stateful) scheduler.
        if self.fetch_ready_mask() != 0 {
            return (now, None);
        }
        let scan = self.issue_scan();
        if scan.picked.is_some() {
            return (now, Some(scan));
        }
        // Timed events only from here down. Each bound is the exact cycle
        // whose live tick first observes the event, matching the stage's
        // own clocking (writeback compares `ready <= cycle` pre-increment;
        // the shared-memory clock advances before its response drain, so
        // an entry with latency `r` pops during the tick at `r - 1`).
        let mut horizon = scan.next_fu_ready;
        if let Some(ready) = self.completions.iter().map(|c| c.ready).min() {
            if ready <= now {
                return (now, Some(scan));
            }
            horizon = horizon.min(ready);
        }
        if let Some(&(ready, _, _)) = self.fast_fetch.front() {
            if ready <= now {
                return (now, Some(scan));
            }
            horizon = horizon.min(ready);
        }
        if let Some(ready) = self.smem.front_ready() {
            let h = ready.saturating_sub(1);
            if h <= now {
                return (now, Some(scan));
            }
            horizon = horizon.min(h);
        }
        let tex = self.tex_unit.next_event_cycle(now);
        if tex <= now {
            return (now, Some(scan));
        }
        (horizon.min(tex), Some(scan))
    }

    /// The first cycle this core must tick live, when it has already
    /// proven the ticks before it idle: `u64::MAX` once drained, the park
    /// horizon while parked, and `None` while the core ticks live. The
    /// GPU-level jump consults only this, so the park probe is the one
    /// horizon computation.
    pub fn idle_until(&self) -> Option<u64> {
        if self.drained {
            return Some(u64::MAX);
        }
        self.park.as_ref().map(|p| p.until)
    }

    /// Advances a parked or drained core by `delta` cycles in one step,
    /// reproducing bit for bit what `delta` consecutive ticks would have
    /// done. A parked core defers the span into its park, so
    /// [`Core::unpark`] replays it with the rest. Only legal when
    /// [`Core::idle_until`] returned a horizon `>= cycle + delta`.
    ///
    /// # Panics
    /// On a core that is neither parked nor drained.
    pub fn bulk_advance(&mut self, delta: u64) {
        if self.drained {
            self.stats.stalls.ibuffer_empty += delta;
        } else {
            let p = self.park.as_mut().expect("bulk_advance on a live core");
            debug_assert!(self.cycle + delta <= p.until);
            p.delta += delta;
        }
        self.cycle += delta;
    }

    /// Decisions drawn across this core's fault plans (I-cache and
    /// D-cache); 0 when no faults are attached. Part of the per-site
    /// determinism audit: every per-core plan is ticked only inside
    /// [`Core::tick`], so equal draw totals across fast-forward and
    /// resume variants prove the streams stayed per-site deterministic.
    pub fn fault_draws(&self) -> u64 {
        self.icache.fault_draws() + self.dcache.fault_draws()
    }

    /// The core's performance counters, with the cycle count and the
    /// component (cache / texture / shared-memory) counters folded in.
    /// This fold used to happen every cycle in [`Core::tick`]; doing it on
    /// demand keeps ~250 bytes of copies out of the hot loop.
    pub fn stats_snapshot(&self) -> CoreStats {
        let mut stats = self.stats;
        // A parked span's stall bucket is deferred in the park; fold it
        // in here (without flushing) so mid-run observers — telemetry
        // samples in particular — see the same counters a live run
        // would.
        if let Some(p) = &self.park {
            stats
                .stalls
                .charge(p.blocked_scoreboard, p.blocked_fu, p.delta);
        }
        stats.cycles = self.cycle;
        stats.icache = self.icache.stats;
        stats.dcache = self.dcache.stats;
        stats.tex = self.tex_unit.stats;
        stats.smem_accesses = self.smem.accesses;
        stats.smem_conflicts = self.smem.bank_conflicts;
        stats
    }

    /// Decoded instructions parked across all wavefront ibuffers right
    /// now (telemetry-sampler probe).
    pub fn ibuffer_occupancy(&self) -> usize {
        self.front.occupancy()
    }

    /// D-cache MSHR entries outstanding right now (telemetry-sampler
    /// probe).
    pub fn dcache_mshr_pending(&self) -> usize {
        self.dcache.mshr_pending()
    }

    /// Attaches deterministic fault plans to this core's caches (I-cache
    /// and D-cache), each seeded from its own site id
    /// so per-component decision streams are independent.
    pub fn apply_faults(&mut self, faults: &FaultConfig) {
        if faults.is_noop() {
            return;
        }
        // Fault plans draw from their decision streams even on empty
        // offers, so the drained-core tick skip must stay off — and any
        // in-progress park must replay before the plans attach.
        self.unpark();
        self.has_faults = true;
        self.icache.set_fault(faults.plan(site::icache(self.id)));
        self.dcache.set_fault(faults.plan(site::dcache(self.id)));
    }

    /// Monotone progress counter: strictly increases whenever the core
    /// retires an instruction or its caches accept or fill requests. The
    /// GPU-level watchdog compares successive values to detect deadlock.
    pub fn progress_token(&self) -> u64 {
        self.stats
            .instrs
            .wrapping_add(self.icache.stats.accepted)
            .wrapping_add(self.dcache.stats.accepted)
            .wrapping_add(self.icache.stats.reads)
            .wrapping_add(self.dcache.stats.reads)
            .wrapping_add(self.dcache.stats.writes)
            .wrapping_add(self.tex_unit.stats.requests)
    }

    /// Snapshot of everything that can be stuck, for the hang report.
    pub fn hang_state(&self) -> CoreHangState {
        CoreHangState {
            core: self.id,
            warps: self
                .wavefronts
                .iter()
                .filter(|w| w.active)
                .map(|w| WarpHangState {
                    wid: w.wid,
                    pc: w.pc,
                    tmask: w.tmask,
                    stall: w.stall,
                    ibuffer: self.front.len(w.wid),
                    fetch_pending: self.front.fetch_pending(w.wid).is_some(),
                })
                .collect(),
            lsu_pending: self.lsu.pending(),
            completions: self.completions.len(),
            fence_waiters: self.fence_waiters.len(),
            icache: self.icache.occupancy(),
            dcache: self.dcache.occupancy(),
            tex: self.tex_unit.occupancy(),
        }
    }

    // --- Memory-side plumbing for the GPU level -------------------------

    /// Delivers a fill response to the right L1.
    pub fn push_l1_mem_rsp(&mut self, rsp: MemRsp, icache: bool) {
        // A fill is exactly the external event a memory-stalled park
        // waits for: replay the deferred span before accepting it.
        self.unpark();
        // A drained core has no outstanding reads, so no response should
        // reach it — but if one ever does, resume full ticking so the fill
        // is processed rather than stranded.
        self.drained = false;
        if icache {
            self.icache.push_mem_rsp(rsp);
        } else {
            self.dcache.push_mem_rsp(rsp);
        }
    }

    /// The I-cache and D-cache, for the GPU level to drain their miss
    /// queues into the hierarchy.
    #[inline]
    pub fn l1s_mut(&mut self) -> (&mut Cache, &mut Cache) {
        (&mut self.icache, &mut self.dcache)
    }

    /// This core's pending global-barrier arrivals, for the GPU level to
    /// drain in place (the buffer keeps its capacity).
    #[inline]
    pub fn global_barrier_arrivals(&mut self) -> &mut Vec<GlobalBarrierArrival> {
        &mut self.global_barrier_out
    }

    /// Read access to a wavefront (tests, debugging).
    pub fn wavefront(&self, wid: usize) -> &Wavefront {
        &self.wavefronts[wid]
    }

    /// Read access to the front end (tests, debugging).
    pub fn front_end(&self) -> &FrontEnd {
        &self.front
    }

    /// Debug builds: asserts the front-end masks equal their definitions
    /// (see [`FrontEnd::check_masks`]). Every live tick and every restore
    /// ends with this check.
    pub fn check_front_end_masks(&self) {
        self.front.check_masks();
    }

    /// Read access to the register file (tests, runtime result readout).
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }
}

vortex_snapshot::snapshot! {
    impl Snap for Completion { ready, wid, wb }
}

vortex_snapshot::snapshot! {
    impl Snap for GlobalBarrierArrival { id, wid, count }
}

// The core's complete simulation state: architectural state, every pipeline
// and memory-side structure in flight (fault-plan positions ride inside the
// components) and the counters. Structural geometry comes from the
// configuration and is not saved: occupancies are checked against it. The
// fetch-request buffer, the execute pool and the trace are host-side and
// invisible to the simulation. Parks are replayed by `Gpu::save_snapshot`
// before a core is saved, so a saved core never holds deferred ticks.
vortex_snapshot::snapshot! {
    impl pub state for Core {
        config id, config config, config num_cores,
        wavefronts: each state,
        scheduler: state, regs: state, scoreboard: state, csrf: state, barriers: state,
        icache: state, dcache: state, smem: state, tex_unit: state, lsu: state, front: state,
        config all_wavefronts,
        fast_fetch if fast_fetch.iter().all(|&(_, wid, _)| wid < config.num_wavefronts)
            => "fast-fetch wavefront",
        scratch fetch_req, scratch exec_pool,
        issue_rr if *issue_rr < config.num_wavefronts => "issue pointer",
        completions if completions.iter().all(|c| c.wid < config.num_wavefronts)
            => "completion wavefront",
        div_busy_until, fdiv_busy_until, fsqrt_busy_until,
        fence_waiters if fence_waiters.iter().all(|&wid| wid < config.num_wavefronts)
            => "fence waiter",
        global_barrier_out if global_barrier_out.iter().all(|a| a.wid < config.num_wavefronts)
            => "global-barrier wavefront",
        tex_dest for (_, (wid, reg)) if *wid < config.num_wavefronts && reg.0 < 64
            => "texture destination",
        next_tex_tag, tex_mem_pending,
        // The retired pending-store count.
        reserved usize = 0 => "reserved pending-store count",
        cycle, drained,
        scratch park = None, scratch park_mark = u64::MAX, scratch park_backoff = 0,
        has_faults, stats,
        // Present iff profiling is configured: the config fingerprint
        // refuses the cross-enablement cases.
        profile: each state, scratch trace,
    }
}
