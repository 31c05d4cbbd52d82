//! The high-bandwidth non-blocking cache (paper §4.3, Figure 6).
//!
//! Structure, front to back:
//!
//! 1. **Bank selector** — assigns incoming core requests to banks by
//!    address, resolving bank conflicts (one request per bank per cycle).
//!    With virtual multi-porting enabled it coalesces up to `ports`
//!    same-line requests into one bank slot per Algorithm 2 of the paper,
//!    exploiting cache-line locality.
//! 2. **Per-bank four-stage pipeline** — *schedule* (priority: MSHR replay >
//!    memory fill > core request), *tag access*, *data access*, *response*.
//! 3. **MSHR per bank** — outstanding-miss tracking with secondary-miss
//!    merging ([`crate::mshr::Mshr`]).
//! 4. **Bank merger** — coalesces outgoing responses into the single
//!    response port.
//!
//! The two deadlock hazards called out by the paper are prevented the same
//! way the RTL does it: a request only enters a bank pipeline when its MSHR
//! and the memory request queue both have guaranteed space ("early full"
//! signals).
//!
//! The model is write-through/no-write-allocate (the Vortex L1 policy):
//! stores stream to the next level without producing core responses, so
//! only loads generate [`MemRsp`]s.

use crate::elastic::Queue;
use crate::mshr::Mshr;
use crate::req::{MemReq, MemRsp, Tag};
use std::collections::VecDeque;
use std::fmt;
use vortex_faults::FaultPlan;
use vortex_snapshot::{Reader, Snap, SnapError, SnapResult, Writer};

/// One coalesced sub-request inside a bank request (a virtual port).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubReq {
    /// The requester's tag.
    pub tag: Tag,
}

/// A request as seen by a cache bank: one line access carrying up to
/// `ports` coalesced core requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankReq {
    /// Global line address (byte address / line size).
    pub line: u32,
    /// `true` for stores.
    pub write: bool,
    /// The coalesced core requests (1..=ports entries).
    pub subs: Vec<SubReq>,
}

/// Cache geometry and microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Number of single-ported banks.
    pub num_banks: usize,
    /// Associativity (1 = direct-mapped, the Vortex default).
    pub num_ways: usize,
    /// Virtual ports per bank (1 disables coalescing; the paper evaluates
    /// 1, 2 and 4 in Figure 19 / Table 5).
    pub ports: usize,
    /// MSHR capacity per bank, in pending requests.
    pub mshr_size: usize,
    /// Per-bank input FIFO depth.
    pub input_queue: usize,
    /// Outgoing memory-request queue depth (shared by all banks).
    pub memq_size: usize,
}

impl CacheConfig {
    /// The baseline 16 KiB, 4-bank, 64 B-line data cache.
    pub fn dcache_default() -> Self {
        Self {
            size_bytes: 16 * 1024,
            line_bytes: 64,
            num_banks: 4,
            num_ways: 1,
            ports: 1,
            mshr_size: 16,
            input_queue: 2,
            memq_size: 8,
        }
    }

    /// The baseline 8 KiB instruction cache (single bank: SIMT fetch needs
    /// one instruction per cycle — paper §6.3).
    pub fn icache_default() -> Self {
        Self {
            size_bytes: 8 * 1024,
            line_bytes: 64,
            num_banks: 1,
            num_ways: 1,
            ports: 1,
            mshr_size: 4,
            input_queue: 2,
            memq_size: 4,
        }
    }

    /// Sets (lines) per bank.
    pub fn sets_per_bank(&self) -> usize {
        let lines = (self.size_bytes / self.line_bytes) as usize;
        lines / self.num_banks / self.num_ways
    }

    fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size not a power of two");
        assert!(self.num_banks.is_power_of_two(), "bank count not a power of two");
        assert!(self.ports >= 1, "need at least one port");
        assert!(self.num_ways >= 1, "need at least one way");
        assert!(self.sets_per_bank() >= 1, "cache too small for geometry");
        // Otherwise the modelled capacity silently rounds down, and the
        // set index could not be a plain mask.
        let lines = (self.size_bytes / self.line_bytes) as usize;
        assert!(
            lines.is_multiple_of(self.num_banks * self.num_ways),
            "line count not divisible by banks x ways"
        );
        assert!(
            self.sets_per_bank().is_power_of_two(),
            "set count not a power of two"
        );
    }
}

/// Aggregate cache performance counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Core read requests accepted.
    pub reads: u64,
    /// Core write requests accepted.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Read misses (primary + secondary).
    pub read_misses: u64,
    /// Secondary misses merged into an existing MSHR entry.
    pub mshr_merges: u64,
    /// Requests offered to the bank selector.
    pub offered: u64,
    /// Requests accepted by the bank selector (including coalesced ones).
    pub accepted: u64,
    /// Requests rejected because the target bank was already claimed this
    /// cycle (a *bank conflict*).
    pub bank_conflicts: u64,
    /// Requests rejected because the bank's input FIFO was full.
    pub fifo_full_rejects: u64,
    /// Requests coalesced onto an already-claimed bank slot via virtual
    /// ports (these count as accepted, not as conflicts).
    pub port_coalesced: u64,
    /// Cycles a bank's scheduler stalled a ready core request on the
    /// early-full (MSHR or memory-queue) signals.
    pub early_full_stalls: u64,
    /// Cache flushes executed.
    pub flushes: u64,
}

impl CacheStats {
    /// Bank utilization as defined for Figure 19: the fraction of offered
    /// requests that did not directly experience a bank conflict (stalls
    /// from full input FIFOs don't count against utilization).
    pub fn bank_utilization(&self) -> f64 {
        let considered = self.offered - self.fifo_full_rejects;
        if considered == 0 {
            1.0
        } else {
            1.0 - (self.bank_conflicts as f64) / (considered as f64)
        }
    }

    /// Read hit rate.
    ///
    /// **Zero-access convention:** a cache that served no reads reports
    /// `1.0` (vacuously "never missed"). That keeps ratio arithmetic in
    /// sweep aggregations total, but it is *not* a measurement — reporting
    /// code that would otherwise print a phantom "100%" for an idle cache
    /// should use [`CacheStats::measured_hit_rate`] and render `None` as
    /// `-`/`n/a`.
    pub fn hit_rate(&self) -> f64 {
        self.measured_hit_rate().unwrap_or(1.0)
    }

    /// Read hit rate, or `None` when no reads were served (idle cache) —
    /// the distinction [`CacheStats::hit_rate`] erases.
    pub fn measured_hit_rate(&self) -> Option<f64> {
        if self.reads == 0 {
            None
        } else {
            Some(self.read_hits as f64 / self.reads as f64)
        }
    }

    /// Folds another cache's counters into this one (used to aggregate
    /// per-core L1 counters into a whole-GPU view).
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.mshr_merges += other.mshr_merges;
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.bank_conflicts += other.bank_conflicts;
        self.fifo_full_rejects += other.fifo_full_rejects;
        self.port_coalesced += other.port_coalesced;
        self.early_full_stalls += other.early_full_stalls;
        self.flushes += other.flushes;
    }
}

impl Snap for SubReq {
    fn save(&self, w: &mut Writer) {
        w.u64(self.tag);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok(Self { tag: r.u64()? })
    }
}

impl Snap for BankReq {
    fn save(&self, w: &mut Writer) {
        w.u32(self.line);
        w.bool(self.write);
        self.subs.save(w);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok(Self {
            line: r.u32()?,
            write: r.bool()?,
            subs: Vec::load(r)?,
        })
    }
}

impl Snap for CacheStats {
    fn save(&self, w: &mut Writer) {
        w.u64(self.reads);
        w.u64(self.writes);
        w.u64(self.read_hits);
        w.u64(self.read_misses);
        w.u64(self.mshr_merges);
        w.u64(self.offered);
        w.u64(self.accepted);
        w.u64(self.bank_conflicts);
        w.u64(self.fifo_full_rejects);
        w.u64(self.port_coalesced);
        w.u64(self.early_full_stalls);
        w.u64(self.flushes);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok(Self {
            reads: r.u64()?,
            writes: r.u64()?,
            read_hits: r.u64()?,
            read_misses: r.u64()?,
            mshr_merges: r.u64()?,
            offered: r.u64()?,
            accepted: r.u64()?,
            bank_conflicts: r.u64()?,
            fifo_full_rejects: r.u64()?,
            port_coalesced: r.u64()?,
            early_full_stalls: r.u64()?,
            flushes: r.u64()?,
        })
    }
}

/// What occupies a bank pipeline stage.
#[derive(Debug, Clone)]
struct PipeEntry {
    req: BankReq,
    /// Resolved at the tag stage; replays enter as guaranteed hits.
    hit: bool,
    /// `true` while this entry holds a reserved memory-queue slot (taken at
    /// schedule, released at tag resolution). This is the shared-queue
    /// analogue of the paper's early-full signal: without it two banks
    /// could both observe one free slot and overflow the queue a cycle
    /// later.
    memq_reservation: bool,
}

#[derive(Debug)]
struct Bank {
    input: Queue<BankReq>,
    /// Stage registers: `stage[0]` = tag access, `[1]` = data access,
    /// `[2]` = response.
    stage: [Option<PipeEntry>; 3],
    mshr: Mshr,
    /// Fills that arrived from memory, waiting for a schedule slot.
    fills: VecDeque<u32>,
    /// MSHR entries released by a fill, replayed one per cycle.
    replays: VecDeque<BankReq>,
    /// Tag store, set-major: `tags[set * ways + way] = Some(line)` when
    /// valid.
    tags: Vec<Option<u32>>,
    ways: usize,
    /// `log2(num_banks)`: a line's bank-local index is `line >> bank_shift`.
    bank_shift: u32,
    /// `sets - 1` (the set count is a power of two).
    set_mask: usize,
    /// Round-robin victim pointer per set.
    victim: Vec<usize>,
    /// Virtual ports of this bank's newest queued request the selector has
    /// filled this cycle (`None`: bank unclaimed; reset by `begin_cycle`).
    claimed: Option<usize>,
}

impl Bank {
    fn new(config: &CacheConfig) -> Self {
        let sets = config.sets_per_bank();
        Self {
            input: Queue::new(config.input_queue),
            stage: [None, None, None],
            mshr: Mshr::new(config.mshr_size),
            fills: VecDeque::new(),
            replays: VecDeque::new(),
            tags: vec![None; sets * config.num_ways],
            ways: config.num_ways,
            bank_shift: config.num_banks.trailing_zeros(),
            set_mask: sets - 1,
            victim: vec![0; sets],
            claimed: None,
        }
    }

    #[inline]
    fn set_index(&self, line: u32) -> usize {
        (line >> self.bank_shift) as usize & self.set_mask
    }

    /// The ways of `set`.
    #[inline]
    fn set(&self, set: usize) -> &[Option<u32>] {
        &self.tags[set * self.ways..][..self.ways]
    }

    #[inline]
    fn lookup(&self, line: u32) -> bool {
        self.set(self.set_index(line)).contains(&Some(line))
    }

    fn fill_line(&mut self, line: u32) {
        let set = self.set_index(line);
        if self.set(set).contains(&Some(line)) {
            return;
        }
        // Prefer an invalid way, else round-robin eviction (write-through
        // means no writeback on eviction).
        let way = match self.set(set).iter().position(Option::is_none) {
            Some(w) => w,
            None => {
                let w = self.victim[set];
                self.victim[set] = if w + 1 == self.ways { 0 } else { w + 1 };
                w
            }
        };
        self.tags[set * self.ways + way] = Some(line);
    }

    fn invalidate_all(&mut self) {
        self.tags.fill(None);
    }

    fn in_flight(&self) -> bool {
        !self.input.is_empty()
            || self.stage.iter().any(Option::is_some)
            || !self.mshr.is_empty()
            || !self.fills.is_empty()
            || !self.replays.is_empty()
    }

    /// `true` when a tick would move any state in this bank. Unlike
    /// [`Bank::in_flight`], MSHR-only occupancy does not count: entries
    /// parked on an in-flight fill are untouched until the fill lands in
    /// `fills`, so the whole tick body is a no-op until then.
    #[inline]
    fn tick_work(&self) -> bool {
        !self.input.is_empty()
            || self.stage.iter().any(Option::is_some)
            || !self.fills.is_empty()
            || !self.replays.is_empty()
    }

    fn save_state(&self, w: &mut Writer) {
        self.input.save_state(w);
        for stage in &self.stage {
            stage.save(w);
        }
        self.mshr.save_state(w);
        self.fills.save(w);
        self.replays.save(w);
        // Tag array and victim pointers are written in place (geometry is
        // construction state, so no lengths are serialized).
        for way in &self.tags {
            way.save(w);
        }
        for v in &self.victim {
            w.usize(*v);
        }
        self.claimed.save(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.input.restore_state(r)?;
        for stage in &mut self.stage {
            *stage = Option::load(r)?;
        }
        self.mshr.restore_state(r)?;
        self.fills = VecDeque::load(r)?;
        self.replays = VecDeque::load(r)?;
        for way in &mut self.tags {
            *way = Option::load(r)?;
        }
        for v in &mut self.victim {
            let p = r.usize()?;
            if p >= self.ways {
                return Err(SnapError::BadValue("victim pointer"));
            }
            *v = p;
        }
        self.claimed = Option::load(r)?;
        Ok(())
    }
}

impl Snap for PipeEntry {
    fn save(&self, w: &mut Writer) {
        self.req.save(w);
        w.bool(self.hit);
        w.bool(self.memq_reservation);
    }
    fn load(r: &mut Reader<'_>) -> SnapResult<Self> {
        Ok(Self {
            req: BankReq::load(r)?,
            hit: r.bool()?,
            memq_reservation: r.bool()?,
        })
    }
}

/// The multi-banked non-blocking cache.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: a byte address's line is `addr >> line_shift`.
    line_shift: u32,
    /// `num_banks - 1`: a line's bank is `line & bank_mask`.
    bank_mask: usize,
    banks: Vec<Bank>,
    /// Outgoing memory requests (line fills and write-throughs).
    memq: Queue<MemReq>,
    /// Slots of `memq` promised to entries in flight between schedule and
    /// tag resolution.
    memq_reserved: usize,
    /// Coalesced core responses (the bank merger output).
    responses: VecDeque<MemRsp>,
    /// Remaining busy cycles of an in-progress flush.
    flush_busy: u32,
    /// `true` while any bank may hold a per-cycle claim, i.e. since the
    /// last [`Cache::offer`] that accepted a request. Lets
    /// [`Cache::begin_cycle`] skip the bank walk on the (very common)
    /// cycles where no claim was made.
    claims_dirty: bool,
    fault: Option<FaultPlan>,
    /// Retired sub-request buffers kept for reuse: the selector builds one
    /// `subs` vector per accepted bank request, so pooling them keeps the
    /// steady-state request path allocation-free.
    spare_subs: Vec<Vec<SubReq>>,
    /// Performance counters.
    pub stats: CacheStats,
}

/// Queue depths across one cache, for hang diagnosis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Requests queued in bank input FIFOs.
    pub bank_inputs: usize,
    /// Entries in flight in bank pipelines.
    pub pipeline: usize,
    /// Pending core requests held in MSHRs (waiting on fills).
    pub mshr_pending: usize,
    /// Fills delivered but not yet scheduled.
    pub fills: usize,
    /// Released MSHR requests waiting to replay.
    pub replays: usize,
    /// Outgoing memory requests not yet drained by the next level.
    pub memq: usize,
    /// Core responses not yet popped.
    pub responses: usize,
}

impl CacheOccupancy {
    /// `true` when nothing is queued anywhere.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

impl fmt::Display for CacheOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inq={} pipe={} mshr={} fills={} replays={} memq={} rsp={}",
            self.bank_inputs,
            self.pipeline,
            self.mshr_pending,
            self.fills,
            self.replays,
            self.memq,
            self.responses,
        )
    }
}

impl Cache {
    /// Builds a cache from `config`.
    ///
    /// # Panics
    /// Panics on inconsistent geometry (non-power-of-two line/bank counts,
    /// or capacity smaller than one line per bank).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let banks = (0..config.num_banks).map(|_| Bank::new(&config)).collect();
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            bank_mask: config.num_banks - 1,
            banks,
            memq: Queue::new(config.memq_size),
            memq_reserved: 0,
            // Each tick retires at most one bank request per bank, each
            // carrying up to `ports` coalesced subs; owners drain the
            // queue every cycle, so two ticks' worth of headroom keeps
            // the steady state allocation-free.
            responses: VecDeque::with_capacity(config.num_banks * config.ports * 2),
            flush_busy: 0,
            claims_dirty: false,
            fault: None,
            spare_subs: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Attaches a fault plan: the request interface may spuriously refuse a
    /// whole cycle's offers (`elastic_stall`), ready responses may be held
    /// back (`cache_rsp_stall`), and incoming fill tags may be corrupted
    /// (`corrupt` — which strands the real line's MSHR entry, a hang).
    pub fn set_fault(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Detaches any fault plan (recovery masking after a rollback).
    pub fn clear_fault(&mut self) {
        self.fault = None;
    }

    /// Decisions drawn from the attached fault plan so far (0 when no plan
    /// is attached) — input to the per-site determinism audit.
    pub fn fault_draws(&self) -> u64 {
        self.fault.as_ref().map_or(0, FaultPlan::draws)
    }

    /// Core requests currently parked in MSHRs waiting on fills, summed
    /// across banks. Cheaper than a full [`Cache::occupancy`] walk; the
    /// telemetry sampler reads this once per window.
    pub fn mshr_pending(&self) -> usize {
        self.banks.iter().map(|b| b.mshr.pending()).sum()
    }

    /// Queue depths for hang diagnosis.
    pub fn occupancy(&self) -> CacheOccupancy {
        let mut occ = CacheOccupancy {
            memq: self.memq.len(),
            responses: self.responses.len(),
            ..CacheOccupancy::default()
        };
        for bank in &self.banks {
            occ.bank_inputs += bank.input.len();
            occ.pipeline += bank.stage.iter().filter(|s| s.is_some()).count();
            occ.mshr_pending += bank.mshr.pending();
            occ.fills += bank.fills.len();
            occ.replays += bank.replays.len();
        }
        occ
    }

    #[inline]
    fn bank_of(&self, line: u32) -> usize {
        line as usize & self.bank_mask
    }

    /// Non-mutating presence probe: `true` when the line holding `addr` is
    /// resident right now. Touches no stats, queues, or replacement state,
    /// so observers (the PC-level profiler) can ask freely without
    /// perturbing the simulation. A probe is *not* a hit/miss prediction —
    /// an absent line may still coalesce onto an in-flight MSHR entry —
    /// it answers only "was the data already here".
    pub fn probe(&self, addr: u32) -> bool {
        let line = addr >> self.line_shift;
        self.banks[self.bank_of(line)].lookup(line)
    }

    /// `true` when a tick (plus the unconditional per-cycle
    /// [`Cache::begin_cycle`]/[`Cache::offer`] calls the owner makes)
    /// would change no state and draw no fault decision: no fault plan
    /// attached (the request interface draws `elastic_stall` on every
    /// offer, even an empty one), no flush in progress, and nothing
    /// queued in the memory queue, response queue, or any bank's
    /// input/pipeline/fill/replay structures. Banks whose only contents
    /// are MSHR entries parked on in-flight fills qualify — their tick
    /// body is a no-op until the fill arrives from the next level.
    #[inline]
    pub fn ff_idle(&self) -> bool {
        self.fault.is_none()
            && self.flush_busy == 0
            && self.memq.is_empty()
            && self.responses.is_empty()
            && self.banks.iter().all(|b| {
                b.input.is_empty()
                    && b.stage.iter().all(Option::is_none)
                    && b.fills.is_empty()
                    && b.replays.is_empty()
            })
    }

    /// Starts a new cycle: clears the per-cycle bank-claim state used by the
    /// selector. Call once per cycle before [`Cache::offer`] / [`Cache::tick`].
    #[inline]
    pub fn begin_cycle(&mut self) {
        if self.claims_dirty {
            for bank in &mut self.banks {
                bank.claimed = None;
            }
            self.claims_dirty = false;
        }
    }

    /// The bank selector: offers `reqs` (one per active lane) to the banks,
    /// removing the accepted ones from the vector. Implements Algorithm 2's
    /// virtual-port assignment: a bank claimed this cycle still accepts a
    /// request for the *same cache line* while coalesced ports remain.
    ///
    /// Returns the number of requests accepted.
    #[inline]
    pub fn offer(&mut self, reqs: &mut Vec<MemReq>) -> usize {
        if reqs.is_empty() && self.fault.is_none() {
            // Nothing offered and no fault plan to draw from (a plan's
            // `elastic_stall` stream consumes one decision per offer,
            // even an empty one): exactly equivalent to falling through
            // the selector loop zero times.
            return 0;
        }
        if self.flush_busy > 0 {
            return 0;
        }
        if let Some(plan) = &mut self.fault {
            if plan.stall_elastic() {
                // Injected handshake stall: the selector refuses this offer
                // wholesale; the requester retries next cycle.
                return 0;
            }
        }
        let mut accepted = 0;
        // Per-bank slot being assembled this cycle: (line, write, sub count).
        let mut i = 0;
        while i < reqs.len() {
            let req = reqs[i];
            let line = req.addr >> self.line_shift;
            let bank_idx = self.bank_of(line);
            self.stats.offered += 1;
            let ports = self.config.ports;
            let bank = &mut self.banks[bank_idx];

            let take = |bank: &mut Bank,
                        stats: &mut CacheStats,
                        spares: &mut Vec<Vec<SubReq>>|
             -> bool {
                // New claim: needs input FIFO space.
                if bank.input.is_full() {
                    stats.fifo_full_rejects += 1;
                    return false;
                }
                let mut subs = spares.pop().unwrap_or_default();
                subs.push(SubReq { tag: req.tag });
                bank.input
                    .push(BankReq {
                        line,
                        write: req.write,
                        subs,
                    })
                    .expect("space just checked");
                bank.claimed = Some(1);
                true
            };

            let ok = match bank.claimed {
                None => take(bank, &mut self.stats, &mut self.spare_subs),
                Some(used) => {
                    // Algorithm 2: coalesce onto the claimed slot when the
                    // line matches and a virtual port is free. The newest
                    // queued request is widened in place.
                    let newest = bank
                        .input
                        .back_mut()
                        .expect("claimed bank has a queued request");
                    if used < ports && newest.line == line && newest.write == req.write {
                        newest.subs.push(SubReq { tag: req.tag });
                        bank.claimed = Some(used + 1);
                        self.stats.port_coalesced += 1;
                        true
                    } else {
                        self.stats.bank_conflicts += 1;
                        false
                    }
                }
            };

            if ok {
                if req.write {
                    self.stats.writes += 1;
                } else {
                    self.stats.reads += 1;
                }
                self.stats.accepted += 1;
                accepted += 1;
                reqs.remove(i);
            } else {
                i += 1;
            }
        }
        if accepted > 0 {
            // At least one bank took a claim this cycle; the next
            // `begin_cycle` must walk the banks to clear it.
            self.claims_dirty = true;
        }
        accepted
    }

    /// Advances all bank pipelines one cycle.
    #[inline]
    pub fn tick(&mut self) {
        if self.flush_busy > 0 {
            self.flush_busy -= 1;
        }
        let line_shift = self.line_shift;
        for bank in &mut self.banks {
            // Workless banks have nothing to shuffle: every stage move and
            // the scheduler below are no-ops, so skipping them changes no
            // state and no stats. Most banks are workless most cycles (the
            // I-cache answers warm fetches via `lookup_for_fetch`, the
            // D-cache sleeps through compute phases, and banks whose only
            // contents are MSHR entries spend whole DRAM round trips
            // waiting for a fill), so this is a large fraction of the
            // simulator's per-cycle cost.
            if !bank.tick_work() {
                continue;
            }
            // Response stage: emit one response per sub (reads only), then
            // recycle the retired request's sub-request buffer.
            if let Some(entry) = bank.stage[2].take() {
                debug_assert!(entry.hit || entry.req.write, "misses never reach response");
                if !entry.req.write {
                    for sub in &entry.req.subs {
                        self.responses.push_back(MemRsp { tag: sub.tag });
                    }
                }
                let mut subs = entry.req.subs;
                if self.spare_subs.len() < 64 {
                    subs.clear();
                    self.spare_subs.push(subs);
                }
            }
            // Data → response.
            if bank.stage[2].is_none() {
                bank.stage[2] = bank.stage[1].take();
            }
            // Tag → data: resolve hit/miss.
            if bank.stage[1].is_none() {
                if let Some(mut entry) = bank.stage[0].take() {
                    if entry.memq_reservation {
                        self.memq_reserved -= 1;
                        entry.memq_reservation = false;
                    }
                    if entry.hit {
                        // Replayed request: guaranteed hit.
                        bank.stage[1] = Some(entry);
                    } else if entry.req.write {
                        // Write-through, no-write-allocate: forward to
                        // memory (space reserved at schedule) and complete.
                        self.memq
                            .push(MemReq {
                                tag: entry.req.line as Tag,
                                addr: entry.req.line << line_shift,
                                write: true,
                            })
                            .expect("memq space reserved at schedule");
                        entry.hit = bank.lookup(entry.req.line);
                        bank.stage[1] = Some(entry);
                    } else if bank.lookup(entry.req.line) {
                        self.stats.read_hits += entry.req.subs.len() as u64;
                        entry.hit = true;
                        bank.stage[1] = Some(entry);
                    } else {
                        // Read miss: allocate/merge MSHR; issue a fill only
                        // for primary misses.
                        self.stats.read_misses += entry.req.subs.len() as u64;
                        let line = entry.req.line;
                        let primary = bank.mshr.allocate(line, entry.req);
                        if primary {
                            self.memq
                                .push(MemReq {
                                    tag: line as Tag,
                                    addr: line << line_shift,
                                    write: false,
                                })
                                .expect("memq space reserved at schedule");
                        } else {
                            self.stats.mshr_merges += 1;
                        }
                    }
                }
            }
            // Schedule: fill > replay > core request (the paper gives the
            // MSHR path priority over new core requests).
            if bank.stage[0].is_none() {
                if let Some(line) = bank.fills.pop_front() {
                    bank.fill_line(line);
                    let released = bank.mshr.release(line);
                    bank.replays.extend(released);
                } else if let Some(req) = bank.replays.pop_front() {
                    bank.stage[0] = Some(PipeEntry {
                        req,
                        hit: true,
                        memq_reservation: false,
                    });
                } else if let Some(front) = bank.input.front() {
                    // Early-full checks: a read may need an MSHR slot per
                    // sub and one memq slot; a write needs one memq slot.
                    // The memq check accounts for slots already promised to
                    // other banks' in-flight entries.
                    let subs = front.subs.len();
                    let memq_ok = self.memq.space() > self.memq_reserved;
                    let ok = if front.write {
                        memq_ok
                    } else {
                        bank.mshr.space() >= subs && memq_ok
                    };
                    if ok {
                        let req = bank.input.pop().expect("front just peeked");
                        self.memq_reserved += 1;
                        bank.stage[0] = Some(PipeEntry {
                            req,
                            hit: false,
                            memq_reservation: true,
                        });
                    } else {
                        self.stats.early_full_stalls += 1;
                    }
                }
            }
        }
    }

    /// Fast-path tag probe for instruction fetch: SIMT fetch needs one
    /// word per cycle from a single bank, so the RTL's I-cache answers
    /// hits in two cycles without arbitration. Returns `true` (and counts
    /// a read hit) when `addr`'s line is resident; on `false` the caller
    /// sends the fetch through the normal miss pipeline, which does its
    /// own accounting.
    #[inline]
    pub fn lookup_for_fetch(&mut self, addr: u32) -> bool {
        if self.flush_busy > 0 {
            return false;
        }
        let line = addr >> self.line_shift;
        let bank = self.bank_of(line);
        if self.banks[bank].lookup(line) {
            self.stats.reads += 1;
            self.stats.read_hits += 1;
            true
        } else {
            false
        }
    }

    /// Pops one coalesced core response. An attached fault plan may hold a
    /// ready response back (`cache_rsp_stall`); it stays queued for a retry.
    #[inline]
    pub fn pop_rsp(&mut self) -> Option<MemRsp> {
        if let Some(plan) = &mut self.fault {
            if !self.responses.is_empty() && plan.stall_cache_rsp() {
                return None;
            }
        }
        self.responses.pop_front()
    }

    /// Pops one outgoing memory request (drained by the next level).
    pub fn pop_mem_req(&mut self) -> Option<MemReq> {
        self.memq.pop()
    }

    /// Peeks the outgoing memory request queue.
    pub fn peek_mem_req(&self) -> Option<&MemReq> {
        self.memq.front()
    }

    /// Outgoing memory requests currently queued.
    #[inline]
    pub fn mem_req_count(&self) -> usize {
        self.memq.len()
    }

    /// Removes and yields the `n` oldest outgoing memory requests in one
    /// batched transfer — equivalent to `n` `pop_mem_req` calls. Callers
    /// size `n` against the next level's guaranteed admission count so
    /// the per-request peek/pop handshake disappears from the drain path.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`Cache::mem_req_count`].
    #[inline]
    pub fn drain_mem_reqs(&mut self, n: usize) -> impl Iterator<Item = MemReq> + '_ {
        self.memq.drain_front(n)
    }

    /// Delivers a memory fill response (tag = line address). An attached
    /// fault plan may corrupt the fill tag, filling the wrong line and
    /// stranding the requests parked on the real one — the MSHR-starvation
    /// hang the watchdog exists to diagnose.
    #[inline]
    pub fn push_mem_rsp(&mut self, rsp: MemRsp) {
        let mut line = rsp.tag as u32;
        if let Some(plan) = &mut self.fault {
            plan.corrupt(&mut line);
        }
        let bank = self.bank_of(line);
        self.banks[bank].fills.push_back(line);
    }

    /// Begins a flush: invalidates every line and keeps the cache busy for
    /// `sets_per_bank` cycles (the tag-walk cost). Provides the paper's
    /// weak-coherence `fence`/flush operation.
    pub fn flush(&mut self) {
        for bank in &mut self.banks {
            bank.invalidate_all();
        }
        self.flush_busy = self.config.sets_per_bank() as u32;
        self.stats.flushes += 1;
    }

    /// `true` while a flush is in progress.
    pub fn is_flushing(&self) -> bool {
        self.flush_busy > 0
    }

    /// `true` when no request is anywhere in the cache (used by `fence`).
    pub fn is_idle(&self) -> bool {
        self.flush_busy == 0
            && self.memq.is_empty()
            && self.responses.is_empty()
            && self.banks.iter().all(|b| !b.in_flight())
    }

    /// Appends every architectural bit of the cache: bank pipelines,
    /// MSHRs, tag arrays, queues, fault-plan position and counters. The
    /// geometry itself is construction state (covered by the snapshot's
    /// config fingerprint) and is not serialized.
    pub fn save_state(&self, w: &mut Writer) {
        for bank in &self.banks {
            bank.save_state(w);
        }
        self.memq.save_state(w);
        w.usize(self.memq_reserved);
        self.responses.save(w);
        w.u32(self.flush_busy);
        self.fault.save(w);
        self.stats.save(w);
    }

    /// Restores the cache in place. The sub-request spare pool is scratch
    /// (buffers are cleared before reuse) and restores empty.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        for bank in &mut self.banks {
            bank.restore_state(r)?;
        }
        self.memq.restore_state(r)?;
        self.memq_reserved = r.usize()?;
        if self.memq_reserved > self.config.memq_size {
            return Err(SnapError::BadValue("memq reservations"));
        }
        // Load responses into the existing backing buffer so the
        // construction-time capacity reservation survives a restore.
        let n = r.len(8)?;
        self.responses.clear();
        for _ in 0..n {
            self.responses.push_back(MemRsp::load(r)?);
        }
        self.flush_busy = r.u32()?;
        self.fault = Option::load(r)?;
        self.stats = CacheStats::load(r)?;
        self.spare_subs.clear();
        // Bank claims are part of the snapshot; recompute the host-side
        // dirty flag so the next `begin_cycle` clears any restored claim.
        self.claims_dirty = self.banks.iter().any(|b| b.claimed.is_some());
        Ok(())
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ports: usize) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 64,
            num_banks: 4,
            num_ways: 1,
            ports,
            mshr_size: 8,
            input_queue: 2,
            memq_size: 8,
        })
    }

    fn with_geometry(size_bytes: u32, num_banks: usize, num_ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes,
            num_banks,
            num_ways,
            ..CacheConfig::dcache_default()
        }
    }

    #[test]
    #[should_panic(expected = "not divisible by banks x ways")]
    fn line_count_must_divide_into_banks_and_ways() {
        // 8 lines / 2 banks / 3 ways used to model 384 B silently.
        let _ = Cache::new(with_geometry(512, 2, 3));
    }

    #[test]
    #[should_panic(expected = "set count not a power of two")]
    fn set_count_must_be_a_power_of_two() {
        let _ = Cache::new(with_geometry(768, 2, 2)); // 3 sets per bank
    }

    /// The resolved shifts and masks index exactly as the divisions they
    /// replaced, on every geometry the repository builds.
    #[test]
    fn shift_and_mask_indexing_equals_division() {
        let mut geometries = vec![
            CacheConfig::icache_default(),
            crate::hierarchy::l2_default(),
            crate::hierarchy::l3_default(),
            with_geometry(1024, 4, 1), // `small_cache`
            with_geometry(512, 2, 1),  // tests/cache_edge.rs
            with_geometry(512, 2, 2),
            with_geometry(2048, 4, 1), // tests/cache_props.rs
        ];
        geometries.extend([2, 4, 8].map(|banks| with_geometry(16 * 1024, banks, 1)));
        for config in geometries {
            let c = Cache::new(config);
            let sets = config.sets_per_bank();
            assert_eq!(c.banks[0].tags.len(), sets * config.num_ways);
            for addr in (0..1u32 << 20).step_by(52).chain([u32::MAX, u32::MAX - 63]) {
                let line = addr / config.line_bytes;
                assert_eq!(addr >> c.line_shift, line, "{config:?}");
                assert_eq!(c.bank_of(line), line as usize % config.num_banks);
                assert_eq!(
                    c.banks[0].set_index(line),
                    (line as usize / config.num_banks) % sets,
                    "{config:?} line {line}"
                );
            }
        }
    }

    /// Runs the cache with a perfect (instant) next level until idle,
    /// collecting responses.
    fn run_until_idle(cache: &mut Cache, mut reqs: Vec<MemReq>, max_cycles: u64) -> Vec<Tag> {
        let mut got = Vec::new();
        for _ in 0..max_cycles {
            cache.begin_cycle();
            cache.offer(&mut reqs);
            cache.tick();
            // Perfect memory: respond to fills instantly next cycle.
            while let Some(mreq) = cache.pop_mem_req() {
                if !mreq.write {
                    cache.push_mem_rsp(MemRsp { tag: mreq.tag });
                }
            }
            while let Some(rsp) = cache.pop_rsp() {
                got.push(rsp.tag);
            }
            if reqs.is_empty() && cache.is_idle() {
                break;
            }
        }
        got
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small_cache(1);
        let got = run_until_idle(&mut c, vec![MemReq::read(1, 0x100)], 100);
        assert_eq!(got, vec![1]);
        assert_eq!(c.stats.read_misses, 1);
        // Second access to the same line hits.
        let got = run_until_idle(&mut c, vec![MemReq::read(2, 0x104)], 100);
        assert_eq!(got, vec![2]);
        assert_eq!(c.stats.read_hits, 1);
    }

    #[test]
    fn secondary_miss_merges_in_mshr() {
        let mut c = small_cache(1);
        // Two reads to the same line in back-to-back cycles: the second
        // must merge, producing a single memory request.
        let mut reqs = vec![MemReq::read(1, 0x200), MemReq::read(2, 0x204)];
        let mut mem_reads = 0;
        let mut got = Vec::new();
        for _ in 0..200 {
            c.begin_cycle();
            c.offer(&mut reqs);
            c.tick();
            while let Some(mreq) = c.pop_mem_req() {
                if !mreq.write {
                    mem_reads += 1;
                    c.push_mem_rsp(MemRsp { tag: mreq.tag });
                }
            }
            while let Some(rsp) = c.pop_rsp() {
                got.push(rsp.tag);
            }
            if reqs.is_empty() && c.is_idle() {
                break;
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(mem_reads, 1, "secondary miss must not issue a second fill");
        assert_eq!(c.stats.mshr_merges, 1);
    }

    #[test]
    fn bank_conflict_without_ports_serializes() {
        let mut c = small_cache(1);
        // Same bank (same line even), offered in the same cycle.
        let mut reqs = vec![MemReq::read(1, 0x300), MemReq::read(2, 0x300)];
        c.begin_cycle();
        let accepted = c.offer(&mut reqs);
        assert_eq!(accepted, 1, "single-port bank takes one request/cycle");
        assert_eq!(c.stats.bank_conflicts, 1);
    }

    #[test]
    fn virtual_ports_coalesce_same_line() {
        let mut c = small_cache(2);
        let mut reqs = vec![MemReq::read(1, 0x300), MemReq::read(2, 0x304)];
        c.begin_cycle();
        let accepted = c.offer(&mut reqs);
        assert_eq!(accepted, 2, "2-port bank coalesces same-line pair");
        assert_eq!(c.stats.bank_conflicts, 0);
        assert_eq!(c.stats.port_coalesced, 1);
    }

    #[test]
    fn virtual_ports_do_not_coalesce_different_lines() {
        let mut c = small_cache(4);
        // Same bank (line 0 and line 4 both map to bank 0), different lines.
        let mut reqs = vec![MemReq::read(1, 0x000), MemReq::read(2, 0x400)];
        c.begin_cycle();
        let accepted = c.offer(&mut reqs);
        assert_eq!(accepted, 1);
        assert_eq!(c.stats.bank_conflicts, 1);
    }

    #[test]
    fn writes_pass_through_without_response() {
        let mut c = small_cache(1);
        let mut reqs = vec![MemReq::write(1, 0x500)];
        let mut wrote = 0;
        for _ in 0..50 {
            c.begin_cycle();
            c.offer(&mut reqs);
            c.tick();
            while let Some(mreq) = c.pop_mem_req() {
                assert!(mreq.write);
                wrote += 1;
            }
            assert!(c.pop_rsp().is_none(), "stores produce no core response");
            if reqs.is_empty() && c.is_idle() {
                break;
            }
        }
        assert_eq!(wrote, 1);
        assert_eq!(c.stats.writes, 1);
    }

    #[test]
    fn flush_invalidates_and_busies() {
        let mut c = small_cache(1);
        let _ = run_until_idle(&mut c, vec![MemReq::read(1, 0x100)], 100);
        c.flush();
        assert!(c.is_flushing());
        assert_eq!(c.stats.flushes, 1);
        // Offer during flush is refused.
        c.begin_cycle();
        let mut reqs = vec![MemReq::read(2, 0x100)];
        assert_eq!(c.offer(&mut reqs), 0);
        // Wait out the flush, then the access misses again.
        for _ in 0..c.config().sets_per_bank() + 1 {
            c.begin_cycle();
            c.tick();
        }
        let got = run_until_idle(&mut c, reqs, 100);
        assert_eq!(got, vec![2]);
        assert_eq!(c.stats.read_misses, 2, "flush must invalidate the line");
    }

    #[test]
    fn utilization_reflects_conflicts() {
        let mut c = small_cache(1);
        let mut reqs = vec![MemReq::read(1, 0x300), MemReq::read(2, 0x300)];
        c.begin_cycle();
        c.offer(&mut reqs);
        assert!(c.stats.bank_utilization() < 1.0);
        let c2 = small_cache(1);
        assert_eq!(c2.stats.bank_utilization(), 1.0);
    }

    #[test]
    fn idle_cache_has_no_measured_hit_rate() {
        // Regression: an idle cache used to be indistinguishable from a
        // perfectly-hitting one (`hit_rate() == 1.0` either way), so
        // reports printed a phantom "100%" for cores that never loaded.
        let idle = CacheStats::default();
        assert_eq!(idle.measured_hit_rate(), None);
        assert_eq!(idle.hit_rate(), 1.0, "vacuous convention is kept");
        let mut c = small_cache(1);
        let _ = run_until_idle(&mut c, vec![MemReq::read(1, 0x100)], 100);
        let measured = c.stats.measured_hit_rate().expect("read was served");
        assert_eq!(measured, c.stats.hit_rate());
    }
}
