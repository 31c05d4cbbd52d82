//! The multi-level memory hierarchy.
//!
//! Composes the levels of Figure 4: per-core L1 caches below an optional
//! shared L2 per cluster, an optional L3 shared by clusters, and the DRAM
//! at the bottom. [`MemHierarchy`] owns everything *above* the L1s: it
//! exposes one port per core on which the cores push their L1 miss traffic
//! and receive fills back.
//!
//! Tag management: every level re-tags requests with a fresh id and records
//! `(source port, original tag)` so responses route back even when two
//! cores fill the same line address concurrently.
//!
//! # Edges
//!
//! Traffic moves down the hierarchy along two kinds of edge, one function
//! each. Cache → [`SharedLevel`] (L1→L2, L2→L3) is a pure capacity
//! handshake and always transfers as one batch. Cache → DRAM (the last
//! cache level's miss queue — on a flat topology the L1's own) is one
//! batch too, unless a DRAM fault plan draws a decision per handshake.
//! [`MemHierarchy::tick`] runs the levels top-down in ascending cluster
//! order, then routes DRAM and L3 completions back up as fills.

use crate::cache::{Cache, CacheConfig, CacheOccupancy};
use crate::dram::{Dram, DramConfig};
use crate::req::{MemReq, MemRsp, Tag};
use std::collections::VecDeque;
use std::fmt;
use vortex_faults::{site, FaultConfig};
use vortex_snapshot::{Reader, Snap, SnapError, SnapResult, Writer};

/// Hierarchy shape above the L1s.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Number of core ports (one per core: I$ + D$ traffic share it).
    pub num_cores: usize,
    /// Cores per cluster (for L2 sharing); must divide `num_cores`.
    pub cores_per_cluster: usize,
    /// Optional shared L2 per cluster.
    pub l2: Option<CacheConfig>,
    /// Optional L3 shared by all clusters.
    pub l3: Option<CacheConfig>,
    /// DRAM parameters.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// A hierarchy with no L2/L3: cores talk straight to DRAM.
    pub fn flat(num_cores: usize, dram: DramConfig) -> Self {
        Self {
            num_cores,
            cores_per_cluster: num_cores.max(1),
            l2: None,
            l3: None,
            dram,
        }
    }

    fn num_clusters(&self) -> usize {
        self.num_cores.div_ceil(self.cores_per_cluster)
    }
}

/// Default L2: 128 KiB, 8 banks, 64 B lines.
pub fn l2_default() -> CacheConfig {
    CacheConfig {
        size_bytes: 128 * 1024,
        line_bytes: 64,
        num_banks: 8,
        num_ways: 2,
        ports: 1,
        mshr_size: 32,
        input_queue: 4,
        memq_size: 16,
    }
}

/// Default L3: 512 KiB, 8 banks, 64 B lines.
pub fn l3_default() -> CacheConfig {
    CacheConfig {
        size_bytes: 512 * 1024,
        line_bytes: 64,
        num_banks: 8,
        num_ways: 4,
        ports: 1,
        mshr_size: 64,
        input_queue: 4,
        memq_size: 16,
    }
}

/// Remembers where a re-tagged request came from.
///
/// The wrapped tag *is* the slot index, so routing a response back is an
/// array read instead of a hash lookup, and a slot freed by one response is
/// reused by a later request without touching the allocator. The free list
/// is LIFO and its order is part of the serialized state: future tag values
/// ride inside in-flight `MemReq`s, so a restore must replay the exact same
/// assignment sequence. Tag values are otherwise opaque — no level orders
/// or times on them — which keeps slot reuse timing-invariant.
#[derive(Debug)]
struct TagTable {
    slots: Vec<Option<(usize, Tag)>>,
    /// Free slot indices, popped LIFO.
    free: Vec<Tag>,
    live: usize,
    /// Most slots ever simultaneously live (host diagnostic, not state).
    high_water: usize,
    /// Times the table grew past its reservation. Zero on fault-free runs;
    /// dropped DRAM responses (fault injection) strand slots by design and
    /// may force growth.
    grows: u64,
}

impl TagTable {
    fn with_capacity(cap: usize) -> Self {
        Self {
            slots: vec![None; cap],
            // Reverse so pops hand out 0, 1, 2, … — matches a fresh table's
            // natural numbering and keeps unit-test tags readable.
            free: (0..cap as Tag).rev().collect(),
            live: 0,
            high_water: 0,
            grows: 0,
        }
    }

    fn wrap(&mut self, port: usize, orig: Tag) -> Tag {
        let tag = match self.free.pop() {
            Some(t) => t,
            None => {
                self.grows += 1;
                self.slots.push(None);
                (self.slots.len() - 1) as Tag
            }
        };
        self.slots[tag as usize] = Some((port, orig));
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        tag
    }

    fn unwrap(&mut self, tag: Tag) -> Option<(usize, Tag)> {
        let entry = self.slots.get_mut(tag as usize)?.take()?;
        self.free.push(tag);
        self.live -= 1;
        Some(entry)
    }

    fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Serialized as the full slot array plus the free list *in order* —
    /// the LIFO order decides which tag values future requests get, and
    /// those values must match the ones already riding in serialized
    /// in-flight requests.
    fn save_state(&self, w: &mut Writer) {
        self.slots.save(w);
        self.free.save(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        let slots = Vec::<Option<(usize, Tag)>>::load(r)?;
        let free = Vec::<Tag>::load(r)?;
        let live = slots.iter().filter(|s| s.is_some()).count();
        if live + free.len() != slots.len() {
            return Err(SnapError::BadValue("tag table accounting"));
        }
        for &f in &free {
            match slots.get(f as usize) {
                Some(None) => {}
                _ => return Err(SnapError::BadValue("tag table free list")),
            }
        }
        self.slots = slots;
        self.free = free;
        self.live = live;
        self.high_water = live;
        self.grows = 0;
        Ok(())
    }
}

/// A cache level shared by several upstream ports.
///
/// All queues are reserved at construction and never reallocate in steady
/// state: `pending` is bounded by its admission check, each `rsp_out` queue
/// is drained every cycle and can gain at most a tick's worth of cache
/// responses, and the tag table is sized for the level's maximum number of
/// in-flight reads.
#[derive(Debug)]
struct SharedLevel {
    cache: Cache,
    tags: TagTable,
    /// Requests admitted from upstream but not yet accepted by the bank
    /// selector (bounded by the selector's own backpressure).
    pending: Vec<MemReq>,
    /// Admission bound for `pending`: two slots per upstream port.
    pending_cap: usize,
    /// Responses routed back per upstream port.
    rsp_out: Vec<VecDeque<MemRsp>>,
    /// Most responses ever queued on one port (host diagnostic, not state).
    rsp_high_water: usize,
}

impl SharedLevel {
    fn new(config: CacheConfig, ports: usize) -> Self {
        let pending_cap = ports * 2;
        let rsp_reserved = Self::rsp_reservation(&config);
        // Reads alive inside the level: staged admissions, bank input
        // queues, pipeline stages, replays, and MSHR subscribers.
        let tag_cap = pending_cap
            + config.num_banks * (config.input_queue + 4) * config.ports.max(1)
            + 2 * config.num_banks * config.mshr_size;
        Self {
            cache: Cache::new(config),
            tags: TagTable::with_capacity(tag_cap),
            pending: Vec::with_capacity(pending_cap),
            pending_cap,
            rsp_out: (0..ports)
                .map(|_| VecDeque::with_capacity(rsp_reserved))
                .collect(),
            rsp_high_water: 0,
        }
    }

    /// Reservation for each `rsp_out` queue. A single tick can retire at
    /// most one access per bank stage, but a fill releasing MSHR
    /// subscribers can surface a burst; reserve for the worst realistic
    /// burst (the allocation test audits `rsp_high_water` against this).
    fn rsp_reservation(config: &CacheConfig) -> usize {
        config.num_banks * config.ports.max(1) * 4 + 16
    }

    /// Free admission slots. With no fault gate on this handshake (the
    /// bound is pure capacity), this many [`SharedLevel::admit`] calls are
    /// guaranteed to succeed back to back.
    fn space(&self) -> usize {
        self.pending_cap - self.pending.len()
    }

    /// Admits an upstream request unconditionally; the caller has checked
    /// [`SharedLevel::space`].
    fn admit(&mut self, port: usize, req: MemReq) {
        debug_assert!(self.pending.len() < self.pending_cap);
        // Writes never produce responses, so don't record a routing entry
        // for them (it would never be reclaimed).
        let tag = if req.write {
            0
        } else {
            self.tags.wrap(port, req.tag)
        };
        self.pending.push(MemReq {
            tag,
            addr: req.addr,
            write: req.write,
        });
    }

    /// The cache → shared-level edge: `cache`'s miss traffic moves in as one
    /// batch against [`SharedLevel::space`], tags OR-ed with `tag_bits`.
    fn accept_from(&mut self, cache: &mut Cache, port: usize, tag_bits: Tag) {
        let n = cache.mem_req_count().min(self.space());
        for req in cache.drain_mem_reqs(n) {
            self.admit(port, tagged(req, tag_bits));
        }
    }

    /// Admits an upstream request if the pending buffer has room.
    fn push_req(&mut self, port: usize, req: MemReq) -> Result<(), MemReq> {
        if self.pending.len() >= self.pending_cap {
            return Err(req);
        }
        self.admit(port, req);
        Ok(())
    }

    fn begin_cycle(&mut self) {
        self.cache.begin_cycle();
    }

    fn tick(&mut self) {
        self.cache.offer(&mut self.pending);
        self.cache.tick();
        while let Some(rsp) = self.cache.pop_rsp() {
            if let Some((port, orig)) = self.tags.unwrap(rsp.tag) {
                let q = &mut self.rsp_out[port];
                q.push_back(MemRsp { tag: orig });
                self.rsp_high_water = self.rsp_high_water.max(q.len());
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.cache.is_idle()
            && self.rsp_out.iter().all(VecDeque::is_empty)
    }

    /// `true` when a tick would change no state and draw no fault
    /// decision: nothing staged for the selector, nothing routed back
    /// upstream, and the cache itself fast-forward idle (which also
    /// rules out an attached fault plan). MSHR entries parked on
    /// in-flight fills do not disqualify — the fill wakes the level.
    fn ff_idle(&self) -> bool {
        self.pending.is_empty()
            && self.cache.ff_idle()
            && self.rsp_out.iter().all(VecDeque::is_empty)
    }

    fn save_state(&self, w: &mut Writer) {
        self.cache.save_state(w);
        self.tags.save_state(w);
        self.pending.save(w);
        for q in &self.rsp_out {
            q.save(w);
        }
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        self.cache.restore_state(r)?;
        self.tags.restore_state(r)?;
        let n = r.len(1)?;
        if n > self.pending_cap {
            return Err(SnapError::BadValue("pending occupancy"));
        }
        self.pending.clear();
        for _ in 0..n {
            self.pending.push(MemReq::load(r)?);
        }
        for q in &mut self.rsp_out {
            let n = r.len(8)?;
            q.clear();
            for _ in 0..n {
                q.push_back(MemRsp::load(r)?);
            }
        }
        Ok(())
    }
}

/// `req` with `bits` OR-ed into its tag.
fn tagged(req: MemReq, bits: Tag) -> MemReq {
    MemReq {
        tag: req.tag | bits,
        ..req
    }
}

/// One request across the DRAM handshake, re-tagged for routing back to
/// `port`.
fn push_to_dram(
    dram: &mut Dram,
    tags: &mut TagTable,
    port: usize,
    req: MemReq,
) -> Result<(), MemReq> {
    if !dram.can_accept() {
        return Err(req);
    }
    // Writes never produce responses, so they take no routing entry.
    let tag = if req.write { 0 } else { tags.wrap(port, req.tag) };
    dram.push_req(MemReq { tag, ..req }).map_err(|_| {
        // The push can fail even after `can_accept` when a fault plan
        // stalls the handshake: reclaim the routing tag or it leaks and
        // the hierarchy never reads as idle again.
        if !req.write {
            tags.unwrap(tag);
        }
        req
    })
}

/// The cache → DRAM edge: `cache`'s miss traffic moves into the DRAM input
/// queue, tags OR-ed with `tag_bits` and re-tagged for routing back to
/// `port`. Fault-free, the queue hands out guaranteed capacity, so the
/// transfer is one batched drain; with a DRAM fault plan attached every
/// push must draw its own handshake decision, so the per-request loop
/// preserves the exact decision stream.
fn drain_to_dram(
    dram: &mut Dram,
    tags: &mut TagTable,
    cache: &mut Cache,
    port: usize,
    tag_bits: Tag,
) {
    if dram.has_fault() {
        while let Some(&req) = cache.peek_mem_req() {
            if push_to_dram(dram, tags, port, tagged(req, tag_bits)).is_err() {
                break;
            }
            cache.pop_mem_req();
        }
        return;
    }
    let n = cache.mem_req_count().min(dram.space());
    for req in cache.drain_mem_reqs(n) {
        let pushed = push_to_dram(dram, tags, port, tagged(req, tag_bits));
        debug_assert!(pushed.is_ok(), "space() guaranteed this push");
    }
}

/// The memory system above the per-core L1 caches.
#[derive(Debug)]
pub struct MemHierarchy {
    config: HierarchyConfig,
    /// Per-cluster shared L2s (empty when no L2 is configured).
    l2: Vec<SharedLevel>,
    /// Core id → (cluster, upstream port on that cluster's L2), resolved
    /// once so the per-cycle paths never divide by the cluster size.
    route: Vec<(usize, usize)>,
    l3: Option<SharedLevel>,
    dram: Dram,
    dram_tags: TagTable,
    /// Per-core response queues (flat topology only; with L2s configured,
    /// responses ride the L2s' port queues instead).
    core_rsp: Vec<VecDeque<MemRsp>>,
}

impl MemHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    /// Panics if `cores_per_cluster` is zero.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores_per_cluster > 0, "cluster size must be non-zero");
        let clusters = config.num_clusters();
        let l2 = match &config.l2 {
            Some(cfg) => (0..clusters)
                .map(|_| SharedLevel::new(*cfg, config.cores_per_cluster))
                .collect(),
            None => Vec::new(),
        };
        let l3 = config
            .l3
            .as_ref()
            .map(|cfg| SharedLevel::new(*cfg, clusters.max(1)));
        let dcfg = config.dram;
        let dram_cap = dcfg.queue_size + dcfg.channels as usize * dcfg.latency as usize + 8;
        Self {
            l2,
            route: (0..config.num_cores)
                .map(|c| (c / config.cores_per_cluster, c % config.cores_per_cluster))
                .collect(),
            l3,
            dram: Dram::new(dcfg),
            dram_tags: TagTable::with_capacity(dram_cap),
            core_rsp: (0..config.num_cores).map(|_| VecDeque::new()).collect(),
            config,
        }
    }

    /// Moves `cache`'s queued miss traffic — an L1 of `core` — into the
    /// level below it, tags OR-ed with `tag_bits` so the caller can tell
    /// its L1s apart when the fills come back. Whatever does not fit stays
    /// queued in the cache and retries next cycle.
    #[inline]
    pub fn accept_from(&mut self, core: usize, cache: &mut Cache, tag_bits: Tag) {
        if cache.mem_req_count() == 0 {
            return;
        }
        if self.l2.is_empty() {
            drain_to_dram(&mut self.dram, &mut self.dram_tags, cache, core, tag_bits);
        } else {
            let (cluster, port) = self.route[core];
            self.l2[cluster].accept_from(cache, port, tag_bits);
        }
    }

    /// Pushes one L1 miss-traffic request from `core`: the single-request
    /// form of [`MemHierarchy::accept_from`]. Fails on backpressure; the
    /// caller retries next cycle.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn push_req(&mut self, core: usize, req: MemReq) -> Result<(), MemReq> {
        assert!(core < self.config.num_cores, "core id out of range");
        if self.l2.is_empty() {
            push_to_dram(&mut self.dram, &mut self.dram_tags, core, req)
        } else {
            let (cluster, port) = self.route[core];
            self.l2[cluster].push_req(port, req)
        }
    }

    /// Pops one fill response destined for `core`.
    #[inline]
    pub fn pop_rsp(&mut self, core: usize) -> Option<MemRsp> {
        if self.l2.is_empty() {
            self.core_rsp[core].pop_front()
        } else {
            let (cluster, port) = self.route[core];
            self.l2[cluster].rsp_out[port].pop_front()
        }
    }

    /// Advances every shared level and the DRAM by one cycle, top-down in
    /// ascending cluster order, then routes completions back up. A level
    /// whose tick would change no state and draw no fault decision
    /// ([`SharedLevel::ff_idle`]) is skipped; an admission makes it
    /// non-idle, so nothing staged is ever stranded.
    pub fn tick(&mut self) {
        let num_cores = self.config.num_cores;
        let nl2 = self.l2.len();

        // L2s, and their miss traffic → L3 (or DRAM).
        for (ci, l2) in self.l2.iter_mut().enumerate() {
            if !l2.ff_idle() {
                l2.begin_cycle();
                l2.tick();
            }
            match &mut self.l3 {
                Some(l3) => l3.accept_from(&mut l2.cache, ci, 0),
                None => drain_to_dram(
                    &mut self.dram,
                    &mut self.dram_tags,
                    &mut l2.cache,
                    num_cores + ci,
                    0,
                ),
            }
        }

        if let Some(l3) = &mut self.l3 {
            if !l3.ff_idle() {
                l3.begin_cycle();
                l3.tick();
                drain_to_dram(
                    &mut self.dram,
                    &mut self.dram_tags,
                    &mut l3.cache,
                    num_cores + nl2,
                    0,
                );
            }
        }

        self.dram.tick();

        // DRAM responses → owning level.
        while let Some(rsp) = self.dram.pop_rsp() {
            let Some((port, orig)) = self.dram_tags.unwrap(rsp.tag) else {
                continue;
            };
            let fill = MemRsp { tag: orig };
            if port < num_cores {
                self.core_rsp[port].push_back(fill);
            } else if let Some(l2) = self.l2.get_mut(port - num_cores) {
                l2.cache.push_mem_rsp(fill);
            } else if let Some(l3) = &mut self.l3 {
                l3.cache.push_mem_rsp(fill);
            }
        }

        // L3 responses → L2 fills.
        if let Some(l3) = &mut self.l3 {
            for (l2, rsps) in self.l2.iter_mut().zip(&mut l3.rsp_out) {
                while let Some(rsp) = rsps.pop_front() {
                    l2.cache.push_mem_rsp(rsp);
                }
            }
        }
    }

    /// Flushes every shared cache level (part of the `fence` path).
    pub fn flush(&mut self) {
        for l2 in &mut self.l2 {
            l2.cache.flush();
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.flush();
        }
    }

    /// `true` when nothing is in flight anywhere above the L1s.
    pub fn is_idle(&self) -> bool {
        self.dram.is_idle()
            && self.dram_tags.is_empty()
            && self.l2.iter().all(SharedLevel::is_idle)
            && self.l3.as_ref().is_none_or(SharedLevel::is_idle)
            && self.core_rsp.iter().all(VecDeque::is_empty)
    }

    /// The earliest cycle whose [`MemHierarchy::tick`] could change
    /// state above the L1s. With work queued in any shared level (or a
    /// fault plan attached to one), fill responses waiting on core
    /// ports, or queued/fault work at the DRAM, that is `now`; with
    /// only DRAM accesses in flight it is the tick on which the oldest
    /// one retires; when everything above the L1s is drained,
    /// `u64::MAX` (outstanding routing tags alone hold no event — they
    /// wait on DRAM in-flight entries, which are accounted here).
    pub fn next_event_cycle(&self, now: u64) -> u64 {
        let levels_idle = self.l2.iter().all(SharedLevel::ff_idle)
            && self.l3.as_ref().is_none_or(SharedLevel::ff_idle)
            && self.core_rsp.iter().all(VecDeque::is_empty);
        if !levels_idle {
            return now;
        }
        self.dram.next_event_cycle()
    }

    /// The bulk equivalent of `delta` certified-idle ticks (see
    /// [`MemHierarchy::next_event_cycle`]): every queue above the L1s
    /// is empty, so the only per-tick effects are the shared levels'
    /// `begin_cycle` (a no-op on an idle selector) and the DRAM clock
    /// advancing.
    pub fn bulk_advance(&mut self, delta: u64) {
        for l2 in &mut self.l2 {
            l2.begin_cycle();
        }
        if let Some(l3) = &mut self.l3 {
            l3.begin_cycle();
        }
        self.dram.advance(delta);
    }

    /// Total DRAM reads serviced.
    pub fn dram_reads(&self) -> u64 {
        self.dram.total_reads
    }

    /// Total DRAM writes serviced.
    pub fn dram_writes(&self) -> u64 {
        self.dram.total_writes
    }

    /// Read responses dropped by fault injection.
    pub fn dram_dropped(&self) -> u64 {
        self.dram.dropped_rsps
    }

    /// L2 statistics per cluster (empty when no L2 is configured).
    pub fn l2_stats(&self) -> Vec<crate::cache::CacheStats> {
        self.l2.iter().map(|l| l.cache.stats).collect()
    }

    /// Times any routing tag table grew past its reservation — the
    /// allocation audit's headline number; zero on fault-free runs.
    pub fn tag_grows(&self) -> u64 {
        self.dram_tags.grows
            + self.l2.iter().map(|l| l.tags.grows).sum::<u64>()
            + self.l3.as_ref().map_or(0, |l| l.tags.grows)
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Derives and attaches fault plans for the DRAM and every shared
    /// cache level. Each component gets its own decision stream, so runs
    /// are reproducible for a given seed regardless of topology.
    pub fn apply_faults(&mut self, faults: &FaultConfig) {
        if faults.is_noop() {
            return;
        }
        self.dram.set_fault(faults.plan(site::DRAM));
        for (i, l2) in self.l2.iter_mut().enumerate() {
            l2.cache.set_fault(faults.plan(site::l2(i)));
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.set_fault(faults.plan(site::L3));
        }
    }

    /// Detaches every fault plan above the L1s (recovery masking: a retry
    /// after rollback re-runs the remaining window fault-free).
    pub fn clear_faults(&mut self) {
        self.dram.clear_fault();
        for l2 in &mut self.l2 {
            l2.cache.clear_fault();
        }
        if let Some(l3) = &mut self.l3 {
            l3.cache.clear_fault();
        }
    }

    /// Decisions drawn across every fault plan attached above the L1s
    /// (DRAM + shared cache levels) — input to the per-site determinism
    /// audit: equal totals at equal simulation points mean the shared
    /// hierarchy consumed its decision streams identically.
    pub fn fault_draws(&self) -> u64 {
        self.dram.fault_draws()
            + self.l2.iter().map(|l| l.cache.fault_draws()).sum::<u64>()
            + self.l3.as_ref().map_or(0, |l| l.cache.fault_draws())
    }

    /// Appends everything in flight above the L1s: every L2, the L3, the
    /// DRAM, the routing tag tables and the per-core response queues.
    pub fn save_state(&self, w: &mut Writer) {
        for l2 in &self.l2 {
            l2.save_state(w);
        }
        if let Some(l3) = &self.l3 {
            l3.save_state(w);
        }
        self.dram.save_state(w);
        self.dram_tags.save_state(w);
        for q in &self.core_rsp {
            q.save(w);
        }
    }

    /// Restores the hierarchy in place. The level structure (cluster
    /// count, presence of L2/L3) comes from this hierarchy's own
    /// configuration, never from the payload.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        for l2 in &mut self.l2 {
            l2.restore_state(r)?;
        }
        if let Some(l3) = &mut self.l3 {
            l3.restore_state(r)?;
        }
        self.dram.restore_state(r)?;
        self.dram_tags.restore_state(r)?;
        for q in &mut self.core_rsp {
            *q = VecDeque::load(r)?;
        }
        Ok(())
    }

    /// Queue depths across the whole hierarchy, for hang diagnosis.
    pub fn occupancy(&self) -> HierarchyOccupancy {
        let (dram_input, dram_in_flight, dram_responses) = self.dram.occupancy();
        HierarchyOccupancy {
            dram_input,
            dram_in_flight,
            dram_responses,
            dram_dropped: self.dram.dropped_rsps,
            outstanding_tags: self.dram_tags.len(),
            l2: self.l2.iter().map(|l| l.cache.occupancy()).collect(),
            l3: self.l3.as_ref().map(|l| l.cache.occupancy()),
            core_rsp_pending: self.core_rsp.iter().map(VecDeque::len).sum::<usize>()
                + self
                    .l2
                    .iter()
                    .flat_map(|l| &l.rsp_out)
                    .map(VecDeque::len)
                    .sum::<usize>(),
        }
    }
}

/// Queue depths across the shared memory system, for hang diagnosis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyOccupancy {
    /// Requests queued at the DRAM controller input.
    pub dram_input: usize,
    /// Accesses in flight inside DRAM.
    pub dram_in_flight: usize,
    /// DRAM read responses not yet routed.
    pub dram_responses: usize,
    /// Read responses dropped by fault injection (each one strands a tag).
    pub dram_dropped: u64,
    /// Routing tags awaiting a response — reads the hierarchy still owes.
    pub outstanding_tags: usize,
    /// Per-cluster L2 occupancy (empty when no L2 is configured).
    pub l2: Vec<CacheOccupancy>,
    /// L3 occupancy when configured.
    pub l3: Option<CacheOccupancy>,
    /// Fill responses queued on core ports, not yet consumed.
    pub core_rsp_pending: usize,
}

impl fmt::Display for HierarchyOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dram: input={} in-flight={} rsp={} dropped={} owed-tags={} core-rsp={}",
            self.dram_input,
            self.dram_in_flight,
            self.dram_responses,
            self.dram_dropped,
            self.outstanding_tags,
            self.core_rsp_pending,
        )?;
        for (i, l2) in self.l2.iter().enumerate() {
            write!(f, "\n    L2[{i}]: {l2}")?;
        }
        if let Some(l3) = &self.l3 {
            write!(f, "\n    L3: {l3}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(h: &mut MemHierarchy, core: usize, mut reqs: Vec<MemReq>, max: u64) -> Vec<Tag> {
        let mut got = Vec::new();
        for _ in 0..max {
            if let Some(req) = reqs.first().copied() {
                if h.push_req(core, req).is_ok() {
                    reqs.remove(0);
                }
            }
            h.tick();
            while let Some(rsp) = h.pop_rsp(core) {
                got.push(rsp.tag);
            }
            if reqs.is_empty() && h.is_idle() {
                break;
            }
        }
        got
    }

    #[test]
    fn flat_hierarchy_round_trips() {
        let mut h = MemHierarchy::new(HierarchyConfig::flat(
            2,
            DramConfig {
                latency: 10,
                channels: 2,
                queue_size: 8,
            },
        ));
        let got = drive(&mut h, 0, vec![MemReq::read(5, 0x40), MemReq::read(6, 0x80)], 200);
        assert_eq!(got, vec![5, 6]);
    }

    #[test]
    fn l2_filters_repeat_fills() {
        let mut cfg = HierarchyConfig::flat(1, DramConfig::default());
        cfg.l2 = Some(l2_default());
        let mut h = MemHierarchy::new(cfg);
        // Same line twice: second time the L2 hits, DRAM sees one read.
        let got = drive(&mut h, 0, vec![MemReq::read(1, 0x100)], 1000);
        assert_eq!(got, vec![1]);
        let got = drive(&mut h, 0, vec![MemReq::read(2, 0x100)], 1000);
        assert_eq!(got, vec![2]);
        assert_eq!(h.dram_reads(), 1, "L2 must absorb the second fill");
    }

    #[test]
    fn three_level_hierarchy_round_trips() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        for core in 0..4 {
            let got = drive(
                &mut h,
                core,
                vec![MemReq::read(100 + core as Tag, 0x40 * core as u32)],
                2000,
            );
            assert_eq!(got, vec![100 + core as Tag], "core {core}");
        }
    }

    #[test]
    fn same_tag_from_two_cores_routes_correctly() {
        let mut h = MemHierarchy::new(HierarchyConfig::flat(
            2,
            DramConfig {
                latency: 5,
                channels: 2,
                queue_size: 8,
            },
        ));
        h.push_req(0, MemReq::read(7, 0x40)).unwrap();
        h.push_req(1, MemReq::read(7, 0x40)).unwrap();
        for _ in 0..50 {
            h.tick();
        }
        assert_eq!(h.pop_rsp(0), Some(MemRsp { tag: 7 }));
        assert_eq!(h.pop_rsp(1), Some(MemRsp { tag: 7 }));
    }

    #[test]
    fn writes_reach_dram_without_responses() {
        let mut h = MemHierarchy::new(HierarchyConfig::flat(1, DramConfig::default()));
        h.push_req(0, MemReq::write(1, 0x40)).unwrap();
        for _ in 0..200 {
            h.tick();
        }
        assert_eq!(h.dram_writes(), 1);
        assert!(h.pop_rsp(0).is_none());
        assert!(h.is_idle());
    }

    /// Six cores in three clusters, all reading the same line through
    /// L2+L3 concurrently: every core must get its own response with its
    /// own tag even though the wrapped tags collide at every level.
    #[test]
    fn concurrent_same_line_fills_from_three_clusters() {
        let mut cfg = HierarchyConfig::flat(6, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        for core in 0..6 {
            h.push_req(core, MemReq::read(200 + core as Tag, 0x1C0)).unwrap();
        }
        let mut got = vec![Vec::new(); 6];
        for _ in 0..2000 {
            h.tick();
            for (core, out) in got.iter_mut().enumerate() {
                while let Some(rsp) = h.pop_rsp(core) {
                    out.push(rsp.tag);
                }
            }
            if h.is_idle() {
                break;
            }
        }
        for (core, out) in got.iter().enumerate() {
            assert_eq!(out, &vec![200 + core as Tag], "core {core}");
        }
        assert!(h.is_idle(), "hierarchy must drain");
        // The L3 saw each cluster's fill but DRAM only one line read.
        assert_eq!(h.dram_reads(), 1, "L3 must coalesce the line fill");
    }

    /// Routing slots are recycled LIFO; cycling far more requests than
    /// the table holds must neither grow it nor misroute a response.
    #[test]
    fn tag_slots_recycle_without_growth() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        for round in 0..64u32 {
            for core in 0..4usize {
                // Distinct lines so every read misses through to DRAM-side
                // levels and exercises wrap/unwrap on each table.
                let addr = (round * 4 + core as u32) * 0x40;
                let tag = u64::from(round) * 10 + core as Tag;
                let got = drive(&mut h, core, vec![MemReq::read(tag, addr)], 2000);
                assert_eq!(got, vec![tag], "round {round} core {core}");
            }
        }
        assert_eq!(h.tag_grows(), 0, "tag tables must not grow fault-free");
        assert!(h.is_idle());
    }

    /// The allocation audit: a saturating burst through every level must
    /// stay within the construction-time reservations.
    #[test]
    fn reservations_hold_under_burst() {
        let mut cfg = HierarchyConfig::flat(4, DramConfig::default());
        cfg.cores_per_cluster = 2;
        cfg.l2 = Some(l2_default());
        cfg.l3 = Some(l3_default());
        let mut h = MemHierarchy::new(cfg);
        let mut outstanding = [0usize; 4];
        let mut next_tag = 0 as Tag;
        for cycle in 0..4000u32 {
            for (core, pending) in outstanding.iter_mut().enumerate() {
                // Keep up to 8 reads in flight per core over mixed lines.
                while *pending < 8 {
                    let addr = (u32::from(next_tag as u16) % 512) * 0x40;
                    if h.push_req(core, MemReq::read(next_tag, addr)).is_err() {
                        break;
                    }
                    next_tag += 1;
                    *pending += 1;
                }
            }
            h.tick();
            for (core, pending) in outstanding.iter_mut().enumerate() {
                while h.pop_rsp(core).is_some() {
                    *pending -= 1;
                }
            }
            if cycle > 3000 && outstanding.iter().all(|&o| o == 0) {
                break;
            }
        }
        assert_eq!(h.tag_grows(), 0, "tag tables must not grow fault-free");
        for (ci, l2) in h.l2.iter().enumerate() {
            assert!(
                l2.rsp_high_water <= SharedLevel::rsp_reservation(l2.cache.config()),
                "L2 {ci} response queues exceeded their reservation"
            );
        }
    }
}
