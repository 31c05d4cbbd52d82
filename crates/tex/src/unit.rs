//! The texture unit pipeline (paper §4.2.2, Figure 5).
//!
//! Stages modelled, matching the paper's numbered structure:
//!
//! * ⓪ CSR state lookup (folded into issue),
//! * ① address generation — all lanes in parallel, one cycle,
//! * ② de-duplication of texel addresses repeated across lanes,
//! * ③ texel memory scheduler — issues the unique batch to the data cache;
//!   *"Only when all the texels in the batch have returned does the
//!   scheduler begin servicing the next batch"*,
//! * ④ texel buffer — waits for the full batch,
//! * ⑤ the two-cycle bilinear sampler (point sampling runs through the same
//!   path with zero blend).
//!
//! Functionally, colors are computed at issue from the functional [`Ram`];
//! the pipeline models *when* the per-lane RGBA8 colors emerge.

use crate::filter::{bilinear_footprint, sample_bilinear, sample_point};
use crate::state::{FilterMode, TexState};
use std::collections::VecDeque;
use vortex_mem::elastic::Queue;
use vortex_mem::{MemReq, MemRsp, Ram, Tag};

/// Texture unit configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TexUnitConfig {
    /// Input request FIFO depth.
    pub input_depth: usize,
    /// Unique texel requests issued to the cache per cycle.
    pub issue_width: usize,
    /// Sampler latency in cycles (2 in the paper's implementation).
    pub sampler_latency: u32,
}

impl Default for TexUnitConfig {
    fn default() -> Self {
        Self {
            input_depth: 2,
            issue_width: 4,
            sampler_latency: 2,
        }
    }
}

/// One `tex` instruction's worth of work: the active lanes' coordinates.
#[derive(Debug, Clone)]
pub struct TexRequest {
    /// Instruction tag (returned on the response).
    pub tag: Tag,
    /// Texture stage the instruction addressed.
    pub stage: usize,
    /// Per-lane `(u, v, lod)`; `None` for inactive lanes.
    pub lanes: Vec<Option<(f32, f32, f32)>>,
}

/// Per-lane filtered colors for one completed `tex` instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TexResponse {
    /// The originating request's tag.
    pub tag: Tag,
    /// Packed RGBA8 colors; `None` for lanes that were inactive.
    pub colors: Vec<Option<u32>>,
}

/// Counters for the texture-unit evaluation (Figure 20).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TexUnitStats {
    /// `tex` instructions processed.
    pub requests: u64,
    /// Texel addresses generated before de-duplication.
    pub texels_generated: u64,
    /// Unique texel reads actually sent to the cache.
    pub texels_fetched: u64,
    /// Cycles the memory scheduler had a batch outstanding.
    pub mem_busy_cycles: u64,
    /// Cycles the unit was completely idle.
    pub idle_cycles: u64,
}

impl TexUnitStats {
    /// Folds another unit's counters into this one (used to aggregate
    /// per-core texture counters into a whole-GPU view).
    pub fn merge(&mut self, other: &TexUnitStats) {
        self.requests += other.requests;
        self.texels_generated += other.texels_generated;
        self.texels_fetched += other.texels_fetched;
        self.mem_busy_cycles += other.mem_busy_cycles;
        self.idle_cycles += other.idle_cycles;
    }
}

/// Queue depths for hang diagnosis (see `vortex-core`'s hang report).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TexOccupancy {
    /// Batches waiting in the input FIFO.
    pub input: usize,
    /// Texel fetches outstanding for the batch owning the scheduler.
    pub current_outstanding: usize,
    /// Batches in the sampler pipeline.
    pub sampler: usize,
    /// Completed responses not yet drained.
    pub output: usize,
    /// Texel memory requests not yet forwarded to the cache.
    pub mem_out: usize,
}

impl TexOccupancy {
    /// `true` when every stage is empty.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

impl std::fmt::Display for TexOccupancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "inq={} outstanding={} sampler={} rsp={} memq={}",
            self.input, self.current_outstanding, self.sampler, self.output, self.mem_out
        )
    }
}

#[derive(Debug)]
struct Batch {
    tag: Tag,
    colors: Vec<Option<u32>>,
    /// Unique texel addresses not yet issued to the cache.
    to_issue: Vec<u32>,
    /// Issued but not yet returned.
    outstanding: usize,
}

/// The texture unit.
#[derive(Debug)]
pub struct TexUnit {
    config: TexUnitConfig,
    input: Queue<Batch>,
    /// The batch currently owning the texel memory scheduler.
    current: Option<Batch>,
    /// Batches in the sampler pipeline: (remaining cycles, response).
    sampler: VecDeque<(u32, TexResponse)>,
    output: VecDeque<TexResponse>,
    /// Monotonic id for cache request tags.
    next_mem_tag: Tag,
    /// Requests ready for the core to forward to the data cache.
    mem_out: VecDeque<MemReq>,
    /// Map of outstanding mem tags (all belong to `current`).
    outstanding_tags: Vec<Tag>,
    /// Performance counters.
    pub stats: TexUnitStats,
}

impl TexUnit {
    /// Creates a texture unit.
    pub fn new(config: TexUnitConfig) -> Self {
        Self {
            config,
            input: Queue::new(config.input_depth),
            current: None,
            sampler: VecDeque::new(),
            output: VecDeque::new(),
            next_mem_tag: 0,
            mem_out: VecDeque::new(),
            outstanding_tags: Vec::new(),
            stats: TexUnitStats::default(),
        }
    }

    /// `true` if a new `tex` instruction can be accepted this cycle.
    #[inline]
    pub fn can_accept(&self) -> bool {
        !self.input.is_full()
    }

    /// Issues a `tex` instruction: runs the address generator ① and
    /// de-duplication ② functionally, computing the final colors from
    /// `ram`, and queues the unique texel fetches for timing.
    ///
    /// # Errors
    /// Returns the request back when the input FIFO is full.
    pub fn issue(
        &mut self,
        req: TexRequest,
        states: &[TexState],
        ram: &Ram,
    ) -> Result<(), TexRequest> {
        if self.input.is_full() {
            return Err(req);
        }
        let state = states.get(req.stage).copied().unwrap_or_default();
        let mut colors = Vec::with_capacity(req.lanes.len());
        let mut unique: Vec<u32> = Vec::new();
        for lane in &req.lanes {
            match lane {
                None => colors.push(None),
                Some((u, v, lod)) => {
                    let (u, v, lod) = (*u, *v, *lod);
                    let lod = (lod.max(0.0) as u32).min(state.max_lod());
                    // Functional color (the sampler's eventual output).
                    let color = match state.filter {
                        FilterMode::Point => sample_point(ram, &state, u, v, lod),
                        FilterMode::Bilinear => sample_bilinear(ram, &state, u, v, lod),
                    };
                    colors.push(Some(color.to_u32()));
                    // Timing: texel addresses (1 for point, 4 for bilinear),
                    // de-duplicated across lanes (stage ② of Figure 5).
                    let addrs: Vec<u32> = match state.filter {
                        FilterMode::Point => {
                            let w = state.width(lod);
                            let h = state.height(lod);
                            let x = state.wrap_u.apply((u * w as f32).floor() as i32, w);
                            let y = state.wrap_v.apply((v * h as f32).floor() as i32, h);
                            vec![state.texel_addr(x, y, lod)]
                        }
                        FilterMode::Bilinear => bilinear_footprint(&state, u, v, lod)
                            .coords
                            .iter()
                            .map(|&(x, y)| state.texel_addr(x, y, lod))
                            .collect(),
                    };
                    self.stats.texels_generated += addrs.len() as u64;
                    for a in addrs {
                        // Dedup at word granularity (the cache's access unit).
                        let word = a & !3;
                        if !unique.contains(&word) {
                            unique.push(word);
                        }
                    }
                }
            }
        }
        self.stats.requests += 1;
        self.stats.texels_fetched += unique.len() as u64;
        self.input
            .push(Batch {
                tag: req.tag,
                colors,
                to_issue: unique,
                outstanding: 0,
            })
            .map_err(|_| unreachable!("fullness checked above"))
    }

    /// Drains one texel memory request for the data cache.
    #[inline]
    pub fn pop_mem_req(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// Delivers a data-cache response for a texel fetch.
    pub fn push_mem_rsp(&mut self, rsp: MemRsp) {
        if let Some(pos) = self.outstanding_tags.iter().position(|&t| t == rsp.tag) {
            self.outstanding_tags.swap_remove(pos);
            if let Some(batch) = &mut self.current {
                batch.outstanding -= 1;
            }
        }
    }

    /// Advances the unit one cycle.
    #[inline]
    pub fn tick(&mut self) {
        // Sampler pipeline ⑤: count down, emit responses.
        for entry in &mut self.sampler {
            entry.0 = entry.0.saturating_sub(1);
        }
        while matches!(self.sampler.front(), Some((0, _))) {
            let (_, rsp) = self.sampler.pop_front().expect("front checked");
            self.output.push_back(rsp);
        }

        // Texel memory scheduler ③: service the current batch.
        match &mut self.current {
            Some(batch) => {
                self.stats.mem_busy_cycles += 1;
                // Issue up to issue_width unique addresses this cycle.
                for _ in 0..self.config.issue_width {
                    let Some(addr) = batch.to_issue.pop() else {
                        break;
                    };
                    let tag = self.next_mem_tag;
                    self.next_mem_tag = self.next_mem_tag.wrapping_add(1);
                    self.mem_out.push_back(MemReq::read(tag, addr));
                    self.outstanding_tags.push(tag);
                    batch.outstanding += 1;
                }
                // Batch complete → move to the sampler.
                if batch.to_issue.is_empty() && batch.outstanding == 0 {
                    let batch = self.current.take().expect("matched Some");
                    self.sampler.push_back((
                        self.config.sampler_latency,
                        TexResponse {
                            tag: batch.tag,
                            colors: batch.colors,
                        },
                    ));
                }
            }
            None => {
                if let Some(batch) = self.input.pop() {
                    // Address generation ① took the previous cycle; the
                    // batch starts issuing next tick.
                    self.current = Some(batch);
                } else if self.sampler.is_empty() && self.output.is_empty() {
                    self.stats.idle_cycles += 1;
                }
            }
        }
    }

    /// Pops one completed `tex` response.
    #[inline]
    pub fn pop_rsp(&mut self) -> Option<TexResponse> {
        self.output.pop_front()
    }

    /// Queue depths for hang diagnosis.
    pub fn occupancy(&self) -> TexOccupancy {
        TexOccupancy {
            input: self.input.len(),
            current_outstanding: self
                .current
                .as_ref()
                .map_or(0, |b| b.to_issue.len() + b.outstanding),
            sampler: self.sampler.len(),
            output: self.output.len(),
            mem_out: self.mem_out.len(),
        }
    }

    /// The earliest cycle whose tick could do more than replicate an
    /// idle bump (counting a busy/idle cycle, decrementing sampler
    /// countdowns). `now` when the unit would issue texel fetches,
    /// complete a batch, pop a queued batch into the scheduler, or has
    /// pending output or memory traffic; otherwise the tick on which
    /// the sampler's front batch emerges; `u64::MAX` when nothing is
    /// scheduled (a batch parked on outstanding cache fills wakes via
    /// the data cache, which reports its own horizon).
    pub fn next_event_cycle(&self, now: u64) -> u64 {
        if !self.mem_out.is_empty() || !self.output.is_empty() {
            return now;
        }
        match &self.current {
            Some(batch) => {
                if !batch.to_issue.is_empty() || batch.outstanding == 0 {
                    return now;
                }
            }
            None => {
                if !self.input.is_empty() {
                    return now;
                }
            }
        }
        match self.sampler.front() {
            // The tick decrements before popping, so a batch entering
            // with `count` remaining emerges on the tick that starts
            // `count - 1` cycles from now.
            Some(&(count, _)) => now + u64::from(count).saturating_sub(1),
            None => u64::MAX,
        }
    }

    /// The bulk equivalent of `delta` certified-idle ticks (see
    /// [`TexUnit::next_event_cycle`]): sampler countdowns shrink by
    /// `delta` without any batch emerging, and the busy/idle cycle
    /// counters advance exactly as `delta` single ticks would have.
    pub fn bulk_advance(&mut self, delta: u64) {
        let d32 = u32::try_from(delta.min(u64::from(u32::MAX))).expect("clamped to u32 range");
        for entry in &mut self.sampler {
            entry.0 = entry.0.saturating_sub(d32);
        }
        match &self.current {
            Some(_) => self.stats.mem_busy_cycles += delta,
            None => {
                if self.sampler.is_empty() && self.output.is_empty() {
                    self.stats.idle_cycles += delta;
                }
            }
        }
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.input.is_empty()
            && self.current.is_none()
            && self.sampler.is_empty()
            && self.output.is_empty()
            && self.mem_out.is_empty()
    }
}

vortex_snapshot::snapshot! {
    impl Snap for TexResponse { tag, colors }
}

vortex_snapshot::snapshot! {
    impl Snap for TexUnitStats {
        requests, texels_generated, texels_fetched, mem_busy_cycles, idle_cycles,
    }
}

vortex_snapshot::snapshot! {
    impl Snap for Batch { tag, colors, to_issue, outstanding }
}

vortex_snapshot::snapshot! {
    impl pub state for TexUnit {
        config config, input: state, current, sampler, output, next_mem_tag, mem_out,
        outstanding_tags,
        // The retired fault plan, always the `None` tag.
        reserved u8 = 0 => "reserved texture fault plan",
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgba8;
    use crate::state::{TexFormat, WrapMode};

    fn solid_texture(ram: &mut Ram, color: Rgba8) -> TexState {
        let state = TexState {
            addr: 0x4000,
            mipoff: 0,
            log_width: 2,
            log_height: 2,
            format: TexFormat::Rgba8,
            wrap_u: WrapMode::Clamp,
            wrap_v: WrapMode::Clamp,
            filter: FilterMode::Bilinear,
        };
        for i in 0..16 {
            ram.write_u32(state.addr + i * 4, color.to_u32());
        }
        state
    }

    /// Runs the unit against an instant-response memory until idle.
    fn run(unit: &mut TexUnit, max: u32) -> Vec<TexResponse> {
        let mut out = Vec::new();
        for _ in 0..max {
            unit.tick();
            while let Some(req) = unit.pop_mem_req() {
                unit.push_mem_rsp(MemRsp { tag: req.tag });
            }
            while let Some(rsp) = unit.pop_rsp() {
                out.push(rsp);
            }
            if unit.is_idle() {
                break;
            }
        }
        out
    }

    #[test]
    fn four_lane_bilinear_completes() {
        let mut ram = Ram::new();
        let state = solid_texture(&mut ram, Rgba8::new(10, 20, 30, 40));
        let mut unit = TexUnit::new(TexUnitConfig::default());
        let req = TexRequest {
            tag: 99,
            stage: 0,
            lanes: vec![
                Some((0.1, 0.1, 0.0)),
                Some((0.6, 0.6, 0.0)),
                None,
                Some((0.9, 0.2, 0.0)),
            ],
        };
        unit.issue(req, &[state], &ram).unwrap();
        let out = run(&mut unit, 100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 99);
        assert_eq!(out[0].colors.len(), 4);
        assert_eq!(out[0].colors[2], None);
        assert_eq!(
            out[0].colors[0],
            Some(Rgba8::new(10, 20, 30, 40).to_u32()),
            "solid texture must sample to its color"
        );
    }

    #[test]
    fn duplicate_lane_coordinates_are_deduplicated() {
        let mut ram = Ram::new();
        let state = solid_texture(&mut ram, Rgba8::WHITE);
        let mut unit = TexUnit::new(TexUnitConfig::default());
        // All four lanes sample the same point: 4 bilinear quads = 16
        // texels generated, but only 4 unique fetches.
        let req = TexRequest {
            tag: 1,
            stage: 0,
            lanes: vec![Some((0.5, 0.5, 0.0)); 4],
        };
        unit.issue(req, &[state], &ram).unwrap();
        run(&mut unit, 100);
        assert_eq!(unit.stats.texels_generated, 16);
        assert_eq!(unit.stats.texels_fetched, 4);
    }

    #[test]
    fn batches_serialize_through_the_scheduler() {
        let mut ram = Ram::new();
        let state = solid_texture(&mut ram, Rgba8::WHITE);
        let mut unit = TexUnit::new(TexUnitConfig::default());
        for tag in 0..2 {
            unit.issue(
                TexRequest {
                    tag,
                    stage: 0,
                    lanes: vec![Some((0.3, 0.3, 0.0))],
                },
                &[state],
                &ram,
            )
            .unwrap();
        }
        let out = run(&mut unit, 100);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tag, 0, "responses keep issue order");
        assert_eq!(out[1].tag, 1);
    }

    #[test]
    fn input_fifo_backpressures() {
        let mut ram = Ram::new();
        let state = solid_texture(&mut ram, Rgba8::WHITE);
        let mut unit = TexUnit::new(TexUnitConfig {
            input_depth: 1,
            ..TexUnitConfig::default()
        });
        let mk = |tag| TexRequest {
            tag,
            stage: 0,
            lanes: vec![Some((0.5, 0.5, 0.0))],
        };
        assert!(unit.issue(mk(0), &[state], &ram).is_ok());
        assert!(!unit.can_accept());
        assert!(unit.issue(mk(1), &[state], &ram).is_err());
    }

    #[test]
    fn point_sampling_uses_one_texel_per_lane() {
        let mut ram = Ram::new();
        let mut state = solid_texture(&mut ram, Rgba8::WHITE);
        state.filter = FilterMode::Point;
        let mut unit = TexUnit::new(TexUnitConfig::default());
        unit.issue(
            TexRequest {
                tag: 5,
                stage: 0,
                lanes: vec![Some((0.1, 0.1, 0.0)), Some((0.9, 0.9, 0.0))],
            },
            &[state],
            &ram,
        )
        .unwrap();
        run(&mut unit, 100);
        assert_eq!(unit.stats.texels_generated, 2);
        assert_eq!(unit.stats.texels_fetched, 2);
    }
}
