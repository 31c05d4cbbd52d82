//! The load-store unit: non-blocking, multiple outstanding wavefront loads.
//!
//! Each issued load occupies one LSU entry tracking which lanes still wait
//! on the data cache (or shared memory); the entry completes — and its
//! writeback becomes eligible — when every lane has responded. Stores
//! retire at issue (write-through data is already in the functional RAM)
//! but their cache traffic is modelled, and `fence` waits for all of it.

use crate::config::SMEM_BASE;
use crate::exec::{LaneAccess, Writeback};
use std::collections::VecDeque;
use vortex_mem::{MemReq, Tag};

/// Tag-space discriminators for requests the core sends to its D-cache.
pub mod tags {
    use vortex_mem::Tag;

    /// Bit marking texture-unit requests (vs LSU).
    pub const TEX_BIT: Tag = 1 << 62;

    /// Builds an LSU tag from entry and lane: the lane in the low byte,
    /// the entry index in every bit above it, so any entry count
    /// round-trips (tags are 64-bit; [`TEX_BIT`] sits far above).
    pub fn lsu(entry: usize, lane: usize) -> Tag {
        ((entry as Tag) << 8) | lane as Tag
    }

    /// Splits an LSU tag.
    pub fn split_lsu(tag: Tag) -> (usize, usize) {
        ((tag >> 8) as usize, (tag & 0xFF) as usize)
    }
}

#[derive(Debug)]
struct LoadEntry {
    wid: usize,
    wb: Writeback,
    /// Lanes still waiting for a response.
    lanes_left: u32,
}

/// The LSU state.
///
/// Memory instructions present their lane accesses to the data cache as
/// *wavefront-wide groups*, matching the RTL's elastic core↔cache
/// interface: the front group must be fully accepted before the next
/// group's lanes are offered, so bank conflicts inside one wavefront
/// directly throttle memory-instruction throughput — the effect virtual
/// multi-porting exists to fix (Figure 19).
#[derive(Debug)]
pub struct Lsu {
    entries: Vec<Option<LoadEntry>>,
    /// Lane groups waiting at the data-cache interface, oldest first.
    pub dcache_groups: VecDeque<Vec<MemReq>>,
    /// Lane groups waiting at the shared-memory interface.
    pub smem_groups: VecDeque<Vec<MemReq>>,
    /// Completed loads ready for writeback: `(wid, writeback)`.
    ready: VecDeque<(usize, Writeback)>,
    /// Stores whose cache traffic is still pending (for fences): counted
    /// when queued, decremented when the cache accepts them.
    outstanding_stores: usize,
    /// Drained lane-group buffers kept for reuse, so the steady state
    /// issues memory instructions without allocating.
    spare_groups: Vec<Vec<MemReq>>,
}

impl Lsu {
    /// Groups allowed to queue at each memory interface.
    const GROUP_QUEUE_DEPTH: usize = 4;

    /// Creates an LSU with `num_entries` outstanding-load slots.
    pub fn new(num_entries: usize) -> Self {
        Self {
            entries: (0..num_entries.max(1)).map(|_| None).collect(),
            dcache_groups: VecDeque::new(),
            smem_groups: VecDeque::new(),
            ready: VecDeque::new(),
            outstanding_stores: 0,
            spare_groups: Vec::new(),
        }
    }

    /// A cleared lane-group buffer, reusing a drained one when available.
    fn fresh_group(&mut self) -> Vec<MemReq> {
        self.spare_groups.pop().unwrap_or_default()
    }

    /// Returns a drained lane group to the reuse pool. Called by the core
    /// when a group has been fully accepted by its memory interface.
    pub fn recycle_group(&mut self, mut group: Vec<MemReq>) {
        // Two interfaces × a queue depth of groups bounds what can ever be
        // usefully pooled; drop anything beyond that.
        if self.spare_groups.len() < 2 * Self::GROUP_QUEUE_DEPTH {
            group.clear();
            self.spare_groups.push(group);
        }
    }

    /// `true` if a load can be accepted (free entry and shallow queues).
    pub fn can_accept_load(&self) -> bool {
        self.entries.iter().any(Option::is_none)
            && self.dcache_groups.len() < Self::GROUP_QUEUE_DEPTH
            && self.smem_groups.len() < Self::GROUP_QUEUE_DEPTH
    }

    /// Outstanding load entries plus queued lane groups (hang diagnosis).
    pub fn pending(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
            + self.dcache_groups.len()
            + self.smem_groups.len()
            + self.outstanding_stores
    }

    /// `true` if a store can be accepted.
    pub fn can_accept_store(&self) -> bool {
        self.dcache_groups.len() < Self::GROUP_QUEUE_DEPTH
            && self.smem_groups.len() < Self::GROUP_QUEUE_DEPTH
    }

    /// Queues a wavefront load: `accesses` lists the per-lane addresses,
    /// `wb` carries the (already computed) values to write back once the
    /// timing completes.
    ///
    /// # Panics
    /// Panics if no entry is free — callers must check
    /// [`Lsu::can_accept_load`].
    pub fn issue_load(&mut self, wid: usize, accesses: &[Option<LaneAccess>], wb: Writeback) {
        let slot = self
            .entries
            .iter()
            .position(Option::is_none)
            .expect("LSU entry free (checked by can_accept_load)");
        let mut lanes_left = 0u32;
        let mut dcache_group = self.fresh_group();
        let mut smem_group = self.fresh_group();
        for (lane, access) in accesses.iter().enumerate() {
            if let Some(a) = access {
                debug_assert!(!a.write);
                lanes_left |= 1 << lane;
                let req = MemReq::read(tags::lsu(slot, lane), a.addr);
                if a.addr >= SMEM_BASE {
                    smem_group.push(req);
                } else {
                    dcache_group.push(req);
                }
            }
        }
        if dcache_group.is_empty() {
            self.spare_groups.push(dcache_group);
        } else {
            self.dcache_groups.push_back(dcache_group);
        }
        if smem_group.is_empty() {
            self.spare_groups.push(smem_group);
        } else {
            self.smem_groups.push_back(smem_group);
        }
        if lanes_left == 0 {
            // All lanes inactive (can happen after heavy divergence): the
            // load completes immediately.
            self.ready.push_back((wid, wb));
        } else {
            self.entries[slot] = Some(LoadEntry {
                wid,
                wb,
                lanes_left,
            });
        }
    }

    /// Queues a wavefront store's cache traffic.
    pub fn issue_store(&mut self, accesses: &[Option<LaneAccess>]) {
        let mut dcache_group = self.fresh_group();
        let mut smem_group = self.fresh_group();
        for access in accesses.iter().flatten() {
            debug_assert!(access.write);
            let req = MemReq::write(0, access.addr);
            if access.addr >= SMEM_BASE {
                smem_group.push(req);
            } else {
                dcache_group.push(req);
                self.outstanding_stores += 1;
            }
        }
        if dcache_group.is_empty() {
            self.spare_groups.push(dcache_group);
        } else {
            self.dcache_groups.push_back(dcache_group);
        }
        if smem_group.is_empty() {
            self.spare_groups.push(smem_group);
        } else {
            self.smem_groups.push_back(smem_group);
        }
    }

    /// Called by the core when the data cache accepted `n` store requests
    /// this cycle (write traffic leaves the LSU's responsibility).
    pub fn stores_accepted(&mut self, n: usize) {
        self.outstanding_stores = self.outstanding_stores.saturating_sub(n);
    }

    /// Delivers a data-cache / shared-memory read response.
    pub fn push_rsp(&mut self, tag: Tag) {
        let (slot, lane) = tags::split_lsu(tag);
        if let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) {
            entry.lanes_left &= !(1 << lane);
            if entry.lanes_left == 0 {
                let entry = self.entries[slot].take().expect("entry just updated");
                self.ready.push_back((entry.wid, entry.wb));
            }
        }
    }

    /// Pops one completed load for writeback (oldest first).
    pub fn pop_ready(&mut self) -> Option<(usize, Writeback)> {
        self.ready.pop_front()
    }

    /// `true` when a completed load is waiting for the writeback port.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// `true` when nothing is in flight (the `fence` drain condition,
    /// together with cache idleness).
    pub fn is_idle(&self) -> bool {
        self.entries.iter().all(Option::is_none)
            && self.dcache_groups.is_empty()
            && self.smem_groups.is_empty()
            && self.ready.is_empty()
    }
}

vortex_snapshot::snapshot! {
    impl Snap for LoadEntry { wid, wb, lanes_left }
}

// The entry count is construction state: entries are walked in place.
vortex_snapshot::snapshot! {
    impl pub state for Lsu {
        entries: each, dcache_groups, smem_groups,
        check dcache_groups.len() <= Self::GROUP_QUEUE_DEPTH
            && smem_groups.len() <= Self::GROUP_QUEUE_DEPTH
            => "lsu group queue",
        ready, outstanding_stores,
        scratch spare_groups = Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoreboard::RegId;

    fn wb(n: usize) -> Writeback {
        Writeback {
            reg: RegId(5),
            values: vec![Some(1); n],
        }
    }

    #[test]
    fn load_completes_when_all_lanes_respond() {
        let mut lsu = Lsu::new(2);
        let accesses = vec![
            Some(LaneAccess {
                addr: 0x100,
                write: false,
            }),
            Some(LaneAccess {
                addr: 0x200,
                write: false,
            }),
        ];
        lsu.issue_load(1, &accesses, wb(2));
        assert_eq!(lsu.dcache_groups.len(), 1);
        assert_eq!(lsu.dcache_groups[0].len(), 2);
        let t0 = lsu.dcache_groups[0][0].tag;
        let t1 = lsu.dcache_groups[0][1].tag;
        lsu.push_rsp(t0);
        assert!(!lsu.has_ready());
        lsu.push_rsp(t1);
        let (wid, _) = lsu.pop_ready().unwrap();
        assert_eq!(wid, 1);
    }

    #[test]
    fn smem_addresses_route_to_smem_queue() {
        let mut lsu = Lsu::new(2);
        let accesses = vec![
            Some(LaneAccess {
                addr: SMEM_BASE + 4,
                write: false,
            }),
            Some(LaneAccess {
                addr: 0x100,
                write: false,
            }),
        ];
        lsu.issue_load(0, &accesses, wb(2));
        assert_eq!(lsu.smem_groups.len(), 1);
        assert_eq!(lsu.dcache_groups.len(), 1);
    }

    #[test]
    fn entry_exhaustion_blocks_acceptance() {
        let mut lsu = Lsu::new(1);
        let accesses = vec![Some(LaneAccess {
            addr: 0,
            write: false,
        })];
        assert!(lsu.can_accept_load());
        lsu.issue_load(0, &accesses, wb(1));
        assert!(!lsu.can_accept_load());
    }

    #[test]
    fn all_inactive_lane_load_completes_immediately() {
        let mut lsu = Lsu::new(1);
        lsu.issue_load(3, &[None, None], wb(2));
        assert!(lsu.has_ready());
        assert!(lsu.can_accept_load(), "no entry consumed");
    }

    #[test]
    fn entries_past_256_complete_on_their_own_responses() {
        // Entry 256's tag must not alias entry 0's, or a response for the
        // one clears the other's lane.
        let mut lsu = Lsu::new(300);
        let access = [Some(LaneAccess {
            addr: 0x100,
            write: false,
        })];
        for wid in 0..=256 {
            lsu.issue_load(wid, &access, wb(1));
            lsu.dcache_groups.clear();
        }
        lsu.push_rsp(tags::lsu(256, 0));
        assert_eq!(lsu.pop_ready().map(|(wid, _)| wid), Some(256));
        assert!(!lsu.has_ready(), "entry 0 is still waiting on its lane");
        lsu.push_rsp(tags::lsu(0, 0));
        assert_eq!(lsu.pop_ready().map(|(wid, _)| wid), Some(0));
    }

    #[test]
    fn store_tracking_supports_fences() {
        let mut lsu = Lsu::new(1);
        lsu.issue_store(&[
            Some(LaneAccess {
                addr: 0x10,
                write: true,
            }),
            Some(LaneAccess {
                addr: 0x20,
                write: true,
            }),
        ]);
        assert_eq!(lsu.outstanding_stores, 2);
        lsu.stores_accepted(2);
        assert_eq!(lsu.outstanding_stores, 0);
    }
}
