//! Banked shared-memory scratchpad.
//!
//! The paper (§4.1.4): *"An optional shared memory is also available that
//! can act as scratchpad memory or a stack depending on the application."*
//! The scratchpad is word-banked (bank = word address % banks), one access
//! per bank per cycle, fixed single-cycle latency — so the only timing
//! effect is bank conflicts between the lanes of a wavefront, as on real
//! GPUs.

use crate::req::{MemReq, MemRsp};
use std::collections::VecDeque;

/// Shared-memory geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedMemConfig {
    /// Capacity in bytes.
    pub size_bytes: u32,
    /// Word-interleaved banks.
    pub num_banks: usize,
    /// Access latency in cycles (≥ 1).
    pub latency: u32,
}

impl Default for SharedMemConfig {
    /// The baseline 8 KiB scratchpad with one bank per thread lane.
    fn default() -> Self {
        Self {
            size_bytes: 8 * 1024,
            num_banks: 4,
            latency: 1,
        }
    }
}

/// Shared-memory timing model (values live in the core's functional state).
#[derive(Debug)]
pub struct SharedMem {
    config: SharedMemConfig,
    /// In-flight accesses: (ready cycle, response).
    in_flight: VecDeque<(u64, MemRsp)>,
    /// Per-bank claim flags, reused across [`SharedMem::offer`] calls so
    /// the per-cycle path does not allocate.
    bank_used: Vec<bool>,
    cycle: u64,
    /// Accesses accepted.
    pub accesses: u64,
    /// Requests deferred by a bank conflict.
    pub bank_conflicts: u64,
}

impl SharedMem {
    /// Creates the scratchpad model.
    ///
    /// # Panics
    /// Panics if `latency == 0` or `num_banks == 0`.
    pub fn new(config: SharedMemConfig) -> Self {
        assert!(config.latency >= 1, "latency must be at least one cycle");
        assert!(config.num_banks >= 1, "need at least one bank");
        Self {
            config,
            in_flight: VecDeque::new(),
            bank_used: vec![false; config.num_banks],
            cycle: 0,
            accesses: 0,
            bank_conflicts: 0,
        }
    }

    /// Offers one wavefront's lane accesses for this cycle. Accepts at most
    /// one access per bank, removing accepted requests from `reqs`; the
    /// rest must be re-offered next cycle (conflict serialization).
    #[inline]
    pub fn offer(&mut self, reqs: &mut Vec<MemReq>) -> usize {
        self.bank_used.fill(false);
        let mut accepted = 0;
        let mut i = 0;
        while i < reqs.len() {
            let bank = ((reqs[i].addr / 4) as usize) % self.config.num_banks;
            if self.bank_used[bank] {
                self.bank_conflicts += 1;
                i += 1;
                continue;
            }
            self.bank_used[bank] = true;
            let req = reqs.remove(i);
            self.accesses += 1;
            if !req.write {
                self.in_flight.push_back((
                    self.cycle + u64::from(self.config.latency),
                    MemRsp { tag: req.tag },
                ));
            }
            accepted += 1;
        }
        accepted
    }

    /// Advances one cycle.
    #[inline]
    pub fn tick(&mut self) {
        self.cycle += 1;
    }

    /// Pops one completed read response.
    #[inline]
    pub fn pop_rsp(&mut self) -> Option<MemRsp> {
        match self.in_flight.front() {
            Some(&(ready, rsp)) if ready <= self.cycle => {
                self.in_flight.pop_front();
                Some(rsp)
            }
            _ => None,
        }
    }

    /// `true` when nothing is in flight.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The `ready` stamp of the oldest in-flight response, if any. The
    /// core turns this into an event horizon: its tick advances the
    /// scratchpad clock before draining responses, so the oldest one
    /// pops during the tick that starts at `ready - 1`.
    pub fn front_ready(&self) -> Option<u64> {
        self.in_flight.front().map(|&(ready, _)| ready)
    }

    /// Advances the scratchpad clock by `delta` cycles at once — the
    /// bulk equivalent of `delta` [`SharedMem::tick`] calls.
    pub fn advance(&mut self, delta: u64) {
        self.cycle += delta;
    }

    /// The configured geometry.
    pub fn config(&self) -> SharedMemConfig {
        self.config
    }

    /// Appends the scratchpad's timing state (the per-cycle bank-claim
    /// scratch is rebuilt every [`SharedMem::offer`] and is not saved).
    pub fn save_state(&self, w: &mut vortex_snapshot::Writer) {
        use vortex_snapshot::Snap;
        self.in_flight.save(w);
        w.u64(self.cycle);
        w.u64(self.accesses);
        w.u64(self.bank_conflicts);
    }

    /// Restores the scratchpad in place.
    pub fn restore_state(
        &mut self,
        r: &mut vortex_snapshot::Reader<'_>,
    ) -> vortex_snapshot::SnapResult<()> {
        use vortex_snapshot::Snap;
        self.in_flight = VecDeque::load(r)?;
        self.cycle = r.u64()?;
        self.accesses = r.u64()?;
        self.bank_conflicts = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_accesses_all_accept() {
        let mut s = SharedMem::new(SharedMemConfig::default());
        // 4 lanes hitting 4 different banks.
        let mut reqs: Vec<MemReq> = (0..4).map(|i| MemReq::read(i, i as u32 * 4)).collect();
        assert_eq!(s.offer(&mut reqs), 4);
        assert!(reqs.is_empty());
        s.tick();
        let mut got: Vec<_> = std::iter::from_fn(|| s.pop_rsp()).map(|r| r.tag).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(s.bank_conflicts, 0);
    }

    #[test]
    fn same_bank_accesses_serialize() {
        let mut s = SharedMem::new(SharedMemConfig::default());
        // 4 lanes hitting the same bank (stride = num_banks words).
        let mut reqs: Vec<MemReq> = (0..4).map(|i| MemReq::read(i, i as u32 * 16)).collect();
        assert_eq!(s.offer(&mut reqs), 1);
        assert_eq!(reqs.len(), 3);
        assert_eq!(s.bank_conflicts, 3);
        s.tick();
        assert_eq!(s.offer(&mut reqs), 1);
    }

    #[test]
    fn writes_need_no_response() {
        let mut s = SharedMem::new(SharedMemConfig::default());
        let mut reqs = vec![MemReq::write(9, 0)];
        s.offer(&mut reqs);
        s.tick();
        assert!(s.pop_rsp().is_none());
        assert!(s.is_idle());
    }
}
