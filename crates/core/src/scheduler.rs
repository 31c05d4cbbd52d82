//! The wavefront scheduler (paper §4.1.1).
//!
//! *"The scheduler uses four thread masks: 1) an active wavefront mask ...
//! 2) a stalled wavefront mask ... 3) a barrier mask for stalled wavefronts
//! waiting at a barrier ... and 4) a visible wavefront mask to support
//! hierarchical scheduling policy. In each cycle, the scheduler selects one
//! wavefront from the visible wavefront mask and invalidates that wavefront.
//! When a visible wavefront mask is zero, the active mask is refilled by
//! checking which wavefronts are currently active and not stalled."*
//!
//! The visible-mask refill implements the two-level ("large warp")
//! scheduling policy of Narasiman et al. (MICRO-44): wavefronts drain in rounds,
//! giving each round's members time to cover each other's latency before
//! the same wavefront is picked again.

/// Scheduling policy (the two-level policy is the paper's default; plain
/// round-robin is the ablation baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Hierarchical two-level policy of Narasiman et al. (MICRO-44).
    #[default]
    TwoLevel,
    /// Flat round-robin over all ready wavefronts.
    RoundRobin,
}

/// One bit per wavefront id below `num_wavefronts` (at most 64 — the
/// shift alone would overflow there).
pub fn wavefront_mask(num_wavefronts: usize) -> u64 {
    if num_wavefronts >= 64 {
        u64::MAX
    } else {
        (1 << num_wavefronts) - 1
    }
}

/// The set bits of `mask` in round-robin order from bit `start` (< 64):
/// ascending from `start`, then wrapping to the bits below it.
#[inline]
pub fn rr_order(mask: u64, start: usize) -> impl Iterator<Item = usize> {
    // Rotated so bit `start` is bit 0, ascending order *is* the
    // round-robin order.
    let mut rotated = mask.rotate_right(start as u32);
    std::iter::from_fn(move || {
        (rotated != 0).then(|| {
            let offset = rotated.trailing_zeros() as usize;
            rotated &= rotated - 1;
            (start + offset) & 63
        })
    })
}

/// The four scheduler masks over wavefront ids.
#[derive(Debug, Clone)]
pub struct WavefrontScheduler {
    num_wavefronts: usize,
    policy: SchedPolicy,
    visible: u64,
    /// Round-robin start position inside the visible mask.
    rr_next: usize,
    /// Wavefront picks performed (scheduler utilization counter).
    pub picks: u64,
    /// Cycles with no schedulable wavefront.
    pub starved_cycles: u64,
}

impl WavefrontScheduler {
    /// Creates a scheduler for `num_wavefronts` wavefronts with the
    /// default two-level policy.
    ///
    /// # Panics
    /// Panics if `num_wavefronts` is 0 or exceeds 64.
    pub fn new(num_wavefronts: usize) -> Self {
        Self::with_policy(num_wavefronts, SchedPolicy::TwoLevel)
    }

    /// Creates a scheduler with an explicit policy.
    ///
    /// # Panics
    /// Panics if `num_wavefronts` is 0 or exceeds 64.
    pub fn with_policy(num_wavefronts: usize, policy: SchedPolicy) -> Self {
        assert!(
            (1..=64).contains(&num_wavefronts),
            "wavefront count must be in 1..=64"
        );
        Self {
            num_wavefronts,
            policy,
            visible: 0,
            rr_next: 0,
            picks: 0,
            starved_cycles: 0,
        }
    }

    /// Picks the next wavefront to fetch for, given the current
    /// active-and-not-stalled set (`ready_mask`, bit per wavefront).
    /// Returns `None` when nothing is schedulable.
    pub fn pick(&mut self, ready_mask: u64) -> Option<usize> {
        // Refill the visible mask from the ready set when exhausted; the
        // flat policy treats every ready wavefront as visible.
        if self.policy == SchedPolicy::RoundRobin || self.visible & ready_mask == 0 {
            self.visible = ready_mask;
        }
        // Candidate bits above num_wavefronts (a malformed ready mask)
        // cannot be scheduled; such a cycle counts as starved rather than
        // crashing the simulation.
        let candidates = self.visible & ready_mask & wavefront_mask(self.num_wavefronts);
        // Round-robin from rr_next: the first candidate at or above it,
        // else the lowest one.
        let Some(wid) = rr_order(candidates, self.rr_next).next() else {
            self.starved_cycles += 1;
            return None;
        };
        // "selects one wavefront ... and invalidates that wavefront".
        self.visible &= !(1 << wid);
        self.rr_next = if wid + 1 == self.num_wavefronts {
            0
        } else {
            wid + 1
        };
        self.picks += 1;
        Some(wid)
    }
}

impl WavefrontScheduler {
    /// Appends the scheduler's mutable state (wavefront count and policy
    /// are construction state and are not serialized).
    pub fn save_state(&self, w: &mut vortex_snapshot::Writer) {
        w.u64(self.visible);
        w.usize(self.rr_next);
        w.u64(self.picks);
        w.u64(self.starved_cycles);
    }

    /// Restores the scheduler in place, rejecting a round-robin pointer
    /// outside the wavefront range.
    pub fn restore_state(
        &mut self,
        r: &mut vortex_snapshot::Reader<'_>,
    ) -> vortex_snapshot::SnapResult<()> {
        let visible = r.u64()?;
        let rr_next = r.usize()?;
        if rr_next >= self.num_wavefronts {
            return Err(vortex_snapshot::SnapError::BadValue("scheduler rr pointer"));
        }
        self.visible = visible;
        self.rr_next = rr_next;
        self.picks = r.u64()?;
        self.starved_cycles = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robins_over_ready_wavefronts() {
        let mut s = WavefrontScheduler::new(4);
        let ready = 0b1111;
        let picks: Vec<usize> = (0..4).map(|_| s.pick(ready).unwrap()).collect();
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "each wavefront picked once per round");
    }

    #[test]
    fn two_level_policy_drains_rounds() {
        let mut s = WavefrontScheduler::new(4);
        // First round: all four get picked before any repeats.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            assert!(seen.insert(s.pick(0b1111).unwrap()));
        }
        // Second round begins: repeats allowed again.
        assert!(seen.contains(&s.pick(0b1111).unwrap()));
    }

    #[test]
    fn skips_unready_wavefronts() {
        let mut s = WavefrontScheduler::new(4);
        for _ in 0..8 {
            let wid = s.pick(0b0101).unwrap();
            assert!(wid == 0 || wid == 2);
        }
    }

    #[test]
    fn starvation_is_counted() {
        let mut s = WavefrontScheduler::new(2);
        assert_eq!(s.pick(0), None);
        assert_eq!(s.starved_cycles, 1);
    }

    #[test]
    fn ready_set_can_change_between_picks() {
        let mut s = WavefrontScheduler::new(4);
        assert!(s.pick(0b0001).is_some());
        let w = s.pick(0b1000).unwrap();
        assert_eq!(w, 3);
    }
}
