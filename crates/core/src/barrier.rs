//! Barrier tables (paper §4.1.3).
//!
//! *"A barrier table keeps the following information for each entry: 1) a
//! counter of the number of wavefronts left that need to execute the
//! barrier, and 2) a mask of wavefronts stalled by the barrier."* The same
//! structure serves the per-core (local) table — participants are
//! wavefronts — and the GPU-level global table (barrier ids with the MSB
//! set), whose participants are wavefronts across all cores, identified by
//! `core_id * NW + wid`.

/// One barrier table.
#[derive(Debug, Clone)]
pub struct BarrierTable {
    entries: Vec<BarrierEntry>,
}

#[derive(Debug, Clone, Default)]
struct BarrierEntry {
    /// Arrivals still needed; 0 = barrier idle.
    left: u32,
    /// Stalled participant ids.
    waiting: Vec<usize>,
}

/// Result of an arrival at a barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// The participant must stall.
    Wait,
    /// The barrier released: these participants (including the arriving
    /// one) resume.
    Release(Vec<usize>),
}

impl BarrierTable {
    /// Creates a table with `num_barriers` entries.
    pub fn new(num_barriers: usize) -> Self {
        Self {
            entries: vec![BarrierEntry::default(); num_barriers.max(1)],
        }
    }

    /// Participant `id` arrives at `barrier` expecting `count` total
    /// arrivals. The first arrival arms the counter; the last one releases.
    /// A zero `count` is clamped to 1 (an immediately-releasing barrier)
    /// rather than crashing the simulation on malformed kernel input; the
    /// slot index wraps into range the same way the hardware masks it.
    pub fn arrive(&mut self, barrier: usize, id: usize, count: u32) -> BarrierOutcome {
        let count = count.max(1);
        let slot = barrier % self.entries.len();
        let entry = &mut self.entries[slot];
        if entry.left == 0 {
            entry.left = count;
            entry.waiting.clear();
        }
        entry.left -= 1;
        if entry.left == 0 {
            let mut released = std::mem::take(&mut entry.waiting);
            released.push(id);
            BarrierOutcome::Release(released)
        } else {
            entry.waiting.push(id);
            BarrierOutcome::Wait
        }
    }

    /// `true` when no barrier has waiters.
    pub fn is_idle(&self) -> bool {
        self.entries.iter().all(|e| e.left == 0)
    }

    /// Total participants currently stalled across all barriers (hang
    /// diagnosis).
    pub fn waiters(&self) -> usize {
        self.entries.iter().map(|e| e.waiting.len()).sum()
    }

    /// Number of barriers in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no entries (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

vortex_snapshot::snapshot! {
    impl Snap for BarrierEntry { left, waiting }
}

vortex_snapshot::snapshot! {
    impl pub state for BarrierTable { entries: each }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_arrival_releases_all() {
        let mut t = BarrierTable::new(4);
        assert_eq!(t.arrive(0, 0, 3), BarrierOutcome::Wait);
        assert_eq!(t.arrive(0, 2, 3), BarrierOutcome::Wait);
        assert!(!t.is_idle());
        let BarrierOutcome::Release(mut ids) = t.arrive(0, 1, 3) else {
            panic!("expected release");
        };
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(t.is_idle());
    }

    #[test]
    fn barrier_is_reusable() {
        let mut t = BarrierTable::new(1);
        for _ in 0..3 {
            assert_eq!(t.arrive(0, 0, 2), BarrierOutcome::Wait);
            assert!(matches!(t.arrive(0, 1, 2), BarrierOutcome::Release(_)));
        }
    }

    #[test]
    fn single_participant_barrier_releases_immediately() {
        let mut t = BarrierTable::new(1);
        assert_eq!(t.arrive(0, 5, 1), BarrierOutcome::Release(vec![5]));
    }

    #[test]
    fn zero_count_is_clamped_not_a_crash() {
        let mut t = BarrierTable::new(1);
        assert_eq!(t.arrive(0, 7, 0), BarrierOutcome::Release(vec![7]));
        assert!(t.is_idle());
    }

    #[test]
    fn out_of_range_slot_wraps() {
        let mut t = BarrierTable::new(2);
        assert_eq!(t.arrive(5, 0, 2), BarrierOutcome::Wait); // slot 1
        assert_eq!(t.waiters(), 1);
        assert!(matches!(t.arrive(1, 1, 2), BarrierOutcome::Release(_)));
        assert_eq!(t.waiters(), 0);
    }

    #[test]
    fn distinct_barriers_are_independent() {
        let mut t = BarrierTable::new(2);
        assert_eq!(t.arrive(0, 0, 2), BarrierOutcome::Wait);
        assert_eq!(t.arrive(1, 1, 2), BarrierOutcome::Wait);
        assert!(matches!(t.arrive(1, 0, 2), BarrierOutcome::Release(_)));
        assert!(!t.is_idle(), "barrier 0 still armed");
    }

    #[test]
    fn supports_hundreds_of_participants() {
        // 512 hardware threads' worth of wavefronts (32 cores × 16 waves).
        let mut t = BarrierTable::new(1);
        for id in 0..511 {
            assert_eq!(t.arrive(0, id, 512), BarrierOutcome::Wait);
        }
        let BarrierOutcome::Release(ids) = t.arrive(0, 511, 512) else {
            panic!("expected release");
        };
        assert_eq!(ids.len(), 512);
    }
}
