//! Per-wavefront architectural state.

use crate::ipdom::IpdomStack;

/// Why a wavefront is not currently schedulable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Nothing blocking.
    None,
    /// An instruction fetch is outstanding in the I-cache.
    Fetch,
    /// A fetched instruction is waiting in the instruction buffer to issue.
    Issue,
    /// Waiting at a barrier.
    Barrier,
    /// Waiting for a `fence` to drain the memory system.
    Fence,
}

/// One wavefront: PC, thread mask, IPDOM stack, and scheduling status.
#[derive(Debug)]
pub struct Wavefront {
    /// Wavefront id within the core.
    pub wid: usize,
    /// Current program counter (next fetch address).
    pub pc: u32,
    /// Active-thread mask (bit i = thread i).
    pub tmask: u32,
    /// `true` while the wavefront participates in scheduling.
    pub active: bool,
    /// Divergence stack.
    pub ipdom: IpdomStack,
    /// Current stall reason.
    pub stall: StallReason,
}

impl Wavefront {
    /// Creates an inactive wavefront.
    pub fn new(wid: usize, num_threads: usize) -> Self {
        Self {
            wid,
            pc: 0,
            tmask: 0,
            active: false,
            // Sized for nested divergence: each nesting level pushes at
            // most two entries, and deep fragment-pipeline kernels nest
            // 4-5 levels (loop guard + coverage + depth + shading).
            ipdom: IpdomStack::new(num_threads.max(2) * 4),
            stall: StallReason::None,
        }
    }

    /// (Re)activates the wavefront at `pc` with `tmask`.
    pub fn spawn(&mut self, pc: u32, tmask: u32) {
        self.pc = pc;
        self.tmask = tmask;
        self.active = tmask != 0;
        self.ipdom.clear();
        self.stall = StallReason::None;
    }

    /// Deactivates the wavefront (`tmc 0` / `ecall`).
    pub fn halt(&mut self) {
        self.active = false;
        self.tmask = 0;
        self.stall = StallReason::None;
    }

    /// `true` when this wavefront could be picked by the scheduler.
    pub fn schedulable(&self) -> bool {
        self.active && matches!(self.stall, StallReason::None)
    }

    /// Number of active threads.
    pub fn active_threads(&self) -> u32 {
        self.tmask.count_ones()
    }
}

impl vortex_snapshot::Snap for StallReason {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u8(match self {
            Self::None => 0,
            Self::Fetch => 1,
            Self::Issue => 2,
            Self::Barrier => 3,
            Self::Fence => 4,
        });
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        Ok(match r.u8()? {
            0 => Self::None,
            1 => Self::Fetch,
            2 => Self::Issue,
            3 => Self::Barrier,
            4 => Self::Fence,
            _ => return Err(vortex_snapshot::SnapError::BadValue("stall reason")),
        })
    }
}

vortex_snapshot::snapshot! {
    impl pub state for Wavefront {
        config wid, pc, tmask, active, ipdom: state, stall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_and_halt() {
        let mut w = Wavefront::new(1, 4);
        assert!(!w.schedulable());
        w.spawn(0x100, 0b0001);
        assert!(w.schedulable());
        assert_eq!(w.active_threads(), 1);
        w.halt();
        assert!(!w.active);
    }

    #[test]
    fn spawn_with_empty_mask_is_inactive() {
        let mut w = Wavefront::new(0, 4);
        w.spawn(0x100, 0);
        assert!(!w.active);
    }

    #[test]
    fn stalled_wavefront_is_not_schedulable() {
        let mut w = Wavefront::new(0, 4);
        w.spawn(0, 0xF);
        w.stall = StallReason::Barrier;
        assert!(!w.schedulable());
    }
}
