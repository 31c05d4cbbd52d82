//! Per-wavefront register scoreboards.
//!
//! The in-order pipeline issues an instruction only when none of its source
//! or destination registers has a write outstanding (RAW/WAW protection).
//! One scoreboard per wavefront (§6.2.1 lists "the number of register
//! scoreboards" among the per-wavefront costs).

use vortex_isa::{FReg, Reg};

/// Register identifier in the unified 64-entry space (x0-x31, f0-f31).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegId(pub u8);

impl From<Reg> for RegId {
    fn from(r: Reg) -> Self {
        RegId(r.index() as u8)
    }
}

impl From<FReg> for RegId {
    fn from(r: FReg) -> Self {
        RegId(32 + r.index() as u8)
    }
}

/// The scoreboards for every wavefront of a core.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    /// One 64-bit pending mask per wavefront.
    pending: Vec<u64>,
}

impl Scoreboard {
    /// Creates clear scoreboards.
    pub fn new(num_wavefronts: usize) -> Self {
        Self {
            pending: vec![0; num_wavefronts],
        }
    }

    /// `true` if none of `regs` has an outstanding write for `wid`.
    pub fn ready(&self, wid: usize, regs: &[RegId]) -> bool {
        regs.iter().all(|r| self.pending[wid] & (1 << r.0) == 0)
    }

    /// Marks `reg` as having a write in flight. Writes to `x0` are not
    /// tracked (the register is hardwired).
    pub fn set_pending(&mut self, wid: usize, reg: RegId) {
        if reg.0 != 0 {
            self.pending[wid] |= 1 << reg.0;
        }
    }

    /// Clears the pending bit at writeback.
    pub fn clear_pending(&mut self, wid: usize, reg: RegId) {
        self.pending[wid] &= !(1 << reg.0);
    }

    /// The raw pending mask for `wid` (bit *i* set = register *i* has a
    /// write outstanding). Lets callers with a precomputed need mask do
    /// the hazard check as a single AND.
    pub fn pending_mask(&self, wid: usize) -> u64 {
        self.pending[wid]
    }

    /// `true` when the wavefront has any write outstanding.
    pub fn any_pending(&self, wid: usize) -> bool {
        self.pending[wid] != 0
    }

    /// Clears a wavefront's scoreboard (respawn).
    pub fn clear_wavefront(&mut self, wid: usize) {
        self.pending[wid] = 0;
    }
}

/// A register id is its byte; its range is checked where it is loaded.
impl vortex_snapshot::Snap for RegId {
    fn save(&self, w: &mut vortex_snapshot::Writer) {
        w.u8(self.0);
    }
    fn load(r: &mut vortex_snapshot::Reader<'_>) -> vortex_snapshot::SnapResult<Self> {
        r.u8().map(Self)
    }
}

vortex_snapshot::snapshot! {
    impl pub state for Scoreboard { pending: each }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_hazard_blocks_until_writeback() {
        let mut sb = Scoreboard::new(2);
        let r5: RegId = Reg::X5.into();
        sb.set_pending(0, r5);
        assert!(!sb.ready(0, &[r5]));
        assert!(sb.ready(1, &[r5]), "other wavefronts are unaffected");
        sb.clear_pending(0, r5);
        assert!(sb.ready(0, &[r5]));
    }

    #[test]
    fn x0_is_never_pending() {
        let mut sb = Scoreboard::new(1);
        sb.set_pending(0, Reg::X0.into());
        assert!(sb.ready(0, &[Reg::X0.into()]));
        assert!(!sb.any_pending(0));
    }

    #[test]
    fn int_and_fp_registers_are_distinct() {
        let mut sb = Scoreboard::new(1);
        sb.set_pending(0, FReg::X5.into());
        assert!(sb.ready(0, &[Reg::X5.into()]));
        assert!(!sb.ready(0, &[FReg::X5.into()]));
    }
}
