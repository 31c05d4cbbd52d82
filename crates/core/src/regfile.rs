//! Banked general-purpose registers (paper §4.1: "banked GPRs that contain
//! the general-purpose registers for each thread in each wavefront").
//!
//! Layout: one 64-entry file per `(wavefront, thread)` pair — 32 integer
//! registers followed by 32 FP registers, each 32 bits (the paper's ISA
//! row in Table 1: "Scalar, 32-bit").

use vortex_isa::{FReg, Reg};

/// The per-core banked register storage.
#[derive(Debug, Clone)]
pub struct RegFile {
    /// `[wavefront][thread][reg]`, reg 0..32 = x, 32..64 = f.
    banks: Vec<Vec<[u32; 64]>>,
}

impl RegFile {
    /// Allocates zeroed register banks.
    pub fn new(num_wavefronts: usize, num_threads: usize) -> Self {
        Self {
            banks: vec![vec![[0u32; 64]; num_threads]; num_wavefronts],
        }
    }

    /// Reads integer register `r` of `(wid, tid)`; `x0` reads zero.
    #[inline]
    pub fn read_x(&self, wid: usize, tid: usize, r: Reg) -> u32 {
        if r == Reg::X0 {
            0
        } else {
            self.banks[wid][tid][r.index()]
        }
    }

    /// Writes integer register `r`; writes to `x0` are ignored.
    #[inline]
    pub fn write_x(&mut self, wid: usize, tid: usize, r: Reg, value: u32) {
        if r != Reg::X0 {
            self.banks[wid][tid][r.index()] = value;
        }
    }

    /// Reads FP register `r` as raw bits.
    #[inline]
    pub fn read_f(&self, wid: usize, tid: usize, r: FReg) -> u32 {
        self.banks[wid][tid][32 + r.index()]
    }

    /// Writes FP register `r` as raw bits.
    #[inline]
    pub fn write_f(&mut self, wid: usize, tid: usize, r: FReg, value: u32) {
        self.banks[wid][tid][32 + r.index()] = value;
    }

    /// Zeroes one wavefront's banks (respawn hygiene).
    pub fn clear_wavefront(&mut self, wid: usize) {
        for bank in &mut self.banks[wid] {
            bank.fill(0);
        }
    }
}

vortex_snapshot::snapshot! {
    impl pub state for RegFile { banks: each each }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x0_is_hardwired_zero() {
        let mut rf = RegFile::new(2, 2);
        rf.write_x(0, 0, Reg::X0, 123);
        assert_eq!(rf.read_x(0, 0, Reg::X0), 0);
    }

    #[test]
    fn banks_are_independent() {
        let mut rf = RegFile::new(2, 2);
        rf.write_x(0, 0, Reg::X5, 1);
        rf.write_x(0, 1, Reg::X5, 2);
        rf.write_x(1, 0, Reg::X5, 3);
        assert_eq!(rf.read_x(0, 0, Reg::X5), 1);
        assert_eq!(rf.read_x(0, 1, Reg::X5), 2);
        assert_eq!(rf.read_x(1, 0, Reg::X5), 3);
        assert_eq!(rf.read_x(1, 1, Reg::X5), 0);
    }

    #[test]
    fn fp_and_int_spaces_are_disjoint() {
        let mut rf = RegFile::new(1, 1);
        rf.write_x(0, 0, Reg::X3, 7);
        rf.write_f(0, 0, FReg::X3, 9);
        assert_eq!(rf.read_x(0, 0, Reg::X3), 7);
        assert_eq!(rf.read_f(0, 0, FReg::X3), 9);
    }

    #[test]
    fn clear_wavefront_only_touches_one_bank() {
        let mut rf = RegFile::new(2, 1);
        rf.write_x(0, 0, Reg::X1, 5);
        rf.write_x(1, 0, Reg::X1, 6);
        rf.clear_wavefront(0);
        assert_eq!(rf.read_x(0, 0, Reg::X1), 0);
        assert_eq!(rf.read_x(1, 0, Reg::X1), 6);
    }
}
