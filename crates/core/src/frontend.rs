//! The per-wavefront front end: pre-resolved issue slots, the two-entry
//! instruction buffers, and the word-parallel masks the per-cycle stages
//! consult instead of walking per-wavefront state.
//!
//! Everything the issue stage asks about an instruction — which registers
//! it needs clear, which functional-unit acceptance check gates it, whether
//! the front end may fetch past it — is a pure function of the decoded
//! [`Instr`], so it is resolved once by [`Slot::resolve`] (and cached by
//! the decode memo) instead of being re-derived on every scan of every
//! candidate. The masks are *derived* host-side state: never serialized,
//! rebuilt last in [`FrontEnd::restore_state`].

use crate::scoreboard::RegId;
use vortex_isa::{decode, CsrSrc, DecodeError, FpOpKind, Instr, OpKind, Reg};
use vortex_snapshot::{Reader, Snap, SnapError, SnapResult, Writer};

/// The acceptance check (beyond the scoreboard) that gates an instruction
/// at issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Always accepted (ALU, multiplier, FPU, control, CSR, SIMT control).
    Free,
    /// Needs a free LSU entry and group-queue space.
    Load,
    /// Needs group-queue space.
    Store,
    /// The blocking integer divider.
    Div,
    /// The blocking FP divider.
    FDiv,
    /// The blocking FP square-root unit.
    FSqrt,
    /// Needs texture-unit input space.
    Tex,
}

/// A decoded instruction with its issue-time questions pre-answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// The instruction.
    pub instr: Instr,
    /// Its PC (0 until [`Slot::at`] stamps it — the decode memo is keyed
    /// by word, not address).
    pub pc: u32,
    /// Registers read or written, in the scoreboard's pending-bit layout:
    /// the hazard check is one AND.
    pub need: u64,
    /// Functional-unit acceptance check.
    pub gate: Gate,
    /// `true` for instructions the front end must not fetch past: PC
    /// redirects (branch/jump/`join`) and instructions that may halt or
    /// stall the wavefront (`ecall`/`ebreak`/`tmc`/`bar`/`fence`) — the
    /// next fetch address or even the wavefront's liveness is unknown
    /// until they execute.
    pub blocks_fetch: bool,
}

impl Slot {
    /// Filler for unoccupied ring entries (never read: guarded by `len`).
    const EMPTY: Slot = Slot {
        instr: Instr::Fence,
        pc: 0,
        need: 0,
        gate: Gate::Free,
        blocks_fetch: false,
    };

    /// Resolves everything the issue stage needs to know about `instr`.
    pub fn resolve(instr: &Instr) -> Self {
        let gate = match instr {
            Instr::Load { .. } | Instr::Flw { .. } => Gate::Load,
            Instr::Store { .. } | Instr::Fsw { .. } => Gate::Store,
            Instr::Op {
                op: OpKind::Div | OpKind::Divu | OpKind::Rem | OpKind::Remu,
                ..
            } => Gate::Div,
            Instr::FpOp {
                op: FpOpKind::Div, ..
            } => Gate::FDiv,
            Instr::FpOp {
                op: FpOpKind::Sqrt, ..
            } => Gate::FSqrt,
            Instr::Tex { .. } => Gate::Tex,
            _ => Gate::Free,
        };
        let blocks_fetch = matches!(
            instr,
            Instr::Branch { .. }
                | Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Join
                | Instr::Ecall
                | Instr::Ebreak
                | Instr::Tmc { .. }
                | Instr::Bar { .. }
                | Instr::Fence
        );
        Self {
            instr: *instr,
            pc: 0,
            need: hazard_mask(instr),
            gate,
            blocks_fetch,
        }
    }

    /// Decodes and resolves `word` — the one path from an instruction word
    /// to a slot (decode-memo miss, memo disabled, snapshot restore).
    ///
    /// # Errors
    /// Exactly the errors of [`vortex_isa::decode`].
    pub fn decode(word: u32) -> Result<Self, DecodeError> {
        decode(word).map(|instr| Self::resolve(&instr))
    }

    /// This slot at `pc`.
    pub fn at(self, pc: u32) -> Self {
        Self { pc, ..self }
    }
}

/// The registers `instr` reads or writes, as a mask in the scoreboard's
/// pending-bit layout.
fn hazard_mask(instr: &Instr) -> u64 {
    use Instr::*;
    fn b(r: impl Into<RegId>) -> u64 {
        1 << r.into().0
    }
    match *instr {
        Fence | Ecall | Ebreak | Join => 0,
        Lui { rd, .. } | Auipc { rd, .. } | Jal { rd, .. } => b(rd),
        Tmc { rs1 } | Split { rs1 } => b(rs1),
        Jalr { rd, rs1, .. } | Load { rd, rs1, .. } | OpImm { rd, rs1, .. } => b(rs1) | b(rd),
        Flw { rd, rs1, .. } | IntToFp { rd, rs1, .. } | FmvFromInt { rd, rs1 } => b(rs1) | b(rd),
        FpToInt { rd, rs1, .. } | FmvToInt { rd, rs1 } | FClass { rd, rs1 } => b(rs1) | b(rd),
        Branch { rs1, rs2, .. } | Store { rs1, rs2, .. } => b(rs1) | b(rs2),
        Wspawn { rs1, rs2 } | Bar { rs1, rs2 } => b(rs1) | b(rs2),
        Fsw { rs1, rs2, .. } => b(rs1) | b(rs2),
        Op { rd, rs1, rs2, .. } => b(rs1) | b(rs2) | b(rd),
        FpOp { rd, rs1, rs2, .. } => b(rs1) | b(rs2) | b(rd),
        FpCmp { rd, rs1, rs2, .. } => b(rs1) | b(rs2) | b(rd),
        Fma {
            rd, rs1, rs2, rs3, ..
        } => b(rs1) | b(rs2) | b(rs3) | b(rd),
        Tex { rd, u, v, lod, .. } => b(u) | b(v) | b(lod) | b(rd),
        Csr { rd, src, .. } => {
            let src = match src {
                CsrSrc::Reg(r) => b(r),
                _ => 0,
            };
            src | if rd == Reg::X0 { 0 } else { b(rd) }
        }
    }
}

/// One wavefront's front-end state.
#[derive(Debug, Clone, Copy)]
struct Wave {
    /// The instruction buffer: a two-entry ring (`head` ∈ {0, 1}).
    ring: [Slot; FrontEnd::IBUFFER_DEPTH],
    head: u8,
    len: u8,
    /// A fetch-blocking instruction is decoded but not yet executed, so
    /// the next fetch address is unknown.
    cf_block: bool,
    /// Outstanding fetch PC.
    fetch_pending: Option<u32>,
}

/// Instruction buffers, redirect blocks and outstanding fetches of every
/// wavefront, with each per-wavefront predicate mirrored as one bit of a
/// `u64` so the per-cycle stages answer "which wavefronts …" with mask
/// arithmetic. All mutation goes through the methods here, which keep the
/// masks in step ([`FrontEnd::check_masks`] recomputes them from scratch).
#[derive(Debug)]
pub struct FrontEnd {
    waves: Vec<Wave>,
    nonempty: u64,
    full: u64,
    cf_block: u64,
    fetch_pending: u64,
}

impl FrontEnd {
    /// Instruction-buffer depth per wavefront.
    pub const IBUFFER_DEPTH: usize = 2;

    /// Creates the front end of `num_wavefronts` (at most 64) wavefronts.
    pub fn new(num_wavefronts: usize) -> Self {
        let idle = Wave {
            ring: [Slot::EMPTY; Self::IBUFFER_DEPTH],
            head: 0,
            len: 0,
            cf_block: false,
            fetch_pending: None,
        };
        Self {
            waves: vec![idle; num_wavefronts],
            nonempty: 0,
            full: 0,
            cf_block: 0,
            fetch_pending: 0,
        }
    }

    /// Wavefronts with at least one buffered instruction.
    #[inline]
    pub fn nonempty(&self) -> u64 {
        self.nonempty
    }

    /// Wavefronts the fetch stage must skip: buffer full, unresolved
    /// redirect, or a fetch already outstanding.
    #[inline]
    pub fn fetch_blocked(&self) -> u64 {
        self.full | self.cf_block | self.fetch_pending
    }

    /// `true` when no wavefront holds a buffered instruction or an
    /// outstanding fetch.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.nonempty | self.fetch_pending == 0
    }

    /// Buffered instructions across all wavefronts.
    pub fn occupancy(&self) -> usize {
        (self.nonempty.count_ones() + self.full.count_ones()) as usize
    }

    /// Buffered instructions of `wid`.
    pub fn len(&self, wid: usize) -> usize {
        usize::from(self.waves[wid].len)
    }

    /// The oldest buffered instruction of `wid`.
    #[inline]
    pub fn front(&self, wid: usize) -> Option<&Slot> {
        let w = &self.waves[wid];
        (w.len != 0).then(|| &w.ring[usize::from(w.head)])
    }

    /// Buffered instructions of `wid`, oldest first.
    pub fn iter(&self, wid: usize) -> impl Iterator<Item = &Slot> {
        let w = &self.waves[wid];
        (0..w.len).map(move |i| &w.ring[usize::from((w.head + i) & 1)])
    }

    /// Appends `slot` to `wid`'s buffer; a fetch-blocking slot raises the
    /// redirect block.
    ///
    /// # Panics
    /// Panics when the buffer is full (the fetch stage never fetches for a
    /// full buffer).
    #[inline]
    pub fn push(&mut self, wid: usize, slot: Slot) {
        let w = &mut self.waves[wid];
        assert!(usize::from(w.len) < Self::IBUFFER_DEPTH, "ibuffer overflow");
        w.ring[usize::from((w.head + w.len) & 1)] = slot;
        w.len += 1;
        let bit = 1u64 << wid;
        self.nonempty |= bit;
        if usize::from(w.len) == Self::IBUFFER_DEPTH {
            self.full |= bit;
        }
        if slot.blocks_fetch {
            w.cf_block = true;
            self.cf_block |= bit;
        }
    }

    /// Removes the oldest buffered instruction of `wid`; popping a
    /// fetch-blocking slot lifts the redirect block.
    #[inline]
    pub fn pop(&mut self, wid: usize) -> Option<Slot> {
        let w = &mut self.waves[wid];
        if w.len == 0 {
            return None;
        }
        let slot = w.ring[usize::from(w.head)];
        w.head ^= 1;
        w.len -= 1;
        let bit = 1u64 << wid;
        self.full &= !bit;
        if w.len == 0 {
            self.nonempty &= !bit;
        }
        if slot.blocks_fetch {
            w.cf_block = false;
            self.cf_block &= !bit;
        }
        Some(slot)
    }

    /// Discards `wid`'s buffered instructions, redirect block and
    /// outstanding fetch (halt, respawn, relaunch).
    pub fn clear(&mut self, wid: usize) {
        let w = &mut self.waves[wid];
        w.len = 0;
        w.cf_block = false;
        w.fetch_pending = None;
        let keep = !(1u64 << wid);
        self.nonempty &= keep;
        self.full &= keep;
        self.cf_block &= keep;
        self.fetch_pending &= keep;
    }

    /// `wid`'s outstanding fetch PC.
    #[inline]
    pub fn fetch_pending(&self, wid: usize) -> Option<u32> {
        self.waves[wid].fetch_pending
    }

    /// Records a fetch of `pc` in flight for `wid`.
    #[inline]
    pub fn set_fetch_pending(&mut self, wid: usize, pc: u32) {
        self.waves[wid].fetch_pending = Some(pc);
        self.fetch_pending |= 1 << wid;
    }

    /// Completes (or cancels) `wid`'s outstanding fetch.
    #[inline]
    pub fn take_fetch_pending(&mut self, wid: usize) -> Option<u32> {
        self.fetch_pending &= !(1 << wid);
        self.waves[wid].fetch_pending.take()
    }

    fn masks_from_waves(&self) -> [u64; 4] {
        let mut masks = [0u64; 4];
        for (wid, w) in self.waves.iter().enumerate() {
            let preds = [
                w.len != 0,
                usize::from(w.len) == Self::IBUFFER_DEPTH,
                w.cf_block,
                w.fetch_pending.is_some(),
            ];
            for (mask, pred) in masks.iter_mut().zip(preds) {
                *mask |= u64::from(pred) << wid;
            }
        }
        masks
    }

    /// Debug builds: asserts every mask equals its definition recomputed
    /// from the per-wavefront state. Compiles to nothing in release.
    pub fn check_masks(&self) {
        debug_assert_eq!(
            [self.nonempty, self.full, self.cf_block, self.fetch_pending],
            self.masks_from_waves(),
            "front-end masks out of step with per-wavefront state"
        );
    }

    /// Appends the front-end state in the snapshot format's order: every
    /// outstanding fetch, every buffer as `(encoded word, pc)` entries,
    /// every redirect block. The masks are derived and not serialized.
    pub fn save_state(&self, w: &mut Writer) {
        for wave in &self.waves {
            wave.fetch_pending.save(w);
        }
        for wid in 0..self.waves.len() {
            w.usize(self.len(wid));
            for slot in self.iter(wid) {
                w.u32(vortex_isa::encode(&slot.instr));
                w.u32(slot.pc);
            }
        }
        for wave in &self.waves {
            w.bool(wave.cf_block);
        }
    }

    /// Restores the front end in place; buffered words are re-decoded and
    /// re-resolved.
    ///
    /// # Errors
    /// [`SnapError::BadValue`] on an over-deep buffer or an undecodable
    /// buffered word.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> SnapResult<()> {
        for wave in &mut self.waves {
            wave.fetch_pending = Option::<u32>::load(r)?;
        }
        for wave in &mut self.waves {
            let n = r.len(8)?;
            if n > Self::IBUFFER_DEPTH {
                return Err(SnapError::BadValue("ibuffer depth"));
            }
            wave.head = 0;
            wave.len = n as u8;
            for entry in &mut wave.ring[..n] {
                let word = r.u32()?;
                let pc = r.u32()?;
                *entry = Slot::decode(word)
                    .map_err(|_| SnapError::BadValue("ibuffer instruction"))?
                    .at(pc);
            }
        }
        for wave in &mut self.waves {
            wave.cf_block = r.bool()?;
        }
        // Derived state last: every field the masks mirror is loaded.
        [self.nonempty, self.full, self.cf_block, self.fetch_pending] = self.masks_from_waves();
        Ok(())
    }
}
