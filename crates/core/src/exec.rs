//! Functional execution of one wavefront-instruction.
//!
//! Runs at issue time: reads the banked registers, computes per-lane
//! results, performs functional memory accesses against the [`Ram`], and
//! reports everything the *timing* side needs — which functional unit the
//! instruction occupies, the writeback payload, per-lane memory addresses
//! for the LSU, texture coordinates for the texture unit, and control
//! effects (PC redirects, thread-mask changes, spawns, barriers, halts).

use crate::config::{smem_phys, SMEM_BASE};
use crate::ipdom::{IpdomError, JoinOutcome, SplitOutcome};
use crate::regfile::RegFile;
use crate::scoreboard::RegId;
use crate::warp::Wavefront;
use vortex_isa::csr;
use vortex_isa::{
    BranchCond, CsrKind, CsrSrc, FmaKind, FpCmpKind, FpOpKind, Instr, LoadWidth, OpImmKind, OpKind,
    StoreWidth,
};
use vortex_mem::Ram;
use vortex_tex::{FilterMode, TexFormat, TexState, WrapMode};

/// A fault detected during functional execution. The core maps it to a
/// `SimError` carrying the trap site (core, wavefront, PC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// `join` with an empty IPDOM stack.
    DivergenceUnderflow,
    /// `split` nesting exceeded the IPDOM stack.
    DivergenceOverflow,
    /// A branch or `jalr` computed lane-divergent targets.
    DivergentBranch,
}

impl From<IpdomError> for Trap {
    fn from(e: IpdomError) -> Self {
        match e {
            IpdomError::Underflow => Self::DivergenceUnderflow,
            IpdomError::Overflow => Self::DivergenceOverflow,
        }
    }
}

/// Which functional unit an instruction occupies (drives timing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuKind {
    /// Single-cycle integer ALU (also branches).
    Alu,
    /// Pipelined multiplier.
    Mul,
    /// Blocking divider.
    Div,
    /// Pipelined FP add/mul/FMA/compare/convert.
    Fpu,
    /// Blocking FP divide.
    FDiv,
    /// Blocking FP square root.
    FSqrt,
    /// Load-store unit.
    Lsu,
    /// Texture unit.
    Tex,
    /// CSR / system unit.
    Sfu,
}

/// Per-lane register writeback payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Writeback {
    /// Destination register.
    pub reg: RegId,
    /// One value per lane; `None` for inactive lanes.
    pub values: Vec<Option<u32>>,
}

/// Reusable per-instruction payload buffers. Owned by the core and
/// threaded into [`execute_with`] so the hot loop recycles writeback and
/// lane-access vectors instead of allocating fresh ones per instruction.
#[derive(Debug, Default)]
pub struct ExecPool {
    values: Vec<Vec<Option<u32>>>,
    accesses: Vec<Vec<Option<LaneAccess>>>,
}

impl ExecPool {
    /// Pool bound per buffer kind: more than the LSU entries + in-flight
    /// completions can ever hold live is never reused.
    const MAX_SPARES: usize = 32;

    fn take_values(&mut self) -> Vec<Option<u32>> {
        self.values.pop().unwrap_or_default()
    }

    fn take_accesses(&mut self) -> Vec<Option<LaneAccess>> {
        self.accesses.pop().unwrap_or_default()
    }

    /// Returns a spent writeback-values buffer to the pool.
    pub fn recycle_values(&mut self, mut v: Vec<Option<u32>>) {
        if self.values.len() < Self::MAX_SPARES {
            v.clear();
            self.values.push(v);
        }
    }

    /// Returns a spent lane-access buffer to the pool.
    pub fn recycle_accesses(&mut self, mut v: Vec<Option<LaneAccess>>) {
        if self.accesses.len() < Self::MAX_SPARES {
            v.clear();
            self.accesses.push(v);
        }
    }

    /// One value per lane computed by `f`; `None` for inactive lanes.
    fn lanes(
        &mut self,
        nt: usize,
        tmask: u32,
        f: &mut dyn FnMut(usize) -> u32,
    ) -> Vec<Option<u32>> {
        let mut v = self.take_values();
        v.extend((0..nt).map(|t| {
            if tmask & (1 << t) != 0 {
                Some(f(t))
            } else {
                None
            }
        }));
        v
    }
}

/// One lane's memory access for the LSU timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// Byte address (local view; shared-memory addresses are ≥
    /// [`SMEM_BASE`]).
    pub addr: u32,
    /// `true` for stores.
    pub write: bool,
}

/// Per-lane texture coordinates: `(u, v, lod)` per active lane.
pub type TexLanes = Vec<Option<(f32, f32, f32)>>;

/// The timing-side description of an executed instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Functional unit.
    pub fu: FuKind,
    /// Register writeback, if any.
    pub wb: Option<Writeback>,
    /// Per-lane memory accesses (loads/stores), if any.
    pub mem: Option<Vec<Option<LaneAccess>>>,
    /// Per-lane texture coordinates `(u, v, lod)` and the stage, if `tex`.
    pub tex: Option<(usize, TexLanes)>,
    /// Barrier arrival `(id, expected count)`, if `bar`.
    pub barrier: Option<(u32, u32)>,
    /// `true` if this is a `fence` (drain + flush).
    pub fence: bool,
    /// Wavefront spawn request `(count, pc)`, if `wspawn`.
    pub wspawn: Option<(u32, u32)>,
    /// `true` when the wavefront halted (`ecall` / `tmc 0`).
    pub halted: bool,
    /// `true` if `split` actually diverged (statistics).
    pub diverged: bool,
}

impl ExecResult {
    fn unit(fu: FuKind) -> Self {
        Self {
            fu,
            wb: None,
            mem: None,
            tex: None,
            barrier: None,
            fence: false,
            wspawn: None,
            halted: false,
            diverged: false,
        }
    }
}

/// Per-core CSR state: FP status plus the texture-stage registers.
#[derive(Debug, Clone, Default)]
pub struct CsrFile {
    /// fcsr (frm | fflags).
    pub fcsr: u32,
    /// Raw texture CSR values `[stage][slot]`.
    pub tex_raw: [[u32; csr::TEX_STRIDE as usize]; csr::TEX_STAGES],
}

impl CsrFile {
    /// Builds the decoded [`TexState`] for `stage`.
    pub fn tex_state(&self, stage: usize) -> TexState {
        let raw = &self.tex_raw[stage];
        TexState {
            addr: raw[csr::TexReg::Addr as usize],
            mipoff: raw[csr::TexReg::MipOff as usize],
            log_width: raw[csr::TexReg::LogWidth as usize].min(15),
            log_height: raw[csr::TexReg::LogHeight as usize].min(15),
            format: TexFormat::from_csr(raw[csr::TexReg::Format as usize]),
            wrap_u: WrapMode::from_csr(raw[csr::TexReg::Wrap as usize]),
            wrap_v: WrapMode::from_csr(raw[csr::TexReg::Wrap as usize] >> 2),
            filter: FilterMode::from_csr(raw[csr::TexReg::Filter as usize]),
        }
    }

    /// All texture stages, decoded (the texture unit's view). Returned by
    /// value on the stack — this runs per texture issue, so no allocation.
    pub fn tex_states(&self) -> [TexState; csr::TEX_STAGES] {
        std::array::from_fn(|s| self.tex_state(s))
    }
}

/// Identification and counters exposed to CSR reads.
#[derive(Debug, Clone, Copy)]
pub struct ExecEnv {
    /// This core's id.
    pub core_id: usize,
    /// Total cores.
    pub num_cores: usize,
    /// Wavefronts per core.
    pub num_wavefronts: usize,
    /// Threads per wavefront.
    pub num_threads: usize,
    /// Current cycle (for the `cycle` CSR).
    pub cycle: u64,
    /// Retired instructions (for the `instret` CSR).
    pub instret: u64,
}

fn ram_read(ram: &Ram, addr: u32, core_id: usize, width: LoadWidth) -> u32 {
    let addr = if addr >= SMEM_BASE {
        smem_phys(addr, core_id)
    } else {
        addr
    };
    match width {
        LoadWidth::B => ram.read_u8(addr) as i8 as i32 as u32,
        LoadWidth::Bu => u32::from(ram.read_u8(addr)),
        LoadWidth::H => ram.read_u16(addr) as i16 as i32 as u32,
        LoadWidth::Hu => u32::from(ram.read_u16(addr)),
        LoadWidth::W => ram.read_u32(addr),
    }
}

fn ram_write(ram: &mut Ram, addr: u32, core_id: usize, width: StoreWidth, value: u32) {
    let addr = if addr >= SMEM_BASE {
        smem_phys(addr, core_id)
    } else {
        addr
    };
    match width {
        StoreWidth::B => ram.write_u8(addr, value as u8),
        StoreWidth::H => ram.write_u16(addr, value as u16),
        StoreWidth::W => ram.write_u32(addr, value),
    }
}

fn alu_op(op: OpKind, a: u32, b: u32) -> u32 {
    match op {
        OpKind::Add => a.wrapping_add(b),
        OpKind::Sub => a.wrapping_sub(b),
        OpKind::Sll => a.wrapping_shl(b & 31),
        OpKind::Slt => u32::from((a as i32) < (b as i32)),
        OpKind::Sltu => u32::from(a < b),
        OpKind::Xor => a ^ b,
        OpKind::Srl => a.wrapping_shr(b & 31),
        OpKind::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        OpKind::Or => a | b,
        OpKind::And => a & b,
        OpKind::Mul => a.wrapping_mul(b),
        OpKind::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        OpKind::Mulhsu => (((a as i32 as i64) * (b as i64)) >> 32) as u32,
        OpKind::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        OpKind::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a // overflow: quotient = dividend per spec
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        OpKind::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        OpKind::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        OpKind::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn fcvt_w_s(f: f32, signed: bool) -> u32 {
    if signed {
        if f.is_nan() {
            i32::MAX as u32
        } else {
            (f as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32 as u32
        }
    } else if f.is_nan() || f <= -1.0 {
        if f.is_nan() {
            u32::MAX
        } else {
            0
        }
    } else {
        (f as i64).clamp(0, u32::MAX as i64) as u32
    }
}

fn fclass(bits: u32) -> u32 {
    let f = f32::from_bits(bits);
    let sign = bits >> 31 == 1;

    if f.is_nan() {
        if bits & 0x0040_0000 != 0 {
            1 << 9 // quiet NaN
        } else {
            1 << 8 // signaling NaN
        }
    } else if f.is_infinite() {
        if sign {
            1 << 0
        } else {
            1 << 7
        }
    } else if f == 0.0 {
        if sign {
            1 << 3
        } else {
            1 << 4
        }
    } else if f.is_subnormal() {
        if sign {
            1 << 2
        } else {
            1 << 5
        }
    } else if sign {
        1 << 1
    } else {
        1 << 6
    }
}

/// Executes `instr` (fetched from `instr_pc`) for wavefront `wf`.
///
/// On entry `wf.pc` already points at `instr_pc + 4`; control-flow
/// instructions overwrite it. Register writes are *returned* in the
/// writeback payload (applied by the writeback stage), while memory and
/// CSR state changes apply immediately — see the crate-level discussion of
/// the functional-first model.
///
/// This convenience wrapper allocates its payload buffers; the simulator
/// hot loop calls [`execute_with`] with a long-lived [`ExecPool`] instead.
///
/// # Errors
/// Returns a [`Trap`] (without corrupting wavefront state) for SIMT
/// contract violations: divergent branch/`jalr` targets and unbalanced or
/// over-nested `split`/`join`.
pub fn execute(
    wf: &mut Wavefront,
    regs: &RegFile,
    ram: &mut Ram,
    csrf: &mut CsrFile,
    env: &ExecEnv,
    instr: &Instr,
    instr_pc: u32,
) -> Result<ExecResult, Trap> {
    execute_with(
        wf,
        regs,
        ram,
        csrf,
        env,
        instr,
        instr_pc,
        &mut ExecPool::default(),
    )
}

/// [`execute`] with caller-provided payload buffers — the simulator hot
/// loop passes a long-lived [`ExecPool`] so executing an instruction does
/// not heap-allocate in the steady state.
///
/// # Errors
/// Same contract as [`execute`].
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn execute_with(
    wf: &mut Wavefront,
    regs: &RegFile,
    ram: &mut Ram,
    csrf: &mut CsrFile,
    env: &ExecEnv,
    instr: &Instr,
    instr_pc: u32,
    pool: &mut ExecPool,
) -> Result<ExecResult, Trap> {
    let wid = wf.wid;
    let nt = env.num_threads;
    let tmask = wf.tmask;

    Ok(match *instr {
        Instr::Lui { rd, imm } => {
            let mut r = ExecResult::unit(FuKind::Alu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |_| imm as u32),
            });
            r
        }
        Instr::Auipc { rd, imm } => {
            let mut r = ExecResult::unit(FuKind::Alu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |_| instr_pc.wrapping_add(imm as u32)),
            });
            r
        }
        Instr::Jal { rd, offset } => {
            wf.pc = instr_pc.wrapping_add(offset as u32);
            let mut r = ExecResult::unit(FuKind::Alu);
            if rd != vortex_isa::Reg::X0 {
                r.wb = Some(Writeback {
                    reg: rd.into(),
                    values: pool.lanes(nt, tmask, &mut |_| instr_pc.wrapping_add(4)),
                });
            }
            r
        }
        Instr::Jalr { rd, rs1, offset } => {
            // Jump target must be uniform across active lanes.
            let lane0 = tmask.trailing_zeros() as usize;
            let target = regs.read_x(wid, lane0, rs1).wrapping_add(offset as u32) & !1;
            if !(0..nt).all(|t| {
                tmask & (1 << t) == 0
                    || regs.read_x(wid, t, rs1).wrapping_add(offset as u32) & !1 == target
            }) {
                return Err(Trap::DivergentBranch);
            }
            wf.pc = target;
            let mut r = ExecResult::unit(FuKind::Alu);
            if rd != vortex_isa::Reg::X0 {
                r.wb = Some(Writeback {
                    reg: rd.into(),
                    values: pool.lanes(nt, tmask, &mut |_| instr_pc.wrapping_add(4)),
                });
            }
            r
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let take = |t: usize| {
                let a = regs.read_x(wid, t, rs1);
                let b = regs.read_x(wid, t, rs2);
                match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                }
            };
            let mut taken = false;
            let mut first = true;
            for t in (0..nt).filter(|t| tmask & (1 << t) != 0) {
                let lane_taken = take(t);
                if first {
                    taken = lane_taken;
                    first = false;
                } else if lane_taken != taken {
                    return Err(Trap::DivergentBranch);
                }
            }
            if taken {
                wf.pc = instr_pc.wrapping_add(offset as u32);
            }
            ExecResult::unit(FuKind::Alu)
        }
        Instr::Load {
            width,
            rd,
            rs1,
            offset,
        } => {
            let mut accesses = pool.take_accesses();
            let mut values = pool.take_values();
            for t in 0..nt {
                if tmask & (1 << t) != 0 {
                    let addr = regs.read_x(wid, t, rs1).wrapping_add(offset as u32);
                    values.push(Some(ram_read(ram, addr, env.core_id, width)));
                    accesses.push(Some(LaneAccess { addr, write: false }));
                } else {
                    values.push(None);
                    accesses.push(None);
                }
            }
            let mut r = ExecResult::unit(FuKind::Lsu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values,
            });
            r.mem = Some(accesses);
            r
        }
        Instr::Store {
            width,
            rs1,
            rs2,
            offset,
        } => {
            let mut accesses = pool.take_accesses();
            for t in 0..nt {
                if tmask & (1 << t) != 0 {
                    let addr = regs.read_x(wid, t, rs1).wrapping_add(offset as u32);
                    let value = regs.read_x(wid, t, rs2);
                    ram_write(ram, addr, env.core_id, width, value);
                    accesses.push(Some(LaneAccess { addr, write: true }));
                } else {
                    accesses.push(None);
                }
            }
            let mut r = ExecResult::unit(FuKind::Lsu);
            r.mem = Some(accesses);
            r
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            let kind = match op {
                OpImmKind::Addi => OpKind::Add,
                OpImmKind::Slti => OpKind::Slt,
                OpImmKind::Sltiu => OpKind::Sltu,
                OpImmKind::Xori => OpKind::Xor,
                OpImmKind::Ori => OpKind::Or,
                OpImmKind::Andi => OpKind::And,
                OpImmKind::Slli => OpKind::Sll,
                OpImmKind::Srli => OpKind::Srl,
                OpImmKind::Srai => OpKind::Sra,
            };
            let mut r = ExecResult::unit(FuKind::Alu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    alu_op(kind, regs.read_x(wid, t, rs1), imm as u32)
                }),
            });
            r
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let fu = if op.is_muldiv() {
                match op {
                    OpKind::Div | OpKind::Divu | OpKind::Rem | OpKind::Remu => FuKind::Div,
                    _ => FuKind::Mul,
                }
            } else {
                FuKind::Alu
            };
            let mut r = ExecResult::unit(fu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    alu_op(op, regs.read_x(wid, t, rs1), regs.read_x(wid, t, rs2))
                }),
            });
            r
        }
        Instr::Fence => {
            let mut r = ExecResult::unit(FuKind::Lsu);
            r.fence = true;
            r
        }
        Instr::Ecall | Instr::Ebreak => {
            // The kernel-exit convention: the wavefront terminates.
            wf.halt();
            let mut r = ExecResult::unit(FuKind::Sfu);
            r.halted = true;
            r
        }
        Instr::Csr {
            kind,
            rd,
            csr: addr,
            src,
        } => {
            let old = |t: usize| csr_read(csrf, env, wid, t, addr);
            let mut r = ExecResult::unit(FuKind::Sfu);
            if rd != vortex_isa::Reg::X0 {
                r.wb = Some(Writeback {
                    reg: rd.into(),
                    values: pool.lanes(nt, tmask, &mut |t| old(t)),
                });
            }
            // CSR writes use lane 0's operand (texture state is per-core).
            let lane0 = tmask.trailing_zeros() as usize;
            let operand = match src {
                CsrSrc::Reg(rs) => regs.read_x(wid, lane0.min(nt - 1), rs),
                CsrSrc::Imm(i) => u32::from(i),
            };
            let write_needed = match (kind, src) {
                (CsrKind::ReadWrite, _) => true,
                (_, CsrSrc::Reg(rs)) => rs != vortex_isa::Reg::X0,
                (_, CsrSrc::Imm(i)) => i != 0,
            };
            if write_needed && !csr::is_read_only(addr) {
                let cur = csr_read(csrf, env, wid, lane0.min(nt - 1), addr);
                let new = match kind {
                    CsrKind::ReadWrite => operand,
                    CsrKind::ReadSet => cur | operand,
                    CsrKind::ReadClear => cur & !operand,
                };
                csr_write(csrf, addr, new);
            }
            r
        }
        Instr::Flw { rd, rs1, offset } => {
            let mut accesses = pool.take_accesses();
            let mut values = pool.take_values();
            for t in 0..nt {
                if tmask & (1 << t) != 0 {
                    let addr = regs.read_x(wid, t, rs1).wrapping_add(offset as u32);
                    values.push(Some(ram_read(ram, addr, env.core_id, LoadWidth::W)));
                    accesses.push(Some(LaneAccess { addr, write: false }));
                } else {
                    values.push(None);
                    accesses.push(None);
                }
            }
            let mut r = ExecResult::unit(FuKind::Lsu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values,
            });
            r.mem = Some(accesses);
            r
        }
        Instr::Fsw { rs1, rs2, offset } => {
            let mut accesses = pool.take_accesses();
            for t in 0..nt {
                if tmask & (1 << t) != 0 {
                    let addr = regs.read_x(wid, t, rs1).wrapping_add(offset as u32);
                    let value = regs.read_f(wid, t, rs2);
                    ram_write(ram, addr, env.core_id, StoreWidth::W, value);
                    accesses.push(Some(LaneAccess { addr, write: true }));
                } else {
                    accesses.push(None);
                }
            }
            let mut r = ExecResult::unit(FuKind::Lsu);
            r.mem = Some(accesses);
            r
        }
        Instr::Fma {
            kind,
            rd,
            rs1,
            rs2,
            rs3,
            ..
        } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    let a = f32::from_bits(regs.read_f(wid, t, rs1));
                    let b = f32::from_bits(regs.read_f(wid, t, rs2));
                    let c = f32::from_bits(regs.read_f(wid, t, rs3));
                    let v = match kind {
                        FmaKind::Madd => a.mul_add(b, c),
                        FmaKind::Msub => a.mul_add(b, -c),
                        FmaKind::Nmsub => (-a).mul_add(b, c),
                        FmaKind::Nmadd => (-a).mul_add(b, -c),
                    };
                    v.to_bits()
                }),
            });
            r
        }
        Instr::FpOp {
            op, rd, rs1, rs2, ..
        } => {
            let fu = match op {
                FpOpKind::Div => FuKind::FDiv,
                FpOpKind::Sqrt => FuKind::FSqrt,
                _ => FuKind::Fpu,
            };
            let mut r = ExecResult::unit(fu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    let a_bits = regs.read_f(wid, t, rs1);
                    let b_bits = regs.read_f(wid, t, rs2);
                    let a = f32::from_bits(a_bits);
                    let b = f32::from_bits(b_bits);
                    match op {
                        FpOpKind::Add => (a + b).to_bits(),
                        FpOpKind::Sub => (a - b).to_bits(),
                        FpOpKind::Mul => (a * b).to_bits(),
                        FpOpKind::Div => (a / b).to_bits(),
                        FpOpKind::Sqrt => a.sqrt().to_bits(),
                        FpOpKind::SgnJ => (a_bits & 0x7FFF_FFFF) | (b_bits & 0x8000_0000),
                        FpOpKind::SgnJn => (a_bits & 0x7FFF_FFFF) | (!b_bits & 0x8000_0000),
                        FpOpKind::SgnJx => a_bits ^ (b_bits & 0x8000_0000),
                        #[allow(clippy::if_same_then_else)] // NaN arms are semantically distinct
                        FpOpKind::Min => {
                            if a.is_nan() {
                                b.to_bits()
                            } else if b.is_nan() {
                                a_bits
                            } else if a < b || (a == b && a.is_sign_negative()) {
                                a_bits
                            } else {
                                b.to_bits()
                            }
                        }
                        #[allow(clippy::if_same_then_else)]
                        FpOpKind::Max => {
                            if a.is_nan() {
                                b.to_bits()
                            } else if b.is_nan() {
                                a_bits
                            } else if a > b || (a == b && b.is_sign_negative()) {
                                a_bits
                            } else {
                                b.to_bits()
                            }
                        }
                    }
                }),
            });
            r
        }
        Instr::FpCmp { op, rd, rs1, rs2 } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    let a = f32::from_bits(regs.read_f(wid, t, rs1));
                    let b = f32::from_bits(regs.read_f(wid, t, rs2));
                    u32::from(match op {
                        FpCmpKind::Eq => a == b,
                        FpCmpKind::Lt => a < b,
                        FpCmpKind::Le => a <= b,
                    })
                }),
            });
            r
        }
        Instr::FpToInt {
            signed, rd, rs1, ..
        } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    fcvt_w_s(f32::from_bits(regs.read_f(wid, t, rs1)), signed)
                }),
            });
            r
        }
        Instr::IntToFp {
            signed, rd, rs1, ..
        } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| {
                    let x = regs.read_x(wid, t, rs1);
                    let v = if signed { x as i32 as f32 } else { x as f32 };
                    v.to_bits()
                }),
            });
            r
        }
        Instr::FmvToInt { rd, rs1 } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| regs.read_f(wid, t, rs1)),
            });
            r
        }
        Instr::FmvFromInt { rd, rs1 } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| regs.read_x(wid, t, rs1)),
            });
            r
        }
        Instr::FClass { rd, rs1 } => {
            let mut r = ExecResult::unit(FuKind::Fpu);
            r.wb = Some(Writeback {
                reg: rd.into(),
                values: pool.lanes(nt, tmask, &mut |t| fclass(regs.read_f(wid, t, rs1))),
            });
            r
        }

        // --- Vortex extension -------------------------------------------
        Instr::Tmc { rs1 } => {
            let lane0 = tmask.trailing_zeros().min(nt as u32 - 1) as usize;
            let n = regs.read_x(wid, lane0, rs1).min(nt as u32);
            let mut r = ExecResult::unit(FuKind::Sfu);
            if n == 0 {
                wf.halt();
                r.halted = true;
            } else {
                wf.tmask = (1u32 << n) - 1;
            }
            r
        }
        Instr::Wspawn { rs1, rs2 } => {
            let lane0 = tmask.trailing_zeros().min(nt as u32 - 1) as usize;
            let count = regs.read_x(wid, lane0, rs1);
            let pc = regs.read_x(wid, lane0, rs2);
            let mut r = ExecResult::unit(FuKind::Sfu);
            r.wspawn = Some((count, pc));
            r
        }
        Instr::Split { rs1 } => {
            let mut pred_mask = 0u32;
            for t in 0..nt {
                if tmask & (1 << t) != 0 && regs.read_x(wid, t, rs1) != 0 {
                    pred_mask |= 1 << t;
                }
            }
            let next_pc = instr_pc.wrapping_add(4);
            let mut r = ExecResult::unit(FuKind::Sfu);
            match wf
                .ipdom
                .split(tmask, pred_mask, next_pc)
                .map_err(Trap::from)?
            {
                SplitOutcome::Uniform => {}
                SplitOutcome::Diverged { then_mask } => {
                    wf.tmask = then_mask;
                    r.diverged = true;
                }
            }
            r
        }
        Instr::Join => {
            match wf.ipdom.join().map_err(Trap::from)? {
                JoinOutcome::FallThrough { tmask } => {
                    wf.tmask = tmask;
                }
                JoinOutcome::Branch { tmask, pc } => {
                    wf.tmask = tmask;
                    wf.pc = pc;
                }
            }
            ExecResult::unit(FuKind::Sfu)
        }
        Instr::Bar { rs1, rs2 } => {
            let lane0 = tmask.trailing_zeros().min(nt as u32 - 1) as usize;
            let id = regs.read_x(wid, lane0, rs1);
            let count = regs.read_x(wid, lane0, rs2).max(1);
            let mut r = ExecResult::unit(FuKind::Sfu);
            r.barrier = Some((id, count));
            r
        }
        Instr::Tex {
            rd,
            u,
            v,
            lod,
            stage,
        } => {
            let coords: Vec<Option<(f32, f32, f32)>> = (0..nt)
                .map(|t| {
                    if tmask & (1 << t) != 0 {
                        Some((
                            f32::from_bits(regs.read_x(wid, t, u)),
                            f32::from_bits(regs.read_x(wid, t, v)),
                            f32::from_bits(regs.read_x(wid, t, lod)),
                        ))
                    } else {
                        None
                    }
                })
                .collect();
            let mut r = ExecResult::unit(FuKind::Tex);
            r.tex = Some((usize::from(stage), coords));
            // The writeback registers values produced by the texture unit;
            // recorded here so the issue stage can mark the scoreboard.
            r.wb = Some(Writeback {
                reg: rd.into(),
                // Filled in by the texture response.
                values: {
                    let mut v = pool.take_values();
                    v.resize(nt, None);
                    v
                },
            });
            r
        }
    })
}

/// Per-lane CSR read.
fn csr_read(csrf: &CsrFile, env: &ExecEnv, wid: usize, tid: usize, addr: u16) -> u32 {
    if let Some((stage, slot)) = csr::tex_csr_decompose(addr) {
        return csrf.tex_raw[stage][slot as usize];
    }
    match addr {
        csr::FFLAGS => csrf.fcsr & 0x1F,
        csr::FRM => (csrf.fcsr >> 5) & 0x7,
        csr::FCSR => csrf.fcsr,
        csr::CYCLE | csr::TIME => env.cycle as u32,
        csr::CYCLEH | csr::TIMEH => (env.cycle >> 32) as u32,
        csr::INSTRET => env.instret as u32,
        csr::INSTRETH => (env.instret >> 32) as u32,
        csr::MHARTID | csr::VX_CID => env.core_id as u32,
        csr::VX_TID => tid as u32,
        csr::VX_WID => wid as u32,
        csr::VX_TMASK => 0, // read via the wavefront, patched by caller if needed
        csr::VX_NT => env.num_threads as u32,
        csr::VX_NW => env.num_wavefronts as u32,
        csr::VX_NC => env.num_cores as u32,
        csr::VX_GTID => (((env.core_id * env.num_wavefronts + wid) * env.num_threads) + tid) as u32,
        _ => 0,
    }
}

/// CSR write (texture state and FP status only; the rest are read-only).
fn csr_write(csrf: &mut CsrFile, addr: u16, value: u32) {
    if let Some((stage, slot)) = csr::tex_csr_decompose(addr) {
        csrf.tex_raw[stage][slot as usize] = value;
        return;
    }
    match addr {
        csr::FFLAGS => csrf.fcsr = (csrf.fcsr & !0x1F) | (value & 0x1F),
        csr::FRM => csrf.fcsr = (csrf.fcsr & !0xE0) | ((value & 0x7) << 5),
        csr::FCSR => csrf.fcsr = value & 0xFF,
        _ => {}
    }
}

vortex_snapshot::snapshot! {
    impl pub state for CsrFile { fcsr, tex_raw }
}

vortex_snapshot::snapshot! {
    impl Snap for Writeback {
        reg if reg.0 < 64 => "register id",
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::Reg;

    fn setup(nt: usize) -> (Wavefront, RegFile, Ram, CsrFile, ExecEnv) {
        let mut wf = Wavefront::new(0, nt);
        wf.spawn(0x100, (1 << nt) - 1);
        wf.pc = 0x104; // fetch already advanced
        (
            wf,
            RegFile::new(1, nt),
            Ram::new(),
            CsrFile::default(),
            ExecEnv {
                core_id: 2,
                num_cores: 4,
                num_wavefronts: 4,
                num_threads: nt,
                cycle: 1234,
                instret: 99,
            },
        )
    }

    #[test]
    fn addi_is_per_lane() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(4);
        for t in 0..4 {
            regs.write_x(0, t, Reg::X5, t as u32 * 10);
        }
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::OpImm {
                op: OpImmKind::Addi,
                rd: Reg::X6,
                rs1: Reg::X5,
                imm: 1,
            },
            0x100,
        )
        .unwrap();
        let wb = r.wb.unwrap();
        assert_eq!(wb.values, vec![Some(1), Some(11), Some(21), Some(31)]);
        assert_eq!(r.fu, FuKind::Alu);
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let (mut wf, regs, mut ram, mut csrf, env) = setup(4);
        wf.tmask = 0b0101;
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::OpImm {
                op: OpImmKind::Addi,
                rd: Reg::X6,
                rs1: Reg::X0,
                imm: 7,
            },
            0x100,
        )
        .unwrap();
        assert_eq!(r.wb.unwrap().values, vec![Some(7), None, Some(7), None]);
    }

    #[test]
    fn branch_taken_redirects_pc() {
        let (mut wf, regs, mut ram, mut csrf, env) = setup(2);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::X0,
                rs2: Reg::X0,
                offset: -8,
            },
            0x100,
        )
        .unwrap();
        assert_eq!(wf.pc, 0x0F8);
        assert!(r.wb.is_none());
    }

    #[test]
    fn divergent_branch_traps() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(2);
        regs.write_x(0, 1, Reg::X5, 1); // lane 1 differs
        let pc_before = wf.pc;
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::X5,
                rs2: Reg::X0,
                offset: 8,
            },
            0x100,
        );
        assert_eq!(r, Err(Trap::DivergentBranch));
        assert_eq!(wf.pc, pc_before, "trap leaves the wavefront untouched");
    }

    #[test]
    fn divergent_jalr_traps() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(2);
        regs.write_x(0, 0, Reg::X5, 0x200);
        regs.write_x(0, 1, Reg::X5, 0x300); // lane 1 jumps elsewhere
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Jalr {
                rd: Reg::X1,
                rs1: Reg::X5,
                offset: 0,
            },
            0x100,
        );
        assert_eq!(r, Err(Trap::DivergentBranch));
    }

    #[test]
    fn unbalanced_join_traps() {
        let (mut wf, regs, mut ram, mut csrf, env) = setup(2);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Join,
            0x100,
        );
        assert_eq!(r, Err(Trap::DivergenceUnderflow));
    }

    #[test]
    fn load_reads_functionally_and_reports_lanes() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(2);
        ram.write_u32(0x1000, 0xAABB_CCDD);
        ram.write_u32(0x1004, 0x1122_3344);
        regs.write_x(0, 0, Reg::X5, 0x1000);
        regs.write_x(0, 1, Reg::X5, 0x1004);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Load {
                width: LoadWidth::W,
                rd: Reg::X6,
                rs1: Reg::X5,
                offset: 0,
            },
            0x100,
        )
        .unwrap();
        assert_eq!(
            r.wb.unwrap().values,
            vec![Some(0xAABB_CCDD), Some(0x1122_3344)]
        );
        let mem = r.mem.unwrap();
        assert_eq!(
            mem[0],
            Some(LaneAccess {
                addr: 0x1000,
                write: false
            })
        );
    }

    #[test]
    fn smem_accesses_are_core_private() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(1);
        regs.write_x(0, 0, Reg::X5, SMEM_BASE);
        regs.write_x(0, 0, Reg::X6, 42);
        execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X5,
                rs2: Reg::X6,
                offset: 0,
            },
            0x100,
        )
        .unwrap();
        // The physical backing is offset by core id (env.core_id == 2).
        assert_eq!(ram.read_u32(SMEM_BASE.wrapping_add(2 << 20)), 42);
        assert_eq!(ram.read_u32(SMEM_BASE), 0);
    }

    #[test]
    fn tmc_zero_halts_tmc_n_sets_mask() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(4);
        regs.write_x(0, 0, Reg::X5, 3);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Tmc { rs1: Reg::X5 },
            0x100,
        )
        .unwrap();
        assert_eq!(wf.tmask, 0b0111);
        assert!(!r.halted);
        regs.write_x(0, 0, Reg::X5, 0);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Tmc { rs1: Reg::X5 },
            0x104,
        )
        .unwrap();
        assert!(r.halted);
        assert!(!wf.active);
    }

    #[test]
    fn split_diverges_and_joins() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(4);
        // Lanes 0,2 predicate true.
        regs.write_x(0, 0, Reg::X5, 1);
        regs.write_x(0, 2, Reg::X5, 1);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Split { rs1: Reg::X5 },
            0x100,
        )
        .unwrap();
        assert!(r.diverged);
        assert_eq!(wf.tmask, 0b0101);
        // First join switches to the else side at 0x104.
        execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Join,
            0x200,
        )
        .unwrap();
        assert_eq!(wf.tmask, 0b1010);
        assert_eq!(wf.pc, 0x104);
        // Second join restores.
        execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Join,
            0x104,
        )
        .unwrap();
        assert_eq!(wf.tmask, 0b1111);
    }

    #[test]
    fn csr_reads_are_per_lane() {
        let (mut wf, regs, mut ram, mut csrf, env) = setup(4);
        let r = execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Csr {
                kind: CsrKind::ReadSet,
                rd: Reg::X7,
                csr: csr::VX_TID,
                src: CsrSrc::Reg(Reg::X0),
            },
            0x100,
        )
        .unwrap();
        assert_eq!(
            r.wb.unwrap().values,
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn csr_write_programs_texture_state() {
        let (mut wf, mut regs, mut ram, mut csrf, env) = setup(1);
        regs.write_x(0, 0, Reg::X5, 0xB000);
        execute(
            &mut wf,
            &regs,
            &mut ram,
            &mut csrf,
            &env,
            &Instr::Csr {
                kind: CsrKind::ReadWrite,
                rd: Reg::X0,
                csr: csr::tex_csr(1, csr::TexReg::Addr),
                src: CsrSrc::Reg(Reg::X5),
            },
            0x100,
        )
        .unwrap();
        assert_eq!(csrf.tex_state(1).addr, 0xB000);
        assert_eq!(csrf.tex_state(0).addr, 0);
    }

    #[test]
    fn division_edge_cases_follow_the_spec() {
        assert_eq!(alu_op(OpKind::Div, 10, 0), u32::MAX);
        assert_eq!(alu_op(OpKind::Rem, 10, 0), 10);
        assert_eq!(alu_op(OpKind::Div, 0x8000_0000, u32::MAX), 0x8000_0000);
        assert_eq!(alu_op(OpKind::Rem, 0x8000_0000, u32::MAX), 0);
        assert_eq!(alu_op(OpKind::Divu, 7, 2), 3);
        assert_eq!(alu_op(OpKind::Div, (-7i32) as u32, 2), (-3i32) as u32);
    }

    #[test]
    fn fcvt_saturates() {
        assert_eq!(fcvt_w_s(f32::NAN, true), i32::MAX as u32);
        assert_eq!(fcvt_w_s(1e20, true), i32::MAX as u32);
        assert_eq!(fcvt_w_s(-1e20, true), i32::MIN as u32);
        assert_eq!(fcvt_w_s(-3.0, false), 0);
        assert_eq!(fcvt_w_s(3.7, true), 3);
    }
}
