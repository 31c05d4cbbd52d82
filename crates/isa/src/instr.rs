//! The decoded instruction type and its operand enums.

use crate::reg::{FReg, Reg};

/// Branch comparison condition (`funct3` of the `BRANCH` opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq` — branch if equal.
    Eq,
    /// `bne` — branch if not equal.
    Ne,
    /// `blt` — branch if less-than (signed).
    Lt,
    /// `bge` — branch if greater-or-equal (signed).
    Ge,
    /// `bltu` — branch if less-than (unsigned).
    Ltu,
    /// `bgeu` — branch if greater-or-equal (unsigned).
    Geu,
}

/// Load access width and sign treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadWidth {
    /// `lb` — sign-extended byte.
    B,
    /// `lh` — sign-extended half-word.
    H,
    /// `lw` — word.
    W,
    /// `lbu` — zero-extended byte.
    Bu,
    /// `lhu` — zero-extended half-word.
    Hu,
}

impl LoadWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            LoadWidth::B | LoadWidth::Bu => 1,
            LoadWidth::H | LoadWidth::Hu => 2,
            LoadWidth::W => 4,
        }
    }
}

/// Store access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreWidth {
    /// `sb` — byte.
    B,
    /// `sh` — half-word.
    H,
    /// `sw` — word.
    W,
}

impl StoreWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u32 {
        match self {
            StoreWidth::B => 1,
            StoreWidth::H => 2,
            StoreWidth::W => 4,
        }
    }
}

/// Register-immediate ALU operation (`OP-IMM` opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpImmKind {
    Addi,
    Slti,
    Sltiu,
    Xori,
    Ori,
    Andi,
    Slli,
    Srli,
    Srai,
}

/// Register-register ALU operation (`OP` opcode), including the `M`
/// extension multiply/divide group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum OpKind {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    // M extension
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl OpKind {
    /// `true` for the `M`-extension multiply/divide group, which executes on
    /// the multi-cycle MULDIV unit instead of the single-cycle ALU.
    pub const fn is_muldiv(self) -> bool {
        matches!(
            self,
            OpKind::Mul
                | OpKind::Mulh
                | OpKind::Mulhsu
                | OpKind::Mulhu
                | OpKind::Div
                | OpKind::Divu
                | OpKind::Rem
                | OpKind::Remu
        )
    }
}

/// CSR access kind (`SYSTEM` opcode `funct3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrKind {
    /// `csrrw`/`csrrwi` — atomic read/write.
    ReadWrite,
    /// `csrrs`/`csrrsi` — atomic read and set bits.
    ReadSet,
    /// `csrrc`/`csrrci` — atomic read and clear bits.
    ReadClear,
}

/// Source operand of a CSR instruction: a register or a 5-bit zero-extended
/// immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrSrc {
    /// Register form (`csrrw` etc.).
    Reg(Reg),
    /// Immediate form (`csrrwi` etc.), value in `0..32`.
    Imm(u8),
}

/// IEEE-754 rounding mode from the `rm` field of FP instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundMode {
    /// Round to nearest, ties to even.
    Rne,
    /// Round towards zero.
    Rtz,
    /// Round down.
    Rdn,
    /// Round up.
    Rup,
    /// Round to nearest, ties to max magnitude.
    Rmm,
    /// Use the dynamic mode in `frm`.
    Dyn,
}

impl RoundMode {
    /// Decodes a 3-bit `rm` field.
    pub const fn from_bits(bits: u32) -> Option<Self> {
        match bits {
            0b000 => Some(RoundMode::Rne),
            0b001 => Some(RoundMode::Rtz),
            0b010 => Some(RoundMode::Rdn),
            0b011 => Some(RoundMode::Rup),
            0b100 => Some(RoundMode::Rmm),
            0b111 => Some(RoundMode::Dyn),
            _ => None,
        }
    }

    /// Encodes to the 3-bit `rm` field.
    pub const fn to_bits(self) -> u32 {
        match self {
            RoundMode::Rne => 0b000,
            RoundMode::Rtz => 0b001,
            RoundMode::Rdn => 0b010,
            RoundMode::Rup => 0b011,
            RoundMode::Rmm => 0b100,
            RoundMode::Dyn => 0b111,
        }
    }
}

/// Fused multiply-add variant (the four R4-type FP opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaKind {
    /// `fmadd.s`: `rs1*rs2 + rs3`.
    Madd,
    /// `fmsub.s`: `rs1*rs2 - rs3`.
    Msub,
    /// `fnmsub.s`: `-(rs1*rs2) + rs3`.
    Nmsub,
    /// `fnmadd.s`: `-(rs1*rs2) - rs3`.
    Nmadd,
}

/// Two-source (or one-source for `fsqrt`) FP arithmetic on `OP-FP`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpOpKind {
    Add,
    Sub,
    Mul,
    Div,
    /// `fsqrt.s` — `rs2` must be `f0` in the encoding.
    Sqrt,
    SgnJ,
    SgnJn,
    SgnJx,
    Min,
    Max,
}

/// FP comparison writing an integer register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FpCmpKind {
    Eq,
    Lt,
    Le,
}

/// A fully decoded Vortex instruction.
///
/// Covers RV32I, the `M` and `F` standard extensions, `Zicsr`, `fence`, and
/// the six Vortex SIMT instructions. [`crate::try_encode`] maps each to one
/// 32-bit word when its fields fit, and [`crate::decode`] maps it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm` — load upper immediate (`imm` is the final value, with
    /// the low 12 bits zero).
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper-immediate value (low 12 bits zero).
        imm: i32,
    },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc {
        /// Destination.
        rd: Reg,
        /// Upper-immediate value (low 12 bits zero).
        imm: i32,
    },
    /// `jal rd, offset` — jump and link.
    Jal {
        /// Link register.
        rd: Reg,
        /// PC-relative byte offset (±1 MiB, even).
        offset: i32,
    },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison condition.
        cond: BranchCond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// PC-relative byte offset (±4 KiB, even).
        offset: i32,
    },
    /// Integer load.
    Load {
        /// Width / sign treatment.
        width: LoadWidth,
        /// Destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Integer store.
    Store {
        /// Width.
        width: StoreWidth,
        /// Base register.
        rs1: Reg,
        /// Value register.
        rs2: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation.
    OpImm {
        /// Operation.
        op: OpImmKind,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate (shift amount for `slli`/`srli`/`srai`).
        imm: i32,
    },
    /// Register-register ALU / MULDIV operation.
    Op {
        /// Operation.
        op: OpKind,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
    },
    /// `fence` — memory fence. On Vortex this triggers a cache flush, the
    /// mechanism providing the paper's "weak coherent memory space".
    Fence,
    /// `ecall` — environment call. The simulator uses it as the
    /// kernel-exit / host-service trap.
    Ecall,
    /// `ebreak` — breakpoint trap.
    Ebreak,
    /// CSR read-modify-write.
    Csr {
        /// Access kind.
        kind: CsrKind,
        /// Destination for the old CSR value.
        rd: Reg,
        /// CSR address (12 bits).
        csr: u16,
        /// Source operand.
        src: CsrSrc,
    },
    /// `flw rd, offset(rs1)` — FP load word.
    Flw {
        /// FP destination.
        rd: FReg,
        /// Integer base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// `fsw rs2, offset(rs1)` — FP store word.
    Fsw {
        /// Integer base register.
        rs1: Reg,
        /// FP value register.
        rs2: FReg,
        /// Byte offset.
        offset: i32,
    },
    /// Fused multiply-add (R4-type).
    Fma {
        /// Variant.
        kind: FmaKind,
        /// FP destination.
        rd: FReg,
        /// Multiplicand.
        rs1: FReg,
        /// Multiplier.
        rs2: FReg,
        /// Addend.
        rs3: FReg,
        /// Rounding mode.
        rm: RoundMode,
    },
    /// FP arithmetic (`fadd.s` .. `fmax.s`, `fsqrt.s`).
    FpOp {
        /// Operation.
        op: FpOpKind,
        /// FP destination.
        rd: FReg,
        /// Left source.
        rs1: FReg,
        /// Right source (ignored for `fsqrt`, must encode as `f0`).
        rs2: FReg,
        /// Rounding mode (only meaningful for add/sub/mul/div/sqrt).
        rm: RoundMode,
    },
    /// FP comparison writing an integer register.
    FpCmp {
        /// Comparison.
        op: FpCmpKind,
        /// Integer destination.
        rd: Reg,
        /// Left source.
        rs1: FReg,
        /// Right source.
        rs2: FReg,
    },
    /// `fcvt.w.s` / `fcvt.wu.s` — FP to integer conversion.
    FpToInt {
        /// `true` for signed (`fcvt.w.s`).
        signed: bool,
        /// Integer destination.
        rd: Reg,
        /// FP source.
        rs1: FReg,
        /// Rounding mode.
        rm: RoundMode,
    },
    /// `fcvt.s.w` / `fcvt.s.wu` — integer to FP conversion.
    IntToFp {
        /// `true` for signed (`fcvt.s.w`).
        signed: bool,
        /// FP destination.
        rd: FReg,
        /// Integer source.
        rs1: Reg,
        /// Rounding mode.
        rm: RoundMode,
    },
    /// `fmv.x.w` — move FP bit pattern to integer register.
    FmvToInt {
        /// Integer destination.
        rd: Reg,
        /// FP source.
        rs1: FReg,
    },
    /// `fmv.w.x` — move integer bit pattern to FP register.
    FmvFromInt {
        /// FP destination.
        rd: FReg,
        /// Integer source.
        rs1: Reg,
    },
    /// `fclass.s` — classify an FP value.
    FClass {
        /// Integer destination (receives the 10-bit class mask).
        rd: Reg,
        /// FP source.
        rs1: FReg,
    },

    // --- Vortex SIMT extension (Table 2 of the paper) ---------------------
    /// `tmc rs1` — thread-mask control: activates the low `rs1` threads of
    /// the wavefront (`rs1 == 0` terminates the wavefront).
    Tmc {
        /// Thread-count register.
        rs1: Reg,
    },
    /// `wspawn rs1, rs2` — activate `rs1` wavefronts starting execution at
    /// the PC held in `rs2`.
    Wspawn {
        /// Wavefront-count register.
        rs1: Reg,
        /// Target-PC register.
        rs2: Reg,
    },
    /// `split rs1` — control-divergence: pushes the IPDOM stack using the
    /// per-thread predicate in `rs1` (non-zero = taken).
    Split {
        /// Predicate register.
        rs1: Reg,
    },
    /// `join` — reconvergence: pops the IPDOM stack.
    Join,
    /// `bar rs1, rs2` — wavefront barrier: barrier id in `rs1` (MSB set ⇒
    /// global scope across cores), expected wavefront count in `rs2`.
    Bar {
        /// Barrier-id register.
        rs1: Reg,
        /// Wavefront-count register.
        rs2: Reg,
    },
    /// `tex rd, rs1, rs2, rs3` — texture sample: `u = rs1`, `v = rs2`,
    /// `lod = rs3` (f32 bit patterns in integer registers); filtered RGBA8
    /// result written to `rd`. The texture stage is selected by the 2-bit
    /// `funct2` field of the R4 encoding.
    Tex {
        /// Integer destination (packed RGBA8 color).
        rd: Reg,
        /// Normalized u coordinate (f32 bits).
        u: Reg,
        /// Normalized v coordinate (f32 bits).
        v: Reg,
        /// Level-of-detail (f32 bits).
        lod: Reg,
        /// Texture stage (`0..4`).
        stage: u8,
    },
}

impl Instr {
    /// `true` if this is one of the six Vortex extension instructions.
    pub const fn is_vortex_ext(&self) -> bool {
        matches!(
            self,
            Instr::Tmc { .. }
                | Instr::Wspawn { .. }
                | Instr::Split { .. }
                | Instr::Join
                | Instr::Bar { .. }
                | Instr::Tex { .. }
        )
    }

    /// `true` if the instruction can redirect the PC (branch, jump, or a
    /// divergence-control instruction).
    pub const fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. }
                | Instr::Jalr { .. }
                | Instr::Branch { .. }
                | Instr::Split { .. }
                | Instr::Join
                | Instr::Wspawn { .. }
                | Instr::Tmc { .. }
        )
    }

    /// `true` if the instruction accesses data memory (integer or FP
    /// load/store). Texture sampling accesses memory too but goes through
    /// the texture unit, not the LSU.
    pub const fn is_mem_access(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Flw { .. } | Instr::Fsw { .. }
        )
    }
}
