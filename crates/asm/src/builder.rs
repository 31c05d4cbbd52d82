//! The programmatic assembler.

use crate::error::AsmError;
use crate::program::Program;
use std::collections::HashMap;
use vortex_isa::{
    try_encode, BranchCond, CsrKind, CsrSrc, FReg, FmaKind, FpCmpKind, FpOpKind, Instr, LoadWidth,
    OpImmKind, OpKind, Reg, RoundMode, StoreWidth,
};

/// One word of the image.
#[derive(Debug, Clone)]
enum Item {
    /// A fully resolved instruction.
    Fixed(Instr),
    /// A branch or `jal` whose offset is that of the label.
    ToLabel(Instr, String),
    /// Half of `la rd, label`: the `auipc`, or the `addi` after it (`true`).
    La(Reg, String, bool),
    /// A raw data word.
    Word(u32),
}

/// Incremental program builder with labels and forward references.
///
/// Every RV32IMF and Vortex instruction has a same-named method; common
/// pseudo-instructions (`li`, `la`, `mv`, `j`, `call`, `ret`, `nop`,
/// `beqz`/`bnez`, ...) are provided on top. Terminal method:
/// [`Assembler::assemble`].
#[derive(Debug, Default)]
pub struct Assembler {
    items: Vec<Item>,
    labels: HashMap<String, usize>, // label → item index
    entry: Option<String>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of words emitted so far.
    pub fn len_words(&self) -> u32 {
        self.items.len() as u32
    }

    fn push(&mut self, item: Item) -> &mut Self {
        self.items.push(item);
        self
    }

    /// Defines `name` at the current position.
    ///
    /// # Errors
    /// Returns [`AsmError::DuplicateLabel`] if the label already exists.
    pub fn label(&mut self, name: &str) -> Result<&mut Self, AsmError> {
        if self
            .labels
            .insert(name.to_string(), self.items.len())
            .is_some()
        {
            return Err(AsmError::DuplicateLabel(name.to_string()));
        }
        Ok(self)
    }

    /// Marks `name` as the program entry point (defaults to the image base).
    pub fn entry(&mut self, name: &str) -> &mut Self {
        self.entry = Some(name.to_string());
        self
    }

    /// Emits a pre-decoded instruction.
    pub fn raw(&mut self, instr: Instr) -> &mut Self {
        self.push(Item::Fixed(instr))
    }

    /// Emits a raw data word (`.word`).
    pub fn word(&mut self, value: u32) -> &mut Self {
        self.push(Item::Word(value))
    }

    /// Emits an IEEE-754 float constant (`.float`).
    pub fn float(&mut self, value: f32) -> &mut Self {
        self.word(value.to_bits())
    }

    // --- RV32I ------------------------------------------------------------

    /// `lui rd, imm20` (`imm` is the upper-immediate *value*, low 12 bits 0).
    pub fn lui(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.raw(Instr::Lui { rd, imm })
    }

    /// `auipc rd, imm20`.
    pub fn auipc(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.raw(Instr::Auipc { rd, imm })
    }

    /// `jal rd, label`.
    pub fn jal(&mut self, rd: Reg, target: &str) -> &mut Self {
        self.push(Item::ToLabel(
            Instr::Jal { rd, offset: 0 },
            target.to_string(),
        ))
    }

    /// `jalr rd, offset(rs1)`.
    pub fn jalr(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.raw(Instr::Jalr { rd, rs1, offset })
    }

    /// Conditional branch to a label with an explicit condition (the
    /// generic form behind `beq`/`bne`/...).
    pub fn branch_to(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        let offset = 0;
        let branch = Instr::Branch {
            cond,
            rs1,
            rs2,
            offset,
        };
        self.push(Item::ToLabel(branch, target.to_string()))
    }

    /// `beq rs1, rs2, label`.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch_to(BranchCond::Eq, rs1, rs2, target)
    }
    /// `bne rs1, rs2, label`.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch_to(BranchCond::Ne, rs1, rs2, target)
    }
    /// `blt rs1, rs2, label`.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch_to(BranchCond::Lt, rs1, rs2, target)
    }
    /// `bge rs1, rs2, label`.
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch_to(BranchCond::Ge, rs1, rs2, target)
    }
    /// `bltu rs1, rs2, label`.
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch_to(BranchCond::Ltu, rs1, rs2, target)
    }
    /// `bgeu rs1, rs2, label`.
    pub fn bgeu(&mut self, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        self.branch_to(BranchCond::Geu, rs1, rs2, target)
    }

    fn load(&mut self, width: LoadWidth, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.raw(Instr::Load {
            width,
            rd,
            rs1,
            offset,
        })
    }

    /// `lb rd, offset(rs1)`.
    pub fn lb(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.load(LoadWidth::B, rd, rs1, offset)
    }
    /// `lh rd, offset(rs1)`.
    pub fn lh(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.load(LoadWidth::H, rd, rs1, offset)
    }
    /// `lw rd, offset(rs1)`.
    pub fn lw(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.load(LoadWidth::W, rd, rs1, offset)
    }
    /// `lbu rd, offset(rs1)`.
    pub fn lbu(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.load(LoadWidth::Bu, rd, rs1, offset)
    }
    /// `lhu rd, offset(rs1)`.
    pub fn lhu(&mut self, rd: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.load(LoadWidth::Hu, rd, rs1, offset)
    }

    fn store(&mut self, width: StoreWidth, rs2: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.raw(Instr::Store {
            width,
            rs1,
            rs2,
            offset,
        })
    }

    /// `sb rs2, offset(rs1)`.
    pub fn sb(&mut self, rs2: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.store(StoreWidth::B, rs2, rs1, offset)
    }
    /// `sh rs2, offset(rs1)`.
    pub fn sh(&mut self, rs2: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.store(StoreWidth::H, rs2, rs1, offset)
    }
    /// `sw rs2, offset(rs1)`.
    pub fn sw(&mut self, rs2: Reg, rs1: Reg, offset: i32) -> &mut Self {
        self.store(StoreWidth::W, rs2, rs1, offset)
    }

    fn op_imm(&mut self, op: OpImmKind, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.raw(Instr::OpImm { op, rd, rs1, imm })
    }

    /// `addi rd, rs1, imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.op_imm(OpImmKind::Addi, rd, rs1, imm)
    }
    /// `slti rd, rs1, imm`.
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.op_imm(OpImmKind::Slti, rd, rs1, imm)
    }
    /// `sltiu rd, rs1, imm`.
    pub fn sltiu(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.op_imm(OpImmKind::Sltiu, rd, rs1, imm)
    }
    /// `xori rd, rs1, imm`.
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.op_imm(OpImmKind::Xori, rd, rs1, imm)
    }
    /// `ori rd, rs1, imm`.
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.op_imm(OpImmKind::Ori, rd, rs1, imm)
    }
    /// `andi rd, rs1, imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) -> &mut Self {
        self.op_imm(OpImmKind::Andi, rd, rs1, imm)
    }
    /// `slli rd, rs1, shamt`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, shamt: i32) -> &mut Self {
        self.op_imm(OpImmKind::Slli, rd, rs1, shamt)
    }
    /// `srli rd, rs1, shamt`.
    pub fn srli(&mut self, rd: Reg, rs1: Reg, shamt: i32) -> &mut Self {
        self.op_imm(OpImmKind::Srli, rd, rs1, shamt)
    }
    /// `srai rd, rs1, shamt`.
    pub fn srai(&mut self, rd: Reg, rs1: Reg, shamt: i32) -> &mut Self {
        self.op_imm(OpImmKind::Srai, rd, rs1, shamt)
    }

    fn op(&mut self, op: OpKind, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Instr::Op { op, rd, rs1, rs2 })
    }

    /// `add rd, rs1, rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Add, rd, rs1, rs2)
    }
    /// `sub rd, rs1, rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Sub, rd, rs1, rs2)
    }
    /// `sll rd, rs1, rs2`.
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Sll, rd, rs1, rs2)
    }
    /// `slt rd, rs1, rs2`.
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Slt, rd, rs1, rs2)
    }
    /// `sltu rd, rs1, rs2`.
    pub fn sltu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Sltu, rd, rs1, rs2)
    }
    /// `xor rd, rs1, rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Xor, rd, rs1, rs2)
    }
    /// `srl rd, rs1, rs2`.
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Srl, rd, rs1, rs2)
    }
    /// `sra rd, rs1, rs2`.
    pub fn sra(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Sra, rd, rs1, rs2)
    }
    /// `or rd, rs1, rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Or, rd, rs1, rs2)
    }
    /// `and rd, rs1, rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::And, rd, rs1, rs2)
    }
    /// `mul rd, rs1, rs2`.
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Mul, rd, rs1, rs2)
    }
    /// `mulh rd, rs1, rs2`.
    pub fn mulh(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Mulh, rd, rs1, rs2)
    }
    /// `mulhsu rd, rs1, rs2`.
    pub fn mulhsu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Mulhsu, rd, rs1, rs2)
    }
    /// `mulhu rd, rs1, rs2`.
    pub fn mulhu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Mulhu, rd, rs1, rs2)
    }
    /// `div rd, rs1, rs2`.
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Div, rd, rs1, rs2)
    }
    /// `divu rd, rs1, rs2`.
    pub fn divu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Divu, rd, rs1, rs2)
    }
    /// `rem rd, rs1, rs2`.
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Rem, rd, rs1, rs2)
    }
    /// `remu rd, rs1, rs2`.
    pub fn remu(&mut self, rd: Reg, rs1: Reg, rs2: Reg) -> &mut Self {
        self.op(OpKind::Remu, rd, rs1, rs2)
    }

    /// `fence` (flushes caches on Vortex).
    pub fn fence(&mut self) -> &mut Self {
        self.raw(Instr::Fence)
    }
    /// `ecall` (kernel exit / host trap).
    pub fn ecall(&mut self) -> &mut Self {
        self.raw(Instr::Ecall)
    }
    /// `ebreak`.
    pub fn ebreak(&mut self) -> &mut Self {
        self.raw(Instr::Ebreak)
    }

    /// `csrrw rd, csr, rs1`.
    pub fn csrrw(&mut self, rd: Reg, csr: u16, rs1: Reg) -> &mut Self {
        self.raw(Instr::Csr {
            kind: CsrKind::ReadWrite,
            rd,
            csr,
            src: CsrSrc::Reg(rs1),
        })
    }
    /// `csrrs rd, csr, rs1` (`csrr rd, csr` when `rs1 == x0`).
    pub fn csrrs(&mut self, rd: Reg, csr: u16, rs1: Reg) -> &mut Self {
        self.raw(Instr::Csr {
            kind: CsrKind::ReadSet,
            rd,
            csr,
            src: CsrSrc::Reg(rs1),
        })
    }
    /// `csrrc rd, csr, rs1`.
    pub fn csrrc(&mut self, rd: Reg, csr: u16, rs1: Reg) -> &mut Self {
        self.raw(Instr::Csr {
            kind: CsrKind::ReadClear,
            rd,
            csr,
            src: CsrSrc::Reg(rs1),
        })
    }
    /// `csrr rd, csr` — pseudo for `csrrs rd, csr, x0`.
    pub fn csrr(&mut self, rd: Reg, csr: u16) -> &mut Self {
        self.csrrs(rd, csr, Reg::X0)
    }
    /// `csrw csr, rs1` — pseudo for `csrrw x0, csr, rs1`.
    pub fn csrw(&mut self, csr: u16, rs1: Reg) -> &mut Self {
        self.csrrw(Reg::X0, csr, rs1)
    }

    // --- RV32F --------------------------------------------------------------

    /// `flw rd, offset(rs1)`.
    pub fn flw(&mut self, rd: FReg, rs1: Reg, offset: i32) -> &mut Self {
        self.raw(Instr::Flw { rd, rs1, offset })
    }
    /// `fsw rs2, offset(rs1)`.
    pub fn fsw(&mut self, rs2: FReg, rs1: Reg, offset: i32) -> &mut Self {
        self.raw(Instr::Fsw { rs1, rs2, offset })
    }

    fn fp_op(&mut self, op: FpOpKind, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.raw(Instr::FpOp {
            op,
            rd,
            rs1,
            rs2,
            rm: RoundMode::Rne,
        })
    }

    /// `fadd.s rd, rs1, rs2`.
    pub fn fadd(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Add, rd, rs1, rs2)
    }
    /// `fsub.s rd, rs1, rs2`.
    pub fn fsub(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Sub, rd, rs1, rs2)
    }
    /// `fmul.s rd, rs1, rs2`.
    pub fn fmul(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Mul, rd, rs1, rs2)
    }
    /// `fdiv.s rd, rs1, rs2`.
    pub fn fdiv(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Div, rd, rs1, rs2)
    }
    /// `fsqrt.s rd, rs1`.
    pub fn fsqrt(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Sqrt, rd, rs1, FReg::X0)
    }
    /// `fmin.s rd, rs1, rs2`.
    pub fn fmin(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Min, rd, rs1, rs2)
    }
    /// `fmax.s rd, rs1, rs2`.
    pub fn fmax(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::Max, rd, rs1, rs2)
    }
    /// `fsgnj.s rd, rs1, rs2` (`fmv.s` when `rs1 == rs2`).
    pub fn fsgnj(&mut self, rd: FReg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.fp_op(FpOpKind::SgnJ, rd, rs1, rs2)
    }
    /// `fmv.s rd, rs1` — pseudo for `fsgnj.s rd, rs1, rs1`.
    pub fn fmv(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fsgnj(rd, rs1, rs1)
    }
    /// `fneg.s rd, rs1` — pseudo for `fsgnjn.s rd, rs1, rs1`.
    pub fn fneg(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fp_op(FpOpKind::SgnJn, rd, rs1, rs1)
    }
    /// `fabs.s rd, rs1` — pseudo for `fsgnjx.s rd, rs1, rs1`.
    pub fn fabs(&mut self, rd: FReg, rs1: FReg) -> &mut Self {
        self.fp_op(FpOpKind::SgnJx, rd, rs1, rs1)
    }
    /// `fmadd.s rd, rs1, rs2, rs3` — `rd = rs1*rs2 + rs3`.
    pub fn fmadd(&mut self, rd: FReg, rs1: FReg, rs2: FReg, rs3: FReg) -> &mut Self {
        self.raw(Instr::Fma {
            kind: FmaKind::Madd,
            rd,
            rs1,
            rs2,
            rs3,
            rm: RoundMode::Rne,
        })
    }
    /// `fmsub.s rd, rs1, rs2, rs3` — `rd = rs1*rs2 - rs3`.
    pub fn fmsub(&mut self, rd: FReg, rs1: FReg, rs2: FReg, rs3: FReg) -> &mut Self {
        self.raw(Instr::Fma {
            kind: FmaKind::Msub,
            rd,
            rs1,
            rs2,
            rs3,
            rm: RoundMode::Rne,
        })
    }
    /// `feq.s rd, rs1, rs2`.
    pub fn feq(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.raw(Instr::FpCmp {
            op: FpCmpKind::Eq,
            rd,
            rs1,
            rs2,
        })
    }
    /// `flt.s rd, rs1, rs2`.
    pub fn flt(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.raw(Instr::FpCmp {
            op: FpCmpKind::Lt,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fle.s rd, rs1, rs2`.
    pub fn fle(&mut self, rd: Reg, rs1: FReg, rs2: FReg) -> &mut Self {
        self.raw(Instr::FpCmp {
            op: FpCmpKind::Le,
            rd,
            rs1,
            rs2,
        })
    }
    /// `fcvt.w.s rd, rs1` (round towards zero, the C-semantics default).
    pub fn fcvt_w_s(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.raw(Instr::FpToInt {
            signed: true,
            rd,
            rs1,
            rm: RoundMode::Rtz,
        })
    }
    /// `fcvt.s.w rd, rs1`.
    pub fn fcvt_s_w(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.raw(Instr::IntToFp {
            signed: true,
            rd,
            rs1,
            rm: RoundMode::Rne,
        })
    }
    /// `fcvt.s.wu rd, rs1`.
    pub fn fcvt_s_wu(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.raw(Instr::IntToFp {
            signed: false,
            rd,
            rs1,
            rm: RoundMode::Rne,
        })
    }
    /// `fmv.x.w rd, rs1`.
    pub fn fmv_x_w(&mut self, rd: Reg, rs1: FReg) -> &mut Self {
        self.raw(Instr::FmvToInt { rd, rs1 })
    }
    /// `fmv.w.x rd, rs1`.
    pub fn fmv_w_x(&mut self, rd: FReg, rs1: Reg) -> &mut Self {
        self.raw(Instr::FmvFromInt { rd, rs1 })
    }

    // --- Vortex SIMT extension ---------------------------------------------

    /// `tmc rs1` — thread-mask control.
    pub fn tmc(&mut self, rs1: Reg) -> &mut Self {
        self.raw(Instr::Tmc { rs1 })
    }
    /// `wspawn rs1, rs2` — activate wavefronts.
    pub fn wspawn(&mut self, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Instr::Wspawn { rs1, rs2 })
    }
    /// `split rs1` — divergence push.
    pub fn split(&mut self, rs1: Reg) -> &mut Self {
        self.raw(Instr::Split { rs1 })
    }
    /// `join` — reconvergence pop.
    pub fn join(&mut self) -> &mut Self {
        self.raw(Instr::Join)
    }
    /// `bar rs1, rs2` — wavefront barrier.
    pub fn bar(&mut self, rs1: Reg, rs2: Reg) -> &mut Self {
        self.raw(Instr::Bar { rs1, rs2 })
    }
    /// `tex rd, u, v, lod` on texture `stage`.
    pub fn tex(&mut self, stage: u8, rd: Reg, u: Reg, v: Reg, lod: Reg) -> &mut Self {
        self.raw(Instr::Tex {
            rd,
            u,
            v,
            lod,
            stage,
        })
    }

    // --- Pseudo-instructions -------------------------------------------------

    /// `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.addi(Reg::X0, Reg::X0, 0)
    }
    /// `mv rd, rs1`.
    pub fn mv(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.addi(rd, rs1, 0)
    }
    /// `not rd, rs1`.
    pub fn not(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.xori(rd, rs1, -1)
    }
    /// `neg rd, rs1`.
    pub fn neg(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.sub(rd, Reg::X0, rs1)
    }
    /// `seqz rd, rs1`.
    pub fn seqz(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.sltiu(rd, rs1, 1)
    }
    /// `snez rd, rs1`.
    pub fn snez(&mut self, rd: Reg, rs1: Reg) -> &mut Self {
        self.sltu(rd, Reg::X0, rs1)
    }
    /// `beqz rs1, label`.
    pub fn beqz(&mut self, rs1: Reg, target: &str) -> &mut Self {
        self.beq(rs1, Reg::X0, target)
    }
    /// `bnez rs1, label`.
    pub fn bnez(&mut self, rs1: Reg, target: &str) -> &mut Self {
        self.bne(rs1, Reg::X0, target)
    }
    /// `blez rs1, label`.
    pub fn blez(&mut self, rs1: Reg, target: &str) -> &mut Self {
        self.bge(Reg::X0, rs1, target)
    }
    /// `bgtz rs1, label`.
    pub fn bgtz(&mut self, rs1: Reg, target: &str) -> &mut Self {
        self.blt(Reg::X0, rs1, target)
    }
    /// `j label`.
    pub fn j(&mut self, target: &str) -> &mut Self {
        self.jal(Reg::X0, target)
    }
    /// `call label` (single `jal ra, label`; ±1 MiB reach is ample here).
    pub fn call(&mut self, target: &str) -> &mut Self {
        self.jal(Reg::X1, target)
    }
    /// `ret`.
    pub fn ret(&mut self) -> &mut Self {
        self.jalr(Reg::X0, Reg::X1, 0)
    }
    /// `jr rs1`.
    pub fn jr(&mut self, rs1: Reg) -> &mut Self {
        self.jalr(Reg::X0, rs1, 0)
    }

    /// `li rd, imm` — loads any 32-bit constant (1 or 2 instructions).
    pub fn li(&mut self, rd: Reg, imm: i32) -> &mut Self {
        // The low 12 bits, sign-extended: all of `imm` when it fits addi.
        let low = (imm << 20) >> 20;
        if low == imm {
            return self.addi(rd, Reg::X0, imm);
        }
        // lui + addi with carry correction for a negative low part.
        let high = imm.wrapping_sub(low) as u32;
        self.lui(rd, high as i32);
        if low != 0 {
            self.addi(rd, rd, low);
        }
        self
    }

    /// Loads an IEEE-754 constant into an FP register via `x5` as scratch.
    pub fn lfi(&mut self, rd: FReg, value: f32) -> &mut Self {
        self.li(Reg::X5, value.to_bits() as i32);
        self.fmv_w_x(rd, Reg::X5)
    }

    /// `la rd, label` — loads the absolute address of a label (2 words).
    pub fn la(&mut self, rd: Reg, target: &str) -> &mut Self {
        for low in [false, true] {
            self.push(Item::La(rd, target.to_string(), low));
        }
        self
    }

    // --- Terminal -------------------------------------------------------------

    /// Resolves labels and produces the binary image loaded at `base`.
    ///
    /// # Errors
    /// Fails on an undefined label, or with [`AsmError::Encode`] on the
    /// first instruction that has a field its encoding cannot hold.
    pub fn assemble(&self, base: u32) -> Result<Program, AsmError> {
        let addr = |idx: usize| base + 4 * idx as u32;
        let resolve = |target: &str| match self.labels.get(target) {
            Some(&idx) => Ok(addr(idx)),
            None => Err(AsmError::UndefinedLabel(target.to_string())),
        };
        // Every instruction is encoded through the one range check.
        let mut image = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            let pc = addr(i);
            let instr = match *item {
                Item::Word(w) => {
                    image.push(w);
                    continue;
                }
                Item::Fixed(instr) => instr,
                Item::ToLabel(mut instr, ref target) => {
                    let rel = i64::from(resolve(target)?) - i64::from(pc);
                    // Past ±2 GiB it saturates, which no offset field holds.
                    let rel =
                        i32::try_from(rel).unwrap_or(if rel < 0 { i32::MIN } else { i32::MAX });
                    if let Instr::Branch { offset, .. } | Instr::Jal { offset, .. } = &mut instr {
                        *offset = rel;
                    }
                    instr
                }
                Item::La(rd, ref target, low) => {
                    // Both halves are relative to the auipc, and they add
                    // modulo 2^32, so every address is in reach.
                    let auipc_pc = if low { pc - 4 } else { pc };
                    let rel = resolve(target)?.wrapping_sub(auipc_pc) as i32;
                    let lo = (rel << 20) >> 20;
                    if low {
                        Instr::OpImm {
                            op: OpImmKind::Addi,
                            rd,
                            rs1: rd,
                            imm: lo,
                        }
                    } else {
                        Instr::Auipc {
                            rd,
                            imm: rel.wrapping_sub(lo),
                        }
                    }
                }
            };
            let word = try_encode(&instr).map_err(|error| AsmError::Encode { pc, instr, error });
            image.push(word?);
        }
        let symbols: HashMap<String, u32> = self
            .labels
            .iter()
            .map(|(name, &idx)| (name.clone(), addr(idx)))
            .collect();
        let entry = match &self.entry {
            Some(name) => *symbols
                .get(name)
                .ok_or_else(|| AsmError::UndefinedLabel(name.clone()))?,
            None => base,
        };
        Ok(Program {
            base,
            entry,
            image,
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::{EncodeError, Field};

    /// A value one past a field's limit fails to assemble in every build,
    /// with an error naming the instruction's PC and the field; the limits
    /// themselves assemble.
    #[test]
    fn unencodable_fields_fail_to_assemble() {
        type Emit = fn(&mut Assembler) -> &mut Assembler;
        let probes: [(Emit, Field, i32); 5] = [
            (|a| a.addi(Reg::X5, Reg::X5, 5000), Field::Imm12, 5000),
            (|a| a.lw(Reg::X5, Reg::X6, 4096), Field::Imm12, 4096),
            (|a| a.slli(Reg::X5, Reg::X5, 40), Field::Shamt, 40),
            (|a| a.csrr(Reg::X5, 0x1ABC), Field::Csr, 0x1ABC),
            (
                |a| a.tex(5, Reg::X5, Reg::X6, Reg::X7, Reg::X0),
                Field::TexStage,
                5,
            ),
        ];
        for (emit, field, value) in probes {
            let mut a = Assembler::new();
            emit(a.nop());
            let err = a.assemble(0x100).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("0x104") && msg.contains(&format!("{field:?}")),
                "{msg}"
            );
            match err {
                AsmError::Encode {
                    pc: 0x104, error, ..
                } => {
                    assert_eq!(error, EncodeError { field, value });
                }
                other => panic!("{field:?} {value}: {other:?}"),
            }
        }
        let mut a = Assembler::new();
        a.addi(Reg::X5, Reg::X5, -2048).addi(Reg::X5, Reg::X5, 2047);
        a.lw(Reg::X5, Reg::X6, 2047).slli(Reg::X5, Reg::X5, 31);
        a.csrr(Reg::X5, 0xFFF)
            .tex(3, Reg::X5, Reg::X6, Reg::X7, Reg::X0);
        assert_eq!(a.assemble(0).unwrap().image.len(), 6);
    }

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new();
        a.li(Reg::X10, 3);
        a.label("loop").unwrap();
        a.addi(Reg::X10, Reg::X10, -1);
        a.bnez(Reg::X10, "loop");
        a.beqz(Reg::X10, "done");
        a.nop();
        a.label("done").unwrap();
        a.ecall();
        let p = a.assemble(0x1000).unwrap();
        // bnez at 0x1008 targets 0x1004 → offset -4.
        let bnez = vortex_isa::decode(p.image[2]).unwrap();
        assert_eq!(
            bnez,
            Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::X10,
                rs2: Reg::X0,
                offset: -4
            }
        );
        assert_eq!(p.addr_of("done"), 0x1014);
    }

    #[test]
    fn li_covers_full_range() {
        for &v in &[
            0,
            1,
            -1,
            2047,
            -2048,
            2048,
            -2049,
            0x1234_5678,
            i32::MIN,
            i32::MAX,
        ] {
            let mut a = Assembler::new();
            a.li(Reg::X6, v);
            let p = a.assemble(0).unwrap();
            // Emulate the 1-2 instruction sequence.
            let mut x6 = 0i32;
            for w in &p.image {
                match vortex_isa::decode(*w).unwrap() {
                    Instr::Lui { imm, .. } => x6 = imm,
                    Instr::OpImm {
                        op: OpImmKind::Addi,
                        imm,
                        ..
                    } => x6 = x6.wrapping_add(imm),
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(x6, v, "li {v}");
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new();
        a.j("nowhere");
        assert_eq!(
            a.assemble(0),
            Err(AsmError::UndefinedLabel("nowhere".into()))
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut a = Assembler::new();
        a.label("x").unwrap();
        assert!(a.label("x").is_err());
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let mut a = Assembler::new();
        a.label("start").unwrap();
        for _ in 0..2000 {
            a.nop();
        }
        a.beqz(Reg::X0, "start");
        assert!(matches!(
            a.assemble(0),
            Err(AsmError::Encode {
                pc: 8000,
                error: EncodeError {
                    field: Field::BranchOffset,
                    value: -8000
                },
                ..
            })
        ));
    }

    #[test]
    fn la_emits_pc_relative_pair() {
        let mut a = Assembler::new();
        a.la(Reg::X10, "data");
        a.ecall();
        a.label("data").unwrap();
        a.word(42);
        let p = a.assemble(0x8000_0000).unwrap();
        assert_eq!(p.image.len(), 4);
        assert_eq!(p.addr_of("data"), 0x8000_000C);
    }

    #[test]
    fn entry_label_sets_entry_point() {
        let mut a = Assembler::new();
        a.word(0xDEAD_BEEF);
        a.entry("main");
        a.label("main").unwrap();
        a.ecall();
        let p = a.assemble(0x100).unwrap();
        assert_eq!(p.entry, 0x104);
    }

    #[test]
    fn end_label_points_past_the_image() {
        let mut a = Assembler::new();
        a.nop();
        a.label("end").unwrap();
        let p = a.assemble(0).unwrap();
        assert_eq!(p.addr_of("end"), 4);
    }
}
