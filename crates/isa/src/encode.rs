//! Binary encoder: [`Instr`] → 32-bit instruction word.
//!
//! [`try_encode`] rejects a field outside the one range table,
//! `Field::bounds`, and is otherwise the exact inverse of
//! [`crate::decode`]: the property tests check `decode(try_encode(i)) == i`.

use crate::instr::*;
use crate::{csr, vx};
use std::fmt;

/// A field of an instruction encoding whose values are range-checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// I- and S-type immediate: ALU immediates, load, store and `jalr` offsets.
    Imm12,
    /// `slli`/`srli`/`srai` shift amount.
    Shamt,
    /// U-type `lui`/`auipc` value, low 12 bits zero.
    Upper,
    /// B-type branch offset.
    BranchOffset,
    /// J-type `jal` offset.
    JumpOffset,
    /// CSR number.
    Csr,
    /// `csrr*i` zero-extended immediate.
    CsrImm,
    /// `tex` texture stage.
    TexStage,
}

impl Field {
    /// The range table: a value fits when it lies in `min..=max` and is a
    /// multiple of `step`. Returns `(min, max, step)`.
    const fn bounds(self) -> (i32, i32, i32) {
        match self {
            Field::Imm12 => (-2048, 2047, 1),
            Field::Shamt | Field::CsrImm => (0, 31, 1),
            Field::Upper => (i32::MIN, i32::MAX & !0xFFF, 1 << 12),
            Field::BranchOffset => (-(1 << 12), (1 << 12) - 2, 2),
            Field::JumpOffset => (-(1 << 20), (1 << 20) - 2, 2),
            Field::Csr => (0, 0xFFF, 1),
            Field::TexStage => (0, csr::TEX_STAGES as i32 - 1, 1),
        }
    }

    /// `value`'s two's-complement bits, if it fits this field.
    fn check(self, value: impl Into<i32>) -> Result<u32, EncodeError> {
        let value = value.into();
        let (min, max, step) = self.bounds();
        if (min..=max).contains(&value) && value % step == 0 {
            Ok(value as u32)
        } else {
            Err(EncodeError { field: self, value })
        }
    }
}

/// A field value its encoding cannot hold, reported by [`try_encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// The field.
    pub field: Field,
    /// The value that does not fit it.
    pub value: i32,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (min, max, step) = self.field.bounds();
        let (field, value) = (self.field, self.value);
        write!(
            f,
            "{field:?} cannot hold {value}: range {min}..={max}, step {step}"
        )
    }
}

impl std::error::Error for EncodeError {}

fn r_type(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

fn i_type(imm: i32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> Result<u32, EncodeError> {
    let imm = Field::Imm12.check(imm)?;
    Ok(((imm & 0xFFF) << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode)
}

fn s_type(imm: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> Result<u32, EncodeError> {
    let imm = Field::Imm12.check(imm)?;
    Ok((((imm >> 5) & 0x7F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | ((imm & 0x1F) << 7)
        | opcode)
}

fn b_type(offset: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> Result<u32, EncodeError> {
    let imm = Field::BranchOffset.check(offset)?;
    Ok((((imm >> 12) & 1) << 31)
        | (((imm >> 5) & 0x3F) << 25)
        | (rs2 << 20)
        | (rs1 << 15)
        | (funct3 << 12)
        | (((imm >> 1) & 0xF) << 8)
        | (((imm >> 11) & 1) << 7)
        | opcode)
}

fn shift(funct7: u32, shamt: i32, rs1: u32, funct3: u32, rd: u32) -> Result<u32, EncodeError> {
    Ok(r_type(
        funct7,
        Field::Shamt.check(shamt)?,
        rs1,
        funct3,
        rd,
        0x13,
    ))
}

fn u_type(imm: i32, rd: u32, opcode: u32) -> Result<u32, EncodeError> {
    Ok(Field::Upper.check(imm)? | (rd << 7) | opcode)
}

fn j_type(offset: i32, rd: u32, opcode: u32) -> Result<u32, EncodeError> {
    let imm = Field::JumpOffset.check(offset)?;
    Ok((((imm >> 20) & 1) << 31)
        | (((imm >> 1) & 0x3FF) << 21)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 12) & 0xFF) << 12)
        | (rd << 7)
        | opcode)
}

fn r4_type(rs3: u32, funct2: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    (rs3 << 27) | (funct2 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | opcode
}

/// Encodes an instruction that came from [`crate::decode`], whose fields
/// always fit.
///
/// # Panics
/// Panics, in every build, if a field does not fit its encoding; use
/// [`try_encode`] for any instruction not known to fit.
pub fn encode(instr: &Instr) -> u32 {
    try_encode(instr).unwrap_or_else(|e| panic!("cannot encode `{instr}`: {e}"))
}

/// Encodes an instruction to its 32-bit binary form.
///
/// # Errors
/// Returns the first field whose value its encoding cannot hold.
pub fn try_encode(instr: &Instr) -> Result<u32, EncodeError> {
    use Instr::*;
    Ok(match *instr {
        Lui { rd, imm } => u_type(imm, rd.into(), 0x37)?,
        Auipc { rd, imm } => u_type(imm, rd.into(), 0x17)?,
        Jal { rd, offset } => j_type(offset, rd.into(), 0x6F)?,
        Jalr { rd, rs1, offset } => i_type(offset, rs1.into(), 0, rd.into(), 0x67)?,
        Branch {
            cond,
            rs1,
            rs2,
            offset,
        } => {
            let f3 = match cond {
                BranchCond::Eq => 0b000,
                BranchCond::Ne => 0b001,
                BranchCond::Lt => 0b100,
                BranchCond::Ge => 0b101,
                BranchCond::Ltu => 0b110,
                BranchCond::Geu => 0b111,
            };
            b_type(offset, rs2.into(), rs1.into(), f3, 0x63)?
        }
        Load {
            width,
            rd,
            rs1,
            offset,
        } => {
            let f3 = match width {
                LoadWidth::B => 0b000,
                LoadWidth::H => 0b001,
                LoadWidth::W => 0b010,
                LoadWidth::Bu => 0b100,
                LoadWidth::Hu => 0b101,
            };
            i_type(offset, rs1.into(), f3, rd.into(), 0x03)?
        }
        Store {
            width,
            rs1,
            rs2,
            offset,
        } => {
            let f3 = match width {
                StoreWidth::B => 0b000,
                StoreWidth::H => 0b001,
                StoreWidth::W => 0b010,
            };
            s_type(offset, rs2.into(), rs1.into(), f3, 0x23)?
        }
        OpImm { op, rd, rs1, imm } => match op {
            OpImmKind::Addi => i_type(imm, rs1.into(), 0b000, rd.into(), 0x13)?,
            OpImmKind::Slti => i_type(imm, rs1.into(), 0b010, rd.into(), 0x13)?,
            OpImmKind::Sltiu => i_type(imm, rs1.into(), 0b011, rd.into(), 0x13)?,
            OpImmKind::Xori => i_type(imm, rs1.into(), 0b100, rd.into(), 0x13)?,
            OpImmKind::Ori => i_type(imm, rs1.into(), 0b110, rd.into(), 0x13)?,
            OpImmKind::Andi => i_type(imm, rs1.into(), 0b111, rd.into(), 0x13)?,
            OpImmKind::Slli => shift(0x00, imm, rs1.into(), 0b001, rd.into())?,
            OpImmKind::Srli => shift(0x00, imm, rs1.into(), 0b101, rd.into())?,
            OpImmKind::Srai => shift(0x20, imm, rs1.into(), 0b101, rd.into())?,
        },
        Op { op, rd, rs1, rs2 } => {
            let (f7, f3) = match op {
                OpKind::Add => (0x00, 0b000),
                OpKind::Sub => (0x20, 0b000),
                OpKind::Sll => (0x00, 0b001),
                OpKind::Slt => (0x00, 0b010),
                OpKind::Sltu => (0x00, 0b011),
                OpKind::Xor => (0x00, 0b100),
                OpKind::Srl => (0x00, 0b101),
                OpKind::Sra => (0x20, 0b101),
                OpKind::Or => (0x00, 0b110),
                OpKind::And => (0x00, 0b111),
                OpKind::Mul => (0x01, 0b000),
                OpKind::Mulh => (0x01, 0b001),
                OpKind::Mulhsu => (0x01, 0b010),
                OpKind::Mulhu => (0x01, 0b011),
                OpKind::Div => (0x01, 0b100),
                OpKind::Divu => (0x01, 0b101),
                OpKind::Rem => (0x01, 0b110),
                OpKind::Remu => (0x01, 0b111),
            };
            r_type(f7, rs2.into(), rs1.into(), f3, rd.into(), 0x33)
        }
        Fence => 0x0000_000F,
        Ecall => 0x0000_0073,
        Ebreak => 0x0010_0073,
        Csr { kind, rd, csr, src } => {
            let base_f3 = match kind {
                CsrKind::ReadWrite => 0b001,
                CsrKind::ReadSet => 0b010,
                CsrKind::ReadClear => 0b011,
            };
            let (f3, rs1_field) = match src {
                CsrSrc::Reg(r) => (base_f3, u32::from(r)),
                CsrSrc::Imm(i) => (base_f3 | 0b100, Field::CsrImm.check(i)?),
            };
            let csr = Field::Csr.check(csr)?;
            (csr << 20) | (rs1_field << 15) | (f3 << 12) | (u32::from(rd) << 7) | 0x73
        }
        Flw { rd, rs1, offset } => i_type(offset, rs1.into(), 0b010, rd.into(), 0x07)?,
        Fsw { rs1, rs2, offset } => s_type(offset, rs2.into(), rs1.into(), 0b010, 0x27)?,
        Fma {
            kind,
            rd,
            rs1,
            rs2,
            rs3,
            rm,
        } => {
            let opcode = match kind {
                FmaKind::Madd => 0x43,
                FmaKind::Msub => 0x47,
                FmaKind::Nmsub => 0x4B,
                FmaKind::Nmadd => 0x4F,
            };
            r4_type(
                rs3.into(),
                0,
                rs2.into(),
                rs1.into(),
                rm.to_bits(),
                rd.into(),
                opcode,
            )
        }
        FpOp {
            op,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            let (f7, f3) = match op {
                FpOpKind::Add => (0x00, rm.to_bits()),
                FpOpKind::Sub => (0x04, rm.to_bits()),
                FpOpKind::Mul => (0x08, rm.to_bits()),
                FpOpKind::Div => (0x0C, rm.to_bits()),
                FpOpKind::Sqrt => (0x2C, rm.to_bits()),
                FpOpKind::SgnJ => (0x10, 0b000),
                FpOpKind::SgnJn => (0x10, 0b001),
                FpOpKind::SgnJx => (0x10, 0b010),
                FpOpKind::Min => (0x14, 0b000),
                FpOpKind::Max => (0x14, 0b001),
            };
            let rs2_field = if matches!(op, FpOpKind::Sqrt) {
                0
            } else {
                rs2.into()
            };
            r_type(f7, rs2_field, rs1.into(), f3, rd.into(), 0x53)
        }
        FpCmp { op, rd, rs1, rs2 } => {
            let f3 = match op {
                FpCmpKind::Eq => 0b010,
                FpCmpKind::Lt => 0b001,
                FpCmpKind::Le => 0b000,
            };
            r_type(0x50, rs2.into(), rs1.into(), f3, rd.into(), 0x53)
        }
        FpToInt {
            signed,
            rd,
            rs1,
            rm,
        } => r_type(
            0x60,
            if signed { 0 } else { 1 },
            rs1.into(),
            rm.to_bits(),
            rd.into(),
            0x53,
        ),
        IntToFp {
            signed,
            rd,
            rs1,
            rm,
        } => r_type(
            0x68,
            if signed { 0 } else { 1 },
            rs1.into(),
            rm.to_bits(),
            rd.into(),
            0x53,
        ),
        FmvToInt { rd, rs1 } => r_type(0x70, 0, rs1.into(), 0b000, rd.into(), 0x53),
        FClass { rd, rs1 } => r_type(0x70, 0, rs1.into(), 0b001, rd.into(), 0x53),
        FmvFromInt { rd, rs1 } => r_type(0x78, 0, rs1.into(), 0b000, rd.into(), 0x53),
        Tmc { rs1 } => r_type(0, 0, rs1.into(), vx::F3_TMC, 0, vx::OPCODE),
        Wspawn { rs1, rs2 } => r_type(0, rs2.into(), rs1.into(), vx::F3_WSPAWN, 0, vx::OPCODE),
        Split { rs1 } => r_type(0, 0, rs1.into(), vx::F3_SPLIT, 0, vx::OPCODE),
        Join => r_type(0, 0, 0, vx::F3_JOIN, 0, vx::OPCODE),
        Bar { rs1, rs2 } => r_type(0, rs2.into(), rs1.into(), vx::F3_BAR, 0, vx::OPCODE),
        Tex {
            rd,
            u,
            v,
            lod,
            stage,
        } => r4_type(
            lod.into(),
            Field::TexStage.check(stage)?,
            v.into(),
            u.into(),
            vx::F3_TEX,
            rd.into(),
            vx::OPCODE,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;
    use crate::reg::{FReg, Reg};

    #[test]
    fn golden_encodings_match_gnu_as() {
        assert_eq!(
            encode(&Instr::OpImm {
                op: OpImmKind::Addi,
                rd: Reg::X1,
                rs1: Reg::X0,
                imm: 5
            }),
            0x0050_0093
        );
        assert_eq!(
            encode(&Instr::Store {
                width: StoreWidth::W,
                rs1: Reg::X2,
                rs2: Reg::X3,
                offset: 8
            }),
            0x0031_2423 // sw x3, 8(x2)
        );
        assert_eq!(
            encode(&Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::X1,
                rs2: Reg::X2,
                offset: 16
            }),
            0x0020_9863 // bne x1, x2, 16
        );
        assert_eq!(
            encode(&Instr::Jal {
                rd: Reg::X1,
                offset: 2048
            }),
            0x0010_00EF // jal x1, 2048
        );
    }

    #[test]
    fn fma_round_trips() {
        let i = Instr::Fma {
            kind: FmaKind::Madd,
            rd: FReg::X1,
            rs1: FReg::X2,
            rs2: FReg::X3,
            rs3: FReg::X4,
            rm: RoundMode::Dyn,
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
    }

    #[test]
    fn csr_imm_round_trips() {
        let i = Instr::Csr {
            kind: CsrKind::ReadSet,
            rd: Reg::X7,
            csr: 0xCC0,
            src: CsrSrc::Imm(31),
        };
        assert_eq!(decode(encode(&i)).unwrap(), i);
    }
}
