//! Disassembler: `Display` for [`Instr`] in GNU-as-compatible syntax.

use crate::instr::*;
use std::fmt;

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match *self {
            Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", (imm as u32) >> 12),
            Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", (imm as u32) >> 12),
            Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Branch {
                cond,
                rs1,
                rs2,
                offset,
            } => {
                let m = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{m} {rs1}, {rs2}, {offset}")
            }
            Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let m = match width {
                    LoadWidth::B => "lb",
                    LoadWidth::H => "lh",
                    LoadWidth::W => "lw",
                    LoadWidth::Bu => "lbu",
                    LoadWidth::Hu => "lhu",
                };
                write!(f, "{m} {rd}, {offset}({rs1})")
            }
            Store {
                width,
                rs1,
                rs2,
                offset,
            } => {
                let m = match width {
                    StoreWidth::B => "sb",
                    StoreWidth::H => "sh",
                    StoreWidth::W => "sw",
                };
                write!(f, "{m} {rs2}, {offset}({rs1})")
            }
            OpImm { op, rd, rs1, imm } => {
                let m = match op {
                    OpImmKind::Addi => "addi",
                    OpImmKind::Slti => "slti",
                    OpImmKind::Sltiu => "sltiu",
                    OpImmKind::Xori => "xori",
                    OpImmKind::Ori => "ori",
                    OpImmKind::Andi => "andi",
                    OpImmKind::Slli => "slli",
                    OpImmKind::Srli => "srli",
                    OpImmKind::Srai => "srai",
                };
                write!(f, "{m} {rd}, {rs1}, {imm}")
            }
            Op { op, rd, rs1, rs2 } => {
                let m = match op {
                    OpKind::Add => "add",
                    OpKind::Sub => "sub",
                    OpKind::Sll => "sll",
                    OpKind::Slt => "slt",
                    OpKind::Sltu => "sltu",
                    OpKind::Xor => "xor",
                    OpKind::Srl => "srl",
                    OpKind::Sra => "sra",
                    OpKind::Or => "or",
                    OpKind::And => "and",
                    OpKind::Mul => "mul",
                    OpKind::Mulh => "mulh",
                    OpKind::Mulhsu => "mulhsu",
                    OpKind::Mulhu => "mulhu",
                    OpKind::Div => "div",
                    OpKind::Divu => "divu",
                    OpKind::Rem => "rem",
                    OpKind::Remu => "remu",
                };
                write!(f, "{m} {rd}, {rs1}, {rs2}")
            }
            Fence => write!(f, "fence"),
            Ecall => write!(f, "ecall"),
            Ebreak => write!(f, "ebreak"),
            Csr { kind, rd, csr, src } => {
                let (m, imm) = match (kind, src) {
                    (CsrKind::ReadWrite, CsrSrc::Reg(_)) => ("csrrw", false),
                    (CsrKind::ReadSet, CsrSrc::Reg(_)) => ("csrrs", false),
                    (CsrKind::ReadClear, CsrSrc::Reg(_)) => ("csrrc", false),
                    (CsrKind::ReadWrite, CsrSrc::Imm(_)) => ("csrrwi", true),
                    (CsrKind::ReadSet, CsrSrc::Imm(_)) => ("csrrsi", true),
                    (CsrKind::ReadClear, CsrSrc::Imm(_)) => ("csrrci", true),
                };
                match (imm, src) {
                    (false, CsrSrc::Reg(r)) => write!(f, "{m} {rd}, {csr:#x}, {r}"),
                    (true, CsrSrc::Imm(i)) => write!(f, "{m} {rd}, {csr:#x}, {i}"),
                    _ => unreachable!(),
                }
            }
            Flw { rd, rs1, offset } => write!(f, "flw {rd}, {offset}({rs1})"),
            Fsw { rs1, rs2, offset } => write!(f, "fsw {rs2}, {offset}({rs1})"),
            Fma {
                kind,
                rd,
                rs1,
                rs2,
                rs3,
                ..
            } => {
                let m = match kind {
                    FmaKind::Madd => "fmadd.s",
                    FmaKind::Msub => "fmsub.s",
                    FmaKind::Nmsub => "fnmsub.s",
                    FmaKind::Nmadd => "fnmadd.s",
                };
                write!(f, "{m} {rd}, {rs1}, {rs2}, {rs3}")
            }
            FpOp {
                op, rd, rs1, rs2, ..
            } => match op {
                FpOpKind::Sqrt => write!(f, "fsqrt.s {rd}, {rs1}"),
                _ => {
                    let m = match op {
                        FpOpKind::Add => "fadd.s",
                        FpOpKind::Sub => "fsub.s",
                        FpOpKind::Mul => "fmul.s",
                        FpOpKind::Div => "fdiv.s",
                        FpOpKind::SgnJ => "fsgnj.s",
                        FpOpKind::SgnJn => "fsgnjn.s",
                        FpOpKind::SgnJx => "fsgnjx.s",
                        FpOpKind::Min => "fmin.s",
                        FpOpKind::Max => "fmax.s",
                        FpOpKind::Sqrt => unreachable!(),
                    };
                    write!(f, "{m} {rd}, {rs1}, {rs2}")
                }
            },
            FpCmp { op, rd, rs1, rs2 } => {
                let m = match op {
                    FpCmpKind::Eq => "feq.s",
                    FpCmpKind::Lt => "flt.s",
                    FpCmpKind::Le => "fle.s",
                };
                write!(f, "{m} {rd}, {rs1}, {rs2}")
            }
            FpToInt {
                signed, rd, rs1, ..
            } => write!(f, "fcvt.w{}.s {rd}, {rs1}", if signed { "" } else { "u" }),
            IntToFp {
                signed, rd, rs1, ..
            } => write!(f, "fcvt.s.w{} {rd}, {rs1}", if signed { "" } else { "u" }),
            FmvToInt { rd, rs1 } => write!(f, "fmv.x.w {rd}, {rs1}"),
            FmvFromInt { rd, rs1 } => write!(f, "fmv.w.x {rd}, {rs1}"),
            FClass { rd, rs1 } => write!(f, "fclass.s {rd}, {rs1}"),
            Tmc { rs1 } => write!(f, "tmc {rs1}"),
            Wspawn { rs1, rs2 } => write!(f, "wspawn {rs1}, {rs2}"),
            Split { rs1 } => write!(f, "split {rs1}"),
            Join => write!(f, "join"),
            Bar { rs1, rs2 } => write!(f, "bar {rs1}, {rs2}"),
            Tex {
                rd,
                u,
                v,
                lod,
                stage,
            } => write!(f, "tex.{stage} {rd}, {u}, {v}, {lod}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn disasm_samples() {
        assert_eq!(
            Instr::OpImm {
                op: OpImmKind::Addi,
                rd: Reg::X1,
                rs1: Reg::X0,
                imm: 5
            }
            .to_string(),
            "addi x1, x0, 5"
        );
        assert_eq!(Instr::Join.to_string(), "join");
        assert_eq!(
            Instr::Tex {
                rd: Reg::X10,
                u: Reg::X11,
                v: Reg::X12,
                lod: Reg::X13,
                stage: 1
            }
            .to_string(),
            "tex.1 x10, x11, x12, x13"
        );
    }
}
