//! Text assembler: GNU-as-like syntax → [`Assembler`] items.
//!
//! Supported syntax:
//!
//! ```text
//! # comment       ; comment      // comment
//! label:
//!     li   a0, 100
//!     la   a1, table
//! loop:
//!     lw   t0, 0(a1)
//!     addi a1, a1, 4
//!     addi a0, a0, -1
//!     bnez a0, loop
//!     tex.0 a2, a3, a4, a5
//!     ecall
//! table:
//!     .word 1
//!     .float 0.5
//! ```

use crate::builder::Assembler;
use crate::error::AsmError;
use crate::program::Program;
use vortex_isa::{FReg, Reg};

fn syntax(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError::Syntax {
        line,
        msg: msg.into(),
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, AsmError> {
    tok.parse::<Reg>()
        .map_err(|_| syntax(line, format!("expected integer register, got `{tok}`")))
}

fn parse_freg(tok: &str, line: usize) -> Result<FReg, AsmError> {
    tok.parse::<FReg>()
        .map_err(|_| syntax(line, format!("expected FP register, got `{tok}`")))
}

fn parse_imm(tok: &str, line: usize) -> Result<i32, AsmError> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).map(|v| v as i64)
    } else {
        body.parse::<u32>().map(|v| v as i64)
    }
    .map_err(|_| syntax(line, format!("bad immediate `{tok}`")))?;
    let v = if neg { -v } else { v };
    i32::try_from(v).map_err(|_| syntax(line, format!("immediate `{tok}` out of range")))
}

/// Parses an operand into the unsigned type of its `Instr` field (a CSR
/// number or immediate); whether it fits the encoding is the encoder's call.
fn parse_unsigned<T: TryFrom<i32>>(tok: &str, line: usize) -> Result<T, AsmError> {
    T::try_from(parse_imm(tok, line)?)
        .map_err(|_| syntax(line, format!("operand `{tok}` out of range")))
}

/// Parses a `lui`/`auipc` operand, the upper 20 bits, into the value.
fn parse_upper(tok: &str, line: usize) -> Result<i32, AsmError> {
    let v = parse_imm(tok, line)?;
    if (0..=0xF_FFFF).contains(&v) {
        Ok(v << 12)
    } else {
        Err(syntax(
            line,
            format!("upper immediate `{tok}` outside 0..=0xfffff"),
        ))
    }
}

/// Splits `off(reg)` into `(offset, reg)`.
fn parse_mem(tok: &str, line: usize) -> Result<(i32, Reg), AsmError> {
    let open = tok
        .find('(')
        .ok_or_else(|| syntax(line, format!("expected `offset(reg)`, got `{tok}`")))?;
    if !tok.ends_with(')') {
        return Err(syntax(line, format!("expected `offset(reg)`, got `{tok}`")));
    }
    let off_str = &tok[..open];
    let reg_str = &tok[open + 1..tok.len() - 1];
    let offset = if off_str.is_empty() {
        0
    } else {
        parse_imm(off_str, line)?
    };
    Ok((offset, parse_reg(reg_str, line)?))
}

/// Parses assembly text and assembles it at `base`.
///
/// # Errors
/// Returns [`AsmError::Syntax`] with a line number for malformed input or
/// for a field its encoding cannot hold, or a label error from
/// [`Assembler::assemble`].
pub fn parse_asm(source: &str, base: u32) -> Result<Program, AsmError> {
    let mut a = Assembler::new();
    // The source line of every word emitted.
    let mut word_line = Vec::new();
    for (lineno, raw_line) in source.lines().enumerate() {
        let line = lineno + 1;
        // Strip comments.
        let mut text = raw_line;
        for marker in ["#", "//", ";"] {
            if let Some(pos) = text.find(marker) {
                text = &text[..pos];
            }
        }
        let mut text = text.trim();
        // Leading labels (possibly several on the same line).
        while let Some(colon) = text.find(':') {
            let (label, rest) = text.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            a.label(label)?;
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            rest.split(',').map(str::trim).collect()
        };
        let argc = |n: usize| -> Result<(), AsmError> {
            if ops.len() == n {
                Ok(())
            } else {
                Err(syntax(
                    line,
                    format!("`{mnemonic}` expects {n} operands, got {}", ops.len()),
                ))
            }
        };

        macro_rules! rrr {
            ($m:ident) => {{
                argc(3)?;
                let rd = parse_reg(ops[0], line)?;
                let rs1 = parse_reg(ops[1], line)?;
                let rs2 = parse_reg(ops[2], line)?;
                a.$m(rd, rs1, rs2);
            }};
        }
        macro_rules! rri {
            ($m:ident) => {{
                argc(3)?;
                let rd = parse_reg(ops[0], line)?;
                let rs1 = parse_reg(ops[1], line)?;
                let imm = parse_imm(ops[2], line)?;
                a.$m(rd, rs1, imm);
            }};
        }
        macro_rules! load {
            ($m:ident) => {{
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                let (off, base_reg) = parse_mem(ops[1], line)?;
                a.$m(rd, base_reg, off);
            }};
        }
        macro_rules! store {
            ($m:ident) => {{
                argc(2)?;
                let rs2 = parse_reg(ops[0], line)?;
                let (off, base_reg) = parse_mem(ops[1], line)?;
                a.$m(rs2, base_reg, off);
            }};
        }
        macro_rules! br {
            ($cond:expr) => {{
                argc(3)?;
                let rs1 = parse_reg(ops[0], line)?;
                let rs2 = parse_reg(ops[1], line)?;
                // Target may be a label or a numeric byte offset (the
                // disassembler prints offsets, so this keeps
                // parse(disassemble(p)) == p).
                if let Ok(offset) = parse_imm(ops[2], line) {
                    a.raw(vortex_isa::Instr::Branch {
                        cond: $cond,
                        rs1,
                        rs2,
                        offset,
                    });
                } else {
                    a.branch_to($cond, rs1, rs2, ops[2]);
                }
            }};
        }
        macro_rules! brz {
            ($m:ident) => {{
                argc(2)?;
                let rs1 = parse_reg(ops[0], line)?;
                a.$m(rs1, ops[1]);
            }};
        }
        macro_rules! fff {
            ($m:ident) => {{
                argc(3)?;
                let rd = parse_freg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                let rs2 = parse_freg(ops[2], line)?;
                a.$m(rd, rs1, rs2);
            }};
        }

        match mnemonic {
            "add" => rrr!(add),
            "sub" => rrr!(sub),
            "sll" => rrr!(sll),
            "slt" => rrr!(slt),
            "sltu" => rrr!(sltu),
            "xor" => rrr!(xor),
            "srl" => rrr!(srl),
            "sra" => rrr!(sra),
            "or" => rrr!(or),
            "and" => rrr!(and),
            "mul" => rrr!(mul),
            "mulh" => rrr!(mulh),
            "mulhsu" => rrr!(mulhsu),
            "mulhu" => rrr!(mulhu),
            "div" => rrr!(div),
            "divu" => rrr!(divu),
            "rem" => rrr!(rem),
            "remu" => rrr!(remu),
            "addi" => rri!(addi),
            "slti" => rri!(slti),
            "sltiu" => rri!(sltiu),
            "xori" => rri!(xori),
            "ori" => rri!(ori),
            "andi" => rri!(andi),
            "slli" => rri!(slli),
            "srli" => rri!(srli),
            "srai" => rri!(srai),
            "lb" => load!(lb),
            "lh" => load!(lh),
            "lw" => load!(lw),
            "lbu" => load!(lbu),
            "lhu" => load!(lhu),
            "sb" => store!(sb),
            "sh" => store!(sh),
            "sw" => store!(sw),
            "beq" => br!(vortex_isa::BranchCond::Eq),
            "bne" => br!(vortex_isa::BranchCond::Ne),
            "blt" => br!(vortex_isa::BranchCond::Lt),
            "bge" => br!(vortex_isa::BranchCond::Ge),
            "bltu" => br!(vortex_isa::BranchCond::Ltu),
            "bgeu" => br!(vortex_isa::BranchCond::Geu),
            "beqz" => brz!(beqz),
            "bnez" => brz!(bnez),
            "blez" => brz!(blez),
            "bgtz" => brz!(bgtz),
            "lui" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.lui(rd, parse_upper(ops[1], line)?);
            }
            "auipc" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.auipc(rd, parse_upper(ops[1], line)?);
            }
            "jal" => match ops.len() {
                1 => {
                    a.jal(Reg::X1, ops[0]);
                }
                2 => {
                    let rd = parse_reg(ops[0], line)?;
                    if let Ok(offset) = parse_imm(ops[1], line) {
                        a.raw(vortex_isa::Instr::Jal { rd, offset });
                    } else {
                        a.jal(rd, ops[1]);
                    }
                }
                _ => return Err(syntax(line, "`jal` expects 1 or 2 operands")),
            },
            "jalr" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                let (off, base_reg) = parse_mem(ops[1], line)?;
                a.jalr(rd, base_reg, off);
            }
            "j" => {
                argc(1)?;
                a.j(ops[0]);
            }
            "jr" => {
                argc(1)?;
                a.jr(parse_reg(ops[0], line)?);
            }
            "call" => {
                argc(1)?;
                a.call(ops[0]);
            }
            "ret" => {
                argc(0)?;
                a.ret();
            }
            "li" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.li(rd, parse_imm(ops[1], line)?);
            }
            "la" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.la(rd, ops[1]);
            }
            "mv" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.mv(rd, parse_reg(ops[1], line)?);
            }
            "not" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.not(rd, parse_reg(ops[1], line)?);
            }
            "neg" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.neg(rd, parse_reg(ops[1], line)?);
            }
            "seqz" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.seqz(rd, parse_reg(ops[1], line)?);
            }
            "snez" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.snez(rd, parse_reg(ops[1], line)?);
            }
            "nop" => {
                argc(0)?;
                a.nop();
            }
            "fence" => {
                argc(0)?;
                a.fence();
            }
            "ecall" => {
                argc(0)?;
                a.ecall();
            }
            "ebreak" => {
                argc(0)?;
                a.ebreak();
            }
            "csrr" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.csrr(rd, parse_unsigned(ops[1], line)?);
            }
            "csrw" => {
                argc(2)?;
                let csr = parse_unsigned(ops[0], line)?;
                a.csrw(csr, parse_reg(ops[1], line)?);
            }
            "csrrw" | "csrrs" | "csrrc" => {
                argc(3)?;
                let rd = parse_reg(ops[0], line)?;
                let csr = parse_unsigned(ops[1], line)?;
                let rs1 = parse_reg(ops[2], line)?;
                match mnemonic {
                    "csrrw" => a.csrrw(rd, csr, rs1),
                    "csrrs" => a.csrrs(rd, csr, rs1),
                    _ => a.csrrc(rd, csr, rs1),
                };
            }
            "flw" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                let (off, base_reg) = parse_mem(ops[1], line)?;
                a.flw(rd, base_reg, off);
            }
            "fsw" => {
                argc(2)?;
                let rs2 = parse_freg(ops[0], line)?;
                let (off, base_reg) = parse_mem(ops[1], line)?;
                a.fsw(rs2, base_reg, off);
            }
            "fadd.s" => fff!(fadd),
            "fsub.s" => fff!(fsub),
            "fmul.s" => fff!(fmul),
            "fdiv.s" => fff!(fdiv),
            "fmin.s" => fff!(fmin),
            "fmax.s" => fff!(fmax),
            "fsgnj.s" => fff!(fsgnj),
            "fsqrt.s" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fsqrt(rd, parse_freg(ops[1], line)?);
            }
            "fmv.s" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fmv(rd, parse_freg(ops[1], line)?);
            }
            "fneg.s" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fneg(rd, parse_freg(ops[1], line)?);
            }
            "fabs.s" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fabs(rd, parse_freg(ops[1], line)?);
            }
            "fmadd.s" | "fmsub.s" => {
                argc(4)?;
                let rd = parse_freg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                let rs2 = parse_freg(ops[2], line)?;
                let rs3 = parse_freg(ops[3], line)?;
                if mnemonic == "fmadd.s" {
                    a.fmadd(rd, rs1, rs2, rs3);
                } else {
                    a.fmsub(rd, rs1, rs2, rs3);
                }
            }
            "feq.s" | "flt.s" | "fle.s" => {
                argc(3)?;
                let rd = parse_reg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                let rs2 = parse_freg(ops[2], line)?;
                match mnemonic {
                    "feq.s" => a.feq(rd, rs1, rs2),
                    "flt.s" => a.flt(rd, rs1, rs2),
                    _ => a.fle(rd, rs1, rs2),
                };
            }
            "fcvt.w.s" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.fcvt_w_s(rd, parse_freg(ops[1], line)?);
            }
            "fcvt.s.w" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fcvt_s_w(rd, parse_reg(ops[1], line)?);
            }
            "fcvt.s.wu" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fcvt_s_wu(rd, parse_reg(ops[1], line)?);
            }
            "fmv.x.w" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                a.fmv_x_w(rd, parse_freg(ops[1], line)?);
            }
            "fmv.w.x" => {
                argc(2)?;
                let rd = parse_freg(ops[0], line)?;
                a.fmv_w_x(rd, parse_reg(ops[1], line)?);
            }
            // Vortex extension.
            "tmc" => {
                argc(1)?;
                a.tmc(parse_reg(ops[0], line)?);
            }
            "wspawn" => {
                argc(2)?;
                let rs1 = parse_reg(ops[0], line)?;
                a.wspawn(rs1, parse_reg(ops[1], line)?);
            }
            "split" => {
                argc(1)?;
                a.split(parse_reg(ops[0], line)?);
            }
            "join" => {
                argc(0)?;
                a.join();
            }
            "bar" => {
                argc(2)?;
                let rs1 = parse_reg(ops[0], line)?;
                a.bar(rs1, parse_reg(ops[1], line)?);
            }
            m if m == "tex" || m.starts_with("tex.") => {
                argc(4)?;
                let stage: u8 = match m.strip_prefix("tex.") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| syntax(line, format!("bad texture stage in `{m}`")))?,
                    None => 0,
                };
                let rd = parse_reg(ops[0], line)?;
                let u = parse_reg(ops[1], line)?;
                let v = parse_reg(ops[2], line)?;
                let lod = parse_reg(ops[3], line)?;
                a.tex(stage, rd, u, v, lod);
            }
            ".word" => {
                argc(1)?;
                // `.word` accepts the full unsigned range as well as negative
                // values, so it gets its own parse.
                let tok = ops[0];
                let v = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X"))
                {
                    u32::from_str_radix(hex, 16)
                        .map_err(|_| syntax(line, format!("bad word `{tok}`")))?
                } else {
                    parse_imm(tok, line)? as u32
                };
                a.word(v);
            }
            ".float" => {
                argc(1)?;
                let v: f32 = ops[0]
                    .parse()
                    .map_err(|_| syntax(line, format!("bad float `{}`", ops[0])))?;
                a.float(v);
            }
            "fsgnjn.s" | "fsgnjx.s" => {
                argc(3)?;
                let rd = parse_freg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                let rs2 = parse_freg(ops[2], line)?;
                let op = if mnemonic == "fsgnjn.s" {
                    vortex_isa::FpOpKind::SgnJn
                } else {
                    vortex_isa::FpOpKind::SgnJx
                };
                a.raw(vortex_isa::Instr::FpOp {
                    op,
                    rd,
                    rs1,
                    rs2,
                    rm: vortex_isa::RoundMode::Rne,
                });
            }
            "fnmsub.s" | "fnmadd.s" => {
                argc(4)?;
                let rd = parse_freg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                let rs2 = parse_freg(ops[2], line)?;
                let rs3 = parse_freg(ops[3], line)?;
                let kind = if mnemonic == "fnmsub.s" {
                    vortex_isa::FmaKind::Nmsub
                } else {
                    vortex_isa::FmaKind::Nmadd
                };
                a.raw(vortex_isa::Instr::Fma {
                    kind,
                    rd,
                    rs1,
                    rs2,
                    rs3,
                    rm: vortex_isa::RoundMode::Rne,
                });
            }
            "fclass.s" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                a.raw(vortex_isa::Instr::FClass { rd, rs1 });
            }
            "fcvt.wu.s" => {
                argc(2)?;
                let rd = parse_reg(ops[0], line)?;
                let rs1 = parse_freg(ops[1], line)?;
                a.raw(vortex_isa::Instr::FpToInt {
                    signed: false,
                    rd,
                    rs1,
                    rm: vortex_isa::RoundMode::Rtz,
                });
            }
            "csrrwi" | "csrrsi" | "csrrci" => {
                argc(3)?;
                let rd = parse_reg(ops[0], line)?;
                let csr_addr = parse_unsigned(ops[1], line)?;
                let imm = parse_unsigned(ops[2], line)?;
                let kind = match mnemonic {
                    "csrrwi" => vortex_isa::CsrKind::ReadWrite,
                    "csrrsi" => vortex_isa::CsrKind::ReadSet,
                    _ => vortex_isa::CsrKind::ReadClear,
                };
                a.raw(vortex_isa::Instr::Csr {
                    kind,
                    rd,
                    csr: csr_addr,
                    src: vortex_isa::CsrSrc::Imm(imm),
                });
            }
            ".text" | ".globl" | ".global" | ".align" | ".section" => { /* ignored */ }
            other => return Err(syntax(line, format!("unknown mnemonic `{other}`"))),
        }
        word_line.resize(a.len_words() as usize, line);
    }
    a.assemble(base).map_err(|e| match e {
        AsmError::Encode { pc, .. } => syntax(
            word_line[(pc.wrapping_sub(base) / 4) as usize],
            e.to_string(),
        ),
        e => e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::{decode, Instr};

    #[test]
    fn parses_a_small_loop() {
        let p = parse_asm(
            r#"
            # countdown loop
            li   a0, 3
        loop:
            addi a0, a0, -1
            bnez a0, loop
            ecall
            "#,
            0x8000_0000,
        )
        .unwrap();
        assert_eq!(p.image.len(), 4);
        assert_eq!(p.addr_of("loop"), 0x8000_0004);
        assert!(matches!(decode(p.image[3]).unwrap(), Instr::Ecall));
    }

    #[test]
    fn parses_vortex_instructions() {
        let p = parse_asm(
            r#"
            tmc   t0
            wspawn t0, t1
            split t2
            join
            bar   t0, t1
            tex.1 a0, a1, a2, a3
            "#,
            0,
        )
        .unwrap();
        let instrs: Vec<Instr> = p.image.iter().map(|&w| decode(w).unwrap()).collect();
        assert!(instrs.iter().all(Instr::is_vortex_ext));
        assert!(matches!(instrs[5], Instr::Tex { stage: 1, .. }));
    }

    #[test]
    fn parses_memory_operands() {
        let p = parse_asm("lw t0, -8(sp)\nsw t0, (sp)", 0).unwrap();
        assert_eq!(
            decode(p.image[0]).unwrap(),
            Instr::Load {
                width: vortex_isa::LoadWidth::W,
                rd: Reg::X5,
                rs1: Reg::X2,
                offset: -8
            }
        );
    }

    #[test]
    fn parses_data_directives() {
        let p = parse_asm(".word 0xdeadbeef\n.float 1.0", 0).unwrap();
        assert_eq!(p.image, vec![0xDEAD_BEEF, 1.0f32.to_bits()]);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_asm("nop\nbogus x0", 0).unwrap_err();
        assert!(matches!(err, AsmError::Syntax { line: 2, .. }), "{err}");
    }

    /// Malformed operands, and immediates the encoding cannot hold, are
    /// errors on their own line, never truncated into another instruction.
    #[test]
    fn rejects_malformed_operands() {
        for src in [
            "addi x1, x2",
            "lw x1, x2",
            "addi x1, x2, zz",
            "addi x5,x5,5000",
            "addi x5,x5,-2049",
            "lw x5,4096(x6)",
            "sw x5,-3000(x6)",
            "slli x5,x5,40",
            "lui x5,0x100000",
            "csrr x5,0x10000",
            "andi x5,x5,0xfff",
            "beq x5,x6,3",
            "beq x5,x6,4096",
            "jal x1,3",
            "jal x1,1048576",
            "auipc x5,-1",
            "csrw 0x1000, x5",
            "jalr x1,2048(x5)",
            "tex.4 x1, x2, x3, x4",
        ] {
            let err = parse_asm(&format!("nop\n{src}"), 0).unwrap_err();
            assert!(
                matches!(err, AsmError::Syntax { line: 2, .. }),
                "`{src}`: {err}"
            );
        }
    }

    /// A field the encoder rejects is a `Syntax` error on its own line,
    /// also after lines that emit two words each (`la`, a wide `li`).
    #[test]
    fn unencodable_fields_are_errors_on_their_line() {
        for probe in [
            "addi x5,x5,5000",
            "lw x5,4096(x6)",
            "slli x5,x5,40",
            "csrr x5,0x1abc",
            "tex.5 x5, x6, x7, x0",
        ] {
            let src = format!("la t0, end\nli t1, 0x12345\n\n{probe}\nend:\necall");
            let err = parse_asm(&src, 0x8000_0000).unwrap_err();
            assert!(
                matches!(err, AsmError::Syntax { line: 4, .. }),
                "`{probe}`: {err}"
            );
        }
    }

    #[test]
    fn accepts_immediates_at_their_limits() {
        for src in [
            "addi x5,x5,-2048",
            "andi x5,x5,2047",
            "srai x5,x5,31",
            "lui x5,0xfffff",
            "csrr x5,0xfff",
            "beq x5,x6,-4096",
            "jal x1,1048574",
        ] {
            parse_asm(src, 0).unwrap_or_else(|e| panic!("`{src}`: {e}"));
        }
    }
}
