//! Property tests: `decode(encode(i)) == i` over the instruction space,
//! `encode(decode(w)) == w` for every word that decodes, and `try_encode`
//! rejecting, never truncating, a field outside its encoding.

use proptest::prelude::*;
use vortex_isa::{
    decode, encode, try_encode, BranchCond, CsrKind, CsrSrc, FReg, FmaKind, FpCmpKind, FpOpKind,
    Instr, LoadWidth, OpImmKind, OpKind, Reg, RoundMode, StoreWidth,
};

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u32..32).prop_map(Reg::from_index)
}

fn any_freg() -> impl Strategy<Value = FReg> {
    (0u32..32).prop_map(FReg::from_index)
}

fn any_rm() -> impl Strategy<Value = RoundMode> {
    prop_oneof![
        Just(RoundMode::Rne),
        Just(RoundMode::Rtz),
        Just(RoundMode::Rdn),
        Just(RoundMode::Rup),
        Just(RoundMode::Rmm),
        Just(RoundMode::Dyn),
    ]
}

/// A strategy for each range-checked field of [`Instr`].
struct Fields {
    imm12: BoxedStrategy<i32>,
    shamt: BoxedStrategy<i32>,
    upper: BoxedStrategy<i32>,
    branch_off: BoxedStrategy<i32>,
    jal_off: BoxedStrategy<i32>,
    csr: BoxedStrategy<u16>,
    uimm: BoxedStrategy<u8>,
    stage: BoxedStrategy<u8>,
}

/// Every field within its encoding.
fn in_range() -> Fields {
    Fields {
        imm12: (-2048i32..2048).boxed(),
        shamt: (0i32..32).boxed(),
        upper: (0u32..(1 << 20)).prop_map(|v| (v << 12) as i32).boxed(),
        branch_off: (-2048i32..2048).prop_map(|v| v * 2).boxed(),
        jal_off: (-(1i32 << 19)..(1i32 << 19)).prop_map(|v| v * 2).boxed(),
        csr: (0u16..4096).boxed(),
        uimm: (0u8..32).boxed(),
        stage: (0u8..4).boxed(),
    }
}

/// Every field over its whole Rust type, weighted toward the small
/// magnitudes where the encodings' limits lie.
fn unconstrained() -> Fields {
    let any_i32 = || {
        prop_oneof![
            any::<i32>(),
            -64i32..64,
            -5000i32..5000,
            -(1i32 << 21)..(1i32 << 21),
            any::<i32>().prop_map(|v| v & !0xFFF),
        ]
        .boxed()
    };
    Fields {
        imm12: any_i32(),
        shamt: any_i32(),
        upper: any_i32(),
        branch_off: any_i32(),
        jal_off: any_i32(),
        csr: prop_oneof![any::<u16>(), 0u16..8192].boxed(),
        uimm: prop_oneof![any::<u8>(), 0u8..64].boxed(),
        stage: prop_oneof![any::<u8>(), 0u8..8].boxed(),
    }
}

fn any_instr() -> impl Strategy<Value = Instr> {
    instrs(in_range())
}

/// Every `Instr` variant, its range-checked fields drawn from `f`.
fn instrs(f: Fields) -> impl Strategy<Value = Instr> {
    let op_imm = prop_oneof![
        Just(OpImmKind::Addi),
        Just(OpImmKind::Slti),
        Just(OpImmKind::Sltiu),
        Just(OpImmKind::Xori),
        Just(OpImmKind::Ori),
        Just(OpImmKind::Andi),
    ];
    let shift = prop_oneof![
        Just(OpImmKind::Slli),
        Just(OpImmKind::Srli),
        Just(OpImmKind::Srai)
    ];
    let op = prop_oneof![
        Just(OpKind::Add),
        Just(OpKind::Sub),
        Just(OpKind::Sll),
        Just(OpKind::Slt),
        Just(OpKind::Sltu),
        Just(OpKind::Xor),
        Just(OpKind::Srl),
        Just(OpKind::Sra),
        Just(OpKind::Or),
        Just(OpKind::And),
        Just(OpKind::Mul),
        Just(OpKind::Mulh),
        Just(OpKind::Mulhsu),
        Just(OpKind::Mulhu),
        Just(OpKind::Div),
        Just(OpKind::Divu),
        Just(OpKind::Rem),
        Just(OpKind::Remu),
    ];
    let branch = prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ];
    let lw = prop_oneof![
        Just(LoadWidth::B),
        Just(LoadWidth::H),
        Just(LoadWidth::W),
        Just(LoadWidth::Bu),
        Just(LoadWidth::Hu),
    ];
    let sw = prop_oneof![
        Just(StoreWidth::B),
        Just(StoreWidth::H),
        Just(StoreWidth::W)
    ];
    let fma = prop_oneof![
        Just(FmaKind::Madd),
        Just(FmaKind::Msub),
        Just(FmaKind::Nmsub),
        Just(FmaKind::Nmadd),
    ];
    let fpop = prop_oneof![
        Just(FpOpKind::Add),
        Just(FpOpKind::Sub),
        Just(FpOpKind::Mul),
        Just(FpOpKind::Div),
        Just(FpOpKind::SgnJ),
        Just(FpOpKind::SgnJn),
        Just(FpOpKind::SgnJx),
        Just(FpOpKind::Min),
        Just(FpOpKind::Max),
    ];
    let fcmp = prop_oneof![
        Just(FpCmpKind::Eq),
        Just(FpCmpKind::Lt),
        Just(FpCmpKind::Le)
    ];
    let csrk = prop_oneof![
        Just(CsrKind::ReadWrite),
        Just(CsrKind::ReadSet),
        Just(CsrKind::ReadClear),
    ];
    let csr_src = prop_oneof![
        any_reg().prop_map(CsrSrc::Reg),
        f.uimm.prop_map(CsrSrc::Imm)
    ];

    prop_oneof![
        (any_reg(), f.upper.clone()).prop_map(|(rd, imm)| Instr::Lui { rd, imm }),
        (any_reg(), f.upper).prop_map(|(rd, imm)| Instr::Auipc { rd, imm }),
        (any_reg(), f.jal_off).prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
        (any_reg(), any_reg(), f.imm12.clone()).prop_map(|(rd, rs1, offset)| Instr::Jalr {
            rd,
            rs1,
            offset
        }),
        (branch, any_reg(), any_reg(), f.branch_off).prop_map(|(cond, rs1, rs2, offset)| {
            Instr::Branch {
                cond,
                rs1,
                rs2,
                offset,
            }
        }),
        (lw, any_reg(), any_reg(), f.imm12.clone()).prop_map(|(width, rd, rs1, offset)| {
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            }
        }),
        (sw, any_reg(), any_reg(), f.imm12.clone()).prop_map(|(width, rs1, rs2, offset)| {
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            }
        }),
        (op_imm, any_reg(), any_reg(), f.imm12.clone())
            .prop_map(|(op, rd, rs1, imm)| Instr::OpImm { op, rd, rs1, imm }),
        (shift, any_reg(), any_reg(), f.shamt).prop_map(|(op, rd, rs1, imm)| Instr::OpImm {
            op,
            rd,
            rs1,
            imm
        }),
        (op, any_reg(), any_reg(), any_reg()).prop_map(|(op, rd, rs1, rs2)| Instr::Op {
            op,
            rd,
            rs1,
            rs2
        }),
        Just(Instr::Fence),
        Just(Instr::Ecall),
        Just(Instr::Ebreak),
        (csrk, any_reg(), f.csr, csr_src).prop_map(|(kind, rd, csr, src)| Instr::Csr {
            kind,
            rd,
            csr,
            src
        }),
        (any_freg(), any_reg(), f.imm12.clone()).prop_map(|(rd, rs1, offset)| Instr::Flw {
            rd,
            rs1,
            offset
        }),
        (any_reg(), any_freg(), f.imm12).prop_map(|(rs1, rs2, offset)| Instr::Fsw {
            rs1,
            rs2,
            offset
        }),
        (
            fma,
            any_freg(),
            any_freg(),
            any_freg(),
            any_freg(),
            any_rm()
        )
            .prop_map(|(kind, rd, rs1, rs2, rs3, rm)| Instr::Fma {
                kind,
                rd,
                rs1,
                rs2,
                rs3,
                rm
            }),
        (fpop, any_freg(), any_freg(), any_freg(), any_rm()).prop_map(|(op, rd, rs1, rs2, rm)| {
            // `rm` is a don't-care for sign-injection and min/max: the
            // encoding uses funct3 as the op selector there, so the decoder
            // canonicalizes it to Rne.
            let rm = if matches!(
                op,
                FpOpKind::SgnJ | FpOpKind::SgnJn | FpOpKind::SgnJx | FpOpKind::Min | FpOpKind::Max
            ) {
                RoundMode::Rne
            } else {
                rm
            };
            Instr::FpOp {
                op,
                rd,
                rs1,
                rs2,
                rm,
            }
        }),
        (any_freg(), any_freg(), any_rm()).prop_map(|(rd, rs1, rm)| Instr::FpOp {
            op: FpOpKind::Sqrt,
            rd,
            rs1,
            rs2: FReg::X0,
            rm
        }),
        (fcmp, any_reg(), any_freg(), any_freg()).prop_map(|(op, rd, rs1, rs2)| Instr::FpCmp {
            op,
            rd,
            rs1,
            rs2
        }),
        (any::<bool>(), any_reg(), any_freg(), any_rm()).prop_map(|(signed, rd, rs1, rm)| {
            Instr::FpToInt {
                signed,
                rd,
                rs1,
                rm,
            }
        }),
        (any::<bool>(), any_freg(), any_reg(), any_rm()).prop_map(|(signed, rd, rs1, rm)| {
            Instr::IntToFp {
                signed,
                rd,
                rs1,
                rm,
            }
        }),
        (any_reg(), any_freg()).prop_map(|(rd, rs1)| Instr::FmvToInt { rd, rs1 }),
        (any_freg(), any_reg()).prop_map(|(rd, rs1)| Instr::FmvFromInt { rd, rs1 }),
        (any_reg(), any_freg()).prop_map(|(rd, rs1)| Instr::FClass { rd, rs1 }),
        any_reg().prop_map(|rs1| Instr::Tmc { rs1 }),
        (any_reg(), any_reg()).prop_map(|(rs1, rs2)| Instr::Wspawn { rs1, rs2 }),
        any_reg().prop_map(|rs1| Instr::Split { rs1 }),
        Just(Instr::Join),
        (any_reg(), any_reg()).prop_map(|(rs1, rs2)| Instr::Bar { rs1, rs2 }),
        (any_reg(), any_reg(), any_reg(), any_reg(), f.stage).prop_map(|(rd, u, v, lod, stage)| {
            Instr::Tex {
                rd,
                u,
                v,
                lod,
                stage,
            }
        }),
    ]
}

/// A case that once failed `encode_decode_round_trip`: sign injection
/// selects its op with funct3, so a rounding mode other than `Rne` cannot
/// survive the encoding. It decodes to the canonical `Rne`.
#[test]
fn sign_injection_rounding_mode_is_canonical() {
    let instr = Instr::FpOp {
        op: FpOpKind::SgnJ,
        rd: FReg::X0,
        rs1: FReg::X0,
        rs2: FReg::X0,
        rm: RoundMode::Rtz,
    };
    let canonical = Instr::FpOp {
        op: FpOpKind::SgnJ,
        rd: FReg::X0,
        rs1: FReg::X0,
        rs2: FReg::X0,
        rm: RoundMode::Rne,
    };
    assert_eq!(decode(encode(&instr)), Ok(canonical));
    assert_eq!(decode(encode(&canonical)), Ok(canonical));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Encoding then decoding any instruction yields the same instruction.
    #[test]
    fn encode_decode_round_trip(instr in any_instr()) {
        let word = encode(&instr);
        let back = decode(word).expect("encoded instruction must decode");
        prop_assert_eq!(back, instr);
    }

    /// Any word that decodes must re-encode to itself modulo canonicalized
    /// don't-care fields; decoding again always reproduces the instruction.
    #[test]
    fn decode_encode_stability(word in any::<u32>()) {
        if let Ok(instr) = decode(word) {
            let word2 = encode(&instr);
            let instr2 = decode(word2).expect("re-encoded word must decode");
            prop_assert_eq!(instr2, instr);
        }
    }

    /// With every field unconstrained, `try_encode` either rejects the
    /// instruction or encodes it exactly: no field is masked into another
    /// instruction.
    #[test]
    fn try_encode_rejects_or_round_trips(instr in instrs(unconstrained())) {
        if let Ok(word) = try_encode(&instr) {
            prop_assert_eq!(decode(word).expect("encoded instruction must decode"), instr);
        }
    }

    /// The disassembler never panics.
    #[test]
    fn disasm_total(instr in any_instr()) {
        let _ = instr.to_string();
    }
}
