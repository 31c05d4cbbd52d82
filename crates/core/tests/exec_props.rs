//! Property tests for the functional execution semantics: the ALU and FPU
//! against independent oracles, and the IPDOM divergence invariants.

use proptest::prelude::*;
use vortex_core::exec::{self, CsrFile, ExecEnv};
use vortex_core::ipdom::{IpdomStack, JoinOutcome, SplitOutcome};
use vortex_core::regfile::RegFile;
use vortex_core::warp::Wavefront;
use vortex_isa::{FReg, FpOpKind, Instr, OpKind, Reg};
use vortex_mem::Ram;

fn env() -> ExecEnv {
    ExecEnv {
        core_id: 0,
        num_cores: 1,
        num_wavefronts: 1,
        num_threads: 1,
        cycle: 0,
        instret: 0,
    }
}

/// Runs one reg-reg ALU instruction on a single-lane wavefront.
fn run_op(op: OpKind, a: u32, b: u32) -> u32 {
    let mut wf = Wavefront::new(0, 1);
    wf.spawn(0x100, 1);
    wf.pc = 0x104;
    let mut regs = RegFile::new(1, 1);
    regs.write_x(0, 0, Reg::X5, a);
    regs.write_x(0, 0, Reg::X6, b);
    let mut ram = Ram::new();
    let mut csrf = CsrFile::default();
    let r = exec::execute(
        &mut wf,
        &regs,
        &mut ram,
        &mut csrf,
        &env(),
        &Instr::Op {
            op,
            rd: Reg::X7,
            rs1: Reg::X5,
            rs2: Reg::X6,
        },
        0x100,
    )
    .expect("uniform op cannot trap");
    r.wb.expect("ALU writes back").values[0].expect("lane 0 active")
}

/// Oracle in 64-bit arithmetic (RISC-V M-extension semantics).
fn oracle(op: OpKind, a: u32, b: u32) -> u32 {
    let (sa, sb) = (a as i32 as i64, b as i32 as i64);
    let (ua, ub) = (a as u64, b as u64);
    match op {
        OpKind::Add => (ua.wrapping_add(ub)) as u32,
        OpKind::Sub => (ua.wrapping_sub(ub)) as u32,
        OpKind::Sll => ((ua << (b & 31)) & 0xFFFF_FFFF) as u32,
        OpKind::Slt => u32::from(sa < sb),
        OpKind::Sltu => u32::from(a < b),
        OpKind::Xor => a ^ b,
        OpKind::Srl => a >> (b & 31),
        OpKind::Sra => ((sa >> (b & 31)) & 0xFFFF_FFFF) as u32,
        OpKind::Or => a | b,
        OpKind::And => a & b,
        OpKind::Mul => (sa.wrapping_mul(sb)) as u32,
        OpKind::Mulh => ((sa.wrapping_mul(sb)) >> 32) as u32,
        OpKind::Mulhsu => ((sa.wrapping_mul(ub as i64)) >> 32) as u32,
        OpKind::Mulhu => ((ua.wrapping_mul(ub)) >> 32) as u32,
        OpKind::Div => {
            if b == 0 {
                u32::MAX
            } else {
                (sa.wrapping_div(sb)) as u32
            }
        }
        OpKind::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        OpKind::Rem => {
            if b == 0 {
                a
            } else {
                (sa.wrapping_rem(sb)) as u32
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

fn any_op() -> impl Strategy<Value = OpKind> {
    prop_oneof![
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
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Every integer ALU/MULDIV operation agrees with the 64-bit oracle
    /// over random operands (including the INT_MIN/-1 and /0 edges, which
    /// appear by chance and via the dedicated cases below).
    #[test]
    fn alu_matches_oracle(op in any_op(), a in any::<u32>(), b in any::<u32>()) {
        prop_assert_eq!(run_op(op, a, b), oracle(op, a, b), "{:?}({:#x},{:#x})", op, a, b);
    }

    /// FP add/mul/min/max agree with Rust's IEEE-754 implementation
    /// bit-for-bit on non-NaN inputs.
    #[test]
    fn fpu_matches_ieee(a in any::<f32>(), b in any::<f32>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let mut wf = Wavefront::new(0, 1);
        wf.spawn(0x100, 1);
        let mut regs = RegFile::new(1, 1);
        regs.write_f(0, 0, FReg::X1, a.to_bits());
        regs.write_f(0, 0, FReg::X2, b.to_bits());
        let mut ram = Ram::new();
        let mut csrf = CsrFile::default();
        for (op, expect) in [
            (FpOpKind::Add, a + b),
            (FpOpKind::Sub, a - b),
            (FpOpKind::Mul, a * b),
            (FpOpKind::Div, a / b),
        ] {
            let r = exec::execute(
                &mut wf, &regs, &mut ram, &mut csrf, &env(),
                &Instr::FpOp { op, rd: FReg::X3, rs1: FReg::X1, rs2: FReg::X2,
                               rm: vortex_isa::RoundMode::Rne },
                0x100,
            )
            .expect("FP op cannot trap");
            let got = r.wb.unwrap().values[0].unwrap();
            prop_assert_eq!(got, expect.to_bits(), "{:?}({},{})", op, a, b);
        }
    }

    /// IPDOM invariant: for any random nesting of splits, executing the
    /// matching number of joins always reconverges to the original mask,
    /// and the two sides of every divergence partition the parent mask.
    #[test]
    fn ipdom_always_reconverges(
        preds in prop::collection::vec(0u32..16, 1..6),
    ) {
        let mut stack = IpdomStack::new(64);
        let mut mask_stack = vec![0b1111u32];
        let mut pending_joins = 0usize;
        for p in &preds {
            let cur = *mask_stack.last().unwrap();
            match stack.split(cur, *p, 0x100).expect("depth within capacity") {
                SplitOutcome::Uniform => {
                    mask_stack.push(cur);
                    pending_joins += 1;
                }
                SplitOutcome::Diverged { then_mask } => {
                    prop_assert_eq!(then_mask & !cur, 0, "then ⊆ parent");
                    mask_stack.push(then_mask);
                    pending_joins += 1;
                }
            }
        }
        // Unwind: each level needs one join per entry pushed on it; a
        // diverged level pops the else side first (Branch), then the
        // fall-through. Walk until the stack drains.
        let mut joins = 0;
        while !stack.is_empty() {
            match stack.join().expect("stack checked non-empty") {
                JoinOutcome::Branch { tmask, .. } => {
                    prop_assert!(tmask != 0, "else side never empty");
                }
                JoinOutcome::FallThrough { tmask } => {
                    prop_assert!(tmask != 0 || mask_stack[0] == 0);
                }
            }
            joins += 1;
            prop_assert!(joins <= preds.len() * 2, "join count bounded by 2 per split");
        }
        prop_assert!(joins >= pending_joins, "at least one join per split");
    }
}

/// The documented division edge cases, exactly.
#[test]
fn division_edges() {
    assert_eq!(run_op(OpKind::Div, 0x8000_0000, u32::MAX), 0x8000_0000);
    assert_eq!(run_op(OpKind::Rem, 0x8000_0000, u32::MAX), 0);
    assert_eq!(run_op(OpKind::Div, 123, 0), u32::MAX);
    assert_eq!(run_op(OpKind::Divu, 123, 0), u32::MAX);
    assert_eq!(run_op(OpKind::Rem, 123, 0), 123);
    assert_eq!(run_op(OpKind::Remu, 123, 0), 123);
}
