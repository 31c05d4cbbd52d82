//! # vortex-isa
//!
//! Instruction-set definition for the Vortex soft GPU: the RV32IMF base ISA
//! plus the six-instruction Vortex SIMT extension proposed in
//! *"Vortex: Extending the RISC-V ISA for GPGPU and 3D-Graphics Research"*
//! (MICRO 2021), Table 2:
//!
//! | Instruction | Purpose |
//! |---|---|
//! | `wspawn %numW, %PC` | Wavefront activation |
//! | `tmc %numT` | Thread-mask control |
//! | `split %pred` | Control-flow divergence (pushes the IPDOM stack) |
//! | `join` | Control-flow reconvergence (pops the IPDOM stack) |
//! | `bar %barID, %numW` | Wavefront barrier (local or global scope) |
//! | `tex %dest, %u, %v, %lod` | Texture sampling/filtering |
//!
//! The crate provides the decoded instruction type [`Instr`], a binary
//! [`decode`]r and a range-checked encoder ([`try_encode`]) that round-trip,
//! a disassembler (`Display` on [`Instr`]), the [register](reg) names, and the
//! [CSR address map](csr) shared by the simulator, runtime and texture units.
//!
//! ```
//! use vortex_isa::{decode, encode, Instr, Reg};
//!
//! // addi x1, x0, 5
//! let i = decode(0x0050_0093).unwrap();
//! assert_eq!(i, Instr::OpImm { op: vortex_isa::OpImmKind::Addi,
//!                              rd: Reg::X1, rs1: Reg::X0, imm: 5 });
//! assert_eq!(encode(&i), 0x0050_0093);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
mod decode;
mod disasm;
mod encode;
mod instr;
pub mod reg;
pub mod vx;

pub use decode::{decode, DecodeError};
pub use encode::{encode, try_encode, EncodeError, Field};
pub use instr::{
    BranchCond, CsrKind, CsrSrc, FmaKind, FpCmpKind, FpOpKind, Instr, LoadWidth, OpImmKind, OpKind,
    RoundMode, StoreWidth,
};
pub use reg::{FReg, Reg};

/// Width of one instruction word in bytes. Vortex does not implement the
/// compressed (`C`) extension, so all instructions are 4 bytes.
pub const INSTR_BYTES: u32 = 4;
