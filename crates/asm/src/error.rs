//! Assembly error type.

use std::fmt;
use vortex_isa::{EncodeError, Instr};

/// Error produced while building or assembling a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
    /// An instruction has a field its encoding cannot hold, such as a
    /// branch to a label out of B-type reach.
    Encode {
        /// Address of the instruction.
        pc: u32,
        /// The instruction as intended.
        instr: Instr,
        /// The field that does not fit, and its value.
        error: EncodeError,
    },
    /// Text-assembler syntax error.
    Syntax {
        /// 1-based source line number.
        line: usize,
        /// Explanation.
        msg: String,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Encode { pc, instr, error } => {
                write!(f, "cannot encode `{instr}` at {pc:#x}: {error}")
            }
            AsmError::Syntax { line, msg } => write!(f, "syntax error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for AsmError {}
