//! Table 1: the GPGPU ISA taxonomy — the comparative survey (§3.1) that
//! motivates which capabilities the minimal Vortex extension must cover.
//! A static reproduction: the content is the paper's, printed in the same
//! row/column structure.

use super::{Report, Scale};

pub fn report(_: Scale) -> Report {
    Report::from(TABLE.to_string())
}

/// The paper's rows, then this repository's ISA, with a note under them.
const TABLE: &str = "\
| ISA | Memory model | Threading model | Register file | Thread control | Synchronization \
    | Flow control | GPU operations |
|---|---|---|---|---|---|---|---|
| RDNA | GDS, LDS, constants, global | workgroup / wavefront, 32-64 threads \
    | vector + scalar (256 VGPR, 106 SGPR) | end threads, thread mask \
    | barrier, wait_cnt, data dep | branch, thread mask | interpolate, tex-sampler |
| GCN | GDS, LDS, constants, global | compute unit / wavefront, 64 threads \
    | vector + scalar (256 VGPR, 102 SGPR) | end threads, thread mask \
    | barrier, wait_cnt, data dep | branch, thread mask, split/join \
    | interpolate, tex-sampler |
| PTX | shared, texture, constants, global | grid / CTA / warp, 32 threads | scalar \
    | predicate | barrier, membar | branch, predicate | tex-sampler, tex-load, tex-query |
| GEM | SW managed | root thread / child thread | 256-bit vector (128 GRF), predicate \
    | send msg | wait, fence | branch, SPF regs, split/join | interpolate, tex-sampler |
| PowerVR | global, common store, unified store | USC, 32 threads | 128-bit vector \
    | predicate | fence | branch, predicate | tex-sampler, iteration, alpha/depth |
| **Vortex** | shared, global | compute unit / wavefront | scalar, 32-bit | thread mask \
    | barrier, flush | split/join | tex-sampler |

(the last row is this repository's ISA: the six-instruction subset — see \
    `vortex_isa::vx` and Table 2 — chosen because RISC-V lacks predication \
    and free registers for a software divergence stack)
";
