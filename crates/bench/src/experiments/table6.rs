//! Table 6: comparison of open-source GPGPUs (§7) — static reproduction of
//! the related-work table, with a final row describing what *this*
//! repository provides for each column.

use super::{Report, Scale};

pub fn report(_: Scale) -> Report {
    Report::from(TABLE.to_string())
}

/// The paper's rows, then this repository's.
const TABLE: &str = "\
| GPGPU | ISA | Exec model | Cache system | Graphics | Threads×Cores | Host interface \
    | Software stack | Cycle-level sim |
|---|---|---|---|---|---|---|---|---|
| HWACHA | RISCV | Vector | L1,L2 | No | N/A | No | N/A | No |
| Simty | RISCV | SIMT | No | No | 1x1 | No | N/A | No |
| MIAOW | AMD | SIMT | No | No | N/A | N/A | OpenCL | No |
| FlexGrip | Custom | SIMT | sharedm | No | 32x1 | SoC | Custom | No |
| FGPU | Custom | SIMT | L2 | No | 64x8 | SoC | Custom | No |
| NyuziRaster | Custom | SIMT | L1,L2 | Fixed-function rasterizer | 4x1 | N/A | Custom \
    | No |
| Vortex | RISCV | SIMT | sharedm,L1,L2,L3 | Shaders + texture units | 16x32 | PCIe \
    | OpenCL/OpenGL | Yes |
| **this repo** | RISCV (RV32IMF+vx) | SIMT | sharedm,L1,L2,L3 (cycle model) \
    | Programmable raster kernel + texture units | 16x32 (simulated) | AFU/MMIO model \
    | asm builder + driver API | Yes (it *is* one) |

";
