//! The kernel binary interface: fixed addresses and argument marshalling.
//!
//! Mirrors the Vortex convention (Figure 13's `kernel_arg_t* arg`): the
//! host serializes an argument block at [`ARG_BASE`]; kernels load fields
//! from it at known offsets. Stacks grow down from [`STACK_TOP`], one
//! [`STACK_SIZE`] slot per global hardware thread.
//!
//! The per-core shared-memory scratchpads are backed by the same functional
//! RAM (see [`vortex_core::smem_phys`]): cores 0–15 use the top 16 MiB from
//! `SMEM_BASE`, and cores 16–255 wrap around into `[0, HEAP_BASE)`, below
//! the heap. More cores would reach it, hence `vortex_core::MAX_CORES`.

/// Load address of kernel programs.
pub const CODE_BASE: u32 = 0x8000_0000;

/// Address of the kernel argument block.
pub const ARG_BASE: u32 = 0x7F00_0000;

/// Top of the per-thread stack region (stacks grow down).
pub const STACK_TOP: u32 = 0x7E00_0000;

/// Stack bytes per hardware thread.
pub const STACK_SIZE: u32 = 0x1000;

/// First address of the general buffer heap handed out by the driver.
pub const HEAP_BASE: u32 = 0x1000_0000;

/// Serializes a kernel argument block field by field, in order.
///
/// ```
/// use vortex_runtime::ArgWriter;
///
/// let mut args = ArgWriter::new();
/// args.word(0x1000)   // src pointer
///     .word(0x2000)   // dst pointer
///     .word(256)      // count
///     .float(2.0);    // alpha
/// assert_eq!(args.bytes().len(), 16);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ArgWriter {
    bytes: Vec<u8>,
}

impl ArgWriter {
    /// Creates an empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a 32-bit word (pointer or integer).
    pub fn word(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an IEEE-754 single.
    pub fn float(&mut self, v: f32) -> &mut Self {
        self.word(v.to_bits())
    }

    /// The serialized block.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Byte offset the next field would land at (for kernel-side offsets).
    pub fn next_offset(&self) -> u32 {
        self.bytes.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_packed_little_endian_in_order() {
        let mut w = ArgWriter::new();
        w.word(1).word(2).float(1.0);
        assert_eq!(w.next_offset(), 12);
        assert_eq!(&w.bytes()[0..4], &[1, 0, 0, 0]);
        assert_eq!(&w.bytes()[8..12], &1.0f32.to_bits().to_le_bytes());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the map layout
    fn memory_map_regions_do_not_overlap() {
        assert!(HEAP_BASE < STACK_TOP);
        assert!(STACK_TOP < ARG_BASE);
        assert!(ARG_BASE < CODE_BASE);
        // The paper's 512 threads' stacks fit below STACK_TOP with room for
        // a heap; `Device::alloc` derives the real ceiling per device from
        // its thread count.
        assert!(512 * STACK_SIZE < STACK_TOP - HEAP_BASE);
        // Every core's 1 MiB scratchpad window, placed by the real mapping,
        // misses all of them.
        use vortex_core::{smem_phys, MAX_CORES, SMEM_BASE};
        let regions = [
            ("heap", HEAP_BASE, STACK_TOP - 512 * STACK_SIZE),
            ("stack", STACK_TOP - 512 * STACK_SIZE, STACK_TOP),
            ("argument", ARG_BASE, CODE_BASE),
            ("code", CODE_BASE, SMEM_BASE),
        ];
        for core in 0..MAX_CORES {
            let lo = u64::from(smem_phys(SMEM_BASE, core));
            let hi = lo + (1 << 20);
            for (name, start, end) in regions {
                assert!(
                    hi <= u64::from(start) || lo >= u64::from(end),
                    "core {core}'s scratchpad [{lo:#x}, {hi:#x}) overlaps the {name} region"
                );
            }
        }
    }
}
