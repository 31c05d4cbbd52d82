//! Texture sampler state, programmed through CSRs (paper Figure 13).

use crate::color::Rgba8;
use vortex_mem::Ram;

/// Texel storage format. The subset of OpenGL-ES internal formats the unit
/// converts to RGBA8 (paper: "The texel sampler performs a format
/// conversion").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
pub enum TexFormat {
    /// 32-bit RGBA, 8 bits per channel (no conversion needed).
    #[default]
    Rgba8 = 0,
    /// 16-bit 5-6-5 RGB, opaque alpha.
    Rgb565 = 1,
    /// 16-bit 4-4-4-4 RGBA.
    Rgba4 = 2,
    /// 8-bit luminance (replicated to RGB, opaque alpha).
    L8 = 3,
    /// 8-bit alpha (RGB = 0).
    A8 = 4,
}

impl TexFormat {
    /// Bytes per texel.
    pub const fn bytes_per_texel(self) -> u32 {
        match self {
            TexFormat::Rgba8 => 4,
            TexFormat::Rgb565 | TexFormat::Rgba4 => 2,
            TexFormat::L8 | TexFormat::A8 => 1,
        }
    }

    /// Decodes a CSR value; unknown values fall back to RGBA8.
    pub const fn from_csr(v: u32) -> Self {
        match v {
            1 => TexFormat::Rgb565,
            2 => TexFormat::Rgba4,
            3 => TexFormat::L8,
            4 => TexFormat::A8,
            _ => TexFormat::Rgba8,
        }
    }

    /// Converts a raw texel (little-endian, low `bytes_per_texel` bytes
    /// significant) to RGBA8.
    pub fn convert(self, raw: u32) -> Rgba8 {
        match self {
            TexFormat::Rgba8 => Rgba8::from_u32(raw),
            TexFormat::Rgb565 => {
                let r5 = (raw >> 11) & 0x1F;
                let g6 = (raw >> 5) & 0x3F;
                let b5 = raw & 0x1F;
                // Standard bit replication to 8 bits.
                Rgba8::new(
                    ((r5 << 3) | (r5 >> 2)) as u8,
                    ((g6 << 2) | (g6 >> 4)) as u8,
                    ((b5 << 3) | (b5 >> 2)) as u8,
                    255,
                )
            }
            TexFormat::Rgba4 => {
                let e = |v: u32| ((v << 4) | v) as u8;
                Rgba8::new(
                    e((raw >> 12) & 0xF),
                    e((raw >> 8) & 0xF),
                    e((raw >> 4) & 0xF),
                    e(raw & 0xF),
                )
            }
            TexFormat::L8 => {
                let l = (raw & 0xFF) as u8;
                Rgba8::new(l, l, l, 255)
            }
            TexFormat::A8 => Rgba8::new(0, 0, 0, (raw & 0xFF) as u8),
        }
    }
}

/// Texture coordinate wrap mode (OpenGL semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
pub enum WrapMode {
    /// Clamp to edge.
    #[default]
    Clamp = 0,
    /// Repeat (tile).
    Repeat = 1,
    /// Mirrored repeat.
    Mirror = 2,
}

impl WrapMode {
    /// Decodes a 2-bit CSR field.
    pub const fn from_csr(v: u32) -> Self {
        match v & 0b11 {
            1 => WrapMode::Repeat,
            2 => WrapMode::Mirror,
            _ => WrapMode::Clamp,
        }
    }

    /// Wraps integer texel coordinate `x` into `0..size` (`size` must be a
    /// power of two, which lets the hardware wrap with masks).
    pub fn apply(self, x: i32, size: u32) -> u32 {
        debug_assert!(size.is_power_of_two());
        let mask = (size - 1) as i32;
        match self {
            WrapMode::Clamp => x.clamp(0, mask) as u32,
            WrapMode::Repeat => (x & mask) as u32,
            WrapMode::Mirror => {
                let period = (x & !mask) & (size as i32); // odd period bit
                let v = x & mask;
                (if period != 0 { mask - v } else { v }) as u32
            }
        }
    }
}

/// Filter mode CSR values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u32)]
pub enum FilterMode {
    /// Nearest-texel (point) sampling.
    #[default]
    Point = 0,
    /// 2×2 bilinear interpolation.
    Bilinear = 1,
}

impl FilterMode {
    /// Decodes a CSR value.
    pub const fn from_csr(v: u32) -> Self {
        if v == 1 {
            FilterMode::Bilinear
        } else {
            FilterMode::Point
        }
    }
}

/// Complete per-stage sampler state (the 7 CSRs of one texture stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TexState {
    /// Base byte address of mip level 0.
    pub addr: u32,
    /// Mipmap layout: `0` = no mip chain (lod clamps to 0); `1` = a
    /// contiguous mip chain follows level 0 (offsets derived from the
    /// dimensions and format).
    pub mipoff: u32,
    /// `log2(width)` at level 0.
    pub log_width: u32,
    /// `log2(height)` at level 0.
    pub log_height: u32,
    /// Texel format.
    pub format: TexFormat,
    /// Wrap mode for `u` (CSR bits 0-1) and `v` (bits 2-3).
    pub wrap_u: WrapMode,
    /// Wrap mode for the `v` coordinate.
    pub wrap_v: WrapMode,
    /// Filter mode.
    pub filter: FilterMode,
}

impl TexState {
    /// Highest addressable mip level (level at which the larger dimension
    /// reaches 1 texel), or 0 when no mip chain is present.
    pub fn max_lod(&self) -> u32 {
        if self.mipoff == 0 {
            0
        } else {
            self.log_width.max(self.log_height)
        }
    }

    /// Texture width at `lod` (at least 1).
    pub fn width(&self, lod: u32) -> u32 {
        1 << self.log_width.saturating_sub(lod)
    }

    /// Texture height at `lod` (at least 1).
    pub fn height(&self, lod: u32) -> u32 {
        1 << self.log_height.saturating_sub(lod)
    }

    /// Byte offset of mip level `lod` from `addr` (contiguous chain).
    pub fn mip_offset(&self, lod: u32) -> u32 {
        let bpp = self.format.bytes_per_texel();
        (0..lod.min(self.max_lod()))
            .map(|l| self.width(l) * self.height(l) * bpp)
            .sum()
    }

    /// Byte address of texel `(x, y)` at `lod` (coordinates already
    /// wrapped).
    pub fn texel_addr(&self, x: u32, y: u32, lod: u32) -> u32 {
        let lod = lod.min(self.max_lod());
        let bpp = self.format.bytes_per_texel();
        self.addr + self.mip_offset(lod) + (y * self.width(lod) + x) * bpp
    }

    /// Reads and format-converts the texel at `(x, y, lod)`.
    pub fn fetch_texel(&self, ram: &Ram, x: u32, y: u32, lod: u32) -> Rgba8 {
        let addr = self.texel_addr(x, y, lod);
        let raw = match self.format.bytes_per_texel() {
            1 => u32::from(ram.read_u8(addr)),
            2 => u32::from(ram.read_u16(addr)),
            _ => ram.read_u32(addr),
        };
        self.format.convert(raw)
    }

    /// Total bytes of the full mip chain (for allocation).
    pub fn total_bytes(&self) -> u32 {
        self.mip_offset(self.max_lod())
            + self.width(self.max_lod())
                * self.height(self.max_lod())
                * self.format.bytes_per_texel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_sizes() {
        assert_eq!(TexFormat::Rgba8.bytes_per_texel(), 4);
        assert_eq!(TexFormat::Rgb565.bytes_per_texel(), 2);
        assert_eq!(TexFormat::L8.bytes_per_texel(), 1);
    }

    #[test]
    fn rgb565_expands_with_replication() {
        // Pure red 0xF800 → (255, 0, 0, 255).
        assert_eq!(
            TexFormat::Rgb565.convert(0xF800),
            Rgba8::new(255, 0, 0, 255)
        );
        // Pure green 0x07E0.
        assert_eq!(
            TexFormat::Rgb565.convert(0x07E0),
            Rgba8::new(0, 255, 0, 255)
        );
        assert_eq!(
            TexFormat::Rgb565.convert(0x001F),
            Rgba8::new(0, 0, 255, 255)
        );
    }

    #[test]
    fn rgba4_expands() {
        assert_eq!(
            TexFormat::Rgba4.convert(0xF00A),
            Rgba8::new(255, 0, 0, 0xAA)
        );
    }

    #[test]
    fn luminance_and_alpha() {
        assert_eq!(
            TexFormat::L8.convert(0x80),
            Rgba8::new(0x80, 0x80, 0x80, 255)
        );
        assert_eq!(TexFormat::A8.convert(0x80), Rgba8::new(0, 0, 0, 0x80));
    }

    #[test]
    fn wrap_clamp_repeat_mirror() {
        assert_eq!(WrapMode::Clamp.apply(-5, 8), 0);
        assert_eq!(WrapMode::Clamp.apply(9, 8), 7);
        assert_eq!(WrapMode::Repeat.apply(9, 8), 1);
        assert_eq!(WrapMode::Repeat.apply(-1, 8), 7);
        assert_eq!(WrapMode::Mirror.apply(8, 8), 7);
        assert_eq!(WrapMode::Mirror.apply(9, 8), 6);
        assert_eq!(WrapMode::Mirror.apply(15, 8), 0);
        assert_eq!(WrapMode::Mirror.apply(16, 8), 0);
        assert_eq!(WrapMode::Mirror.apply(3, 8), 3);
    }

    #[test]
    fn mip_chain_geometry() {
        let s = TexState {
            addr: 0x1000,
            mipoff: 1,
            log_width: 3, // 8×4
            log_height: 2,
            format: TexFormat::Rgba8,
            ..TexState::default()
        };
        assert_eq!(s.max_lod(), 3);
        assert_eq!(s.width(0), 8);
        assert_eq!(s.height(1), 2);
        assert_eq!(s.width(5), 1, "dimensions clamp at 1");
        assert_eq!(s.mip_offset(0), 0);
        assert_eq!(s.mip_offset(1), 8 * 4 * 4);
        assert_eq!(s.mip_offset(2), 8 * 4 * 4 + 4 * 2 * 4);
        // Level 3 is 1×1: total = L0 + L1 + L2 + L3.
        assert_eq!(s.total_bytes(), (32 + 8 + 2 + 1) * 4);
    }

    #[test]
    fn no_mips_clamps_lod() {
        let s = TexState {
            mipoff: 0,
            log_width: 4,
            log_height: 4,
            ..TexState::default()
        };
        assert_eq!(s.max_lod(), 0);
        assert_eq!(s.texel_addr(0, 0, 3), s.texel_addr(0, 0, 0));
    }

    #[test]
    fn texel_fetch_reads_ram() {
        let mut ram = Ram::new();
        let s = TexState {
            addr: 0x2000,
            log_width: 2,
            log_height: 2,
            format: TexFormat::Rgba8,
            ..TexState::default()
        };
        ram.write_u32(s.texel_addr(1, 2, 0), Rgba8::new(9, 8, 7, 6).to_u32());
        assert_eq!(s.fetch_texel(&ram, 1, 2, 0), Rgba8::new(9, 8, 7, 6));
    }
}
