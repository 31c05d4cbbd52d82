//! Functional sampling: the arithmetic the texture unit implements,
//! callable directly for host-side validation and the software-rendering
//! comparisons (Figure 20).

use crate::color::Rgba8;
use crate::state::TexState;
use vortex_mem::Ram;

/// The 2×2 texel footprint and blend weights of one bilinear lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BilinearFootprint {
    /// Wrapped integer coordinates of the four texels:
    /// `(x0,y0), (x1,y0), (x0,y1), (x1,y1)`.
    pub coords: [(u32, u32); 4],
    /// 8-bit horizontal blend factor.
    pub frac_u: u8,
    /// 8-bit vertical blend factor.
    pub frac_v: u8,
}

/// Computes the footprint of a bilinear sample at normalized `(u, v)`,
/// `lod`: the job of the texture address generator (stage ① of Figure 5).
pub fn bilinear_footprint(state: &TexState, u: f32, v: f32, lod: u32) -> BilinearFootprint {
    let w = state.width(lod);
    let h = state.height(lod);
    // OpenGL texel-center convention: sample point minus half a texel.
    let x = u * w as f32 - 0.5;
    let y = v * h as f32 - 0.5;
    let x0 = x.floor();
    let y0 = y.floor();
    // 8-bit fixed-point blend factors, as the hardware interpolator uses.
    let frac_u = ((x - x0) * 256.0) as i32;
    let frac_v = ((y - y0) * 256.0) as i32;
    let (x0, y0) = (x0 as i32, y0 as i32);
    let wrap = |x: i32, y: i32| (state.wrap_u.apply(x, w), state.wrap_v.apply(y, h));
    BilinearFootprint {
        coords: [
            wrap(x0, y0),
            wrap(x0 + 1, y0),
            wrap(x0, y0 + 1),
            wrap(x0 + 1, y0 + 1),
        ],
        frac_u: frac_u.clamp(0, 255) as u8,
        frac_v: frac_v.clamp(0, 255) as u8,
    }
}

/// Point (nearest) sampling at normalized `(u, v)`, `lod`.
pub fn sample_point(ram: &Ram, state: &TexState, u: f32, v: f32, lod: u32) -> Rgba8 {
    let w = state.width(lod);
    let h = state.height(lod);
    let x = (u * w as f32).floor() as i32;
    let y = (v * h as f32).floor() as i32;
    state.fetch_texel(ram, state.wrap_u.apply(x, w), state.wrap_v.apply(y, h), lod)
}

/// Bilinear sampling at normalized `(u, v)`, `lod` — the exact arithmetic
/// of the hardware sampler (8-bit blend factors, two lerp stages).
pub fn sample_bilinear(ram: &Ram, state: &TexState, u: f32, v: f32, lod: u32) -> Rgba8 {
    let fp = bilinear_footprint(state, u, v, lod);
    let t: Vec<Rgba8> = fp
        .coords
        .iter()
        .map(|&(x, y)| state.fetch_texel(ram, x, y, lod))
        .collect();
    // Cycle 1: two horizontal lerps; cycle 2: one vertical lerp.
    let top = t[0].lerp(t[1], fp.frac_u);
    let bottom = t[2].lerp(t[3], fp.frac_u);
    top.lerp(bottom, fp.frac_v)
}

/// Algorithm 1 of the paper — trilinear filtering as a pseudo-instruction:
/// two bilinear `tex` lookups on adjacent mip levels blended by
/// `frac(lod)`.
///
/// ```text
/// function Trilinear(stage, u, v, lod)
///     a ← TEX(stage, u, v, lod)
///     b ← TEX(stage, u, v, lod+1)
///     return LERP(a, b, FRAC(lod))
/// ```
pub fn trilinear_reference(ram: &Ram, state: &TexState, u: f32, v: f32, lod: f32) -> Rgba8 {
    let lod = lod.clamp(0.0, state.max_lod() as f32);
    let l0 = lod.floor() as u32;
    let l1 = (l0 + 1).min(state.max_lod());
    let a = sample_bilinear(ram, state, u, v, l0);
    let b = sample_bilinear(ram, state, u, v, l1);
    let frac = ((lod - lod.floor()) * 256.0) as u32;
    a.lerp(b, frac.min(255) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{FilterMode, TexFormat, WrapMode};

    /// A 2×2 RGBA8 texture: red, green / blue, white.
    fn checker(ram: &mut Ram) -> TexState {
        let state = TexState {
            addr: 0x1_0000,
            mipoff: 1,
            log_width: 1,
            log_height: 1,
            format: TexFormat::Rgba8,
            wrap_u: WrapMode::Clamp,
            wrap_v: WrapMode::Clamp,
            filter: FilterMode::Bilinear,
        };
        let texels = [
            Rgba8::new(255, 0, 0, 255),
            Rgba8::new(0, 255, 0, 255),
            Rgba8::new(0, 0, 255, 255),
            Rgba8::new(255, 255, 255, 255),
        ];
        for (i, t) in texels.iter().enumerate() {
            ram.write_u32(state.addr + (i as u32) * 4, t.to_u32());
        }
        // 1×1 mip level: gray.
        ram.write_u32(state.addr + 16, Rgba8::new(128, 128, 128, 255).to_u32());
        state
    }

    #[test]
    fn point_sampling_picks_nearest() {
        let mut ram = Ram::new();
        let s = checker(&mut ram);
        assert_eq!(
            sample_point(&ram, &s, 0.25, 0.25, 0),
            Rgba8::new(255, 0, 0, 255)
        );
        assert_eq!(
            sample_point(&ram, &s, 0.75, 0.25, 0),
            Rgba8::new(0, 255, 0, 255)
        );
        assert_eq!(
            sample_point(&ram, &s, 0.25, 0.75, 0),
            Rgba8::new(0, 0, 255, 255)
        );
    }

    #[test]
    fn bilinear_at_texel_center_is_point() {
        let mut ram = Ram::new();
        let s = checker(&mut ram);
        // (0.25, 0.25) is the center of texel (0,0): zero blend factors.
        assert_eq!(
            sample_bilinear(&ram, &s, 0.25, 0.25, 0),
            Rgba8::new(255, 0, 0, 255)
        );
    }

    #[test]
    fn bilinear_midpoint_averages() {
        let mut ram = Ram::new();
        let s = checker(&mut ram);
        // Center of the texture: equal blend of all four texels.
        let c = sample_bilinear(&ram, &s, 0.5, 0.5, 0);
        // (255+0+0+255)/4 ≈ 127 in each of R; exact value depends on the
        // two-stage fixed-point lerp.
        assert!((c.r as i32 - 127).abs() <= 2, "{c:?}");
        assert!((c.g as i32 - 127).abs() <= 2, "{c:?}");
        assert!((c.b as i32 - 127).abs() <= 2, "{c:?}");
        assert_eq!(c.a, 255);
    }

    #[test]
    fn trilinear_blends_mip_levels() {
        let mut ram = Ram::new();
        let s = checker(&mut ram);
        let at0 = trilinear_reference(&ram, &s, 0.25, 0.25, 0.0);
        let at1 = trilinear_reference(&ram, &s, 0.25, 0.25, 1.0);
        assert_eq!(at0, Rgba8::new(255, 0, 0, 255));
        assert_eq!(at1, Rgba8::new(128, 128, 128, 255));
        let mid = trilinear_reference(&ram, &s, 0.25, 0.25, 0.5);
        assert!(mid.r > 128 && mid.r < 255, "{mid:?}");
    }

    #[test]
    fn footprint_wraps_at_edges() {
        let mut ram = Ram::new();
        let mut s = checker(&mut ram);
        s.wrap_u = WrapMode::Repeat;
        s.wrap_v = WrapMode::Repeat;
        let fp = bilinear_footprint(&s, 0.0, 0.0, 0);
        // Sample at the very corner reaches across to the opposite texels.
        assert!(fp.coords.contains(&(1, 1)));
        assert!(fp.coords.contains(&(0, 0)));
    }
}
