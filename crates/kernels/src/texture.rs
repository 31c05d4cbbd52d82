//! The synthetic texture-filtering benchmarks of §6.4 / Figure 20.
//!
//! Each benchmark samples a source texture into an equal-sized render
//! target (the paper uses 1080p; the default here is a simulation-friendly
//! size with the same structure) in one of three filter modes — point,
//! bilinear, trilinear — and in two implementations:
//!
//! * **HW** — the `tex` instruction drives the texture unit; trilinear is
//!   the two-`tex` + LERP pseudo-instruction of Algorithm 1;
//! * **SW** — the full sampling arithmetic runs as ordinary instructions:
//!   address generation, wrap clamping, four texel loads and the
//!   fixed-point channel interpolation, exactly what a software rendering
//!   pipeline without the texture unit executes.

use crate::harness::{BenchClass, BenchResult, Benchmark};
use crate::util::{self, R_IDX};
use rand::Rng;
use vortex_asm::Assembler;
use vortex_core::GpuConfig;
use vortex_isa::{csr, FReg, Reg};
use vortex_runtime::{abi, emit_spawn_tasks, ArgWriter, Device};
use vortex_tex::{Rgba8, TexFormat, TexState};

/// Filter mode under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// Nearest-texel sampling.
    Point,
    /// 2×2 bilinear.
    Bilinear,
    /// Bilinear across two mip levels (Algorithm 1).
    Trilinear,
}

impl FilterKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::Point => "point",
            FilterKind::Bilinear => "bilinear",
            FilterKind::Trilinear => "trilinear",
        }
    }
}

/// One texture benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct TexBench {
    /// Filter mode.
    pub filter: FilterKind,
    /// `true` = hardware texture unit, `false` = all-software sampling.
    pub hw: bool,
    /// log2 of the square source texture size.
    pub log_size: u32,
    /// Render-target dimensions. `None` = same as the source texture (the
    /// classic square benchmark); `Some((w, h))` = an arbitrary target —
    /// e.g. the paper's true 1920×1080 frame — sampled with per-axis
    /// scaling. The kernel is specialized at build time, so the default
    /// path's instruction stream is untouched by this option.
    pub target: Option<(u32, u32)>,
}

impl TexBench {
    /// A `2^log_size × 2^log_size` benchmark.
    pub fn new(filter: FilterKind, hw: bool, log_size: u32) -> Self {
        Self {
            filter,
            hw,
            log_size,
            target: None,
        }
    }

    /// Renders into a `w × h` target instead of a square one (the paper's
    /// 1080p setup: a 1920×1080 frame sampling a square texture).
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn with_target(mut self, w: u32, h: u32) -> Self {
        assert!(w > 0 && h > 0, "render target must be non-empty");
        self.target = Some((w, h));
        self
    }

    fn size(&self) -> usize {
        1 << self.log_size
    }

    fn target_dims(&self) -> (u32, u32) {
        self.target
            .unwrap_or((1 << self.log_size, 1 << self.log_size))
    }
}

/// The per-axis 8.8 fixed-point scale the SW bilinear path applies to
/// `(pixel + 0.5)`: texel coordinates per target pixel, times 256. Shared
/// by the kernel emitter and the host oracle so the constants (and thus
/// the rounding) are identical. In the square case this reduces to the
/// classic `256 / 2^level`, bit for bit.
fn sw_scale(log_size: u32, level: u32, target: Option<(u32, u32)>) -> (f32, f32) {
    match target {
        None => {
            let s = 256.0f32 / (1u32 << level) as f32;
            (s, s)
        }
        Some((w, h)) => {
            let dim = (1u32 << (log_size - level)) as f32 * 256.0;
            (dim / w as f32, dim / h as f32)
        }
    }
}

/// Generates a random RGBA8 texture with its full mip chain (2×2 box
/// down-sampling), contiguous in the layout `TexState` expects.
/// Returns `(bytes, level0_len_bytes)`.
pub fn build_texture_with_mips(log_size: u32) -> Vec<u8> {
    let mut rng = util::rng();
    let size = 1usize << log_size;
    let mut levels: Vec<Vec<Rgba8>> = Vec::new();
    let base: Vec<Rgba8> = (0..size * size)
        .map(|_| Rgba8::new(rng.random(), rng.random(), rng.random(), 255))
        .collect();
    levels.push(base);
    let mut w = size;
    while w > 1 {
        let prev = levels.last().expect("at least level 0");
        let nw = w / 2;
        let mut next = Vec::with_capacity(nw * nw);
        for y in 0..nw {
            for x in 0..nw {
                let avg = |f: fn(Rgba8) -> u8| -> u8 {
                    let s = u32::from(f(prev[(2 * y) * w + 2 * x]))
                        + u32::from(f(prev[(2 * y) * w + 2 * x + 1]))
                        + u32::from(f(prev[(2 * y + 1) * w + 2 * x]))
                        + u32::from(f(prev[(2 * y + 1) * w + 2 * x + 1]));
                    ((s + 2) / 4) as u8
                };
                next.push(Rgba8::new(
                    avg(|c| c.r),
                    avg(|c| c.g),
                    avg(|c| c.b),
                    avg(|c| c.a),
                ));
            }
        }
        levels.push(next);
        w = nw;
    }
    levels
        .iter()
        .flat_map(|lvl| lvl.iter().flat_map(|c| c.to_u32().to_le_bytes()))
        .collect()
}

/// Emits an integer lerp of two packed RGBA8 colors:
/// `out = a + (((b - a) * frac) >> 8)` per channel — the arithmetic of the
/// hardware sampler's interpolator, reused by the graphics rasterizer for
/// fog blending. Clobbers `s1..s3`.
#[allow(clippy::too_many_arguments)] // mirrors the hardware port list
pub fn emit_color_lerp(
    asm: &mut Assembler,
    a: Reg,
    b: Reg,
    frac: Reg,
    out: Reg,
    s1: Reg,
    s2: Reg,
    s3: Reg,
) {
    asm.li(out, 0);
    for shift in [0, 8, 16, 24] {
        // ca / cb.
        asm.srli(s1, a, shift);
        asm.andi(s1, s1, 255);
        asm.srli(s2, b, shift);
        asm.andi(s2, s2, 255);
        asm.sub(s2, s2, s1); // cb - ca
        asm.mul(s2, s2, frac);
        asm.srai(s2, s2, 8);
        asm.add(s1, s1, s2);
        asm.andi(s1, s1, 255);
        asm.slli(s3, s1, shift);
        asm.or(out, out, s3);
    }
}

/// Emits a branchless clamp of `v` into `[0, limit-1]`. Clobbers `s1, s2`.
fn emit_clamp(asm: &mut Assembler, v: Reg, limit: Reg, s1: Reg, s2: Reg) {
    // v = max(v, 0).
    asm.srai(s1, v, 31);
    asm.not(s1, s1);
    asm.and(v, v, s1);
    // v = min(v, limit-1).
    asm.addi(s1, limit, -1);
    asm.sub(s2, s1, v); // (limit-1) - v
    asm.srai(s1, s2, 31); // -1 when v too big
    asm.and(s2, s2, s1); // negative excess or 0
    asm.add(v, v, s2);
}

/// Emits one full software bilinear sample at mip `level`, mapping target
/// pixels to texel space with the per-axis `scale` from [`sw_scale`].
///
/// Inputs: pixel coords `x20`/`x21`, mip base pointer in `base`, `x12` =
/// log2(size). Result color in `out`. Clobbers x5-x7, x17 (unless it is
/// `base`), x22-x31, f0, f13.
fn emit_sw_bilinear(
    asm: &mut Assembler,
    tag: &str,
    base: Reg,
    level: u32,
    out: Reg,
    scale: (f32, f32),
) {
    // Level dims: w_l = 1 << (logw - level).
    asm.li(Reg::X5, 1);
    asm.addi(Reg::X22, Reg::X12, -(level as i32));
    asm.sll(Reg::X22, Reg::X5, Reg::X22); // w_l (square texture: h_l == w_l)
    // x_fp = trunc((x + 0.5) * scale) - 128  (8.8 fixed point).
    for (pix, fp, s) in [
        (Reg::X20, Reg::X24, scale.0),
        (Reg::X21, Reg::X25, scale.1),
    ] {
        asm.fcvt_s_wu(FReg::X0, pix);
        asm.li(Reg::X5, 0.5f32.to_bits() as i32);
        asm.fmv_w_x(FReg::X13, Reg::X5);
        asm.fadd(FReg::X0, FReg::X0, FReg::X13);
        asm.li(Reg::X5, s.to_bits() as i32);
        asm.fmv_w_x(FReg::X13, Reg::X5);
        asm.fmul(FReg::X0, FReg::X0, FReg::X13);
        asm.fcvt_w_s(fp, FReg::X0);
        asm.addi(fp, fp, -128);
    }
    // x0/x1/frac_u; y0/y1/frac_v.
    asm.srai(Reg::X26, Reg::X24, 8); // x0
    asm.andi(Reg::X30, Reg::X24, 255); // frac_u
    asm.srai(Reg::X28, Reg::X25, 8); // y0
    asm.andi(Reg::X31, Reg::X25, 255); // frac_v
    asm.addi(Reg::X27, Reg::X26, 1); // x1
    asm.addi(Reg::X29, Reg::X28, 1); // y1
    for v in [Reg::X26, Reg::X27, Reg::X28, Reg::X29] {
        emit_clamp(asm, v, Reg::X22, Reg::X5, Reg::X6);
    }
    // Four texel loads: t00=x24 t10=x25 t01=x26' t11=x27' — addresses
    // computed with the level's row shift (logw - level).
    asm.addi(Reg::X7, Reg::X12, -(level as i32)); // row shift
    let load = |asm: &mut Assembler, xr: Reg, yr: Reg, dst: Reg| {
        asm.sll(Reg::X5, yr, Reg::X7); // y * w_l (shift by row bits)
        asm.add(Reg::X5, Reg::X5, xr);
        asm.slli(Reg::X5, Reg::X5, 2);
        asm.add(Reg::X5, Reg::X5, base);
        asm.lw(dst, Reg::X5, 0);
    };
    load(asm, Reg::X26, Reg::X28, Reg::X24); // t00 (x0,y0)
    load(asm, Reg::X27, Reg::X28, Reg::X25); // t10 (x1,y0)
    load(asm, Reg::X27, Reg::X29, Reg::X23); // t11 (x1,y1) — x23 scratch
    load(asm, Reg::X26, Reg::X29, Reg::X22); // t01 (x0,y1) — x22 done with w_l
    let _ = tag;
    // top = lerp(t00, t10, fu); bottom = lerp(t01, t11, fu).
    emit_color_lerp(asm, Reg::X24, Reg::X25, Reg::X30, Reg::X28, Reg::X5, Reg::X6, Reg::X7);
    emit_color_lerp(asm, Reg::X22, Reg::X23, Reg::X30, Reg::X29, Reg::X5, Reg::X6, Reg::X7);
    emit_color_lerp(asm, Reg::X28, Reg::X29, Reg::X31, out, Reg::X5, Reg::X6, Reg::X7);
}

/// Builds the benchmark program.
///
/// Argument block (both variants): `src, log_size, dst, filter(0/1/2),
/// lod_bits (f32), frac8, src_mip1`; target mode appends `target_w,
/// target_h` at offsets 28/32. The target dimensions also specialize the
/// emitted code, so the square default's instruction stream is exactly
/// the historical one (the invariant matrix pins its cycle count).
pub fn program(bench: &TexBench) -> vortex_asm::Program {
    let target = bench.target;
    let mut asm = Assembler::new();
    emit_spawn_tasks(&mut asm, "body").expect("stub emits once");
    asm.label("body").expect("fresh label");
    util::emit_load_args(&mut asm, 7);
    // x11=src x12=log_size x13=dst x14=filter x15=lod_bits x16=frac8 x17=mip1
    // (arg order rearranged so x12 = log_size for the SW emitters).
    if target.is_some() {
        // Total pixels = target_w * target_h.
        asm.lw(Reg::X19, Reg::X10, 28);
        asm.lw(Reg::X5, Reg::X10, 32);
        asm.mul(Reg::X19, Reg::X19, Reg::X5);
    } else {
        // Total pixels = 1 << (2*log_size).
        asm.slli(Reg::X19, Reg::X12, 1);
        asm.li(Reg::X5, 1);
        asm.sll(Reg::X19, Reg::X5, Reg::X19);
    }
    util::emit_gtid_stride(&mut asm);

    if bench.hw {
        // Program the texture unit via CSRs (Figure 13, lines 3-9).
        asm.csrw(csr::tex_csr(0, csr::TexReg::Addr), Reg::X11);
        asm.li(Reg::X5, 1);
        asm.csrw(csr::tex_csr(0, csr::TexReg::MipOff), Reg::X5);
        asm.csrw(csr::tex_csr(0, csr::TexReg::LogWidth), Reg::X12);
        asm.csrw(csr::tex_csr(0, csr::TexReg::LogHeight), Reg::X12);
        asm.csrw(csr::tex_csr(0, csr::TexReg::Format), Reg::X0); // RGBA8
        asm.csrw(csr::tex_csr(0, csr::TexReg::Wrap), Reg::X0); // clamp
        // Filter CSR: bilinear for everything except point (trilinear uses
        // the bilinear sampler twice).
        let hw_filter = if bench.filter == FilterKind::Point { 0 } else { 1 };
        asm.li(Reg::X5, hw_filter);
        asm.csrw(csr::tex_csr(0, csr::TexReg::Filter), Reg::X5);
    }
    if target.is_some() {
        // Per-axis inverse target dims (f8 = 1/w, f15 = 1/h) and 0.5 —
        // shared by the HW u/v setup and the SW point path.
        asm.li(Reg::X5, 1.0f32.to_bits() as i32);
        asm.fmv_w_x(FReg::X6, Reg::X5);
        asm.lw(Reg::X5, Reg::X10, 28);
        asm.fcvt_s_wu(FReg::X8, Reg::X5);
        asm.fdiv(FReg::X8, FReg::X6, FReg::X8); // f8 = 1 / target_w
        asm.lw(Reg::X5, Reg::X10, 32);
        asm.fcvt_s_wu(FReg::X15, Reg::X5);
        asm.fdiv(FReg::X15, FReg::X6, FReg::X15); // f15 = 1 / target_h
        asm.li(Reg::X5, 0.5f32.to_bits() as i32);
        asm.fmv_w_x(FReg::X7, Reg::X5); // f7 = 0.5
    } else if bench.hw {
        // inv_size = 1.0 / 2^log_size; constants 0.5 and 1.0.
        asm.li(Reg::X5, 1);
        asm.sll(Reg::X5, Reg::X5, Reg::X12);
        asm.fcvt_s_wu(FReg::X8, Reg::X5);
        asm.li(Reg::X5, 1.0f32.to_bits() as i32);
        asm.fmv_w_x(FReg::X6, Reg::X5);
        asm.fdiv(FReg::X8, FReg::X6, FReg::X8); // f8 = inv_size
        asm.li(Reg::X5, 0.5f32.to_bits() as i32);
        asm.fmv_w_x(FReg::X7, Reg::X5); // f7 = 0.5
    }

    util::emit_loop_head(&mut asm, Reg::X19, "tx").expect("fresh tag");
    if target.is_some() {
        // x = i % target_w; y = i / target_w (no power-of-two shortcut).
        asm.lw(Reg::X5, Reg::X10, 28);
        asm.remu(Reg::X20, R_IDX, Reg::X5);
        asm.divu(Reg::X21, R_IDX, Reg::X5);
    } else {
        // x = i & (size-1); y = i >> log_size.
        asm.li(Reg::X5, 1);
        asm.sll(Reg::X5, Reg::X5, Reg::X12);
        asm.addi(Reg::X5, Reg::X5, -1);
        asm.and(Reg::X20, R_IDX, Reg::X5);
        asm.srl(Reg::X21, R_IDX, Reg::X12);
    }

    // The v axis divides by the height — same register as u for a square
    // target, f15 in target mode.
    let inv_v = if target.is_some() { FReg::X15 } else { FReg::X8 };
    if bench.hw {
        // u/v = (coord + 0.5) * inv_dim, as f32 bit patterns.
        asm.fcvt_s_wu(FReg::X0, Reg::X20);
        asm.fadd(FReg::X0, FReg::X0, FReg::X7);
        asm.fmul(FReg::X0, FReg::X0, FReg::X8);
        asm.fmv_x_w(Reg::X24, FReg::X0);
        asm.fcvt_s_wu(FReg::X1, Reg::X21);
        asm.fadd(FReg::X1, FReg::X1, FReg::X7);
        asm.fmul(FReg::X1, FReg::X1, inv_v);
        asm.fmv_x_w(Reg::X25, FReg::X1);
        match bench.filter {
            FilterKind::Point | FilterKind::Bilinear => {
                asm.tex(0, Reg::X26, Reg::X24, Reg::X25, Reg::X15);
            }
            FilterKind::Trilinear => {
                // Algorithm 1: a = TEX(lod); b = TEX(lod+1); LERP(frac).
                asm.tex(0, Reg::X26, Reg::X24, Reg::X25, Reg::X15);
                asm.fmv_w_x(FReg::X2, Reg::X15);
                asm.li(Reg::X5, 1.0f32.to_bits() as i32);
                asm.fmv_w_x(FReg::X3, Reg::X5);
                asm.fadd(FReg::X2, FReg::X2, FReg::X3);
                asm.fmv_x_w(Reg::X27, FReg::X2);
                asm.tex(0, Reg::X28, Reg::X24, Reg::X25, Reg::X27);
                emit_color_lerp(
                    &mut asm,
                    Reg::X26,
                    Reg::X28,
                    Reg::X16,
                    Reg::X29,
                    Reg::X5,
                    Reg::X6,
                    Reg::X7,
                );
                asm.mv(Reg::X26, Reg::X29);
            }
        }
    } else {
        match bench.filter {
            FilterKind::Point if target.is_some() => {
                // Real SW point sampling: the target pixel maps through
                // normalized coordinates into the texture.
                // xi = trunc((x + 0.5) * inv_w * size), clamped.
                asm.li(Reg::X5, 1);
                asm.sll(Reg::X22, Reg::X5, Reg::X12); // size
                asm.fcvt_s_wu(FReg::X13, Reg::X22);
                for (pix, inv, xi) in [(Reg::X20, FReg::X8, Reg::X24), (Reg::X21, FReg::X15, Reg::X25)] {
                    asm.fcvt_s_wu(FReg::X0, pix);
                    asm.fadd(FReg::X0, FReg::X0, FReg::X7);
                    asm.fmul(FReg::X0, FReg::X0, inv);
                    asm.fmul(FReg::X0, FReg::X0, FReg::X13);
                    asm.fcvt_w_s(xi, FReg::X0);
                    emit_clamp(&mut asm, xi, Reg::X22, Reg::X5, Reg::X6);
                }
                asm.sll(Reg::X5, Reg::X25, Reg::X12);
                asm.add(Reg::X5, Reg::X5, Reg::X24);
                asm.slli(Reg::X5, Reg::X5, 2);
                asm.add(Reg::X5, Reg::X5, Reg::X11);
                asm.lw(Reg::X26, Reg::X5, 0);
            }
            FilterKind::Point => {
                // SW point sampling of an equal-size RGBA8 texture reduces
                // to address arithmetic + copy (§6.4: "the point-sampling
                // software code to turn into a simple copy operation").
                asm.sll(Reg::X5, Reg::X21, Reg::X12);
                asm.add(Reg::X5, Reg::X5, Reg::X20);
                asm.slli(Reg::X5, Reg::X5, 2);
                asm.add(Reg::X5, Reg::X5, Reg::X11);
                asm.lw(Reg::X26, Reg::X5, 0);
            }
            FilterKind::Bilinear => {
                let s = sw_scale(bench.log_size, 0, target);
                emit_sw_bilinear(&mut asm, "b0", Reg::X11, 0, Reg::X26, s);
            }
            FilterKind::Trilinear => {
                let s0 = sw_scale(bench.log_size, 0, target);
                emit_sw_bilinear(&mut asm, "t0", Reg::X11, 0, Reg::X26, s0);
                // The level-1 sample must not clobber the level-0 result:
                // park it in f1 (the FP file doubles as spare storage).
                asm.fmv_w_x(FReg::X1, Reg::X26);
                let s1 = sw_scale(bench.log_size, 1, target);
                emit_sw_bilinear(&mut asm, "t1", Reg::X17, 1, Reg::X26, s1);
                asm.fmv_x_w(Reg::X27, FReg::X1);
                emit_color_lerp(
                    &mut asm,
                    Reg::X27,
                    Reg::X26,
                    Reg::X16,
                    Reg::X29,
                    Reg::X5,
                    Reg::X6,
                    Reg::X7,
                );
                asm.mv(Reg::X26, Reg::X29);
            }
        }
    }

    // dst[i] = color.
    asm.slli(Reg::X5, R_IDX, 2);
    asm.add(Reg::X5, Reg::X5, Reg::X13);
    asm.sw(Reg::X26, Reg::X5, 0);
    util::emit_loop_tail(&mut asm, Reg::X19, "tx").expect("fresh tag");
    asm.ret();
    asm.assemble(abi::CODE_BASE).expect("texture kernel assembles")
}

/// Host replica of the SW fixed-point bilinear path (bit-exact with the
/// kernel's arithmetic; `scale` comes from the same [`sw_scale`] the
/// emitter embeds).
fn host_sw_bilinear(
    tex: &[u8],
    mip_off: usize,
    log_size: u32,
    level: u32,
    x: u32,
    y: u32,
    scale: (f32, f32),
) -> u32 {
    let w = 1i32 << (log_size - level);
    let fp = |p: u32, s: f32| ((p as f32 + 0.5) * s) as i32 - 128;
    let (x_fp, y_fp) = (fp(x, scale.0), fp(y, scale.1));
    let (x0, fu) = (x_fp >> 8, (x_fp & 255) as u32);
    let (y0, fv) = (y_fp >> 8, (y_fp & 255) as u32);
    let clamp = |v: i32| v.clamp(0, w - 1) as usize;
    let texel = |tx: usize, ty: usize| -> u32 {
        let idx = mip_off + (ty * w as usize + tx) * 4;
        u32::from_le_bytes([tex[idx], tex[idx + 1], tex[idx + 2], tex[idx + 3]])
    };
    let lerp = |a: u32, b: u32, f: u32| -> u32 {
        let mut out = 0u32;
        for shift in [0, 8, 16, 24] {
            let ca = (a >> shift) & 255;
            let cb = (b >> shift) & 255;
            let c = (ca as i32 + (((cb as i32 - ca as i32) * f as i32) >> 8)) as u32 & 255;
            out |= c << shift;
        }
        out
    };
    let (x0c, x1c) = (clamp(x0), clamp(x0 + 1));
    let (y0c, y1c) = (clamp(y0), clamp(y0 + 1));
    let top = lerp(texel(x0c, y0c), texel(x1c, y0c), fu);
    let bottom = lerp(texel(x0c, y1c), texel(x1c, y1c), fu);
    lerp(top, bottom, fv)
}

impl Benchmark for TexBench {
    fn name(&self) -> &'static str {
        match (self.filter, self.hw) {
            (FilterKind::Point, true) => "tex-point-hw",
            (FilterKind::Point, false) => "tex-point-sw",
            (FilterKind::Bilinear, true) => "tex-bilinear-hw",
            (FilterKind::Bilinear, false) => "tex-bilinear-sw",
            (FilterKind::Trilinear, true) => "tex-trilinear-hw",
            (FilterKind::Trilinear, false) => "tex-trilinear-sw",
        }
    }

    fn class(&self) -> BenchClass {
        BenchClass::Texture
    }

    fn run_on(&self, config: &GpuConfig) -> BenchResult {
        let size = self.size();
        let (tw, th) = self.target_dims();
        let pixels = tw as usize * th as usize;
        let tex_bytes = build_texture_with_mips(self.log_size);
        let mut dev = Device::new(config.clone());
        let buf_tex = dev.alloc(tex_bytes.len() as u32).expect("alloc tex");
        let buf_dst = dev.alloc((pixels * 4) as u32).expect("alloc dst");
        dev.upload(buf_tex, &tex_bytes).expect("upload tex");

        // Trilinear samples between levels 0 and 1 (frac 0.5).
        let (lod, frac8) = match self.filter {
            FilterKind::Trilinear => (0.0f32, 128u32),
            _ => (0.0, 0),
        };
        let mip1_off = (size * size) as u32 * 4;

        let mut args = ArgWriter::new();
        args.word(buf_tex.addr)
            .word(self.log_size)
            .word(buf_dst.addr)
            .word(match self.filter {
                FilterKind::Point => 0,
                FilterKind::Bilinear => 1,
                FilterKind::Trilinear => 2,
            })
            .float(lod)
            .word(frac8)
            .word(buf_tex.addr + mip1_off);
        if self.target.is_some() {
            args.word(tw).word(th);
        }
        dev.write_args(&args);

        let prog = program(self);
        dev.load_program(&prog);
        let report = dev.run_kernel(prog.entry).expect("texture kernel finishes");

        // Validate every pixel against the host-side oracle.
        let got = dev.download_words(buf_dst).expect("download in range");
        let state = TexState {
            addr: 0,
            mipoff: 1,
            log_width: self.log_size,
            log_height: self.log_size,
            format: TexFormat::Rgba8,
            ..TexState::default()
        };
        let mut host_ram = vortex_mem::Ram::new();
        host_ram.write_bytes(0, &tex_bytes);
        let inv_w = 1.0 / tw as f32;
        let inv_h = 1.0 / th as f32;
        let mut ok = true;
        for (i, &got_px) in got.iter().enumerate() {
            let (x, y) = ((i % tw as usize) as u32, (i / tw as usize) as u32);
            let u = (x as f32 + 0.5) * inv_w;
            let v = (y as f32 + 0.5) * inv_h;
            let expect = if self.hw {
                match self.filter {
                    FilterKind::Point => {
                        vortex_tex::sample_point(&host_ram, &state, u, v, 0).to_u32()
                    }
                    FilterKind::Bilinear => {
                        vortex_tex::sample_bilinear(&host_ram, &state, u, v, 0).to_u32()
                    }
                    FilterKind::Trilinear => {
                        let a = vortex_tex::sample_bilinear(&host_ram, &state, u, v, 0);
                        let b = vortex_tex::sample_bilinear(&host_ram, &state, u, v, 1);
                        a.lerp(b, frac8 as u8).to_u32()
                    }
                }
            } else {
                match self.filter {
                    FilterKind::Point => {
                        // Target mode maps through normalized coords with
                        // the kernel's exact f32 order; the square default
                        // is the historical equal-size copy.
                        let (xi, yi) = if self.target.is_some() {
                            let xi = (((x as f32 + 0.5) * inv_w) * size as f32) as i32;
                            let yi = (((y as f32 + 0.5) * inv_h) * size as f32) as i32;
                            (
                                xi.clamp(0, size as i32 - 1) as usize,
                                yi.clamp(0, size as i32 - 1) as usize,
                            )
                        } else {
                            (x as usize, y as usize)
                        };
                        let idx = (yi * size + xi) * 4;
                        u32::from_le_bytes([
                            tex_bytes[idx],
                            tex_bytes[idx + 1],
                            tex_bytes[idx + 2],
                            tex_bytes[idx + 3],
                        ])
                    }
                    FilterKind::Bilinear => {
                        let s = sw_scale(self.log_size, 0, self.target);
                        host_sw_bilinear(&tex_bytes, 0, self.log_size, 0, x, y, s)
                    }
                    FilterKind::Trilinear => {
                        let s0 = sw_scale(self.log_size, 0, self.target);
                        let s1 = sw_scale(self.log_size, 1, self.target);
                        let a = host_sw_bilinear(&tex_bytes, 0, self.log_size, 0, x, y, s0);
                        let b = host_sw_bilinear(
                            &tex_bytes,
                            mip1_off as usize,
                            self.log_size,
                            1,
                            x,
                            y,
                            s1,
                        );
                        let mut out = 0u32;
                        for shift in [0, 8, 16, 24] {
                            let ca = (a >> shift) & 255;
                            let cb = (b >> shift) & 255;
                            let c = (ca as i32 + (((cb as i32 - ca as i32) * frac8 as i32) >> 8))
                                as u32
                                & 255;
                            out |= c << shift;
                        }
                        out
                    }
                }
            };
            if got_px != expect {
                ok = false;
                break;
            }
        }

        BenchResult {

            series: dev.time_series().cloned(),
            profile: dev.profile(),
            name: self.name().into(),
            stats: report.stats,
            validated: ok,
            work: pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(filter: FilterKind, hw: bool) {
        let r = TexBench::new(filter, hw, 4).run_on(&GpuConfig::with_cores(1));
        assert!(r.validated, "{} failed validation", r.name);
    }

    #[test]
    fn point_hw_matches_oracle() {
        check(FilterKind::Point, true);
    }

    #[test]
    fn point_sw_matches_oracle() {
        check(FilterKind::Point, false);
    }

    #[test]
    fn bilinear_hw_matches_oracle() {
        check(FilterKind::Bilinear, true);
    }

    #[test]
    fn bilinear_sw_matches_oracle() {
        check(FilterKind::Bilinear, false);
    }

    #[test]
    fn trilinear_hw_matches_oracle() {
        check(FilterKind::Trilinear, true);
    }

    #[test]
    fn trilinear_sw_matches_oracle() {
        check(FilterKind::Trilinear, false);
    }

    #[test]
    fn non_square_target_validates_all_filters() {
        // A 24×10 target (neither square nor power-of-two) sampling a
        // 16×16 texture — the shape of the true-1080p Figure 20 runs.
        for filter in [FilterKind::Point, FilterKind::Bilinear, FilterKind::Trilinear] {
            for hw in [true, false] {
                let b = TexBench::new(filter, hw, 4).with_target(24, 10);
                let r = b.run_on(&GpuConfig::with_cores(1));
                assert!(r.validated, "{} 24x10 failed validation", r.name);
                assert_eq!(r.work, 240);
            }
        }
    }

    #[test]
    fn square_target_option_matches_default_codegen() {
        // The pinned texture gate (`invariants.rs`) depends on the
        // default path's instruction stream staying exactly as it was:
        // `target: None` must emit byte-identical code whatever the
        // option could do.
        let base = TexBench::new(FilterKind::Bilinear, true, 5);
        let prog = program(&base);
        let again = program(&TexBench { target: None, ..base });
        assert_eq!(prog.image, again.image);
    }

    #[test]
    fn mip_chain_has_expected_size() {
        // 8x8 RGBA8: 64 + 16 + 4 + 1 texels.
        let bytes = build_texture_with_mips(3);
        assert_eq!(bytes.len(), (64 + 16 + 4 + 1) * 4);
    }

    #[test]
    fn hw_texture_unit_sees_traffic() {
        let r = TexBench::new(FilterKind::Bilinear, true, 3).run_on(&GpuConfig::with_cores(1));
        assert!(r.stats.cores[0].tex_ops > 0);
        assert!(r.stats.cores[0].tex.texels_fetched > 0);
    }
}
