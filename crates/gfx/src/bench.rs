//! The rasterization benchmark: a full render-pipeline frame packaged as
//! a [`vortex_kernels::Benchmark`] so the experiment harness (and the
//! `raster-mc16` cycle pin in `crates/bench/tests/invariants.rs`) can drive
//! it like any compute kernel.
//!
//! The scene is a seeded random triangle soup — overlapping, depth-tested,
//! hardware-textured — so the kernel exercises the rasterizer's deepest
//! `split`/`join` nesting plus the `tex` unit. Validation renders the same
//! frame with the bit-exact host reference and compares color and depth
//! planes word for word.

use crate::math::Mat4;
use crate::pipeline::{Renderer, Texture};
use crate::state::RenderState;
use crate::Vertex;
use vortex_core::GpuConfig;
use vortex_kernels::util;
use vortex_kernels::{BenchClass, BenchResult, Benchmark};
use vortex_tex::Rgba8;

/// Textured, depth-tested triangle-soup rendering benchmark.
#[derive(Debug, Clone)]
pub struct RasterBench {
    width: usize,
    height: usize,
    tris: usize,
}

impl RasterBench {
    /// A `width × height` frame over a soup of `tris` random triangles
    /// (roughly half survive back-face culling — the soup's windings are
    /// random, like its positions).
    pub fn new(width: usize, height: usize, tris: usize) -> Self {
        Self {
            width,
            height,
            tris,
        }
    }

    /// The CI smoke size.
    pub fn quick() -> Self {
        Self::new(128, 128, 24)
    }

    /// The seeded scene: one frame's vertices and indices.
    fn scene(&self) -> (Vec<Vertex>, Vec<u32>) {
        // 9 uniforms per triangle: three (x, y, z) positions; texture
        // coordinates derive from the positions so neighbouring fragments
        // sample coherently (like a real mesh, unlike pure noise).
        let r = util::random_floats(self.tris * 9);
        let mut vertices = Vec::with_capacity(self.tris * 3);
        for t in 0..self.tris {
            for v in 0..3 {
                let b = t * 9 + v * 3;
                let x = r[b].mul_add(1.8, -0.9);
                let y = r[b + 1].mul_add(1.8, -0.9);
                let z = r[b + 2].mul_add(1.6, -0.8);
                vertices.push(Vertex::new(x, y, z, r[b], r[b + 1]));
            }
        }
        let indices = (0..(self.tris * 3) as u32).collect();
        (vertices, indices)
    }
}

impl Default for RasterBench {
    /// The full-suite size.
    fn default() -> Self {
        Self::new(256, 256, 48)
    }
}

impl Benchmark for RasterBench {
    fn name(&self) -> &'static str {
        "raster"
    }

    fn class(&self) -> BenchClass {
        BenchClass::Graphics
    }

    fn run_on(&self, config: &GpuConfig) -> BenchResult {
        let (vertices, indices) = self.scene();
        let texture = Texture::checkerboard(5, Rgba8::WHITE, Rgba8::new(40, 90, 160, 255), 4);
        let state = RenderState {
            texturing: true,
            hw_texture: true,
            ..RenderState::default()
        };
        let mut renderer = Renderer::new(config.clone(), self.width, self.height);
        let report = renderer.draw(&vertices, &indices, &Mat4::IDENTITY, &state, Some(&texture));
        let host = renderer.draw_host(&vertices, &indices, &Mat4::IDENTITY, &state, Some(&texture));
        let validated = report.framebuffer.color == host.color
            && report
                .framebuffer
                .depth
                .iter()
                .zip(&host.depth)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        BenchResult {
            name: self.name().to_string(),
            stats: report.stats,
            validated,
            work: self.width * self.height,
            series: renderer.time_series().cloned(),
            profile: renderer.profile(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_raster_bench_validates_on_device() {
        let r = RasterBench::quick().run_on(&GpuConfig::with_cores(1));
        assert!(r.validated, "device frame must match the host reference");
        assert!(r.stats.cycles > 0);
        assert_eq!(r.work, 128 * 128);
    }

    #[test]
    fn scene_is_deterministic() {
        let b = RasterBench::quick();
        let (v1, i1) = b.scene();
        let (v2, i2) = b.scene();
        assert_eq!(i1, i2);
        assert_eq!(v1.len(), v2.len());
        for (a, b) in v1.iter().zip(&v2) {
            assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
            assert_eq!(a.pos.y.to_bits(), b.pos.y.to_bits());
        }
    }
}
