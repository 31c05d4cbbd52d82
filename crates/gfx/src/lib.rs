//! # vortex-gfx
//!
//! The Vortex 3D-graphics pipeline (paper §2, §5.5): an OpenGL-ES-style
//! software rendering stack whose *geometry* stage runs on the host and
//! whose *rasterization* stage runs as a SIMT kernel on the Vortex GPU,
//! following Larrabee's tile-rendering approach — "with the rasterization
//! tiles generated on the host" and texture sampling accelerated by the
//! `tex` instruction inside the fragment loop.
//!
//! Stages:
//!
//! 1. **Geometry** ([`geometry`]) — host-side: vertex transform by the
//!    model-view-projection matrix, trivial near-plane rejection,
//!    back-face culling, viewport mapping, and per-triangle setup (edge
//!    equations plus affine attribute planes for depth and texture
//!    coordinates).
//! 2. **Binning** ([`binning`]) — host-side: triangles are conservatively
//!    assigned to the screen tiles their bounding box overlaps.
//! 3. **Rasterization** ([`raster`]) — device-side kernel: one work-item
//!    per pixel, iterating the owning tile's triangle list with
//!    `split`/`join`-guarded top-left-fill-rule coverage, depth test, and
//!    (optionally `tex`-accelerated) texturing. A bit-exact host
//!    reference implementation backs validation; it rasterizes tiles in
//!    parallel and scales to full frames (1920×1080 — partial edge tiles
//!    are guarded, so dimensions need not be tile multiples).
//! 4. **[`pipeline::Renderer`]** orchestrates the full frame: buffer
//!    upload, kernel launch, framebuffer readback.
//!
//! [`bench`] packages a textured depth-tested scene as a
//! `vortex_kernels::Benchmark` (the `raster-mc16` workload `gfx_gate.rs`
//! pins), with the host reference as its validation oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod binning;
pub mod fb;
pub mod geometry;
pub mod math;
pub mod pipeline;
pub mod raster;
pub mod state;

pub use bench::RasterBench;
pub use fb::Framebuffer;
pub use geometry::{process_geometry, TriangleSetup, Vertex};
pub use math::{Mat4, Vec4};
pub use pipeline::Renderer;
pub use raster::{RasterProfile, TileRasterStats};
pub use state::{DepthFunc, RenderState};
