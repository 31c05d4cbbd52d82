//! Device-vs-host rasterizer parity fuzzing: random triangle soups —
//! including degenerate (zero-area) triangles and edges snapped through
//! pixel centers — must render bit-identically on the SIMT kernel and the
//! host reference, on a framebuffer whose dimensions are *not* tile
//! multiples (40×24 → a 3×2 grid of partially covered tiles).

use proptest::prelude::*;
use vortex::gfx::pipeline::Renderer;
use vortex::gfx::{Framebuffer, Mat4, RenderState, Vertex};
use vortex::gpu::GpuConfig;
use vortex::tex::Rgba8;

const W: usize = 40;
const H: usize = 24;

/// NDC x for a screen coordinate on the 40-wide viewport; nudged by ulps
/// until the viewport transform round-trips to *exactly* `sx` (when such
/// an f32 exists), so `sx = k + 0.5` puts an edge exactly through pixel
/// centers and exercises the `e == 0` fill-rule arm.
fn ndc_x(sx: f32) -> f32 {
    let approx = (f64::from(sx) / (W as f64 / 2.0) - 1.0) as f32;
    exact_preimage(sx, |v| (v + 1.0) * 0.5 * W as f32, approx)
}

/// NDC y (y-down window coords) with the same exact round-trip nudge.
fn ndc_y(sy: f32) -> f32 {
    let approx = (1.0 - f64::from(sy) / (H as f64 / 2.0)) as f32;
    exact_preimage(sy, |v| (1.0 - v) * 0.5 * H as f32, approx)
}

/// Solves `fwd(v) == target` by a local ulp search around the algebraic
/// inverse `approx`; falls back to the closest probe when no exact f32
/// preimage exists (still a valid fuzz input, just not exactly on-edge).
fn exact_preimage(target: f32, fwd: impl Fn(f32) -> f32, approx: f32) -> f32 {
    let mut best = approx;
    for step in -4i64..=4 {
        let cand = f32::from_bits((i64::from(approx.to_bits()) + step) as u32);
        if fwd(cand) == target {
            return cand;
        }
        if (fwd(cand) - target).abs() < (fwd(best) - target).abs() {
            best = cand;
        }
    }
    best
}

/// Decodes one fuzzed word into an NDC coordinate. Low bits pick the
/// flavor: mostly continuous positions, sometimes snapped to a pixel
/// center so triangle edges land exactly on `e == 0`.
fn coord(word: u32, axis_px: usize) -> f32 {
    let frac = f64::from(word >> 8) / f64::from(1u32 << 24);
    if word & 3 == 0 {
        // Snap to a pixel-center screen coordinate.
        let k = (word >> 8) % (axis_px as u32);
        let s = k as f32 + 0.5;
        if axis_px == W {
            ndc_x(s)
        } else {
            ndc_y(s)
        }
    } else {
        (frac * 2.4 - 1.2) as f32
    }
}

fn soup_from_words(words: &[u32]) -> (Vec<Vertex>, Vec<u32>) {
    let mut verts = Vec::new();
    for tri in words.chunks_exact(3) {
        let mut tri_verts: Vec<Vertex> = tri
            .iter()
            .map(|&w| {
                let x = coord(w, W);
                let y = coord(w.rotate_left(11), H);
                let z = (f64::from(w.rotate_left(19) >> 8) / f64::from(1u32 << 24) * 1.8 - 0.9) as f32;
                Vertex::new(x, y, z, 0.0, 0.0).with_color(Rgba8::new(
                    (w >> 3) as u8 | 1,
                    (w >> 13) as u8 | 1,
                    (w >> 23) as u8 | 1,
                    255,
                ))
            })
            .collect();
        // A sliver of the soup is degenerate: duplicate a vertex (zero
        // area) — geometry must reject it identically everywhere.
        if tri[0] & 31 == 7 {
            tri_verts[2] = tri_verts[1];
        }
        verts.extend(tri_verts);
    }
    let idx = (0..verts.len() as u32).collect();
    (verts, idx)
}

fn depth_bits(fb: &Framebuffer) -> Vec<u32> {
    fb.depth.iter().map(|z| z.to_bits()).collect()
}

fn assert_frames_match(soup: &(Vec<Vertex>, Vec<u32>), state: &RenderState) {
    let (verts, idx) = soup;
    let mut r = Renderer::new(GpuConfig::with_cores(4), W, H);
    let report = r.draw(verts, idx, &Mat4::IDENTITY, state, None);
    let host = r.draw_host(verts, idx, &Mat4::IDENTITY, state, None);
    assert_eq!(report.framebuffer.color, host.color, "color parity");
    assert_eq!(
        depth_bits(&report.framebuffer),
        depth_bits(&host),
        "depth parity"
    );
    assert_eq!(report.framebuffer.stencil, host.stencil);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random soups (continuous, snapped-to-center and degenerate
    /// triangles mixed) render identically on device and host.
    #[test]
    fn device_matches_host_over_random_soups(
        words in prop::collection::vec(0u32..u32::MAX, 12),
    ) {
        let soup = soup_from_words(&words);
        assert_frames_match(&soup, &RenderState::default());
    }
}

/// The deterministic worst case outside the proptest loop: a quad split
/// along a diagonal through pixel centers, on the partial-tile target.
#[test]
fn shared_diagonal_on_partial_tile_frame() {
    let a = Vertex::new(ndc_x(4.5), ndc_y(4.5), 0.0, 0.0, 0.0);
    let b = Vertex::new(ndc_x(20.5), ndc_y(4.5), 0.0, 0.0, 0.0);
    let c = Vertex::new(ndc_x(20.5), ndc_y(20.5), 0.0, 0.0, 0.0);
    let d = Vertex::new(ndc_x(4.5), ndc_y(20.5), 0.0, 0.0, 0.0);
    let verts = vec![
        a.with_color(Rgba8::new(255, 0, 0, 255)),
        b.with_color(Rgba8::new(255, 0, 0, 255)),
        c.with_color(Rgba8::new(255, 0, 0, 255)),
        a.with_color(Rgba8::new(0, 0, 255, 255)),
        c.with_color(Rgba8::new(0, 0, 255, 255)),
        d.with_color(Rgba8::new(0, 0, 255, 255)),
    ];
    let soup = (verts, vec![0, 1, 2, 3, 4, 5]);
    assert_frames_match(&soup, &RenderState::default());
}
