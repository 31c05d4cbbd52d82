//! The four workloads: seeded inputs, hermetic configurations, and one
//! closed-loop rep of each, timed from outside the simulator.
//!
//! Every rep regenerates its inputs from the seed, assembles its kernel,
//! opens a fresh device and tears it down again, so **modelled caches
//! start empty** on every rep and set-up cost is measured every rep.

use crate::timing::thread_cpu_s;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vortex_core::{CoreConfig, GpuConfig, GpuStats};
use vortex_gfx::pipeline::Texture;
use vortex_gfx::{Mat4, RenderState, Renderer, Vertex};
use vortex_kernels::rodinia::{bfs, sgemm};
use vortex_kernels::util::{floats_to_bytes, words_to_bytes};
use vortex_mem::dram::DramConfig;
use vortex_mem::hierarchy::{l2_default, l3_default};
use vortex_runtime::{ArgWriter, Device, DeviceBuffer};

/// Matrix dimension of `sgemm-1c`. 64 keeps A, B and C resident in the
/// 16 KiB D$ working pattern (9 % of cycles skipped); from 96 up the
/// kernel spills and turns DRAM-bound, which is `bfs-1c`'s job.
pub const SGEMM_N: usize = 64;
/// Nodes of the BFS graph (levels array = 16 KiB, edge arrays ≫ D$).
pub const BFS_NODES: usize = 4096;
/// Extra undirected edges per node beyond the spanning tree.
pub const BFS_EXTRA_DEGREE: usize = 3;
/// BFS depth of the generated graph, hence `BFS_DEPTH + 1` launches.
pub const BFS_DEPTH: usize = 5;
/// Frame edge of `raster-mc16`, in pixels.
pub const RASTER_SIZE: usize = 128;
/// Triangles in the soup.
pub const RASTER_TRIS: usize = 24;
/// Circumradius of every soup triangle, in pixels.
pub const RASTER_RADIUS_PX: f32 = 21.0;
/// How far a triangle's centre may sit from its tile's centre, in pixels.
pub const RASTER_JITTER_PX: f32 = 2.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sgemm` n = 64 on one core.
    Sgemm1c,
    /// BFS over 4096 nodes on one core, flat hierarchy.
    Bfs1c,
    /// The same graph on 16 cores in 4 clusters with L2 and L3.
    BfsMc16L2L3,
    /// A textured, depth-tested 128×128 frame on 16 flat cores.
    RasterMc16,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Sgemm1c,
        Workload::Bfs1c,
        Workload::BfsMc16L2L3,
        Workload::RasterMc16,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sgemm1c => "sgemm-1c",
            Workload::Bfs1c => "bfs-1c",
            Workload::BfsMc16L2L3 => "bfs-mc16-l2l3",
            Workload::RasterMc16 => "raster-mc16",
        }
    }

    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sgemm1c => {
                "compute-bound and L1-resident: the compute tick does the work; bypasses fast-forward, hierarchy and DRAM"
            }
            Workload::Bfs1c => {
                "DRAM-bound, divergent, 6 launches: per-cycle cost (stalled ticks, flat hierarchy, fast-forward) dominates per-instruction cost"
            }
            Workload::BfsMc16L2L3 => {
                "same graph on 16 cores in 4 clusters with L2+L3: the only user of ClusterShard/SharedLevel/merge; little is skipped"
            }
            Workload::RasterMc16 => {
                "textured depth-tested 128x128 frame on 16 flat cores: deep split/join, HW tex, highest instr/cycle; only user of tex and gfx"
            }
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The base configuration, every field spelled out: nothing is read
    /// from the environment (`GpuConfig::with_cores` seeds `sim_threads`
    /// and `fast_forward` from `VORTEX_SIM_THREADS`/`VORTEX_FF`), and a
    /// field added to `GpuConfig` later fails to compile here until
    /// someone decides its value for the benchmark.
    pub fn config(self) -> GpuConfig {
        let (num_cores, cores_per_cluster, l2, l3) = match self {
            Workload::Sgemm1c | Workload::Bfs1c => (1, 1, None, None),
            Workload::BfsMc16L2L3 => (16, 4, Some(l2_default()), Some(l3_default())),
            Workload::RasterMc16 => (16, 16, None, None),
        };
        GpuConfig {
            num_cores,
            cores_per_cluster,
            core: CoreConfig::baseline(),
            l2,
            l3,
            dram: DramConfig::default(),
            watchdog_cycles: 10_000,
            sample_interval: 0,
            sim_threads: 1,
            checkpoint_drill: 0,
            fast_forward: true,
            profile: false,
        }
    }
}

/// An A/B leg of the traced run: the base configuration with one host-
/// side switch flipped. None of them may change a simulated statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// The configuration every end-to-end metric is measured on.
    Base,
    /// The same configuration with the benchmark's span recording on.
    Traced,
    /// `fast_forward = false`.
    FfOff,
    /// `CoreConfig::decode_cache = false`.
    DecodeCacheOff,
    /// `sim_threads = 2`.
    Threads2,
    /// `profile = true`.
    Profile,
    /// `sample_interval = 1000`.
    Telemetry,
}

impl Leg {
    /// The key of this leg's `sim_wall_s` samples in a traced result.
    pub fn sample_name(self) -> &'static str {
        match self {
            Leg::Base => "sim_wall_s.base",
            Leg::Traced => "sim_wall_s.traced",
            Leg::FfOff => "sim_wall_s.ff_off",
            Leg::DecodeCacheOff => "sim_wall_s.decode_cache_off",
            Leg::Threads2 => "sim_wall_s.threads2",
            Leg::Profile => "sim_wall_s.profile",
            Leg::Telemetry => "sim_wall_s.telemetry",
        }
    }

    /// `base` with this leg's switch flipped.
    pub fn apply(self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        match self {
            Leg::Base | Leg::Traced => {}
            Leg::FfOff => cfg.fast_forward = false,
            Leg::DecodeCacheOff => cfg.core.decode_cache = false,
            Leg::Threads2 => cfg.sim_threads = 2,
            Leg::Profile => cfg.profile = true,
            Leg::Telemetry => cfg.sample_interval = 1000,
        }
        cfg
    }
}

// ---------------------------------------------------------------------
// Seeded inputs. The simulator sees only what these produce.
// ---------------------------------------------------------------------

/// Two `SGEMM_N × SGEMM_N` matrices of uniform floats in [0, 1).
pub fn sgemm_inputs(seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut matrix = || -> Vec<f32> { (0..SGEMM_N * SGEMM_N).map(|_| rng.random()).collect() };
    let a = matrix();
    (a, matrix())
}

/// A connected undirected graph as a directed edge list (both directions
/// present) whose BFS from node 0 has exactly [`BFS_DEPTH`] levels below
/// the root, whatever the seed.
///
/// The stock `bfs::generate_graph` lets depth (and with it the launch
/// count and a tenth of the run time) vary with the seed. Here the nodes
/// are dealt into `BFS_DEPTH` equal layers under a random relabelling;
/// each node takes a random parent in the layer above and
/// [`BFS_EXTRA_DEGREE`] random neighbours in its own or an adjacent layer,
/// so no edge shortens a path and the edge count is the same for every
/// seed. Which node sits where, and therefore every address the kernel
/// touches, still comes from the seed.
pub fn bfs_graph(seed: u64) -> (Vec<u32>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // label[i] = node id of the i-th node in layer order; the root keeps
    // id 0 because `bfs::reference_bfs` starts there.
    let mut label: Vec<u32> = (0..BFS_NODES as u32).collect();
    for i in (2..BFS_NODES).rev() {
        label.swap(i, rng.random_range(1..i + 1));
    }
    // Layer k (1-based) spans layer_start[k]..layer_start[k + 1] in layer
    // order; layer 0 is the root alone.
    let rest = BFS_NODES - 1;
    let layer_start: Vec<usize> = (0..=BFS_DEPTH).map(|k| 1 + rest * k / BFS_DEPTH).collect();
    let span = |k: usize| -> std::ops::Range<usize> {
        if k == 0 {
            0..1
        } else {
            layer_start[k - 1]..layer_start[k]
        }
    };

    let mut srcs = Vec::with_capacity(2 * (rest + BFS_EXTRA_DEGREE * BFS_NODES));
    let mut dsts = Vec::with_capacity(srcs.capacity());
    let mut push = |a: u32, b: u32| {
        srcs.extend([a, b]);
        dsts.extend([b, a]);
    };
    for k in 1..=BFS_DEPTH {
        for i in span(k) {
            push(label[rng.random_range(span(k - 1))], label[i]);
        }
    }
    for k in 0..=BFS_DEPTH {
        let near = span(k.saturating_sub(1)).start..span((k + 1).min(BFS_DEPTH)).end;
        for i in span(k) {
            for _ in 0..BFS_EXTRA_DEGREE {
                // Redraw self-loops so every seed yields the same edge count.
                let j = loop {
                    let j = rng.random_range(near.clone());
                    if j != i {
                        break j;
                    }
                };
                push(label[i], label[j]);
            }
        }
    }
    (srcs, dsts)
}

/// The frame's triangle soup and texture.
///
/// The rasterizer's work is set by how many 16-pixel tiles each
/// triangle's bounding box touches, the longest per-tile list (the
/// kernel's uniform loop bound) and the covered area. The stock
/// `RasterBench` scene draws vertices uniformly, so all three — and a
/// tenth of the run time — swing with the seed. Here every triangle is
/// equilateral with circumradius [`RASTER_RADIUS_PX`], centred within
/// [`RASTER_JITTER_PX`] of a tile centre on a fixed 6×4 lattice: whatever
/// its rotation, its box reaches between 8 and 24 pixels from that
/// centre, so it is binned to exactly 3×3 tiles and the per-tile lists
/// are the same for every seed. Rotation, jitter, per-vertex depth, draw
/// order and the texture's colours come from the seed. Texture
/// coordinates follow position so neighbouring fragments sample
/// coherently, like a mesh.
pub fn raster_scene(seed: u64) -> (Vec<Vertex>, Vec<u32>, Texture) {
    const TILE: f32 = 16.0;
    const LATTICE_ROWS: [usize; RASTER_TRIS / 6] = [1, 2, 4, 5];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..RASTER_TRIS).collect();
    for i in (1..RASTER_TRIS).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    let mut unit = || -> f32 { rng.random() };
    let to_ndc = |px: f32| px / (RASTER_SIZE as f32 / 2.0) - 1.0;
    let mut vertices = Vec::with_capacity(RASTER_TRIS * 3);
    for t in order {
        let (col, row) = (1 + t % 6, LATTICE_ROWS[t / 6]);
        let jitter = |u: f32| (2.0 * u - 1.0) * RASTER_JITTER_PX;
        let cx = (col as f32 + 0.5) * TILE + jitter(unit());
        let cy = (row as f32 + 0.5) * TILE + jitter(unit());
        let rotation = unit() * std::f32::consts::TAU;
        for corner in 0..3 {
            let angle = rotation + corner as f32 * (std::f32::consts::TAU / 3.0);
            let x = to_ndc(cx + RASTER_RADIUS_PX * angle.cos());
            let y = to_ndc(cy + RASTER_RADIUS_PX * angle.sin());
            let z = unit().mul_add(1.6, -0.8);
            vertices.push(Vertex::new(x, y, z, (x + 1.0) * 0.5, (y + 1.0) * 0.5));
        }
    }
    let indices = (0..(RASTER_TRIS * 3) as u32).collect();

    // 32×32 RGBA8 texture of 4×4-texel cells, one seeded colour per cell.
    let (log_size, cell) = (5u32, 4usize);
    let size = 1usize << log_size;
    let cells = size / cell;
    let palette: Vec<u32> = (0..cells * cells)
        .map(|_| rng.random::<u32>() | 0xFF00_0000)
        .collect();
    let mut data = Vec::with_capacity(size * size * 4);
    for y in 0..size {
        for x in 0..size {
            data.extend_from_slice(&palette[(y / cell) * cells + x / cell].to_le_bytes());
        }
    }
    (vertices, indices, Texture::new(log_size, data))
}

/// The render state of `raster-mc16`: depth test on, hardware `tex`.
pub fn raster_state() -> RenderState {
    RenderState {
        texturing: true,
        hw_texture: true,
        ..RenderState::default()
    }
}

// ---------------------------------------------------------------------
// One rep.
// ---------------------------------------------------------------------

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Rep start to first launch: inputs, assembly, device, uploads.
    pub setup_s: f64,
    /// Wall time inside `Device::run_kernel` (summed over launches) or
    /// `Renderer::draw`.
    pub sim_wall_s: f64,
    /// The same section in thread CPU time.
    pub sim_cpu_s: f64,
    /// The whole rep, teardown included.
    pub rep_wall_s: f64,
    /// Kernel launches.
    pub launches: u32,
    /// Bytes uploaded during set-up.
    pub uploaded: u64,
    /// Bytes read back after the last launch.
    pub downloaded: u64,
    /// Counters after the last launch; `None` when the run errored.
    pub stats: Option<GpuStats>,
    /// Why the rep counts as a failed operation, if it does.
    pub failure: Option<String>,
}

struct Ctx<'a> {
    cfg: &'a GpuConfig,
    seed: u64,
    tamper: bool,
    tr: &'a mut Tracer,
    start: Instant,
    rep: Rep,
}

impl Ctx<'_> {
    fn setup_done(&mut self) {
        self.rep.setup_s = self.start.elapsed().as_secs_f64();
    }

    /// Times `f` as (part of) the rep's simulate section.
    fn simulate<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        self.tr.begin(span);
        let (wall, cpu) = (Instant::now(), thread_cpu_s());
        let out = f();
        self.rep.sim_cpu_s += thread_cpu_s() - cpu;
        self.rep.sim_wall_s += wall.elapsed().as_secs_f64();
        self.tr.end();
        self.rep.launches += 1;
        out
    }

    fn launch(&mut self, dev: &mut Device, entry: u32) -> Result<GpuStats, String> {
        self.simulate("runtime.run_kernel", || dev.run_kernel(entry))
            .map(|report| report.stats)
            .map_err(|e| format!("run_kernel: {e}"))
    }

    fn alloc_upload(&mut self, dev: &mut Device, bytes: &[u8]) -> Result<DeviceBuffer, String> {
        let buf = dev
            .alloc(bytes.len() as u32)
            .map_err(|e| format!("alloc: {e}"))?;
        dev.upload(buf, bytes).map_err(|e| format!("upload: {e}"))?;
        self.rep.uploaded += bytes.len() as u64;
        Ok(buf)
    }
}

/// Runs one rep of `workload` on a fresh device of shape `cfg`.
///
/// `tamper` corrupts the host reference before the comparison — the
/// self-test that a wrong result is counted, not missed.
pub fn run_rep(
    workload: Workload,
    seed: u64,
    cfg: &GpuConfig,
    tr: &mut Tracer,
    rep_index: u32,
    tamper: bool,
) -> Rep {
    tr.begin_rep(rep_index);
    let mut ctx = Ctx {
        cfg,
        seed,
        tamper,
        tr,
        start: Instant::now(),
        rep: Rep::default(),
    };
    let outcome = match workload {
        Workload::Sgemm1c => rep_sgemm(&mut ctx),
        Workload::Bfs1c | Workload::BfsMc16L2L3 => rep_bfs(&mut ctx),
        Workload::RasterMc16 => rep_raster(&mut ctx),
    };
    // The inner functions own their device: it is dropped by now, so
    // teardown is inside the rep.
    ctx.rep.rep_wall_s = ctx.start.elapsed().as_secs_f64();
    ctx.tr.end_rep();
    ctx.rep.failure = outcome.err();
    ctx.rep
}

fn rep_sgemm(ctx: &mut Ctx<'_>) -> Result<(), String> {
    ctx.tr.begin("setup");
    ctx.tr.begin("kernels.inputs");
    let (a, b) = sgemm_inputs(ctx.seed);
    ctx.tr.end();
    ctx.tr.begin("asm.build");
    let prog = sgemm::program();
    ctx.tr.end();
    ctx.tr.begin("runtime.device_new");
    let mut dev = Device::new(ctx.cfg.clone());
    ctx.tr.end();
    ctx.tr.begin("runtime.upload");
    let buf_a = ctx.alloc_upload(&mut dev, &floats_to_bytes(&a))?;
    let buf_b = ctx.alloc_upload(&mut dev, &floats_to_bytes(&b))?;
    let buf_c = dev
        .alloc((SGEMM_N * SGEMM_N * 4) as u32)
        .map_err(|e| format!("alloc: {e}"))?;
    let mut args = ArgWriter::new();
    args.word(buf_a.addr)
        .word(buf_b.addr)
        .word(buf_c.addr)
        .word(SGEMM_N as u32);
    dev.write_args(&args);
    dev.load_program(&prog);
    ctx.tr.end();
    ctx.tr.end();
    ctx.setup_done();

    ctx.tr.begin("sim");
    let stats = ctx.launch(&mut dev, prog.entry)?;
    ctx.tr.end();
    ctx.rep.stats = Some(stats);

    ctx.tr.begin("runtime.download");
    let c = dev
        .download_floats(buf_c)
        .map_err(|e| format!("download: {e}"))?;
    ctx.rep.downloaded = buf_c.size as u64;
    ctx.tr.end();

    ctx.tr.begin("validate");
    ctx.tr.begin("kernels.reference");
    let mut expect = sgemm::reference(&a, &b, SGEMM_N);
    ctx.tr.end();
    if ctx.tamper {
        expect[0] += 1.0;
    }
    // The reference accumulates with FMA in the kernel's order, so the
    // match is bit for bit, not approximate.
    let same = c.len() == expect.len()
        && c.iter()
            .zip(&expect)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    ctx.tr.end();
    if same {
        Ok(())
    } else {
        Err("device C differs from sgemm::reference".into())
    }
}

/// A device with the BFS graph, level array and kernel loaded.
struct BfsDevice {
    dev: Device,
    entry: u32,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
    buf_srcs: DeviceBuffer,
    buf_dsts: DeviceBuffer,
    buf_levels: DeviceBuffer,
    buf_updated: DeviceBuffer,
}

impl BfsDevice {
    /// Clears the `updated` flag and writes the argument block for `level`.
    fn arm(&mut self, level: u32) -> Result<(), String> {
        self.dev
            .upload(self.buf_updated, &[0; 4])
            .map_err(|e| format!("upload: {e}"))?;
        let mut args = ArgWriter::new();
        args.word(self.buf_srcs.addr)
            .word(self.buf_dsts.addr)
            .word(self.buf_levels.addr)
            .word(self.srcs.len() as u32)
            .word(level)
            .word(self.buf_updated.addr);
        self.dev.write_args(&args);
        Ok(())
    }
}

fn bfs_setup(ctx: &mut Ctx<'_>) -> Result<BfsDevice, String> {
    ctx.tr.begin("setup");
    ctx.tr.begin("kernels.inputs");
    let (srcs, dsts) = bfs_graph(ctx.seed);
    ctx.tr.end();
    ctx.tr.begin("asm.build");
    let prog = bfs::program();
    ctx.tr.end();
    ctx.tr.begin("runtime.device_new");
    let mut dev = Device::new(ctx.cfg.clone());
    ctx.tr.end();
    ctx.tr.begin("runtime.upload");
    let buf_srcs = ctx.alloc_upload(&mut dev, &words_to_bytes(&srcs))?;
    let buf_dsts = ctx.alloc_upload(&mut dev, &words_to_bytes(&dsts))?;
    let mut init = vec![u32::MAX; BFS_NODES]; // -1 = undiscovered
    init[0] = 0;
    let buf_levels = ctx.alloc_upload(&mut dev, &words_to_bytes(&init))?;
    let buf_updated = dev.alloc(4).map_err(|e| format!("alloc: {e}"))?;
    dev.load_program(&prog);
    ctx.tr.end();
    ctx.tr.end();
    ctx.setup_done();
    Ok(BfsDevice {
        dev,
        entry: prog.entry,
        srcs,
        dsts,
        buf_srcs,
        buf_dsts,
        buf_levels,
        buf_updated,
    })
}

fn rep_bfs(ctx: &mut Ctx<'_>) -> Result<(), String> {
    let mut bfs_dev = bfs_setup(ctx)?;

    // The host relaunches the kernel once per BFS level until a launch
    // discovers nothing. Flag traffic between launches is `sim` self time.
    ctx.tr.begin("sim");
    let mut level = 0u32;
    loop {
        bfs_dev.arm(level)?;
        let stats = ctx.launch(&mut bfs_dev.dev, bfs_dev.entry)?;
        ctx.rep.stats = Some(stats);
        let updated = bfs_dev
            .dev
            .download_words(bfs_dev.buf_updated)
            .map_err(|e| format!("download: {e}"))?[0];
        if updated == 0 {
            break;
        }
        level += 1;
        if level as usize > BFS_NODES {
            return Err("BFS ran past the node count".into());
        }
    }
    ctx.tr.end();
    let BfsDevice {
        mut dev,
        srcs,
        dsts,
        buf_levels,
        ..
    } = bfs_dev;

    ctx.tr.begin("runtime.download");
    let got = dev
        .download_words(buf_levels)
        .map_err(|e| format!("download: {e}"))?;
    ctx.rep.downloaded = buf_levels.size as u64;
    ctx.tr.end();

    ctx.tr.begin("validate");
    ctx.tr.begin("kernels.reference");
    let mut expect = bfs::reference_bfs(&srcs, &dsts, BFS_NODES);
    ctx.tr.end();
    if ctx.tamper {
        expect[0] += 1;
    }
    let same = got.len() == expect.len() && got.iter().zip(&expect).all(|(g, e)| *g as i32 == *e);
    ctx.tr.end();
    if same {
        Ok(())
    } else {
        Err("device levels differ from bfs::reference_bfs".into())
    }
}

fn rep_raster(ctx: &mut Ctx<'_>) -> Result<(), String> {
    ctx.tr.begin("setup");
    ctx.tr.begin("kernels.inputs");
    let (vertices, indices, texture) = raster_scene(ctx.seed);
    let state = raster_state();
    ctx.tr.end();
    ctx.tr.begin("runtime.device_new");
    let mut renderer = Renderer::new(ctx.cfg.clone(), RASTER_SIZE, RASTER_SIZE);
    ctx.tr.end();
    ctx.tr.end();
    ctx.setup_done();

    // `draw` is geometry + binning + kernel assembly + uploads + launch +
    // read-back in one call, and it panics on a device error: catch that
    // so a timeout or trap is a counted failure like everywhere else.
    ctx.tr.begin("sim");
    let drawn = ctx.simulate("gfx.draw", || {
        catch_unwind(AssertUnwindSafe(|| {
            renderer.draw(&vertices, &indices, &Mat4::IDENTITY, &state, Some(&texture))
        }))
    });
    ctx.tr.end();
    let report = drawn.map_err(|_| "Renderer::draw panicked (device error)".to_string())?;
    ctx.rep.stats = Some(report.stats);

    ctx.tr.begin("validate");
    ctx.tr.begin("gfx.host_raster");
    let mut host = renderer.draw_host(&vertices, &indices, &Mat4::IDENTITY, &state, Some(&texture));
    ctx.tr.end();
    if ctx.tamper {
        host.color[0] ^= 1;
    }
    let fb = &report.framebuffer;
    let same = fb.color == host.color
        && fb.depth.len() == host.depth.len()
        && fb
            .depth
            .iter()
            .zip(&host.depth)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    ctx.tr.end();
    if same {
        Ok(())
    } else {
        Err("device frame differs from Renderer::draw_host".into())
    }
}

/// What the snapshot probe measured.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotProbe {
    /// Median `Device::save_snapshot` time, seconds.
    pub save_s: f64,
    /// Median `Device::restore_snapshot` time into a fresh device, seconds.
    pub restore_s: f64,
    /// Snapshot size.
    pub bytes: usize,
}

/// Cycles the snapshot probe lets the first BFS launch run before it
/// stops the device: well inside the launch, with misses in flight at
/// every level of the hierarchy.
const SNAPSHOT_AT_CYCLE: u64 = 5_000;

/// Saves and restores a 16-core L2+L3 device stopped mid-kernel (the
/// `bfs-mc16-l2l3` set-up, first launch, [`SNAPSHOT_AT_CYCLE`] cycles in).
///
/// # Errors
/// A device error, a launch that finished before the stop, or a snapshot
/// that does not restore.
pub fn snapshot_probe(seed: u64, samples: usize) -> Result<SnapshotProbe, String> {
    let cfg = Workload::BfsMc16L2L3.config();
    let mut ctx = Ctx {
        cfg: &cfg,
        seed,
        tamper: false,
        tr: &mut Tracer::new(false),
        start: Instant::now(),
        rep: Rep::default(),
    };
    let mut bfs_dev = bfs_setup(&mut ctx)?;
    bfs_dev.arm(0)?;
    let gpu = bfs_dev.dev.gpu_mut();
    gpu.launch(bfs_dev.entry);
    match gpu.run(SNAPSHOT_AT_CYCLE) {
        Err(vortex_core::SimError::Timeout { .. }) => {}
        Ok(_) => return Err("snapshot probe: launch finished before the stop cycle".into()),
        Err(e) => return Err(format!("snapshot probe: {e}")),
    }
    let mut save_s = Vec::with_capacity(samples);
    let mut restore_s = Vec::with_capacity(samples);
    let mut bytes = 0;
    for _ in 0..samples {
        let t = Instant::now();
        let snap = bfs_dev.dev.save_snapshot();
        save_s.push(t.elapsed().as_secs_f64());
        bytes = snap.len();
        let mut fresh = Device::new(cfg.clone());
        let t = Instant::now();
        fresh
            .restore_snapshot(&snap)
            .map_err(|e| format!("snapshot probe: {e}"))?;
        restore_s.push(t.elapsed().as_secs_f64());
    }
    Ok(SnapshotProbe {
        save_s: crate::stats::median(&save_s),
        restore_s: crate::stats::median(&restore_s),
        bytes,
    })
}

/// FNV-1a digest of every simulated counter (the host-side fast-forward
/// accounting, which `GpuStats` equality also ignores, is left out).
pub fn stats_digest(stats: &GpuStats) -> u64 {
    let mut simulated = stats.clone();
    simulated.cycles_skipped = 0;
    simulated.skip_events = 0;
    format!("{simulated:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_graph_has_fixed_depth_and_edge_count_for_any_seed() {
        for seed in [1, 2, 99] {
            let (srcs, dsts) = bfs_graph(seed);
            assert_eq!(
                srcs.len(),
                2 * (BFS_NODES - 1 + BFS_EXTRA_DEGREE * BFS_NODES)
            );
            assert!(srcs.iter().zip(&dsts).all(|(s, d)| s != d), "no self-loops");
            let levels = bfs::reference_bfs(&srcs, &dsts, BFS_NODES);
            assert_eq!(levels.iter().copied().max(), Some(BFS_DEPTH as i32));
            assert!(levels.iter().all(|&l| l >= 0), "connected");
        }
        assert_ne!(bfs_graph(1), bfs_graph(2));
        assert_eq!(bfs_graph(1), bfs_graph(1));
    }

    #[test]
    fn raster_scene_stays_inside_the_frame() {
        for seed in [1, 2, 99] {
            let (vertices, indices, texture) = raster_scene(seed);
            assert_eq!(vertices.len(), RASTER_TRIS * 3);
            assert_eq!(indices.len(), RASTER_TRIS * 3);
            assert_eq!(texture.data.len(), 32 * 32 * 4);
            assert!(vertices
                .iter()
                .all(|v| v.pos.x.abs() < 1.0 && v.pos.y.abs() < 1.0));
        }
    }

    #[test]
    fn raster_scene_bins_identically_for_any_seed() {
        use vortex_gfx::binning::TileBins;
        let lists_of = |seed: u64| {
            let (vertices, indices, _) = raster_scene(seed);
            let setups = vortex_gfx::process_geometry(
                &vertices,
                &indices,
                &Mat4::IDENTITY,
                RASTER_SIZE,
                RASTER_SIZE,
            );
            assert_eq!(setups.len(), RASTER_TRIS, "no triangle is rejected");
            let bins = TileBins::build(&setups, RASTER_SIZE, RASTER_SIZE);
            let lens: Vec<usize> = bins.lists.iter().map(Vec::len).collect();
            assert_eq!(
                lens.iter().sum::<usize>(),
                RASTER_TRIS * 9,
                "3x3 tiles each"
            );
            lens
        };
        let first = lists_of(1);
        for seed in [2, 3, 99, 12345] {
            assert_eq!(lists_of(seed), first, "seed {seed}");
        }
    }

    #[test]
    fn configs_read_nothing_from_the_environment() {
        for w in Workload::ALL {
            let cfg = w.config();
            assert_eq!(cfg.sim_threads, 1);
            assert!(cfg.fast_forward && !cfg.profile);
            assert_eq!((cfg.sample_interval, cfg.checkpoint_drill), (0, 0));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let clustered = Workload::BfsMc16L2L3.config();
        assert_eq!((clustered.num_cores, clustered.cores_per_cluster), (16, 4));
        assert!(clustered.l2.is_some() && clustered.l3.is_some());
    }
}
