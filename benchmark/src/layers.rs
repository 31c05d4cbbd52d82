//! Isolated drivers: one layer at a time, on seeded inputs, timed from
//! outside through public functions only.
//!
//! Every traced run executes all of them, whatever its workload — they
//! depend on the seed alone — so each per-layer timing is a measurement
//! in every result file.

use crate::stats::median;
use crate::workloads::{raster_scene, raster_state, Workload, RASTER_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;
use vortex_gfx::binning::TileBins;
use vortex_gfx::{process_geometry, raster, Mat4, Renderer};
use vortex_mem::hierarchy::{l2_default, l3_default};
use vortex_mem::{
    Cache, CacheConfig, CacheStats, DramConfig, HierarchyConfig, MemHierarchy, MemReq, MemRsp,
};

/// Timed repetitions of each isolated driver; the median is reported.
pub const SAMPLES: usize = 5;

fn median_seconds(mut sample: impl FnMut() -> f64) -> f64 {
    median(&(0..SAMPLES).map(|_| sample()).collect::<Vec<_>>())
}

/// Host nanoseconds per accepted access of one `dcache_default` cache.
///
/// The stream looks like an LSU's: four lane requests per instruction,
/// half the instructions unit-stride within a line, half scattered over
/// 64 KiB (four times the cache), one store in eight; misses are filled
/// by a fixed-latency memory.
pub fn cache_ns_per_access(seed: u64) -> f64 {
    const INSTRS: usize = 20_000;
    const REGION_WORDS: u32 = 64 * 1024 / 4;
    const FILL_LATENCY: u64 = 20;
    // Far beyond what the stream needs: a cache that stops accepting
    // must not hang the benchmark.
    const MAX_CYCLES: u64 = 100 * INSTRS as u64;
    median_seconds(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = Cache::new(CacheConfig::dcache_default());
        let mut lanes: Vec<MemReq> = Vec::with_capacity(4);
        let mut fills: VecDeque<(u64, MemRsp)> = VecDeque::new();
        let (mut issued, mut tag) = (0usize, 0u64);
        let start = Instant::now();
        for cycle in 0..MAX_CYCLES {
            if lanes.is_empty() && issued < INSTRS {
                issued += 1;
                let write = rng.random_range(0..8u32) == 0;
                let base = rng.random_range(0..REGION_WORDS) & !3;
                for lane in 0..4 {
                    let word = if issued % 2 == 0 {
                        base + lane
                    } else {
                        rng.random_range(0..REGION_WORDS)
                    };
                    tag += 1;
                    lanes.push(MemReq {
                        tag,
                        addr: word * 4,
                        write,
                    });
                }
            }
            cache.begin_cycle();
            cache.offer(&mut lanes);
            cache.tick();
            while let Some(req) = cache.pop_mem_req() {
                if !req.write {
                    fills.push_back((cycle + FILL_LATENCY, MemRsp { tag: req.tag }));
                }
            }
            while fills.front().is_some_and(|(ready, _)| *ready <= cycle) {
                cache.push_mem_rsp(fills.pop_front().expect("front checked").1);
            }
            while let Some(rsp) = cache.pop_rsp() {
                black_box(rsp);
            }
            if issued == INSTRS && lanes.is_empty() && fills.is_empty() && cache.is_idle() {
                break;
            }
        }
        let accesses = cache.stats.reads + cache.stats.writes;
        start.elapsed().as_secs_f64() * 1e9 / accesses as f64
    })
}

/// Host nanoseconds per `MemHierarchy::tick`, and the merged L2 counters.
///
/// Each tick every port offers, with probability one half, a line
/// request (one write in eight) drawn from a 512 KiB region — the size
/// of the L3, four times one L2 — then drains its responses.
pub fn hierarchy_ns_per_tick(
    config: &HierarchyConfig,
    ticks: usize,
    seed: u64,
) -> (f64, CacheStats) {
    const REGION_LINES: u32 = 512 * 1024 / 64;
    let mut l2 = CacheStats::default();
    let ns = median_seconds(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hier = MemHierarchy::new(config.clone());
        let mut tag = 0u64;
        let start = Instant::now();
        for _ in 0..ticks {
            for port in 0..config.num_cores {
                if rng.random::<bool>() {
                    tag += 1;
                    let req = MemReq {
                        tag,
                        addr: rng.random_range(0..REGION_LINES) * 64,
                        write: tag.is_multiple_of(8),
                    };
                    // Backpressure drops the request, as a retrying L1
                    // would see it: the stream stays seed-determined.
                    let _ = black_box(hier.push_req(port, req));
                }
            }
            hier.tick();
            for port in 0..config.num_cores {
                while let Some(rsp) = hier.pop_rsp(port) {
                    black_box(rsp);
                }
            }
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / ticks as f64;
        l2 = CacheStats::default();
        for stats in hier.l2_stats() {
            l2.merge(&stats);
        }
        ns
    });
    (ns, l2)
}

/// The three hierarchy shapes the workloads use: `(flat 1 port, flat 16
/// ports, 4×4 clustered L2+L3)`.
pub fn hierarchy_shapes() -> (HierarchyConfig, HierarchyConfig, HierarchyConfig) {
    let dram = DramConfig::default();
    let clustered = HierarchyConfig {
        num_cores: 16,
        cores_per_cluster: 4,
        l2: Some(l2_default()),
        l3: Some(l3_default()),
        dram,
    };
    (
        HierarchyConfig::flat(1, dram),
        HierarchyConfig::flat(16, dram),
        clustered,
    )
}

/// Host nanoseconds per `vortex_isa::decode` over a kernel's words.
pub fn decode_ns_per_word(words: &[u32]) -> f64 {
    const DECODES: usize = 1_000_000;
    let passes = DECODES.div_ceil(words.len().max(1));
    median_seconds(|| {
        let start = Instant::now();
        for _ in 0..passes {
            for &word in words {
                let _ = black_box(vortex_isa::decode(black_box(word)));
            }
        }
        start.elapsed().as_secs_f64() * 1e9 / (passes * words.len()) as f64
    })
}

/// Host time of the graphics pipeline's host-side stages, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct GfxStages {
    /// `process_geometry`.
    pub geometry_s: f64,
    /// `TileBins::build` + `to_device_arrays`.
    pub binning_s: f64,
    /// `raster::program`.
    pub program_s: f64,
    /// `Renderer::draw_host`.
    pub host_raster_s: f64,
}

/// Times the host stages `Renderer::draw` runs before its launch, and the
/// host reference rasterizer, on the seeded `raster-mc16` scene. They
/// cannot be timed inside `draw` from outside, so `core.run_s` of the
/// raster workload subtracts the first three from its `draw` time.
pub fn gfx_stages(seed: u64) -> (GfxStages, Vec<u32>) {
    let (vertices, indices, texture) = raster_scene(seed);
    let state = raster_state();
    let renderer = Renderer::new(Workload::RasterMc16.config(), RASTER_SIZE, RASTER_SIZE);
    let mut program_words = Vec::new();
    let (mut geometry, mut binning, mut program, mut host) = (vec![], vec![], vec![], vec![]);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let setups = process_geometry(
            &vertices,
            &indices,
            &Mat4::IDENTITY,
            RASTER_SIZE,
            RASTER_SIZE,
        );
        geometry.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let bins = TileBins::build(&setups, RASTER_SIZE, RASTER_SIZE);
        black_box(bins.to_device_arrays());
        binning.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        program_words = raster::program(&state).image;
        program.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        black_box(renderer.draw_host(&vertices, &indices, &Mat4::IDENTITY, &state, Some(&texture)));
        host.push(t.elapsed().as_secs_f64());
    }
    let stages = GfxStages {
        geometry_s: median(&geometry),
        binning_s: median(&binning),
        program_s: median(&program),
        host_raster_s: median(&host),
    };
    (stages, program_words)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_return_positive_finite_times() {
        assert!(cache_ns_per_access(1).is_normal());
        let (flat1, _, clustered) = hierarchy_shapes();
        let (ns, l2) = hierarchy_ns_per_tick(&flat1, 2_000, 1);
        assert!(ns.is_normal());
        assert_eq!(l2.reads, 0, "a flat hierarchy has no L2");
        let (ns, l2) = hierarchy_ns_per_tick(&clustered, 2_000, 1);
        assert!(ns.is_normal());
        assert!(l2.reads > 0 && l2.read_hits > 0, "the stream reuses lines");
        assert!(decode_ns_per_word(&[0x13, 0x33]).is_normal());
    }

    #[test]
    fn seeded_streams_repeat() {
        let (_, _, clustered) = hierarchy_shapes();
        let (_, a) = hierarchy_ns_per_tick(&clustered, 2_000, 7);
        let (_, b) = hierarchy_ns_per_tick(&clustered, 2_000, 7);
        let (_, c) = hierarchy_ns_per_tick(&clustered, 2_000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
