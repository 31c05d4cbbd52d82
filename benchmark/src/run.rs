//! The two measured runs of one workload: `run` (tracing off, end-to-end
//! metrics) and `trace` (spans, A/B legs and isolated drivers, per-layer
//! metrics). One process runs one workload once, so `peak_rss_mb` is
//! per workload.
//!
//! Load shape: a closed loop with one client — rep *i + 1* starts when
//! rep *i* has finished. One untimed warm-up rep comes first; its
//! `GpuStats` are the reference every later rep and leg must equal.

use crate::layers;
use crate::metrics::{assert_matches, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, tail};
use crate::timing::peak_rss_mib;
use crate::trace::Tracer;
use crate::workloads::{run_rep, snapshot_probe, stats_digest, Leg, Rep, Workload};
use std::time::{Duration, Instant};
use vortex_core::GpuStats;

/// How to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Keep starting reps (rounds of legs, when tracing) until this much
    /// time has passed...
    pub seconds: f64,
    /// ...or, when set, run exactly this many and ignore the clock.
    pub reps: Option<usize>,
    /// Corrupt the host reference: every rep must then count as failed.
    pub tamper: bool,
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// `"run"` or `"trace"`.
    pub mode: &'static str,
    /// Timed reps behind the medians (per leg, when tracing).
    pub reps: usize,
    /// The percentile `sim_wall_s_tail` was read at.
    pub tail_pct: f64,
    /// Operations attempted: every rep of every leg, the warm-up, and
    /// the snapshot probe of a traced run.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digest of the reference `GpuStats` (0 when the warm-up errored).
    pub stats_digest: u64,
    /// Metric values, in table order.
    pub metrics: Values,
    /// The per-rep samples behind the timing metrics, in rep order: for
    /// readers who want another statistic than the ones reported.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The recorded spans (empty for `run`).
    pub tracer: Tracer,
}

/// Counts operations and judges each rep against the reference.
struct Judge {
    workload: Workload,
    reference: Option<GpuStats>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Judge {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts `rep`; `true` when it is a good sample.
    fn admit(&mut self, rep: &Rep, what: &str) -> bool {
        self.attempted += 1;
        let verdict = match (&rep.failure, &rep.stats, &self.reference) {
            (Some(why), _, _) => Err(why.clone()),
            (None, Some(stats), Some(reference)) if stats != reference => {
                Err("GpuStats differ from the warm-up rep".to_string())
            }
            (None, Some(stats), _) => self.invariants(stats),
            (None, None, _) => Err("rep produced no GpuStats".to_string()),
        };
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.fail(format!("{what}: {why}"));
                false
            }
        }
    }

    /// Properties of the counters themselves.
    fn invariants(&self, stats: &GpuStats) -> Result<(), String> {
        // Every issue slot is an instruction or exactly one stall cause.
        let slots = stats.cycles * stats.cores.len() as u64;
        if stats.total_instrs() + stats.merged_stalls().total() != slots {
            return Err("instrs + stalls != cycles x cores".into());
        }
        let tex = stats.merged_tex().requests;
        if (self.workload == Workload::RasterMc16) != (tex > 0) {
            return Err(format!("{tex} tex requests on {}", self.workload.name()));
        }
        Ok(())
    }
}

/// Runs reps of `legs` round-robin until the deadline (or for exactly
/// `opts.reps` rounds); returns the good samples per leg.
fn closed_loop(
    opts: &RunOpts,
    legs: &[Leg],
    tracer: &mut Tracer,
    judge: &mut Judge,
) -> Vec<Vec<Rep>> {
    let base = opts.workload.config();
    let mut untraced = Tracer::new(false);
    let warmup = run_rep(
        opts.workload,
        opts.seed,
        &base,
        &mut untraced,
        0,
        opts.tamper,
    );
    judge.reference = warmup.stats.clone();
    judge.admit(&warmup, "warm-up");

    let configs: Vec<_> = legs.iter().map(|leg| leg.apply(&base)).collect();
    let mut samples: Vec<Vec<Rep>> = vec![Vec::new(); legs.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    for round in 1u32.. {
        let done = match opts.reps {
            Some(n) => round as usize > n,
            None => round > 1 && Instant::now() >= deadline,
        };
        if done {
            break;
        }
        for (i, &leg) in legs.iter().enumerate() {
            let tr = if leg == Leg::Traced {
                &mut *tracer
            } else {
                &mut untraced
            };
            let rep = run_rep(
                opts.workload,
                opts.seed,
                &configs[i],
                tr,
                round,
                opts.tamper,
            );
            if judge.admit(&rep, &format!("rep {round} {leg:?}")) {
                samples[i].push(rep);
            }
        }
    }
    samples
}

fn column(reps: &[Rep], field: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(field).collect()
}

/// The untraced run: every end-to-end metric.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut tracer = Tracer::new(false);
    let mut judge = Judge::new(opts.workload);
    let reps = closed_loop(opts, &[Leg::Base], &mut tracer, &mut judge).remove(0);

    let stats = judge.reference.clone().unwrap_or_default();
    let wall = column(&reps, |r| r.sim_wall_s);
    let cpu = column(&reps, |r| r.sim_cpu_s);
    let rep_wall = column(&reps, |r| r.rep_wall_s);
    let setup = column(&reps, |r| r.setup_s);
    let wall_p50 = median(&wall);
    let (tail_pct, wall_tail) = tail(&wall);
    let metrics: Values = vec![
        ("sim_wall_s_p50", wall_p50),
        ("sim_wall_s_tail", wall_tail),
        ("sim_cpu_s_p50", median(&cpu)),
        ("rep_wall_s_p50", median(&rep_wall)),
        ("setup_s", median(&setup)),
        ("sim_mcps", stats.cycles as f64 / wall_p50 * 1e-6),
        ("sim_mips", stats.total_instrs() as f64 / wall_p50 * 1e-6),
        ("sim_cycles", stats.cycles as f64),
        ("sim_thread_ipc", stats.thread_ipc()),
        ("peak_rss_mb", peak_rss_mib()),
    ];
    assert_matches(END_TO_END, &metrics);
    let samples = vec![
        ("sim_wall_s", wall),
        ("sim_cpu_s", cpu),
        ("rep_wall_s", rep_wall),
        ("setup_s", setup),
    ];
    Outcome {
        mode: "run",
        samples,
        reps: reps.len(),
        tail_pct,
        attempted: judge.attempted,
        failed: judge.failed,
        failures: judge.failures,
        stats_digest: judge.reference.as_ref().map_or(0, stats_digest),
        metrics,
        tracer,
    }
}

/// `host_cpus`: what `sim_threads > 1` can use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The traced run: every per-layer metric.
pub fn trace(opts: &RunOpts) -> Outcome {
    let w = opts.workload;
    let mut judge = Judge::new(w);

    // Isolated drivers first: they depend on the seed alone.
    let cache_ns = layers::cache_ns_per_access(opts.seed);
    let (flat1, flat16, clustered) = layers::hierarchy_shapes();
    let (flat1_ns, _) = layers::hierarchy_ns_per_tick(&flat1, 100_000, opts.seed);
    let (flat16_ns, _) = layers::hierarchy_ns_per_tick(&flat16, 20_000, opts.seed);
    let (l2l3_ns, l2) = layers::hierarchy_ns_per_tick(&clustered, 20_000, opts.seed);
    let (gfx, raster_words) = layers::gfx_stages(opts.seed);
    let kernel_words = match w {
        Workload::Sgemm1c => vortex_kernels::rodinia::sgemm::program().image,
        Workload::Bfs1c | Workload::BfsMc16L2L3 => vortex_kernels::rodinia::bfs::program().image,
        Workload::RasterMc16 => raster_words,
    };
    let decode_ns = layers::decode_ns_per_word(&kernel_words);
    judge.attempted += 1;
    let snapshot = snapshot_probe(opts.seed, layers::SAMPLES)
        .map_err(|why| judge.fail(why))
        .ok();

    // The legs: untraced base, traced base, then the A/B switches that
    // apply to this workload. Interleaved rep by rep, so drift on the
    // shared host lands on every leg alike.
    let mut legs = vec![Leg::Base, Leg::Traced, Leg::FfOff];
    if matches!(w, Workload::Sgemm1c | Workload::RasterMc16) {
        legs.push(Leg::DecodeCacheOff);
    }
    if matches!(w, Workload::BfsMc16L2L3 | Workload::RasterMc16) && host_cpus() >= 2 {
        legs.push(Leg::Threads2);
    }
    if w == Workload::Sgemm1c {
        legs.extend([Leg::Profile, Leg::Telemetry]);
    }
    let mut tracer = Tracer::new(true);
    let samples = closed_loop(opts, &legs, &mut tracer, &mut judge);
    // A leg against the untraced base leg: the median over rounds of
    // leg ÷ base within the round. Neighbours in time share the host's
    // drift, so the paired ratio is steadier than a ratio of medians.
    // `None` where the leg does not apply to this workload.
    let base = &samples[0];
    let versus_base = |leg: Leg| -> Option<f64> {
        let i = legs.iter().position(|&l| l == leg)?;
        let ratios: Vec<f64> = samples[i]
            .iter()
            .zip(base)
            .map(|(rep, base)| rep.sim_wall_s / base.sim_wall_s)
            .collect();
        Some(median(&ratios))
    };
    let speedup = |leg: Leg| versus_base(leg).unwrap_or(0.0);
    let overhead = |leg: Leg| versus_base(leg).map_or(0.0, |r| r - 1.0);
    let traced = &samples[1];
    let traced_p50 = median(&column(traced, |r| r.sim_wall_s));

    let stats = judge.reference.clone().unwrap_or_default();
    let cores = stats.cores.len() as f64;
    let instrs = stats.total_instrs() as f64;
    let (stalls, icache, dcache, tex) = (
        stats.merged_stalls(),
        stats.merged_icache(),
        stats.merged_dcache(),
        stats.merged_tex(),
    );
    let sum =
        |get: fn(&vortex_core::CoreStats) -> u64| stats.cores.iter().map(get).sum::<u64>() as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // Host time inside the simulator proper. `Renderer::draw` also runs
    // the gfx host stages, timed separately above.
    let run_s = match w {
        Workload::RasterMc16 => traced_p50 - gfx.geometry_s - gfx.binning_s - gfx.program_s,
        _ => traced_p50,
    };
    let span_p50 = |name: &str| median(&tracer.per_rep_seconds(name));
    let rate_mb_s = |bytes: u64, span: &str| {
        if bytes == 0 {
            0.0
        } else {
            bytes as f64 * 1e-6 / span_p50(span)
        }
    };
    let first = traced.first().cloned().unwrap_or_default();
    let (reference_span, asm_build_s) = match w {
        Workload::RasterMc16 => ("gfx.host_raster", gfx.program_s),
        _ => ("kernels.reference", span_p50("asm.build")),
    };

    let metrics: Values = vec![
        ("core.run_s", run_s),
        ("core.ns_per_instr", run_s * 1e9 / instrs),
        (
            "core.ns_per_live_cycle",
            run_s * 1e9 / ((stats.cycles - stats.cycles_skipped) as f64 * cores),
        ),
        ("core.ff.speedup", speedup(Leg::FfOff)),
        ("core.decode_cache.speedup", speedup(Leg::DecodeCacheOff)),
        // sim_threads 1 / 2 is base / leg, the inverse of the others.
        (
            "core.pool.speedup_t2",
            versus_base(Leg::Threads2).map_or(0.0, |r| 1.0 / r),
        ),
        ("core.profile.overhead", overhead(Leg::Profile)),
        ("core.telemetry.overhead", overhead(Leg::Telemetry)),
        ("core.instrs", instrs),
        ("core.thread_instrs", stats.total_thread_instrs() as f64),
        ("core.loads", sum(|c| c.loads)),
        ("core.stores", sum(|c| c.stores)),
        ("core.tex_ops", sum(|c| c.tex_ops)),
        ("core.divergences", stats.total_divergences() as f64),
        ("core.stall.ibuffer_empty", stalls.ibuffer_empty as f64),
        ("core.stall.scoreboard", stalls.scoreboard as f64),
        ("core.stall.fu_busy", stalls.fu_busy as f64),
        (
            "core.ff.cycles_skipped_share",
            ratio(stats.cycles_skipped, stats.cycles),
        ),
        ("core.ff.skip_events", stats.skip_events as f64),
        (
            "mem.icache.read_hit_rate",
            ratio(icache.read_hits, icache.reads),
        ),
        ("mem.dcache.reads", dcache.reads as f64),
        (
            "mem.dcache.read_hit_rate",
            ratio(dcache.read_hits, dcache.reads),
        ),
        ("mem.dcache.mshr_merges", dcache.mshr_merges as f64),
        ("mem.dcache.bank_conflicts", dcache.bank_conflicts as f64),
        ("mem.dcache.bank_utilization", dcache.bank_utilization()),
        ("mem.dram.reads", stats.dram_reads as f64),
        ("mem.dram.writes", stats.dram_writes as f64),
        ("mem.cache.ns_per_access", cache_ns),
        ("mem.hier_flat.ns_per_tick", flat1_ns),
        ("mem.hier_flat16.ns_per_tick", flat16_ns),
        ("mem.hier_l2l3.ns_per_tick", l2l3_ns),
        (
            "mem.hier_l2l3.l2_read_hit_rate",
            ratio(l2.read_hits, l2.reads),
        ),
        ("tex.requests", tex.requests as f64),
        ("tex.texels_generated", tex.texels_generated as f64),
        ("tex.texels_fetched", tex.texels_fetched as f64),
        (
            "tex.dedup_ratio",
            ratio(tex.texels_fetched, tex.texels_generated),
        ),
        ("tex.mem_busy_cycles", tex.mem_busy_cycles as f64),
        ("gfx.geometry_us", gfx.geometry_s * 1e6),
        ("gfx.binning_us", gfx.binning_s * 1e6),
        ("gfx.program_us", gfx.program_s * 1e6),
        ("gfx.host_raster_ms", gfx.host_raster_s * 1e3),
        ("kernels.inputs_us", span_p50("kernels.inputs") * 1e6),
        ("kernels.reference_ms", span_p50(reference_span) * 1e3),
        ("asm.build_us", asm_build_s * 1e6),
        ("isa.decode.ns_per_word", decode_ns),
        (
            "runtime.device_new_us",
            span_p50("runtime.device_new") * 1e6,
        ),
        (
            "runtime.upload_mb_s",
            rate_mb_s(first.uploaded, "runtime.upload"),
        ),
        (
            "runtime.download_mb_s",
            rate_mb_s(first.downloaded, "runtime.download"),
        ),
        ("runtime.launches", f64::from(first.launches)),
        (
            "snapshot.save_ms",
            snapshot.map_or(f64::NAN, |s| s.save_s * 1e3),
        ),
        (
            "snapshot.restore_ms",
            snapshot.map_or(f64::NAN, |s| s.restore_s * 1e3),
        ),
        (
            "snapshot.bytes",
            snapshot.map_or(f64::NAN, |s| s.bytes as f64),
        ),
        (
            "trace.overhead_share",
            versus_base(Leg::Traced).map_or(f64::NAN, |r| r - 1.0),
        ),
    ];
    assert_matches(PER_LAYER, &metrics);
    let samples = legs
        .iter()
        .zip(&samples)
        .map(|(leg, reps)| (leg.sample_name(), column(reps, |r| r.sim_wall_s)))
        .collect();
    Outcome {
        mode: "trace",
        samples,
        reps: traced.len(),
        tail_pct: tail(&column(traced, |r| r.sim_wall_s)).0,
        attempted: judge.attempted,
        failed: judge.failed,
        failures: judge.failures,
        stats_digest: judge.reference.as_ref().map_or(0, stats_digest),
        metrics,
        tracer,
    }
}
