//! The invariant matrix: a configuration's simulated result must not depend
//! on how the host ran it. Cycles, `GpuStats`, the output memory, the
//! telemetry series, the rendered `vortex-profile-v1` document, the
//! instruction trace, snapshot bytes and fault draws are bit-identical
//! under fast-forward, the decode memo, profiling, sampling, the checkpoint
//! drill, interrupted-and-resumed runs and hand-stepped runs.
//!
//! * A [`Column`] is a workload on a base configuration. Its base run is
//!   computed once and shared by every row and pin of the column.
//! * A [`Row`] is a knob applied to the base configuration plus a [`Drive`]
//!   that says how the host takes the run to completion. A row's cell runs
//!   once, on first use, and is shared by every test that reads it.
//! * Every run yields one [`Digest`]. Cells checked together must agree on
//!   each field both produced; snapshot bytes are compared only between
//!   runs with equal [`Gpu::config_fingerprint`]s.
//! * Every cell is [`audit`]ed on its own, and pinned columns hold every
//!   cell to their cycle count.
//!
//! Each workload has a `#[test]` that checks every pair of its cells; the
//! other tests each check one property on the rows that exercise it. A new
//! knob is a new [`Row`] in the lists below; a new workload is a new
//! [`Column`] and its `#[test]`. `--release` is recommended: the bfs and
//! raster columns simulate ~800k and ~230k cycles per cell.

use std::ops::Range;
use std::sync::OnceLock;
use vortex_asm::Assembler;
use vortex_core::frontend::FrontEnd;
use vortex_core::telemetry::TimeSeries;
use vortex_core::trace::Trace;
use vortex_core::{Gpu, GpuConfig, GpuProfile, GpuStats, SimError};
use vortex_faults::FaultConfig;
use vortex_gfx::RasterBench;
use vortex_isa::{csr, vx, Reg};
use vortex_kernels::{Benchmark, Bfs, FilterKind, Nearn, Sgemm, TexBench};

const ENTRY: u32 = 0x8000_0000;
/// Cycle budget no workload here comes near.
const BUDGET: u64 = 5_000_000;
/// The one telemetry interval: far below a DRAM round trip, so windows
/// close inside the spans fast-forward skips, and no divisor of the
/// interrupt cadence, so resumes land mid-window.
const INTERVAL: u64 = 32;
/// Instruction-trace ring depth per core.
const TRACE_DEPTH: usize = 256;
/// Pause points of the [`Drive::Paused`] rows, inside the DRAM-bound phase.
const PAUSES: [u64; 3] = [100, 400, 1_500];
/// A fault plan: handshake stalls and DRAM delays.
const FAULTS: &str = "seed=77,elastic_stall=300,dram_stall=400,dram_delay=500,\
                      dram_extra_latency=40";

// --- Digest, audits and the comparison rule ------------------------------

/// Everything one run produced that must not depend on how the host ran
/// it. `None` marks a field the way the run was taken cannot produce.
#[derive(Default)]
struct Digest {
    /// Cycles and every architectural counter (`PartialEq` ignores the
    /// host-side skip accounting).
    stats: GpuStats,
    /// Whether the device output matched the host reference.
    validated: Option<bool>,
    /// The workload's output memory window.
    mem: Option<Vec<u8>>,
    series: Option<TimeSeries>,
    /// The rendered `vortex-profile-v1` document.
    profile: Option<String>,
    fault_draws: Option<Vec<u64>>,
    /// Every core's instruction-trace dump.
    trace: Option<String>,
    fingerprint: Option<u64>,
    /// The final snapshot.
    snapshot: Option<Vec<u8>>,
    /// The snapshot taken at each [`PAUSES`] point.
    pauses: Option<Vec<Vec<u8>>>,
}

/// One cell of the matrix: the row that ran, its configuration and what it
/// produced.
struct Cell {
    name: String,
    config: GpuConfig,
    digest: Digest,
}

impl Cell {
    /// Runs `drive` on `config` through `run` and audits the result.
    fn run(
        name: String,
        config: GpuConfig,
        drive: Drive,
        run: &impl Fn(&GpuConfig, Drive) -> Digest,
    ) -> Cell {
        let digest = run(&config, drive);
        let cell = Cell {
            name,
            config,
            digest,
        };
        audit(&cell);
        cell
    }
}

/// The checks every cell must pass on its own.
fn audit(cell: &Cell) {
    let (name, d) = (&cell.name, &cell.digest);
    issue_accounting(cell);
    if d.series.is_some() {
        window_boundaries(cell);
        window_deltas(cell);
    }
    if d.profile.is_some() {
        profile_totals(cell);
    }
    if let Some(validated) = d.validated {
        assert!(
            validated,
            "{name}: device output must match the host reference"
        );
    }
    if !cell.config.fast_forward {
        assert_eq!(
            (d.stats.cycles_skipped, d.stats.skip_events),
            (0, 0),
            "{name}: fast-forward off must tick every cycle"
        );
    }
}

/// Per core, every cycle is charged to an instruction or a stall, skipped
/// cycles included.
fn issue_accounting(cell: &Cell) {
    for (cid, c) in cell.digest.stats.cores.iter().enumerate() {
        assert_eq!(
            c.cycles,
            c.instrs + c.stalls.total(),
            "{}: core {cid} charges every cycle to an instruction or a stall",
            cell.name
        );
    }
}

/// Telemetry windows close exactly on `k·interval`, and every window that
/// closed was emitted: jumping over a boundary never swallows its sample.
fn window_boundaries(cell: &Cell) {
    let (name, d) = (&cell.name, &cell.digest);
    let series = d.series.as_ref().expect("a sampled cell");
    let interval = cell.config.sample_interval;
    for (i, s) in series.samples.iter().enumerate() {
        assert_eq!(
            s.cycle,
            (i as u64 + 1) * interval,
            "{name}: window {i} boundary"
        );
    }
    assert_eq!(
        series.samples.len() as u64,
        d.stats.cycles / interval,
        "{name}: window count"
    );
    assert!(
        !series.truncated && series.samples.len() <= TimeSeries::MAX_SAMPLES,
        "{name}"
    );
}

/// Each cycle, live or skipped, charges one issue slot, so every window's
/// per-core deltas sum to the interval.
fn window_deltas(cell: &Cell) {
    let series = cell.digest.series.as_ref().expect("a sampled cell");
    for (i, s) in series.samples.iter().enumerate() {
        for (cid, w) in s.cores.iter().enumerate() {
            assert_eq!(
                w.instrs + w.stalls.total(),
                cell.config.sample_interval,
                "{}: window {i} core {cid} covers every cycle",
                cell.name
            );
        }
    }
}

/// The profile attributes every issue, thread-instruction and divergence
/// exactly once.
fn profile_totals(cell: &Cell) {
    let (name, d) = (&cell.name, &cell.digest);
    let p = vortex_obs::parse_profile(d.profile.as_ref().expect("a profiled cell"))
        .expect("profile document parses");
    assert_eq!(
        p.total_issues(),
        d.stats.total_instrs(),
        "{name}: profiled instructions"
    );
    assert_eq!(
        p.total_thread_instrs(),
        d.stats.total_thread_instrs(),
        "{name}: profiled thread-instructions"
    );
    assert_eq!(
        p.sites.values().map(|s| s.divergences).sum::<u64>(),
        d.stats.total_divergences(),
        "{name}: profiled divergences"
    );
}

/// The comparison rule: two cells agree on every field both produced, and
/// on snapshot bytes when their configuration fingerprints are equal.
fn assert_same(a: &Cell, b: &Cell) {
    let label = format!("{} vs {}", a.name, b.name);
    let (a, b) = (&a.digest, &b.digest);
    assert_eq!(a.stats.cycles, b.stats.cycles, "{label}: cycles");
    assert_eq!(a.stats, b.stats, "{label}: GpuStats");
    same(&label, "output memory", &a.mem, &b.mem);
    same(&label, "telemetry series", &a.series, &b.series);
    same(&label, "profile document", &a.profile, &b.profile);
    same(&label, "fault draws", &a.fault_draws, &b.fault_draws);
    same(&label, "trace", &a.trace, &b.trace);
    if a.fingerprint == b.fingerprint {
        same(&label, "snapshot bytes", &a.snapshot, &b.snapshot);
        same(&label, "pause snapshots", &a.pauses, &b.pauses);
    }
}

fn same<T: PartialEq>(label: &str, what: &str, a: &Option<T>, b: &Option<T>) {
    if let (Some(a), Some(b)) = (a, b) {
        assert!(a == b, "{label}: {what} differ");
    }
}

/// Renders `profile` and checks the document reads back to it exactly.
fn profile_doc(profile: &GpuProfile) -> String {
    let doc = vortex_obs::render_profile_json("invariants", profile);
    let parsed = vortex_obs::parse_profile(&doc).expect("profile document parses");
    assert_eq!(&parsed, profile, "the reader reconstructs the profile");
    assert_eq!(
        vortex_obs::render_profile_json("invariants", &parsed),
        doc,
        "render∘parse"
    );
    doc
}

// --- Rows and columns -------------------------------------------------------

/// How the host takes a run to completion.
#[derive(Clone, Copy)]
enum Drive {
    /// `Gpu::run` to completion.
    Run,
    /// `Gpu::step` by hand until the machine is done.
    Stepped,
    /// Killed at every multiple of this many cycles and resumed into a
    /// fresh machine from the snapshot alone (no program load, no fault
    /// re-application).
    Interrupted(u64),
    /// Paused at each budget: the snapshot joins the digest and the run
    /// resumes in a fresh machine.
    Paused(&'static [u64]),
}

/// A knob: its name, its change to the column's base configuration, and
/// how the host drives the run.
#[derive(Clone, Copy)]
struct Row(&'static str, fn(&mut GpuConfig), Drive);

fn unobserved(c: &mut GpuConfig) {
    c.sample_interval = 0;
    c.profile = false;
}

fn unobserved_live(c: &mut GpuConfig) {
    unobserved(c);
    c.fast_forward = false;
}

const FAST_FORWARD_OFF: Row = Row("fast_forward_off", |c| c.fast_forward = false, Drive::Run);
const DECODE_MEMO_OFF: Row = Row(
    "decode_memo_off",
    |c| c.core.decode_cache = false,
    Drive::Run,
);
const PROFILED: Row = Row("profiled", |c| c.profile = true, Drive::Run);
const SAMPLED: Row = Row("sampled", |c| c.sample_interval = INTERVAL, Drive::Run);

/// Rows of the hand-assembled columns, whose base is sampled and profiled.
const KERNEL_ROWS: &[Row] = &[
    Row("rerun", |_| {}, Drive::Run),
    FAST_FORWARD_OFF,
    DECODE_MEMO_OFF,
    Row("unobserved", unobserved, Drive::Run),
    Row("unobserved_fast_forward_off", unobserved_live, Drive::Run),
    Row("checkpoint_drill", |c| c.checkpoint_drill = 777, Drive::Run),
    Row("stepped", unobserved, Drive::Stepped),
    Row("interrupted", |_| {}, Drive::Interrupted(400)),
    Row(
        "interrupted_unobserved",
        unobserved,
        Drive::Interrupted(400),
    ),
    Row("paused", unobserved, Drive::Paused(&PAUSES)),
    Row(
        "paused_fast_forward_off",
        unobserved_live,
        Drive::Paused(&PAUSES),
    ),
];

/// The drill at gate scale: not a divisor of any gate's cycle count, so
/// kills land mid-flight.
const GATE_DRILL: Row = Row(
    "checkpoint_drill",
    |c| c.checkpoint_drill = 9_973,
    Drive::Run,
);

/// Rows of the gate columns, whose base is unobserved.
const GATE_ROWS: &[Row] = &[PROFILED, SAMPLED, GATE_DRILL];

type Runner = Box<dyn Fn(&GpuConfig, Drive) -> Digest + Send + Sync>;

/// A workload column: its base cell, run when the column is built, and its
/// rows, each run once on first use. Every cell is audited and, when the
/// column is pinned, held to the pinned cycle count.
struct Column {
    name: String,
    base: Cell,
    rows: Vec<(Row, OnceLock<Cell>)>,
    pin: Option<u64>,
    run: Runner,
}

impl Column {
    fn new(name: &str, config: GpuConfig, rows: &[Row], pin: Option<u64>, run: Runner) -> Self {
        let base = Cell::run(format!("{name}/base"), config, Drive::Run, &run);
        let rows = rows.iter().map(|&row| (row, OnceLock::new())).collect();
        let column = Column {
            name: name.into(),
            base,
            rows,
            pin,
            run,
        };
        column.pinned(&column.base);
        column
    }

    fn pinned(&self, cell: &Cell) {
        if let Some(pin) = self.pin {
            assert_eq!(
                cell.digest.stats.cycles, pin,
                "{}: simulated cycles moved — if intentional, update the pin and say why",
                cell.name
            );
        }
    }

    /// The named row's cell.
    fn cell(&self, row: &str) -> &Cell {
        let (Row(_, knob, drive), cell) = self
            .rows
            .iter()
            .find(|(r, _)| r.0 == row)
            .unwrap_or_else(|| panic!("{}: no row {row}", self.name));
        cell.get_or_init(|| {
            let mut config = self.base.config.clone();
            knob(&mut config);
            let cell = Cell::run(format!("{}/{row}", self.name), config, *drive, &self.run);
            self.pinned(&cell);
            cell
        })
    }

    /// Runs the named rows and checks every pair of cells among them and
    /// the base agrees. Returns the row cells in order.
    fn check(&self, rows: &[&str]) -> Vec<&Cell> {
        let cells: Vec<&Cell> = rows.iter().map(|row| self.cell(row)).collect();
        let all: Vec<&Cell> = std::iter::once(&self.base)
            .chain(cells.iter().copied())
            .collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_same(a, b);
            }
        }
        cells
    }

    /// [`Column::check`] on every row.
    fn check_all(&self) {
        let rows: Vec<&str> = self.rows.iter().map(|(row, _)| row.0).collect();
        self.check(&rows);
    }
}

/// `cores` baseline cores with telemetry and the profiler on.
fn observed(cores: usize) -> GpuConfig {
    let mut c = GpuConfig::with_cores(cores);
    c.sample_interval = INTERVAL;
    c.profile = true;
    c
}

// --- Hand-assembled workloads --------------------------------------------

/// A hand-assembled workload: the program, the output window the digest
/// reads back, and the fault plan applied at boot.
struct Kernel {
    asm: fn() -> Assembler,
    out: Range<u32>,
    faults: Option<FaultConfig>,
}

impl Kernel {
    fn new(asm: fn() -> Assembler, out: Range<u32>, faulted: bool) -> Self {
        let faults = faulted.then(|| FaultConfig::from_spec(FAULTS).expect("valid spec"));
        Kernel { asm, out, faults }
    }

    fn boot(&self, config: GpuConfig) -> Gpu {
        let prog = (self.asm)().assemble(ENTRY).expect("kernel assembles");
        let mut gpu = Gpu::new(config);
        if let Some(f) = &self.faults {
            gpu.apply_faults(f);
        }
        gpu.ram.write_bytes(prog.base, &prog.to_bytes());
        gpu.launch(prog.entry);
        gpu
    }

    /// The column of this kernel on `config` with every [`KERNEL_ROWS`] row,
    /// pinned to `pin` cycles.
    fn column(self, name: &str, config: GpuConfig, pin: u64) -> Column {
        let name = if self.faults.is_some() {
            format!("{name}_faulted")
        } else {
            name.into()
        };
        Column::new(
            &name,
            config,
            KERNEL_ROWS,
            Some(pin),
            Box::new(move |c, d| self.run(c, d)),
        )
    }

    fn run(&self, config: &GpuConfig, drive: Drive) -> Digest {
        let mut gpu = self.boot(config.clone());
        // A resumed leg re-arms the watchdog baseline the snapshot records,
        // and a rebuilt machine starts an empty trace: only one-leg runs
        // yield a comparable final snapshot and trace.
        let one_leg = matches!(drive, Drive::Run | Drive::Stepped) && config.checkpoint_drill == 0;
        if one_leg {
            for cid in 0..config.num_cores {
                gpu.core_mut(cid).trace = Trace::with_capacity(TRACE_DEPTH);
            }
        }
        let mut pauses = None;
        let stats = match drive {
            Drive::Run => gpu.run(BUDGET).expect("kernel completes"),
            Drive::Stepped => {
                while !gpu.is_done() {
                    gpu.step().expect("kernel does not trap");
                }
                gpu.stats()
            }
            Drive::Interrupted(every) => {
                let mut resumes = 0;
                let stats = loop {
                    match gpu.run((gpu.cycle() / every + 1) * every) {
                        Ok(stats) => break stats,
                        Err(SimError::Timeout { .. }) => {
                            gpu = resume(&mut gpu).0;
                            resumes += 1;
                        }
                        Err(e) => panic!("unexpected outcome: {e}"),
                    }
                };
                assert!(
                    resumes >= 3,
                    "run must be interrupted several times ({resumes})"
                );
                stats
            }
            Drive::Paused(budgets) => {
                let mut bytes = Vec::new();
                for &budget in budgets {
                    assert_eq!(
                        gpu.run(budget),
                        Err(SimError::Timeout { cycles: budget }),
                        "pause lands on its budget"
                    );
                    let (fresh, snap) = resume(&mut gpu);
                    gpu = fresh;
                    bytes.push(snap);
                }
                pauses = Some(bytes);
                gpu.run(BUDGET).expect("kernel completes")
            }
        };
        // Sampling and the profile flush live in `run`, not in `step`.
        let ran = !matches!(drive, Drive::Stepped);
        Digest {
            stats,
            validated: None,
            mem: Some(self.out.clone().map(|addr| gpu.ram.read_u8(addr)).collect()),
            series: ran.then(|| gpu.time_series().cloned()).flatten(),
            profile: ran
                .then(|| gpu.profile())
                .flatten()
                .map(|p| profile_doc(&p)),
            fault_draws: Some(gpu.fault_draws()),
            trace: one_leg.then(|| {
                (0..config.num_cores)
                    .map(|cid| gpu.core(cid).trace.dump())
                    .collect()
            }),
            fingerprint: Some(gpu.config_fingerprint()),
            snapshot: one_leg.then(|| gpu.save_snapshot()),
            pauses,
        }
    }
}

/// Saves `gpu`, restores the bytes into a fresh machine of the same
/// configuration, and checks the resume is exact: the derived front-end
/// masks match their definitions and the paused machine's, and re-saving
/// reproduces the bytes.
fn resume(gpu: &mut Gpu) -> (Gpu, Vec<u8>) {
    let at = gpu.cycle();
    let bytes = gpu.save_snapshot();
    let mut fresh = Gpu::new(gpu.config().clone());
    fresh
        .restore_snapshot(&bytes)
        .expect("own snapshot restores");
    for cid in 0..gpu.config().num_cores {
        fresh.core(cid).check_front_end_masks();
        let (a, b) = (gpu.core(cid).front_end(), fresh.core(cid).front_end());
        assert_eq!(
            a.nonempty(),
            b.nonempty(),
            "core {cid} at {at}: buffered mask"
        );
        assert_eq!(
            a.fetch_blocked(),
            b.fetch_blocked(),
            "core {cid} at {at}: fetch-blocked mask"
        );
    }
    assert!(
        fresh.save_snapshot() == bytes,
        "re-saved snapshot at cycle {at} differs"
    );
    (fresh, bytes)
}

const CHASE_CORES: usize = 4;
const CHASE_OUT: u32 = 0xA000;

/// The cold-miss chase: each core walks a private region with a stride
/// larger than a cache line, so every load is a cold D$ miss that parks
/// the core for a full DRAM round trip — the idle spans fast-forward
/// skips.
fn chase_asm() -> Assembler {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_CID);
    a.slli(Reg::X6, Reg::X5, 12);
    a.li(Reg::X7, 0x0001_0000);
    a.add(Reg::X6, Reg::X6, Reg::X7); // base = 0x10000 + 4096·cid
    a.li(Reg::X8, 0); // i
    a.li(Reg::X9, 16); // iterations
    a.li(Reg::X10, 0); // sum
    a.label("chase").unwrap();
    a.lw(Reg::X11, Reg::X6, 0);
    a.add(Reg::X10, Reg::X10, Reg::X11); // depends on the load
    a.addi(Reg::X6, Reg::X6, 256); // next (cold) line
    a.addi(Reg::X8, Reg::X8, 1);
    a.blt(Reg::X8, Reg::X9, "chase");
    a.slli(Reg::X12, Reg::X5, 2);
    a.li(Reg::X13, CHASE_OUT as i32);
    a.add(Reg::X12, Reg::X12, Reg::X13);
    a.sw(Reg::X10, Reg::X12, 0);
    a.ecall();
    a
}

/// The chase column, flat or as 2 clusters of 2 cores behind per-cluster
/// L2s and a shared L3, with or without the fault plan, after the checks
/// every chase base must pass.
fn chase_column(clustered: bool, faulted: bool) -> Column {
    let kernel = Kernel::new(
        chase_asm,
        CHASE_OUT..CHASE_OUT + 4 * CHASE_CORES as u32,
        faulted,
    );
    let mut config = observed(CHASE_CORES);
    if clustered {
        config.cores_per_cluster = 2;
        config.l2 = Some(vortex_mem::hierarchy::l2_default());
        config.l3 = Some(vortex_mem::hierarchy::l3_default());
    }
    let (name, pin) = match (clustered, faulted) {
        (false, false) => ("chase", 2_104),
        (false, true) => ("chase", 2_767),
        (true, false) => ("chase_l2_l3", 2_383),
        (true, true) => ("chase_l2_l3", 2_809),
    };
    let column = kernel.column(name, config, pin);
    let d = &column.base.digest;
    assert!(
        d.mem.iter().flatten().all(|&b| b == 0),
        "cold RAM reads sum to zero"
    );
    assert!(
        d.stats.merged_dcache().read_misses >= 16,
        "the chase misses in the D$"
    );
    assert!(d.stats.dram_reads > 0, "traffic reaches DRAM");
    assert!(
        d.trace.as_ref().unwrap().lines().count() > 10,
        "the trace captured the run"
    );
    if faulted {
        assert!(
            d.fault_draws.iter().flatten().sum::<u64>() > 0,
            "fault streams consumed"
        );
    } else {
        assert_skips_some(&d.stats);
    }
    column
}

/// The unfaulted chase columns, shared by the tests that read them.
fn chase(clustered: bool) -> &'static Column {
    static FLAT: OnceLock<Column> = OnceLock::new();
    static L2_L3: OnceLock<Column> = OnceLock::new();
    let column = if clustered { &L2_L3 } else { &FLAT };
    column.get_or_init(|| chase_column(clustered, false))
}

/// A memory-bound run that skips, and skips only simulated cycles.
fn assert_skips_some(s: &GpuStats) {
    assert!(
        s.skip_events > 0 && s.cycles_skipped > 0,
        "the memory-bound run skips"
    );
    assert!(
        s.cycles_skipped < s.cycles,
        "skipped cycles are a subset of simulated ones"
    );
}

#[test]
fn chase_flat() {
    chase(false).check_all();
}

#[test]
fn chase_flat_faulted() {
    chase_column(false, true).check_all();
}

#[test]
fn chase_l2_l3() {
    chase(true).check_all();
}

#[test]
fn chase_l2_l3_faulted() {
    chase_column(true, true).check_all();
}

#[test]
fn skipping_is_bit_identical() {
    let cells = chase(false).check(&["unobserved", "unobserved_fast_forward_off"]);
    assert_skips_some(&cells[0].digest.stats);
}

#[test]
fn skipping_preserves_telemetry_and_profile() {
    let column = chase(false);
    let live = &column.check(&["fast_forward_off"])[0].digest;
    let ff = &column.base.digest;
    assert!(
        !ff.series.as_ref().unwrap().samples.is_empty(),
        "run long enough to sample"
    );
    assert!(live.series == ff.series && live.profile.is_some() && live.profile == ff.profile);
    assert!(ff.stats.cycles_skipped > 0, "windows do not stop skipping");
}

/// `GpuStats` equality is simulated-state equality: different jump
/// schedules compare equal, an architectural difference does not.
#[test]
fn gpu_stats_equality_ignores_host_skip_accounting() {
    let cells = chase(false).check(&["unobserved", "unobserved_fast_forward_off"]);
    let (ff, live) = (&cells[0].digest.stats, &cells[1].digest.stats);
    assert_ne!(
        (ff.cycles_skipped, ff.skip_events),
        (live.cycles_skipped, live.skip_events)
    );
    assert_eq!(ff, live);
    let mut moved = ff.clone();
    moved.cycles += 1;
    assert_ne!(&moved, live);
}

/// `Gpu::step` is the run loop's live-tick body: driving it by hand lands
/// where `run` with skipping off does, snapshot bytes included.
#[test]
fn hand_stepped_run_equals_run() {
    for clustered in [false, true] {
        let cells = chase(clustered).check(&["unobserved_fast_forward_off", "stepped"]);
        let (ran, stepped) = (&cells[0].digest, &cells[1].digest);
        assert_eq!(
            ran.fingerprint, stepped.fingerprint,
            "snapshot bytes are compared"
        );
        assert!(ran.snapshot.is_some() && ran.snapshot == stepped.snapshot);
    }
}

/// A skipping machine stops on exactly each pause budget with exactly the
/// live machine's snapshot bytes.
#[test]
fn paused_machines_snapshot_identically() {
    let cells = chase(false).check(&["paused", "paused_fast_forward_off"]);
    let (ff, live) = (&cells[0].digest.pauses, &cells[1].digest.pauses);
    assert!(ff.as_ref().is_some_and(|p| p.len() == PAUSES.len()) && ff == live);
}

/// The skipping, sampled cells of the unfaulted chase columns.
fn skipping_sampled() -> [&'static Cell; 3] {
    let flat = chase(false);
    [&flat.base, flat.cell("rerun"), &chase(true).base]
}

#[test]
fn windows_inside_skipped_spans_land_on_exact_boundaries() {
    for cell in skipping_sampled() {
        assert!(
            cell.digest.stats.cycles_skipped > 0,
            "{}: spans were skipped",
            cell.name
        );
        let windows = cell.digest.series.as_ref().unwrap().samples.len();
        assert!(windows > 4, "{}: several windows elapsed", cell.name);
        window_boundaries(cell);
    }
}

#[test]
fn per_window_deltas_cover_every_cycle() {
    for cell in skipping_sampled() {
        assert!(
            cell.digest.stats.cycles_skipped > 0,
            "{}: spans were skipped",
            cell.name
        );
        window_deltas(cell);
    }
}

#[test]
fn whole_run_issue_accounting_is_exact_with_skipping() {
    let flat = chase(false);
    for cell in [&flat.base, flat.cell("unobserved"), &chase(true).base] {
        assert!(
            cell.digest.stats.cycles_skipped > 0,
            "{}: spans were skipped",
            cell.name
        );
        issue_accounting(cell);
    }
}

#[test]
fn series_identical_with_and_without_skipping() {
    let column = chase(false);
    let live = &column.check(&["fast_forward_off"])[0].digest;
    let ff = &column.base.digest;
    assert!(
        live.series.is_some() && live.series == ff.series,
        "telemetry time series"
    );
    // Windows that close inside idle spans split the jumps.
    let (jumps, windows) = (
        ff.stats.skip_events,
        ff.series.as_ref().unwrap().samples.len() as u64,
    );
    assert!(jumps > windows / 2, "{jumps} jumps, {windows} windows");
}

/// The instruction-by-instruction trace (cycle, wavefront, PC, tmask,
/// disassembly) is byte-identical with the decode memo on and off.
#[test]
fn decode_memo_preserves_trace_dumps() {
    for clustered in [false, true] {
        let column = chase(clustered);
        let memo_off = &column.check(&["decode_memo_off"])[0].digest;
        assert!(memo_off.trace.is_some() && memo_off.trace == column.base.digest.trace);
    }
}

const BARRIER_CORES: usize = 8;
const SLOTS: u32 = 0x9000;
const RESULTS: u32 = 0x9400;

/// Barrier/divergence kernel: every core lights up all wavefronts and
/// threads, each thread bumps a private counter through the D$, odd
/// threads diverge, and wavefront 0 / thread 0 of every core runs two
/// rounds of publish → fence → global barrier → sum. Mid-run state covers
/// regfiles, IPDOM stacks, in-flight loads, barrier tables and cross-core
/// memory traffic.
fn barrier_asm() -> Assembler {
    let mut a = Assembler::new();
    a.csrr(Reg::X5, csr::VX_NW);
    a.la(Reg::X6, "worker");
    a.wspawn(Reg::X5, Reg::X6);
    a.j("worker");

    a.label("worker").unwrap();
    a.csrr(Reg::X5, csr::VX_NT);
    a.tmc(Reg::X5);
    a.csrr(Reg::X6, csr::VX_GTID);
    a.slli(Reg::X7, Reg::X6, 2);
    a.li(Reg::X8, SLOTS as i32);
    a.add(Reg::X7, Reg::X7, Reg::X8);
    a.li(Reg::X9, 0);
    a.li(Reg::X10, 16);
    a.label("bump").unwrap();
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 1);
    a.sw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X9, Reg::X9, 1);
    a.blt(Reg::X9, Reg::X10, "bump");
    a.andi(Reg::X12, Reg::X6, 1);
    a.split(Reg::X12);
    a.beqz(Reg::X12, "even");
    a.lw(Reg::X11, Reg::X7, 0);
    a.addi(Reg::X11, Reg::X11, 100);
    a.sw(Reg::X11, Reg::X7, 0);
    a.label("even").unwrap();
    a.join();
    a.csrr(Reg::X13, csr::VX_WID);
    a.csrr(Reg::X14, csr::VX_TID);
    a.add(Reg::X13, Reg::X13, Reg::X14);
    a.seqz(Reg::X13, Reg::X13);
    a.split(Reg::X13);
    a.beqz(Reg::X13, "done");
    a.csrr(Reg::X15, csr::VX_CID);
    a.li(Reg::X20, 0);
    a.li(Reg::X21, 0);
    a.label("round").unwrap();
    a.slli(Reg::X16, Reg::X15, 2);
    a.li(Reg::X17, RESULTS as i32);
    a.add(Reg::X16, Reg::X16, Reg::X17);
    a.addi(Reg::X18, Reg::X21, 7);
    a.sw(Reg::X18, Reg::X16, 0);
    a.fence();
    a.li(Reg::X22, vx::BAR_GLOBAL_BIT as i32);
    a.add(Reg::X22, Reg::X22, Reg::X20);
    a.li(Reg::X23, BARRIER_CORES as i32);
    a.bar(Reg::X22, Reg::X23);
    a.li(Reg::X24, RESULTS as i32);
    for i in 0..BARRIER_CORES as i32 {
        a.lw(Reg::X25, Reg::X24, i * 4);
        a.add(Reg::X21, Reg::X21, Reg::X25);
    }
    a.li(Reg::X22, vx::BAR_GLOBAL_BIT as i32);
    a.addi(Reg::X22, Reg::X22, 4);
    a.add(Reg::X22, Reg::X22, Reg::X20);
    a.li(Reg::X23, BARRIER_CORES as i32);
    a.bar(Reg::X22, Reg::X23);
    a.addi(Reg::X20, Reg::X20, 1);
    a.li(Reg::X26, 2);
    a.blt(Reg::X20, Reg::X26, "round");
    a.sw(Reg::X21, Reg::X16, 4 * BARRIER_CORES as i32);
    a.label("done").unwrap();
    a.join();
    a.ecall();
    a
}

fn barrier_kernel(faulted: bool) -> Kernel {
    Kernel::new(
        barrier_asm,
        SLOTS..RESULTS + 4 * (BARRIER_CORES as u32 + 1),
        faulted,
    )
}

/// The barrier column, with or without the fault plan, after the checks
/// every barrier base must pass.
fn barrier_column(faulted: bool) -> Column {
    let mut config = observed(BARRIER_CORES);
    config.watchdog_cycles = 50_000;
    let pin = if faulted { 3_374 } else { 2_233 };
    let column = barrier_kernel(faulted).column("barrier", config, pin);
    let d = &column.base.digest;
    let mem = d.mem.as_ref().unwrap();
    let gtid0 = u32::from_le_bytes(mem[0..4].try_into().unwrap());
    assert_eq!(gtid0, 16, "gtid 0 bumped its slot 16 times");
    assert!(
        !d.series.as_ref().unwrap().samples.is_empty(),
        "the run is long enough to sample"
    );
    let profile = vortex_obs::parse_profile(d.profile.as_ref().unwrap()).unwrap();
    assert!(
        profile.sites.values().any(|s| s.divergences > 0),
        "divergent branch site attributed"
    );
    assert!(
        profile.sites.values().any(|s| s.loads > 0 && s.stores == 0),
        "load site attributed"
    );
    if faulted {
        assert!(
            d.fault_draws.iter().flatten().sum::<u64>() > 0,
            "fault streams consumed"
        );
    }
    column
}

/// The unfaulted barrier column, shared by the tests that read it.
fn barrier() -> &'static Column {
    static COLUMN: OnceLock<Column> = OnceLock::new();
    COLUMN.get_or_init(|| barrier_column(false))
}

#[test]
fn barrier_divergence() {
    barrier().check_all();
}

#[test]
fn barrier_divergence_faulted() {
    barrier_column(true).check_all();
}

/// Killed and rebuilt from the snapshot alone every 400 cycles, the run
/// equals the continuous one.
#[test]
fn interrupted_run_is_bit_identical() {
    barrier().check(&["unobserved", "interrupted_unobserved"]);
}

/// 400 is no multiple of the 32-cycle window, so resumes land mid-window
/// and the accumulated deltas must survive the round trip.
#[test]
fn interrupted_sampled_run_is_bit_identical() {
    let column = barrier();
    let resumed = &column.check(&["interrupted"])[0].digest;
    assert!(resumed.series.is_some() && resumed.series == column.base.digest.series);
}

/// save → restore → save reproduces the bytes at every pause and every
/// interruption ([`resume`] checks each).
#[test]
fn resaved_snapshot_bytes_are_identical() {
    barrier().check(&["paused", "interrupted", "interrupted_unobserved"]);
}

#[test]
fn profile_is_byte_identical_run_to_run() {
    let column = barrier();
    let rerun = &column.check(&["rerun"])[0].digest;
    assert!(rerun.profile.is_some() && rerun.profile == column.base.digest.profile);
}

#[test]
fn profile_json_round_trips_through_reader() {
    let doc = barrier().base.digest.profile.as_ref().unwrap();
    let parsed = vortex_obs::parse_profile(doc).expect("profile document parses");
    assert_eq!(
        &vortex_obs::render_profile_json("invariants", &parsed),
        doc,
        "render∘parse"
    );
}

/// The profile payload rides in the core snapshot: a field save/restore
/// missed shows up as a diff after the drill's and the interruptions'
/// round trips.
#[test]
fn profile_survives_checkpoint_restore() {
    let column = barrier();
    for cell in column.check(&["checkpoint_drill", "interrupted"]) {
        assert!(cell.digest.profile.is_some() && cell.digest.profile == column.base.digest.profile);
    }
}

#[test]
fn profiling_is_observation_only_and_totals_match() {
    let column = barrier();
    let plain = &column.check(&["unobserved"])[0].digest;
    assert!(plain.profile.is_none() && plain.stats == column.base.digest.stats);
    profile_totals(&column.base);
}

/// `(full buffer, redirect block, outstanding fetch)` somewhere in the
/// machine, read through the public front-end view: a redirect block is a
/// fetch-blocked wavefront that is neither full nor waiting on a fetch.
fn front_end_busy(gpu: &Gpu) -> (bool, bool, bool) {
    let (mut full, mut cf_block, mut pending) = (false, false, false);
    for cid in 0..gpu.config().num_cores {
        let front = gpu.core(cid).front_end();
        for wid in 0..gpu.config().core.num_wavefronts {
            let is_full = front.len(wid) == FrontEnd::IBUFFER_DEPTH;
            let is_pending = front.fetch_pending(wid).is_some();
            full |= is_full;
            pending |= is_pending;
            cf_block |= front.fetch_blocked() & (1 << wid) != 0 && !is_full && !is_pending;
        }
    }
    (full, cf_block, pending)
}

/// The front-end masks are derived state rebuilt at the end of a restore.
/// Pause exactly where every mirrored predicate is live at once — full
/// instruction buffers, a redirect block, an outstanding fetch — so a mask
/// rebuilt too early (or not at all) changes what the resumed machine
/// fetches and runs.
#[test]
fn busy_front_end_resume() {
    let base = &barrier().base;
    let mut config = base.config.clone();
    unobserved(&mut config);
    let kernel = barrier_kernel(false);
    let mut gpu = kernel.boot(config.clone());
    let mut pauses = 0;
    while !gpu.is_done() {
        gpu.step().expect("kernel does not trap");
        if !gpu.cycle().is_multiple_of(7) || front_end_busy(&gpu) != (true, true, true) {
            continue;
        }
        // Flush deferred idle ticks so the snapshot sees settled state.
        assert!(gpu.run(gpu.cycle()).is_err(), "a busy machine is not done");
        gpu = resume(&mut gpu).0;
        assert_eq!(front_end_busy(&gpu), (true, true, true));
        pauses += 1;
    }
    assert!(pauses >= 10, "busy front-end states are common ({pauses})");
    let stats = gpu.run(BUDGET).expect("kernel completes");
    let resumed = Cell {
        name: "barrier/busy_front_end_resume".into(),
        digest: Digest {
            mem: Some(
                kernel
                    .out
                    .clone()
                    .map(|addr| gpu.ram.read_u8(addr))
                    .collect(),
            ),
            fault_draws: Some(gpu.fault_draws()),
            stats,
            ..Digest::default()
        },
        config,
    };
    audit(&resumed);
    assert_same(base, &resumed);
}

// --- Benchmark workloads ---------------------------------------------------

/// The column of `bench` on `config`, run through `Benchmark::run_on`,
/// which yields stats, the validation verdict, the series and the profile.
fn bench_column(
    bench: Box<dyn Benchmark>,
    config: GpuConfig,
    rows: &[Row],
    pin: Option<u64>,
) -> Column {
    let name = bench.name();
    let run = move |config: &GpuConfig, drive| {
        assert!(
            matches!(drive, Drive::Run),
            "benchmarks only run to completion"
        );
        let r = bench.run_on(config);
        let name = &r.name;
        assert_eq!(
            r.profile.is_some(),
            config.profile,
            "{name}: a profile iff profiling is on"
        );
        Digest {
            stats: r.stats,
            validated: Some(r.validated),
            series: r.series,
            profile: r.profile.as_ref().map(profile_doc),
            ..Digest::default()
        }
    };
    Column::new(name, config, rows, pin, Box::new(run))
}

/// Pins the base run's fast-forward jump count, and its skip share above
/// `num / den` of the simulated cycles. The jump schedule is a function of
/// simulated state alone.
fn assert_skips(column: &Column, skip_events: u64, (num, den): (u64, u64)) {
    let s = &column.base.digest.stats;
    assert_eq!(
        s.skip_events, skip_events,
        "{}: jump count moved",
        column.name
    );
    assert!(
        s.cycles_skipped * den > s.cycles * num,
        "{}: skipped {} of {} cycles, under {num}/{den}",
        column.name,
        s.cycles_skipped,
        s.cycles
    );
}

const GATES: [&str; 4] = ["sgemm", "bfs", "nearn", "texture"];

/// The single-core gate columns, every cell pinned to the gate's cycle
/// count. The gate bfs is also the default-latency fast-forward column.
fn gate(name: &str) -> &'static Column {
    static COLUMNS: [OnceLock<Column>; 4] = [const { OnceLock::new() }; 4];
    let i = GATES.iter().position(|&g| g == name).expect("a gate");
    COLUMNS[i].get_or_init(|| {
        let (bench, pin): (Box<dyn Benchmark>, u64) = match name {
            "sgemm" => (Box::new(Sgemm::default()), 81_970),
            "bfs" => (Box::new(Bfs::default()), 793_827),
            "nearn" => (Box::new(Nearn::default()), 23_140),
            _ => (
                Box::new(TexBench::new(FilterKind::Bilinear, true, 6)),
                47_603,
            ),
        };
        let rows: &[Row] = match name {
            "bfs" => &[PROFILED, SAMPLED, GATE_DRILL, FAST_FORWARD_OFF],
            _ => GATE_ROWS,
        };
        bench_column(bench, GpuConfig::with_cores(1), rows, Some(pin))
    })
}

#[test]
fn gate_sgemm() {
    gate("sgemm").check_all();
}

#[test]
fn gate_bfs() {
    gate("bfs").check_all();
}

#[test]
fn gate_nearn() {
    gate("nearn").check_all();
}

#[test]
fn gate_texture() {
    gate("texture").check_all();
}

/// `--sample` never perturbs what it measures.
#[test]
fn telemetry_sampling_is_timing_invisible() {
    for name in GATES {
        gate(name).check(&["sampled"]);
    }
}

#[test]
fn gate_cycles_identical_with_profiling_on() {
    for name in GATES {
        let column = gate(name);
        assert!(
            column.base.digest.profile.is_none(),
            "profiling off yields no profile"
        );
        profile_totals(column.check(&["profiled"])[0]);
    }
}

#[test]
fn gate_workloads_survive_checkpoint_drill() {
    for name in GATES {
        gate(name).check(&["checkpoint_drill"]);
    }
}

#[test]
fn bfs_default_fast_forward_skips_a_quarter() {
    let column = gate("bfs");
    column.check(&["fast_forward_off"]);
    assert_skips(column, 6_711, (1, 4));
}

/// Figure 21's deepest latency point: 400-cycle DRAM round trips turn
/// almost every miss into a long idle span.
#[test]
fn bfs_dram_latency_400() {
    let mut config = GpuConfig::with_cores(1);
    config.dram.latency = 400;
    let column = bench_column(
        Box::new(Bfs::default()),
        config,
        &[FAST_FORWARD_OFF],
        Some(2_334_927),
    );
    column.check_all();
    assert_skips(&column, 6_850, (6, 10));
}

/// With 16 cores in flight the global horizon almost never opens (some
/// DRAM channel completes a fill nearly every cycle); what must hold is
/// that skipping never perturbs the multi-core simulation.
#[test]
fn bfs_mc16() {
    let config = GpuConfig::with_cores(16);
    bench_column(
        Box::new(Bfs::default()),
        config,
        &[FAST_FORWARD_OFF],
        Some(51_862),
    )
    .check_all();
}

/// The graphics gate: geometry, binning and the SIMT raster kernel with
/// hardware texture sampling on 16 flat cores.
#[test]
fn raster_quick_mc16() {
    bench_column(
        Box::new(RasterBench::quick()),
        GpuConfig::with_cores(16),
        &[],
        Some(226_212),
    );
}

/// Cycle at which [`reduce_snapshot_bytes_are_pinned`] pauses its run.
const REDUCE_PAUSE: u64 = 3_000;

/// The `.vxsnap` bytes themselves are pinned across versions, not only
/// compared within one build: a 16-core shared-memory reduction paused
/// mid-kernel, whose memory image spans the heap, the stacks, the argument
/// block, the code and the scratchpads (core 15's in the top 4 MiB).
#[test]
fn reduce_snapshot_bytes_are_pinned() {
    use vortex_core::{smem_phys, SMEM_BASE};
    use vortex_runtime::{ArgWriter, Device, RuntimeError};
    let n = 4096u32;
    let mut dev = Device::new(GpuConfig::with_cores(16));
    let data: Vec<u8> = (0..n).flat_map(|i| (i * 37 % 1000).to_le_bytes()).collect();
    let input = dev.alloc(4 * n).expect("alloc in");
    dev.upload(input, &data).expect("upload");
    let out = dev.alloc(4 * 16).expect("alloc out");
    let mut args = ArgWriter::new();
    args.word(input.addr).word(out.addr).word(n).word(0);
    dev.write_args(&args);
    let program = vortex_kernels::reduce::program(true);
    dev.load_program(&program);
    dev.max_cycles = REDUCE_PAUSE;
    match dev.run_kernel(program.entry) {
        Err(RuntimeError::Timeout { .. }) => {}
        other => panic!("expected a pause mid-kernel, got {other:?}"),
    }
    let bytes = dev.save_snapshot();

    // The Ram image closes the GPU payload: a count, then 4 KiB pages
    // tagged with their index, followed by the GPU's and the device's CRCs.
    let pages = dev.gpu().ram.resident_pages();
    let start = bytes.len() - 8 - 8 - pages * (4 + 4096);
    assert_eq!(
        bytes[start..start + 8],
        (pages as u64).to_le_bytes(),
        "page count anchor"
    );
    let index = |k: usize| {
        let at = start + 8 + k * (4 + 4096);
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    };
    let mut regions: Vec<u32> = (0..pages).map(|k| index(k) >> 10).collect();
    regions.dedup();
    assert!(
        regions.len() >= 4,
        "pages in only {} 4 MiB regions",
        regions.len()
    );
    let top = smem_phys(SMEM_BASE, 15) >> 12;
    assert!(
        (0..pages).any(|k| index(k) == top),
        "core 15's scratchpad is resident"
    );

    // Recorded under the flat page directory that preceded the two-level
    // `Ram` table: how `Ram` holds its pages must not move a byte.
    assert_eq!(
        vortex_snapshot::fnv1a64(&bytes),
        0x20cd_6c71_6634_a115,
        "snapshot bytes moved"
    );
    let mut resumed = Device::new(GpuConfig::with_cores(16));
    resumed
        .restore_snapshot(&bytes)
        .expect("own snapshot restores");
    assert!(
        resumed.save_snapshot() == bytes,
        "re-saved snapshot differs"
    );
}

/// The reduce kernel of [`reduce_snapshot_bytes_are_pinned`] on `config`,
/// loaded but not launched: the device and the kernel's entry.
fn reduce_device(config: GpuConfig) -> (vortex_runtime::Device, u32) {
    use vortex_runtime::{ArgWriter, Device};
    let n = 4096u32;
    let mut dev = Device::new(config);
    let data: Vec<u8> = (0..n).flat_map(|i| (i * 37 % 1000).to_le_bytes()).collect();
    let input = dev.alloc(4 * n).expect("alloc in");
    dev.upload(input, &data).expect("upload");
    let out = dev.alloc(4 * 16).expect("alloc out");
    let mut args = ArgWriter::new();
    args.word(input.addr).word(out.addr).word(n).word(0);
    dev.write_args(&args);
    let program = vortex_kernels::reduce::program(true);
    dev.load_program(&program);
    (dev, program.entry)
}

/// The HW-texture bilinear blit of the `texture` gate (a 64×64 texture),
/// loaded but not launched: the device and the kernel's entry.
fn texture_device(config: GpuConfig) -> (vortex_runtime::Device, u32) {
    use vortex_kernels::texture::{build_texture_with_mips, program};
    use vortex_runtime::{ArgWriter, Device};
    let bench = TexBench::new(FilterKind::Bilinear, true, 6);
    let tex = build_texture_with_mips(6);
    let mut dev = Device::new(config);
    let buf_tex = dev.alloc(tex.len() as u32).expect("alloc tex");
    let buf_dst = dev.alloc(64 * 64 * 4).expect("alloc dst");
    dev.upload(buf_tex, &tex).expect("upload tex");
    let mut args = ArgWriter::new();
    args.word(buf_tex.addr)
        .word(6)
        .word(buf_dst.addr)
        .word(1)
        .float(0.0)
        .word(0)
        .word(buf_tex.addr + 64 * 64 * 4);
    dev.write_args(&args);
    let prog = program(&bench);
    dev.load_program(&prog);
    (dev, prog.entry)
}

/// Runs a loaded device `pause` cycles into its kernel and returns the
/// `fnv1a64` of its `.vxsnap` bytes, after checking that they restore and
/// re-save to themselves.
fn paused_snapshot_digest((mut dev, entry): (vortex_runtime::Device, u32), pause: u64) -> u64 {
    use vortex_runtime::{Device, RuntimeError};
    dev.max_cycles = pause;
    match dev.run_kernel(entry) {
        Err(RuntimeError::Timeout { .. }) => {}
        other => panic!("expected a pause mid-kernel, got {other:?}"),
    }
    let bytes = dev.save_snapshot();
    let mut resumed = Device::new(dev.gpu().config().clone());
    resumed
        .restore_snapshot(&bytes)
        .expect("own snapshot restores");
    assert!(
        resumed.save_snapshot() == bytes,
        "re-saved snapshot differs"
    );
    vortex_snapshot::fnv1a64(&bytes)
}

/// Mid-kernel `.vxsnap` bytes of every machine shape and observer the
/// snapshot carries, pinned across versions: four clusters behind L2s and
/// an L3, telemetry sampling, the profiler, a fault plan, and the texture
/// unit. A change to how any component saves its state moves one of these.
#[test]
fn snapshot_bytes_are_pinned_per_component() {
    let with = |edit: fn(&mut GpuConfig)| {
        let mut c = GpuConfig::with_cores(16);
        edit(&mut c);
        c
    };
    let clustered = with(|c| {
        c.cores_per_cluster = 4;
        c.l2 = Some(vortex_mem::hierarchy::l2_default());
        c.l3 = Some(vortex_mem::hierarchy::l3_default());
    });
    let faulted = {
        let (mut dev, entry) = reduce_device(GpuConfig::with_cores(16));
        let spec = "seed=1,elastic_stall=200,dram_delay=300,dram_extra_latency=64";
        dev.gpu_mut()
            .apply_faults(&FaultConfig::from_spec(spec).expect("valid spec"));
        (dev, entry)
    };
    let got = [
        (
            "clusters4_l2_l3",
            paused_snapshot_digest(reduce_device(clustered), REDUCE_PAUSE),
        ),
        (
            "sampled",
            paused_snapshot_digest(
                reduce_device(with(|c| c.sample_interval = INTERVAL)),
                REDUCE_PAUSE,
            ),
        ),
        (
            "profiled",
            paused_snapshot_digest(reduce_device(with(|c| c.profile = true)), REDUCE_PAUSE),
        ),
        ("faulted", paused_snapshot_digest(faulted, REDUCE_PAUSE)),
        (
            "hw_texture",
            paused_snapshot_digest(texture_device(GpuConfig::with_cores(1)), 20_000),
        ),
    ];
    let pinned = [
        ("clusters4_l2_l3", 0xb6a8_99b0_42af_410b),
        ("sampled", 0xc6d4_2a9c_15a1_3bb5),
        ("profiled", 0x34d1_76bd_9797_2187),
        ("faulted", 0x24e2_f234_e982_b476),
        ("hw_texture", 0x6d82_a628_d8f5_a218),
    ];
    let moved: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, a), (_, b))| a != b)
        .map(|((name, a), (_, b))| format!("{name}: {a:#018x}, pinned {b:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "snapshot bytes moved:\n{}",
        moved.join("\n")
    );
}

/// Every kernel generator the repo ships assembles, to the same bytes as
/// before encodability was checked in one place: the `fnv1a64` of each
/// `Program::to_bytes()` is pinned, the texture kernels at both Figure 20
/// scales (a 128×128 blit and a 1024×1024 texture on a 1920×1080 target).
#[test]
fn kernel_images_are_pinned() {
    use vortex_gfx::{raster, RenderState};
    use vortex_kernels::{reduce, rodinia, texture};
    let textured = RenderState {
        texturing: true,
        hw_texture: true,
        ..RenderState::default()
    };
    let mut images = vec![
        ("bfs".to_string(), rodinia::bfs::program()),
        ("gaussian".to_string(), rodinia::gaussian::program()),
        ("nearn".to_string(), rodinia::nearn::program()),
        ("saxpy".to_string(), rodinia::saxpy::program()),
        ("sfilter".to_string(), rodinia::sfilter::program()),
        ("sgemm".to_string(), rodinia::sgemm::program()),
        ("vecadd".to_string(), rodinia::vecadd::program()),
        ("reduce/global".to_string(), reduce::program(false)),
        ("reduce/smem".to_string(), reduce::program(true)),
        ("raster/quick".to_string(), raster::program(&textured)),
        (
            "raster/default".to_string(),
            raster::program(&RenderState::default()),
        ),
    ];
    for filter in [
        FilterKind::Point,
        FilterKind::Bilinear,
        FilterKind::Trilinear,
    ] {
        for hw in [true, false] {
            let tag = format!("texture/{}/{}", filter.name(), if hw { "hw" } else { "sw" });
            let full_hd = TexBench::new(filter, hw, 10).with_target(1920, 1080);
            images.push((
                format!("{tag}/128"),
                texture::program(&TexBench::new(filter, hw, 7)),
            ));
            images.push((format!("{tag}/1080p"), texture::program(&full_hd)));
        }
    }
    let pins: [(&str, u64); 23] = [
        ("bfs", 0x7c48_9a85_40da_3c14),
        ("gaussian", 0x2eb6_2b52_d219_ada6),
        ("nearn", 0x2dac_ccbb_e30e_d2e6),
        ("saxpy", 0xc369_1cf8_df74_f3aa),
        ("sfilter", 0x2ef0_8d3b_79ef_b192),
        ("sgemm", 0x6635_89e8_00c4_90cf),
        ("vecadd", 0x8257_e069_a7fd_a959),
        ("reduce/global", 0xa1a1_7294_5696_e71a),
        ("reduce/smem", 0xa95c_80b8_5646_3672),
        ("raster/quick", 0x33cb_a2fb_dbc2_1bf8),
        ("raster/default", 0x8066_f7fe_85cf_8094),
        ("texture/point/hw/128", 0x7123_6845_b360_5365),
        ("texture/point/hw/1080p", 0xfcfe_39dc_a1ea_7ce1),
        ("texture/point/sw/128", 0xfe2f_a430_381c_e937),
        ("texture/point/sw/1080p", 0xa307_b40b_45ca_b79b),
        ("texture/bilinear/hw/128", 0x0005_7474_c0b9_e255),
        ("texture/bilinear/hw/1080p", 0x0e89_2ad6_f243_9651),
        ("texture/bilinear/sw/128", 0x5660_8a99_4392_f8b1),
        ("texture/bilinear/sw/1080p", 0x8fa9_561b_ecd1_e70b),
        ("texture/trilinear/hw/128", 0x71f2_0c39_700b_aff7),
        ("texture/trilinear/hw/1080p", 0xa427_bf22_a0b4_997b),
        ("texture/trilinear/sw/128", 0x5053_5f4f_e70a_a3bb),
        ("texture/trilinear/sw/1080p", 0x4125_7149_9a90_b00a),
    ];
    assert_eq!(images.len(), pins.len());
    for ((name, program), (pin_name, pin)) in images.iter().zip(pins) {
        assert_eq!(name, pin_name);
        let hash = vortex_snapshot::fnv1a64(&program.to_bytes());
        assert_eq!(hash, pin, "{name}: image bytes moved ({hash:#018x})");
    }
}

/// The registered workloads at their fast sizes on 4 profiled cores, with
/// the decode memo on (base) and off, each pinned to its cycle count.
fn registered() -> &'static [Column] {
    static COLUMNS: OnceLock<Vec<Column>> = OnceLock::new();
    COLUMNS.get_or_init(|| {
        let mut config = GpuConfig::with_cores(4);
        config.profile = true;
        let benches = vortex_bench::registered_benches(true).into_iter();
        benches
            .map(|(key, b)| {
                let pin = match key {
                    "sgemm" => 3_105,
                    "bfs" => 9_409,
                    "nearn" => 1_324,
                    "texture" => 4_953,
                    "raster" => 836_346,
                    other => panic!("no pin for registered workload {other}"),
                };
                bench_column(b, config.clone(), &[DECODE_MEMO_OFF], Some(pin))
            })
            .collect()
    })
}

/// The decode memo is a pure host-side cache: stats and profile are
/// identical with it on and off.
#[test]
fn decode_memo_is_timing_invisible() {
    for column in registered() {
        column.check(&["decode_memo_off"]);
    }
}

/// One decode memo per GPU: the registered sgemm kernel (fast size) on
/// sixteen cores misses about as often as on one, where sixteen private
/// tables would each pay the cold misses again (about 16x).
#[test]
fn sixteen_cores_share_one_decode_memo() {
    use vortex_runtime::{ArgWriter, Device};
    let misses = |cores| {
        let n = 12u32;
        let mut dev = Device::new(GpuConfig::with_cores(cores));
        let bufs: Vec<_> = (0..3)
            .map(|_| dev.alloc(n * n * 4).expect("alloc"))
            .collect();
        let mut args = ArgWriter::new();
        args.word(bufs[0].addr)
            .word(bufs[1].addr)
            .word(bufs[2].addr)
            .word(n);
        dev.write_args(&args);
        let prog = vortex_kernels::rodinia::sgemm::program();
        dev.load_program(&prog);
        dev.run_kernel(prog.entry).expect("sgemm finishes");
        let (hits, misses) = dev.gpu().decode_memo_stats();
        assert!(hits > misses, "{cores} cores: the memo must serve the loop");
        misses
    };
    let (one, sixteen) = (misses(1), misses(16));
    assert!(one > 20, "one core decodes the kernel text ({one} misses)");
    assert!(
        sixteen <= 2 * one,
        "16 cores missed {sixteen} times, 1 core {one}"
    );
}

/// Every instruction word the registered workloads execute resolves to the
/// same slot (need mask, gate, fetch-blocking) through the decode memo — on
/// a miss, on a hit, and after other words contended for its entry — as
/// through a fresh `Slot::resolve`.
#[test]
fn memoized_slots_equal_fresh_resolution_on_every_workload_word() {
    use vortex_core::decode_cache::DecodeCache;
    use vortex_core::frontend::Slot;
    for column in registered() {
        let name = &column.name;
        column.check(&["decode_memo_off"]);
        let doc = column.base.digest.profile.as_ref().unwrap();
        let profile = vortex_obs::parse_profile(doc).expect("profile document parses");
        assert!(
            profile.sites.len() > 20,
            "{name}: profile covers the kernel"
        );
        let mut memo = DecodeCache::new();
        for pass in 0..2 {
            for (&pc, site) in &profile.sites {
                let instr = vortex_isa::decode(site.word).expect("executed word decodes");
                assert_eq!(
                    memo.decode(site.word)
                        .expect("executed word decodes")
                        .at(pc),
                    Slot::resolve(&instr).at(pc),
                    "{name} pass {pass} pc {pc:#x} word {:#010x}",
                    site.word
                );
            }
        }
    }
}
