//! Chrome/Perfetto `trace_event` timeline export.
//!
//! Produces the JSON Trace Event Format that both `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) load directly: one *process*
//! per core and one *thread* per wavefront, instruction issues as
//! duration events (`ph: "X"`, one simulated cycle = 1 µs), the sampled
//! stall/occupancy series as counter tracks (`ph: "C"`), and watchdog
//! hang diagnoses as instant events (`ph: "i"`). This is the visual
//! counterpart of the paper's `(PC, wavefront)` pipeline tags (§4.4):
//! per-warp activity becomes a scrubbing timeline instead of a text ring.

use crate::json::quote;
use std::fmt::Write as _;
use vortex_core::error::HangReport;
use vortex_core::telemetry::TimeSeries;
use vortex_core::trace::TraceEvent;
use vortex_gfx::RasterProfile;
use vortex_tex::TexUnitStats;

/// Track (trace "process") id the raster tile counters render under —
/// far above any realistic core count, so it never collides with the
/// per-core tracks or the whole-GPU "memory" track.
const RASTER_PID: usize = 9000;

/// Incrementally builds a timeline document. Events are serialized as
/// they are added, so a million-event trace never holds two copies.
#[derive(Debug, Default)]
pub struct Timeline {
    events: Vec<String>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends one pre-serialized event (crate-internal: other modules'
    /// `Timeline` extensions emit through this).
    pub(crate) fn push_raw(&mut self, event: String) {
        self.events.push(event);
    }

    /// `true` when no events were added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names core `id`'s track (a trace "process").
    pub fn name_core(&mut self, core: usize) {
        self.events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {core}, \
             \"args\": {{\"name\": {}}}}}",
            quote(&format!("core {core}"))
        ));
    }

    /// Names wavefront `wid` of core `core` (a trace "thread").
    pub fn name_warp(&mut self, core: usize, wid: usize) {
        self.events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {core}, \"tid\": {wid}, \
             \"args\": {{\"name\": {}}}}}",
            quote(&format!("warp {wid}"))
        ));
    }

    /// Adds one issued instruction as a 1-cycle duration event on its
    /// warp's track.
    pub fn add_instr(&mut self, e: &TraceEvent) {
        self.events.push(format!(
            "{{\"name\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": 1, \"pid\": {}, \
             \"tid\": {}, \"args\": {{\"pc\": {}, \"tmask\": {}}}}}",
            quote(&e.text),
            e.cycle,
            e.core,
            e.wid,
            quote(&format!("{:#010x}", e.pc)),
            quote(&format!("{:#b}", e.tmask))
        ));
    }

    /// Adds an instruction trace for a core, emitting track-name metadata
    /// for every warp that appears.
    pub fn add_core_trace<'a>(
        &mut self,
        core: usize,
        events: impl IntoIterator<Item = &'a TraceEvent>,
    ) {
        self.name_core(core);
        let mut named_warps = 0u64;
        for e in events {
            if e.wid < 64 && named_warps & (1 << e.wid) == 0 {
                named_warps |= 1 << e.wid;
                self.name_warp(core, e.wid);
            }
            self.add_instr(e);
        }
    }

    /// Adds the sampled time series as counter tracks: per-core stall
    /// breakdown, ibuffer/MSHR occupancy and cache hit counts, plus one
    /// whole-GPU DRAM track (`pid` = core count, named "memory").
    pub fn add_time_series(&mut self, ts: &TimeSeries) {
        let num_cores = ts.samples.first().map_or(0, |s| s.cores.len());
        if num_cores == 0 {
            return;
        }
        self.events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {num_cores}, \
             \"args\": {{\"name\": \"memory\"}}}}"
        ));
        for s in &ts.samples {
            for (core, w) in s.cores.iter().enumerate() {
                self.events.push(format!(
                    "{{\"name\": \"stalls\", \"ph\": \"C\", \"ts\": {}, \"pid\": {core}, \
                     \"args\": {{\"ibuffer_empty\": {}, \"scoreboard\": {}, \
                     \"fu_busy\": {}}}}}",
                    s.cycle, w.stalls.ibuffer_empty, w.stalls.scoreboard, w.stalls.fu_busy
                ));
                self.events.push(format!(
                    "{{\"name\": \"occupancy\", \"ph\": \"C\", \"ts\": {}, \"pid\": {core}, \
                     \"args\": {{\"ibuffer\": {}, \"mshr\": {}}}}}",
                    s.cycle, w.ibuffer_occupancy, w.mshr_pending
                ));
                self.events.push(format!(
                    "{{\"name\": \"instrs\", \"ph\": \"C\", \"ts\": {}, \"pid\": {core}, \
                     \"args\": {{\"instrs\": {}}}}}",
                    s.cycle, w.instrs
                ));
            }
            self.events.push(format!(
                "{{\"name\": \"dram\", \"ph\": \"C\", \"ts\": {}, \"pid\": {num_cores}, \
                 \"args\": {{\"reads\": {}, \"writes\": {}}}}}",
                s.cycle, s.dram_reads, s.dram_writes
            ));
        }
    }

    /// Adds the host rasterizer's per-tile profile as a counter track on a
    /// dedicated "raster" process: one `ph: "C"` sample per tile in
    /// row-major order with `ts` = tile index, so the track reads as a
    /// spatial sweep across the frame (left→right, top→bottom) rather than
    /// a time axis. Each sample carries the tile's binned-triangle count
    /// and its covered / shaded / texture-sample totals — hot tiles stand
    /// out as peaks. A frame-level instant summarizes the totals, folding
    /// in the device texture-unit counters for the same frame when given.
    pub fn add_raster_profile(&mut self, profile: &RasterProfile, tex: Option<&TexUnitStats>) {
        self.events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {RASTER_PID}, \
             \"args\": {{\"name\": \"raster\"}}}}"
        ));
        for (i, t) in profile.tiles.iter().enumerate() {
            self.events.push(format!(
                "{{\"name\": \"tile\", \"ph\": \"C\", \"ts\": {i}, \"pid\": {RASTER_PID}, \
                 \"args\": {{\"tris\": {}, \"covered\": {}, \"shaded\": {}, \
                 \"tex_samples\": {}}}}}",
                t.tris, t.covered, t.shaded, t.tex_samples
            ));
        }
        let tex_args = tex.map_or_else(String::new, |t| {
            format!(
                ", \"tex_requests\": {}, \"texels_generated\": {}, \"texels_fetched\": {}",
                t.requests, t.texels_generated, t.texels_fetched
            )
        });
        self.events.push(format!(
            "{{\"name\": {}, \"ph\": \"i\", \"ts\": 0, \"pid\": {RASTER_PID}, \"tid\": 0, \
             \"s\": \"p\", \"args\": {{\"tiles_x\": {}, \"tiles_y\": {}, \"covered\": {}, \
             \"shaded\": {}, \"tex_samples\": {}{tex_args}}}}}",
            quote("frame"),
            profile.tiles_x,
            profile.tiles_y,
            profile.total(|t| t.covered),
            profile.total(|t| t.shaded),
            profile.total(|t| t.tex_samples),
        ));
    }

    /// Adds the watchdog's hang diagnosis: one global instant marking the
    /// abort cycle plus one instant per stuck warp on its own track,
    /// carrying the warp's stall reason and queue occupancies.
    pub fn add_hang_report(&mut self, report: &HangReport) {
        self.events.push(format!(
            "{{\"name\": {}, \"ph\": \"i\", \"ts\": {}, \"pid\": 0, \"tid\": 0, \
             \"s\": \"g\", \"args\": {{\"window\": {}}}}}",
            quote("watchdog: no forward progress"),
            report.cycle,
            report.window
        ));
        for core in &report.cores {
            for w in &core.warps {
                self.events.push(format!(
                    "{{\"name\": {}, \"ph\": \"i\", \"ts\": {}, \"pid\": {}, \
                     \"tid\": {}, \"s\": \"t\", \"args\": {{\"pc\": {}, \"stall\": {}, \
                     \"tmask\": {}, \"ibuffer\": {}, \"fetch_pending\": {}}}}}",
                    quote(&format!("stuck: warp {}", w.wid)),
                    report.cycle,
                    core.core,
                    w.wid,
                    quote(&format!("{:#010x}", w.pc)),
                    quote(&format!("{:?}", w.stall)),
                    quote(&format!("{:#b}", w.tmask)),
                    w.ibuffer,
                    w.fetch_pending
                ));
            }
        }
    }

    /// Renders the complete document (JSON Object Format, so metadata can
    /// declare the cycle→µs time mapping).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n\"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 == self.events.len() { "" } else { "," };
            let _ = writeln!(out, "{e}{comma}");
        }
        out.push_str(
            "],\n\"displayTimeUnit\": \"ms\",\n\"metadata\": {\"tool\": \"vortex-obs\", \
             \"time_unit\": \"1us = 1 simulated cycle\"}\n}\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn instr(cycle: u64, core: usize, wid: usize) -> TraceEvent {
        TraceEvent {
            cycle,
            core,
            wid,
            pc: 0x8000_0000 + cycle as u32 * 4,
            tmask: 0b11,
            text: format!("addi x{wid}, x0, 1"),
        }
    }

    #[test]
    fn timeline_parses_and_names_tracks() {
        let mut t = Timeline::new();
        t.add_core_trace(0, &[instr(1, 0, 0), instr(2, 0, 1), instr(3, 0, 0)]);
        let doc = t.render();
        let v = Value::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process_name + 2 thread_name (warps 0 and 1, named once) + 3 X.
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 3);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 3);
        let x = events.iter().find(|e| e.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(x.get("dur").unwrap().as_num(), Some(1.0));
        assert!(x.get("args").unwrap().get("pc").unwrap().as_str().unwrap().starts_with("0x"));
    }

    #[test]
    fn raster_profile_becomes_a_spatial_counter_track() {
        use vortex_gfx::TileRasterStats;

        let mut t = Timeline::new();
        let profile = RasterProfile {
            tiles_x: 2,
            tiles_y: 1,
            tiles: vec![
                TileRasterStats { tris: 3, covered: 10, shaded: 8, tex_samples: 8 },
                TileRasterStats { tris: 1, covered: 4, shaded: 4, tex_samples: 0 },
            ],
        };
        let tex = TexUnitStats {
            requests: 8,
            texels_generated: 32,
            texels_fetched: 20,
            ..TexUnitStats::default()
        };
        t.add_raster_profile(&profile, Some(&tex));
        let v = Value::parse(&t.render()).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // process_name + 2 tile counters + frame instant.
        assert_eq!(events.len(), 4);
        let tiles: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(tiles.len(), 2);
        // ts is the tile index (a spatial axis), args carry the stats.
        assert_eq!(tiles[1].get("ts").unwrap().as_num(), Some(1.0));
        assert_eq!(tiles[0].get("args").unwrap().get("shaded").unwrap().as_num(), Some(8.0));
        let frame = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .expect("frame instant");
        let args = frame.get("args").unwrap();
        assert_eq!(args.get("covered").unwrap().as_num(), Some(14.0));
        assert_eq!(args.get("tex_samples").unwrap().as_num(), Some(8.0));
        assert_eq!(args.get("texels_fetched").unwrap().as_num(), Some(20.0));
    }

    #[test]
    fn counter_and_instant_events_carry_numeric_args() {
        use vortex_core::error::{CoreHangState, WarpHangState};
        use vortex_core::telemetry::{CoreWindow, TelemetrySample};
        use vortex_core::warp::StallReason;

        let mut t = Timeline::new();
        t.add_time_series(&TimeSeries {
            interval: 100,
            truncated: false,
            samples: vec![TelemetrySample {
                cycle: 100,
                cores: vec![CoreWindow {
                    instrs: 42,
                    ibuffer_occupancy: 2,
                    ..CoreWindow::default()
                }],
                dram_reads: 9,
                dram_writes: 2,
            }],
        });
        t.add_hang_report(&HangReport {
            cycle: 5000,
            window: 1000,
            cores: vec![CoreHangState {
                core: 0,
                warps: vec![WarpHangState {
                    wid: 1,
                    pc: 0x8000_0010,
                    tmask: 0b1,
                    stall: StallReason::Barrier,
                    ibuffer: 1,
                    fetch_pending: false,
                }],
                lsu_pending: 0,
                completions: 0,
                fence_waiters: 0,
                icache: Default::default(),
                dcache: Default::default(),
                tex: Default::default(),
            }],
            memory: Default::default(),
        });
        let v = Value::parse(&t.render()).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        // stalls + occupancy + instrs (core 0) + dram.
        assert_eq!(counters.len(), 4);
        let dram = counters.iter().find(|e| e.get("name").unwrap().as_str() == Some("dram")).unwrap();
        assert_eq!(dram.get("args").unwrap().get("reads").unwrap().as_num(), Some(9.0));
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .collect();
        assert_eq!(instants.len(), 2, "global + one stuck warp");
        assert!(instants[1]
            .get("args")
            .unwrap()
            .get("stall")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("Barrier"));
    }
}
