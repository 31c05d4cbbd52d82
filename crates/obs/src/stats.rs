//! Structured `GpuStats` export: the machine-readable counterpart of
//! `vxsim`'s stdout report.
//!
//! Schema (`"schema": "vortex-stats-v1"`): whole-GPU totals with derived
//! metrics (`ipc`, `thread_ipc`, `divergences`, merged cache counters
//! with hit rates),
//! one object per core under `"cores"`, and — when sampling was enabled —
//! the windowed time series under `"timeseries"` (per-window counter
//! deltas and occupancies; `null` when sampling was off). Hit rates use
//! the `measured` convention: an idle cache exports `null`, never a
//! phantom 100%.

use crate::json::{num, opt_num, quote};
use std::fmt::Write as _;
use vortex_core::stats::{CoreStats, GpuStats, StallStats};
use vortex_core::telemetry::TimeSeries;
use vortex_mem::cache::CacheStats;
use vortex_tex::TexUnitStats;

/// Schema identifier stamped into every export.
pub const STATS_SCHEMA: &str = "vortex-stats-v1";

fn stalls_json(s: &StallStats) -> String {
    format!(
        "{{\"ibuffer_empty\": {}, \"scoreboard\": {}, \"fu_busy\": {}, \"total\": {}}}",
        s.ibuffer_empty,
        s.scoreboard,
        s.fu_busy,
        s.total()
    )
}

fn cache_json(c: &CacheStats) -> String {
    format!(
        "{{\"reads\": {}, \"writes\": {}, \"read_hits\": {}, \"read_misses\": {}, \
         \"mshr_merges\": {}, \"bank_conflicts\": {}, \"hit_rate\": {}}}",
        c.reads,
        c.writes,
        c.read_hits,
        c.read_misses,
        c.mshr_merges,
        c.bank_conflicts,
        opt_num(c.measured_hit_rate())
    )
}

fn tex_json(t: &TexUnitStats) -> String {
    format!(
        "{{\"requests\": {}, \"texels_generated\": {}, \"texels_fetched\": {}, \
         \"mem_busy_cycles\": {}, \"idle_cycles\": {}}}",
        t.requests, t.texels_generated, t.texels_fetched, t.mem_busy_cycles, t.idle_cycles
    )
}

fn core_json(c: &CoreStats) -> String {
    format!(
        "{{\"cycles\": {}, \"instrs\": {}, \"thread_instrs\": {}, \"ipc\": {}, \
         \"thread_ipc\": {}, \"loads\": {}, \"stores\": {}, \"tex_ops\": {}, \
         \"barriers\": {}, \"divergences\": {}, \"smem_accesses\": {}, \
         \"smem_conflicts\": {}, \"stalls\": {}, \"icache\": {}, \"dcache\": {}, \
         \"tex\": {}}}",
        c.cycles,
        c.instrs,
        c.thread_instrs,
        num(c.ipc()),
        num(c.thread_ipc()),
        c.loads,
        c.stores,
        c.tex_ops,
        c.barriers,
        c.divergences,
        c.smem_accesses,
        c.smem_conflicts,
        stalls_json(&c.stalls),
        cache_json(&c.icache),
        cache_json(&c.dcache),
        tex_json(&c.tex)
    )
}

fn timeseries_json(ts: &TimeSeries) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n    \"interval\": {}, \"truncated\": {},\n    \"samples\": [",
        ts.interval, ts.truncated
    );
    for (i, s) in ts.samples.iter().enumerate() {
        let comma = if i + 1 == ts.samples.len() { "" } else { "," };
        let mut cores = String::new();
        for (j, w) in s.cores.iter().enumerate() {
            let ccomma = if j + 1 == s.cores.len() { "" } else { ", " };
            let _ = write!(
                cores,
                "{{\"instrs\": {}, \"thread_instrs\": {}, \"ipc\": {}, \"stalls\": {}, \
                 \"ibuffer\": {}, \"mshr\": {}, \"icache_reads\": {}, \"icache_hits\": {}, \
                 \"dcache_reads\": {}, \"dcache_hits\": {}}}{ccomma}",
                w.instrs,
                w.thread_instrs,
                num(w.ipc(ts.interval)),
                stalls_json(&w.stalls),
                w.ibuffer_occupancy,
                w.mshr_pending,
                w.icache_reads,
                w.icache_hits,
                w.dcache_reads,
                w.dcache_hits
            );
        }
        let _ = write!(
            out,
            "\n      {{\"cycle\": {}, \"dram_reads\": {}, \"dram_writes\": {}, \
             \"cores\": [{cores}]}}{comma}",
            s.cycle, s.dram_reads, s.dram_writes
        );
    }
    out.push_str("\n    ]\n  }");
    out
}

/// Renders the full stats document. `label` names the run (kernel file,
/// benchmark name); `series` is the sampled time series when telemetry
/// was enabled.
pub fn render_stats(label: &str, stats: &GpuStats, series: Option<&TimeSeries>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote(STATS_SCHEMA));
    let _ = writeln!(out, "  \"label\": {},", quote(label));
    let _ = writeln!(out, "  \"cycles\": {},", stats.cycles);
    let _ = writeln!(out, "  \"cycles_skipped\": {},", stats.cycles_skipped);
    let _ = writeln!(out, "  \"skip_events\": {},", stats.skip_events);
    let _ = writeln!(out, "  \"total_instrs\": {},", stats.total_instrs());
    let _ = writeln!(
        out,
        "  \"total_thread_instrs\": {},",
        stats.total_thread_instrs()
    );
    let _ = writeln!(out, "  \"ipc\": {},", num(stats.ipc()));
    let _ = writeln!(out, "  \"thread_ipc\": {},", num(stats.thread_ipc()));
    let _ = writeln!(out, "  \"divergences\": {},", stats.total_divergences());
    let _ = writeln!(out, "  \"dram_reads\": {},", stats.dram_reads);
    let _ = writeln!(out, "  \"dram_writes\": {},", stats.dram_writes);
    let _ = writeln!(out, "  \"stalls\": {},", stalls_json(&stats.merged_stalls()));
    let _ = writeln!(out, "  \"icache\": {},", cache_json(&stats.merged_icache()));
    let _ = writeln!(out, "  \"dcache\": {},", cache_json(&stats.merged_dcache()));
    let _ = writeln!(out, "  \"tex\": {},", tex_json(&stats.merged_tex()));
    out.push_str("  \"cores\": [\n");
    for (i, c) in stats.cores.iter().enumerate() {
        let comma = if i + 1 == stats.cores.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{comma}", core_json(c));
    }
    out.push_str("  ],\n");
    match series {
        Some(ts) => {
            let _ = writeln!(out, "  \"timeseries\": {}", timeseries_json(ts));
        }
        None => out.push_str("  \"timeseries\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Renders a sweep as an array of `{label, point-stats}` rows — the
/// machine-diffable artifact the fig binaries emit under `--stats-json`.
pub fn render_sweep(title: &str, rows: &[(String, GpuStats)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", quote("vortex-sweep-v1"));
    let _ = writeln!(out, "  \"title\": {},", quote(title));
    out.push_str("  \"points\": [\n");
    for (i, (label, stats)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"label\": {}, \"cycles\": {}, \"cycles_skipped\": {}, \
             \"skip_events\": {}, \"instrs\": {}, \
             \"thread_instrs\": {}, \"ipc\": {}, \"thread_ipc\": {}, \
             \"divergences\": {}, \
             \"dram_reads\": {}, \"dram_writes\": {}, \"dcache_hit_rate\": {}, \
             \"stalls\": {}}}{comma}",
            quote(label),
            stats.cycles,
            stats.cycles_skipped,
            stats.skip_events,
            stats.total_instrs(),
            stats.total_thread_instrs(),
            num(stats.ipc()),
            num(stats.thread_ipc()),
            stats.total_divergences(),
            stats.dram_reads,
            stats.dram_writes,
            opt_num(stats.merged_dcache().measured_hit_rate()),
            stalls_json(&stats.merged_stalls())
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use vortex_core::telemetry::{CoreWindow, TelemetrySample};

    fn sample_stats() -> GpuStats {
        let mut core = CoreStats {
            cycles: 1000,
            instrs: 400,
            thread_instrs: 1600,
            loads: 50,
            stores: 25,
            divergences: 9,
            ..CoreStats::default()
        };
        core.stalls.scoreboard = 300;
        core.stalls.ibuffer_empty = 250;
        core.stalls.fu_busy = 50;
        core.dcache.reads = 50;
        core.dcache.read_hits = 40;
        GpuStats {
            cycles: 1000,
            cores: vec![core; 2],
            dram_reads: 12,
            dram_writes: 3,
            cycles_skipped: 120,
            skip_events: 4,
        }
    }

    #[test]
    fn stats_document_parses_and_holds_derived_metrics() {
        let doc = render_stats("unit", &sample_stats(), None);
        let v = Value::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(STATS_SCHEMA));
        assert_eq!(v.get("cycles").unwrap().as_num(), Some(1000.0));
        assert_eq!(v.get("cycles_skipped").unwrap().as_num(), Some(120.0));
        assert_eq!(v.get("skip_events").unwrap().as_num(), Some(4.0));
        assert_eq!(v.get("total_instrs").unwrap().as_num(), Some(800.0));
        assert_eq!(v.get("total_thread_instrs").unwrap().as_num(), Some(3200.0));
        assert_eq!(v.get("divergences").unwrap().as_num(), Some(18.0));
        assert!((v.get("ipc").unwrap().as_num().unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(v.get("cores").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            v.get("dcache").unwrap().get("hit_rate").unwrap().as_num(),
            Some(0.8)
        );
        // Idle icache: measured hit rate must export as null, not 100%.
        assert_eq!(
            v.get("icache").unwrap().get("hit_rate"),
            Some(&Value::Null)
        );
        assert_eq!(v.get("timeseries"), Some(&Value::Null));
    }

    #[test]
    fn timeseries_rows_survive_the_roundtrip() {
        let ts = TimeSeries {
            interval: 500,
            truncated: false,
            samples: vec![TelemetrySample {
                cycle: 500,
                cores: vec![CoreWindow {
                    instrs: 100,
                    thread_instrs: 400,
                    ibuffer_occupancy: 3,
                    mshr_pending: 2,
                    dcache_reads: 10,
                    dcache_hits: 9,
                    ..CoreWindow::default()
                }],
                dram_reads: 7,
                dram_writes: 1,
            }],
        };
        let doc = render_stats("unit", &sample_stats(), Some(&ts));
        let v = Value::parse(&doc).expect("valid JSON");
        let series = v.get("timeseries").unwrap();
        assert_eq!(series.get("interval").unwrap().as_num(), Some(500.0));
        let samples = series.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 1);
        let w = &samples[0].get("cores").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("instrs").unwrap().as_num(), Some(100.0));
        assert_eq!(w.get("ibuffer").unwrap().as_num(), Some(3.0));
        assert_eq!(w.get("mshr").unwrap().as_num(), Some(2.0));
        assert!((w.get("ipc").unwrap().as_num().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sweep_rows_parse_with_labels() {
        let rows = vec![
            ("4W-4T".to_string(), sample_stats()),
            ("8W-2T".to_string(), sample_stats()),
        ];
        let doc = render_sweep("fig14", &rows);
        let v = Value::parse(&doc).expect("valid JSON");
        let points = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("label").unwrap().as_str(), Some("8W-2T"));
        assert_eq!(points[0].get("cycles").unwrap().as_num(), Some(1000.0));
        assert_eq!(points[0].get("cycles_skipped").unwrap().as_num(), Some(120.0));
        assert_eq!(points[0].get("skip_events").unwrap().as_num(), Some(4.0));
        assert_eq!(points[0].get("divergences").unwrap().as_num(), Some(18.0));
    }
}
