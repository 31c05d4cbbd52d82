//! Rendering for the PC-level profiler ([`vortex_core::profile`]): the
//! disassembly-annotated hotspot table, the `vortex-profile-v1` JSON
//! export (with a round-tripping reader), a folded-stacks file for
//! standard flamegraph tooling, and label symbolization.
//!
//! Everything here is a pure function of a [`GpuProfile`] — which is
//! itself bit-identical run to run and across checkpoint boundaries — so
//! every artifact in this module inherits that determinism byte for byte.

use crate::json::{num, quote, Value};
use std::fmt::Write as _;
use vortex_core::profile::{GpuProfile, PcStats};

/// Schema tag of the profile JSON export.
pub const PROFILE_SCHEMA: &str = "vortex-profile-v1";

/// Address → label symbolization, built from an assembler symbol table
/// (e.g. `vortex_asm::Program::symbols`). Lookup resolves to the nearest
/// label at or below the PC, with the byte offset — the usual
/// `kernel+0x14` notation.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    /// `(address, label)`, sorted by address then label.
    entries: Vec<(u32, String)>,
}

impl Symbols {
    /// Builds a table from `(label, address)` pairs (the assembler's
    /// orientation). Ties on address sort by label so symbolization is
    /// deterministic regardless of input order.
    pub fn new(entries: impl IntoIterator<Item = (String, u32)>) -> Self {
        let mut entries: Vec<(u32, String)> =
            entries.into_iter().map(|(name, addr)| (addr, name)).collect();
        entries.sort();
        Self { entries }
    }

    /// `true` when the table has no labels.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The nearest label at or below `pc` and the offset from it.
    pub fn resolve(&self, pc: u32) -> Option<(&str, u32)> {
        let idx = self.entries.partition_point(|&(addr, _)| addr <= pc);
        let (addr, name) = self.entries.get(idx.checked_sub(1)?)?;
        Some((name, pc - addr))
    }

    /// `label+0xoff` (or bare `label` at offset 0); empty when unknown.
    pub fn annotate(&self, pc: u32) -> String {
        match self.resolve(pc) {
            Some((name, 0)) => name.to_string(),
            Some((name, off)) => format!("{name}+{off:#x}"),
            None => String::new(),
        }
    }
}

/// Disassembles an instruction word, falling back to a `.word` directive
/// for encodings the decoder rejects.
fn disasm(word: u32) -> String {
    vortex_isa::decode(word).map_or_else(|_| format!(".word {word:#010x}"), |i| i.to_string())
}

/// Sites ranked hottest-first: thread-instruction count descending, then
/// issues descending, then PC ascending — a total, deterministic order.
fn ranked(profile: &GpuProfile) -> Vec<(u32, &PcStats)> {
    let mut sites: Vec<(u32, &PcStats)> = profile.sites.iter().map(|(&pc, s)| (pc, s)).collect();
    sites.sort_by(|a, b| {
        (b.1.thread_instrs, b.1.issues, a.0).cmp(&(a.1.thread_instrs, a.1.issues, b.0))
    });
    sites
}

fn dcache_hit_pct(s: &PcStats) -> String {
    let total = s.dcache_probe_hits + s.dcache_probe_misses;
    if total == 0 {
        "-".to_string()
    } else {
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * s.dcache_probe_hits as f64 / total as f64;
        format!("{pct:.1}")
    }
}

/// Renders the top-`top` hotspot table with per-PC disassembly. The
/// footer totals cover *all* sites (not just the rows shown): the
/// thread-instrs total equals the run's `GpuStats::total_thread_instrs`
/// and the issues total equals its `total_instrs` whenever profiling was
/// enabled for the whole run.
pub fn render_report(profile: &GpuProfile, top: usize, symbols: Option<&Symbols>) -> String {
    let sites = ranked(profile);
    let shown = sites.len().min(top);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10}  {:<26} {:>10} {:>12} {:>5} {:>8} {:>9} {:>9} {:>7} {:>7} {:>6}  where",
        "pc",
        "instruction",
        "issues",
        "thr-instrs",
        "lanes",
        "diverge",
        "stall-sb",
        "stall-fu",
        "loads",
        "stores",
        "d$hit%",
    );
    for &(pc, s) in &sites[..shown] {
        let loc = symbols.map(|t| t.annotate(pc)).unwrap_or_default();
        let _ = writeln!(
            out,
            "{pc:#010x}  {:<26} {:>10} {:>12} {:>5.1} {:>8} {:>9} {:>9} {:>7} {:>7} {:>6}  {loc}",
            disasm(s.word),
            s.issues,
            s.thread_instrs,
            s.avg_lanes(),
            s.divergences,
            s.stall_scoreboard,
            s.stall_fu_busy,
            s.loads,
            s.stores,
            dcache_hit_pct(s),
        );
    }
    let _ = writeln!(
        out,
        "{} of {} sites shown; totals over all sites: issues {}, thread-instrs {}, \
         attributed stalls {}",
        shown,
        sites.len(),
        profile.total_issues(),
        profile.total_thread_instrs(),
        profile.total_attributed_stalls(),
    );
    out
}

/// Renders a full program-order annotated listing: every profiled site in
/// ascending PC order with its counters, label lines interleaved where a
/// symbol starts. The `vxsim --annotate` output.
pub fn render_annotated(profile: &GpuProfile, symbols: Option<&Symbols>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>10}  {:<26} {:>10} {:>12} {:>5} {:>8} {:>9} {:>9}",
        "pc", "instruction", "issues", "thr-instrs", "lanes", "diverge", "stall-sb", "stall-fu"
    );
    let mut last_label: Option<String> = None;
    for (&pc, s) in &profile.sites {
        if let Some(t) = symbols {
            if let Some((name, _)) = t.resolve(pc) {
                if last_label.as_deref() != Some(name) {
                    let _ = writeln!(out, "{name}:");
                    last_label = Some(name.to_string());
                }
            }
        }
        let _ = writeln!(
            out,
            "{pc:#010x}  {:<26} {:>10} {:>12} {:>5.1} {:>8} {:>9} {:>9}",
            disasm(s.word),
            s.issues,
            s.thread_instrs,
            s.avg_lanes(),
            s.divergences,
            s.stall_scoreboard,
            s.stall_fu_busy,
        );
    }
    out
}

/// Renders the `vortex-profile-v1` JSON document. Fully deterministic:
/// sites are emitted in ascending PC order and every field derives from
/// the (already deterministic) merged profile, so two bit-identical
/// profiles render to byte-identical documents.
pub fn render_profile_json(label: &str, profile: &GpuProfile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": {},", quote(PROFILE_SCHEMA));
    let _ = writeln!(out, "  \"label\": {},", quote(label));
    let _ = writeln!(out, "  \"num_threads\": {},", profile.num_threads);
    let _ = writeln!(out, "  \"total_issues\": {},", profile.total_issues());
    let _ = writeln!(
        out,
        "  \"total_thread_instrs\": {},",
        profile.total_thread_instrs()
    );
    let _ = writeln!(out, "  \"sites\": [");
    let n = profile.sites.len();
    for (i, (&pc, s)) in profile.sites.iter().enumerate() {
        let comma = if i + 1 == n { "" } else { "," };
        let hist = s
            .lane_hist
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "    {{\"pc\": {pc}, \"word\": {}, \"disasm\": {}, \"issues\": {}, \
             \"thread_instrs\": {}, \"divergences\": {}, \"stall_scoreboard\": {}, \
             \"stall_fu_busy\": {}, \"loads\": {}, \"stores\": {}, \"dcache_probe_hits\": {}, \
             \"dcache_probe_misses\": {}, \"smem_accesses\": {}, \"lane_hist\": [{hist}]}}{comma}",
            s.word,
            quote(&disasm(s.word)),
            s.issues,
            s.thread_instrs,
            s.divergences,
            s.stall_scoreboard,
            s.stall_fu_busy,
            s.loads,
            s.stores,
            s.dcache_probe_hits,
            s.dcache_probe_misses,
            s.smem_accesses,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    let n = v
        .get(key)
        .and_then(Value::as_num)
        .ok_or_else(|| format!("missing numeric field '{key}'"))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(n as u64)
}

/// Parses a `vortex-profile-v1` document back into a [`GpuProfile`]
/// (dropping the derived `disasm` strings). `parse_profile ∘
/// render_profile_json` is the identity on profiles.
///
/// # Errors
/// A message naming the first syntax or schema violation.
pub fn parse_profile(text: &str) -> Result<GpuProfile, String> {
    let v = Value::parse(text)?;
    let schema = v
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!("unexpected schema '{schema}'"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let num_threads = field_u64(&v, "num_threads")? as usize;
    let mut profile = GpuProfile::new(num_threads);
    for site in v
        .get("sites")
        .and_then(Value::as_arr)
        .ok_or("missing sites array")?
    {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pc = field_u64(site, "pc")? as u32;
        let hist = site
            .get("lane_hist")
            .and_then(Value::as_arr)
            .ok_or("missing lane_hist")?;
        if hist.len() != num_threads + 1 {
            return Err(format!("lane_hist length {} at pc {pc}", hist.len()));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let lane_hist = hist
            .iter()
            .map(|h| h.as_num().map(|n| n as u64).ok_or("non-numeric lane_hist"))
            .collect::<Result<Vec<u64>, _>>()?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stats = PcStats {
            word: field_u64(site, "word")? as u32,
            issues: field_u64(site, "issues")?,
            thread_instrs: field_u64(site, "thread_instrs")?,
            divergences: field_u64(site, "divergences")?,
            stall_scoreboard: field_u64(site, "stall_scoreboard")?,
            stall_fu_busy: field_u64(site, "stall_fu_busy")?,
            loads: field_u64(site, "loads")?,
            stores: field_u64(site, "stores")?,
            dcache_probe_hits: field_u64(site, "dcache_probe_hits")?,
            dcache_probe_misses: field_u64(site, "dcache_probe_misses")?,
            smem_accesses: field_u64(site, "smem_accesses")?,
            lane_hist,
        };
        if profile.sites.insert(pc, stats).is_some() {
            return Err(format!("duplicate site pc {pc}"));
        }
    }
    Ok(profile)
}

/// Renders a folded-stacks file (`frame;frame;frame weight` per line, the
/// input format of standard flamegraph tools). Each issued site becomes a
/// three-frame stack — root, symbol (or `?`), `pc: disasm` — weighted by
/// its thread-instruction count; stall-only sites carry no weight and are
/// skipped. Lines are emitted hottest-first (same order as the report).
pub fn render_folded(profile: &GpuProfile, symbols: Option<&Symbols>) -> String {
    let mut out = String::new();
    for (pc, s) in ranked(profile) {
        if s.thread_instrs == 0 {
            continue;
        }
        let frame = symbols
            .and_then(|t| t.resolve(pc))
            .map_or_else(|| "?".to_string(), |(name, _)| name.to_string());
        // Semicolons separate frames; scrub them from the disassembly so
        // an operand can never split a frame.
        let text = disasm(s.word).replace(';', ",");
        let _ = writeln!(out, "vortex;{frame};{pc:#010x} {text} {}", s.thread_instrs);
    }
    out
}

impl crate::perfetto::Timeline {
    /// Adds the profile's top-`top` sites as a dedicated "profile" counter
    /// track: one `ph: "C"` sample per site with `ts` = hotness rank, the
    /// per-PC issue/thread-instr/stall counters as numeric args, and one
    /// instant naming the disassembly of each ranked site.
    pub fn add_profile_summary(&mut self, profile: &GpuProfile, top: usize) {
        const PROFILE_PID: usize = 9500;
        self.push_raw(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {PROFILE_PID}, \
             \"args\": {{\"name\": \"profile\"}}}}"
        ));
        for (rank, (pc, s)) in ranked(profile).into_iter().take(top).enumerate() {
            self.push_raw(format!(
                "{{\"name\": \"hotspot\", \"ph\": \"C\", \"ts\": {rank}, \
                 \"pid\": {PROFILE_PID}, \"args\": {{\"issues\": {}, \"thread_instrs\": {}, \
                 \"divergences\": {}, \"stall_scoreboard\": {}, \"stall_fu_busy\": {}}}}}",
                s.issues, s.thread_instrs, s.divergences, s.stall_scoreboard, s.stall_fu_busy
            ));
            self.push_raw(format!(
                "{{\"name\": {}, \"ph\": \"i\", \"ts\": {rank}, \"pid\": {PROFILE_PID}, \
                 \"tid\": 0, \"s\": \"t\", \"args\": {{\"pc\": {}, \"rank\": {rank}, \
                 \"avg_lanes\": {}}}}}",
                quote(&disasm(s.word)),
                quote(&format!("{pc:#010x}")),
                num(s.avg_lanes()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfetto::Timeline;

    /// A tiny synthetic profile: a hot ALU site, a divergent branch, and a
    /// load with mixed probe results.
    fn sample_profile() -> GpuProfile {
        let mut p = GpuProfile::new(4);
        let mut hot = PcStats {
            word: 0x0000_0013, // addi x0, x0, 0
            issues: 100,
            thread_instrs: 400,
            divergences: 0,
            stall_scoreboard: 7,
            stall_fu_busy: 0,
            loads: 0,
            stores: 0,
            dcache_probe_hits: 0,
            dcache_probe_misses: 0,
            smem_accesses: 0,
            lane_hist: vec![0, 0, 0, 0, 100],
        };
        p.sites.insert(0x8000_0000, hot.clone());
        hot.issues = 10;
        hot.thread_instrs = 25;
        hot.divergences = 10;
        hot.lane_hist = vec![0, 0, 5, 5, 0];
        p.sites.insert(0x8000_0010, hot.clone());
        hot.divergences = 0;
        hot.loads = 10;
        hot.dcache_probe_hits = 30;
        hot.dcache_probe_misses = 10;
        p.sites.insert(0x8000_0020, hot);
        p
    }

    #[test]
    fn report_ranks_by_thread_instrs_and_totals_all_sites() {
        let p = sample_profile();
        let syms = Symbols::new([("kernel".to_string(), 0x8000_0000)]);
        let report = render_report(&p, 2, Some(&syms));
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 rows + footer");
        assert!(lines[1].starts_with("0x80000000"), "hottest first: {}", lines[1]);
        assert!(lines[1].contains("addi"), "disassembly column: {}", lines[1]);
        assert!(lines[1].ends_with("kernel"));
        assert!(lines[2].contains("kernel+0x10"));
        assert!(
            lines[3].contains("thread-instrs 450"),
            "footer totals cover unshown sites: {}",
            lines[3]
        );
    }

    #[test]
    fn annotated_listing_is_program_order_with_labels() {
        let p = sample_profile();
        let syms = Symbols::new([("kernel".to_string(), 0x8000_0000)]);
        let text = render_annotated(&p, Some(&syms));
        let kernel_line = text.lines().position(|l| l == "kernel:").unwrap();
        let pcs: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("0x"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(pcs.len(), 3);
        assert!(kernel_line < pcs[0], "label precedes its instructions");
    }

    #[test]
    fn json_round_trips_exactly() {
        let p = sample_profile();
        let text = render_profile_json("unit", &p);
        let v = Value::parse(&text).expect("valid JSON");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
        assert_eq!(v.get("total_thread_instrs").unwrap().as_num(), Some(450.0));
        let back = parse_profile(&text).expect("parses");
        assert_eq!(back, p, "reader inverts the writer");
        // And the rendering of the parsed profile is byte-identical.
        assert_eq!(render_profile_json("unit", &back), text);
    }

    #[test]
    fn parser_rejects_wrong_schema_and_bad_hist() {
        assert!(parse_profile("{\"schema\": \"vortex-stats-v1\"}").is_err());
        let doc = render_profile_json("x", &sample_profile());
        let broken = doc.replace("\"num_threads\": 4", "\"num_threads\": 3");
        assert!(parse_profile(&broken).is_err(), "histogram length checked");
    }

    #[test]
    fn folded_stacks_weight_by_thread_instrs() {
        let mut p = sample_profile();
        // A stall-only site must not appear in the flamegraph.
        p.sites.insert(
            0x8000_0030,
            PcStats {
                word: 0x0000_0013,
                issues: 0,
                thread_instrs: 0,
                divergences: 0,
                stall_scoreboard: 3,
                stall_fu_busy: 0,
                loads: 0,
                stores: 0,
                dcache_probe_hits: 0,
                dcache_probe_misses: 0,
                smem_accesses: 0,
                lane_hist: vec![0; 5],
            },
        );
        let syms = Symbols::new([("kernel".to_string(), 0x8000_0000)]);
        let folded = render_folded(&p, Some(&syms));
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3, "stall-only site skipped");
        assert!(lines[0].starts_with("vortex;kernel;0x80000000 "));
        assert!(lines[0].ends_with(" 400"), "weight is thread_instrs: {}", lines[0]);
        for l in &lines {
            assert_eq!(l.split(';').count(), 3, "three frames per stack: {l}");
        }
    }

    #[test]
    fn symbols_resolve_nearest_at_or_below() {
        let syms = Symbols::new([
            ("b".to_string(), 0x100),
            ("a".to_string(), 0x10),
        ]);
        assert_eq!(syms.resolve(0xC), None);
        assert_eq!(syms.resolve(0x10), Some(("a", 0)));
        assert_eq!(syms.resolve(0xFF), Some(("a", 0xEF)));
        assert_eq!(syms.resolve(0x104), Some(("b", 4)));
        assert_eq!(syms.annotate(0x104), "b+0x4");
        assert_eq!(syms.annotate(0x100), "b");
    }

    #[test]
    fn timeline_summary_emits_counter_track() {
        let mut t = Timeline::new();
        t.add_profile_summary(&sample_profile(), 2);
        let v = Value::parse(&t.render()).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // process_name + 2 × (counter + instant).
        assert_eq!(events.len(), 5);
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get("args").unwrap().get("thread_instrs").unwrap().as_num(),
            Some(400.0)
        );
    }
}
