//! Printing a run: the metric table, the result object with its
//! provenance, and the one-line object the benchmark driver reads.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{host_cpus, Outcome, RunOpts};
use crate::trace::self_time_table;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use vortex_obs::json;

/// Stated in every result: what "correct" can and cannot mean here.
pub const VALIDATION_NOTE: &str = "cycle model unvalidated against hardware - no error figure; \
correct = device output equals the host reference and GpuStats repeat exactly";
/// Stated in every result: the state modelled caches start in.
pub const CACHE_NOTE: &str = "every rep opens a fresh device: modelled caches start empty";

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn table_of(outcome: &Outcome) -> &'static [MetricDef] {
    if outcome.mode == "trace" {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn metrics_json(outcome: &Outcome) -> String {
    // `assert_matches` put the values in table order.
    let fields: Vec<String> = outcome
        .metrics
        .iter()
        .zip(table_of(outcome))
        .map(|((name, value), def)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(*value),
                json::quote(def.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The full result object: metrics plus everything needed to read them.
pub fn result_json(opts: &RunOpts, outcome: &Outcome) -> String {
    let failures: Vec<String> = outcome.failures.iter().map(|f| json::quote(f)).collect();
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, values)| {
            let values: Vec<String> = values.iter().map(|v| json::num(*v)).collect();
            format!("{}: [{}]", json::quote(name), values.join(", "))
        })
        .collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"vxmeter\": 1, \"workload\": {}, \"mode\": {}, \"seed\": {}, \"reps\": {}, \
         \"tail_pct\": {}, \"host_cpus\": {}, \"rustc\": {}, \"commit\": {}, \
         \"validation\": {}, \"caches\": {}, \"attempted\": {}, \"failed\": {}, \
         \"op_fail_share\": {}, \"failures\": [{}], \"stats_digest\": \"{:016x}\", \"metrics\": {}, \
         \"samples\": {{{}}}}}",
        json::quote(opts.workload.name()),
        json::quote(outcome.mode),
        opts.seed,
        outcome.reps,
        json::num(outcome.tail_pct),
        host_cpus(),
        json::quote(&first_line_of("rustc", &["--version"])),
        json::quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        json::quote(VALIDATION_NOTE),
        json::quote(CACHE_NOTE),
        outcome.attempted,
        outcome.failed,
        json::num(outcome.failed as f64 / outcome.attempted as f64),
        failures.join(", "),
        outcome.stats_digest,
        metrics_json(outcome),
        samples.join(", "),
    );
    out
}

/// The object the benchmark driver reads from the last line of stdout.
pub fn driver_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(outcome)
    )
}

/// The human-readable report: one `name value unit` line per metric.
pub fn table(opts: &RunOpts, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# vxmeter {} {} seed={} reps={} tail_pct={:.1} host_cpus={}",
        outcome.mode,
        opts.workload.name(),
        opts.seed,
        outcome.reps,
        outcome.tail_pct,
        host_cpus()
    );
    let _ = writeln!(out, "# {VALIDATION_NOTE}");
    let _ = writeln!(out, "# {CACHE_NOTE}");
    for ((name, value), def) in outcome.metrics.iter().zip(table_of(outcome)) {
        let _ = writeln!(out, "{name} {value} {}", def.unit);
    }
    if outcome.tracer.enabled() {
        let _ = writeln!(out, "# self time per span name, median per rep");
        for (name, seconds) in self_time_table(outcome.tracer.spans()) {
            let _ = writeln!(out, "self.{name} {seconds} s");
        }
    }
    let _ = writeln!(
        out,
        "op_fail_share {} ratio ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        let _ = writeln!(out, "FAILED {failure}");
    }
    out
}
