//! Spans recorded around calls into the simulator's public functions.
//!
//! The benchmark records a span at each layer boundary it can see from
//! outside: name, start, end, the span that caused it, and the rep it
//! belongs to. Spans stay in memory and are written out when the process
//! ends. A disabled tracer reads no clock and stores nothing, so the
//! untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use vortex_obs::json;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`runtime.run_kernel`, `kernels.reference`).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The rep this span belongs to.
    pub rep: u32,
}

/// Records nested spans; `begin`/`end` pair like a stack.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of rep `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.begin("rep");
    }

    /// Closes every span still open (an aborted rep leaves children
    /// open), ending the rep.
    pub fn end_rep(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            rep: self.rep,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per rep, the summed duration in seconds of the spans called `name`.
    pub fn per_rep_seconds(&self, name: &str) -> Vec<f64> {
        let mut by_rep: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_rep.entry(s.rep).or_default() += s.end_ns - s.start_ns;
        }
        by_rep.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [",
            json::quote(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}}}",
                if i == 0 { "" } else { "," },
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.rep
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover (children of one parent never overlap — the
/// tracer is a stack).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Median self time per rep, in seconds, of each span name (a rep's self
/// time for a name is the sum over that name's spans in the rep).
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let own = self_times_ns(spans);
    let mut per_name: BTreeMap<&'static str, BTreeMap<u32, u64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        *per_name
            .entry(s.name)
            .or_default()
            .entry(s.rep)
            .or_default() += ns;
    }
    per_name
        .into_iter()
        .map(|(name, reps)| {
            let secs: Vec<f64> = reps.values().map(|&ns| ns as f64 * 1e-9).collect();
            (name, crate::stats::median(&secs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children_nested_and_adjacent() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("asm.build", 15, 25, Some(1)), // nested in setup
            span("sim", 40, 90, Some(0)),       // adjacent to setup
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 50]);
    }

    #[test]
    fn tracer_assigns_parents_from_the_open_stack() {
        let mut t = Tracer::new(true);
        t.begin_rep(7);
        t.begin("setup");
        t.begin("asm.build");
        t.end();
        t.end();
        t.begin("sim");
        t.end_rep(); // closes sim and rep
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("rep", None),
                ("setup", Some(0)),
                ("asm.build", Some(1)),
                ("sim", Some(0)),
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.rep == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.per_rep_seconds("sim").len(), 1);
        assert!(json::Value::parse(&t.to_json("w", 1)).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_rep(0);
        t.begin("setup");
        t.end_rep();
        assert!(t.spans().is_empty());
    }
}
