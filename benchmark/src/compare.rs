//! `compare A.json B.json`: is B, measured against A, inside the bounds?
//!
//! Both files come from `vxmeter all`. End-to-end timings and memory may
//! worsen by their bound; simulated statistics (`exact` metrics, end-to-
//! end and per-layer) must be equal in both directions when the two
//! files share a seed; per-layer timings carry no bound and are not
//! judged; `op_fail_share` may not rise at all.

use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::Workload;
use std::fmt::Write as _;
use vortex_obs::json::Value;

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its bound (or exactly equal, for an exact metric).
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// A simulated statistic changed at the same seed.
    Mismatch,
}

/// Judges one end-to-end metric, or one exact per-layer metric.
pub fn judge(def: &MetricDef, a: f64, b: f64, same_seed: bool) -> Verdict {
    if def.exact && same_seed {
        return if a == b {
            Verdict::Ok
        } else {
            Verdict::Mismatch
        };
    }
    let worse = match def.better {
        Better::Lower => b > a * (1.0 + def.bound),
        Better::Higher => b < a * (1.0 - def.bound),
    };
    if worse {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

fn number(result: &Value, key: &str) -> Option<f64> {
    result.get(key)?.as_num()
}

/// Compares two `all` result files; returns the report and whether every
/// verdict was [`Verdict::Ok`].
///
/// # Errors
/// A file that is not JSON or lacks a workload, mode or metric.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = Value::parse(a_text).map_err(|e| format!("baseline: {e}"))?;
    let b = Value::parse(b_text).map_err(|e| format!("candidate: {e}"))?;
    let mut report = String::new();
    let mut all_ok = true;
    let mut line = |workload: &str, name: &str, a: f64, b: f64, limit: String, verdict: Verdict| {
        all_ok &= verdict == Verdict::Ok;
        // 0 -> 0 (a counter that does not apply, a clean failure share)
        // has no relative change.
        let change = if a == b { 0.0 } else { (b - a) / a * 100.0 };
        let _ = writeln!(
            report,
            "{workload} {name} {a} -> {b} ({change:+.2}%, {limit}) {verdict:?}"
        );
    };
    for w in Workload::ALL {
        for (mode, table) in [("run", END_TO_END), ("trace", PER_LAYER)] {
            let find = |file: &Value, which: &str| {
                file.get("workloads")
                    .and_then(|ws| ws.get(w.name()))
                    .and_then(|modes| modes.get(mode))
                    .cloned()
                    .ok_or(format!("{which}: no {mode} result for {}", w.name()))
            };
            let (ra, rb) = (find(&a, "baseline")?, find(&b, "candidate")?);
            let same_seed = number(&ra, "seed") == number(&rb, "seed");
            for def in table {
                // Per-layer timings have no bound: nothing to judge.
                if mode == "trace" && !(def.exact && same_seed) {
                    continue;
                }
                let get = |r: &Value, which: &str| {
                    metric(r, def.name).ok_or(format!("{which}: {} lacks {}", w.name(), def.name))
                };
                let (va, vb) = (get(&ra, "baseline")?, get(&rb, "candidate")?);
                let limit = if def.exact && same_seed {
                    "exact".to_string()
                } else {
                    format!("bound {}%", def.bound * 100.0)
                };
                line(
                    w.name(),
                    def.name,
                    va,
                    vb,
                    limit,
                    judge(def, va, vb, same_seed),
                );
            }
            let share = |r: &Value, which: &str| {
                number(r, "op_fail_share").ok_or(format!("{which}: no op_fail_share"))
            };
            let (fa, fb) = (share(&ra, "baseline")?, share(&rb, "candidate")?);
            let verdict = if fb > fa {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            line(
                w.name(),
                &format!("{mode}.op_fail_share"),
                fa,
                fb,
                "bound 0%".into(),
                verdict,
            );
        }
    }
    Ok((report, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lookup;

    #[test]
    fn verdicts_at_and_over_each_bound() {
        for def in END_TO_END {
            let base = 100.0;
            let (at, over) = match def.better {
                Better::Lower => (base * (1.0 + def.bound), base * (1.0 + def.bound + 0.01)),
                Better::Higher => (base * (1.0 - def.bound), base * (1.0 - def.bound - 0.01)),
            };
            // A different seed: only the bound applies, exact or not.
            assert_eq!(
                judge(def, base, at, false),
                Verdict::Ok,
                "{} at bound",
                def.name
            );
            assert_eq!(
                judge(def, base, over, false),
                Verdict::Regression,
                "{} over",
                def.name
            );
            // Getting better is never a regression.
            let better = 2.0 * base - over;
            assert_eq!(
                judge(def, base, better, false),
                Verdict::Ok,
                "{} better",
                def.name
            );
        }
    }

    #[test]
    fn exact_metrics_have_bound_zero_at_one_seed() {
        let cycles = lookup(END_TO_END, "sim_cycles").unwrap();
        assert_eq!(judge(cycles, 1000.0, 1000.0, true), Verdict::Ok);
        assert_eq!(judge(cycles, 1000.0, 1001.0, true), Verdict::Mismatch);
        // Fewer cycles is a timing-model change too.
        assert_eq!(judge(cycles, 1000.0, 999.0, true), Verdict::Mismatch);
        let counter = lookup(PER_LAYER, "core.instrs").unwrap();
        assert_eq!(judge(counter, 5.0, 5.0, true), Verdict::Ok);
        assert_eq!(judge(counter, 5.0, 6.0, true), Verdict::Mismatch);
    }
}
