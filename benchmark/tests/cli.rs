//! Drives the `vxmeter` binary the way a user and the benchmark driver do.

use std::path::PathBuf;
use std::process::Command;
use vortex_obs::json::Value;
use vxmeter::metrics::{END_TO_END, PER_LAYER};
use vxmeter::workloads::Workload;

/// A scratch working directory private to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `vxmeter` in `dir`; returns its exit code and stdout.
fn vxmeter(dir: &PathBuf, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vxmeter"))
        .args(args)
        .current_dir(dir)
        .env_remove("VORTEX_SIM_THREADS")
        .env_remove("VORTEX_FF")
        .env_remove("VORTEX_JOBS")
        .output()
        .expect("vxmeter runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

/// The object on the last line of stdout.
fn driver_line(stdout: &str) -> Value {
    Value::parse(stdout.lines().last().expect("output")).expect("last line is JSON")
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("number {key}"))
}

fn metric(result: &Value, name: &str) -> f64 {
    let entry = result.get("metrics").and_then(|m| m.get(name));
    entry
        .and_then(|e| e.get("value"))
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("{name}"))
}

#[test]
fn all_four_workloads_run_trace_and_compare() {
    let dir = scratch("all");
    let (code, stdout) = vxmeter(&dir, &["all", "--reps", "1", "--out", "a.json"]);
    assert_eq!(code, 0, "{stdout}");
    let text = std::fs::read_to_string(dir.join("a.json")).expect("merged file");
    let merged = Value::parse(&text).expect("merged file parses");
    for w in Workload::ALL {
        for (mode, table) in [("run", END_TO_END), ("trace", PER_LAYER)] {
            let result = merged
                .get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .and_then(|modes| modes.get(mode))
                .unwrap_or_else(|| panic!("{} {mode}", w.name()));
            assert_eq!(num(result, "failed"), 0.0, "{} {mode}", w.name());
            assert_eq!(num(result, "op_fail_share"), 0.0);
            assert_eq!(num(result, "seed"), 1.0);
            assert_eq!(num(result, "reps"), 1.0);
            for key in ["rustc", "commit", "validation", "caches", "stats_digest"] {
                assert!(result.get(key).and_then(Value::as_str).is_some(), "{key}");
            }
            assert!(num(result, "host_cpus") >= 1.0 && num(result, "tail_pct") >= 50.0);
            for def in table {
                assert!(
                    metric(result, def.name).is_finite(),
                    "{} {}",
                    w.name(),
                    def.name
                );
            }
        }
        let trace =
            std::fs::read_to_string(dir.join(format!("benchmark/out/trace-{}.json", w.name())));
        let trace = Value::parse(&trace.expect("trace file")).expect("trace parses");
        assert!(!trace
            .get("spans")
            .and_then(Value::as_arr)
            .expect("spans")
            .is_empty());
    }
    // End-to-end metrics are never zero; tex counters are zero off raster.
    let of = |w: &str, mode: &str| {
        merged
            .get("workloads")
            .unwrap()
            .get(w)
            .unwrap()
            .get(mode)
            .unwrap()
            .clone()
    };
    for w in Workload::ALL {
        assert!(END_TO_END
            .iter()
            .all(|d| metric(&of(w.name(), "run"), d.name) > 0.0));
        let tex = metric(&of(w.name(), "trace"), "tex.requests");
        assert_eq!(tex > 0.0, w == Workload::RasterMc16, "{}", w.name());
    }
    assert!(metric(&of("bfs-1c", "trace"), "core.ff.cycles_skipped_share") > 0.2);
    assert!(metric(&of("sgemm-1c", "trace"), "core.ff.cycles_skipped_share") < 0.15);

    // A result agrees with itself; one changed cycle count does not.
    let (code, report) = vxmeter(&dir, &["compare", "a.json", "a.json"]);
    assert_eq!(code, 0, "{report}");
    let cycles = metric(&of("bfs-1c", "run"), "sim_cycles");
    let needle = format!("\"sim_cycles\": {{\"value\": {cycles}");
    assert_eq!(text.matches(&needle).count(), 1);
    let changed = text.replace(
        &needle,
        &format!("\"sim_cycles\": {{\"value\": {}", cycles + 1.0),
    );
    std::fs::write(dir.join("b.json"), changed).expect("write");
    let (code, report) = vxmeter(&dir, &["compare", "a.json", "b.json"]);
    assert_eq!(code, 1, "{report}");
    assert!(
        report.contains("bfs-1c sim_cycles") && report.contains("Mismatch"),
        "{report}"
    );
}

#[test]
fn the_seed_determines_the_simulation() {
    let dir = scratch("seed");
    let mut digests = Vec::new();
    for (seed, out) in [("1", "s1a.json"), ("1", "s1b.json"), ("2", "s2.json")] {
        let args = [
            "run",
            "--workload",
            "bfs-1c",
            "--reps",
            "1",
            "--seed",
            seed,
            "--out",
            out,
        ];
        let (code, stdout) = vxmeter(&dir, &args);
        assert_eq!(code, 0, "{stdout}");
        let result = Value::parse(&std::fs::read_to_string(dir.join(out)).unwrap()).unwrap();
        let names: Vec<String> = match result.get("metrics") {
            Some(Value::Obj(m)) => m.keys().cloned().collect(),
            _ => panic!("metrics object"),
        };
        let digest = result
            .get("stats_digest")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        digests.push((digest, metric(&result, "sim_cycles"), names));
    }
    assert_eq!(digests[0].0, digests[1].0, "same seed, same digest");
    assert_eq!(digests[0].1, digests[1].1, "same seed, same cycles");
    assert_ne!(digests[0].0, digests[2].0, "another seed, another digest");
    assert_eq!(
        digests[0].2, digests[2].2,
        "another seed, same metric names"
    );
}

#[test]
fn the_driver_invocation_prints_one_contract_object_last() {
    let dir = scratch("driver");
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        // No sub-command, `--seconds` and `--trace`: the driver's form.
        let args = [
            "--workload",
            "sgemm-1c",
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--trace",
            trace,
        ];
        let (code, stdout) = vxmeter(&dir, &args);
        assert_eq!(code, 0, "{stdout}");
        let line = driver_line(&stdout);
        let keys: Vec<&str> = match &line {
            Value::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("object"),
        };
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(num(&line, "attempted") >= 2.0 && num(&line, "failed") == 0.0);
        let metrics = match line.get("metrics") {
            Some(Value::Obj(m)) => m,
            _ => panic!("metrics object"),
        };
        assert_eq!(metrics.len(), table.len());
        for def in table {
            let entry = &metrics[def.name];
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
            assert!(
                entry.get("value").and_then(Value::as_num).is_some(),
                "{}",
                def.name
            );
        }
    }
}

#[test]
fn a_wrong_reference_is_counted_and_fails_the_process() {
    let dir = scratch("tamper");
    for workload in ["sgemm-1c", "raster-mc16"] {
        let args = [
            "run",
            "--workload",
            workload,
            "--reps",
            "1",
            "--tamper-reference",
        ];
        let (code, stdout) = vxmeter(&dir, &args);
        assert_eq!(code, 1, "{stdout}");
        let line = driver_line(&stdout);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(num(&line, "failed"), num(&line, "attempted"));
        assert!(stdout.contains("op_fail_share 1 ratio"), "{stdout}");
    }
}

#[test]
fn simulator_environment_knobs_and_bad_arguments_are_refused() {
    let dir = scratch("usage");
    for var in ["VORTEX_SIM_THREADS", "VORTEX_FF", "VORTEX_JOBS"] {
        let out = Command::new(env!("CARGO_BIN_EXE_vxmeter"))
            .args(["run", "--workload", "sgemm-1c", "--reps", "1"])
            .current_dir(&dir)
            .env(var, "1")
            .output()
            .expect("vxmeter runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
    assert_eq!(vxmeter(&dir, &["run", "--workload", "nope"]).0, 2);
    assert_eq!(vxmeter(&dir, &["run"]).0, 2);
    assert_eq!(
        vxmeter(&dir, &["run", "--workload", "sgemm-1c", "--trace", "2"]).0,
        2
    );
    assert_eq!(vxmeter(&dir, &["frobnicate"]).0, 2);
    assert_eq!(vxmeter(&dir, &["list"]).0, 0);
}
