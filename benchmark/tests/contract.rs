//! `BENCHMARK.json` at the repository root must say what the code does.

use vortex_obs::json::Value;
use vxmeter::metrics::{MetricDef, END_TO_END, PER_LAYER};
use vxmeter::workloads::Workload;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string {key}"))
}

fn check_table(listed: &[Value], table: &[MetricDef], bounded: bool) {
    assert_eq!(listed.len(), table.len());
    for (entry, def) in listed.iter().zip(table) {
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        let bound = entry.get("bound").and_then(Value::as_num);
        assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
    }
}

#[test]
fn benchmark_json_mirrors_the_metric_tables() {
    let spec = benchmark_json();
    let list = |key: &str| spec.get(key).and_then(Value::as_arr).expect(key).to_vec();
    check_table(&list("end_to_end"), END_TO_END, true);
    check_table(&list("per_layer"), PER_LAYER, false);

    let workloads = list("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(text(entry, "name"), w.name());
        assert_eq!(text(entry, "why"), w.why());
    }

    let paths: Vec<_> = list("paths")
        .iter()
        .filter_map(Value::as_str)
        .map(str::to_string)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<_> = list("command")
        .iter()
        .filter_map(Value::as_str)
        .map(str::to_string)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml".to_string()));
    let seconds = spec
        .get("run_seconds")
        .and_then(Value::as_num)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
