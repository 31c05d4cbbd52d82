//! `vxmeter` — the repository's benchmark. See `benchmark/README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use vxmeter::compare::compare;
use vxmeter::metrics::{END_TO_END, PER_LAYER};
use vxmeter::report;
use vxmeter::run::{self, RunOpts};
use vxmeter::workloads::Workload;

/// Seconds one run measures for when neither `--seconds` nor `--reps`
/// says otherwise (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Where `trace` and `all` leave their files, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = "benchmark/out";

/// These seed `GpuConfig::with_cores` and `vortex_par::jobs` inside the
/// simulator's crates. The benchmark sets every such field itself, so a
/// variable that is set would be silently ignored in some places and
/// obeyed in others (the host rasterizer's worker count): refuse.
const FORBIDDEN_ENV: [&str; 3] = ["VORTEX_SIM_THREADS", "VORTEX_FF", "VORTEX_JOBS"];

const USAGE: &str = "\
usage: vxmeter [run] --workload NAME [--seed N] [--seconds S | --reps N] [--trace 0|1] [--out FILE]
       vxmeter trace --workload NAME [--seed N] [--seconds S | --reps N] [--out FILE]
       vxmeter all [--seed N] [--seconds S | --reps N] [--out FILE]
       vxmeter list
       vxmeter compare BASELINE.json CANDIDATE.json
  --tamper-reference  self-test: corrupt the host reference; every rep must fail (exit 1)";

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: bool,
    tamper: bool,
    out: Option<PathBuf>,
    files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        reps: None,
        trace: false,
        tamper: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        cli.command = first.to_string();
        it.next();
    }
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: need a positive number")?;
            }
            "--reps" => {
                cli.reps = Some(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or("--reps: need a whole number >= 1")?,
                );
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: need 0 or 1, got {other}")),
                };
            }
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--tamper-reference" => cli.tamper = true,
            file if !file.starts_with("--") && cli.command == "compare" => {
                cli.files.push(file.to_string());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.command == "trace" {
        cli.trace = true;
    }
    Ok(cli)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run` / `trace`: one workload, in this process.
fn run_one(cli: &Cli) -> Result<ExitCode, String> {
    let name = cli.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or(format!(
        "unknown workload {name}; `vxmeter list` names them"
    ))?;
    let opts = RunOpts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        reps: cli.reps,
        tamper: cli.tamper,
    };
    let outcome = if cli.trace {
        run::trace(&opts)
    } else {
        run::run(&opts)
    };
    print!("{}", report::table(&opts, &outcome));
    if cli.trace {
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        write_file(&path, &outcome.tracer.to_json(name, cli.seed))?;
        println!(
            "# {} spans in {}",
            outcome.tracer.spans().len(),
            path.display()
        );
    }
    if let Some(path) = &cli.out {
        write_file(path, &report::result_json(&opts, &outcome))?;
    }
    // Last line: what the benchmark driver parses.
    println!("{}", report::driver_line(&outcome));
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `all`: `run` then `trace` for each workload, one child process each,
/// in sequence; merges their result objects into one file.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let mut modes = Vec::new();
        for mode in ["run", "trace"] {
            let part = Path::new(OUT_DIR).join(format!("result-{mode}-{}.json", w.name()));
            let mut child = Command::new(&exe);
            child
                .args([
                    mode,
                    "--workload",
                    w.name(),
                    "--seed",
                    &cli.seed.to_string(),
                ])
                .arg("--out")
                .arg(&part);
            match cli.reps {
                Some(n) => child.args(["--reps", &n.to_string()]),
                None => child.args(["--seconds", &cli.seconds.to_string()]),
            };
            if cli.tamper {
                child.arg("--tamper-reference");
            }
            // `status` waits for the child to end.
            let status = child.status().map_err(|e| format!("spawn {mode}: {e}"))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{}: {e} (child exited with {status})", part.display()))?;
            modes.push(format!("\"{mode}\": {text}"));
        }
        workloads.push(format!("\"{}\": {{{}}}", w.name(), modes.join(", ")));
    }
    let merged = format!(
        "{{\"vxmeter\": 1, \"seed\": {}, \"workloads\": {{\n{}\n}}}}\n",
        cli.seed,
        workloads.join(",\n")
    );
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("all.json"));
    write_file(&out, &merged)?;
    println!("# merged results in {}", out.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {} - {}", w.name(), w.why());
    }
    for (title, table) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("{title} metrics:");
        for m in table {
            let bound = if title == "end-to-end" {
                format!(", bound {}", m.bound)
            } else {
                String::new()
            };
            println!(
                "  {} [{}, {} is better{bound}] {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.meaning
            );
        }
    }
}

fn compare_files(cli: &Cli) -> Result<ExitCode, String> {
    let [a, b] = cli.files.as_slice() else {
        return Err("compare needs BASELINE.json CANDIDATE.json".into());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (report, ok) = compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    println!(
        "{}",
        if ok {
            "within bounds"
        } else {
            "OUTSIDE BOUNDS"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |why: String| {
        eprintln!("vxmeter: {why}\n{USAGE}");
        ExitCode::from(2)
    };
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => return usage_error(why),
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return usage_error(format!(
            "{var} is set: the benchmark fixes every simulator knob itself; unset it"
        ));
    }
    let result = match cli.command.as_str() {
        "run" | "trace" => run_one(&cli),
        "all" => run_all(&cli),
        "list" => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        "compare" => compare_files(&cli),
        other => return usage_error(format!("unknown command {other}")),
    };
    result.unwrap_or_else(|why| {
        eprintln!("vxmeter: {why}");
        ExitCode::from(2)
    })
}
