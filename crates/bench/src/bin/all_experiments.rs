//! The one report binary: regenerates the paper's evaluation (§6).
//!
//! * `all_experiments [--fast] > EXPERIMENTS.md` runs every report
//!   in-process and concurrently, and prints them assembled in table order.
//! * `all_experiments <name> [--fast|--1080p] [--stats-json FILE]` runs one
//!   report and prints its markdown. `--stats-json` writes the report's
//!   sweep rows as a `vortex-sweep-v1` document; `--1080p` is `fig20`'s
//!   paper-scale frame.
//!
//! Exit codes: 0 done, 1 the sweep JSON could not be written, 2 usage.

use vortex_bench::experiments::{render_all, run_all, Scale, REPORTS};

fn usage(why: &str) -> ! {
    let names: Vec<&str> = REPORTS.iter().map(|r| r.0).collect();
    eprintln!(
        "all_experiments: {why}\n\
         usage: all_experiments [--fast]\n       \
         all_experiments <name> [--fast|--1080p] [--stats-json FILE]\n\
         reports: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let (mut name, mut scale, mut stats_json) = (None, Scale::Default, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" | "--1080p" if scale != Scale::Default => {
                usage("give at most one of --fast and --1080p")
            }
            "--fast" => scale = Scale::Fast,
            "--1080p" => scale = Scale::FullHd,
            "--stats-json" => match args.next() {
                Some(path) if !path.starts_with("--") => stats_json = Some(path),
                _ => usage("--stats-json needs a FILE"),
            },
            _ if arg.starts_with('-') || name.is_some() => {
                usage(&format!("unexpected argument `{arg}`"))
            }
            _ => name = Some(arg),
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("(note: debug build — run with --release for sane wall-clock times)");
    }
    let Some(name) = name else {
        if scale == Scale::FullHd || stats_json.is_some() {
            usage("--1080p and --stats-json need a report name");
        }
        print!("{}", render_all(scale, &run_all(scale)));
        return;
    };
    let Some(&(_, _, sweep, report)) = REPORTS.iter().find(|r| r.0 == name) else {
        usage(&format!("unknown report `{name}`"))
    };
    if scale == Scale::FullHd && name != "fig20" {
        usage("--1080p applies to fig20 only");
    }
    if stats_json.is_some() && sweep.is_none() {
        usage(&format!("{name} has no sweep rows for --stats-json"));
    }
    let report = report(scale);
    print!("{}", report.markdown);
    if let (Some(path), Some(title)) = (stats_json, sweep) {
        let doc = vortex_obs::render_sweep(title, &report.rows);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write sweep JSON {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote sweep JSON to {path}");
    }
}
