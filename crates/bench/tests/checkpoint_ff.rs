//! `--checkpoint-every` × fast-forward regression: the checkpoint
//! schedule is part of the simulated contract, so the fast-forward engine
//! must clamp every jump at the next checkpoint boundary (and at the
//! watchdog deadline inside each chunk) rather than sail past it. This
//! drives the installed `vxsim` binary end to end on a memory-bound
//! kernel long enough for several checkpoint chunks and asserts that a
//! skipping run and a `--no-fast-forward` run produce the *same
//! checkpoint files* — same count, same boundary cycles, same snapshot
//! bytes — and the same stats up to the host-side skip accounting.

use std::path::Path;
use std::process::Command;

/// Memory-bound kernel: every `lw` is a cold D$ miss (stride > line), so
/// the core idles a full DRAM round trip per iteration — long dead spans
/// in every checkpoint chunk. 400 iterations runs for several multiples
/// of the 10k-cycle watchdog window `--checkpoint-every` is rounded up
/// to, giving the run multiple checkpoint boundaries to hit exactly.
const KERNEL: &str = "\
    li x6, 0x10000\n\
    li x8, 0\n\
    li x9, 400\n\
    li x10, 0\n\
chase:\n\
    lw x11, 0(x6)\n\
    add x10, x10, x11\n\
    addi x6, x6, 256\n\
    addi x8, x8, 1\n\
    blt x8, x9, chase\n\
    ecall\n";

/// Sorted `ckpt-*.vxsnap` file names in `dir`.
fn checkpoint_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".vxsnap"))
        .collect();
    names.sort();
    names
}

/// The value of a `"key": N` line in the hand-rolled stats JSON.
fn json_u64(doc: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = doc.find(&needle).unwrap_or_else(|| panic!("{key} in stats JSON"));
    doc[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("numeric value")
}

/// Everything but the host-side skip accounting, which legitimately
/// differs between a skipping and a live run.
fn without_skip_accounting(doc: &str) -> String {
    doc.lines()
        .filter(|l| !l.contains("\"cycles_skipped\"") && !l.contains("\"skip_events\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn checkpoint_schedule_identical_with_and_without_skipping() {
    // Per-process, so concurrent test runs on one host never share files.
    let base = std::env::temp_dir().join(format!("vxsim_checkpoint_ff_{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    let kernel = base.join("chase.s");
    std::fs::write(&kernel, KERNEL).unwrap();

    let run = |tag: &str, extra: &[&str]| -> String {
        let ckpt_dir = base.join(tag);
        let stats = base.join(format!("{tag}.json"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vxsim"));
        cmd.arg(kernel.to_str().unwrap())
            .args([
                "--checkpoint-every",
                "10000",
                "--checkpoint-dir",
                ckpt_dir.to_str().unwrap(),
                "--stats-json",
                stats.to_str().unwrap(),
            ])
            .args(extra);
        let out = cmd.output().expect("vxsim runs");
        assert!(
            out.status.success(),
            "vxsim ({tag}) must PASS: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&stats).unwrap()
    };

    let ff = run("ff", &[]);
    let live = run("live", &["--no-fast-forward"]);

    // The engine actually engaged in one run and was fully disabled (flag
    // beating the environment) in the other.
    assert!(json_u64(&ff, "cycles_skipped") > 0, "skipping run skipped");
    assert!(json_u64(&ff, "skip_events") > 0);
    assert_eq!(json_u64(&live, "cycles_skipped"), 0, "--no-fast-forward");
    assert_eq!(json_u64(&live, "skip_events"), 0);

    // Same stats document up to the skip accounting.
    assert_eq!(
        without_skip_accounting(&ff),
        without_skip_accounting(&live),
        "stats JSON must be identical with skipping on or off"
    );

    // Same checkpoint schedule: the boundary cycles are encoded in the
    // file names, so equal sorted listings pin both the count and every
    // pause cycle. The run spans several chunks, so this is not vacuous.
    let ff_names = checkpoint_names(&base.join("ff"));
    let live_names = checkpoint_names(&base.join("live"));
    assert!(
        ff_names.len() >= 2,
        "run long enough for several checkpoints, got {ff_names:?}"
    );
    assert_eq!(
        ff_names, live_names,
        "checkpoint boundaries must not drift under fast-forward"
    );

    // And the snapshots themselves are bit-identical: a checkpoint taken
    // mid-jump must capture exactly the state a live run pauses with.
    for name in &ff_names {
        let a = std::fs::read(base.join("ff").join(name)).unwrap();
        let b = std::fs::read(base.join("live").join(name)).unwrap();
        assert_eq!(a, b, "{name}: checkpoint bytes differ under fast-forward");
    }
    std::fs::remove_dir_all(&base).unwrap();
}
