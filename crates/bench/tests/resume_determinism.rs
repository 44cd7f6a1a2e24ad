//! Crash-safety integration tests for the sweep harness: a run killed
//! mid-sweep and resumed with `--resume` must emit byte-identical results,
//! and a persistently failing point must be retried, quarantined into
//! `FAILURES.json`, and must not poison the rest of the fleet — including
//! a point whose watchdog deadline expires during construction.
//!
//! Like `golden_determinism`, these drive the *release* binary — the
//! suite is simulation-heavy and tier 1 has already paid for the build.

use std::path::{Path, PathBuf};
use std::process::Command;
use tmcc_bench::failures::{FAILURES_FILE, FAIL_POINT_ENV};
use tmcc_bench::journal::{EXIT_AFTER_POINTS_CODE, EXIT_AFTER_POINTS_ENV};
use tmcc_bench::watchdog::POINT_BUDGET_ENV;

fn workspace_root() -> PathBuf {
    // crates/bench -> crates -> workspace
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root").to_path_buf()
}

/// Builds (a no-op when tier 1 already did) and locates the release binary.
fn release_binary() -> PathBuf {
    let root = workspace_root();
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "-p", "tmcc-bench", "--bin", "tmcc-bench"])
        .current_dir(&root)
        .status()
        .expect("spawn cargo build");
    assert!(status.success(), "release build of tmcc-bench failed");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let bin = target.join("release").join(format!("tmcc-bench{}", std::env::consts::EXE_SUFFIX));
    assert!(bin.exists(), "built binary not found at {}", bin.display());
    bin
}

/// Runs `run-all --test` into `out` with the crash/failure hooks in
/// `envs`, returning the exit code. The hook variables are cleared first
/// so an outer CI environment can't leak into the baseline runs.
fn run_all(bin: &Path, out: &Path, extra_args: &[&str], envs: &[(&str, &str)]) -> i32 {
    let mut cmd = Command::new(bin);
    cmd.args(["run-all", "--test", "--jobs", "2", "--out"])
        .arg(out)
        .args(extra_args)
        .env_remove(EXIT_AFTER_POINTS_ENV)
        .env_remove(FAIL_POINT_ENV)
        .stdout(std::process::Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.status().expect("spawn tmcc-bench").code().expect("exit code")
}

fn fresh_dir(tmp: &Path, name: &str) -> PathBuf {
    let dir = tmp.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

fn read_result(dir: &Path, file: &str) -> Vec<u8> {
    std::fs::read(dir.join(file)).unwrap_or_else(|_| panic!("{file} missing in {dir:?}"))
}

/// Every raw value of `field` in pretty-printed JSON `text` (see
/// `golden_determinism` for the format contract).
fn field_values(text: &str, field: &str) -> Vec<String> {
    let needle = format!("\"{field}\":");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        let after = &rest[pos + needle.len()..];
        let end = after.find('\n').unwrap_or(after.len());
        out.push(after[..end].trim().trim_end_matches(',').to_string());
        rest = &after[end..];
    }
    out
}

#[test]
fn killed_run_resumes_byte_identically() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resume_determinism");
    let baseline = fresh_dir(&tmp, "baseline");
    let resumed = fresh_dir(&tmp, "resumed");

    assert_eq!(run_all(&bin, &baseline, &[], &[]), 0, "baseline run failed");

    // Crash the harness after 25 journaled points, then resume.
    let code = run_all(&bin, &resumed, &[], &[(EXIT_AFTER_POINTS_ENV, "25")]);
    assert_eq!(code, EXIT_AFTER_POINTS_CODE, "crash hook must exit with the sentinel code");
    assert!(
        resumed.join(".journal").join("sweep.journal").exists()
            || std::fs::read_dir(resumed.join(".journal")).map(|d| d.count() > 0).unwrap_or(false),
        "killed run left no journal behind"
    );
    assert_eq!(run_all(&bin, &resumed, &["--resume"], &[]), 0, "resume run failed");

    // Every per-experiment result must match the uninterrupted run.
    let experiments = tmcc_bench::registry::all();
    assert!(experiments.len() >= 18, "registry lost experiments");
    for e in &experiments {
        let file = format!("{}.json", e.name);
        assert_eq!(
            read_result(&baseline, &file),
            read_result(&resumed, &file),
            "{file} differs between uninterrupted and killed+resumed runs"
        );
    }

    // The resume must actually have replayed journaled points rather than
    // recomputing everything from scratch.
    let sweep = std::fs::read_to_string(resumed.join("BENCH_sweep.json")).expect("sweep summary");
    let replayed: u64 = field_values(&sweep, "points_replayed")
        .iter()
        .map(|v| v.parse::<u64>().expect("points_replayed is a count"))
        .sum();
    assert!(replayed > 0, "resume run replayed no journaled points");
    assert!(!resumed.join(FAILURES_FILE).exists(), "clean resume must not leave a FAILURES.json");
}

#[test]
fn failing_point_is_quarantined_without_poisoning_the_fleet() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quarantine");
    let baseline = fresh_dir(&tmp, "baseline");
    let poisoned = fresh_dir(&tmp, "poisoned");

    assert_eq!(run_all(&bin, &baseline, &[], &[]), 0, "baseline run failed");

    // One point of one experiment fails on every attempt: the experiment
    // must be quarantined and the exit code must flag it.
    let victim = "fig16_mem_characterization";
    let code = run_all(&bin, &poisoned, &[], &[(FAIL_POINT_ENV, &format!("{victim}:1"))]);
    assert_eq!(code, 1, "quarantined points must surface as a non-zero exit");

    // The quarantine record names the point and counts 1 + 2 retries.
    let failures =
        std::fs::read_to_string(poisoned.join(FAILURES_FILE)).expect("FAILURES.json written");
    assert!(failures.contains(&format!("\"{victim}\"")), "failure names the experiment");
    assert_eq!(field_values(&failures, "index"), vec!["1"], "failure names the point index");
    assert_eq!(field_values(&failures, "attempts"), vec!["3"], "1 initial + 2 default retries");
    assert_eq!(field_values(&failures, "kind"), vec!["\"panic\""], "injected failure is a panic");

    // The victim publishes no result; every other experiment is
    // byte-identical to the clean baseline.
    assert!(
        !poisoned.join(format!("{victim}.json")).exists(),
        "quarantined experiment must not publish results"
    );
    let mut others = 0;
    for e in &tmcc_bench::registry::all() {
        if e.name == victim {
            continue;
        }
        let file = format!("{}.json", e.name);
        assert_eq!(
            read_result(&baseline, &file),
            read_result(&poisoned, &file),
            "{file} poisoned by an unrelated experiment's failing point"
        );
        others += 1;
    }
    assert!(others >= 17, "expected the rest of the fleet to complete");
}

#[test]
fn timed_out_point_is_retried_then_quarantined() {
    let bin = release_binary();
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("timeout");
    let out = fresh_dir(&tmp, "out");

    // A zero budget cancels every point's handle before construction
    // starts, so each attempt times out inside `System` construction
    // deterministically, without depending on thread timing.
    let output = Command::new(&bin)
        .args(["run", "capacity_cliff", "--test", "--jobs", "1", "--out"])
        .arg(&out)
        .env_remove(EXIT_AFTER_POINTS_ENV)
        .env_remove(FAIL_POINT_ENV)
        .env(POINT_BUDGET_ENV, "0")
        .output()
        .expect("spawn tmcc-bench");
    assert_eq!(output.status.code(), Some(1), "a quarantined timeout must exit non-zero");

    // No attempt got past construction, so no access was simulated (a
    // deadline armed only after construction would cancel the run instead,
    // which counts its accesses).
    let stdout = String::from_utf8_lossy(&output.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("capacity_cliff") && l.ends_with("acc/s"))
        .expect("summary line for capacity_cliff");
    let words: Vec<&str> = summary.split_whitespace().collect();
    let at = words.iter().position(|w| *w == "accesses").expect("accesses column");
    assert_eq!(words[at - 1], "0", "the deadline must fire during construction: {summary}");

    let failures = std::fs::read_to_string(out.join(FAILURES_FILE)).expect("FAILURES.json written");
    assert_eq!(field_values(&failures, "kind"), vec!["\"timeout\""], "the cause is the deadline");
    assert_eq!(field_values(&failures, "attempts"), vec!["3"], "1 initial + 2 default retries");
    assert!(
        !out.join("capacity_cliff.json").exists(),
        "a quarantined experiment must not publish results"
    );
}
