//! CLI contract of the `bench_compare` gate: a malformed baseline is a
//! configuration error — one diagnostic line on stderr and exit code 2
//! — never a panic with a backtrace, and never a silent pass.
//!
//! Regressions exit 1 and a healthy run exits 0, so CI can tell "the
//! code got slower" from "the committed baseline is broken" without
//! parsing output.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the compiled gate against `dir` with every baseline flag
/// pointed inside it, so only the fixtures written by the test exist.
fn run_in(dir: &std::path::Path) -> Output {
    let path = |name: &str| dir.join(name).display().to_string();
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args([
            "--baseline",
            &path("BENCH_pipeline.json"),
            "--temporal-baseline",
            &path("BENCH_temporal.json"),
            "--scenario-dir",
            &path("scenarios"),
            "--serve-baseline",
            &path("BENCH_serve.json"),
            "--chaos-baseline",
            &path("BENCH_chaos.json"),
            "--recover-baseline",
            &path("BENCH_recover.json"),
            "--history",
            &path("BENCH_history.json"),
            "--quick",
        ])
        .output()
        .expect("bench_compare binary runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_compare_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir is writable");
    dir
}

fn assert_clean_config_error(output: &Output, expect_in_stderr: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "a malformed baseline must exit 2, got {:?}; stderr: {stderr}",
        output.status.code()
    );
    assert!(
        stderr.contains("bench_compare: error:"),
        "stderr must carry the diagnostic prefix, got: {stderr}"
    );
    assert!(stderr.contains(expect_in_stderr), "stderr must name the problem, got: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "a malformed baseline must not panic with a backtrace, got: {stderr}"
    );
    assert!(!stderr.contains("RUST_BACKTRACE"), "no backtrace hint expected, got: {stderr}");
}

#[test]
fn a_truncated_baseline_exits_two_with_a_diagnostic_not_a_panic() {
    let dir = scratch_dir("truncated");
    // A baseline chopped mid-file: syntactically broken, no gated
    // fields survive.
    std::fs::write(
        dir.join("BENCH_pipeline.json"),
        "{\n  \"bench\": \"pipeline_stages\",\n  \"array\": \"64x4",
    )
    .expect("fixture is writable");
    let output = run_in(&dir);
    assert_clean_config_error(&output, "end_to_end_ms_mean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_garbled_array_field_exits_two_with_a_diagnostic() {
    let dir = scratch_dir("garbled");
    // Parses far enough to find the mean, then dies on a corrupt
    // geometry — the error must name the field, not unwind.
    std::fs::write(
        dir.join("BENCH_pipeline.json"),
        "{\n  \"end_to_end_ms_mean\": 4.2,\n  \"array\": \"not-a-size\"\n}\n",
    )
    .expect("fixture is writable");
    let output = run_in(&dir);
    assert_clean_config_error(&output, "not-a-size");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_baseline_is_a_config_error_not_a_skip() {
    // The primary baseline is required — pointing the gate at an empty
    // directory must fail loudly (the optional layers skip instead).
    let dir = scratch_dir("missing");
    let output = run_in(&dir);
    assert_clean_config_error(&output, "cannot read baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_recovery_baseline_exits_two_before_measuring() {
    // A healthy primary baseline, but a recovery baseline whose tail —
    // including `replay_budget_frames` — was truncated away: the
    // recovery gate must refuse it rather than measure against garbage.
    let dir = scratch_dir("recover");
    std::fs::write(
        dir.join("BENCH_pipeline.json"),
        "{\n  \"end_to_end_ms_mean\": 4.2,\n  \"array\": \"64x48\",\n  \"pooling_k\": 2,\n  \
         \"frames\": 5\n}\n",
    )
    .expect("fixture is writable");
    std::fs::write(
        dir.join("BENCH_recover.json"),
        "{\n  \"bench\": \"recover_stages\",\n  \"array\": \"64x48\",\n  \"sessions\": 4",
    )
    .expect("fixture is writable");
    let output = run_in(&dir);
    assert_clean_config_error(&output, "replay_budget_frames");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_flag_exits_two_with_usage_before_measuring() {
    let output = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args(["--quick", "--max-regress", "75"])
        .output()
        .expect("bench_compare binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown argument \"--max-regress\""), "got: {stderr}");
    assert!(stderr.contains("usage: bench_compare") && stderr.contains("--max-regress-pct"));
    assert!(!stderr.contains("panicked"), "got: {stderr}");
}

#[test]
fn help_prints_usage_and_writes_no_baseline() {
    // `--help` once ran the full bench and overwrote the committed
    // baseline at the default `results/` path: run from an empty
    // directory and check nothing appears there.
    let dir = scratch_dir("help");
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_pipeline_stages"), "--width <value>"),
        (env!("CARGO_BIN_EXE_serve_stages"), "--sessions <value>"),
        (env!("CARGO_BIN_EXE_fig7"), "[--quick | --full]"),
    ] {
        let output =
            Command::new(bin).arg("--help").current_dir(&dir).output().expect("binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(0), "{bin}: {stdout}");
        assert!(stdout.starts_with("usage: ") && stdout.contains(flag), "{bin}: {stdout}");
        assert!(!dir.join("results").exists(), "{bin} --help wrote results");
    }
    // A bare run-size binary refuses flags it does not take.
    let output = Command::new(env!("CARGO_BIN_EXE_fig7"))
        .arg("--width=640")
        .current_dir(&dir)
        .output()
        .expect("fig7 runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(!dir.join("results").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
