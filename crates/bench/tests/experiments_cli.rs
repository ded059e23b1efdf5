//! The `experiments` flag contract, driven through the real binary
//! (`CARGO_BIN_EXE_experiments`): each artifact flag is honoured by
//! exactly one selected experiment or the run exits 2 before anything is
//! written, and `--metrics-out` needs one selected experiment that
//! records metrics. Only experiments that finish in milliseconds with
//! `--quick` are used (e1, e18, e20).

use owp_metrics::MetricsSnapshot;
use owp_telemetry::ConvergenceSeries;
use std::path::PathBuf;
use std::process::Command;

/// Per-test scratch directory under the target dir; recreated fresh.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("experiments_cli").join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `experiments <args>` in `dir` and returns (exit code, stdout, stderr).
fn experiments(dir: &std::path::Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn experiments");
    (
        out.status.code().expect("no exit code (signal?)"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_trace_flag_claimed_by_two_experiments_exits_two_and_writes_nothing() {
    let dir = scratch("claimed_twice");
    let (code, out, err) = experiments(&dir, &["e18", "e20", "--quick", "--trace-out", "p"]);
    assert_eq!(code, 2, "stdout: {out}\nstderr: {err}");
    assert!(err.contains("e18") && err.contains("e20"), "names both ids: {err}");
    assert!(out.is_empty(), "nothing ran: {out}");
    assert!(!dir.join("p").exists(), "no trace file is written");
}

#[test]
fn e18_writes_its_series_and_the_metrics_snapshot() {
    let dir = scratch("e18_series_and_metrics");
    let (code, out, err) =
        experiments(&dir, &["e18", "--quick", "--trace-out", "p", "--metrics-out", "q.prom"]);
    assert_eq!(code, 0, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("[e18: wrote 7 trace rows to p]"), "{out}");

    let series = std::fs::read_to_string(dir.join("p")).expect("trace written");
    let series = ConvergenceSeries::parse_jsonl(&series).expect("series parses");
    assert_eq!(series.len(), 7);

    let prom = std::fs::read_to_string(dir.join("q.prom")).expect("metrics written");
    let snap = MetricsSnapshot::parse_prometheus(&prom).expect("snapshot parses");
    assert!(
        snap.histograms.iter().any(|(name, _)| name == "message_latency_ticks"),
        "the registry reached e18's async run"
    );
}

#[test]
fn a_trace_flag_no_selected_experiment_honours_exits_two() {
    let dir = scratch("unhonoured");
    let (code, out, err) = experiments(&dir, &["e1", "--quick", "--trace-out", "p"]);
    assert_eq!(code, 2, "stdout: {out}\nstderr: {err}");
    assert!(err.contains("e18, e20"), "names the experiments that honour it: {err}");
    assert!(!dir.join("p").exists(), "no trace file is written");
}

/// The live stderr metrics table is gone; `owp-inspect metrics` reads the
/// same families from the `--metrics-out` file.
#[test]
fn the_removed_live_table_flag_is_unknown() {
    let dir = scratch("watch");
    let flag = concat!("--", "watch");
    let (code, _, err) = experiments(&dir, &["e1", "--quick", flag]);
    assert_eq!(code, 2);
    assert!(err.contains(&format!("unknown flag: {flag}")), "{err}");
}

#[test]
fn metrics_out_with_no_experiment_that_records_metrics_exits_two() {
    let dir = scratch("metrics_unhonoured");
    let (code, out, err) = experiments(&dir, &["e1", "--quick", "--metrics-out", "q.prom"]);
    assert_eq!(code, 2, "stdout: {out}\nstderr: {err}");
    assert!(err.contains("e5, e18, e19, e20, e23, e25"), "names the ids that record: {err}");
    assert!(out.is_empty(), "nothing ran: {out}");
    assert!(!dir.join("q.prom").exists(), "no snapshot is written");
}

/// One recording experiment is enough; the others share the registry
/// without recording into it.
#[test]
fn metrics_out_is_honoured_when_one_selected_experiment_records() {
    let dir = scratch("metrics_honoured");
    let (code, out, err) = experiments(&dir, &["e1", "e18", "--quick", "--metrics-out", "q.prom"]);
    assert_eq!(code, 0, "stdout: {out}\nstderr: {err}");
    let prom = std::fs::read_to_string(dir.join("q.prom")).expect("metrics written");
    assert!(!MetricsSnapshot::parse_prometheus(&prom).expect("parses").is_empty());
}
