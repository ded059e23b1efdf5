//! The `owp-inspect` exit-code contract, pinned per subcommand:
//!
//! * `0` — artifact is clean;
//! * `1` — artifact records or reproduces a failure;
//! * `2` — usage error / unreadable input / non-re-executable bundle.
//!
//! Each test drives the real binary (`CARGO_BIN_EXE_owp-inspect`) against
//! a fixture written to a per-test temp directory, so the contract is
//! verified end to end — argument parsing, file IO, parsers, and the
//! final `exit` all included.

use owp_engine::{Engine, EngineEvent, InjectedFault};
use owp_graph::NodeId;
use owp_matching::Problem;
use owp_metrics::MetricsRegistry;
use std::path::PathBuf;
use std::process::Command;

/// Per-test scratch directory under the target dir; recreated fresh.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `owp-inspect <args>` and returns (exit code, stdout, stderr).
fn inspect(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_owp-inspect"))
        .args(args)
        .output()
        .expect("spawn owp-inspect");
    (
        out.status.code().expect("no exit code (signal?)"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write(dir: &std::path::Path, name: &str, contents: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path.to_string_lossy().into_owned()
}

// ---------------------------------------------------------------- usage

#[test]
fn no_arguments_is_a_usage_error() {
    let (code, _, err) = inspect(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("usage:"), "usage text on stderr: {err}");
    assert!(err.contains("exit codes:"), "contract documented in usage: {err}");
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let (code, _, _) = inspect(&["frobnicate", "x.json"]);
    assert_eq!(code, 2);
}

// ---------------------------------------------------------------- trace

#[test]
fn trace_clean_series_exits_zero() {
    let dir = scratch("trace_clean");
    let series = "\
{\"round\":0,\"matched_edges\":0,\"total_weight\":0.0,\"satisfaction_total\":0.0,\"messages_sent\":0,\"in_flight\":0,\"terminated_fraction\":0.0}
{\"round\":4,\"matched_edges\":3,\"total_weight\":2.5,\"satisfaction_total\":1.5,\"messages_sent\":40,\"in_flight\":2,\"terminated_fraction\":0.5}
{\"round\":9,\"matched_edges\":3,\"total_weight\":2.5,\"satisfaction_total\":1.5,\"messages_sent\":55,\"in_flight\":0,\"terminated_fraction\":1.0}
";
    let path = write(&dir, "series.jsonl", series);
    let (code, out, _) = inspect(&["trace", &path]);
    assert_eq!(code, 0, "clean series: {out}");
    assert!(out.contains("matching growth"), "phase split printed: {out}");
}

#[test]
fn trace_unparseable_input_exits_two() {
    let dir = scratch("trace_bad");
    let path = write(&dir, "series.jsonl", "this is not a series\n");
    let (code, _, err) = inspect(&["trace", &path]);
    assert_eq!(code, 2, "parse failure is a usage error: {err}");
}

#[test]
fn trace_missing_file_exits_two() {
    let (code, _, _) = inspect(&["trace", "/nonexistent/owp/series.jsonl"]);
    assert_eq!(code, 2);
}

// -------------------------------------------------------------- metrics

#[test]
fn metrics_clean_audit_exits_zero() {
    let dir = scratch("metrics_clean");
    let reg = MetricsRegistry::new();
    reg.counter("audit_checks_total").add(12);
    reg.counter("audit_violations_total"); // registered, still 0
    let path = write(&dir, "snap.json", &reg.snapshot().to_json());
    let (code, out, _) = inspect(&["metrics", &path]);
    assert_eq!(code, 0, "zero violations: {out}");
    assert!(out.contains("clean — 0 violations"), "{out}");
}

#[test]
fn metrics_recorded_violations_exit_one() {
    let dir = scratch("metrics_dirty");
    let reg = MetricsRegistry::new();
    reg.counter("audit_violations_total").add(2);
    let path = write(&dir, "snap.json", &reg.snapshot().to_json());
    let (code, out, _) = inspect(&["metrics", &path]);
    assert_eq!(code, 1, "recorded violations must exit 1: {out}");
    assert!(out.contains("FAILED"), "{out}");
}

#[test]
fn metrics_unparseable_input_exits_two() {
    let dir = scratch("metrics_bad");
    let path = write(&dir, "snap.json", "{not json");
    let (code, _, _) = inspect(&["metrics", &path]);
    assert_eq!(code, 2);
}

// --------------------------------------------------------------- causal

#[test]
fn causal_consistent_trace_exits_zero() {
    let dir = scratch("causal_clean");
    let trace = "\
{\"ev\":\"sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":3,\"to\":7,\"kind\":\"PROP\"}
{\"ev\":\"delivered\",\"time\":1,\"span\":0,\"from\":3,\"to\":7,\"kind\":\"PROP\"}
{\"ev\":\"sent\",\"time\":2,\"span\":1,\"parent\":0,\"from\":7,\"to\":3,\"kind\":\"ACK\"}
{\"ev\":\"delivered\",\"time\":3,\"span\":1,\"from\":7,\"to\":3,\"kind\":\"ACK\"}
";
    let path = write(&dir, "events.jsonl", trace);
    let (code, out, _) = inspect(&["causal", &path]);
    assert_eq!(code, 0, "consistent DAG: {out}");
    assert!(out.contains("Lemma 5 holds"), "{out}");
}

#[test]
fn causal_violated_certificate_exits_one() {
    let dir = scratch("causal_dirty");
    // Span 1 claims parent 99, which has no sent record — a
    // broken happens-before edge the certificate must reject.
    let trace = "\
{\"ev\":\"sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":3,\"to\":7,\"kind\":\"PROP\"}
{\"ev\":\"delivered\",\"time\":1,\"span\":0,\"from\":3,\"to\":7,\"kind\":\"PROP\"}
{\"ev\":\"sent\",\"time\":2,\"span\":1,\"parent\":99,\"from\":7,\"to\":3,\"kind\":\"ACK\"}
";
    let path = write(&dir, "events.jsonl", trace);
    let (code, out, _) = inspect(&["causal", &path]);
    assert_eq!(code, 1, "broken certificate must exit 1: {out}");
    assert!(out.contains("FAILED"), "{out}");
}

#[test]
fn causal_unknown_message_kind_exits_two() {
    // LID sends only PROP, REJ and ACK: a trace naming any other kind was
    // not written by a LID run, so it is refused like any malformed line.
    let dir = scratch("causal_foreign_kind");
    let trace = "{\"ev\":\"sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":3,\"to\":7,\"kind\":\"TOKEN\"}\n";
    let path = write(&dir, "events.jsonl", trace);
    let (code, out, err) = inspect(&["causal", &path]);
    assert_eq!(code, 2, "unknown kind is unreadable input: {out}");
    assert!(err.contains("line 1: unknown message kind \"TOKEN\""), "{err}");
}

#[test]
fn causal_unknown_flag_exits_two() {
    let (code, _, err) = inspect(&["causal", "x.jsonl", "--frob"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown flag"), "{err}");
}

// ------------------------------------------------------------ forensics

/// A warmed engine with recording on, plus a structural batch cycle.
fn recording_engine() -> (Engine, Vec<Vec<EngineEvent>>) {
    let mut e = Engine::with_history(Problem::random_gnp(24, 0.3, 2, 97), 16);
    let n = e.dynamic().graph().node_count() as u32;
    let mut batches = Vec::new();
    for i in 0..6u32 {
        let node = NodeId((i * 3) % n);
        batches.push(vec![EngineEvent::NodeLeave { node }]);
        batches.push(vec![EngineEvent::NodeJoin { node }]);
    }
    for b in &batches {
        e.apply_batch(b).unwrap();
    }
    (e, batches)
}

#[test]
fn forensics_live_reproducer_exits_one() {
    let dir = scratch("forensics_live");
    let (mut e, _) = recording_engine();
    let edge = {
        let dp = e.dynamic();
        dp.graph()
            .edges()
            .find(|&ed| dp.is_alive(ed) && !e.matching().contains(ed))
            .expect("an unselected alive edge exists")
    };
    e.inject_fault(InjectedFault::PhantomEdge { edge });
    let bundle = e
        .certify_with_forensics(Some(97), None)
        .expect_err("phantom edge must fail certification");
    let path = write(&dir, "bundle.json", &bundle.to_json());
    let (code, out, _) = inspect(&["forensics", &path]);
    assert_eq!(code, 1, "live reproducer must exit 1: {out}");
    assert!(out.contains("STILL FAILS"), "{out}");
    assert!(out.contains("same as recorded violation"), "{out}");
    assert!(out.contains("shrunk reproducer"), "{out}");
}

#[test]
fn forensics_clean_replay_exits_zero() {
    let dir = scratch("forensics_clean");
    // A manual capture of a *healthy* engine: the recorded window
    // replays without divergence, so the bundle is informational only.
    let (e, _) = recording_engine();
    e.certify().expect("healthy engine certifies");
    let bundle = e.capture_bundle("manual", "operator snapshot", Some(97), None);
    let path = write(&dir, "bundle.json", &bundle.to_json());
    let (code, out, _) = inspect(&["forensics", &path]);
    assert_eq!(code, 0, "clean replay: {out}");
    assert!(out.contains("replays CLEAN"), "{out}");
}

#[test]
fn forensics_unparseable_bundle_exits_two() {
    let dir = scratch("forensics_bad");
    let path = write(&dir, "bundle.json", "{\"format\":99}");
    let (code, _, err) = inspect(&["forensics", &path]);
    assert_eq!(code, 2, "unparseable bundle is a usage error: {err}");
}

#[test]
fn forensics_unreplayable_bundle_exits_two() {
    let dir = scratch("forensics_norun");
    // History explicitly disabled (depth 0): the bundle has no
    // checkpoint, so the reproducer cannot be re-executed — a
    // non-re-executable artifact.
    let mut e = Engine::with_history(Problem::random_gnp(24, 0.3, 2, 97), 0);
    e.apply(EngineEvent::NodeLeave { node: NodeId(2) }).unwrap();
    let edge = {
        let dp = e.dynamic();
        dp.graph()
            .edges()
            .find(|&ed| dp.is_alive(ed) && !e.matching().contains(ed))
            .expect("an unselected alive edge exists")
    };
    e.inject_fault(InjectedFault::PhantomEdge { edge });
    let bundle = e
        .certify_with_forensics(None, None)
        .expect_err("phantom edge must fail certification");
    let path = write(&dir, "bundle.json", &bundle.to_json());
    let (code, _, err) = inspect(&["forensics", &path]);
    assert_eq!(code, 2, "non-re-executable bundle exits 2: {err}");
    assert!(err.contains("cannot be re-executed"), "{err}");
}

// ------------------------------------------------------------------ wal

/// Builds a real WAL + snapshot pair by driving a matchd data dir the
/// same way the daemon does: apply batches, append, snapshot, append
/// more. The snapshot is a delta checkpoint against the universe, as
/// the daemon writes, when `delta` is set, else a full one. Returns
/// (wal path, snapshot path, spec, final epoch).
fn matchd_fixture(dir: &std::path::Path, delta: bool) -> (String, String, &'static str, u64) {
    use owp_matchd::{FsyncPolicy, SnapshotStore, UniverseBase, Wal};
    const SPEC: &str = "ring:40,2,9";
    let problem = owp_matchd::from_spec(SPEC).expect("spec");
    let mut engine = Engine::new(problem.clone());
    let wal_path = dir.join("matchd.wal");
    let (mut wal, _, _) = Wal::open(&wal_path, FsyncPolicy::Never).expect("open");
    let stream = owp_matchd::client_stream(&problem, 0, 1, 60);
    let mut chunks = stream.chunks(6);
    // Three batches, then a snapshot, then the rest — so replay must
    // skip the records the snapshot already covers.
    for _ in 0..3 {
        let chunk = chunks.next().expect("enough events");
        engine.apply_batch(chunk).expect("valid");
        wal.append(engine.epoch().0, chunk).expect("append");
    }
    let store = SnapshotStore::new(dir);
    if delta {
        let base = UniverseBase::new(&problem);
        store
            .save_delta(engine.epoch().0, engine.dynamic(), &base, &mut Vec::new())
            .expect("delta checkpoint");
    } else {
        store
            .save(engine.epoch().0, &owp_engine::OriginSnapshot::capture(engine.dynamic()))
            .expect("snapshot");
    }
    for chunk in chunks {
        engine.apply_batch(chunk).expect("valid");
        wal.append(engine.epoch().0, chunk).expect("append");
    }
    (
        wal_path.to_string_lossy().into_owned(),
        store.path().to_string_lossy().into_owned(),
        SPEC,
        engine.epoch().0,
    )
}

#[test]
fn wal_clean_log_exits_zero() {
    let dir = scratch("wal_clean");
    let (wal, _, _, epoch) = matchd_fixture(&dir, false);
    let (code, out, _) = inspect(&["wal", &wal]);
    assert_eq!(code, 0, "clean log: {out}");
    assert!(out.contains(&format!("epochs 1..={epoch}")), "{out}");
    assert!(out.contains("integrity: clean"), "{out}");
    assert!(out.contains("integrity scan only"), "no replay without a start state: {out}");
}

#[test]
fn wal_replay_certifies_against_snapshot_and_universe() {
    let dir = scratch("wal_replay");
    let (wal, snap, spec, epoch) = matchd_fixture(&dir, false);
    // Snapshot start: records at or below the snapshot epoch are skipped.
    let (code, out, _) = inspect(&["wal", &wal, "--snapshot", &snap]);
    assert_eq!(code, 0, "snapshot replay: {out}");
    assert!(out.contains("3 at or below the snapshot epoch skipped"), "{out}");
    assert!(out.contains(&format!("engine at epoch {epoch}")), "{out}");
    assert!(out.contains("certify: recovered matching bit-identical"), "{out}");
    // Universe start: the whole log replays from epoch 0.
    let (code, out, _) = inspect(&["wal", &wal, "--universe", spec]);
    assert_eq!(code, 0, "universe replay: {out}");
    assert!(out.contains("0 at or below the snapshot epoch skipped"), "{out}");
    assert!(out.contains("certify: recovered matching bit-identical"), "{out}");
}

#[test]
fn wal_delta_checkpoint_decodes_only_with_its_universe() {
    let dir = scratch("wal_delta");
    let (wal, snap, spec, epoch) = matchd_fixture(&dir, true);
    let (code, _, err) = inspect(&["wal", &wal, "--snapshot", &snap]);
    assert_eq!(code, 2, "a delta checkpoint without its universe is a usage error: {err}");
    assert!(err.contains("delta checkpoint") && err.contains("--universe"), "{err}");
    let (code, out, _) = inspect(&["wal", &wal, "--snapshot", &snap, "--universe", spec]);
    assert_eq!(code, 0, "delta replay: {out}");
    assert!(out.contains("v2 delta with 0 override(s)"), "{out}");
    assert!(out.contains("3 at or below the snapshot epoch skipped"), "{out}");
    assert!(out.contains(&format!("engine at epoch {epoch}")), "{out}");
    assert!(out.contains("certify: recovered matching bit-identical"), "{out}");
    let (code, _, err) = inspect(&["wal", &wal, "--snapshot", &snap, "--universe", "ring:40,2,10"]);
    assert_eq!(code, 2, "another universe is refused: {err}");
    assert!(err.contains("universe digest mismatch"), "{err}");
}

#[test]
fn wal_torn_tail_exits_one() {
    let dir = scratch("wal_torn");
    let (wal, snap, _, _) = matchd_fixture(&dir, false);
    let mut bytes = std::fs::read(&wal).expect("read");
    bytes.extend_from_slice(&[0xba, 0xad, 0xf0, 0x0d]);
    std::fs::write(&wal, &bytes).expect("write");
    let (code, out, _) = inspect(&["wal", &wal]);
    assert_eq!(code, 1, "torn tail is a recorded failure: {out}");
    assert!(out.contains("TORN TAIL — 4 trailing byte(s)"), "{out}");
    // The valid prefix still replays and certifies — but the torn bytes
    // keep the overall verdict at 1.
    let (code, out, _) = inspect(&["wal", &wal, "--snapshot", &snap]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("certify: recovered matching bit-identical"), "{out}");
}

/// A WAL whose epochs skip one (1, 2, 4, 5) is refused by `recover()`,
/// so the inspector must not certify it either: the replay reaches epoch
/// 3 where the third record says 4.
#[test]
fn wal_epoch_gap_exits_one() {
    use owp_matchd::{FsyncPolicy, Wal};
    const SPEC: &str = "ring:40,2,9";
    let dir = scratch("wal_epoch_gap");
    let problem = owp_matchd::from_spec(SPEC).expect("spec");
    let mut engine = Engine::new(problem.clone());
    let wal_path = dir.join(owp_matchd::WAL_FILE);
    let (mut wal, _, _) = Wal::open(&wal_path, FsyncPolicy::Never).expect("open");
    let stream = owp_matchd::client_stream(&problem, 0, 1, 24);
    for (chunk, epoch) in stream.chunks(6).zip([1, 2, 4, 5]) {
        engine.apply_batch(chunk).expect("valid");
        wal.append(epoch, chunk).expect("append");
    }
    drop(wal);
    let wal = wal_path.to_string_lossy().into_owned();
    let (code, out, _) = inspect(&["wal", &wal, "--universe", SPEC]);
    assert_eq!(code, 1, "an epoch gap is a recorded failure: {out}");
    assert!(out.contains("epochs 1..=5"), "{out}");
    assert!(
        out.contains("replay: FAILED — WAL epoch discontinuity: replay reached 3 but the record says 4"),
        "{out}"
    );
    let refused = owp_matchd::recover(&dir, &problem, FsyncPolicy::Never).err();
    assert!(refused.is_some_and(|e| e.contains("discontinuity")), "the daemon refuses it too");
}

#[test]
fn wal_missing_file_exits_two() {
    let dir = scratch("wal_missing");
    let path = dir.join("nope.wal");
    let (code, _, err) = inspect(&["wal", &path.to_string_lossy()]);
    assert_eq!(code, 2);
    assert!(err.contains("cannot read"), "{err}");
}

// ------------------------------------------------------------------ ops

/// `ops` against a live daemon: the one networked subcommand. A fresh
/// matchd with its admin plane on an ephemeral port, some ingested load,
/// then the real binary scrapes `/status` + `/readyz` — ready and clean
/// must exit 0 with the health lines rendered.
#[test]
fn ops_live_daemon_round_trip_exits_zero() {
    use owp_matchd::{FsyncPolicy, Matchd, MatchdClient, MatchdConfig, SubmitOutcome};

    let dir = scratch("ops_live");
    let spec = "ba:200,3,2,7";
    let universe = owp_matchd::from_spec(spec).expect("spec");
    let mut config = MatchdConfig::new(&dir);
    config.max_linger = std::time::Duration::from_micros(200);
    config.fsync = FsyncPolicy::Never;
    config.ops_addr = Some("127.0.0.1:0".into());
    config.audit_every = std::time::Duration::from_millis(25);
    let daemon =
        Matchd::start("127.0.0.1:0", &universe, config, MetricsRegistry::new()).expect("start");
    let ops = daemon.ops_addr().expect("ops plane configured").to_string();

    let mut client = MatchdClient::connect(daemon.local_addr()).expect("connect");
    let stream = owp_matchd::client_stream(&universe, 0, 1, 160);
    for chunk in stream.chunks(16) {
        match client.submit_with_retry(chunk, 50).expect("submit") {
            SubmitOutcome::Accepted { .. } => {}
            SubmitOutcome::Busy { .. } => panic!("retries exhausted"),
            SubmitOutcome::Rejected { error } => panic!("rejected: {error}"),
        }
    }
    let epoch = client.epoch().expect("epoch").epoch;

    let (code, out, err) = inspect(&["ops", &ops]);
    assert_eq!(code, 0, "ready + clean daemon must exit 0\nstdout: {out}\nstderr: {err}");
    assert!(out.contains("matchd up"), "{out}");
    assert!(out.contains("readiness: 200 ready"), "{out}");
    assert!(out.contains("auditor: clean"), "{out}");
    assert!(out.contains(&format!("epoch {epoch}")), "{out}");

    let stats = daemon.shutdown();
    assert!(stats.graceful);
}

/// An unreachable admin endpoint is indistinguishable from a bad path:
/// usage-error territory, exit 2.
#[test]
fn ops_unreachable_endpoint_exits_two() {
    // Bind-and-drop: the kernel hands out a port that is then guaranteed
    // closed when the binary tries it.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let (code, _, err) = inspect(&["ops", &format!("127.0.0.1:{port}")]);
    assert_eq!(code, 2);
    assert!(err.contains("cannot connect"), "{err}");
}

// ------------------------------------------------------------- campaign

/// A small but fully featured campaign: every fault class covered, the
/// PhantomEdge canary injected at plan 7.
fn campaign_fixture() -> owp_bench::campaign::CampaignReport {
    let cfg = owp_bench::campaign::CampaignConfig {
        seed: 0xC11,
        plans: 15,
        n: 14,
        instances: 3,
        quota: 2,
        inject_at: Some(7),
    };
    owp_bench::campaign::run_campaign(&cfg, None)
}

#[test]
fn campaign_clean_report_exits_zero() {
    let dir = scratch("campaign_clean");
    let report = campaign_fixture();
    assert!(report.clean(), "fixture must be canary-only: {:?}", report.violations);
    let path = write(&dir, "report.json", &report.to_json());
    let (code, out, _) = inspect(&["campaign", &path]);
    assert_eq!(code, 0, "canary-only report is clean: {out}");
    assert!(out.contains("digest") && out.contains("verifies"), "{out}");
    assert!(out.contains("every fault class executed and certified"), "{out}");
    assert!(out.contains("injected"), "the canary is listed: {out}");
    assert!(out.contains("verdict: clean"), "{out}");
}

#[test]
fn campaign_genuine_violation_exits_one() {
    let dir = scratch("campaign_genuine");
    let mut report = campaign_fixture();
    // Reclassify the canary as a genuine violation and re-attest, so the
    // digest verifies but the verdict must flip to VIOLATED.
    let canary = report.violations.iter_mut().find(|v| v.injected).expect("canary");
    canary.injected = false;
    report.digest = String::new();
    report.digest = owp_bench::campaign::fnv1a64_hex(report.to_json().as_bytes());
    let path = write(&dir, "report.json", &report.to_json());
    let (code, out, _) = inspect(&["campaign", &path]);
    assert_eq!(code, 1, "genuine violations must exit 1: {out}");
    assert!(out.contains("GENUINE"), "{out}");
    assert!(out.contains("verdict: VIOLATED"), "{out}");
}

#[test]
fn campaign_tampered_digest_exits_one() {
    let dir = scratch("campaign_tampered");
    let report = campaign_fixture();
    let json = report.to_json().replace(&report.digest, "0000000000000000");
    let path = write(&dir, "report.json", &json);
    let (code, out, _) = inspect(&["campaign", &path]);
    assert_eq!(code, 1, "a digest that does not attest must exit 1: {out}");
    assert!(out.contains("attestation: FAILED"), "{out}");
}

#[test]
fn campaign_coverage_gap_exits_one() {
    let dir = scratch("campaign_gap");
    // 3 plans round-robin over 5 classes: reordering and crash_restart
    // never execute, which is a coverage failure even with zero violations.
    let cfg = owp_bench::campaign::CampaignConfig {
        seed: 0xC11,
        plans: 3,
        n: 14,
        instances: 1,
        quota: 2,
        inject_at: None,
    };
    let report = owp_bench::campaign::run_campaign(&cfg, None);
    let path = write(&dir, "report.json", &report.to_json());
    let (code, out, _) = inspect(&["campaign", &path]);
    assert_eq!(code, 1, "uncovered fault classes must exit 1: {out}");
    assert!(out.contains("COVERAGE GAP"), "{out}");
    assert!(out.contains("crash_restart"), "{out}");
}

#[test]
fn campaign_replay_reproduces_exits_zero() {
    let dir = scratch("campaign_replay");
    let report = campaign_fixture();
    let path = write(&dir, "report.json", &report.to_json());
    let (code, out, _) = inspect(&["campaign", &path, "--replay", "7"]);
    assert_eq!(code, 0, "the canary must replay to its recorded outcome: {out}");
    assert!(out.contains("replay plan 7: reproduces the recorded outcome"), "{out}");
    // A certified plan replays clean too.
    let (code, out, _) = inspect(&["campaign", &path, "--replay", "0"]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn campaign_replay_out_of_range_exits_two() {
    let dir = scratch("campaign_replay_oob");
    let report = campaign_fixture();
    let path = write(&dir, "report.json", &report.to_json());
    let (code, _, err) = inspect(&["campaign", &path, "--replay", "99"]);
    assert_eq!(code, 2);
    assert!(err.contains("out of range"), "{err}");
}

#[test]
fn campaign_unparseable_input_exits_two() {
    let dir = scratch("campaign_bad");
    let path = write(&dir, "report.json", "{\"not\":\"a campaign report\"}");
    let (code, _, err) = inspect(&["campaign", &path]);
    assert_eq!(code, 2);
    assert!(err.contains("cannot parse"), "{err}");
    let (code, _, _) = inspect(&["campaign", &path, "--replay"]);
    assert_eq!(code, 2, "--replay without a plan id is a usage error");
    let (code, _, _) = inspect(&["campaign"]);
    assert_eq!(code, 2, "campaign without a path is a usage error");
}
