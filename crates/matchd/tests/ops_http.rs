//! Golden tests for the live operations plane (DESIGN.md §14): the four
//! admin endpoints served concurrently with ingest load, the continuous
//! auditor's escalation path (injected fault → `/readyz` 503 → spooled
//! forensic bundle that replays to the same violation), and the
//! malformed-request contract — any byte stream gets a structured 4xx
//! or silence, never a panic, and the daemon keeps serving after.

use owp_engine::{Engine, ForensicBundle, InjectedFault};
use owp_matchd::{
    client_stream, from_spec, http, FsyncPolicy, Matchd, MatchdClient, MatchdConfig, OpsStatus,
    SubmitOutcome,
};
use owp_metrics::{MetricsRegistry, MetricsSnapshot};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SPEC: &str = "ba:300,3,2,11";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owp-ops-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> MatchdConfig {
    let mut c = MatchdConfig::new(dir);
    c.max_linger = Duration::from_micros(200);
    c.snapshot_every = 8;
    c.fsync = FsyncPolicy::Never;
    c.ops_addr = Some("127.0.0.1:0".into());
    c.audit_every = Duration::from_millis(25);
    c
}

/// One admin round-trip: raw HTTP/1.0 over a fresh TcpStream, exactly
/// what `curl` or a Prometheus scraper would send.
fn get(ops: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(ops).expect("connect ops");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send");
    http::read_response(&mut s, 4 << 20).expect("response")
}

fn submit_all(client: &mut MatchdClient, universe: &owp_matching::Problem, events: usize) {
    let stream = client_stream(universe, 0, 1, events);
    for chunk in stream.chunks(16) {
        match client.submit_with_retry(chunk, 50).expect("submit") {
            SubmitOutcome::Accepted { .. } => {}
            SubmitOutcome::Busy { .. } => panic!("retries exhausted"),
            SubmitOutcome::Rejected { error } => panic!("rejected: {error}"),
        }
    }
}

#[test]
fn endpoints_serve_golden_responses_under_ingest_load() {
    let dir = scratch("golden");
    let spool = dir.join("spool");
    let universe = from_spec(SPEC).expect("spec");
    // A latched audit failure spools a replayable bundle here, so a
    // failing run leaves its own post-mortem.
    let mut cfg = config(&dir);
    cfg.spool_dir = Some(spool.clone());
    let daemon =
        Matchd::start("127.0.0.1:0", &universe, cfg, MetricsRegistry::new()).expect("start");
    let ops = daemon.ops_addr().expect("ops plane configured");
    let addr = daemon.local_addr();

    // Ingest load on a second thread while the main thread scrapes: the
    // admin plane must answer *during* repair, not just between batches.
    let ingest = std::thread::spawn({
        let universe = universe.clone();
        move || {
            let mut client = MatchdClient::connect(addr).expect("connect");
            submit_all(&mut client, &universe, 400);
            client.epoch().expect("epoch").epoch
        }
    });

    let mut scrapes = 0u32;
    while !ingest.is_finished() || scrapes < 3 {
        let (hs, hb) = get(ops, "/healthz");
        assert_eq!((hs, hb.as_str()), (200, "ok\n"));
        let (rs, rbody) = get(ops, "/readyz");
        if rs != 200 {
            let (_, sbody) = get(ops, "/status");
            let failures = OpsStatus::parse(&sbody).map(|s| s.audit_failures);
            let spooled: Vec<_> = std::fs::read_dir(&spool)
                .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
                .unwrap_or_default();
            panic!(
                "quiet daemon must be ready: /readyz {rs} {rbody:?}, \
                 audit_failures {failures:?}, spooled {spooled:?}, status {sbody}"
            );
        }
        let (ms, body) = get(ops, "/metrics");
        assert_eq!(ms, 200);
        let snap = MetricsSnapshot::parse_prometheus(&body).expect("prometheus parses");
        let _ = snap; // golden contract: the existing parser accepts the export
        assert!(body.contains("matchd_ready"), "missing matchd_ready in {body}");
        assert!(body.contains("matchd_ops_requests"), "missing ops counter");
        assert!(body.contains("matchd_snapshot_save_us"), "missing checkpoint cost");
        assert!(body.contains("matchd_snapshot_bytes"), "missing checkpoint size");
        let (ss, sbody) = get(ops, "/status");
        assert_eq!(ss, 200);
        let status = OpsStatus::parse(&sbody).expect("status parses");
        assert!(status.ready && status.audit_clean);
        assert_eq!(status.queue_capacity, 1024);
        scrapes += 1;
    }
    let final_epoch = ingest.join().expect("ingest thread");
    assert_eq!(final_epoch, 25, "400 events in 16-chunks is 25 batches");

    // Settled status reflects the ingest that just happened, and the
    // slow-request ring saw the SUBMIT spans with a non-trivial split.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        let (_, sbody) = get(ops, "/status");
        let status = OpsStatus::parse(&sbody).expect("status parses");
        if status.epoch == final_epoch
            && status.audit_passes > 0
            && status.last_audit_epoch == final_epoch
        {
            break status;
        }
        assert!(Instant::now() < deadline, "status never settled: {sbody}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.active, 300);
    assert!(status.requests_total >= 25, "at least the submits: {}", status.requests_total);
    assert!(status.connections_total >= 1);
    assert!(status.wal_records > 0 && status.wal_bytes > 0);
    // snapshot_every = 8 over 25 epochs: checkpoints at 8, 16 and 24.
    assert_eq!(status.snapshot_epoch, 24);
    let save = status.snapshot_save.as_ref().expect("checkpoint cost in /status");
    assert_eq!(save.saves, 3);
    assert!(save.bytes > 0 && save.mean_us > 0, "{save:?}");
    assert_eq!(status.last_audit_epoch, final_epoch);
    assert_eq!(status.audit_failures, 0);
    assert!(!status.slow.is_empty(), "spans must reach the slow ring");
    assert!(status.slow.iter().any(|s| s.kind == "SUBMIT"));
    assert!(status.rustc.starts_with("rustc"), "provenance: {}", status.rustc);

    let (ns, _) = get(ops, "/nope");
    assert_eq!(ns, 404);
    daemon.abort();
}

#[test]
fn injected_fault_flips_readyz_and_spools_a_replayable_bundle() {
    let dir = scratch("fault");
    let spool = dir.join("spool");
    let universe = from_spec(SPEC).expect("spec");
    let mut cfg = config(&dir);
    cfg.spool_dir = Some(spool.clone());
    let daemon =
        Matchd::start("127.0.0.1:0", &universe, cfg, MetricsRegistry::new()).expect("start");
    let ops = daemon.ops_addr().expect("ops plane configured");
    let mut client = MatchdClient::connect(daemon.local_addr()).expect("connect");
    submit_all(&mut client, &universe, 400);
    client.epoch().expect("read-your-writes barrier");

    // A locally-heaviest b-matching is maximal, so any *unselected*
    // alive edge has a quota-saturated endpoint — forcing it in is a
    // deterministic quota violation for the continuous auditor. The
    // daemon's matching is canonical (certify() is bit-identity with a
    // from-scratch lic), so a reference engine fed the same acked
    // stream selects the same edges.
    let mut reference = Engine::new(universe.clone());
    for chunk in client_stream(&universe, 0, 1, 400).chunks(16) {
        reference.apply_batch(chunk).expect("reference applies");
    }
    let edge = universe
        .graph
        .edges()
        .find(|&e| reference.dynamic().is_alive(e) && !reference.matching().contains(e))
        .expect("a churned BA instance leaves unselected alive edges");
    daemon.inject_fault(InjectedFault::PhantomEdge { edge }).expect("inject");

    // The next audit pass must latch readiness off and spool a bundle.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (rs, why) = get(ops, "/readyz");
        if rs == 503 {
            assert!(why.contains("audit violation"), "unexpected reason: {why}");
            break;
        }
        assert!(Instant::now() < deadline, "/readyz never flipped to 503");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Latched: still 503 on every later scrape, and /healthz stays 200
    // (the process is alive, just not fit for traffic).
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(get(ops, "/readyz").0, 503, "readiness must latch, not flap");
    assert_eq!(get(ops, "/healthz").0, 200);

    let (_, sbody) = get(ops, "/status");
    let status = OpsStatus::parse(&sbody).expect("status parses");
    assert!(!status.ready && !status.audit_clean);
    assert!(status.audit_failures >= 1);

    // The spooled bundle replays to the same class of violation.
    let deadline = Instant::now() + Duration::from_secs(10);
    let bundles: Vec<PathBuf> = loop {
        let found: Vec<PathBuf> = std::fs::read_dir(&spool)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
                    .collect()
            })
            .unwrap_or_default();
        if !found.is_empty() {
            break found;
        }
        assert!(Instant::now() < deadline, "no bundle spooled to {}", spool.display());
        std::thread::sleep(Duration::from_millis(20));
    };
    let doc = std::fs::read_to_string(&bundles[0]).expect("read bundle");
    let bundle = ForensicBundle::parse(&doc).expect("bundle parses");
    assert_eq!(bundle.trigger, "audit");
    assert!(bundle.reason.contains("quota"), "expected a quota violation: {}", bundle.reason);
    let replayed = bundle.verify().expect("bundle carries a checkpoint");
    assert!(replayed.is_some(), "replay must reproduce the violation");

    daemon.abort();
}

#[test]
fn malformed_requests_never_take_the_plane_down() {
    let dir = scratch("fuzz");
    let universe = from_spec(SPEC).expect("spec");
    let daemon =
        Matchd::start("127.0.0.1:0", &universe, config(&dir), MetricsRegistry::new())
            .expect("start");
    let ops = daemon.ops_addr().expect("ops plane configured");

    // Seeded mutation loop in the codec_robustness style: truncations,
    // bit flips, binary garbage, oversized heads, wrong methods. Every
    // connection must end in a structured status (or silence for an
    // empty/hopeless request) and the daemon must still answer cleanly.
    let corpus: Vec<Vec<u8>> = vec![
        b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n".to_vec(),
        b"GET /status HTTP/1.1\r\nAccept: */*\r\n\r\n".to_vec(),
        b"POST /metrics HTTP/1.0\r\nContent-Length: 4\r\n\r\nabcd".to_vec(),
        b"DELETE /readyz HTTP/1.0\r\n\r\n".to_vec(),
        b"GET noslash HTTP/1.0\r\n\r\n".to_vec(),
    ];
    let mut rng = StdRng::seed_from_u64(0x0B5E55);
    for round in 0..120usize {
        let mut bytes = corpus[round % corpus.len()].clone();
        match round % 4 {
            0 => {
                let cut = rng.gen_range(0..bytes.len());
                bytes.truncate(cut);
            }
            1 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            2 => {
                bytes.clear();
                for _ in 0..rng.gen_range(1..64usize) {
                    bytes.push(rng.next_u32() as u8);
                }
            }
            _ => {
                let filler = vec![b'A'; rng.gen_range(1..200usize)];
                bytes.splice(4..4, filler);
            }
        }
        let mut s = TcpStream::connect(ops).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        let _ = s.write_all(&bytes);
        let _ = s.flush();
        let _ = s.shutdown(std::net::Shutdown::Write);
        // The daemon may close without a response — fine for hopeless input.
        if let Ok((status, _)) = http::read_response(&mut s, 1 << 20) {
            assert!(
                matches!(status, 200 | 400 | 404 | 405),
                "unexpected status {status} for {bytes:?}"
            );
        }
    }
    // An 8KiB+ head must be refused without a panic or a hang: either a
    // 400 (TooLarge) or a straight connection teardown — the server may
    // close with bytes still in its receive buffer, which surfaces to
    // the client as a reset rather than the response.
    let mut s = TcpStream::connect(ops).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let huge = vec![b'A'; http::MAX_REQUEST_BYTES + 16];
    let _ = s.write_all(&huge);
    let _ = s.flush();
    match http::read_response(&mut s, 1 << 20) {
        Ok((status, _)) => assert_eq!(status, 400),
        Err(e) => assert!(e.contains("socket error"), "unexpected failure: {e}"),
    }

    // Still standing, still correct.
    let (hs, hb) = get(ops, "/healthz");
    assert_eq!((hs, hb.as_str()), (200, "ok\n"));
    let (ms, body) = get(ops, "/metrics");
    assert_eq!(ms, 200);
    MetricsSnapshot::parse_prometheus(&body).expect("prometheus still parses");
    daemon.abort();
}
