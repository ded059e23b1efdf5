//! E23 — matchd ingest: end-to-end throughput and latency of the durable
//! matchmaking daemon over real loopback TCP, plus the durability proof.
//!
//! An in-process [`owp_matchd::Matchd`] serves `127.0.0.1:0`; 4 client
//! threads each own a disjoint node partition (so any batching
//! interleaving is valid, see `owp_matchd::client_stream`) and submit
//! 16-event chunks over their own connections, blocking on the
//! apply→WAL→ack path. The sweep moves the **max-linger** knob — the
//! adaptive batcher's latency/throughput trade — and reports:
//!
//! * **events/s** — acknowledged events over client wall time;
//! * **p99 ms** — tail of the per-submission round-trip (TCP write →
//!   apply → WAL append → ack read), from a log₂ histogram's
//!   `quantile_upper_bound`;
//! * **batches** — owner-side flushes (fewer = more merging);
//! * **busy** — admission-control rejections clients retried through.
//!
//! The second table is the durability cut: for each linger setting, a
//! *separate* daemon is killed via [`owp_matchd::Matchd::abort`] (the
//! in-process SIGKILL: no flush, no final snapshot) mid-stream, the data
//! dir is recovered with [`owp_matchd::recover`], and the row records
//! that the recovered epoch equals the last acknowledged epoch and that
//! the recovered engine **certifies** — bit-identity with a from-scratch
//! `lic()`. The CI smoke job repeats the same proof across a real
//! process boundary with `kill -9`.
//!
//! Scale: `--quick` uses n = 2000 with lingers {0, 2000}µs; the full run
//! uses n = 20000 (honors `OWP_E23_N`) with lingers {0, 500, 2000}µs.
//! Fsync policy is `snapshot` in both — `always` measures the disk, not
//! the daemon (E23's subject is the batching pipeline).

use crate::{drive_submits, Table, Tally};
use owp_matchd::{
    client_stream, from_spec, recover, FsyncPolicy, Matchd, MatchdClient, MatchdConfig,
    SubmitOutcome,
};
use owp_metrics::MetricsRegistry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Events per SUBMIT.
pub(crate) const CHUNK: usize = 16;
/// Client threads (= disjoint node-ownership partitions).
pub(crate) const CLIENTS: usize = 4;

fn scale(quick: bool) -> usize {
    if quick {
        return 2_000;
    }
    std::env::var("OWP_E23_N").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000)
}

/// A fresh directory, unique per call: the quick and metrics runs execute
/// concurrently under `cargo test` and must not share data directories.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("owp-e23-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the ingest sweep + durability table. With a registry, the daemon
/// of the *last* linger configuration publishes its `matchd_*`
/// gauges/counters/histograms into `reg` (fresh local registries isolate
/// every other configuration).
pub fn run(quick: bool, reg: Option<&MetricsRegistry>) -> Vec<Table> {
    let n = scale(quick);
    let lingers_us: &[u64] = if quick { &[0, 2000] } else { &[0, 500, 2000] };
    let spec = format!("ba:{n},3,2,42");
    let universe = from_spec(&spec).expect("spec");
    let events_per_client = (n / 5).max(200);

    let mut ingest = Table::new(
        format!(
            "E23 — matchd ingest over loopback TCP on {spec}: {CLIENTS} clients × \
             {events_per_client} events in {CHUNK}-event submissions, fsync=snapshot"
        ),
        &["linger us", "clients", "events", "batches", "ingest ms", "events/s", "p99 ms", "busy"],
    );
    let mut durability = Table::new(
        "E23 — durability cut: abort (no flush, no final snapshot) mid-stream, \
         recover from WAL + latest snapshot, certify",
        &["linger us", "acked epoch", "recovered epoch", "replayed", "snapshot epoch", "certified"],
    );

    let last = *lingers_us.last().expect("non-empty sweep");
    for &linger in lingers_us {
        // --- ingest sweep ---------------------------------------------
        let dir = scratch(&format!("ingest-{linger}"));
        // Per-config local registry so latency quantiles and daemon
        // gauges never mix linger settings; the caller's registry (if
        // any) observes the last configuration.
        let local = MetricsRegistry::new();
        let registry = match (reg, linger == last) {
            (Some(r), true) => (*r).clone(),
            _ => local.clone(),
        };
        let hist = registry.histogram("matchd_submit_wall_us");
        let mut config = MatchdConfig::new(&dir);
        config.max_linger = Duration::from_micros(linger);
        config.fsync = FsyncPolicy::OnSnapshot;
        config.snapshot_every = 64;
        let daemon =
            Matchd::start("127.0.0.1:0", &universe, config, registry.clone()).expect("start");
        let addr = daemon.local_addr();

        let t0 = Instant::now();
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let universe = &universe;
                    let hist = &hist;
                    s.spawn(move || {
                        drive_submits(addr, universe, c, CLIENTS, events_per_client, CHUNK, hist)
                            .expect("client drives its stream")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;

        let stats = daemon.shutdown();
        stats.certify.expect("graceful shutdown state certifies");
        let acked: u64 = tallies.iter().map(|t| t.acked_events).sum();
        let busy: u64 = tallies.iter().map(|t| t.busy).sum();
        let events_per_s = acked as f64 / (ingest_ms / 1e3).max(f64::MIN_POSITIVE);
        let p99_ms = hist.quantile_upper_bound(0.99).unwrap_or(0) as f64 / 1e3;
        ingest.row(vec![
            linger.to_string(),
            CLIENTS.to_string(),
            acked.to_string(),
            stats.batches.to_string(),
            format!("{ingest_ms:.3}"),
            format!("{events_per_s:.0}"),
            format!("{p99_ms:.3}"),
            busy.to_string(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);

        // --- durability cut -------------------------------------------
        let dir = scratch(&format!("crash-{linger}"));
        let mut config = MatchdConfig::new(&dir);
        config.max_linger = Duration::from_micros(linger);
        config.fsync = FsyncPolicy::OnSnapshot;
        config.snapshot_every = 16;
        let daemon =
            Matchd::start("127.0.0.1:0", &universe, config, MetricsRegistry::new()).expect("start");
        let addr = daemon.local_addr();
        // Half the stream, a single partition-0 client: a mid-flight cut.
        let mut conn = MatchdClient::connect(addr).expect("connect");
        let stream = client_stream(&universe, 0, CLIENTS, events_per_client / 2);
        let mut acked_epoch = 0u64;
        for chunk in stream.chunks(CHUNK) {
            if let SubmitOutcome::Accepted { epoch } =
                conn.submit_with_retry(chunk, 100).expect("submit")
            {
                acked_epoch = epoch;
            }
        }
        let stats = daemon.abort();
        assert!(!stats.graceful, "abort must not be a graceful stop");
        let rec = recover(&dir, &universe, FsyncPolicy::OnSnapshot)
            .expect("recovery must certify before serving");
        durability.row(vec![
            linger.to_string(),
            acked_epoch.to_string(),
            rec.engine.epoch().0.to_string(),
            rec.replayed.to_string(),
            rec.snapshot_epoch.to_string(),
            "yes".into(), // recover() fails outright otherwise
        ]);
        assert_eq!(rec.engine.epoch().0, acked_epoch, "recovery lost acknowledged batches");
        let _ = std::fs::remove_dir_all(&dir);
    }

    ingest.note(
        "p99 is the per-submission round trip observed by clients (TCP write → engine \
         apply → WAL append → ack read), log₂-bucket upper bound; linger 0 flushes \
         every submission, larger lingers merge concurrent clients into fewer batches",
    );
    ingest.note(format!(
        "busy counts admission-control rejections (bounded {}-submission ingest queue) \
         the clients retried through; acked events always total clients × stream length",
        MatchdConfig::new("unused").queue_capacity
    ));
    durability.note(
        "each row: a separate daemon killed without flush/snapshot after the acked \
         epoch, recovered from disk, replayed past the latest snapshot, and certified \
         bit-identical to a from-scratch lic() — recover() refuses to return otherwise",
    );
    vec![ingest, durability]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_consistent_numbers() {
        let tables = run(true, None);
        assert_eq!(tables.len(), 2);
        let (ingest, durability) = (&tables[0], &tables[1]);
        assert_eq!(ingest.row_count(), 2, "quick sweeps lingers 0 and 2000");
        for r in 0..ingest.row_count() {
            let events: u64 = ingest.cell(r, 2).parse().unwrap();
            let batches: u64 = ingest.cell(r, 3).parse().unwrap();
            let ingest_ms: f64 = ingest.cell(r, 4).parse().unwrap();
            let evps: f64 = ingest.cell(r, 5).parse().unwrap();
            let p99: f64 = ingest.cell(r, 6).parse().unwrap();
            // 4 clients × (2000/5 = 400 events) — every event acked.
            assert_eq!(events, 1600);
            assert!(batches > 0 && batches <= 400, "batches {batches}");
            assert!(ingest_ms > 0.0 && evps > 0.0 && p99 > 0.0);
        }
        assert_eq!(durability.row_count(), 2);
        for r in 0..durability.row_count() {
            assert_eq!(durability.cell(r, 1), durability.cell(r, 2), "epoch mismatch");
            assert_eq!(durability.cell(r, 5), "yes");
        }
    }

    #[test]
    fn metrics_variant_populates_the_daemon_instruments() {
        let reg = MetricsRegistry::new();
        let tables = run(true, Some(&reg));
        assert_eq!(tables.len(), 2);
        let json = reg.snapshot().to_json();
        for key in [
            owp_metrics::MATCHD_QUEUE_DEPTH,
            owp_metrics::MATCHD_ADMISSION_REJECTS,
            owp_metrics::MATCHD_WAL_BYTES,
            owp_metrics::MATCHD_BATCH_LINGER_US,
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert!(reg.histogram(owp_metrics::MATCHD_BATCH_LINGER_US).count() > 0);
        assert!(reg.histogram("matchd_submit_wall_us").count() > 0);
    }
}
