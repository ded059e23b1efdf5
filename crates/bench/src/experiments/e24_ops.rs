//! E24 — ops-plane overhead: what the live operations plane (admin
//! endpoint + continuous auditor + per-frame request spans, DESIGN.md
//! §14) costs the matchd ingest path.
//!
//! The E23 ingest sweep runs twice per linger setting over the same
//! universe: once with the ops plane **off** (no admin listener, no
//! auditor, spans still stamped — they are unconditionally part of the
//! frame path) and once **on**, with the continuous auditor at its
//! default 200 ms cadence and a scraper thread playing Prometheus:
//! `GET /metrics` + `/status` + `/readyz` every second for the whole
//! ingest window (quick mode tightens both so short windows still see
//! traffic). The cadences are the *operating contract*, not a stress
//! test — a 1 s scrape is already 15–60× Prometheus' default interval,
//! and a scraper in a zero-sleep loop measures how fast HTTP can
//! starve the ingest clients of the CPU, which on a small machine is
//! arbitrarily bad and says nothing about the plane's design cost. The
//! headline column is **overhead %** — the relative events/s loss of
//! ops-on against ops-off — which `bench_guard e24` caps at an
//! **absolute 5%**: the observability budget is a design contract
//! (ISSUE: ops plane must ride beside the hot path, never in it).
//!
//! Each rep runs one off and one on window seconds apart and prices
//! the pair; the reported overhead is the **median over the pairs**,
//! and the order within a rep alternates (off-on, on-off, ...). The
//! two tricks target the two noise shapes a shared box actually
//! produces: the median discards pairs wrecked by a one-off burst
//! (page-cache flush, neighbor VM), and the alternation stops a
//! monotone machine-wide drift (CPU-credit throttling, thermal
//! clamps) from always taxing the second run of the pair and booking
//! the drift as fake overhead. The **contract row** (linger = -1)
//! pools every pair across the linger grid — three times the sample —
//! and is the only row `bench_guard e24` caps; per-linger medians are
//! informational. Both modes pause
//! identically before the measured window, which lets the first audit
//! cycle — the one that pays the one-off universe re-derivation before
//! the auditor's structure cache takes over (DESIGN.md §14) — land
//! outside the clock; what the table prices is the *steady state* an
//! operator lives with: masked audit cycles under the auditor's 1%
//! duty-cycle cap, plus the scrape traffic.
//!
//! The second table reports the request-span split the ops plane
//! surfaces in `/status`: the queue-wait / apply / ack legs of the
//! SUBMIT spans measured by the engine owner during the final ops-on
//! run, straight from the `matchd_span_*` histograms.
//!
//! Scale: `--quick` uses n = 2000 with lingers {0, 2000}µs; the full
//! run uses n = 20000 (honors `OWP_E24_N`) with lingers {0, 500,
//! 2000}µs — the same grid as E23, so the two reports read side by
//! side.

use super::e23_matchd::{CHUNK, CLIENTS};
use crate::{drive_submits, Table};
use owp_matchd::{from_spec, FsyncPolicy, Matchd, MatchdConfig, OpsStatus};
use owp_metrics::MetricsRegistry;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Runs the overhead sweep + span-split table.
pub fn run(quick: bool) -> Vec<Table> {
    let n = scale(quick);
    let reps = if quick { 2 } else { 5 };
    let lingers_us: &[u64] = if quick { &[0, 2000] } else { &[0, 500, 2000] };
    let spec = format!("ba:{n},3,2,42");
    let universe = from_spec(&spec).expect("spec");
    // Long enough windows that per-window fixed costs (one audit cycle,
    // a few scrape rounds) amortize the way they do in a long-lived
    // daemon; quick mode keeps the windows short and only checks
    // plumbing, not the overhead contract.
    let events_per_client = if quick { (n / 5).max(200) } else { n };
    let (load, warmup) = if quick {
        (
            OpsLoad {
                scrape_every: Duration::from_millis(10),
                audit_every: Duration::from_millis(25),
            },
            Duration::from_millis(150),
        )
    } else {
        (
            OpsLoad {
                scrape_every: Duration::from_millis(1000),
                audit_every: Duration::from_millis(200),
            },
            Duration::from_millis(500),
        )
    };

    let mut overhead = Table::new(
        format!(
            "E24 — ops-plane overhead on the E23 ingest sweep ({spec}): {CLIENTS} clients × \
             {events_per_client} events, ops on = admin endpoint scraped every {} ms + \
             {} ms continuous auditor, median overhead over {reps} alternating off/on pairs",
            load.scrape_every.as_millis(),
            load.audit_every.as_millis(),
        ),
        &[
            "linger us",
            "events",
            "off ms",
            "on ms",
            "evps off",
            "evps on",
            "overhead %",
            "audit passes",
            "scrapes",
            "p99 on ms",
        ],
    );
    let mut spans = Table::new(
        "E24 — SUBMIT request-span split during the final ops-on run (matchd_span_* \
         histograms, microseconds): queue-wait vs apply vs ack as surfaced in /status"
            .to_string(),
        &["leg", "n", "mean us", "p50 us", "p95 us", "p99 us"],
    );

    let mut last_on_registry = None;
    // Pooled across the whole linger grid: the capped contract row.
    let mut all_pairs: Vec<f64> = Vec::new();
    let mut total_events = 0u64;
    let mut sum_off = 0.0f64;
    let mut sum_on = 0.0f64;
    let mut audits_total = 0u64;
    let mut scrapes_total = 0u64;
    let mut p99_max = 0.0f64;
    for &linger in lingers_us {
        let mut best_off = f64::INFINITY;
        let mut best_on = f64::INFINITY;
        let mut acked_total = 0u64;
        let mut audit_passes = 0u64;
        let mut scrapes = 0u64;
        let mut p99_on_ms = 0.0f64;
        let mut pair_overheads = Vec::with_capacity(reps);
        for rep in 0..reps {
            // Interleave one off and one on run per rep, and alternate
            // which mode leads: a monotone machine-wide drift across the
            // sweep (CPU-credit throttling on shared VMs, thermal clamps)
            // always taxes whichever run comes second, so a fixed
            // off-then-on order would book that drift as fake overhead.
            let run_off = |rep: usize| {
                one_ingest(
                    &universe,
                    linger,
                    events_per_client,
                    None,
                    warmup,
                    &format!("off-{linger}-{rep}"),
                )
            };
            let run_on = |rep: usize| {
                one_ingest(
                    &universe,
                    linger,
                    events_per_client,
                    Some(load),
                    warmup,
                    &format!("on-{linger}-{rep}"),
                )
            };
            let (off_res, on_res) = if rep % 2 == 0 {
                let off = run_off(rep);
                let on = run_on(rep);
                (off, on)
            } else {
                let on = run_on(rep);
                let off = run_off(rep);
                (off, on)
            };
            let (ms_off, _, _, _) = off_res;
            let (ms_on, acked, reg, scraped) = on_res;
            best_off = best_off.min(ms_off);
            // overhead of this adjacent pair: the two runs sit seconds
            // apart, so slow machine states hit both sides or neither.
            pair_overheads.push(100.0 * (ms_on - ms_off) / ms_on.max(f64::MIN_POSITIVE));
            if ms_on < best_on {
                best_on = ms_on;
                p99_on_ms = reg
                    .histogram("matchd_submit_wall_us")
                    .quantile_upper_bound(0.99)
                    .unwrap_or(0) as f64
                    / 1e3;
            }
            acked_total = acked;
            audit_passes = reg.counter(owp_metrics::MATCHD_AUDIT_PASSES).get();
            scrapes += scraped;
            last_on_registry = Some(reg);
        }
        let evps_off = acked_total as f64 / (best_off / 1e3).max(f64::MIN_POSITIVE);
        let evps_on = acked_total as f64 / (best_on / 1e3).max(f64::MIN_POSITIVE);
        // Median over the per-rep pairs: a single noise burst (page-cache
        // flush, neighbor VM) can wreck one pair without moving the
        // reported number, where a best-of-walls ratio lets one unlucky
        // mode-wide streak fake double-digit overhead.
        all_pairs.extend_from_slice(&pair_overheads);
        total_events += acked_total;
        sum_off += best_off;
        sum_on += best_on;
        audits_total += audit_passes;
        scrapes_total += scrapes;
        p99_max = p99_max.max(p99_on_ms);
        let overhead_pct = median(&mut pair_overheads);
        overhead.row(vec![
            linger.to_string(),
            acked_total.to_string(),
            format!("{best_off:.3}"),
            format!("{best_on:.3}"),
            format!("{evps_off:.0}"),
            format!("{evps_on:.0}"),
            format!("{overhead_pct:.1}"),
            audit_passes.to_string(),
            scrapes.to_string(),
            format!("{p99_on_ms:.3}"),
        ]);
    }

    // The contract row (linger = -1): median over every off/on pair of
    // the whole grid. This is the value `bench_guard e24` caps at 5% —
    // with sign-symmetric noise (a burst is equally likely to land in
    // the off or the on window of a pair) the pooled median concentrates
    // on the plane's true cost, where a per-linger median over a third
    // of the pairs still swings wider than the budget on a shared box.
    let evps_off_all = total_events as f64 / (sum_off / 1e3).max(f64::MIN_POSITIVE);
    let evps_on_all = total_events as f64 / (sum_on / 1e3).max(f64::MIN_POSITIVE);
    overhead.row(vec![
        "-1".to_string(),
        total_events.to_string(),
        format!("{sum_off:.3}"),
        format!("{sum_on:.3}"),
        format!("{evps_off_all:.0}"),
        format!("{evps_on_all:.0}"),
        format!("{:.1}", median(&mut all_pairs)),
        audits_total.to_string(),
        scrapes_total.to_string(),
        format!("{p99_max:.3}"),
    ]);

    let reg = last_on_registry.expect("at least one ops-on run");
    for (leg, key) in [
        ("queue", owp_metrics::MATCHD_SPAN_QUEUE_US),
        ("apply", owp_metrics::MATCHD_SPAN_APPLY_US),
        ("ack", owp_metrics::MATCHD_SPAN_ACK_US),
    ] {
        let h = reg.histogram(key);
        spans.row(vec![
            leg.to_string(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            format!("{:.1}", h.quantile_upper_bound(0.5).unwrap_or(0) as f64),
            format!("{:.1}", h.quantile_upper_bound(0.95).unwrap_or(0) as f64),
            format!("{:.1}", h.quantile_upper_bound(0.99).unwrap_or(0) as f64),
        ]);
    }

    overhead.note(
        "overhead % = median over off/on rep pairs of 100 × (on − off) / on wall \
         (equivalent to the events/s loss of that pair); the linger = -1 row pools every \
         pair of the grid and is the row bench_guard e24 caps at an absolute 5% — the ops \
         plane (admin listener, continuous auditor, slow-request ring) must ride beside \
         the ingest path, never in it. Per-linger rows report their own (noisier) pair \
         median plus the best wall per mode; the -1 row sums the best walls",
    );
    overhead.note(
        "scrapes counts completed /metrics + /status + /readyz round-trips served while \
         the ingest load ran (summed over reps); audit passes counts clean \
         continuous-audit rendezvous of the final ops-on run",
    );
    spans.note(
        "legs of the owner-measured SUBMIT spans: queue = enqueue → flush start, apply = \
         merged apply_batch + WAL append, ack = view publish → reply sent; the ring of \
         worst spans is in /status, scraped live by owp-inspect ops",
    );
    vec![overhead, spans]
}

/// Median of a small sample (mean of the middle two when even).
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite overheads"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn scale(quick: bool) -> usize {
    if quick {
        return 2_000;
    }
    std::env::var("OWP_E24_N").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owp-e24-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One admin scrape over raw HTTP/1.0; returns the body on a 200.
fn scrape(ops: SocketAddr, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(ops).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").ok()?;
    match owp_matchd::http::read_response(&mut s, 8 << 20) {
        Ok((200, body)) => Some(body),
        _ => None,
    }
}

/// The ops-on side's operating cadence: how often the scraper makes its
/// `/metrics` + `/status` + `/readyz` round and how often the auditor
/// probes the owner.
#[derive(Clone, Copy)]
struct OpsLoad {
    scrape_every: Duration,
    audit_every: Duration,
}

/// One full ingest run: a fresh daemon (ops plane on or off), 4 client
/// partitions, every chunk retried through BUSY. With ops on, a scraper
/// thread hits `/metrics`, `/status`, and `/readyz` at the configured
/// cadence for the whole window. Returns (wall ms, acked events,
/// registry, scrapes).
fn one_ingest(
    universe: &owp_matching::Problem,
    linger_us: u64,
    events_per_client: usize,
    ops: Option<OpsLoad>,
    warmup: Duration,
    tag: &str,
) -> (f64, u64, MetricsRegistry, u64) {
    let dir = scratch(tag);
    let registry = MetricsRegistry::new();
    let mut config = MatchdConfig::new(&dir);
    config.max_linger = Duration::from_micros(linger_us);
    config.fsync = FsyncPolicy::OnSnapshot;
    // No periodic snapshots inside the measured window: their fsyncs are
    // shared-disk latency noise uncorrelated between the paired off/on
    // windows, and E23's durability table already prices them. The
    // graceful-shutdown snapshot still runs (outside the clock).
    config.snapshot_every = 0;
    if let Some(load) = ops {
        config.ops_addr = Some("127.0.0.1:0".into());
        config.audit_every = load.audit_every;
    }
    let daemon =
        Matchd::start("127.0.0.1:0", universe, config, registry.clone()).expect("start");
    let addr = daemon.local_addr();
    // Outside the measured window: both modes pause identically, long
    // enough for the first audit cycle to land with ops on (the one-off
    // universe derivation that seeds the auditor's structure cache).
    std::thread::sleep(warmup);

    let hist = registry.histogram("matchd_submit_wall_us");
    let stop_scraper = AtomicBool::new(false);
    let (wall_ms, acked, scrapes) = std::thread::scope(|s| {
        let scraper = daemon.ops_addr().map(|ops_addr| {
            let stop = &stop_scraper;
            let every = ops.expect("ops_addr implies a load config").scrape_every;
            s.spawn(move || {
                let mut done = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let m = scrape(ops_addr, "/metrics").is_some();
                    let st = scrape(ops_addr, "/status")
                        .and_then(|b| OpsStatus::parse(&b).ok())
                        .is_some();
                    let r = scrape(ops_addr, "/readyz").is_some();
                    if m && st && r {
                        done += 1;
                    }
                    std::thread::sleep(every);
                }
                done
            })
        });
        let t0 = Instant::now();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let hist = &hist;
                s.spawn(move || {
                    drive_submits(addr, universe, c, CLIENTS, events_per_client, CHUNK, hist)
                        .expect("client drives its stream")
                        .acked_events
                })
            })
            .collect();
        let acked: u64 = handles.into_iter().map(|h| h.join().expect("client")).sum();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        stop_scraper.store(true, Ordering::SeqCst);
        let scrapes = scraper.map(|h| h.join().expect("scraper")).unwrap_or(0);
        (wall_ms, acked, scrapes)
    });
    let stats = daemon.shutdown();
    stats.certify.expect("graceful shutdown state certifies");
    let _ = std::fs::remove_dir_all(&dir);
    (wall_ms, acked, registry, scrapes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reports_consistent_numbers() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        let (overhead, spans) = (&tables[0], &tables[1]);
        assert_eq!(
            overhead.row_count(),
            3,
            "quick sweeps lingers 0 and 2000 plus the pooled -1 contract row"
        );
        for r in 0..overhead.row_count() {
            let linger: i64 = overhead.cell(r, 0).parse().unwrap();
            let events: u64 = overhead.cell(r, 1).parse().unwrap();
            let off_ms: f64 = overhead.cell(r, 2).parse().unwrap();
            let on_ms: f64 = overhead.cell(r, 3).parse().unwrap();
            let pct: f64 = overhead.cell(r, 6).parse().unwrap();
            let passes: u64 = overhead.cell(r, 7).parse().unwrap();
            let scrapes: u64 = overhead.cell(r, 8).parse().unwrap();
            // 4 clients × (2000/5 = 400 events) — every event acked, in
            // both modes (the table records the ops-on ack count); the
            // pooled row sums both linger settings.
            assert_eq!(events, if linger == -1 { 3200 } else { 1600 });
            assert!(off_ms > 0.0 && on_ms > 0.0);
            assert!(pct.is_finite(), "overhead must be a real ratio");
            // The ops plane actually ran: the auditor completed at least
            // one rendezvous or the scraper at least one full round.
            assert!(passes > 0 || scrapes > 0, "ops plane saw no traffic");
            let _ = scrapes;
        }
        let last = overhead.row_count() - 1;
        assert_eq!(overhead.cell(last, 0), "-1", "contract row is last");
        assert_eq!(spans.row_count(), 3, "queue / apply / ack legs");
        let n: u64 = spans.cell(0, 1).parse().unwrap();
        assert!(n > 0, "owner must observe SUBMIT spans with ops on");
        for r in 0..3 {
            let p50: f64 = spans.cell(r, 3).parse().unwrap();
            let p99: f64 = spans.cell(r, 5).parse().unwrap();
            assert!(p50 >= 0.0 && p99 >= p50, "quantiles out of order");
        }
    }
}
