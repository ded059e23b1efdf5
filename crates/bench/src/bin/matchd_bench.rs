//! matchd_bench — the client-side load driver for a running matchd.
//!
//! ```text
//! matchd_bench --addr 127.0.0.1:7311 --universe ba:2000,3,2,42 \
//!              [--clients 4] [--events 400] [--chunk 16] [--shutdown]
//! ```
//!
//! Spawns `--clients` threads, each owning the disjoint node partition
//! `i ≡ c (mod clients)` of the universe (the spec must match the
//! daemon's, or submissions reference unknown state and are rejected).
//! Each client submits its self-inverse event stream in `--chunk`-event
//! batches, retrying through BUSY, and the driver prints acknowledged
//! throughput, the p99 submission round trip, the backpressure tally
//! (BUSY count + total/average server-advised retry-after), and the
//! daemon's final epoch. `--shutdown` asks the daemon to stop gracefully
//! afterwards.
//!
//! BUSY is *expected* under load — it is the bounded queue pushing back,
//! and clients ride through it. Anything else that stops a client is
//! reported by its cause: no daemon to connect to, a session that broke
//! mid-stream, or a REJECTED submission (the submission itself was
//! invalid, e.g. a spec mismatch). Each makes the driver exit nonzero.
//!
//! Exit codes: 0 success; 1 a client could not connect, lost its session
//! or was rejected; 2 bad usage.

use owp_bench::{drive_submits, DriveError, Tally};
use owp_matchd::{from_spec, MatchdClient};
use owp_metrics::MetricsRegistry;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: matchd_bench --addr HOST:PORT --universe SPEC\n\
         \x20                    [--clients N] [--events N] [--chunk N] [--shutdown]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut spec = None;
    let mut clients = 4usize;
    let mut events = 400usize;
    let mut chunk = 16usize;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = Some(value()),
            "--universe" => spec = Some(value()),
            "--clients" => clients = value().parse().unwrap_or_else(|_| usage()),
            "--events" => events = value().parse().unwrap_or_else(|_| usage()),
            "--chunk" => chunk = value().parse().unwrap_or_else(|_| usage()),
            "--shutdown" => shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("matchd_bench: unknown flag {other:?}");
                usage();
            }
        }
    }
    let (addr, spec) = match (addr, spec) {
        (Some(a), Some(s)) => (a, s),
        _ => usage(),
    };
    if clients == 0 || chunk == 0 {
        usage();
    }
    let universe = from_spec(&spec).unwrap_or_else(|e| {
        eprintln!("matchd_bench: {e}");
        std::process::exit(2);
    });

    let registry = MetricsRegistry::new();
    let hist = registry.histogram("matchd_submit_wall_us");
    let t0 = Instant::now();
    let results: Vec<Result<Tally, DriveError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (addr, universe, hist) = (addr.as_str(), &universe, &hist);
                s.spawn(move || drive_submits(addr, universe, c, clients, events, chunk, hist))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut acked = 0u64;
    let mut busy = 0u64;
    let mut retry_ms = 0u64;
    let (mut unreachable, mut broken, mut rejected) = (0usize, 0usize, 0usize);
    for r in &results {
        match r {
            Ok(t) => {
                acked += t.acked_events;
                busy += t.busy;
                retry_ms += t.retry_after_ms;
            }
            Err(e) => {
                eprintln!("matchd_bench: {e}");
                match e {
                    DriveError::Connect { .. } => unreachable += 1,
                    DriveError::Protocol { .. } => broken += 1,
                    DriveError::Rejected { .. } => rejected += 1,
                }
            }
        }
    }
    let p99_ms = hist.quantile_upper_bound(0.99).unwrap_or(0) as f64 / 1e3;
    let events_per_s = acked as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE);
    println!(
        "matchd_bench: {acked} events acked in {wall_ms:.1} ms ({events_per_s:.0} events/s), \
         p99 submit {p99_ms:.3} ms, {clients} clients"
    );
    if busy > 0 {
        println!(
            "matchd_bench: backpressure — {busy} BUSY retries, {retry_ms} ms server-advised \
             retry-after total ({:.1} ms avg)",
            retry_ms as f64 / busy as f64
        );
    } else {
        println!("matchd_bench: backpressure — none (0 BUSY retries)");
    }
    if unreachable > 0 {
        eprintln!("matchd_bench: {unreachable} client(s) could not connect to a daemon at {addr}");
    }
    if broken > 0 {
        eprintln!("matchd_bench: {broken} client(s) lost their session mid-stream (see above)");
    }
    if rejected > 0 {
        eprintln!(
            "matchd_bench: {rejected} client(s) REJECTED for non-backpressure reasons \
             (see above) — the daemon refused submissions outright"
        );
    }

    let mut probe = match MatchdClient::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("matchd_bench: cannot reconnect for the epoch probe: {e}");
            std::process::exit(1);
        }
    };
    match probe.epoch() {
        Ok(info) => println!(
            "matchd_bench: daemon at epoch {} (sigma_s {:.6}, {} active, {} matched)",
            info.epoch, info.sigma_s, info.active, info.matched
        ),
        Err(e) => {
            eprintln!("matchd_bench: epoch probe failed: {e}");
            std::process::exit(1);
        }
    }
    if shutdown {
        match probe.shutdown() {
            Ok(epoch) => println!("matchd_bench: daemon acknowledged shutdown at epoch {epoch}"),
            Err(e) => {
                eprintln!("matchd_bench: shutdown failed: {e}");
                std::process::exit(1);
            }
        }
    }
    std::process::exit(if unreachable + broken + rejected > 0 { 1 } else { 0 });
}
