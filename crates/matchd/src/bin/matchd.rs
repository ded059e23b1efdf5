//! The matchd daemon binary.
//!
//! ```text
//! matchd --addr 127.0.0.1:7311 --universe ba:2000,3,2,42 --data-dir /var/lib/matchd \
//!        [--batch-max 256] [--linger-us 2000] [--queue-cap 1024] \
//!        [--snapshot-every 256] [--fsync always|snapshot|never] \
//!        [--port-file PATH] \
//!        [--ops-addr HOST:PORT] [--ops-port-file PATH] \
//!        [--audit-every-ms N] [--spool-dir DIR] [--ready-watermark PCT]
//! ```
//!
//! Recovers the data directory (certifying the result), then serves
//! until a client sends SHUTDOWN — or the process receives SIGTERM or
//! SIGINT, which trigger the *same* graceful drain (flush pending
//! batches, final snapshot, WAL fsync) and exit 0. `--port-file` writes
//! the bound port (useful with `--addr 127.0.0.1:0`) once the daemon is
//! accepting, so scripts can wait on the file instead of racing the
//! bind; `--ops-port-file` does the same for the admin endpoint.
//!
//! `--ops-addr` turns on the live operations plane: `GET /metrics`,
//! `/healthz`, `/readyz`, `/status` over HTTP/1.0, plus the continuous
//! auditor (every `--audit-every-ms`, default 200) that spools a
//! forensic bundle to `--spool-dir` and latches `/readyz` to 503 on any
//! invariant violation.
//!
//! Exit codes: 0 clean shutdown with certified final state; 1 certify
//! failure at shutdown; 2 bad usage or startup failure.

use owp_matchd::{Matchd, MatchdConfig};
use owp_metrics::MetricsRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: matchd --addr HOST:PORT --universe SPEC --data-dir DIR\n\
         \x20                [--batch-max N] [--linger-us N] [--queue-cap N]\n\
         \x20                [--snapshot-every N] [--fsync always|snapshot|never]\n\
         \x20                [--port-file PATH]\n\
         \x20                [--ops-addr HOST:PORT] [--ops-port-file PATH]\n\
         \x20                [--audit-every-ms N] [--spool-dir DIR] [--ready-watermark PCT]\n\
         universe specs: ba:n,m,b,seed | gnp:n,milli_p,b,seed | ring:n,b,seed"
    );
    std::process::exit(2);
}

/// Set by the signal handler; polled by the watcher thread. A handler
/// may only do async-signal-safe work — storing a relaxed atomic is.
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGTERM and SIGINT via libc's `signal(2)`
/// (std links libc already; the workspace vendors no libc crate). The
/// daemon lib forbids `unsafe`; this binary is the one place process
/// plumbing is allowed, mirroring `owp-bench`'s alloc shim.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut universe_spec = None;
    let mut data_dir = None;
    let mut batch_max = 256usize;
    let mut linger_us = 2000u64;
    let mut queue_cap = 1024usize;
    let mut snapshot_every = 256u64;
    let mut fsync = owp_matchd::FsyncPolicy::OnSnapshot;
    let mut port_file: Option<String> = None;
    let mut ops_addr: Option<String> = None;
    let mut ops_port_file: Option<String> = None;
    let mut audit_every_ms = 200u64;
    let mut spool_dir: Option<String> = None;
    let mut ready_watermark = 90u32;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = Some(value()),
            "--universe" => universe_spec = Some(value()),
            "--data-dir" => data_dir = Some(value()),
            "--batch-max" => batch_max = value().parse().unwrap_or_else(|_| usage()),
            "--linger-us" => linger_us = value().parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => queue_cap = value().parse().unwrap_or_else(|_| usage()),
            "--snapshot-every" => snapshot_every = value().parse().unwrap_or_else(|_| usage()),
            "--fsync" => {
                fsync = owp_matchd::FsyncPolicy::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("matchd: {e}");
                    std::process::exit(2);
                })
            }
            "--port-file" => port_file = Some(value()),
            "--ops-addr" => ops_addr = Some(value()),
            "--ops-port-file" => ops_port_file = Some(value()),
            "--audit-every-ms" => audit_every_ms = value().parse().unwrap_or_else(|_| usage()),
            "--spool-dir" => spool_dir = Some(value()),
            "--ready-watermark" => {
                ready_watermark = value().parse().unwrap_or_else(|_| usage());
                if ready_watermark == 0 || ready_watermark > 100 {
                    eprintln!("matchd: --ready-watermark wants a percentage in 1..=100");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("matchd: unknown flag {other:?}");
                usage();
            }
        }
    }
    let (addr, spec, dir) = match (addr, universe_spec, data_dir) {
        (Some(a), Some(s), Some(d)) => (a, s, d),
        _ => usage(),
    };

    let universe = owp_matchd::from_spec(&spec).unwrap_or_else(|e| {
        eprintln!("matchd: {e}");
        std::process::exit(2);
    });
    let mut config = MatchdConfig::new(&dir);
    config.max_batch = batch_max;
    config.max_linger = Duration::from_micros(linger_us);
    config.queue_capacity = queue_cap;
    config.snapshot_every = snapshot_every;
    config.fsync = fsync;
    config.ops_addr = ops_addr;
    config.audit_every = Duration::from_millis(audit_every_ms.max(1));
    config.spool_dir = spool_dir.map(Into::into);
    config.ready_watermark = ready_watermark as f64 / 100.0;

    let registry = MetricsRegistry::new();
    let daemon = match Matchd::start(addr.as_str(), &universe, config, registry) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("matchd: startup failed: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "matchd: recovered epoch {} ({} WAL records replayed, {} torn bytes truncated), certified",
        daemon.recovered_epoch, daemon.replayed, daemon.torn_bytes
    );
    let local = daemon.local_addr();
    if let Some(pf) = &port_file {
        // Written only after the daemon certified and bound — scripts
        // may treat the file's existence as "ready".
        if let Err(e) = std::fs::write(pf, format!("{}\n", local.port())) {
            eprintln!("matchd: cannot write port file {pf}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(ops) = daemon.ops_addr() {
        println!("matchd: ops plane on {ops}");
        if let Some(pf) = &ops_port_file {
            if let Err(e) = std::fs::write(pf, format!("{}\n", ops.port())) {
                eprintln!("matchd: cannot write ops port file {pf}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!("matchd: serving {spec} on {local}");

    // SIGTERM/SIGINT get the client-SHUTDOWN treatment: a watcher
    // thread polls the handler's flag and asks the engine owner for the
    // same drain → snapshot → fsync sequence, so `kill <pid>` (or ^C)
    // never loses an acknowledged write. SIGKILL remains the crash
    // path that recovery certifies against.
    install_signal_handlers();
    {
        let handle = daemon.shutdown_handle();
        std::thread::Builder::new()
            .name("matchd-signals".into())
            .spawn(move || loop {
                if SIGNALED.load(Ordering::Relaxed) {
                    println!("matchd: signal received, draining");
                    handle.request_shutdown();
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            })
            .expect("cannot spawn signal watcher");
    }

    let stats = daemon.wait();
    println!(
        "matchd: shutdown at epoch {} after {} batches, sigma_s {:.6}",
        stats.epoch, stats.batches, stats.sigma_s
    );
    match stats.certify {
        Ok(()) => {
            println!("matchd: final state certified");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("matchd: FINAL STATE FAILED CERTIFICATION: {e}");
            std::process::exit(1);
        }
    }
}
