//! # owp-bench — experiment harness
//!
//! Regenerates every table and figure of the reproduction (see
//! `EXPERIMENTS.md`). The paper itself contains no empirical evaluation —
//! only the worked Figure 1 — so E1 reproduces that figure exactly and
//! E2–E11 are the evaluation its theorems define (approximation ratios vs
//! the proven bounds, message/round complexity, baseline comparisons,
//! robustness).
//!
//! Run a single experiment:
//!
//! ```text
//! cargo run -p owp-bench --release --bin experiments -- e2
//! cargo run -p owp-bench --release --bin experiments -- all
//! cargo run -p owp-bench --release --bin experiments -- e4 --quick
//! ```
//!
//! Timing claims are `BENCH_*.json` rows (`experiments <id> --json`) that
//! the `bench_guard` binary checks.

pub mod alloc_shim;
pub mod campaign;
pub mod experiments;
pub mod table;

pub use table::Table;

/// Order-preserving parallel map for the experiment sweeps: applies `f` to
/// every item on scoped threads, at most `available_parallelism` of them,
/// each taking one contiguous chunk. Every item of a sweep is an
/// independent seeded run, so the output does not depend on the thread
/// count. A worker's panic resumes on the caller.
pub fn par_map<T, R>(items: impl IntoIterator<Item = T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let items: Vec<T> = items.into_iter().collect();
    let threads = std::thread::available_parallelism()
        .map_or(1, |t| t.get())
        .min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut items = items.into_iter();
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let part: Vec<T> = items.by_ref().take(chunk).collect();
                s.spawn(move || part.into_iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// What one closed-loop SUBMIT client got from the daemon.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Events the daemon acknowledged.
    pub acked_events: u64,
    /// BUSY replies the client slept through.
    pub busy: u64,
    /// Sum of the server-advised retry-after delays, in ms.
    pub retry_after_ms: u64,
    /// Epoch of the last acknowledged submission.
    pub last_epoch: u64,
}

/// Why a [`drive_submits`] client stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriveError {
    /// The client never got a session: the TCP connect or the handshake
    /// failed (no daemon listening, or one that refused the HELLO).
    Connect {
        /// The client's index.
        client: usize,
        /// What the connect attempt reported.
        error: String,
    },
    /// The session broke mid-stream: an I/O error or a reply that is not
    /// an answer to SUBMIT.
    Protocol {
        /// The client's index.
        client: usize,
        /// What the failed call reported.
        error: String,
    },
    /// The daemon answered a submission REJECTED (an invalid submission,
    /// e.g. a universe spec that does not match the daemon's).
    Rejected {
        /// The client's index.
        client: usize,
        /// The daemon's reason.
        error: String,
    },
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::Connect { client, error } => {
                write!(f, "client {client} could not reach the daemon: {error}")
            }
            DriveError::Protocol { client, error } => {
                write!(f, "client {client} lost its session: {error}")
            }
            DriveError::Rejected { client, error } => write!(f, "client {client} rejected: {error}"),
        }
    }
}

/// Drives client `client` of `clients` against a running matchd: connects,
/// submits its `owp_matchd::client_stream` of `events` events in
/// `chunk`-event submissions, sleeps through each BUSY for the advised
/// retry-after, and observes every accepted round trip (µs) in `hist`.
///
/// # Errors
/// [`DriveError`]: no session, a broken session, or a REJECTED submission.
pub fn drive_submits(
    addr: impl std::net::ToSocketAddrs,
    universe: &owp_matching::Problem,
    client: usize,
    clients: usize,
    events: usize,
    chunk: usize,
    hist: &owp_metrics::Histogram,
) -> Result<Tally, DriveError> {
    use owp_matchd::SubmitOutcome;
    let stream = owp_matchd::client_stream(universe, client, clients, events);
    let mut conn = owp_matchd::MatchdClient::connect(addr)
        .map_err(|error| DriveError::Connect { client, error })?;
    let mut tally = Tally::default();
    for batch in stream.chunks(chunk) {
        loop {
            let sent = std::time::Instant::now();
            match conn.submit(batch).map_err(|error| DriveError::Protocol { client, error })? {
                SubmitOutcome::Accepted { epoch } => {
                    hist.observe(sent.elapsed().as_micros() as u64);
                    tally.acked_events += batch.len() as u64;
                    tally.last_epoch = epoch;
                    break;
                }
                SubmitOutcome::Busy { retry_after_ms } => {
                    tally.busy += 1;
                    tally.retry_after_ms += retry_after_ms as u64;
                    std::thread::sleep(std::time::Duration::from_millis(retry_after_ms as u64));
                }
                SubmitOutcome::Rejected { error } => {
                    return Err(DriveError::Rejected { client, error });
                }
            }
        }
    }
    Ok(tally)
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n − 1 denominator; 0 for < 2 samples).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Minimum of a non-empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(0u64..1000, |x| x * 2);
        assert_eq!(out, (0u64..1000).map(|x| x * 2).collect::<Vec<_>>());
        let kept: Vec<u64> = par_map(0u64..100, |x| (x % 3 == 0).then_some(x))
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(kept, (0u64..100).filter(|x| x % 3 == 0).collect::<Vec<_>>());
        assert!(par_map(0u64..0, |x| x).is_empty());
    }

    #[test]
    fn stats_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
    }
}
