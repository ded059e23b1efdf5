//! The metrics registry and its typed handles.
//!
//! Registration is the cold path: a [`MetricsRegistry`] hands out cheap
//! cloneable handles ([`Counter`], [`Gauge`], [`Histogram`]) keyed by a
//! `&'static str` name, behind one mutex that is touched only at
//! registration and snapshot time. Recording through a handle is the hot
//! path and is **lock-free**: one relaxed atomic RMW per observation, no
//! allocation, no branch on a registry lookup. Handles are `Send + Sync`,
//! so the parallel experiment sweeps (`owp_bench::par_map`) record into
//! the same registry without coordination.
//!
//! Histograms are log₂-bucketed over `u64` observations (latencies in
//! ticks, wall times in microseconds, batch sizes in events): bucket `k`
//! holds values whose bit length is `k`, i.e. the range `[2^(k-1), 2^k)`,
//! with bucket 0 reserved for the value 0. Sixty-five buckets therefore
//! cover the whole `u64` range with relative error bounded by 2×, which is
//! plenty for p50/p99-style health queries while keeping a histogram at a
//! fixed 67 atomics regardless of traffic.

use crate::snapshot::HistogramSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets: bucket 0 holds zeros, bucket `k ≥ 1` holds
/// values of bit length `k` (`2^(k-1) ..= 2^k − 1`), up to the full `u64`
/// range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotone event counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins `f64` gauge (stored as IEEE-754 bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// Log₂-bucketed distribution of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index of a value: its bit length (0 for 0).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `k` (`2^k − 1`; `u64::MAX` for the last).
#[inline]
pub fn bucket_upper_bound(k: usize) -> u64 {
    if k >= 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (index = bit length of the value).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (k, b) in self.0.buckets.iter().enumerate() {
            out[k] = b.load(Ordering::Relaxed);
        }
        out
    }

    /// A frozen copy: `count` is read first, then `sum`, then the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self.buckets().to_vec(),
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`), or `None` for an empty histogram. Because buckets are
    /// log₂, the estimate is within 2× of the true quantile. See
    /// [`HistogramSnapshot::quantile_upper_bound`].
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile_upper_bound(q)
    }

    /// Mean observation (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        self.snapshot().mean()
    }
}

#[derive(Debug, Default)]
struct Families {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The registry: named metric families, each registered once by static
/// key. Registration and snapshotting lock a mutex (cold); recording
/// through the returned handles never does.
///
/// Re-registering an existing key returns a handle to the *same* metric,
/// so independent subsystems can share a family by agreeing on its name.
/// A key may live in only one family: registering `"x"` as both a counter
/// and a gauge panics (it would be un-exportable).
///
/// The registry is a cheap `Arc`-backed handle: clones share the same
/// family table, so a component that must register families lazily (e.g.
/// the auditor's gauges, set only by the passes that measure them) can
/// keep a clone.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: std::sync::Arc<Mutex<Families>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn check_free(fams: &Families, key: &'static str, family: &str) {
        let taken = match family {
            "counter" => fams.gauges.contains_key(key) || fams.histograms.contains_key(key),
            "gauge" => fams.counters.contains_key(key) || fams.histograms.contains_key(key),
            _ => fams.counters.contains_key(key) || fams.gauges.contains_key(key),
        };
        assert!(!taken, "metric key {key:?} already registered in another family");
    }

    /// Registers (or retrieves) the counter named `key`.
    pub fn counter(&self, key: &'static str) -> Counter {
        let mut fams = self.inner.lock().expect("metrics registry poisoned");
        Self::check_free(&fams, key, "counter");
        fams.counters.entry(key).or_default().clone()
    }

    /// Registers (or retrieves) the gauge named `key`.
    pub fn gauge(&self, key: &'static str) -> Gauge {
        let mut fams = self.inner.lock().expect("metrics registry poisoned");
        Self::check_free(&fams, key, "gauge");
        fams.gauges.entry(key).or_default().clone()
    }

    /// Registers (or retrieves) the histogram named `key`.
    pub fn histogram(&self, key: &'static str) -> Histogram {
        let mut fams = self.inner.lock().expect("metrics registry poisoned");
        Self::check_free(&fams, key, "histogram");
        fams.histograms.entry(key).or_default().clone()
    }

    /// Point-in-time copy of every registered metric, keys sorted.
    pub fn snapshot(&self) -> crate::snapshot::MetricsSnapshot {
        let fams = self.inner.lock().expect("metrics registry poisoned");
        crate::snapshot::MetricsSnapshot {
            counters: fams
                .counters
                .iter()
                .map(|(&k, c)| (k.to_string(), c.get()))
                .collect(),
            gauges: fams
                .gauges
                .iter()
                .map(|(&k, g)| (k.to_string(), g.get()))
                .collect(),
            histograms: fams
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("messages_sent_total");
        let b = reg.counter("messages_sent_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        let g = reg.gauge("satisfaction_ratio");
        g.set(0.75);
        assert_eq!(reg.gauge("satisfaction_ratio").get(), 0.75);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every value lands in the bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let k = bucket_of(v);
            assert!(v <= bucket_upper_bound(k));
            if k > 0 {
                assert!(v > bucket_upper_bound(k - 1));
            }
        }
    }

    #[test]
    fn histogram_aggregates_and_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_ticks");
        for v in [1u64, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert!((h.mean() - 21.4).abs() < 1e-12);
        // p50 of {1,1,2,3,100}: 3rd observation = 2, bucket ub = 3.
        assert_eq!(h.quantile_upper_bound(0.5), Some(3));
        // p99 lands on the 100 observation, bucket [64,127] → ub 127.
        assert_eq!(h.quantile_upper_bound(0.99), Some(127));
        assert_eq!(reg.histogram("empty").quantile_upper_bound(0.5), None);
    }

    #[test]
    fn handles_are_thread_safe() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("parallel_total");
        let h = reg.histogram("parallel_hist");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }

    #[test]
    #[should_panic(expected = "another family")]
    fn cross_family_key_clash_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }
}
