//! Point-in-time snapshots of a registry, with the two export formats.
//!
//! * **Prometheus text format** ([`MetricsSnapshot::to_prometheus`]) — the
//!   de-facto scrape format: `# TYPE` headers, one sample per line,
//!   histograms as cumulative `_bucket{le="…"}` series with `_sum` /
//!   `_count`. Bucket `le` bounds are the log₂ upper bounds
//!   (`0, 1, 3, 7, …, 2^k − 1, +Inf`).
//! * **JSON** ([`MetricsSnapshot::to_json`]) — one self-contained object
//!   for `experiments --metrics-out` files and `owp-inspect`; histogram
//!   buckets are stored sparsely as `[bit_length, count]` pairs.
//!
//! Both formats are deterministic (keys sorted by the registry) and both
//! round-trip through the matching `parse_*` function — `owp-inspect`
//! consumes either, and the golden tests in this module pin the exact
//! output byte-for-byte.

use crate::registry::{bucket_upper_bound, HISTOGRAM_BUCKETS};
use owp_telemetry::json;
use std::fmt::Write as _;

/// Frozen histogram state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Per-bucket counts, indexed by value bit length (see
    /// [`crate::registry::bucket_of`]); always [`HISTOGRAM_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile (`None` when
    /// empty). The live [`crate::Histogram`] freezes itself and asks this.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_upper_bound(k));
            }
        }
        Some(u64::MAX)
    }

    /// Interpolated `q`-quantile estimate (`None` when empty).
    ///
    /// Refines [`HistogramSnapshot::quantile_upper_bound`] by assuming the
    /// observations inside the target bucket are spread uniformly over its
    /// value range (`[2^(k−1), 2^k − 1]` for bucket `k ≥ 1`, the single
    /// value 0 for bucket 0) and placing the quantile rank linearly within
    /// it. Still bounded by the 2× log₂ bucket resolution, but without the
    /// systematic upward bias of reporting the bucket's upper bound.
    pub fn quantile_interpolated(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let before = seen;
            seen += c;
            if (seen as f64) < target {
                continue;
            }
            if k == 0 {
                return Some(0.0);
            }
            let lo = (bucket_upper_bound(k - 1) + 1) as f64;
            let hi = bucket_upper_bound(k) as f64;
            // Fraction of the bucket's population strictly below the rank.
            let frac = ((target - before as f64 - 1.0) / c as f64).clamp(0.0, 1.0);
            return Some(lo + frac * (hi - lo));
        }
        Some(bucket_upper_bound(HISTOGRAM_BUCKETS - 1) as f64)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen, exportable copy of every metric in a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Total number of metric families in the snapshot.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// `true` iff no metric was registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = write!(out, "{name} ");
            if v.is_finite() {
                json::write_f64(&mut out, *v);
            } else {
                out.push_str("NaN");
            }
            out.push('\n');
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let top = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(|k| k + 1)
                .unwrap_or(0);
            let mut cum = 0u64;
            for k in 0..top {
                cum += h.buckets[k];
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", bucket_upper_bound(k));
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// The snapshot as one JSON object (histogram buckets sparse).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            out.push(':');
            json::write_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{{\"count\":{},\"sum\":{},\"buckets\":[", h.count, h.sum);
            let mut first = true;
            for (k, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{k},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }

    /// Parses a document produced by [`MetricsSnapshot::to_json`].
    pub fn parse_json(doc: &str) -> Result<MetricsSnapshot, String> {
        let root = json::parse(doc)?;
        let section = |name: &str| root.field(name)?.as_obj(name);
        let mut snap = MetricsSnapshot::default();
        for (name, v) in section("counters")? {
            snap.counters.push((name.to_string(), v.as_u64(name)?));
        }
        for (name, v) in section("gauges")? {
            let x = match v.nullable() {
                None => f64::NAN,
                Some(x) => x.as_f64(name)?,
            };
            snap.gauges.push((name.to_string(), x));
        }
        for (name, h) in section("histograms")? {
            let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
            for pair in h.field("buckets")?.as_arr(name)? {
                let [k, c] = pair.as_tuple(name)?;
                let k = k.as_usize(name)?;
                *buckets
                    .get_mut(k)
                    .ok_or_else(|| format!("{name}: bucket index {k} out of range"))? =
                    c.as_u64(name)?;
            }
            snap.histograms.push((
                name.to_string(),
                HistogramSnapshot {
                    count: h.field("count")?.as_u64(name)?,
                    sum: h.field("sum")?.as_u64(name)?,
                    buckets,
                },
            ));
        }
        Ok(snap)
    }

    /// Parses a document produced by [`MetricsSnapshot::to_prometheus`].
    /// Reconstructs per-bucket counts from the cumulative `_bucket` series.
    pub fn parse_prometheus(doc: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::default();
        let mut cur_hist: Option<(String, Vec<u64>, u64, u64)> = None; // name, buckets, sum, count
        let mut prev_cum = 0u64;

        let flush =
            |h: &mut Option<(String, Vec<u64>, u64, u64)>, snap: &mut MetricsSnapshot| {
                if let Some((name, buckets, sum, count)) = h.take() {
                    snap.histograms.push((name, HistogramSnapshot { count, sum, buckets }));
                }
            };

        let mut kind: &str = "";
        for line in doc.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                flush(&mut cur_hist, &mut snap);
                let mut it = rest.split_whitespace();
                let name = it.next().ok_or("empty TYPE line")?.to_string();
                kind = match it.next() {
                    Some("counter") => "counter",
                    Some("gauge") => "gauge",
                    Some("histogram") => {
                        cur_hist = Some((name, vec![0u64; HISTOGRAM_BUCKETS], 0, 0));
                        prev_cum = 0;
                        "histogram"
                    }
                    other => return Err(format!("unknown metric type {other:?}")),
                };
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (head, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample line without value: {line}"))?;
            match kind {
                "counter" => snap.counters.push((
                    head.to_string(),
                    value.parse().map_err(|e| format!("{head}: {e}"))?,
                )),
                "gauge" => {
                    let x: f64 = if value == "NaN" {
                        f64::NAN
                    } else {
                        value.parse().map_err(|e| format!("{head}: {e}"))?
                    };
                    snap.gauges.push((head.to_string(), x));
                }
                "histogram" => {
                    let (_, buckets, sum, count) =
                        cur_hist.as_mut().ok_or("histogram sample outside a TYPE block")?;
                    if let Some(le_part) = head.strip_suffix("\"}") {
                        let le = le_part
                            .rsplit_once("{le=\"")
                            .ok_or_else(|| format!("malformed bucket line: {line}"))?
                            .1;
                        let cum: u64 = value.parse().map_err(|e| format!("{head}: {e}"))?;
                        if le == "+Inf" {
                            prev_cum = cum;
                        } else {
                            let ub: u64 = le.parse().map_err(|e| format!("le {le}: {e}"))?;
                            let k = crate::registry::bucket_of(ub);
                            buckets[k] = cum - prev_cum;
                            prev_cum = cum;
                        }
                    } else if head.ends_with("_sum") {
                        *sum = value.parse().map_err(|e| format!("{head}: {e}"))?;
                    } else if head.ends_with("_count") {
                        *count = value.parse().map_err(|e| format!("{head}: {e}"))?;
                    } else {
                        return Err(format!("unexpected histogram sample: {line}"));
                    }
                }
                _ => return Err(format!("sample before any TYPE line: {line}")),
            }
        }
        flush(&mut cur_hist, &mut snap);
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        let c = reg.counter("messages_sent_total");
        c.add(42);
        reg.counter("audit_violations_total");
        let g = reg.gauge("satisfaction_ratio");
        g.set(0.75);
        let h = reg.histogram("prop_latency_ticks");
        for v in [1u64, 1, 2, 3, 100] {
            h.observe(v);
        }
        reg.snapshot()
    }

    /// Golden: the Prometheus exposition is pinned byte-for-byte.
    #[test]
    fn prometheus_golden() {
        let expected = "\
# TYPE audit_violations_total counter
audit_violations_total 0
# TYPE messages_sent_total counter
messages_sent_total 42
# TYPE satisfaction_ratio gauge
satisfaction_ratio 0.75
# TYPE prop_latency_ticks histogram
prop_latency_ticks_bucket{le=\"0\"} 0
prop_latency_ticks_bucket{le=\"1\"} 2
prop_latency_ticks_bucket{le=\"3\"} 4
prop_latency_ticks_bucket{le=\"7\"} 4
prop_latency_ticks_bucket{le=\"15\"} 4
prop_latency_ticks_bucket{le=\"31\"} 4
prop_latency_ticks_bucket{le=\"63\"} 4
prop_latency_ticks_bucket{le=\"127\"} 5
prop_latency_ticks_bucket{le=\"+Inf\"} 5
prop_latency_ticks_sum 107
prop_latency_ticks_count 5
";
        assert_eq!(sample_snapshot().to_prometheus(), expected);
    }

    /// Golden: the JSON document is pinned byte-for-byte.
    #[test]
    fn json_golden() {
        let expected = "{\"counters\":{\"audit_violations_total\":0,\"messages_sent_total\":42},\
\"gauges\":{\"satisfaction_ratio\":0.75},\
\"histograms\":{\"prop_latency_ticks\":{\"count\":5,\"sum\":107,\"buckets\":[[1,2],[2,2],[7,1]]}}}\n";
        assert_eq!(sample_snapshot().to_json(), expected);
    }

    #[test]
    fn json_round_trips() {
        let snap = sample_snapshot();
        let back = MetricsSnapshot::parse_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
        // And the re-export is byte-identical.
        assert_eq!(back.to_json(), snap.to_json());
    }

    #[test]
    fn prometheus_round_trips() {
        let snap = sample_snapshot();
        let back = MetricsSnapshot::parse_prometheus(&snap.to_prometheus()).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_prometheus(), snap.to_prometheus());
    }

    #[test]
    fn snapshot_quantiles_match_live() {
        let snap = sample_snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 5);
        assert_eq!(h.quantile_upper_bound(0.5), Some(3));
        assert_eq!(h.quantile_upper_bound(0.99), Some(127));
        assert!((h.mean() - 21.4).abs() < 1e-12);
    }

    #[test]
    fn interpolated_quantiles_are_pinned() {
        // Uniform 1..=8 → buckets k1={1}, k2={2,3}, k3={4..7}, k4={8}.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_ticks");
        for v in 1u64..=8 {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.quantile_interpolated(0.0), Some(1.0)); // min
        assert_eq!(h.quantile_interpolated(0.5), Some(4.0)); // true median 4.5
        assert_eq!(h.quantile_interpolated(0.95), Some(8.0)); // true p95 ≈ 8
        assert_eq!(h.quantile_interpolated(1.0), Some(8.0)); // max bucket floor
        // Versus the coarse estimator: p50 upper bound is a whole bucket
        // high (7), interpolation lands inside it.
        assert_eq!(h.quantile_upper_bound(0.5), Some(7));

        // Interior interpolation: 100 observations all in bucket 7
        // ([64, 127]) spread the rank linearly across the bucket range.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("flat");
        for _ in 0..100 {
            h.observe(64);
        }
        let snap = reg.snapshot();
        let (_, h) = &snap.histograms[0];
        let p50 = h.quantile_interpolated(0.5).unwrap();
        assert!((p50 - (64.0 + 0.49 * 63.0)).abs() < 1e-9, "p50 = {p50}");

        // Zeros land exactly on 0; empty histograms have no quantiles.
        let reg = MetricsRegistry::new();
        let z = reg.histogram("zeros");
        z.observe(0);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].1.quantile_interpolated(0.9), Some(0.0));
        let empty = HistogramSnapshot { count: 0, sum: 0, buckets: vec![0; HISTOGRAM_BUCKETS] };
        assert_eq!(empty.quantile_interpolated(0.5), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsSnapshot::parse_json("not json").is_err());
        assert!(MetricsSnapshot::parse_json("{\"counters\":{").is_err());
        assert!(MetricsSnapshot::parse_prometheus("# TYPE x wibble\nx 1\n").is_err());
        assert!(MetricsSnapshot::parse_prometheus("x 1\n").is_err());
    }
}
