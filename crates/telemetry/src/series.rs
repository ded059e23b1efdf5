//! Per-round convergence time-series.
//!
//! Related P2P matching work (Lebedev et al.; Gai et al.) analyzes
//! convergence *trajectories* — rounds-to-stability and message complexity
//! over time — not just endpoints. [`ConvergenceSeries`] is the collector
//! the LID runners fill: one [`ConvergenceSample`] per simulator round,
//! exported as JSONL (one object per line, schema below).
//!
//! JSONL schema (stable, consumed by `experiments --trace-out`):
//!
//! ```text
//! {"round":3,"matched_edges":41,"total_weight":12.75,"satisfaction_total":18.2,
//!  "messages_sent":240,"in_flight":17,"terminated_fraction":0.55}
//! ```
//!
//! Floats are printed with Rust's shortest round-trip formatting, so the
//! final row is bit-for-bit comparable with `MatchingReport` values.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;

/// One sampled round of a convergence run.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize)]
pub struct ConvergenceSample {
    /// Round number (0 = after `on_start`, before any delivery).
    pub round: u64,
    /// Edges locked by both endpoints so far.
    pub matched_edges: usize,
    /// Total eq. 9 weight of the current matching.
    pub total_weight: f64,
    /// Total true satisfaction `Σ S_i` of the current matching.
    pub satisfaction_total: f64,
    /// Cumulative messages handed to the network.
    pub messages_sent: u64,
    /// Messages pending delivery when the sample was taken.
    pub in_flight: usize,
    /// Fraction of nodes that have locally terminated.
    pub terminated_fraction: f64,
}

impl ConvergenceSample {
    /// Appends one JSONL line (no trailing newline).
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"round\":{},\"matched_edges\":{},\"total_weight\":",
            self.round, self.matched_edges
        );
        json::write_f64(out, self.total_weight);
        out.push_str(",\"satisfaction_total\":");
        json::write_f64(out, self.satisfaction_total);
        let _ = write!(
            out,
            ",\"messages_sent\":{},\"in_flight\":{},\"terminated_fraction\":",
            self.messages_sent, self.in_flight
        );
        json::write_f64(out, self.terminated_fraction);
        out.push('}');
    }

    fn from_json(v: &Value<'_>) -> Result<ConvergenceSample, String> {
        let float = |key: &str| match v.field(key)?.nullable() {
            None => Ok(f64::NAN),
            Some(x) => x.as_f64(key),
        };
        Ok(ConvergenceSample {
            round: v.field("round")?.as_u64("round")?,
            matched_edges: v.field("matched_edges")?.as_usize("matched_edges")?,
            total_weight: float("total_weight")?,
            satisfaction_total: float("satisfaction_total")?,
            messages_sent: v.field("messages_sent")?.as_u64("messages_sent")?,
            in_flight: v.field("in_flight")?.as_usize("in_flight")?,
            terminated_fraction: float("terminated_fraction")?,
        })
    }
}

/// The per-round trajectory of one convergence run.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceSeries {
    samples: Vec<ConvergenceSample>,
}

impl ConvergenceSeries {
    /// Empty series.
    pub fn new() -> Self {
        ConvergenceSeries::default()
    }

    /// Appends one round's sample. Rounds must be non-decreasing.
    pub fn push(&mut self, sample: ConvergenceSample) {
        if let Some(last) = self.samples.last() {
            debug_assert!(sample.round >= last.round, "rounds must be monotone");
        }
        self.samples.push(sample);
    }

    /// All samples, in round order.
    pub fn samples(&self) -> &[ConvergenceSample] {
        &self.samples
    }

    /// The final sample (the run's endpoint), if any round was recorded.
    pub fn last(&self) -> Option<&ConvergenceSample> {
        self.samples.last()
    }

    /// Number of sampled rounds.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` iff no round was sampled.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// JSONL document: one sample object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 128);
        for s in &self.samples {
            s.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Writes the JSONL document to `path`.
    pub fn write_jsonl<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Parses a JSONL document produced by [`ConvergenceSeries::to_jsonl`]
    /// (blank lines skipped). Every schema field must be present, and
    /// rounds must not decrease.
    pub fn parse_jsonl(doc: &str) -> Result<ConvergenceSeries, String> {
        Self::from_samples(json::parse_lines(doc, ConvergenceSample::from_json)?)
    }

    /// The series of already-parsed `samples`, rejecting decreasing rounds
    /// ([`ConvergenceSeries::push`] only asserts them).
    fn from_samples(samples: Vec<ConvergenceSample>) -> Result<ConvergenceSeries, String> {
        match samples.windows(2).find(|w| w[1].round < w[0].round) {
            Some(w) => Err(format!("round {} follows round {}", w[1].round, w[0].round)),
            None => Ok(ConvergenceSeries { samples }),
        }
    }

    /// First round at which the matched-edge count reached its final value
    /// — the "edges stable from" convergence point (`None` for an empty
    /// series).
    pub fn stabilization_round(&self) -> Option<u64> {
        let last = self.samples.last()?;
        let final_edges = last.matched_edges;
        let mut stable_from = last.round;
        for s in self.samples.iter().rev() {
            if s.matched_edges == final_edges {
                stable_from = s.round;
            } else {
                break;
            }
        }
        Some(stable_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(round: u64, edges: usize, w: f64) -> ConvergenceSample {
        ConvergenceSample {
            round,
            matched_edges: edges,
            total_weight: w,
            satisfaction_total: w / 2.0,
            messages_sent: round * 10,
            in_flight: (20 - round) as usize,
            terminated_fraction: round as f64 / 20.0,
        }
    }

    #[test]
    fn jsonl_shape() {
        let mut series = ConvergenceSeries::new();
        series.push(s(0, 0, 0.0));
        series.push(s(1, 3, 1.5));
        assert_eq!(series.len(), 2);
        let jsonl = series.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.starts_with("{\"round\":0,\"matched_edges\":0,\"total_weight\":0.0"));
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn stabilization_round_finds_the_plateau() {
        let mut series = ConvergenceSeries::new();
        for (r, e) in [(0, 0), (1, 2), (2, 5), (3, 5), (4, 5)] {
            series.push(s(r, e, e as f64));
        }
        assert_eq!(series.stabilization_round(), Some(2));
        assert_eq!(series.last().unwrap().matched_edges, 5);
        assert_eq!(ConvergenceSeries::new().stabilization_round(), None);
    }

    #[test]
    fn jsonl_export_parses_back_bit_for_bit() {
        let mut series = ConvergenceSeries::new();
        for (r, e) in [(0u64, 0usize), (1, 3), (2, 5), (5, 5)] {
            series.push(s(r, e, 0.1 + 0.2 + e as f64));
        }
        let back = ConvergenceSeries::parse_jsonl(&series.to_jsonl()).expect("parses");
        assert_eq!(back.len(), series.len());
        for (a, b) in back.samples().iter().zip(series.samples()) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.matched_edges, b.matched_edges);
            assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
            assert_eq!(a.satisfaction_total.to_bits(), b.satisfaction_total.to_bits());
            assert_eq!(a.messages_sent, b.messages_sent);
            assert_eq!(a.in_flight, b.in_flight);
            assert_eq!(a.terminated_fraction.to_bits(), b.terminated_fraction.to_bits());
        }
        // And re-export is byte-identical.
        assert_eq!(back.to_jsonl(), series.to_jsonl());
    }

    #[test]
    fn parsers_reject_schema_drift() {
        // Reordered/missing fields are errors.
        assert!(ConvergenceSeries::parse_jsonl("{\"matched_edges\":0,\"round\":0}").is_err());
        assert!(ConvergenceSeries::parse_jsonl("not json\n").is_err());
        // Empty JSONL is a valid empty series.
        assert!(ConvergenceSeries::parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn file_export_round_trips() {
        let mut series = ConvergenceSeries::new();
        series.push(s(0, 1, 0.5));
        let dir = std::env::temp_dir().join("owp_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("series.jsonl");
        series.write_jsonl(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), series.to_jsonl());
        let _ = std::fs::remove_file(&path);
    }
}
