//! E18 — convergence trace: the per-round trajectory of one synchronous LID
//! run, sampled by [`owp_core::run_lid_sync_series`]. Where E5 reports only
//! the endpoint (rounds to quiescence), this experiment shows the *shape* of
//! convergence: how fast edges lock, how the in-flight message population
//! drains, and when nodes start terminating.
//!
//! The final row is, by construction, bit-for-bit the values
//! [`owp_matching::MatchingReport`] computes for the finished matching —
//! the quick test asserts that with `f64::to_bits`.
//!
//! With `experiments e18 --trace-out <path>` the raw series is additionally
//! written as JSONL (schema in `owp_telemetry::series`); with
//! `--metrics-out` an extra asynchronous traced run feeds the metrics
//! registry.

use crate::Table;
use owp_core::run_lid_sync_series;
use owp_matching::Problem;
use owp_metrics::MetricsRegistry;
use owp_telemetry::ConvergenceSeries;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Instance used by the experiment: one mid-size G(n,p) overlay, fixed seed
/// so the trajectory is reproducible run to run.
fn instance(quick: bool) -> Problem {
    let n: usize = if quick { 128 } else { 2048 };
    let mut rng = StdRng::seed_from_u64(18);
    let g = owp_graph::generators::erdos_renyi(n, 12.0 / (n as f64 - 1.0), &mut rng);
    Problem::random_over(g, 4, 18)
}

/// Runs the traced convergence run and returns the table plus the raw
/// series (for `--trace-out`).
///
/// With a registry, an *additional* asynchronous traced run of the same
/// instance is replayed through a [`owp_metrics::MetricsRecorder`]
/// (message counters, send→deliver and PROP→accept latency histograms,
/// termination times), and the instance's weights and the run's final
/// matching are audited. The synchronous table and series are
/// byte-identical either way.
pub fn run(quick: bool, reg: Option<&MetricsRegistry>) -> (Table, ConvergenceSeries) {
    let p = instance(quick);
    let (r, series) = run_lid_sync_series(&p);
    assert!(r.terminated, "sync LID must terminate");

    let mut t = Table::new(
        format!(
            "E18 — per-round convergence trace (G(n,p), n = {}, b = 4)",
            p.node_count()
        ),
        &[
            "round",
            "matched edges",
            "total weight",
            "Σ satisfaction",
            "msgs sent",
            "in flight",
            "terminated %",
        ],
    );
    for s in series.samples() {
        t.row(vec![
            s.round.to_string(),
            s.matched_edges.to_string(),
            format!("{:.4}", s.total_weight),
            format!("{:.4}", s.satisfaction_total),
            s.messages_sent.to_string(),
            s.in_flight.to_string(),
            format!("{:.1}", 100.0 * s.terminated_fraction),
        ]);
    }
    if let Some(stable) = series.stabilization_round() {
        t.note(format!(
            "matching stable from round {stable} of {}; the tail is termination detection, not matching work",
            r.rounds
        ));
    }
    t.note("final row equals MatchingReport of the finished run bit-for-bit");

    if let Some(reg) = reg {
        let cfg = owp_simnet::SimConfig::with_seed(18)
            .latency(owp_simnet::LatencyModel::Constant { ticks: 10 })
            .telemetry();
        let r = owp_core::run_lid(&p, cfg);
        let mut rec = owp_metrics::MetricsRecorder::new(reg);
        rec.consume(&r.log);

        let mut auditor = owp_metrics::Auditor::new(reg);
        auditor.audit_weights(&p);
        auditor.audit_matching(&p, &r.matching);
    }
    (t, series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_matching::{matching_totals, MatchingReport};

    #[test]
    fn quick_run_trajectory_is_consistent() {
        let p = instance(true);
        let (r, series) = owp_core::run_lid_sync_series(&p);
        assert!(r.terminated);
        // One sample per round plus the round-0 (post-`on_start`) sample.
        assert_eq!(series.len() as u64, r.rounds + 1);

        // The endpoint is exactly what the report computes — same summation
        // sequence, hence bit-for-bit equal floats.
        let last = *series.last().expect("non-empty series");
        let report = MatchingReport::compute(&p, &r.matching);
        let (edges, weight, sat) = matching_totals(&p, &r.matching);
        assert_eq!(last.matched_edges, edges);
        assert_eq!(last.matched_edges, r.matching.size());
        assert_eq!(last.total_weight.to_bits(), weight.to_bits());
        assert_eq!(last.satisfaction_total.to_bits(), sat.to_bits());
        assert_eq!(last.total_weight.to_bits(), report.total_weight.to_bits());
        assert_eq!(
            last.satisfaction_total.to_bits(),
            report.satisfaction_total.to_bits()
        );
        assert_eq!(last.in_flight, 0, "quiescent run has nothing in flight");
        assert_eq!(last.terminated_fraction, 1.0);

        // The rendered table mirrors the series row for row.
        let (t, _) = run(true, None);
        assert_eq!(t.row_count(), series.len());
        let final_row = t.row_count() - 1;
        assert_eq!(t.cell(final_row, 1), edges.to_string());
    }

    #[test]
    fn metrics_variant_records_traffic_and_audits_clean() {
        let reg = owp_metrics::MetricsRegistry::new();
        let (t, series) = run(true, Some(&reg));
        assert_eq!(t.row_count(), series.len());
        // The async traced run produced real traffic and matched latencies.
        assert!(reg.counter("messages_sent_total").get() > 0);
        assert!(reg.counter("messages_sent_prop").get() > 0);
        let lat = reg.histogram("message_latency_ticks");
        assert!(lat.count() > 0);
        // Constant-latency model: every delivery takes 10 ticks, plus the
        // occasional tick when the per-link FIFO clamp serializes same-tick
        // sends — so the mean sits in [10, 11).
        assert!(lat.sum() >= lat.count() * 10, "latency below the constant model");
        assert!(lat.sum() < lat.count() * 11, "FIFO slack should stay fractional");
        // Both audit passes were clean.
        assert_eq!(reg.counter("audit_violations_total").get(), 0);
        let ratio = reg.gauge("audit_satisfaction_ratio").get();
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
    }

    #[test]
    fn stabilization_precedes_quiescence() {
        let (t, series) = run(true, None);
        let stable = series.stabilization_round().expect("non-empty");
        let last = series.last().unwrap();
        assert!(stable <= last.round);
        assert!(t.render().contains("stable from round"));
    }
}
