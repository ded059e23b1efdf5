//! E5 / Figure 3 — convergence: synchronous round complexity and
//! asynchronous completion time as the network and quotas grow.
//!
//! The synchronous leg runs through [`run_lid_sync_series`], so besides the
//! round count we also get the *stabilization round* — the first round after
//! which the matching no longer changes — for free from the telemetry
//! series. The gap between the two is pure termination detection.

use crate::{mean, par_map, Table};
use owp_core::{run_lid, run_lid_sync_series};
use owp_matching::Problem;
use owp_metrics::{Auditor, MetricsRegistry};
use owp_simnet::{LatencyModel, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The G(n, p) instance of one sweep cell and seed (average degree ≈ 12).
fn instance(n: usize, b: u32, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed * 7919 + n as u64);
    let g = owp_graph::generators::erdos_renyi(n, 12.0 / (n as f64 - 1.0), &mut rng);
    Problem::random_over(g, b, seed + 5)
}

/// Runs the sweep. `quick` caps `n`. With a registry, per-run histograms
/// (`lid_sync_rounds`, `lid_stabilization_round`,
/// `lid_async_completion_ticks`) land in `reg`, and every synchronous
/// result is audited (quota/mutuality/Lemma 4) in sweep order — the
/// auditor's violation counter stays at zero on a healthy build, and its
/// gauges describe the sweep's last instance. The table is the same
/// either way.
pub fn run(quick: bool, reg: Option<&MetricsRegistry>) -> Table {
    let sizes: &[usize] = if quick {
        &[64, 256]
    } else {
        &[64, 128, 256, 512, 1024, 2048]
    };
    let seeds: u64 = if quick { 2 } else { 10 };

    let mut auditor = reg.map(Auditor::new);
    // Handles are cloned once here (cold path); the `par_map` closures record
    // through them lock-free.
    let hists = reg.map(|r| {
        (
            r.histogram("lid_sync_rounds"),
            r.histogram("lid_stabilization_round"),
            r.histogram("lid_async_completion_ticks"),
        )
    });

    let mut t = Table::new(
        "E5 / Figure 3 — convergence vs n (G(n,p), avg degree ≈ 12)",
        &[
            "n",
            "b",
            "sync rounds",
            "stable round",
            "async t (const 10)",
            "async t (exp mean 10)",
        ],
    );

    for &n in sizes {
        for b in [2u32, 8] {
            let runs = par_map(0..seeds, |seed| {
                let p = instance(n, b, seed);
                let (sync, series) = run_lid_sync_series(&p);
                assert!(sync.terminated);
                let stable = series.stabilization_round().unwrap_or(0);
                let c = run_lid(
                    &p,
                    SimConfig::with_seed(seed).latency(LatencyModel::Constant { ticks: 10 }),
                );
                let e = run_lid(
                    &p,
                    SimConfig::with_seed(seed).latency(LatencyModel::Exponential { mean: 10.0 }),
                );
                assert!(c.terminated && e.terminated);
                if let Some((h_rounds, h_stable, h_async)) = &hists {
                    h_rounds.observe(sync.rounds);
                    h_stable.observe(stable);
                    h_async.observe(c.end_time);
                    h_async.observe(e.end_time);
                }
                let row = (
                    sync.rounds as f64,
                    stable as f64,
                    c.end_time as f64,
                    e.end_time as f64,
                );
                (row, p, sync.matching)
            });
            // Audited in seed order after the map: the auditor's gauges
            // keep the last pass, so a pass per thread would leave
            // whichever seed finished last.
            if let Some(auditor) = auditor.as_mut() {
                for (_, p, m) in &runs {
                    auditor.audit_matching(p, m);
                }
            }
            let rounds: Vec<f64> = runs.iter().map(|(r, ..)| r.0).collect();
            let stable: Vec<f64> = runs.iter().map(|(r, ..)| r.1).collect();
            let tc: Vec<f64> = runs.iter().map(|(r, ..)| r.2).collect();
            let te: Vec<f64> = runs.iter().map(|(r, ..)| r.3).collect();
            t.row(vec![
                n.to_string(),
                b.to_string(),
                format!("{:.1}", mean(&rounds)),
                format!("{:.1}", mean(&stable)),
                format!("{:.0}", mean(&tc)),
                format!("{:.0}", mean(&te)),
            ]);
        }
    }
    t.note(
        "on these G(n,p) instances rounds grow slowly (rejection chains); \
         not a bound: a b=1 path takes n − 1 rounds",
    );
    t.note("the matching stabilizes before the protocol quiesces: the tail rounds are termination detection");
    t
}

#[cfg(test)]
mod tests {
    use owp_core::run_lid_sync_series;
    use owp_metrics::{Auditor, MetricsRegistry};

    #[test]
    fn metrics_variant_fills_histograms_and_audits_clean() {
        let reg = MetricsRegistry::new();
        let t = super::run(true, Some(&reg));
        assert_eq!(t.row_count(), 4);
        // 4 cells × 2 seeds = 8 sync runs, each observed once.
        assert_eq!(reg.histogram("lid_sync_rounds").count(), 8);
        assert_eq!(reg.histogram("lid_async_completion_ticks").count(), 16);
        // Every audited LID matching was certified clean.
        assert_eq!(reg.counter("audit_checks_total").get(), 8);
        assert_eq!(reg.counter("audit_violations_total").get(), 0);
        assert_eq!(reg.gauge("audit_epsilon_blocking_edges").get(), 0.0);
    }

    #[test]
    fn metrics_snapshot_is_deterministic_and_audits_the_last_instance() {
        let metered = || {
            let reg = MetricsRegistry::new();
            super::run(true, Some(&reg));
            reg
        };
        let reg = metered();
        // The quick sweep's last cell and seed: n = 256, b = 8, seed 1.
        let p = super::instance(256, 8, 1);
        let serial = MetricsRegistry::new();
        Auditor::new(&serial).audit_matching(&p, &run_lid_sync_series(&p).0.matching);
        for gauge in ["audit_satisfaction_ratio", "audit_epsilon_blocking_edges"] {
            assert_eq!(reg.gauge(gauge).get(), serial.gauge(gauge).get(), "{gauge}");
        }
        assert_eq!(reg.snapshot().to_json(), metered().snapshot().to_json());
    }

    #[test]
    fn quick_run() {
        let t = super::run(true, None);
        assert_eq!(t.row_count(), 4);
        for r in 0..t.row_count() {
            let rounds: f64 = t.cell(r, 2).parse().unwrap();
            let stable: f64 = t.cell(r, 3).parse().unwrap();
            assert!(rounds >= 1.0);
            assert!(
                stable <= rounds,
                "stabilization cannot come after quiescence: {stable} > {rounds}"
            );
        }
    }
}
