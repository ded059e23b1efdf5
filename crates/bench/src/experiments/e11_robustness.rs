//! E11 / Table 6 — beyond the paper's model: asynchrony and unreliability.
//!
//! Latency distributions only reorder events — the result is invariant
//! (Theorem 3's premise). Message *loss* breaks the reliable-channel
//! assumption: nodes can wait forever on dropped replies and locks can go
//! asymmetric. The table quantifies the degradation.

use crate::{mean, par_map, Table};
use owp_core::run_lid;
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::Problem;
use owp_simnet::{FaultPlan, LatencyModel, SimConfig};

/// Runs the latency × loss sweep on G(128, avg degree 10), b = 3.
pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 20 };
    let n = if quick { 64 } else { 128 };

    let mut t = Table::new(
        format!("E11 / Table 6 — robustness on gnp(n={n}), b=3"),
        &[
            "latency",
            "loss %",
            "terminated %",
            "≡ LIC %",
            "asym locks",
            "msgs/node",
        ],
    );

    let latencies: [(&str, LatencyModel); 3] = [
        ("const 1", LatencyModel::unit()),
        ("uniform 1-100", LatencyModel::Uniform { lo: 1, hi: 100 }),
        ("exp mean 20", LatencyModel::Exponential { mean: 20.0 }),
    ];

    for (lname, latency) in latencies {
        for loss in [0.0f64, 0.02, 0.10] {
            let rows: Vec<(bool, bool, f64, f64)> = par_map(0..seeds, |seed| {
                let p = Problem::random_gnp(n, 10.0 / (n as f64 - 1.0), 3, 700 + seed);
                let reference = lic(&p, SelectionPolicy::InOrder);
                let cfg = SimConfig::with_seed(seed)
                    .latency(latency.clone())
                    .faults(FaultPlan::with_drop_probability(loss));
                let r = run_lid(&p, cfg);
                (
                    r.terminated,
                    r.matching.same_edges(&reference),
                    r.asymmetric_locks as f64,
                    r.stats.sent as f64 / n as f64,
                )
            });
            let term = rows.iter().filter(|r| r.0).count() as f64 / seeds as f64;
            let same = rows.iter().filter(|r| r.1).count() as f64 / seeds as f64;
            let asym: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let msgs: Vec<f64> = rows.iter().map(|r| r.3).collect();
            if loss == 0.0 {
                assert_eq!(term, 1.0, "no-loss runs must terminate");
                assert_eq!(same, 1.0, "no-loss runs must equal LIC");
            }
            t.row(vec![
                lname.to_string(),
                format!("{:.0}", loss * 100.0),
                format!("{:.0}", term * 100.0),
                format!("{:.0}", same * 100.0),
                format!("{:.2}", mean(&asym)),
                format!("{:.1}", mean(&msgs)),
            ]);
        }
    }
    t.note("loss 0%: result invariant under any latency (asynchrony is harmless); loss > 0%: the reliable-channel assumption is load-bearing — retransmission would be needed");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_no_loss_rows_are_perfect() {
        let t = super::run(true);
        assert_eq!(t.row_count(), 9);
        for r in [0usize, 3, 6] {
            assert_eq!(t.cell(r, 2), "100");
            assert_eq!(t.cell(r, 3), "100");
        }
    }
}
