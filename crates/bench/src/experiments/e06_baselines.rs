//! E6 / Table 3 — LID against the baselines: global greedy (identical by
//! Lemma 6), random maximal matching, preference-rank greedy, and
//! better-response dynamics (the stability-seeking alternative), plus
//! Drake–Hougardy path growing in the one-to-one regime.

use crate::{mean, par_map, Table};
use owp_core::run_lid;
use owp_matching::baselines::{global_greedy, path_growing, random_maximal, rank_greedy};
use owp_matching::stable::blocking::blocking_pairs;
use owp_matching::stable::dynamics::better_response_from_empty;
use owp_matching::{BMatching, MatchingReport, Problem};
use owp_simnet::SimConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Agg {
    weight: Vec<f64>,
    sat: Vec<f64>,
    sat_min: Vec<f64>,
    jain: Vec<f64>,
    blocking: Vec<f64>,
}

impl Agg {
    fn new() -> Self {
        Agg {
            weight: vec![],
            sat: vec![],
            sat_min: vec![],
            jain: vec![],
            blocking: vec![],
        }
    }
    fn push(&mut self, p: &Problem, m: &BMatching) {
        let r = MatchingReport::compute(p, m);
        self.weight.push(r.total_weight);
        self.sat.push(r.satisfaction_total);
        self.sat_min.push(r.satisfaction_min);
        self.jain.push(r.jain_index);
        self.blocking.push(blocking_pairs(p, m).len() as f64);
    }
    fn row(&self, name: &str, t: &mut Table) {
        t.row(vec![
            name.to_string(),
            format!("{:.2}", mean(&self.weight)),
            format!("{:.2}", mean(&self.sat)),
            format!("{:.3}", mean(&self.sat_min)),
            format!("{:.3}", mean(&self.jain)),
            format!("{:.1}", mean(&self.blocking)),
        ]);
    }
}

fn run_family(label: &str, b: u32, quick: bool) -> Table {
    let seeds: u64 = if quick { 3 } else { 25 };
    let n = if quick { 96 } else { 256 };

    let per_seed: Vec<Vec<(usize, BMatching)>> = par_map(0..seeds, |seed| {
        let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
        let g = match label {
            "gnp" => owp_graph::generators::erdos_renyi(n, 10.0 / (n as f64 - 1.0), &mut rng),
            _ => owp_graph::generators::barabasi_albert(n, 5, &mut rng),
        };
        let p = Problem::random_over(g, b, seed);
        let mut out: Vec<(usize, BMatching)> = Vec::new();
        let lid = run_lid(&p, SimConfig::with_seed(seed));
        assert!(lid.terminated);
        out.push((0, lid.matching));
        out.push((1, global_greedy(&p)));
        out.push((2, random_maximal(&p, seed)));
        out.push((3, rank_greedy(&p)));
        let (brm, _) = better_response_from_empty(&p, 200_000);
        out.push((4, brm));
        if b == 1 {
            out.push((5, path_growing(&p)));
        }
        out
    });

    // Problems are seed-deterministic; re-derive them for the scoring pass
    // instead of sending them across the `par_map` boundary.
    let names = [
        "LID (this paper)",
        "global greedy",
        "random maximal",
        "rank greedy",
        "better-response (cap 200k)",
        "path growing (b=1)",
    ];
    let mut aggs: Vec<Agg> = (0..names.len()).map(|_| Agg::new()).collect();
    for (seed, matchings) in per_seed.into_iter().enumerate() {
        let seed = seed as u64;
        let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
        let g = match label {
            "gnp" => owp_graph::generators::erdos_renyi(n, 10.0 / (n as f64 - 1.0), &mut rng),
            _ => owp_graph::generators::barabasi_albert(n, 5, &mut rng),
        };
        let p = Problem::random_over(g, b, seed);
        for (alg, m) in matchings {
            aggs[alg].push(&p, &m);
        }
    }

    let mut t = Table::new(
        format!("E6 / Table 3 — algorithm comparison on {label}(n={n}), b={b}"),
        &["algorithm", "weight", "satisfaction", "min sat", "Jain", "blocking pairs"],
    );
    for (i, name) in names.iter().enumerate() {
        if !aggs[i].weight.is_empty() {
            aggs[i].row(name, &mut t);
        }
    }
    t.note("LID ≡ global greedy (Lemma 6). Random pairing trails badly; rank greedy is close (uniform quotas make the orders align — see E13) but carries no guarantee");
    t
}

/// Runs both topology families at b = 4 and the b = 1 regime with path
/// growing included.
pub fn run(quick: bool) -> Vec<Table> {
    vec![
        run_family("gnp", 4, quick),
        run_family("ba", 4, quick),
        run_family("gnp", 1, quick),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_lid_matches_greedy() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            // Row 0 = LID, row 1 = global greedy: identical weight column.
            assert_eq!(t.cell(0, 1), t.cell(1, 1), "LID and greedy diverge");
        }
    }
}
