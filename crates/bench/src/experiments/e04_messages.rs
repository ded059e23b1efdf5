//! E4 / Figure 2 — message complexity: PROP and REJ messages per node as the
//! network grows, for unstructured (G(n,p)) and scale-free (BA) overlays.
//!
//! The structural bound is ≤ 2 messages per edge direction; the figure shows
//! the measured constant is far smaller and flat in `n` for constant average
//! degree (i.e. the protocol is genuinely local).

use crate::{mean, par_map, Table};
use owp_core::run_lid;
use owp_matching::Problem;
use owp_simnet::{MessageKind, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs the sweep. `quick` caps `n`.
pub fn run(quick: bool) -> Table {
    let sizes: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    };
    let seeds: u64 = if quick { 2 } else { 10 };
    let avg_degree = 12.0;

    let mut t = Table::new(
        "E4 / Figure 2 — messages per node vs n (avg degree ≈ 12)",
        &["topology", "n", "b", "PROP/node", "REJ/node", "total/node", "total/edge"],
    );

    for topo in ["gnp", "ba"] {
        for &n in sizes {
            for b in [2u32, 4, 8] {
                let samples: Vec<(f64, f64, f64)> = par_map(0..seeds, |seed| {
                    let mut rng = StdRng::seed_from_u64(seed * 131 + n as u64);
                    let g = match topo {
                        "gnp" => owp_graph::generators::erdos_renyi(
                            n,
                            avg_degree / (n as f64 - 1.0),
                            &mut rng,
                        ),
                        _ => owp_graph::generators::barabasi_albert(n, 6, &mut rng),
                    };
                    let m = g.edge_count() as f64;
                    let p = Problem::random_over(g, b, seed);
                    let r = run_lid(&p, SimConfig::with_seed(seed));
                    assert!(r.terminated);
                    (
                        r.stats.sent_of(MessageKind::Prop) as f64 / n as f64,
                        r.stats.sent_of(MessageKind::Rej) as f64 / n as f64,
                        r.stats.sent as f64 / m.max(1.0),
                    )
                });
                let prop: Vec<f64> = samples.iter().map(|s| s.0).collect();
                let rej: Vec<f64> = samples.iter().map(|s| s.1).collect();
                let per_edge: Vec<f64> = samples.iter().map(|s| s.2).collect();
                t.row(vec![
                    topo.to_string(),
                    n.to_string(),
                    b.to_string(),
                    format!("{:.2}", mean(&prop)),
                    format!("{:.2}", mean(&rej)),
                    format!("{:.2}", mean(&prop) + mean(&rej)),
                    format!("{:.3}", mean(&per_edge)),
                ]);
            }
        }
    }
    t.note("messages per edge stay bounded (< 4) and per-node counts track b and degree, not n");
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run() {
        let t = super::run(true);
        assert_eq!(t.row_count(), 2 * 3 * 3);
        // Total per edge bounded by the structural envelope.
        for r in 0..t.row_count() {
            let v: f64 = t.cell(r, 6).parse().unwrap();
            assert!(v < 4.0, "messages per edge {v} out of envelope");
        }
    }
}
