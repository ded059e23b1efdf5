//! E15 / Table 10 — scale: the full distributed construction on overlay
//! sizes real deployments care about. Reports wall-clock time of the whole
//! pipeline (generate → preferences → weights → simulate LID → report),
//! messages per node, and sync rounds. Message locality (E4) predicts flat
//! per-node cost; this confirms it end to end.
//!
//! A second table breaks the pipeline down with a [`PhaseProfile`]
//! (generate / build{prefs,weights,order} / simulate / sync / report),
//! merged across the sweep, answering "where do the milliseconds live"
//! without a sampling profiler. The instance construction goes through
//! [`Problem::random_over_profiled`], which is bit-identical to
//! [`Problem::random_over`] — same RNG call sequence, same weights, same
//! edge order — so the profiled sweep measures exactly the unprofiled
//! pipeline.

use crate::Table;
use owp_core::{run_lid, run_lid_sync};
use owp_matching::{MatchingReport, Problem};
use owp_simnet::SimConfig;
use owp_telemetry::PhaseProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Runs the scale sweep. Returns the headline table (schema tracked by
/// `BENCH_e15.json` and `bench_guard`) plus the phase-profile table.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: &[usize] = if quick {
        &[5_000, 20_000]
    } else {
        &[10_000, 50_000, 100_000]
    };

    let mut t = Table::new(
        "E15 / Table 10 — end-to-end scale (BA m=5, b=4, one seed per size)",
        &[
            "n",
            "edges",
            "build ms",
            "LID ms",
            "msgs/node",
            "sync rounds",
            "mean sat",
        ],
    );

    let mut prof = PhaseProfile::new();
    for &n in sizes {
        let t0 = Instant::now();
        let g = prof.time("generate", |_| {
            let mut rng = StdRng::seed_from_u64(n as u64);
            owp_graph::generators::barabasi_albert(n, 5, &mut rng)
        });
        let edges = g.edge_count();
        let p = prof.time("build", |prof| Problem::random_over_profiled(g, 4, 99, prof));
        let build_ms = t0.elapsed().as_millis();

        let t1 = Instant::now();
        let r = prof.time("simulate", |_| run_lid(&p, SimConfig::with_seed(1)));
        let lid_ms = t1.elapsed().as_millis();
        assert!(r.terminated, "n={n}: LID must terminate");
        assert_eq!(r.asymmetric_locks, 0);

        let sync = prof.time("sync", |_| run_lid_sync(&p));
        assert!(sync.terminated);

        let report = prof.time("report", |_| MatchingReport::compute(&p, &r.matching));
        t.row(vec![
            n.to_string(),
            edges.to_string(),
            build_ms.to_string(),
            lid_ms.to_string(),
            format!("{:.1}", r.stats.sent_per_node(n)),
            sync.rounds.to_string(),
            format!("{:.3}", report.satisfaction_mean),
        ]);
    }
    t.note("on BA graphs (m=5, b=4, random preference lists) per-node message cost and round count stay flat while n grows 10×; other families differ: a path whose nodes all prefer their higher-id neighbour takes n − 1 rounds (tests/termination.rs)");

    vec![t, phase_table(&prof, sizes.len())]
}

/// Renders the merged profile as a table (one row per phase path).
fn phase_table(prof: &PhaseProfile, runs: usize) -> Table {
    let mut t = Table::new(
        format!("E15 — pipeline phase profile (merged over {runs} sizes)"),
        &["phase", "calls", "total ms", "share %"],
    );
    let denom = prof.total().as_secs_f64().max(f64::MIN_POSITIVE);
    for e in prof.entries() {
        t.row(vec![
            e.path.clone(),
            e.calls.to_string(),
            format!("{:.1}", e.total.as_secs_f64() * 1e3),
            format!("{:.1}", 100.0 * e.total.as_secs_f64() / denom),
        ]);
    }
    t.note("nested phases (build/…) are included in their parent; shares are of the top-level total");
    t
}

#[cfg(test)]
mod tests {
    /// The scale rows are expensive; the quick harness keeps them modest and
    /// asserts the locality claim (msgs/node roughly constant across sizes).
    #[test]
    fn quick_run_is_local() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        let t = &tables[0];
        assert_eq!(t.row_count(), 2);
        let m0: f64 = t.cell(0, 4).parse().unwrap();
        let m1: f64 = t.cell(1, 4).parse().unwrap();
        assert!((m0 - m1).abs() / m0 < 0.25, "msgs/node should be flat: {m0} vs {m1}");

        // The phase table covers the whole pipeline, nested build phases
        // included, each entered once per size.
        let phases = &tables[1];
        let paths: Vec<&str> = (0..phases.row_count()).map(|r| phases.cell(r, 0)).collect();
        for expect in [
            "generate",
            "build",
            "build/prefs",
            "build/weights",
            "build/order",
            "simulate",
            "sync",
            "report",
        ] {
            assert!(paths.contains(&expect), "missing phase {expect}: {paths:?}");
        }
        for r in 0..phases.row_count() {
            let calls: u64 = phases.cell(r, 1).parse().unwrap();
            assert_eq!(calls, 2, "each phase entered once per size");
        }
    }
}
