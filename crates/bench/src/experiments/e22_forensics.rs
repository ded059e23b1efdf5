//! E22 — forensics: the cost of the always-on black box, and an
//! injected-corruption sweep proving the dump → shrink → replay loop
//! end to end.
//!
//! Two tables:
//!
//! 1. **History-recording overhead** (headline, `bench_guard` schema, all
//!    numeric): the E19 churn workload applied batch-interleaved to two
//!    otherwise identical engines — the history ring at its default depth
//!    vs disabled — and the relative wall-time overhead of recording. The
//!    guard caps the overhead column at 10%: the black box must stay
//!    cheap enough to leave on in production.
//! 2. **Corruption sweep** (textual): for each fault kind × seed, a
//!    recording engine absorbs a seeded churn stream, the fault is
//!    injected, and `certify_with_forensics` must produce a bundle whose
//!    shrunk reproducer (a) is small and (b) replays to the *same*
//!    violation from the bundled checkpoint — the acceptance loop of the
//!    forensic subsystem, measured rather than asserted.
//!
//! With `--forensics-out <path>` the first captured bundle is written as
//! JSON (the input of `owp-inspect forensics`).

use super::e19_dynamic::EventGen;
use crate::Table;
use owp_engine::{normalize_violation, Engine, ForensicBundle, InjectedFault};
use owp_graph::{Graph, NodeId};
use owp_matching::Problem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Runs E22. Returns the overhead table (tracked by `BENCH_e22.json` /
/// `bench_guard`) and the corruption sweep, plus the first forensic
/// bundle the sweep captured (the `--forensics-out` artifact).
pub fn run(quick: bool) -> (Vec<Table>, Option<ForensicBundle>) {
    let overhead = overhead_table(quick);
    let (sweep, bundle) = corruption_table(quick);
    (vec![overhead, sweep], bundle)
}

/// History-on vs history-off wall time over the E19 churn model. The two
/// engines see the same pre-generated batches, applied interleaved so
/// clock drift hits both sides equally.
fn overhead_table(quick: bool) -> Table {
    let n: usize = if quick { 4_000 } else { 20_000 };
    let batches_n: usize = if quick { 12 } else { 32 };
    let events_per_batch = n / 100;

    let mut rng = StdRng::seed_from_u64(0xE22);
    let g = owp_graph::generators::barabasi_albert(n, 5, &mut rng);
    let p = Problem::random_over(g.clone(), 4, 1);
    let mut on = Engine::new(p.clone());
    let mut off = Engine::with_history(p, 0);

    let mut gen = EventGen::new(&g, 0xE22);
    let batches: Vec<_> = (0..batches_n).map(|_| gen.batch(events_per_batch)).collect();

    // Warm both engines on the first batch so arena growth is not billed
    // to either side, then time the rest interleaved.
    on.apply_batch(&batches[0]).expect("generated batches are valid");
    off.apply_batch(&batches[0]).expect("generated batches are valid");
    let (mut ms_on, mut ms_off) = (0.0f64, 0.0f64);
    for b in &batches[1..] {
        let t0 = Instant::now();
        on.apply_batch(b).expect("generated batches are valid");
        ms_on += t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        off.apply_batch(b).expect("generated batches are valid");
        ms_off += t1.elapsed().as_secs_f64() * 1e3;
    }
    let overhead_pct = if ms_off > 0.0 { 100.0 * (ms_on - ms_off) / ms_off } else { 0.0 };

    let mut t = Table::new(
        format!(
            "E22 — history recording overhead on ba(m=5), n={n}, b=4, \
             {} batches of {events_per_batch} mixed events",
            batches_n - 1
        ),
        &["ring", "events/batch", "batches", "ms", "overhead %"],
    );
    t.row(vec![
        "0".into(),
        events_per_batch.to_string(),
        (batches_n - 1).to_string(),
        format!("{ms_off:.3}"),
        "0.0".into(),
    ]);
    t.row(vec![
        "1".into(),
        events_per_batch.to_string(),
        (batches_n - 1).to_string(),
        format!("{ms_on:.3}"),
        format!("{overhead_pct:.1}"),
    ]);
    t.note(
        "ring=1 runs the default history depth, ring=0 disables it; \
         bench_guard caps the overhead column at 10%",
    );
    t
}

/// A fault that provably breaks certification on `e`, found through the
/// public probe API (clone, inject, certify).
fn find_fault(e: &Engine, g: &Graph, kind: &str) -> InjectedFault {
    match kind {
        "phantom" => {
            let dp = e.dynamic();
            let edge = g
                .edges()
                .find(|&ed| dp.is_alive(ed) && !e.matching().contains(ed))
                .expect("churned BA instance leaves unselected alive edges");
            InjectedFault::PhantomEdge { edge }
        }
        _ => g
            .nodes()
            .filter(|&i| e.dynamic().is_active(i))
            .find_map(|node| {
                let mut list: Vec<NodeId> = g.neighbor_ids(node).collect();
                if list.len() < 2 {
                    return None;
                }
                list.reverse();
                let mut probe = e.clone();
                probe.inject_fault(InjectedFault::SkippedRepair {
                    node,
                    list: list.clone(),
                });
                probe
                    .certify()
                    .is_err()
                    .then_some(InjectedFault::SkippedRepair { node, list })
            })
            .expect("some preference reversal perturbs the matching"),
    }
}

fn corruption_table(quick: bool) -> (Table, Option<ForensicBundle>) {
    let n: usize = if quick { 1_600 } else { 5_000 };
    let seeds: &[u64] = if quick { &[11, 12] } else { &[11, 12, 13] };
    const WARM_BATCHES: usize = 12;
    const HISTORY: usize = 16;

    let mut rng = StdRng::seed_from_u64(0xE22 + 1);
    let g = owp_graph::generators::barabasi_albert(n, 4, &mut rng);

    let mut t = Table::new(
        format!(
            "E22 — injected-corruption sweep on ba(m=4), n={n}, b=3: \
             {WARM_BATCHES} batches of {} events, history ring {HISTORY}, then one fault",
            n / 100
        ),
        &["fault", "seed", "detect epoch", "window", "repro len", "replays", "reproduced"],
    );
    let mut first_bundle: Option<ForensicBundle> = None;

    for kind in ["phantom", "skip"] {
        for &seed in seeds {
            let p = Problem::random_over(g.clone(), 3, seed);
            let mut e = Engine::with_history(p, HISTORY);
            let mut gen = EventGen::new(&g, seed);
            for _ in 0..WARM_BATCHES {
                e.apply_batch(&gen.batch(n / 100)).expect("generated batches are valid");
            }
            e.certify().expect("engine is canonical before injection");

            e.inject_fault(find_fault(&e, &g, kind));
            let bundle = e
                .certify_with_forensics(Some(seed), None)
                .expect_err("an injected fault must fail certification");

            let repro = bundle.reproducer();
            let (window, replays) = match &bundle.shrunk {
                Some(s) => (format!("{}..={}", s.start, s.end), s.replays.to_string()),
                None => ("-".into(), "-".into()),
            };
            let reproduced = match bundle.verify() {
                Ok(Some(v)) => {
                    if normalize_violation(&v) == normalize_violation(&bundle.reason) {
                        "yes"
                    } else {
                        "other"
                    }
                }
                Ok(None) => "no",
                Err(_) => "error",
            };
            t.row(vec![
                kind.into(),
                seed.to_string(),
                bundle.epoch.to_string(),
                window,
                repro.len().to_string(),
                replays,
                reproduced.into(),
            ]);
            if first_bundle.is_none() {
                first_bundle = Some(*bundle);
            }
        }
    }
    t.note(
        "reproduced = the shrunk window, replayed from the bundled checkpoint \
         against a fresh engine, fails certification with the same violation",
    );
    (t, first_bundle)
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_sweep_shrinks_and_reproduces_every_fault() {
        let (tables, bundle) = super::run(true);
        assert_eq!(tables.len(), 2);

        let overhead = &tables[0];
        assert_eq!(overhead.row_count(), 2);
        let pct: f64 = overhead.cell(1, 4).parse().unwrap();
        assert!(
            pct < 50.0,
            "recording overhead should be small even under timer noise: {pct}%"
        );

        let sweep = &tables[1];
        assert_eq!(sweep.row_count(), 4, "2 fault kinds x 2 quick seeds");
        for r in 0..sweep.row_count() {
            let len: usize = sweep.cell(r, 4).parse().unwrap();
            assert!((1..=10).contains(&len), "row {r}: reproducer stays small, got {len}");
            assert_eq!(sweep.cell(r, 6), "yes", "row {r}: must replay to the same violation");
        }

        let bundle = bundle.expect("the sweep captured at least one bundle");
        assert_eq!(bundle.trigger, "certify");
        let round_trip = owp_engine::ForensicBundle::parse(&bundle.to_json()).unwrap();
        assert_eq!(round_trip, bundle, "bundle JSON round-trips");
    }
}
