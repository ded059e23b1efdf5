//! E20 — causal critical path: how long is the longest happens-before
//! chain of an asynchronous LID run, and how does it track the synchronous
//! round complexity as `n` grows?
//!
//! Each run reconstructs the span-level happens-before DAG
//! ([`owp_telemetry::CausalDag`]) from a traced execution, certifies it
//! (the empirical Lemma 5 check: acyclic, temporally consistent), and
//! measures the critical path — the chain of message deliveries that
//! bounds the run's end-to-end latency. The headline comparison is
//! critical-path *length* (hops) against the synchronous engine's round
//! count on the same instance: the async dependency depth is the
//! machine-checked analogue of the round complexity, measured without any
//! round barrier.
//!
//! Two sweeps: Barabási–Albert (preferential attachment, heavy-tailed
//! degrees — the overlay regime the paper targets) and Erdős–Rényi at
//! matched average degree. With `--trace-out <path>` the raw event log of
//! the largest BA run is written as telemetry JSONL for `owp-inspect
//! causal`; with `--metrics-out` the run is replayed through the metrics
//! recorder and the causal audit refreshes the `lid_critical_path_len`
//! gauge.

use crate::Table;
use owp_core::{run_lid, run_lid_sync};
use owp_matching::Problem;
use owp_metrics::MetricsRegistry;
use owp_simnet::{LatencyModel, SimConfig};
use owp_telemetry::{CausalDag, EventLog};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One measured run on one instance.
struct RunRow {
    n: usize,
    edges: usize,
    spans: usize,
    roots: usize,
    depth: u32,
    crit_len: usize,
    crit_latency: u64,
    end_time: u64,
    sync_rounds: u64,
    max_fanout: u32,
    certified: bool,
}

fn measure(p: &Problem, seed: u64) -> (RunRow, EventLog) {
    let cfg = SimConfig::with_seed(seed).latency(LatencyModel::Uniform { lo: 1, hi: 20 });
    let r = run_lid(p, cfg.telemetry());
    assert!(r.terminated, "LID must terminate (Lemma 5)");
    let dag = CausalDag::from_log(&r.log);
    let path = dag.critical_path();
    let row = RunRow {
        n: p.node_count(),
        edges: p.edge_count(),
        spans: dag.len(),
        roots: dag.roots(),
        depth: dag.max_depth(),
        crit_len: path.len(),
        crit_latency: path.total_latency(),
        end_time: r.end_time,
        sync_rounds: run_lid_sync(p).rounds,
        max_fanout: dag.max_fanout(),
        certified: dag.is_certified(),
    };
    (row, r.log)
}

const HEADERS: &[&str] = &[
    "n",
    "edges",
    "spans",
    "roots",
    "dag depth",
    "crit len",
    "crit latency",
    "end time",
    "sync rounds",
    "max fanout",
    "certified",
];

fn push(t: &mut Table, row: &RunRow) {
    t.row(vec![
        row.n.to_string(),
        row.edges.to_string(),
        row.spans.to_string(),
        row.roots.to_string(),
        row.depth.to_string(),
        row.crit_len.to_string(),
        row.crit_latency.to_string(),
        row.end_time.to_string(),
        row.sync_rounds.to_string(),
        row.max_fanout.to_string(),
        if row.certified { "yes" } else { "NO" }.to_string(),
    ]);
}

fn sizes(quick: bool) -> &'static [usize] {
    if quick {
        &[64, 128, 256]
    } else {
        &[500, 1000, 2000, 5000]
    }
}

/// Runs both sweeps and returns the tables plus the raw event log of the
/// largest BA run (the `--trace-out` artifact, consumed by `owp-inspect
/// causal`).
///
/// With a registry, that log is replayed through the
/// [`owp_metrics::MetricsRecorder`] and its causal DAG through
/// [`owp_metrics::Auditor::audit_causal`], which certifies acyclicity
/// online and refreshes the `lid_critical_path_len` /
/// `lid_critical_path_latency` gauges.
pub fn run(quick: bool, reg: Option<&MetricsRegistry>) -> (Vec<Table>, EventLog) {
    let b = 3;
    let mut ba = Table::new(
        format!("E20 — causal critical path, Barabási–Albert (m = 4, b = {b})"),
        HEADERS,
    );
    let mut headline_log = EventLog::disabled();
    for &n in sizes(quick) {
        let mut rng = StdRng::seed_from_u64(20);
        let g = owp_graph::generators::barabasi_albert(n, 4, &mut rng);
        let p = Problem::random_over(g, b, 20 + n as u64);
        let (row, log) = measure(&p, n as u64);
        push(&mut ba, &row);
        headline_log = log; // sizes are ascending: keep the largest run
    }
    ba.note(
        "crit len counts message deliveries on the longest happens-before chain; \
         it plays the role of the round count with no round barrier in sight",
    );
    ba.note("certified = happens-before DAG is acyclic and temporally consistent (Lemma 5)");

    let mut er = Table::new(
        format!("E20 — causal critical path, Erdős–Rényi (avg deg 8, b = {b})"),
        HEADERS,
    );
    for &n in sizes(quick) {
        let mut rng = StdRng::seed_from_u64(120);
        let g = owp_graph::generators::erdos_renyi(n, 8.0 / (n as f64 - 1.0), &mut rng);
        let p = Problem::random_over(g, b, 120 + n as u64);
        let (row, _) = measure(&p, 1000 + n as u64);
        push(&mut er, &row);
    }

    if let Some(reg) = reg {
        let mut rec = owp_metrics::MetricsRecorder::new(reg);
        rec.consume(&headline_log);
        let mut auditor = owp_metrics::Auditor::new(reg);
        auditor.audit_causal(&CausalDag::from_log(&headline_log));
    }
    (vec![ba, er], headline_log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_telemetry::CausalDag;

    #[test]
    fn quick_run_certifies_every_instance() {
        let (tables, log) = run(true, None);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.row_count(), sizes(true).len());
            for r in 0..t.row_count() {
                assert_eq!(t.cell(r, 10), "yes", "uncertified row in {}", t.render());
                // The critical path is a lower bound on the dependency
                // depth and never exceeds the span count.
                let crit: usize = t.cell(r, 5).parse().unwrap();
                let depth: usize = t.cell(r, 4).parse().unwrap();
                let spans: usize = t.cell(r, 2).parse().unwrap();
                assert!(crit >= 1 && crit <= depth);
                assert!(depth < spans);
            }
        }
        // The shipped trace artifact reconstructs a certified DAG with the
        // critical path the table reported for the largest BA run.
        let dag = CausalDag::from_log(&log);
        assert!(dag.is_certified());
        let last = tables[0].row_count() - 1;
        assert_eq!(dag.critical_path_len().to_string(), tables[0].cell(last, 5));
    }

    #[test]
    fn metrics_variant_sets_the_critical_path_gauge() {
        let reg = owp_metrics::MetricsRegistry::new();
        let (tables, _log) = run(true, Some(&reg));
        assert_eq!(reg.counter("audit_violations_total").get(), 0);
        let last = tables[0].row_count() - 1;
        let expect: f64 = tables[0].cell(last, 5).parse().unwrap();
        assert_eq!(reg.gauge("lid_critical_path_len").get(), expect);
        assert!(reg.gauge("lid_critical_path_latency").get() > 0.0);
        assert!(reg.counter("messages_sent_total").get() > 0);
    }
}
