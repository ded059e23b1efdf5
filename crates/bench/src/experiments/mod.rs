//! One module per experiment; each returns a [`crate::Table`] so the
//! binary stays thin and the harness is unit-testable.
//!
//! The `quick` flag shrinks sweeps/seed counts to keep CI fast; the numbers
//! in `EXPERIMENTS.md` come from full (`quick = false`) runs.

pub mod e01_figure1;
pub mod e02_weight_ratio;
pub mod e03_satisfaction_ratio;
pub mod e04_messages;
pub mod e05_convergence;
pub mod e06_baselines;
pub mod e07_bmax_sweep;
pub mod e08_lemma1_tightness;
pub mod e09_churn;
pub mod e10_equivalence;
pub mod e11_robustness;
pub mod e12_reliable;
pub mod e13_normalization;
pub mod e14_fairness;
pub mod e15_scale;
pub mod e16_stability;
pub mod e17_ratio_at_scale;
pub mod e18_convergence_trace;
pub mod e19_dynamic;
pub mod e20_critical_path;
pub mod e22_forensics;
pub mod e23_matchd;
pub mod e24_ops;
pub mod e25_campaign;

use crate::Table;
use owp_metrics::MetricsRegistry;
use owp_telemetry::{ConvergenceSeries, EventLog};

/// All experiment ids, in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19", "e20", "e22", "e23", "e24", "e25",
];

/// The experiments that record a raw trace artifact — i.e. that honor
/// `--trace-out`. `e18` writes a per-round [`ConvergenceSeries`]; `e20`
/// writes the span-annotated telemetry [`EventLog`] (the input format of
/// `owp-inspect causal`). Everything else ignores the flag (the binary
/// warns per experiment).
pub const TRACED: &[&str] = &["e18", "e20"];

/// The experiments with a metrics-instrumented variant — i.e. that
/// populate a [`MetricsRegistry`] under `--metrics-out`/`--watch`. The
/// rest run un-instrumented even when a registry is supplied.
pub const INSTRUMENTED: &[&str] = &["e5", "e18", "e19", "e20", "e23", "e25"];

/// The experiments that capture a [`owp_engine::ForensicBundle`] — i.e.
/// that honor `--forensics-out`. `e22` surfaces the first post-mortem
/// bundle its injected-corruption sweep produced (the input format of
/// `owp-inspect forensics`).
pub const FORENSIC: &[&str] = &["e22"];

/// The experiments that run a chaos campaign and carry an attested
/// [`crate::campaign::CampaignReport`] — i.e. that honor
/// `--campaign-out`. `e25` writes the canonical report JSON (the input
/// format of `owp-inspect campaign`).
pub const CAMPAIGN: &[&str] = &["e25"];

/// The raw artifact a traced experiment attaches to its tables; what
/// `--trace-out` serializes (each variant has its own JSONL schema).
pub enum TraceArtifact {
    /// Per-round convergence samples (`owp_telemetry::series` schema).
    Series(ConvergenceSeries),
    /// Structured telemetry events with causal span records
    /// (`owp_telemetry::event` schema; input of `owp-inspect causal`).
    Events(EventLog),
}

impl TraceArtifact {
    /// Number of JSONL rows the artifact serializes to.
    pub fn len(&self) -> usize {
        match self {
            TraceArtifact::Series(s) => s.len(),
            TraceArtifact::Events(l) => l.len(),
        }
    }

    /// `true` iff the artifact has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The artifact in its JSONL serialization.
    pub fn to_jsonl(&self) -> String {
        match self {
            TraceArtifact::Series(s) => s.to_jsonl(),
            TraceArtifact::Events(l) => l.to_jsonl(),
        }
    }
}

/// Dispatches an experiment by id. Returns the tables it produced.
pub fn run(id: &str, quick: bool) -> Option<Vec<Table>> {
    run_with_trace(id, quick).map(|(tables, _)| tables)
}

/// Like [`run`], but also returns the raw [`TraceArtifact`] for
/// experiments that record one (see [`TRACED`]) so the binary can honor
/// `--trace-out` without running the experiment twice.
pub fn run_with_trace(id: &str, quick: bool) -> Option<(Vec<Table>, Option<TraceArtifact>)> {
    run_instrumented(id, quick, None)
}

/// Full dispatch: like [`run_with_trace`], and when a registry is supplied
/// the experiments listed in [`INSTRUMENTED`] run their metrics variant
/// (registry histograms/counters + online audit) instead of the plain one.
/// Tables are identical either way.
pub fn run_instrumented(
    id: &str,
    quick: bool,
    metrics: Option<&MetricsRegistry>,
) -> Option<(Vec<Table>, Option<TraceArtifact>)> {
    if id == "e18" {
        let (table, series) = match metrics {
            Some(reg) => e18_convergence_trace::run_with_series_metrics(quick, reg),
            None => e18_convergence_trace::run_with_series(quick),
        };
        return Some((vec![table], Some(TraceArtifact::Series(series))));
    }
    if id == "e20" {
        let (tables, log) = match metrics {
            Some(reg) => e20_critical_path::run_with_metrics(quick, reg),
            None => e20_critical_path::run_with_log(quick),
        };
        return Some((tables, Some(TraceArtifact::Events(log))));
    }
    if let Some(reg) = metrics {
        match id {
            "e5" => return Some((vec![e05_convergence::run_with_metrics(quick, reg)], None)),
            "e19" => return Some((e19_dynamic::run_with_metrics(quick, reg), None)),
            "e23" => return Some((e23_matchd::run_with_metrics(quick, reg), None)),
            "e25" => return Some((e25_campaign::run_with_metrics(quick, reg), None)),
            _ => {}
        }
    }
    let tables = match id {
        "e1" => vec![e01_figure1::run()],
        "e2" => vec![e02_weight_ratio::run(quick)],
        "e3" => vec![e03_satisfaction_ratio::run(quick)],
        "e4" => vec![e04_messages::run(quick)],
        "e5" => vec![e05_convergence::run(quick)],
        "e6" => e06_baselines::run(quick),
        "e7" => vec![e07_bmax_sweep::run(quick)],
        "e8" => vec![e08_lemma1_tightness::run()],
        "e9" => vec![e09_churn::run(quick)],
        "e10" => vec![e10_equivalence::run(quick)],
        "e11" => vec![e11_robustness::run(quick)],
        "e12" => vec![e12_reliable::run(quick)],
        "e13" => vec![e13_normalization::run(quick)],
        "e14" => vec![e14_fairness::run(quick)],
        "e15" => e15_scale::run(quick),
        "e16" => e16_stability::run(quick),
        "e17" => vec![e17_ratio_at_scale::run(quick)],
        "e19" => e19_dynamic::run(quick),
        "e22" => e22_forensics::run(quick),
        "e23" => e23_matchd::run(quick),
        "e24" => e24_ops::run(quick),
        "e25" => e25_campaign::run(quick),
        _ => return None,
    };
    Some((tables, None))
}

/// Like [`run`], but for experiments in [`FORENSIC`] also returns the
/// captured post-mortem bundle so the binary can honor `--forensics-out`
/// without running the sweep twice. Non-forensic ids return `None` for
/// the bundle.
pub fn run_with_forensics(
    id: &str,
    quick: bool,
) -> Option<(Vec<Table>, Option<owp_engine::ForensicBundle>)> {
    if id == "e22" {
        let (tables, bundle) = e22_forensics::run_with_bundle(quick);
        return Some((tables, bundle));
    }
    run(id, quick).map(|tables| (tables, None))
}

/// Like [`run_instrumented`], but for experiments in [`CAMPAIGN`] also
/// returns the attested campaign report so the binary can honor
/// `--campaign-out` without running the campaign twice (campaign capture
/// composes with metrics: a supplied registry gets the `campaign_*`
/// ledger either way). Other ids return `None` for the report.
pub fn run_with_campaign(
    id: &str,
    quick: bool,
    metrics: Option<&MetricsRegistry>,
) -> Option<(Vec<Table>, Option<crate::campaign::CampaignReport>)> {
    if id == "e25" {
        let (tables, report) = e25_campaign::run_full(quick, metrics);
        return Some((tables, Some(report)));
    }
    run_instrumented(id, quick, metrics).map(|(tables, _)| (tables, None))
}

/// Serializes an experiment's tables as the `BENCH_<id>.json` document:
/// `{"experiment", "quick", "elapsed_ms", "tables": [...]}`; the schema is
/// four keys and [`Table::to_json`] does the heavy lifting.
pub fn tables_to_json(id: &str, quick: bool, elapsed: std::time::Duration, tables: &[Table]) -> String {
    let mut out = String::new();
    out.push_str("{\"experiment\":");
    owp_telemetry::json::write_str(&mut out, id);
    out.push_str(",\"quick\":");
    out.push_str(if quick { "true" } else { "false" });
    out.push_str(",\"elapsed_ms\":");
    out.push_str(&format!("{:.1}", elapsed.as_secs_f64() * 1e3));
    out.push_str(",\"tables\":[");
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch sanity on a few cheap experiments (each experiment module
    /// carries its own full quick test; re-running all 17 here would double
    /// the suite's cost for no extra coverage).
    #[test]
    fn dispatch_produces_tables() {
        for id in ["e1", "e8", "e10"] {
            let tables = run(id, true).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(t.row_count() > 0, "{id} produced an empty table");
                // Render must not panic.
                let _ = t.render();
            }
        }
    }

    /// Every id in ALL dispatches and ids are unique.
    #[test]
    fn all_ids_are_known_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for id in ALL {
            assert!(seen.insert(*id), "duplicate id {id}");
        }
        // E21 (sharded repair) is retired; the other ids keep their numbers.
        assert_eq!(ALL.len(), 24);
        assert!(!ALL.contains(&"e21"));
    }

    /// E18 carries a convergence series, E20 a raw event log; the others
    /// return `None` for the trace artifact.
    #[test]
    fn trace_is_attached_exactly_where_expected() {
        let (tables, artifact) = run_with_trace("e18", true).expect("e18 runs");
        let artifact = artifact.expect("e18 records a trace");
        assert!(matches!(artifact, TraceArtifact::Series(_)));
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].row_count(), artifact.len());
        assert!(!artifact.is_empty());
        assert!(artifact.to_jsonl().lines().count() == artifact.len());
        let (_, none) = run_with_trace("e1", true).expect("e1 runs");
        assert!(none.is_none(), "e1 has no trace artifact");
    }

    /// The E20 artifact is a telemetry event log whose JSONL round-trips
    /// into a certified causal DAG (the `owp-inspect causal` input path).
    #[test]
    fn e20_trace_artifact_is_a_causal_event_log() {
        let (_, artifact) = run_with_trace("e20", true).expect("e20 runs");
        let artifact = artifact.expect("e20 records a trace");
        assert!(matches!(artifact, TraceArtifact::Events(_)));
        let log = owp_telemetry::EventLog::parse_jsonl(&artifact.to_jsonl()).expect("parses");
        let dag = owp_telemetry::CausalDag::from_log(&log);
        assert!(!dag.is_empty());
        assert!(dag.is_certified());
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e99", true).is_none());
        assert!(run_instrumented("e99", true, Some(&owp_metrics::MetricsRegistry::new())).is_none());
    }

    /// TRACED/INSTRUMENTED are subsets of ALL (a typo'd id there would make
    /// the binary's warnings lie).
    #[test]
    fn capability_lists_are_consistent() {
        for id in TRACED.iter().chain(INSTRUMENTED).chain(FORENSIC).chain(CAMPAIGN) {
            assert!(ALL.contains(id), "{id} not in ALL");
        }
        assert!(TRACED.iter().all(|id| INSTRUMENTED.contains(id)),
            "traced experiments must also have a metrics variant");
    }

    #[test]
    fn json_document_has_the_expected_shape() {
        let tables = run("e1", true).expect("e1 runs");
        let doc = tables_to_json("e1", true, std::time::Duration::from_millis(12), &tables);
        assert!(doc.starts_with("{\"experiment\":\"e1\",\"quick\":true,\"elapsed_ms\":12.0,"));
        assert!(doc.contains("\"tables\":[{\"title\":"));
        assert!(doc.ends_with("]}\n"));
    }
}
