//! One module per experiment, each with one `run` that returns its
//! [`crate::Table`]s plus any [`Artifact`], so the binary stays thin and
//! the harness is unit-testable. [`run`] dispatches by id; [`ALL`] lists
//! every id with the path flag it honours and whether it records
//! metrics. Experiments with a metrics form take an
//! `Option<&MetricsRegistry>`; `None` is the plain run that `bench_guard`
//! times.
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

use crate::campaign::CampaignReport;
use crate::Table;
use owp_engine::ForensicBundle;
use owp_metrics::MetricsRegistry;
use owp_telemetry::{ConvergenceSeries, EventLog};

/// The flag naming the file a [`Artifact::Series`] or [`Artifact::Events`]
/// is written to.
pub const TRACE_OUT: &str = "--trace-out";
/// The flag naming the file a [`Artifact::Bundle`] is written to.
pub const FORENSICS_OUT: &str = "--forensics-out";
/// The flag naming the file a [`Artifact::Report`] is written to.
pub const CAMPAIGN_OUT: &str = "--campaign-out";

/// Every experiment, in order: its id, the path flag its artifact is
/// written to if it attaches one (see [`Artifact`]), and whether [`run`]
/// records into a metrics registry when given one.
pub const ALL: &[(&str, Option<&str>, bool)] = &[
    ("e1", None, false), ("e2", None, false), ("e3", None, false), ("e4", None, false),
    ("e5", None, true), ("e6", None, false), ("e7", None, false), ("e8", None, false),
    ("e9", None, false), ("e10", None, false), ("e11", None, false), ("e12", None, false),
    ("e13", None, false), ("e14", None, false), ("e15", None, false), ("e16", None, false),
    ("e17", None, false), ("e18", Some(TRACE_OUT), true), ("e19", None, true),
    ("e20", Some(TRACE_OUT), true), ("e22", Some(FORENSICS_OUT), false), ("e23", None, true),
    ("e24", None, false), ("e25", Some(CAMPAIGN_OUT), true),
];

/// The artifact an experiment attaches to its tables. Each variant is
/// written to the path given with its own flag.
pub enum Artifact {
    /// E18's per-round convergence samples (`owp_telemetry::series`
    /// schema; input of `owp-inspect trace`).
    Series(ConvergenceSeries),
    /// E20's telemetry events with causal span records
    /// (`owp_telemetry::event` schema; input of `owp-inspect causal`).
    Events(EventLog),
    /// E22's first post-mortem bundle (input of `owp-inspect forensics`).
    Bundle(ForensicBundle),
    /// E25's attested campaign report (input of `owp-inspect campaign`).
    Report(CampaignReport),
}

impl Artifact {
    /// The flag that names the artifact's output file.
    pub fn flag(&self) -> &'static str {
        match self {
            Artifact::Series(_) | Artifact::Events(_) => TRACE_OUT,
            Artifact::Bundle(_) => FORENSICS_OUT,
            Artifact::Report(_) => CAMPAIGN_OUT,
        }
    }

    /// The file contents: JSONL for traces, JSON for bundles and reports.
    pub fn serialize(&self) -> String {
        match self {
            Artifact::Series(s) => s.to_jsonl(),
            Artifact::Events(l) => l.to_jsonl(),
            Artifact::Bundle(b) => b.to_json(),
            Artifact::Report(r) => r.to_json(),
        }
    }

    /// A one-phrase description for the binary's "wrote ..." line.
    pub fn describe(&self) -> String {
        match self {
            Artifact::Series(s) => format!("{} trace rows", s.len()),
            Artifact::Events(l) => format!("{} trace rows", l.len()),
            Artifact::Bundle(b) => format!(
                "forensic bundle ({} recorded step(s), reproducer {})",
                b.steps.len(),
                b.reproducer().len()
            ),
            Artifact::Report(r) => format!(
                "campaign report ({} plan(s), {} violation(s), digest {})",
                r.config.plans,
                r.violations.len(),
                r.digest
            ),
        }
    }
}

/// Runs an experiment by id: its tables plus the artifact it attaches,
/// if any; `None` for an unknown id. With a registry, the experiments
/// [`ALL`] marks (e5, e18, e19, e20, e23 and e25) also record metrics and
/// audits into it, and every other experiment ignores it. Tables and
/// artifacts are the same either way.
pub fn run(
    id: &str,
    quick: bool,
    reg: Option<&MetricsRegistry>,
) -> Option<(Vec<Table>, Option<Artifact>)> {
    let (tables, artifact) = match id {
        "e1" => (vec![e01_figure1::run()], None),
        "e2" => (vec![e02_weight_ratio::run(quick)], None),
        "e3" => (vec![e03_satisfaction_ratio::run(quick)], None),
        "e4" => (vec![e04_messages::run(quick)], None),
        "e5" => (vec![e05_convergence::run(quick, reg)], None),
        "e6" => (e06_baselines::run(quick), None),
        "e7" => (vec![e07_bmax_sweep::run(quick)], None),
        "e8" => (vec![e08_lemma1_tightness::run()], None),
        "e9" => (vec![e09_churn::run(quick)], None),
        "e10" => (vec![e10_equivalence::run(quick)], None),
        "e11" => (vec![e11_robustness::run(quick)], None),
        "e12" => (vec![e12_reliable::run(quick)], None),
        "e13" => (vec![e13_normalization::run(quick)], None),
        "e14" => (vec![e14_fairness::run(quick)], None),
        "e15" => (e15_scale::run(quick), None),
        "e16" => (e16_stability::run(quick), None),
        "e17" => (vec![e17_ratio_at_scale::run(quick)], None),
        "e18" => {
            let (table, series) = e18_convergence_trace::run(quick, reg);
            (vec![table], Some(Artifact::Series(series)))
        }
        "e19" => (e19_dynamic::run(quick, reg), None),
        "e20" => {
            let (tables, log) = e20_critical_path::run(quick, reg);
            (tables, Some(Artifact::Events(log)))
        }
        "e22" => {
            let (tables, bundle) = e22_forensics::run(quick);
            (tables, bundle.map(Artifact::Bundle))
        }
        "e23" => (e23_matchd::run(quick, reg), None),
        "e24" => (e24_ops::run(quick), None),
        "e25" => {
            let (tables, report) = e25_campaign::run(quick, reg);
            (tables, Some(Artifact::Report(report)))
        }
        _ => return None,
    };
    Some((tables, artifact))
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
    /// carries its own full quick test; re-running all 24 here would double
    /// the suite's cost for no extra coverage).
    #[test]
    fn dispatch_produces_tables() {
        for id in ["e1", "e8", "e10"] {
            let (tables, _) = run(id, true, None).unwrap_or_else(|| panic!("unknown id {id}"));
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(t.row_count() > 0, "{id} produced an empty table");
                // Render must not panic.
                let _ = t.render();
            }
        }
    }

    /// Ids are unique.
    #[test]
    fn all_ids_are_known_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (id, _, _) in ALL {
            assert!(seen.insert(*id), "duplicate id {id}");
        }
        // E21 (sharded repair) is retired; the other ids keep their numbers.
        assert_eq!(ALL.len(), 24);
        assert!(!seen.contains("e21"));
    }

    /// E18 carries a convergence series under the flag [`ALL`] lists for
    /// it; e1 carries no artifact.
    #[test]
    fn trace_is_attached_exactly_where_expected() {
        let (tables, artifact) = run("e18", true, None).expect("e18 runs");
        let artifact = artifact.expect("e18 records a trace");
        let Artifact::Series(series) = &artifact else { panic!("e18 attaches a series") };
        assert_eq!(Some(artifact.flag()), ALL.iter().find(|(id, ..)| *id == "e18").unwrap().1);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].row_count(), series.len());
        assert!(!series.is_empty());
        assert_eq!(artifact.serialize().lines().count(), series.len());
        assert_eq!(artifact.describe(), format!("{} trace rows", series.len()));
        let (_, none) = run("e1", true, None).expect("e1 runs");
        assert!(none.is_none(), "e1 has no artifact");
    }

    /// The E20 artifact is a telemetry event log whose JSONL round-trips
    /// into a certified causal DAG (the `owp-inspect causal` input path).
    #[test]
    fn e20_trace_artifact_is_a_causal_event_log() {
        let (_, artifact) = run("e20", true, None).expect("e20 runs");
        let artifact = artifact.expect("e20 records a trace");
        assert!(matches!(artifact, Artifact::Events(_)));
        assert_eq!(artifact.flag(), TRACE_OUT);
        let log = owp_telemetry::EventLog::parse_jsonl(&artifact.serialize()).expect("parses");
        let dag = owp_telemetry::CausalDag::from_log(&log);
        assert!(!dag.is_empty());
        assert!(dag.is_certified());
    }

    /// [`ALL`]'s metrics column says which experiments reach the registry.
    #[test]
    fn metrics_column_matches_the_registry_use() {
        for id in ["e1", "e8", "e10", "e18"] {
            let reg = MetricsRegistry::new();
            run(id, true, Some(&reg)).expect("known id");
            let marked = ALL.iter().find(|(e, ..)| *e == id).unwrap().2;
            assert_eq!(!reg.snapshot().is_empty(), marked, "{id}");
        }
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e99", true, None).is_none());
        assert!(run("e99", true, Some(&MetricsRegistry::new())).is_none());
    }

    #[test]
    fn json_document_has_the_expected_shape() {
        let (tables, _) = run("e1", true, None).expect("e1 runs");
        let doc = tables_to_json("e1", true, std::time::Duration::from_millis(12), &tables);
        assert!(doc.starts_with("{\"experiment\":\"e1\",\"quick\":true,\"elapsed_ms\":12.0,"));
        assert!(doc.contains("\"tables\":[{\"title\":"));
        assert!(doc.ends_with("]}\n"));
    }
}
