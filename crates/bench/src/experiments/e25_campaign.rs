//! E25 — chaos campaign: seeded fault-plan sweeps with a per-fault-class
//! coverage ledger and an attested report.
//!
//! The campaign (see [`crate::campaign`]) runs reliable LID and the
//! dynamic engine through hundreds of composed fault plans — healing
//! partitions, asymmetric loss, duplication, FIFO-violating reordering,
//! crash-restart — and checks every certificate the repo owns after each
//! plan. One plan is poisoned with a `PhantomEdge` engine fault: the
//! canary proving the campaign detects corruption, not just absence of
//! crashes.
//!
//! Tables:
//!
//! 1. **Coverage ledger** (headline, `bench_guard` schema, exact-guarded):
//!    generated / executed / certified / violated per fault class. These
//!    are deterministic counts — any drift against `BENCH_e25.json` means
//!    the generator, the protocols or a certificate changed semantics.
//! 2. **Attestation** (textual): plan totals, the injected/genuine
//!    violation split, total simulator events, the report digest and the
//!    campaign verdict.
//! 3. **Violations** (textual): one row per violation record with its
//!    reproducer coordinates (`seed` + plan id) and first reason.
//!
//! With `--campaign-out <path>` the full attested report is written as
//! canonical JSON (the input of `owp-inspect campaign`).

use crate::campaign::{run_campaign, CampaignConfig, CampaignReport};
use crate::Table;
use owp_metrics::MetricsRegistry;

/// The fixed campaign seed of the experiment (reports are reproducible
/// from `EXPERIMENTS.md` alone).
pub const E25_SEED: u64 = 0xE25;

/// The campaign config E25 runs: 1000 plans over eight 24-node instances
/// (60 plans over four 16-node instances under `quick`), canary at the
/// midpoint.
pub fn config(quick: bool) -> CampaignConfig {
    if quick {
        CampaignConfig {
            seed: E25_SEED,
            plans: 60,
            n: 16,
            instances: 4,
            quota: 2,
            inject_at: Some(30),
        }
    } else {
        CampaignConfig {
            seed: E25_SEED,
            plans: 1000,
            n: 24,
            instances: 8,
            quota: 3,
            inject_at: Some(500),
        }
    }
}

/// Runs E25: the tables (the first is the exact-guarded coverage ledger)
/// plus the attested report (the `--campaign-out` artifact). A supplied
/// registry also gets the `campaign_*` ledger (per-class plan and
/// violation counters, wall-time and event-count histograms); the tables
/// and the report are identical either way.
pub fn run(quick: bool, reg: Option<&MetricsRegistry>) -> (Vec<Table>, CampaignReport) {
    let report = run_campaign(&config(quick), reg);
    (tables(&report), report)
}

fn tables(report: &CampaignReport) -> Vec<Table> {
    let c = &report.config;

    let mut cov = Table::new(
        format!(
            "E25 — chaos campaign coverage ledger: {} plans, seed {:#x}, \
             gnp(n={}, p=0.3, b={}) x {} instances, canary at plan {}",
            c.plans,
            c.seed,
            c.n,
            c.quota,
            c.instances,
            c.inject_at.map(|id| id.to_string()).unwrap_or_else(|| "-".into()),
        ),
        &["class", "label", "generated", "executed", "certified", "violated"],
    );
    for row in &report.coverage {
        cov.row(vec![
            row.class.index().to_string(),
            row.class.label().to_string(),
            row.generated.to_string(),
            row.executed.to_string(),
            row.certified.to_string(),
            row.violated.to_string(),
        ]);
    }
    cov.note(
        "deterministic counts (bench_guard checks them exactly); the violated \
         column counts the intentional PhantomEdge canary",
    );

    let injected = report.violations.iter().filter(|v| v.injected).count();
    let genuine = report.violations.len() - injected;
    let mut att = Table::new(
        "E25 — campaign attestation".to_string(),
        &["plans", "violations", "injected", "genuine", "events", "digest", "verdict"],
    );
    att.row(vec![
        c.plans.to_string(),
        report.violations.len().to_string(),
        injected.to_string(),
        genuine.to_string(),
        report.total_events.to_string(),
        report.digest.clone(),
        if report.clean() { "clean".into() } else { "VIOLATED".into() },
    ]);
    att.note(
        "clean = every violation is the injected canary and the canary was \
         detected; the digest attests the canonical report bytes (FNV-1a-64)",
    );

    let mut vio = Table::new(
        format!("E25 — violation records (reproduce: seed {:#x} + plan id)", c.seed),
        &["plan", "class", "injected", "reasons", "first reason"],
    );
    if report.violations.is_empty() {
        vio.row(vec!["-".into(), "-".into(), "-".into(), "0".into(), "(none)".into()]);
    }
    for v in &report.violations {
        let first = v.reasons.first().map(String::as_str).unwrap_or("(none)");
        let first = if first.len() > 72 { &first[..72] } else { first };
        vio.row(vec![
            v.plan.to_string(),
            v.class.label().to_string(),
            v.injected.to_string(),
            v.reasons.len().to_string(),
            first.to_string(),
        ]);
    }
    vio.note("owp-inspect campaign <report> --replay <plan> re-executes a record");

    vec![cov, att, vio]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::FaultClass;

    #[test]
    fn quick_campaign_covers_every_class_and_stays_clean() {
        let (tables, report) = run(true, None);
        assert_eq!(tables.len(), 3);

        let cov = &tables[0];
        assert_eq!(cov.row_count(), 5);
        for r in 0..cov.row_count() {
            assert_eq!(cov.cell(r, 0), r.to_string(), "ledger is in class order");
            let generated: u64 = cov.cell(r, 2).parse().unwrap();
            let executed: u64 = cov.cell(r, 3).parse().unwrap();
            let certified: u64 = cov.cell(r, 4).parse().unwrap();
            assert_eq!(generated, 12, "60 plans round-robin over 5 classes");
            assert_eq!(executed, generated);
            assert!(certified > 0, "class {r} has no certified plans");
        }

        let att = &tables[1];
        assert_eq!(att.cell(0, 6), "clean");
        assert_eq!(att.cell(0, 3), "0", "no genuine violations");
        assert_eq!(att.cell(0, 2), "1", "exactly the canary");
        assert_eq!(att.cell(0, 5), report.digest);
        assert!(report.clean());
        assert!(report.verify_digest().is_ok());

        // The canary is plan 30 and its record carries a reproducer.
        let canary = report.violations.iter().find(|v| v.injected).expect("canary");
        assert_eq!(canary.plan, 30);
        assert_eq!(canary.class, FaultClass::of_plan(30));
        assert!(!canary.plan_json.is_empty());
    }

    #[test]
    fn metrics_variant_populates_the_campaign_ledger() {
        let reg = MetricsRegistry::new();
        let (tables, _) = run(true, Some(&reg));
        assert_eq!(tables.len(), 3);
        let json = reg.snapshot().to_json();
        assert!(json.contains("campaign_plans_total"));
        assert!(json.contains("campaign_plans_crash_restart"));
        assert!(json.contains("campaign_plan_wall_us"));
    }
}
