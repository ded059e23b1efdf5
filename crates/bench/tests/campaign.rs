//! The campaign attestation contract, end to end:
//!
//! * same seed ⇒ byte-identical reports across independent in-process
//!   runs, instrumented or not;
//! * the canonical bytes are *build-invariant*: the workspace has one
//!   build configuration and the quick E25 report's digest is pinned to a
//!   constant, so every profile and machine that runs this suite must
//!   reproduce it — plans execute sequentially by construction;
//! * reports survive the JSON round trip bit for bit.
//!
//! If the pinned digest changes legitimately (new fault generator, new
//! certificate, protocol change), update it together with
//! `BENCH_e25.json` — both attest the same determinism claim.

use owp_bench::campaign::run_campaign;
use owp_bench::experiments::e25_campaign;
use owp_metrics::MetricsRegistry;

/// FNV-1a-64 attestation digest of the quick E25 campaign (seed 0xE25,
/// 60 plans, gnp(n=16, b=2) x 4 instances, canary at plan 30).
const QUICK_E25_DIGEST: &str = "42626cb2d39f7376";

#[test]
fn same_seed_runs_are_byte_identical() {
    let cfg = e25_campaign::config(true);
    let a = run_campaign(&cfg, None);
    let b = run_campaign(&cfg, None);
    assert_eq!(a.to_json(), b.to_json(), "two plain runs");

    // Metrics instrumentation must not perturb the attested bytes.
    let reg = MetricsRegistry::new();
    let c = run_campaign(&cfg, Some(&reg));
    assert_eq!(a.to_json(), c.to_json(), "instrumented run");
}

#[test]
fn quick_campaign_digest_is_pinned_across_builds() {
    let report = run_campaign(&e25_campaign::config(true), None);
    assert!(report.verify_digest().is_ok());
    assert_eq!(
        report.digest, QUICK_E25_DIGEST,
        "the quick E25 report drifted — if intentional, update this pin \
         and regenerate BENCH_e25.json together"
    );
}

#[test]
fn report_json_round_trip_is_bitwise() {
    let report = run_campaign(&e25_campaign::config(true), None);
    let json = report.to_json();
    let parsed = owp_bench::campaign::CampaignReport::parse(&json).expect("parses");
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), json);
}
