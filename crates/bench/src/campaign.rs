//! Chaos-campaign orchestrator (experiment E25).
//!
//! The paper's guarantees assume reliable FIFO channels and non-faulty
//! peers. E11 showed the assumption is load-bearing; PR 7 added post-hoc
//! forensics for a *single* divergence. This module closes the remaining
//! observability gap: *which fault classes have we actually exercised, with
//! what coverage, and which certificates survived?*
//!
//! A campaign is a pure function of a [`CampaignConfig`]: a seeded stream
//! of composed [`FaultPlan`]s — healing partitions, asymmetric per-link
//! loss, message duplication, FIFO-violating reordering and crash-restart
//! of nodes mid-LID — each executed against reliable LID *and* the dynamic
//! engine, with every existing certificate checked after each plan:
//!
//! * termination + symmetric locks (the E11/E12 contract),
//! * exact LIC equivalence of the recovered matching,
//! * the Lemma 4 locally-heaviest audit ([`owp_metrics::Auditor`]),
//! * the ε-blocking-edge gauge at ε = 0,
//! * Lemma 5 causal acyclicity over the traced span DAG,
//! * the engine's `certify()` bit-identity check after churn (and, for the
//!   crash-restart class, after [`owp_engine::Engine::restart_node`]).
//!
//! The output is a deterministic machine-readable [`CampaignReport`]: a
//! per-fault-class coverage ledger (generated / executed / certified /
//! violated), violation records embedding a reproducer (campaign seed +
//! plan id + canonical plan JSON; [`replay`] re-executes it), an
//! event-count log₂ histogram, and an FNV-1a attestation digest — two runs
//! of the same seed byte-compare equal (plans execute sequentially by
//! construction, in the workspace's one build configuration).

use crate::experiments::e19_dynamic::EventGen;
use owp_core::lid_reliable::run_lid_reliable;
use owp_engine::{Engine, InjectedFault};
use owp_matching::lic::{lic, SelectionPolicy};
use owp_matching::{BMatching, Problem};
use owp_metrics::{epsilon_blocking_count, Auditor, MetricsRegistry};
use owp_simnet::{FaultPlan, LatencyModel, NodeId, SimConfig};
use owp_telemetry::json::{self, Value};
use owp_telemetry::CausalDag;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Write as _;

/// Number of log₂ buckets in the per-plan event-count histogram.
pub const EVENT_BUCKETS: usize = 32;

/// Counter: plans executed, total across all fault classes.
pub const CAMPAIGN_PLANS_TOTAL: &str = "campaign_plans_total";
/// Counter: plans whose every certificate held.
pub const CAMPAIGN_CERTIFIED_TOTAL: &str = "campaign_certified_total";
/// Counter: plans with at least one certificate violation.
pub const CAMPAIGN_VIOLATIONS_TOTAL: &str = "campaign_violations_total";
/// Histogram: wall-clock microseconds per executed plan.
pub const CAMPAIGN_PLAN_WALL_US: &str = "campaign_plan_wall_us";
/// Histogram: simulator events (deliveries + timers) per executed plan.
pub const CAMPAIGN_PLAN_EVENTS: &str = "campaign_plan_events";

/// The five fault classes a campaign cycles through (round-robin by plan
/// id, so every class gets `plans / 5` guaranteed coverage).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A partition that heals mid-run.
    HealPartition,
    /// Asymmetric per-link loss (one direction lossy, the other clean).
    AsymmetricLoss,
    /// Message duplication.
    Duplication,
    /// FIFO-violating reordering.
    Reordering,
    /// Crash-restart of a node mid-LID with engine-driven recovery.
    CrashRestart,
}

impl FaultClass {
    /// All classes, in ledger order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::HealPartition,
        FaultClass::AsymmetricLoss,
        FaultClass::Duplication,
        FaultClass::Reordering,
        FaultClass::CrashRestart,
    ];

    /// The class exercised by plan `id` (round-robin).
    pub fn of_plan(id: u64) -> FaultClass {
        FaultClass::ALL[(id % 5) as usize]
    }

    /// The stable label used in reports and metric keys.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::HealPartition => "heal_partition",
            FaultClass::AsymmetricLoss => "asym_loss",
            FaultClass::Duplication => "duplication",
            FaultClass::Reordering => "reordering",
            FaultClass::CrashRestart => "crash_restart",
        }
    }

    /// Executed-plan counter key, `campaign_plans_<label>`.
    pub fn plans_key(self) -> &'static str {
        match self {
            FaultClass::HealPartition => "campaign_plans_heal_partition",
            FaultClass::AsymmetricLoss => "campaign_plans_asym_loss",
            FaultClass::Duplication => "campaign_plans_duplication",
            FaultClass::Reordering => "campaign_plans_reordering",
            FaultClass::CrashRestart => "campaign_plans_crash_restart",
        }
    }

    /// Violated-plan counter key, `campaign_violations_<label>`.
    pub fn violations_key(self) -> &'static str {
        match self {
            FaultClass::HealPartition => "campaign_violations_heal_partition",
            FaultClass::AsymmetricLoss => "campaign_violations_asym_loss",
            FaultClass::Duplication => "campaign_violations_duplication",
            FaultClass::Reordering => "campaign_violations_reordering",
            FaultClass::CrashRestart => "campaign_violations_crash_restart",
        }
    }

    /// Position in [`FaultClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            FaultClass::HealPartition => 0,
            FaultClass::AsymmetricLoss => 1,
            FaultClass::Duplication => 2,
            FaultClass::Reordering => 3,
            FaultClass::CrashRestart => 4,
        }
    }

    /// Inverse of [`FaultClass::label`].
    pub fn from_label(label: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.label() == label)
    }
}

/// Everything a campaign run depends on. Two runs with equal configs
/// produce byte-identical reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed: plan parameters, simulator seeds and instance pool all
    /// derive from it.
    pub seed: u64,
    /// Number of fault plans to generate and execute.
    pub plans: u64,
    /// Nodes per problem instance.
    pub n: usize,
    /// Size of the problem-instance pool (plan `id` runs against instance
    /// `id % instances`).
    pub instances: usize,
    /// Per-node quota `b`.
    pub quota: u32,
    /// Plan id to poison with a `PhantomEdge` engine fault — the
    /// intentional canary violation proving the campaign *can* detect
    /// corruption. `None` runs no injection.
    pub inject_at: Option<u64>,
}

impl CampaignConfig {
    /// The default seeded campaign: `plans` plans over a pool of eight
    /// 24-node instances, with the canary injected at the midpoint.
    pub fn new(seed: u64, plans: u64) -> Self {
        CampaignConfig {
            seed,
            plans,
            n: 24,
            instances: 8,
            quota: 3,
            inject_at: Some(plans / 2),
        }
    }
}

/// One row of the per-fault-class coverage ledger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageRow {
    /// The fault class.
    pub class: FaultClass,
    /// Plans the generator assigned to this class.
    pub generated: u64,
    /// Plans actually executed (== generated unless generation failed).
    pub executed: u64,
    /// Executed plans whose every certificate held.
    pub certified: u64,
    /// Executed plans with at least one certificate violation.
    pub violated: u64,
}

/// A certificate violation with everything needed to reproduce it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationRecord {
    /// The violating plan's id (with the campaign seed, a full reproducer).
    pub plan: u64,
    /// The plan's fault class.
    pub class: FaultClass,
    /// `true` iff this is the intentional `PhantomEdge` canary.
    pub injected: bool,
    /// Simulator seed the plan ran under (derived; recorded for audit).
    pub sim_seed: u64,
    /// One reason per failed certificate, in check order.
    pub reasons: Vec<String>,
    /// The plan in canonical [`FaultPlan::to_json`] form.
    pub plan_json: String,
}

/// The attested campaign report. [`CampaignReport::to_json`] is canonical:
/// same config ⇒ same bytes, certified by the embedded FNV-1a digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// The config the campaign ran under (embedded so a report is a
    /// self-contained reproducer).
    pub config: CampaignConfig,
    /// Per-fault-class coverage, in [`FaultClass::ALL`] order.
    pub coverage: Vec<CoverageRow>,
    /// All violations, in plan order.
    pub violations: Vec<ViolationRecord>,
    /// log₂ histogram of simulator events (deliveries + timers) per plan.
    pub event_histogram: [u64; EVENT_BUCKETS],
    /// Total simulator events across all plans.
    pub total_events: u64,
    /// FNV-1a-64 digest (hex) over the canonical JSON with this field
    /// empty — the attestation two same-seed runs byte-compare through.
    pub digest: String,
}

impl CampaignReport {
    /// `true` iff no *genuine* violation occurred: every recorded violation
    /// is the intentional canary, and the canary (if configured) was
    /// actually detected.
    pub fn clean(&self) -> bool {
        let genuine = self.violations.iter().filter(|v| !v.injected).count();
        let canary_ok = match self.config.inject_at {
            Some(id) => self
                .violations
                .iter()
                .any(|v| v.injected && v.plan == id && !v.reasons.is_empty()),
            None => true,
        };
        genuine == 0 && canary_ok
    }

    /// Coverage row for one class.
    pub fn coverage_of(&self, class: FaultClass) -> &CoverageRow {
        &self.coverage[class.index()]
    }
}

// ---------------------------------------------------------------------------
// Plan generation
// ---------------------------------------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG stream for plan `id` of a campaign (pure in `(config.seed, id)`).
fn plan_rng(cfg: &CampaignConfig, id: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(cfg.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Generates plan `id` of the campaign — a pure function of
/// `(config, id)`, which is what makes `seed + plan id` a reproducer.
/// Every plan composes its class's signature fault with a small background
/// drop probability.
pub fn generate_plan(cfg: &CampaignConfig, id: u64) -> (FaultPlan, u64) {
    let mut rng = plan_rng(cfg, id);
    let n = cfg.n as u32;
    let base_drop = rng.gen_range(0.0..0.10);
    let mut plan = FaultPlan::with_drop_probability(base_drop);
    match FaultClass::of_plan(id) {
        FaultClass::HealPartition => {
            let side_len = rng.gen_range(1..=(cfg.n / 2).max(1));
            let mut side = Vec::with_capacity(side_len);
            while side.len() < side_len {
                let v = NodeId(rng.gen_range(0..n));
                if !side.contains(&v) {
                    side.push(v);
                }
            }
            side.sort_unstable();
            let start = rng.gen_range(0u64..30);
            let heal = start + rng.gen_range(20u64..80);
            plan = plan.partition(side, start, heal);
        }
        FaultClass::AsymmetricLoss => {
            let links = rng.gen_range(1..=3);
            for _ in 0..links {
                loop {
                    let from = NodeId(rng.gen_range(0..n));
                    let to = NodeId(rng.gen_range(0..n));
                    if from == to {
                        continue;
                    }
                    if plan.link_loss.iter().any(|l| l.from == from && l.to == to) {
                        continue;
                    }
                    let p = rng.gen_range(0.3..0.9);
                    plan = plan.link_loss(from, to, p);
                    break;
                }
            }
        }
        FaultClass::Duplication => {
            plan = plan.duplicate(rng.gen_range(0.1..0.5));
        }
        FaultClass::Reordering => {
            plan = plan.reorder(rng.gen_range(0.2..0.8));
        }
        FaultClass::CrashRestart => {
            let victim = NodeId(rng.gen_range(0..n));
            let crash = rng.gen_range(5u64..40);
            let restart = crash + rng.gen_range(40u64..120);
            plan = plan.crash(victim, crash).restart(victim, restart);
        }
    }
    let sim_seed = rng.next_u64();
    (plan, sim_seed)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Retransmission interval of the reliable-LID runs.
const RETRY_INTERVAL: u64 = 20;
/// Per-plan delivery guard: a clean plan quiesces far below this; tripping
/// it is a termination violation.
const MAX_DELIVERIES: u64 = 200_000;
/// Engine churn applied per plan before certification.
const CHURN_BATCHES: usize = 2;

struct Instance {
    problem: Problem,
    lic_reference: BMatching,
    engine: Engine,
}

fn build_pool(cfg: &CampaignConfig) -> Vec<Instance> {
    (0..cfg.instances)
        .map(|j| {
            let pseed = splitmix64(cfg.seed ^ (j as u64).wrapping_mul(7919));
            let problem = Problem::random_gnp(cfg.n, 0.3, cfg.quota, pseed);
            let lic_reference = lic(&problem, SelectionPolicy::InOrder);
            let engine = Engine::new(problem.clone());
            Instance { problem, lic_reference, engine }
        })
        .collect()
}

struct PlanOutcome {
    /// One reason per failed certificate (empty = fully certified).
    reasons: Vec<String>,
    /// Simulator events (deliveries + timer firings) of the LID run.
    events: u64,
}

/// Runs one plan through reliable LID and the engine, checking every
/// certificate. Pure in its inputs — [`replay`] calls the same function.
fn execute_plan(
    inst: &Instance,
    class: FaultClass,
    plan: &FaultPlan,
    sim_seed: u64,
    inject: bool,
    auditor: &mut Auditor,
) -> PlanOutcome {
    let mut reasons = Vec::new();

    // --- LID under chaos -------------------------------------------------
    let sim_cfg = SimConfig {
        max_deliveries: MAX_DELIVERIES,
        ..SimConfig::with_seed(sim_seed)
            .latency(LatencyModel::Uniform { lo: 1, hi: 8 })
            .faults(plan.clone())
            .telemetry()
    };
    let r = run_lid_reliable(&inst.problem, sim_cfg, RETRY_INTERVAL);
    let events = r.stats.delivered + r.stats.timers_fired;
    if !r.terminated {
        reasons.push("lid: run did not terminate (delivery guard tripped)".to_string());
    }
    if r.asymmetric_locks != 0 {
        reasons.push(format!("lid: {} asymmetric lock(s) survived", r.asymmetric_locks));
    }
    if !r.matching.same_edges(&inst.lic_reference) {
        reasons.push("lid: matching diverges from the LIC reference".to_string());
    }
    let matching_violations = auditor.audit_matching(&inst.problem, &r.matching);
    if matching_violations != 0 {
        reasons.push(format!(
            "audit: {matching_violations} matching invariant violation(s) (Lemma 4)"
        ));
    }
    let blocking = epsilon_blocking_count(&inst.problem, &r.matching, 0.0);
    if blocking != 0 {
        reasons.push(format!("audit: {blocking} ε-blocking edge(s) at ε=0"));
    }
    let dag = CausalDag::from_log(&r.log);
    let causal_violations = auditor.audit_causal(&dag);
    if causal_violations != 0 {
        reasons.push(format!(
            "audit: {causal_violations} causal-acyclicity violation(s) (Lemma 5)"
        ));
    }

    // --- Engine under churn (+ restart for the crash-restart class) ------
    let mut engine = inst.engine.clone();
    let g = &inst.problem.graph;
    let mut gen = EventGen::new(g, sim_seed);
    let batch_len = (cfg_batch_len(inst)).max(4);
    for _ in 0..CHURN_BATCHES {
        if let Err(e) = engine.apply_batch(&gen.batch(batch_len)) {
            reasons.push(format!("engine: churn batch rejected: {e:?}"));
            break;
        }
    }
    if class == FaultClass::CrashRestart {
        let victim = g.nodes().find(|&i| engine.dynamic().is_active(i));
        match victim {
            Some(v) => {
                if let Err(e) = engine.restart_node(v) {
                    reasons.push(format!("engine: restart_node rejected: {e:?}"));
                }
            }
            None => reasons.push("engine: no active node left to restart".to_string()),
        }
    }
    if inject {
        let dp = engine.dynamic();
        let edge = g
            .edges()
            .find(|&ed| dp.is_alive(ed) && !engine.matching().contains(ed));
        match edge {
            Some(edge) => {
                engine.inject_fault(InjectedFault::PhantomEdge { edge });
                match engine.certify() {
                    Err(e) => reasons.push(format!("injected: certify failed as designed: {e}")),
                    Ok(()) => {
                        reasons.push("injected: PhantomEdge NOT detected by certify".to_string())
                    }
                }
            }
            None => reasons.push("injected: no alive unselected edge to poison".to_string()),
        }
    } else {
        if let Err(e) = engine.certify() {
            reasons.push(format!("engine: certify failed after churn: {e}"));
        }
        let engine_violations = auditor.audit_engine(&engine);
        if engine_violations != 0 {
            reasons.push(format!("audit: {engine_violations} engine invariant violation(s)"));
        }
    }

    PlanOutcome { reasons, events }
}

fn cfg_batch_len(inst: &Instance) -> usize {
    inst.problem.graph.node_count() / 6
}

/// Pre-registers every `campaign_*` key so exporters show the full
/// coverage ledger, zeros included, before the first plan executes.
fn register_metrics(reg: &MetricsRegistry) {
    reg.counter(CAMPAIGN_PLANS_TOTAL);
    reg.counter(CAMPAIGN_CERTIFIED_TOTAL);
    reg.counter(CAMPAIGN_VIOLATIONS_TOTAL);
    reg.histogram(CAMPAIGN_PLAN_WALL_US);
    reg.histogram(CAMPAIGN_PLAN_EVENTS);
    for class in FaultClass::ALL {
        reg.counter(class.plans_key());
        reg.counter(class.violations_key());
    }
}

/// Runs a full campaign. Plans execute sequentially (determinism by
/// construction — same seed, byte-identical report). A supplied
/// [`MetricsRegistry`] additionally gets the `campaign_*` ledger:
/// per-class plan/violation counters plus wall-time and event-count
/// histograms. Wall times live only in the registry — the attested report
/// contains exclusively deterministic data.
pub fn run_campaign(cfg: &CampaignConfig, reg: Option<&MetricsRegistry>) -> CampaignReport {
    let pool = build_pool(cfg);
    let own_reg;
    let audit_reg = match reg {
        Some(r) => r,
        None => {
            own_reg = MetricsRegistry::new();
            &own_reg
        }
    };
    if let Some(r) = reg {
        register_metrics(r);
    }
    let mut auditor = Auditor::new(audit_reg);

    let mut coverage: Vec<CoverageRow> = FaultClass::ALL
        .into_iter()
        .map(|class| CoverageRow { class, generated: 0, executed: 0, certified: 0, violated: 0 })
        .collect();
    let mut violations = Vec::new();
    let mut event_histogram = [0u64; EVENT_BUCKETS];
    let mut total_events = 0u64;

    for id in 0..cfg.plans {
        let class = FaultClass::of_plan(id);
        let (plan, sim_seed) = generate_plan(cfg, id);
        coverage[class.index()].generated += 1;
        if let Err(e) = plan.validate() {
            violations.push(ViolationRecord {
                plan: id,
                class,
                injected: false,
                sim_seed,
                reasons: vec![format!("generator: invalid plan: {e}")],
                plan_json: plan.to_json(),
            });
            coverage[class.index()].violated += 1;
            continue;
        }
        let inst = &pool[(id % cfg.instances as u64) as usize];
        let inject = cfg.inject_at == Some(id);
        let started = std::time::Instant::now();
        let outcome = execute_plan(inst, class, &plan, sim_seed, inject, &mut auditor);
        let wall_us = started.elapsed().as_micros() as u64;

        coverage[class.index()].executed += 1;
        total_events += outcome.events;
        event_histogram[event_bucket(outcome.events)] += 1;
        // An injected canary always lands here: a missed detection is
        // itself a reason.
        let violated = !outcome.reasons.is_empty();
        if violated {
            coverage[class.index()].violated += 1;
            violations.push(ViolationRecord {
                plan: id,
                class,
                injected: inject,
                sim_seed,
                reasons: outcome.reasons,
                plan_json: plan.to_json(),
            });
        } else {
            coverage[class.index()].certified += 1;
        }

        if let Some(r) = reg {
            r.counter(CAMPAIGN_PLANS_TOTAL).inc();
            r.counter(class.plans_key()).inc();
            if violated {
                r.counter(CAMPAIGN_VIOLATIONS_TOTAL).inc();
                r.counter(class.violations_key()).inc();
            } else {
                r.counter(CAMPAIGN_CERTIFIED_TOTAL).inc();
            }
            r.histogram(CAMPAIGN_PLAN_WALL_US).observe(wall_us);
            r.histogram(CAMPAIGN_PLAN_EVENTS).observe(outcome.events);
        }
    }

    let mut report = CampaignReport {
        config: cfg.clone(),
        coverage,
        violations,
        event_histogram,
        total_events,
        digest: String::new(),
    };
    report.digest = fnv1a64_hex(report.to_json().as_bytes());
    report
}

fn event_bucket(events: u64) -> usize {
    match events {
        0 => 0,
        e => ((63 - e.leading_zeros() as usize) + 1).min(EVENT_BUCKETS - 1),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Outcome of replaying one plan of a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Reasons produced by the fresh execution (empty = certified).
    pub reasons: Vec<String>,
    /// Reasons the report recorded for this plan (empty = was certified).
    pub recorded: Vec<String>,
    /// `true` iff the replay reproduced the recorded outcome exactly.
    pub matches: bool,
}

/// Re-executes plan `plan_id` of `report` from its embedded config and
/// compares the outcome with what the report recorded. The reproducer
/// contract: same seed + plan id ⇒ same reasons, byte for byte.
pub fn replay(report: &CampaignReport, plan_id: u64) -> Result<ReplayOutcome, String> {
    let cfg = &report.config;
    if plan_id >= cfg.plans {
        return Err(format!(
            "plan {plan_id} out of range (campaign ran {} plans)",
            cfg.plans
        ));
    }
    let class = FaultClass::of_plan(plan_id);
    let (plan, sim_seed) = generate_plan(cfg, plan_id);
    // Cross-check the derived plan against an embedded reproducer, if the
    // plan was recorded as a violation: a mismatch means the report does
    // not belong to this generator version.
    let recorded = report.violations.iter().find(|v| v.plan == plan_id);
    if let Some(v) = recorded {
        if v.plan_json != plan.to_json() {
            return Err(format!(
                "plan {plan_id}: embedded reproducer does not match the derived plan \
                 (report generated by an incompatible version?)"
            ));
        }
        if v.sim_seed != sim_seed {
            return Err(format!("plan {plan_id}: derived sim seed mismatch"));
        }
    }
    let pool = build_pool(cfg);
    let inst = &pool[(plan_id % cfg.instances as u64) as usize];
    let reg = MetricsRegistry::new();
    let mut auditor = Auditor::new(&reg);
    let inject = cfg.inject_at == Some(plan_id);
    let outcome = execute_plan(inst, class, &plan, sim_seed, inject, &mut auditor);
    let recorded_reasons = recorded.map(|v| v.reasons.clone()).unwrap_or_default();
    let matches = outcome.reasons == recorded_reasons;
    Ok(ReplayOutcome { reasons: outcome.reasons, recorded: recorded_reasons, matches })
}

// ---------------------------------------------------------------------------
// Attestation + canonical JSON
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit digest, rendered as 16 lowercase hex digits.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl CampaignReport {
    /// Canonical single-line JSON. The digest field participates as the
    /// empty string while the digest itself is computed.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\"campaign\":{{\"seed\":{},\"plans\":{},\"n\":{},\"instances\":{},\"quota\":{},\"inject_at\":",
            c.seed, c.plans, c.n, c.instances, c.quota
        );
        match c.inject_at {
            Some(id) => {
                let _ = write!(s, "{id}}}");
            }
            None => s.push_str("null}"),
        }
        s.push_str(",\"coverage\":[");
        for (i, row) in self.coverage.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"class\":\"{}\",\"generated\":{},\"executed\":{},\"certified\":{},\"violated\":{}}}",
                row.class.label(),
                row.generated,
                row.executed,
                row.certified,
                row.violated
            );
        }
        s.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"plan\":{},\"class\":\"{}\",\"injected\":{},\"sim_seed\":{},\"reasons\":[",
                v.plan,
                v.class.label(),
                v.injected,
                v.sim_seed
            );
            for (j, reason) in v.reasons.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                json::write_str(&mut s, reason);
            }
            s.push_str("],\"plan_json\":");
            json::write_str(&mut s, &v.plan_json);
            s.push('}');
        }
        s.push_str("],\"event_histogram\":[");
        for (i, &count) in self.event_histogram.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{count}");
        }
        let _ = write!(s, "],\"total_events\":{},\"digest\":", self.total_events);
        json::write_str(&mut s, &self.digest);
        s.push('}');
        s
    }

    /// Recomputes the attestation digest from the canonical JSON and
    /// compares it with the embedded one.
    pub fn verify_digest(&self) -> Result<(), String> {
        let mut blank = self.clone();
        blank.digest = String::new();
        let expect = fnv1a64_hex(blank.to_json().as_bytes());
        if expect == self.digest {
            Ok(())
        } else {
            Err(format!(
                "digest mismatch: report says {}, canonical bytes give {expect}",
                self.digest
            ))
        }
    }

    /// Parses the canonical JSON produced by [`CampaignReport::to_json`].
    /// Unknown keys are rejected. The digest is *not* verified here; call
    /// [`CampaignReport::verify_digest`] for attestation.
    pub fn parse(text: &str) -> Result<CampaignReport, String> {
        let mut config = CampaignConfig {
            seed: 0,
            plans: 0,
            n: 0,
            instances: 0,
            quota: 0,
            inject_at: None,
        };
        let mut coverage = Vec::new();
        let mut violations = Vec::new();
        let mut event_histogram = [0u64; EVENT_BUCKETS];
        let mut total_events = 0u64;
        let mut digest = String::new();
        for (key, v) in json::parse(text)?.as_obj("report")? {
            match key.as_ref() {
                "campaign" => {
                    for (k, x) in v.as_obj("campaign")? {
                        match k.as_ref() {
                            "seed" => config.seed = x.as_u64("campaign.seed")?,
                            "plans" => config.plans = x.as_u64("campaign.plans")?,
                            "n" => config.n = x.as_usize("campaign.n")?,
                            "instances" => config.instances = x.as_usize("campaign.instances")?,
                            "quota" => config.quota = x.as_u32("campaign.quota")?,
                            "inject_at" => {
                                config.inject_at =
                                    x.nullable().map(|id| id.as_u64("campaign.inject_at")).transpose()?
                            }
                            other => return Err(format!("unknown campaign key {other:?}")),
                        }
                    }
                }
                "coverage" => {
                    coverage = v
                        .as_arr("coverage")?
                        .iter()
                        .map(parse_coverage_row)
                        .collect::<Result<_, String>>()?;
                }
                "violations" => {
                    violations = v
                        .as_arr("violations")?
                        .iter()
                        .map(parse_violation)
                        .collect::<Result<_, String>>()?;
                }
                "event_histogram" => {
                    let counts = v.as_arr("event_histogram")?;
                    if counts.len() > EVENT_BUCKETS {
                        return Err("event_histogram has too many buckets".to_string());
                    }
                    for (slot, c) in event_histogram.iter_mut().zip(counts) {
                        *slot = c.as_u64("event_histogram")?;
                    }
                }
                "total_events" => total_events = v.as_u64("total_events")?,
                "digest" => digest = v.as_str("digest")?.to_string(),
                other => return Err(format!("unknown report key {other:?}")),
            }
        }
        if coverage.len() != FaultClass::ALL.len() {
            return Err(format!(
                "coverage ledger has {} rows, expected {}",
                coverage.len(),
                FaultClass::ALL.len()
            ));
        }
        Ok(CampaignReport {
            config,
            coverage,
            violations,
            event_histogram,
            total_events,
            digest,
        })
    }
}

fn parse_class(v: &Value<'_>, what: &str) -> Result<FaultClass, String> {
    let label = v.as_str(what)?;
    FaultClass::from_label(label).ok_or_else(|| format!("unknown class {label:?}"))
}

fn parse_coverage_row(v: &Value<'_>) -> Result<CoverageRow, String> {
    let mut row = CoverageRow {
        class: FaultClass::HealPartition,
        generated: 0,
        executed: 0,
        certified: 0,
        violated: 0,
    };
    for (k, x) in v.as_obj("coverage row")? {
        match k.as_ref() {
            "class" => row.class = parse_class(x, "coverage.class")?,
            "generated" => row.generated = x.as_u64("coverage.generated")?,
            "executed" => row.executed = x.as_u64("coverage.executed")?,
            "certified" => row.certified = x.as_u64("coverage.certified")?,
            "violated" => row.violated = x.as_u64("coverage.violated")?,
            other => return Err(format!("unknown coverage key {other:?}")),
        }
    }
    Ok(row)
}

fn parse_violation(v: &Value<'_>) -> Result<ViolationRecord, String> {
    let mut rec = ViolationRecord {
        plan: 0,
        class: FaultClass::HealPartition,
        injected: false,
        sim_seed: 0,
        reasons: Vec::new(),
        plan_json: String::new(),
    };
    for (k, x) in v.as_obj("violation")? {
        match k.as_ref() {
            "plan" => rec.plan = x.as_u64("violation.plan")?,
            "class" => rec.class = parse_class(x, "violation.class")?,
            "injected" => rec.injected = x.as_bool("violation.injected")?,
            "sim_seed" => rec.sim_seed = x.as_u64("violation.sim_seed")?,
            "reasons" => {
                rec.reasons = x
                    .as_arr("violation.reasons")?
                    .iter()
                    .map(|r| r.as_str("violation.reasons").map(str::to_string))
                    .collect::<Result<_, String>>()?;
            }
            "plan_json" => rec.plan_json = x.as_str("violation.plan_json")?.to_string(),
            other => return Err(format!("unknown violation key {other:?}")),
        }
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            plans: 15,
            n: 14,
            instances: 3,
            quota: 2,
            inject_at: Some(7),
        }
    }

    #[test]
    fn small_campaign_covers_every_class() {
        let report = run_campaign(&small_cfg(42), None);
        for class in FaultClass::ALL {
            let row = report.coverage_of(class);
            assert_eq!(row.generated, 3, "{}", class.label());
            assert_eq!(row.executed, 3, "{}", class.label());
            assert!(row.certified > 0, "{} has no certified plans", class.label());
        }
        // The canary (plan 7, asym_loss class) is the only violation.
        assert!(report.clean(), "violations: {:?}", report.violations);
        let canary: Vec<_> = report.violations.iter().filter(|v| v.injected).collect();
        assert_eq!(canary.len(), 1);
        assert_eq!(canary[0].plan, 7);
        assert!(
            canary[0].reasons[0].contains("certify failed as designed"),
            "{:?}",
            canary[0].reasons
        );
        assert!(report.verify_digest().is_ok());
        assert!(report.total_events > 0);
        assert!(report.event_histogram.iter().sum::<u64>() == 15);
    }

    #[test]
    fn same_seed_reports_are_byte_identical() {
        let a = run_campaign(&small_cfg(7), None).to_json();
        let b = run_campaign(&small_cfg(7), None).to_json();
        assert_eq!(a, b);
        let c = run_campaign(&small_cfg(8), None).to_json();
        assert_ne!(a, c, "different seeds must differ somewhere");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_campaign(&small_cfg(42), None);
        let json = report.to_json();
        let parsed = CampaignReport::parse(&json).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), json, "canonical: reparse preserves bytes");
        assert!(parsed.verify_digest().is_ok());
        // Tampering breaks the attestation.
        let tampered = json.replace("\"total_events\":", "\"total_events\":1");
        if let Ok(bad) = CampaignReport::parse(&tampered) {
            assert!(bad.verify_digest().is_err());
        }
    }

    #[test]
    fn replay_reproduces_the_canary_violation() {
        let report = run_campaign(&small_cfg(42), None);
        let out = replay(&report, 7).expect("replayable");
        assert!(out.matches, "replay: {:?} vs {:?}", out.reasons, out.recorded);
        assert!(!out.reasons.is_empty());
        // A certified plan replays clean.
        let out = replay(&report, 0).expect("replayable");
        assert!(out.matches);
        assert!(out.reasons.is_empty());
        // Out-of-range ids are a structured error.
        assert!(replay(&report, 99).is_err());
    }

    #[test]
    fn metrics_ledger_matches_the_report() {
        let reg = MetricsRegistry::new();
        let report = run_campaign(&small_cfg(42), Some(&reg));
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(json.contains("campaign_plans_total"));
        // Every class's keys are registered, zeros included, and name it.
        for class in FaultClass::ALL {
            assert_eq!(class.plans_key(), format!("campaign_plans_{}", class.label()));
            assert_eq!(class.violations_key(), format!("campaign_violations_{}", class.label()));
            assert!(json.contains(class.plans_key()));
            assert!(json.contains(class.violations_key()));
        }
        // Metrics do not perturb the attested bytes.
        assert_eq!(report.to_json(), run_campaign(&small_cfg(42), None).to_json());
    }

    #[test]
    fn plan_generation_is_pure() {
        let cfg = small_cfg(3);
        for id in 0..15 {
            let (p1, s1) = generate_plan(&cfg, id);
            let (p2, s2) = generate_plan(&cfg, id);
            assert_eq!(p1, p2);
            assert_eq!(s1, s2);
            assert!(p1.validate().is_ok(), "plan {id}: {:?}", p1.validate());
            // The class signature fault is present.
            match FaultClass::of_plan(id) {
                FaultClass::HealPartition => assert!(!p1.partitions.is_empty()),
                FaultClass::AsymmetricLoss => assert!(!p1.link_loss.is_empty()),
                FaultClass::Duplication => assert!(p1.duplicate_probability > 0.0),
                FaultClass::Reordering => assert!(p1.reorder_probability > 0.0),
                FaultClass::CrashRestart => {
                    assert!(!p1.crashes.is_empty() && !p1.restarts.is_empty())
                }
            }
        }
    }
}
