//! The online invariant auditor: continuous checks of the paper's
//! structural guarantees, reported as structured violations and gauges.
//!
//! The auditor **never panics**: every broken invariant becomes an
//! [`AuditViolation`] (and bumps `audit_violations_total`), so a corrupted
//! run degrades to reporting instead of taking the process down — the
//! property a production overlay monitor needs.
//!
//! # Invariant catalogue
//!
//! | kind | property | source |
//! |---|---|---|
//! | [`InvariantKind::QuotaFeasibility`] | `c_i ≤ b_i` at every node | feasibility of eq. 2 |
//! | [`InvariantKind::Mutuality`] | edge selected ⇔ listed at both endpoints | matching well-formedness |
//! | [`InvariantKind::WeightSymmetry`] | stored `w(i,j)` equals eq. 9 | Lemma 5's precondition |
//! | [`InvariantKind::LocallyHeaviest`] | Lemma 4 witness at every unselected edge | Theorem 2 (½-approximation) |
//! | [`InvariantKind::EngineConsistency`] | maintained matching = canonical greedy over alive edges | PR 3's certified-repair invariant |
//! | [`InvariantKind::EpochMonotonicity`] | `DeltaReport` epochs strictly increase | engine versioning |
//! | [`InvariantKind::CausalAcyclicity`] | the trace's happens-before DAG is acyclic and clock-consistent | empirical Lemma 5 certificate |
//!
//! Each matching check has one body, over an alive-edge mask:
//! [`Auditor::audit_live`] audits an alive sub-instance of a universe
//! problem, and the static [`Auditor::audit_matching`] is the same pass
//! with every edge alive.
//!
//! # Health gauges
//!
//! * `audit_epsilon_blocking_edges` — the ε-blocking-edge count of Floréen
//!   et al. (*Almost stable matchings in constant time*): an unselected
//!   edge is ε-blocking when **both** endpoints would profitably switch to
//!   it, tolerating a relative slack of ε. A locally-heaviest matching has
//!   **zero** ε-blocking edges at ε = 0 (each unselected edge's Lemma 4
//!   witness endpoint refuses the switch), so any positive value signals
//!   drift.
//! * `audit_satisfaction_ratio` — `w(M)` against the LP upper bound
//!   `Σ_i (top-bᵢ incident weights)/2 ≥ w(M*)`; since eq. 9 weights are
//!   exactly static satisfaction contributions, this is the satisfaction
//!   ratio against the greedy/LP bound. Theorem 2 guarantees the *true*
//!   ratio vs `w(M*)` is ≥ ½; the gauge is a conservative lower estimate
//!   and is informational (the exact optimum is not computed online).
//!
//! Ratio gauges are only refreshed by an audit pass that found no
//! structural violation — degraded mode keeps the last healthy values
//! rather than publishing numbers derived from a corrupt state. Each gauge
//! is registered by the first pass that sets it, so a snapshot lists only
//! what was measured: a run that audits only a causal trace carries no
//! matching gauges, and one that audits only a matching carries no
//! `lid_critical_path_*`.
//!
//! # Engine batch metrics
//!
//! [`Auditor::observe_delta`] also aggregates each [`DeltaReport`] into
//! `engine_batch_events` / `engine_batch_evaluated` (histograms) and
//! `engine_edges_added_total` / `engine_edges_removed_total` /
//! `engine_reranked_total` (counters).

use crate::registry::{Counter, MetricsRegistry};
use owp_engine::{DeltaReport, Engine};
use owp_graph::NodeId;
use owp_matching::problem::Problem;
use owp_matching::verify;
use owp_matching::BMatching;
use owp_telemetry::json;
use std::fmt::Write as _;

/// Which invariant a violation broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantKind {
    /// A node holds more connections than its quota allows.
    QuotaFeasibility,
    /// Edge selection and the two endpoint connection lists disagree.
    Mutuality,
    /// A stored edge weight does not match eq. 9 (symmetry/recomputation drift).
    WeightSymmetry,
    /// An unselected edge has no Lemma 4 witness — the ½-approximation
    /// certificate is broken.
    LocallyHeaviest,
    /// The engine's maintained matching differs from the canonical greedy
    /// matching over the alive edge set.
    EngineConsistency,
    /// A `DeltaReport` epoch failed to advance strictly.
    EpochMonotonicity,
    /// The happens-before DAG reconstructed from a trace is not a
    /// well-formed acyclic forest (cycle, temporal inversion, dangling or
    /// duplicated span) — Lemma 5 rules all of these out for live runs, so
    /// any hit means trace corruption or tampering.
    CausalAcyclicity,
}

impl InvariantKind {
    /// Short stable tag (the `"kind"` field of the JSON schema).
    pub fn tag(self) -> &'static str {
        match self {
            InvariantKind::QuotaFeasibility => "quota_feasibility",
            InvariantKind::Mutuality => "mutuality",
            InvariantKind::WeightSymmetry => "weight_symmetry",
            InvariantKind::LocallyHeaviest => "locally_heaviest",
            InvariantKind::EngineConsistency => "engine_consistency",
            InvariantKind::EpochMonotonicity => "epoch_monotonicity",
            InvariantKind::CausalAcyclicity => "causal_acyclicity",
        }
    }
}

impl std::fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// One detected invariant breach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// The broken invariant.
    pub kind: InvariantKind,
    /// Engine epoch the breach was detected at (`None` for static audits).
    pub epoch: Option<u64>,
    /// Human-readable specifics (node/edge ids, expected vs found).
    pub detail: String,
}

impl AuditViolation {
    /// One JSON object (no trailing newline):
    /// `{"kind":"…","epoch":…,"detail":"…"}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(48 + self.detail.len());
        self.write_json(&mut s);
        s
    }

    fn write_json(&self, s: &mut String) {
        let _ = write!(s, "{{\"kind\":\"{}\",\"epoch\":", self.kind.tag());
        match self.epoch {
            Some(e) => {
                let _ = write!(s, "{e}");
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"detail\":");
        json::write_str(s, &self.detail);
        s.push('}');
    }
}

/// Counts the ε-blocking edges of `m`: unselected edges where **both**
/// endpoints would switch — an endpoint switches if it has free quota, or
/// if one of its selected edges is lighter than `w(e)/(1+ε)`.
///
/// Zero at ε = 0 for any matching satisfying the Lemma 4 certificate.
pub fn epsilon_blocking_count(problem: &Problem, m: &BMatching, epsilon: f64) -> usize {
    epsilon_blocking_alive(problem, None, problem.quotas.as_slice(), m, epsilon)
}

/// The LP/greedy upper bound on the optimal matching weight:
/// `Σ_i (sum of the bᵢ heaviest weights incident to i) / 2`. Any feasible
/// matching uses at most `bᵢ` edges at `i` and each edge is counted at both
/// endpoints, so `w(M*) ≤` this bound.
pub fn weight_upper_bound(problem: &Problem) -> f64 {
    weight_upper_bound_alive(problem, None, problem.quotas.as_slice())
}

/// [`epsilon_blocking_count`] over an alive sub-instance of a universe
/// problem: only edges with `alive[e]` exist (`None`: every edge), and
/// `quota[i]` is the effective (alive-degree-clamped) quota. Counts exactly
/// what [`epsilon_blocking_count`] would on the projected sub-problem with
/// inherited universe weights.
fn epsilon_blocking_alive(
    problem: &Problem,
    alive: Option<&[bool]>,
    quota: &[u32],
    m: &BMatching,
    epsilon: f64,
) -> usize {
    let g = &problem.graph;
    let scale = 1.0 + epsilon.max(0.0);
    let blocking_at = |x: NodeId, w_e: f64| -> bool {
        let b = quota[x.index()] as usize;
        if b == 0 {
            return false;
        }
        if m.degree(x) < b {
            return true;
        }
        m.connections(x).iter().any(|&j| {
            g.edge_between(x, j)
                .is_some_and(|f| problem.weights.get_f64(f) * scale < w_e)
        })
    };
    g.edges()
        .filter(|&e| {
            if alive.is_some_and(|a| !a[e.index()]) || m.contains(e) {
                return false;
            }
            let (u, v) = g.endpoints(e);
            let w_e = problem.weights.get_f64(e);
            blocking_at(u, w_e) && blocking_at(v, w_e)
        })
        .count()
}

/// [`weight_upper_bound`] over an alive sub-instance: per node, the
/// top-`quota[i]` weights among its **alive** incident edges, halved.
fn weight_upper_bound_alive(problem: &Problem, alive: Option<&[bool]>, quota: &[u32]) -> f64 {
    let g = &problem.graph;
    let mut total = 0.0f64;
    let mut incident: Vec<f64> = Vec::new();
    for i in g.nodes() {
        let b = quota[i.index()] as usize;
        if b == 0 {
            continue;
        }
        incident.clear();
        incident.extend(
            g.neighbors(i)
                .iter()
                .filter(|&&(_, e)| alive.is_none_or(|a| a[e.index()]))
                .map(|&(_, e)| problem.weights.get_f64(e)),
        );
        incident.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        total += incident.iter().take(b).sum::<f64>();
    }
    total / 2.0
}

/// The online auditor. Accumulates [`AuditViolation`]s across audit passes
/// and publishes health gauges into a [`MetricsRegistry`].
#[derive(Debug)]
pub struct Auditor {
    violations: Vec<AuditViolation>,
    violations_total: Counter,
    checks_total: Counter,
    reg: MetricsRegistry,
    last_epoch: Option<u64>,
}

impl Auditor {
    /// An auditor publishing into `reg`. Its ε-blocking gauge counts with
    /// ε = 0 (the strict blocking-edge notion). Only the two counters are
    /// registered here; each gauge appears with the first pass that sets
    /// it.
    pub fn new(reg: &MetricsRegistry) -> Self {
        Auditor {
            violations: Vec::new(),
            violations_total: reg.counter("audit_violations_total"),
            checks_total: reg.counter("audit_checks_total"),
            reg: reg.clone(),
            last_epoch: None,
        }
    }

    fn set_gauge(&self, key: &'static str, v: f64) {
        self.reg.gauge(key).set(v);
    }

    fn push(&mut self, kind: InvariantKind, epoch: Option<u64>, detail: String) {
        self.violations_total.inc();
        self.violations.push(AuditViolation { kind, epoch, detail });
    }

    /// Audits a static matching: quota feasibility, mutuality and the
    /// Lemma 4 locally-heaviest certificate; on a structurally clean pass,
    /// refreshes the ε-blocking and satisfaction-ratio gauges. Returns the
    /// number of violations this pass added. This is [`Auditor::audit_live`]
    /// with every edge alive and no epoch.
    pub fn audit_matching(&mut self, problem: &Problem, m: &BMatching) -> usize {
        self.audit_pass(problem, None, m, None)
    }

    /// [`Auditor::audit_matching`] against a *live* state probe, over the
    /// alive *sub-instance* described by a mask, without materializing the
    /// sub-problem: `problem` is the static universe, `alive[e]` marks the
    /// edges that exist right now, `m` selects universe edge ids (all of
    /// which must be alive), and every violation is stamped with the engine
    /// epoch the probed state belongs to. This is the entry point of
    /// matchd's continuous auditor.
    ///
    /// Verdicts and gauges are identical to projecting the alive
    /// sub-instance (`DynamicProblem::snapshot_with_map`) and running
    /// [`Auditor::audit_matching`] on it — the per-node quotas are clamped
    /// to alive degrees exactly as the projection's [`owp_graph::Quotas`]
    /// constructor would. Skipping the projection is what makes matchd's
    /// continuous auditor cheap enough to run at a fixed cadence: the
    /// universe `Problem` is re-derived once per structural change, not
    /// once per audit pass.
    ///
    /// # Panics
    /// Panics if `alive` does not cover the universe graph's edges.
    pub fn audit_live(
        &mut self,
        problem: &Problem,
        alive: &[bool],
        m: &BMatching,
        epoch: u64,
    ) -> usize {
        self.audit_pass(problem, Some(alive), m, Some(epoch))
    }

    fn audit_pass(
        &mut self,
        problem: &Problem,
        alive: Option<&[bool]>,
        m: &BMatching,
        epoch: Option<u64>,
    ) -> usize {
        let g = &problem.graph;
        self.checks_total.inc();
        let before = self.violations.len();

        // Effective quotas of the sub-instance: universe quota clamped to
        // alive degree, matching the projection's constructor clamp. With
        // every edge alive they are the problem's own (`Quotas` clamps to
        // the degree already).
        let clamped: Vec<u32>;
        let quota = match alive {
            None => problem.quotas.as_slice(),
            Some(alive) => {
                assert_eq!(alive.len(), g.edge_count(), "alive mask/graph mismatch");
                let mut alive_deg = vec![0u32; g.node_count()];
                for e in g.edges().filter(|e| alive[e.index()]) {
                    let (u, v) = g.endpoints(e);
                    alive_deg[u.index()] += 1;
                    alive_deg[v.index()] += 1;
                }
                clamped = g
                    .nodes()
                    .map(|i| problem.quotas.get(i).min(alive_deg[i.index()]))
                    .collect();
                &clamped
            }
        };

        for i in g.nodes() {
            let c = m.degree(i);
            let b = quota[i.index()] as usize;
            if c > b {
                self.push(
                    InvariantKind::QuotaFeasibility,
                    epoch,
                    format!("node {} holds {c} connections, quota {b}", i.0),
                );
            }
        }

        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            if alive.is_some_and(|a| !a[e.index()]) {
                if m.contains(e) {
                    self.push(
                        InvariantKind::Mutuality,
                        epoch,
                        format!(
                            "edge {} = ({},{}) is selected but not alive",
                            e.0, u.0, v.0
                        ),
                    );
                }
                continue;
            }
            let listed =
                m.connections(u).contains(&v) && m.connections(v).contains(&u);
            if m.contains(e) != listed {
                self.push(
                    InvariantKind::Mutuality,
                    epoch,
                    format!(
                        "edge {} = ({},{}): selected={} but listed-at-both={}",
                        e.0,
                        u.0,
                        v.0,
                        m.contains(e),
                        listed
                    ),
                );
            }
        }

        if let Err(why) = verify::check_greedy_certificate_alive(problem, alive, quota, m) {
            self.push(InvariantKind::LocallyHeaviest, epoch, why);
        }

        let added = self.violations.len() - before;
        if added == 0 {
            let eps = epsilon_blocking_alive(problem, alive, quota, m, 0.0);
            self.set_gauge("audit_epsilon_blocking_edges", eps as f64);
            let upper = weight_upper_bound_alive(problem, alive, quota);
            let ratio = if upper > 0.0 { m.total_weight(problem) / upper } else { 1.0 };
            self.set_gauge("audit_satisfaction_ratio", ratio);
        }
        added
    }

    /// Audits eq. 9 weight symmetry of the stored weight table. Returns the
    /// number of violations added (0 or 1 — the first offending edge).
    pub fn audit_weights(&mut self, problem: &Problem) -> usize {
        self.checks_total.inc();
        match verify::check_weights(problem) {
            Ok(()) => 0,
            Err(why) => {
                self.push(InvariantKind::WeightSymmetry, None, why);
                1
            }
        }
    }

    /// Audits the engine's maintained matching against the canonical greedy
    /// matching over the current alive edge set (scan the rank order
    /// heaviest-first, select whenever both endpoints have quota left —
    /// with unique keys this is exactly the locally-heaviest matching the
    /// engine promises to maintain). Returns the violations added.
    pub fn audit_engine(&mut self, engine: &Engine) -> usize {
        self.checks_total.inc();
        let before = self.violations.len();
        let epoch = engine.epoch().0;
        let dp = engine.dynamic();
        let g = dp.graph();
        let m = engine.matching();

        let mut remaining: Vec<u32> = g.nodes().map(|i| dp.quotas().get(i)).collect();
        let mut expected = vec![false; g.edge_count()];
        for &e in dp.order().heaviest_first() {
            if !dp.is_alive(e) {
                continue;
            }
            let (u, v) = g.endpoints(e);
            if remaining[u.index()] > 0 && remaining[v.index()] > 0 {
                expected[e.index()] = true;
                remaining[u.index()] -= 1;
                remaining[v.index()] -= 1;
            }
        }
        for e in g.edges() {
            let want = expected[e.index()];
            let got = m.contains(e);
            if want != got {
                self.push(
                    InvariantKind::EngineConsistency,
                    Some(epoch),
                    format!(
                        "edge {}: canonical greedy says {}, engine matching says {}",
                        e.0,
                        if want { "selected" } else { "unselected" },
                        if got { "selected" } else { "unselected" }
                    ),
                );
            }
        }

        let added = self.violations.len() - before;
        if added == 0 {
            self.set_gauge("audit_engine_matching_size", m.size() as f64);
            self.set_gauge("audit_engine_satisfaction", engine.total_satisfaction());
        }
        added
    }

    /// Audits a trace's happens-before DAG (the empirical Lemma 5
    /// certificate): every [`owp_telemetry::CausalViolation`] found becomes
    /// a [`InvariantKind::CausalAcyclicity`] violation. On a clean pass the
    /// `lid_critical_path_len` / `lid_critical_path_latency` gauges are
    /// refreshed from the DAG (degraded mode keeps the last healthy
    /// values, matching the other gauges). Returns the violations added.
    pub fn audit_causal(&mut self, dag: &owp_telemetry::CausalDag) -> usize {
        self.checks_total.inc();
        let causal = dag.verify();
        let added = causal.len();
        for v in causal {
            self.push(
                InvariantKind::CausalAcyclicity,
                None,
                format!("{} at {}: {}", v.kind.tag(), v.span, v.detail),
            );
        }
        if added == 0 {
            let path = dag.critical_path();
            self.set_gauge("lid_critical_path_len", path.len() as f64);
            self.set_gauge("lid_critical_path_latency", path.total_latency() as f64);
        }
        added
    }

    /// Consumes one engine [`DeltaReport`]: aggregates it into the engine
    /// batch metrics (events and evaluated edges per batch, edges added,
    /// removed and re-ranked), checks strict epoch advance and refreshes
    /// the engine gauges from the report. Returns the violations added
    /// (0 or 1).
    pub fn observe_delta(&mut self, report: &DeltaReport) -> usize {
        self.checks_total.inc();
        let reg = &self.reg;
        reg.histogram("engine_batch_events").observe(report.events as u64);
        reg.histogram("engine_batch_evaluated").observe(report.evaluated as u64);
        reg.counter("engine_edges_added_total").add(report.edges_added.len() as u64);
        reg.counter("engine_edges_removed_total").add(report.edges_removed.len() as u64);
        reg.counter("engine_reranked_total").add(report.reranked as u64);
        let epoch = report.epoch.0;
        let mut added = 0;
        if let Some(last) = self.last_epoch {
            if epoch <= last {
                self.push(
                    InvariantKind::EpochMonotonicity,
                    Some(epoch),
                    format!("epoch {epoch} does not advance past {last}"),
                );
                added = 1;
            }
        }
        self.last_epoch = Some(epoch);
        if added == 0 {
            self.set_gauge("audit_engine_matching_size", report.matching_size as f64);
            self.set_gauge("audit_engine_satisfaction", report.total_satisfaction);
        }
        added
    }

    /// All violations detected so far, in detection order.
    pub fn report(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// `true` iff no audit pass has detected a violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations as JSONL (one object per line; empty string when clean).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            v.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_matching::weights::EdgeWeights;
    use owp_matching::{lic, Rational, SelectionPolicy};

    fn instance(seed: u64) -> Problem {
        Problem::random_gnp(40, 0.2, 2, seed)
    }

    #[test]
    fn clean_lic_run_audits_clean() {
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        for seed in 0..5 {
            let p = instance(seed);
            let m = lic(&p, SelectionPolicy::InOrder);
            assert_eq!(auditor.audit_weights(&p), 0);
            assert_eq!(auditor.audit_matching(&p, &m), 0);
        }
        assert!(auditor.is_clean());
        assert_eq!(auditor.to_jsonl(), "");
        // Locally heaviest ⇒ zero blocking edges at ε = 0, and the ratio
        // gauge sits inside (0, 1].
        assert_eq!(reg.gauge("audit_epsilon_blocking_edges").get(), 0.0);
        let ratio = reg.gauge("audit_satisfaction_ratio").get();
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio {ratio}");
        assert_eq!(reg.counter("audit_violations_total").get(), 0);
    }

    #[test]
    fn quota_overflow_is_reported_not_panicked() {
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        let p = instance(1);
        let mut m = lic(&p, SelectionPolicy::InOrder);
        // Force an extra edge onto a node that is already at quota.
        let full = p
            .graph
            .nodes()
            .find(|&i| m.degree(i) == p.quotas.get(i) as usize && p.quotas.get(i) > 0)
            .expect("some saturated node");
        let extra = p
            .graph
            .neighbors(full)
            .iter()
            .map(|&(_, e)| e)
            .find(|&e| !m.contains(e))
            .expect("an unselected incident edge");
        m.insert_unchecked(&p.graph, extra);
        let added = auditor.audit_matching(&p, &m);
        assert!(added > 0);
        assert!(auditor
            .report()
            .iter()
            .any(|v| v.kind == InvariantKind::QuotaFeasibility));
        assert!(!auditor.is_clean());
        assert_eq!(reg.counter("audit_violations_total").get(), added as u64);
        // Degraded mode: gauges were never refreshed by the dirty pass.
        assert_eq!(reg.gauge("audit_satisfaction_ratio").get(), 0.0);
        let line = auditor.to_jsonl();
        assert!(line.contains("\"kind\":\"quota_feasibility\""), "{line}");
    }

    #[test]
    fn live_audit_stamps_the_epoch() {
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        let p = instance(1);
        let mut m = lic(&p, SelectionPolicy::InOrder);
        let heaviest = *p.order.heaviest_first().iter().find(|&&e| m.contains(e)).unwrap();
        m.remove(&p.graph, heaviest);
        let alive = vec![true; p.edge_count()];
        assert!(auditor.audit_live(&p, &alive, &m, 77) > 0);
        assert!(auditor.report().iter().all(|v| v.epoch == Some(77)));
        // The clean path refreshes gauges exactly like audit_matching.
        let mut clean = Auditor::new(&reg);
        let m = lic(&p, SelectionPolicy::InOrder);
        assert_eq!(clean.audit_live(&p, &alive, &m, 78), 0);
        assert_eq!(reg.gauge("audit_epsilon_blocking_edges").get(), 0.0);
    }

    #[test]
    fn asymmetric_weight_is_reported() {
        let p = instance(2);
        // Tamper with one edge's weight so it no longer matches eq. 9.
        let mut raw: Vec<Rational> =
            p.graph.edges().map(|e| p.weights.get(e)).collect();
        raw[0] = raw[0] + Rational::new(1, 2);
        let tampered = Problem::with_weights(
            p.graph.clone(),
            p.prefs.clone(),
            p.quotas.clone(),
            EdgeWeights::from_raw(raw),
        );
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        assert_eq!(auditor.audit_weights(&tampered), 1);
        assert_eq!(auditor.report()[0].kind, InvariantKind::WeightSymmetry);
        assert!(auditor.report()[0].to_json().starts_with("{\"kind\":\"weight_symmetry\""));
    }

    #[test]
    fn removing_a_matched_edge_breaks_the_certificate() {
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        let p = instance(3);
        let mut m = lic(&p, SelectionPolicy::InOrder);
        let heaviest = *p.order.heaviest_first().iter().find(|&&e| m.contains(e)).unwrap();
        m.remove(&p.graph, heaviest);
        let added = auditor.audit_matching(&p, &m);
        assert!(added > 0);
        assert!(auditor
            .report()
            .iter()
            .any(|v| v.kind == InvariantKind::LocallyHeaviest));
    }

    #[test]
    fn masked_live_audit_matches_projection() {
        use owp_engine::DynamicProblem;
        for seed in 0..4u64 {
            let p = instance(seed);
            // Deterministically deactivate some nodes and remove some edges.
            let active: Vec<bool> =
                (0..p.node_count()).map(|i| !(i * 7 + seed as usize).is_multiple_of(5)).collect();
            let present: Vec<bool> =
                (0..p.edge_count()).map(|k| !(k * 11 + seed as usize).is_multiple_of(7)).collect();
            let dp = DynamicProblem::from_parts(p.clone(), active, present);
            let (sub, map) = dp.snapshot_with_map();
            let sub_m = lic(&sub, SelectionPolicy::InOrder);

            // The same matching, expressed in universe edge ids.
            let alive: Vec<bool> = dp.graph().edges().map(|e| dp.is_alive(e)).collect();
            let mut uni_m = BMatching::empty(&p.graph);
            for e in sub_m.edge_ids() {
                uni_m.insert_unchecked(&p.graph, map[e.index()]);
            }

            let reg_proj = MetricsRegistry::new();
            let mut proj = Auditor::new(&reg_proj);
            assert_eq!(proj.audit_matching(&sub, &sub_m), 0);
            let reg_mask = MetricsRegistry::new();
            let mut mask = Auditor::new(&reg_mask);
            assert_eq!(mask.audit_live(&p, &alive, &uni_m, 5), 0);

            // The gauges agree: ε-blocking exactly, the float ratio up to
            // summation order.
            assert_eq!(
                reg_proj.gauge("audit_epsilon_blocking_edges").get(),
                reg_mask.gauge("audit_epsilon_blocking_edges").get(),
                "seed {seed}"
            );
            let r_proj = reg_proj.gauge("audit_satisfaction_ratio").get();
            let r_mask = reg_mask.gauge("audit_satisfaction_ratio").get();
            assert!((r_proj - r_mask).abs() < 1e-9, "seed {seed}: {r_proj} vs {r_mask}");

            // Tamper identically in both views: dropping the heaviest
            // selected edge breaks the Lemma 4 certificate in each.
            let heaviest =
                *sub.order.heaviest_first().iter().find(|&&e| sub_m.contains(e)).unwrap();
            let mut sub_bad = sub_m.clone();
            sub_bad.remove(&sub.graph, heaviest);
            let mut uni_bad = uni_m.clone();
            uni_bad.remove(&p.graph, map[heaviest.index()]);
            assert!(proj.audit_matching(&sub, &sub_bad) > 0);
            assert!(mask.audit_live(&p, &alive, &uni_bad, 6) > 0);
            assert!(mask
                .report()
                .iter()
                .any(|v| v.kind == InvariantKind::LocallyHeaviest && v.epoch == Some(6)));
        }
    }

    #[test]
    fn masked_live_audit_flags_dead_selected_edge() {
        use owp_engine::DynamicProblem;
        let p = instance(9);
        let active = vec![true; p.node_count()];
        let mut present = vec![true; p.edge_count()];
        let dp = DynamicProblem::from_parts(p.clone(), active, present.clone());
        let alive_all: Vec<bool> = dp.graph().edges().map(|e| dp.is_alive(e)).collect();
        let m = lic(&p, SelectionPolicy::InOrder);
        let selected = *m.edge_ids().first().expect("non-empty matching");
        // Kill one selected edge out from under the matching.
        present[selected.index()] = false;
        let mut alive = alive_all;
        alive[selected.index()] = false;
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        assert!(auditor.audit_live(&p, &alive, &m, 3) > 0);
        assert!(auditor
            .report()
            .iter()
            .any(|v| v.kind == InvariantKind::Mutuality
                && v.detail.contains("selected but not alive")));
    }

    #[test]
    fn epsilon_blocking_counts_relaxed_pairs() {
        let p = instance(4);
        let empty = BMatching::empty(&p.graph);
        // Every edge blocks an empty matching (free quota everywhere).
        assert_eq!(epsilon_blocking_count(&p, &empty, 0.0), p.graph.edge_count());
        // A huge ε forgives any saturated endpoint.
        let m = lic(&p, SelectionPolicy::InOrder);
        assert_eq!(epsilon_blocking_count(&p, &m, 0.0), 0);
        assert!(weight_upper_bound(&p) >= m.total_weight(&p));
    }

    #[test]
    fn causal_audit_certifies_clean_and_flags_tampered() {
        use owp_graph::NodeId as N;
        use owp_telemetry::{CausalDag, EventLog, MessageKind, SpanId, TelemetryEvent};
        let sent = |time, span, parent: Option<u64>, from: u32, to: u32| TelemetryEvent::Sent {
            time,
            span: SpanId(span),
            parent: parent.map(SpanId),
            from: N(from),
            to: N(to),
            kind: MessageKind::Prop,
        };
        let delivered = |time, span, from: u32, to: u32| TelemetryEvent::Delivered {
            time,
            span: SpanId(span),
            from: N(from),
            to: N(to),
            kind: MessageKind::Prop,
        };
        // Clean 2-hop chain refreshes the critical-path gauges.
        let mut log = EventLog::enabled();
        log.record(sent(0, 0, None, 0, 1));
        log.record(delivered(2, 0, 0, 1));
        log.record(sent(2, 1, Some(0), 1, 2));
        log.record(delivered(5, 1, 1, 2));
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        assert_eq!(auditor.audit_causal(&CausalDag::from_log(&log)), 0);
        assert!(auditor.is_clean());
        assert_eq!(reg.gauge("lid_critical_path_len").get(), 2.0);
        assert_eq!(reg.gauge("lid_critical_path_latency").get(), 5.0);

        // A tampered trace with a parent cycle is reported, never panics,
        // and leaves the healthy gauge values untouched (degraded mode).
        let mut bad = EventLog::enabled();
        bad.record(sent(0, 5, Some(6), 0, 1));
        bad.record(delivered(1, 5, 0, 1));
        bad.record(sent(1, 6, Some(5), 1, 0));
        bad.record(delivered(2, 6, 1, 0));
        let added = auditor.audit_causal(&CausalDag::from_log(&bad));
        assert!(added > 0);
        assert!(auditor
            .report()
            .iter()
            .any(|v| v.kind == InvariantKind::CausalAcyclicity
                && v.detail.contains("cycle_detected")));
        assert_eq!(reg.counter("audit_violations_total").get(), added as u64);
        assert_eq!(reg.gauge("lid_critical_path_len").get(), 2.0);
        let line = auditor.to_jsonl();
        assert!(line.contains("\"kind\":\"causal_acyclicity\""), "{line}");
    }

    #[test]
    fn epoch_monotonicity() {
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        let mk = |e: u64| DeltaReport {
            epoch: owp_engine::Epoch(e),
            events: 1,
            edges_added: vec![],
            edges_removed: vec![],
            evaluated: 0,
            reranked: 0,
            delta_satisfaction: 0.0,
            total_satisfaction: 1.5,
            matching_size: 3,
        };
        assert_eq!(auditor.observe_delta(&mk(1)), 0);
        assert_eq!(auditor.observe_delta(&mk(2)), 0);
        assert_eq!(reg.gauge("audit_engine_matching_size").get(), 3.0);
        assert_eq!(auditor.observe_delta(&mk(2)), 1);
        assert_eq!(auditor.report()[0].kind, InvariantKind::EpochMonotonicity);
        assert_eq!(auditor.report()[0].epoch, Some(2));
    }

    #[test]
    fn observe_delta_aggregates_engine_batch_metrics() {
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        let report = DeltaReport {
            epoch: owp_engine::Epoch(1),
            events: 4,
            edges_added: vec![owp_graph::EdgeId(3), owp_graph::EdgeId(5)],
            edges_removed: vec![owp_graph::EdgeId(8)],
            evaluated: 17,
            reranked: 6,
            delta_satisfaction: 0.0,
            total_satisfaction: 1.0,
            matching_size: 2,
        };
        assert_eq!(auditor.observe_delta(&report), 0);
        assert_eq!(reg.histogram("engine_batch_events").sum(), 4);
        assert_eq!(reg.histogram("engine_batch_evaluated").sum(), 17);
        assert_eq!(reg.counter("engine_edges_added_total").get(), 2);
        assert_eq!(reg.counter("engine_edges_removed_total").get(), 1);
        assert_eq!(reg.counter("engine_reranked_total").get(), 6);
    }

    #[test]
    fn gauges_appear_only_when_measured() {
        use owp_graph::NodeId as N;
        use owp_telemetry::{CausalDag, EventLog, MessageKind, SpanId, TelemetryEvent};
        let gauges = |reg: &MetricsRegistry| -> Vec<String> {
            reg.snapshot().gauges.into_iter().map(|(k, _)| k).collect()
        };
        let matching_gauges = [
            "audit_epsilon_blocking_edges",
            "audit_satisfaction_ratio",
            "audit_engine_matching_size",
            "audit_engine_satisfaction",
        ];
        let critical_path = ["lid_critical_path_latency", "lid_critical_path_len"];

        // A causal-only audit publishes the critical path and nothing else.
        let (span, from, to, kind) = (SpanId(0), N(0), N(1), MessageKind::Prop);
        let mut log = EventLog::enabled();
        log.record(TelemetryEvent::Sent { time: 0, span, parent: None, from, to, kind });
        log.record(TelemetryEvent::Delivered { time: 3, span, from, to, kind });
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        assert!(gauges(&reg).is_empty(), "construction registers no gauge");
        assert_eq!(auditor.audit_causal(&CausalDag::from_log(&log)), 0);
        let seen = gauges(&reg);
        assert_eq!(seen, critical_path);
        assert!(matching_gauges.iter().all(|g| !seen.iter().any(|s| s == g)), "{seen:?}");

        // A matching-only audit publishes no critical path.
        let reg = MetricsRegistry::new();
        let mut auditor = Auditor::new(&reg);
        let p = instance(1);
        assert_eq!(auditor.audit_matching(&p, &lic(&p, SelectionPolicy::InOrder)), 0);
        let seen = gauges(&reg);
        assert_eq!(seen, ["audit_epsilon_blocking_edges", "audit_satisfaction_ratio"]);
        assert!(critical_path.iter().all(|g| !seen.iter().any(|s| s == g)), "{seen:?}");
    }
}
