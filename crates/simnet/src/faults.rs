//! Fault injection: message loss, duplication, reordering, partitions and
//! node crash/restart.
//!
//! The paper assumes reliable FIFO channels and non-faulty peers; these knobs
//! exist for the robustness experiments (E11) and the chaos campaigns (E25)
//! that probe what happens when that assumption is relaxed. A [`FaultPlan`]
//! is declarative data; the simulator compiles it once at install time into
//! [`CompiledFaults`] so per-delivery queries are O(1) in the number of
//! scheduled crashes (the plan-side `crash_time` linear scan is never on the
//! delivery path).

use crate::{NodeId, SimTime};
use owp_telemetry::json::{self, Value};
use std::fmt::Write as _;

/// Asymmetric per-link loss: probability in `[0, 1]` that a message sent
/// from `from` to `to` is silently dropped. The reverse direction is
/// unaffected unless it has its own entry.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkLoss {
    /// Sender whose messages are lossy.
    pub from: NodeId,
    /// Receiver the loss applies to.
    pub to: NodeId,
    /// Drop probability for this directed link (overrides the global one).
    pub probability: f64,
}

/// A network partition that heals: during `[start, heal)` no message crosses
/// between `side` and its complement. Messages within one side are
/// unaffected. Cut messages are counted as partition drops, not random loss.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Partition {
    /// Nodes on one side of the cut (the complement is the other side).
    pub side: Vec<NodeId>,
    /// First tick at which the cut is active.
    pub start: SimTime,
    /// First tick at which the cut is healed (exclusive end; must be > start).
    pub heal: SimTime,
}

/// Declarative fault plan applied by the asynchronous simulator.
///
/// Fault classes (all composable in one plan):
/// * uniform message loss (`drop_probability`),
/// * asymmetric per-link loss (`link_loss`),
/// * message duplication (`duplicate_probability`) — the copy gets an
///   independent latency draw, so duplicates may arrive out of order,
/// * message reordering (`reorder_probability`) — explicitly violates the
///   per-link FIFO assumption the paper's channels provide,
/// * partitions that heal (`partitions`),
/// * node crashes (`crashes`) and crash-*restarts* (`restarts`): a restarted
///   node loses all volatile state and re-enters the protocol via
///   [`crate::protocol::Protocol::on_restart`].
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any given message is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a delivered message is duplicated.
    pub duplicate_probability: f64,
    /// Probability in `[0, 1]` that a message skips the per-link FIFO clamp
    /// and may overtake earlier traffic on the same link.
    pub reorder_probability: f64,
    /// Nodes that crash at a given time: messages delivered to them while
    /// down are discarded and their timers do not fire.
    pub crashes: Vec<(NodeId, SimTime)>,
    /// Nodes that come back up at a given time (must be after their crash).
    /// Restart wipes volatile protocol state; pre-crash timers stay dead.
    pub restarts: Vec<(NodeId, SimTime)>,
    /// Per-directed-link loss overrides.
    pub link_loss: Vec<LinkLoss>,
    /// Partitions that heal.
    pub partitions: Vec<Partition>,
}

fn prob_ok(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

impl FaultPlan {
    /// A plan with no faults (the paper's model).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Uniform message-loss plan.
    pub fn with_drop_probability(p: f64) -> Self {
        assert!(prob_ok(p), "drop probability {p} out of [0,1]");
        FaultPlan {
            drop_probability: p,
            ..FaultPlan::default()
        }
    }

    /// Adds a crash of `node` at `time`.
    pub fn crash(mut self, node: NodeId, time: SimTime) -> Self {
        self.crashes.push((node, time));
        self
    }

    /// Adds a restart of `node` at `time` (the node must also crash earlier).
    pub fn restart(mut self, node: NodeId, time: SimTime) -> Self {
        self.restarts.push((node, time));
        self
    }

    /// Adds an asymmetric loss entry for the directed link `from -> to`.
    pub fn link_loss(mut self, from: NodeId, to: NodeId, probability: f64) -> Self {
        self.link_loss.push(LinkLoss { from, to, probability });
        self
    }

    /// Sets the message-duplication probability.
    pub fn duplicate(mut self, p: f64) -> Self {
        self.duplicate_probability = p;
        self
    }

    /// Sets the FIFO-violation (reordering) probability.
    pub fn reorder(mut self, p: f64) -> Self {
        self.reorder_probability = p;
        self
    }

    /// Adds a partition of `side` vs the rest during `[start, heal)`.
    pub fn partition(mut self, side: Vec<NodeId>, start: SimTime, heal: SimTime) -> Self {
        self.partitions.push(Partition { side, start, heal });
        self
    }

    /// Crash time of `node`, if scheduled.
    ///
    /// Convenience for plan inspection; the simulator's delivery path uses
    /// the O(1) dense lookup built by [`CompiledFaults::compile`] instead.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.crashes
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, t)| t)
    }

    /// `true` iff the plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.reorder_probability == 0.0
            && self.crashes.is_empty()
            && self.restarts.is_empty()
            && self.link_loss.is_empty()
            && self.partitions.is_empty()
    }

    /// Structural validation: probability bounds, no duplicate crash /
    /// restart / link entries, restarts strictly after their crash,
    /// partitions non-empty with `heal > start`.
    pub fn validate(&self) -> Result<(), String> {
        if !prob_ok(self.drop_probability) {
            return Err(format!("drop probability {} out of [0,1]", self.drop_probability));
        }
        if !prob_ok(self.duplicate_probability) {
            return Err(format!(
                "duplicate probability {} out of [0,1]",
                self.duplicate_probability
            ));
        }
        if !prob_ok(self.reorder_probability) {
            return Err(format!(
                "reorder probability {} out of [0,1]",
                self.reorder_probability
            ));
        }
        for (i, &(node, _)) in self.crashes.iter().enumerate() {
            if self.crashes[..i].iter().any(|&(n, _)| n == node) {
                return Err(format!("duplicate crash entry for node {}", node.0));
            }
        }
        for (i, &(node, at)) in self.restarts.iter().enumerate() {
            if self.restarts[..i].iter().any(|&(n, _)| n == node) {
                return Err(format!("duplicate restart entry for node {}", node.0));
            }
            match self.crash_time(node) {
                None => {
                    return Err(format!(
                        "restart of node {} without a matching crash",
                        node.0
                    ));
                }
                Some(c) if at <= c => {
                    return Err(format!(
                        "restart of node {} at {at} not after its crash at {c}",
                        node.0
                    ));
                }
                Some(_) => {}
            }
        }
        for (i, l) in self.link_loss.iter().enumerate() {
            if !prob_ok(l.probability) {
                return Err(format!(
                    "link loss probability {} out of [0,1] on {}->{}",
                    l.probability, l.from.0, l.to.0
                ));
            }
            if self.link_loss[..i]
                .iter()
                .any(|e| e.from == l.from && e.to == l.to)
            {
                return Err(format!(
                    "duplicate link loss entry for {}->{}",
                    l.from.0, l.to.0
                ));
            }
        }
        for p in &self.partitions {
            if p.side.is_empty() {
                return Err("partition with empty side".to_string());
            }
            if p.heal <= p.start {
                return Err(format!(
                    "partition heal {} not after start {}",
                    p.heal, p.start
                ));
            }
        }
        Ok(())
    }

    /// Canonical single-line JSON rendering. Same plan ⇒ same bytes, so
    /// campaign reports that embed plans byte-compare across runs.
    /// Probabilities use `f64`'s `Display` form (`0`, `0.25`), which
    /// reads back bit for bit.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"drop\":{},\"duplicate\":{},\"reorder\":{},\"crashes\":",
            self.drop_probability, self.duplicate_probability, self.reorder_probability
        );
        write_pairs(&mut s, &self.crashes);
        s.push_str(",\"restarts\":");
        write_pairs(&mut s, &self.restarts);
        s.push_str(",\"link_loss\":[");
        for (i, l) in self.link_loss.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{},{},{}]", l.from.0, l.to.0, l.probability);
        }
        s.push_str("],\"partitions\":[");
        for (i, p) in self.partitions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"side\":[");
            for (j, n) in p.side.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", n.0);
            }
            let _ = write!(s, "],\"start\":{},\"heal\":{}}}", p.start, p.heal);
        }
        s.push_str("]}");
        s
    }

    /// Parses the canonical JSON produced by [`FaultPlan::to_json`].
    /// Unknown keys are rejected, and the parsed plan is
    /// [`FaultPlan::validate`]d before being returned.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (key, v) in json::parse(text)?.as_obj("fault plan")? {
            match key.as_ref() {
                "drop" => plan.drop_probability = v.as_f64("drop")?,
                "duplicate" => plan.duplicate_probability = v.as_f64("duplicate")?,
                "reorder" => plan.reorder_probability = v.as_f64("reorder")?,
                "crashes" => plan.crashes = parse_pairs(v, "crashes")?,
                "restarts" => plan.restarts = parse_pairs(v, "restarts")?,
                "link_loss" => {
                    plan.link_loss = v
                        .as_arr("link_loss")?
                        .iter()
                        .map(|l| {
                            let [from, to, p] = l.as_tuple("link_loss entry")?;
                            Ok(LinkLoss {
                                from: NodeId(from.as_u32("link_loss from")?),
                                to: NodeId(to.as_u32("link_loss to")?),
                                probability: p.as_f64("link_loss probability")?,
                            })
                        })
                        .collect::<Result<_, String>>()?;
                }
                "partitions" => {
                    plan.partitions = v
                        .as_arr("partitions")?
                        .iter()
                        .map(parse_partition)
                        .collect::<Result<_, String>>()?;
                }
                other => return Err(format!("unknown fault plan key {other:?}")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Appends `[[node,time],...]`.
fn write_pairs(s: &mut String, pairs: &[(NodeId, SimTime)]) {
    s.push('[');
    for (i, &(n, t)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{t}]", n.0);
    }
    s.push(']');
}

fn parse_pairs(v: &Value<'_>, what: &str) -> Result<Vec<(NodeId, SimTime)>, String> {
    v.as_arr(what)?
        .iter()
        .map(|pair| {
            let [n, t] = pair.as_tuple(what)?;
            Ok((NodeId(n.as_u32(what)?), t.as_u64(what)?))
        })
        .collect()
}

fn parse_partition(v: &Value<'_>) -> Result<Partition, String> {
    let mut p = Partition { side: Vec::new(), start: 0, heal: 0 };
    for (key, x) in v.as_obj("partition")? {
        match key.as_ref() {
            "side" => {
                p.side = x
                    .as_arr("partition side")?
                    .iter()
                    .map(|n| n.as_u32("partition side").map(NodeId))
                    .collect::<Result<_, String>>()?;
            }
            "start" => p.start = x.as_u64("partition start")?,
            "heal" => p.heal = x.as_u64("partition heal")?,
            other => return Err(format!("unknown partition key {other:?}")),
        }
    }
    Ok(p)
}

/// A [`FaultPlan`] compiled against a fixed node count for O(1) delivery-path
/// queries: dense per-node crash/restart times, per-sender link-loss lists
/// and partition membership bitmaps. Built once when the simulator installs
/// the plan (satellite fix for the old `crash_time` linear scan).
#[derive(Clone, Debug)]
pub struct CompiledFaults {
    /// Global drop probability.
    pub drop_probability: f64,
    /// Duplication probability.
    pub duplicate_probability: f64,
    /// FIFO-violation probability.
    pub reorder_probability: f64,
    crash_at: Vec<SimTime>,
    restart_at: Vec<SimTime>,
    /// Per-sender `(to, probability)` overrides; empty for most senders.
    link_loss: Vec<Vec<(NodeId, f64)>>,
    /// `(membership bitmap, start, heal)` per partition.
    partitions: Vec<(Vec<bool>, SimTime, SimTime)>,
    any_link_loss: bool,
}

impl CompiledFaults {
    /// Validates `plan` and compiles it against `n` nodes. Entries that name
    /// nodes `>= n` are rejected: a plan must match the topology it runs on.
    pub fn compile(plan: &FaultPlan, n: usize) -> Result<CompiledFaults, String> {
        plan.validate()?;
        let check = |node: NodeId, what: &str| -> Result<(), String> {
            if node.index() >= n {
                Err(format!("{what} names node {} but the run has {n} nodes", node.0))
            } else {
                Ok(())
            }
        };
        let mut crash_at = vec![SimTime::MAX; n];
        for &(node, t) in &plan.crashes {
            check(node, "crash")?;
            crash_at[node.index()] = t;
        }
        let mut restart_at = vec![SimTime::MAX; n];
        for &(node, t) in &plan.restarts {
            check(node, "restart")?;
            restart_at[node.index()] = t;
        }
        let mut link_loss = vec![Vec::new(); n];
        for l in &plan.link_loss {
            check(l.from, "link loss")?;
            check(l.to, "link loss")?;
            link_loss[l.from.index()].push((l.to, l.probability));
        }
        let mut partitions = Vec::with_capacity(plan.partitions.len());
        for p in &plan.partitions {
            let mut member = vec![false; n];
            for &node in &p.side {
                check(node, "partition")?;
                member[node.index()] = true;
            }
            partitions.push((member, p.start, p.heal));
        }
        Ok(CompiledFaults {
            drop_probability: plan.drop_probability,
            duplicate_probability: plan.duplicate_probability,
            reorder_probability: plan.reorder_probability,
            crash_at,
            restart_at,
            any_link_loss: !plan.link_loss.is_empty(),
            link_loss,
            partitions,
        })
    }

    /// Crash time of `node`, if scheduled. O(1).
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        match self.crash_at[node.index()] {
            SimTime::MAX => None,
            t => Some(t),
        }
    }

    /// Restart time of `node`, if scheduled. O(1).
    pub fn restart_time(&self, node: NodeId) -> Option<SimTime> {
        match self.restart_at[node.index()] {
            SimTime::MAX => None,
            t => Some(t),
        }
    }

    /// `true` iff `node` is down (crashed, not yet restarted) at `at`.
    pub fn down_at(&self, node: NodeId, at: SimTime) -> bool {
        at >= self.crash_at[node.index()] && at < self.restart_at[node.index()]
    }

    /// `true` iff an active partition separates `from` and `to` at `at`.
    pub fn cut_at(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        self.partitions.iter().any(|(member, start, heal)| {
            at >= *start && at < *heal && member[from.index()] != member[to.index()]
        })
    }

    /// Effective loss probability on the directed link `from -> to`: the
    /// per-link override if one exists, else the global drop probability.
    pub fn loss(&self, from: NodeId, to: NodeId) -> f64 {
        if self.any_link_loss {
            if let Some(&(_, p)) = self.link_loss[from.index()].iter().find(|&&(t, _)| t == to) {
                return p;
            }
        }
        self.drop_probability
    }

    /// `true` iff any node has a scheduled restart.
    pub fn has_restarts(&self) -> bool {
        self.restart_at.iter().any(|&t| t != SimTime::MAX)
    }

    /// Iterator over `(node, restart time)` pairs, ascending by node id.
    pub fn restarts(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.restart_at
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != SimTime::MAX)
            .map(|(i, &t)| (NodeId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let plan = FaultPlan::with_drop_probability(0.1).crash(NodeId(3), 50);
        assert_eq!(plan.drop_probability, 0.1);
        assert_eq!(plan.crash_time(NodeId(3)), Some(50));
        assert_eq!(plan.crash_time(NodeId(4)), None);
        assert!(!plan.is_none());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_probability() {
        FaultPlan::with_drop_probability(1.5);
    }

    #[test]
    fn empty_plan_is_none_and_new_classes_are_not() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::none().duplicate(0.1).is_none());
        assert!(!FaultPlan::none().reorder(0.1).is_none());
        assert!(!FaultPlan::none().link_loss(NodeId(0), NodeId(1), 0.5).is_none());
        assert!(!FaultPlan::none().partition(vec![NodeId(0)], 5, 10).is_none());
        assert!(!FaultPlan::none()
            .crash(NodeId(0), 5)
            .restart(NodeId(0), 10)
            .is_none());
    }

    #[test]
    fn validate_probability_bounds() {
        let mut plan = FaultPlan::none();
        plan.drop_probability = -0.2;
        assert!(plan.validate().unwrap_err().contains("out of [0,1]"));
        let mut plan = FaultPlan::none();
        plan.duplicate_probability = 1.5;
        assert!(plan.validate().unwrap_err().contains("out of [0,1]"));
        let mut plan = FaultPlan::none();
        plan.reorder_probability = f64::NAN;
        assert!(plan.validate().unwrap_err().contains("out of [0,1]"));
        let plan = FaultPlan::none().link_loss(NodeId(0), NodeId(1), 2.0);
        assert!(plan.validate().unwrap_err().contains("link loss"));
    }

    #[test]
    fn validate_rejects_duplicate_crashes() {
        let plan = FaultPlan::none().crash(NodeId(2), 10).crash(NodeId(2), 20);
        let err = plan.validate().unwrap_err();
        assert!(err.contains("duplicate crash entry for node 2"), "{err}");
    }

    #[test]
    fn validate_restart_rules() {
        // Restart without a crash is meaningless.
        let plan = FaultPlan::none().restart(NodeId(1), 10);
        assert!(plan.validate().unwrap_err().contains("without a matching crash"));
        // Restart must be strictly after the crash.
        let plan = FaultPlan::none().crash(NodeId(1), 10).restart(NodeId(1), 10);
        assert!(plan.validate().unwrap_err().contains("not after its crash"));
        // Well-formed crash-restart passes.
        let plan = FaultPlan::none().crash(NodeId(1), 10).restart(NodeId(1), 30);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn validate_partitions_and_links() {
        let plan = FaultPlan::none().partition(vec![], 5, 10);
        assert!(plan.validate().unwrap_err().contains("empty side"));
        let plan = FaultPlan::none().partition(vec![NodeId(0)], 10, 10);
        assert!(plan.validate().unwrap_err().contains("not after start"));
        let plan = FaultPlan::none()
            .link_loss(NodeId(0), NodeId(1), 0.5)
            .link_loss(NodeId(0), NodeId(1), 0.7);
        assert!(plan.validate().unwrap_err().contains("duplicate link loss"));
    }

    #[test]
    fn json_round_trip_all_classes() {
        let plan = FaultPlan::with_drop_probability(0.125)
            .duplicate(0.25)
            .reorder(0.0625)
            .crash(NodeId(3), 50)
            .crash(NodeId(5), 70)
            .restart(NodeId(3), 90)
            .link_loss(NodeId(1), NodeId(2), 0.5)
            .partition(vec![NodeId(0), NodeId(1)], 10, 40);
        let json = plan.to_json();
        let parsed = FaultPlan::parse(&json).expect("round trip parses");
        assert_eq!(parsed, plan);
        // Canonical: re-rendering parses back to identical bytes.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn json_round_trip_empty_plan() {
        let plan = FaultPlan::none();
        let parsed = FaultPlan::parse(&plan.to_json()).expect("parses");
        assert!(parsed.is_none());
        assert_eq!(parsed, plan);
    }

    #[test]
    fn parse_rejects_garbage_and_invalid_plans() {
        assert!(FaultPlan::parse("not json").is_err());
        assert!(FaultPlan::parse("{\"nope\":1}").is_err());
        // Syntactically fine but semantically invalid: validation runs.
        let bad = FaultPlan::none().crash(NodeId(1), 5).crash(NodeId(1), 9);
        assert!(FaultPlan::parse(&bad.to_json())
            .unwrap_err()
            .contains("duplicate crash entry"));
        // Trailing garbage is rejected.
        let mut json = FaultPlan::none().to_json();
        json.push('x');
        assert!(FaultPlan::parse(&json).unwrap_err().contains("trailing"));
    }

    #[test]
    fn parse_rejects_negative_and_fractional_entries() {
        // Read through `f64` and cast, this used to become `(n0, 5)`.
        let err = FaultPlan::parse("{\"crashes\":[[-1,5.7]]}").unwrap_err();
        assert!(err.contains("crashes: expected a non-negative integer"), "{err}");
        let err = FaultPlan::parse("{\"crashes\":[[1,5.7]]}").unwrap_err();
        assert!(err.contains("crashes: expected a non-negative integer"), "{err}");
        let err = FaultPlan::parse("{\"partitions\":[{\"side\":[4294967296],\"start\":1,\"heal\":2}]}")
            .unwrap_err();
        assert!(err.contains("out of range for u32"), "{err}");
        let plan = FaultPlan::parse("{\"crashes\":[[1,18446744073709551615]]}").expect("u64 time");
        assert_eq!(plan.crashes, vec![(NodeId(1), u64::MAX)]);
    }

    #[test]
    fn compiled_lookup_is_dense_and_correct() {
        let plan = FaultPlan::with_drop_probability(0.1)
            .crash(NodeId(2), 50)
            .restart(NodeId(2), 80)
            .link_loss(NodeId(0), NodeId(1), 0.9)
            .partition(vec![NodeId(0), NodeId(1)], 10, 40);
        let c = CompiledFaults::compile(&plan, 4).expect("compiles");
        assert_eq!(c.crash_time(NodeId(2)), Some(50));
        assert_eq!(c.crash_time(NodeId(0)), None);
        assert_eq!(c.restart_time(NodeId(2)), Some(80));
        assert!(!c.down_at(NodeId(2), 49));
        assert!(c.down_at(NodeId(2), 50));
        assert!(c.down_at(NodeId(2), 79));
        assert!(!c.down_at(NodeId(2), 80)); // restarted
        // Partition cuts only across the sides and only while active.
        assert!(c.cut_at(NodeId(0), NodeId(2), 10));
        assert!(c.cut_at(NodeId(2), NodeId(1), 39));
        assert!(!c.cut_at(NodeId(0), NodeId(1), 20)); // same side
        assert!(!c.cut_at(NodeId(2), NodeId(3), 20)); // same side
        assert!(!c.cut_at(NodeId(0), NodeId(2), 40)); // healed
        assert!(!c.cut_at(NodeId(0), NodeId(2), 9)); // not yet
        // Link loss overrides the global probability, one direction only.
        assert_eq!(c.loss(NodeId(0), NodeId(1)), 0.9);
        assert_eq!(c.loss(NodeId(1), NodeId(0)), 0.1);
        assert_eq!(c.loss(NodeId(2), NodeId(3)), 0.1);
        assert!(c.has_restarts());
        assert_eq!(c.restarts().collect::<Vec<_>>(), vec![(NodeId(2), 80)]);
    }

    #[test]
    fn compile_rejects_out_of_range_nodes() {
        let plan = FaultPlan::none().crash(NodeId(7), 5);
        let err = CompiledFaults::compile(&plan, 4).unwrap_err();
        assert!(err.contains("names node 7"), "{err}");
    }
}
