//! Happens-before analysis over span-annotated traces.
//!
//! The engines stamp every in-flight message with a [`SpanId`] and the span
//! of the delivery whose handler emitted it (its *causal parent*; sends from
//! `on_start` are roots, and sends from a timer callback inherit the parent
//! that armed the timer). Because each span has at most one parent, the
//! happens-before relation of one run is a **forest**: chains of
//! PROP→REJ→re-PROP propagation, exactly the "communication cycles" object
//! of the paper's Lemma 5.
//!
//! [`CausalDag`] reconstructs that forest from an [`EventLog`] (or a parsed
//! trace file) and offers:
//!
//! * [`CausalDag::verify`] — an **empirical Lemma 5 certificate**: checks
//!   that every parent exists, was delivered no later than its child was
//!   sent, and that no parent chain cycles. Live traces always pass (span
//!   ids are assigned monotonically, so a child's id exceeds its parent's);
//!   a tampered or corrupted trace yields structured
//!   [`CausalViolation`]s — never a panic — which `owp-metrics`' auditor
//!   converts into its violation stream.
//! * [`CausalDag::critical_path`] — the causal chain that finished last,
//!   with per-hop latency attribution split into link flight time and
//!   handler/queue wait, answering *why* a run took as long as it did.
//! * [`CausalDag::edge_lifecycles`] — per node-pair first-PROP → final
//!   lock/reject/unresolved accounting.
//! * [`CausalDag::kind_fanout`] — how many child messages of each kind
//!   every parent kind caused (PROP→REJ, REJ→PROP, ...).
//! * [`CausalDag::to_dot`] — Graphviz export of selected chains.

use crate::event::{MessageKind, SpanId, TelemetryEvent};
use crate::recorder::EventLog;
use owp_graph::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Terminal state of one span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Sent but neither delivered, dropped, nor dead-lettered in the trace.
    InFlight,
    /// Delivered to the destination handler.
    Delivered,
    /// Dropped by fault injection.
    Dropped,
    /// Discarded at a crashed destination.
    DeadLettered,
}

/// Everything the trace records about one span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanInfo {
    /// The span's id.
    pub span: SpanId,
    /// Causal parent (the delivery whose handler sent this), if any.
    pub parent: Option<SpanId>,
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Message class.
    pub kind: MessageKind,
    /// Send time (ticks / rounds).
    pub sent: u64,
    /// Delivery time, if the span was delivered.
    pub delivered: Option<u64>,
    /// Terminal state.
    pub outcome: SpanOutcome,
}

impl SpanInfo {
    /// When the span stopped mattering: delivery time if delivered, send
    /// time otherwise.
    pub fn completion(&self) -> u64 {
        self.delivered.unwrap_or(self.sent)
    }
}

/// Classes of causal-consistency violation a trace can exhibit. A live
/// engine can produce none of these; they certify trace integrity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalViolationKind {
    /// Two `sent` records share a span id.
    DuplicateSpan,
    /// A lifecycle event (`delivered`/...) names an unknown span.
    UnknownSpan,
    /// A parent reference names a span with no `sent` record.
    UnknownParent,
    /// A span claims itself as parent.
    SelfParent,
    /// A parent chain returns to a span already on it — the communication
    /// cycle Lemma 5 proves impossible.
    CycleDetected,
    /// A child was sent before its parent was delivered (or the parent was
    /// never delivered at all, so its handler cannot have run).
    TemporalInversion,
}

impl CausalViolationKind {
    /// Short stable tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            CausalViolationKind::DuplicateSpan => "duplicate_span",
            CausalViolationKind::UnknownSpan => "unknown_span",
            CausalViolationKind::UnknownParent => "unknown_parent",
            CausalViolationKind::SelfParent => "self_parent",
            CausalViolationKind::CycleDetected => "cycle_detected",
            CausalViolationKind::TemporalInversion => "temporal_inversion",
        }
    }
}

/// One structured causal-consistency violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalViolation {
    /// What class of inconsistency.
    pub kind: CausalViolationKind,
    /// The span the violation is anchored to.
    pub span: SpanId,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for CausalViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {}: {}", self.kind.tag(), self.span, self.detail)
    }
}

/// One hop of a critical path, with its latency split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CriticalHop {
    /// The span of this hop.
    pub span: SpanId,
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Message class.
    pub kind: MessageKind,
    /// Send time.
    pub sent: u64,
    /// Delivery time, if delivered.
    pub delivered: Option<u64>,
    /// Ticks between the parent's delivery and this send (handler/queue
    /// wait; 0 for roots).
    pub wait: u64,
    /// Ticks in flight (delivery − send; 0 if never delivered).
    pub flight: u64,
}

/// A root-to-leaf causal chain, root first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// The chain's hops, root first.
    pub hops: Vec<CriticalHop>,
    /// Completion time of the final hop.
    pub end_time: u64,
}

impl CriticalPath {
    /// Number of hops (messages) on the chain.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// `true` iff the path has no hops (empty trace).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Total attributed latency: Σ (wait + flight) over the hops.
    pub fn total_latency(&self) -> u64 {
        self.hops.iter().map(|h| h.wait + h.flight).sum()
    }
}

/// Final state of one node pair's negotiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOutcome {
    /// Mutual PROPs delivered: the edge locked (Algorithm 1 lines 12–14).
    Locked,
    /// A REJ was delivered on the pair.
    Rejected,
    /// Neither: messages lost, in flight, or one-sided.
    Unresolved,
}

impl EdgeOutcome {
    /// Short stable label.
    pub fn label(self) -> &'static str {
        match self {
            EdgeOutcome::Locked => "locked",
            EdgeOutcome::Rejected => "rejected",
            EdgeOutcome::Unresolved => "unresolved",
        }
    }
}

/// First-PROP → resolution accounting for one node pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeLifecycle {
    /// Smaller endpoint.
    pub a: NodeId,
    /// Larger endpoint.
    pub b: NodeId,
    /// Send time of the pair's first PROP.
    pub first_prop: u64,
    /// Time the outcome was decided (first delivered REJ, or the delivery
    /// completing the mutual PROP pair); `None` while unresolved.
    pub resolved_at: Option<u64>,
    /// The outcome.
    pub outcome: EdgeOutcome,
    /// Total spans exchanged on the pair (both directions, all kinds).
    pub spans: u32,
}

/// The happens-before forest of one run. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct CausalDag {
    spans: Vec<SpanInfo>,
    index: BTreeMap<u64, usize>,
    build_violations: Vec<CausalViolation>,
}

impl CausalDag {
    /// Reconstructs the DAG from a recorded log. Never panics: structural
    /// problems (duplicate ids, lifecycle events naming unknown spans) are
    /// kept and surface through [`CausalDag::verify`].
    pub fn from_log(log: &EventLog) -> CausalDag {
        let mut dag = CausalDag::default();
        for ev in log.events() {
            match *ev {
                TelemetryEvent::Sent { time, span, parent, from, to, kind } => {
                    if dag.index.contains_key(&span.0) {
                        dag.build_violations.push(CausalViolation {
                            kind: CausalViolationKind::DuplicateSpan,
                            span,
                            detail: format!("second sent record at time {time}"),
                        });
                        continue;
                    }
                    dag.index.insert(span.0, dag.spans.len());
                    dag.spans.push(SpanInfo {
                        span,
                        parent,
                        from,
                        to,
                        kind,
                        sent: time,
                        delivered: None,
                        outcome: SpanOutcome::InFlight,
                    });
                }
                TelemetryEvent::Delivered { time, span, .. } => {
                    dag.resolve(span, time, SpanOutcome::Delivered, true)
                }
                TelemetryEvent::Dropped { time, span, .. } => {
                    dag.resolve(span, time, SpanOutcome::Dropped, false)
                }
                TelemetryEvent::DeadLettered { time, span, .. } => {
                    dag.resolve(span, time, SpanOutcome::DeadLettered, false)
                }
                _ => {}
            }
        }
        dag
    }

    fn resolve(&mut self, span: SpanId, time: u64, outcome: SpanOutcome, delivered: bool) {
        match self.index.get(&span.0) {
            Some(&i) => {
                let info = &mut self.spans[i];
                info.outcome = outcome;
                if delivered {
                    info.delivered = Some(time);
                }
            }
            None => self.build_violations.push(CausalViolation {
                kind: CausalViolationKind::UnknownSpan,
                span,
                detail: format!("lifecycle event at time {time} for unknown span"),
            }),
        }
    }

    /// All spans, in send order.
    pub fn spans(&self) -> &[SpanInfo] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` iff the trace recorded no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks a span up by id.
    pub fn span(&self, id: SpanId) -> Option<&SpanInfo> {
        self.index.get(&id.0).map(|&i| &self.spans[i])
    }

    /// Number of root spans (sends with no causal parent).
    pub fn roots(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }

    /// The empirical Lemma 5 certificate: an empty result certifies the
    /// trace's happens-before relation is a well-formed acyclic forest
    /// consistent with the clocks; otherwise every inconsistency is
    /// reported as a structured violation.
    pub fn verify(&self) -> Vec<CausalViolation> {
        let mut out = self.build_violations.clone();
        // Parent existence, self-loops, temporal consistency.
        for s in &self.spans {
            let Some(p) = s.parent else { continue };
            if p == s.span {
                out.push(CausalViolation {
                    kind: CausalViolationKind::SelfParent,
                    span: s.span,
                    detail: "span lists itself as causal parent".into(),
                });
                continue;
            }
            let Some(pi) = self.span(p) else {
                out.push(CausalViolation {
                    kind: CausalViolationKind::UnknownParent,
                    span: s.span,
                    detail: format!("parent {p} has no sent record"),
                });
                continue;
            };
            match pi.delivered {
                None => out.push(CausalViolation {
                    kind: CausalViolationKind::TemporalInversion,
                    span: s.span,
                    detail: format!("parent {p} was never delivered, yet its handler sent this"),
                }),
                Some(pd) if pd > s.sent => out.push(CausalViolation {
                    kind: CausalViolationKind::TemporalInversion,
                    span: s.span,
                    detail: format!("sent at {} before parent {p} was delivered at {pd}", s.sent),
                }),
                Some(_) => {}
            }
        }
        // Parent-chain cycle detection with three-color marking:
        // 0 = unvisited, 1 = on the current walk, 2 = proven acyclic,
        // 3 = on (or leading into) a cycle.
        let mut color = vec![0u8; self.spans.len()];
        for start in 0..self.spans.len() {
            if color[start] != 0 {
                continue;
            }
            let mut walk = Vec::new();
            let mut cur = Some(start);
            let verdict = loop {
                let Some(i) = cur else { break 2 };
                match color[i] {
                    1 => {
                        // `i` is on the current walk: a genuine new cycle.
                        let anchor = self.spans[i].span;
                        let cycle: Vec<String> = walk
                            .iter()
                            .skip_while(|&&w| w != i)
                            .map(|&w: &usize| self.spans[w].span.to_string())
                            .collect();
                        out.push(CausalViolation {
                            kind: CausalViolationKind::CycleDetected,
                            span: anchor,
                            detail: format!("parent chain cycles: {}", cycle.join(" <- ")),
                        });
                        break 3;
                    }
                    2 => break 2,
                    3 => break 3,
                    _ => {
                        color[i] = 1;
                        walk.push(i);
                        cur = self.spans[i]
                            .parent
                            .and_then(|p| self.index.get(&p.0).copied());
                    }
                }
            };
            for w in walk {
                color[w] = verdict;
            }
        }
        out
    }

    /// `true` iff [`CausalDag::verify`] finds nothing.
    pub fn is_certified(&self) -> bool {
        self.verify().is_empty()
    }

    /// Walks the parent chain from `leaf` towards a root, building the hop
    /// list root-first. Bounded by the span count so cyclic (tampered)
    /// traces terminate instead of spinning.
    fn chain_from(&self, leaf: usize) -> CriticalPath {
        let mut rev = Vec::new();
        let mut cur = Some(leaf);
        while let Some(i) = cur {
            if rev.len() > self.spans.len() {
                break; // cycle guard; verify() reports the actual cycle
            }
            rev.push(i);
            cur = self.spans[i].parent.and_then(|p| self.index.get(&p.0).copied());
        }
        rev.reverse();
        let mut hops = Vec::with_capacity(rev.len());
        let mut prev_delivered: Option<u64> = None;
        for &i in &rev {
            let s = &self.spans[i];
            let wait = prev_delivered.map_or(0, |pd| s.sent.saturating_sub(pd));
            let flight = s.delivered.map_or(0, |d| d.saturating_sub(s.sent));
            hops.push(CriticalHop {
                span: s.span,
                from: s.from,
                to: s.to,
                kind: s.kind,
                sent: s.sent,
                delivered: s.delivered,
                wait,
                flight,
            });
            prev_delivered = s.delivered.or(prev_delivered);
        }
        let end_time = rev.last().map_or(0, |&i| self.spans[i].completion());
        CriticalPath { hops, end_time }
    }

    /// Deterministic ranking of chain endpoints: latest completion first,
    /// then longer chains, then smaller span id.
    fn ranked_leaves(&self) -> Vec<usize> {
        let depths = self.depths();
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by(|&a, &b| {
            self.spans[b]
                .completion()
                .cmp(&self.spans[a].completion())
                .then(depths[b].cmp(&depths[a]))
                .then(self.spans[a].span.cmp(&self.spans[b].span))
        });
        order
    }

    /// Per-span chain depth (root = 1), memoized, cycle-safe (spans on a
    /// cycle report the bounded walk length).
    fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.spans.len()];
        for start in 0..self.spans.len() {
            if depth[start] != 0 {
                continue;
            }
            let mut walk = vec![start];
            let mut base = 0u32;
            loop {
                let i = *walk.last().expect("walk non-empty");
                let parent = self.spans[i].parent.and_then(|p| self.index.get(&p.0).copied());
                match parent {
                    Some(p) if depth[p] != 0 => {
                        base = depth[p];
                        break;
                    }
                    Some(p) if walk.contains(&p) => break, // cycle: cut it off
                    Some(p) if walk.len() <= self.spans.len() => walk.push(p),
                    _ => break,
                }
            }
            for (k, &i) in walk.iter().rev().enumerate() {
                depth[i] = base + k as u32 + 1;
            }
        }
        depth
    }

    /// The critical path: the causal chain ending at the span that
    /// completed last (ties broken towards longer chains, then smaller
    /// span ids, so seeded runs reproduce exactly).
    pub fn critical_path(&self) -> CriticalPath {
        match self.ranked_leaves().first() {
            Some(&leaf) => self.chain_from(leaf),
            None => CriticalPath::default(),
        }
    }

    /// The `k` highest-ranked causal chains with pairwise-distinct
    /// endpoints (successive paths skip endpoints already covered by an
    /// earlier path, so the list shows distinct serialization tails).
    pub fn top_critical_paths(&self, k: usize) -> Vec<CriticalPath> {
        let mut covered = vec![false; self.spans.len()];
        let mut out = Vec::new();
        for leaf in self.ranked_leaves() {
            if out.len() == k {
                break;
            }
            if covered[leaf] {
                continue;
            }
            let path = self.chain_from(leaf);
            for hop in &path.hops {
                if let Some(&i) = self.index.get(&hop.span.0) {
                    covered[i] = true;
                }
            }
            out.push(path);
        }
        out
    }

    /// Length (hops) of the critical path — the `lid_critical_path_len`
    /// gauge's value.
    pub fn critical_path_len(&self) -> usize {
        self.critical_path().len()
    }

    /// Maximum chain depth over all spans (0 for an empty trace). Equals
    /// `critical_path().len()` when the latest-completing span also ends
    /// the deepest chain, but can exceed it under non-unit latencies.
    pub fn max_depth(&self) -> u32 {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Parent-kind → child-kind causation counts, keyed by kind label.
    pub fn kind_fanout(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let Some(p) = s.parent.and_then(|p| self.span(p)) else { continue };
            *out.entry((p.kind.label(), s.kind.label())).or_insert(0) += 1;
        }
        out
    }

    /// Largest number of children any single span caused (0 if no span has
    /// children).
    pub fn max_fanout(&self) -> u32 {
        let mut children: BTreeMap<u64, u32> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *children.entry(p.0).or_insert(0) += 1;
            }
        }
        children.into_values().max().unwrap_or(0)
    }

    /// Per node-pair lifecycle: first PROP send → final lock / reject /
    /// unresolved, derived purely from span records (undirected pairs,
    /// smaller endpoint first; sorted by (a, b)).
    pub fn edge_lifecycles(&self) -> Vec<EdgeLifecycle> {
        struct Acc {
            first_prop: Option<u64>,
            prop_delivered: [Option<u64>; 2], // [a→b, b→a] first delivered PROP
            rej_delivered: Option<u64>,
            spans: u32,
        }
        let mut acc: BTreeMap<(u32, u32), Acc> = BTreeMap::new();
        for s in &self.spans {
            let (a, b) = if s.from.0 <= s.to.0 { (s.from.0, s.to.0) } else { (s.to.0, s.from.0) };
            let e = acc.entry((a, b)).or_insert(Acc {
                first_prop: None,
                prop_delivered: [None, None],
                rej_delivered: None,
                spans: 0,
            });
            e.spans += 1;
            match s.kind {
                MessageKind::Prop => {
                    e.first_prop = Some(e.first_prop.map_or(s.sent, |t: u64| t.min(s.sent)));
                    if let Some(d) = s.delivered {
                        let dir = usize::from(s.from.0 > s.to.0);
                        e.prop_delivered[dir] =
                            Some(e.prop_delivered[dir].map_or(d, |t: u64| t.min(d)));
                    }
                }
                MessageKind::Rej => {
                    if let Some(d) = s.delivered {
                        e.rej_delivered =
                            Some(e.rej_delivered.map_or(d, |t: u64| t.min(d)));
                    }
                }
                MessageKind::Ack => {}
            }
        }
        acc.into_iter()
            .filter(|(_, e)| e.first_prop.is_some())
            .map(|((a, b), e)| {
                let (outcome, resolved_at) = match (e.rej_delivered, e.prop_delivered) {
                    (Some(r), _) => (EdgeOutcome::Rejected, Some(r)),
                    (None, [Some(x), Some(y)]) => (EdgeOutcome::Locked, Some(x.max(y))),
                    _ => (EdgeOutcome::Unresolved, None),
                };
                EdgeLifecycle {
                    a: NodeId(a),
                    b: NodeId(b),
                    first_prop: e.first_prop.expect("filtered above"),
                    resolved_at,
                    outcome,
                    spans: e.spans,
                }
            })
            .collect()
    }

    /// Graphviz DOT rendering of the given chains (typically
    /// [`CausalDag::top_critical_paths`]): one node per span, one edge per
    /// parent link, deduplicated across overlapping paths.
    pub fn to_dot(&self, paths: &[CriticalPath]) -> String {
        let mut nodes: BTreeMap<u64, String> = BTreeMap::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        for path in paths {
            for pair in path.hops.windows(2) {
                edges.push((pair[0].span.0, pair[1].span.0));
            }
            for hop in &path.hops {
                nodes.entry(hop.span.0).or_insert_with(|| {
                    let when = match hop.delivered {
                        Some(d) => format!("@{}..{d}", hop.sent),
                        None => format!("@{}..?", hop.sent),
                    };
                    format!("{} {}->{} {when}", hop.kind.label(), hop.from.0, hop.to.0)
                });
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut out = String::from("digraph causal {\n  rankdir=LR;\n  node [shape=box];\n");
        for (id, label) in &nodes {
            let _ = writeln!(out, "  s{id} [label=\"s{id}\\n{label}\"];");
        }
        for (a, b) in &edges {
            let _ = writeln!(out, "  s{a} -> s{b};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(time: u64, span: u64, parent: Option<u64>, from: u32, to: u32, kind: MessageKind) -> TelemetryEvent {
        TelemetryEvent::Sent {
            time,
            span: SpanId(span),
            parent: parent.map(SpanId),
            from: NodeId(from),
            to: NodeId(to),
            kind,
        }
    }

    /// The analysis keys deliveries by span alone; the endpoints and kind
    /// are placeholders.
    fn delivered(time: u64, span: u64) -> TelemetryEvent {
        TelemetryEvent::Delivered {
            time,
            span: SpanId(span),
            from: NodeId(0),
            to: NodeId(0),
            kind: MessageKind::Prop,
        }
    }

    /// 0 --PROP--> 1 (s0), 1 --REJ--> 0 (s1, parent s0),
    /// 0 --PROP--> 2 (s2, parent s1), 2 --PROP--> 0 (s3, root) locks {0,2}.
    fn chain_log() -> EventLog {
        let mut log = EventLog::enabled();
        log.record(sent(0, 0, None, 0, 1, MessageKind::Prop));
        log.record(sent(0, 1, None, 2, 0, MessageKind::Prop));
        log.record(delivered(1, 0));
        log.record(sent(1, 2, Some(0), 1, 0, MessageKind::Rej));
        log.record(delivered(1, 1));
        log.record(delivered(3, 2));
        log.record(sent(3, 3, Some(2), 0, 2, MessageKind::Prop));
        log.record(delivered(5, 3));
        log
    }

    #[test]
    fn builds_and_certifies_clean_chain() {
        let dag = CausalDag::from_log(&chain_log());
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.roots(), 2);
        assert!(dag.is_certified());
        assert_eq!(dag.max_depth(), 3);
        assert_eq!(dag.max_fanout(), 1);
        let fan = dag.kind_fanout();
        assert_eq!(fan.get(&("PROP", "REJ")), Some(&1));
        assert_eq!(fan.get(&("REJ", "PROP")), Some(&1));
    }

    #[test]
    fn critical_path_attributes_latency() {
        let dag = CausalDag::from_log(&chain_log());
        let path = dag.critical_path();
        assert_eq!(path.len(), 3);
        assert_eq!(path.end_time, 5);
        let spans: Vec<u64> = path.hops.iter().map(|h| h.span.0).collect();
        assert_eq!(spans, vec![0, 2, 3]);
        // s0: root, wait 0, flight 1; s2: sent at 1 right after s0's
        // delivery, flight 2; s3: sent at 3 on s2's delivery, flight 2.
        assert_eq!(path.hops[0].wait, 0);
        assert_eq!(path.hops[0].flight, 1);
        assert_eq!(path.hops[1].wait, 0);
        assert_eq!(path.hops[1].flight, 2);
        assert_eq!(path.hops[2].flight, 2);
        assert_eq!(path.total_latency(), 5);
        assert_eq!(dag.critical_path_len(), 3);
        // Top-2 returns the main chain plus the disjoint root s1.
        let top = dag.top_critical_paths(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].len(), 3);
        assert_eq!(top[1].hops[0].span, SpanId(1));
    }

    #[test]
    fn edge_lifecycles_classify_outcomes() {
        let dag = CausalDag::from_log(&chain_log());
        let lives = dag.edge_lifecycles();
        assert_eq!(lives.len(), 2);
        // {0,1}: PROP answered by REJ.
        assert_eq!((lives[0].a, lives[0].b), (NodeId(0), NodeId(1)));
        assert_eq!(lives[0].outcome, EdgeOutcome::Rejected);
        assert_eq!(lives[0].resolved_at, Some(3));
        // {0,2}: mutual PROPs delivered -> locked at the later delivery.
        assert_eq!((lives[1].a, lives[1].b), (NodeId(0), NodeId(2)));
        assert_eq!(lives[1].outcome, EdgeOutcome::Locked);
        assert_eq!(lives[1].first_prop, 0);
        assert_eq!(lives[1].resolved_at, Some(5));
        assert_eq!(lives[1].spans, 2);
    }

    #[test]
    fn tampered_cycle_is_a_violation_not_a_panic() {
        let mut log = EventLog::enabled();
        // s5 and s6 claim each other as parents — impossible live, because
        // ids are assigned monotonically at send time.
        log.record(sent(0, 5, Some(6), 0, 1, MessageKind::Prop));
        log.record(delivered(1, 5));
        log.record(sent(1, 6, Some(5), 1, 0, MessageKind::Rej));
        log.record(delivered(2, 6));
        let dag = CausalDag::from_log(&log);
        let violations = dag.verify();
        assert!(violations.iter().any(|v| v.kind == CausalViolationKind::CycleDetected));
        // Temporal inversion too: s5 was sent at 0, its parent s6 delivered at 2.
        assert!(violations.iter().any(|v| v.kind == CausalViolationKind::TemporalInversion));
        assert!(!dag.is_certified());
        // Analyses stay total on the tampered trace.
        let _ = dag.critical_path();
        let _ = dag.max_depth();
    }

    #[test]
    fn structural_violations_are_reported() {
        let mut log = EventLog::enabled();
        log.record(sent(0, 1, Some(1), 0, 1, MessageKind::Prop)); // self-parent
        log.record(sent(0, 1, None, 0, 1, MessageKind::Prop)); // duplicate id
        log.record(sent(0, 2, Some(99), 0, 1, MessageKind::Prop)); // unknown parent
        log.record(delivered(1, 42)); // unknown span
        let dag = CausalDag::from_log(&log);
        let kinds: Vec<CausalViolationKind> = dag.verify().into_iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&CausalViolationKind::SelfParent));
        assert!(kinds.contains(&CausalViolationKind::DuplicateSpan));
        assert!(kinds.contains(&CausalViolationKind::UnknownParent));
        assert!(kinds.contains(&CausalViolationKind::UnknownSpan));
    }

    #[test]
    fn undelivered_parent_is_temporal_inversion() {
        let mut log = EventLog::enabled();
        log.record(sent(0, 0, None, 0, 1, MessageKind::Prop));
        // s0 never delivered, yet s1 claims it as parent.
        log.record(sent(1, 1, Some(0), 1, 0, MessageKind::Rej));
        let dag = CausalDag::from_log(&log);
        let violations = dag.verify();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, CausalViolationKind::TemporalInversion);
    }

    #[test]
    fn dot_export_renders_chains() {
        let dag = CausalDag::from_log(&chain_log());
        let dot = dag.to_dot(&dag.top_critical_paths(2));
        assert!(dot.starts_with("digraph causal {"));
        assert!(dot.contains("s0 -> s2;"));
        assert!(dot.contains("s2 -> s3;"));
        assert!(dot.contains("PROP 0->1"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn empty_log_yields_empty_dag() {
        let dag = CausalDag::from_log(&EventLog::disabled());
        assert!(dag.is_empty());
        assert!(dag.is_certified());
        assert!(dag.critical_path().is_empty());
        assert_eq!(dag.critical_path_len(), 0);
        assert_eq!(dag.max_depth(), 0);
        assert!(dag.edge_lifecycles().is_empty());
        assert!(dag.top_critical_paths(3).is_empty());
    }
}
