//! [`MetricsRecorder`] — aggregates a simulator event stream into registry
//! metrics instead of storing it.
//!
//! Replay a recorded [`owp_telemetry::EventLog`] — such as a traced LID
//! run's `LidResult::log` — through [`MetricsRecorder::consume`] (or feed
//! events one at a time to [`MetricsRecorder::record`]), and the registry
//! fills with:
//!
//! | metric | type | source |
//! |---|---|---|
//! | `messages_sent_total` (+ `_prop/_rej/_ack`) | counter | `Sent` |
//! | `messages_delivered_total` | counter | `Delivered` |
//! | `messages_dropped_total` | counter | `Dropped` |
//! | `messages_dead_lettered_total` | counter | `DeadLettered` |
//! | `timers_fired_total` | counter | `TimerFired` |
//! | `message_latency_ticks` | histogram | `Sent`→`Delivered` of one span |
//! | `prop_accept_latency_ticks` | histogram | `PropSent`→`EdgeLocked` per node |
//! | `node_termination_time_ticks` | histogram | `NodeTerminated` |
//! | `retransmits_total` | counter | `Retransmit` |
//!
//! The engine's batch metrics come from its `DeltaReport`s instead, through
//! [`crate::Auditor::observe_delta`].
//!
//! Latency pairing keys each send by its span id: `Sent` records the send
//! time, and the span's `Delivered`, `Dropped` or `DeadLettered` record
//! takes it out again, so reordered, duplicated and lost messages pair
//! exactly. Unmatched sends (dropped, dead lettered, still in flight)
//! simply never produce a latency sample.

use crate::registry::{Counter, Histogram, MetricsRegistry};
use owp_telemetry::{MessageKind, NodeEvent, SpanId, TelemetryEvent};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Aggregating recorder over a [`MetricsRegistry`].
///
/// The handles are cloned out of the registry at construction, so recording
/// never touches the registry mutex; the pairing state for latencies is
/// recorder-local.
#[derive(Debug)]
pub struct MetricsRecorder {
    sent_total: Counter,
    sent_kind: [Counter; MessageKind::ALL.len()],
    delivered_total: Counter,
    dropped_total: Counter,
    dead_lettered_total: Counter,
    timers_fired_total: Counter,
    retransmits_total: Counter,
    message_latency: Histogram,
    prop_accept_latency: Histogram,
    node_termination_time: Histogram,
    /// Send times of the spans not yet delivered, dropped or dead-lettered.
    in_flight: HashMap<SpanId, u64>,
    /// Outstanding proposals awaiting a lock, keyed (proposer, peer).
    pending_props: BTreeMap<(u32, u32), VecDeque<u64>>,
}

impl MetricsRecorder {
    /// Registers this recorder's metric families in `reg` and returns the
    /// recorder. Multiple recorders over the same registry share families.
    pub fn new(reg: &MetricsRegistry) -> Self {
        MetricsRecorder {
            sent_total: reg.counter("messages_sent_total"),
            sent_kind: [
                reg.counter("messages_sent_prop"),
                reg.counter("messages_sent_rej"),
                reg.counter("messages_sent_ack"),
            ],
            delivered_total: reg.counter("messages_delivered_total"),
            dropped_total: reg.counter("messages_dropped_total"),
            dead_lettered_total: reg.counter("messages_dead_lettered_total"),
            timers_fired_total: reg.counter("timers_fired_total"),
            retransmits_total: reg.counter("retransmits_total"),
            message_latency: reg.histogram("message_latency_ticks"),
            prop_accept_latency: reg.histogram("prop_accept_latency_ticks"),
            node_termination_time: reg.histogram("node_termination_time_ticks"),
            in_flight: HashMap::new(),
            pending_props: BTreeMap::new(),
        }
    }

    /// Replays every event of an already-captured log through the recorder
    /// (the offline path: aggregate a finished run's trace).
    pub fn consume(&mut self, log: &owp_telemetry::EventLog) {
        for &ev in log.events() {
            self.record(ev);
        }
    }

    /// Aggregates one event into the registry.
    pub fn record(&mut self, ev: TelemetryEvent) {
        match ev {
            TelemetryEvent::Sent { time, span, kind, .. } => {
                self.sent_total.inc();
                self.sent_kind[kind.index()].inc();
                self.in_flight.insert(span, time);
            }
            TelemetryEvent::Delivered { time, span, .. } => {
                self.delivered_total.inc();
                if let Some(sent) = self.in_flight.remove(&span) {
                    self.message_latency.observe(time.saturating_sub(sent));
                }
            }
            TelemetryEvent::Dropped { span, .. } => {
                self.dropped_total.inc();
                self.in_flight.remove(&span);
            }
            TelemetryEvent::DeadLettered { span, .. } => {
                self.dead_lettered_total.inc();
                self.in_flight.remove(&span);
            }
            TelemetryEvent::TimerFired { .. } => self.timers_fired_total.inc(),
            // Restarts are a fault-plan artefact; the chaos campaign counts
            // them per fault class through its own `campaign_*` ledger.
            TelemetryEvent::Restarted { .. } => {}
            TelemetryEvent::Node { time, node, event } => match event {
                NodeEvent::PropSent { to } => {
                    self.pending_props.entry((node.0, to.0)).or_default().push_back(time);
                }
                NodeEvent::EdgeLocked { peer } => {
                    if let Some(proposed) = self
                        .pending_props
                        .get_mut(&(node.0, peer.0))
                        .and_then(VecDeque::pop_front)
                    {
                        self.prop_accept_latency.observe(time.saturating_sub(proposed));
                    }
                }
                NodeEvent::NodeTerminated => self.node_termination_time.observe(time),
                NodeEvent::RejSent { .. } => {}
                NodeEvent::Retransmit { .. } => self.retransmits_total.inc(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owp_graph::NodeId;
    use owp_telemetry::EventLog;

    fn sent(t: u64, span: u64, from: u32, to: u32, kind: MessageKind) -> TelemetryEvent {
        let (span, from, to) = (SpanId(span), NodeId(from), NodeId(to));
        TelemetryEvent::Sent { time: t, span, parent: None, from, to, kind }
    }

    fn delivered(t: u64, span: u64, from: u32, to: u32, kind: MessageKind) -> TelemetryEvent {
        let (span, from, to) = (SpanId(span), NodeId(from), NodeId(to));
        TelemetryEvent::Delivered { time: t, span, from, to, kind }
    }

    #[test]
    fn latency_pairs_each_delivery_with_its_own_send() {
        let reg = MetricsRegistry::new();
        let mut rec = MetricsRecorder::new(&reg);
        // Two sends on one link, one on another; the second send on the
        // first link overtakes the first (a reordering fault).
        rec.record(sent(0, 0, 0, 1, MessageKind::Prop));
        rec.record(sent(2, 1, 0, 1, MessageKind::Prop));
        rec.record(sent(1, 2, 5, 6, MessageKind::Rej));
        rec.record(delivered(3, 1, 0, 1, MessageKind::Prop)); // latency 1
        rec.record(delivered(9, 2, 5, 6, MessageKind::Rej)); // latency 8
        rec.record(delivered(4, 0, 0, 1, MessageKind::Prop)); // latency 4
        let lat = reg.histogram("message_latency_ticks");
        assert_eq!(lat.count(), 3);
        assert_eq!(lat.sum(), 13);
        let want = MetricsRegistry::new().histogram("want");
        for v in [1, 8, 4] {
            want.observe(v);
        }
        assert_eq!(lat.buckets(), want.buckets());
        assert_eq!(reg.counter("messages_sent_total").get(), 3);
        assert_eq!(reg.counter("messages_sent_prop").get(), 2);
        assert_eq!(reg.counter("messages_sent_rej").get(), 1);
        assert_eq!(reg.counter("messages_delivered_total").get(), 3);
    }

    #[test]
    fn drops_retire_their_own_span() {
        let reg = MetricsRegistry::new();
        let mut rec = MetricsRecorder::new(&reg);
        rec.record(sent(0, 0, 0, 1, MessageKind::Prop));
        rec.record(sent(10, 1, 0, 1, MessageKind::Prop));
        // The simulator decides a loss at send time, so the newest send on
        // the link is the lost one: the delivery pairs with the t=0 send.
        rec.record(TelemetryEvent::Dropped {
            time: 10,
            span: SpanId(1),
            from: NodeId(0),
            to: NodeId(1),
            kind: MessageKind::Prop,
        });
        rec.record(delivered(12, 0, 0, 1, MessageKind::Prop));
        let lat = reg.histogram("message_latency_ticks");
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.sum(), 12);
        assert_eq!(reg.counter("messages_dropped_total").get(), 1);
    }

    #[test]
    fn prop_accept_and_termination() {
        let reg = MetricsRegistry::new();
        let mut rec = MetricsRecorder::new(&reg);
        let node = |t, n, event| TelemetryEvent::Node { time: t, node: NodeId(n), event };
        rec.record(node(1, 0, NodeEvent::PropSent { to: NodeId(1) }));
        rec.record(node(5, 0, NodeEvent::EdgeLocked { peer: NodeId(1) }));
        rec.record(node(5, 0, NodeEvent::NodeTerminated));
        rec.record(node(6, 1, NodeEvent::Retransmit { to: NodeId(0) }));
        let h = reg.histogram("prop_accept_latency_ticks");
        assert_eq!((h.count(), h.sum()), (1, 4));
        assert_eq!(reg.histogram("node_termination_time_ticks").sum(), 5);
        assert_eq!(reg.counter("retransmits_total").get(), 1);
    }

    #[test]
    fn consume_replays_a_log() {
        let mut log = EventLog::enabled();
        log.record(sent(0, 0, 0, 1, MessageKind::Prop));
        log.record(delivered(5, 0, 0, 1, MessageKind::Prop));
        log.record(TelemetryEvent::TimerFired { time: 6, node: NodeId(1), tag: 2 });
        log.record(sent(6, 1, 1, 0, MessageKind::Ack));
        let reg = MetricsRegistry::new();
        let mut rec = MetricsRecorder::new(&reg);
        rec.consume(&log);
        assert_eq!(reg.counter("messages_sent_total").get(), 2);
        assert_eq!(reg.counter("messages_sent_ack").get(), 1);
        assert_eq!(reg.histogram("message_latency_ticks").sum(), 5);
        assert_eq!(reg.counter("timers_fired_total").get(), 1);
    }
}
