//! The typed event vocabulary of the telemetry layer.
//!
//! One flat enum covers both execution layers so a single log can hold an
//! interleaved trace of a whole run:
//!
//! * **transport** — what the simnet engines do with messages
//!   (send/deliver/drop/dead-letter, timer firings);
//! * **protocol** — per-node LID state transitions ([`NodeEvent`]),
//!   stamped with node and time by the engine when it drains a callback's
//!   context.

use crate::json;
use owp_graph::NodeId;
use std::fmt::Write as _;

/// Identity of one in-flight message ("span"), unique within a run.
///
/// The engines assign span ids from a monotone per-run counter at *send*
/// time, so a child span's id is always greater than its causal parent's —
/// which is exactly why a live trace can never contain a causal cycle
/// (the empirical face of Lemma 5; see [`crate::causal`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct SpanId(pub u64);

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The closed message vocabulary of Algorithm 1 (LID): the two messages
/// of the paper plus the reliable layer's `ACK`. LID nodes send
/// `MessageKind` itself, statistics index a flat array by
/// [`MessageKind::index`], and a trace line naming any other kind is a
/// parse error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub enum MessageKind {
    /// "I propose we establish a connection" (Algorithm 1 `PROP`).
    Prop,
    /// "I will not connect to you (my quota is filled or better options
    /// won)" (Algorithm 1 `REJ`).
    Rej,
    /// Reliable-LID only: "your proposal is locked on my side" —
    /// semantically a `Prop` for the receiver's state machine, but *never
    /// replied to*, which is what terminates duplicate-confirmation chains
    /// (plain Algorithm 1 never sends this).
    Ack,
}

impl MessageKind {
    /// Every kind, in [`MessageKind::index`] order.
    pub const ALL: [MessageKind; 3] = [MessageKind::Prop, MessageKind::Rej, MessageKind::Ack];

    /// The kind's position in [`MessageKind::ALL`], for flat per-kind arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The trace label (`"PROP"`, `"REJ"`, `"ACK"`).
    #[inline]
    pub const fn label(self) -> &'static str {
        match self {
            MessageKind::Prop => "PROP",
            MessageKind::Rej => "REJ",
            MessageKind::Ack => "ACK",
        }
    }

    /// Inverse of [`MessageKind::label`], for trace parsers.
    ///
    /// # Errors
    /// An error naming the label if it is not one of the three kinds.
    pub fn parse(label: &str) -> Result<MessageKind, String> {
        MessageKind::ALL
            .into_iter()
            .find(|k| k.label() == label)
            .ok_or_else(|| format!("unknown message kind {label:?}"))
    }
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-node protocol state transition, emitted from inside a protocol
/// callback via `Context::emit`. The engine stamps node id and time when it
/// drains the callback, turning each into a [`TelemetryEvent::Node`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum NodeEvent {
    /// The node proposed a connection to `to` (Algorithm 1 lines 3 / 10).
    PropSent {
        /// Proposal receiver.
        to: NodeId,
    },
    /// The node rejected `to` (quota filled, better options won, or the
    /// termination broadcast of lines 15–16).
    RejSent {
        /// Rejection receiver.
        to: NodeId,
    },
    /// A mutual proposal locked the edge to `peer` on this side
    /// (Algorithm 1 lines 12–14).
    EdgeLocked {
        /// The partner at the other end of the locked edge.
        peer: NodeId,
    },
    /// The node's `U` set emptied: it has locally terminated (line 16).
    NodeTerminated,
    /// Reliable-LID only: a retransmission or handshake repair fired.
    Retransmit {
        /// Receiver of the retransmitted message.
        to: NodeId,
    },
}

/// One structured event. `time` is simulated ticks for asynchronous runs
/// and the round number for synchronous runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TelemetryEvent {
    /// A message was handed to the network (before loss). `span` is the
    /// message's causal identity; `parent` is the span of the delivery
    /// (if any) whose handler emitted it, `None` for a root span (a send
    /// from `on_start` or `on_restart`).
    Sent {
        /// Send time.
        time: u64,
        /// The span id of this message.
        span: SpanId,
        /// Span of the causally preceding delivery, `None` for roots.
        parent: Option<SpanId>,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MessageKind,
    },
    /// A message was delivered to its destination's handler.
    Delivered {
        /// Delivery time.
        time: u64,
        /// The delivered span.
        span: SpanId,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MessageKind,
    },
    /// A message was dropped by fault injection.
    Dropped {
        /// Time the drop was decided.
        time: u64,
        /// The dropped span.
        span: SpanId,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MessageKind,
    },
    /// A message was discarded because its destination had crashed.
    DeadLettered {
        /// Time of the discard.
        time: u64,
        /// The discarded span.
        span: SpanId,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MessageKind,
    },
    /// A crashed node came back up (crash-restart fault plans): the engine
    /// is about to run the node's `on_restart` recovery hook. Timers armed
    /// before the crash are dead; sends from the recovery callback are new
    /// root spans.
    Restarted {
        /// Time the node came back up.
        time: u64,
        /// The restarted node.
        node: NodeId,
    },
    /// A local timer fired.
    TimerFired {
        /// Firing time.
        time: u64,
        /// Owner of the timer.
        node: NodeId,
        /// The tag the timer was armed with.
        tag: u64,
    },
    /// A per-node protocol state transition (see [`NodeEvent`]).
    Node {
        /// Time of the callback that emitted the transition.
        time: u64,
        /// The node the transition happened on.
        node: NodeId,
        /// The transition itself.
        event: NodeEvent,
    },
}

impl TelemetryEvent {
    /// The event's time coordinate (ticks, or rounds for synchronous
    /// runs).
    pub fn time(&self) -> u64 {
        match *self {
            TelemetryEvent::Sent { time, .. }
            | TelemetryEvent::Delivered { time, .. }
            | TelemetryEvent::Dropped { time, .. }
            | TelemetryEvent::DeadLettered { time, .. }
            | TelemetryEvent::Restarted { time, .. }
            | TelemetryEvent::TimerFired { time, .. }
            | TelemetryEvent::Node { time, .. } => time,
        }
    }

    /// Short stable tag naming the variant — the `"ev"` field of the JSONL
    /// schema and the grouping key of summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            TelemetryEvent::Sent { .. } => "sent",
            TelemetryEvent::Delivered { .. } => "delivered",
            TelemetryEvent::Dropped { .. } => "dropped",
            TelemetryEvent::DeadLettered { .. } => "dead_lettered",
            TelemetryEvent::Restarted { .. } => "restarted",
            TelemetryEvent::TimerFired { .. } => "timer_fired",
            TelemetryEvent::Node { event, .. } => match event {
                NodeEvent::PropSent { .. } => "prop_sent",
                NodeEvent::RejSent { .. } => "rej_sent",
                NodeEvent::EdgeLocked { .. } => "edge_locked",
                NodeEvent::NodeTerminated => "node_terminated",
                NodeEvent::Retransmit { .. } => "retransmit",
            },
        }
    }

    /// One JSONL line (no trailing newline): `{"ev":...,"time":...,...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(&mut s);
        s
    }

    /// Appends [`TelemetryEvent::to_json`]'s line to `s`.
    pub(crate) fn write_json(&self, s: &mut String) {
        let _ = write!(s, "{{\"ev\":\"{}\"", self.tag());
        match *self {
            TelemetryEvent::Sent { time, span, parent, from, to, kind } => {
                let _ = write!(s, ",\"time\":{time},\"span\":{}", span.0);
                match parent {
                    Some(p) => {
                        let _ = write!(s, ",\"parent\":{}", p.0);
                    }
                    None => s.push_str(",\"parent\":null"),
                }
                let _ = write!(s, ",\"from\":{},\"to\":{},\"kind\":", from.0, to.0);
                json::write_str(s, kind.label());
            }
            TelemetryEvent::Delivered { time, span, from, to, kind }
            | TelemetryEvent::Dropped { time, span, from, to, kind }
            | TelemetryEvent::DeadLettered { time, span, from, to, kind } => {
                let _ = write!(
                    s,
                    ",\"time\":{time},\"span\":{},\"from\":{},\"to\":{},\"kind\":",
                    span.0, from.0, to.0
                );
                json::write_str(s, kind.label());
            }
            TelemetryEvent::Restarted { time, node } => {
                let _ = write!(s, ",\"time\":{time},\"node\":{}", node.0);
            }
            TelemetryEvent::TimerFired { time, node, tag } => {
                let _ = write!(s, ",\"time\":{time},\"node\":{},\"tag\":{tag}", node.0);
            }
            TelemetryEvent::Node { time, node, event } => {
                let _ = write!(s, ",\"time\":{time},\"node\":{}", node.0);
                match event {
                    NodeEvent::PropSent { to }
                    | NodeEvent::RejSent { to }
                    | NodeEvent::Retransmit { to } => {
                        let _ = write!(s, ",\"to\":{}", to.0);
                    }
                    NodeEvent::EdgeLocked { peer } => {
                        let _ = write!(s, ",\"peer\":{}", peer.0);
                    }
                    NodeEvent::NodeTerminated => {}
                }
            }
        }
        s.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_and_label_round_trip() {
        for (i, k) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(MessageKind::parse(k.label()), Ok(k));
        }
        assert_eq!(MessageKind::Prop.label(), "PROP");
        assert_eq!(format!("{}", MessageKind::Rej), "REJ");
        assert_eq!(MessageKind::parse("TOKEN"), Err("unknown message kind \"TOKEN\"".into()));
    }

    #[test]
    fn time_coordinate_per_layer() {
        let sent = TelemetryEvent::Sent {
            time: 7,
            span: SpanId(0),
            parent: None,
            from: NodeId(0),
            to: NodeId(1),
            kind: MessageKind::Prop,
        };
        assert_eq!(sent.time(), 7);
    }

    #[test]
    fn json_lines_are_well_formed() {
        let events = [
            TelemetryEvent::Delivered {
                time: 2,
                span: SpanId(3),
                from: NodeId(4),
                to: NodeId(5),
                kind: MessageKind::Rej,
            },
            TelemetryEvent::Node {
                time: 2,
                node: NodeId(5),
                event: NodeEvent::EdgeLocked { peer: NodeId(4) },
            },
            TelemetryEvent::Node {
                time: 3,
                node: NodeId(5),
                event: NodeEvent::NodeTerminated,
            },
        ];
        for ev in events {
            let j = ev.to_json();
            assert!(j.starts_with("{\"ev\":\""), "{j}");
            assert!(j.ends_with('}'), "{j}");
            assert_eq!(j.matches('{').count(), j.matches('}').count());
        }
        assert_eq!(
            events[1].to_json(),
            "{\"ev\":\"edge_locked\",\"time\":2,\"node\":5,\"peer\":4}"
        );
    }

    #[test]
    fn transport_events_time_tag_and_json() {
        let root = TelemetryEvent::Sent {
            time: 0,
            span: SpanId(0),
            parent: None,
            from: NodeId(3),
            to: NodeId(7),
            kind: MessageKind::Prop,
        };
        assert_eq!(root.time(), 0);
        assert_eq!(root.tag(), "sent");
        assert_eq!(
            root.to_json(),
            "{\"ev\":\"sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":3,\"to\":7,\"kind\":\"PROP\"}"
        );
        let child = TelemetryEvent::Sent {
            time: 2,
            span: SpanId(5),
            parent: Some(SpanId(0)),
            from: NodeId(7),
            to: NodeId(3),
            kind: MessageKind::Rej,
        };
        assert_eq!(
            child.to_json(),
            "{\"ev\":\"sent\",\"time\":2,\"span\":5,\"parent\":0,\"from\":7,\"to\":3,\"kind\":\"REJ\"}"
        );
        let (from, to, kind) = (NodeId(7), NodeId(3), MessageKind::Rej);
        let delivered = TelemetryEvent::Delivered { time: 3, span: SpanId(5), from, to, kind };
        assert_eq!(delivered.tag(), "delivered");
        assert_eq!(
            delivered.to_json(),
            "{\"ev\":\"delivered\",\"time\":3,\"span\":5,\"from\":7,\"to\":3,\"kind\":\"REJ\"}"
        );
        let dropped = TelemetryEvent::Dropped { time: 1, span: SpanId(2), from, to, kind };
        assert_eq!(
            dropped.to_json(),
            "{\"ev\":\"dropped\",\"time\":1,\"span\":2,\"from\":7,\"to\":3,\"kind\":\"REJ\"}"
        );
        let dead = TelemetryEvent::DeadLettered { time: 4, span: SpanId(6), from, to, kind };
        assert_eq!(dead.tag(), "dead_lettered");
        assert_eq!(
            dead.to_json(),
            "{\"ev\":\"dead_lettered\",\"time\":4,\"span\":6,\"from\":7,\"to\":3,\"kind\":\"REJ\"}"
        );
        assert_eq!(format!("{}", SpanId(9)), "s9");
    }
}
