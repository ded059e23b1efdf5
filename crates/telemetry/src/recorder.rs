//! The event sink: [`EventLog`], a plain type with inherent
//! `is_enabled`/`record` methods — no trait, no `dyn`. The simulators own
//! one; its disabled state is a single predictable branch per event and
//! never allocates (the event vector is only created on first enabled
//! push).

use crate::event::{MessageKind, NodeEvent, SpanId, TelemetryEvent};
use crate::json::{self, Value};
use owp_graph::NodeId;

/// An append-only in-memory event log with a runtime on/off switch —
/// the sink the simulators own.
///
/// Disabled is the default and costs one branch per offered event; the
/// backing vector is not even allocated until the first enabled push, so a
/// disabled log performs **zero** heap allocation no matter how many
/// events are offered (asserted by the capacity test below).
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<TelemetryEvent>,
}

impl EventLog {
    /// Creates an enabled log.
    pub fn enabled() -> Self {
        EventLog {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Creates a disabled log (records nothing, allocates nothing).
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// `true` iff recorded events are kept. Call sites that would do
    /// extra work *building* an event guard on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event; a no-op while disabled.
    #[inline]
    pub fn record(&mut self, ev: TelemetryEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// The recorded events, in occurrence order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Capacity of the backing vector — 0 for a log that never recorded,
    /// which is how the zero-allocation guarantee is asserted in tests.
    pub fn events_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Delivered-message events only.
    pub fn deliveries(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Delivered { .. }))
    }

    /// Events matching a tag (see [`TelemetryEvent::tag`]).
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TelemetryEvent> {
        self.events.iter().filter(move |e| e.tag() == tag)
    }

    /// Serializes the whole log as JSONL (one event object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL document written by [`EventLog::to_jsonl`] back into
    /// an (enabled) log — the offline half of `owp-inspect causal`, which
    /// reconstructs happens-before DAGs from trace files on disk.
    ///
    /// The full event vocabulary round-trips: `parse_jsonl(log.to_jsonl())`
    /// reproduces `log.events()` exactly. Blank lines are skipped; any
    /// malformed line, including one whose `"kind"` is not `PROP`, `REJ`
    /// or `ACK`, is an `Err` naming its line number.
    pub fn parse_jsonl(doc: &str) -> Result<EventLog, String> {
        let events = json::parse_lines(doc, event_from_json)?;
        Ok(EventLog { enabled: true, events })
    }
}

fn event_from_json(v: &Value<'_>) -> Result<TelemetryEvent, String> {
    let num = |key: &str| v.field(key)?.as_u64(key);
    let num32 = |key: &str| v.field(key)?.as_u32(key);
    let node = |key: &str| num32(key).map(NodeId);
    let span = || num("span").map(SpanId);
    let kind = || MessageKind::parse(v.field("kind")?.as_str("kind")?);
    let ev = match v.field("ev")?.as_str("ev")? {
        "sent" => {
            let parent = v.field("parent")?.nullable().map(|p| p.as_u64("parent")).transpose()?;
            TelemetryEvent::Sent {
                time: num("time")?,
                span: span()?,
                parent: parent.map(SpanId),
                from: node("from")?,
                to: node("to")?,
                kind: kind()?,
            }
        }
        "delivered" => TelemetryEvent::Delivered {
            time: num("time")?,
            span: span()?,
            from: node("from")?,
            to: node("to")?,
            kind: kind()?,
        },
        "dropped" => TelemetryEvent::Dropped {
            time: num("time")?,
            span: span()?,
            from: node("from")?,
            to: node("to")?,
            kind: kind()?,
        },
        "dead_lettered" => TelemetryEvent::DeadLettered {
            time: num("time")?,
            span: span()?,
            from: node("from")?,
            to: node("to")?,
            kind: kind()?,
        },
        "restarted" => TelemetryEvent::Restarted {
            time: num("time")?,
            node: node("node")?,
        },
        "timer_fired" => TelemetryEvent::TimerFired {
            time: num("time")?,
            node: node("node")?,
            tag: num("tag")?,
        },
        "prop_sent" => TelemetryEvent::Node {
            time: num("time")?,
            node: node("node")?,
            event: NodeEvent::PropSent { to: node("to")? },
        },
        "rej_sent" => TelemetryEvent::Node {
            time: num("time")?,
            node: node("node")?,
            event: NodeEvent::RejSent { to: node("to")? },
        },
        "retransmit" => TelemetryEvent::Node {
            time: num("time")?,
            node: node("node")?,
            event: NodeEvent::Retransmit { to: node("to")? },
        },
        "edge_locked" => TelemetryEvent::Node {
            time: num("time")?,
            node: node("node")?,
            event: NodeEvent::EdgeLocked { peer: node("peer")? },
        },
        "node_terminated" => TelemetryEvent::Node {
            time: num("time")?,
            node: node("node")?,
            event: NodeEvent::NodeTerminated,
        },
        other => return Err(format!("unknown event tag {other:?}")),
    };
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MessageKind, NodeEvent, SpanId};
    use owp_graph::NodeId;

    fn sample(i: u32) -> TelemetryEvent {
        TelemetryEvent::Sent {
            time: i as u64,
            span: SpanId(i as u64),
            parent: None,
            from: NodeId(i),
            to: NodeId(i + 1),
            kind: MessageKind::Prop,
        }
    }

    #[test]
    fn disabled_log_records_nothing_and_never_allocates() {
        let mut log = EventLog::disabled();
        assert!(!log.is_enabled());
        for i in 0..10_000 {
            log.record(sample(i));
        }
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        // The zero-allocation guarantee: the backing vector was never
        // created, so its capacity is still 0 after 10k offered events.
        assert_eq!(log.events_capacity(), 0);
        assert_eq!(log.to_jsonl(), "");
    }

    #[test]
    fn enabled_log_keeps_order_and_filters() {
        let mut log = EventLog::enabled();
        assert!(log.is_enabled());
        log.record(sample(0));
        log.record(TelemetryEvent::Delivered {
            time: 2,
            span: SpanId(0),
            from: NodeId(0),
            to: NodeId(1),
            kind: MessageKind::Prop,
        });
        log.record(TelemetryEvent::Node {
            time: 2,
            node: NodeId(1),
            event: NodeEvent::EdgeLocked { peer: NodeId(0) },
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[0].time(), 0);
        assert_eq!(log.deliveries().count(), 1);
        assert_eq!(log.with_tag("edge_locked").count(), 1);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn jsonl_round_trips_every_variant() {
        let mut log = EventLog::enabled();
        for ev in [
            TelemetryEvent::Sent {
                time: 0,
                span: SpanId(0),
                parent: None,
                from: NodeId(1),
                to: NodeId(2),
                kind: MessageKind::Prop,
            },
            TelemetryEvent::Delivered { time: 1, span: SpanId(0), from: NodeId(1), to: NodeId(2), kind: MessageKind::Prop },
            TelemetryEvent::Sent {
                time: 1,
                span: SpanId(1),
                parent: Some(SpanId(0)),
                from: NodeId(2),
                to: NodeId(1),
                kind: MessageKind::Rej,
            },
            TelemetryEvent::Dropped {
                time: 2,
                span: SpanId(1),
                from: NodeId(2),
                to: NodeId(1),
                kind: MessageKind::Rej,
            },
            TelemetryEvent::DeadLettered { time: 3, span: SpanId(2), from: NodeId(0), to: NodeId(4), kind: MessageKind::Ack },
            TelemetryEvent::Restarted { time: 3, node: NodeId(4) },
            TelemetryEvent::TimerFired { time: 4, node: NodeId(3), tag: 11 },
            TelemetryEvent::Node { time: 4, node: NodeId(3), event: NodeEvent::PropSent { to: NodeId(5) } },
            TelemetryEvent::Node { time: 4, node: NodeId(3), event: NodeEvent::RejSent { to: NodeId(6) } },
            TelemetryEvent::Node { time: 4, node: NodeId(3), event: NodeEvent::EdgeLocked { peer: NodeId(5) } },
            TelemetryEvent::Node { time: 5, node: NodeId(3), event: NodeEvent::NodeTerminated },
            TelemetryEvent::Node { time: 5, node: NodeId(3), event: NodeEvent::Retransmit { to: NodeId(5) } },
        ] {
            log.record(ev);
        }
        let parsed = EventLog::parse_jsonl(&log.to_jsonl()).expect("round trip parses");
        assert_eq!(parsed.events(), log.events());
        // Blank lines are tolerated; garbage is a structured error.
        assert!(EventLog::parse_jsonl("\n\n").expect("blank ok").is_empty());
        let err = EventLog::parse_jsonl("{\"ev\":\"nope\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        // The tags of retired records are unknown too: the second
        // transport record, LIC's decision events, matchd's wire trace and
        // the engine's flight-ring events.
        for (old, tag) in [
            ("{\"ev\":\"span_sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":1,\"to\":2,\"kind\":\"PROP\"}", "span_sent"),
            ("{\"ev\":\"lic_edge_selected\",\"step\":0,\"edge\":7,\"a\":1,\"b\":2}", "lic_edge_selected"),
            ("{\"ev\":\"wire_received\",\"time\":120,\"conn\":3,\"req\":41,\"kind\":\"SUBMIT\",\"bytes\":64}", "wire_received"),
            ("{\"ev\":\"engine_edge_added\",\"epoch\":9,\"edge\":4}", "engine_edge_added"),
        ] {
            let err = EventLog::parse_jsonl(old).unwrap_err();
            assert!(err.contains(&format!("unknown event tag \"{tag}\"")), "{err}");
        }
    }

    #[test]
    fn a_kind_outside_the_lid_vocabulary_is_rejected() {
        let ok = "{\"ev\":\"sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":1,\"to\":2,\"kind\":\"PROP\"}";
        let doc = format!("{ok}\n{}\n", ok.replace("PROP", "TOKEN"));
        let err = EventLog::parse_jsonl(&doc).unwrap_err();
        assert_eq!(err, "line 2: unknown message kind \"TOKEN\"");
    }
}
