//! Event sinks: the growable [`EventLog`] and the fixed-capacity
//! [`FlightRecorder`] ring. Both are plain types with inherent
//! `is_enabled`/`record` methods — no trait, no `dyn` — and each call site
//! names its sink.
//!
//! * [`EventLog`] — the simulators own one; its disabled state is a single
//!   predictable branch per event and never allocates (the event vector
//!   is only created on first enabled push).
//! * [`FlightRecorder`] — the engine's always-on black box: bounded
//!   memory, overwrites oldest, never allocates after construction.

use crate::event::{MessageKind, NodeEvent, SpanId, TelemetryEvent};
use crate::json::{self, Value};
use owp_graph::{EdgeId, NodeId};

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
    /// malformed line is an `Err` naming its line number.
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
    let kind = || -> Result<MessageKind, String> {
        Ok(MessageKind::parse(v.field("kind")?.as_str("kind")?))
    };
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
        "engine_batch_applied" => TelemetryEvent::EngineBatchApplied {
            epoch: num("epoch")?,
            events: num32("events")?,
            evaluated: num32("evaluated")?,
            added: num32("added")?,
            removed: num32("removed")?,
        },
        "engine_edge_added" => TelemetryEvent::EngineEdgeAdded {
            epoch: num("epoch")?,
            edge: EdgeId(num32("edge")?),
        },
        "engine_edge_removed" => TelemetryEvent::EngineEdgeRemoved {
            epoch: num("epoch")?,
            edge: EdgeId(num32("edge")?),
        },
        "engine_reranked" => TelemetryEvent::EngineReranked {
            epoch: num("epoch")?,
            edges: num32("edges")?,
        },
        other => return Err(format!("unknown event tag {other:?}")),
    };
    Ok(ev)
}

/// Fixed-capacity watermark ring size — enough to frame the event ring by
/// epoch for any plausible batch:event ratio without growing with it.
const WATERMARK_CAPACITY: usize = 64;

/// A fixed-capacity ring of [`TelemetryEvent`]s — the *flight recorder*
/// behind the engine's post-mortem forensics (DESIGN.md §12).
///
/// Unlike [`EventLog`], which grows without bound, the ring overwrites its
/// oldest entry once full and counts the overwrite on
/// [`FlightRecorder::dropped`]. Events are `Copy` and the buffer is
/// pre-allocated at construction, so recording never touches the heap —
/// the ring can stay on inside the engine's steady-state zero-allocation
/// batch path (`crates/engine/tests/zero_alloc.rs` asserts it).
///
/// [`FlightRecorder::stamp`] appends an *epoch watermark* — the pair
/// `(epoch, events recorded so far)` — into a small secondary ring, so a
/// post-mortem reader can attribute ring segments to engine epochs even
/// after wraparound.
///
/// A capacity of 0 is the disabled state: [`FlightRecorder::is_enabled`] is
/// `false` and nothing is ever stored (this is also the [`Default`]).
#[derive(Clone, Debug, Default)]
pub struct FlightRecorder {
    cap: usize,
    buf: Vec<TelemetryEvent>,
    /// Oldest entry (== next overwrite target) once the ring is full.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Events ever offered while enabled (monotonic).
    seen: u64,
    watermarks: Vec<(u64, u64)>,
    wm_head: usize,
}

impl FlightRecorder {
    /// A ring holding at most `capacity` events (0 = disabled). All
    /// storage is allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            cap: capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            seen: 0,
            watermarks: Vec::with_capacity(if capacity == 0 { 0 } else { WATERMARK_CAPACITY }),
            wm_head: 0,
        }
    }

    /// The fixed event capacity chosen at construction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// `true` iff the ring has room for events (capacity > 0).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    /// Records one event, overwriting the oldest once full; a no-op while
    /// disabled.
    #[inline]
    pub fn record(&mut self, ev: TelemetryEvent) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
        self.seen += 1;
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring fill fraction in `[0, 1]` (0 for a disabled ring).
    pub fn occupancy(&self) -> f64 {
        if self.cap == 0 {
            0.0
        } else {
            self.buf.len() as f64 / self.cap as f64
        }
    }

    /// Events overwritten since construction (the
    /// `recorder_dropped_events` gauge).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events ever recorded while enabled, including those since
    /// overwritten — the sequence numbers watermarks are stamped in.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Stamps an epoch watermark: "after `seen()` events, the engine was
    /// at `epoch`". The watermark ring overwrites oldest-first like the
    /// event ring; no-op while disabled.
    pub fn stamp(&mut self, epoch: u64) {
        if self.cap == 0 {
            return;
        }
        let wm = (epoch, self.seen);
        if self.watermarks.len() < WATERMARK_CAPACITY {
            self.watermarks.push(wm);
        } else {
            self.watermarks[self.wm_head] = wm;
            self.wm_head = (self.wm_head + 1) % WATERMARK_CAPACITY;
        }
    }

    /// Retained epoch watermarks, oldest first.
    pub fn watermarks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (older, newer) = self.watermarks.split_at(self.wm_head);
        newer.iter().chain(older.iter()).copied()
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TelemetryEvent> {
        let (older, newer) = self.buf.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// Serializes the retained events as JSONL, oldest first — the same
    /// line format as [`EventLog::to_jsonl`], so
    /// [`EventLog::parse_jsonl`] reads it back.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.iter() {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Forgets all retained events and watermarks (capacity and counters
    /// keep their values; no deallocation).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.watermarks.clear();
        self.wm_head = 0;
    }
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
        use owp_graph::EdgeId;
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
                kind: MessageKind::Other("TOKEN"),
            },
            TelemetryEvent::Dropped {
                time: 2,
                span: SpanId(1),
                from: NodeId(2),
                to: NodeId(1),
                kind: MessageKind::Other("TOKEN"),
            },
            TelemetryEvent::DeadLettered { time: 3, span: SpanId(2), from: NodeId(0), to: NodeId(4), kind: MessageKind::Ack },
            TelemetryEvent::Restarted { time: 3, node: NodeId(4) },
            TelemetryEvent::TimerFired { time: 4, node: NodeId(3), tag: 11 },
            TelemetryEvent::Node { time: 4, node: NodeId(3), event: NodeEvent::PropSent { to: NodeId(5) } },
            TelemetryEvent::Node { time: 4, node: NodeId(3), event: NodeEvent::RejSent { to: NodeId(6) } },
            TelemetryEvent::Node { time: 4, node: NodeId(3), event: NodeEvent::EdgeLocked { peer: NodeId(5) } },
            TelemetryEvent::Node { time: 5, node: NodeId(3), event: NodeEvent::NodeTerminated },
            TelemetryEvent::Node { time: 5, node: NodeId(3), event: NodeEvent::Retransmit { to: NodeId(5) } },
            TelemetryEvent::EngineBatchApplied { epoch: 9, events: 2, evaluated: 10, added: 1, removed: 0 },
            TelemetryEvent::EngineEdgeAdded { epoch: 9, edge: EdgeId(4) },
            TelemetryEvent::EngineEdgeRemoved { epoch: 10, edge: EdgeId(4) },
            TelemetryEvent::EngineReranked { epoch: 10, edges: 6 },
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
        // transport record, LIC's decision events and matchd's wire trace.
        for (old, tag) in [
            ("{\"ev\":\"span_sent\",\"time\":0,\"span\":0,\"parent\":null,\"from\":1,\"to\":2,\"kind\":\"PROP\"}", "span_sent"),
            ("{\"ev\":\"lic_edge_selected\",\"step\":0,\"edge\":7,\"a\":1,\"b\":2}", "lic_edge_selected"),
            ("{\"ev\":\"wire_received\",\"time\":120,\"conn\":3,\"req\":41,\"kind\":\"SUBMIT\",\"bytes\":64}", "wire_received"),
        ] {
            let err = EventLog::parse_jsonl(old).unwrap_err();
            assert!(err.contains(&format!("unknown event tag \"{tag}\"")), "{err}");
        }
    }

    #[test]
    fn flight_ring_wraps_and_counts_drops() {
        let mut ring = FlightRecorder::new(4);
        assert!(ring.is_enabled());
        assert_eq!(ring.occupancy(), 0.0);
        for i in 0..3 {
            ring.record(sample(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0);
        assert!((ring.occupancy() - 0.75).abs() < 1e-12);
        for i in 3..10 {
            ring.record(sample(i));
        }
        // Capacity 4, 10 offered: the ring holds the newest 4 and counted
        // the 6 overwrites.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.seen(), 10);
        assert_eq!(ring.occupancy(), 1.0);
        let times: Vec<u64> = ring.iter().map(|e| e.time()).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "oldest-first after wraparound");
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 6, "counters survive clear");
    }

    #[test]
    fn flight_ring_jsonl_round_trips_through_event_log() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..5 {
            ring.record(sample(i));
        }
        let parsed = EventLog::parse_jsonl(&ring.to_jsonl()).expect("ring JSONL parses");
        let expected: Vec<TelemetryEvent> = ring.iter().copied().collect();
        assert_eq!(parsed.events(), &expected[..]);
    }

    #[test]
    fn flight_watermarks_frame_the_stream() {
        let mut ring = FlightRecorder::new(8);
        ring.record(sample(0));
        ring.record(sample(1));
        ring.stamp(1);
        ring.record(sample(2));
        ring.stamp(2);
        let wms: Vec<(u64, u64)> = ring.watermarks().collect();
        assert_eq!(wms, vec![(1, 2), (2, 3)]);
        // The watermark ring wraps like the event ring.
        for epoch in 3..(3 + WATERMARK_CAPACITY as u64 + 2) {
            ring.stamp(epoch);
        }
        let wms: Vec<(u64, u64)> = ring.watermarks().collect();
        assert_eq!(wms.len(), WATERMARK_CAPACITY);
        assert_eq!(wms.last().unwrap().0, 3 + WATERMARK_CAPACITY as u64 + 1);
    }

    #[test]
    fn zero_capacity_ring_is_disabled_and_inert() {
        let mut ring = FlightRecorder::default();
        assert!(!ring.is_enabled());
        for i in 0..100 {
            ring.record(sample(i));
        }
        ring.stamp(7);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.seen(), 0);
        assert_eq!(ring.watermarks().count(), 0);
        assert_eq!(ring.to_jsonl(), "");
    }
}
