//! The distributed-protocol abstraction.
//!
//! A protocol instance is one state machine per node. The engine (async
//! [`crate::Simulator`] or synchronous [`crate::SyncRunner`]) drives every
//! node through [`Protocol::on_start`] once and [`Protocol::on_message`] for
//! each delivered message; nodes communicate *only* by sending messages
//! through the supplied [`Context`] — exactly the model of the paper's
//! Algorithm 1.

use crate::{NodeId, SimTime};
use owp_telemetry::{MessageKind, NodeEvent};

/// Buffered output of one callback: `(messages, armed timers, emitted
/// protocol events)`.
pub(crate) type CtxParts<M> = (Vec<(NodeId, M)>, Vec<(SimTime, u64)>, Vec<NodeEvent>);

/// A message payload exchanged between protocol nodes.
///
/// `kind` classifies the message as one of LID's [`MessageKind`]s so the
/// engines can count and trace it without knowing protocol internals.
/// LID itself sends [`MessageKind`] as its payload; a payload that carries
/// data names the kind it travels as.
pub trait Payload: Clone + std::fmt::Debug {
    /// The message class.
    fn kind(&self) -> MessageKind;
}

impl Payload for MessageKind {
    fn kind(&self) -> MessageKind {
        *self
    }
}

/// A per-node distributed state machine.
pub trait Protocol {
    /// The message type the protocol exchanges.
    type Message: Payload;

    /// Called exactly once at time 0, before any delivery.
    fn on_start(&mut self, ctx: &mut Context<Self::Message>);

    /// Called for every message delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Context<Self::Message>);

    /// Called when a timer set via [`Context::set_timer`] fires. Default:
    /// ignore (protocols without timers never see this).
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<Self::Message>) {
        let _ = (tag, ctx);
    }

    /// Called when the simulator restarts this node after a crash (see
    /// [`crate::faults::FaultPlan::restart`]). The implementation must treat
    /// this as a cold boot: all volatile protocol state is stale, timers
    /// armed before the crash are dead, and any recovery traffic must be
    /// (re-)initiated from here. Default: behave like `on_start`.
    fn on_restart(&mut self, ctx: &mut Context<Self::Message>) {
        self.on_start(ctx);
    }

    /// `true` once this node has locally terminated. Purely observational —
    /// the engines use it for statistics and invariant checks, never for
    /// control flow (a real distributed node cannot be peeked at either).
    fn is_terminated(&self) -> bool {
        false
    }
}

/// Handle through which a node interacts with the network during a callback.
///
/// Sends are buffered and scheduled by the engine after the callback returns;
/// a node can therefore not observe any effect of its own sends within the
/// same callback, mirroring a real asynchronous network interface.
#[derive(Debug)]
pub struct Context<M> {
    node: NodeId,
    now: SimTime,
    outbox: Vec<(NodeId, M)>,
    timers: Vec<(SimTime, u64)>,
    /// Protocol state transitions emitted this callback (drained by the
    /// engine, which stamps node and time). Never allocated unless the
    /// engine enabled telemetry.
    events: Vec<NodeEvent>,
    telemetry: bool,
}

impl<M> Context<M> {
    pub(crate) fn new(node: NodeId, now: SimTime) -> Self {
        Self::with_telemetry(node, now, false)
    }

    pub(crate) fn with_telemetry(node: NodeId, now: SimTime, telemetry: bool) -> Self {
        Self::reusing(node, now, telemetry, Vec::new())
    }

    /// A context whose outbox is the engine's recycled buffer (drained by
    /// the previous [`Context::into_parts`]), so a delivery allocates no
    /// outbox of its own.
    pub(crate) fn reusing(
        node: NodeId,
        now: SimTime,
        telemetry: bool,
        outbox: Vec<(NodeId, M)>,
    ) -> Self {
        debug_assert!(outbox.is_empty(), "recycled outbox must be drained");
        Context {
            node,
            now,
            outbox,
            timers: Vec::new(),
            events: Vec::new(),
            telemetry,
        }
    }

    /// A context detached from any engine, for replaying recorded traces
    /// through protocol state machines (and for tests). Everything sent
    /// through it is the caller's to inspect ([`Context::sent`]) or
    /// discard; emitted protocol events are dropped.
    pub fn detached(node: NodeId, now: SimTime) -> Self {
        Context::new(node, now)
    }

    /// A detached context that also keeps the protocol events the callback
    /// emits ([`Context::emitted`]).
    pub fn detached_recording(node: NodeId, now: SimTime) -> Self {
        Context::with_telemetry(node, now, true)
    }

    /// The messages queued so far in this callback, in send order.
    pub fn sent(&self) -> &[(NodeId, M)] {
        &self.outbox
    }

    /// The protocol events emitted so far in this callback (recorded only
    /// when the engine enabled telemetry).
    pub fn emitted(&self) -> &[NodeEvent] {
        &self.events
    }

    /// The id of the node this callback runs on.
    #[inline]
    pub fn self_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queues `msg` for delivery to `to`. Delivery latency is decided by the
    /// engine's latency model.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Number of messages queued so far in this callback.
    pub fn pending(&self) -> usize {
        self.outbox.len()
    }

    /// Arms a local timer: [`Protocol::on_timer`] fires with `tag` after
    /// `delay` ticks (at least 1). Timers are local — they never traverse
    /// the network and are immune to loss. In the synchronous engine a delay
    /// of `d` ticks fires `d` rounds later.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.timers.push((delay.max(1), tag));
    }

    /// Emits a protocol state transition into the run's event log. The
    /// engine stamps it with this node's id and the current time. With
    /// recording disabled (`SimConfig::telemetry()` off) it is one
    /// predictable branch.
    #[inline]
    pub fn emit(&mut self, ev: NodeEvent) {
        if self.telemetry {
            self.record(ev);
        }
    }

    /// The push behind [`Context::emit`], kept out of line so that the
    /// protocol handlers, which emit on every transition, carry only the
    /// branch.
    #[cold]
    #[inline(never)]
    fn record(&mut self, ev: NodeEvent) {
        self.events.push(ev);
    }

    pub(crate) fn into_parts(self) -> CtxParts<M> {
        (self.outbox, self.timers, self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_sends() {
        let mut ctx: Context<MessageKind> = Context::new(NodeId(3), 17);
        assert_eq!(ctx.self_id(), NodeId(3));
        assert_eq!(ctx.now(), 17);
        assert_eq!(ctx.pending(), 0);
        ctx.send(NodeId(1), MessageKind::Prop);
        ctx.send(NodeId(2), MessageKind::Prop);
        assert_eq!(ctx.pending(), 2);
        let to: Vec<NodeId> = ctx.sent().iter().map(|&(to, _)| to).collect();
        assert_eq!(to, [NodeId(1), NodeId(2)]);
        let (out, timers, events) = ctx.into_parts();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, NodeId(1));
        assert!(timers.is_empty());
        assert!(events.is_empty());
    }

    #[test]
    fn emit_respects_the_telemetry_switch() {
        // Telemetry off (default construction): events are discarded and
        // the buffer never allocates.
        let mut off: Context<MessageKind> = Context::new(NodeId(0), 0);
        off.emit(NodeEvent::NodeTerminated);
        assert!(off.emitted().is_empty());
        let (_, _, events) = off.into_parts();
        assert!(events.is_empty());
        assert_eq!(events.capacity(), 0);

        // Telemetry on: every emitted event is captured.
        let mut on: Context<MessageKind> = Context::detached_recording(NodeId(0), 0);
        on.emit(NodeEvent::EdgeLocked { peer: NodeId(1) });
        assert_eq!(on.emitted(), [NodeEvent::EdgeLocked { peer: NodeId(1) }]);
        let (_, _, events) = on.into_parts();
        assert_eq!(events.len(), 1);
    }
}
