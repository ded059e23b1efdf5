//! Network-level statistics collected by the engines.

use owp_telemetry::MessageKind;

/// Message and event counters for one simulation run.
///
/// Per-kind sent counts live in a flat array indexed by
/// [`MessageKind::index`], so the simulator's send path does a single
/// array increment per message.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct NetStats {
    /// Messages handed to the network (before loss).
    pub sent: u64,
    /// Messages actually delivered to a handler.
    pub delivered: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Messages discarded because the destination had crashed.
    pub dead_lettered: u64,
    /// Messages cut by an active network partition (counted separately from
    /// random loss so chaos reports can attribute them).
    pub partition_dropped: u64,
    /// Extra copies injected by message duplication.
    pub duplicated: u64,
    /// Messages that skipped the FIFO clamp (reordering fault).
    pub reordered: u64,
    /// Node restarts performed (crash-restart fault plans).
    pub restarts: u64,
    /// Local timer firings (see [`crate::Context::set_timer`]).
    pub timers_fired: u64,
    /// Sent counts per kind, indexed by [`MessageKind::index`].
    sent_kind: [u64; MessageKind::ALL.len()],
    /// Peak size of the in-flight event queue.
    pub peak_in_flight: usize,
}

impl NetStats {
    /// Records a send of a message of the given kind.
    #[inline]
    pub(crate) fn record_send(&mut self, kind: MessageKind) {
        self.sent += 1;
        self.sent_kind[kind.index()] += 1;
    }

    /// Sent count for one kind (0 if never sent).
    #[inline]
    pub fn sent_of(&self, kind: MessageKind) -> u64 {
        self.sent_kind[kind.index()]
    }

    /// Average messages sent per node.
    pub fn sent_per_node(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.sent as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.record_send(MessageKind::Prop);
        s.record_send(MessageKind::Prop);
        s.record_send(MessageKind::Rej);
        assert_eq!(s.sent, 3);
        assert_eq!(s.sent_of(MessageKind::Prop), 2);
        assert_eq!(s.sent_of(MessageKind::Rej), 1);
        assert_eq!(s.sent_of(MessageKind::Ack), 0);
        assert!((s.sent_per_node(3) - 1.0).abs() < 1e-12);
        assert_eq!(s.sent_per_node(0), 0.0);
    }
}
