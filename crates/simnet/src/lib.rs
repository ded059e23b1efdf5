//! # owp-simnet — a discrete-event message-passing simulator
//!
//! The LID algorithm of Georgiadis & Papatriantafilou is *fully distributed*:
//! nodes exchange `PROP`/`REJ` messages with immediate neighbours over
//! reliable asynchronous point-to-point channels. The paper evaluates it only
//! analytically; this crate supplies the network such a protocol actually
//! needs, so the reproduction can measure message counts, convergence times
//! and robustness:
//!
//! * [`protocol`] — the [`protocol::Protocol`] trait every
//!   distributed node implements (`on_start` / `on_message`), plus the
//!   [`protocol::Context`] handle used to send messages;
//! * [`sim`] — the asynchronous event-driven [`sim::Simulator`] over a
//!   topology graph: a deterministic tick-bucketed event queue whose ticks
//!   run their callbacks grouped by receiver, per-link FIFO enforcement on
//!   the graph's own CSR positions, message statistics and quiescence
//!   detection;
//! * [`latency`] — pluggable link-delay distributions (constant, uniform,
//!   exponential, log-normal) so asynchrony and message reordering across
//!   different links can be exercised (the condition Lemma 5's termination
//!   argument is about);
//! * [`sync`] — a synchronous-round engine over the same `Protocol` trait
//!   and topology, used for deterministic round-complexity measurements;
//! * [`faults`] — fault injection (message loss, asymmetric per-link loss,
//!   duplication, FIFO-violating reordering, healing partitions, node
//!   crash/restart) for the robustness experiments and chaos campaigns that
//!   go beyond the paper's reliable-network assumption;
//! * [`stats`] — per-kind sent counters over LID's closed
//!   [`owp_telemetry::MessageKind`] vocabulary (PROP/REJ/ACK), which is
//!   also the kind every [`protocol::Payload`] travels as;
//!   structured event traces live in the re-exported [`owp_telemetry`] layer
//!   (`EventLog` of typed `TelemetryEvent`s, enabled per run via
//!   [`sim::SimConfig::telemetry`]).
//!
//! Determinism: given the same seed, node set, topology and configuration,
//! a run delivers exactly the same events in the same order. Every
//! experiment in `EXPERIMENTS.md` relies on this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
mod group;
pub mod latency;
pub mod protocol;
pub mod sim;
pub mod stats;
pub mod sync;

pub use faults::{CompiledFaults, FaultPlan, LinkLoss, Partition};
pub use latency::LatencyModel;
pub use owp_graph::NodeId;
pub use owp_telemetry::{EventLog, MessageKind, NodeEvent, TelemetryEvent};
pub use protocol::{Context, Payload, Protocol};
pub use sim::{RunOutcome, SimConfig, Simulator};
pub use stats::NetStats;
pub use sync::SyncRunner;

/// Simulated time, in abstract integer ticks.
///
/// Ticks have no physical unit; latency models assign link delays in ticks
/// and the simulator reports completion times in ticks. Integer time keeps
/// event ordering exact and runs reproducible.
pub type SimTime = u64;
