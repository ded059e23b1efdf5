//! # owp-telemetry — structured observability for the reproduction
//!
//! The paper's headline claims are *dynamic*: LID terminates without
//! communication cycles (Lemma 5), selects the same edge set as LIC
//! (Lemmas 3, 4, 6) and converges in a bounded number of PROP/REJ
//! exchanges. Final-outcome reports (`MatchingReport`, `NetStats`) cannot
//! observe any of that; this crate supplies the instruments the
//! execution layers thread through:
//!
//! * [`event`] / [`recorder`] — **structured event tracing**: one typed
//!   [`event::TelemetryEvent`] vocabulary covering simnet transport and
//!   LID protocol actions, recorded into the [`recorder::EventLog`] the
//!   simulators own (one branch per event, no `dyn`, no allocation while
//!   disabled).
//! * [`series`] — **per-round convergence time-series**: the
//!   [`series::ConvergenceSeries`] collector samples matched-edge count,
//!   total weight, total satisfaction, in-flight messages and the
//!   terminated-node fraction at every simulator round, with JSONL
//!   export for plotting and regression tracking.
//! * [`causal`] — **happens-before analysis**: every in-flight message
//!   carries a [`event::SpanId`] plus the span of the delivery that caused
//!   it; [`causal::CausalDag`] rebuilds the causal forest from a trace,
//!   certifies it acyclic (the empirical face of Lemma 5 — tampering
//!   yields structured [`causal::CausalViolation`]s, never panics),
//!   extracts latency-attributed critical paths and per-edge lifecycles.
//! * [`json`] — **canonical JSON**: the one value reader and the string
//!   and float writer helpers every crate's `to_json`/`parse` pair uses.
//! * [`profile`] — **phase profiling**: lightweight monotonic scoped
//!   timers aggregated into a hierarchical [`profile::PhaseProfile`]
//!   table (weight computation / edge ordering / CSR build / selection
//!   loop / simulation), reported by the experiment runner and the large
//!   benches.
//!
//! Overhead policy: recording must never perturb what it measures. Every
//! instrument is off by default, and a disabled sink performs no
//! allocation and at most one predictable branch per event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod event;
pub mod json;
pub mod profile;
pub mod recorder;
pub mod series;

pub use causal::{
    CausalDag, CausalViolation, CausalViolationKind, CriticalHop, CriticalPath, EdgeLifecycle,
    EdgeOutcome, SpanInfo, SpanOutcome,
};
pub use event::{MessageKind, NodeEvent, SpanId, TelemetryEvent};
pub use profile::{PhaseProfile, PhaseToken};
pub use recorder::EventLog;
pub use series::{ConvergenceSample, ConvergenceSeries};
