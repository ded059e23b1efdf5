//! # overlays-preferences
//!
//! Full reproduction of Georgiadis & Papatriantafilou, *Overlays with
//! preferences: Approximation algorithms for matching with preference
//! lists* (IPDPS 2010; Chalmers TR 09-06).
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`owp_graph`] — graph substrate (storage, generators, preference
//!   lists, quotas, I/O);
//! * [`owp_simnet`] — discrete-event message-passing simulator (the
//!   distributed substrate LID runs on);
//! * [`owp_matching`] — satisfaction metric, eq. 9 weights, LIC, baselines,
//!   exact solvers, stability machinery, verification, bounds;
//! * [`owp_engine`] — the event-driven dynamic engine: certified bounded
//!   repair of the locally-heaviest matching under joins, leaves, edge
//!   churn and preference/quota updates, plus the always-on batch history
//!   and divergence forensics (auto-shrunk reproducers, post-mortem
//!   bundles);
//! * [`owp_core`] — the LID protocol and the overlay-construction API;
//! * [`owp_metrics`] — lock-free metrics registry (counters, gauges, log₂
//!   histograms), Prometheus/JSON exporters, and the online invariant
//!   auditor that scores live runs against the paper's guarantees;
//! * [`owp_matchd`] — the durable matchmaking daemon: TCP event ingest
//!   with adaptive batching, an append-only CRC-framed WAL plus periodic
//!   snapshots, and crash recovery that must pass `certify()` before the
//!   daemon serves (`matchd` binary; `matchd_bench` load driver;
//!   `owp-inspect wal` offline auditor);
//! * [`owp_telemetry`] — structured tracing (event log, convergence
//!   series, causal span records) and the happens-before DAG analysis
//!   behind the empirical Lemma 5 certificate.
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//! Runnable examples live in `examples/`; start with
//! `cargo run --example quickstart`.

#![forbid(unsafe_code)]

pub use owp_core;
pub use owp_engine;
pub use owp_graph;
pub use owp_matchd;
pub use owp_matching;
pub use owp_metrics;
pub use owp_simnet;
pub use owp_telemetry;

/// Convenience prelude: the types most programs need.
pub mod prelude {
    pub use owp_core::metric::{
        Composite, DistanceMetric, InterestSimilarity, RandomTaste, ResourceCapacity,
        SuitabilityMetric, TransactionHistory,
    };
    pub use owp_core::overlay::{Overlay, OverlayBuilder, OverlayNetwork};
    pub use owp_core::{
        replay_lid_trace, run_lid, run_lid_reliable, run_lid_sync, run_lid_sync_series,
        DisclosureReport, LidResult,
    };
    pub use owp_engine::{
        DeltaReport, DynamicProblem, Engine, EngineError, EngineEvent, Epoch, ForensicBundle,
        InjectedFault, ShrinkResult,
    };
    pub use owp_graph::{Graph, GraphBuilder, NodeId, PreferenceTable, Quotas};
    pub use owp_matchd::{Matchd, MatchdClient, MatchdConfig, SubmitOutcome};
    pub use owp_matching::{
        lic, BMatching, MatchingReport, Problem, SelectionPolicy,
    };
    pub use owp_metrics::{
        AuditViolation, Auditor, Counter, Gauge, Histogram, MetricsRecorder, MetricsRegistry,
        MetricsSnapshot,
    };
    pub use owp_simnet::{EventLog, FaultPlan, LatencyModel, MessageKind, SimConfig};
    pub use owp_telemetry::{CausalDag, CriticalPath, SpanId};
}
