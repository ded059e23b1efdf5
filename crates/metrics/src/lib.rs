//! # owp-metrics — the quantitative health layer
//!
//! PR 2's telemetry answers *what happened* (typed event traces); this
//! crate answers *how healthy is it* — aggregated, queryable numbers over
//! the same stream, plus continuous verification of the paper's structural
//! guarantees:
//!
//! * [`MetricsRegistry`] — typed [`Counter`]/[`Gauge`]/[`Histogram`]
//!   handles registered by static key; recording is lock-free (one relaxed
//!   atomic per observation), histograms are log₂-bucketed, and handles
//!   are `Send + Sync` for the parallel experiment sweeps.
//! * [`MetricsSnapshot`] — frozen registry state with two deterministic
//!   exporters, [`MetricsSnapshot::to_prometheus`] and
//!   [`MetricsSnapshot::to_json`], and matching parsers for offline
//!   inspection (`owp-inspect`).
//! * [`MetricsRecorder`] — aggregates a simulator event stream into the
//!   registry: one sent counter per LID message kind (PROP, REJ, ACK —
//!   the closed vocabulary, so every family is registered up front),
//!   send→deliver latency histograms (paired by span), PROP→accept
//!   latency, termination times.
//! * [`Auditor`] — the online invariant auditor: quota feasibility,
//!   matching mutuality, eq. 9 weight symmetry, the Lemma 4
//!   locally-heaviest certificate (Theorem 2's ½-approximation), engine
//!   repair consistency and epoch monotonicity, reported as structured
//!   [`AuditViolation`]s (never panics) alongside ε-blocking-edge and
//!   satisfaction-ratio gauges; it also aggregates the engine's
//!   `DeltaReport`s into the batch-size and repair distributions. Its
//!   matching checks are one pass over an alive-edge mask:
//!   [`Auditor::audit_live`] audits matchd's live sub-instance of a
//!   universe problem, and the static [`Auditor::audit_matching`] is the
//!   same pass with every edge alive.
//! * [`alloc`](mod@alloc) — allocation accounting for the engine's
//!   zero-allocation batch contract (the `engine_allocations_per_batch`
//!   gauge).
//! * [`daemon`](mod@daemon) — the `matchd_*` keys the matchmaking daemon
//!   publishes (ingest queue depth, admission rejects, WAL bytes, batch
//!   linger), shared between `owp-matchd` and the inspectors.
//!
//! The crate is intentionally *passive*: nothing here hooks itself into the
//! simulator or engine. Call sites opt in by replaying a finished run's
//! event log through a recorder or handing results to an auditor, so the
//! runtime switches of the telemetry layer carry over unchanged — a binary
//! that never constructs a registry pays nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod audit;
pub mod daemon;
pub mod recorder;
pub mod registry;
pub mod snapshot;

pub use alloc::{
    allocation_count, allocations_since, publish_allocations_per_batch, record_allocation,
    ALLOCATIONS_PER_BATCH,
};
pub use daemon::{
    register_matchd_metrics, MATCHD_ADMISSION_REJECTS, MATCHD_AUDIT_CLEAN, MATCHD_AUDIT_COST_US,
    MATCHD_AUDIT_FAILURES, MATCHD_AUDIT_LAST_EPOCH, MATCHD_AUDIT_PASSES, MATCHD_BATCH_EVENTS,
    MATCHD_BATCH_LINGER_US, MATCHD_BUNDLES_SPOOLED, MATCHD_CONNECTIONS,
    MATCHD_CONNECTIONS_TOTAL, MATCHD_OPS_REQUESTS, MATCHD_QUEUE_DEPTH, MATCHD_READY,
    MATCHD_REQUESTS_TOTAL, MATCHD_REQ_CONTROL_US, MATCHD_REQ_QUERY_US, MATCHD_REQ_SUBMIT_US,
    MATCHD_SNAPSHOT_BYTES, MATCHD_SNAPSHOT_EPOCH, MATCHD_SNAPSHOT_SAVE_US, MATCHD_SPAN_ACK_US,
    MATCHD_SPAN_APPLY_US, MATCHD_SPAN_QUEUE_US, MATCHD_WAL_BYTES, MATCHD_WAL_RECORDS,
};
pub use audit::{
    epsilon_blocking_count, weight_upper_bound, AuditViolation, Auditor, InvariantKind,
};
pub use recorder::MetricsRecorder;
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot};
