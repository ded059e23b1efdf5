//! # owp-core — overlays with preferences
//!
//! The headline deliverable of the reproduction of Georgiadis &
//! Papatriantafilou, *Overlays with preferences: Approximation algorithms
//! for matching with preference lists* (IPDPS 2010): a library with which
//! peers holding **private preference lists** build an overlay by running
//! the fully distributed **LID** protocol, with the collective guarantee of
//! Theorem 3 — total satisfaction at least `¼(1 + 1/b_max)` of optimal.
//!
//! * [`lid`] — Algorithm 1 as a message-passing state machine over
//!   `owp-simnet`, with asynchronous and synchronous runners
//!   ([`run_lid`], [`run_lid_sync`], [`run_lid_sync_series`]); its
//!   messages are `owp_telemetry::MessageKind` (PROP, REJ and the
//!   reliable layer's ACK), the same type the traces and counters use;
//! * [`lid_reliable`] — Algorithm 1 under a retransmission layer that
//!   survives message loss and crash-restart ([`run_lid_reliable`]);
//! * [`metric`] — the suitability metrics of the paper's introduction
//!   (distance, interests, transaction history, resources, composites),
//!   each peer free to use its own;
//! * [`overlay`] — the fluent [`overlay::OverlayBuilder`] →
//!   [`overlay::Overlay`] construction pipeline;
//! * [`privacy`] — accounting of exactly what crosses the wire (one `ΔS̄`
//!   scalar per edge direction, never the metric or the list).
//!
//! ## Quickstart
//!
//! ```
//! use owp_core::metric::RandomTaste;
//! use owp_core::overlay::OverlayBuilder;
//! use owp_graph::generators::erdos_renyi;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let g = erdos_renyi(100, 0.1, &mut StdRng::seed_from_u64(42));
//! let overlay = OverlayBuilder::new(g)
//!     .default_metric(RandomTaste { seed: 7 })
//!     .uniform_quota(4)
//!     .build()
//!     .run(Default::default());
//!
//! assert!(overlay.lid.terminated);                 // Lemma 5
//! println!("mean satisfaction: {:.3}", overlay.report.satisfaction_mean);
//! println!("guaranteed ≥ {:.3} of OPT", overlay.guaranteed_fraction); // Thm 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lid;
#[cfg(test)]
mod lid_oracle;
pub mod lid_reliable;
pub mod metric;
pub mod overlay;
pub mod privacy;

pub use lid::{
    replay_lid_trace, run_lid, run_lid_sync, run_lid_sync_series, LidNode, LidResult,
};
pub use lid_reliable::{run_lid_reliable, ReliableLidNode, DEFAULT_RETRY_INTERVAL};
pub use metric::SuitabilityMetric;
pub use overlay::{Overlay, OverlayBuilder, OverlayNetwork};
pub use privacy::DisclosureReport;
