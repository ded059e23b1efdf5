//! Stable-fixtures (generalized stable roommates) machinery.
//!
//! The paper reframes overlay construction away from *stability* — which
//! Gai et al. showed is only guaranteed for acyclic preference systems —
//! toward *satisfaction maximization*. This module supplies the stability
//! side of that comparison:
//!
//! * [`blocking`] — blocking-pair detection for b-matchings with
//!   preferences (the stability criterion of the stable fixtures problem);
//! * [`dynamics`] — better-response dynamics (iterated blocking-pair
//!   resolution), the natural decentralized process that converges for
//!   acyclic systems and may cycle otherwise;
//! * [`acyclic`] — the acyclicity test on the preference system, and a
//!   generator of cyclic gadgets;
//! * [`gale_shapley`](mod@gale_shapley) — deferred acceptance on bipartite instances
//!   (reference \[4\]; always stable there);
//! * [`fixtures`] — phase 1 of Irving & Scott's stable fixtures algorithm
//!   (reference \[7\]; proposal/deletion reduction, decides aligned and many
//!   random instances outright).

pub mod acyclic;
pub mod blocking;
pub mod dynamics;
pub mod fixtures;
pub mod gale_shapley;

pub use acyclic::{is_acyclic, rps_gadget};
pub use blocking::{blocking_pairs, is_stable};
pub use dynamics::{better_response, DynamicsOutcome};
pub use fixtures::{phase1, Phase1Table};
pub use gale_shapley::gale_shapley;
