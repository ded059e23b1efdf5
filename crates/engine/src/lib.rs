//! # owp-engine — the event-driven dynamic overlay engine
//!
//! The paper's conclusion leaves dynamicity ("joins/leaves of peers") as
//! future work and conjectures the same greedy strategy extends to it. This
//! crate is that extension, built so the conjecture is *checkable*: an
//! [`Engine`] maintains the **exact** locally-heaviest-edge matching (the
//! unique greedy/LIC outcome under the strict `EdgeKey` order) while a
//! stream of [`EngineEvent`]s mutates the instance underneath it, and it
//! does so by repairing only a bounded *dirty region* around each event
//! instead of recomputing from scratch.
//!
//! ## The model: a universe with toggled membership
//!
//! A [`DynamicProblem`] wraps one fixed **universe** instance — the graph
//! of every connection that could ever exist, with preference lists and
//! quotas over full universe neighbourhoods. Events toggle membership:
//! nodes join and leave ([`EngineEvent::NodeJoin`] /
//! [`EngineEvent::NodeLeave`]), universe edges appear and disappear
//! ([`EngineEvent::EdgeAdd`] / [`EngineEvent::EdgeRemove`]). An edge is
//! *alive* iff it is present and both endpoints are active. Two event
//! kinds mutate the instance data itself — [`EngineEvent::QuotaChange`]
//! and [`EngineEvent::PreferenceUpdate`] — and because eq. 9 weights
//! depend on both the quota `b_i` and the ranks `R_i(·)`, these re-derive
//! the weights of the target's incident edges and splice them through the
//! integer rank kernel incrementally (`EdgeOrder::update_keys`).
//!
//! ## The invariant: certified repair
//!
//! After every batch the engine's matching equals, **edge for edge**, what
//! a from-scratch LIC run computes on the current alive sub-instance
//! ([`Engine::certify`], and the `engine_equivalence` suite at the
//! workspace root randomizes this over hundreds of event streams). The
//! repair exploits the confluence structure the paper's Lemmas 3–6 rest
//! on: the greedy decision of an edge depends only on *heavier selected*
//! edges at its endpoints, so a min-heap over final ranks, seeded with the
//! edges an event perturbs and expanded only toward strictly lighter
//! incident edges on each flip, visits every edge whose decision can have
//! changed — and each at most once per batch (see `DESIGN.md` §8).
//!
//! Each batch returns an [`Epoch`]-stamped [`DeltaReport`] (edges
//! added/removed, dirty-region size, ΔΣS).
//!
//! ## The black box: divergence forensics
//!
//! The engine also flies with one always-on, bounded recorder — a
//! batch-history ring backed by a shadow checkpoint, a full
//! [`DynamicProblem`] copy — so a certification failure or auditor
//! violation can be frozen into a self-contained, re-executable
//! [`ForensicBundle`] with a delta-debugged minimal reproducer
//! ([`forensics`], DESIGN.md §12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod engine;
pub mod event;
pub mod forensics;
pub mod report;
pub mod scratch;

pub use dynamic::DynamicProblem;
pub use engine::{Engine, DEFAULT_HISTORY_CAPACITY};
pub use event::{EngineError, EngineEvent};
pub use forensics::{
    normalize_violation, replay, shrink, ForensicBundle, InjectedFault, OriginSnapshot,
    RecordedStep, ShrinkResult, StepRing,
};
pub use report::{DeltaReport, Epoch};
