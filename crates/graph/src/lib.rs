//! # owp-graph — graph substrate for *Overlays with preferences*
//!
//! This crate provides everything the matching algorithms of
//! Georgiadis & Papatriantafilou (IPDPS 2010) assume to exist:
//!
//! * an undirected simple [`Graph`] with O(1) edge-id lookup and CSR-style
//!   neighbour iteration ([`graph`], [`builder`]);
//! * random and structured topology [`generators`] (Erdős–Rényi, G(n,m),
//!   Barabási–Albert, Watts–Strogatz, random geometric, random regular,
//!   ring/path/star/grid/complete) so experiments can sweep over the overlay
//!   shapes the paper motivates;
//! * per-node [`preferences`] — the private preference lists `L_i` with rank
//!   function `R_i(j) ∈ {0, …, |L_i|−1}` (0 = most desirable neighbour);
//! * per-node connection [`quota`]s `b_i` (the "b" of the b-matching);
//! * an edge-list [`io`] format for reproducibility.
//!
//! The crate is dependency-light by design: the whole substrate is built from
//! scratch (no `petgraph`), per the reproduction mandate in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod generators;
pub mod graph;
pub mod io;
pub mod preferences;
pub mod quota;

pub use builder::GraphBuilder;
pub use graph::{EdgeId, Graph, NodeId};
pub use preferences::{PreferenceTable, Rank};
pub use quota::Quotas;
