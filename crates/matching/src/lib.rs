//! # owp-matching — matching algorithms & the satisfaction metric
//!
//! The centralized half of the reproduction of Georgiadis &
//! Papatriantafilou, *Overlays with preferences* (IPDPS 2010):
//!
//! * [`satisfaction`] — the satisfaction metric `S_i` (eq. 1) with its
//!   static/dynamic decomposition (eqs. 4–7); reproduces the paper's
//!   Figure 1 example exactly;
//! * [`numeric`] / [`weights`] — exact rational eq. 9 edge weights with the
//!   identity tie-break giving the strict total order every lemma assumes;
//! * [`order`] — the dense integer edge-rank kernel: the exact order is paid
//!   for once, every hot path thereafter compares `u32` ranks;
//! * [`problem`] / [`bmatching`] — instance bundle and matching result types;
//! * [`lic`](mod@lic) — Algorithm 2 (LIC), the locally-heaviest-edge greedy, with
//!   pluggable selection policies (confluence property-tested);
//! * [`baselines`] — global greedy, random maximal, rank greedy, and
//!   Drake–Hougardy path growing;
//! * [`exact`] — branch & bound optimal solvers for both objectives (the
//!   measured "OPT" of the approximation-ratio experiments), plus a bitmask
//!   DP oracle for one-to-one instances;
//! * [`blossom`] — Edmonds' blossom algorithm (paper reference \[2\]) for
//!   exact maximum-weight one-to-one matching on general graphs in O(n³);
//! * [`flow`] — min-cost-flow exact solver for bipartite instances (an
//!   independent cross-check);
//! * [`stable`] — blocking pairs, better-response dynamics, the acyclicity
//!   test of Gai et al., Gale–Shapley deferred acceptance (reference \[4\])
//!   and phase 1 of Irving–Scott stable fixtures (reference \[7\]) — the
//!   stability-centric alternatives the paper argues against;
//! * [`verify`] — machine-checkable certificates of Lemmas 3 & 4 and of the
//!   ½-approximation structure;
//! * [`bounds`] — the `½(1+1/b)` / `¼(1+1/b)` bound calculators and the
//!   gadget instances that make them tight;
//! * [`metrics`] — the aggregate report rows the experiment tables print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod bmatching;
pub mod blossom;
pub mod bounds;
pub mod csr;
pub mod exact;
pub mod flow;
pub mod lic;
pub mod metrics;
pub mod numeric;
pub mod order;
pub mod problem;
pub mod satisfaction;
pub mod stable;
pub mod verify;
pub mod weights;

pub use bmatching::BMatching;
pub use csr::FixedCsr;
pub use lic::{lic, lic_with_order, SelectionPolicy};
pub use metrics::{matching_totals, MatchingReport};
pub use numeric::Rational;
pub use order::{EdgeOrder, EdgeRank};
pub use problem::Problem;
pub use weights::{EdgeKey, EdgeWeights};
