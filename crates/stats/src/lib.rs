//! Statistical substrate for index-based anytime stream mining.
//!
//! This crate implements every piece of statistical machinery the Bayes tree
//! (Kranen, VLDB 2009) relies on:
//!
//! * multivariate **diagonal Gaussians** ([`gaussian::DiagGaussian`]) and
//!   Gaussian **kernel density estimators** ([`kernel`]) with Silverman's
//!   rule-of-thumb bandwidth ([`bandwidth`]),
//! * **cluster features** `CF = (n, LS, SS)` ([`cluster_feature::ClusterFeature`]),
//!   the additive sufficient statistics stored in every Bayes-tree entry,
//! * **Gaussian mixture models** ([`mixture::GaussianMixture`]),
//! * the **Kullback–Leibler divergence** between Gaussians and the
//!   mixture-to-mixture distance of Goldberger & Roweis ([`kl`]),
//! * the **EM algorithm** and k-means(++) ([`em`]), and
//! * the **Goldberger mixture-reduction** (regroup / refit) used by the
//!   Goldberger bulk load ([`goldberger`]).
//!
//! All vectors are plain `&[f64]` / `Vec<f64>`; the crate has no linear-algebra
//! dependency because the paper's models are diagonal (axis-parallel)
//! throughout.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bandwidth;
pub mod block;
pub mod cluster_feature;
pub mod em;
pub mod gaussian;
pub mod goldberger;
pub mod kernel;
pub mod kl;
pub mod mixture;
pub mod simd;
pub mod summary;
pub mod vector;

pub use bandwidth::silverman_bandwidth;
pub use block::{BlockCacheSlot, BlockScratch, GatheredBlock, ScoreLanes, SummaryBlock};
pub use cluster_feature::ClusterFeature;
pub use em::{EmConfig, EmResult, KMeans, KMeansConfig};
pub use gaussian::DiagGaussian;
pub use goldberger::{GoldbergerConfig, GoldbergerResult};
pub use kernel::{GaussianKernel, Kernel, KernelBandwidth};
pub use kl::{kl_diag_gaussian, mixture_distance};
pub use mixture::{GaussianMixture, WeightedComponent};
pub use summary::RunningStats;

/// Smallest variance allowed anywhere in the crate.
///
/// Variances computed from cluster features can collapse to zero when a
/// subtree contains a single (or repeated) observation; evaluating a Gaussian
/// with zero variance would produce infinities.  Every code path that turns a
/// sum of squares into a variance clamps to this floor.
pub const VARIANCE_FLOOR: f64 = 1e-9;

/// Natural logarithm of `2 * pi`, used by log-density computations.
pub const LN_2PI: f64 = 1.837_877_066_409_345_5;
