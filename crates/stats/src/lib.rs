#![warn(missing_docs)]

//! # culinaria-stats
//!
//! The statistics substrate for the `culinaria` workspace. The paper's
//! analyses need a small but complete statistical toolkit — descriptive
//! statistics, streaming accumulators, z-scores against Monte-Carlo null
//! models, weighted sampling for the frequency-preserving models,
//! histograms for recipe-size distributions, and discrete power-law fits
//! for ingredient-popularity scaling — none of which we take from
//! external crates (the Rust statistical ecosystem is thin; everything
//! here is implemented from scratch and unit-tested against known
//! values).
//!
//! ## Module map
//!
//! * [`descriptive`] — mean, variance, quantiles, five-number summaries
//! * [`running`] — Welford streaming accumulator (used by the Monte-Carlo
//!   engine so 100,000 sampled recipes never need to be stored)
//! * [`histogram`] — integer histograms and cumulative distributions
//! * [`zscore`] — z-scores of an observed mean against a null ensemble
//! * [`sampling`] — Walker alias method, linear-CDF sampling (ablation
//!   baseline), uniform choice, and partial Fisher–Yates draws
//! * [`powerlaw`] — discrete power-law MLE and rank-frequency utilities
//! * [`regression`] — ordinary least squares on (x, y) pairs
//! * [`chi2`] — Pearson's chi-squared goodness-of-fit test (Fig 2's
//!   composition deviations)
//! * [`rng`] — deterministic seed derivation for parallel PRNG streams
//! * [`pool`] — shared worker pool with a deterministic, statically
//!   indexed task queue (results always in task order) and a fallible
//!   [`pool::try_run_observed`] entry point with panic isolation
//! * [`fault`] — deterministic fault-injection plans, scoped to the
//!   thread that installs them and the pool workers its runs start
//! * [`tile`] — cache-blocking geometry for triangular pair sweeps
//!   (thread-count-independent, so tiled merges stay deterministic)

pub mod chi2;
pub mod descriptive;
pub mod fault;
pub mod histogram;
pub mod pool;
pub mod powerlaw;
pub mod regression;
pub mod rng;
pub mod running;
pub mod sampling;
pub mod tile;
pub mod zscore;

pub use descriptive::{mean, median, quantile, std_dev, variance, Summary};
pub use histogram::{CumulativeDistribution, IntHistogram};
pub use pool::effective_threads;
pub use running::RunningStats;
pub use sampling::{LinearCdfSampler, WeightedAliasSampler};
pub use zscore::{z_score, z_score_of_mean, NullEnsemble};
