#![warn(missing_docs)]

//! # culinaria-core
//!
//! The paper's primary contribution: the multi-level food-pairing
//! analysis framework over recipes, ingredients, and flavor molecules.
//!
//! * [`pairing`] — the flavor-sharing score
//!   `N_s(R) = 2/(n_R(n_R−1)) Σ_{i<j} |F_i ∩ F_j|` and a pairwise
//!   overlap cache that makes cuisine-scale scoring cheap;
//! * [`null_models`] — the four randomized-cuisine models of §IV.B
//!   (Random, Ingredient Frequency, Ingredient Category,
//!   Frequency + Category), each preserving the cuisine's ingredient
//!   set and recipe-size distribution;
//! * [`monte_carlo`] — the 100,000-recipe Monte-Carlo engine, parallel
//!   via the shared worker pool with per-block deterministic seeds;
//! * [`z_analysis`] — z-scores of each cuisine against each null model
//!   (Fig 4) and the full 22-region analysis driver;
//! * [`contribution`] — per-ingredient contribution to a cuisine's
//!   pairing (% change of ⟨N_s⟩ on removal; Fig 5);
//! * [`composition`] — category-composition heatmap data (Fig 2);
//! * [`size_dist`] — recipe-size distributions (Fig 3a);
//! * [`popularity`] — ingredient rank-frequency curves (Fig 3b);
//! * [`ntuple`] — the paper's proposed higher-order extension: flavor
//!   sharing over ingredient triples and quadruples;
//! * [`evolution`] — the copy-mutate culinary evolution model the
//!   conclusions cite (Jain & Bagler 2018) as the generative
//!   explanation for the observed scaling;
//! * [`robustness`] — the §V open question "how robust are the
//!   patterns?": recipe subsampling and flavor-profile dilution;
//! * [`generation`] — novel-recipe generation and recipe tweaking, the
//!   applications the abstract motivates;
//! * [`network`] — the Ahn-style flavor network (nodes = ingredients,
//!   edge weights = shared compounds) with backbones, hubs, and
//!   clustering statistics;
//! * [`streaming`] — incrementally maintained frequency tables,
//!   category compositions, overlap caches, and running pairing stats
//!   for streaming ingestion, bit-identical to the batch recomputes.

pub mod classify;
pub mod composition;
pub mod contribution;
pub mod cooking;
pub mod error;
pub mod evolution;
pub mod fingerprint;
pub mod generation;
pub mod monte_carlo;
pub mod network;
pub mod ntuple;
pub mod null_models;
pub mod pairing;
pub mod popularity;
pub mod robustness;
pub mod size_dist;
pub mod streaming;
pub mod taste;
pub mod view;
pub mod z_analysis;

pub use error::{FailureCause, StageFailure};
pub use monte_carlo::MonteCarloConfig;
pub use null_models::NullModel;
pub use pairing::{
    mean_cuisine_score, recipe_pairing_score, recipe_pairing_score_view, OverlapCache,
};
pub use streaming::{RegionStream, StreamState};
pub use view::{CuisineView, FlavorViewRef, RecipesViewRef};
pub use z_analysis::{analyze_cuisine, analyze_world_view, region_overlap_cache, CuisineAnalysis};
