#![warn(missing_docs)]

//! # culinaria-recipedb
//!
//! The recipe-store substrate: the paper's "A Database of World
//! Cuisines" (45,772 recipes, 22 geo-cultural regions) as a typed,
//! indexed, queryable store.
//!
//! * [`region`] — the 22 regions with the paper's Table 1 statistics
//!   embedded as calibration constants, plus each region's Fig 4
//!   pairing regime (uniform vs contrasting);
//! * [`recipe`] — recipes as unordered ingredient sets (exactly the
//!   abstraction the food-pairing analysis consumes);
//! * [`store`] — the indexed store: per-region partitions and an
//!   inverted ingredient → recipes index;
//! * [`cuisine`] — a borrowed per-region view with ingredient sets,
//!   frequency tables and size distributions;
//! * [`import`] — the raw-text import pipeline: ingredient phrases →
//!   alias resolution (`culinaria-text`) → ingredient ids
//!   (`culinaria-flavordb`), with per-import curation statistics;
//! * [`artifact`] — CRDB2, the zero-copy on-disk form of a store;
//! * [`io`] — a byte image for store-equality checks, and CSV export;
//! * [`wal`] — the append-only, checksummed import log with
//!   deterministic replay (streaming ingestion);
//! * [`segment`] — the durable on-disk form of the log: size-rotated
//!   CWAL1 segment files with an atomically-renamed manifest,
//!   configurable fsync policy, and torn-tail recovery.

pub mod artifact;
pub mod cuisine;
pub mod error;
pub mod import;
pub mod io;
pub mod query;
pub mod recipe;
pub mod region;
pub mod segment;
pub mod store;
pub mod wal;

pub use artifact::{BorrowedCuisine, BorrowedRecipeDb, RecipeArtifactBuilder};
pub use cuisine::Cuisine;
pub use error::{RecipeDbError, Result};
pub use import::{ImportFailureReason, ImportStats, Importer, RawRecipe, RecipeFailure};
pub use recipe::{Recipe, RecipeId, Source};
pub use region::Region;
pub use segment::{FsyncPolicy, RecoveryReport, SegmentedLog};
pub use store::RecipeStore;
pub use wal::{IngestLog, WalRecord};
