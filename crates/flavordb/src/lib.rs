#![warn(missing_docs)]

//! # culinaria-flavordb
//!
//! A from-scratch reimplementation of the FlavorDB substrate the paper
//! depends on (Garg et al., *FlavorDB: a database of flavor molecules*,
//! NAR 2018): natural ingredients carrying *flavor profiles* — sets of
//! flavor molecules — organized into the paper's 21 categories, plus the
//! curation machinery the paper describes:
//!
//! * entity removal (29 generic/noisy entities were dropped);
//! * synonym registration (bun → bread, lager → beer, curd → yogurt);
//! * *compound ingredients* whose profile is the pooled union of their
//!   constituents (mayonnaise = oil + egg + lemon juice, "half half" =
//!   milk + cream, bear = black/polar/brown bear);
//! * additives with empty flavor profiles (cooking spray, gelatin, food
//!   coloring, liquid smoke).
//!
//! Since the real FlavorDB web resource is unavailable offline, two
//! sources of data are provided:
//!
//! * [`curated`] — a hand-written fixture embedding every ingredient the
//!   paper names explicitly, used by tests and examples;
//! * [`generator`] — a seeded synthetic generator producing an
//!   ingredient universe at FlavorDB scale (hundreds of ingredients,
//!   thousands of molecules) with realistic profile-size heterogeneity
//!   and within-category profile correlation. `culinaria-datagen` builds
//!   the paper-scale world on top of it.
//!
//! All hot paths use dense interned ids ([`MoleculeId`],
//! [`IngredientId`]) and sorted-slice profiles so profile intersection
//! is O(min(|A|, |B|)).

pub mod artifact;
pub mod category;
pub mod curated;
pub mod db;
pub mod error;
pub mod generator;
pub mod ids;
pub mod ingredient;
pub mod kernel;
pub mod molecule;
pub mod profile;

pub use artifact::{AlignedBytes, ArtifactError, BorrowedFlavorDb, FlavorArtifactBuilder};
pub use category::Category;
pub use db::FlavorDb;
pub use error::{FlavorDbError, Result};
pub use ids::{IngredientId, MoleculeId};
pub use ingredient::Ingredient;
pub use molecule::Molecule;
pub use profile::{BitProfile, FlavorProfile, MoleculeUniverse};
