//! A complete per-cuisine analytical report — the multi-level
//! investigation of Fig 1 for one region: composition, size statistics,
//! popularity scaling, pairing z-scores, and key ingredients.
//!
//! Artifact-first like `quickstart`: opens the zero-copy CFDB2/CRDB2
//! artifacts when the data directory holds them (materializing owned
//! databases — the round-trip is lossless, so every number below is
//! identical to the generate path over the same world), and generates
//! a fresh world otherwise.
//!
//! ```sh
//! cargo run --release --example cuisine_report -- INSC
//! ```
//! (any Table 1 region code or name; defaults to INSC)

use std::path::Path;

use culinaria::analysis::composition::category_shares;
use culinaria::analysis::contribution::top_contributors;
use culinaria::analysis::popularity::popularity_profile;
use culinaria::analysis::size_dist::size_histogram;
use culinaria::analysis::z_analysis::analyze_cuisine;
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::flavordb::{artifact as flavor_artifact, AlignedBytes, Category};
use culinaria::recipedb::{artifact as recipe_artifact, Region};

/// World loading: CFDB2/CRDB2 artifacts, else a generated world.
/// Artifacts are materialized into owned databases so the report
/// pipeline below runs unchanged — and prints unchanged numbers —
/// whatever the source.
fn load_world(dir: &Path) -> (World, String) {
    if let (Ok(fbuf), Ok(rbuf)) = (
        AlignedBytes::read_file(dir.join("flavor.cfdb2")),
        AlignedBytes::read_file(dir.join("recipes.crdb2")),
    ) {
        let opened = flavor_artifact::open(fbuf.as_slice())
            .map_err(|e| e.to_string())
            .and_then(|f| {
                let r = recipe_artifact::open(rbuf.as_slice()).map_err(|e| e.to_string())?;
                Ok((
                    f.to_flavor_db().map_err(|e| e.to_string())?,
                    r.to_recipe_store().map_err(|e| e.to_string())?,
                ))
            });
        match opened {
            Ok((flavor, recipes)) => {
                return (
                    World { flavor, recipes },
                    format!("v2 artifacts in {}", dir.display()),
                );
            }
            Err(e) => eprintln!("ignoring v2 artifacts: {e}"),
        }
    }
    (
        generate_world(&WorldConfig::small()),
        "generated, WorldConfig::small()".to_owned(),
    )
}

fn main() {
    let region: Region = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(Region::IndianSubcontinent);

    let dir = std::env::var("CULINARIA_DATA").unwrap_or_else(|_| "culinaria-data".to_string());
    let (world, source) = load_world(Path::new(&dir));
    println!("world: {source}");
    let cuisine = world.recipes.cuisine(region);

    println!("===== {} ({}) =====", region.name(), region.code());
    println!(
        "{} recipes, {} distinct ingredients",
        cuisine.n_recipes(),
        cuisine.ingredient_set().len()
    );

    // Level 1: recipes — size statistics.
    let sizes = size_histogram(&cuisine);
    println!(
        "\nrecipe sizes: mean {:.2}, mode {}, range {}..{}",
        sizes.mean().expect("populated cuisine"),
        sizes.mode().expect("populated cuisine"),
        sizes.min().expect("populated cuisine"),
        sizes.max().expect("populated cuisine"),
    );

    // Level 2: ingredients — composition and popularity.
    let shares = category_shares(&world.flavor, &cuisine);
    let mut ranked: Vec<(Category, f64)> = Category::ALL
        .iter()
        .map(|&c| (c, shares[c.index()]))
        .filter(|&(_, s)| s > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop categories by usage share:");
    for (cat, share) in ranked.iter().take(5) {
        println!("  {:20} {:.1}%", cat.name(), share * 100.0);
    }

    let pop = popularity_profile(&cuisine);
    println!(
        "\npopularity scaling: zipf exponent {:.2}; top-10 ingredients cover {:.0}% of usage",
        pop.zipf_exponent.unwrap_or(f64::NAN),
        pop.cumulative_share.get(9).copied().unwrap_or(1.0) * 100.0
    );

    // Level 3: flavor molecules — pairing analysis.
    let analysis = analyze_cuisine(
        &world.flavor,
        &cuisine,
        &NullModel::ALL,
        &MonteCarloConfig::quick(20_000),
    )
    .expect("populated cuisine");
    println!(
        "\nfood pairing: observed <Ns> = {:.3}",
        analysis.observed_mean
    );
    for c in &analysis.comparisons {
        println!(
            "  vs {:22} z = {:+9.1}",
            c.model.name(),
            c.z.unwrap_or(f64::NAN)
        );
    }
    println!("verdict: {} food pairing", analysis.verdict());

    // Key ingredients (Fig 5 for this region).
    let positive = analysis.z_random().unwrap_or(0.0) > 0.0;
    let top = top_contributors(&world.flavor, &cuisine, 3, positive);
    println!(
        "\ntop 3 ingredients driving the {} pairing:",
        if positive { "positive" } else { "negative" }
    );
    for c in top {
        println!(
            "  {:28} {:+.2}% on removal ({} recipes)",
            c.name, c.percent_change, c.n_recipes
        );
    }
}
