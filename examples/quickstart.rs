//! Quickstart: open a world, score a cuisine, compare it against a
//! randomized null, and print the verdict.
//!
//! Opens the zero-copy CFDB2/CRDB2 artifacts when a data directory
//! holds them (`culinaria generate` writes `flavor.cfdb2` +
//! `recipes.crdb2`), and generates a fresh world otherwise. Both paths
//! produce bit-identical analyses over the same world.
//!
//! ```sh
//! cargo run --release --example quickstart            # generates
//! cargo run --release -- generate --out culinaria-data
//! cargo run --release --example quickstart            # opens artifacts
//! ```

use std::path::Path;

use culinaria::analysis::z_analysis::analyze_cuisine;
use culinaria::analysis::{CuisineView, FlavorViewRef, MonteCarloConfig, NullModel};
use culinaria::datagen::{generate_world, WorldConfig};
use culinaria::flavordb::{artifact as flavor_artifact, AlignedBytes};
use culinaria::recipedb::{artifact as recipe_artifact, Region};

fn report(flavor: FlavorViewRef<'_>, cuisine: CuisineView<'_>, mc: &MonteCarloConfig) {
    let region = cuisine.region();
    let analysis = analyze_cuisine(
        flavor,
        cuisine,
        &[NullModel::Random, NullModel::Frequency],
        mc,
    )
    .expect("populated cuisine");
    println!(
        "\n{} ({} recipes, {} ingredients)",
        region.name(),
        analysis.n_recipes,
        analysis.n_ingredients
    );
    println!(
        "  observed mean flavor sharing <Ns> = {:.3}",
        analysis.observed_mean
    );
    for c in &analysis.comparisons {
        println!(
            "  vs {:22} null mean {:.3}  ->  z = {:+.1}",
            c.model.name(),
            c.null.mean,
            c.z.unwrap_or(f64::NAN)
        );
    }
    println!("  verdict: {} food pairing", analysis.verdict());
}

fn main() {
    let dir = std::env::var("CULINARIA_DATA").unwrap_or_else(|_| "culinaria-data".to_string());
    let dir = Path::new(&dir);
    let mc = MonteCarloConfig::quick(20_000);
    let regions = [Region::Italy, Region::Japan];

    // Zero-copy path: validate the artifacts once, borrow everything.
    if let (Ok(fbuf), Ok(rbuf)) = (
        AlignedBytes::read_file(dir.join("flavor.cfdb2")),
        AlignedBytes::read_file(dir.join("recipes.crdb2")),
    ) {
        match (
            flavor_artifact::open(fbuf.as_slice()),
            recipe_artifact::open(rbuf.as_slice()),
        ) {
            (Ok(flavor), Ok(recipes)) => {
                println!(
                    "world (zero-copy artifacts in {}): {} recipes across {} regions, \
                     {} ingredients",
                    dir.display(),
                    recipes.n_recipes(),
                    recipes.regions().len(),
                    flavor.n_ingredients()
                );
                for region in regions {
                    report(
                        FlavorViewRef::Artifact(&flavor),
                        recipes.cuisine(region).into(),
                        &mc,
                    );
                }
                return;
            }
            (f, r) => {
                for err in [f.err(), r.err()].into_iter().flatten() {
                    eprintln!("ignoring the artifacts: {err}");
                }
            }
        }
    }

    // Owned fallback: generate a small world (every region present,
    // ~4.5k recipes at 10% scale).
    let world = generate_world(&WorldConfig::small());
    println!(
        "world: {} recipes across {} regions, {} ingredients",
        world.recipes.n_recipes(),
        world.recipes.regions().len(),
        world.flavor.n_ingredients()
    );
    for region in regions {
        report(
            FlavorViewRef::Owned(&world.flavor),
            world.recipes.cuisine(region).into(),
            &mc,
        );
    }
}
