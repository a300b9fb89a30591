//! Food design end to end — the applications the paper's abstract
//! promises: "food design, generating novel flavor pairings and
//! tweaking recipes". Combines the recipe generator, the taste
//! enumerator, and the quantity-weighted pairing score.
//!
//! Artifact-first like `quickstart`: opens the zero-copy CFDB2/CRDB2
//! artifacts when the data directory holds them (materialized into
//! owned databases — the round-trip is lossless), and otherwise seeds
//! a small curated cuisine from free text (the fully annotated
//! database, so the taste step has descriptors to enumerate).
//!
//! ```sh
//! cargo run --release --example food_design
//! ```

use std::path::Path;

use culinaria::analysis::generation::{Objective, RecipeGenerator};
use culinaria::analysis::pairing::weighted_recipe_pairing_score;
use culinaria::analysis::taste::recipe_taste;
use culinaria::datagen::World;
use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::{artifact as flavor_artifact, AlignedBytes};
use culinaria::recipedb::artifact as recipe_artifact;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::{RecipeStore, Region, Source};

/// Curated fallback: a small Italian cuisine imported from free text
/// against the fully annotated curated flavor database.
fn curated_world() -> World {
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut store = RecipeStore::new();
    let corpus = [
        (
            "marinara",
            vec!["3 tomatoes", "2 cloves garlic", "2 tbsp olive oil", "basil"],
        ),
        (
            "caprese",
            vec!["2 tomatoes", "cheese", "basil", "olive oil"],
        ),
        (
            "herb roast",
            vec!["1 pound chicken", "rosemary", "thyme", "olive oil", "lemon"],
        ),
        (
            "risotto",
            vec!["1 cup rice", "butter", "cheese", "wine", "onion"],
        ),
        (
            "panzanella",
            vec!["bread", "tomatoes", "olive oil", "basil", "onion"],
        ),
        ("granita", vec!["lemon juice", "sugar", "mint"]),
    ];
    let raw: Vec<RawRecipe> = corpus
        .iter()
        .map(|(name, lines)| RawRecipe {
            name: (*name).to_owned(),
            region: Region::Italy,
            source: Source::Epicurious,
            ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
        })
        .collect();
    importer
        .import(&db, &mut store, &raw)
        .expect("import succeeds");
    World {
        flavor: db,
        recipes: store,
    }
}

/// World loading: CFDB2/CRDB2 artifacts, else the curated corpus.
/// The design pipeline below runs unchanged over either.
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
                    format!("artifacts in {}", dir.display()),
                );
            }
            Err(e) => eprintln!("ignoring the artifacts: {e}"),
        }
    }
    (
        curated_world(),
        "curated corpus (free-text import)".to_owned(),
    )
}

fn main() {
    let dir = std::env::var("CULINARIA_DATA").unwrap_or_else(|_| "culinaria-data".to_string());
    let (world, source) = load_world(Path::new(&dir));
    println!("world: {source}");
    let cuisine = world.recipes.cuisine(Region::Italy);
    assert!(
        cuisine.n_recipes() > 0,
        "the Italian cuisine is empty — regenerate the dataset"
    );

    // 1. Generate a novel recipe that maximizes flavor sharing.
    let generator = RecipeGenerator::new(&world.flavor, &cuisine, usize::MAX);
    let novel = generator
        .generate_recipe(5, Objective::MaximizeSharing, 0)
        .expect("pool is large enough");
    let names: Vec<&str> = novel
        .ingredients
        .iter()
        .map(|&i| generator.name(i))
        .collect();
    println!("generated recipe (maximize sharing, Ns = {:.2}):", novel.ns);
    println!("  {}", names.join(", "));
    let taste = recipe_taste(&world.flavor, &novel.ingredients);
    let dominant: Vec<String> = taste
        .dominant(4)
        .into_iter()
        .map(|(d, s)| format!("{d} {:.0}%", s * 100.0))
        .collect();
    if dominant.is_empty() {
        // Generated worlds carry no taste annotations; only the
        // curated database can predict a taste profile.
        println!("  predicted taste: (no taste descriptors in this world)");
    } else {
        println!("  predicted taste: {}", dominant.join(", "));
    }

    // 2. Tweak an existing recipe toward stronger pairing.
    let target = cuisine.recipes()[0];
    println!("\ntweaking '{}' toward stronger pairing:", target.name);
    match generator.suggest_swap(target.ingredients(), Objective::MaximizeSharing) {
        Some((improved, removed, added)) => {
            println!(
                "  swap {} -> {}  (Ns {:.2} -> {:.2})",
                world.flavor.ingredient(removed).expect("live id").name,
                world.flavor.ingredient(added).expect("live id").name,
                culinaria::analysis::pairing::recipe_pairing_score(
                    &world.flavor,
                    target.ingredients()
                ),
                improved.ns
            );
        }
        None => println!("  already optimal within the cuisine pool"),
    }

    // 3. Quantity-aware scoring: the same recipe, dominated by its
    //    first ingredient vs balanced amounts. Weights come from a
    //    fixed schedule so the demo is identical on every data path.
    let ids = target.ingredients();
    let schedule = [400.0, 30.0, 10.0, 5.0];
    let amounts: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, schedule.get(i).copied().unwrap_or(5.0)))
        .collect();
    let w = weighted_recipe_pairing_score(&world.flavor, &amounts);
    let flat: Vec<_> = ids.iter().map(|&id| (id, 1.0)).collect();
    let u = weighted_recipe_pairing_score(&world.flavor, &flat);
    println!(
        "\nquantity-aware '{}': weighted Ns {w:.2} vs unweighted {u:.2}",
        target.name
    );
    println!("(the first ingredient dominates by mass, so its pairs dominate the score)");
}
