//! Food-design application the paper motivates: generate *novel flavor
//! pairings* — ingredient pairs with high flavor-compound overlap that
//! a cuisine rarely uses together — and suggest recipe tweaks.
//!
//! For a chosen cuisine, every ingredient pair is scored by
//! `overlap / (1 + co-occurrence)`: high overlap (the food-pairing
//! hypothesis says they should taste well together) but low observed
//! co-usage (so the pairing is actually novel for that cuisine).
//!
//! Opens the zero-copy CFDB2/CRDB2 artifacts when a data directory
//! holds them — reusing the precomputed overlap-triangle section that
//! `culinaria generate` attaches for every populated region — and
//! falls back to generating a small world otherwise.
//!
//! ```sh
//! cargo run --release --example novel_pairings
//! ```

use std::path::Path;

use culinaria::analysis::pairing::{novel_pairings, CoocTriangle, OverlapCache};
use culinaria::analysis::{CuisineView, FlavorViewRef};
use culinaria::datagen::{generate_world, WorldConfig};
use culinaria::flavordb::{artifact as flavor_artifact, AlignedBytes, IngredientId};
use culinaria::obs::Metrics;
use culinaria::recipedb::{artifact as recipe_artifact, Region};

/// The region's overlap cache: the artifact's precomputed section when
/// it matches the cuisine pool, a fresh kernel build otherwise.
fn overlap_cache(flavor: FlavorViewRef<'_>, region: Region, pool: &[IngredientId]) -> OverlapCache {
    match flavor.overlap_section(region.code()) {
        Some((sec_pool, tri)) if sec_pool == pool => {
            println!("(reusing the artifact's {} overlap section)", region.code());
            OverlapCache::from_parts(pool, tri.to_vec()).expect("section triangle shape")
        }
        _ => OverlapCache::build(flavor, pool, 0, &Metrics::disabled()).expect("usable pool"),
    }
}

fn run(flavor: FlavorViewRef<'_>, cuisine: &CuisineView<'_>, cooc: &CoocTriangle) {
    let region = cuisine.region();
    let pool = cuisine.ingredient_set();
    let cache = overlap_cache(flavor, region, &pool);

    println!(
        "novel pairing candidates for {} ({} ingredients, {} recipes)\n",
        region.name(),
        pool.len(),
        cuisine.n_recipes()
    );

    // Every overlapping pair, most novel first: the signature list
    // below re-sorts all of them.
    let mut candidates = novel_pairings(&cache, cooc, usize::MAX);

    let name = |idx: u32| flavor.ingredient_name(pool[idx as usize]).expect("live id");
    println!("{:>8} {:>8} {:>6}   pair", "novelty", "overlap", "cooc");
    for p in candidates.iter().take(15) {
        println!(
            "{:>8.1} {:>8} {:>6}   {} + {}",
            p.novelty,
            p.overlap,
            p.cooc,
            name(p.i),
            name(p.j)
        );
    }

    // The flip side: the cuisine's signature pairings (high overlap AND
    // high co-occurrence) — its culinary fingerprint.
    candidates.sort_by_key(|p| std::cmp::Reverse(u64::from(p.overlap) * u64::from(p.cooc)));
    println!("\nsignature pairings (culinary fingerprint):");
    for p in candidates.iter().take(5) {
        println!(
            "  {} + {}  (overlap {}, used together {}×)",
            name(p.i),
            name(p.j),
            p.overlap,
            p.cooc
        );
    }
}

fn main() {
    let dir = std::env::var("CULINARIA_DATA").unwrap_or_else(|_| "culinaria-data".to_string());
    let dir = Path::new(&dir);
    let region = Region::Italy;

    // Zero-copy path: validate once, borrow everything.
    if let (Ok(fbuf), Ok(rbuf)) = (
        AlignedBytes::read_file(dir.join("flavor.cfdb2")),
        AlignedBytes::read_file(dir.join("recipes.crdb2")),
    ) {
        match (
            flavor_artifact::open(fbuf.as_slice()),
            recipe_artifact::open(rbuf.as_slice()),
        ) {
            (Ok(flavor), Ok(recipes)) => {
                println!("opened zero-copy artifacts in {}", dir.display());
                let cuisine = CuisineView::from(recipes.cuisine(region));
                let cooc = CoocTriangle::build(&recipes);
                run(FlavorViewRef::Artifact(&flavor), &cuisine, &cooc);
                return;
            }
            (f, r) => {
                for err in [f.err(), r.err()].into_iter().flatten() {
                    eprintln!("ignoring the artifacts: {err}");
                }
            }
        }
    }

    let world = generate_world(&WorldConfig::small());
    let cuisine = CuisineView::from(world.recipes.cuisine(region));
    let cooc = CoocTriangle::build(&world.recipes);
    run(FlavorViewRef::Owned(&world.flavor), &cuisine, &cooc);
}
