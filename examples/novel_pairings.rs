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

use std::collections::HashMap;
use std::path::Path;

use culinaria::analysis::pairing::OverlapCache;
use culinaria::analysis::{CuisineView, FlavorViewRef};
use culinaria::datagen::{generate_world, WorldConfig};
use culinaria::flavordb::{artifact as flavor_artifact, AlignedBytes, IngredientId};
use culinaria::obs::Metrics;
use culinaria::recipedb::{artifact as recipe_artifact, RecipeId, Region};

/// Upper-triangle index for `i < j` over an `n`-wide pool.
fn tri_index(n: usize, i: usize, j: usize) -> usize {
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Store-wide co-occurrence counts for every pool pair, as one pass
/// over all recipe ingredient lists (works for both representations —
/// no inverted index required).
fn cooc_triangle<'r>(
    pool: &[IngredientId],
    recipes: impl Iterator<Item = &'r [IngredientId]>,
) -> Vec<u64> {
    let pos: HashMap<IngredientId, usize> =
        pool.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut tri = vec![0u64; pool.len() * pool.len().saturating_sub(1) / 2];
    let mut members = Vec::new();
    for ings in recipes {
        members.clear();
        members.extend(ings.iter().filter_map(|id| pos.get(id).copied()));
        members.sort_unstable();
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                tri[tri_index(pool.len(), i, j)] += 1;
            }
        }
    }
    tri
}

/// The region's overlap cache: the artifact's precomputed section when
/// it matches the cuisine pool, a fresh kernel build otherwise.
fn overlap_cache(flavor: FlavorViewRef<'_>, region: Region, pool: &[IngredientId]) -> OverlapCache {
    match flavor.overlap_section(region.code()) {
        Some((sec_pool, tri)) if sec_pool == pool => {
            println!("(reusing the artifact's {} overlap section)", region.code());
            OverlapCache::from_parts(pool, tri.to_vec()).expect("section triangle shape")
        }
        _ => OverlapCache::try_build_view_observed(flavor, pool, 0, &Metrics::disabled())
            .expect("usable pool"),
    }
}

fn run(flavor: FlavorViewRef<'_>, cuisine: &CuisineView<'_>, cooc: &[u64]) {
    let region = cuisine.region();
    let pool = cuisine.ingredient_set();
    let cache = overlap_cache(flavor, region, &pool);

    println!(
        "novel pairing candidates for {} ({} ingredients, {} recipes)\n",
        region.name(),
        pool.len(),
        cuisine.n_recipes()
    );

    let mut candidates: Vec<(f64, usize, u64, usize, usize)> = Vec::new();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let overlap = cache.overlap(i as u32, j as u32) as usize;
            if overlap == 0 {
                continue;
            }
            let cooc = cooc[tri_index(pool.len(), i, j)];
            let novelty = overlap as f64 / (1.0 + cooc as f64);
            candidates.push((novelty, overlap, cooc, i, j));
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));

    let name = |idx: usize| flavor.ingredient_name(pool[idx]).expect("live id");
    println!("{:>8} {:>8} {:>6}   pair", "novelty", "overlap", "cooc");
    for &(novelty, overlap, cooc, i, j) in candidates.iter().take(15) {
        println!(
            "{novelty:>8.1} {overlap:>8} {cooc:>6}   {} + {}",
            name(i),
            name(j)
        );
    }

    // The flip side: the cuisine's signature pairings (high overlap AND
    // high co-occurrence) — its culinary fingerprint.
    candidates.sort_by_key(|&(_, overlap, cooc, _, _)| std::cmp::Reverse(overlap as u64 * cooc));
    println!("\nsignature pairings (culinary fingerprint):");
    for &(_, overlap, cooc, i, j) in candidates.iter().take(5) {
        println!(
            "  {} + {}  (overlap {overlap}, used together {cooc}×)",
            name(i),
            name(j)
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
        if let (Ok(flavor), Ok(recipes)) = (
            flavor_artifact::open(fbuf.as_slice()),
            recipe_artifact::open(rbuf.as_slice()),
        ) {
            println!("opened zero-copy artifacts in {}", dir.display());
            let cuisine = CuisineView::from(recipes.cuisine(region));
            let cooc = cooc_triangle(
                &cuisine.ingredient_set(),
                (0..recipes.n_recipes())
                    .filter_map(|i| recipes.recipe_ingredients(RecipeId(i as u32))),
            );
            run(FlavorViewRef::Artifact(&flavor), &cuisine, &cooc);
            return;
        }
    }

    let world = generate_world(&WorldConfig::small());
    let cuisine = CuisineView::from(world.recipes.cuisine(region));
    let cooc = cooc_triangle(
        &cuisine.ingredient_set(),
        world.recipes.recipes().map(|r| r.ingredients()),
    );
    run(FlavorViewRef::Owned(&world.flavor), &cuisine, &cooc);
}
