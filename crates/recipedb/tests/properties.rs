//! Property-based tests of recipe-store invariants and CRDB2 artifact
//! round-trips.

use proptest::prelude::*;

use culinaria_flavordb::curated::curated_db;
use culinaria_flavordb::IngredientId;
use culinaria_recipedb::artifact::{self, AlignedBytes};
use culinaria_recipedb::import::{Importer, RawRecipe};
use culinaria_recipedb::{
    io, Recipe, RecipeArtifactBuilder, RecipeId, RecipeStore, Region, Source,
};

/// Strategy: raw recipes over a mix of resolvable phrases (curated-db
/// names, synonyms, misspellings) and junk.
fn arb_raw_recipes() -> impl Strategy<Value = Vec<RawRecipe>> {
    const FIXED_LINES: &[&str] = &[
        "3 ripe tomatoes, diced",
        "2 cloves garlic, minced",
        "1 tbsp extra-virgin olive oil",
        "a shot of whisky",
        "250g curd",
        "1 bun, toasted",
        "2 cups quixotic zanthum",
    ];
    let line = (
        0usize..FIXED_LINES.len() + 1,
        proptest::string::string_regex("[a-z]{1,12}( [a-z]{1,12}){0,3}").expect("valid regex"),
    )
        .prop_map(|(pick, random)| {
            FIXED_LINES
                .get(pick)
                .map(|s| s.to_string())
                .unwrap_or(random)
        });
    let recipe = (0usize..22, 0usize..5, proptest::collection::vec(line, 0..6));
    proptest::collection::vec(recipe, 0..24).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (region_idx, source_idx, lines))| RawRecipe {
                name: format!("raw-{i}"),
                region: Region::from_index(region_idx).expect("index < 22"),
                source: Source::from_index(source_idx).expect("index < 5"),
                ingredient_lines: lines,
            })
            .collect()
    })
}

/// Strategy: a store with 0..40 random recipes over 30 ingredients.
fn arb_store() -> impl Strategy<Value = RecipeStore> {
    let recipe = (
        0usize..22,
        0usize..5,
        proptest::collection::vec(0u32..30, 1..12),
    );
    proptest::collection::vec(recipe, 0..40).prop_map(|specs| {
        let mut store = RecipeStore::new();
        for (i, (region_idx, source_idx, ings)) in specs.into_iter().enumerate() {
            let region = Region::from_index(region_idx).expect("index < 22");
            let source = Source::from_index(source_idx).expect("index < 5");
            store
                .add_recipe(
                    &format!("recipe-{i}"),
                    region,
                    source,
                    ings.into_iter().map(IngredientId).collect(),
                )
                .expect("non-empty ingredient list");
        }
        store
    })
}

proptest! {
    #[test]
    fn inverted_index_is_consistent(store in arb_store()) {
        // Forward direction: every recipe's ingredients index back to it.
        for r in store.recipes() {
            for &ing in r.ingredients() {
                prop_assert!(
                    store.recipes_with_ingredient(ing).contains(&r.id),
                    "{}: missing from index of {ing}", r.name
                );
            }
        }
        // Reverse: every posting refers to a recipe containing the
        // ingredient exactly once.
        let freq = store.global_frequencies();
        for (&ing, &count) in &freq {
            let postings = store.recipes_with_ingredient(ing);
            prop_assert_eq!(postings.len() as u64, count);
            for &rid in postings {
                prop_assert!(store.recipe(rid).expect("live id").contains(ing));
            }
        }
    }

    #[test]
    fn region_partitions_cover_all_recipes(store in arb_store()) {
        let total: usize = Region::ALL
            .iter()
            .map(|&r| store.n_region_recipes(r))
            .sum();
        prop_assert_eq!(total, store.n_recipes());
        for region in Region::ALL {
            for &rid in store.region_recipe_ids(region) {
                prop_assert_eq!(store.recipe(rid).expect("live id").region, region);
            }
        }
    }

    #[test]
    fn cuisine_views_are_faithful(store in arb_store()) {
        for region in store.regions() {
            let cuisine = store.cuisine(region);
            prop_assert_eq!(cuisine.n_recipes(), store.n_region_recipes(region));
            // Frequencies sum to total ingredient usages.
            let usage: u64 = cuisine.frequencies().values().sum();
            let expected: usize = cuisine.recipes().iter().map(|r| r.size()).sum();
            prop_assert_eq!(usage as usize, expected);
            // The ingredient set is exactly the union.
            let set = cuisine.ingredient_set();
            for w in set.windows(2) {
                prop_assert!(w[0] < w[1], "ingredient set not sorted/dedup");
            }
        }
    }

    #[test]
    fn snapshot_roundtrip(store in arb_store()) {
        // builder → open → to_recipe_store → builder: one byte
        // encoding per logical content.
        let bytes = AlignedBytes::from_vec(RecipeArtifactBuilder::new(&store).build().expect("encodes"));
        let back = artifact::open(bytes.as_slice())
            .expect("opens")
            .to_recipe_store()
            .expect("materializes");
        prop_assert_eq!(back.n_recipes(), store.n_recipes());
        let pairs: Vec<(&Recipe, &Recipe)> = store.recipes().zip(back.recipes()).collect();
        for (a, b) in pairs {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(
            back.n_distinct_ingredients(),
            store.n_distinct_ingredients()
        );
        let rebuilt = RecipeArtifactBuilder::new(&back).build().expect("re-encodes");
        prop_assert_eq!(rebuilt.as_slice(), bytes.as_slice());
    }

    #[test]
    fn csv_export_row_count(store in arb_store()) {
        let csv = io::to_csv(&store);
        let lines = csv.lines().count();
        prop_assert_eq!(lines, store.n_recipes() + 1); // header + rows
    }

    #[test]
    fn import_batch_is_thread_count_invariant(raws in arb_raw_recipes()) {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut serial_store = RecipeStore::new();
        let serial_stats = importer
            .import(&db, &mut serial_store, &raws)
            .expect("serial import succeeds");
        for threads in [1usize, 2, 8] {
            let mut store = RecipeStore::new();
            let stats = importer
                .import_batch(&db, &mut store, &raws, threads)
                .expect("batch import succeeds");
            prop_assert_eq!(&stats, &serial_stats, "stats diverged at {} threads", threads);
            prop_assert_eq!(store.n_recipes(), serial_store.n_recipes());
            for (a, b) in store.recipes().zip(serial_store.recipes()) {
                prop_assert_eq!(a, b, "recipe diverged at {} threads", threads);
            }
        }
    }

    #[test]
    fn recipe_ids_are_dense_and_ordered(store in arb_store()) {
        for (k, r) in store.recipes().enumerate() {
            prop_assert_eq!(r.id, RecipeId(k as u32));
        }
    }
}
