//! Property-based tests of recipe-store invariants and CRDB2 artifact
//! round-trips, and a model test of the chunked store against a plain
//! list of recipes.

use std::collections::HashMap;

use proptest::prelude::*;

use culinaria_flavordb::curated::curated_db;
use culinaria_flavordb::IngredientId;
use culinaria_recipedb::artifact::{self, AlignedBytes};
use culinaria_recipedb::import::{Importer, RawRecipe};
use culinaria_recipedb::{
    io, Recipe, RecipeArtifactBuilder, RecipeDbError, RecipeId, RecipeStore, Region, Source,
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

/// One drawn recipe: region index, source index and ingredient ids
/// over 30 ingredients (repeats allowed; the store drops them).
type RecipeSpec = (usize, usize, Vec<u32>);

fn arb_recipe() -> impl Strategy<Value = RecipeSpec> {
    (
        0usize..22,
        0usize..5,
        proptest::collection::vec(0u32..30, 1..12),
    )
}

/// Add drawn recipes `store.n_recipes()..to`, recipe `i` as `recipe-{i}`.
fn grow(store: &mut RecipeStore, specs: &[RecipeSpec], to: usize) {
    for (i, (region_idx, source_idx, ings)) in
        specs.iter().enumerate().take(to).skip(store.n_recipes())
    {
        store
            .add_recipe(
                &format!("recipe-{i}"),
                Region::from_index(*region_idx).expect("index < 22"),
                Source::from_index(*source_idx).expect("index < 5"),
                ings.iter().copied().map(IngredientId).collect(),
            )
            .expect("non-empty ingredient list");
    }
}

/// Strategy: a store with 0..40 random recipes over 30 ingredients.
fn arb_store() -> impl Strategy<Value = RecipeStore> {
    proptest::collection::vec(arb_recipe(), 0..40).prop_map(|specs| {
        let mut store = RecipeStore::new();
        grow(&mut store, &specs, specs.len());
        store
    })
}

/// Recipes per sealed store chunk.
const CHUNK: usize = 256;

/// Strategy: a store size `n` of 0..=3·256+40 that often sits on a
/// chunk seal, a clone point at or below it, and `n + 2·256` recipes:
/// enough to grow the store two more chunks past `n`.
fn arb_chunked() -> impl Strategy<Value = (usize, usize, Vec<RecipeSpec>)> {
    const SEALS: &[usize] = &[CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1];
    (0usize..SEALS.len() + 2, 0usize..=3 * CHUNK + 40)
        .prop_map(|(pick, random)| SEALS.get(pick).copied().unwrap_or(random))
        .prop_flat_map(|n| {
            (
                Just(n),
                0usize..=n,
                proptest::collection::vec(arb_recipe(), n + 2 * CHUNK),
            )
        })
}

/// A recipe as a plain value: what the store must read back.
#[derive(Debug, Clone, PartialEq)]
struct Plain {
    id: RecipeId,
    name: String,
    region: Region,
    source: Source,
    ingredients: Vec<IngredientId>,
}

impl Plain {
    fn of(r: &Recipe) -> Plain {
        Plain {
            id: r.id,
            name: r.name.clone(),
            region: r.region,
            source: r.source,
            ingredients: r.ingredients().to_vec(),
        }
    }

    fn drawn(i: usize, (region_idx, source_idx, ings): &RecipeSpec) -> Plain {
        let mut ingredients: Vec<IngredientId> = ings.iter().copied().map(IngredientId).collect();
        ingredients.sort_unstable();
        ingredients.dedup();
        Plain {
            id: RecipeId(i as u32),
            name: format!("recipe-{i}"),
            region: Region::from_index(*region_idx).expect("index < 22"),
            source: Source::from_index(*source_idx).expect("index < 5"),
            ingredients,
        }
    }
}

/// Every read of `store` agrees with the plain reference list.
fn check_model(store: &RecipeStore, plain: &[Plain]) -> TestCaseResult {
    let n = plain.len();
    prop_assert_eq!(store.n_recipes(), n);
    for want in plain {
        prop_assert_eq!(&Plain::of(store.recipe(want.id).expect("live id")), want);
    }
    for past in [n, n + CHUNK] {
        prop_assert!(
            matches!(store.recipe(RecipeId(past as u32)), Err(RecipeDbError::UnknownRecipe(id)) if id as usize == past),
            "id {past} of a {n}-recipe store"
        );
    }
    let listed: Vec<Plain> = store.recipes().map(Plain::of).collect();
    prop_assert_eq!(&listed[..], plain);
    for region in Region::ALL {
        let want: Vec<Plain> = plain
            .iter()
            .filter(|p| p.region == region)
            .cloned()
            .collect();
        let ids: Vec<RecipeId> = want.iter().map(|p| p.id).collect();
        prop_assert_eq!(store.region_recipe_ids(region), &ids[..]);
        let cuisine: Vec<Plain> = store
            .cuisine(region)
            .recipes()
            .iter()
            .map(|r| Plain::of(r))
            .collect();
        prop_assert_eq!(cuisine, want);
    }
    let mut freq: HashMap<IngredientId, u64> = HashMap::new();
    for ing in plain.iter().flat_map(|p| &p.ingredients) {
        *freq.entry(*ing).or_insert(0) += 1;
    }
    prop_assert_eq!(store.n_distinct_ingredients(), freq.len());
    prop_assert_eq!(store.global_frequencies(), freq);
    Ok(())
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
            for &rid in &postings {
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
    fn ingredient_sets_are_sorted_distinct_and_right_sized(
        specs in proptest::collection::vec(
            (
                0usize..22,
                0usize..5,
                proptest::collection::vec(
                    (any::<bool>(), 0u32..30, any::<u32>())
                        .prop_map(|(small, a, b)| if small { a } else { b }),
                    1..12,
                ),
            ),
            0..40,
        )
    ) {
        // Ids from CRDB2 files and `add_recipe` are any `u32`.
        let mut store = RecipeStore::new();
        grow(&mut store, &specs, specs.len());
        let bytes = AlignedBytes::from_vec(RecipeArtifactBuilder::new(&store).build().expect("encodes"));
        let db = artifact::open(bytes.as_slice()).expect("opens");
        for region in Region::ALL {
            let expect: Vec<IngredientId> = store
                .region_recipe_ids(region)
                .iter()
                .flat_map(|&rid| store.recipe(rid).expect("live id").ingredients().to_vec())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for set in [store.cuisine(region).ingredient_set(), db.cuisine(region).ingredient_set()] {
                prop_assert_eq!(&set, &expect);
                prop_assert_eq!(set.capacity(), set.len());
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

    #[test]
    fn chunked_store_matches_plain_reference(case in arb_chunked()) {
        let (n, at, specs) = case;
        let plain: Vec<Plain> = specs.iter().enumerate().map(|(i, s)| Plain::drawn(i, s)).collect();
        let mut store = RecipeStore::new();
        grow(&mut store, &specs, at);
        let snapshot = store.clone();
        grow(&mut store, &specs, n);
        check_model(&store, &plain[..n])?;
        grow(&mut store, &specs, specs.len());
        check_model(&store, &plain)?;
        // Two seals later the clone still reads, and encodes, exactly
        // like a store that only ever held the prefix.
        check_model(&snapshot, &plain[..at])?;
        let mut prefix = RecipeStore::new();
        grow(&mut prefix, &specs, at);
        prop_assert_eq!(
            io::to_snapshot(&snapshot).expect("encodes"),
            io::to_snapshot(&prefix).expect("encodes")
        );
        prop_assert_eq!(
            RecipeArtifactBuilder::new(&snapshot).build().expect("encodes"),
            RecipeArtifactBuilder::new(&prefix).build().expect("encodes")
        );
    }
}
