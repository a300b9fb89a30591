//! Property-based tests of the pairing-analysis invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_core::ntuple::recipe_ktuple_score;
use culinaria_core::null_models::{CuisineSampler, NullModel};
use culinaria_core::pairing::{
    mean_cuisine_score, novel_pairings, recipe_pairing_score, CoocTriangle, NovelPairing,
    OverlapCache,
};
use culinaria_core::RecipesViewRef;
use culinaria_flavordb::generator::{generate_flavor_db, GeneratorConfig};
use culinaria_flavordb::{Category, FlavorDb, IngredientId, MoleculeId};
use culinaria_obs::Metrics;
use culinaria_recipedb::artifact::{self, AlignedBytes};
use culinaria_recipedb::{RecipeArtifactBuilder, RecipeStore, Region, Source};

/// A deterministic 40-ingredient database shared by the properties.
fn db() -> FlavorDb {
    generate_flavor_db(&GeneratorConfig {
        seed: 99,
        n_molecules: 150,
        n_ingredients: 40,
        mean_profile_size: 10.0,
        profile_sigma: 0.5,
        category_affinity: 0.5,
        shared_pool_fraction: 0.3,
    })
}

/// Strategy: a recipe as a set of distinct ingredient indices < 40.
fn arb_recipe() -> impl Strategy<Value = Vec<IngredientId>> {
    proptest::collection::btree_set(0u32..40, 0..12)
        .prop_map(|s| s.into_iter().map(IngredientId).collect())
}

/// Strategy: a small cuisine.
fn arb_cuisine_recipes() -> impl Strategy<Value = Vec<Vec<IngredientId>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..40, 2..10)
            .prop_map(|s| s.into_iter().map(IngredientId).collect::<Vec<_>>()),
        1..15,
    )
}

fn build_store(recipes: &[Vec<IngredientId>]) -> RecipeStore {
    let mut store = RecipeStore::new();
    for (i, ings) in recipes.iter().enumerate() {
        store
            .add_recipe(
                &format!("r{i}"),
                Region::Italy,
                Source::Synthetic,
                ings.clone(),
            )
            .expect("non-empty");
    }
    store
}

/// Strategy: a store of 0..40 recipes over ingredient ids 0..30 in any
/// of the 22 regions (the shape of recipedb's own `arb_store`).
fn arb_store() -> impl Strategy<Value = RecipeStore> {
    let recipe = (0usize..22, proptest::collection::vec(0u32..30, 1..12));
    proptest::collection::vec(recipe, 0..40).prop_map(|specs| {
        let mut store = RecipeStore::new();
        for (i, (region_idx, ings)) in specs.into_iter().enumerate() {
            let region = Region::from_index(region_idx).expect("index < 22");
            let ings = ings.into_iter().map(IngredientId).collect();
            store
                .add_recipe(&format!("r{i}"), region, Source::Synthetic, ings)
                .expect("non-empty");
        }
        store
    })
}

/// Recipes of `store` that use both ids, counted one by one.
fn brute_cooc(store: &RecipeStore, a: IngredientId, b: IngredientId) -> u32 {
    store
        .recipes()
        .filter(|r| r.ingredients().contains(&a) && r.ingredients().contains(&b))
        .count() as u32
}

/// The enumeration `novel_pairings` replaces: every overlapping pool
/// pair in `(i, j)` order, stable-sorted by novelty descending.
fn stable_sorted_pairings(store: &RecipeStore, cache: &OverlapCache) -> Vec<NovelPairing> {
    let pool = cache.pool();
    let mut all = Vec::new();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let overlap = cache.overlap(i as u32, j as u32);
            if overlap > 0 {
                let cooc = brute_cooc(store, pool[i], pool[j]);
                all.push(NovelPairing {
                    novelty: f64::from(overlap) / (1.0 + f64::from(cooc)),
                    overlap,
                    cooc,
                    i: i as u32,
                    j: j as u32,
                });
            }
        }
    }
    all.sort_by(|a, b| b.novelty.total_cmp(&a.novelty));
    all
}

/// Strategy: 120–139 flavor profiles over a 12-molecule universe plus
/// recipes over the first 120 ingredients. Most pairs overlap, by 1–12
/// molecules, and co-occurrence counts stay small, so novelty values
/// repeat and rankings tie. Profiles come shortest first, so overlaps
/// grow along the `(i, j)` scan and later pairs keep outranking the
/// pairs `novel_pairings` has kept: its bounded buffer refills and is
/// cut again and again instead of once.
fn arb_tie_heavy() -> impl Strategy<Value = (Vec<Vec<MoleculeId>>, Vec<Vec<IngredientId>>)> {
    (
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..12, 1..13)
                .prop_map(|s| s.into_iter().map(MoleculeId).collect::<Vec<_>>()),
            120..140,
        )
        .prop_map(|mut profiles| {
            profiles.sort_by_key(Vec::len);
            profiles
        }),
        proptest::collection::vec(
            proptest::collection::btree_set(0u32..120, 2..6)
                .prop_map(|s| s.into_iter().map(IngredientId).collect::<Vec<_>>()),
            0..60,
        ),
    )
}

/// A ranking as exact bits, so a float compares by identity.
fn bits(pairings: &[NovelPairing]) -> Vec<(u64, u32, u32, u32, u32)> {
    pairings
        .iter()
        .map(|p| (p.novelty.to_bits(), p.overlap, p.cooc, p.i, p.j))
        .collect()
}

proptest! {
    #[test]
    fn cooc_triangle_and_novel_pairings_match_brute_force(store in arb_store()) {
        let db = db();
        let bytes = AlignedBytes::from_vec(
            RecipeArtifactBuilder::new(&store).build().expect("encodes"),
        );
        let borrowed = artifact::open(bytes.as_slice()).expect("opens");
        let mut used: Vec<IngredientId> =
            store.recipes().flat_map(|r| r.ingredients().iter().copied()).collect();
        used.sort_unstable();
        used.dedup();
        // Every populated region's pool, plus every id 0..30: ids no
        // recipe uses have no triangle position and count 0.
        let mut pools: Vec<Vec<IngredientId>> = store
            .regions()
            .into_iter()
            .map(|r| store.cuisine(r).ingredient_set())
            .collect();
        pools.push((0..30).map(IngredientId).collect());
        for view in [RecipesViewRef::Owned(&store), RecipesViewRef::Artifact(&borrowed)] {
            let cooc = CoocTriangle::build(view);
            for &a in &used {
                for &b in &used {
                    let expect = if a == b { 0 } else { brute_cooc(&store, a, b) };
                    prop_assert_eq!(cooc.count(a, b), expect, "({}, {})", a, b);
                    prop_assert_eq!(cooc.count(b, a), expect, "({}, {})", b, a);
                }
            }
            for pool in &pools {
                let cache = OverlapCache::build(&db, pool, 1, &Metrics::disabled())
                    .expect("live pool");
                let all = stable_sorted_pairings(&store, &cache);
                let n = all.len();
                for k in [0, 1, n / 2, n, n + 5] {
                    let got = novel_pairings(&cache, &cooc, k);
                    prop_assert_eq!(bits(&got), bits(&all[..k.min(n)]), "k = {}", k);
                }
            }
        }
    }

    #[test]
    fn pairing_score_non_negative_and_bounded(recipe in arb_recipe()) {
        let db = db();
        let s = recipe_pairing_score(&db, &recipe);
        prop_assert!(s >= 0.0);
        // Bounded by the largest pairwise overlap, which is bounded by
        // the largest profile.
        let max_profile = recipe
            .iter()
            .map(|&id| db.ingredient(id).expect("live").profile.len())
            .max()
            .unwrap_or(0);
        prop_assert!(s <= max_profile as f64);
    }

    #[test]
    fn pairing_score_is_permutation_invariant(recipe in arb_recipe()) {
        let db = db();
        let mut reversed = recipe.clone();
        reversed.reverse();
        let a = recipe_pairing_score(&db, &recipe);
        let b = recipe_pairing_score(&db, &reversed);
        prop_assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cache_score_equals_direct(recipes in arb_cuisine_recipes()) {
        let db = db();
        let store = build_store(&recipes);
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        for r in cuisine.recipes() {
            let direct = recipe_pairing_score(&db, r.ingredients());
            let cached = cache.score_ids(r.ingredients()).expect("pool covers recipes");
            prop_assert!((direct - cached).abs() < 1e-12);
        }
        let direct_mean = mean_cuisine_score(&db, &cuisine);
        let cached_mean = cache.mean_cuisine_score(&cuisine).expect("pool covers recipes");
        prop_assert!((direct_mean - cached_mean).abs() < 1e-12);
    }

    #[test]
    fn k2_always_matches_pairwise(recipe in arb_recipe()) {
        let db = db();
        let a = recipe_pairing_score(&db, &recipe);
        let b = recipe_ktuple_score(&db, &recipe, 2);
        prop_assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn kernel_walk_matches_frozen_reference_bitwise(recipe in arb_recipe()) {
        // Prefix-mask pruning must never change the subset sum: the
        // bitset kernel and the frozen pre-kernel walker agree to the
        // bit for every order.
        let db = db();
        for k in 2..=5usize {
            let kernel = recipe_ktuple_score(&db, &recipe, k);
            let walker =
                culinaria_core::ntuple::reference::recipe_ktuple_score(&db, &recipe, k);
            prop_assert_eq!(kernel.to_bits(), walker.to_bits(), "k = {}", k);
        }
    }

    #[test]
    fn kernel_cuisine_k2_equals_pairing_exactly(recipes in arb_cuisine_recipes()) {
        // Golden cross-check: N_s^(2) from the n-tuple kernel is the
        // pairing engine's N_s, exactly, on a generated cuisine.
        let db = db();
        let store = build_store(&recipes);
        let cuisine = store.cuisine(Region::Italy);
        let pairing = mean_cuisine_score(&db, &cuisine);
        let ktuple = culinaria_core::ntuple::mean_cuisine_ktuple_score(&db, &cuisine, 2, 0);
        prop_assert_eq!(pairing.to_bits(), ktuple.to_bits());
    }

    #[test]
    fn ktuple_scores_decay_with_k(recipe in arb_recipe()) {
        let db = db();
        prop_assume!(recipe.len() >= 4);
        let k2 = recipe_ktuple_score(&db, &recipe, 2);
        let k3 = recipe_ktuple_score(&db, &recipe, 3);
        let k4 = recipe_ktuple_score(&db, &recipe, 4);
        // k-wise intersections shrink monotonically in expectation; as
        // a hard invariant, N_s^(k+1) ≤ N_s^(k) holds because every
        // (k+1)-intersection is contained in its k-sub-intersections.
        prop_assert!(k3 <= k2 + 1e-12, "k3 {k3} > k2 {k2}");
        prop_assert!(k4 <= k3 + 1e-12, "k4 {k4} > k3 {k3}");
    }

    #[test]
    fn null_samples_valid_for_every_model(
        recipes in arb_cuisine_recipes(),
        seed in 0u64..500,
    ) {
        let db = db();
        let store = build_store(&recipes);
        let cuisine = store.cuisine(Region::Italy);
        let sampler = CuisineSampler::build(&db, &cuisine).expect("size >= 2 recipes exist");
        let observed_sizes: std::collections::HashSet<usize> = cuisine
            .recipes()
            .iter()
            .filter(|r| r.size() >= 2)
            .map(|r| r.size())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for model in NullModel::ALL {
            for _ in 0..30 {
                let sampled = sampler.generate(model, &mut rng);
                // Distinct, in range, and matching an observed size
                // (pool is at least as large as the biggest recipe).
                let mut d = sampled.clone();
                d.sort_unstable();
                d.dedup();
                prop_assert_eq!(d.len(), sampled.len(), "{} produced duplicates", model);
                prop_assert!(sampled.iter().all(|&p| (p as usize) < sampler.pool_len()));
                prop_assert!(
                    observed_sizes.contains(&sampled.len()),
                    "{}: size {} not among observed {:?}",
                    model, sampled.len(), observed_sizes
                );
            }
        }
    }

    #[test]
    fn contribution_zero_sum_sanity(recipes in arb_cuisine_recipes()) {
        let db = db();
        let store = build_store(&recipes);
        let cuisine = store.cuisine(Region::Italy);
        let contributions =
            culinaria_core::contribution::ingredient_contributions(&db, &cuisine);
        // One entry per distinct pool ingredient, all finite.
        if !contributions.is_empty() {
            prop_assert_eq!(contributions.len(), cuisine.ingredient_set().len());
        }
        for c in &contributions {
            prop_assert!(c.percent_change.is_finite(), "{}: {}", c.name, c.percent_change);
            prop_assert!(c.n_recipes >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `novel_pairings` cuts its candidate buffer back to `k` pairs each
    /// time it holds `2k`; the ranking must still equal a full sort of
    /// every overlapping pair, ties included.
    #[test]
    fn bounded_novel_pairings_match_a_full_sort(world in arb_tie_heavy()) {
        let (profiles, recipes) = world;
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(12);
        let pool: Vec<IngredientId> = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| db.add_ingredient(&format!("i{i}"), Category::Herb, p).expect("valid profile"))
            .collect();
        let store = build_store(&recipes);
        let cache = OverlapCache::build(&db, &pool, 1, &Metrics::disabled()).expect("live pool");
        let cooc = CoocTriangle::build(&store);
        let all = stable_sorted_pairings(&store, &cache);
        // The first 2,000 overlapping pairs fill k = 1000's buffer, and
        // the growing overlaps refill it: over this test's 24 cases the
        // buffer is cut 4–6 times for k = 1000 and 11–12 times for k ≤ 7.
        prop_assert!(all.len() >= 4_000, "{} overlapping pairs", all.len());
        prop_assert!(all.windows(2).any(|w| w[0].novelty == w[1].novelty), "no ties");
        for k in [1, 2, 7, 1000, all.len() + 1] {
            let got = novel_pairings(&cache, &cooc, k);
            prop_assert_eq!(bits(&got), bits(&all[..k.min(all.len())]), "k = {}", k);
        }
    }
}
