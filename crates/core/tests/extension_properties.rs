//! Property-based tests of the extension modules: cooking, networks,
//! fingerprints, taste, and classification.

use proptest::prelude::*;

use culinaria_core::cooking::{CookingMethod, Kitchen};
use culinaria_core::fingerprint::{cosine_similarity, CuisineFingerprint};
use culinaria_core::network::FlavorNetwork;
use culinaria_core::taste::recipe_taste;
use culinaria_flavordb::generator::{generate_flavor_db, GeneratorConfig};
use culinaria_flavordb::IngredientId;
use culinaria_obs::Metrics;
use culinaria_recipedb::{RecipeStore, Region, Source};

fn db(seed: u64) -> culinaria_flavordb::FlavorDb {
    generate_flavor_db(&GeneratorConfig {
        seed,
        n_molecules: 120,
        n_ingredients: 30,
        mean_profile_size: 8.0,
        profile_sigma: 0.5,
        category_affinity: 0.5,
        shared_pool_fraction: 0.3,
    })
}

fn store_from(recipes: &[Vec<u32>]) -> RecipeStore {
    let mut store = RecipeStore::new();
    for (i, ings) in recipes.iter().enumerate() {
        let region = Region::from_index(i % 22).expect("index < 22");
        store
            .add_recipe(
                &format!("r{i}"),
                region,
                Source::Synthetic,
                ings.iter().map(|&x| IngredientId(x)).collect(),
            )
            .expect("non-empty");
    }
    store
}

fn arb_recipes() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..30, 2..8)
            .prop_map(|s| s.into_iter().collect::<Vec<_>>()),
        4..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cooking_never_exceeds_raw_plus_signature(seed in 0u64..200, ing_idx in 0usize..30) {
        let kitchen = Kitchen::new(&db(seed));
        let ids: Vec<IngredientId> = kitchen.db().ingredient_ids().collect();
        let ing = ids[ing_idx % ids.len()];
        let raw_len = kitchen.db().ingredient(ing).expect("live").profile.len();
        for method in CookingMethod::ALL {
            let cooked = kitchen.cook(ing, method);
            // Bounded by raw + the method's signature molecules (≤ 3).
            prop_assert!(cooked.len() <= raw_len + 3, "{method}: {} > {raw_len}+3", cooked.len());
            // Deterministic.
            prop_assert_eq!(kitchen.cook(ing, method), cooked);
        }
    }

    #[test]
    fn network_handshake_invariants(seed in 0u64..200) {
        let d = db(seed);
        let pool: Vec<IngredientId> = d.ingredient_ids().collect();
        let net = FlavorNetwork::build(&d, &pool, 0, &Metrics::disabled()).expect("live pool");
        // Handshake lemma: Σ degree = 2·|E|.
        let degree_sum: u64 = (0..net.n_nodes()).map(|i| u64::from(net.degree(i))).sum();
        prop_assert_eq!(degree_sum, 2 * net.n_edges() as u64);
        // Strengths are symmetric sums of overlaps: Σ strength = 2·Σ weights.
        let strength_sum: u64 = (0..net.n_nodes()).map(|i| net.strength(i)).sum();
        let edge_weight_sum: u64 = net.top_edges(usize::MAX).iter().map(|e| u64::from(e.weight)).sum();
        prop_assert_eq!(strength_sum, 2 * edge_weight_sum);
        // Density and clustering in range.
        prop_assert!((0.0..=1.0).contains(&net.density()));
        prop_assert!((0.0..=1.0).contains(&net.clustering_coefficient()));
        // Backbone monotone: higher threshold, fewer edges.
        prop_assert!(net.backbone(2).n_edges() <= net.n_edges());
        prop_assert!(net.backbone(5).n_edges() <= net.backbone(2).n_edges());
    }

    #[test]
    fn fingerprint_similarity_is_a_similarity(recipes in arb_recipes(), seed in 0u64..50) {
        let d = db(seed);
        let store = store_from(&recipes);
        let fps: Vec<CuisineFingerprint> = store
            .regions()
            .into_iter()
            .map(|r| CuisineFingerprint::of(&d, &store.cuisine(r), 0))
            .collect();
        for a in &fps {
            prop_assert!((cosine_similarity(a, a) - 1.0).abs() < 1e-9);
            for b in &fps {
                let s = cosine_similarity(a, b);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
                prop_assert_eq!(s.to_bits(), cosine_similarity(b, a).to_bits());
            }
        }
    }

    #[test]
    fn taste_shares_always_normalized(recipes in arb_recipes(), seed in 0u64..50) {
        let d = db(seed);
        for r in &recipes {
            let ings: Vec<IngredientId> = r.iter().map(|&x| IngredientId(x)).collect();
            let t = recipe_taste(&d, &ings);
            let total: f64 = t.shares.values().sum();
            // Synthetic molecules carry no descriptors → empty shares;
            // any non-empty profile must be normalized.
            prop_assert!(t.shares.is_empty() || (total - 1.0).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&t.coverage()));
        }
    }

    #[test]
    fn classifier_scores_all_trained_regions(recipes in arb_recipes()) {
        let store = store_from(&recipes);
        let clf = culinaria_core::classify::CuisineClassifier::train(&store);
        let trained = clf.regions().len();
        prop_assert!(trained >= 1);
        for r in store.recipes().take(5) {
            let scores = clf.scores(r.ingredients());
            prop_assert_eq!(scores.len(), trained);
            prop_assert!(scores.iter().all(|(_, s)| s.is_finite()));
            // Sorted descending.
            for w in scores.windows(2) {
                prop_assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn prepared_pairing_matches_manual_computation(seed in 0u64..50) {
        let kitchen = Kitchen::new(&db(seed));
        let ids: Vec<IngredientId> = kitchen.db().ingredient_ids().take(4).collect();
        let prepared: Vec<(IngredientId, CookingMethod)> = ids
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, CookingMethod::ALL[k % 6]))
            .collect();
        let score = kitchen.prepared_pairing_score(&prepared);
        // Manual: cook each, average pairwise overlaps.
        let cooked: Vec<_> = prepared.iter().map(|&(i, m)| kitchen.cook(i, m)).collect();
        let mut total = 0usize;
        let mut pairs = 0usize;
        for i in 0..cooked.len() {
            for j in (i + 1)..cooked.len() {
                total += cooked[i].shared_count(&cooked[j]);
                pairs += 1;
            }
        }
        let manual = total as f64 / pairs as f64;
        prop_assert!((score - manual).abs() < 1e-12);
    }
}
