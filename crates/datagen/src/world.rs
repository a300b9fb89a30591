//! World generation: flavor universe + Table-1-calibrated recipe corpus.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use culinaria_flavordb::generator::generate_flavor_db;
use culinaria_flavordb::{BitProfile, FlavorDb, IngredientId, MoleculeUniverse};
use culinaria_recipedb::{RecipeStore, Region, Source};
use culinaria_stats::rng::derive_seed_labeled;
use culinaria_stats::WeightedAliasSampler;

use crate::config::WorldConfig;
use crate::prefs::category_preferences;

/// A generated world: the flavor database and the recipe corpus.
#[derive(Debug, Clone)]
pub struct World {
    /// The flavor molecule database all recipes reference.
    pub flavor: FlavorDb,
    /// The recipe store, partitioned into the 22 regions.
    pub recipes: RecipeStore,
}

/// Knuth's Poisson sampler; adequate for the small λ of recipe sizes.
fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Weighted sampling of `k` distinct indices without replacement
/// (Efraimidis–Spirakis exponential-jump keys: smallest −ln(u)/w win).
fn weighted_sample_without_replacement<R: Rng + ?Sized>(
    weights: &[f64],
    k: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut keyed: Vec<(f64, usize)> = weights
        .iter()
        .enumerate()
        .filter(|&(_, &w)| w > 0.0)
        .map(|(i, &w)| {
            let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            (-u.ln() / w, i)
        })
        .collect();
    let k = k.min(keyed.len());
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.truncate(k);
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Per-region source mix: the Indian Subcontinent is dominated by
/// TarlaDalal (the paper's 2,609 TarlaDalal recipes are Indian); other
/// regions split across the three big US sites in the paper's global
/// proportions.
fn sample_source<R: Rng + ?Sized>(region: Region, rng: &mut R) -> Source {
    if region == Region::IndianSubcontinent && rng.random::<f64>() < 0.6 {
        return Source::TarlaDalal;
    }
    // AllRecipes : FoodNetwork : Epicurious ≈ 16177 : 15917 : 11069.
    let u: f64 = rng.random::<f64>() * (16_177.0 + 15_917.0 + 11_069.0);
    if u < 16_177.0 {
        Source::AllRecipes
    } else if u < 16_177.0 + 15_917.0 {
        Source::FoodNetwork
    } else {
        Source::Epicurious
    }
}

/// Number of top-ranked ingredients whose profiles steer the greedy
/// ranking (and dominate usage under the Zipf popularity law).
const TOP_INFLUENCE: usize = 12;

/// Similarity-aware popularity ranking: returns a permutation of
/// `0..weights.len()` from most to least popular.
///
/// The heaviest candidate ranks first. Each following pick is the
/// unranked candidate maximizing `weight · exp(±bias · overlap / scale)`,
/// where `overlap` is the mean shared-compound count with the
/// top-ranked ingredients so far (up to [`TOP_INFLUENCE`]); the sign is
/// `+` for uniform-pairing regions and `−` for contrasting ones. Equal
/// scores go to the highest index, because [`Iterator::max_by`] keeps
/// the last of equal maxima. `scale` is the mean overlap over a stride
/// sample of about 48²/2 pairs, not all m²/2 of them.
///
/// Scores stop changing once the influence set holds [`TOP_INFLUENCE`]
/// ingredients. From then on the remaining candidates are scored once
/// and sorted by (score descending, index descending), the order that
/// repeated picks would produce. The ranking so costs
/// O(TOP_INFLUENCE · m) intersections and one sort, not O(m²) scans.
fn similarity_aware_ranking(
    cfg: &WorldConfig,
    positive: bool,
    weights: &[f64],
    profiles: &[BitProfile],
) -> Vec<usize> {
    let m = weights.len();
    if m == 0 {
        return Vec::new();
    }
    let alpha = cfg.popularity_similarity_bias * if positive { 1.0 } else { -1.0 };

    let mut total = 0usize;
    let mut pairs = 0usize;
    let step = (m / 48).max(1);
    for i in (0..m).step_by(step) {
        for j in ((i + 1)..m).step_by(step) {
            total += profiles[i].shared_count(&profiles[j]);
            pairs += 1;
        }
    }
    let scale = if pairs == 0 {
        1.0
    } else {
        (total as f64 / pairs as f64).max(0.5)
    };

    let mut ranked: Vec<usize> = Vec::with_capacity(m);
    let mut used = vec![false; m];
    // Overlap sum of each candidate with the ranked top ingredients.
    let mut acc = vec![0.0f64; m];
    let score = |acc: &[f64], c: usize, influence: usize| {
        let sim = acc[c] / influence as f64 / scale;
        weights[c] * (alpha * sim).clamp(-3.0, 3.0).exp()
    };

    // Seed with the heaviest candidate.
    let first = (0..m)
        .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
        .expect("non-empty");
    ranked.push(first);
    used[first] = true;

    // Greedy picks while the influence set is still growing.
    while ranked.len() < m && ranked.len() <= TOP_INFLUENCE {
        let influence = ranked.len();
        let newest = &profiles[*ranked.last().expect("non-empty ranked")];
        for (c, slot) in acc.iter_mut().enumerate() {
            if !used[c] {
                *slot += newest.shared_count(&profiles[c]) as f64;
            }
        }
        let best = (0..m)
            .filter(|&c| !used[c])
            .max_by(|&a, &b| score(&acc, a, influence).total_cmp(&score(&acc, b, influence)))
            .expect("unranked candidates remain");
        ranked.push(best);
        used[best] = true;
    }

    // The influence set is full: `acc` is frozen, so sort the rest once.
    let mut rest: Vec<(f64, usize)> = (0..m)
        .filter(|&c| !used[c])
        .map(|c| (score(&acc, c, TOP_INFLUENCE), c))
        .collect();
    rest.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
    ranked.extend(rest.into_iter().map(|(_, c)| c));
    ranked
}

/// State for generating one region's cuisine.
struct RegionGen {
    region: Region,
    /// The region's ingredient pool, in popularity-rank order.
    pool: Vec<IngredientId>,
    /// Profiles parallel to `pool`, packed over the pool's molecules.
    bits: Vec<BitProfile>,
    /// Popularity (Zipf) sampler over pool positions.
    popularity: WeightedAliasSampler,
}

impl RegionGen {
    fn build(cfg: &WorldConfig, flavor: &FlavorDb, region: Region, rng: &mut StdRng) -> Self {
        let all_ids: Vec<IngredientId> = flavor.ingredient_ids().collect();
        let prefs = category_preferences(region);

        // Pool selection: weighted (category preference × jitter) sample
        // without replacement, sized to Table 1's unique-ingredient count.
        let pool_target = (region.paper_ingredient_count() as usize).min(all_ids.len());
        let weights: Vec<f64> = all_ids
            .iter()
            .map(|&id| {
                let cat = flavor
                    .ingredient(id)
                    .expect("live id from ingredient_ids")
                    .category;
                // Mild jitter only: the category-preference signal (Fig 2)
                // must survive any PRNG stream, so the per-ingredient
                // noise stays well inside the preference ratios.
                prefs[cat.index()] * (0.6 + 0.8 * rng.random::<f64>())
            })
            .collect();
        let chosen = weighted_sample_without_replacement(&weights, pool_target, rng);
        let chosen_ids: Vec<IngredientId> = chosen.iter().map(|&i| all_ids[i]).collect();
        let chosen_weights: Vec<f64> = chosen.iter().map(|&i| weights[i]).collect();
        let chosen_profiles: Vec<_> = chosen_ids
            .iter()
            .map(|&id| &flavor.ingredient(id).expect("live id").profile)
            .collect();
        let universe = MoleculeUniverse::build(chosen_profiles.iter().map(|p| p.molecules()));
        let chosen_bits: Vec<BitProfile> = chosen_profiles
            .iter()
            .map(|p| universe.pack(p.molecules()))
            .collect();

        // Similarity-aware popularity ranking. Base order follows the
        // category-preference weight (Fig 2 meets Fig 3b), but the
        // greedy tilts toward candidates whose flavor profiles overlap
        // the already-ranked top ingredients — positively in uniform-
        // pairing regions, negatively in contrasting ones. This plants
        // the paper's central mechanism in the data: *which ingredients
        // are frequent* accounts for the pairing sign.
        let order = similarity_aware_ranking(
            cfg,
            region.paper_positive_pairing(),
            &chosen_weights,
            &chosen_bits,
        );
        let pool: Vec<IngredientId> = order.iter().map(|&i| chosen_ids[i]).collect();
        let bits: Vec<BitProfile> = order.iter().map(|&i| chosen_bits[i].clone()).collect();

        let zipf: Vec<f64> = (0..pool.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(cfg.popularity_exponent))
            .collect();
        let popularity = WeightedAliasSampler::new(&zipf).expect("non-empty positive zipf weights");

        RegionGen {
            region,
            pool,
            bits,
            popularity,
        }
    }

    /// Mean shared-compound count between pool position `cand` and the
    /// chosen positions.
    fn affinity(&self, cand: usize, chosen: &[usize]) -> f64 {
        if chosen.is_empty() {
            return 0.0;
        }
        let cand = &self.bits[cand];
        let total: usize = chosen
            .iter()
            .map(|&c| cand.shared_count(&self.bits[c]))
            .sum();
        total as f64 / chosen.len() as f64
    }

    /// Draw a pool position not already in `chosen` (bounded rejection,
    /// then linear fallback for tiny pools).
    fn draw_new<R: Rng + ?Sized>(&self, chosen: &[usize], rng: &mut R) -> Option<usize> {
        for _ in 0..64 {
            let c = self.popularity.sample(rng);
            if !chosen.contains(&c) {
                return Some(c);
            }
        }
        (0..self.pool.len()).find(|c| !chosen.contains(c))
    }

    /// Generate one recipe's ingredient list.
    fn generate_recipe(&self, cfg: &WorldConfig, rng: &mut StdRng) -> Vec<IngredientId> {
        let size = (2 + sample_poisson((cfg.mean_recipe_size - 2.0).max(0.0), rng))
            .clamp(2, 30)
            .min(self.pool.len());
        let positive = self.region.paper_positive_pairing();
        let mut chosen: Vec<usize> = Vec::with_capacity(size);
        if let Some(first) = self.draw_new(&chosen, rng) {
            chosen.push(first);
        }
        while chosen.len() < size {
            let use_bias = rng.random::<f64>() < cfg.pairing_bias;
            let next = if use_bias {
                // Best-of-K (positive regions) or worst-of-K (negative):
                // K popularity draws, scored by flavor affinity with the
                // partial recipe.
                let mut best: Option<(f64, usize)> = None;
                for _ in 0..cfg.pairing_candidates.max(1) {
                    let Some(cand) = self.draw_new(&chosen, rng) else {
                        break;
                    };
                    let score = self.affinity(cand, &chosen);
                    let better = match best {
                        None => true,
                        Some((s, _)) => {
                            if positive {
                                score > s
                            } else {
                                score < s
                            }
                        }
                    };
                    if better {
                        best = Some((score, cand));
                    }
                }
                best.map(|(_, c)| c)
            } else {
                self.draw_new(&chosen, rng)
            };
            match next {
                Some(c) => chosen.push(c),
                None => break,
            }
        }
        chosen.into_iter().map(|c| self.pool[c]).collect()
    }
}

/// Generate a complete world from a configuration. Deterministic in
/// `cfg.seed`; per-region streams are independent, so changing one
/// region's count does not perturb another's recipes.
///
/// # Panics
/// If `cfg.recipe_scale` is negative or not finite.
pub fn generate_world(cfg: &WorldConfig) -> World {
    assert!(
        cfg.recipe_scale.is_finite() && cfg.recipe_scale >= 0.0,
        "recipe_scale must be finite and non-negative"
    );
    let flavor = generate_flavor_db(&cfg.flavor);
    let mut recipes = RecipeStore::new();

    for region in Region::ALL {
        let mut rng = StdRng::seed_from_u64(derive_seed_labeled(cfg.seed, region.code()));
        let gen = RegionGen::build(cfg, &flavor, region, &mut rng);
        let target = ((region.paper_recipe_count() as f64 * cfg.recipe_scale).round() as usize)
            .max(cfg.min_region_recipes);
        for k in 0..target {
            let ingredients = gen.generate_recipe(cfg, &mut rng);
            let source = sample_source(region, &mut rng);
            recipes
                .add_recipe(
                    &format!("{}-{:05}", region.code(), k),
                    region,
                    source,
                    ingredients,
                )
                .expect("generated recipes are non-empty");
        }
    }

    World { flavor, recipes }
}

/// The parity oracle for [`similarity_aware_ranking`]: the same ranking
/// as a plain greedy over sorted-merge overlaps, rescanning every
/// unranked candidate on every pick (O(m²) scans). Frozen; do not
/// optimize.
#[cfg(test)]
mod reference {
    use super::TOP_INFLUENCE;
    use crate::config::WorldConfig;
    use culinaria_flavordb::FlavorProfile;

    pub(super) fn similarity_aware_ranking(
        cfg: &WorldConfig,
        positive: bool,
        weights: &[f64],
        profiles: &[&FlavorProfile],
    ) -> Vec<usize> {
        let m = weights.len();
        if m == 0 {
            return Vec::new();
        }
        let alpha = cfg.popularity_similarity_bias * if positive { 1.0 } else { -1.0 };

        let mut total = 0usize;
        let mut pairs = 0usize;
        let step = (m / 48).max(1);
        for i in (0..m).step_by(step) {
            for j in ((i + 1)..m).step_by(step) {
                total += profiles[i].shared_count(profiles[j]);
                pairs += 1;
            }
        }
        let scale = if pairs == 0 {
            1.0
        } else {
            (total as f64 / pairs as f64).max(0.5)
        };

        let mut ranked: Vec<usize> = Vec::with_capacity(m);
        let mut used = vec![false; m];
        let mut acc = vec![0.0f64; m];

        let first = (0..m)
            .max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            .expect("non-empty");
        ranked.push(first);
        used[first] = true;

        while ranked.len() < m {
            let influence = ranked.len().min(TOP_INFLUENCE);
            if ranked.len() <= TOP_INFLUENCE {
                let newest = *ranked.last().expect("non-empty ranked");
                for (c, slot) in acc.iter_mut().enumerate() {
                    if !used[c] {
                        *slot += profiles[newest].shared_count(profiles[c]) as f64;
                    }
                }
            }
            let best = (0..m)
                .filter(|&c| !used[c])
                .max_by(|&a, &b| {
                    let score = |c: usize| {
                        let sim = acc[c] / influence as f64 / scale;
                        weights[c] * (alpha * sim).clamp(-3.0, 3.0).exp()
                    };
                    score(a).total_cmp(&score(b))
                })
                .expect("unranked candidates remain");
            ranked.push(best);
            used[best] = true;
        }
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::FlavorProfile;
    use proptest::prelude::*;

    fn tiny_world() -> World {
        generate_world(&WorldConfig::tiny())
    }

    #[test]
    fn all_regions_populated() {
        let w = tiny_world();
        for r in Region::ALL {
            assert!(
                w.recipes.n_region_recipes(r) >= WorldConfig::tiny().min_region_recipes,
                "{r} underpopulated"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.recipes.n_recipes(), b.recipes.n_recipes());
        for (x, y) in a.recipes.recipes().zip(b.recipes.recipes()) {
            assert_eq!(x, y);
        }
        let mut cfg = WorldConfig::tiny();
        cfg.seed = 999;
        let c = generate_world(&cfg);
        let identical = a
            .recipes
            .recipes()
            .zip(c.recipes.recipes())
            .all(|(x, y)| x.ingredients() == y.ingredients());
        assert!(!identical, "different seeds must differ");
    }

    #[test]
    fn recipe_sizes_bounded_thin_tailed() {
        let w = tiny_world();
        let sizes: Vec<usize> = w.recipes.recipes().map(|r| r.size()).collect();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        let cfg = WorldConfig::tiny();
        assert!(
            (mean - cfg.mean_recipe_size).abs() < 1.5,
            "mean recipe size {mean}, expected ≈ {}",
            cfg.mean_recipe_size
        );
        assert!(*sizes.iter().max().unwrap() <= 30);
        assert!(*sizes.iter().min().unwrap() >= 2);
    }

    #[test]
    fn recipes_have_distinct_ingredients() {
        let w = tiny_world();
        for r in w.recipes.recipes().take(200) {
            let mut ings = r.ingredients().to_vec();
            let n = ings.len();
            ings.dedup();
            assert_eq!(ings.len(), n, "duplicates inside {}", r.name);
        }
    }

    #[test]
    fn pool_sizes_respect_table1_cap() {
        // In the tiny universe (60 ingredients) every region's distinct
        // ingredient usage is capped by the universe, not Table 1.
        let w = tiny_world();
        for r in Region::ALL {
            let used = w.recipes.cuisine(r).ingredient_set().len();
            assert!(used <= 60, "{r} used {used}");
            assert!(used > 5, "{r} uses implausibly few ingredients");
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let w = tiny_world();
        let c = w.recipes.cuisine(Region::Italy);
        let mut freqs: Vec<u64> = c.frequencies().into_values().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf-ish: the top ingredient is used far more than the median.
        let top = freqs[0];
        let median = freqs[freqs.len() / 2];
        assert!(
            top >= median * 3,
            "popularity not skewed: top {top}, median {median}"
        );
    }

    #[test]
    fn pairing_bias_separates_positive_and_negative_regions() {
        // Mean within-recipe shared-compound count, region-normalized by
        // the expected overlap of popularity-weighted random pairs. The
        // positive region should exceed the negative one clearly.
        let w = generate_world(&WorldConfig::tiny());
        let score = |region: Region| -> f64 {
            let c = w.recipes.cuisine(region);
            let mut total = 0.0;
            let mut n = 0usize;
            for r in c.recipes() {
                let ings = r.ingredients();
                for i in 0..ings.len() {
                    for j in (i + 1)..ings.len() {
                        let a = &w.flavor.ingredient(ings[i]).unwrap().profile;
                        let b = &w.flavor.ingredient(ings[j]).unwrap().profile;
                        total += a.shared_count(b) as f64;
                        n += 1;
                    }
                }
            }
            total / n as f64
        };
        let ita = score(Region::Italy); // positive pairing
        let jpn = score(Region::Japan); // negative pairing
        assert!(
            ita > jpn,
            "positive region should share more: ITA {ita} vs JPN {jpn}"
        );
    }

    #[test]
    fn paper_scale_counts_match_table1() {
        // Scale 1.0 with a modest flavor universe: counts must equal
        // Table 1 exactly for a couple of spot-checked regions. Use a
        // trimmed config so the test stays fast.
        let cfg = WorldConfig {
            recipe_scale: 1.0,
            min_region_recipes: 1,
            ..WorldConfig::tiny()
        };
        let w = generate_world(&cfg);
        assert_eq!(
            w.recipes.n_region_recipes(Region::Korea),
            Region::Korea.paper_recipe_count() as usize
        );
        assert_eq!(
            w.recipes.n_region_recipes(Region::Scandinavia),
            Region::Scandinavia.paper_recipe_count() as usize
        );
    }

    #[test]
    fn sources_assigned_plausibly() {
        let w = tiny_world();
        let insc = w.recipes.cuisine(Region::IndianSubcontinent);
        let tarla = insc
            .recipes()
            .iter()
            .filter(|r| r.source == Source::TarlaDalal)
            .count();
        assert!(
            tarla * 2 >= insc.n_recipes(),
            "TarlaDalal should dominate INSC: {tarla}/{}",
            insc.n_recipes()
        );
        // And TarlaDalal appears (almost) nowhere else.
        let ita_tarla = w
            .recipes
            .cuisine(Region::Italy)
            .recipes()
            .iter()
            .filter(|r| r.source == Source::TarlaDalal)
            .count();
        assert_eq!(ita_tarla, 0);
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let total: usize = (0..n).map(|_| sample_poisson(7.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 7.0).abs() < 0.1, "poisson mean {mean}");
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn weighted_sample_without_replacement_properties() {
        let mut rng = StdRng::seed_from_u64(4);
        let weights = [1.0, 0.0, 5.0, 2.0, 0.0, 3.0];
        for _ in 0..50 {
            let s = weighted_sample_without_replacement(&weights, 3, &mut rng);
            assert_eq!(s.len(), 3);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3);
            // Zero-weight indices never drawn.
            assert!(!s.contains(&1) && !s.contains(&4));
        }
        // k larger than positive support.
        let s = weighted_sample_without_replacement(&weights, 10, &mut rng);
        assert_eq!(s.len(), 4);
    }

    #[test]
    #[should_panic(expected = "recipe_scale")]
    fn invalid_recipe_scale_panics() {
        let cfg = WorldConfig {
            recipe_scale: f64::INFINITY,
            ..WorldConfig::tiny()
        };
        generate_world(&cfg);
    }

    #[test]
    #[should_panic(expected = "recipe_scale")]
    fn negative_recipe_scale_panics() {
        let cfg = WorldConfig {
            recipe_scale: -1.0,
            ..WorldConfig::tiny()
        };
        generate_world(&cfg);
    }

    /// Fixed profiles shared by several candidates, so identical
    /// profiles (and with repeated weights, exactly equal scores) occur.
    fn palette(shape: usize) -> FlavorProfile {
        match shape {
            0 => (0u32..40).step_by(3).collect(),
            _ => (64u32..140).step_by(5).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ranking_matches_frozen_greedy(
            entries in prop::collection::vec(
                (
                    0usize..6,
                    0.05f64..4.0,
                    0usize..4,
                    prop::collection::btree_set(0u32..150, 0..60),
                ),
                0..=40,
            ),
            positive in any::<bool>(),
            alpha in prop::sample::select(vec![0.0, 1.4, 2.8]),
        ) {
            // Classes 0–2 repeat one of three weights; 3–5 draw freely.
            let weights: Vec<f64> = entries
                .iter()
                .map(|&(class, w, _, _)| [0.5, 1.0, 2.5].get(class).copied().unwrap_or(w))
                .collect();
            // Shapes 0–1 reuse a palette profile; 2–3 are random sets.
            let profiles: Vec<FlavorProfile> = entries
                .iter()
                .map(|(_, _, shape, ids)| {
                    if *shape < 2 {
                        palette(*shape)
                    } else {
                        ids.iter().copied().collect()
                    }
                })
                .collect();
            let cfg = WorldConfig {
                popularity_similarity_bias: alpha,
                ..WorldConfig::tiny()
            };
            let universe = MoleculeUniverse::build(profiles.iter().map(FlavorProfile::molecules));
            let bits: Vec<BitProfile> =
                profiles.iter().map(|p| universe.pack(p.molecules())).collect();
            let refs: Vec<&FlavorProfile> = profiles.iter().collect();
            prop_assert_eq!(
                similarity_aware_ranking(&cfg, positive, &weights, &bits),
                reference::similarity_aware_ranking(&cfg, positive, &weights, &refs)
            );
        }
    }
}
