//! Incremental analysis state for streaming ingestion.
//!
//! Batch analysis recomputes everything from the store. When recipes
//! arrive continuously (the import log of `culinaria_recipedb::wal`),
//! recomputing O(corpus) state per micro-batch wastes almost all of its
//! work: a new recipe touches one region, a handful of ingredients, and
//! a few overlap rows. [`StreamState`] maintains the batch products
//! incrementally:
//!
//! * **frequency tables** — global and per-region ingredient → recipe
//!   counts, exact integers equal to
//!   [`RecipeStore::global_frequencies`](culinaria_recipedb::RecipeStore::global_frequencies) /
//!   [`Cuisine::frequencies`](culinaria_recipedb::Cuisine::frequencies);
//! * **category compositions** — per-region usage counts per category,
//!   equal to [`crate::composition::category_counts`];
//! * **overlap caches** — per-region [`OverlapCache`]s grown by
//!   [`OverlapCache::extend`], recomputing only rows touched by new
//!   ingredients yet bit-identical to a cold build over the grown pool;
//! * **running pairing stats** — per-region Welford accumulators
//!   ([`RunningStats`]) over each recipe's N_s in arrival order.
//!
//! # Determinism
//!
//! Every maintained product is either exact integer arithmetic
//! (frequencies, categories, overlap cells) or a float fold in a
//! **defined order** (the running stats push per-recipe scores in store
//! order). Feeding recipes one at a time, in micro-batches, or in one
//! batch therefore yields bit-identical state — the tests pin this by
//! comparing an incrementally-fed state against cold batch recomputes
//! after every prefix.

use std::collections::{BTreeMap, HashMap};

use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_recipedb::Region;
use culinaria_stats::running::RunningStats;

use crate::error::StageFailure;
use crate::pairing::OverlapCache;

/// Per-region incremental state: the streaming counterpart of one
/// cuisine's batch analysis inputs.
#[derive(Debug, Clone)]
pub struct RegionStream {
    freq: HashMap<IngredientId, u64>,
    categories: [u64; 21],
    scores: RunningStats,
    overlap: OverlapCache,
    n_recipes: u64,
}

impl RegionStream {
    fn new() -> RegionStream {
        RegionStream {
            freq: HashMap::new(),
            categories: [0; 21],
            scores: RunningStats::new(),
            overlap: OverlapCache::from_parts(&[], Vec::new())
                .unwrap_or_else(|| unreachable!("empty cache is always well-formed")),
            n_recipes: 0,
        }
    }

    /// Ingredient → number of this region's recipes using it.
    pub fn frequencies(&self) -> &HashMap<IngredientId, u64> {
        &self.freq
    }

    /// Usage counts per category
    /// (= [`crate::composition::category_counts`]).
    pub fn category_counts(&self) -> &[u64; 21] {
        &self.categories
    }

    /// Welford accumulator over per-recipe N_s in arrival order
    /// (recipes with fewer than two ingredients carry no pairing
    /// information and are skipped, like the batch cuisine mean).
    pub fn pairing_stats(&self) -> &RunningStats {
        &self.scores
    }

    /// The region's incrementally-grown overlap cache — bit-identical
    /// to a cold [`OverlapCache::build`] over the region's current
    /// ingredient pool.
    pub fn overlap(&self) -> &OverlapCache {
        &self.overlap
    }

    /// Recipes ingested into this region.
    pub fn n_recipes(&self) -> u64 {
        self.n_recipes
    }
}

/// Incrementally maintained analysis state over a stream of stored
/// recipes. See the [module docs](self) for what it maintains and the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct StreamState {
    global_freq: HashMap<IngredientId, u64>,
    regions: Vec<RegionStream>,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState::new()
    }
}

impl StreamState {
    /// Empty state: no recipes seen.
    pub fn new() -> StreamState {
        StreamState {
            global_freq: HashMap::new(),
            regions: (0..Region::ALL.len())
                .map(|_| RegionStream::new())
                .collect(),
        }
    }

    /// Ingest a micro-batch of resolved recipes (already deduplicated
    /// by the importer/store) in order, extending each touched
    /// region's overlap pool **once** for the whole batch instead of
    /// once per recipe — the dominant cost of an ingest is the
    /// O(pool²) triangle copy in [`OverlapCache::extend`]. perfbench's
    /// `ingest-serve` workload times it as
    /// `core.streaming.ingest_batch_ms`.
    ///
    /// Any split of a stream into batches gives bit-identical state:
    /// overlap cells are exact intersection counts (the grow path
    /// cannot change them), and per-recipe scores are pushed into the
    /// running stats in stream order. Returns the number of recipes
    /// ingested.
    ///
    /// # Errors
    /// [`StageFailure`] when an ingredient id is dead in `db` (stage
    /// `stream.category`) or the overlap extension fails (stage
    /// `overlap.extend`). Every id is validated before any state
    /// mutates, so a dead id leaves the whole state untouched.
    pub fn ingest_batch(
        &mut self,
        db: &FlavorDb,
        recipes: &[(Region, &[IngredientId])],
    ) -> Result<usize, StageFailure> {
        // Validate the whole batch up front: a dead id anywhere must
        // not half-apply the batch.
        let mut cat_deltas: Vec<[u64; 21]> = Vec::with_capacity(recipes.len());
        for (_, ingredients) in recipes {
            let mut delta = [0u64; 21];
            for (k, &id) in ingredients.iter().enumerate() {
                let ing = db.ingredient(id).map_err(|e| {
                    StageFailure::error(
                        "stream.category",
                        k,
                        format!("ingredient id {} is not usable: {e}", id.index()),
                    )
                })?;
                delta[ing.category.index()] += 1;
            }
            cat_deltas.push(delta);
        }

        // One pool extension per touched region (BTreeMap for a
        // deterministic extension order).
        let mut fresh_by_region: BTreeMap<usize, Vec<IngredientId>> = BTreeMap::new();
        for (region, ingredients) in recipes {
            let slot = region.index();
            let seen = &self.regions[slot].overlap;
            let fresh = fresh_by_region.entry(slot).or_default();
            fresh.extend(
                ingredients
                    .iter()
                    .copied()
                    .filter(|&id| seen.local_index(id).is_none()),
            );
        }
        for (slot, mut fresh) in fresh_by_region {
            fresh.sort_unstable();
            fresh.dedup();
            if fresh.is_empty() {
                continue;
            }
            let rs = &mut self.regions[slot];
            let mut pool = rs.overlap.pool().to_vec();
            pool.extend_from_slice(&fresh);
            pool.sort_unstable();
            rs.overlap = rs.overlap.extend(db, &pool)?;
        }

        // Counts and scores, in batch order.
        for ((region, ingredients), delta) in recipes.iter().zip(&cat_deltas) {
            let rs = &mut self.regions[region.index()];
            for (c, d) in rs.categories.iter_mut().zip(delta) {
                *c += d;
            }
            for &id in *ingredients {
                *rs.freq.entry(id).or_insert(0) += 1;
                *self.global_freq.entry(id).or_insert(0) += 1;
            }
            rs.n_recipes += 1;
            let score = rs.overlap.score_ids(ingredients).ok_or_else(|| {
                StageFailure::error(
                    "stream.score",
                    0,
                    "extended pool missing a recipe ingredient",
                )
            })?;
            if ingredients.len() >= 2 {
                rs.scores.push(score);
            }
        }
        Ok(recipes.len())
    }

    /// Global ingredient → recipe-count table
    /// (= [`RecipeStore::global_frequencies`](culinaria_recipedb::RecipeStore::global_frequencies)).
    pub fn global_frequencies(&self) -> &HashMap<IngredientId, u64> {
        &self.global_freq
    }

    /// One region's incremental state.
    pub fn region(&self, region: Region) -> &RegionStream {
        &self.regions[region.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::category_counts;
    use crate::pairing::recipe_pairing_score;
    use culinaria_datagen::{generate_world, WorldConfig};
    use culinaria_obs::Metrics;
    use culinaria_recipedb::RecipeStore;

    #[test]
    fn incremental_state_matches_batch_after_every_prefix_step() {
        let w = generate_world(&WorldConfig::tiny());
        let (db, store) = (&w.flavor, &w.recipes);
        let recipes: Vec<_> = store.recipes().take(240).collect();
        assert_eq!(recipes.len(), 240, "fixture too small");
        for batch in [1usize, 8, 64] {
            let mut state = StreamState::new();
            let mut partial = RecipeStore::new();
            for chunk in recipes.chunks(batch) {
                let refs: Vec<(Region, &[_])> =
                    chunk.iter().map(|r| (r.region, r.ingredients())).collect();
                state.ingest_batch(db, &refs).unwrap();
                for r in chunk {
                    partial
                        .add_recipe(&r.name, r.region, r.source, r.ingredients().to_vec())
                        .unwrap();
                }
                let fed = partial.n_recipes();
                if !fed.is_multiple_of(8) && fed != recipes.len() {
                    continue; // full cross-check every 8 recipes and at the end
                }
                let step = format!("batch {batch}, {fed} recipes");
                assert_eq!(
                    state.global_frequencies(),
                    &partial.global_frequencies(),
                    "{step}"
                );
                for region in partial.regions() {
                    let cuisine = partial.cuisine(region);
                    let rs = state.region(region);
                    assert_eq!(rs.frequencies(), &cuisine.frequencies(), "{step}");
                    assert_eq!(
                        rs.category_counts(),
                        &category_counts(db, &cuisine),
                        "{step}"
                    );
                    let cold = OverlapCache::for_cuisine(db, &cuisine);
                    assert_eq!(rs.overlap().pool(), cold.pool(), "{step}");
                    assert_eq!(rs.overlap().tri(), cold.tri(), "{step}");
                    // Batch reference for the running stats: the same
                    // accumulator fed in the same (store) order.
                    let mut cold_stats = RunningStats::new();
                    for r in cuisine.recipes() {
                        if r.size() >= 2 {
                            cold_stats.push(recipe_pairing_score(db, r.ingredients()));
                        }
                    }
                    assert_eq!(rs.pairing_stats(), &cold_stats, "{step}");
                }
            }
        }
    }

    #[test]
    fn micro_batch_and_per_recipe_feeds_are_bit_identical() {
        let w = generate_world(&WorldConfig::tiny());
        let (db, store) = (&w.flavor, &w.recipes);
        let recipes: Vec<_> = store.recipes().take(30).collect();

        let mut one_by_one = StreamState::new();
        for r in &recipes {
            one_by_one
                .ingest_batch(db, &[(r.region, r.ingredients())])
                .unwrap();
        }

        // Uneven micro-batches: 5, 7 and 18 recipes.
        let mut chunked = StreamState::new();
        let mut at = 0;
        for upto in [5usize, 12, 30] {
            let refs: Vec<(Region, &[_])> = recipes[at..upto]
                .iter()
                .map(|r| (r.region, r.ingredients()))
                .collect();
            chunked.ingest_batch(db, &refs).unwrap();
            at = upto;
        }

        assert_eq!(
            one_by_one.global_frequencies(),
            chunked.global_frequencies()
        );
        for region in store.regions() {
            let (a, b) = (one_by_one.region(region), chunked.region(region));
            assert_eq!(a.frequencies(), b.frequencies());
            assert_eq!(a.pairing_stats(), b.pairing_stats());
            assert_eq!(a.overlap().tri(), b.overlap().tri());
        }
    }

    #[test]
    fn ingest_batch_is_bit_identical_to_per_recipe_feed() {
        let w = generate_world(&WorldConfig::tiny());
        let (db, store) = (&w.flavor, &w.recipes);
        let recipes: Vec<_> = store.recipes().take(36).collect();

        let mut per_recipe = StreamState::new();
        for r in &recipes {
            per_recipe
                .ingest_batch(db, &[(r.region, r.ingredients())])
                .unwrap();
        }

        let mut batched = StreamState::new();
        for chunk in recipes.chunks(7) {
            let refs: Vec<(Region, &[_])> =
                chunk.iter().map(|r| (r.region, r.ingredients())).collect();
            assert_eq!(batched.ingest_batch(db, &refs).unwrap(), refs.len());
        }

        assert_eq!(
            per_recipe.global_frequencies(),
            batched.global_frequencies()
        );
        for region in store.regions() {
            let (a, b) = (per_recipe.region(region), batched.region(region));
            assert_eq!(a.frequencies(), b.frequencies());
            assert_eq!(a.category_counts(), b.category_counts());
            assert_eq!(a.pairing_stats(), b.pairing_stats());
            assert_eq!(a.overlap().pool(), b.overlap().pool());
            assert_eq!(a.overlap().tri(), b.overlap().tri());
            assert_eq!(a.n_recipes(), b.n_recipes());
        }

        // A dead id anywhere in the batch leaves the state untouched.
        let before = batched.region(recipes[0].region).clone();
        let dead = [IngredientId(u32::MAX - 1)];
        let bad: Vec<(Region, &[_])> = vec![
            (recipes[0].region, recipes[0].ingredients()),
            (recipes[0].region, &dead[..]),
        ];
        assert!(batched.ingest_batch(db, &bad).is_err());
        let after = batched.region(recipes[0].region);
        assert_eq!(after.frequencies(), before.frequencies());
        assert_eq!(after.n_recipes(), before.n_recipes());
        assert_eq!(after.pairing_stats(), before.pairing_stats());
    }

    #[test]
    fn extend_matches_cold_build_and_rejects_shrink() {
        let w = generate_world(&WorldConfig::tiny());
        let db = &w.flavor;
        let all = w.recipes.cuisine(w.recipes.regions()[0]).ingredient_set();
        assert!(all.len() >= 6, "fixture too small: {}", all.len());
        let half = &all[..all.len() / 2];
        let build = |pool: &[IngredientId]| {
            OverlapCache::build(db, pool, 0, &Metrics::disabled()).expect("live pool")
        };
        let cache = build(half);

        let grown = cache.extend(db, &all).unwrap();
        let cold = build(&all);
        assert_eq!(grown.pool(), cold.pool());
        assert_eq!(grown.tri(), cold.tri());

        // Same pool: pure copy, still identical.
        let same = grown.extend(db, &all).unwrap();
        assert_eq!(same.tri(), cold.tri());

        // Shrinking is a caller bug.
        assert!(grown.extend(db, half).is_err());
    }

    #[test]
    fn dead_ingredient_leaves_state_untouched() {
        let w = generate_world(&WorldConfig::tiny());
        let db = &w.flavor;
        let r = w.recipes.recipes().next().unwrap();
        let mut state = StreamState::new();
        state
            .ingest_batch(db, &[(r.region, r.ingredients())])
            .unwrap();
        let before = state.region(r.region).clone();

        let dead = IngredientId(u32::MAX - 1);
        assert!(state
            .ingest_batch(db, &[(r.region, &[dead, r.ingredients()[0]])])
            .is_err());
        let after = state.region(r.region);
        assert_eq!(after.frequencies(), before.frequencies());
        assert_eq!(after.n_recipes(), before.n_recipes());
        assert_eq!(after.pairing_stats(), before.pairing_stats());
    }
}
