//! Culinary fingerprints and cuisine similarity.
//!
//! The paper frames its deviation analysis as access to "culinary
//! fingerprints" [ref 8] — the signature composition that identifies a
//! cuisine. This module makes the fingerprint a first-class object:
//!
//! * [`CuisineFingerprint`] — a cuisine's normalized ingredient-usage
//!   vector, category shares, and mean flavor sharing;
//! * [`cosine_similarity`] / [`similarity_matrix`] — pairwise cuisine
//!   similarity over the usage vectors;
//! * [`agglomerate`] — average-linkage hierarchical clustering of
//!   cuisines, exposing the geo-cultural structure of the corpus (the
//!   "regional cuisines are like languages/dialects" analogy of §II.A).

use std::collections::BTreeMap;

use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::Metrics;
use culinaria_recipedb::{Cuisine, RecipeStore, Region};
use culinaria_stats::pool;
use culinaria_tabular::{Column, Frame};

use crate::composition::category_shares;
use crate::pairing::OverlapCache;

/// A cuisine's signature composition.
#[derive(Debug, Clone, PartialEq)]
pub struct CuisineFingerprint {
    /// The region.
    pub region: Region,
    /// Ingredient usage shares: ingredient → fraction of the cuisine's
    /// total ingredient usages (sums to 1 for non-empty cuisines). Ordered
    /// by id, so every sum over it runs in the same order on every run.
    pub usage: BTreeMap<IngredientId, f64>,
    /// Category usage shares.
    pub category_shares: [f64; 21],
    /// Mean flavor sharing ⟨N_s⟩.
    pub mean_ns: f64,
}

impl CuisineFingerprint {
    /// Compute the fingerprint of a cuisine with `n_threads` workers
    /// (0 = available parallelism).
    ///
    /// ⟨N_s⟩ goes through the packed-bitset [`OverlapCache`] (built in
    /// parallel) rather than per-recipe sorted merges; the cache scores
    /// are bit-identical to `pairing::recipe_pairing_score`, so the
    /// fingerprint is unchanged by the route or the thread count.
    ///
    /// # Panics
    /// Panics when the cuisine references a dead ingredient id.
    pub fn of(db: &FlavorDb, cuisine: &Cuisine<'_>, n_threads: usize) -> CuisineFingerprint {
        let freq = cuisine.frequencies();
        let total: u64 = freq.values().sum();
        let usage = if total == 0 {
            BTreeMap::new()
        } else {
            freq.into_iter()
                .map(|(id, c)| (id, c as f64 / total as f64))
                .collect()
        };
        let pool = cuisine.ingredient_set();
        let cache = OverlapCache::build(db, &pool, n_threads, &Metrics::disabled())
            .unwrap_or_else(|failure| panic!("overlap cache build failed: {failure}"));
        CuisineFingerprint {
            region: cuisine.region(),
            usage,
            category_shares: category_shares(db, cuisine),
            mean_ns: cache
                .mean_cuisine_score(cuisine)
                .expect("cuisine pool covers its own recipes"),
        }
    }

    /// The `k` highest-share ingredients, descending (ties by id).
    pub fn top_ingredients(&self, k: usize) -> Vec<(IngredientId, f64)> {
        let mut pairs: Vec<(IngredientId, f64)> =
            self.usage.iter().map(|(&id, &s)| (id, s)).collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

/// Cosine similarity of two fingerprints' ingredient-usage vectors.
/// 0 when either cuisine is empty; 1 for identical usage patterns.
///
/// The dot product and both norms sum in ingredient-id order, so the
/// result is bit-identical across runs and symmetric in its arguments.
pub fn cosine_similarity(a: &CuisineFingerprint, b: &CuisineFingerprint) -> f64 {
    let mut dot = 0.0;
    for (id, &sa) in &a.usage {
        if let Some(&sb) = b.usage.get(id) {
            dot += sa * sb;
        }
    }
    let na: f64 = a.usage.values().map(|s| s * s).sum::<f64>().sqrt();
    let nb: f64 = b.usage.values().map(|s| s * s).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(0.0, 1.0)
    }
}

/// Fingerprints for every populated region of a store, with
/// `n_threads` workers (0 = available parallelism).
///
/// Regions fan out across the worker pool (one task each, inner cache
/// builds serial) and results land in region order, so the output is
/// identical for every thread count.
pub fn world_fingerprints(
    db: &FlavorDb,
    store: &RecipeStore,
    n_threads: usize,
) -> Vec<CuisineFingerprint> {
    let regions = store.regions();
    pool::run(
        n_threads,
        regions.len(),
        || (),
        |(), i| CuisineFingerprint::of(db, &store.cuisine(regions[i]), 1),
    )
}

/// The full pairwise similarity matrix as a frame (`region` column plus
/// one column per region).
pub fn similarity_matrix(fingerprints: &[CuisineFingerprint]) -> Frame {
    let mut f = Frame::new();
    let codes: Vec<&str> = fingerprints.iter().map(|fp| fp.region.code()).collect();
    f.add_column("region", Column::from_strs(&codes))
        .expect("fresh frame");
    for (j, fb) in fingerprints.iter().enumerate() {
        let col: Vec<f64> = fingerprints
            .iter()
            .map(|fa| cosine_similarity(fa, fb))
            .collect();
        f.add_column(codes[j], Column::from_f64s(&col))
            .expect("region codes unique");
    }
    f
}

/// One merge step of the hierarchical clustering: the two clusters
/// merged (by member regions) and their average-linkage similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct Merge {
    /// Members of the first merged cluster.
    pub left: Vec<Region>,
    /// Members of the second merged cluster.
    pub right: Vec<Region>,
    /// Average pairwise similarity between the two clusters at merge
    /// time.
    pub similarity: f64,
}

/// Average-linkage agglomerative clustering over cuisine fingerprints.
/// Returns the merge sequence from most to least similar (n−1 merges
/// for n fingerprints).
pub fn agglomerate(fingerprints: &[CuisineFingerprint]) -> Vec<Merge> {
    let n = fingerprints.len();
    if n < 2 {
        return Vec::new();
    }
    // Precompute pairwise similarities.
    let mut sim = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s = cosine_similarity(&fingerprints[i], &fingerprints[j]);
            sim[i][j] = s;
            sim[j][i] = s;
        }
    }
    // Active clusters as member-index lists.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut merges = Vec::with_capacity(n - 1);

    while clusters.len() > 1 {
        // Find the pair with maximal average linkage.
        let mut best = (0usize, 1usize, f64::NEG_INFINITY);
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                let mut total = 0.0;
                for &i in &clusters[a] {
                    for &j in &clusters[b] {
                        total += sim[i][j];
                    }
                }
                let avg = total / (clusters[a].len() * clusters[b].len()) as f64;
                if avg > best.2 {
                    best = (a, b, avg);
                }
            }
        }
        let (a, b, s) = best;
        let right = clusters.swap_remove(b);
        let left = clusters.swap_remove(if a > b { a - 1 } else { a });
        merges.push(Merge {
            left: left.iter().map(|&i| fingerprints[i].region).collect(),
            right: right.iter().map(|&i| fingerprints[i].region).collect(),
            similarity: s,
        });
        let mut merged = left;
        merged.extend(right);
        clusters.push(merged);
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_datagen::{generate_world, WorldConfig};

    fn world() -> culinaria_datagen::World {
        generate_world(&WorldConfig::tiny())
    }

    #[test]
    fn fingerprint_usage_sums_to_one() {
        let w = world();
        for fp in world_fingerprints(&w.flavor, &w.recipes, 0) {
            let total: f64 = fp.usage.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", fp.region.code());
            let cat_total: f64 = fp.category_shares.iter().sum();
            assert!((cat_total - 1.0).abs() < 1e-9);
            assert!(fp.mean_ns >= 0.0);
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let w = world();
        let fps = world_fingerprints(&w.flavor, &w.recipes, 0);
        for fp in &fps {
            assert!((cosine_similarity(fp, fp) - 1.0).abs() < 1e-9);
        }
        // Symmetry, bit for bit.
        assert_eq!(
            cosine_similarity(&fps[0], &fps[1]).to_bits(),
            cosine_similarity(&fps[1], &fps[0]).to_bits()
        );
    }

    #[test]
    fn world_fingerprints_identical_for_any_thread_count() {
        let w = world();
        let serial = world_fingerprints(&w.flavor, &w.recipes, 1);
        for threads in [0, 2, 8] {
            let parallel = world_fingerprints(&w.flavor, &w.recipes, threads);
            assert_eq!(serial, parallel, "{threads} threads");
            // Every similarity cell carries the same bits whichever run
            // built the fingerprints, and in either argument order.
            for (i, a) in serial.iter().enumerate() {
                for (j, b) in serial.iter().enumerate() {
                    let bits = cosine_similarity(a, b).to_bits();
                    let cell = format!("{threads} threads, ({i}, {j})");
                    assert_eq!(
                        bits,
                        cosine_similarity(&parallel[i], &parallel[j]).to_bits(),
                        "{cell}"
                    );
                    assert_eq!(bits, cosine_similarity(b, a).to_bits(), "{cell}");
                }
            }
        }
        // The cache-backed ⟨N_s⟩ matches the direct per-recipe fold.
        for fp in &serial {
            let direct =
                crate::pairing::mean_cuisine_score(&w.flavor, &w.recipes.cuisine(fp.region));
            assert_eq!(
                fp.mean_ns.to_bits(),
                direct.to_bits(),
                "{}",
                fp.region.code()
            );
        }
    }

    #[test]
    fn top_ingredients_descending() {
        let w = world();
        let fp = CuisineFingerprint::of(&w.flavor, &w.recipes.cuisine(Region::Italy), 0);
        let top = fp.top_ingredients(5);
        assert_eq!(top.len(), 5);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn similarity_matrix_shape() {
        let w = world();
        let fps = world_fingerprints(&w.flavor, &w.recipes, 0);
        let m = similarity_matrix(&fps);
        assert_eq!(m.n_rows(), 22);
        assert_eq!(m.n_cols(), 23);
        // Diagonal is 1.
        for (i, fp) in fps.iter().enumerate() {
            let v = m
                .get(i, fp.region.code())
                .expect("cell")
                .as_float()
                .expect("float");
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn agglomeration_produces_n_minus_one_merges() {
        let w = world();
        let fps = world_fingerprints(&w.flavor, &w.recipes, 0);
        let merges = agglomerate(&fps);
        assert_eq!(merges.len(), 21);
        // Similarities are finite and in [0, 1]; the final merge joins
        // everything.
        for m in &merges {
            assert!((0.0..=1.0).contains(&m.similarity));
        }
        let last = merges.last().expect("21 merges");
        assert_eq!(last.left.len() + last.right.len(), 22);
        // Merge similarities trend downward (not strictly monotone for
        // average linkage, but the first should beat the last).
        assert!(merges[0].similarity >= last.similarity);
    }

    #[test]
    fn degenerate_agglomeration() {
        assert!(agglomerate(&[]).is_empty());
        let w = world();
        let one = vec![CuisineFingerprint::of(
            &w.flavor,
            &w.recipes.cuisine(Region::Italy),
            0,
        )];
        assert!(agglomerate(&one).is_empty());
    }
}
