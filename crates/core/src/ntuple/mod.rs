//! Higher-order flavor sharing: the paper's proposed extension from
//! ingredient *pairs* to triples and quadruples (§V: "What are the
//! patterns at higher order n-tuples?").
//!
//! For a recipe R with n ≥ k ingredients we define
//!
//! ```text
//! N_s^(k)(R) = 1 / C(n, k) · Σ_{S ⊆ R, |S| = k} |∩_{i∈S} F_i|
//! ```
//!
//! the mean number of flavor compounds shared by *all* members of a
//! k-subset. k = 2 recovers the paper's pairwise N_s exactly.
//!
//! The implementation routes every subset walk through the packed-u64
//! bitset kernel: a [`KTupleKernel`] packs the pool's profiles over
//! their own [`culinaria_flavordb::MoleculeUniverse`] once, and
//! [`crate::pairing::IntersectScratch`] walks k-subsets with a
//! prefix-mask stack — one word-AND + popcount per step, with empty
//! prefixes pruning whole subtrees. Counts are exact integers, so every
//! score is bit-identical to the frozen [`mod@reference`] walker (property-
//! tested, and re-asserted by the `bench_ntuple` harness), and the
//! null ensembles run through [`crate::monte_carlo`]'s block queue, so
//! they are bit-identical for every thread count.

pub mod reference;

use std::collections::HashMap;

use culinaria_flavordb::{FlavorDb, IngredientId, MoleculeUniverse};
use culinaria_obs::Metrics;
use culinaria_recipedb::Cuisine;
use culinaria_stats::pool;
use culinaria_stats::NullEnsemble;

use crate::error::StageFailure;
use crate::monte_carlo::{run_ensembles, Ensemble, McNames, MonteCarloConfig, Scorer};
use crate::null_models::{CuisineSampler, NullModel};
use crate::pairing::IntersectScratch;
use crate::view::{CuisineView, FlavorViewRef};

/// C(n, k) as an exact integer (0 when k > n). Recipe sizes stay far
/// below the u64 horizon, but the accumulator is widened anyway.
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 1..=k {
        acc = acc * (n - k + i) as u128 / i as u128;
    }
    u64::try_from(acc).expect("binomial over recipe sizes fits u64")
}

/// Packed flavor profiles of an ingredient pool, ready for k-way
/// bitset intersections.
///
/// The pool is mapped to dense local indices `0..len` (same ordering
/// contract as [`crate::pairing::OverlapCache`]: a cuisine's sorted
/// ingredient set), and each profile is packed over the pool's own
/// molecule universe, so a k-way intersection is a prefix-mask AND +
/// popcount instead of k − 1 sorted merges.
#[derive(Debug, Clone)]
pub struct KTupleKernel {
    pool: Vec<IngredientId>,
    local: HashMap<IngredientId, u32>,
    /// `u64` blocks per packed profile.
    words: usize,
    /// Flattened row-major bit matrix: row `r` at `r*words..(r+1)*words`.
    bits: Vec<u64>,
}

impl KTupleKernel {
    /// Pack the profiles of an explicit pool (rows in pool order) from
    /// a flavor view (owned database or zero-copy artifact). Profile
    /// slices are identical across representations, so the packed bit
    /// matrix (and every score derived from it) is bit-identical.
    ///
    /// # Panics
    /// Panics on a dead ingredient id.
    pub fn build<'a>(view: impl Into<FlavorViewRef<'a>>, pool: &[IngredientId]) -> KTupleKernel {
        let view = view.into();
        let profiles: Vec<_> = pool
            .iter()
            .map(|&id| view.profile_molecules(id).expect("live ingredient"))
            .collect();
        let universe = MoleculeUniverse::build(profiles.iter().copied());
        let words = universe.words();
        let mut bits = Vec::with_capacity(pool.len() * words);
        for p in &profiles {
            bits.extend_from_slice(universe.pack(p).words());
        }
        let local = pool
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        KTupleKernel {
            pool: pool.to_vec(),
            local,
            words,
            bits,
        }
    }

    /// Build over a cuisine's distinct ingredient set — the same local
    /// indexing as [`CuisineSampler::build`] and
    /// [`crate::pairing::OverlapCache::for_cuisine`] on that cuisine.
    pub fn for_cuisine<'a>(
        view: impl Into<FlavorViewRef<'a>>,
        cuisine: impl Into<CuisineView<'a>>,
    ) -> KTupleKernel {
        KTupleKernel::build(view, &cuisine.into().ingredient_set())
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// The pool in local-index order.
    pub fn pool(&self) -> &[IngredientId] {
        &self.pool
    }

    /// Local index of an ingredient, if it is in the pool.
    pub fn local_index(&self, id: IngredientId) -> Option<u32> {
        self.local.get(&id).copied()
    }

    /// N_s^(k) over local pool positions; 0 when `k < 2` or the recipe
    /// has fewer than k members.
    pub fn score_local_with(
        &self,
        locals: &[u32],
        k: usize,
        scratch: &mut IntersectScratch,
    ) -> f64 {
        let n = locals.len();
        if k < 2 || n < k {
            return 0.0;
        }
        let total = scratch.ktuple_sum(&self.bits, self.words, locals, k);
        total as f64 / binomial(n, k) as f64
    }

    /// N_s^(k) over ingredient ids, resolving locals into a caller-owned
    /// buffer; `None` when an id is outside the pool.
    pub fn score_ids_with(
        &self,
        ingredients: &[IngredientId],
        k: usize,
        locals: &mut Vec<u32>,
        scratch: &mut IntersectScratch,
    ) -> Option<f64> {
        locals.clear();
        for &id in ingredients {
            locals.push(self.local_index(id)?);
        }
        Some(self.score_local_with(locals, k, scratch))
    }
}

/// N_s^(k) of a recipe. 0 when the recipe has fewer than k ingredients
/// or k < 2. Bit-identical to [`reference::recipe_ktuple_score`].
pub fn recipe_ktuple_score(db: &FlavorDb, ingredients: &[IngredientId], k: usize) -> f64 {
    let n = ingredients.len();
    if k < 2 || n < k {
        return 0.0;
    }
    // Pack over the recipe's own profiles; rows align with input order,
    // so the locals are just 0..n (duplicates simply repeat a row, the
    // same thing the reference walker does with duplicate profiles).
    let kernel = KTupleKernel::build(db, ingredients);
    let locals: Vec<u32> = (0..n as u32).collect();
    kernel.score_local_with(&locals, k, &mut IntersectScratch::new())
}

/// Recipes per observed-scoring task (the parallel granularity of
/// [`mean_cuisine_ktuple_score`]).
const RECIPE_BLOCK: usize = 256;

/// Mean N_s^(k) over a cuisine's recipes of size ≥ k, via one shared
/// [`KTupleKernel`] (pack once, walk every recipe), with `n_threads`
/// workers (0 = available parallelism).
///
/// Recipes are scored in fixed blocks across the worker pool and the
/// per-recipe scores are folded **in recipe order**, so the mean is
/// bit-identical for every thread count (and to the serial fold).
pub fn mean_cuisine_ktuple_score(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    k: usize,
    n_threads: usize,
) -> f64 {
    let kernel = KTupleKernel::for_cuisine(db, cuisine);
    let eligible: Vec<&[IngredientId]> = cuisine
        .recipes()
        .iter()
        .filter(|r| r.size() >= k)
        .map(|r| r.ingredients())
        .collect();
    if eligible.is_empty() {
        return 0.0;
    }
    let n_blocks = eligible.len().div_ceil(RECIPE_BLOCK);
    let blocks = pool::run(
        n_threads,
        n_blocks,
        || (Vec::new(), IntersectScratch::new()),
        |(locals, scratch), b| {
            let lo = b * RECIPE_BLOCK;
            let hi = ((b + 1) * RECIPE_BLOCK).min(eligible.len());
            eligible[lo..hi]
                .iter()
                .map(|ings| {
                    kernel
                        .score_ids_with(ings, k, locals, scratch)
                        .expect("cuisine pool covers its own recipes")
                })
                .collect::<Vec<f64>>()
        },
    );
    let mut total = 0.0;
    for block in &blocks {
        for &s in block {
            total += s;
        }
    }
    total / eligible.len() as f64
}

/// Scores k-tuple sharing over *local pool indices* emitted by a
/// [`CuisineSampler`], for null-model comparison at order k — the
/// kernel-backed replacement for [`reference::KTupleScorer`].
///
/// ```
/// use culinaria_core::ntuple::KTupleScorer;
/// use culinaria_flavordb::{Category, FlavorDb};
/// use culinaria_recipedb::{RecipeStore, Region, Source};
///
/// let mut db = FlavorDb::new();
/// db.add_anonymous_molecules(4);
/// use culinaria_flavordb::MoleculeId as M;
/// // All three ingredients share molecule 0; nothing else is common
/// // to any triple.
/// let a = db.add_ingredient("a", Category::Herb, vec![M(0), M(1)]).unwrap();
/// let b = db.add_ingredient("b", Category::Herb, vec![M(0), M(2)]).unwrap();
/// let c = db.add_ingredient("c", Category::Herb, vec![M(0), M(3)]).unwrap();
///
/// let mut store = RecipeStore::new();
/// store.add_recipe("r", Region::Italy, Source::Synthetic, vec![a, b, c]).unwrap();
/// let cuisine = store.cuisine(Region::Italy);
///
/// let scorer = KTupleScorer::for_cuisine(&db, &cuisine, 3);
/// assert_eq!(scorer.k(), 3);
/// // The cuisine pool is its sorted ingredient set, locals 0..3:
/// // exactly one molecule survives the 3-way intersection.
/// assert_eq!(scorer.score_local(&[0, 1, 2]), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct KTupleScorer {
    kernel: KTupleKernel,
    k: usize,
}

impl KTupleScorer {
    /// Build over the same pool ordering as
    /// [`CuisineSampler::build`] / `OverlapCache::for_cuisine` (the
    /// cuisine's sorted ingredient set).
    pub fn for_cuisine(db: &FlavorDb, cuisine: &Cuisine<'_>, k: usize) -> KTupleScorer {
        KTupleScorer {
            kernel: KTupleKernel::for_cuisine(db, cuisine),
            k,
        }
    }

    /// The subset order k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying kernel.
    pub fn kernel(&self) -> &KTupleKernel {
        &self.kernel
    }

    /// N_s^(k) over local pool positions (allocates a fresh scratch;
    /// batch callers should use [`KTupleScorer::score_local_with`]).
    pub fn score_local(&self, locals: &[u32]) -> f64 {
        self.kernel
            .score_local_with(locals, self.k, &mut IntersectScratch::new())
    }

    /// Allocation-free [`KTupleScorer::score_local`].
    pub fn score_local_with(&self, locals: &[u32], scratch: &mut IntersectScratch) -> f64 {
        self.kernel.score_local_with(locals, self.k, scratch)
    }
}

/// The PRNG stream id of one `(k, model, block)` cell of the
/// Monte-Carlo queue. Salting with k keeps ensembles of different
/// orders on disjoint streams even under one run seed (the pairwise
/// ensembles sit at k = 0 of this layout and stay disjoint too).
pub(crate) fn ktuple_stream(k: usize, model: NullModel, block: usize) -> u64 {
    (k as u64) << 48 | (model.index() as u64) << 32 | block as u64
}

/// [`ktuple_null_ensemble`]'s instrument and fault-stage names.
const KTUPLE: McNames = McNames {
    span: "mc.ktuple.run",
    recipes: "mc.ktuple.recipes",
    blocks: "mc.ktuple.blocks",
    block_us: "mc.ktuple.block_us",
    stage: "mc.ktuple.block",
};

/// Monte-Carlo null ensemble of N_s^(k) for one cuisine and model,
/// parallel over fixed 2048-recipe blocks on the shared worker pool.
///
/// Block `b` draws from `derive_seed(cfg.seed, k << 48 | model << 32 |
/// b)` and per-block statistics merge in block order, so the ensemble
/// is **bit-identical for every thread count** — the same determinism
/// contract as the pairwise engine (DESIGN.md §6.2). Callers salt
/// `cfg.seed` per region (`derive_seed_labeled`) as usual.
///
/// Returns `Ok(None)` for a degenerate ensemble (fewer than two
/// recipes). A panicking sampling block becomes a structured
/// [`StageFailure`] at stage `mc.ktuple.block`: the
/// `error.mc.ktuple.block` counter is bumped and the lowest failing
/// block index is reported, identically for any thread count.
///
/// Instruments recorded through `metrics`: span `mc.ktuple.run`,
/// counters `mc.ktuple.recipes` / `mc.ktuple.blocks`, per-block
/// wall-time histogram `mc.ktuple.block_us`, and the shared `pool.*`
/// instruments — the k-tuple mirror of
/// [`crate::monte_carlo::run_null_model`], with the same guarantee: the
/// ensemble does not depend on whether `metrics` is enabled.
pub fn ktuple_null_ensemble(
    scorer: &KTupleScorer,
    sampler: &CuisineSampler,
    model: NullModel,
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<NullEnsemble>, StageFailure> {
    let ensemble = Ensemble {
        sampler,
        scorer: Scorer::KTuple(scorer),
        model,
        seed: cfg.seed,
    };
    let mut out = run_ensembles(&[ensemble], cfg.n_recipes, cfg.n_threads, &KTUPLE, metrics)?;
    Ok(out.pop().flatten())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::recipe_pairing_score;
    use culinaria_flavordb::{Category, MoleculeId};
    use culinaria_recipedb::{RecipeStore, Region, Source};

    fn fixture() -> (FlavorDb, Vec<IngredientId>) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(12);
        // a, b, c all share molecule 0; pairs share extra molecules.
        let a = db
            .add_ingredient(
                "a",
                Category::Herb,
                vec![MoleculeId(0), MoleculeId(1), MoleculeId(2)],
            )
            .unwrap();
        let b = db
            .add_ingredient(
                "b",
                Category::Herb,
                vec![MoleculeId(0), MoleculeId(1), MoleculeId(3)],
            )
            .unwrap();
        let c = db
            .add_ingredient(
                "c",
                Category::Herb,
                vec![MoleculeId(0), MoleculeId(2), MoleculeId(3)],
            )
            .unwrap();
        let d = db
            .add_ingredient("d", Category::Meat, vec![MoleculeId(9)])
            .unwrap();
        (db, vec![a, b, c, d])
    }

    /// An uninstrumented ensemble that must not fail.
    fn ensemble(
        scorer: &KTupleScorer,
        sampler: &CuisineSampler,
        cfg: &MonteCarloConfig,
    ) -> Option<NullEnsemble> {
        ktuple_null_ensemble(
            scorer,
            sampler,
            NullModel::Random,
            cfg,
            &Metrics::disabled(),
        )
        .expect("no faults")
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(5, 3), 10);
        assert_eq!(binomial(3, 3), 1);
        assert_eq!(binomial(3, 0), 1);
        assert_eq!(binomial(2, 3), 0);
        assert_eq!(binomial(30, 15), 155_117_520);
    }

    #[test]
    fn k2_matches_pairwise_score() {
        let (db, ids) = fixture();
        for subset in [&ids[0..2], &ids[0..3], &ids[0..4]] {
            let pairwise = recipe_pairing_score(&db, subset);
            let k2 = recipe_ktuple_score(&db, subset, 2);
            assert!((pairwise - k2).abs() < 1e-12);
        }
    }

    #[test]
    fn triple_score_known_value() {
        let (db, ids) = fixture();
        // (a,b,c): only molecule 0 is in all three → N_s^(3) = 1.
        let s = recipe_ktuple_score(&db, &ids[0..3], 3);
        assert!((s - 1.0).abs() < 1e-12);
        // (a,b,c,d): C(4,3)=4 triples; only (a,b,c) shares (1), others
        // include d and share 0 → 1/4.
        let s = recipe_ktuple_score(&db, &ids, 3);
        assert!((s - 0.25).abs() < 1e-12);
        // Quadruple over (a,b,c,d): ∩ is empty → 0.
        assert_eq!(recipe_ktuple_score(&db, &ids, 4), 0.0);
    }

    #[test]
    fn degenerate_k_and_small_recipes() {
        let (db, ids) = fixture();
        assert_eq!(recipe_ktuple_score(&db, &ids[0..2], 3), 0.0);
        assert_eq!(recipe_ktuple_score(&db, &ids, 1), 0.0);
        assert_eq!(recipe_ktuple_score(&db, &[], 2), 0.0);
    }

    #[test]
    fn kernel_matches_reference_walker_bitwise() {
        let (db, ids) = fixture();
        for k in 2..=5 {
            for subset in [&ids[0..2], &ids[0..3], &ids[1..4], &ids[0..4]] {
                let kernel = recipe_ktuple_score(&db, subset, k);
                let walker = reference::recipe_ktuple_score(&db, subset, k);
                assert_eq!(kernel.to_bits(), walker.to_bits(), "k = {k}");
            }
        }
    }

    #[test]
    fn cuisine_mean_and_scorer_agree() {
        let (db, ids) = fixture();
        let mut store = RecipeStore::new();
        store
            .add_recipe("r1", Region::Italy, Source::Synthetic, ids[0..3].to_vec())
            .unwrap();
        store
            .add_recipe("r2", Region::Italy, Source::Synthetic, ids.clone())
            .unwrap();
        let cuisine = store.cuisine(Region::Italy);
        let mean = mean_cuisine_ktuple_score(&db, &cuisine, 3, 0);
        assert!((mean - (1.0 + 0.25) / 2.0).abs() < 1e-12);

        let scorer = KTupleScorer::for_cuisine(&db, &cuisine, 3);
        // Local pool is sorted ids = [a, b, c, d] at positions 0..4.
        let s = scorer.score_local(&[0, 1, 2]);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(scorer.k(), 3);
        assert_eq!(scorer.kernel().len(), 4);
    }

    #[test]
    fn cuisine_mean_identical_for_any_thread_count() {
        let (db, ids) = fixture();
        let mut store = RecipeStore::new();
        for i in 0..600 {
            let members = match i % 3 {
                0 => ids[0..3].to_vec(),
                1 => ids[1..4].to_vec(),
                _ => ids.clone(),
            };
            store
                .add_recipe(&format!("r{i}"), Region::Italy, Source::Synthetic, members)
                .unwrap();
        }
        let cuisine = store.cuisine(Region::Italy);
        for k in [2usize, 3] {
            let serial = mean_cuisine_ktuple_score(&db, &cuisine, k, 1);
            let walker = {
                // Reference fold over the same recipes.
                let mut total = 0.0;
                let mut n = 0usize;
                for r in cuisine.recipes() {
                    if r.size() >= k {
                        total += reference::recipe_ktuple_score(&db, r.ingredients(), k);
                        n += 1;
                    }
                }
                total / n as f64
            };
            assert_eq!(serial.to_bits(), walker.to_bits(), "k = {k} vs reference");
            for threads in [0, 2, 8] {
                let parallel = mean_cuisine_ktuple_score(&db, &cuisine, k, threads);
                assert_eq!(serial.to_bits(), parallel.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn null_ensemble_deterministic_across_thread_counts() {
        let (db, ids) = fixture();
        let mut store = RecipeStore::new();
        store
            .add_recipe("r1", Region::Italy, Source::Synthetic, ids[0..3].to_vec())
            .unwrap();
        store
            .add_recipe("r2", Region::Italy, Source::Synthetic, ids.clone())
            .unwrap();
        let cuisine = store.cuisine(Region::Italy);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let scorer = KTupleScorer::for_cuisine(&db, &cuisine, 3);
        let base = MonteCarloConfig {
            n_recipes: 8192,
            seed: 1,
            n_threads: 1,
        };
        let e = ensemble(&scorer, &sampler, &base).unwrap();
        assert_eq!(e.n, 8192);
        assert!(e.mean >= 0.0);
        for threads in [2, 8] {
            let cfg = MonteCarloConfig {
                n_threads: threads,
                ..base
            };
            let p = ensemble(&scorer, &sampler, &cfg).unwrap();
            assert_eq!(e.mean.to_bits(), p.mean.to_bits(), "{threads} threads");
            assert_eq!(
                e.std_dev.to_bits(),
                p.std_dev.to_bits(),
                "{threads} threads"
            );
        }
        // Degenerate request.
        let none = ensemble(
            &scorer,
            &sampler,
            &MonteCarloConfig {
                n_recipes: 0,
                ..base
            },
        );
        assert!(none.is_none());
    }

    #[test]
    fn observed_ensemble_matches_and_records() {
        let (db, ids) = fixture();
        let mut store = RecipeStore::new();
        store
            .add_recipe("r1", Region::Italy, Source::Synthetic, ids[0..3].to_vec())
            .unwrap();
        store
            .add_recipe("r2", Region::Italy, Source::Synthetic, ids.clone())
            .unwrap();
        let cuisine = store.cuisine(Region::Italy);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let scorer = KTupleScorer::for_cuisine(&db, &cuisine, 3);
        let cfg = MonteCarloConfig {
            n_recipes: 4096,
            seed: 3,
            n_threads: 2,
        };
        let plain = ensemble(&scorer, &sampler, &cfg).unwrap();
        let metrics = Metrics::enabled();
        let observed = ktuple_null_ensemble(&scorer, &sampler, NullModel::Random, &cfg, &metrics)
            .expect("no faults")
            .unwrap();
        assert_eq!(plain.mean.to_bits(), observed.mean.to_bits());
        assert_eq!(plain.std_dev.to_bits(), observed.std_dev.to_bits());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("mc.ktuple.recipes"), Some(4096));
        assert_eq!(snap.counter("mc.ktuple.blocks"), Some(2));
        assert_eq!(snap.span("mc.ktuple.run").unwrap().calls, 1);
        assert_eq!(snap.histogram("mc.ktuple.block_us").unwrap().count, 2);
    }

    #[test]
    fn streams_disjoint_across_k_and_model() {
        let mut seen = std::collections::HashSet::new();
        for k in [0usize, 2, 3, 4] {
            for model in NullModel::ALL {
                for block in 0..4 {
                    assert!(seen.insert(ktuple_stream(k, model, block)));
                }
            }
        }
    }
}
