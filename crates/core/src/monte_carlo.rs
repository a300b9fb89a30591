//! The Monte-Carlo engine: 100,000 randomized recipes per null model,
//! scored against the overlap cache, summarized as a
//! [`NullEnsemble`].
//!
//! Parallelism is the shared worker pool ([`culinaria_stats::pool`])
//! over fixed-size *blocks* of recipes. Each block derives its PRNG
//! seed deterministically from `(run seed, model, block index)` and
//! accumulates its own [`RunningStats`]; the pool returns block results
//! in block order (one lock-free slot per block, one writer per slot),
//! and they are merged in that canonical order. The result is therefore
//! **bit-identical regardless of thread count** — a design choice
//! DESIGN.md calls out.
//!
//! Workers carry a reusable `McScratch` (recipe buffer + distinctness
//! bitmask), so the steady state of a run allocates nothing per sampled
//! recipe.

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_obs::Metrics;
use culinaria_stats::rng::derive_seed;
use culinaria_stats::{fault, pool};
use culinaria_stats::{NullEnsemble, RunningStats};

use crate::error::StageFailure;
use crate::null_models::{CuisineSampler, NullModel, SampleScratch};
use crate::pairing::OverlapCache;

/// Recipes per scheduling block (also the determinism granularity).
pub(crate) const BLOCK: usize = 2048;

/// Per-worker reusable buffers for Monte-Carlo sampling.
#[derive(Debug, Default)]
pub(crate) struct McScratch {
    recipe: Vec<u32>,
    sample: SampleScratch,
}

impl McScratch {
    pub(crate) fn new() -> McScratch {
        McScratch::default()
    }
}

/// Sample and score one block of recipes — the unit of work both the
/// single-cuisine runner and the flattened world pipeline feed to the
/// pool. `run_seed` is the seed the whole run was configured with;
/// the block's own stream is derived from `(run_seed, model, block)`,
/// so a block's statistics depend only on those three values.
pub(crate) fn block_stats(
    cache: &OverlapCache,
    sampler: &CuisineSampler,
    model: NullModel,
    run_seed: u64,
    block: usize,
    n_recipes: usize,
    scratch: &mut McScratch,
) -> RunningStats {
    let lo = block * BLOCK;
    let hi = ((block + 1) * BLOCK).min(n_recipes);
    let stream = (model.index() as u64) << 32 | block as u64;
    let mut rng = StdRng::seed_from_u64(derive_seed(run_seed, stream));
    let mut stats = RunningStats::new();
    for _ in lo..hi {
        sampler.generate_into(model, &mut rng, &mut scratch.recipe, &mut scratch.sample);
        stats.push(cache.score_local(&scratch.recipe));
    }
    stats
}

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of randomized recipes per model (paper: 100,000).
    pub n_recipes: usize,
    /// Run seed; combined with the model and block index per stream.
    pub seed: u64,
    /// Worker threads; 0 means use the available parallelism.
    pub n_threads: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            n_recipes: 100_000,
            seed: 0xC0FFEE,
            n_threads: 0,
        }
    }
}

impl MonteCarloConfig {
    /// A reduced configuration for tests and quick runs.
    pub fn quick(n_recipes: usize) -> Self {
        MonteCarloConfig {
            n_recipes,
            ..MonteCarloConfig::default()
        }
    }
}

/// Run one null model for one cuisine: sample `cfg.n_recipes` recipes,
/// score each against `cache`, and summarize.
///
/// Returns `Ok(None)` when the ensemble is degenerate (fewer than two
/// recipes sampled). A panicking sampling block becomes a structured
/// [`StageFailure`] at stage `mc.block`: the `error.mc.block` counter
/// is bumped and the lowest failing block index is reported,
/// identically for any thread count.
///
/// Instruments recorded through `metrics`:
///
/// * span `mc.run` — one call per (cuisine, model) run;
/// * counters `mc.recipes` and `mc.blocks` — sampled recipes and
///   scheduling blocks;
/// * histogram `mc.block_us` — per-block wall time (its spread shows
///   sampler imbalance between full and partial blocks);
/// * the shared `pool.*` instruments.
///
/// The ensemble does not depend on whether `metrics` is enabled: block
/// seeds, sampling, and the block-order merge are untouched, and the
/// only per-block cost when enabled is one clock read pair.
pub fn run_null_model(
    cache: &OverlapCache,
    sampler: &CuisineSampler,
    model: NullModel,
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<NullEnsemble>, StageFailure> {
    let n_blocks = cfg.n_recipes.div_ceil(BLOCK);
    if n_blocks == 0 {
        return Ok(None);
    }
    let run_span = metrics.span("mc.run");
    let run_guard = run_span.enter();
    metrics.counter("mc.recipes").add(cfg.n_recipes as u64);
    metrics.counter("mc.blocks").add(n_blocks as u64);
    let block_hist = metrics.histogram("mc.block_us");
    let blocks = pool::try_run_observed(
        cfg.n_threads,
        n_blocks,
        &pool::PoolObs::new(metrics),
        McScratch::new,
        |scratch, b| -> Result<RunningStats, fault::InjectedFault> {
            fault::probe("mc.block", b)?;
            let timer = block_hist.start();
            let stats = block_stats(cache, sampler, model, cfg.seed, b, cfg.n_recipes, scratch);
            timer.stop();
            Ok(stats)
        },
    )
    .map_err(|f| StageFailure::from_task("mc.block", f).record(metrics))?;

    // Deterministic merge in block order (the pool already returned the
    // blocks in that order).
    let mut total = RunningStats::new();
    for s in &blocks {
        total.merge(s);
    }
    let out = NullEnsemble::from_running(&total);
    run_guard.stop();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::{Category, FlavorDb, IngredientId, MoleculeId};
    use culinaria_recipedb::{RecipeStore, Region, Source};

    fn fixture() -> (FlavorDb, RecipeStore) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(30);
        // 8 ingredients with overlapping profiles.
        for i in 0..8u32 {
            let mols: Vec<MoleculeId> = (i..i + 5).map(MoleculeId).collect();
            let cat = if i < 4 {
                Category::Herb
            } else {
                Category::Meat
            };
            db.add_ingredient(&format!("ing{i}"), cat, mols).unwrap();
        }
        let mut store = RecipeStore::new();
        let ing = |i: u32| IngredientId(i);
        store
            .add_recipe(
                "r1",
                Region::Italy,
                Source::Synthetic,
                vec![ing(0), ing(1), ing(2)],
            )
            .unwrap();
        store
            .add_recipe(
                "r2",
                Region::Italy,
                Source::Synthetic,
                vec![ing(3), ing(4), ing(5)],
            )
            .unwrap();
        store
            .add_recipe(
                "r3",
                Region::Italy,
                Source::Synthetic,
                vec![ing(5), ing(6), ing(7), ing(0)],
            )
            .unwrap();
        (db, store)
    }

    /// An uninstrumented run that must not fail.
    fn run(
        cache: &OverlapCache,
        sampler: &CuisineSampler,
        model: NullModel,
        cfg: &MonteCarloConfig,
    ) -> Option<NullEnsemble> {
        run_null_model(cache, sampler, model, cfg, &Metrics::disabled()).expect("no faults")
    }

    #[test]
    fn ensemble_statistics_are_sane() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig::quick(5000);
        for model in NullModel::ALL {
            let e = run(&cache, &sampler, model, &cfg).unwrap();
            assert_eq!(e.n, 5000);
            assert!(e.mean >= 0.0, "{model}: mean {}", e.mean);
            assert!(e.std_dev > 0.0, "{model}: zero spread");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let base = MonteCarloConfig {
            n_recipes: 8192,
            seed: 42,
            n_threads: 1,
        };
        let a = run(&cache, &sampler, NullModel::Frequency, &base).unwrap();
        for threads in [2, 3, 8] {
            let cfg = MonteCarloConfig {
                n_threads: threads,
                ..base
            };
            let b = run(&cache, &sampler, NullModel::Frequency, &cfg).unwrap();
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{threads} threads");
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let a = run(
            &cache,
            &sampler,
            NullModel::Random,
            &MonteCarloConfig {
                n_recipes: 2000,
                seed: 1,
                n_threads: 2,
            },
        )
        .unwrap();
        let b = run(
            &cache,
            &sampler,
            NullModel::Random,
            &MonteCarloConfig {
                n_recipes: 2000,
                seed: 2,
                n_threads: 2,
            },
        )
        .unwrap();
        assert_ne!(a.mean.to_bits(), b.mean.to_bits());
    }

    #[test]
    fn observed_run_matches_and_records() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig {
            n_recipes: 5000, // 3 blocks, last partial
            seed: 7,
            n_threads: 2,
        };
        let plain = run(&cache, &sampler, NullModel::Frequency, &cfg).unwrap();
        let metrics = Metrics::enabled();
        let observed = run_null_model(&cache, &sampler, NullModel::Frequency, &cfg, &metrics)
            .expect("no faults")
            .unwrap();
        assert_eq!(plain.mean.to_bits(), observed.mean.to_bits());
        assert_eq!(plain.std_dev.to_bits(), observed.std_dev.to_bits());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("mc.recipes"), Some(5000));
        assert_eq!(snap.counter("mc.blocks"), Some(3));
        assert_eq!(snap.span("mc.run").unwrap().calls, 1);
        assert_eq!(snap.histogram("mc.block_us").unwrap().count, 3);
        assert_eq!(snap.counter("pool.runs"), Some(1));
    }

    #[test]
    fn zero_recipes_gives_none() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig::quick(0);
        assert_eq!(
            run_null_model(
                &cache,
                &sampler,
                NullModel::Random,
                &cfg,
                &Metrics::disabled()
            ),
            Ok(None)
        );
    }

    #[test]
    fn partial_final_block_counts_exactly() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        let sampler = CuisineSampler::build(&db, &cuisine).unwrap();
        let cfg = MonteCarloConfig::quick(3000); // not a multiple of BLOCK
        let e = run(&cache, &sampler, NullModel::Random, &cfg).unwrap();
        assert_eq!(e.n, 3000);
    }
}
