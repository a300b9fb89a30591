//! The Monte-Carlo engine: 100,000 randomized recipes per null model,
//! scored against the overlap cache (or a k-tuple scorer), summarized
//! as a [`NullEnsemble`].
//!
//! Every null ensemble in the crate is sampled through one block queue
//! (`run_ensembles`): [`run_null_model`], [`crate::ntuple::ktuple_null_ensemble`]
//! and the z_analysis engines, which queue every `(region, model)`
//! ensemble of a run at once. Each keeps its own instrument and fault
//! names: `mc.*` here, `mc.ktuple.*` for k-tuples, `world.mc` /
//! `world.block` for z_analysis.
//!
//! Parallelism is the shared worker pool ([`culinaria_stats::pool`])
//! over fixed-size *blocks* of recipes. Each block derives its PRNG
//! seed deterministically from `(ensemble seed, k, model, block index)`
//! and accumulates its own [`RunningStats`]; the pool returns block
//! results in task order, and each ensemble's blocks are merged in
//! block order. The result is therefore **bit-identical regardless of
//! thread count** — a design choice DESIGN.md calls out. Workers reuse
//! one scratch (recipe buffer, distinctness bitmask, k-way intersection
//! stack), so a run allocates nothing per sampled recipe.

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_obs::Metrics;
use culinaria_stats::rng::derive_seed;
use culinaria_stats::{fault, pool};
use culinaria_stats::{NullEnsemble, RunningStats};

use crate::error::StageFailure;
use crate::ntuple::{ktuple_stream, KTupleScorer};
use crate::null_models::{CuisineSampler, NullModel, SampleScratch};
use crate::pairing::{IntersectScratch, OverlapCache};

/// Recipes per scheduling block (also the determinism granularity).
pub(crate) const BLOCK: usize = 2048;

/// What a null recipe is scored by.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scorer<'a> {
    /// Pairwise N_s over a cuisine's overlap cache (stream order 0).
    Pairs(&'a OverlapCache),
    /// N_s^(k) over a cuisine's k-tuple scorer (stream order k).
    KTuple(&'a KTupleScorer),
}

/// One null ensemble to sample: draws of `model` from `sampler`,
/// scored by `scorer`, on streams derived from `seed`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ensemble<'a> {
    pub(crate) sampler: &'a CuisineSampler,
    pub(crate) scorer: Scorer<'a>,
    pub(crate) model: NullModel,
    pub(crate) seed: u64,
}

/// What a caller of `run_ensembles` records under: a span around the
/// queue and fold, recipe and block counters, a per-block wall-time
/// histogram, and the fault stage, indexed by task
/// (`ensemble * n_blocks + block`).
#[derive(Debug)]
pub(crate) struct McNames {
    pub(crate) span: &'static str,
    pub(crate) recipes: &'static str,
    pub(crate) blocks: &'static str,
    pub(crate) block_us: &'static str,
    pub(crate) stage: &'static str,
}

/// [`run_null_model`]'s names.
const PAIRS: McNames = McNames {
    span: "mc.run",
    recipes: "mc.recipes",
    blocks: "mc.blocks",
    block_us: "mc.block_us",
    stage: "mc.block",
};

/// Per-worker reusable buffers for Monte-Carlo sampling.
#[derive(Debug, Default)]
struct McScratch {
    recipe: Vec<u32>,
    sample: SampleScratch,
    inter: IntersectScratch,
}

/// Sample and score block `block` of an ensemble at stream order `k`.
/// Its stream is derived from `(seed, k, model, block)` alone, so its
/// statistics depend only on those values.
fn sample_block(
    e: &Ensemble<'_>,
    k: usize,
    block: usize,
    n_recipes: usize,
    scratch: &mut McScratch,
    score: impl Fn(&[u32], &mut IntersectScratch) -> f64,
) -> RunningStats {
    let mut rng = StdRng::seed_from_u64(derive_seed(e.seed, ktuple_stream(k, e.model, block)));
    let mut stats = RunningStats::new();
    for _ in block * BLOCK..((block + 1) * BLOCK).min(n_recipes) {
        e.sampler
            .generate_into(e.model, &mut rng, &mut scratch.recipe, &mut scratch.sample);
        stats.push(score(&scratch.recipe, &mut scratch.inter));
    }
    stats
}

/// The Monte-Carlo block queue: `n_recipes` null recipes for every
/// ensemble, summarized per ensemble in `ensembles` order (`None` for
/// a degenerate one, fewer than two recipes).
///
/// Every `(ensemble, block)` task goes through one
/// [`pool::try_run_observed`] call, ensemble-major, with no barrier
/// between ensembles; each ensemble's blocks are then folded in block
/// order. With no tasks nothing is recorded. A failing or panicking
/// block becomes a [`StageFailure`] at `names.stage` (the lowest
/// failing task index wins, for any thread count). The ensembles do not
/// depend on whether `metrics` is enabled: the only per-block cost when
/// enabled is one clock read pair.
pub(crate) fn run_ensembles(
    ensembles: &[Ensemble<'_>],
    n_recipes: usize,
    n_threads: usize,
    names: &McNames,
    metrics: &Metrics,
) -> Result<Vec<Option<NullEnsemble>>, StageFailure> {
    let n_blocks = n_recipes.div_ceil(BLOCK);
    let n_tasks = ensembles.len() * n_blocks;
    if n_tasks == 0 {
        return Ok(vec![None; ensembles.len()]);
    }
    let span = metrics.span(names.span);
    let _guard = span.enter();
    metrics
        .counter(names.recipes)
        .add((ensembles.len() * n_recipes) as u64);
    metrics.counter(names.blocks).add(n_tasks as u64);
    let block_hist = metrics.histogram(names.block_us);
    let blocks = pool::try_run_observed(
        n_threads,
        n_tasks,
        &pool::PoolObs::new(metrics),
        McScratch::default,
        |scratch, t| -> Result<RunningStats, fault::InjectedFault> {
            fault::probe(names.stage, t)?;
            let timer = block_hist.start();
            let (e, b) = (&ensembles[t / n_blocks], t % n_blocks);
            // One match per block, so the per-recipe loop is static.
            let stats = match e.scorer {
                Scorer::Pairs(c) => {
                    sample_block(e, 0, b, n_recipes, scratch, |r, _| c.score_local(r))
                }
                Scorer::KTuple(kt) => sample_block(e, kt.k(), b, n_recipes, scratch, |r, i| {
                    kt.score_local_with(r, i)
                }),
            };
            timer.stop();
            Ok(stats)
        },
    )
    .map_err(|f| StageFailure::from_task(names.stage, f).record(metrics))?;
    Ok(blocks
        .chunks(n_blocks)
        .map(|chunk| {
            let mut total = RunningStats::new();
            for s in chunk {
                total.merge(s);
            }
            NullEnsemble::from_running(&total)
        })
        .collect())
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
/// score each against `cache`, and summarize. `cfg.seed` is used as
/// given (the z_analysis engines salt theirs per region).
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
/// The ensemble does not depend on whether `metrics` is enabled.
pub fn run_null_model(
    cache: &OverlapCache,
    sampler: &CuisineSampler,
    model: NullModel,
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<NullEnsemble>, StageFailure> {
    let ensemble = Ensemble {
        sampler,
        scorer: Scorer::Pairs(cache),
        model,
        seed: cfg.seed,
    };
    let mut out = run_ensembles(&[ensemble], cfg.n_recipes, cfg.n_threads, &PAIRS, metrics)?;
    Ok(out.pop().flatten())
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
