//! Z-score analysis of cuisines against the null models (Fig 4) and the
//! full 22-region driver.
//!
//! One engine, prepare → queue → merge, serves the world (every
//! populated region) and a single cuisine. Prepare builds each region's
//! sampler, overlap cache and observed mean; the queue puts every
//! `(region, model, block)` task of the run through
//! [`crate::monte_carlo`]'s block queue, so a thread finishing the last
//! block of one cuisine immediately starts the next cuisine's work
//! instead of idling at a per-region barrier; merge turns each
//! ensemble into a Z-score.
//!
//! Each region's Monte-Carlo streams are salted with its region code
//! (`derive_seed_labeled(cfg.seed, region.code())`), so (a) no two
//! regions share a random stream, and (b) analyzing a cuisine alone is
//! bit-identical to its row of the world run.
//!
//! The `try_…_observed` engines take views (owned or artifact-backed,
//! via `impl Into<…>`), record through `metrics` and return a
//! [`StageFailure`]; [`analyze_cuisine`] and [`analyze_world_view`] are
//! their uninstrumented, panicking forms.

use std::borrow::Cow;

use culinaria_flavordb::IngredientId;
use culinaria_obs::Metrics;
use culinaria_recipedb::Region;
use culinaria_stats::rng::derive_seed_labeled;
use culinaria_stats::zscore::z_score_of_mean;
use culinaria_stats::NullEnsemble;
use culinaria_tabular::{Column, Frame};

use crate::error::StageFailure;
use crate::monte_carlo::{run_ensembles, Ensemble, McNames, MonteCarloConfig, Scorer, BLOCK};
use crate::null_models::{CuisineSampler, NullModel};
use crate::pairing::{dead_pool_id, OverlapCache};
use crate::view::{CuisineView, FlavorViewRef, RecipesViewRef};

/// Result of one null-model comparison for one cuisine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelComparison {
    /// The null model compared against.
    pub model: NullModel,
    /// Null ensemble summary (mean, σ, n).
    pub null: NullEnsemble,
    /// Z = (⟨N_s⟩_cuisine − ⟨N_s⟩_null) / (σ_null / √n_null).
    /// `None` for a degenerate null.
    pub z: Option<f64>,
}

/// The full pairing analysis of one cuisine.
#[derive(Debug, Clone)]
pub struct CuisineAnalysis {
    /// The region analyzed.
    pub region: Region,
    /// Recipes with at least two ingredients (the pairing-bearing set).
    pub n_recipes: usize,
    /// Distinct ingredients in the cuisine.
    pub n_ingredients: usize,
    /// Observed mean flavor sharing ⟨N_s⟩.
    pub observed_mean: f64,
    /// One comparison per requested model, in request order.
    pub comparisons: Vec<ModelComparison>,
}

impl CuisineAnalysis {
    /// The comparison against a given model, if it was run.
    pub fn against(&self, model: NullModel) -> Option<&ModelComparison> {
        self.comparisons.iter().find(|c| c.model == model)
    }

    /// Z against the Random model — the headline Fig 4 number.
    pub fn z_random(&self) -> Option<f64> {
        self.against(NullModel::Random).and_then(|c| c.z)
    }

    /// The paper's trichotomy: positive, negative, or indistinguishable
    /// (|Z| < 1.96 at the 5% level).
    pub fn verdict(&self) -> PairingVerdict {
        match self.z_random() {
            Some(z) if z > 1.96 => PairingVerdict::Uniform,
            Some(z) if z < -1.96 => PairingVerdict::Contrasting,
            Some(_) => PairingVerdict::Indistinguishable,
            None => PairingVerdict::Indistinguishable,
        }
    }
}

/// The three possible characterizations of a cuisine (§II.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingVerdict {
    /// Uniform blend: positive food pairing.
    Uniform,
    /// Contrasting blend: negative food pairing.
    Contrasting,
    /// Statistically indistinguishable from random.
    Indistinguishable,
}

impl std::fmt::Display for PairingVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PairingVerdict::Uniform => "uniform",
            PairingVerdict::Contrasting => "contrasting",
            PairingVerdict::Indistinguishable => "random-like",
        })
    }
}

/// Analyze one cuisine against the given models. Returns `None` for
/// cuisines with no pairing-bearing recipes.
///
/// The Monte-Carlo streams are salted with the cuisine's region code,
/// so the result is bit-identical to the same region's row of
/// [`analyze_world_view`] under the same configuration.
///
/// # Panics
/// Panics on stage failures; see [`try_analyze_cuisine_view_observed`].
pub fn analyze_cuisine<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    cuisine: impl Into<CuisineView<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Option<CuisineAnalysis> {
    try_analyze_cuisine_view_observed(flavor, cuisine, None, models, cfg, &Metrics::disabled())
        .unwrap_or_else(|failure| panic!("cuisine analysis failed: {failure}"))
}

/// Obtain a region's overlap cache: when the flavor view carries a
/// precomputed overlap section labeled with the region code *and* the
/// section's pool is exactly the cuisine's ingredient set, reassemble
/// the cache from the stored triangle (one memcpy; counter
/// `overlap.section_reuse`) instead of re-running the O(n²·w)
/// intersection sweep. Sections are serialized from caches built by
/// this same code, so the reassembled cache is byte-identical to a
/// fresh build.
pub fn region_overlap_cache(
    flavor: FlavorViewRef<'_>,
    region: Region,
    pool: &[IngredientId],
    n_threads: usize,
    metrics: &Metrics,
) -> Result<OverlapCache, StageFailure> {
    if let Some((sec_pool, tri)) = flavor.overlap_section(region.code()) {
        if sec_pool == pool {
            if let Some(cache) = OverlapCache::from_parts(pool, tri.to_vec()) {
                metrics.counter("overlap.section_reuse").add(1);
                return Ok(cache);
            }
        }
    }
    OverlapCache::build(flavor, pool, n_threads, metrics)
}

/// A cuisine's null-model sampler, or `Ok(None)` when the cuisine has
/// no pairing-bearing recipe. The sampler also answers `None` when a
/// pool id is dead (removed from the flavor database, or missing from
/// a mismatched artifact); that is a failure, reported exactly as the
/// overlap-cache build over the same pool reports it (stage
/// `overlap.pack`, the id's pool index), so offline and served
/// analyses of the region fail alike.
fn region_sampler(
    flavor: FlavorViewRef<'_>,
    cuisine: &CuisineView<'_>,
    pool: &[IngredientId],
    metrics: &Metrics,
) -> Result<Option<CuisineSampler>, StageFailure> {
    if let Some(sampler) = CuisineSampler::build(flavor, cuisine.clone()) {
        return Ok(Some(sampler));
    }
    for (i, &id) in pool.iter().enumerate() {
        if let Err(e) = flavor.profile_molecules(id) {
            return Err(dead_pool_id(i, id, e).record(metrics));
        }
    }
    Ok(None)
}

/// The cuisine engine behind [`analyze_cuisine`]: the world engine
/// ([`try_analyze_world_view_observed`]) over one region, with its
/// instruments and failure stages; `Ok(None)` means "no
/// pairing-bearing recipes".
///
/// `cache` is the region's overlap cache when the caller keeps one
/// (`culinaria serve` builds each region's once); it must cover the
/// cuisine's ingredient set, as [`region_overlap_cache`]'s does. `None`
/// gets one from [`region_overlap_cache`]. The analysis depends neither
/// on `metrics`, nor on where the cache came from, nor on whether the
/// views are owned or artifact-backed.
pub fn try_analyze_cuisine_view_observed<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    cuisine: impl Into<CuisineView<'a>>,
    cache: Option<&OverlapCache>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Option<CuisineAnalysis>, StageFailure> {
    let (flavor, cuisine) = (flavor.into(), cuisine.into());
    let prepared = prepare(flavor, [(cuisine, cache)], cfg, metrics)?;
    Ok(analyze_prepared(&prepared, models, cfg, metrics)?.pop())
}

/// A region's immutable per-run state, shared read-only by every
/// worker of the Monte-Carlo queue.
struct PreparedRegion<'c> {
    region: Region,
    sampler: CuisineSampler,
    cache: Cow<'c, OverlapCache>,
    observed_mean: f64,
    /// Region-salted Monte-Carlo seed.
    seed: u64,
}

/// The prepare pass: a [`PreparedRegion`] per cuisine that carries a
/// pairing signal, in input order.
fn prepare<'a, 'c>(
    flavor: FlavorViewRef<'a>,
    cuisines: impl IntoIterator<Item = (CuisineView<'a>, Option<&'c OverlapCache>)>,
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<PreparedRegion<'c>>, StageFailure> {
    let _guard = metrics.span("world.prepare").enter();
    let mut prepared = Vec::new();
    for (cuisine, cache) in cuisines {
        let region = cuisine.region();
        let pool = match cache {
            Some(cache) => Cow::Borrowed(cache.pool()),
            None => Cow::Owned(cuisine.ingredient_set()),
        };
        let Some(sampler) = region_sampler(flavor, &cuisine, &pool, metrics)? else {
            continue;
        };
        let cache = match cache {
            Some(cache) => Cow::Borrowed(cache),
            None => Cow::Owned(region_overlap_cache(
                flavor,
                region,
                &pool,
                cfg.n_threads,
                metrics,
            )?),
        };
        let observed_mean = cache.mean_cuisine_score_view(&cuisine).ok_or_else(|| {
            StageFailure::error(
                "world.prepare",
                prepared.len(),
                format!(
                    "cuisine {} references ingredients outside its own pool",
                    region.code()
                ),
            )
            .record(metrics)
        })?;
        prepared.push(PreparedRegion {
            region,
            sampler,
            cache,
            observed_mean,
            seed: derive_seed_labeled(cfg.seed, region.code()),
        });
    }
    Ok(prepared)
}

/// The engine's names in [`crate::monte_carlo`]'s queue.
const WORLD: McNames = McNames {
    span: "world.mc",
    recipes: "mc.recipes",
    blocks: "mc.blocks",
    block_us: "mc.block_us",
    stage: "world.block",
};

/// The queue and merge passes: every `(region, model)` ensemble through
/// one Monte-Carlo queue, then a Z-score per ensemble.
fn analyze_prepared(
    prepared: &[PreparedRegion<'_>],
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    let ensembles: Vec<Ensemble<'_>> = prepared
        .iter()
        .flat_map(|p| {
            models.iter().map(move |&model| Ensemble {
                sampler: &p.sampler,
                scorer: Scorer::Pairs(&p.cache),
                model,
                seed: p.seed,
            })
        })
        .collect();
    metrics.counter("world.regions").add(prepared.len() as u64);
    metrics
        .counter("world.tasks")
        .add((ensembles.len() * cfg.n_recipes.div_ceil(BLOCK)) as u64);
    let nulls = run_ensembles(&ensembles, cfg.n_recipes, cfg.n_threads, &WORLD, metrics)?;

    let _guard = metrics.span("world.merge").enter();
    let mut analyses = Vec::with_capacity(prepared.len());
    for (pi, p) in prepared.iter().enumerate() {
        let mut comparisons = Vec::with_capacity(models.len());
        for (mi, &model) in models.iter().enumerate() {
            let i = pi * models.len() + mi;
            let null = nulls[i].ok_or_else(|| {
                StageFailure::error(
                    "world.merge",
                    i,
                    format!(
                        "degenerate {model} ensemble for {}: fewer than two sampled recipes",
                        p.region.code()
                    ),
                )
                .record(metrics)
            })?;
            let z = z_score_of_mean(p.observed_mean, &null);
            comparisons.push(ModelComparison { model, null, z });
        }
        analyses.push(CuisineAnalysis {
            region: p.region,
            n_recipes: p.sampler.n_templates(),
            n_ingredients: p.cache.len(),
            observed_mean: p.observed_mean,
            comparisons,
        });
    }
    Ok(analyses)
}

/// Analyze every populated region of a recipe collection (the full
/// Fig 4 run). Owned (`&FlavorDb`, `&RecipeStore`) and artifact-backed
/// views are accepted alike, with bit-identical results.
///
/// # Panics
/// Panics on stage failures; see [`try_analyze_world_view_observed`].
pub fn analyze_world_view<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    recipes: impl Into<RecipesViewRef<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Vec<CuisineAnalysis> {
    try_analyze_world_view_observed(flavor, recipes, models, cfg, &Metrics::disabled())
        .unwrap_or_else(|failure| panic!("world analysis failed: {failure}"))
}

/// The world engine behind [`analyze_world_view`]: prepare → queue →
/// merge over every populated region (see the module docs). Block
/// statistics are merged per `(region, model)` in block order, keeping
/// every number bit-identical for any thread count and equal to the
/// per-region [`analyze_cuisine`] results. Artifact flavor views with
/// precomputed overlap sections skip the per-region cache builds (see
/// [`OverlapCache::from_parts`]), with bit-identical results.
///
/// Failures in region preparation (a dead ingredient id fails at
/// `overlap.pack`), the Monte-Carlo queue (stage `world.block`, lowest
/// task index wins) or the merge (stage `world.merge`, a degenerate
/// ensemble) become a structured [`StageFailure`]; the
/// `error.<stage>` counter is bumped and the reported failure is
/// identical for any thread count.
///
/// Instruments recorded through `metrics`:
///
/// * spans `world.prepare` (samplers + overlap caches + observed
///   means; the nested cache builds record the `overlap.*`
///   instruments), `world.mc` (the Monte-Carlo queue and block fold)
///   and `world.merge` (the Z-scores);
/// * counters `world.regions`, `world.tasks` (queued `(region, model,
///   block)` triples) and `mc.recipes` / `mc.blocks` totals;
/// * histogram `mc.block_us` — per-block wall time across the whole
///   run;
/// * the shared `pool.*` instruments.
///
/// The rows do not depend on whether `metrics` is enabled.
pub fn try_analyze_world_view_observed<'a>(
    flavor: impl Into<FlavorViewRef<'a>>,
    recipes: impl Into<RecipesViewRef<'a>>,
    models: &[NullModel],
    cfg: &MonteCarloConfig,
    metrics: &Metrics,
) -> Result<Vec<CuisineAnalysis>, StageFailure> {
    let (flavor, recipes) = (flavor.into(), recipes.into());
    let cuisines = recipes
        .regions()
        .into_iter()
        .map(|r| (recipes.cuisine(r), None));
    let prepared = prepare(flavor, cuisines, cfg, metrics)?;
    analyze_prepared(&prepared, models, cfg, metrics)
}

/// Render analyses as a frame: one row per region, `z_<model>` column
/// per model, plus observed/null means.
pub fn analyses_to_frame(analyses: &[CuisineAnalysis]) -> Frame {
    let mut f = Frame::new();
    let regions: Vec<&str> = analyses.iter().map(|a| a.region.code()).collect();
    f.add_column("region", Column::from_strs(&regions))
        .expect("fresh frame");
    f.add_column(
        "n_recipes",
        Column::from_i64s(
            &analyses
                .iter()
                .map(|a| a.n_recipes as i64)
                .collect::<Vec<_>>(),
        ),
    )
    .expect("fresh column");
    f.add_column(
        "observed_ns",
        Column::from_f64s(&analyses.iter().map(|a| a.observed_mean).collect::<Vec<_>>()),
    )
    .expect("fresh column");
    if let Some(first) = analyses.first() {
        for (k, c) in first.comparisons.iter().enumerate() {
            let zs: Vec<Option<f64>> = analyses
                .iter()
                .map(|a| a.comparisons.get(k).and_then(|c| c.z))
                .collect();
            let means: Vec<Option<f64>> = analyses
                .iter()
                .map(|a| a.comparisons.get(k).map(|c| c.null.mean))
                .collect();
            f.add_column(&format!("z_{}", c.model.short()), Column::Float(zs))
                .expect("fresh column");
            f.add_column(
                &format!("null_mean_{}", c.model.short()),
                Column::Float(means),
            )
            .expect("fresh column");
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_datagen::{generate_world, WorldConfig};
    use culinaria_stats::RunningStats;

    fn quick_cfg() -> MonteCarloConfig {
        MonteCarloConfig {
            n_recipes: 4000,
            seed: 7,
            n_threads: 2,
        }
    }

    #[test]
    fn positive_and_negative_regions_get_correct_sign() {
        let world = generate_world(&WorldConfig::tiny());
        let cfg = quick_cfg();
        let models = [NullModel::Random];

        let ita = analyze_cuisine(
            &world.flavor,
            world.recipes.cuisine(Region::Italy),
            &models,
            &cfg,
        )
        .unwrap();
        let jpn = analyze_cuisine(
            &world.flavor,
            world.recipes.cuisine(Region::Japan),
            &models,
            &cfg,
        )
        .unwrap();
        let z_ita = ita.z_random().unwrap();
        let z_jpn = jpn.z_random().unwrap();
        assert!(z_ita > 0.0, "ITA z {z_ita} should be positive");
        assert!(z_jpn < 0.0, "JPN z {z_jpn} should be negative");
        assert_eq!(ita.verdict(), PairingVerdict::Uniform);
        assert_eq!(jpn.verdict(), PairingVerdict::Contrasting);
    }

    #[test]
    fn frequency_model_shrinks_z_magnitude() {
        // The paper's key finding: preserving ingredient frequency
        // largely reproduces the pairing, so |Z| against the Frequency
        // model is much smaller than against Random.
        let world = generate_world(&WorldConfig::tiny());
        let cfg = quick_cfg();
        let models = [NullModel::Random, NullModel::Frequency];
        let ita = analyze_cuisine(
            &world.flavor,
            world.recipes.cuisine(Region::Italy),
            &models,
            &cfg,
        )
        .unwrap();
        let z_rand = ita.against(NullModel::Random).unwrap().z.unwrap().abs();
        let z_freq = ita.against(NullModel::Frequency).unwrap().z.unwrap().abs();
        assert!(
            z_freq < z_rand,
            "frequency model should explain pairing: |z_freq| {z_freq} vs |z_rand| {z_rand}"
        );
    }

    #[test]
    fn analyze_world_covers_all_regions() {
        let world = generate_world(&WorldConfig::tiny());
        let cfg = MonteCarloConfig {
            n_recipes: 500,
            seed: 7,
            n_threads: 2,
        };
        let analyses =
            analyze_world_view(&world.flavor, &world.recipes, &[NullModel::Random], &cfg);
        assert_eq!(analyses.len(), 22);
        for a in &analyses {
            assert!(a.observed_mean >= 0.0);
            assert!(a.n_recipes > 0);
        }
    }

    #[test]
    fn analyze_world_bit_identical_across_thread_counts() {
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random, NullModel::Frequency];
        let base = MonteCarloConfig {
            n_recipes: 4096, // 2 blocks per (region, model)
            seed: 99,
            n_threads: 1,
        };
        let reference = analyze_world_view(&world.flavor, &world.recipes, &models, &base);
        for threads in [2, 4, 8] {
            let cfg = MonteCarloConfig {
                n_threads: threads,
                ..base
            };
            let run = analyze_world_view(&world.flavor, &world.recipes, &models, &cfg);
            assert_eq!(run.len(), reference.len());
            for (a, b) in reference.iter().zip(&run) {
                assert_eq!(a.region, b.region, "{threads} threads");
                assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
                for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
                    assert_eq!(ca.model, cb.model);
                    assert_eq!(
                        ca.null.mean.to_bits(),
                        cb.null.mean.to_bits(),
                        "{threads} threads, {}, {}",
                        a.region.code(),
                        ca.model
                    );
                    assert_eq!(ca.null.std_dev.to_bits(), cb.null.std_dev.to_bits());
                    assert_eq!(
                        ca.z.map(f64::to_bits),
                        cb.z.map(f64::to_bits),
                        "{threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn world_ensembles_match_a_serial_per_draw_reference() {
        // The plainest reading of the Monte-Carlo stream scheme: per
        // region, model and 2048-recipe block, one allocating
        // `generate` draw per null recipe on stream
        // `derive_seed(derive_seed_labeled(seed, code), model << 32 | block)`,
        // blocks merged in order. The pooled, allocation-free world
        // engine must reproduce it bit for bit.
        use culinaria_stats::rng::derive_seed;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        const BLOCK: usize = 2048;

        let world = generate_world(&WorldConfig::tiny());
        let models = NullModel::ALL;
        let cfg = MonteCarloConfig {
            n_recipes: 3000, // the second block is partial
            seed: 2018,
            n_threads: 2,
        };
        let pooled = analyze_world_view(&world.flavor, &world.recipes, &models, &cfg);
        let mut rows = pooled.iter();
        for region in world.recipes.regions() {
            let cuisine = world.recipes.cuisine(region);
            let Some(sampler) = CuisineSampler::build(&world.flavor, &cuisine) else {
                continue;
            };
            let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
            let region_seed = derive_seed_labeled(cfg.seed, region.code());
            let row = rows.next().expect("a row per sampled region");
            assert_eq!(row.region, region);
            for (c, model) in row.comparisons.iter().zip(models) {
                let mut total = RunningStats::new();
                for block in 0..cfg.n_recipes.div_ceil(BLOCK) {
                    let stream = (model.index() as u64) << 32 | block as u64;
                    let mut rng = StdRng::seed_from_u64(derive_seed(region_seed, stream));
                    let mut stats = RunningStats::new();
                    for _ in block * BLOCK..((block + 1) * BLOCK).min(cfg.n_recipes) {
                        stats.push(cache.score_local(&sampler.generate(model, &mut rng)));
                    }
                    total.merge(&stats);
                }
                let serial = NullEnsemble::from_running(&total).expect("non-degenerate");
                assert_eq!(
                    c.null.mean.to_bits(),
                    serial.mean.to_bits(),
                    "{} {model}",
                    region.code()
                );
                assert_eq!(c.null.std_dev.to_bits(), serial.std_dev.to_bits());
                assert_eq!(c.null.n, serial.n);
            }
        }
        assert!(rows.next().is_none(), "no row without a sampled region");
    }

    #[test]
    fn observed_world_matches_and_records() {
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random, NullModel::Frequency];
        let cfg = MonteCarloConfig {
            n_recipes: 3000, // 2 blocks per (region, model), last partial
            seed: 13,
            n_threads: 2,
        };
        let run = |metrics: &Metrics| {
            try_analyze_world_view_observed(&world.flavor, &world.recipes, &models, &cfg, metrics)
                .expect("no faults")
        };
        let plain = run(&Metrics::disabled());
        let metrics = Metrics::enabled();
        let observed = run(&metrics);
        assert_eq!(plain.len(), observed.len());
        for (a, b) in plain.iter().zip(&observed) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
            for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(ca.null.mean.to_bits(), cb.null.mean.to_bits());
                assert_eq!(ca.z.map(f64::to_bits), cb.z.map(f64::to_bits));
            }
        }
        let snap = metrics.snapshot();
        let n_regions = plain.len() as u64;
        let n_tasks = n_regions * 2 * 2; // 2 models × 2 blocks
        assert_eq!(snap.counter("world.regions"), Some(n_regions));
        assert_eq!(snap.counter("world.tasks"), Some(n_tasks));
        assert_eq!(snap.counter("mc.blocks"), Some(n_tasks));
        assert_eq!(snap.histogram("mc.block_us").unwrap().count, n_tasks);
        assert_eq!(snap.span("world.prepare").unwrap().calls, 1);
        assert_eq!(snap.span("world.mc").unwrap().calls, 1);
        assert_eq!(snap.span("world.merge").unwrap().calls, 1);
        // One overlap-cache build per region, plus the MC fan-out.
        assert_eq!(snap.span("overlap.build").unwrap().calls, n_regions);
        assert_eq!(snap.counter("pool.runs"), Some(n_regions + 1));
    }

    #[test]
    fn world_rows_match_single_cuisine_runs() {
        // Region-salted streams make the flattened world pipeline
        // reproduce exactly what analyzing each cuisine alone gives.
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random];
        let cfg = MonteCarloConfig {
            n_recipes: 3000, // exercises a partial final block too
            seed: 5,
            n_threads: 2,
        };
        let all = analyze_world_view(&world.flavor, &world.recipes, &models, &cfg);
        for row in all.iter().take(4) {
            let solo = analyze_cuisine(
                &world.flavor,
                world.recipes.cuisine(row.region),
                &models,
                &cfg,
            )
            .unwrap();
            assert_eq!(row.observed_mean.to_bits(), solo.observed_mean.to_bits());
            let (a, b) = (&row.comparisons[0], &solo.comparisons[0]);
            assert_eq!(
                a.null.mean.to_bits(),
                b.null.mean.to_bits(),
                "{}",
                row.region.code()
            );
            assert_eq!(a.null.n, b.null.n);
            assert_eq!(a.z.map(f64::to_bits), b.z.map(f64::to_bits));
        }
    }

    #[test]
    fn try_analyze_matches_infallible_paths_bit_for_bit() {
        let world = generate_world(&WorldConfig::tiny());
        let models = [NullModel::Random, NullModel::Frequency];
        let cfg = MonteCarloConfig {
            n_recipes: 3000,
            seed: 13,
            n_threads: 2,
        };
        let plain = analyze_world_view(&world.flavor, &world.recipes, &models, &cfg);
        let fallible = try_analyze_world_view_observed(
            &world.flavor,
            &world.recipes,
            &models,
            &cfg,
            &Metrics::disabled(),
        )
        .expect("no faults");
        assert_eq!(plain.len(), fallible.len());
        for (a, b) in plain.iter().zip(&fallible) {
            assert_eq!(a.region, b.region);
            assert_eq!(a.observed_mean.to_bits(), b.observed_mean.to_bits());
            for (ca, cb) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(ca.null.mean.to_bits(), cb.null.mean.to_bits());
                assert_eq!(ca.z.map(f64::to_bits), cb.z.map(f64::to_bits));
            }
        }
        let cuisine = world.recipes.cuisine(Region::Italy);
        let solo = analyze_cuisine(&world.flavor, &cuisine, &models, &cfg).unwrap();
        let solo_try = try_analyze_cuisine_view_observed(
            &world.flavor,
            &cuisine,
            None,
            &models,
            &cfg,
            &Metrics::disabled(),
        )
        .expect("no faults")
        .expect("pairing-bearing cuisine");
        assert_eq!(
            solo.observed_mean.to_bits(),
            solo_try.observed_mean.to_bits()
        );
        for (ca, cb) in solo.comparisons.iter().zip(&solo_try.comparisons) {
            assert_eq!(ca.null.mean.to_bits(), cb.null.mean.to_bits());
            assert_eq!(ca.z.map(f64::to_bits), cb.z.map(f64::to_bits));
        }
    }

    #[test]
    fn dead_ingredient_fails_the_region_instead_of_dropping_it() {
        use culinaria_flavordb::{Category, FlavorDb, MoleculeId as M};
        use culinaria_recipedb::{RecipeStore, Source};

        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(4);
        let [a, b, c] = [("a", 0), ("b", 1), ("c", 2)].map(|(name, m)| {
            db.add_ingredient(name, Category::Herb, vec![M(m), M(m + 1)])
                .unwrap()
        });
        // KOR's one recipe has a single ingredient, so KOR carries no
        // pairing signal: no row and `Ok(None)`, not a failure.
        let mut store = RecipeStore::new();
        let recipes = [
            (Region::Italy, vec![a, b, c]),
            (Region::Italy, vec![a, b]),
            (Region::Japan, vec![a, b]),
            (Region::Korea, vec![a]),
        ];
        for (i, (region, ings)) in recipes.into_iter().enumerate() {
            store
                .add_recipe(&format!("r{i}"), region, Source::Synthetic, ings)
                .unwrap();
        }
        let models = [NullModel::Random];
        let cfg = MonteCarloConfig {
            n_recipes: 300,
            seed: 3,
            n_threads: 1,
        };
        let korea = store.cuisine(Region::Korea);
        let rows = analyze_world_view(&db, &store, &models, &cfg);
        assert_eq!(
            rows.iter().map(|r| r.region).collect::<Vec<_>>(),
            [Region::Italy, Region::Japan]
        );
        assert!(analyze_cuisine(&db, &korea, &models, &cfg).is_none());

        // Kill "c": ITA's pool is [a, b, c], so its overlap build fails
        // at pool index 2. Both engines must report that, not drop ITA.
        db.remove_ingredient("c").expect("c exists");
        let italy = store.cuisine(Region::Italy);
        let expected = OverlapCache::build(&db, &italy.ingredient_set(), 1, &Metrics::disabled())
            .expect_err("dead id fails the pack stage");
        assert_eq!((expected.stage, expected.index), ("overlap.pack", 2));
        assert!(expected
            .to_string()
            .contains(&format!("ingredient id {} is not usable", c.index())));
        for threads in [1, 2, 8] {
            let cfg = MonteCarloConfig {
                n_threads: threads,
                ..cfg
            };
            let metrics = Metrics::enabled();
            let solo =
                try_analyze_cuisine_view_observed(&db, &italy, None, &models, &cfg, &metrics)
                    .expect_err("dead id fails the cuisine");
            assert_eq!(solo, expected, "{threads} threads");
            let world = try_analyze_world_view_observed(&db, &store, &models, &cfg, &metrics)
                .expect_err("dead id fails the world run");
            assert_eq!(world, expected, "{threads} threads");
            assert_eq!(metrics.snapshot().counter("error.overlap.pack"), Some(2));
            // The live regions are unaffected.
            assert!(analyze_cuisine(&db, store.cuisine(Region::Japan), &models, &cfg).is_some());
            assert!(analyze_cuisine(&db, &korea, &models, &cfg).is_none());
        }
    }

    #[test]
    fn regions_use_distinct_streams() {
        // Two regions must not share null-model randomness: their
        // ensemble means should differ even with everything else equal.
        let world = generate_world(&WorldConfig::tiny());
        let cfg = MonteCarloConfig {
            n_recipes: 2000,
            seed: 11,
            n_threads: 2,
        };
        let all = analyze_world_view(&world.flavor, &world.recipes, &[NullModel::Random], &cfg);
        let mut means: Vec<u64> = all
            .iter()
            .map(|a| a.comparisons[0].null.mean.to_bits())
            .collect();
        means.sort_unstable();
        means.dedup();
        assert_eq!(
            means.len(),
            all.len(),
            "null ensembles collide across regions"
        );
    }

    #[test]
    fn frame_rendering() {
        let world = generate_world(&WorldConfig::tiny());
        let cfg = MonteCarloConfig {
            n_recipes: 300,
            seed: 7,
            n_threads: 1,
        };
        let analyses = analyze_world_view(
            &world.flavor,
            &world.recipes,
            &[NullModel::Random, NullModel::Frequency],
            &cfg,
        );
        let frame = analyses_to_frame(&analyses);
        assert_eq!(frame.n_rows(), 22);
        for col in ["region", "n_recipes", "observed_ns", "z_random", "z_freq"] {
            assert!(frame.has_column(col), "{col} missing");
        }
    }

    #[test]
    fn empty_frame_for_no_analyses() {
        let f = analyses_to_frame(&[]);
        assert_eq!(f.n_rows(), 0);
    }
}
