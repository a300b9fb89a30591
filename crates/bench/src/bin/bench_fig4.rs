//! Performance harness for the Fig 4 world analysis.
//!
//! Times the optimized pipeline (`analyze_world_view`: bitset overlap
//! builds, shared worker pool over the flattened `(region, model,
//! block)` queue, allocation-free sampling) against a faithful
//! reconstruction of the pre-optimization path (serial per-region
//! sorted-merge overlap sweep + per-recipe allocating `generate`), and
//! writes a machine-readable summary to `BENCH_fig4.json`.
//!
//! Both paths consume identical PRNG streams, so the harness also
//! asserts the two produce **bit-identical** null ensembles — the
//! speedup is free of numerical drift by construction. A final sweep
//! re-times the optimized pipeline at 1/2/4/8 workers (`scaling` in
//! the JSON), asserting bit-parity at every point.
//!
//! Knobs: `CULINARIA_SCALE` (default 0.1), `CULINARIA_MC` (default
//! 20000), `CULINARIA_SEED` (default 2018), `CULINARIA_THREADS`
//! (default 0 = available parallelism), `CULINARIA_BENCH_OUT`
//! (default `BENCH_fig4.json`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_core::monte_carlo::MonteCarloConfig;
use culinaria_core::null_models::{CuisineSampler, NullModel};
use culinaria_core::pairing::OverlapCache;
use culinaria_core::z_analysis::analyze_world_view;
use culinaria_datagen::{generate_world, WorldConfig};
use culinaria_flavordb::FlavorDb;
use culinaria_obs::Metrics;
use culinaria_recipedb::{Cuisine, RecipeStore};
use culinaria_stats::pool;
use culinaria_stats::rng::{derive_seed, derive_seed_labeled};
use culinaria_stats::{NullEnsemble, RunningStats};

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Per-region state shared by both timed paths, prepared up front so
/// neither path is charged for the other's scaffolding.
struct Prepared<'a> {
    cuisine: Cuisine<'a>,
    sampler: CuisineSampler,
    cache: OverlapCache,
    seed: u64,
}

fn prepare<'a>(db: &FlavorDb, store: &'a RecipeStore, master_seed: u64) -> Vec<Prepared<'a>> {
    store
        .regions()
        .into_iter()
        .filter_map(|region| {
            let cuisine = store.cuisine(region);
            let sampler = CuisineSampler::build(db, &cuisine)?;
            let cache = OverlapCache::for_cuisine(db, &cuisine);
            Some(Prepared {
                cuisine,
                sampler,
                cache,
                seed: derive_seed_labeled(master_seed, region.code()),
            })
        })
        .collect()
}

/// The seed's overlap-table construction: a serial O(n²) sweep of
/// sorted-merge profile intersections. Returns a checksum so the work
/// cannot be optimized away.
fn sorted_merge_sweep(db: &FlavorDb, cuisine: &Cuisine<'_>) -> u64 {
    let pool_ids = cuisine.ingredient_set();
    let profiles: Vec<_> = pool_ids
        .iter()
        .map(|&id| &db.ingredient(id).expect("live ingredient").profile)
        .collect();
    let mut checksum = 0u64;
    for i in 0..profiles.len() {
        for j in (i + 1)..profiles.len() {
            checksum += profiles[i].shared_count(profiles[j]) as u64;
        }
    }
    checksum
}

/// The seed's Monte-Carlo inner loop: serial over `(model, block)`,
/// one freshly allocated recipe per sample, same block-seeded streams
/// as the optimized pipeline.
fn baseline_monte_carlo(
    prepared: &[Prepared<'_>],
    models: &[NullModel],
    cfg: &MonteCarloConfig,
) -> Vec<Vec<NullEnsemble>> {
    const BLOCK: usize = 2048;
    let n_blocks = cfg.n_recipes.div_ceil(BLOCK);
    prepared
        .iter()
        .map(|p| {
            models
                .iter()
                .map(|&model| {
                    let mut total = RunningStats::new();
                    for b in 0..n_blocks {
                        let lo = b * BLOCK;
                        let hi = ((b + 1) * BLOCK).min(cfg.n_recipes);
                        let stream = (model.index() as u64) << 32 | b as u64;
                        let mut rng = StdRng::seed_from_u64(derive_seed(p.seed, stream));
                        let mut stats = RunningStats::new();
                        for _ in lo..hi {
                            let recipe = p.sampler.generate(model, &mut rng);
                            stats.push(p.cache.score_local(&recipe));
                        }
                        total.merge(&stats);
                    }
                    NullEnsemble::from_running(&total).expect("non-degenerate ensemble")
                })
                .collect()
        })
        .collect()
}

fn main() {
    let scale: f64 = env_or("CULINARIA_SCALE", 0.1);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let n_threads: usize = env_or("CULINARIA_THREADS", 0);
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_fig4.json".to_string());
    let mut world_cfg = WorldConfig::paper();
    world_cfg.recipe_scale = scale;
    world_cfg.seed = seed;
    let cfg = MonteCarloConfig {
        n_recipes: env_or("CULINARIA_MC", 20_000),
        seed,
        n_threads,
    };
    let models = NullModel::ALL;

    eprintln!("generating world: scale {scale}, seed {seed}");
    let world = generate_world(&world_cfg);
    eprintln!("world ready: {} recipes", world.recipes.n_recipes());

    let prepared = prepare(&world.flavor, &world.recipes, cfg.seed);
    let n_regions = prepared.len();

    // Baseline build: the seed's serial sorted-merge sweep, per region.
    let t = Instant::now();
    let mut sweep_checksum = 0u64;
    for p in &prepared {
        sweep_checksum += sorted_merge_sweep(&world.flavor, &p.cuisine);
    }
    let baseline_build_ms = t.elapsed().as_secs_f64() * 1e3;

    // Optimized build: bitset pack + pooled triangle sweep, per region.
    let t = Instant::now();
    let mut bitset_checksum = 0u64;
    for p in &prepared {
        let pool = p.cuisine.ingredient_set();
        let cache = OverlapCache::build(&world.flavor, &pool, n_threads, &Metrics::disabled())
            .expect("live pool");
        for i in 0..cache.len() as u32 {
            for j in (i + 1)..cache.len() as u32 {
                bitset_checksum += u64::from(cache.overlap(i, j));
            }
        }
    }
    let optimized_build_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sweep_checksum, bitset_checksum,
        "bitset and sorted-merge overlap tables disagree"
    );

    // Baseline Monte-Carlo: serial, allocating per sampled recipe.
    eprintln!(
        "baseline: serial Monte-Carlo, {} recipes x {} models x {} regions",
        cfg.n_recipes,
        models.len(),
        n_regions
    );
    let t = Instant::now();
    let baseline = baseline_monte_carlo(&prepared, &models, &cfg);
    let baseline_mc_ms = t.elapsed().as_secs_f64() * 1e3;

    // Optimized end-to-end: analyze_world_view (its own builds + pooled MC).
    eprintln!(
        "optimized: analyze_world_view on {} threads",
        pool::effective_threads(n_threads)
    );
    let t = Instant::now();
    let analyses = analyze_world_view(&world.flavor, &world.recipes, &models, &cfg);
    let optimized_wall_ms = t.elapsed().as_secs_f64() * 1e3;

    // Parity: both paths consumed identical PRNG streams, so every null
    // ensemble must be bit-identical.
    assert_eq!(analyses.len(), baseline.len());
    for (a, b_models) in analyses.iter().zip(&baseline) {
        for (c, b) in a.comparisons.iter().zip(b_models) {
            assert_eq!(
                c.null.mean.to_bits(),
                b.mean.to_bits(),
                "{} {}: baseline and optimized ensembles diverge",
                a.region.code(),
                c.model
            );
            assert_eq!(c.null.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }

    let baseline_wall_ms = baseline_build_ms + baseline_mc_ms;
    let speedup = baseline_wall_ms / optimized_wall_ms;
    eprintln!(
        "baseline {baseline_wall_ms:.0} ms (build {baseline_build_ms:.0} + mc {baseline_mc_ms:.0}) \
         vs optimized {optimized_wall_ms:.0} ms -> {speedup:.2}x"
    );

    // Thread-scaling sweep: the full optimized pipeline at 1/2/4/8
    // workers, every point checked bit-identical against the reference
    // run above (the determinism contract, now *measured*).
    let mut scaling = Vec::new();
    let mut wall_at_1 = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        let sweep_cfg = MonteCarloConfig {
            n_threads: threads,
            ..cfg
        };
        let t = Instant::now();
        let sweep = analyze_world_view(&world.flavor, &world.recipes, &models, &sweep_cfg);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(sweep.len(), analyses.len());
        for (a, b) in sweep.iter().zip(&analyses) {
            assert_eq!(a.region, b.region);
            assert_eq!(
                a.observed_mean.to_bits(),
                b.observed_mean.to_bits(),
                "{}: observed mean diverges on {threads} threads",
                a.region.code()
            );
            for (x, y) in a.comparisons.iter().zip(&b.comparisons) {
                assert_eq!(
                    x.null.mean.to_bits(),
                    y.null.mean.to_bits(),
                    "{} {}: ensemble diverges on {threads} threads",
                    a.region.code(),
                    x.model
                );
                assert_eq!(x.null.std_dev.to_bits(), y.null.std_dev.to_bits());
            }
        }
        if threads == 1 {
            wall_at_1 = wall_ms;
        }
        eprintln!(
            "scaling: {threads} threads -> {wall_ms:.0} ms ({:.2}x vs 1 thread)",
            wall_at_1 / wall_ms
        );
        scaling.push(format!(
            "    {{ \"threads\": {threads}, \"wall_ms\": {wall_ms:.3}, \
             \"speedup_vs_1\": {sp:.3}, \"parity\": \"bit-identical\" }}",
            sp = wall_at_1 / wall_ms,
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"fig4_world_analysis\",\n  \"n_regions\": {n_regions},\n  \
         \"n_models\": {n_models},\n  \"n_recipes_per_model\": {n_recipes},\n  \
         \"recipe_scale\": {scale},\n  \"seed\": {seed},\n  \
         \"n_threads_requested\": {n_threads},\n  \"n_threads_effective\": {eff},\n  \
         \"available_cores\": {cores},\n  \
         \"baseline_build_ms\": {baseline_build_ms:.3},\n  \
         \"optimized_build_ms\": {optimized_build_ms:.3},\n  \
         \"baseline_mc_ms\": {baseline_mc_ms:.3},\n  \
         \"baseline_wall_ms\": {baseline_wall_ms:.3},\n  \
         \"optimized_wall_ms\": {optimized_wall_ms:.3},\n  \
         \"speedup\": {speedup:.3},\n  \"scaling\": [\n{scaling}\n  ],\n  \
         \"parity\": \"bit-identical\"\n}}\n",
        n_models = models.len(),
        n_recipes = cfg.n_recipes,
        eff = pool::effective_threads(n_threads),
        cores = std::thread::available_parallelism().map_or(1, |n| n.get()),
        scaling = scaling.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
