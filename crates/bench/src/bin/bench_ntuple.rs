//! Performance harness for the higher-order (n-tuple) analysis kernel.
//!
//! Times the bitset k-way intersection kernel (`ntuple::KTupleKernel` +
//! prefix-mask `IntersectScratch`, pooled blocked ensembles) against the
//! frozen pre-kernel walker (`ntuple::reference`: per-subset profile
//! materialization + allocating k-way set intersections, serial loops)
//! on k = 3 and k = 4, over every region of the generated world:
//!
//! * **observed sweep** — mean N_s^(k) of every cuisine;
//! * **Monte-Carlo ensembles** — the Random-model null per cuisine,
//!   both paths consuming identical block-seeded PRNG streams.
//!
//! Both paths run on one thread, so each `speedup` compares serial
//! with serial. Parity is asserted to the bit on every score and every
//! ensemble, and the pooled ensembles are re-run — and timed — on 1, 2,
//! 4 and 8 threads, producing a `scaling` curve with a parity flag at
//! every point. The summary lands in `BENCH_ntuple.json`, stamped with
//! the CPU model (the first `model name` in `/proc/cpuinfo`), the
//! available cores and the commit (`git rev-parse --short HEAD` of the
//! working directory); a stamp it cannot read is `"unknown"`.
//!
//! Knobs: `CULINARIA_SCALE` (default 0.1), `CULINARIA_NTUPLE_MC`
//! (default 10000), `CULINARIA_SEED` (default 2018),
//! `CULINARIA_BENCH_OUT` (default `BENCH_ntuple.json`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use culinaria_bench::env_or;
use culinaria_core::monte_carlo::MonteCarloConfig;
use culinaria_core::ntuple::{self, ktuple_null_ensemble, mean_cuisine_ktuple_score, KTupleScorer};
use culinaria_core::null_models::{CuisineSampler, NullModel};
use culinaria_datagen::{generate_world, WorldConfig};
use culinaria_obs::Metrics;
use culinaria_recipedb::Region;
use culinaria_stats::rng::{derive_seed, derive_seed_labeled};
use culinaria_stats::{NullEnsemble, RunningStats};

/// The pre-kernel Monte-Carlo loop: serial blocks, allocating
/// `generate` per sample, frozen walker per score — on the **same**
/// `(k, model, block)` seed lattice as the pooled kernel ensembles, so
/// both paths draw identical streams.
fn baseline_ktuple_ensemble(
    scorer: &ntuple::reference::KTupleScorer<'_>,
    sampler: &CuisineSampler,
    model: NullModel,
    k: usize,
    n_recipes: usize,
    seed: u64,
) -> Option<NullEnsemble> {
    const BLOCK: usize = 2048;
    let n_blocks = n_recipes.div_ceil(BLOCK);
    let mut total = RunningStats::new();
    for b in 0..n_blocks {
        let lo = b * BLOCK;
        let hi = ((b + 1) * BLOCK).min(n_recipes);
        let stream = (k as u64) << 48 | (model.index() as u64) << 32 | b as u64;
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, stream));
        let mut stats = RunningStats::new();
        for _ in lo..hi {
            let recipe = sampler.generate(model, &mut rng);
            stats.push(scorer.score_local(&recipe));
        }
        total.merge(&stats);
    }
    NullEnsemble::from_running(&total)
}

/// The kernel's thread count for the headline timings: the frozen
/// baseline is serial, so the kernel is too.
const HEADLINE_THREADS: usize = 1;

/// The first `model name` in `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter_map(|line| line.split_once(':'))
                .find(|(key, _)| key.trim() == "model name")
                .map(|(_, name)| name.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse --short HEAD` in the working directory, or
/// `"unknown"`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Timings of one order k, both paths.
struct KReport {
    k: usize,
    baseline_observed_ms: f64,
    optimized_observed_ms: f64,
    baseline_mc_ms: f64,
    optimized_mc_ms: f64,
}

impl KReport {
    fn baseline_wall_ms(&self) -> f64 {
        self.baseline_observed_ms + self.baseline_mc_ms
    }
    fn optimized_wall_ms(&self) -> f64 {
        self.optimized_observed_ms + self.optimized_mc_ms
    }
    fn speedup(&self) -> f64 {
        self.baseline_wall_ms() / self.optimized_wall_ms()
    }
}

fn main() {
    let scale: f64 = env_or("CULINARIA_SCALE", 0.1);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let n_mc: usize = env_or("CULINARIA_NTUPLE_MC", 10_000);
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_ntuple.json".to_string());
    let mut world_cfg = WorldConfig::paper();
    world_cfg.recipe_scale = scale;
    world_cfg.seed = seed;

    eprintln!("generating world: scale {scale}, seed {seed}");
    let world = generate_world(&world_cfg);
    eprintln!("world ready: {} recipes", world.recipes.n_recipes());

    // Regions with a usable sampler, and their salted run seeds.
    let regions: Vec<(Region, CuisineSampler, u64)> = world
        .recipes
        .regions()
        .into_iter()
        .filter_map(|region| {
            let sampler = CuisineSampler::build(&world.flavor, world.recipes.cuisine(region))?;
            Some((region, sampler, derive_seed_labeled(seed, region.code())))
        })
        .collect();
    let n_regions = regions.len();

    let mut reports = Vec::new();
    let mut references: Vec<(usize, Vec<Option<NullEnsemble>>)> = Vec::new();
    for k in [3usize, 4] {
        // Observed sweep: frozen walker.
        let t = Instant::now();
        let baseline_obs: Vec<f64> = regions
            .iter()
            .map(|(region, _, _)| {
                ntuple::reference::mean_cuisine_ktuple_score(
                    &world.flavor,
                    &world.recipes.cuisine(*region),
                    k,
                )
            })
            .collect();
        let baseline_observed_ms = t.elapsed().as_secs_f64() * 1e3;

        // Observed sweep: bitset kernel, serial.
        let t = Instant::now();
        let optimized_obs: Vec<f64> = regions
            .iter()
            .map(|(region, _, _)| {
                mean_cuisine_ktuple_score(
                    &world.flavor,
                    &world.recipes.cuisine(*region),
                    k,
                    HEADLINE_THREADS,
                )
            })
            .collect();
        let optimized_observed_ms = t.elapsed().as_secs_f64() * 1e3;
        for ((region, _, _), (a, b)) in regions.iter().zip(baseline_obs.iter().zip(&optimized_obs))
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} k={k}: observed N_s diverges",
                region.code()
            );
        }

        // Monte-Carlo: frozen walker, serial blocks.
        eprintln!("k={k}: baseline Monte-Carlo, {n_mc} recipes x {n_regions} regions");
        let t = Instant::now();
        let baseline_mc: Vec<Option<NullEnsemble>> = regions
            .iter()
            .map(|(region, sampler, rseed)| {
                let scorer = ntuple::reference::KTupleScorer::for_cuisine(
                    &world.flavor,
                    &world.recipes.cuisine(*region),
                    k,
                );
                baseline_ktuple_ensemble(&scorer, sampler, NullModel::Random, k, n_mc, *rseed)
            })
            .collect();
        let baseline_mc_ms = t.elapsed().as_secs_f64() * 1e3;

        // Monte-Carlo: kernel ensembles, serial.
        eprintln!("k={k}: kernel Monte-Carlo, {n_mc} recipes x {n_regions} regions");
        let t = Instant::now();
        let optimized_mc: Vec<Option<NullEnsemble>> = regions
            .iter()
            .map(|(region, sampler, rseed)| {
                let scorer =
                    KTupleScorer::for_cuisine(&world.flavor, &world.recipes.cuisine(*region), k);
                let cfg = MonteCarloConfig {
                    n_recipes: n_mc,
                    seed: *rseed,
                    n_threads: HEADLINE_THREADS,
                };
                ktuple_null_ensemble(
                    &scorer,
                    sampler,
                    NullModel::Random,
                    &cfg,
                    &Metrics::disabled(),
                )
                .expect("no faults")
            })
            .collect();
        let optimized_mc_ms = t.elapsed().as_secs_f64() * 1e3;

        // Ensemble parity: identical streams → identical bits.
        for ((region, _, _), (a, b)) in regions.iter().zip(baseline_mc.iter().zip(&optimized_mc)) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.mean.to_bits(),
                        b.mean.to_bits(),
                        "{} k={k}: null means diverge",
                        region.code()
                    );
                    assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some()),
            }
        }

        let report = KReport {
            k,
            baseline_observed_ms,
            optimized_observed_ms,
            baseline_mc_ms,
            optimized_mc_ms,
        };
        eprintln!(
            "k={k}: baseline {:.0} ms (observed {:.0} + mc {:.0}) vs kernel {:.0} ms -> {:.2}x",
            report.baseline_wall_ms(),
            baseline_observed_ms,
            baseline_mc_ms,
            report.optimized_wall_ms(),
            report.speedup()
        );
        reports.push(report);
        references.push((k, optimized_mc));
    }

    // Thread-scaling sweep: the pooled kernel ensembles for both
    // orders at 1/2/4/8 workers. The old harness merely *re-ran* the
    // determinism check; this times every point and still asserts
    // bit-parity against the reference ensembles.
    let mut scaling = Vec::new();
    let mut wall_at_1 = f64::NAN;
    for threads in [1usize, 2, 4, 8] {
        let t = Instant::now();
        for (k, reference) in &references {
            for ((region, sampler, rseed), refe) in regions.iter().zip(reference) {
                let scorer =
                    KTupleScorer::for_cuisine(&world.flavor, &world.recipes.cuisine(*region), *k);
                let cfg = MonteCarloConfig {
                    n_recipes: n_mc,
                    seed: *rseed,
                    n_threads: threads,
                };
                let e = ktuple_null_ensemble(
                    &scorer,
                    sampler,
                    NullModel::Random,
                    &cfg,
                    &Metrics::disabled(),
                )
                .expect("no faults");
                match (refe, &e) {
                    (Some(a), Some(b)) => {
                        assert_eq!(
                            a.mean.to_bits(),
                            b.mean.to_bits(),
                            "{} k={k}: ensemble differs on {threads} threads",
                            region.code()
                        );
                        assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
                    }
                    (a, b) => assert_eq!(a.is_some(), b.is_some()),
                }
            }
        }
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
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

    let per_k: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "  \"k{k}\": {{\n    \"baseline_observed_ms\": {bo:.3},\n    \
                 \"optimized_observed_ms\": {oo:.3},\n    \"baseline_mc_ms\": {bm:.3},\n    \
                 \"optimized_mc_ms\": {om:.3},\n    \"baseline_wall_ms\": {bw:.3},\n    \
                 \"optimized_wall_ms\": {ow:.3},\n    \"speedup\": {s:.3}\n  }}",
                k = r.k,
                bo = r.baseline_observed_ms,
                oo = r.optimized_observed_ms,
                bm = r.baseline_mc_ms,
                om = r.optimized_mc_ms,
                bw = r.baseline_wall_ms(),
                ow = r.optimized_wall_ms(),
                s = r.speedup(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ntuple_kway_kernel\",\n  \"n_regions\": {n_regions},\n  \
         \"n_recipes_per_ensemble\": {n_mc},\n  \"recipe_scale\": {scale},\n  \
         \"seed\": {seed},\n  \"cpu_model\": \"{cpu}\",\n  \
         \"available_cores\": {cores},\n  \"commit\": \"{commit}\",\n\
         {per_k},\n  \"scaling\": [\n{scaling}\n  ],\n  \
         \"thread_counts_checked\": [1, 2, 4, 8],\n  \
         \"parity\": \"bit-identical\"\n}}\n",
        cpu = cpu_model(),
        commit = commit(),
        cores = std::thread::available_parallelism().map_or(1, |n| n.get()),
        per_k = per_k.join(",\n"),
        scaling = scaling.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
