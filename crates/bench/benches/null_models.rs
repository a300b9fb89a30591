//! Benchmarks for the null-model sampling machinery: per-model recipe
//! generation throughput and the DESIGN.md sampling ablation (Walker
//! alias method vs linear CDF scan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use culinaria_core::monte_carlo::{run_null_model, MonteCarloConfig};
use culinaria_core::null_models::{CuisineSampler, NullModel};
use culinaria_core::pairing::OverlapCache;
use culinaria_datagen::{generate_world, WorldConfig};
use culinaria_obs::Metrics;
use culinaria_recipedb::Region;
use culinaria_stats::{LinearCdfSampler, WeightedAliasSampler};

fn bench_null_models(c: &mut Criterion) {
    let world = generate_world(&WorldConfig::small());
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).expect("populated cuisine");
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);

    let mut group = c.benchmark_group("generate_recipe");
    for model in NullModel::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(model.short()),
            &model,
            |b, &m| {
                let mut rng = StdRng::seed_from_u64(1);
                b.iter(|| black_box(sampler.generate(m, &mut rng)))
            },
        );
    }
    group.finish();

    // Ablation: O(1) alias sampling vs O(n) linear CDF scan, at the
    // pool sizes the cuisines actually have (Table 1: 198..612).
    let mut group = c.benchmark_group("weighted_sampling");
    for &n in &[200usize, 400, 612] {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / r as f64).collect();
        let alias = WeightedAliasSampler::new(&weights).expect("valid weights");
        let linear = LinearCdfSampler::new(&weights).expect("valid weights");
        group.bench_with_input(BenchmarkId::new("alias", n), &alias, |b, s| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| black_box(s.sample(&mut rng)))
        });
        group.bench_with_input(BenchmarkId::new("linear_cdf", n), &linear, |b, s| {
            let mut rng = StdRng::seed_from_u64(2);
            b.iter(|| black_box(s.sample(&mut rng)))
        });
    }
    group.finish();

    // Macro: a full (reduced) Monte-Carlo ensemble per model.
    let mut group = c.benchmark_group("monte_carlo_10k");
    group.sample_size(10);
    for model in [NullModel::Random, NullModel::Frequency] {
        group.bench_with_input(
            BenchmarkId::from_parameter(model.short()),
            &model,
            |b, &m| {
                let cfg = MonteCarloConfig {
                    n_recipes: 10_000,
                    seed: 3,
                    n_threads: 0,
                };
                b.iter(|| run_null_model(&cache, &sampler, m, &cfg, &Metrics::disabled()))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_null_models);
criterion_main!(benches);
