//! End-to-end benchmark of the Fig 4 world pipeline (`analyze_world_view`)
//! plus its two optimized building blocks: the bitset overlap-cache
//! build (vs the seed's sorted-merge sweep) and allocation-free recipe
//! sampling (`generate_into` vs the allocating `generate`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use culinaria_core::monte_carlo::MonteCarloConfig;
use culinaria_core::null_models::{CuisineSampler, NullModel, SampleScratch};
use culinaria_core::pairing::OverlapCache;
use culinaria_core::z_analysis::analyze_world_view;
use culinaria_datagen::{generate_world, WorldConfig};
use culinaria_obs::Metrics;
use culinaria_recipedb::Region;

fn bench_world_analysis(c: &mut Criterion) {
    let tiny = generate_world(&WorldConfig::tiny());

    // The whole Fig 4 pipeline: 22 regions x 4 models, flattened onto
    // the shared pool. Thread counts matter only on multi-core hosts;
    // the result is bit-identical across all of them.
    let mut group = c.benchmark_group("analyze_world_tiny");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = MonteCarloConfig {
                    n_recipes: 4096,
                    seed: 2018,
                    n_threads: threads,
                };
                b.iter(|| {
                    black_box(analyze_world_view(
                        &tiny.flavor,
                        &tiny.recipes,
                        &NullModel::ALL,
                        &cfg,
                    ))
                })
            },
        );
    }
    group.finish();

    // Overlap-table construction at a realistic cuisine pool size:
    // packed-bitset AND+popcount vs the seed's sorted-merge sweep.
    let small = generate_world(&WorldConfig::small());
    let cuisine = small.recipes.cuisine(Region::Italy);
    let pool_ids = cuisine.ingredient_set();
    let profiles: Vec<_> = pool_ids
        .iter()
        .map(|&id| {
            &small
                .flavor
                .ingredient(id)
                .expect("live ingredient")
                .profile
        })
        .collect();
    let mut group = c.benchmark_group("overlap_cache_build");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("bitset", pool_ids.len()), |b| {
        b.iter(|| {
            black_box(OverlapCache::build(
                &small.flavor,
                &pool_ids,
                1,
                &Metrics::disabled(),
            ))
        })
    });
    group.bench_function(BenchmarkId::new("sorted_merge", pool_ids.len()), |b| {
        b.iter(|| {
            let mut checksum = 0u64;
            for i in 0..profiles.len() {
                for j in (i + 1)..profiles.len() {
                    checksum += profiles[i].shared_count(profiles[j]) as u64;
                }
            }
            black_box(checksum)
        })
    });
    group.finish();

    // Per-recipe sampling: allocation-free generate_into vs generate.
    let sampler = CuisineSampler::build(&small.flavor, &cuisine).expect("populated cuisine");
    let mut group = c.benchmark_group("sample_recipe");
    for model in [NullModel::Frequency, NullModel::FrequencyCategory] {
        group.bench_with_input(
            BenchmarkId::new("generate", model.short()),
            &model,
            |b, &m| {
                let mut rng = StdRng::seed_from_u64(9);
                b.iter(|| black_box(sampler.generate(m, &mut rng)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("generate_into", model.short()),
            &model,
            |b, &m| {
                let mut rng = StdRng::seed_from_u64(9);
                let mut out = Vec::new();
                let mut scratch = SampleScratch::new();
                b.iter(|| {
                    sampler.generate_into(m, &mut rng, &mut out, &mut scratch);
                    black_box(out.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_world_analysis);
criterion_main!(benches);
