//! Kernel bench for the flavor-sharing score N_s, including the
//! DESIGN.md ablation: precomputed [`OverlapCache`] lookups vs direct
//! sorted-slice profile intersection, across recipe sizes, plus the
//! higher-order k-tuple scorer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use culinaria_core::ntuple::recipe_ktuple_score;
use culinaria_core::pairing::{recipe_pairing_score, OverlapCache};
use culinaria_datagen::{generate_world, WorldConfig};
use culinaria_flavordb::IngredientId;
use culinaria_recipedb::Region;

fn bench_pairing(c: &mut Criterion) {
    let world = generate_world(&WorldConfig::small());
    let cuisine = world.recipes.cuisine(Region::Italy);
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
    let pool = cuisine.ingredient_set();

    let mut group = c.benchmark_group("recipe_score");
    for &size in &[5usize, 9, 15, 25] {
        let recipe: Vec<IngredientId> = pool.iter().copied().take(size).collect();
        let locals: Vec<u32> = recipe
            .iter()
            .map(|&i| cache.local_index(i).expect("pool member"))
            .collect();
        group.bench_with_input(BenchmarkId::new("direct", size), &recipe, |b, r| {
            b.iter(|| recipe_pairing_score(black_box(&world.flavor), black_box(r)))
        });
        group.bench_with_input(BenchmarkId::new("cached", size), &locals, |b, l| {
            b.iter(|| cache.score_local(black_box(l)))
        });
    }
    group.finish();

    let disabled = culinaria_obs::Metrics::disabled();
    let mut group = c.benchmark_group("cache_build");
    for &n in &[50usize, 150, 300] {
        let sub: Vec<IngredientId> = pool.iter().copied().take(n).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &sub, |b, s| {
            b.iter(|| OverlapCache::build(black_box(&world.flavor), black_box(s), 0, &disabled))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("cuisine_mean");
    group.bench_function("cached_full_cuisine", |b| {
        b.iter(|| cache.mean_cuisine_score(black_box(&cuisine)))
    });
    group.finish();

    // The DESIGN.md §8 ablation: bitset prefix-mask kernel vs the frozen
    // subset walker, end-to-end per recipe (kernel includes its pack).
    let mut group = c.benchmark_group("ktuple_score");
    let recipe: Vec<IngredientId> = pool.iter().copied().take(9).collect();
    for &k in &[2usize, 3, 4] {
        group.bench_with_input(BenchmarkId::new("kernel", k), &k, |b, &k| {
            b.iter(|| recipe_ktuple_score(black_box(&world.flavor), black_box(&recipe), k))
        });
        group.bench_with_input(BenchmarkId::new("reference", k), &k, |b, &k| {
            b.iter(|| {
                culinaria_core::ntuple::reference::recipe_ktuple_score(
                    black_box(&world.flavor),
                    black_box(&recipe),
                    k,
                )
            })
        });
    }
    group.finish();

    // Amortized form: one shared kernel + scratch over the cuisine pool.
    let mut group = c.benchmark_group("ktuple_scorer_local");
    let scorer3 = culinaria_core::ntuple::KTupleScorer::for_cuisine(&world.flavor, &cuisine, 3);
    let reference3 =
        culinaria_core::ntuple::reference::KTupleScorer::for_cuisine(&world.flavor, &cuisine, 3);
    let locals: Vec<u32> = (0..9).collect();
    let mut scratch = culinaria_core::pairing::IntersectScratch::new();
    group.bench_function("kernel_scratch_reuse", |b| {
        b.iter(|| scorer3.score_local_with(black_box(&locals), &mut scratch))
    });
    group.bench_function("reference", |b| {
        b.iter(|| reference3.score_local(black_box(&locals)))
    });
    group.finish();

    // Observability A/B: the price of recording. A disabled handle costs
    // one predicted branch per instrument and no clock reads, so the gap
    // between the two arms is what an enabled registry adds to a build.
    let mut group = c.benchmark_group("obs_overhead");
    let sub: Vec<IngredientId> = pool.iter().copied().take(150).collect();
    let enabled = culinaria_obs::Metrics::enabled();
    group.bench_function("cache_build_disabled", |b| {
        b.iter(|| OverlapCache::build(black_box(&world.flavor), black_box(&sub), 1, &disabled))
    });
    group.bench_function("cache_build_enabled", |b| {
        b.iter(|| OverlapCache::build(black_box(&world.flavor), black_box(&sub), 1, &enabled))
    });
    group.finish();
}

criterion_group!(benches, bench_pairing);
criterion_main!(benches);
