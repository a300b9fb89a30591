//! Pins the Monte-Carlo null ensembles bit for bit. Each test digests
//! the `to_bits` of every ensemble's mean, standard deviation and size,
//! plus every observed mean and Z-score, from one public entry point,
//! and compares against a digest recorded from the engine. Every run is
//! repeated at 1 and 3 worker threads, which must agree.
//!
//! A change to how blocks are scheduled, scratch is reused or results
//! are merged must leave every digest untouched: `results/*.txt`,
//! EXPERIMENTS.md and serve's `ZPROF` all rest on these exact numbers.
//! A change that means to alter the random streams or the scoring
//! arithmetic must re-record the digests and say so.

use culinaria_core::monte_carlo::run_null_model;
use culinaria_core::ntuple::{ktuple_null_ensemble, KTupleScorer};
use culinaria_core::null_models::CuisineSampler;
use culinaria_core::z_analysis::{analyze_cuisine, analyze_world_view, CuisineAnalysis};
use culinaria_core::{MonteCarloConfig, NullModel, OverlapCache};
use culinaria_datagen::{generate_world, World, WorldConfig};
use culinaria_obs::Metrics;
use culinaria_recipedb::Region;
use culinaria_stats::NullEnsemble;

const THREAD_COUNTS: [usize; 2] = [1, 3];

/// FNV-1a 64, spelled out so the digests do not depend on
/// `DefaultHasher`, whose algorithm is not stable across Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ensemble(&mut self, e: &NullEnsemble) {
        self.u64(e.mean.to_bits());
        self.u64(e.std_dev.to_bits());
        self.u64(e.n);
    }

    /// A degenerate ensemble (`None`) hashes as a marker no finite
    /// ensemble produces.
    fn maybe_ensemble(&mut self, e: Option<&NullEnsemble>) {
        match e {
            Some(e) => self.ensemble(e),
            None => self.u64(u64::MAX),
        }
    }

    fn analysis(&mut self, a: &CuisineAnalysis) {
        self.u64(a.region.index() as u64);
        self.u64(a.n_recipes as u64);
        self.u64(a.n_ingredients as u64);
        self.u64(a.observed_mean.to_bits());
        for c in &a.comparisons {
            self.u64(c.model.index() as u64);
            self.ensemble(&c.null);
            self.u64(c.z.map_or(u64::MAX, f64::to_bits));
        }
    }
}

fn cfg(n_recipes: usize, seed: u64, n_threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        n_recipes,
        seed,
        n_threads,
    }
}

/// Digest `run` at every thread count; all must agree with `expected`.
fn assert_pinned(label: &str, expected: u64, run: impl Fn(usize) -> u64) {
    for threads in THREAD_COUNTS {
        let got = run(threads);
        assert_eq!(
            got, expected,
            "{label} at {threads} threads: digest {got:#018x}, pinned {expected:#018x}"
        );
    }
}

fn tiny() -> World {
    generate_world(&WorldConfig::tiny())
}

#[test]
fn world_ensembles_are_pinned() {
    // Every region of `tiny()`, all four models, two seeds; 3,000
    // recipes is one full block and one partial one.
    let world = tiny();
    assert_pinned("analyze_world_view", 0xf072_c8c3_33cd_b864, |threads| {
        let mut h = Fnv1a::new();
        for seed in [7, 2018] {
            let rows = analyze_world_view(
                &world.flavor,
                &world.recipes,
                &NullModel::ALL,
                &cfg(3000, seed, threads),
            );
            h.u64(rows.len() as u64);
            for row in &rows {
                h.analysis(row);
            }
        }
        h.0
    });
}

#[test]
fn cuisine_ensembles_are_pinned() {
    let world = tiny();
    let cuisine = world.recipes.cuisine(Region::Italy);
    assert_pinned("analyze_cuisine ITA", 0x3cab_0dfa_d826_838c, |threads| {
        let a = analyze_cuisine(
            &world.flavor,
            &cuisine,
            &NullModel::ALL,
            &cfg(5000, 11, threads),
        )
        .expect("ITA pairs");
        let mut h = Fnv1a::new();
        h.analysis(&a);
        h.0
    });
}

#[test]
fn unsalted_null_model_runs_are_pinned() {
    // `robustness` passes its seed straight through, without the
    // region salt the z_analysis engines add.
    let world = tiny();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).expect("ITA samples");
    assert_pinned("run_null_model ITA", 0x6920_9967_b2d0_5930, |threads| {
        let mut h = Fnv1a::new();
        for model in NullModel::ALL {
            let e = run_null_model(
                &cache,
                &sampler,
                model,
                &cfg(4500, 2018, threads),
                &Metrics::disabled(),
            )
            .expect("no faults");
            h.maybe_ensemble(e.as_ref());
        }
        h.0
    });
}

#[test]
fn ktuple_ensembles_are_pinned() {
    let world = tiny();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).expect("ITA samples");
    let scorers = [3, 4].map(|k| KTupleScorer::for_cuisine(&world.flavor, &cuisine, k));
    assert_pinned(
        "ktuple_null_ensemble ITA",
        0x6815_c531_5a18_df12,
        |threads| {
            let mut h = Fnv1a::new();
            for scorer in &scorers {
                for model in NullModel::ALL {
                    let e = ktuple_null_ensemble(
                        scorer,
                        &sampler,
                        model,
                        &cfg(4500, 5, threads),
                        &Metrics::disabled(),
                    )
                    .expect("no faults");
                    h.maybe_ensemble(e.as_ref());
                }
            }
            h.0
        },
    );
}
