//! Cross-crate fault-injection suite.
//!
//! Uses the deterministic [`culinaria::stats::fault`] harness to inject
//! error- and panic-shaped faults at every pipeline stage — overlap
//! packing and sweeping, Monte-Carlo blocks (pairwise and k-tuple),
//! network edge rows, the flattened world queue, and batch import — and
//! asserts the two contracts of the failure model:
//!
//! 1. **Determinism**: an injected fault yields the same structured
//!    error (lowest failing index wins) for 1, 2 and 8 worker threads.
//! 2. **Transparency**: with an empty fault plan every stage matches an
//!    independent reference (sorted-merge overlaps, non-zero cells as
//!    network edges, single-cuisine runs for the flattened world queue).
//!
//! A plan installed by `fault::with_plan` belongs to the test's own
//! thread and the pool workers its runs start, so set-up and reference
//! runs outside it see no plan, and no test's plan can fire in another
//! test: the suite is safe under the default parallel test runner
//! (`plans_never_cross_threads` checks exactly that).

use culinaria::analysis::monte_carlo::run_null_model;
use culinaria::analysis::network::FlavorNetwork;
use culinaria::analysis::ntuple::{ktuple_null_ensemble, KTupleScorer};
use culinaria::analysis::null_models::CuisineSampler;
use culinaria::analysis::z_analysis::{
    analyze_cuisine, try_analyze_cuisine_view_observed, try_analyze_world_view_observed,
};
use culinaria::analysis::{FailureCause, MonteCarloConfig, NullModel, OverlapCache, StageFailure};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::obs::Metrics;
use culinaria::recipedb::import::{
    ImportFailureReason, ImportMode, Importer, RawRecipe, SERIAL_BATCH_MIN,
};
use culinaria::recipedb::{RecipeDbError, RecipeStore, Region, Source};
use culinaria::stats::fault::{self, FaultKind, FaultPlan};
use std::sync::Barrier;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_world() -> World {
    generate_world(&WorldConfig::tiny())
}

fn mc_cfg(n_threads: usize) -> MonteCarloConfig {
    MonteCarloConfig {
        // 8192 recipes / 2048-recipe blocks = 4 Monte-Carlo blocks, so
        // block indices up to 3 are injectable.
        n_recipes: 8192,
        seed: 7,
        n_threads,
    }
}

fn plan(stage: &str, index: usize, kind: FaultKind) -> FaultPlan {
    FaultPlan::new().fail(stage, index, kind)
}

/// The cause a probe-injected fault should surface as.
fn expected_cause(stage: &str, index: usize, kind: FaultKind) -> FailureCause {
    match kind {
        FaultKind::Error => FailureCause::Error(format!("injected fault at {stage}[{index}]")),
        FaultKind::Panic => FailureCause::Panic(format!("injected panic at {stage}[{index}]")),
    }
}

#[test]
fn empty_plan_leaves_every_stage_bit_identical() {
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let models = [NullModel::Random, NullModel::Frequency];
    let off = Metrics::disabled();

    fault::with_plan(FaultPlan::new(), || {
        // An empty plan keeps the probe fast path inactive.
        assert!(!fault::active());
        // Overlap cells against the sorted-merge intersection.
        let cache = OverlapCache::build(&world.flavor, &pool, 2, &off).unwrap();
        let profile = |id| &world.flavor.ingredient(id).unwrap().profile;
        let mut nonzero = 0;
        for (i, &a) in pool.iter().enumerate() {
            for (j, &b) in pool.iter().enumerate().skip(i + 1) {
                let cell = cache.overlap(i as u32, j as u32);
                assert_eq!(cell as usize, profile(a).shared_count(profile(b)));
                nonzero += usize::from(cell > 0);
            }
        }

        // Network edges are exactly the non-zero cells.
        let net = FlavorNetwork::build(&world.flavor, &pool, 2, &off).unwrap();
        assert_eq!(net.n_edges(), nonzero);

        // World rows against single-cuisine runs, which bypass the
        // flattened queue.
        let rows = try_analyze_world_view_observed(
            &world.flavor,
            &world.recipes,
            &models,
            &mc_cfg(2),
            &off,
        )
        .unwrap();
        assert_eq!(rows.len(), world.recipes.regions().len());
        for row in &rows {
            let cuisine = world.recipes.cuisine(row.region);
            let solo = analyze_cuisine(&world.flavor, &cuisine, &models, &mc_cfg(2)).unwrap();
            assert_eq!(row.observed_mean.to_bits(), solo.observed_mean.to_bits());
            for (x, y) in row.comparisons.iter().zip(&solo.comparisons) {
                assert_eq!(x.null, y.null, "{} ensembles diverged", row.region.code());
            }
        }
    });
}

#[test]
fn overlap_pack_error_is_deterministic() {
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    assert!(pool.len() > 2);
    for threads in THREAD_COUNTS {
        let failure = fault::with_plan(plan("overlap.pack", 1, FaultKind::Error), || {
            OverlapCache::build(&world.flavor, &pool, threads, &Metrics::disabled()).unwrap_err()
        });
        assert_eq!(
            failure,
            StageFailure::error("overlap.pack", 1, "injected fault at overlap.pack[1]"),
            "diverged at {threads} threads"
        );
    }
}

#[test]
fn overlap_tile_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    assert!(pool.len() > 4);
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("overlap.tile", 3, kind), || {
                OverlapCache::build(&world.flavor, &pool, threads, &Metrics::disabled())
                    .unwrap_err()
            });
            assert_eq!(failure.stage, "overlap.tile");
            assert_eq!(failure.index, 3);
            assert_eq!(
                failure.cause,
                expected_cause("overlap.tile", 3, kind),
                "diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn lowest_failing_index_wins_in_the_pool_stage() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let mixed = FaultPlan::new()
        .fail("overlap.tile", 5, FaultKind::Panic)
        .fail("overlap.tile", 2, FaultKind::Error)
        .fail("overlap.tile", 9, FaultKind::Error);
    for threads in THREAD_COUNTS {
        let failure = fault::with_plan(mixed.clone(), || {
            OverlapCache::build(&world.flavor, &pool, threads, &Metrics::disabled()).unwrap_err()
        });
        assert_eq!(
            failure,
            StageFailure::error("overlap.tile", 2, "injected fault at overlap.tile[2]"),
            "lowest index did not win at {threads} threads"
        );
    }
}

#[test]
fn mc_block_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
    let off = Metrics::disabled();
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("mc.block", 2, kind), || {
                run_null_model(&cache, &sampler, NullModel::Random, &mc_cfg(threads), &off)
                    .unwrap_err()
            });
            assert_eq!(failure.stage, "mc.block");
            assert_eq!(failure.index, 2);
            assert_eq!(
                failure.cause,
                expected_cause("mc.block", 2, kind),
                "diverged at {threads} threads"
            );
        }
    }
    // Sanity: the same configuration without a plan still runs.
    let clean = run_null_model(&cache, &sampler, NullModel::Random, &mc_cfg(2), &off);
    assert!(clean.unwrap().is_some());
}

#[test]
fn plans_never_cross_threads() {
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
    let off = Metrics::disabled();
    let run = || run_null_model(&cache, &sampler, NullModel::Random, &mc_cfg(2), &off);
    // A holds its plan from the first barrier to the second; B runs the
    // same ensemble, with no plan, in between.
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            fault::with_plan(plan("mc.block", 2, FaultKind::Error), || {
                barrier.wait();
                let faulted = run();
                barrier.wait();
                faulted
            })
        });
        let b = scope.spawn(|| {
            barrier.wait();
            let clean = run();
            barrier.wait();
            clean
        });
        assert_eq!(
            a.join().unwrap().unwrap_err(),
            StageFailure::error("mc.block", 2, "injected fault at mc.block[2]")
        );
        let clean = b.join().unwrap().expect("A's plan fired on B's thread");
        assert!(clean.is_some());
    });
}

#[test]
fn ktuple_block_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let scorer = KTupleScorer::for_cuisine(&world.flavor, &cuisine, 3);
    let run = |threads| {
        ktuple_null_ensemble(
            &scorer,
            &sampler,
            NullModel::Random,
            &mc_cfg(threads),
            &Metrics::disabled(),
        )
    };
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("mc.ktuple.block", 1, kind), || {
                run(threads).unwrap_err()
            });
            assert_eq!(failure.stage, "mc.ktuple.block");
            assert_eq!(failure.index, 1);
            assert_eq!(failure.cause, expected_cause("mc.ktuple.block", 1, kind));
        }
    }
    // Transparent when no fault matches the stage.
    let clean = fault::with_plan(plan("unrelated.stage", 0, FaultKind::Error), || run(2));
    assert_eq!(clean, run(2));
}

#[test]
fn network_row_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("network.row", 2, kind), || {
                FlavorNetwork::build(&world.flavor, &pool, threads, &Metrics::disabled())
                    .unwrap_err()
            });
            assert_eq!(failure.stage, "network.row");
            assert_eq!(failure.index, 2);
            assert_eq!(failure.cause, expected_cause("network.row", 2, kind));
        }
    }
}

#[test]
fn world_block_faults_are_deterministic_across_threads() {
    fault::silence_injected_panics();
    let world = tiny_world();
    let models = [NullModel::Random];
    for kind in [FaultKind::Error, FaultKind::Panic] {
        for threads in THREAD_COUNTS {
            let failure = fault::with_plan(plan("world.block", 0, kind), || {
                try_analyze_world_view_observed(
                    &world.flavor,
                    &world.recipes,
                    &models,
                    &mc_cfg(threads),
                    &Metrics::disabled(),
                )
                .unwrap_err()
            });
            assert_eq!(failure.stage, "world.block");
            assert_eq!(failure.index, 0);
            assert_eq!(failure.cause, expected_cause("world.block", 0, kind));
        }
    }
}

#[test]
fn cuisine_analysis_propagates_nested_stage_failures() {
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let failure = fault::with_plan(plan("overlap.tile", 1, FaultKind::Error), || {
        try_analyze_cuisine_view_observed(
            &world.flavor,
            &cuisine,
            None,
            &[NullModel::Random],
            &mc_cfg(2),
            &Metrics::disabled(),
        )
        .unwrap_err()
    });
    assert_eq!(failure.stage, "overlap.tile");
    assert_eq!(failure.index, 1);
}

#[test]
fn engine_failures_bump_error_counters() {
    let world = tiny_world();
    let cuisine = world.recipes.cuisine(Region::Italy);
    let sampler = CuisineSampler::build(&world.flavor, &cuisine).unwrap();
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
    let metrics = Metrics::enabled();
    fault::with_plan(plan("mc.block", 0, FaultKind::Error), || {
        let failure =
            run_null_model(&cache, &sampler, NullModel::Random, &mc_cfg(2), &metrics).unwrap_err();
        assert_eq!(failure.stage, "mc.block");
    });
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("error.mc.block"), Some(1));
    assert_eq!(snap.counter("pool.failures"), Some(1));
}

fn import_fixture(n: usize) -> (Importer, Vec<RawRecipe>) {
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let raws: Vec<RawRecipe> = (0..n)
        .map(|i| RawRecipe {
            name: format!("recipe {i}"),
            region: Region::Italy,
            source: Source::Synthetic,
            ingredient_lines: vec!["3 ripe tomatoes".into(), "2 cloves garlic".into()],
        })
        .collect();
    (importer, raws)
}

/// `(batch size, threads, mode)` for the import fault tests: 12 recipes
/// resolve serially at every thread count, and a batch past
/// `SERIAL_BATCH_MIN` at 2 threads fans out over the pool. Both modes
/// must report the same failure.
fn import_runs() -> Vec<(usize, usize, ImportMode)> {
    let mut runs: Vec<_> = THREAD_COUNTS
        .iter()
        .map(|&threads| (12, threads, ImportMode::Serial))
        .collect();
    runs.push((SERIAL_BATCH_MIN + 8, 2, ImportMode::Pooled));
    runs
}

#[test]
fn import_error_faults_become_per_recipe_failures() {
    let db = culinaria::flavordb::curated::curated_db();
    for (n, threads, mode) in import_runs() {
        let (importer, raws) = import_fixture(n);
        let mut store = RecipeStore::new();
        let stats = fault::with_plan(plan("import.recipe", 1, FaultKind::Error), || {
            importer
                .import_batch(&db, &mut store, &raws, threads)
                .unwrap()
        });
        assert_eq!(stats.mode, mode, "{n} recipes at {threads} threads");
        assert_eq!(stats.offered, n);
        assert_eq!(stats.stored, n - 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.failures.len(), 1);
        assert_eq!(stats.failures[0].index, 1);
        assert_eq!(stats.failures[0].name, "recipe 1");
        assert_eq!(
            stats.failures[0].reason,
            ImportFailureReason::Fault("injected fault at import.recipe[1]".into())
        );
        // Every other recipe made it into the store.
        assert_eq!(store.n_recipes(), n - 1);
    }
}

#[test]
fn import_panic_fails_the_batch_with_the_lowest_index() {
    fault::silence_injected_panics();
    let db = culinaria::flavordb::curated::curated_db();
    let two_panics = FaultPlan::new()
        .fail("import.recipe", 7, FaultKind::Panic)
        .fail("import.recipe", 2, FaultKind::Panic);
    for (n, threads, _) in import_runs() {
        let (importer, raws) = import_fixture(n);
        let mut store = RecipeStore::new();
        let err = fault::with_plan(two_panics.clone(), || {
            importer
                .import_batch(&db, &mut store, &raws, threads)
                .unwrap_err()
        });
        assert_eq!(
            err,
            RecipeDbError::Worker {
                index: 2,
                message: "injected panic at import.recipe[2]".into(),
            },
            "diverged for {n} recipes at {threads} threads"
        );
        // A failed batch must not have mutated the store.
        assert_eq!(store.n_recipes(), 0);
    }
}

#[test]
fn seeded_plans_are_reproducible() {
    let stages = ["overlap.tile", "mc.block", "world.block"];
    let a = FaultPlan::seeded(42, &stages, 16, 5);
    let b = FaultPlan::seeded(42, &stages, 16, 5);
    assert_eq!(a.specs(), b.specs());
    assert_eq!(a.len(), 5);
    // Different seeds may differ (not guaranteed, but with 3 stages ×
    // 16 indices × 2 kinds a collision of all five specs is unlikely
    // enough to pin down here).
    let c = FaultPlan::seeded(43, &stages, 16, 5);
    assert_ne!(a.specs(), c.specs());

    // Replaying the same seeded plan twice produces the same outcome.
    fault::silence_injected_panics();
    let world = tiny_world();
    let pool: Vec<_> = world.flavor.ingredient_ids().collect();
    let run = || {
        fault::with_plan(FaultPlan::seeded(42, &["overlap.tile"], 4, 2), || {
            OverlapCache::build(&world.flavor, &pool, 4, &Metrics::disabled()).map(|c| c.len())
        })
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------------------
// Segmented-WAL chaos: faults at the append / fsync / rotate stages
// must surface as errors, and whatever reached disk must reopen
// as a valid prefix that replays bit-identically at every thread count.
// ---------------------------------------------------------------------------

use culinaria::recipedb::{FsyncPolicy, SegmentedLog};

fn segment_scratch(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("culinaria-fault-seg-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reopen `dir` outside any plan and check the surviving prefix
/// replays bit-identically to a cold batch import of the same raws.
fn assert_recovered_prefix_replays(dir: &std::path::Path, raws: &[RawRecipe]) {
    let db = culinaria::flavordb::curated::curated_db();
    let importer = Importer::from_flavor_db(&db);
    let log = SegmentedLog::open(dir, FsyncPolicy::Off, 0).expect("reopen after fault");
    let n = log.len();
    assert!(n <= raws.len(), "recovered log invented records");
    let mut cold = RecipeStore::new();
    let cold_stats = importer
        .import_batch(&db, &mut cold, &raws[..n], 1)
        .expect("cold import");
    let cold_bytes = culinaria::recipedb::io::to_snapshot(&cold).expect("cold snapshot");
    for threads in THREAD_COUNTS {
        let (store, stats) = log.replay(&db, &importer, threads).expect("prefix replays");
        assert_eq!(stats, cold_stats, "stats diverged at {threads} threads");
        assert_eq!(
            culinaria::recipedb::io::to_snapshot(&store).expect("replay snapshot"),
            cold_bytes,
            "store bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn segment_append_fault_leaves_a_reopenable_prefix() {
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture(12);
    for threads in THREAD_COUNTS {
        let dir = segment_scratch(&format!("append-{threads}"));
        let mut store = RecipeStore::new();
        let err = fault::with_plan(plan("wal.segment.append", 3, FaultKind::Error), || {
            let mut log = SegmentedLog::open(&dir, FsyncPolicy::Always, 0).expect("open");
            log.append_batch(&db, &importer, &mut store, &raws, threads)
                .unwrap_err()
        });
        assert!(
            matches!(err, RecipeDbError::Wal(_)),
            "expected a Wal error, got {err:?} at {threads} threads"
        );
        assert!(err.to_string().contains("record 3"), "{err}");
        assert_recovered_prefix_replays(&dir, &raws);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn segment_append_probe_indices_are_log_global() {
    // The probe index is the *log* offset, not the batch offset, so a
    // plan targeting record 13 fires in the second batch.
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture(12);
    let dir = segment_scratch("append-global");
    let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 0).expect("open");
    let mut store = RecipeStore::new();
    log.append_batch(&db, &importer, &mut store, &raws, 2)
        .expect("first batch appends cleanly");
    assert_eq!(log.len(), 12);
    let err = fault::with_plan(plan("wal.segment.append", 13, FaultKind::Error), || {
        log.append_batch(&db, &importer, &mut store, &raws, 2)
            .unwrap_err()
    });
    assert!(err.to_string().contains("record 13"), "{err}");
    // Import runs before the appends: the store took the whole second
    // batch, the log only the records before the fault.
    assert_eq!(store.n_recipes(), 24);
    assert_eq!(log.len(), 13);
    drop(log);
    let doubled: Vec<RawRecipe> = raws.iter().chain(&raws).cloned().collect();
    assert_recovered_prefix_replays(&dir, &doubled);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segment_fsync_fault_surfaces_but_never_corrupts() {
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture(12);
    for threads in THREAD_COUNTS {
        let dir = segment_scratch(&format!("fsync-{threads}"));
        let mut store = RecipeStore::new();
        let err = fault::with_plan(plan("wal.segment.fsync", 5, FaultKind::Error), || {
            let mut log = SegmentedLog::open(&dir, FsyncPolicy::Always, 0).expect("open");
            log.append_batch(&db, &importer, &mut store, &raws, threads)
                .unwrap_err()
        });
        assert!(err.to_string().contains("fsync aborted"), "{err}");
        // The write before the failed fsync still hit the file; either
        // way the directory reopens to a valid, replayable prefix.
        assert_recovered_prefix_replays(&dir, &raws);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn segment_rotate_fault_keeps_the_manifest_commit_point() {
    let db = culinaria::flavordb::curated::curated_db();
    let (importer, raws) = import_fixture(12);
    let dir = segment_scratch("rotate");
    let mut store = RecipeStore::new();
    // A tiny rotation threshold forces a rotation inside the batch;
    // failing rotation 1 aborts the append mid-way.
    let err = fault::with_plan(plan("wal.segment.rotate", 1, FaultKind::Error), || {
        let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, 256).expect("open");
        log.append_batch(&db, &importer, &mut store, &raws, 2)
            .unwrap_err()
    });
    assert!(err.to_string().contains("rotation 1 aborted"), "{err}");
    // The manifest (the commit point) still names only intact
    // segments, so reopen finds a valid prefix — not a torn directory.
    assert_recovered_prefix_replays(&dir, &raws);
    let _ = std::fs::remove_dir_all(&dir);
}
