//! `ingest-serve`: writes beside reads over the curated database.
//!
//! A 5,000-recipe base is imported through the segmented WAL as one
//! batch. Raw recipe text (plurals, typos and planted junk) then arrives
//! at 400 recipes/s in 100-recipe micro-batches; each batch goes through
//! `SegmentedLog::append_batch` (fsync per batch), then
//! `StreamState::ingest_batch`, then a store snapshot, then
//! `Server::ingest_swap`. Queries run open-loop at 2,000/s meanwhile.
//! The operation is one query; freshness (a batch's due time until the
//! swap that makes it visible) is a per-layer number.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use culinaria_core::composition::category_counts;
use culinaria_core::{
    recipe_pairing_score, FlavorViewRef, OverlapCache, RecipesViewRef, StreamState,
};
use culinaria_flavordb::curated::curated_db;
use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::Metrics;
use culinaria_recipedb::{
    FsyncPolicy, Importer, RawRecipe, RecipeStore, Region, SegmentedLog, WalRecord,
};
use culinaria_serve::Server;
use culinaria_stats::running::RunningStats;

use crate::corpus::{self, Planted};
use crate::loadgen::call_each;
use crate::report::{Outcome, Values};
use crate::serve::{self, Load, Passes, QueryMix};
use crate::stats::{median, percentile, tail};
use crate::sys;
use crate::trace::Tracer;
use crate::RunCfg;

const BATCH: usize = 100;
const BATCHES_PER_S: f64 = 4.0;
const QUERY_RATE: f64 = 2_000.0;
/// Rotation threshold: the CLI's default segment size.
const SEGMENT_BYTES: u64 = 8 << 20;

fn pass_seconds(cfg: &RunCfg) -> f64 {
    if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    }
}

fn batches_per_pass(cfg: &RunCfg) -> usize {
    ((pass_seconds(cfg) * BATCHES_PER_S) as usize).max(1)
}

/// Everything one set-up builds: the log with the base in it, the live
/// store, the streaming state, and the snapshot arena the server reads.
struct Fixture {
    dir: PathBuf,
    log: SegmentedLog,
    live: RecipeStore,
    state: StreamState,
    arena: Vec<OnceLock<RecipeStore>>,
    planted: Vec<Planted>,
    base: usize,
    generate_ms: f64,
}

fn stored_since(store: &RecipeStore, before: usize) -> Vec<(Region, &[IngredientId])> {
    store
        .recipes()
        .skip(before)
        .map(|r| (r.region, r.ingredients()))
        .collect()
}

fn fixture(cfg: &RunCfg, db: &FlavorDb, importer: &Importer) -> Fixture {
    let base = if cfg.smoke { 500 } else { 5_000 };
    let passes = if cfg.traced { 2 } else { 1 };
    let n_batches = passes * batches_per_pass(cfg);
    let t = Instant::now();
    let planted = corpus::raw_recipes(db, importer, base + n_batches * BATCH, cfg.seed, "recipe");
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let dir = PathBuf::from(format!("perfbench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut log = SegmentedLog::open(&dir, FsyncPolicy::Batch, SEGMENT_BYTES).expect("open WAL");
    let mut live = RecipeStore::new();
    // The base lands as one bulk batch, so set-up pays one fsync rather
    // than one per 100 recipes and follows the disk's latency less.
    let raws: Vec<RawRecipe> = planted[..base].iter().map(|p| p.raw.clone()).collect();
    log.append_batch(db, importer, &mut live, &raws, 0)
        .expect("base batch appends");
    let mut state = StreamState::new();
    state
        .ingest_batch(db, &stored_since(&live, 0))
        .expect("base recipes stream in");
    let arena: Vec<OnceLock<RecipeStore>> = (0..=n_batches).map(|_| OnceLock::new()).collect();
    let _ = arena[0].set(live.clone());
    Fixture {
        dir,
        log,
        live,
        state,
        arena,
        planted,
        base,
        generate_ms,
    }
}

/// What the ingest side measured over its last pass.
#[derive(Debug, Default)]
struct IngestSamples {
    pass: u64,
    batches: u64,
    append_ms: Vec<f64>,
    stream_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    swap_us: Vec<f64>,
    freshness_ms: Vec<f64>,
    import_us_per_recipe: Vec<f64>,
    lines_resolved: usize,
    lines_total: usize,
}

pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let mut values = Values::default();
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let serve_cfg = serve::serve_config(cfg);
    let flavor = FlavorViewRef::Owned(&db);

    let t = Instant::now();
    let Fixture {
        dir,
        mut log,
        mut live,
        mut state,
        arena,
        planted,
        base,
        generate_ms,
    } = fixture(cfg, &db, &importer);
    let base_store = arena[0].get().expect("base snapshot");
    let mix = QueryMix::hot(&db, base_store, cfg.seed);
    let server = Server::new(
        flavor,
        RecipesViewRef::Owned(base_store),
        serve_cfg,
        Metrics::enabled(),
    );
    let t_warm = Instant::now();
    let mut correct = serve::warm(&server, &mix.warmup(base_store));
    values.set("serve.warmup_ms", t_warm.elapsed().as_secs_f64() * 1e3);
    let first_setup_s = t.elapsed().as_secs_f64();
    values.set("datagen.generate_ms", generate_ms);

    let raws: Vec<RawRecipe> = planted[base..].iter().map(|p| p.raw.clone()).collect();
    let mut samples = IngestSamples::default();
    let mut errors = 0u64;
    let mut next_batch = 0usize;
    let per_pass = batches_per_pass(cfg);
    let mut ingest_side = |pass: u64| {
        samples = IngestSamples {
            pass,
            ..IngestSamples::default()
        };
        let traced = tracer.enabled() && pass == 1;
        let start = Instant::now();
        for k in 0..per_pass {
            let due = start + Duration::from_secs_f64(k as f64 / BATCHES_PER_S);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let b = next_batch;
            next_batch += 1;
            let group = b as u64 + 1;
            let chunk = &raws[b * BATCH..(b + 1) * BATCH];
            let span = if traced {
                tracer.open("ingest.batch", group, None)
            } else {
                None
            };
            let record = |name, t: Instant| {
                if traced {
                    tracer.record(name, group, span, t, Instant::now());
                }
                t.elapsed().as_secs_f64()
            };

            let t = Instant::now();
            let before = live.n_recipes();
            let appended = log.append_batch(&db, &importer, &mut live, chunk, 0);
            samples
                .append_ms
                .push(record("recipedb.append_batch", t) * 1e3);
            let Ok(stats) = appended else {
                eprintln!("error: WAL append of batch {b} failed");
                errors += 1;
                continue;
            };
            samples.lines_resolved += stats.lines_resolved;
            samples.lines_total += stats.lines_resolved + stats.lines_unresolved;

            let t = Instant::now();
            let streamed = state.ingest_batch(&db, &stored_since(&live, before));
            samples.stream_ms.push(record("core.ingest_batch", t) * 1e3);
            if streamed.is_err() {
                eprintln!("error: streaming batch {b} failed");
                errors += 1;
            }

            // Harness scaffolding: the server borrows an immutable
            // store per generation, so each one is a full copy.
            let t = Instant::now();
            let _ = arena[b + 1].set(live.clone());
            samples.snapshot_ms.push(record("bench.snapshot", t) * 1e3);

            let t = Instant::now();
            let snapshot = arena[b + 1].get().expect("snapshot just stored");
            server.ingest_swap(flavor, RecipesViewRef::Owned(snapshot));
            samples.swap_us.push(record("serve.ingest_swap", t) * 1e6);
            samples.freshness_ms.push(due.elapsed().as_secs_f64() * 1e3);
            tracer.close(span);
            samples.batches += 1;

            if traced {
                let t = Instant::now();
                let _ = importer.import_batch(&db, &mut RecipeStore::new(), chunk, 0);
                samples
                    .import_us_per_recipe
                    .push(t.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
            }
        }
    };
    // A 1,000-request window spans two swaps, so their stalls fall inside.
    let load = Load {
        rate: QUERY_RATE,
        window: 1_000,
    };
    let passes = Passes::run(
        cfg,
        tracer,
        &server,
        &mix,
        load,
        &mut values,
        &mut ingest_side,
    );
    values.set("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0));
    let batches = next_batch;
    eprintln!(
        "ingest: {batches} batches, freshness p50 {:.2} ms, swap p50 {:.1} us",
        median(&samples.freshness_ms).unwrap_or(f64::NAN),
        median(&samples.swap_us).unwrap_or(f64::NAN)
    );
    if cfg.traced {
        record_layers(&samples, &log, &mut values);
    }

    // Correctness: after every swap the server answers like a cold one.
    if server.generation() != batches as u64 || errors > 0 {
        eprintln!(
            "error: {batches} batches, generation {}",
            server.generation()
        );
        correct = false;
    }
    let cold = Server::new(
        flavor,
        RecipesViewRef::Owned(&live),
        serve_cfg,
        Metrics::enabled(),
    );
    let probes = mix.warmup(&live);
    if call_each(&server, &probes) != call_each(&cold, &probes) {
        eprintln!("error: the swapped server answers differently from a cold server");
        correct = false;
    }
    drop(cold);
    correct &= wal_matches(
        &dir,
        log,
        &db,
        &importer,
        &live,
        &planted[..base + batches * BATCH],
    );
    correct &= stream_matches(&db, &state, &live);
    let _ = std::fs::remove_dir_all(&dir);

    // The other set-ups run after the measurement, so that their heap
    // leftovers do not weigh on it or on peak_rss_mb.
    let setups = crate::setup_times(first_setup_s, || {
        let t = Instant::now();
        let fx = fixture(cfg, &db, &importer);
        let base = fx.arena[0].get().expect("base snapshot");
        let server = Server::new(
            flavor,
            RecipesViewRef::Owned(base),
            serve_cfg,
            Metrics::enabled(),
        );
        correct &= serve::warm(&server, &QueryMix::hot(&db, base, cfg.seed).warmup(base));
        let seconds = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&fx.dir);
        seconds
    });
    values.set("setup_s", median(&setups).expect("set-up times"));
    Outcome {
        correct,
        attempted: passes.attempted + batches as u64,
        failed: passes.failed + errors + u64::from(!correct),
        values,
    }
}

fn record_layers(s: &IngestSamples, log: &SegmentedLog, values: &mut Values) {
    let p = |v: &[f64], q: u32| percentile(v, q).unwrap_or(0.0);
    values.set(
        "recipedb.import.us_per_recipe",
        median(&s.import_us_per_recipe).unwrap_or(0.0),
    );
    if s.lines_total > 0 {
        values.set(
            "recipedb.import.resolved_frac",
            s.lines_resolved as f64 / s.lines_total as f64,
        );
    }
    values.set(
        "recipedb.segment.append_ms.p50",
        median(&s.append_ms).unwrap_or(0.0),
    );
    values.set("recipedb.segment.append_ms.p99", p(&s.append_ms, 99));
    let bytes: u64 = log
        .segment_names()
        .iter()
        .filter_map(|n| std::fs::metadata(log.dir().join(n)).ok())
        .map(|m| m.len())
        .sum();
    values.set(
        "recipedb.segment.bytes_per_recipe",
        bytes as f64 / log.len().max(1) as f64,
    );
    values.set(
        "core.streaming.ingest_batch_ms.p50",
        median(&s.stream_ms).unwrap_or(0.0),
    );
    values.set("core.streaming.ingest_batch_ms.p99", p(&s.stream_ms, 99));
    values.set("bench.snapshot_ms", median(&s.snapshot_ms).unwrap_or(0.0));
    values.set(
        "serve.server.swap_us.p50",
        median(&s.swap_us).unwrap_or(0.0),
    );
    values.set("serve.server.swap_us.p99", p(&s.swap_us, 99));
    values.set(
        "ingest.freshness_ms.p50",
        median(&s.freshness_ms).unwrap_or(0.0),
    );
    values.set(
        "ingest.freshness_ms.tail",
        tail(&s.freshness_ms).unwrap_or(0.0),
    );
    eprintln!("ingest traced pass {}: {} batches", s.pass, s.batches);
}

/// Reopen the log: it must recover clean, replay to exactly the live
/// store, and hold a tombstone for exactly the planted junk recipes.
fn wal_matches(
    dir: &Path,
    mut log: SegmentedLog,
    db: &FlavorDb,
    importer: &Importer,
    live: &RecipeStore,
    offered: &[Planted],
) -> bool {
    if log.sync().is_err() {
        eprintln!("error: final WAL sync failed");
        return false;
    }
    drop(log);
    let Ok(reopened) = SegmentedLog::open(dir, FsyncPolicy::Batch, SEGMENT_BYTES) else {
        eprintln!("error: WAL does not reopen");
        return false;
    };
    let mut ok = !reopened.recovery().recovered() && reopened.len() == offered.len();
    let tombstones: Vec<bool> = reopened
        .records()
        .iter()
        .map(|r| matches!(r, WalRecord::Tombstone { .. }))
        .collect();
    let planted: Vec<bool> = offered.iter().map(|p| p.junk).collect();
    if tombstones != planted {
        eprintln!(
            "error: {} tombstones logged for {} planted junk recipes",
            tombstones.iter().filter(|&&t| t).count(),
            planted.iter().filter(|&&p| p).count()
        );
        ok = false;
    }
    let snapshot = culinaria_recipedb::io::to_snapshot;
    match reopened.replay(db, importer, 0) {
        Ok((replayed, _)) => {
            if live.n_recipes() == 0 || snapshot(&replayed).ok() != snapshot(live).ok() {
                eprintln!("error: WAL replay differs from the live store");
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("error: WAL replay failed: {e}");
            ok = false;
        }
    }
    ok
}

/// The incrementally fed state must equal a cold rebuild over `store`.
fn stream_matches(db: &FlavorDb, state: &StreamState, store: &RecipeStore) -> bool {
    if state.global_frequencies() != &store.global_frequencies() {
        eprintln!("error: streamed global frequencies differ from a cold rebuild");
        return false;
    }
    for region in store.regions() {
        let cuisine = store.cuisine(region);
        let rs = state.region(region);
        let cold = OverlapCache::for_cuisine(db, &cuisine);
        let mut batch = RunningStats::new();
        for r in cuisine.recipes() {
            if r.size() >= 2 {
                batch.push(recipe_pairing_score(db, r.ingredients()));
            }
        }
        if rs.frequencies() != &cuisine.frequencies()
            || rs.category_counts() != &category_counts(db, &cuisine)
            || rs.overlap().pool() != cold.pool()
            || rs.overlap().tri() != cold.tri()
            || rs.pairing_stats() != &batch
        {
            eprintln!("error: streamed state of {region} differs from a cold rebuild");
            return false;
        }
    }
    true
}
