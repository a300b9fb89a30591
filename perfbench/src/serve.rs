//! `serve-hot` and `serve-cold`: an in-process `Server` over paper-scale
//! artifacts, driven open-loop at a fixed rate over one connection.
//!
//! Both use the same request mix (PAIR / PAIR-global / TOPK / ZPROF /
//! SCORE at 55/10/15/10/10 %). `serve-hot` draws PAIR sets from 64 sets
//! over the three largest regions, a working set that fits the response
//! cache, so protocol, queue, batcher and write dominate. `serve-cold`
//! draws from 300,000 sets over every region, so most lookups miss and
//! the cost moves to eviction, pooled compute and SCORE's alias
//! resolution.

use std::collections::HashMap;
use std::time::Instant;

use culinaria_core::{
    analyze_cuisine, recipe_pairing_score, CuisineView, FlavorViewRef, MonteCarloConfig, NullModel,
    OverlapCache, RecipesViewRef,
};
use culinaria_flavordb::{artifact as flavor_artifact, BorrowedFlavorDb, FlavorDb, IngredientId};
use culinaria_obs::{HistogramSnapshot, Metrics, Snapshot};
use culinaria_recipedb::import::Importer;
use culinaria_recipedb::{artifact as recipe_artifact, BorrowedRecipeDb, RecipeStore, Region};
use culinaria_serve::protocol::{self, TopPairing};
use culinaria_serve::{resolve_score_lines, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::fig4::{self, Built};
use crate::loadgen::{call_each, open_loop, LoadStats};
use crate::report::{Outcome, Values};
use crate::stats::{median, percentile, tail, window_median};
use crate::sys::{self, Stopwatch};
use crate::trace::Tracer;
use crate::RunCfg;

/// Salt so the query streams never collide with the data generator's.
const MIX_SALT: u64 = 0x6b21_7c5e_11d3_90af;

/// The latency limit on the tail for `serve.max_rate_rps`.
const TAIL_LIMIT_MS: f64 = 2.0;

/// The offered load of a measured pass and its latency window.
///
/// Percentiles are taken per window of `window` consecutive requests and
/// the median over windows is reported, so a burst of interference from
/// outside the process moves one window, not the result. The tail is the
/// highest percentile with ten samples beyond it in one window: p95 for
/// 200 requests, p99 for 1,000.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub rate: f64,
    pub window: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Cold,
}

impl Mix {
    /// The measured pass's load: well below the knee, so latency reflects
    /// the cost of a request rather than queueing.
    fn load(self, smoke: bool) -> Load {
        let rate = match (self, smoke) {
            (Mix::Hot, false) => 8_000.0,
            (Mix::Cold, false) => 4_000.0,
            (Mix::Hot, true) => 2_000.0,
            (Mix::Cold, true) => 1_000.0,
        };
        Load { rate, window: 200 }
    }
}

/// A seeded request mix over one dataset.
pub struct QueryMix {
    /// PAIR id sets; repeats across requests are what the cache serves.
    sets: Vec<(Region, Vec<IngredientId>)>,
    /// Regions for ZPROF, TOPK and SCORE.
    regions: Vec<Region>,
    /// Free-text ingredient lines per entry of `regions`, for SCORE.
    score_lines: Vec<Vec<String>>,
    /// How many of `sets` the warm-up primes into the cache.
    prime_sets: usize,
    seed: u64,
}

impl QueryMix {
    /// 64 sets over the three largest regions, all primed by warm-up.
    pub fn hot(db: &FlavorDb, store: &RecipeStore, seed: u64) -> QueryMix {
        let mut regions = Self::usable_regions(store);
        regions.sort_by_key(|&r| std::cmp::Reverse(store.cuisine(r).n_recipes()));
        regions.truncate(3);
        Self::build(db, store, seed, regions, 64, 64)
    }

    /// `n_sets` sets over every usable region, none primed.
    pub fn cold(db: &FlavorDb, store: &RecipeStore, seed: u64, n_sets: usize) -> QueryMix {
        let regions = Self::usable_regions(store);
        Self::build(db, store, seed, regions, n_sets, 0)
    }

    fn usable_regions(store: &RecipeStore) -> Vec<Region> {
        store
            .regions()
            .into_iter()
            .filter(|&r| store.cuisine(r).ingredient_set().len() >= 8)
            .collect()
    }

    fn build(
        db: &FlavorDb,
        store: &RecipeStore,
        seed: u64,
        regions: Vec<Region>,
        n_sets: usize,
        prime_sets: usize,
    ) -> QueryMix {
        assert!(!regions.is_empty(), "dataset has no populated region");
        let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT);
        let pools: Vec<Vec<IngredientId>> = regions
            .iter()
            .map(|&r| store.cuisine(r).ingredient_set())
            .collect();
        let sets = (0..n_sets)
            .map(|_| {
                let k = rng.random_range(0..regions.len());
                let pool = &pools[k];
                let n = rng.random_range(2..=5usize);
                let mut ids: Vec<IngredientId> = (0..n)
                    .map(|_| pool[rng.random_range(0..pool.len())])
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                if ids.len() < 2 {
                    ids = pool[..2].to_vec();
                }
                (regions[k], ids)
            })
            .collect();
        let score_lines = pools
            .iter()
            .map(|pool| {
                pool[..3]
                    .iter()
                    .map(|&id| db.ingredient(id).expect("live id").name.clone())
                    .collect()
            })
            .collect();
        QueryMix {
            sets,
            regions,
            score_lines,
            prime_sets,
            seed,
        }
    }

    fn ids_arg(ids: &[IngredientId]) -> String {
        ids.iter()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    fn score(&self, i: usize) -> String {
        format!(
            "SCORE {}\n{}",
            self.regions[i].code(),
            self.score_lines[i].join("\n")
        )
    }

    fn draw(&self, rng: &mut StdRng) -> String {
        let roll = rng.random_range(0..100u32);
        let (region, ids) = &self.sets[rng.random_range(0..self.sets.len())];
        let r = self.regions[rng.random_range(0..self.regions.len())];
        match roll {
            0..55 => format!("PAIR {} {}", region.code(), Self::ids_arg(ids)),
            55..65 => format!("PAIR - {}", Self::ids_arg(ids)),
            65..80 => format!("TOPK {} 10", r.code()),
            80..90 => format!("ZPROF {}", r.code()),
            _ => self.score(rng.random_range(0..self.regions.len())),
        }
    }

    /// `n` requests of pass `pass` (each pass draws its own stream).
    pub fn lines(&self, n: usize, pass: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ MIX_SALT ^ (pass + 1).wrapping_mul(0x9e37));
        (0..n).map(|_| self.draw(&mut rng)).collect()
    }

    /// Touch every shard, ZPROF and TOPK of `store`, SCORE of every mix
    /// region, and the primed PAIR sets.
    pub fn warmup(&self, store: &RecipeStore) -> Vec<String> {
        let mut out = Vec::new();
        for r in store.regions() {
            let pool = store.cuisine(r).ingredient_set();
            out.push(format!("ZPROF {}", r.code()));
            out.push(format!("TOPK {} 10", r.code()));
            if pool.len() >= 2 {
                out.push(format!("PAIR {} {}", r.code(), Self::ids_arg(&pool[..2])));
            }
        }
        out.extend((0..self.regions.len()).map(|i| self.score(i)));
        for (region, ids) in &self.sets[..self.prime_sets] {
            out.push(format!("PAIR {} {}", region.code(), Self::ids_arg(ids)));
            out.push(format!("PAIR - {}", Self::ids_arg(ids)));
        }
        out
    }
}

/// Offline answers for one request per endpoint, from the owned
/// data through the batch pipeline: `(request, expected reply)`.
pub fn offline_probes(
    db: &FlavorDb,
    store: &RecipeStore,
    mix: &QueryMix,
    serve: &ServeConfig,
) -> Vec<(String, String)> {
    let (region, ids) = &mix.sets[0];
    let cuisine_owned = store.cuisine(*region);
    let cuisine = CuisineView::Owned(store.cuisine(*region));
    let cache = OverlapCache::for_cuisine(db, &cuisine_owned);
    let ids_arg = QueryMix::ids_arg(ids);
    let mut probes = Vec::new();
    let shard_score = cache.score_ids(ids).expect("ids from the region pool");
    probes.push((
        format!("PAIR {} {ids_arg}", region.code()),
        format!("OK {}", protocol::pair_body(shard_score)),
    ));
    probes.push((
        format!("PAIR - {ids_arg}"),
        format!("OK {}", protocol::pair_body(recipe_pairing_score(db, ids))),
    ));
    let mc = MonteCarloConfig {
        n_recipes: serve.mc_recipes,
        seed: serve.seed,
        n_threads: 1,
    };
    let analysis =
        analyze_cuisine(db, &cuisine_owned, &NullModel::ALL, &mc).expect("populated cuisine");
    probes.push((
        format!("ZPROF {}", region.code()),
        format!("OK {}", protocol::zprof_body(&analysis)),
    ));

    // TOPK: overlap over co-occurrence across the whole store.
    let pool = cuisine.ingredient_set();
    let n = pool.len();
    let tri = |i: usize, j: usize| i * n - i * (i + 1) / 2 + (j - i - 1);
    let pos: HashMap<IngredientId, usize> =
        pool.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut cooc = vec![0u64; n * n.saturating_sub(1) / 2];
    for recipe in store.recipes() {
        let mut members: Vec<usize> = recipe
            .ingredients()
            .iter()
            .filter_map(|id| pos.get(id).copied())
            .collect();
        members.sort_unstable();
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                cooc[tri(i, j)] += 1;
            }
        }
    }
    let mut candidates: Vec<(f64, u32, u64, usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let overlap = cache.overlap(i as u32, j as u32);
            if overlap > 0 {
                let c = cooc[tri(i, j)];
                candidates.push((f64::from(overlap) / (1.0 + c as f64), overlap, c, i, j));
            }
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0));
    let rows: Vec<TopPairing> = candidates
        .iter()
        .take(10)
        .map(|&(novelty, overlap, cooc, i, j)| TopPairing {
            novelty,
            overlap,
            cooc,
            a: db.ingredient(pool[i]).expect("live").name.clone(),
            b: db.ingredient(pool[j]).expect("live").name.clone(),
        })
        .collect();
    probes.push((
        format!("TOPK {} 10", region.code()),
        format!("OK {}", protocol::topk_body(*region, &rows)),
    ));

    let k = mix.regions.iter().position(|r| r == region).unwrap_or(0);
    let lines = &mix.score_lines[k];
    let importer = Importer::from_flavor_db(db);
    let (resolved_ids, resolved) = resolve_score_lines(&importer, db, lines);
    let score = recipe_pairing_score(db, &resolved_ids);
    let vs = OverlapCache::for_cuisine(db, &store.cuisine(mix.regions[k]))
        .mean_cuisine_score_view(&CuisineView::Owned(store.cuisine(mix.regions[k])))
        .expect("cuisine scores");
    probes.push((
        mix.score(k),
        format!(
            "OK {} vs={}",
            protocol::score_body(resolved, lines.len(), resolved_ids.len(), score),
            protocol::f64_field(vs),
        ),
    ));
    probes
}

/// Ask `server` every probe and compare with the offline answers.
pub fn probes_match(server: &Server<'_>, probes: &[(String, String)]) -> bool {
    let requests: Vec<String> = probes.iter().map(|(req, _)| req.clone()).collect();
    let mut ok = true;
    for ((req, want), got) in probes.iter().zip(call_each(server, &requests)) {
        if *want != got {
            eprintln!("error: served {req:?} diverged from the offline pipeline:\n  want {want}\n  got  {got}");
            ok = false;
        }
    }
    ok
}

/// Warm `server` up; false when any warm-up request failed.
pub fn warm(server: &Server<'_>, requests: &[String]) -> bool {
    let replies = call_each(server, requests);
    let bad: Vec<_> = requests
        .iter()
        .zip(&replies)
        .filter(|(_, rep)| !rep.starts_with("OK"))
        .collect();
    for (req, rep) in &bad {
        eprintln!("error: warm-up {req:?} answered {rep}");
    }
    bad.is_empty()
}

/// The default server, except for a queue deep enough (half a second at
/// 8,000 requests/s) that a stall of the shared host shows as latency
/// rather than as shed (BUSY) requests.
pub fn serve_config(cfg: &RunCfg) -> ServeConfig {
    ServeConfig {
        seed: cfg.seed,
        max_queue: 4_096,
        ..ServeConfig::default()
    }
}

fn open(built: &Built) -> (BorrowedFlavorDb<'_>, BorrowedRecipeDb<'_>) {
    (
        flavor_artifact::open(built.fbuf.as_slice()).expect("open CFDB2"),
        recipe_artifact::open(built.rbuf.as_slice()).expect("open CRDB2"),
    )
}

fn mix_for(kind: Mix, cfg: &RunCfg, built: &Built) -> QueryMix {
    let (db, store) = (&built.world.flavor, &built.world.recipes);
    match kind {
        Mix::Hot => QueryMix::hot(db, store, cfg.seed),
        Mix::Cold => QueryMix::cold(db, store, cfg.seed, if cfg.smoke { 3_000 } else { 300_000 }),
    }
}

/// What one set-up cost, and whether its warm-up answered OK.
struct SetUp {
    seconds: f64,
    open_ms: f64,
    warmup_ms: f64,
    warmed: bool,
}

/// Build the world and artifacts with overlap sections, open them,
/// start a server and warm it up, then hand everything to `then`.
fn set_up<T>(
    cfg: &RunCfg,
    kind: Mix,
    then: impl FnOnce(&Built, &QueryMix, &Server<'_>, SetUp) -> T,
) -> T {
    let t = Instant::now();
    let built = fig4::build(cfg, true);
    let t_open = Instant::now();
    let (fview, rview) = open(&built);
    let open_ms = t_open.elapsed().as_secs_f64() * 1e3;
    let mix = mix_for(kind, cfg, &built);
    let server = Server::new(
        FlavorViewRef::Artifact(&fview),
        RecipesViewRef::Artifact(&rview),
        serve_config(cfg),
        Metrics::enabled(),
    );
    let t_warm = Instant::now();
    let warmed = warm(&server, &mix.warmup(&built.world.recipes));
    let cost = SetUp {
        seconds: t.elapsed().as_secs_f64(),
        open_ms,
        warmup_ms: t_warm.elapsed().as_secs_f64() * 1e3,
        warmed,
    };
    then(&built, &mix, &server, cost)
}

pub fn run(cfg: &RunCfg, tracer: &Tracer, kind: Mix) -> Outcome {
    let (mut outcome, first) = set_up(cfg, kind, |built, mix, server, cost| {
        let mut values = Values::default();
        built.record_setup(cost.open_ms, &mut values);
        values.set("serve.warmup_ms", cost.warmup_ms);
        let load = kind.load(cfg.smoke);
        let passes = Passes::run(cfg, tracer, server, mix, load, &mut values, &mut |_| {});
        values.set("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0));
        if cfg.traced {
            values.set("serve.max_rate_rps", max_rate(cfg, server, mix, load));
        }
        let (db, store) = (&built.world.flavor, &built.world.recipes);
        let probes = offline_probes(db, store, mix, server.config());
        let outcome = Outcome {
            correct: cost.warmed && probes_match(server, &probes),
            attempted: passes.attempted,
            failed: passes.failed,
            values,
        };
        (outcome, cost.seconds)
    });
    // The other set-ups run after the measurement, so that their heap
    // leftovers do not weigh on it or on peak_rss_mb.
    let setups = crate::setup_times(first, || {
        let (seconds, warmed) = set_up(cfg, kind, |_, _, _, cost| (cost.seconds, cost.warmed));
        outcome.correct &= warmed;
        seconds
    });
    outcome
        .values
        .set("setup_s", median(&setups).expect("set-up times"));
    // A failed correctness check counts as one failed operation.
    outcome.failed += u64::from(!outcome.correct);
    outcome
}

/// The measured passes over one warmed server: untraced for the whole
/// run (its first half when traced), then a traced one.
pub struct Passes {
    pub attempted: u64,
    pub failed: u64,
}

impl Passes {
    /// `beside(pass)` runs on another thread during each pass (the
    /// ingest side of `ingest-serve`).
    pub fn run(
        cfg: &RunCfg,
        tracer: &Tracer,
        server: &Server<'_>,
        mix: &QueryMix,
        load: Load,
        values: &mut Values,
        beside: &mut (dyn FnMut(u64) + Send),
    ) -> Passes {
        let seconds = if cfg.traced {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        };
        let (rate, window) = (load.rate, load.window);
        let n = (rate * seconds) as usize;
        let off = Tracer::new(false);
        let lines = mix.lines(n, 0);
        let clock = Stopwatch::start();
        let stats = std::thread::scope(|scope| {
            let side = scope.spawn(|| beside(0));
            let stats = open_loop(server, &lines, rate, &off);
            side.join().expect("side thread");
            stats
        });
        let cpu = clock.cpu_ms();
        let p50 = window_median(&stats.latency_ms, window, median).unwrap_or(f64::NAN);
        values.set("p50_ms", p50);
        values.set(
            "tail_ms",
            window_median(&stats.latency_ms, window, tail).unwrap_or(f64::NAN),
        );
        values.set("cpu_ms_per_op", cpu / stats.sent.max(1) as f64);
        report_pass("untraced", rate, &stats);
        let mut passes = Passes {
            attempted: stats.sent,
            failed: stats.failed(),
        };
        if !cfg.traced {
            return passes;
        }

        let lines = mix.lines(n, 1);
        let before = server.metrics().snapshot();
        let stats = std::thread::scope(|scope| {
            let side = scope.spawn(|| beside(1));
            let stats = open_loop(server, &lines, rate, tracer);
            side.join().expect("side thread");
            stats
        });
        let after = server.metrics().snapshot();
        report_pass("traced", rate, &stats);
        passes.attempted += stats.sent;
        passes.failed += stats.failed();
        let traced_p50 = window_median(&stats.latency_ms, window, median).unwrap_or(f64::NAN);
        values.set("trace.overhead_frac", (traced_p50 - p50) / p50);
        values.set(
            "loadgen.late_us.p99",
            percentile(&stats.late_us, 99).unwrap_or(0.0),
        );
        let latency_us: f64 = stats.latency_ms.iter().sum::<f64>() * 1e3;
        server_layers(&before, &after, latency_us, values);
        replay(tracer, server, &lines, values);
        passes
    }
}

fn report_pass(name: &str, rate: f64, s: &LoadStats) {
    eprintln!(
        "{name} pass at {rate} rps: {} sent, {} ok, {} busy, {} err, {} unanswered; \
         p50 {:.4} ms, tail {:.4} ms, late p99 {:.1} us",
        s.sent,
        s.ok,
        s.busy,
        s.err,
        s.unanswered,
        median(&s.latency_ms).unwrap_or(f64::NAN),
        tail(&s.latency_ms).unwrap_or(f64::NAN),
        percentile(&s.late_us, 99).unwrap_or(f64::NAN),
    );
}

fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> Option<HistogramSnapshot> {
    let mut h = after.histogram(name)?.clone();
    if let Some(b) = before.histogram(name) {
        h.count -= b.count;
        h.sum_us -= b.sum_us;
        for (x, y) in h.buckets.iter_mut().zip(b.buckets) {
            *x -= y;
        }
    }
    Some(h)
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
}

/// Server-side layers from the server's own `METRICS` registry, over
/// the interval between two snapshots. `client_latency_us` is the sum
/// of client-observed latencies over the same interval.
pub fn server_layers(
    before: &Snapshot,
    after: &Snapshot,
    client_latency_us: f64,
    values: &mut Values,
) {
    let hits = counter_delta(before, after, "serve.cache.hits");
    let misses = counter_delta(before, after, "serve.cache.misses");
    if hits + misses > 0.0 {
        values.set("serve.cache.hit_rate", hits / (hits + misses));
    }
    values.set(
        "serve.cache.evictions",
        counter_delta(before, after, "serve.cache.evictions"),
    );
    values.set(
        "serve.cache.invalidations",
        counter_delta(before, after, "serve.cache.invalidations"),
    );
    values.set(
        "serve.server.shard_builds",
        counter_delta(before, after, "serve.shard.builds"),
    );
    values.set("serve.busy", counter_delta(before, after, "serve.busy"));
    if let Some(b) = hist_delta(before, after, "serve.batch").filter(|h| h.count > 0) {
        values.set("serve.queue.batch_mean", b.sum_us as f64 / b.count as f64);
    }
    let mut compute_us = 0.0;
    for (hist, metric) in [
        ("serve.pair_us", "serve.server.pair_us.p99"),
        ("serve.zprof_us", "serve.server.zprof_us.p99"),
        ("serve.topk_us", "serve.server.topk_us.p99"),
        ("serve.score_us", "serve.server.score_us.p99"),
    ] {
        if let Some(h) = hist_delta(before, after, hist) {
            values.set(metric, h.quantile_interp_us(0.99));
            compute_us += h.sum_us as f64;
        }
    }
    if client_latency_us > 0.0 {
        values.set("serve.compute_share", compute_us / client_latency_us);
    }
}

/// Replay requests through `parse_request` and `handle_batch` directly,
/// in batches of the size the server formed, with a span around each.
fn replay(tracer: &Tracer, server: &Server<'_>, lines: &[String], values: &mut Values) {
    let batch = values.get("serve.queue.batch_mean").map_or(1, |m| {
        (m.round() as usize).clamp(1, server.config().batch_max)
    });
    let lines = &lines[..lines.len().min(20_000)];
    let mut parse_us = Vec::with_capacity(lines.len());
    let mut handle_us = Vec::new();
    for (b, chunk) in lines.chunks(batch).enumerate() {
        let group = b as u64 + 1;
        tracer.span("replay.batch", group, None, |parent| {
            let mut reqs = Vec::with_capacity(chunk.len());
            for (k, line) in chunk.iter().enumerate() {
                let payload = format!("{} {line}", b * batch + k + 1);
                let t = Instant::now();
                let parsed = protocol::parse_request(payload.as_bytes());
                let end = Instant::now();
                tracer.record("serve.protocol.parse_request", group, parent, t, end);
                parse_us.push((end - t).as_secs_f64() * 1e6);
                if let Ok(req) = parsed {
                    reqs.push(req);
                }
            }
            let t = Instant::now();
            std::hint::black_box(server.handle_batch(&reqs));
            let end = Instant::now();
            tracer.record("serve.server.handle_batch", group, parent, t, end);
            handle_us.push((end - t).as_secs_f64() * 1e6);
        });
    }
    values.set(
        "serve.protocol.parse_us.p50",
        median(&parse_us).unwrap_or(0.0),
    );
    values.set(
        "serve.server.handle_batch_us.p50",
        median(&handle_us).unwrap_or(0.0),
    );
}

/// The highest rung of a rate ladder whose pass keeps `tail_ms`'s
/// statistic within [`TAIL_LIMIT_MS`] with no failed request, no growing
/// backlog and a writer no later than a tenth of that limit (beyond it
/// the generator, not the server, would set the tail). Rungs start at
/// half the nominal rate and double, up to 64 times it; 0 when no rung
/// meets the limit.
fn max_rate(cfg: &RunCfg, server: &Server<'_>, mix: &QueryMix, nominal: Load) -> f64 {
    let rung_s = if cfg.smoke { 0.3 } else { 1.5 };
    let off = Tracer::new(false);
    let mut best = 0.0;
    let mut rate = nominal.rate / 2.0;
    for rung in 0..8u64 {
        let lines = mix.lines((rate * rung_s) as usize, 10 + rung);
        let s = open_loop(server, &lines, rate, &off);
        let tail_ms = window_median(&s.latency_ms, nominal.window, tail).unwrap_or(f64::INFINITY);
        let late_ms = percentile(&s.late_us, 99).unwrap_or(f64::INFINITY) / 1e3;
        let meets = tail_ms <= TAIL_LIMIT_MS
            && late_ms <= TAIL_LIMIT_MS / 10.0
            && s.failed() == 0
            && !s.backlog_growing();
        eprintln!(
            "ladder {rate} rps: tail {tail_ms:.3} ms, writer late p99 {late_ms:.3} ms, {} failed, \
             backlog growing {} -> {}",
            s.failed(),
            s.backlog_growing(),
            if meets { "meets" } else { "misses" }
        );
        if !meets {
            break;
        }
        best = rate;
        rate *= 2.0;
    }
    best
}
