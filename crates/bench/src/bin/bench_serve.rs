//! Load benchmark for `culinaria-serve`: the batched, cached online
//! query service over the zero-copy artifacts.
//!
//! Spins up an in-process [`Server`] over freshly built CFDB2/CRDB2
//! artifacts (with per-region overlap sections, so shard builds take
//! the section-reuse fast path) and drives it with an in-repo load
//! generator over `UnixStream` pairs:
//!
//! * **Parity probes** — one request per endpoint (`PAIR` shard +
//!   global, `ZPROF`, `TOPK`, `SCORE`), each answered over a real
//!   connection and asserted bit-identical to the offline
//!   `analyze_cuisine` / `recipe_pairing_score` / novelty-enumeration
//!   pipeline, and identical across every (threads, cache) config.
//! * **Closed-loop runs** — N clients, each keeping a window of W
//!   requests pipelined over its own connection (the window is what
//!   feeds the batcher: requests queued while a batch is in flight
//!   coalesce into the next one). Seeded deterministic query mix with
//!   repeated id sets, so a warm cache shows real hits.
//! * **One fixed-rate run** — open-loop sender on an absolute
//!   schedule, reader thread correlating replies by id.
//! * **One backpressure burst** — a tiny-queue server flooded with
//!   pipelined `ZPROF`s; asserts the overload is shed with `BUSY`
//!   replies, never unbounded growth.
//!
//! Client-side latencies feed a `culinaria-obs` histogram and are
//! reported as interpolated p50/p99 (`quantile_interp_us`); the
//! server's own `serve.batch` histogram yields the batch-size
//! distribution, and `serve.cache.*` counters the hit rate.
//!
//! Writes `BENCH_serve.json`. Knobs: `CULINARIA_SCALE`,
//! `CULINARIA_SEED`, `CULINARIA_SERVE_REQS` (total requests per run,
//! default 2000), `CULINARIA_SERVE_CLIENTS` (default 4),
//! `CULINARIA_SERVE_WINDOW` (pipelined requests per client, default 8),
//! `CULINARIA_SERVE_MC` (Monte-Carlo recipes per ZPROF, default 500),
//! `CULINARIA_SERVE_THREADS` (default "1,2"), `CULINARIA_SERVE_CACHE`
//! (default "0,4096"), `CULINARIA_SERVE_RATE` (fixed-rate rps, default
//! 300), `CULINARIA_BENCH_OUT`.

use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use culinaria_bench::world_from_env;
use culinaria_core::{
    analyze_cuisine, recipe_pairing_score, CuisineView, FlavorViewRef, MonteCarloConfig, NullModel,
    OverlapCache, RecipesViewRef,
};
use culinaria_datagen::World;
use culinaria_flavordb::{
    artifact as flavor_artifact, AlignedBytes, FlavorArtifactBuilder, IngredientId,
};
use culinaria_obs::Metrics;
use culinaria_recipedb::import::Importer;
use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder, Region};
use culinaria_serve::protocol::{self, Client, TopPairing};
use culinaria_serve::{resolve_score_lines, ConnStats, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Salt so the query-mix RNG never collides with the datagen streams.
const MIX_SALT: u64 = 0x6b21_7c5e_11d3_90af;

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_list(name: &str, default: &str) -> Vec<usize> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_owned());
    raw.split(',')
        .filter(|t| !t.trim().is_empty())
        .map(|t| t.trim().parse().expect("comma-separated usize list"))
        .collect()
}

/// The seeded deterministic query mix: request payloads (sans id) plus
/// everything the parity probes need.
struct QueryMix {
    /// Prebuilt `(region, ids)` sets; repeats across requests are what
    /// make the response cache earn its keep.
    sets: Vec<(Region, Vec<IngredientId>)>,
    /// Regions populated enough for ZPROF/TOPK/SCORE.
    regions: Vec<Region>,
    /// Free-text lines per region for SCORE (real ingredient names).
    score_lines: Vec<Vec<String>>,
}

impl QueryMix {
    fn build(world: &World, seed: u64) -> QueryMix {
        let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT);
        let mut ranked: Vec<(Region, Vec<IngredientId>)> = world
            .recipes
            .regions()
            .into_iter()
            .map(|r| (r, world.recipes.cuisine(r).ingredient_set()))
            .filter(|(_, pool)| pool.len() >= 8)
            .collect();
        ranked.sort_by_key(|(r, _)| std::cmp::Reverse(world.recipes.cuisine(*r).n_recipes()));
        ranked.truncate(3);
        assert!(!ranked.is_empty(), "world has no populated cuisine");
        let mut sets = Vec::with_capacity(64);
        for _ in 0..64 {
            let (region, pool) = &ranked[rng.random_range(0..ranked.len())];
            let n = rng.random_range(2..=5usize);
            let mut ids: Vec<IngredientId> = (0..n)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect();
            ids.sort_unstable();
            ids.dedup();
            if ids.len() < 2 {
                ids = pool[..2].to_vec();
            }
            sets.push((*region, ids));
        }
        let score_lines = ranked
            .iter()
            .map(|(_, pool)| {
                pool[..3]
                    .iter()
                    .map(|&id| world.flavor.ingredient(id).expect("live id").name.clone())
                    .collect()
            })
            .collect();
        QueryMix {
            regions: ranked.iter().map(|(r, _)| *r).collect(),
            sets,
            score_lines,
        }
    }

    /// One request payload body (everything after the id token).
    fn draw(&self, rng: &mut StdRng) -> String {
        let roll = rng.random_range(0..100u32);
        let (region, ids) = &self.sets[rng.random_range(0..self.sets.len())];
        let ids_arg = ids
            .iter()
            .map(|id| id.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        if roll < 55 {
            format!("PAIR {} {ids_arg}", region.code())
        } else if roll < 65 {
            format!("PAIR - {ids_arg}")
        } else if roll < 80 {
            let r = self.regions[rng.random_range(0..self.regions.len())];
            format!("TOPK {} 10", r.code())
        } else if roll < 90 {
            let r = self.regions[rng.random_range(0..self.regions.len())];
            format!("ZPROF {}", r.code())
        } else {
            let i = rng.random_range(0..self.regions.len());
            format!(
                "SCORE {}\n{}",
                self.regions[i].code(),
                self.score_lines[i].join("\n")
            )
        }
    }
}

/// Run `f` against a live connection to `server`. The client must read
/// every reply it is owed before returning; the connection closes by
/// dropping the client (clean EOF on the server side).
fn with_connection<T>(
    server: &Server<'_>,
    f: impl FnOnce(&mut Client<UnixStream>) -> T,
) -> (T, ConnStats) {
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let handle =
            scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        let mut client = Client::new(client_side);
        let out = f(&mut client);
        drop(client);
        (out, handle.join().expect("server thread"))
    })
}

/// Offline expected responses for the parity probes, computed from the
/// owned world through the same `analyze_*` pipeline the batch CLI
/// uses. Pairs of (request payload, expected response sans id).
fn offline_probes(world: &World, mix: &QueryMix, mc: usize, seed: u64) -> Vec<(String, String)> {
    let (region, ids) = &mix.sets[0];
    let cuisine_owned = world.recipes.cuisine(*region);
    let cuisine = CuisineView::Owned(world.recipes.cuisine(*region));
    let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine_owned);
    let ids_arg = ids
        .iter()
        .map(|id| id.0.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut probes = Vec::new();

    // PAIR, shard path and global path — same bits both ways.
    let shard_score = cache.score_ids(ids).expect("ids from the region pool");
    probes.push((
        format!("PAIR {} {ids_arg}", region.code()),
        format!("OK {}", protocol::pair_body(shard_score)),
    ));
    let global_score = recipe_pairing_score(&world.flavor, ids);
    probes.push((
        format!("PAIR - {ids_arg}"),
        format!("OK {}", protocol::pair_body(global_score)),
    ));

    // ZPROF — the serve shard path must reproduce analyze_cuisine.
    let cfg = MonteCarloConfig {
        n_recipes: mc,
        seed,
        n_threads: 1,
    };
    let analysis =
        analyze_cuisine(&world.flavor, &cuisine_owned, &NullModel::ALL, &cfg).expect("populated");
    probes.push((
        format!("ZPROF {}", region.code()),
        format!("OK {}", protocol::zprof_body(&analysis)),
    ));

    // TOPK — the novelty enumeration promoted from the examples.
    let pool = cuisine.ingredient_set();
    let tri_index = |n: usize, i: usize, j: usize| i * n - i * (i + 1) / 2 + (j - i - 1);
    let pos: HashMap<IngredientId, usize> =
        pool.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut cooc = vec![0u64; pool.len() * pool.len().saturating_sub(1) / 2];
    for recipe in world.recipes.recipes() {
        let mut members: Vec<usize> = recipe
            .ingredients()
            .iter()
            .filter_map(|id| pos.get(id).copied())
            .collect();
        members.sort_unstable();
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                cooc[tri_index(pool.len(), i, j)] += 1;
            }
        }
    }
    let mut candidates: Vec<(f64, u32, u64, usize, usize)> = Vec::new();
    for i in 0..pool.len() {
        for j in (i + 1)..pool.len() {
            let overlap = cache.overlap(i as u32, j as u32);
            if overlap == 0 {
                continue;
            }
            let c = cooc[tri_index(pool.len(), i, j)];
            candidates.push((f64::from(overlap) / (1.0 + c as f64), overlap, c, i, j));
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
            a: world.flavor.ingredient(pool[i]).expect("live").name.clone(),
            b: world.flavor.ingredient(pool[j]).expect("live").name.clone(),
        })
        .collect();
    probes.push((
        format!("TOPK {} 10", region.code()),
        format!("OK {}", protocol::topk_body(*region, &rows)),
    ));

    // SCORE — free-text import-and-score.
    let lines = &mix.score_lines[mix.regions.iter().position(|r| r == region).unwrap_or(0)];
    let importer = Importer::from_flavor_db(&world.flavor);
    let (resolved_ids, resolved) = resolve_score_lines(&importer, &world.flavor, lines);
    assert!(resolved_ids.len() >= 2, "probe names must resolve");
    let score = recipe_pairing_score(&world.flavor, &resolved_ids);
    let mean = cache.mean_cuisine_score_view(&cuisine).expect("scores");
    probes.push((
        format!("SCORE {}\n{}", region.code(), lines.join("\n")),
        format!(
            "OK {} vs={}",
            protocol::score_body(resolved, lines.len(), resolved_ids.len(), score),
            protocol::f64_field(mean),
        ),
    ));
    probes
}

/// Measured outcome of one load run.
struct RunStats {
    mode: &'static str,
    threads: usize,
    cache_entries: usize,
    requests: usize,
    busy: u64,
    elapsed_s: f64,
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
}

impl RunStats {
    fn json_row(&self, server: &Server<'_>) -> String {
        let (hits, misses, evictions) = server
            .cache_stats()
            .map(|s| (s.hits, s.misses, s.evictions))
            .unwrap_or((0, 0, 0));
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let snap = server.metrics().snapshot();
        let (batch_mean, batch_p50, batch_max) = snap
            .histogram("serve.batch")
            .map(|h| (h.mean_us() as f64, h.quantile_interp_us(0.50), h.max_us))
            .unwrap_or((0.0, 0.0, 0));
        format!(
            "    {{ \"mode\": \"{}\", \"threads\": {}, \"cache_entries\": {}, \
             \"requests\": {}, \"busy\": {}, \"elapsed_s\": {:.3}, \
             \"throughput_rps\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"mean_us\": {:.1}, \"cache_hits\": {hits}, \"cache_misses\": {misses}, \
             \"cache_evictions\": {evictions}, \"cache_hit_rate\": {hit_rate:.3}, \
             \"batch_mean\": {batch_mean:.1}, \"batch_p50\": {batch_p50:.1}, \
             \"batch_max\": {batch_max} }}",
            self.mode,
            self.threads,
            self.cache_entries,
            self.requests,
            self.busy,
            self.elapsed_s,
            self.requests as f64 / self.elapsed_s,
            self.p50_us,
            self.p99_us,
            self.mean_us,
        )
    }
}

/// Closed-loop run: `clients` connections, each keeping `window`
/// requests pipelined. Returns merged client-side latencies (µs),
/// BUSY count, and wall time.
fn run_closed_loop(
    server: &Server<'_>,
    mix: &QueryMix,
    seed: u64,
    total: usize,
    clients: usize,
    window: usize,
) -> (Vec<u64>, u64, f64) {
    let per_client = total.div_ceil(clients);
    let t0 = Instant::now();
    let results: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT ^ (c as u64 + 1));
                    let lines: Vec<String> = (0..per_client).map(|_| mix.draw(&mut rng)).collect();
                    let (out, _stats) = with_connection(server, |client| {
                        let mut lat = Vec::with_capacity(lines.len());
                        let mut busy = 0u64;
                        let mut inflight: HashMap<u64, Instant> = HashMap::new();
                        let mut next = 0usize;
                        let base = (c as u64 + 1) << 32;
                        let send_next = |client: &mut Client<UnixStream>,
                                         inflight: &mut HashMap<u64, Instant>,
                                         next: &mut usize| {
                            let id = base + *next as u64;
                            inflight.insert(id, Instant::now());
                            client
                                .send(&format!("{id} {}", lines[*next]))
                                .expect("send");
                            *next += 1;
                        };
                        while next < lines.len() && inflight.len() < window {
                            send_next(client, &mut inflight, &mut next);
                        }
                        while !inflight.is_empty() {
                            let (rid, rest) =
                                client.recv().expect("recv").expect("connection open");
                            if rest.starts_with("BUSY") {
                                busy += 1;
                            }
                            if let Some(sent) = inflight.remove(&rid) {
                                lat.push(sent.elapsed().as_micros() as u64);
                            }
                            if next < lines.len() {
                                send_next(client, &mut inflight, &mut next);
                            }
                        }
                        (lat, busy)
                    });
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    let mut busy = 0u64;
    for (mut l, b) in results {
        lat.append(&mut l);
        busy += b;
    }
    (lat, busy, elapsed)
}

/// Fixed-rate (open-loop) run on one connection: a writer thread on an
/// absolute schedule, the reader correlating replies by id.
fn run_fixed_rate(
    server: &Server<'_>,
    mix: &QueryMix,
    seed: u64,
    total: usize,
    rate_rps: usize,
) -> (Vec<u64>, u64, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT ^ 0xfeed);
    let lines: Vec<String> = (0..total).map(|_| mix.draw(&mut rng)).collect();
    let sent_at: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
    let period = Duration::from_secs_f64(1.0 / rate_rps as f64);

    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    let write_half = client_side.try_clone().expect("clone");
    let t0 = Instant::now();
    let (lat, busy) = std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone");
        let srv = scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
        let sent_at = &sent_at;
        let lines_ref = &lines;
        let writer = scope.spawn(move || {
            let mut w = write_half;
            let start = Instant::now();
            for (i, line) in lines_ref.iter().enumerate() {
                let due = start + period * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = (1u64 << 48) + i as u64;
                sent_at.lock().expect("lock").insert(id, Instant::now());
                protocol::write_frame(&mut w, format!("{id} {line}").as_bytes()).expect("send");
            }
        });
        let mut client = Client::new(client_side);
        let mut lat = Vec::with_capacity(total);
        let mut busy = 0u64;
        for _ in 0..total {
            let (rid, rest) = client.recv().expect("recv").expect("open");
            if rest.starts_with("BUSY") {
                busy += 1;
            }
            if let Some(t) = sent_at.lock().expect("lock").remove(&rid) {
                lat.push(t.elapsed().as_micros() as u64);
            }
        }
        writer.join().expect("writer thread");
        drop(client); // last client-side fd -> clean EOF on the server
        srv.join().expect("server thread");
        (lat, busy)
    });
    (lat, busy, t0.elapsed().as_secs_f64())
}

/// Interpolated quantiles via the obs histogram — the same estimator
/// the METRICS endpoint reports.
fn latency_quantiles(lat_us: &[u64]) -> (f64, f64, f64) {
    let metrics = Metrics::enabled();
    let hist = metrics.histogram("client.latency_us");
    let mut sum = 0u64;
    for &us in lat_us {
        hist.record(us);
        sum += us;
    }
    let snap = metrics.snapshot();
    let h = snap.histogram("client.latency_us").expect("recorded");
    (
        h.quantile_interp_us(0.50),
        h.quantile_interp_us(0.99),
        sum as f64 / lat_us.len().max(1) as f64,
    )
}

fn main() {
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let total: usize = env_or("CULINARIA_SERVE_REQS", 2_000);
    let clients: usize = env_or("CULINARIA_SERVE_CLIENTS", 4);
    let window: usize = env_or("CULINARIA_SERVE_WINDOW", 8);
    let mc: usize = env_or("CULINARIA_SERVE_MC", 500);
    let rate: usize = env_or("CULINARIA_SERVE_RATE", 300);
    let thread_list = env_list("CULINARIA_SERVE_THREADS", "1,2");
    let cache_list = env_list("CULINARIA_SERVE_CACHE", "0,4096");
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_serve.json".to_string());

    let world = world_from_env();
    let mix = QueryMix::build(&world, seed);

    // Artifacts with overlap sections: the server's shard builds hit
    // the section-reuse fast path, as in production.
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    for region in world.recipes.regions() {
        let cache = OverlapCache::for_cuisine(&world.flavor, world.recipes.cuisine(region));
        if cache.pool().is_empty() {
            continue;
        }
        builder
            .add_overlap(region.code(), cache.pool(), cache.tri())
            .expect("overlap section");
    }
    let fbuf = AlignedBytes::from_vec(builder.build().expect("flavor artifact"));
    let rbuf = AlignedBytes::from_vec(
        RecipeArtifactBuilder::new(&world.recipes)
            .build()
            .expect("recipe artifact"),
    );
    let fview = flavor_artifact::open(fbuf.as_slice()).expect("open");
    let rview = recipe_artifact::open(rbuf.as_slice()).expect("open");
    let flavor = FlavorViewRef::Artifact(&fview);
    let recipes = RecipesViewRef::Artifact(&rview);

    let probes = offline_probes(&world, &mix, mc, seed);
    let mut probe_fingerprint: Option<Vec<String>> = None;
    let mut rows = Vec::new();

    for &threads in &thread_list {
        for &cache_entries in &cache_list {
            let cfg = ServeConfig {
                threads,
                cache_entries,
                mc_recipes: mc,
                seed,
                ..ServeConfig::default()
            };

            // Parity: every probe answered over a live connection must
            // match the offline pipeline bit-for-bit — and match every
            // other config (threads and caching must not change bits).
            let probe_server = Server::new(flavor, recipes, cfg, Metrics::enabled());
            let (served, _) = with_connection(&probe_server, |client| {
                probes
                    .iter()
                    .enumerate()
                    .map(|(i, (req, _))| client.call(i as u64 + 1, req).expect("probe answered"))
                    .collect::<Vec<String>>()
            });
            for ((req, expected), got) in probes.iter().zip(&served) {
                assert_eq!(
                    got, expected,
                    "served {req:?} diverged from the offline pipeline \
                     (threads {threads}, cache {cache_entries})"
                );
            }
            match &probe_fingerprint {
                None => probe_fingerprint = Some(served),
                Some(first) => assert_eq!(
                    first, &served,
                    "probe responses changed across configs (threads {threads}, \
                     cache {cache_entries})"
                ),
            }

            // Closed-loop load run on a fresh server (clean counters).
            let server = Server::new(flavor, recipes, cfg, Metrics::enabled());
            let (lat, busy, elapsed) = run_closed_loop(&server, &mix, seed, total, clients, window);
            assert_eq!(lat.len(), clients * total.div_ceil(clients));
            let (p50, p99, mean) = latency_quantiles(&lat);
            if cache_entries > 0 {
                let cs = server.cache_stats().expect("cache enabled");
                assert!(
                    cs.hits > 0,
                    "seeded mix must produce cache hits (threads {threads})"
                );
            }
            eprintln!(
                "closed-loop threads={threads} cache={cache_entries}: \
                 {} reqs in {elapsed:.2}s ({:.0} rps), p50 {p50:.0}µs p99 {p99:.0}µs",
                lat.len(),
                lat.len() as f64 / elapsed,
            );
            rows.push(
                RunStats {
                    mode: "closed-loop",
                    threads,
                    cache_entries,
                    requests: lat.len(),
                    busy,
                    elapsed_s: elapsed,
                    p50_us: p50,
                    p99_us: p99,
                    mean_us: mean,
                }
                .json_row(&server),
            );
        }
    }

    // Fixed-rate run at the widest config.
    let cfg = ServeConfig {
        threads: *thread_list.last().expect("nonempty"),
        cache_entries: *cache_list.last().expect("nonempty"),
        mc_recipes: mc,
        seed,
        ..ServeConfig::default()
    };
    let server = Server::new(flavor, recipes, cfg, Metrics::enabled());
    let n_rate = (total / 2).max(1);
    let (lat, busy, elapsed) = run_fixed_rate(&server, &mix, seed, n_rate, rate);
    let (p50, p99, mean) = latency_quantiles(&lat);
    eprintln!(
        "fixed-rate {rate} rps: {} reqs in {elapsed:.2}s, p50 {p50:.0}µs p99 {p99:.0}µs",
        lat.len()
    );
    rows.push(
        RunStats {
            mode: "fixed-rate",
            threads: cfg.threads,
            cache_entries: cfg.cache_entries,
            requests: lat.len(),
            busy,
            elapsed_s: elapsed,
            p50_us: p50,
            p99_us: p99,
            mean_us: mean,
        }
        .json_row(&server),
    );

    // Backpressure burst: tiny queue, serial batches, expensive
    // queries — the flood must be shed with BUSY, not queued forever.
    let burst_cfg = ServeConfig {
        threads: 1,
        batch_max: 1,
        cache_entries: 0,
        max_queue: 2,
        mc_recipes: mc.max(2_000),
        seed,
        ..ServeConfig::default()
    };
    let burst_server = Server::new(flavor, recipes, burst_cfg, Metrics::enabled());
    let burst_n = 60usize;
    let ((answered, busy), conn) = with_connection(&burst_server, |client| {
        for i in 0..burst_n {
            client
                .send(&format!("{} ZPROF {}", i + 1, mix.regions[0].code()))
                .expect("send");
        }
        let mut answered = 0u64;
        let mut busy = 0u64;
        for _ in 0..burst_n {
            let (_, rest) = client.recv().expect("recv").expect("open");
            if rest.starts_with("BUSY") {
                busy += 1;
            } else {
                answered += 1;
            }
        }
        (answered, busy)
    });
    assert!(
        busy > 0,
        "a {burst_n}-deep flood over a 2-slot queue must shed with BUSY"
    );
    assert_eq!(conn.served + conn.shed, burst_n as u64);
    eprintln!("burst: {answered} served, {busy} shed with BUSY");
    rows.push(format!(
        "    {{ \"mode\": \"burst\", \"threads\": 1, \"cache_entries\": 0, \
         \"requests\": {burst_n}, \"busy\": {busy}, \"served\": {answered} }}"
    ));

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"seed\": {seed},\n  \"mc_recipes\": {mc},\n  \
         \"requests_per_run\": {total},\n  \"clients\": {clients},\n  \
         \"window\": {window},\n  \"probes\": {n_probes},\n  \
         \"parity\": \"served PAIR/ZPROF/TOPK/SCORE bit-identical to offline \
         analyze_cuisine + pairing pipeline across all configs\",\n  \
         \"runs\": [\n{rows}\n  ]\n}}\n",
        n_probes = probes.len(),
        rows = rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
