//! Streaming-ingestion benchmark: incremental analysis state vs batch
//! recomputes, and ingest-while-serving over `Server::ingest_swap`.
//!
//! Two measured regimes, each with an in-binary parity assert:
//!
//! * **Incremental vs batch** — a recipe stream is fed micro-batch by
//!   micro-batch into a [`StreamState`] (frequency tables, category
//!   counts, per-region overlap caches grown row-by-row, Welford
//!   running stats) while the batch path recomputes the touched
//!   regions' state cold after every micro-batch, exactly as the
//!   offline pipeline would. Per micro-batch size the harness reports
//!   total time for both paths, the speedup, and the incremental
//!   update-latency p50/p99 — and asserts the final incremental state
//!   is *bit-identical* to the cold rebuild over the whole stream.
//! * **Ingest while serving** — a [`Server`] answers a fixed-rate
//!   query mix (ZPROF + PAIR over one connection) while the main
//!   thread installs successive data generations with
//!   [`Server::ingest_swap`]. The harness reports query p50/p99 under
//!   churn, swap latency p50/p99, and the `serve.cache.invalidations`
//!   count — and asserts the post-swap server answers bit-identically
//!   to a fresh server built over the final store.
//!
//! Writes `BENCH_stream.json`. Knobs: `CULINARIA_SCALE`,
//! `CULINARIA_SEED`, `CULINARIA_STREAM_RECIPES` (stream length,
//! default 240), `CULINARIA_STREAM_BATCH` (micro-batch sizes, default
//! "1,8,64"), `CULINARIA_STREAM_QUERIES` (default 400),
//! `CULINARIA_STREAM_RATE` (queries/s, default 200),
//! `CULINARIA_STREAM_SWAPS` (generations installed, default 8),
//! `CULINARIA_STREAM_SWAP_BATCH` (recipes per generation, default 16),
//! `CULINARIA_STREAM_MC` (Monte-Carlo recipes per ZPROF, default 300),
//! `CULINARIA_STREAM_THREADS` (default "1,2"),
//! `CULINARIA_STREAM_WAL_RECIPES` (durability-smoke stream length,
//! default 160), `CULINARIA_STREAM_SEGMENT_BYTES` (WAL rotation
//! threshold, default 4096), `CULINARIA_BENCH_OUT`.
//!
//! A third regime smokes the durable segmented WAL (`DESIGN.md` §15):
//! per-fsync-policy append cost over rotating segments, reopen/replay
//! parity against the live store, and torn-tail recovery.

use std::collections::{BTreeSet, HashMap};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use culinaria_bench::{env_list, env_or, world_from_env};
use culinaria_core::composition::category_counts;
use culinaria_core::{
    recipe_pairing_score, FlavorViewRef, OverlapCache, RecipesViewRef, StreamState,
};
use culinaria_flavordb::IngredientId;
use culinaria_obs::Metrics;
use culinaria_recipedb::{RecipeStore, Region, Source};
use culinaria_serve::protocol::{self, Client};
use culinaria_serve::{ConnStats, ServeConfig, Server};
use culinaria_stats::running::RunningStats;

/// One stored recipe, owned so stores can be regrown generation by
/// generation without borrowing the world.
struct StreamRecipe {
    name: String,
    region: Region,
    source: Source,
    ids: Vec<IngredientId>,
}

/// Run `f` against a live connection to `server` (same shape as
/// `bench_serve`): the closure must drain every reply it is owed.
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

/// Interpolated p50/p99 over client-side latencies, via the same obs
/// histogram estimator the METRICS endpoint uses.
fn quantiles_us(lat_us: &[u64]) -> (f64, f64) {
    let metrics = Metrics::enabled();
    let hist = metrics.histogram("lat_us");
    for &us in lat_us {
        hist.record(us);
    }
    let snap = metrics.snapshot();
    let h = snap.histogram("lat_us").expect("recorded");
    (h.quantile_interp_us(0.50), h.quantile_interp_us(0.99))
}

/// Assert the incrementally fed `state` is bit-identical to a cold
/// batch rebuild over `store` — the bench's parity gate.
fn assert_stream_parity(
    db: &culinaria_flavordb::FlavorDb,
    state: &StreamState,
    store: &RecipeStore,
    label: &str,
) {
    assert_eq!(
        state.global_frequencies(),
        &store.global_frequencies(),
        "{label}: global frequencies diverged"
    );
    for region in store.regions() {
        let cuisine = store.cuisine(region);
        let rs = state.region(region);
        assert_eq!(
            rs.frequencies(),
            &cuisine.frequencies(),
            "{label}: {region} frequencies diverged"
        );
        assert_eq!(
            rs.category_counts(),
            &category_counts(db, &cuisine),
            "{label}: {region} category counts diverged"
        );
        let cold = OverlapCache::for_cuisine(db, &cuisine);
        assert_eq!(
            rs.overlap().pool(),
            cold.pool(),
            "{label}: {region} overlap pool diverged"
        );
        assert_eq!(
            rs.overlap().tri(),
            cold.tri(),
            "{label}: {region} overlap triangle diverged"
        );
        let mut batch = RunningStats::new();
        for r in cuisine.recipes() {
            if r.size() >= 2 {
                batch.push(recipe_pairing_score(db, r.ingredients()));
            }
        }
        assert_eq!(
            rs.pairing_stats(),
            &batch,
            "{label}: {region} running stats diverged"
        );
    }
}

fn main() {
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let n_stream: usize = env_or("CULINARIA_STREAM_RECIPES", 240);
    let batch_sizes = env_list("CULINARIA_STREAM_BATCH", "1,8,64");
    let queries: usize = env_or("CULINARIA_STREAM_QUERIES", 400);
    let rate: usize = env_or("CULINARIA_STREAM_RATE", 200);
    let swaps: usize = env_or("CULINARIA_STREAM_SWAPS", 8);
    let swap_batch: usize = env_or("CULINARIA_STREAM_SWAP_BATCH", 16);
    let mc: usize = env_or("CULINARIA_STREAM_MC", 300);
    let thread_list = env_list("CULINARIA_STREAM_THREADS", "1,2");
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_stream.json".to_string());

    let world = world_from_env();
    let all: Vec<StreamRecipe> = world
        .recipes
        .recipes()
        .map(|r| StreamRecipe {
            name: r.name.clone(),
            region: r.region,
            source: r.source,
            ids: r.ingredients().to_vec(),
        })
        .collect();
    assert!(
        all.len() > swaps * swap_batch + 32,
        "world too small for {swaps} swaps of {swap_batch}: {} recipes",
        all.len()
    );
    let stream = &all[..n_stream.min(all.len())];

    // ---- Part 1: incremental StreamState vs per-batch cold rebuilds.
    let mut inc_rows = Vec::new();
    let mut best_speedup = 0.0f64;
    for &bsize in &batch_sizes {
        let mut state = StreamState::new();
        let mut partial = RecipeStore::new();
        let mut inc_ns = 0u128;
        let mut batch_ns = 0u128;
        let mut update_us: Vec<u64> = Vec::new();
        let mut batches = 0usize;
        for chunk in stream.chunks(bsize) {
            // Store growth is shared by both paths; keep it untimed.
            for r in chunk {
                partial
                    .add_recipe(&r.name, r.region, r.source, r.ids.clone())
                    .expect("stream recipe stores");
            }
            let touched: BTreeSet<Region> = chunk.iter().map(|r| r.region).collect();
            let refs: Vec<(Region, &[IngredientId])> =
                chunk.iter().map(|r| (r.region, r.ids.as_slice())).collect();

            // Incremental path: one chunked ingest — each touched
            // region's overlap pool extends once per micro-batch.
            let t = Instant::now();
            state
                .ingest_batch(&world.flavor, &refs)
                .expect("stream chunk ingests");
            let dt = t.elapsed();
            inc_ns += dt.as_nanos();
            update_us.push(dt.as_micros() as u64);

            // Batch path: cold-recompute every touched region's state,
            // as the offline pipeline would after each micro-batch.
            let t = Instant::now();
            let global = partial.global_frequencies();
            std::hint::black_box(&global);
            for &region in &touched {
                let cuisine = partial.cuisine(region);
                let cold = OverlapCache::for_cuisine(&world.flavor, &cuisine);
                let cats = category_counts(&world.flavor, &cuisine);
                let mut stats = RunningStats::new();
                for r in cuisine.recipes() {
                    if r.size() >= 2 {
                        stats.push(recipe_pairing_score(&world.flavor, r.ingredients()));
                    }
                }
                std::hint::black_box((&cold, &cats, &stats));
            }
            batch_ns += t.elapsed().as_nanos();
            batches += 1;
        }
        assert_stream_parity(
            &world.flavor,
            &state,
            &partial,
            &format!("micro-batch {bsize}"),
        );
        let speedup = batch_ns as f64 / inc_ns.max(1) as f64;
        best_speedup = best_speedup.max(speedup);
        let (p50, p99) = quantiles_us(&update_us);
        eprintln!(
            "micro-batch {bsize}: {} recipes in {batches} batches, \
             incremental {:.1}ms vs batch {:.1}ms — speedup {speedup:.1}x, \
             update p50 {p50:.0}µs p99 {p99:.0}µs",
            stream.len(),
            inc_ns as f64 / 1e6,
            batch_ns as f64 / 1e6,
        );
        inc_rows.push(format!(
            "    {{ \"batch_size\": {bsize}, \"recipes\": {}, \"batches\": {batches}, \
             \"incremental_ms\": {:.3}, \"batch_ms\": {:.3}, \"speedup\": {speedup:.2}, \
             \"update_p50_us\": {p50:.1}, \"update_p99_us\": {p99:.1}, \"parity\": \"ok\" }}",
            stream.len(),
            inc_ns as f64 / 1e6,
            batch_ns as f64 / 1e6,
        ));
    }
    assert!(
        best_speedup > 1.0,
        "incremental maintenance must beat per-batch cold rebuilds \
         (best speedup {best_speedup:.2}x)"
    );

    // ---- Part 2: ingest_swap generations under a fixed-rate query mix.
    // Generation g serves the first base + g*swap_batch recipes; the
    // arena outlives every server so swaps can borrow freely.
    let base_n = all.len() - swaps * swap_batch;
    let arena: Vec<RecipeStore> = (0..=swaps)
        .map(|g| {
            let mut s = RecipeStore::new();
            for r in &all[..base_n + g * swap_batch] {
                s.add_recipe(&r.name, r.region, r.source, r.ids.clone())
                    .expect("arena recipe stores");
            }
            s
        })
        .collect();
    let flavor = FlavorViewRef::Owned(&world.flavor);

    let mut ranked: Vec<Region> = arena[0]
        .regions()
        .into_iter()
        .filter(|&r| arena[0].cuisine(r).ingredient_set().len() >= 8)
        .collect();
    ranked.sort_by_key(|&r| std::cmp::Reverse(arena[0].cuisine(r).n_recipes()));
    ranked.truncate(3);
    assert!(!ranked.is_empty(), "no populated region to query");
    let pair_args: Vec<String> = ranked
        .iter()
        .map(|&r| {
            arena[0].cuisine(r).ingredient_set()[..4]
                .iter()
                .map(|id| id.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    // A small cycling mix: repeats are what expose stale cache entries
    // to the generation check after each swap.
    let lines: Vec<String> = (0..queries)
        .map(|i| {
            let k = i % ranked.len();
            if i % 10 < 3 {
                format!("ZPROF {}", ranked[k].code())
            } else {
                format!("PAIR {} {}", ranked[k].code(), pair_args[k])
            }
        })
        .collect();

    let mut serve_rows = Vec::new();
    for &threads in &thread_list {
        let cfg = ServeConfig {
            threads,
            cache_entries: 1024,
            mc_recipes: mc,
            seed,
            ..ServeConfig::default()
        };
        let server = Server::new(
            flavor,
            RecipesViewRef::Owned(&arena[0]),
            cfg,
            Metrics::enabled(),
        );

        let sent_at: Mutex<HashMap<u64, Instant>> = Mutex::new(HashMap::new());
        let period = Duration::from_secs_f64(1.0 / rate as f64);
        let swap_every =
            Duration::from_secs_f64((queries as f64 / rate as f64) / (swaps as f64 + 1.0));
        let (server_side, client_side) = UnixStream::pair().expect("socketpair");
        let write_half = client_side.try_clone().expect("clone");
        let t0 = Instant::now();
        let (lat, ok_replies, swap_us) = std::thread::scope(|scope| {
            let reader = server_side.try_clone().expect("clone");
            let server = &server;
            let srv =
                scope.spawn(move || server.serve_connection(reader, server_side).expect("serve"));
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
                    let id = (1u64 << 40) + i as u64;
                    sent_at.lock().expect("lock").insert(id, Instant::now());
                    protocol::write_frame(&mut w, format!("{id} {line}").as_bytes()).expect("send");
                }
            });
            // The ingest side: install generations at an even spacing
            // while the reader below keeps draining replies.
            let arena_ref = &arena;
            let ingester = scope.spawn(move || {
                let mut swap_us = Vec::with_capacity(swaps);
                for (g, store) in arena_ref.iter().enumerate().skip(1) {
                    std::thread::sleep(swap_every);
                    let t = Instant::now();
                    let generation = server.ingest_swap(flavor, RecipesViewRef::Owned(store));
                    swap_us.push(t.elapsed().as_micros() as u64);
                    assert_eq!(generation, g as u64, "generations must be sequential");
                }
                swap_us
            });
            let mut client = Client::new(client_side);
            let mut lat = Vec::with_capacity(queries);
            let mut ok_replies = 0usize;
            for _ in 0..queries {
                let (rid, rest) = client.recv().expect("recv").expect("open");
                if rest.starts_with("OK ") {
                    ok_replies += 1;
                }
                if let Some(t) = sent_at.lock().expect("lock").remove(&rid) {
                    lat.push(t.elapsed().as_micros() as u64);
                }
            }
            writer.join().expect("writer thread");
            let swap_us = ingester.join().expect("ingester thread");
            drop(client);
            srv.join().expect("server thread");
            (lat, ok_replies, swap_us)
        });
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(
            ok_replies, queries,
            "every query must be answered OK while ingesting (threads {threads})"
        );
        assert_eq!(server.generation(), swaps as u64);
        let cs = server.cache_stats().expect("cache enabled");
        assert!(
            cs.invalidations > 0,
            "swaps over a repeating mix must invalidate stale entries (threads {threads})"
        );
        let (q50, q99) = quantiles_us(&lat);
        let (s50, s99) = quantiles_us(&swap_us);

        // Parity: the swapped server must answer exactly like a fresh
        // server over the final generation's store.
        let probes: Vec<String> = ranked
            .iter()
            .map(|r| format!("ZPROF {}", r.code()))
            .collect();
        let (swapped, _) = with_connection(&server, |client| {
            probes
                .iter()
                .enumerate()
                .map(|(i, p)| client.call(i as u64 + 1, p).expect("probe"))
                .collect::<Vec<String>>()
        });
        let fresh_server = Server::new(
            flavor,
            RecipesViewRef::Owned(&arena[swaps]),
            cfg,
            Metrics::enabled(),
        );
        let (fresh, _) = with_connection(&fresh_server, |client| {
            probes
                .iter()
                .enumerate()
                .map(|(i, p)| client.call(i as u64 + 1, p).expect("probe"))
                .collect::<Vec<String>>()
        });
        assert_eq!(
            swapped, fresh,
            "post-swap answers diverged from a cold server (threads {threads})"
        );

        eprintln!(
            "serving threads={threads}: {queries} queries at {rate}/s with {swaps} swaps in \
             {elapsed:.2}s — query p50 {q50:.0}µs p99 {q99:.0}µs, swap p50 {s50:.0}µs \
             p99 {s99:.0}µs, {} invalidations",
            cs.invalidations
        );
        serve_rows.push(format!(
            "    {{ \"threads\": {threads}, \"rate_rps\": {rate}, \"queries\": {queries}, \
             \"swaps\": {swaps}, \"swap_batch\": {swap_batch}, \"elapsed_s\": {elapsed:.3}, \
             \"query_p50_us\": {q50:.1}, \"query_p99_us\": {q99:.1}, \
             \"swap_p50_us\": {s50:.1}, \"swap_p99_us\": {s99:.1}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_invalidations\": {}, \
             \"parity\": \"ok\" }}",
            cs.hits, cs.misses, cs.invalidations
        ));
    }

    // ---- Part 3: segmented-WAL durability smoke (DESIGN.md §15) —
    // per-fsync-policy append cost over rotating CWAL1 segments, then a
    // reopen whose recovered log must replay bit-identically to the
    // store the appends grew, including after a torn tail.
    let wal_recipes: usize = env_or("CULINARIA_STREAM_WAL_RECIPES", 160);
    let segment_bytes: u64 = env_or("CULINARIA_STREAM_SEGMENT_BYTES", 4096);
    let importer = culinaria_recipedb::import::Importer::from_flavor_db(&world.flavor);
    let wal_raws: Vec<culinaria_recipedb::RawRecipe> = all[..wal_recipes.min(all.len())]
        .iter()
        .map(|r| culinaria_recipedb::RawRecipe {
            name: r.name.clone(),
            region: r.region,
            source: r.source,
            ingredient_lines: r
                .ids
                .iter()
                .map(|&id| {
                    world
                        .flavor
                        .ingredient(id)
                        .expect("world id resolves")
                        .name
                        .clone()
                })
                .collect(),
        })
        .collect();
    let mut wal_rows = Vec::new();
    for policy in [
        culinaria_recipedb::FsyncPolicy::Always,
        culinaria_recipedb::FsyncPolicy::Batch,
        culinaria_recipedb::FsyncPolicy::Off,
    ] {
        let dir = std::env::temp_dir().join(format!(
            "culinaria-bench-wal-{}-{policy}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = culinaria_recipedb::SegmentedLog::open(&dir, policy, segment_bytes)
            .expect("open segmented wal");
        let mut live = RecipeStore::new();
        let t = Instant::now();
        for chunk in wal_raws.chunks(16) {
            log.append_batch(&world.flavor, &importer, &mut live, chunk, 2)
                .expect("wal append");
        }
        log.sync().expect("final sync");
        let append_ms = t.elapsed().as_secs_f64() * 1e3;
        let n_segments = log.n_segments();
        assert!(
            n_segments >= 2,
            "segment rotation never kicked in ({n_segments} segment(s) at \
             {segment_bytes} bytes) — durability smoke needs a sealed segment"
        );
        let live_bytes = culinaria_recipedb::io::to_snapshot(&live).expect("live snapshot");
        drop(log);

        let t = Instant::now();
        let reopened = culinaria_recipedb::SegmentedLog::open(&dir, policy, segment_bytes)
            .expect("reopen segmented wal");
        let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            !reopened.recovery().recovered(),
            "clean close reopened torn"
        );
        assert_eq!(reopened.len(), wal_raws.len(), "records lost across reopen");
        let t = Instant::now();
        let (replayed, _) = reopened
            .replay(&world.flavor, &importer, 2)
            .expect("wal replay");
        let replay_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            culinaria_recipedb::io::to_snapshot(&replayed).expect("replay snapshot"),
            live_bytes,
            "replayed store diverged from the live store ({policy})"
        );
        drop(reopened);

        // Torn tail: garbage after the last record must be truncated on
        // open while every whole record survives.
        {
            use std::io::Write as _;
            let open_seg = std::fs::read_dir(&dir)
                .expect("wal dir")
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.to_string_lossy().ends_with(".cwal"))
                .max()
                .expect("open segment");
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(open_seg)
                .expect("damage open segment");
            f.write_all(&[0xAA; 7]).expect("append torn bytes");
        }
        let torn = culinaria_recipedb::SegmentedLog::open(&dir, policy, segment_bytes)
            .expect("reopen torn wal");
        assert_eq!(torn.recovery().truncated_bytes, 7, "torn tail not measured");
        assert_eq!(torn.len(), wal_raws.len(), "torn tail ate whole records");
        eprintln!(
            "wal fsync={policy}: {} records over {n_segments} segments — \
             append {append_ms:.1}ms, reopen {reopen_ms:.2}ms, replay {replay_ms:.1}ms",
            wal_raws.len()
        );
        wal_rows.push(format!(
            "    {{ \"fsync\": \"{policy}\", \"records\": {}, \"segments\": {n_segments}, \
             \"segment_bytes\": {segment_bytes}, \"append_ms\": {append_ms:.3}, \
             \"reopen_ms\": {reopen_ms:.3}, \"replay_ms\": {replay_ms:.3}, \
             \"torn_tail_recovered\": true, \"parity\": \"ok\" }}",
            wal_raws.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let json = format!(
        "{{\n  \"bench\": \"stream\",\n  \"seed\": {seed},\n  \
         \"stream_recipes\": {n},\n  \"mc_recipes\": {mc},\n  \
         \"parity\": \"incremental state bit-identical to cold rebuilds per config; \
         post-swap serve answers bit-identical to a cold server; \
         segmented WAL replays bit-identical to the live store\",\n  \
         \"incremental\": [\n{inc}\n  ],\n  \"serving\": [\n{serve}\n  ],\n  \
         \"wal\": [\n{wal}\n  ]\n}}\n",
        n = stream.len(),
        inc = inc_rows.join(",\n"),
        serve = serve_rows.join(",\n"),
        wal = wal_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
