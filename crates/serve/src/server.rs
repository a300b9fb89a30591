//! The long-lived query server: per-region shards over one artifact
//! (or owned) world, deterministic request batching, response caching,
//! and the per-connection reader/batcher loop.
//!
//! # Batching determinism
//!
//! A batch is answered in three strictly ordered phases:
//!
//! 1. a serial cache-lookup pass in request order (so hit/miss
//!    counters and LRU promotions are schedule-independent),
//! 2. the misses fanned over `culinaria_stats::pool`, whose results
//!    come back **in task order** regardless of thread count, and
//! 3. a serial fill + cache-store pass, again in request order.
//!
//! Each request's computation depends only on immutable shard state
//! (lazily initialized through `OnceLock`, so exactly one build wins
//! and every worker sees the same tables), which makes a batch's
//! responses — and the cache's evolution — bit-identical to serial
//! execution at any worker count. The serve tests assert exactly that.
//!
//! # Response cache
//!
//! `OK` answers of `PAIR`, `ZPROF` and `TOPK` are cached under the
//! request itself ([`crate::cache`]); `compute_pair` refuses a `PAIR`
//! set that is not sorted and distinct, so the parser's normalization is
//! the only one a key needs. The server turns each lookup's
//! [`Lookup`] and each store's eviction into the
//! `serve.cache.{hits,misses,evictions,invalidations}` counters, the
//! only place they are counted.
//!
//! # Generations and ingest
//!
//! The server's data views, lazy shards, `TOPK`'s store-wide
//! co-occurrence triangle, and `SCORE` context live in an immutable
//! **epoch** behind an `RwLock<Arc<…>>`. A batch snapshots the current
//! epoch once and answers entirely against it, so a concurrent
//! [`Server::ingest_swap`] — which installs a new epoch with fresh
//! (empty) shard slots and triangle and the next **generation** number
//! — never tears a batch. The response cache is stamped with the
//! generation at store time; the swap moves the cache's generation
//! forward, and stale entries are evicted lazily on their next lookup
//! (`serve.cache.invalidations`). A batch whose epoch a swap has
//! superseded neither reads nor fills the cache: its answers hold for
//! the old data only, and caching one would stamp it with the new
//! generation. Shards are rebuilt lazily in the new epoch exactly as
//! they were at startup.

use std::io::{self, BufWriter, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

use culinaria_core::pairing::{novel_pairings, CoocTriangle, NovelPairing, OverlapCache};
use culinaria_core::z_analysis::{region_overlap_cache, try_analyze_cuisine_view_observed};
use culinaria_core::{
    recipe_pairing_score_view, FlavorViewRef, MonteCarloConfig, NullModel, RecipesViewRef,
};
use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::{Counter, Gauge, Histogram, Metrics};
use culinaria_recipedb::import::{parse_quantity, Importer};
use culinaria_recipedb::Region;
use culinaria_stats::{fault, pool};

use crate::cache::{Lookup, ResponseCache};
use crate::deadline::{DeadlineReader, TimeoutClass};
use crate::lifecycle::ShutdownFlag;
use crate::protocol::{
    encode_busy, encode_err, pair_body, parse_request, read_frame, score_body, topk_body,
    write_frame, zprof_body, FrameError, ProtoError, Request, TopPairing, MAX_FRAME, MAX_TOPK,
};
use crate::queue::{BoundedQueue, Push};

/// Take a mutex regardless of poison. The serve locks guard plain data
/// (caches, buffered writers) whose invariants hold between statements,
/// and a connection thread that panicked must degrade the server to
/// serving, never to cascading panics.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Server tuning knobs; every CLI `serve` flag maps onto one field.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads per batch (0 = available parallelism).
    pub threads: usize,
    /// Most requests coalesced into one batch.
    pub batch_max: usize,
    /// Response-cache capacity in entries (0 disables the cache).
    pub cache_entries: usize,
    /// Bounded-queue capacity; pushes past it are shed with `BUSY`.
    pub max_queue: usize,
    /// Monte-Carlo ensemble size for `ZPROF`.
    pub mc_recipes: usize,
    /// Monte-Carlo base seed for `ZPROF`.
    pub seed: u64,
    /// Mid-frame read deadline in ms (0 = disabled): the longest a
    /// client may sit between a frame's first byte and its last before
    /// it is shed with `ERR read-timeout`. Enforced only on streams
    /// armed by [`crate::deadline::arm`] (the socket transport).
    pub read_timeout_ms: u64,
    /// Write deadline in ms (0 = disabled), applied as `SO_SNDTIMEO`:
    /// a client that stops draining replies fails the next write and
    /// the connection is dropped.
    pub write_timeout_ms: u64,
    /// Idle deadline in ms (0 = disabled): the longest a client may go
    /// between frames before the connection is closed (cleanly, no
    /// error frame).
    pub idle_timeout_ms: u64,
    /// Most concurrent connections the socket transport accepts
    /// (0 = unlimited); connections over the cap get one framed
    /// `ERR conn-limit` and are closed.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 0,
            batch_max: 32,
            cache_entries: 4096,
            max_queue: 256,
            mc_recipes: 2000,
            seed: 2018,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            idle_timeout_ms: 300_000,
            max_conns: 64,
        }
    }
}

/// One region's immutable query state, built lazily on first use
/// ("lazy section loading": the overlap triangle comes straight out of
/// the artifact's precomputed section when one matches, a kernel build
/// otherwise).
#[derive(Debug)]
pub struct RegionShard {
    region: Region,
    overlap: OverlapCache,
    /// Mean observed ⟨N_s⟩ of the cuisine (None for a scoreless one).
    mean: OnceLock<Option<f64>>,
    /// The `MAX_TOPK` most novel pool pairs, ranked; built on the
    /// first `TOPK`.
    candidates: OnceLock<Vec<NovelPairing>>,
}

/// Lazily materialized owned-database context for `SCORE` (the
/// importer needs an owned `FlavorDb`; artifact-backed servers
/// materialize one on the first `SCORE` so every other endpoint keeps
/// the O(1)-startup zero-copy path).
enum ScoreDb<'a> {
    Borrowed(&'a FlavorDb),
    Owned(Box<FlavorDb>),
}

impl ScoreDb<'_> {
    fn get(&self) -> &FlavorDb {
        match self {
            ScoreDb::Borrowed(db) => db,
            ScoreDb::Owned(db) => db,
        }
    }
}

struct ScoreCtx<'a> {
    db: ScoreDb<'a>,
    importer: Importer,
}

/// Resolve free-text ingredient lines into a normalized id set:
/// the importer's alias resolution first, then an exact
/// (case-insensitive) database-name fallback per line, tried on the
/// whole line and then on what follows its leading quantity
/// ([`parse_quantity`], so `2 syn-113-beverage` finds
/// `syn-113-beverage`) — generated worlds use `name-category`
/// ingredient names that phrase normalization would otherwise split
/// apart. Returns the sorted, deduplicated ids and how many lines
/// resolved to at least one ingredient. Public so offline parity
/// checks reuse the exact rule.
pub fn resolve_score_lines(
    importer: &Importer,
    db: &FlavorDb,
    lines: &[String],
) -> (Vec<IngredientId>, usize) {
    let mut ids: Vec<IngredientId> = Vec::new();
    let mut resolved_lines = 0usize;
    for line in lines {
        let (mut got, _unresolved) = importer.resolve_line(db, line);
        if got.is_empty() {
            let exact = db
                .ingredient_by_name(line.trim())
                .or_else(|| parse_quantity(line).and_then(|q| db.ingredient_by_name(&q.rest)));
            got.extend(exact);
        }
        if !got.is_empty() {
            resolved_lines += 1;
        }
        ids.extend(got);
    }
    ids.sort_unstable();
    ids.dedup();
    (ids, resolved_lines)
}

/// Prefetched instrument handles — one registry lookup each at
/// construction instead of per request.
struct ServeObs {
    pair_us: Histogram,
    zprof_us: Histogram,
    topk_us: Histogram,
    score_us: Histogram,
    batch: Histogram,
    queue_depth: Gauge,
    requests: Counter,
    busy: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    cache_invalidations: Counter,
    shard_builds: Counter,
    timeouts: Counter,
    conns: Gauge,
}

impl ServeObs {
    fn new(m: &Metrics) -> ServeObs {
        ServeObs {
            pair_us: m.histogram("serve.pair_us"),
            zprof_us: m.histogram("serve.zprof_us"),
            topk_us: m.histogram("serve.topk_us"),
            score_us: m.histogram("serve.score_us"),
            batch: m.histogram("serve.batch"),
            queue_depth: m.gauge("serve.queue.depth"),
            requests: m.counter("serve.requests"),
            busy: m.counter("serve.busy"),
            cache_hits: m.counter("serve.cache.hits"),
            cache_misses: m.counter("serve.cache.misses"),
            cache_evictions: m.counter("serve.cache.evictions"),
            cache_invalidations: m.counter("serve.cache.invalidations"),
            shard_builds: m.counter("serve.shard.builds"),
            timeouts: m.counter("serve.timeouts"),
            conns: m.gauge("serve.conns"),
        }
    }
}

type ShardSlot = Result<Option<Arc<RegionShard>>, String>;

/// One immutable data generation: the world views plus every piece of
/// lazily-derived state that depends on them. Swapped wholesale by
/// [`Server::ingest_swap`]; batches snapshot the `Arc` once, so a swap
/// never tears in-flight work.
struct Epoch<'a> {
    /// 0 at startup, +1 per [`Server::ingest_swap`].
    generation: u64,
    flavor: FlavorViewRef<'a>,
    recipes: RecipesViewRef<'a>,
    shards: Vec<OnceLock<ShardSlot>>,
    /// Store-wide co-occurrence for `TOPK`, counted once per
    /// generation on the first `TOPK` of any region.
    cooc: OnceLock<CoocTriangle>,
    score_ctx: OnceLock<Option<ScoreCtx<'a>>>,
}

impl<'a> Epoch<'a> {
    fn new(generation: u64, flavor: FlavorViewRef<'a>, recipes: RecipesViewRef<'a>) -> Epoch<'a> {
        Epoch {
            generation,
            flavor,
            recipes,
            shards: (0..Region::ALL.len()).map(|_| OnceLock::new()).collect(),
            cooc: OnceLock::new(),
            score_ctx: OnceLock::new(),
        }
    }
}

/// Connection-level accounting returned by
/// [`Server::serve_connection`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Requests answered through the batcher.
    pub served: u64,
    /// Requests shed with `BUSY`.
    pub shed: u64,
    /// Malformed frames / requests answered with `ERR`.
    pub protocol_errors: u64,
}

/// See the module docs.
pub struct Server<'a> {
    epoch: RwLock<Arc<Epoch<'a>>>,
    cfg: ServeConfig,
    /// `cfg.threads` resolved once: resolving 0 reads the cgroup CPU
    /// quota, tens of microseconds that a batch must not pay.
    threads: usize,
    metrics: Metrics,
    obs: ServeObs,
    cache: Option<Mutex<ResponseCache>>,
    started: Instant,
    active_conns: AtomicU64,
}

impl<'a> Server<'a> {
    /// A server over any world representation. `metrics` should be an
    /// enabled registry — it backs both the `METRICS` endpoint and the
    /// exit dump.
    pub fn new(
        flavor: FlavorViewRef<'a>,
        recipes: RecipesViewRef<'a>,
        cfg: ServeConfig,
        metrics: Metrics,
    ) -> Server<'a> {
        let obs = ServeObs::new(&metrics);
        let cache =
            (cfg.cache_entries > 0).then(|| Mutex::new(ResponseCache::new(cfg.cache_entries)));
        Server {
            epoch: RwLock::new(Arc::new(Epoch::new(0, flavor, recipes))),
            cfg,
            threads: pool::effective_threads(cfg.threads),
            metrics,
            obs,
            cache,
            started: Instant::now(),
            active_conns: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The current data generation (0 at startup, +1 per
    /// [`Server::ingest_swap`]).
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// Install a new data generation after an ingest: replace the world
    /// views, reset the lazy per-region shards, `TOPK`'s co-occurrence
    /// triangle and the `SCORE` context (they rebuild on first use
    /// against the new data), and move the
    /// response cache's generation forward so every cached answer from
    /// an older generation is evicted on its next lookup (counted by
    /// `serve.cache.invalidations`). Returns the new generation.
    ///
    /// The swap is atomic from a batch's point of view: batches
    /// snapshot the epoch once at entry and finish against it, so
    /// responses in one batch never mix generations.
    pub fn ingest_swap(&self, flavor: FlavorViewRef<'a>, recipes: RecipesViewRef<'a>) -> u64 {
        let mut epoch = self.epoch.write().unwrap_or_else(|p| p.into_inner());
        let generation = epoch.generation + 1;
        let superseded = std::mem::replace(
            &mut *epoch,
            Arc::new(Epoch::new(generation, flavor, recipes)),
        );
        // Still under the epoch lock: no batch can snapshot the new
        // epoch before the cache has moved to its generation.
        if let Some(cache) = self.cache.as_ref() {
            lock_unpoisoned(cache).set_generation(generation);
        }
        drop(epoch);
        // Freeing the old shards, triangle and SCORE context can take
        // milliseconds; doing it after the guard is gone keeps every
        // batch's `current()` from waiting on it.
        drop(superseded);
        generation
    }

    /// Snapshot the current epoch.
    fn current(&self) -> Arc<Epoch<'a>> {
        self.epoch.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Connections currently inside [`Server::serve_connection`].
    pub fn active_connections(&self) -> u64 {
        self.active_conns.load(Ordering::SeqCst)
    }

    /// The region's shard in this epoch, built on first use. `Ok(None)`
    /// means the region has no usable cuisine in this dataset.
    fn shard(&self, ep: &Epoch<'a>, region: Region) -> Result<Option<Arc<RegionShard>>, String> {
        ep.shards[region.index()]
            .get_or_init(|| self.build_shard(ep, region))
            .clone()
    }

    fn build_shard(&self, ep: &Epoch<'a>, region: Region) -> ShardSlot {
        let cuisine = ep.recipes.cuisine(region);
        let pool = cuisine.ingredient_set();
        if pool.is_empty() {
            return Ok(None);
        }
        // Single-threaded build: shard builds run inside batch workers,
        // and the artifact-section fast path is a memcpy anyway.
        let overlap = region_overlap_cache(ep.flavor, region, &pool, 1, &self.metrics)
            .map_err(|f| f.to_string())?;
        self.obs.shard_builds.add(1);
        Ok(Some(Arc::new(RegionShard {
            region,
            overlap,
            mean: OnceLock::new(),
            candidates: OnceLock::new(),
        })))
    }

    /// Serial request handling — the reference semantics batches must
    /// reproduce bit-for-bit.
    pub fn handle(&self, id: u64, req: &Request) -> String {
        let mut out = self.handle_batch(std::slice::from_ref(&(id, req.clone())));
        out.pop()
            .unwrap_or_else(|| format!("{id} ERR analysis-failed batch produced no response"))
    }

    /// Answer a batch; one encoded response payload per request, in
    /// request order. See the module docs for the determinism
    /// argument.
    pub fn handle_batch(&self, reqs: &[(u64, Request)]) -> Vec<String> {
        self.obs.batch.record(reqs.len() as u64);
        self.obs.requests.add(reqs.len() as u64);
        // One epoch snapshot per batch: every phase — and every worker —
        // answers against the same data generation.
        let ep = self.current();
        let mut out: Vec<Option<String>> = vec![None; reqs.len()];
        let mut misses: Vec<usize> = Vec::new();
        // Phase 1: serial cache pass, request order.
        for (i, (id, req)) in reqs.iter().enumerate() {
            match self.cache_lookup(ep.generation, req) {
                Some(body) => out[i] = Some(format!("{id} {body}")),
                None => misses.push(i),
            }
        }
        // Phase 2: compute misses in task order over the worker pool.
        let computed = pool::run(
            self.threads,
            misses.len(),
            || (),
            |_, t| self.compute(&ep, &reqs[misses[t]].1),
        );
        // Phase 3: serial fill + cache stores, request order.
        for (&i, body) in misses.iter().zip(computed) {
            let (id, req) = &reqs[i];
            out[i] = Some(format!("{id} {body}"));
            self.cache_store(ep.generation, req, body);
        }
        out.into_iter()
            .zip(reqs)
            .map(|(r, (id, _))| {
                r.unwrap_or_else(|| format!("{id} ERR analysis-failed response missing"))
            })
            .collect()
    }

    /// The verbs whose answers are cached: each is a pure function of
    /// the request and the data generation. `PING`, `QUIT`, `METRICS`
    /// and `HEALTH` are trivial or volatile, and `SCORE` is free text.
    fn cacheable(req: &Request) -> bool {
        matches!(
            req,
            Request::Pair { .. } | Request::ZProf { .. } | Request::TopK { .. }
        )
    }

    /// A cached answer for a batch answering against epoch
    /// `generation`; `None` for any batch a swap has superseded.
    fn cache_lookup(&self, generation: u64, req: &Request) -> Option<String> {
        if !Self::cacheable(req) {
            return None;
        }
        let mut cache = lock_unpoisoned(self.cache.as_ref()?);
        if cache.generation() != generation {
            return None;
        }
        let found = cache.lookup(req);
        drop(cache);
        match found {
            Lookup::Hit(body) => {
                self.obs.cache_hits.incr();
                return Some(body);
            }
            Lookup::Stale => self.obs.cache_invalidations.incr(),
            Lookup::Miss => {}
        }
        self.obs.cache_misses.incr();
        None
    }

    /// Cache `body`, computed against epoch `generation`, unless a swap
    /// has superseded that epoch since.
    fn cache_store(&self, generation: u64, req: &Request, body: String) {
        // Only successful responses are cached — errors stay cheap to
        // recompute and must not shadow a later success.
        if !Self::cacheable(req) || !body.starts_with("OK ") {
            return;
        }
        if let Some(cache) = self.cache.as_ref() {
            let mut cache = lock_unpoisoned(cache);
            if cache.generation() == generation && cache.store(req, body) {
                self.obs.cache_evictions.incr();
            }
        }
    }

    /// Compute one response body (`OK …` / `ERR …`, no id prefix).
    /// Pure with respect to request order — the batching determinism
    /// hinges on this.
    fn compute(&self, ep: &Epoch<'a>, req: &Request) -> String {
        match req {
            Request::Ping => "OK pong".to_string(),
            Request::Quit => "OK bye".to_string(),
            Request::Metrics => format!("OK metrics {}", self.metrics.render_json()),
            Request::Health => format!("OK {}", self.health_body()),
            Request::Pair { region, ids } => {
                let t = self.obs.pair_us.start();
                let body = self.compute_pair(ep, *region, ids);
                t.stop();
                body
            }
            Request::ZProf { region } => {
                let t = self.obs.zprof_us.start();
                let body = self.compute_zprof(ep, *region);
                t.stop();
                body
            }
            Request::TopK { region, k } => {
                let t = self.obs.topk_us.start();
                let body = self.compute_topk(ep, *region, *k);
                t.stop();
                body
            }
            Request::Score { region, lines } => {
                let t = self.obs.score_us.start();
                let body = self.compute_score(ep, *region, lines);
                t.stop();
                body
            }
        }
    }

    /// The `HEALTH` body: liveness and pressure counters for operator
    /// probes. Volatile by construction (uptime, queue depth), so it is
    /// never cached, like `METRICS`.
    fn health_body(&self) -> String {
        let hits = self.obs.cache_hits.get();
        let misses = self.obs.cache_misses.get();
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        format!(
            "health gen={} uptime_ms={} conns={} queue={} served={} shed={} timeouts={} hit_rate={}",
            self.generation(),
            self.started.elapsed().as_millis(),
            self.active_conns.load(Ordering::SeqCst),
            self.obs.queue_depth.get(),
            self.obs.requests.get(),
            self.obs.busy.get(),
            self.obs.timeouts.get(),
            crate::protocol::f64_field(hit_rate),
        )
    }

    fn err(code: &'static str, message: impl Into<String>) -> String {
        let e = ProtoError::new(code, message);
        format!("ERR {} {}", e.code, e.message)
    }

    fn usable_shard(&self, ep: &Epoch<'a>, region: Region) -> Result<Arc<RegionShard>, String> {
        match self.shard(ep, region) {
            Ok(Some(shard)) => Ok(shard),
            Ok(None) => Err(Self::err(
                "empty-region",
                format!("region {} has no recipes in this dataset", region.code()),
            )),
            Err(msg) => Err(Self::err("region-unusable", msg)),
        }
    }

    fn compute_pair(&self, ep: &Epoch<'a>, region: Option<Region>, ids: &[IngredientId]) -> String {
        // The parser normalizes a set, but a `Request` built in code
        // skips it: an unsorted or duplicated set would score another
        // set, and the cache keys a request as given.
        if let Err(e) = crate::protocol::check_pair_ids(ids) {
            return Self::err(e.code, e.message);
        }
        // Shard fast path: O(1) triangle lookups. Falls back to the
        // profile walk for global requests or ids outside the region
        // pool — both produce the same bits (asserted in tests), so
        // the answer never depends on which path ran.
        let via_shard = region
            .and_then(|r| self.shard(ep, r).ok().flatten())
            .and_then(|shard| shard.overlap.score_ids(ids));
        match via_shard.or_else(|| recipe_pairing_score_view(ep.flavor, ids)) {
            Some(score) => format!("OK {}", pair_body(score)),
            None => Self::err("bad-ids", "unknown ingredient id in set"),
        }
    }

    fn compute_zprof(&self, ep: &Epoch<'a>, region: Region) -> String {
        let shard = match self.usable_shard(ep, region) {
            Ok(s) => s,
            Err(e) => return e,
        };
        let cuisine = ep.recipes.cuisine(region);
        // n_threads = 1: the batch pool is the concurrency layer here,
        // and the analysis is bit-identical for any thread count.
        let cfg = MonteCarloConfig {
            n_recipes: self.cfg.mc_recipes,
            seed: self.cfg.seed,
            n_threads: 1,
        };
        match try_analyze_cuisine_view_observed(
            ep.flavor,
            cuisine,
            Some(&shard.overlap),
            &NullModel::ALL,
            &cfg,
            &self.metrics,
        ) {
            Ok(Some(analysis)) => format!("OK {}", zprof_body(&analysis)),
            Ok(None) => Self::err(
                "empty-region",
                format!("region {} has no pairing-bearing recipes", region.code()),
            ),
            Err(failure) => Self::err("analysis-failed", failure.to_string()),
        }
    }

    fn compute_topk(&self, ep: &Epoch<'a>, region: Region, k: usize) -> String {
        // The parser bounds k, but a `Request` built in code skips it.
        if let Err(e) = crate::protocol::check_topk_k(k) {
            return Self::err(e.code, e.message);
        }
        let shard = match self.usable_shard(ep, region) {
            Ok(s) => s,
            Err(e) => return e,
        };
        let candidates = shard.candidates.get_or_init(|| {
            let cooc = ep.cooc.get_or_init(|| CoocTriangle::build(ep.recipes));
            novel_pairings(&shard.overlap, cooc, MAX_TOPK)
        });
        let mut rows = Vec::with_capacity(k.min(candidates.len()));
        for c in candidates.iter().take(k) {
            let name = |local: u32| {
                ep.flavor
                    .ingredient_name(shard.overlap.pool()[local as usize])
                    .unwrap_or("?")
                    .to_string()
            };
            rows.push(TopPairing {
                novelty: c.novelty,
                overlap: c.overlap,
                cooc: u64::from(c.cooc),
                a: name(c.i),
                b: name(c.j),
            });
        }
        format!("OK {}", topk_body(shard.region, &rows))
    }

    fn compute_score(&self, ep: &Epoch<'a>, region: Region, lines: &[String]) -> String {
        let ctx = ep.score_ctx.get_or_init(|| {
            let db = match ep.flavor {
                FlavorViewRef::Owned(db) => ScoreDb::Borrowed(db),
                FlavorViewRef::Artifact(b) => match b.to_flavor_db() {
                    Ok(db) => ScoreDb::Owned(Box::new(db)),
                    Err(_) => return None,
                },
            };
            let importer = Importer::from_flavor_db(db.get());
            Some(ScoreCtx { db, importer })
        });
        let Some(ctx) = ctx else {
            return Self::err("score-unavailable", "flavor database unreadable");
        };
        let db = ctx.db.get();
        let (ids, resolved_lines) = resolve_score_lines(&ctx.importer, db, lines);
        // Resolved ids come from the live database, so the score exists
        // by construction — but a mismatched view must degrade to an
        // error reply, not take the connection thread down.
        let Some(score) = recipe_pairing_score_view(ep.flavor, &ids) else {
            return Self::err("score-unavailable", "resolved ids missing from flavor data");
        };
        let vs = self
            .shard(ep, region)
            .ok()
            .flatten()
            .and_then(|shard| Self::shard_mean(ep, &shard));
        let mut body = format!(
            "OK {}",
            score_body(resolved_lines, lines.len(), ids.len(), score)
        );
        match vs {
            Some(mean) => body.push_str(&format!(" vs={}", crate::protocol::f64_field(mean))),
            None => body.push_str(" vs=-"),
        }
        body
    }

    /// The cuisine's observed mean ⟨N_s⟩, computed once per shard.
    fn shard_mean(ep: &Epoch<'a>, shard: &RegionShard) -> Option<f64> {
        *shard.mean.get_or_init(|| {
            let cuisine = ep.recipes.cuisine(shard.region);
            shard.overlap.mean_cuisine_score_view(&cuisine)
        })
    }

    /// Serve one framed connection until EOF, `QUIT`, or an I/O error.
    /// Equivalent to [`Server::serve_connection_with`] with a shutdown
    /// flag that never fires.
    pub fn serve_connection<R, W>(&self, reader: R, writer: W) -> io::Result<ConnStats>
    where
        R: Read,
        W: Write + Send,
    {
        self.serve_connection_with(reader, writer, &ShutdownFlag::new())
    }

    /// Serve one framed connection until EOF, `QUIT`, an I/O error, a
    /// deadline, or shutdown.
    ///
    /// The calling thread reads and parses frames, answers protocol
    /// errors and shed requests inline, and feeds the bounded queue; a
    /// scoped batcher thread drains the queue into
    /// [`Server::handle_batch`] and writes the responses. Both sides
    /// share the writer under a mutex, so responses interleave at
    /// frame granularity and correlate by request id, not by order.
    ///
    /// Deadline semantics (active only on streams armed by
    /// [`crate::deadline::arm`]): an **idle** timeout or the `shutdown`
    /// flag closes the connection cleanly after draining accepted
    /// requests; a **mid-frame** timeout sheds the client with a framed
    /// `ERR read-timeout` first; a write failure (including a
    /// `SO_SNDTIMEO` expiry against a non-draining client) marks the
    /// connection dead so the reader stops on its next tick.
    pub fn serve_connection_with<R, W>(
        &self,
        reader: R,
        writer: W,
        shutdown: &ShutdownFlag,
    ) -> io::Result<ConnStats>
    where
        R: Read,
        W: Write + Send,
    {
        self.active_conns.fetch_add(1, Ordering::SeqCst);
        self.obs
            .conns
            .set(self.active_conns.load(Ordering::SeqCst) as i64);
        let result = self.serve_connection_inner(reader, writer, shutdown);
        self.active_conns.fetch_sub(1, Ordering::SeqCst);
        self.obs
            .conns
            .set(self.active_conns.load(Ordering::SeqCst) as i64);
        result
    }

    fn serve_connection_inner<R, W>(
        &self,
        reader: R,
        writer: W,
        shutdown: &ShutdownFlag,
    ) -> io::Result<ConnStats>
    where
        R: Read,
        W: Write + Send,
    {
        let writer = Mutex::new(BufWriter::new(writer));
        let queue: BoundedQueue<(u64, Request)> = BoundedQueue::new(self.cfg.max_queue);
        let served = AtomicU64::new(0);
        let shed = AtomicU64::new(0);
        let proto_errors = AtomicU64::new(0);
        // Tripped by the batcher on a write failure: the reply path is
        // gone, so the reader must stop accepting work.
        let dead = AtomicBool::new(false);
        // Per-connection write sequence, shared by both writer sides —
        // the `serve.write` fault probe's index.
        let write_seq = AtomicU64::new(0);
        let mut reader = DeadlineReader::new(reader, &self.cfg, shutdown, &dead);

        // The one writer of both sides: one probe index, one lock and
        // one flush per call.
        let write_payloads = |payloads: &[String]| -> io::Result<()> {
            fault::probe(
                "serve.write",
                write_seq.fetch_add(1, Ordering::Relaxed) as usize,
            )
            .map_err(io::Error::other)?;
            let mut w = lock_unpoisoned(&writer);
            for payload in payloads {
                write_frame(&mut *w, payload.as_bytes())?;
            }
            w.flush()
        };

        let result: io::Result<()> = std::thread::scope(|scope| {
            let batcher = scope.spawn(|| -> io::Result<()> {
                let mut batch: Vec<(u64, Request)> = Vec::new();
                while queue.drain_batch(self.cfg.batch_max, &mut batch) {
                    self.obs.queue_depth.set(queue.depth() as i64);
                    let payloads = self.handle_batch(&batch);
                    served.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    if let Err(e) = write_payloads(&payloads) {
                        dead.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                    batch.clear();
                }
                Ok(())
            });

            let read_result: io::Result<()> = loop {
                reader.begin_frame();
                match read_frame(&mut reader, MAX_FRAME) {
                    Ok(None) => break Ok(()),
                    Ok(Some(payload)) => match parse_request(&payload) {
                        Ok((id, req)) => {
                            let quit = matches!(req, Request::Quit);
                            match queue.push((id, req)) {
                                Push::Accepted(depth) => {
                                    self.obs.queue_depth.set(depth as i64);
                                }
                                Push::Shed(depth) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                    self.obs.busy.add(1);
                                    if let Err(e) = write_payloads(&[encode_busy(id, depth)]) {
                                        break Err(e);
                                    }
                                }
                            }
                            if quit {
                                break Ok(());
                            }
                        }
                        Err((id, e)) => {
                            proto_errors.fetch_add(1, Ordering::Relaxed);
                            if let Err(e) = write_payloads(&[encode_err(id, &e)]) {
                                break Err(e);
                            }
                        }
                    },
                    Err(FrameError::Io(e)) => match reader.class() {
                        // A quiet client or an operator shutdown: close
                        // cleanly. Everything fully sent was already
                        // read and queued (a deadline tick only fires
                        // on an empty kernel buffer), so accepted work
                        // still gets its replies below.
                        Some(TimeoutClass::Shutdown) => break Ok(()),
                        Some(TimeoutClass::Idle) => {
                            self.obs.timeouts.add(1);
                            break Ok(());
                        }
                        // A stalled mid-frame client: shed it with a
                        // framed error so it can tell a deadline from a
                        // crash, then close.
                        Some(TimeoutClass::MidFrame) => {
                            self.obs.timeouts.add(1);
                            proto_errors.fetch_add(1, Ordering::Relaxed);
                            let e = ProtoError::new(
                                "read-timeout",
                                "frame not completed within the read deadline",
                            );
                            let _ = write_payloads(&[encode_err(0, &e)]);
                            break Ok(());
                        }
                        None => break Err(e),
                    },
                    Err(frame_err) => {
                        // Truncated / oversized: reply once, then stop —
                        // the byte stream is no longer trustworthy.
                        proto_errors.fetch_add(1, Ordering::Relaxed);
                        let e = ProtoError::new("bad-frame", frame_err.to_string());
                        let _ = write_payloads(&[encode_err(0, &e)]);
                        break Ok(());
                    }
                }
            };
            // Let the batcher run down everything already accepted.
            queue.close();
            let batch_result = batcher
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("batcher thread panicked")));
            read_result.and(batch_result)
        });
        result?;

        Ok(ConnStats {
            served: served.load(Ordering::Relaxed),
            shed: shed.load(Ordering::Relaxed),
            protocol_errors: proto_errors.load(Ordering::Relaxed),
        })
    }
}
