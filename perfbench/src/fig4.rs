//! `fig4-paper`: the paper's Fig-4 Z-table at Table-1 scale.
//!
//! Generate the world, build and open the CFDB2/CRDB2 artifacts (no
//! precomputed overlap sections, so the overlap build is part of every
//! table), then compute the table with `analyze_world_view` at the
//! machine's thread count for as long as the run lasts. The operation is
//! one whole table: 22 regions x 4 null models x 100,000 null recipes.

use std::time::Instant;

use culinaria_core::z_analysis::try_analyze_world_view_observed;
use culinaria_core::{
    analyze_world_view, CuisineAnalysis, FlavorViewRef, MonteCarloConfig, NullModel, RecipesViewRef,
};
use culinaria_datagen::{generate_world, World, WorldConfig};
use culinaria_flavordb::{artifact as flavor_artifact, AlignedBytes, FlavorArtifactBuilder};
use culinaria_obs::Metrics;
use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder};

use crate::report::{Outcome, Values};
use crate::stats::median;
use crate::sys::{self, Stopwatch};
use crate::trace::Tracer;
use crate::RunCfg;

/// The world, its artifacts, and what building them cost.
pub struct Built {
    pub world: World,
    pub fbuf: AlignedBytes,
    pub rbuf: AlignedBytes,
    pub generate_ms: f64,
    pub flavor_build_ms: f64,
    pub recipe_build_ms: f64,
}

fn world_config(cfg: &RunCfg) -> WorldConfig {
    let mut w = WorldConfig::paper();
    w.seed = cfg.seed;
    if cfg.smoke {
        w.recipe_scale = 0.01;
    }
    w
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generate the world and build its artifacts. `with_overlap` adds one
/// precomputed overlap section per region, as a serving deployment's
/// artifacts carry.
pub fn build(cfg: &RunCfg, with_overlap: bool) -> Built {
    let t = Instant::now();
    let world = generate_world(&world_config(cfg));
    let generate_ms = ms_since(t);

    let t = Instant::now();
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    if with_overlap {
        for region in world.recipes.regions() {
            let cache = culinaria_core::OverlapCache::for_cuisine(
                &world.flavor,
                &world.recipes.cuisine(region),
            );
            if !cache.pool().is_empty() {
                builder
                    .add_overlap(region.code(), cache.pool(), cache.tri())
                    .expect("overlap section of a live cuisine");
            }
        }
    }
    let fbuf = AlignedBytes::from_vec(builder.build().expect("flavor artifact"));
    let flavor_build_ms = ms_since(t);

    let t = Instant::now();
    let rbuf = AlignedBytes::from_vec(
        RecipeArtifactBuilder::new(&world.recipes)
            .build()
            .expect("recipe artifact"),
    );
    let recipe_build_ms = ms_since(t);
    Built {
        world,
        fbuf,
        rbuf,
        generate_ms,
        flavor_build_ms,
        recipe_build_ms,
    }
}

impl Built {
    pub fn record_setup(&self, open_ms: f64, values: &mut Values) {
        values.set("datagen.generate_ms", self.generate_ms);
        values.set("flavordb.artifact.build_ms", self.flavor_build_ms);
        values.set("recipedb.artifact.build_ms", self.recipe_build_ms);
        values.set("artifact.open_ms", open_ms);
        values.set(
            "artifact.bytes",
            (self.fbuf.as_slice().len() + self.rbuf.as_slice().len()) as f64,
        );
    }
}

/// Every number of a Z-table, as bits, for exact comparison.
fn table_bits(table: &[CuisineAnalysis]) -> Vec<u64> {
    let mut bits = Vec::new();
    for a in table {
        bits.push(a.region.index() as u64);
        bits.push(a.observed_mean.to_bits());
        for c in &a.comparisons {
            bits.push(c.null.mean.to_bits());
            bits.push(c.null.std_dev.to_bits());
            bits.push(c.z.map_or(u64::MAX, f64::to_bits));
        }
    }
    bits
}

fn sign_agreement(table: &[CuisineAnalysis]) -> usize {
    table
        .iter()
        .filter(|a| (a.z_random().unwrap_or(0.0) > 0.0) == a.region.paper_positive_pairing())
        .count()
}

pub fn run(cfg: &RunCfg, tracer: &Tracer) -> Outcome {
    let mut values = Values::default();
    let set_up = || {
        let t = Instant::now();
        let built = build(cfg, false);
        let t_open = Instant::now();
        let fview = flavor_artifact::open(built.fbuf.as_slice()).expect("open CFDB2");
        let rview = recipe_artifact::open(built.rbuf.as_slice()).expect("open CRDB2");
        std::hint::black_box((&fview, &rview));
        let open_ms = ms_since(t_open);
        (built, open_ms, t.elapsed().as_secs_f64())
    };
    let (built, open_ms, setup_s) = set_up();
    built.record_setup(open_ms, &mut values);

    let fview = flavor_artifact::open(built.fbuf.as_slice()).expect("open CFDB2");
    let rview = recipe_artifact::open(built.rbuf.as_slice()).expect("open CRDB2");
    let flavor = FlavorViewRef::Artifact(&fview);
    let recipes = RecipesViewRef::Artifact(&rview);
    let mc = MonteCarloConfig {
        n_recipes: if cfg.smoke { 2_000 } else { 100_000 },
        seed: cfg.seed,
        n_threads: 0,
    };

    let mut correct = true;
    let mut reference: Option<Vec<u64>> = None;
    let mut check = |table: &[CuisineAnalysis], what: &str| {
        let bits = table_bits(table);
        match &reference {
            None => {
                let agree = sign_agreement(table);
                eprintln!("fig4: sign agreement with the paper {agree}/22");
                // A 1%-scale world is too small to hold the paper's signs.
                if table.len() != 22 || (!cfg.smoke && agree != 22) {
                    eprintln!(
                        "error: fig4 table has {} rows, {agree}/22 signs",
                        table.len()
                    );
                    correct = false;
                }
                reference = Some(bits);
            }
            Some(r) if *r != bits => {
                eprintln!("error: fig4 table of {what} differs from the first table");
                correct = false;
            }
            Some(_) => {}
        }
    };

    // Untraced tables for the whole run, or its first half when traced,
    // alternating the machine's thread count with one thread so that
    // both see the same drift in machine speed.
    let budget = if cfg.traced {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let one_thread = MonteCarloConfig { n_threads: 1, ..mc };
    let clock = Stopwatch::start();
    let (mut walls_ms, mut walls_1t_ms) = (Vec::new(), Vec::new());
    while walls_1t_ms.is_empty() || clock.wall_s() < budget {
        let t = Instant::now();
        let table = analyze_world_view(flavor, recipes, &NullModel::ALL, &mc);
        walls_ms.push(ms_since(t));
        check(&table, "a repeat");
        let t = Instant::now();
        let table = analyze_world_view(flavor, recipes, &NullModel::ALL, &one_thread);
        walls_1t_ms.push(ms_since(t));
        check(&table, "one thread");
    }
    let mut attempted = (walls_ms.len() + walls_1t_ms.len()) as u64;
    let cpu_per_table = clock.cpu_ms() / attempted as f64;
    let p50 = median(&walls_ms).expect("tables timed");
    let p50_1t = median(&walls_1t_ms).expect("tables timed");
    values.set("p50_ms", p50);
    // A batch table has no per-request tail; its slow case is the table
    // computed with a single free core.
    values.set("tail_ms", p50_1t);
    values.set("cpu_ms_per_op", cpu_per_table);
    eprintln!(
        "fig4: {attempted} tables, p50 {p50:.1} ms, one thread {p50_1t:.1} ms, \
         cpu {cpu_per_table:.1} ms per table"
    );

    if cfg.traced {
        attempted += traced_pass(
            tracer,
            flavor,
            recipes,
            &mc,
            budget,
            p50,
            &mut values,
            &mut check,
        );
    }
    values.set("peak_rss_mb", sys::peak_rss_mb().unwrap_or(0.0));

    // The other set-ups run after the measurement, so that their heap
    // leftovers do not weigh on it or on peak_rss_mb.
    let setups = crate::setup_times(setup_s, || set_up().2);
    values.set("setup_s", median(&setups).expect("set-up times"));
    Outcome {
        correct,
        attempted,
        failed: u64::from(!correct),
        values,
    }
}

/// Tables through the observed entry point with an enabled registry and
/// a harness span per table; per-layer numbers come from the last one.
/// Returns the number of tables computed.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    tracer: &Tracer,
    flavor: FlavorViewRef<'_>,
    recipes: RecipesViewRef<'_>,
    mc: &MonteCarloConfig,
    budget: f64,
    untraced_p50: f64,
    values: &mut Values,
    check: &mut impl FnMut(&[CuisineAnalysis], &str),
) -> u64 {
    let clock = Stopwatch::start();
    let mut walls_ms = Vec::new();
    let mut last = Metrics::enabled();
    let mut group = 0u64;
    while walls_ms.is_empty() || clock.wall_s() < budget {
        group += 1;
        let metrics = Metrics::enabled();
        let t = Instant::now();
        let table = tracer.span("fig4.table", group, None, |parent| {
            tracer.span("core.analyze_world_view", group, parent, |_| {
                try_analyze_world_view_observed(flavor, recipes, &NullModel::ALL, mc, &metrics)
            })
        });
        walls_ms.push(ms_since(t));
        match table {
            Ok(table) => check(&table, "a traced repeat"),
            Err(e) => {
                check(&[], "a traced repeat");
                eprintln!("error: traced fig4 table failed: {e}");
            }
        }
        last = metrics;
    }
    let p50 = median(&walls_ms).expect("tables timed");
    values.set("trace.overhead_frac", (p50 - untraced_p50) / untraced_p50);

    let snap = last.snapshot();
    let span_ms = |name: &str| snap.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e6);
    values.set("core.pairing.overlap_build_ms", span_ms("overlap.build"));
    values.set(
        "core.pairing.overlap_cells",
        snap.counter("overlap.cells").unwrap_or(0) as f64,
    );
    values.set("core.z_analysis.prepare_ms", span_ms("world.prepare"));
    values.set("core.monte_carlo.mc_ms", span_ms("world.mc"));
    values.set("core.z_analysis.merge_ms", span_ms("world.merge"));
    if let Some(h) = snap.histogram("mc.block_us") {
        values.set("core.monte_carlo.block_us.p50", h.quantile_interp_us(0.50));
        values.set("core.monte_carlo.block_us.p99", h.quantile_interp_us(0.99));
    }
    values.set(
        "core.monte_carlo.null_recipes",
        snap.counter("mc.recipes").unwrap_or(0) as f64,
    );
    // Worker time inside claim loops over the worker time available
    // while the pool had work: the prepare (overlap builds) and MC spans.
    let busy_us = snap
        .histogram("pool.worker.busy_us")
        .map_or(0, |h| h.sum_us) as f64;
    let threads = culinaria_stats::pool::effective_threads(mc.n_threads) as f64;
    let window_us = (span_ms("world.prepare") + span_ms("world.mc")) * 1e3;
    if window_us > 0.0 {
        values.set("stats.pool.busy_frac", busy_us / (threads * window_us));
    }
    eprintln!("fig4 traced: {} tables, p50 {p50:.1} ms", walls_ms.len());
    walls_ms.len() as u64
}
