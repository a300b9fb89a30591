//! Benchmark for the zero-copy CFDB2/CRDB2 artifact format.
//!
//! * **Open time** — `artifact::open` validates the section table and
//!   hands out borrowed slices; reported, not gated.
//! * **First-query latency** — the observed mean pairing score of the
//!   largest cuisine, from a freshly opened view: once against an
//!   artifact carrying precomputed overlap-triangle sections (reused
//!   via `OverlapCache::from_parts`) and once against a bare artifact
//!   that must run the kernel build. Both answers are asserted
//!   bit-identical.
//! * **Resident bytes** — the heap an owned in-memory world needs vs
//!   the byte length of the buffers the borrowed views live on.
//! * **Parity** — `analyze_world_view` from the owned DBs vs the same
//!   engine over the borrowed views, fingerprinted over
//!   every `f64::to_bits`, asserted identical at 1/2/4/8 threads.
//!
//! Writes `BENCH_artifact.json`. Knobs: `CULINARIA_SCALE`,
//! `CULINARIA_SEED`, `CULINARIA_ARTIFACT_MC` (Monte-Carlo recipes per
//! model for the parity runs, default 2000), `CULINARIA_BENCH_OUT`.

use std::hint::black_box;
use std::time::Instant;

use culinaria_bench::{env_or, world_from_env};
use culinaria_core::{
    analyze_world_view, CuisineAnalysis, CuisineView, FlavorViewRef, MonteCarloConfig, NullModel,
    OverlapCache, RecipesViewRef,
};
use culinaria_flavordb::{artifact as flavor_artifact, AlignedBytes, FlavorArtifactBuilder};
use culinaria_obs::Metrics;
use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder};

/// Timed repeats per path; the min is reported.
const TIME_REPS: usize = 5;

/// Min-of-`TIME_REPS` per-iteration wall time in milliseconds.
fn time_min_ms<R>(iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..TIME_REPS {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e3 / iters as f64);
    }
    best
}

/// Heap bytes of the owned in-memory representation: every `String`
/// and `Vec` payload plus its 24-byte (ptr, len, cap) header, plus the
/// inline struct sizes. A content accounting, so it is what
/// materializing the owned databases must allocate regardless of
/// allocator state.
fn owned_heap_bytes(
    db: &culinaria_flavordb::FlavorDb,
    store: &culinaria_recipedb::RecipeStore,
) -> usize {
    const HDR: usize = 24;
    let mut total = 0usize;
    for m in db.molecules() {
        total += std::mem::size_of::<culinaria_flavordb::Molecule>();
        total += HDR + m.name.len();
        total += HDR + m.descriptors.iter().map(|d| HDR + d.len()).sum::<usize>();
    }
    for i in db.ingredients() {
        total += std::mem::size_of::<culinaria_flavordb::Ingredient>();
        total += HDR + i.name.len();
        total += HDR + i.profile.len() * 4;
    }
    for (syn, _) in db.synonyms() {
        total += HDR + syn.len() + 4;
    }
    for r in store.recipes() {
        total += std::mem::size_of::<culinaria_recipedb::Recipe>();
        total += HDR + r.name.len();
        total += HDR + r.ingredients().len() * 4;
    }
    for region in store.regions() {
        total += HDR + store.region_recipe_ids(region).len() * 4;
    }
    total
}

/// Fold one u64 into an FNV-style fingerprint.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0100_0000_01b3)
}

/// Bit-exact fingerprint of a world analysis: every float enters via
/// `to_bits`, so two runs agree iff they are bit-identical.
fn fingerprint(rows: &[CuisineAnalysis]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in rows {
        for b in row.region.code().bytes() {
            h = mix(h, u64::from(b));
        }
        h = mix(h, row.n_recipes as u64);
        h = mix(h, row.n_ingredients as u64);
        h = mix(h, row.observed_mean.to_bits());
        for c in &row.comparisons {
            h = mix(h, c.null.mean.to_bits());
            h = mix(h, c.null.std_dev.to_bits());
            h = mix(h, c.null.n);
            h = mix(h, c.z.map(f64::to_bits).unwrap_or(1));
        }
    }
    h
}

/// The first real query a consumer runs against a fresh view: the
/// observed mean pairing score of one cuisine. Reuses a serialized
/// overlap-triangle section when the artifact carries one for this
/// region, otherwise runs the kernel build.
fn first_query(flavor: FlavorViewRef<'_>, cuisine: &CuisineView<'_>) -> f64 {
    let pool = cuisine.ingredient_set();
    let cache = match flavor.overlap_section(cuisine.region().code()) {
        Some((sec_pool, tri)) if sec_pool == pool.as_slice() => {
            OverlapCache::from_parts(&pool, tri.to_vec()).expect("section triangle shape")
        }
        _ => OverlapCache::build(flavor, &pool, 0, &Metrics::disabled()).expect("overlap build"),
    };
    cache
        .mean_cuisine_score_view(cuisine)
        .expect("observed mean")
}

fn main() {
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let mc_recipes: usize = env_or("CULINARIA_ARTIFACT_MC", 2_000);
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_artifact.json".to_string());

    let world = world_from_env();

    // ---- serialize ------------------------------------------------
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    let mut n_sections = 0usize;
    for region in world.recipes.regions() {
        let cuisine = world.recipes.cuisine(region);
        let cache = OverlapCache::for_cuisine(&world.flavor, &cuisine);
        if cache.pool().is_empty() {
            continue;
        }
        builder
            .add_overlap(region.code(), cache.pool(), cache.tri())
            .expect("overlap section");
        n_sections += 1;
    }
    let flavor_art = AlignedBytes::from_vec(builder.build().expect("flavor artifact builds"));
    let flavor_art_bare = AlignedBytes::from_vec(
        FlavorArtifactBuilder::new(&world.flavor)
            .build()
            .expect("bare flavor artifact builds"),
    );
    let recipe_art = AlignedBytes::from_vec(
        RecipeArtifactBuilder::new(&world.recipes)
            .build()
            .expect("recipe artifact builds"),
    );
    eprintln!(
        "serialized: {} + {} B ({} overlap sections)",
        flavor_art.as_slice().len(),
        recipe_art.as_slice().len(),
        n_sections,
    );

    // ---- open time: validate-and-borrow, both databases -----------
    let open_ms = time_min_ms(64, || {
        let db = flavor_artifact::open(flavor_art.as_slice()).expect("artifact opens");
        let store = recipe_artifact::open(recipe_art.as_slice()).expect("artifact opens");
        (db.n_ingredients(), store.n_recipes())
    });
    eprintln!("open: borrow {open_ms:.4} ms");

    // ---- first-query latency: section reuse vs kernel build -------
    let fview = flavor_artifact::open(flavor_art.as_slice()).expect("artifact opens");
    let fview_bare = flavor_artifact::open(flavor_art_bare.as_slice()).expect("artifact opens");
    let rview = recipe_artifact::open(recipe_art.as_slice()).expect("artifact opens");
    let largest = rview
        .regions()
        .into_iter()
        .max_by_key(|r| rview.n_region_recipes(*r))
        .expect("non-empty world");
    let cuisine = CuisineView::from(rview.cuisine(largest));
    let with_sections = first_query(FlavorViewRef::Artifact(&fview), &cuisine);
    let without_sections = first_query(FlavorViewRef::Artifact(&fview_bare), &cuisine);
    assert_eq!(
        with_sections.to_bits(),
        without_sections.to_bits(),
        "section-reused mean must be bit-identical to the kernel build"
    );
    let reuse_ms = time_min_ms(3, || first_query(FlavorViewRef::Artifact(&fview), &cuisine));
    let build_ms = time_min_ms(3, || {
        first_query(FlavorViewRef::Artifact(&fview_bare), &cuisine)
    });
    eprintln!(
        "first query ({}): section reuse {reuse_ms:.3} ms, kernel build {build_ms:.3} ms",
        largest.code()
    );

    // ---- resident bytes -------------------------------------------
    // Owned: what the materialized databases hold on the heap (content
    // accounting). Borrowed: the artifact buffers ARE the resident
    // set; opening a view allocates nothing.
    let owned_resident = owned_heap_bytes(&world.flavor, &world.recipes);
    let borrowed_bytes = flavor_art.as_slice().len() + recipe_art.as_slice().len();
    let bare_bytes = flavor_art_bare.as_slice().len() + recipe_art.as_slice().len();
    eprintln!(
        "resident: owned heap {owned_resident} B, borrowed buffers {borrowed_bytes} B \
         ({bare_bytes} B without overlap sections)"
    );

    // ---- parity: owned vs borrowed world analysis, 1/2/4/8 threads
    let models = NullModel::ALL;
    let mut parity_rows = Vec::new();
    let mut prints = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let cfg = MonteCarloConfig {
            n_recipes: mc_recipes,
            seed,
            n_threads: threads,
        };
        let owned = analyze_world_view(&world.flavor, &world.recipes, &models, &cfg);
        let viewed = analyze_world_view(
            FlavorViewRef::Artifact(&fview),
            RecipesViewRef::Artifact(&rview),
            &models,
            &cfg,
        );
        let fp_owned = fingerprint(&owned);
        let fp_view = fingerprint(&viewed);
        assert_eq!(
            fp_owned, fp_view,
            "owned vs borrowed analyze_world_view diverged at {threads} threads"
        );
        eprintln!("parity: {threads} threads, fingerprint {fp_owned:016x} (owned == borrowed)");
        prints.push(fp_owned);
        parity_rows.push(format!(
            "    {{ \"threads\": {threads}, \"fingerprint\": \"{fp_owned:016x}\", \
             \"owned_equals_borrowed\": true }}"
        ));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "world analysis fingerprint must not depend on thread count"
    );

    let json = format!(
        "{{\n  \"bench\": \"artifact_open\",\n  \"seed\": {seed},\n  \
         \"time_reps\": {TIME_REPS},\n  \"mc_recipes\": {mc_recipes},\n  \
         \"v2_bytes\": {borrowed_bytes},\n  \
         \"overlap_sections\": {n_sections},\n  \
         \"borrowed_open_ms\": {open_ms:.5},\n  \
         \"first_query_section_reuse_ms\": {reuse_ms:.4},\n  \
         \"first_query_kernel_build_ms\": {build_ms:.4},\n  \
         \"first_query_parity\": \"bit-identical\",\n  \
         \"owned_resident_bytes\": {owned_resident},\n  \
         \"borrowed_resident_bytes\": {borrowed_bytes},\n  \
         \"borrowed_resident_bytes_no_sections\": {bare_bytes},\n  \
         \"world_parity\": [\n{rows}\n  ]\n}}\n",
        rows = parity_rows.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
