//! Performance harness for the ingredient-aliasing hot path.
//!
//! Times the interned-token trie resolver (`culinaria_text::alias`)
//! against the frozen string-join matcher (`culinaria_text::legacy`) on
//! a synthetic ingredient-line corpus built from the curated flavor
//! database, and the parallel batch importer against the serial one.
//! Writes a machine-readable summary to `BENCH_alias.json`.
//!
//! Every corpus line is resolved by both engines in an untimed sweep
//! and the `Resolution`s asserted byte-identical, and the batch
//! importer is asserted bit-identical to the serial importer at 1, 2,
//! and 8 threads — the speedup carries no behavior drift by
//! construction. Import timings take the min of interleaved repeats,
//! since on a 1-core box the adaptive importer and the serial path
//! run identical code and a single-shot ratio is timer noise.
//!
//! Knobs: `CULINARIA_ALIAS_LINES` (default 200000), `CULINARIA_SEED`
//! (default 2018), `CULINARIA_THREADS` (default 0 = available
//! parallelism), `CULINARIA_BENCH_OUT` (default `BENCH_alias.json`).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use culinaria_bench::env_or;
use culinaria_flavordb::curated::curated_db;
use culinaria_flavordb::FlavorDb;
use culinaria_recipedb::import::{Importer, RawRecipe};
use culinaria_recipedb::{RecipeStore, Region, Source};
use culinaria_stats::pool;
use culinaria_text::alias::{AliasResolver, ResolveScratch};
use culinaria_text::legacy::LegacyAliasResolver;

/// Naive pluralizer for corpus synthesis (the resolver's singularizer
/// must undo these, which is part of what's being exercised).
fn pluralize(name: &str) -> String {
    if name.ends_with('o') || name.ends_with("ch") || name.ends_with('x') {
        format!("{name}es")
    } else if name.ends_with('s') {
        name.to_owned()
    } else {
        format!("{name}s")
    }
}

/// Swap two adjacent characters at a random interior position — the
/// classic transposition typo the fuzzy pass must catch.
fn transpose(name: &str, rng: &mut StdRng) -> String {
    let chars: Vec<char> = name.chars().collect();
    if chars.len() < 4 {
        return name.to_owned();
    }
    let i = rng.random_range(1..chars.len() - 2);
    let mut out = chars.clone();
    out.swap(i, i + 1);
    out.into_iter().collect()
}

/// A pseudo-word of lowercase letters (unknown-token noise).
fn junk_word(rng: &mut StdRng) -> String {
    let len = rng.random_range(4..11usize);
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
        .collect()
}

const TEMPLATES: &[(&str, &str)] = &[
    ("2 cups ", ", chopped"),
    ("1 tbsp ", ""),
    ("3 ripe ", ", peeled and diced"),
    ("250g ", ", whisked until smooth"),
    ("a generous pinch of ", " to taste"),
    ("1 (15 ounce) can ", ", drained and rinsed"),
    ("freshly ground ", ""),
    ("", " for garnish"),
];

/// Build a pool of distinct synthetic ingredient lines over the
/// database's names and synonyms: plain, pluralized, transposed
/// (fuzzy-matchable), and junk-laced variants.
fn build_line_pool(db: &FlavorDb, rng: &mut StdRng) -> Vec<String> {
    let mut terms: Vec<String> = db.ingredients().map(|i| i.name.clone()).collect();
    terms.extend(db.synonyms().map(|(s, _)| s.to_owned()));
    let mut pool = Vec::new();
    for term in &terms {
        for (k, (prefix, suffix)) in TEMPLATES.iter().enumerate() {
            let surface = match k % 4 {
                0 => pluralize(term),
                1 => transpose(term, rng),
                2 => format!("{term} and {}", junk_word(rng)),
                _ => term.clone(),
            };
            pool.push(format!("{prefix}{surface}{suffix}"));
        }
    }
    // Pure-noise lines: nothing resolves, everything lands in the
    // unresolved list.
    for _ in 0..terms.len() {
        pool.push(format!("2 cups {} {}", junk_word(rng), junk_word(rng)));
    }
    pool
}

/// Zipf-ish corpus: quadratically skewed draws from the pool, so a few
/// lines repeat very often (real scraped corpora are duplicate-heavy —
/// this is what the memo cache exploits).
fn sample_corpus(pool: &[String], n_lines: usize, rng: &mut StdRng) -> Vec<String> {
    (0..n_lines)
        .map(|_| {
            let u: f64 = rng.random();
            let idx = ((u * u) * pool.len() as f64) as usize;
            pool[idx.min(pool.len() - 1)].clone()
        })
        .collect()
}

/// Group corpus lines into raw recipes of ~6 lines for import timing.
fn corpus_recipes(corpus: &[String]) -> Vec<RawRecipe> {
    corpus
        .chunks(6)
        .enumerate()
        .map(|(i, lines)| RawRecipe {
            name: format!("synthetic {i}"),
            region: Region::from_index(i % 22).expect("index < 22"),
            source: Source::from_index(i % 5).expect("index < 5"),
            ingredient_lines: lines.to_vec(),
        })
        .collect()
}

fn main() {
    let n_lines: usize = env_or("CULINARIA_ALIAS_LINES", 200_000);
    let seed: u64 = env_or("CULINARIA_SEED", 2018);
    let n_threads: usize = env_or("CULINARIA_THREADS", 0);
    let out_path: String = env_or("CULINARIA_BENCH_OUT", "BENCH_alias.json".to_string());

    let db = curated_db();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool_lines = build_line_pool(&db, &mut rng);
    let corpus = sample_corpus(&pool_lines, n_lines, &mut rng);
    eprintln!(
        "corpus: {} lines over {} distinct ({} lexicon entries)",
        corpus.len(),
        pool_lines.len(),
        db.n_ingredients()
    );

    // Both engines primed with the identical lexicon sequence.
    let mut trie = AliasResolver::new();
    let mut legacy = LegacyAliasResolver::new();
    for ing in db.ingredients() {
        trie.add_canonical(&ing.name);
        legacy.add_canonical(&ing.name);
    }
    for (syn, id) in db.synonyms() {
        if let Ok(target) = db.ingredient(id) {
            trie.add_synonym(syn, &target.name);
            legacy.add_synonym(syn, &target.name);
        }
    }

    // Untimed parity sweep: every corpus line, byte-identical output.
    eprintln!("parity sweep: trie vs legacy on full corpus");
    let mut scratch = ResolveScratch::new();
    for line in &corpus {
        let expected = legacy.resolve(line);
        let got_plain = trie.resolve(line);
        assert_eq!(
            got_plain, expected,
            "trie resolve diverged from legacy on {line:?}"
        );
        let got_memo = trie.resolve_with(line, &mut scratch);
        assert_eq!(
            got_memo, expected,
            "memoized resolve diverged from legacy on {line:?}"
        );
    }

    // Timed: legacy string-join matcher, single thread.
    let t = Instant::now();
    let mut legacy_matches = 0usize;
    for line in &corpus {
        legacy_matches += legacy.resolve(line).matches.len();
    }
    let legacy_ms = t.elapsed().as_secs_f64() * 1e3;

    // Timed: trie resolver, scratch reuse, memo disabled.
    let t = Instant::now();
    let mut scratch = ResolveScratch::with_memo_capacity(0);
    let mut trie_matches = 0usize;
    for line in &corpus {
        trie_matches += trie.resolve_with(line, &mut scratch).matches.len();
    }
    let trie_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(legacy_matches, trie_matches, "match counts diverged");

    // Timed: trie resolver with the memo cache (duplicate-heavy corpus).
    let t = Instant::now();
    let mut scratch = ResolveScratch::new();
    let mut memo_matches = 0usize;
    for line in &corpus {
        memo_matches += trie.resolve_with(line, &mut scratch).matches.len();
    }
    let memo_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        legacy_matches, memo_matches,
        "memoized match counts diverged"
    );

    let speedup_trie = legacy_ms / trie_ms;
    let speedup_memo = legacy_ms / memo_ms;
    eprintln!(
        "resolve: legacy {legacy_ms:.0} ms, trie {trie_ms:.0} ms ({speedup_trie:.2}x), \
         trie+memo {memo_ms:.0} ms ({speedup_memo:.2}x)"
    );

    // Batch import: serial vs adaptive fan-out. On a 1-core box the
    // adaptive importer resolves to the same inline path as `import`,
    // so a single-shot ratio is pure timer noise (the old harness
    // recorded a phantom 0.78x exactly that way) — take the min of
    // interleaved repeats for both sides instead.
    const IMPORT_REPS: usize = 9;
    let raws = corpus_recipes(&corpus);
    let importer = Importer::from_flavor_db(&db);
    // Each timed run builds and then drops its store: a store kept
    // alive across reps grows the heap under every later run and
    // skews the comparison (~2x on this corpus).
    let mut import_serial_ms = f64::INFINITY;
    let mut import_batch_ms = f64::INFINITY;
    let mut timed_serial_stats = None;
    let mut timed_batch_stats = None;
    for rep in 0..IMPORT_REPS {
        let t = Instant::now();
        let mut store = RecipeStore::new();
        let stats = importer
            .import(&db, &mut store, &raws)
            .expect("serial import");
        let serial_rep = t.elapsed().as_secs_f64() * 1e3;
        import_serial_ms = import_serial_ms.min(serial_rep);
        timed_serial_stats.get_or_insert(stats);
        drop(store);

        let t = Instant::now();
        let mut store = RecipeStore::new();
        let stats = importer
            .import_batch(&db, &mut store, &raws, n_threads)
            .expect("batch import");
        let batch_rep = t.elapsed().as_secs_f64() * 1e3;
        import_batch_ms = import_batch_ms.min(batch_rep);
        timed_batch_stats.get_or_insert(stats);
        drop(store);
        eprintln!("import rep {rep}: serial {serial_rep:.1} ms, batch {batch_rep:.1} ms");
    }
    let import_speedup = import_serial_ms / import_batch_ms;

    // Untimed reference runs for the cross-thread parity sweep below.
    let mut serial_store = RecipeStore::new();
    let serial_stats = importer
        .import(&db, &mut serial_store, &raws)
        .expect("serial import");
    let mut batch_store = RecipeStore::new();
    let batch_stats = importer
        .import_batch(&db, &mut batch_store, &raws, n_threads)
        .expect("batch import");
    assert_eq!(timed_serial_stats.as_ref(), Some(&serial_stats));
    assert_eq!(timed_batch_stats.as_ref(), Some(&batch_stats));
    assert_eq!(batch_stats, serial_stats, "batch import stats diverged");

    for threads in [1usize, 2, 8] {
        let mut store = RecipeStore::new();
        let stats = importer
            .import_batch(&db, &mut store, &raws, threads)
            .expect("batch import");
        assert_eq!(
            stats, serial_stats,
            "import stats diverged at {threads} threads"
        );
        assert_eq!(store.n_recipes(), serial_store.n_recipes());
        for (a, b) in store.recipes().zip(serial_store.recipes()) {
            assert_eq!(a, b, "imported recipe diverged at {threads} threads");
        }
    }
    eprintln!(
        "import: serial {import_serial_ms:.0} ms vs batch({} threads) {import_batch_ms:.0} ms \
         -> {import_speedup:.2}x; {} recipes stored",
        pool::effective_threads(n_threads),
        batch_store.n_recipes()
    );

    let lines_per_s = |ms: f64| corpus.len() as f64 / (ms / 1e3);
    let json = format!(
        "{{\n  \"bench\": \"alias_resolution\",\n  \"n_lines\": {n_lines},\n  \
         \"n_distinct_lines\": {n_distinct},\n  \"n_lexicon\": {n_lexicon},\n  \
         \"n_synonyms\": {n_synonyms},\n  \"seed\": {seed},\n  \
         \"n_threads_requested\": {n_threads},\n  \"n_threads_effective\": {eff},\n  \
         \"available_cores\": {cores},\n  \
         \"legacy_resolve_ms\": {legacy_ms:.3},\n  \
         \"trie_resolve_ms\": {trie_ms:.3},\n  \
         \"trie_memo_resolve_ms\": {memo_ms:.3},\n  \
         \"legacy_lines_per_s\": {legacy_tp:.0},\n  \
         \"trie_lines_per_s\": {trie_tp:.0},\n  \
         \"trie_memo_lines_per_s\": {memo_tp:.0},\n  \
         \"speedup_trie\": {speedup_trie:.3},\n  \
         \"speedup_trie_memo\": {speedup_memo:.3},\n  \
         \"import_serial_ms\": {import_serial_ms:.3},\n  \
         \"import_batch_ms\": {import_batch_ms:.3},\n  \
         \"import_speedup\": {import_speedup:.3},\n  \
         \"import_mode\": \"{import_mode}\",\n  \
         \"import_reps\": {IMPORT_REPS},\n  \
         \"parity\": \"byte-identical\"\n}}\n",
        import_mode = batch_stats.mode,
        n_distinct = pool_lines.len(),
        n_lexicon = trie.n_canonical(),
        n_synonyms = trie.n_synonyms(),
        eff = pool::effective_threads(n_threads),
        cores = std::thread::available_parallelism().map_or(1, |n| n.get()),
        legacy_tp = lines_per_s(legacy_ms),
        trie_tp = lines_per_s(trie_ms),
        memo_tp = lines_per_s(memo_ms),
    );
    std::fs::write(&out_path, &json).expect("write bench summary");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
