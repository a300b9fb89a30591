//! Benchmarks of the ingredient-aliasing NLP pipeline: end-to-end
//! phrase resolution (trie engine vs the frozen legacy matcher, with
//! and without scratch/memo reuse), and the individual stages
//! (normalization, singularization, edit distance).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use culinaria_flavordb::curated::curated_db;
use culinaria_recipedb::import::Importer;
use culinaria_text::alias::{AliasResolver, ResolveScratch};
use culinaria_text::edit_distance::damerau_levenshtein;
use culinaria_text::legacy::LegacyAliasResolver;
use culinaria_text::normalize::tokenize;
use culinaria_text::singularize::singularize;

const PHRASES: &[&str] = &[
    "2 jalapeno peppers, roasted and slit",
    "1 cup extra-virgin olive oil, divided",
    "3 ripe tomatoes, peeled, seeded and finely chopped",
    "250g curd, whisked until smooth",
    "a generous pinch of saffron threads soaked in warm milk",
    "1 (15 ounce) can black beans, drained and rinsed",
    "freshly ground black pepper to taste",
    "2 tablespoons coriander seeds, toasted and crushed",
];

fn bench_resolution(c: &mut Criterion) {
    let db = curated_db();
    let importer = Importer::from_flavor_db(&db);
    let mut resolver = AliasResolver::new();
    let mut legacy = LegacyAliasResolver::new();
    for ing in db.ingredients() {
        resolver.add_canonical(&ing.name);
        legacy.add_canonical(&ing.name);
    }
    for (syn, id) in db.synonyms() {
        if let Ok(target) = db.ingredient(id) {
            resolver.add_synonym(syn, &target.name);
            legacy.add_synonym(syn, &target.name);
        }
    }

    c.bench_function("resolve_phrase_trie", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % PHRASES.len();
            black_box(resolver.resolve(PHRASES[i]))
        })
    });

    c.bench_function("resolve_phrase_trie_scratch", |b| {
        let mut scratch = ResolveScratch::with_memo_capacity(0);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % PHRASES.len();
            black_box(resolver.resolve_with(PHRASES[i], &mut scratch))
        })
    });

    c.bench_function("resolve_phrase_trie_memo", |b| {
        let mut scratch = ResolveScratch::new();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % PHRASES.len();
            black_box(resolver.resolve_with(PHRASES[i], &mut scratch))
        })
    });

    c.bench_function("resolve_phrase_legacy", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % PHRASES.len();
            black_box(legacy.resolve(PHRASES[i]))
        })
    });

    c.bench_function("import_line_to_ids", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % PHRASES.len();
            black_box(importer.resolve_line(&db, PHRASES[i]))
        })
    });

    c.bench_function("tokenize", |b| {
        b.iter(|| black_box(tokenize("3 ripe Roma tomatoes, peeled & finely chopped")))
    });

    c.bench_function("singularize", |b| {
        b.iter(|| {
            for w in [
                "tomatoes", "berries", "leaves", "peaches", "glasses", "onions",
            ] {
                black_box(singularize(w));
            }
        })
    });

    c.bench_function("damerau_levenshtein", |b| {
        b.iter(|| black_box(damerau_levenshtein("asafoetida", "asafetida")))
    });
}

criterion_group!(benches, bench_resolution);
criterion_main!(benches);
