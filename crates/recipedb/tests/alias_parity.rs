//! The trie resolver against the frozen legacy matcher on the curated
//! lexicon that the importer resolves with.
//!
//! `crates/text/tests/properties.rs` draws random lexicons and phrases;
//! this test fixes the lexicon the pipeline actually uses
//! (`curated_db()`: every canonical name and synonym) and a fixed-seed
//! pool of the line shapes a scraped corpus holds: plain, pluralized,
//! transposed (fuzzy-matchable) and junk-laced forms of every term
//! under quantity and preparation templates, plus pure-noise lines.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use culinaria_flavordb::curated::curated_db;
use culinaria_flavordb::FlavorDb;
use culinaria_text::alias::{AliasResolver, ResolveScratch};
use culinaria_text::legacy::LegacyAliasResolver;

/// Naive pluralizer: the resolver's singularizer must undo these.
fn pluralize(name: &str) -> String {
    if name.ends_with('o') || name.ends_with("ch") || name.ends_with('x') {
        format!("{name}es")
    } else if name.ends_with('s') {
        name.to_owned()
    } else {
        format!("{name}s")
    }
}

/// Swap two adjacent characters at a random interior position: the
/// transposition typo the fuzzy pass must catch.
fn transpose(name: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    if chars.len() < 4 {
        return name.to_owned();
    }
    let i = rng.random_range(1..chars.len() - 2);
    chars.swap(i, i + 1);
    chars.into_iter().collect()
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

/// Every name and synonym of `db` under every template, cycling the
/// surface form (pluralized, transposed, junk-laced, plain), then as
/// many lines that hold only junk.
fn line_pool(db: &FlavorDb, rng: &mut StdRng) -> Vec<String> {
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
    for _ in 0..terms.len() {
        pool.push(format!("2 cups {} {}", junk_word(rng), junk_word(rng)));
    }
    pool
}

#[test]
fn trie_resolver_matches_legacy_on_the_curated_lexicon() {
    let db = curated_db();
    let mut trie = AliasResolver::new();
    let mut legacy = LegacyAliasResolver::new();
    for ing in db.ingredients() {
        trie.add_canonical(&ing.name);
        legacy.add_canonical(&ing.name);
    }
    for (syn, id) in db.synonyms() {
        let target = db.ingredient(id).expect("synonym target exists");
        trie.add_synonym(syn, &target.name);
        legacy.add_synonym(syn, &target.name);
    }
    assert_eq!(trie.n_canonical(), legacy.n_canonical());
    assert_eq!(trie.n_synonyms(), legacy.n_synonyms());

    let pool = line_pool(&db, &mut StdRng::seed_from_u64(2018));
    let mut memo = ResolveScratch::new();
    let mut resolved = 0;
    // Two passes with one memo scratch: the second is served from the
    // memo and must still answer what the legacy matcher answers.
    for _ in 0..2 {
        for line in &pool {
            let expected = legacy.resolve(line);
            assert_eq!(trie.resolve(line), expected, "plain resolve on {line:?}");
            assert_eq!(
                trie.resolve_with(line, &mut memo),
                expected,
                "memoized resolve on {line:?}"
            );
            resolved += usize::from(!expected.matches.is_empty());
        }
    }
    let (hits, _) = memo.memo_stats();
    assert!(hits >= pool.len() as u64, "second pass missed the memo");
    // The pool exercises matches and pure noise both.
    assert!(resolved > 0 && resolved < 2 * pool.len());
}
