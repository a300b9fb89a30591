//! Raw recipe text over the curated lexicon: what a scraper would hand
//! the importer. Generated-world ingredient names never resolve through
//! the importer, so the ingest workload draws its lines from the curated
//! database's names and synonyms instead.

use culinaria_flavordb::FlavorDb;
use culinaria_recipedb::{Importer, RawRecipe, Region, Source};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Share of recipes made of junk lines only; the importer must log
/// exactly these as tombstones.
const PLANTED_JUNK: f64 = 0.05;

fn pluralize(name: &str) -> String {
    if name.ends_with('o') || name.ends_with("ch") || name.ends_with('x') {
        format!("{name}es")
    } else if name.ends_with('s') {
        name.to_owned()
    } else {
        format!("{name}s")
    }
}

/// Swap two adjacent interior characters: the typo the fuzzy pass must
/// catch.
fn transpose(name: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = name.chars().collect();
    if chars.len() < 4 {
        return name.to_owned();
    }
    let i = rng.random_range(1..chars.len() - 2);
    chars.swap(i, i + 1);
    chars.into_iter().collect()
}

/// A vowel-free pseudo-word: no curated name is within one edit of it,
/// so it never resolves.
fn junk_word(rng: &mut StdRng) -> String {
    const LETTERS: &[u8] = b"bcdfghjklmnpqrstvwxz";
    let len = rng.random_range(8..13usize);
    (0..len)
        .map(|_| LETTERS[rng.random_range(0..LETTERS.len())] as char)
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

/// A generated raw recipe and whether it was planted as junk.
#[derive(Debug, Clone)]
pub struct Planted {
    pub raw: RawRecipe,
    pub junk: bool,
}

/// Seeded raw recipes over `db`'s lexicon. Ordinary recipes open with a
/// bare canonical name that `importer` resolves on its own, so each
/// resolves at least one line; the rest of their lines are plural,
/// misspelt, junk-laced or plain variants drawn with a skew towards a
/// few popular lines. A [`PLANTED_JUNK`] share holds junk lines only.
pub fn raw_recipes(
    db: &FlavorDb,
    importer: &Importer,
    n: usize,
    seed: u64,
    label: &str,
) -> Vec<Planted> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51c0_ffee_d00d_2018);
    let names: Vec<String> = db.ingredients().map(|i| i.name.clone()).collect();
    // A few canonical names ("oats") do not resolve as a line of their
    // own; they never open a recipe.
    let openers: Vec<&String> = names
        .iter()
        .filter(|name| !importer.resolve_line(db, name).0.is_empty())
        .collect();
    let mut terms = names.clone();
    terms.extend(db.synonyms().map(|(s, _)| s.to_owned()));
    let mut pool = Vec::with_capacity(terms.len() * TEMPLATES.len());
    for term in &terms {
        for (k, (prefix, suffix)) in TEMPLATES.iter().enumerate() {
            let surface = match k % 4 {
                0 => pluralize(term),
                1 => transpose(term, &mut rng),
                2 => format!("{term} and {}", junk_word(&mut rng)),
                _ => term.clone(),
            };
            pool.push(format!("{prefix}{surface}{suffix}"));
        }
    }
    (0..n)
        .map(|i| {
            let junk = rng.random::<f64>() < PLANTED_JUNK;
            let n_lines = rng.random_range(4..10usize);
            let ingredient_lines = if junk {
                (0..n_lines)
                    .map(|_| format!("2 cups {} {}", junk_word(&mut rng), junk_word(&mut rng)))
                    .collect()
            } else {
                let mut lines = vec![openers[rng.random_range(0..openers.len())].clone()];
                lines.extend((1..n_lines).map(|_| {
                    let u: f64 = rng.random();
                    pool[((u * u) * pool.len() as f64) as usize % pool.len()].clone()
                }));
                lines
            };
            Planted {
                raw: RawRecipe {
                    name: format!("{label} {i}"),
                    region: Region::from_index(rng.random_range(0..22usize)).expect("index < 22"),
                    source: Source::from_index(rng.random_range(0..5usize)).expect("index < 5"),
                    ingredient_lines,
                },
                junk,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::curated::curated_db;
    use culinaria_recipedb::RecipeStore;

    #[test]
    fn exactly_the_planted_recipes_fail_to_import() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        // 13,000 recipes is a full ingest-serve run; seed 4002 once drew
        // an opener ("oats") that does not resolve on its own.
        for seed in [1, 2018, 77, 4002] {
            let planted = raw_recipes(&db, &importer, 13_000, seed, "t");
            let raws: Vec<RawRecipe> = planted.iter().map(|p| p.raw.clone()).collect();
            let mut store = RecipeStore::new();
            let stats = importer.import(&db, &mut store, &raws).unwrap();
            let failed: Vec<usize> = stats.failures.iter().map(|f| f.index).collect();
            let junk: Vec<usize> = (0..planted.len()).filter(|&i| planted[i].junk).collect();
            assert_eq!(failed, junk, "seed {seed}");
            assert!(!junk.is_empty());
        }
    }

    #[test]
    fn same_seed_same_recipes() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let a = raw_recipes(&db, &importer, 50, 9, "x");
        let b = raw_recipes(&db, &importer, 50, 9, "x");
        assert!(a.iter().zip(&b).all(|(a, b)| a.raw == b.raw));
    }
}
