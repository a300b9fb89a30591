//! Fixtures shared by the import-log suites (`streaming_replay.rs`,
//! `wal_segments.rs`): the curated database and importer, a seeded raw
//! recipe stream with deliberate failures, per-process scratch
//! directories, and the cold batch import every replay is held to.

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use culinaria::flavordb::curated::curated_db;
use culinaria::flavordb::FlavorDb;
use culinaria::recipedb::import::{Importer, RawRecipe};
use culinaria::recipedb::{io, ImportStats, RecipeStore, Region, Source};

pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

pub fn fixture() -> &'static (FlavorDb, Importer) {
    static FIXTURE: OnceLock<(FlavorDb, Importer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        (db, importer)
    })
}

/// A deterministic batch of `n` raw recipes over the curated lexicon.
/// Every 17th recipe has no ingredient lines and every 23rd resolves
/// nothing — both fail import, so the log always carries tombstones,
/// through the crash windows too.
pub fn seeded_raws(n: usize) -> Vec<RawRecipe> {
    let (db, _) = fixture();
    let names: Vec<String> = db.ingredients().map(|ing| ing.name.clone()).collect();
    assert!(names.len() > 20, "curated db unexpectedly small");
    (0..n)
        .map(|i| {
            let region = Region::ALL[i % Region::ALL.len()];
            if i % 17 == 5 {
                return RawRecipe {
                    name: format!("empty {i}"),
                    region,
                    source: Source::Synthetic,
                    ingredient_lines: Vec::new(),
                };
            }
            if i % 23 == 7 {
                return RawRecipe {
                    name: format!("gibberish {i}"),
                    region,
                    source: Source::Synthetic,
                    ingredient_lines: vec!["xqzzt unobtainium".into()],
                };
            }
            let k = 2 + i % 5;
            let lines = (0..k)
                .map(|j| names[(i * 7 + j * 13 + 1) % names.len()].clone())
                .collect();
            RawRecipe {
                name: format!("recipe {i}"),
                region,
                source: Source::Epicurious,
                ingredient_lines: lines,
            }
        })
        .collect()
}

/// A fresh (emptied) directory under the system temp dir, unique to
/// this test process and `name`.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("culinaria-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Cold batch import of `raws[..n]` — the reference every replayed or
/// recovered prefix must match bit-for-bit: snapshot bytes and stats.
pub fn cold_reference(n: usize, raws: &[RawRecipe]) -> (Vec<u8>, ImportStats) {
    let (db, importer) = fixture();
    let mut store = RecipeStore::new();
    let stats = importer
        .import_batch(db, &mut store, &raws[..n], 1)
        .expect("cold import");
    (
        io::to_snapshot(&store).expect("cold snapshot").to_vec(),
        stats,
    )
}
