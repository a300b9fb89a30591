#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! CRDB2: the zero-copy recipe-store artifact, and the only on-disk
//! form of a [`RecipeStore`].
//!
//! Opening it replays nothing: no recipe goes back through
//! [`RecipeStore::add_recipe`], and no index is rebuilt. The store's
//! content sits in the shapes the analysis reads: recipe records over
//! one interned string blob, a flat sorted ingredient-id column, and
//! *region-sharded recipe columns* so "give me the cuisine of Italy"
//! is a validated slice borrow instead of a filter pass.
//!
//! The physical grammar (header, canonical section table, alignment,
//! endianness) is shared with CFDB2 via
//! [`culinaria_flavordb::artifact::layout`]; see `DESIGN.md` §12.

use std::collections::HashMap;

use culinaria_flavordb::artifact::layout::{
    cast_u32s, str_span, u32_at, u64_at, ArtifactWriter, Sections, StringTable,
};
pub use culinaria_flavordb::artifact::layout::{AlignedBytes, ArtifactError};
use culinaria_flavordb::IngredientId;

use crate::error::RecipeDbError;
use crate::recipe::{RecipeId, Source};
use crate::region::Region;
use crate::store::RecipeStore;

/// Magic bytes opening every CRDB2 buffer.
pub const CRDB2_MAGIC: [u8; 8] = *b"CRDB2\x00\x00\x00";
/// Format version this module writes and reads.
pub const CRDB2_VERSION: u32 = 2;

const K_META: u32 = 1;
const K_STRINGS: u32 = 2;
const K_RECIPES: u32 = 3;
const K_INGREDIENT_IDS: u32 = 4;
const K_REGION_SHARDS: u32 = 5;
const K_REGION_RECIPES: u32 = 6;
const N_KINDS: usize = 6;

const META_BYTES: usize = 24;
const RECIPE_REC: usize = 24;
const SHARD_REC: usize = 8;
const N_REGIONS: usize = 22;

fn count_u32(n: usize, what: &str) -> Result<u32, ArtifactError> {
    u32::try_from(n).map_err(|_| ArtifactError::TooLarge(format!("{what} count {n} exceeds u32")))
}

fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reinterpret a validated `&[u32]` as ids (`repr(transparent)`).
fn as_ingredient_ids(ids: &[u32]) -> &[IngredientId] {
    // SAFETY: IngredientId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<IngredientId>(), ids.len()) }
}

/// Reinterpret a validated `&[u32]` as ids (`repr(transparent)`).
fn as_recipe_ids(ids: &[u32]) -> &[RecipeId] {
    // SAFETY: RecipeId is repr(transparent) over u32.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<RecipeId>(), ids.len()) }
}

/// Serializes a [`RecipeStore`] into a canonical CRDB2 buffer.
///
/// Deterministic: recipes are written in id order and the region
/// shards in Table-1 region order, so the same store always produces
/// a byte-identical buffer.
#[derive(Debug)]
pub struct RecipeArtifactBuilder<'a> {
    store: &'a RecipeStore,
}

impl<'a> RecipeArtifactBuilder<'a> {
    /// Start a builder over an owned store.
    pub fn new(store: &'a RecipeStore) -> RecipeArtifactBuilder<'a> {
        RecipeArtifactBuilder { store }
    }

    /// Serialize into a canonical CRDB2 buffer.
    pub fn build(&self) -> Result<Vec<u8>, ArtifactError> {
        let store = self.store;
        let n_recipes = store.n_recipes();

        let mut strings = StringTable::new();
        let mut recipes_sec = Vec::with_capacity(n_recipes * RECIPE_REC);
        let mut ids_sec = Vec::new();
        let mut n_refs = 0u32;
        for r in store.recipes() {
            let (name_off, name_len) = strings.intern(&r.name)?;
            let ing_start = n_refs;
            for id in r.ingredients() {
                push_u32s(&mut ids_sec, &[id.0]);
            }
            n_refs = count_u32(n_refs as usize + r.ingredients().len(), "ingredient ref")?;
            push_u32s(
                &mut recipes_sec,
                &[
                    name_off,
                    name_len,
                    ing_start,
                    n_refs - ing_start,
                    count_u32(r.region.index(), "region")?,
                    count_u32(r.source.index(), "source")?,
                ],
            );
        }

        let mut shards_sec = Vec::with_capacity(N_REGIONS * SHARD_REC);
        let mut col_sec = Vec::new();
        let mut cursor = 0u32;
        for region in Region::ALL {
            let ids = store.region_recipe_ids(region);
            push_u32s(
                &mut shards_sec,
                &[cursor, count_u32(ids.len(), "region shard")?],
            );
            for id in ids {
                push_u32s(&mut col_sec, &[id.0]);
            }
            cursor = count_u32(cursor as usize + ids.len(), "region shard")?;
        }

        let mut meta = Vec::with_capacity(META_BYTES);
        push_u32s(
            &mut meta,
            &[
                count_u32(n_recipes, "recipe")?,
                n_refs,
                count_u32(N_REGIONS, "region")?,
                0,
            ],
        );
        meta.extend_from_slice(&0u64.to_le_bytes());

        let mut w = ArtifactWriter::new(CRDB2_MAGIC, CRDB2_VERSION);
        w.section(K_META, meta);
        w.section(K_STRINGS, strings.into_blob());
        w.section(K_RECIPES, recipes_sec);
        w.section(K_INGREDIENT_IDS, ids_sec);
        w.section(K_REGION_SHARDS, shards_sec);
        w.section(K_REGION_RECIPES, col_sec);
        w.finish()
    }
}

/// A validated zero-copy view over a CRDB2 buffer.
#[derive(Debug, Clone, Copy)]
pub struct BorrowedRecipeDb<'a> {
    strings: &'a str,
    recipes: &'a [u8],
    ingredient_ids: &'a [IngredientId],
    shards: &'a [u8],
    region_recipes: &'a [RecipeId],
    n_recipes: usize,
}

/// Validate a CRDB2 buffer and return its zero-copy view.
///
/// Same open contract as [`culinaria_flavordb::artifact::open`]:
/// 8-byte-aligned buffer, little-endian host, every structural
/// invariant checked here once so the accessors stay panic-free.
pub fn open(buf: &[u8]) -> Result<BorrowedRecipeDb<'_>, ArtifactError> {
    let sections = Sections::parse(buf, &CRDB2_MAGIC, CRDB2_VERSION, N_KINDS)?;
    let meta = sections.bytes(K_META as usize);
    if meta.len() != META_BYTES {
        return Err(ArtifactError::Corrupt(format!(
            "META section is {} bytes, expected {META_BYTES}",
            meta.len()
        )));
    }
    let n_recipes = u32_at(meta, 0) as usize;
    let n_refs = u32_at(meta, 4) as usize;
    let n_regions = u32_at(meta, 8) as usize;
    if n_regions != N_REGIONS {
        return Err(ArtifactError::Corrupt(format!(
            "artifact declares {n_regions} regions, format defines {N_REGIONS}"
        )));
    }
    if u32_at(meta, 12) != 0 || u64_at(meta, 16) != 0 {
        return Err(ArtifactError::Corrupt(
            "META reserved field set".to_string(),
        ));
    }

    let check_len = |kind: u32, per: usize, n: usize, what: &str| -> Result<&[u8], ArtifactError> {
        let bytes = sections.bytes(kind as usize);
        let need = per
            .checked_mul(n)
            .ok_or_else(|| ArtifactError::TooLarge(format!("{what} section size overflows")))?;
        if bytes.len() != need {
            return Err(ArtifactError::Corrupt(format!(
                "{what} section is {} bytes, counts require {need}",
                bytes.len()
            )));
        }
        Ok(bytes)
    };

    let strings = std::str::from_utf8(sections.bytes(K_STRINGS as usize))
        .map_err(|e| ArtifactError::Corrupt(format!("string blob is not UTF-8: {e}")))?;
    let recipes = check_len(K_RECIPES, RECIPE_REC, n_recipes, "RECIPES")?;
    let ids_bytes = check_len(K_INGREDIENT_IDS, 4, n_refs, "INGREDIENT_IDS")?;
    let shards = check_len(K_REGION_SHARDS, SHARD_REC, N_REGIONS, "REGION_SHARDS")?;
    let col_bytes = check_len(K_REGION_RECIPES, 4, n_recipes, "REGION_RECIPES")?;

    let id_words = cast_u32s(ids_bytes)?;
    let ingredient_ids = as_ingredient_ids(id_words);
    let region_recipes = as_recipe_ids(cast_u32s(col_bytes)?);

    // Recipe records: valid name spans, canonical ingredient tiling,
    // non-empty strictly sorted ingredient runs, in-range enums. The
    // records are walked as aligned u32 words (`chunks_exact`) rather
    // than through per-field `u32_at` byte reads — this loop is the
    // bulk of open time on a full-scale store, and the word view costs
    // one bounds check per record instead of six.
    let rec_words = cast_u32s(recipes)?;
    let mut ing_cursor = 0usize;
    let mut boundary_resets = 0usize;
    for (i, rec) in rec_words.chunks_exact(RECIPE_REC / 4).enumerate() {
        str_span(strings, rec[0], rec[1])
            .ok_or_else(|| ArtifactError::Corrupt(format!("recipe {i} name span invalid")))?;
        let ing_start = rec[2] as usize;
        let ing_len = rec[3] as usize;
        let region = rec[4] as usize;
        let source = rec[5] as usize;
        if ing_start != ing_cursor {
            return Err(ArtifactError::Corrupt(format!(
                "recipe {i} ingredient run starts at {ing_start}, canonical is {ing_cursor}"
            )));
        }
        if ing_len == 0 {
            return Err(ArtifactError::Corrupt(format!(
                "recipe {i} has no ingredients"
            )));
        }
        ing_cursor += ing_len;
        if ing_cursor > n_refs {
            return Err(ArtifactError::Corrupt(format!(
                "recipe {i} ingredient run overruns INGREDIENT_IDS"
            )));
        }
        if Region::from_index(region).is_none() {
            return Err(ArtifactError::Corrupt(format!(
                "recipe {i} has region {region} (>= {N_REGIONS})"
            )));
        }
        if Source::from_index(source).is_none() {
            return Err(ArtifactError::Corrupt(format!(
                "recipe {i} has source {source} (>= {})",
                Source::ALL.len()
            )));
        }
        // Run-boundary pairs (last id of one recipe, first of the
        // next) are exempt from the sortedness rule; count the
        // descending ones so the flat scan below can tell legitimate
        // boundary resets apart from disorder inside a run.
        if ing_start > 0
            && id_words.get(ing_start - 1).copied().unwrap_or(0)
                >= id_words.get(ing_start).copied().unwrap_or(u32::MAX)
        {
            boundary_resets += 1;
        }
    }
    if ing_cursor != n_refs {
        return Err(ArtifactError::Corrupt(format!(
            "INGREDIENT_IDS has {n_refs} ids, recipes reference {ing_cursor}"
        )));
    }

    // Strictly sorted ingredient runs, checked as one flat pass: the
    // runs tile INGREDIENT_IDS exactly, so every non-ascending
    // adjacent pair must sit on a run boundary. The per-run
    // `windows(2)` walk this replaces dominated open time on a
    // full-scale store; the flat scan vectorizes. Only on a mismatch
    // (corrupt input) do we re-walk runs to name the offender.
    let non_ascending = id_words
        .windows(2)
        .map(|w| usize::from(w[0] >= w[1]))
        .sum::<usize>();
    if non_ascending != boundary_resets {
        for (i, rec) in rec_words.chunks_exact(RECIPE_REC / 4).enumerate() {
            let run = ingredient_ids
                .get(rec[2] as usize..rec[2] as usize + rec[3] as usize)
                .unwrap_or(&[]);
            if !run.windows(2).all(|w| w[0] < w[1]) {
                return Err(ArtifactError::Corrupt(format!(
                    "recipe {i} ingredient run is not strictly sorted"
                )));
            }
        }
    }

    // Region shards: canonical tiling that exactly partitions the
    // recipe id space, each shard ascending with matching regions.
    let mut cursor = 0usize;
    for (ri, region) in Region::ALL.iter().enumerate() {
        let rec = ri * SHARD_REC;
        let start = u32_at(shards, rec) as usize;
        let len = u32_at(shards, rec + 4) as usize;
        if start != cursor {
            return Err(ArtifactError::Corrupt(format!(
                "region shard {ri} starts at {start}, canonical is {cursor}"
            )));
        }
        cursor += len;
        if cursor > region_recipes.len() {
            return Err(ArtifactError::Corrupt(format!(
                "region shard {ri} overruns REGION_RECIPES"
            )));
        }
        let shard = region_recipes.get(start..start + len).unwrap_or(&[]);
        let mut prev: Option<RecipeId> = None;
        for &id in shard {
            if id.index() >= n_recipes {
                return Err(ArtifactError::Corrupt(format!(
                    "region shard {ri} references recipe {} (>= {n_recipes})",
                    id.0
                )));
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(ArtifactError::Corrupt(format!(
                    "region shard {ri} is not strictly ascending"
                )));
            }
            prev = Some(id);
            let found = rec_words
                .get(id.index() * (RECIPE_REC / 4) + 4)
                .map(|&w| w as usize)
                .unwrap_or(usize::MAX);
            if found != region.index() {
                return Err(ArtifactError::Corrupt(format!(
                    "recipe {} sits in shard {ri} but declares region {found}",
                    id.0
                )));
            }
        }
    }
    if cursor != region_recipes.len() {
        return Err(ArtifactError::Corrupt(format!(
            "REGION_RECIPES holds {} ids, shards reference {cursor}",
            region_recipes.len()
        )));
    }
    // Shards are disjoint (ascending, region-tagged) and their total
    // equals n_recipes, so together they partition the id space.

    Ok(BorrowedRecipeDb {
        strings,
        recipes,
        ingredient_ids,
        shards,
        region_recipes,
        n_recipes,
    })
}

impl<'a> BorrowedRecipeDb<'a> {
    /// Number of recipes.
    pub fn n_recipes(&self) -> usize {
        self.n_recipes
    }

    /// Name of a recipe, if the id is in range.
    pub fn recipe_name(&self, id: RecipeId) -> Option<&'a str> {
        if id.index() >= self.n_recipes {
            return None;
        }
        let rec = id.index() * RECIPE_REC;
        str_span(
            self.strings,
            u32_at(self.recipes, rec),
            u32_at(self.recipes, rec + 4),
        )
    }

    /// Region of a recipe.
    pub fn recipe_region(&self, id: RecipeId) -> Option<Region> {
        if id.index() >= self.n_recipes {
            return None;
        }
        Region::from_index(u32_at(self.recipes, id.index() * RECIPE_REC + 16) as usize)
    }

    /// Source of a recipe.
    pub fn recipe_source(&self, id: RecipeId) -> Option<Source> {
        if id.index() >= self.n_recipes {
            return None;
        }
        Source::from_index(u32_at(self.recipes, id.index() * RECIPE_REC + 20) as usize)
    }

    /// Sorted, deduplicated ingredient ids of a recipe, borrowed from
    /// the buffer.
    pub fn recipe_ingredients(&self, id: RecipeId) -> Option<&'a [IngredientId]> {
        if id.index() >= self.n_recipes {
            return None;
        }
        let rec = id.index() * RECIPE_REC;
        let start = u32_at(self.recipes, rec + 8) as usize;
        let len = u32_at(self.recipes, rec + 12) as usize;
        self.ingredient_ids.get(start..start + len)
    }

    /// Recipe ids of a region, ascending — a borrowed slice of the
    /// region-sharded column (the seek the format exists for).
    pub fn region_recipe_ids(&self, region: Region) -> &'a [RecipeId] {
        let rec = region.index() * SHARD_REC;
        let start = u32_at(self.shards, rec) as usize;
        let len = u32_at(self.shards, rec + 4) as usize;
        self.region_recipes.get(start..start + len).unwrap_or(&[])
    }

    /// Number of recipes in a region.
    pub fn n_region_recipes(&self, region: Region) -> usize {
        self.region_recipe_ids(region).len()
    }

    /// Regions with at least one recipe, in Table-1 order (mirrors
    /// [`RecipeStore::regions`]).
    pub fn regions(&self) -> Vec<Region> {
        Region::ALL
            .into_iter()
            .filter(|&r| !self.region_recipe_ids(r).is_empty())
            .collect()
    }

    /// The borrowed per-region view (mirrors [`RecipeStore::cuisine`]).
    pub fn cuisine(&self, region: Region) -> BorrowedCuisine<'a> {
        BorrowedCuisine {
            db: *self,
            region,
            ids: self.region_recipe_ids(region),
        }
    }

    /// Rebuild an owned [`RecipeStore`] equal to the one the artifact
    /// was built from: replays recipes in id order through
    /// [`RecipeStore::add_recipe`], which reassigns identical dense
    /// ids and rebuilds both indexes.
    pub fn to_recipe_store(&self) -> Result<RecipeStore, RecipeDbError> {
        let mut store = RecipeStore::new();
        store.reserve(self.n_recipes);
        for i in 0..self.n_recipes {
            let id = RecipeId(i as u32);
            let name = self
                .recipe_name(id)
                .ok_or_else(|| RecipeDbError::Snapshot(format!("recipe {i} unreadable")))?;
            let region = self
                .recipe_region(id)
                .ok_or_else(|| RecipeDbError::Snapshot(format!("recipe {i} region unreadable")))?;
            let source = self
                .recipe_source(id)
                .ok_or_else(|| RecipeDbError::Snapshot(format!("recipe {i} source unreadable")))?;
            let ingredients = self
                .recipe_ingredients(id)
                .ok_or_else(|| RecipeDbError::Snapshot(format!("recipe {i} run unreadable")))?;
            store.add_recipe(name, region, source, ingredients.to_vec())?;
        }
        Ok(store)
    }
}

/// A zero-copy cuisine: the borrowed twin of [`crate::Cuisine`], over
/// a region's sharded recipe column.
#[derive(Debug, Clone, Copy)]
pub struct BorrowedCuisine<'a> {
    db: BorrowedRecipeDb<'a>,
    region: Region,
    ids: &'a [RecipeId],
}

impl<'a> BorrowedCuisine<'a> {
    /// The region this cuisine covers.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Number of recipes.
    pub fn n_recipes(&self) -> usize {
        self.ids.len()
    }

    /// The recipe ids, ascending.
    pub fn recipe_ids(&self) -> &'a [RecipeId] {
        self.ids
    }

    /// Ingredients of the `i`-th recipe of the cuisine (same order as
    /// [`crate::Cuisine::recipes`] on the owned store).
    pub fn ingredients_of(&self, i: usize) -> &'a [IngredientId] {
        self.ids
            .get(i)
            .and_then(|&id| self.db.recipe_ingredients(id))
            .unwrap_or(&[])
    }

    /// The distinct ingredients used across the cuisine, sorted
    /// (identical to [`crate::Cuisine::ingredient_set`]).
    pub fn ingredient_set(&self) -> Vec<IngredientId> {
        let mut all: Vec<IngredientId> = Vec::new();
        for i in 0..self.ids.len() {
            all.extend_from_slice(self.ingredients_of(i));
        }
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Per-ingredient recipe counts (identical to
    /// [`crate::Cuisine::frequencies`]).
    pub fn frequencies(&self) -> HashMap<IngredientId, u64> {
        let mut freq = HashMap::new();
        for i in 0..self.ids.len() {
            for &id in self.ingredients_of(i) {
                *freq.entry(id).or_insert(0) += 1;
            }
        }
        freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> RecipeStore {
        let mut store = RecipeStore::new();
        let r = |ids: &[u32]| ids.iter().map(|&i| IngredientId(i)).collect::<Vec<_>>();
        store
            .add_recipe("pasta", Region::Italy, Source::Epicurious, r(&[0, 1, 2]))
            .expect("adds");
        store
            .add_recipe("miso soup", Region::Japan, Source::AllRecipes, r(&[3, 4]))
            .expect("adds");
        store
            .add_recipe("pizza", Region::Italy, Source::TarlaDalal, r(&[0, 2, 5]))
            .expect("adds");
        store
            .add_recipe("ramen", Region::Japan, Source::Epicurious, r(&[1, 3, 4]))
            .expect("adds");
        store
    }

    fn build(store: &RecipeStore) -> Vec<u8> {
        RecipeArtifactBuilder::new(store).build().expect("builds")
    }

    #[test]
    fn borrowed_view_matches_owned_store() {
        let store = sample_store();
        let buf = AlignedBytes::from_vec(build(&store));
        let view = open(buf.as_slice()).expect("opens");
        assert_eq!(view.n_recipes(), store.n_recipes());
        for r in store.recipes() {
            assert_eq!(view.recipe_name(r.id), Some(r.name.as_str()));
            assert_eq!(view.recipe_region(r.id), Some(r.region));
            assert_eq!(view.recipe_source(r.id), Some(r.source));
            assert_eq!(view.recipe_ingredients(r.id), Some(r.ingredients()));
        }
        assert_eq!(view.regions(), store.regions());
        for region in Region::ALL {
            assert_eq!(
                view.region_recipe_ids(region),
                store.region_recipe_ids(region),
                "{region:?}"
            );
        }
    }

    #[test]
    fn borrowed_cuisine_matches_owned_cuisine() {
        let store = sample_store();
        let buf = AlignedBytes::from_vec(build(&store));
        let view = open(buf.as_slice()).expect("opens");
        for region in [Region::Italy, Region::Japan] {
            let owned = store.cuisine(region);
            let borrowed = view.cuisine(region);
            assert_eq!(borrowed.n_recipes(), owned.n_recipes());
            assert_eq!(borrowed.ingredient_set(), owned.ingredient_set());
            assert_eq!(borrowed.frequencies(), owned.frequencies());
            for (i, r) in owned.recipes().iter().enumerate() {
                assert_eq!(borrowed.ingredients_of(i), r.ingredients());
            }
        }
        assert_eq!(view.cuisine(Region::Thailand).n_recipes(), 0);
    }

    #[test]
    fn rebuild_is_byte_identical() {
        let store = sample_store();
        let first = build(&store);
        let buf = AlignedBytes::from_vec(first.clone());
        let rebuilt = open(buf.as_slice())
            .expect("opens")
            .to_recipe_store()
            .expect("rebuilds");
        assert_eq!(build(&rebuilt), first);
    }

    #[test]
    fn truncation_sweep_rejects_every_prefix() {
        let full = build(&sample_store());
        for cut in 0..full.len() {
            let prefix = AlignedBytes::from_slice(&full[..cut]);
            assert!(open(prefix.as_slice()).is_err(), "prefix {cut} must fail");
        }
    }

    #[test]
    fn wrong_magic_version_and_misalignment() {
        let full = build(&sample_store());
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        let bad_magic = AlignedBytes::from_vec(bad_magic);
        assert!(matches!(
            open(bad_magic.as_slice()),
            Err(ArtifactError::BadMagic)
        ));
        let mut bad_version = full.clone();
        bad_version[8] = 77;
        let bad_version = AlignedBytes::from_vec(bad_version);
        assert!(matches!(
            open(bad_version.as_slice()),
            Err(ArtifactError::BadVersion {
                found: 77,
                expect: CRDB2_VERSION
            })
        ));
        let mut shifted = vec![0u8; full.len() + 4];
        shifted[4..].copy_from_slice(&full);
        let backing = AlignedBytes::from_vec(shifted);
        assert!(matches!(
            open(&backing.as_slice()[4..]),
            Err(ArtifactError::Misaligned)
        ));
    }
}
