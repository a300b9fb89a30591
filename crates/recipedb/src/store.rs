//! The recipe store.

use std::collections::HashMap;
use std::sync::Arc;

use culinaria_flavordb::IngredientId;

use crate::cuisine::Cuisine;
use crate::error::{RecipeDbError, Result};
use crate::recipe::{Recipe, RecipeId, Source};
use crate::region::Region;

/// Recipes per sealed chunk. A clone copies up to one chunk of recipes
/// beside 4 bytes of region ids per recipe; at 256 that chunk is small
/// next to the id lists of a store of thousands of recipes.
const CHUNK: usize = 256;

/// The recipe store: append-only recipes with per-region partitions,
/// maintained on insert.
///
/// Recipe `i` lives in chunk `i / 256`. Every full chunk is sealed into
/// an immutable `Arc<[Recipe]>`; only the newest, open chunk (fewer
/// than 256 recipes) is a growable `Vec`. A clone therefore shares the
/// sealed chunks with its original and copies only the chunk pointers,
/// the open chunk and the per-region id lists — a store kept per data
/// generation costs its region ids plus one chunk, not every recipe
/// again. There is no ingredient index: the ingredient queries
/// ([`RecipeStore::recipes_with_ingredient`],
/// [`RecipeStore::global_frequencies`]) scan the recipes.
///
/// ```
/// use culinaria_flavordb::IngredientId;
/// use culinaria_recipedb::{RecipeStore, Region, Source};
///
/// let mut store = RecipeStore::new();
/// store
///     .add_recipe(
///         "pasta al pomodoro",
///         Region::Italy,
///         Source::Epicurious,
///         vec![IngredientId(0), IngredientId(1)],
///     )
///     .unwrap();
/// assert_eq!(store.n_region_recipes(Region::Italy), 1);
/// assert_eq!(store.recipes_with_ingredient(IngredientId(1)).len(), 1);
/// ```
///
/// A clone is a snapshot: later inserts into the original do not show
/// in it.
///
/// ```
/// use culinaria_flavordb::IngredientId;
/// use culinaria_recipedb::{RecipeStore, Region, Source};
///
/// let mut store = RecipeStore::new();
/// for i in 0..300 {
///     let name = format!("stew {i}");
///     store
///         .add_recipe(&name, Region::France, Source::Synthetic, vec![IngredientId(i)])
///         .unwrap();
/// }
/// let snapshot = store.clone();
/// store
///     .add_recipe("soup", Region::France, Source::Synthetic, vec![IngredientId(7)])
///     .unwrap();
/// assert_eq!(snapshot.n_recipes(), 300);
/// assert_eq!(snapshot.n_region_recipes(Region::France), 300);
/// assert_eq!(store.n_recipes(), 301);
/// assert_eq!(snapshot.recipes_with_ingredient(IngredientId(7)).len(), 1);
/// assert_eq!(store.recipes_with_ingredient(IngredientId(7)).len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecipeStore {
    /// Full chunks of exactly [`CHUNK`] recipes, shared between clones.
    sealed: Vec<Arc<[Recipe]>>,
    /// The newest recipes, always fewer than [`CHUNK`].
    open: Vec<Recipe>,
    by_region: [Vec<RecipeId>; 22],
}

impl RecipeStore {
    /// An empty store.
    pub fn new() -> Self {
        RecipeStore::default()
    }

    /// Reserve capacity for `additional` more recipes (batch importers
    /// know their insert count up front). Each chunk after the first is
    /// allocated at full size when the one before it seals, so this
    /// sizes the open chunk only.
    pub fn reserve(&mut self, additional: usize) {
        self.open.reserve(additional.min(CHUNK - self.open.len()));
    }

    /// Insert a recipe. The ingredient list is deduplicated; an empty
    /// list is rejected (the paper only keeps recipes with ingredient
    /// information).
    pub fn add_recipe(
        &mut self,
        name: &str,
        region: Region,
        source: Source,
        ingredients: Vec<IngredientId>,
    ) -> Result<RecipeId> {
        if ingredients.is_empty() {
            return Err(RecipeDbError::EmptyRecipe(name.to_owned()));
        }
        let id = RecipeId(self.n_recipes() as u32);
        let recipe = Recipe::new(id, name.to_owned(), region, source, ingredients);
        self.by_region[region.index()].push(id);
        self.open.push(recipe);
        if self.open.len() == CHUNK {
            let full = std::mem::replace(&mut self.open, Vec::with_capacity(CHUNK));
            self.sealed.push(full.into());
        }
        Ok(id)
    }

    /// Number of recipes.
    pub fn n_recipes(&self) -> usize {
        self.sealed.len() * CHUNK + self.open.len()
    }

    /// Look up a recipe by id.
    pub fn recipe(&self, id: RecipeId) -> Result<&Recipe> {
        let i = id.index();
        match self.sealed.get(i / CHUNK) {
            Some(chunk) => Some(&chunk[i % CHUNK]),
            // `i / CHUNK >= sealed.len()`, so the subtraction cannot wrap.
            None => self.open.get(i - self.sealed.len() * CHUNK),
        }
        .ok_or(RecipeDbError::UnknownRecipe(id.0))
    }

    /// Iterate over all recipes in insertion order.
    pub fn recipes(&self) -> impl Iterator<Item = &Recipe> {
        self.sealed.iter().flat_map(|c| c.iter()).chain(&self.open)
    }

    /// Recipe ids attributed to a region.
    pub fn region_recipe_ids(&self, region: Region) -> &[RecipeId] {
        &self.by_region[region.index()]
    }

    /// Number of recipes in a region.
    pub fn n_region_recipes(&self, region: Region) -> usize {
        self.by_region[region.index()].len()
    }

    /// The regions that have at least one recipe, in Table 1 order.
    pub fn regions(&self) -> Vec<Region> {
        Region::ALL
            .iter()
            .copied()
            .filter(|r| !self.by_region[r.index()].is_empty())
            .collect()
    }

    /// A borrowed cuisine view over one region.
    pub fn cuisine(&self, region: Region) -> Cuisine<'_> {
        let recipes: Vec<&Recipe> = self.by_region[region.index()]
            .iter()
            .map(|&id| self.recipe(id).expect("region lists hold only stored ids"))
            .collect();
        Cuisine::new(region, recipes)
    }

    /// A pooled "WORLD" view over every recipe in the store (the paper's
    /// aggregate row). Region is reported as the provided label region.
    pub fn world_cuisine(&self) -> Vec<&Recipe> {
        self.recipes().collect()
    }

    /// Recipes containing an ingredient, in id order, from one scan
    /// over the store.
    pub fn recipes_with_ingredient(&self, id: IngredientId) -> Vec<RecipeId> {
        self.recipes()
            .filter(|r| r.contains(id))
            .map(|r| r.id)
            .collect()
    }

    /// Number of distinct ingredients used anywhere in the store.
    pub fn n_distinct_ingredients(&self) -> usize {
        self.global_frequencies().len()
    }

    /// Global ingredient usage counts (ingredient → number of recipes
    /// that use it), from one scan over the store.
    pub fn global_frequencies(&self) -> HashMap<IngredientId, u64> {
        let mut freq = HashMap::new();
        for r in self.recipes() {
            for &ing in r.ingredients() {
                *freq.entry(ing).or_insert(0) += 1;
            }
        }
        freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ing(id: u32) -> IngredientId {
        IngredientId(id)
    }

    fn store() -> RecipeStore {
        let mut s = RecipeStore::new();
        s.add_recipe(
            "pasta",
            Region::Italy,
            Source::Synthetic,
            vec![ing(0), ing(1), ing(2)],
        )
        .unwrap();
        s.add_recipe(
            "pizza",
            Region::Italy,
            Source::Synthetic,
            vec![ing(1), ing(2), ing(3)],
        )
        .unwrap();
        s.add_recipe(
            "sushi",
            Region::Japan,
            Source::Synthetic,
            vec![ing(4), ing(5)],
        )
        .unwrap();
        s
    }

    #[test]
    fn add_and_lookup() {
        let s = store();
        assert_eq!(s.n_recipes(), 3);
        assert_eq!(s.recipe(RecipeId(0)).unwrap().name, "pasta");
        assert!(s.recipe(RecipeId(9)).is_err());
    }

    #[test]
    fn empty_recipe_rejected() {
        let mut s = store();
        assert!(matches!(
            s.add_recipe("nothing", Region::Usa, Source::Synthetic, vec![]),
            Err(RecipeDbError::EmptyRecipe(_))
        ));
    }

    #[test]
    fn region_partitions() {
        let s = store();
        assert_eq!(s.n_region_recipes(Region::Italy), 2);
        assert_eq!(s.n_region_recipes(Region::Japan), 1);
        assert_eq!(s.n_region_recipes(Region::Usa), 0);
        assert_eq!(s.regions(), vec![Region::Italy, Region::Japan]);
    }

    #[test]
    fn inverted_index() {
        let s = store();
        assert_eq!(
            s.recipes_with_ingredient(ing(1)),
            &[RecipeId(0), RecipeId(1)]
        );
        assert_eq!(s.recipes_with_ingredient(ing(4)), &[RecipeId(2)]);
        assert!(s.recipes_with_ingredient(ing(99)).is_empty());
        assert_eq!(s.n_distinct_ingredients(), 6);
    }

    #[test]
    fn global_frequencies() {
        let s = store();
        let freq = s.global_frequencies();
        assert_eq!(freq[&ing(1)], 2);
        assert_eq!(freq[&ing(0)], 1);
    }

    #[test]
    fn duplicate_ingredients_counted_once() {
        let mut s = RecipeStore::new();
        s.add_recipe(
            "dup",
            Region::Usa,
            Source::Synthetic,
            vec![ing(7), ing(7), ing(7)],
        )
        .unwrap();
        assert_eq!(s.recipe(RecipeId(0)).unwrap().size(), 1);
        assert_eq!(s.recipes_with_ingredient(ing(7)).len(), 1);
    }

    #[test]
    fn cuisine_view() {
        let s = store();
        let ita = s.cuisine(Region::Italy);
        assert_eq!(ita.n_recipes(), 2);
        assert_eq!(ita.region(), Region::Italy);
        assert_eq!(s.world_cuisine().len(), 3);
    }
}
