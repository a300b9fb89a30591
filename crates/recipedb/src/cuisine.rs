//! A borrowed per-region cuisine view with the derived tables the
//! analyses consume: the ingredient set, frequency-of-use counts, and
//! the recipe-size distribution.

use std::collections::HashMap;

use culinaria_flavordb::IngredientId;

use crate::recipe::Recipe;
use crate::region::Region;

/// A cuisine: the set of recipes attributed to one region.
#[derive(Debug, Clone)]
pub struct Cuisine<'a> {
    region: Region,
    recipes: Vec<&'a Recipe>,
}

impl<'a> Cuisine<'a> {
    /// Build from borrowed recipes (normally via
    /// [`crate::RecipeStore::cuisine`]).
    pub fn new(region: Region, recipes: Vec<&'a Recipe>) -> Self {
        Cuisine { region, recipes }
    }

    /// The region this cuisine belongs to.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Borrowed recipes.
    pub fn recipes(&self) -> &[&'a Recipe] {
        &self.recipes
    }

    /// Number of recipes N_c.
    pub fn n_recipes(&self) -> usize {
        self.recipes.len()
    }

    /// Distinct ingredients used by the cuisine, sorted by id.
    pub fn ingredient_set(&self) -> Vec<IngredientId> {
        distinct_ingredients(self.recipes.iter().map(|r| r.ingredients()))
    }

    /// Frequency of use: ingredient → number of recipes using it.
    pub fn frequencies(&self) -> HashMap<IngredientId, u64> {
        let mut freq: HashMap<IngredientId, u64> = HashMap::new();
        for r in &self.recipes {
            for &ing in r.ingredients() {
                *freq.entry(ing).or_insert(0) += 1;
            }
        }
        freq
    }

    /// Recipe sizes n_R in recipe order.
    pub fn recipe_sizes(&self) -> Vec<usize> {
        self.recipes.iter().map(|r| r.size()).collect()
    }

    /// Mean recipe size; 0 for an empty cuisine.
    pub fn mean_recipe_size(&self) -> f64 {
        if self.recipes.is_empty() {
            return 0.0;
        }
        self.recipe_sizes().iter().sum::<usize>() as f64 / self.recipes.len() as f64
    }

    /// The `k` most-used ingredients as `(id, count)`, most frequent
    /// first (ties broken by id for determinism).
    pub fn top_ingredients(&self, k: usize) -> Vec<(IngredientId, u64)> {
        let mut pairs: Vec<(IngredientId, u64)> = self.frequencies().into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

/// The sorted distinct ids across `lists`, in a buffer no larger than
/// they are: one reservation for every occurrence, then sort, dedup and
/// shrink. Both cuisine views build their ingredient sets here.
pub(crate) fn distinct_ingredients<'a, I>(lists: I) -> Vec<IngredientId>
where
    I: Iterator<Item = &'a [IngredientId]> + Clone,
{
    let mut all = Vec::with_capacity(lists.clone().map(<[_]>::len).sum());
    for list in lists {
        all.extend_from_slice(list);
    }
    all.sort_unstable();
    all.dedup();
    all.shrink_to_fit();
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::{RecipeId, Source};

    fn recipe(id: u32, ings: &[u32]) -> Recipe {
        Recipe::new(
            RecipeId(id),
            format!("r{id}"),
            Region::Italy,
            Source::Synthetic,
            ings.iter().map(|&i| IngredientId(i)).collect(),
        )
    }

    fn cuisine(recipes: &[Recipe]) -> Cuisine<'_> {
        Cuisine::new(Region::Italy, recipes.iter().collect())
    }

    #[test]
    fn ingredient_set_union() {
        let rs = [recipe(0, &[1, 2, 3]), recipe(1, &[2, 3, 4])];
        let c = cuisine(&rs);
        let set = c.ingredient_set();
        assert_eq!(
            set,
            vec![
                IngredientId(1),
                IngredientId(2),
                IngredientId(3),
                IngredientId(4)
            ]
        );
    }

    #[test]
    fn frequencies_count_recipes_not_occurrences() {
        let rs = [recipe(0, &[1, 2]), recipe(1, &[2, 3]), recipe(2, &[2])];
        let c = cuisine(&rs);
        let f = c.frequencies();
        assert_eq!(f[&IngredientId(2)], 3);
        assert_eq!(f[&IngredientId(1)], 1);
    }

    #[test]
    fn sizes_and_mean() {
        let rs = [recipe(0, &[1, 2, 3]), recipe(1, &[4])];
        let c = cuisine(&rs);
        assert_eq!(c.recipe_sizes(), vec![3, 1]);
        assert!((c.mean_recipe_size() - 2.0).abs() < 1e-12);
        let empty = Cuisine::new(Region::Italy, vec![]);
        assert_eq!(empty.mean_recipe_size(), 0.0);
    }

    #[test]
    fn top_ingredients_ordering() {
        let rs = [recipe(0, &[1, 2]), recipe(1, &[2, 3]), recipe(2, &[2, 3])];
        let c = cuisine(&rs);
        let top = c.top_ingredients(2);
        assert_eq!(top[0], (IngredientId(2), 3));
        assert_eq!(top[1], (IngredientId(3), 2));
        // k larger than distinct count is fine.
        assert_eq!(c.top_ingredients(99).len(), 3);
    }
}
