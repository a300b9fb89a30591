//! Query helpers over the store: multi-ingredient containment and pair
//! co-occurrence (the `pairings` command's co-occurrence counts).

use culinaria_flavordb::IngredientId;

use crate::recipe::RecipeId;
use crate::store::RecipeStore;

impl RecipeStore {
    /// Recipes containing *all* of the given ingredients (sorted-list
    /// intersection over the inverted index, smallest posting first).
    pub fn recipes_with_all(&self, ingredients: &[IngredientId]) -> Vec<RecipeId> {
        if ingredients.is_empty() {
            return Vec::new();
        }
        let mut postings: Vec<&[RecipeId]> = ingredients
            .iter()
            .map(|&i| self.recipes_with_ingredient(i))
            .collect();
        postings.sort_by_key(|p| p.len());
        if postings[0].is_empty() {
            return Vec::new();
        }
        let mut acc: Vec<RecipeId> = postings[0].to_vec();
        for p in &postings[1..] {
            acc.retain(|id| p.binary_search(id).is_ok());
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Number of recipes in which the pair co-occurs.
    pub fn cooccurrence(&self, a: IngredientId, b: IngredientId) -> usize {
        self.recipes_with_all(&[a, b]).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Source;
    use crate::region::Region;

    fn ing(id: u32) -> IngredientId {
        IngredientId(id)
    }

    fn store() -> RecipeStore {
        let mut s = RecipeStore::new();
        s.add_recipe(
            "a",
            Region::Italy,
            Source::Synthetic,
            vec![ing(0), ing(1), ing(2)],
        )
        .unwrap();
        s.add_recipe("b", Region::Italy, Source::Synthetic, vec![ing(1), ing(2)])
            .unwrap();
        s.add_recipe("c", Region::Japan, Source::Synthetic, vec![ing(2), ing(3)])
            .unwrap();
        s
    }

    #[test]
    fn intersection_queries() {
        let s = store();
        assert_eq!(
            s.recipes_with_all(&[ing(1), ing(2)]),
            vec![RecipeId(0), RecipeId(1)]
        );
        assert_eq!(
            s.recipes_with_all(&[ing(0), ing(3)]),
            Vec::<RecipeId>::new()
        );
        assert!(s.recipes_with_all(&[]).is_empty());
        assert!(s.recipes_with_all(&[ing(42)]).is_empty());
    }

    #[test]
    fn cooccurrence_counts() {
        let s = store();
        assert_eq!(s.cooccurrence(ing(1), ing(2)), 2);
        assert_eq!(s.cooccurrence(ing(0), ing(3)), 0);
    }
}
