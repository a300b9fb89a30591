//! Unified read-only views over owned databases and zero-copy
//! artifact buffers.
//!
//! The analyses in this crate only *read*: they resolve ingredient ids
//! to flavor profiles and walk a cuisine's recipes. Those reads exist
//! in two representations — the owned [`FlavorDb`] / [`RecipeStore`]
//! pair, and the borrowed CFDB2/CRDB2 artifact views
//! ([`BorrowedFlavorDb`] / [`BorrowedRecipeDb`]) that alias a mapped
//! byte buffer without parsing it. The enums here dispatch between the
//! two so every hot path ([`crate::pairing::OverlapCache`],
//! [`crate::null_models::CuisineSampler`], [`crate::z_analysis`],
//! [`crate::ntuple::KTupleKernel`]) is written once against a view and
//! produces **bit-identical** results from either representation:
//!
//! * profiles come back as the same sorted `&[MoleculeId]` slices the
//!   owned structs hold (the artifact stores them verbatim);
//! * recipe iteration order is recipe-id order in both worlds;
//! * error strings match the owned path character for character.
//!
//! The artifact side additionally exposes the optional precomputed
//! per-region overlap sections ([`FlavorViewRef::overlap_section`]),
//! which lets the analysis skip the O(n²·w) intersection sweep when a
//! migrated artifact already carries the region's triangle.

use std::collections::HashMap;

use culinaria_flavordb::{
    BorrowedFlavorDb, Category, FlavorDb, FlavorDbError, IngredientId, MoleculeId,
};
use culinaria_recipedb::{BorrowedCuisine, BorrowedRecipeDb, Cuisine, RecipeStore, Region};

/// A read-only flavor database: owned or artifact-backed.
///
/// `Copy`, so call sites pass it by value like the `&FlavorDb` it
/// replaces.
#[derive(Debug, Clone, Copy)]
pub enum FlavorViewRef<'a> {
    /// A parsed, owned [`FlavorDb`].
    Owned(&'a FlavorDb),
    /// A zero-copy CFDB2 view borrowing a mapped buffer.
    Artifact(&'a BorrowedFlavorDb<'a>),
}

impl<'a> FlavorViewRef<'a> {
    /// The sorted molecule ids of an ingredient's flavor profile.
    ///
    /// The error for a dead or out-of-range id is the same
    /// [`FlavorDbError::UnknownIngredient`] the owned
    /// [`FlavorDb::ingredient`] raises, so messages built from it are
    /// identical across representations.
    pub fn profile_molecules(self, id: IngredientId) -> Result<&'a [MoleculeId], FlavorDbError> {
        match self {
            FlavorViewRef::Owned(db) => db.ingredient(id).map(|ing| ing.profile.molecules()),
            FlavorViewRef::Artifact(b) => b
                .profile(id)
                .ok_or_else(|| FlavorDbError::UnknownIngredient(id.to_string())),
        }
    }

    /// The canonical name of a live ingredient, `None` for dead ids.
    pub fn ingredient_name(self, id: IngredientId) -> Option<&'a str> {
        match self {
            FlavorViewRef::Owned(db) => db.ingredient(id).ok().map(|ing| ing.name.as_str()),
            FlavorViewRef::Artifact(b) => b.ingredient_name(id),
        }
    }

    /// The category of a live ingredient, `None` for dead ids.
    pub fn category(self, id: IngredientId) -> Option<Category> {
        match self {
            FlavorViewRef::Owned(db) => db.ingredient(id).ok().map(|ing| ing.category),
            FlavorViewRef::Artifact(b) => b.category(id),
        }
    }

    /// A precomputed overlap section `(pool, packed upper triangle)`
    /// stored in the artifact under `label` (normally a region code).
    /// Always `None` for owned databases — only migrated CFDB2 buffers
    /// carry sections.
    pub fn overlap_section(self, label: &str) -> Option<(&'a [IngredientId], &'a [u16])> {
        match self {
            FlavorViewRef::Owned(_) => None,
            FlavorViewRef::Artifact(b) => b.overlap(label),
        }
    }
}

impl<'a> From<&'a FlavorDb> for FlavorViewRef<'a> {
    fn from(db: &'a FlavorDb) -> Self {
        FlavorViewRef::Owned(db)
    }
}

impl<'a> From<&'a BorrowedFlavorDb<'a>> for FlavorViewRef<'a> {
    fn from(b: &'a BorrowedFlavorDb<'a>) -> Self {
        FlavorViewRef::Artifact(b)
    }
}

/// A read-only recipe collection: owned store or artifact-backed.
#[derive(Debug, Clone, Copy)]
pub enum RecipesViewRef<'a> {
    /// A parsed, owned [`RecipeStore`].
    Owned(&'a RecipeStore),
    /// A zero-copy CRDB2 view borrowing a mapped buffer.
    Artifact(&'a BorrowedRecipeDb<'a>),
}

impl<'a> RecipesViewRef<'a> {
    /// Regions with at least one recipe, in [`Region::ALL`] order —
    /// the same listing [`RecipeStore::regions`] produces.
    pub fn regions(self) -> Vec<Region> {
        match self {
            RecipesViewRef::Owned(store) => store.regions(),
            RecipesViewRef::Artifact(b) => b.regions(),
        }
    }

    /// The per-region cuisine view. Recipes appear in recipe-id order
    /// in both representations.
    pub fn cuisine(self, region: Region) -> CuisineView<'a> {
        match self {
            RecipesViewRef::Owned(store) => CuisineView::Owned(store.cuisine(region)),
            RecipesViewRef::Artifact(b) => CuisineView::Artifact(b.cuisine(region)),
        }
    }
}

impl<'a> From<&'a RecipeStore> for RecipesViewRef<'a> {
    fn from(store: &'a RecipeStore) -> Self {
        RecipesViewRef::Owned(store)
    }
}

impl<'a> From<&'a BorrowedRecipeDb<'a>> for RecipesViewRef<'a> {
    fn from(b: &'a BorrowedRecipeDb<'a>) -> Self {
        RecipesViewRef::Artifact(b)
    }
}

/// One region's recipes: an owned [`Cuisine`] or a borrowed CRDB2
/// region shard. Recipe order is recipe-id order in both.
#[derive(Debug, Clone)]
pub enum CuisineView<'a> {
    /// A borrowed view into an owned [`RecipeStore`].
    Owned(Cuisine<'a>),
    /// A zero-copy view into a CRDB2 region shard.
    Artifact(BorrowedCuisine<'a>),
}

impl<'a> CuisineView<'a> {
    /// The region this cuisine belongs to.
    pub fn region(&self) -> Region {
        match self {
            CuisineView::Owned(c) => c.region(),
            CuisineView::Artifact(c) => c.region(),
        }
    }

    /// Number of recipes N_c.
    pub fn n_recipes(&self) -> usize {
        match self {
            CuisineView::Owned(c) => c.n_recipes(),
            CuisineView::Artifact(c) => c.n_recipes(),
        }
    }

    /// The sorted, deduplicated ingredient ids of the `i`-th recipe.
    ///
    /// # Panics
    /// Panics when `i >= n_recipes()` (both arms index a slice).
    pub fn ingredients_of(&self, i: usize) -> &'a [IngredientId] {
        match self {
            CuisineView::Owned(c) => c.recipes()[i].ingredients(),
            CuisineView::Artifact(c) => c.ingredients_of(i),
        }
    }

    /// Every recipe's ingredient list, in recipe order.
    pub fn recipe_ingredient_lists(&self) -> impl Iterator<Item = &'a [IngredientId]> + '_ {
        (0..self.n_recipes()).map(move |i| self.ingredients_of(i))
    }

    /// Distinct ingredients used by the cuisine, sorted by id — the
    /// pool ordering every local-index structure shares.
    pub fn ingredient_set(&self) -> Vec<IngredientId> {
        match self {
            CuisineView::Owned(c) => c.ingredient_set(),
            CuisineView::Artifact(c) => c.ingredient_set(),
        }
    }

    /// Frequency of use: ingredient → number of recipes using it.
    pub fn frequencies(&self) -> HashMap<IngredientId, u64> {
        match self {
            CuisineView::Owned(c) => c.frequencies(),
            CuisineView::Artifact(c) => c.frequencies(),
        }
    }
}

impl<'a> From<Cuisine<'a>> for CuisineView<'a> {
    fn from(c: Cuisine<'a>) -> Self {
        CuisineView::Owned(c)
    }
}

/// Lets owned call sites pass `&cuisine` to the view-taking engines;
/// the view holds a clone of the cuisine's recipe list.
impl<'a> From<&Cuisine<'a>> for CuisineView<'a> {
    fn from(c: &Cuisine<'a>) -> Self {
        CuisineView::Owned(c.clone())
    }
}

impl<'a> From<BorrowedCuisine<'a>> for CuisineView<'a> {
    fn from(c: BorrowedCuisine<'a>) -> Self {
        CuisineView::Artifact(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::{artifact as flavor_artifact, FlavorArtifactBuilder};
    use culinaria_obs::Metrics;
    use culinaria_recipedb::{artifact as recipe_artifact, RecipeArtifactBuilder, Source};

    fn fixture() -> (FlavorDb, RecipeStore) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(8);
        use culinaria_flavordb::MoleculeId as M;
        let a = db
            .add_ingredient("a", Category::Herb, vec![M(0), M(1), M(2)])
            .unwrap();
        let b = db
            .add_ingredient("b", Category::Spice, vec![M(1), M(2), M(3)])
            .unwrap();
        let c = db.add_ingredient("c", Category::Meat, vec![M(5)]).unwrap();
        let mut store = RecipeStore::new();
        store
            .add_recipe("r1", Region::Italy, Source::Synthetic, vec![a, b])
            .unwrap();
        store
            .add_recipe("r2", Region::Italy, Source::Synthetic, vec![a, b, c])
            .unwrap();
        store
            .add_recipe("r3", Region::Japan, Source::Synthetic, vec![b, c])
            .unwrap();
        (db, store)
    }

    #[test]
    fn owned_and_artifact_views_agree() {
        let (db, store) = fixture();
        let fbytes = FlavorArtifactBuilder::new(&db).build().unwrap();
        let fbuf = flavor_artifact::AlignedBytes::from_vec(fbytes);
        let fview = flavor_artifact::open(fbuf.as_slice()).unwrap();
        let rbytes = RecipeArtifactBuilder::new(&store).build().unwrap();
        let rbuf = flavor_artifact::AlignedBytes::from_vec(rbytes);
        let rview = recipe_artifact::open(rbuf.as_slice()).unwrap();

        let owned_f = FlavorViewRef::from(&db);
        let art_f = FlavorViewRef::from(&fview);
        for id in db.ingredient_ids() {
            assert_eq!(
                owned_f.profile_molecules(id).unwrap(),
                art_f.profile_molecules(id).unwrap()
            );
            assert_eq!(owned_f.category(id), art_f.category(id));
        }
        // Dead id: identical error text.
        let dead = IngredientId(99);
        assert_eq!(
            owned_f.profile_molecules(dead).unwrap_err().to_string(),
            art_f.profile_molecules(dead).unwrap_err().to_string()
        );
        assert_eq!(owned_f.overlap_section("ITA"), None);
        assert_eq!(art_f.overlap_section("ITA"), None);

        let owned_r = RecipesViewRef::from(&store);
        let art_r = RecipesViewRef::from(&rview);
        assert_eq!(owned_r.regions(), art_r.regions());
        for region in owned_r.regions() {
            let oc = owned_r.cuisine(region);
            let ac = art_r.cuisine(region);
            assert_eq!(oc.region(), ac.region());
            assert_eq!(oc.n_recipes(), ac.n_recipes());
            assert_eq!(oc.ingredient_set(), ac.ingredient_set());
            assert_eq!(oc.frequencies(), ac.frequencies());
            let o: Vec<_> = oc.recipe_ingredient_lists().collect();
            let a: Vec<_> = ac.recipe_ingredient_lists().collect();
            assert_eq!(o, a);
        }
    }

    #[test]
    fn artifact_overlap_sections_surface_through_the_view() {
        let (db, store) = fixture();
        let cuisine = store.cuisine(Region::Italy);
        let pool = cuisine.ingredient_set();
        let cache = crate::pairing::OverlapCache::build(&db, &pool, 0, &Metrics::disabled())
            .expect("live pool");
        let mut builder = FlavorArtifactBuilder::new(&db);
        builder.add_overlap("ITA", &pool, cache.tri()).unwrap();
        let bytes = builder.build().unwrap();
        let buf = flavor_artifact::AlignedBytes::from_vec(bytes);
        let view = flavor_artifact::open(buf.as_slice()).unwrap();
        let art = FlavorViewRef::from(&view);
        let (sec_pool, tri) = art.overlap_section("ITA").unwrap();
        assert_eq!(sec_pool, &pool[..]);
        assert_eq!(tri, cache.tri());
        assert_eq!(art.overlap_section("JPN"), None);
    }
}
