//! The flavor database: interned molecules, ingredients, synonyms, and
//! the curation operations the paper describes.

use std::collections::HashMap;

use crate::category::Category;
use crate::error::{FlavorDbError, Result};
use crate::ids::{IngredientId, MoleculeId};
use crate::ingredient::Ingredient;
use crate::molecule::Molecule;
use crate::profile::FlavorProfile;

/// The flavor molecule database.
///
/// Ids are dense and stable: removing an ingredient tombstones its slot
/// (the paper removed 29 noisy entities from the FlavorDB list without
/// renumbering anything downstream).
///
/// ```
/// use culinaria_flavordb::{Category, FlavorDb};
///
/// let mut db = FlavorDb::new();
/// let citral = db.add_molecule("citral", &["citrus"]).unwrap();
/// let limonene = db.add_molecule("limonene", &["citrus"]).unwrap();
/// let lemon = db
///     .add_ingredient("lemon", Category::Fruit, vec![citral, limonene])
///     .unwrap();
/// let ginger = db
///     .add_ingredient("ginger", Category::Spice, vec![citral])
///     .unwrap();
/// assert_eq!(db.shared_molecules(lemon, ginger).unwrap(), 1);
///
/// db.add_synonym("citron", "lemon").unwrap();
/// assert_eq!(db.ingredient_by_name("citron"), Some(lemon));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlavorDb {
    molecules: Vec<Molecule>,
    molecule_by_name: HashMap<String, MoleculeId>,
    /// `None` marks a removed (tombstoned) ingredient.
    ingredients: Vec<Option<Ingredient>>,
    ingredient_by_name: HashMap<String, IngredientId>,
    /// synonym → canonical ingredient id.
    synonyms: HashMap<String, IngredientId>,
}

impl FlavorDb {
    /// An empty database.
    pub fn new() -> Self {
        FlavorDb::default()
    }

    // ----- molecules -------------------------------------------------

    /// Register a molecule. Names are case-insensitive-unique.
    pub fn add_molecule(&mut self, name: &str, descriptors: &[&str]) -> Result<MoleculeId> {
        let key = name.to_lowercase();
        if self.molecule_by_name.contains_key(&key) {
            return Err(FlavorDbError::DuplicateMolecule(name.to_owned()));
        }
        let id = MoleculeId(self.molecules.len() as u32);
        self.molecules.push(Molecule {
            id,
            name: key.clone(),
            descriptors: descriptors.iter().map(|d| d.to_lowercase()).collect(),
        });
        self.molecule_by_name.insert(key, id);
        Ok(id)
    }

    /// Register `n` anonymous molecules (the synthetic generator names
    /// them `mol-<k>`). Returns the contiguous id range.
    pub fn add_anonymous_molecules(&mut self, n: usize) -> std::ops::Range<u32> {
        let start = self.molecules.len() as u32;
        for k in 0..n {
            let id = MoleculeId(start + k as u32);
            let name = format!("mol-{}", id.0);
            self.molecules.push(Molecule {
                id,
                name: name.clone(),
                descriptors: Vec::new(),
            });
            self.molecule_by_name.insert(name, id);
        }
        start..start + n as u32
    }

    /// Number of molecules.
    pub fn n_molecules(&self) -> usize {
        self.molecules.len()
    }

    /// Look up a molecule by id.
    pub fn molecule(&self, id: MoleculeId) -> Result<&Molecule> {
        self.molecules
            .get(id.index())
            .ok_or(FlavorDbError::UnknownMolecule(id.0))
    }

    /// Look up a molecule id by (case-insensitive) name.
    pub fn molecule_by_name(&self, name: &str) -> Option<MoleculeId> {
        self.molecule_by_name.get(&name.to_lowercase()).copied()
    }

    /// Iterate over all molecules.
    pub fn molecules(&self) -> impl Iterator<Item = &Molecule> {
        self.molecules.iter()
    }

    // ----- ingredients -----------------------------------------------

    fn validate_profile(&self, molecules: &[MoleculeId]) -> Result<()> {
        for &m in molecules {
            if m.index() >= self.molecules.len() {
                return Err(FlavorDbError::UnknownMolecule(m.0));
            }
        }
        Ok(())
    }

    fn insert_ingredient(
        &mut self,
        name: &str,
        category: Category,
        profile: FlavorProfile,
        is_compound: bool,
    ) -> Result<IngredientId> {
        let key = name.to_lowercase();
        if self.ingredient_by_name.contains_key(&key) || self.synonyms.contains_key(&key) {
            return Err(FlavorDbError::DuplicateIngredient(name.to_owned()));
        }
        let id = IngredientId(self.ingredients.len() as u32);
        self.ingredients.push(Some(Ingredient {
            id,
            name: key.clone(),
            category,
            profile,
            is_compound,
        }));
        self.ingredient_by_name.insert(key, id);
        Ok(id)
    }

    /// Raw insertion used by artifact materialization: explicit profile and
    /// compound flag, bypassing constituent resolution.
    pub(crate) fn add_ingredient_raw(
        &mut self,
        name: &str,
        category: Category,
        profile: FlavorProfile,
        is_compound: bool,
    ) -> Result<IngredientId> {
        self.insert_ingredient(name, category, profile, is_compound)
    }

    /// Raw synonym insertion used by artifact materialization (no canonical
    /// liveness check; the encoder only writes valid links).
    pub(crate) fn add_synonym_raw(&mut self, synonym: String, id: IngredientId) {
        self.synonyms.insert(synonym, id);
    }

    /// Register a basic ingredient with an explicit flavor profile.
    pub fn add_ingredient(
        &mut self,
        name: &str,
        category: Category,
        molecules: Vec<MoleculeId>,
    ) -> Result<IngredientId> {
        self.validate_profile(&molecules)?;
        self.insert_ingredient(name, category, FlavorProfile::new(molecules), false)
    }

    /// Register a compound ingredient whose profile is the pooled union
    /// of its constituents (§III.B: mayonnaise = oil + egg + lemon
    /// juice). Constituents must already exist and be non-empty.
    pub fn add_compound_ingredient(
        &mut self,
        name: &str,
        category: Category,
        constituents: &[IngredientId],
    ) -> Result<IngredientId> {
        if constituents.is_empty() {
            return Err(FlavorDbError::InvalidCompound(name.to_owned()));
        }
        let mut profiles = Vec::with_capacity(constituents.len());
        for &c in constituents {
            profiles.push(&self.ingredient(c)?.profile);
        }
        let pooled = FlavorProfile::pooled(profiles);
        self.insert_ingredient(name, category, pooled, true)
    }

    /// Total slots including tombstones (the id space).
    pub fn n_ingredient_slots(&self) -> usize {
        self.ingredients.len()
    }

    /// Number of live (non-removed) ingredients.
    pub fn n_ingredients(&self) -> usize {
        self.ingredients.iter().filter(|i| i.is_some()).count()
    }

    /// Look up a live ingredient by id.
    pub fn ingredient(&self, id: IngredientId) -> Result<&Ingredient> {
        self.ingredients
            .get(id.index())
            .and_then(|slot| slot.as_ref())
            .ok_or_else(|| FlavorDbError::UnknownIngredient(id.to_string()))
    }

    /// Resolve a name or registered synonym to a live ingredient id.
    pub fn ingredient_by_name(&self, name: &str) -> Option<IngredientId> {
        let key = name.to_lowercase();
        let id = self
            .ingredient_by_name
            .get(&key)
            .or_else(|| self.synonyms.get(&key))
            .copied()?;
        // Tombstoned entries do not resolve.
        self.ingredients[id.index()].as_ref().map(|i| i.id)
    }

    /// Iterate over live ingredients.
    pub fn ingredients(&self) -> impl Iterator<Item = &Ingredient> {
        self.ingredients.iter().filter_map(|slot| slot.as_ref())
    }

    /// Live ingredient ids.
    pub fn ingredient_ids(&self) -> impl Iterator<Item = IngredientId> + '_ {
        self.ingredients().map(|i| i.id)
    }

    // ----- curation ---------------------------------------------------

    /// Remove an ingredient by name (the paper dropped 29 generic/noisy
    /// entities). The slot is tombstoned; ids of other ingredients are
    /// unaffected. Synonyms pointing at it stop resolving.
    pub fn remove_ingredient(&mut self, name: &str) -> Result<IngredientId> {
        let key = name.to_lowercase();
        let id = self
            .ingredient_by_name
            .get(&key)
            .copied()
            .ok_or_else(|| FlavorDbError::UnknownIngredient(name.to_owned()))?;
        match self.ingredients[id.index()].take() {
            Some(_) => {
                self.ingredient_by_name.remove(&key);
                Ok(id)
            }
            None => Err(FlavorDbError::UnknownIngredient(name.to_owned())),
        }
    }

    /// Register `synonym` for the existing ingredient `canonical`
    /// (bun → bread, lager → beer, curd → yogurt).
    pub fn add_synonym(&mut self, synonym: &str, canonical: &str) -> Result<()> {
        let skey = synonym.to_lowercase();
        if self.ingredient_by_name.contains_key(&skey) {
            return Err(FlavorDbError::SynonymShadowsCanonical(synonym.to_owned()));
        }
        let id = self
            .ingredient_by_name(canonical)
            .ok_or_else(|| FlavorDbError::UnknownIngredient(canonical.to_owned()))?;
        self.synonyms.insert(skey, id);
        Ok(())
    }

    /// All registered synonyms as `(synonym, canonical-id)` pairs.
    pub fn synonyms(&self) -> impl Iterator<Item = (&str, IngredientId)> {
        self.synonyms.iter().map(|(s, &id)| (s.as_str(), id))
    }

    // ----- pairing primitives ----------------------------------------

    /// Number of flavor molecules shared by two ingredients.
    pub fn shared_molecules(&self, a: IngredientId, b: IngredientId) -> Result<usize> {
        let pa = &self.ingredient(a)?.profile;
        let pb = &self.ingredient(b)?.profile;
        Ok(pa.shared_count(pb))
    }

    /// Ids of live ingredients in a category.
    pub fn ingredients_in_category(&self, category: Category) -> Vec<IngredientId> {
        self.ingredients()
            .filter(|i| i.category == category)
            .map(|i| i.id)
            .collect()
    }

    /// A copy of the database with every live ingredient's profile
    /// replaced by `f(ingredient)`. Ids, names, categories, synonyms
    /// and tombstones are preserved.
    ///
    /// This powers robustness analyses ("how robust are the patterns to
    /// changes in flavor profiles?"): perturb profiles, re-run the
    /// pairing pipeline, compare.
    pub fn map_profiles(&self, mut f: impl FnMut(&Ingredient) -> FlavorProfile) -> FlavorDb {
        let mut out = self.clone();
        for slot in &mut out.ingredients {
            if let Some(ing) = slot.as_mut() {
                ing.profile = f(ing);
            }
        }
        out
    }

    /// Mean profile size over live ingredients (0 when none).
    pub fn mean_profile_size(&self) -> f64 {
        let mut n = 0usize;
        let mut total = 0usize;
        for ing in self.ingredients() {
            n += 1;
            total += ing.profile.len();
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_basics() -> (FlavorDb, IngredientId, IngredientId, IngredientId) {
        let mut db = FlavorDb::new();
        let m: Vec<MoleculeId> = (0..10)
            .map(|k| db.add_molecule(&format!("mol{k}"), &[]).unwrap())
            .collect();
        let milk = db
            .add_ingredient("milk", Category::Dairy, vec![m[0], m[1], m[2]])
            .unwrap();
        let cream = db
            .add_ingredient("cream", Category::Dairy, vec![m[1], m[2], m[3]])
            .unwrap();
        let lemon = db
            .add_ingredient("lemon juice", Category::Fruit, vec![m[7], m[8]])
            .unwrap();
        (db, milk, cream, lemon)
    }

    #[test]
    fn add_and_lookup() {
        let (db, milk, ..) = db_with_basics();
        assert_eq!(db.n_molecules(), 10);
        assert_eq!(db.n_ingredients(), 3);
        assert_eq!(db.ingredient_by_name("Milk"), Some(milk));
        assert_eq!(db.ingredient(milk).unwrap().category, Category::Dairy);
        assert!(db.ingredient_by_name("nope").is_none());
        assert_eq!(db.molecule_by_name("MOL3"), Some(MoleculeId(3)));
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut db, ..) = db_with_basics();
        assert!(matches!(
            db.add_ingredient("milk", Category::Dairy, vec![]),
            Err(FlavorDbError::DuplicateIngredient(_))
        ));
        assert!(matches!(
            db.add_molecule("mol0", &[]),
            Err(FlavorDbError::DuplicateMolecule(_))
        ));
    }

    #[test]
    fn profile_validation() {
        let (mut db, ..) = db_with_basics();
        let err = db
            .add_ingredient("ghost", Category::Plant, vec![MoleculeId(99)])
            .unwrap_err();
        assert_eq!(err, FlavorDbError::UnknownMolecule(99));
    }

    #[test]
    fn compound_pools_profiles() {
        let (mut db, milk, cream, _) = db_with_basics();
        // "half half" = milk + cream, exactly the paper's example.
        let hh = db
            .add_compound_ingredient("half half", Category::Dairy, &[milk, cream])
            .unwrap();
        let ing = db.ingredient(hh).unwrap();
        assert!(ing.is_compound);
        assert_eq!(ing.profile.len(), 4); // m0..m3 pooled
        assert!(matches!(
            db.add_compound_ingredient("nothing", Category::Dish, &[]),
            Err(FlavorDbError::InvalidCompound(_))
        ));
    }

    #[test]
    fn shared_molecules_counts() {
        let (db, milk, cream, lemon) = db_with_basics();
        assert_eq!(db.shared_molecules(milk, cream).unwrap(), 2);
        assert_eq!(db.shared_molecules(milk, lemon).unwrap(), 0);
    }

    #[test]
    fn synonym_resolution() {
        let (mut db, milk, ..) = db_with_basics();
        db.add_synonym("doodh", "milk").unwrap();
        assert_eq!(db.ingredient_by_name("doodh"), Some(milk));
        // Synonyms may not shadow canonical names.
        assert!(matches!(
            db.add_synonym("cream", "milk"),
            Err(FlavorDbError::SynonymShadowsCanonical(_))
        ));
        // Unknown canonical rejected.
        assert!(db.add_synonym("x", "unknown-thing").is_err());
        // A new ingredient may not take a name already used by a synonym.
        assert!(db.add_ingredient("doodh", Category::Dairy, vec![]).is_err());
    }

    #[test]
    fn removal_tombstones_and_preserves_ids() {
        let (mut db, milk, cream, _) = db_with_basics();
        let removed = db.remove_ingredient("milk").unwrap();
        assert_eq!(removed, milk);
        assert_eq!(db.n_ingredients(), 2);
        assert_eq!(db.n_ingredient_slots(), 3);
        assert!(db.ingredient(milk).is_err());
        assert!(db.ingredient_by_name("milk").is_none());
        // Other ids unaffected.
        assert_eq!(db.ingredient(cream).unwrap().name, "cream");
        // Double removal errors.
        assert!(db.remove_ingredient("milk").is_err());
    }

    #[test]
    fn synonym_to_removed_ingredient_stops_resolving() {
        let (mut db, ..) = db_with_basics();
        db.add_synonym("doodh", "milk").unwrap();
        db.remove_ingredient("milk").unwrap();
        assert!(db.ingredient_by_name("doodh").is_none());
    }

    #[test]
    fn category_listing() {
        let (db, milk, cream, lemon) = db_with_basics();
        let dairy = db.ingredients_in_category(Category::Dairy);
        assert_eq!(dairy, vec![milk, cream]);
        assert_eq!(db.ingredients_in_category(Category::Fruit), vec![lemon]);
        assert!(db.ingredients_in_category(Category::Spice).is_empty());
    }

    #[test]
    fn anonymous_molecules_bulk() {
        let mut db = FlavorDb::new();
        let range = db.add_anonymous_molecules(100);
        assert_eq!(range, 0..100);
        assert_eq!(db.n_molecules(), 100);
        assert_eq!(db.molecule_by_name("mol-42"), Some(MoleculeId(42)));
    }

    #[test]
    fn map_profiles_transforms_in_place() {
        let (db, milk, cream, lemon) = db_with_basics();
        let emptied = db.map_profiles(|_| FlavorProfile::empty());
        assert_eq!(emptied.n_ingredients(), db.n_ingredients());
        for id in [milk, cream, lemon] {
            assert!(emptied.ingredient(id).unwrap().profile.is_empty());
            // Names/categories preserved.
            assert_eq!(
                emptied.ingredient(id).unwrap().name,
                db.ingredient(id).unwrap().name
            );
        }
        // Original untouched.
        assert!(!db.ingredient(milk).unwrap().profile.is_empty());

        // Identity map preserves everything.
        let same = db.map_profiles(|ing| ing.profile.clone());
        for (a, b) in db.ingredients().zip(same.ingredients()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn mean_profile_size() {
        let (db, ..) = db_with_basics();
        // (3 + 3 + 2) / 3
        assert!((db.mean_profile_size() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(FlavorDb::new().mean_profile_size(), 0.0);
    }
}
