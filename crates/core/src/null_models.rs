//! The four randomized-cuisine null models of §IV.B.
//!
//! Every model preserves the cuisine's exact ingredient set and its
//! recipe-size distribution (sizes are resampled from the observed
//! sizes). They differ in how ingredients fill a recipe:
//!
//! * **Random** — uniform over the cuisine's ingredient set;
//! * **Frequency** — proportional to each ingredient's observed
//!   frequency of use;
//! * **Category** — the category composition of a (randomly chosen)
//!   observed recipe is preserved; each slot is filled uniformly from
//!   the matching category;
//! * **Frequency + Category** — category composition preserved, slots
//!   filled frequency-proportionally within each category.
//!
//! Sampled recipes are emitted as *local pool indices* aligned with
//! [`crate::pairing::OverlapCache`] built over the same cuisine, so
//! scoring is pure table lookups.

use rand::{Rng, RngExt};

use culinaria_flavordb::Category;
use culinaria_stats::WeightedAliasSampler;

use crate::view::{CuisineView, FlavorViewRef};

/// Which randomized model to sample from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NullModel {
    /// Uniform ingredient choice.
    Random,
    /// Frequency-of-use preserved.
    Frequency,
    /// Per-recipe category composition preserved, uniform within
    /// category.
    Category,
    /// Category composition preserved and frequency-proportional within
    /// category.
    FrequencyCategory,
}

impl NullModel {
    /// All four models in the paper's presentation order.
    pub const ALL: [NullModel; 4] = [
        NullModel::Random,
        NullModel::Frequency,
        NullModel::Category,
        NullModel::FrequencyCategory,
    ];

    /// Display name as used in Fig 4.
    pub fn name(self) -> &'static str {
        match self {
            NullModel::Random => "Random Cuisine",
            NullModel::Frequency => "Ingredient Frequency",
            NullModel::Category => "Ingredient Category",
            NullModel::FrequencyCategory => "Frequency + Category",
        }
    }

    /// Short column-header form.
    pub fn short(self) -> &'static str {
        match self {
            NullModel::Random => "random",
            NullModel::Frequency => "freq",
            NullModel::Category => "cat",
            NullModel::FrequencyCategory => "freq+cat",
        }
    }

    /// Dense index in `0..4`.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            NullModel::Random => 0,
            NullModel::Frequency => 1,
            NullModel::Category => 2,
            NullModel::FrequencyCategory => 3,
        }
    }
}

impl std::fmt::Display for NullModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable per-worker scratch for allocation-free sampling via
/// [`CuisineSampler::generate_into`].
///
/// Holds the membership bitmask of the recipe under construction (one
/// bit per pool position), replacing the `chosen.contains(..)` linear
/// scans of the reference path. A single scratch is reused across the
/// 100,000 recipes a Monte-Carlo worker generates.
#[derive(Debug, Clone, Default)]
pub struct SampleScratch {
    mask: Vec<u64>,
}

impl SampleScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> SampleScratch {
        SampleScratch::default()
    }

    /// Reset for a pool of `n_pool` positions.
    fn begin(&mut self, n_pool: usize) {
        self.mask.clear();
        self.mask.resize(n_pool.div_ceil(64), 0);
    }

    #[inline]
    fn contains(&self, c: u32) -> bool {
        (self.mask[c as usize / 64] >> (c % 64)) & 1 == 1
    }

    #[inline]
    fn insert(&mut self, c: u32) {
        self.mask[c as usize / 64] |= 1u64 << (c % 64);
    }
}

/// Immutable sampling state for one cuisine; shared read-only across
/// Monte-Carlo threads.
#[derive(Debug, Clone)]
pub struct CuisineSampler {
    /// Pool size (distinct ingredients in the cuisine).
    n_pool: usize,
    /// Frequency sampler over pool positions.
    freq: WeightedAliasSampler,
    /// Pool positions per category.
    by_category: Vec<Vec<u32>>,
    /// Frequency sampler within each category (None when the category
    /// is absent from the pool).
    freq_by_category: Vec<Option<WeightedAliasSampler>>,
    /// Per observed recipe (size ≥ 2 only), the category of each of its
    /// ingredients — the "category composition" templates — laid end to
    /// end in recipe order.
    template_cats: Vec<Category>,
    /// End offset of each template in `template_cats`. A template's
    /// length is its recipe's size, so this also holds the observed
    /// sizes the Random and Frequency models resample uniformly.
    template_ends: Vec<u32>,
}

impl CuisineSampler {
    /// Build from a cuisine over a flavor view (owned database or
    /// zero-copy artifact). The pool and its local indexing are the
    /// cuisine's sorted distinct ingredient set — identical to
    /// [`crate::pairing::OverlapCache::for_cuisine`] on the same
    /// cuisine. Pool ordering, frequency weights and category templates
    /// are identical across representations, so the sampler consumes
    /// any RNG stream identically.
    ///
    /// Returns `None` for cuisines with no recipe of size ≥ 2 (no
    /// pairing signal exists to compare against), and also when a pool
    /// id has no category, i.e. is dead in `view`; the
    /// [`crate::z_analysis`] engines tell the two apart.
    pub fn build<'a>(
        view: impl Into<FlavorViewRef<'a>>,
        cuisine: impl Into<CuisineView<'a>>,
    ) -> Option<CuisineSampler> {
        let (view, cuisine) = (view.into(), cuisine.into());
        let pool = cuisine.ingredient_set();
        if pool.is_empty() {
            return None;
        }
        let freq_map = cuisine.frequencies();
        let weights: Vec<f64> = pool
            .iter()
            .map(|id| freq_map.get(id).copied().unwrap_or(0) as f64)
            .collect();
        let freq = WeightedAliasSampler::new(&weights).ok()?;

        let n_cat = Category::ALL.len();
        let mut by_category: Vec<Vec<u32>> = vec![Vec::new(); n_cat];
        for (pos, id) in pool.iter().enumerate() {
            let cat = view.category(*id)?;
            by_category[cat.index()].push(pos as u32);
        }
        let freq_by_category: Vec<Option<WeightedAliasSampler>> = by_category
            .iter()
            .map(|members| {
                if members.is_empty() {
                    return None;
                }
                let w: Vec<f64> = members
                    .iter()
                    .map(|&p| weights[p as usize].max(1e-9))
                    .collect();
                WeightedAliasSampler::new(&w).ok()
            })
            .collect();

        let mut template_cats = Vec::new();
        let mut template_ends = Vec::new();
        for ings in cuisine.recipe_ingredient_lists() {
            if ings.len() < 2 {
                continue;
            }
            template_cats.extend(
                ings.iter()
                    .map(|&id| view.category(id).expect("live ingredient")),
            );
            let end = u32::try_from(template_cats.len())
                .expect("a cuisine holds fewer than 2^32 ingredient uses");
            template_ends.push(end);
        }
        if template_ends.is_empty() {
            return None;
        }

        Some(CuisineSampler {
            n_pool: pool.len(),
            freq,
            by_category,
            freq_by_category,
            template_cats,
            template_ends,
        })
    }

    /// Pool size.
    pub fn pool_len(&self) -> usize {
        self.n_pool
    }

    /// Number of size/template records (observed recipes of size ≥ 2).
    pub fn n_templates(&self) -> usize {
        self.template_ends.len()
    }

    /// The category template of observed recipe `t` (size ≥ 2 only).
    fn template(&self, t: usize) -> &[Category] {
        let start = if t == 0 {
            0
        } else {
            self.template_ends[t - 1] as usize
        };
        &self.template_cats[start..self.template_ends[t] as usize]
    }

    /// A uniformly resampled observed recipe size: one RNG draw, like a
    /// template draw.
    fn draw_size<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.template(rng.random_range(0..self.n_templates())).len()
    }

    /// Draw a distinct position via `draw`, rejecting already-chosen
    /// positions, with a bounded retry budget and a deterministic
    /// fallback scan.
    fn draw_distinct<R: Rng + ?Sized>(
        &self,
        chosen: &[u32],
        rng: &mut R,
        mut draw: impl FnMut(&mut R) -> u32,
    ) -> Option<u32> {
        for _ in 0..64 {
            let c = draw(rng);
            if !chosen.contains(&c) {
                return Some(c);
            }
        }
        (0..self.n_pool as u32).find(|c| !chosen.contains(c))
    }

    /// Masked variant of [`CuisineSampler::draw_distinct`]: membership
    /// is tested against the scratch bitmask in O(1) instead of a
    /// linear scan. Consumes the RNG identically to the reference path
    /// (a membership test returns the same answer either way), which is
    /// what keeps [`CuisineSampler::generate_into`] stream-compatible
    /// with [`CuisineSampler::generate`].
    fn draw_distinct_masked<R: Rng + ?Sized>(
        &self,
        scratch: &SampleScratch,
        rng: &mut R,
        mut draw: impl FnMut(&mut R) -> u32,
    ) -> Option<u32> {
        for _ in 0..64 {
            let c = draw(rng);
            if !scratch.contains(c) {
                return Some(c);
            }
        }
        (0..self.n_pool as u32).find(|&c| !scratch.contains(c))
    }

    /// Allocation-free [`CuisineSampler::generate`]: writes the recipe
    /// into `out` and tracks distinctness in `scratch`'s bitmask.
    ///
    /// Given the same RNG state this produces exactly the recipe
    /// `generate` would (and leaves the RNG in the same state) — the
    /// `generate_into_matches_generate` test pins that contract. The
    /// Monte-Carlo workers call this path; `generate` remains as the
    /// allocating reference implementation.
    pub fn generate_into<R: Rng + ?Sized>(
        &self,
        model: NullModel,
        rng: &mut R,
        out: &mut Vec<u32>,
        scratch: &mut SampleScratch,
    ) {
        out.clear();
        scratch.begin(self.n_pool);
        match model {
            NullModel::Random | NullModel::Frequency => {
                let size = self.draw_size(rng).min(self.n_pool);
                while out.len() < size {
                    let next = match model {
                        NullModel::Random => self.draw_distinct_masked(scratch, rng, |r| {
                            r.random_range(0..self.n_pool) as u32
                        }),
                        _ => {
                            self.draw_distinct_masked(scratch, rng, |r| self.freq.sample(r) as u32)
                        }
                    };
                    match next {
                        Some(c) => {
                            scratch.insert(c);
                            out.push(c);
                        }
                        None => break,
                    }
                }
            }
            NullModel::Category | NullModel::FrequencyCategory => {
                let template = self.template(rng.random_range(0..self.n_templates()));
                for &cat in template {
                    let members = &self.by_category[cat.index()];
                    let next = if members.is_empty() {
                        self.draw_distinct_masked(scratch, rng, |r| {
                            r.random_range(0..self.n_pool) as u32
                        })
                    } else {
                        let within = match model {
                            NullModel::Category => self.draw_distinct_masked(scratch, rng, |r| {
                                members[r.random_range(0..members.len())]
                            }),
                            _ => {
                                let sampler = self.freq_by_category[cat.index()]
                                    .as_ref()
                                    .expect("non-empty category has a sampler");
                                self.draw_distinct_masked(scratch, rng, |r| {
                                    members[sampler.sample(r)]
                                })
                            }
                        };
                        // `within` never repeats a drawn position, so only
                        // an exhausted pool reaches the uniform draw, which
                        // consumes the RNG as `generate`'s does.
                        within.or_else(|| {
                            self.draw_distinct_masked(scratch, rng, |r| {
                                r.random_range(0..self.n_pool) as u32
                            })
                        })
                    };
                    match next {
                        Some(c) => {
                            scratch.insert(c);
                            out.push(c);
                        }
                        None => break,
                    }
                }
            }
        }
    }

    /// Sample one randomized recipe as local pool positions. The output
    /// length equals the drawn size except when the pool itself is too
    /// small.
    pub fn generate<R: Rng + ?Sized>(&self, model: NullModel, rng: &mut R) -> Vec<u32> {
        match model {
            NullModel::Random | NullModel::Frequency => {
                let size = self.draw_size(rng).min(self.n_pool);
                let mut chosen: Vec<u32> = Vec::with_capacity(size);
                while chosen.len() < size {
                    let next = match model {
                        NullModel::Random => self
                            .draw_distinct(&chosen, rng, |r| r.random_range(0..self.n_pool) as u32),
                        _ => self.draw_distinct(&chosen, rng, |r| self.freq.sample(r) as u32),
                    };
                    match next {
                        Some(c) => chosen.push(c),
                        None => break,
                    }
                }
                chosen
            }
            NullModel::Category | NullModel::FrequencyCategory => {
                let template = self.template(rng.random_range(0..self.n_templates()));
                let mut chosen: Vec<u32> = Vec::with_capacity(template.len());
                for &cat in template {
                    let members = &self.by_category[cat.index()];
                    let next = if members.is_empty() {
                        // Category vanished from the pool (cannot happen
                        // for templates drawn from the same cuisine, but
                        // guard anyway): fall back to uniform.
                        self.draw_distinct(&chosen, rng, |r| r.random_range(0..self.n_pool) as u32)
                    } else {
                        // Distinctness may be unsatisfiable within the
                        // category (template wants 3 spices, pool has 2):
                        // bounded rejection then fall back to uniform
                        // over the whole pool to preserve recipe size.
                        let within = match model {
                            NullModel::Category => self.draw_distinct(&chosen, rng, |r| {
                                members[r.random_range(0..members.len())]
                            }),
                            _ => {
                                let sampler = self.freq_by_category[cat.index()]
                                    .as_ref()
                                    .expect("non-empty category has a sampler");
                                self.draw_distinct(&chosen, rng, |r| members[sampler.sample(r)])
                            }
                        };
                        let exhausted = members.iter().all(|m| chosen.contains(m));
                        match within {
                            Some(c) if !exhausted || !chosen.contains(&c) => Some(c),
                            _ => self.draw_distinct(&chosen, rng, |r| {
                                r.random_range(0..self.n_pool) as u32
                            }),
                        }
                    };
                    match next {
                        Some(c) => chosen.push(c),
                        None => break,
                    }
                }
                chosen
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::{FlavorDb, IngredientId};
    use culinaria_recipedb::{RecipeStore, Region, Source};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 6-ingredient db: 3 herbs, 2 spices, 1 meat.
    fn fixture() -> (FlavorDb, RecipeStore) {
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(20);
        let cats = [
            ("h1", Category::Herb),
            ("h2", Category::Herb),
            ("h3", Category::Herb),
            ("s1", Category::Spice),
            ("s2", Category::Spice),
            ("m1", Category::Meat),
        ];
        for (i, (name, cat)) in cats.iter().enumerate() {
            db.add_ingredient(name, *cat, vec![culinaria_flavordb::MoleculeId(i as u32)])
                .unwrap();
        }
        let mut store = RecipeStore::new();
        let ing = |i: u32| IngredientId(i);
        // Frequencies: h1 appears 3×, s1 2×, others once or twice.
        store
            .add_recipe("r1", Region::Italy, Source::Synthetic, vec![ing(0), ing(3)])
            .unwrap();
        store
            .add_recipe(
                "r2",
                Region::Italy,
                Source::Synthetic,
                vec![ing(0), ing(1), ing(3)],
            )
            .unwrap();
        store
            .add_recipe(
                "r3",
                Region::Italy,
                Source::Synthetic,
                vec![ing(0), ing(4), ing(5)],
            )
            .unwrap();
        (db, store)
    }

    fn sampler() -> (FlavorDb, RecipeStore) {
        fixture()
    }

    #[test]
    fn build_and_shape() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Italy);
        let s = CuisineSampler::build(&db, &cuisine).unwrap();
        // h3 (id 2) is registered but never used by a recipe, so the
        // cuisine's pool has 5 ingredients.
        assert_eq!(s.pool_len(), 5);
        assert_eq!(s.n_templates(), 3);
    }

    #[test]
    fn empty_cuisine_gives_none() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Japan);
        assert!(CuisineSampler::build(&db, &cuisine).is_none());
    }

    #[test]
    fn generated_recipes_distinct_and_sized() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Italy);
        let s = CuisineSampler::build(&db, &cuisine).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for model in NullModel::ALL {
            for _ in 0..500 {
                let r = s.generate(model, &mut rng);
                assert!(r.len() >= 2 && r.len() <= 3, "{model}: size {}", r.len());
                let mut d = r.clone();
                d.sort_unstable();
                d.dedup();
                assert_eq!(d.len(), r.len(), "{model}: duplicates in {r:?}");
                assert!(r.iter().all(|&p| (p as usize) < s.pool_len()));
            }
        }
    }

    #[test]
    fn size_distribution_preserved() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Italy);
        let s = CuisineSampler::build(&db, &cuisine).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut twos = 0;
        let mut threes = 0;
        for _ in 0..6000 {
            match s.generate(NullModel::Random, &mut rng).len() {
                2 => twos += 1,
                3 => threes += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        // Observed sizes are [2, 3, 3] → expect ~1/3 twos.
        let frac = twos as f64 / 6000.0;
        assert!((frac - 1.0 / 3.0).abs() < 0.05, "frac {frac}");
        let _ = threes;
    }

    #[test]
    fn frequency_model_prefers_frequent_ingredients() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Italy);
        let s = CuisineSampler::build(&db, &cuisine).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 6];
        for _ in 0..20_000 {
            for p in s.generate(NullModel::Frequency, &mut rng) {
                counts[p as usize] += 1;
            }
        }
        // h1 (pos 0, freq 3) must be drawn clearly more often than h2
        // (pos 1, freq 1). Distinctness within a recipe flattens the
        // raw 3:1 ratio, so require only a comfortable margin.
        assert!(
            counts[0] as f64 > counts[1] as f64 * 1.5,
            "freq not respected: {counts:?}"
        );
        // Under Random they should be near-equal.
        let mut counts_u = [0usize; 6];
        for _ in 0..20_000 {
            for p in s.generate(NullModel::Random, &mut rng) {
                counts_u[p as usize] += 1;
            }
        }
        let ratio = counts_u[0] as f64 / counts_u[1] as f64;
        assert!(ratio < 1.3 && ratio > 0.7, "uniform skewed: {counts_u:?}");
    }

    #[test]
    fn category_model_preserves_composition() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Italy);
        let s = CuisineSampler::build(&db, &cuisine).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Templates are {H,S}, {H,H,S}, {H,S,M}. A generated recipe's
        // category multiset must match one of those.
        let cat_of = |p: u32| -> Category {
            let id = cuisine.ingredient_set()[p as usize];
            db.ingredient(id).unwrap().category
        };
        let mut allowed: Vec<Vec<Category>> = vec![
            vec![Category::Herb, Category::Spice],
            vec![Category::Herb, Category::Herb, Category::Spice],
            vec![Category::Herb, Category::Spice, Category::Meat],
        ];
        for t in &mut allowed {
            t.sort();
        }
        for model in [NullModel::Category, NullModel::FrequencyCategory] {
            for _ in 0..1000 {
                let r = s.generate(model, &mut rng);
                let mut cats: Vec<Category> = r.iter().map(|&p| cat_of(p)).collect();
                cats.sort();
                assert!(
                    allowed.contains(&cats),
                    "{model}: composition {cats:?} not in templates"
                );
            }
        }
    }

    #[test]
    fn generate_into_matches_generate() {
        let (db, store) = sampler();
        let cuisine = store.cuisine(Region::Italy);
        let s = CuisineSampler::build(&db, &cuisine).unwrap();
        let mut out = Vec::new();
        let mut scratch = SampleScratch::new();
        for model in NullModel::ALL {
            // Two clones of one RNG: the reference and optimized paths
            // must produce identical recipes from identical streams,
            // draw after draw (which also proves they consume the same
            // number of RNG outputs).
            let mut rng_a = StdRng::seed_from_u64(0xFEED ^ model.index() as u64);
            let mut rng_b = rng_a.clone();
            for step in 0..2000 {
                let reference = s.generate(model, &mut rng_a);
                s.generate_into(model, &mut rng_b, &mut out, &mut scratch);
                assert_eq!(reference, out, "{model}: diverged at draw {step}");
            }
        }
    }

    #[test]
    fn model_metadata() {
        assert_eq!(NullModel::ALL.len(), 4);
        for (i, m) in NullModel::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
        assert_eq!(NullModel::Random.short(), "random");
        assert_eq!(
            NullModel::FrequencyCategory.to_string(),
            "Frequency + Category"
        );
    }
}
