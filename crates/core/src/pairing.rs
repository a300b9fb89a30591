//! The flavor-sharing (food-pairing) score and its overlap cache.
//!
//! For a recipe R with n_R ≥ 2 ingredients, the paper defines
//!
//! ```text
//! N_s(R) = 2 / (n_R (n_R − 1)) · Σ_{i<j} |F_i ∩ F_j|
//! ```
//!
//! the mean number of flavor compounds shared by a pair of the recipe's
//! ingredients. A cuisine's score is the average of N_s over its
//! recipes.
//!
//! Cuisine-scale analyses touch the same ingredient pairs millions of
//! times (observed scoring, four null models × 100,000 recipes,
//! leave-one-out contributions), so [`OverlapCache`] precomputes the
//! symmetric pairwise-overlap matrix over the cuisine's ingredient pool
//! once; scoring then reduces to O(n²) table lookups per recipe. The
//! `pairing_score` Criterion bench quantifies the cache's advantage
//! over direct set intersection (an ablation called out in DESIGN.md).
//!
//! Food design, the application the paper motivates, ranks a cuisine's
//! pairs by `overlap / (1 + co-occurrence)`: [`CoocTriangle`] counts
//! co-occurrence once per store, and [`novel_pairings`] ranks a pool
//! against it.

use std::cmp::Ordering;
use std::collections::HashMap;

use culinaria_flavordb::profile::shared_sorted;
use culinaria_flavordb::{kernel, FlavorDb, FlavorDbError, IngredientId, MoleculeUniverse};
use culinaria_obs::Metrics;
use culinaria_recipedb::{Cuisine, Region};
use culinaria_stats::{fault, pool, tile};

use crate::error::StageFailure;
use crate::view::{CuisineView, FlavorViewRef, RecipesViewRef};

/// N_s(R) computed directly from flavor profiles (no cache).
///
/// Returns 0 for recipes with fewer than two ingredients — such recipes
/// carry no pairing information (the paper's averages are over pairs).
///
/// ```
/// use culinaria_core::pairing::recipe_pairing_score;
/// use culinaria_flavordb::{Category, FlavorDb};
///
/// let mut db = FlavorDb::new();
/// let m: Vec<_> = (0..4)
///     .map(|k| db.add_molecule(&format!("m{k}"), &[]).unwrap())
///     .collect();
/// let a = db.add_ingredient("a", Category::Herb, vec![m[0], m[1]]).unwrap();
/// let b = db.add_ingredient("b", Category::Herb, vec![m[1], m[2]]).unwrap();
/// let c = db.add_ingredient("c", Category::Meat, vec![m[3]]).unwrap();
///
/// // Pairs (a,b)=1, (a,c)=0, (b,c)=0 → Ns = 2·1/(3·2) = 1/3.
/// let ns = recipe_pairing_score(&db, &[a, b, c]);
/// assert!((ns - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn recipe_pairing_score(db: &FlavorDb, ingredients: &[IngredientId]) -> f64 {
    let n = ingredients.len();
    if n < 2 {
        return 0.0;
    }
    let profiles: Vec<_> = ingredients
        .iter()
        .map(|&id| {
            &db.ingredient(id)
                .expect("recipes only reference live ingredients")
                .profile
        })
        .collect();
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += profiles[i].shared_count(profiles[j]);
        }
    }
    (2.0 * total as f64) / (n as f64 * (n as f64 - 1.0))
}

/// [`recipe_pairing_score`] over a representation-agnostic flavor view:
/// works for owned databases and zero-copy artifacts alike, and returns
/// `None` (instead of panicking) when an id is dead — the right shape
/// for serving externally-supplied ingredient sets. Profiles are stored
/// sorted in both representations and counted by the same
/// [`shared_sorted`] walk as [`FlavorProfile::shared_count`], so the
/// score is bit-identical to the owned path (and to
/// [`OverlapCache::score_ids`] when every id is in the cache's pool).
///
/// [`FlavorProfile::shared_count`]: culinaria_flavordb::FlavorProfile::shared_count
pub fn recipe_pairing_score_view(
    view: FlavorViewRef<'_>,
    ingredients: &[IngredientId],
) -> Option<f64> {
    let n = ingredients.len();
    if n < 2 {
        return Some(0.0);
    }
    let mut profiles = Vec::with_capacity(n);
    for &id in ingredients {
        profiles.push(view.profile_molecules(id).ok()?);
    }
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += shared_sorted(profiles[i], profiles[j]);
        }
    }
    Some((2.0 * total as f64) / (n as f64 * (n as f64 - 1.0)))
}

/// Quantity-weighted flavor sharing — the §V extension "how to
/// incorporate … quantity of ingredients":
///
/// ```text
/// N_s^w(R) = Σ_{i<j} w_i w_j |F_i ∩ F_j| / Σ_{i<j} w_i w_j
/// ```
///
/// With equal weights this reduces exactly to [`recipe_pairing_score`].
/// Returns 0 for fewer than two positively-weighted ingredients or a
/// zero total pair weight.
pub fn weighted_recipe_pairing_score(db: &FlavorDb, ingredients: &[(IngredientId, f64)]) -> f64 {
    let items: Vec<(&culinaria_flavordb::FlavorProfile, f64)> = ingredients
        .iter()
        .filter(|&&(_, w)| w > 0.0)
        .map(|&(id, w)| {
            (
                &db.ingredient(id)
                    .expect("recipes only reference live ingredients")
                    .profile,
                w,
            )
        })
        .collect();
    if items.len() < 2 {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let pair_w = items[i].1 * items[j].1;
            num += pair_w * items[i].0.shared_count(items[j].0) as f64;
            den += pair_w;
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean flavor sharing of a cuisine: ⟨N_s⟩ over its recipes (recipes
/// with fewer than two ingredients are skipped). 0 for an empty cuisine.
pub fn mean_cuisine_score(db: &FlavorDb, cuisine: &Cuisine<'_>) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for r in cuisine.recipes() {
        if r.size() >= 2 {
            total += recipe_pairing_score(db, r.ingredients());
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Precomputed pairwise overlap matrix over an ingredient pool.
///
/// The pool is a cuisine's distinct ingredient set mapped to dense
/// *local* indices `0..len`; overlaps are stored in a packed upper
/// triangle of `u16`. A cell counts at most the shorter profile's
/// molecules, so the builds refuse a pool profile longer than
/// `u16::MAX` (65,535) molecules and no cell can overflow.
#[derive(Debug, Clone)]
pub struct OverlapCache {
    pool: Vec<IngredientId>,
    local: HashMap<IngredientId, u32>,
    /// Packed strict upper triangle, row-major: entry (i, j), i < j, at
    /// `i*(2n−i−1)/2 + (j−i−1)`.
    tri: Vec<u16>,
}

/// The longest flavor profile an [`OverlapCache`] pool may hold: every
/// cell is a `u16`, and an overlap never exceeds either profile's
/// length.
const MAX_PROFILE_MOLECULES: usize = u16::MAX as usize;

/// The failure for pool entry `index` (ingredient `id`) whose profile
/// of `len` molecules is longer than a `u16` cell can count.
fn profile_too_long(
    stage: &'static str,
    index: usize,
    id: IngredientId,
    len: usize,
) -> StageFailure {
    let message = format!(
        "ingredient id {} has {len} molecules; overlap cells count at most {MAX_PROFILE_MOLECULES}",
        id.index()
    );
    StageFailure::error(stage, index, message)
}

impl OverlapCache {
    /// Build the cache for an ingredient pool over a flavor view (owned
    /// database or zero-copy artifact) with `n_threads` workers
    /// (0 = available parallelism).
    ///
    /// Profiles are first packed as bitsets over the pool's own
    /// molecule universe ([`culinaria_flavordb::MoleculeUniverse`]), so
    /// each intersection is a lane-widened word-AND + popcount
    /// ([`culinaria_flavordb::kernel`]) instead of a sorted merge. The
    /// strict upper triangle is cut into L2-sized row×column tiles
    /// ([`culinaria_stats::tile`]) and the tiles fan out across the
    /// worker pool, so each packed strip is streamed from memory once
    /// per tile instead of once per cell. Tile geometry never depends
    /// on the requested thread count, and overlap counts are exact
    /// integers, so the result is bit-identical for every thread
    /// count. Profiles resolved from an owned database and from a CFDB2
    /// artifact view are the same sorted `&[MoleculeId]` slices, so the
    /// cache is bit-identical across representations too.
    ///
    /// Instruments recorded through `metrics`: spans `overlap.build`
    /// (whole build), `overlap.build.pack` (bitset packing) and
    /// `overlap.build.sweep` (the parallel O(n²) intersection sweep),
    /// gauge `overlap.pool_size`, counter `overlap.cells` (triangle
    /// entries computed), plus the shared `pool.*` instruments. The
    /// cache does not depend on whether `metrics` is enabled.
    ///
    /// A pool entry whose ingredient id is dead (removed or out of
    /// range), or whose profile is longer than `u16::MAX` molecules,
    /// fails at stage `overlap.pack`; a failing tile fails at
    /// `overlap.tile` (the index is a band-major tile index, see
    /// [`culinaria_stats::tile`]). Either way the `error.<stage>`
    /// counter is bumped and the lowest failing index is reported,
    /// identically for any thread count.
    pub fn build<'a>(
        view: impl Into<FlavorViewRef<'a>>,
        pool: &[IngredientId],
        n_threads: usize,
        metrics: &Metrics,
    ) -> Result<OverlapCache, StageFailure> {
        OverlapCache::try_build_tiled(view.into(), pool, n_threads, metrics, None)
    }

    /// The tiled build behind [`OverlapCache::build`]. `tile_edge`
    /// overrides the L2-derived tile size (tests sweep it to prove the
    /// merge is geometry-independent); `None` uses
    /// [`tile::tile_rows`].
    fn try_build_tiled(
        view: FlavorViewRef<'_>,
        pool: &[IngredientId],
        n_threads: usize,
        metrics: &Metrics,
        tile_edge: Option<usize>,
    ) -> Result<OverlapCache, StageFailure> {
        let build_span = metrics.span("overlap.build");
        // Held (not read) so the whole build records on scope exit.
        let _build_guard = build_span.enter();
        let n = pool.len();
        metrics.gauge("overlap.pool_size").set(n as i64);
        metrics
            .counter("overlap.cells")
            .add((n * n.saturating_sub(1) / 2) as u64);

        let pack_guard = build_span.child("pack").enter();
        let mut profiles: Vec<&[culinaria_flavordb::MoleculeId]> = Vec::with_capacity(n);
        for (i, &id) in pool.iter().enumerate() {
            fault::probe("overlap.pack", i).map_err(|e| {
                StageFailure::error("overlap.pack", i, e.to_string()).record(metrics)
            })?;
            match view.profile_molecules(id) {
                Ok(p) if p.len() > MAX_PROFILE_MOLECULES => {
                    return Err(profile_too_long("overlap.pack", i, id, p.len()).record(metrics))
                }
                Ok(p) => profiles.push(p),
                Err(e) => return Err(dead_pool_id(i, id, e).record(metrics)),
            }
        }
        let universe = MoleculeUniverse::build(profiles.iter().copied());
        let words = universe.words();
        // One flat row-major matrix: row i at `i*words..(i+1)*words`.
        // Tiles slice strips out of it without chasing Vec pointers.
        let mut bits: Vec<u64> = Vec::with_capacity(n * words);
        for p in &profiles {
            bits.extend_from_slice(universe.pack(p).words());
        }
        pack_guard.stop();

        // Cut the strict upper triangle into L2-sized tiles and fan
        // the tiles out across the pool. Geometry is a function of
        // (n, words) and the machine only — never `n_threads` — so the
        // task list, every fault-probe index, and the merged output
        // are identical across thread counts.
        let sweep_guard = build_span.child("sweep").enter();
        let edge = tile_edge.unwrap_or_else(|| tile::tile_rows(n, words * 8));
        let tiles = tile::TriangleTiles::new(n, edge.max(1));
        metrics.gauge("overlap.tile_rows").set(tiles.tile() as i64);
        let results = pool::try_run_observed(
            n_threads,
            tiles.len(),
            &pool::PoolObs::new(metrics),
            || (),
            |_, t| -> Result<Vec<u16>, fault::InjectedFault> {
                fault::probe("overlap.tile", t)?;
                let (rows, cols) = tiles.tile_bounds(t);
                let mut cells = Vec::with_capacity(tiles.cell_count(t));
                for i in rows {
                    let row_bits = &bits[i * words..][..words];
                    for j in cols.start.max(i + 1)..cols.end {
                        let col_bits = &bits[j * words..][..words];
                        // Packing capped every profile, so this fits.
                        cells.push(kernel::and_popcount(row_bits, col_bits) as u16);
                    }
                }
                Ok(cells)
            },
        )
        .map_err(|f| StageFailure::from_task("overlap.tile", f).record(metrics))?;
        sweep_guard.stop();

        // Scatter each tile's row-major cells back into the packed
        // triangle. Destinations are disjoint and position-derived, so
        // the merged bytes do not depend on tile geometry or order.
        let mut tri = vec![0u16; n * n.saturating_sub(1) / 2];
        let row_base = |i: usize| i * (2 * n - i - 1) / 2;
        for (t, cells) in results.into_iter().enumerate() {
            let (rows, cols) = tiles.tile_bounds(t);
            let mut cur = 0usize;
            for i in rows {
                let j0 = cols.start.max(i + 1);
                if j0 >= cols.end {
                    continue;
                }
                let len = cols.end - j0;
                let at = row_base(i) + (j0 - i - 1);
                tri[at..at + len].copy_from_slice(&cells[cur..cur + len]);
                cur += len;
            }
        }
        let local = pool
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        Ok(OverlapCache {
            pool: pool.to_vec(),
            local,
            tri,
        })
    }

    /// Reassemble a cache from a pool and its packed upper triangle —
    /// e.g. a precomputed overlap section of a CFDB2 artifact. `None`
    /// when `tri` is not exactly `n(n−1)/2` entries for the pool.
    ///
    /// Sections are produced by [`OverlapCache::tri`] on a cache built
    /// by this same code, so a reassembled cache is byte-for-byte the
    /// cache that was serialized.
    pub fn from_parts(pool: &[IngredientId], tri: Vec<u16>) -> Option<OverlapCache> {
        let n = pool.len();
        if tri.len() != n * n.saturating_sub(1) / 2 {
            return None;
        }
        let local = pool
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        Some(OverlapCache {
            pool: pool.to_vec(),
            local,
            tri,
        })
    }

    /// The packed strict upper triangle, row-major (the serialized form
    /// of the cache; see [`OverlapCache::from_parts`]).
    pub fn tri(&self) -> &[u16] {
        &self.tri
    }

    /// Grow the cache to a larger pool, recomputing **only the rows
    /// touched by new ingredients** — the incremental-update half of
    /// streaming ingestion. `view` is an owned database or a zero-copy
    /// artifact.
    ///
    /// `pool` is the grown cuisine's ingredient pool and must contain
    /// every id already in the cache (a shrunk pool is a caller bug and
    /// an error). Cells whose two ingredients were both already cached
    /// are *copied* from the existing triangle; only cells with at
    /// least one new ingredient are computed, as the same
    /// bitset-AND-popcount the cold build uses. Overlap cells are exact
    /// intersection counts, independent of the molecule universe they
    /// are popcounted in, so the result is **bit-identical to a cold
    /// [`OverlapCache::build`] over `pool`** while doing O(new·total)
    /// intersection work instead of O(total²).
    ///
    /// A grown-pool profile longer than `u16::MAX` molecules fails at
    /// stage `overlap.extend`, at its index in `pool`.
    pub fn extend<'a>(
        &self,
        view: impl Into<FlavorViewRef<'a>>,
        pool: &[IngredientId],
    ) -> Result<OverlapCache, StageFailure> {
        let view = view.into();
        let m = pool.len();
        // Each grown-pool position is either an existing local index
        // (copy its cells) or a new ingredient (compute its cells).
        let old: Vec<Option<u32>> = pool.iter().map(|&id| self.local_index(id)).collect();
        let kept = old.iter().flatten().count();
        if kept < self.pool.len() {
            return Err(StageFailure::error(
                "overlap.extend",
                0,
                format!(
                    "grown pool keeps {kept} of {} cached ingredients; \
                     the pool may only grow",
                    self.pool.len()
                ),
            ));
        }
        // Pack every profile once (new cells pair new ingredients with
        // arbitrary rows). The universe only needs to *cover* the
        // profiles — counts are exact either way — so building it from
        // the grown pool keeps new cells equal to a cold build's.
        let mut profiles: Vec<&[culinaria_flavordb::MoleculeId]> = Vec::with_capacity(m);
        for (i, &id) in pool.iter().enumerate() {
            match view.profile_molecules(id) {
                Ok(p) if p.len() > MAX_PROFILE_MOLECULES => {
                    return Err(profile_too_long("overlap.extend", i, id, p.len()))
                }
                Ok(p) => profiles.push(p),
                Err(e) => {
                    return Err(StageFailure::error(
                        "overlap.extend",
                        i,
                        format!("ingredient id {} is not usable: {e}", id.index()),
                    ))
                }
            }
        }
        let universe = MoleculeUniverse::build(profiles.iter().copied());
        let words = universe.words();
        let mut bits: Vec<u64> = Vec::with_capacity(m * words);
        for p in &profiles {
            bits.extend_from_slice(universe.pack(p).words());
        }

        let mut tri = vec![0u16; m * m.saturating_sub(1) / 2];
        let row_base = |i: usize| i * (2 * m - i - 1) / 2;
        for i in 0..m {
            let row_bits = &bits[i * words..][..words];
            for j in (i + 1)..m {
                let cell = match (old[i], old[j]) {
                    (Some(a), Some(b)) => self.cell(a, b),
                    // Capped profiles above: the count fits a cell.
                    _ => kernel::and_popcount(row_bits, &bits[j * words..][..words]) as u16,
                };
                tri[row_base(i) + (j - i - 1)] = cell;
            }
        }
        OverlapCache::from_parts(pool, tri)
            .ok_or_else(|| StageFailure::error("overlap.extend", 0, "triangle/pool size mismatch"))
    }

    /// Build over a cuisine's distinct ingredient set with the available
    /// parallelism and no instruments.
    ///
    /// # Panics
    /// Panics on a dead ingredient id — call [`OverlapCache::build`]
    /// over `cuisine.ingredient_set()` to get a structured
    /// [`StageFailure`] instead.
    pub fn for_cuisine<'a>(
        flavor: impl Into<FlavorViewRef<'a>>,
        cuisine: impl Into<CuisineView<'a>>,
    ) -> OverlapCache {
        let pool = cuisine.into().ingredient_set();
        OverlapCache::build(flavor, &pool, 0, &Metrics::disabled())
            .unwrap_or_else(|failure| panic!("overlap cache build failed: {failure}"))
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// The pool in local-index order.
    pub fn pool(&self) -> &[IngredientId] {
        &self.pool
    }

    /// Local index of an ingredient, if it is in the pool.
    pub fn local_index(&self, id: IngredientId) -> Option<u32> {
        self.local.get(&id).copied()
    }

    /// Overlap between two *local* indices. O(1).
    ///
    /// # Panics
    /// Panics if an index is out of range; `overlap(i, i)` is defined as
    /// 0 (a recipe never pairs an ingredient with itself).
    #[inline]
    pub fn overlap(&self, i: u32, j: u32) -> u32 {
        u32::from(self.cell(i, j))
    }

    /// The stored cell behind [`OverlapCache::overlap`].
    #[inline]
    fn cell(&self, i: u32, j: u32) -> u16 {
        if i == j {
            return 0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let (a, b) = (a as usize, b as usize);
        let n = self.pool.len();
        debug_assert!(b < n);
        self.tri[a * (2 * n - a - 1) / 2 + (b - a - 1)]
    }

    /// N_s over a recipe given as local indices. 0 for fewer than two.
    pub fn score_local(&self, locals: &[u32]) -> f64 {
        let n = locals.len();
        if n < 2 {
            return 0.0;
        }
        let mut total = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                total += u64::from(self.overlap(locals[i], locals[j]));
            }
        }
        (2.0 * total as f64) / (n as f64 * (n as f64 - 1.0))
    }

    /// N_s over a recipe given as ingredient ids (ids outside the pool
    /// are an error in the caller; returns `None` in that case).
    pub fn score_ids(&self, ingredients: &[IngredientId]) -> Option<f64> {
        self.score_ids_with(ingredients, &mut Vec::new())
    }

    /// [`OverlapCache::score_ids`] writing local indices into a
    /// caller-owned scratch buffer, so batch scoring (a cuisine's whole
    /// recipe list, a Monte-Carlo ensemble) allocates nothing per
    /// recipe.
    ///
    /// ```
    /// use culinaria_core::pairing::{recipe_pairing_score, OverlapCache};
    /// use culinaria_flavordb::{Category, FlavorDb};
    /// use culinaria_obs::Metrics;
    ///
    /// let mut db = FlavorDb::new();
    /// let m: Vec<_> = (0..3)
    ///     .map(|k| db.add_molecule(&format!("m{k}"), &[]).unwrap())
    ///     .collect();
    /// let a = db.add_ingredient("a", Category::Herb, vec![m[0], m[1]]).unwrap();
    /// let b = db.add_ingredient("b", Category::Herb, vec![m[1], m[2]]).unwrap();
    ///
    /// let cache = OverlapCache::build(&db, &[a, b], 1, &Metrics::disabled()).unwrap();
    /// let mut scratch = Vec::new();
    /// let cached = cache.score_ids_with(&[a, b], &mut scratch).unwrap();
    /// assert_eq!(cached, recipe_pairing_score(&db, &[a, b]));
    ///
    /// // Ids outside the cache's pool are the caller's bug: None.
    /// let c = db.add_ingredient("c", Category::Spice, vec![m[0]]).unwrap();
    /// assert!(cache.score_ids_with(&[a, c], &mut scratch).is_none());
    /// ```
    pub fn score_ids_with(
        &self,
        ingredients: &[IngredientId],
        scratch: &mut Vec<u32>,
    ) -> Option<f64> {
        scratch.clear();
        for &id in ingredients {
            scratch.push(self.local_index(id)?);
        }
        Some(self.score_local(scratch))
    }

    /// Mean cuisine score via the cache; skips sub-pair recipes.
    /// `None` if any recipe references an ingredient outside the pool.
    pub fn mean_cuisine_score(&self, cuisine: &Cuisine<'_>) -> Option<f64> {
        self.mean_score_over(cuisine.recipes().iter().map(|r| r.ingredients()))
    }

    /// [`OverlapCache::mean_cuisine_score`] over a [`CuisineView`].
    /// Recipe iteration order is recipe-id order in both
    /// representations, so the fold (and its rounding) is identical.
    pub fn mean_cuisine_score_view(&self, cuisine: &CuisineView<'_>) -> Option<f64> {
        self.mean_score_over(cuisine.recipe_ingredient_lists())
    }

    /// The shared fold behind both mean-score entry points.
    fn mean_score_over<'s>(
        &self,
        recipes: impl Iterator<Item = &'s [IngredientId]>,
    ) -> Option<f64> {
        let mut total = 0.0;
        let mut n = 0usize;
        let mut scratch = Vec::new();
        for ings in recipes {
            if ings.len() >= 2 {
                total += self.score_ids_with(ings, &mut scratch)?;
                n += 1;
            }
        }
        Some(if n == 0 { 0.0 } else { total / n as f64 })
    }
}

/// Store-wide recipe co-occurrence: for every pair of ingredient ids
/// the store uses, the number of recipes that contain both.
///
/// Sized by the number of *distinct* ids in use (one `u32` per pair,
/// packed like [`OverlapCache`]'s triangle over the sorted id union),
/// never by the largest id value. One build serves every region's
/// [`novel_pairings`].
///
/// ```
/// use culinaria_core::pairing::CoocTriangle;
/// use culinaria_flavordb::IngredientId as I;
/// use culinaria_recipedb::{RecipeStore, Region, Source};
///
/// let mut store = RecipeStore::new();
/// store.add_recipe("r1", Region::Italy, Source::Synthetic, vec![I(1), I(2), I(7)]).unwrap();
/// store.add_recipe("r2", Region::Japan, Source::Synthetic, vec![I(2), I(7)]).unwrap();
/// let cooc = CoocTriangle::build(&store);
/// assert_eq!(cooc.count(I(7), I(2)), 2);
/// assert_eq!(cooc.count(I(1), I(2)), 1);
/// assert_eq!(cooc.count(I(1), I(9)), 0); // 9 is unused
/// ```
#[derive(Debug, Clone)]
pub struct CoocTriangle {
    /// Every id some recipe uses, ascending: triangle position order.
    ids: Vec<IngredientId>,
    /// Packed strict upper triangle over `ids` positions, laid out like
    /// [`OverlapCache`]'s.
    tri: Vec<u32>,
}

impl CoocTriangle {
    /// Count every recipe of every region, in one pass over the store.
    pub fn build<'a>(recipes: impl Into<RecipesViewRef<'a>>) -> CoocTriangle {
        let recipes = recipes.into();
        let cuisines: Vec<CuisineView<'a>> =
            Region::ALL.iter().map(|&r| recipes.cuisine(r)).collect();
        // The union of the region pools: each pool is a sorted region
        // set, far smaller than the store's flattened recipe lists.
        let mut ids: Vec<IngredientId> = cuisines.iter().flat_map(|c| c.ingredient_set()).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut cooc = CoocTriangle {
            tri: vec![0u32; ids.len() * ids.len().saturating_sub(1) / 2],
            ids,
        };
        // Recipe lists are strictly sorted in both views, so their
        // positions come out distinct and ascending.
        let mut members: Vec<usize> = Vec::new();
        for cuisine in &cuisines {
            for ings in cuisine.recipe_ingredient_lists() {
                members.clear();
                members.extend(ings.iter().filter_map(|&id| cooc.position(id)));
                for (k, &a) in members.iter().enumerate() {
                    for &b in &members[k + 1..] {
                        let at = cooc.index(a, b);
                        cooc.tri[at] += 1;
                    }
                }
            }
        }
        cooc
    }

    /// Recipes containing both `a` and `b`, in either argument order;
    /// 0 when the ids are equal or either is unused.
    pub fn count(&self, a: IngredientId, b: IngredientId) -> u32 {
        match (self.position(a), self.position(b)) {
            (Some(p), Some(q)) if p != q => self.tri[self.index(p, q)],
            _ => 0,
        }
    }

    fn position(&self, id: IngredientId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Triangle slot of two distinct positions, in either order.
    fn index(&self, p: usize, q: usize) -> usize {
        let (a, b) = if p < q { (p, q) } else { (q, p) };
        let n = self.ids.len();
        a * (2 * n - a - 1) / 2 + (b - a - 1)
    }
}

/// One ranked pool pair of [`novel_pairings`]; `i < j` are local
/// indices into the [`OverlapCache`]'s pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NovelPairing {
    /// `overlap / (1 + cooc)`: high overlap, rarely used together.
    pub novelty: f64,
    /// Shared flavor compounds.
    pub overlap: u32,
    /// Recipes in the store that use both ingredients.
    pub cooc: u32,
    /// Local index of the first ingredient.
    pub i: u32,
    /// Local index of the second ingredient.
    pub j: u32,
}

/// The ranking of [`novel_pairings`]: novelty descending, then `i`,
/// then `j` ascending — the order a stable novelty sort leaves the
/// `(i, j)` enumeration in.
fn novelty_order(a: &NovelPairing, b: &NovelPairing) -> Ordering {
    b.novelty
        .total_cmp(&a.novelty)
        .then(a.i.cmp(&b.i))
        .then(a.j.cmp(&b.j))
}

/// The `k` most novel pairs of the cache's pool (every pair that shares
/// at least one compound when `k` exceeds their number), ranked by
/// novelty descending with ties in `(i, j)` order. Co-occurrence comes
/// from `cooc`; a pool id the triangle does not hold counts 0.
///
/// The candidate buffer holds at most `2k` pairs: whenever it fills, a
/// linear selection cuts it back to its top `k`, and from then on a
/// pair ranked after the k-th kept pair is skipped unpushed. The
/// ranking is a strict total order (`(i, j)` breaks every novelty tie),
/// so the cuts and skips keep exactly the pairs a selection over every
/// pair would keep. Only the final top `k` are sorted.
pub fn novel_pairings(cache: &OverlapCache, cooc: &CoocTriangle, k: usize) -> Vec<NovelPairing> {
    if k == 0 {
        return Vec::new();
    }
    // Each pool id's triangle position, looked up once per call.
    let pos: Vec<Option<usize>> = cache.pool().iter().map(|&id| cooc.position(id)).collect();
    let n = cache.len();
    let limit = k.saturating_mul(2);
    let mut out = Vec::with_capacity(limit.min(n * n.saturating_sub(1) / 2));
    // The k-th pair kept by the last cut: a pair ranked after it already
    // has k pairs ahead of it, so it can never reach the top k.
    let mut cutoff: Option<NovelPairing> = None;
    for i in 0..n {
        for j in (i + 1)..n {
            let overlap = cache.overlap(i as u32, j as u32);
            if overlap == 0 {
                continue;
            }
            let used = match (pos[i], pos[j]) {
                (Some(p), Some(q)) if p != q => cooc.tri[cooc.index(p, q)],
                _ => 0,
            };
            let pairing = NovelPairing {
                novelty: f64::from(overlap) / (1.0 + f64::from(used)),
                overlap,
                cooc: used,
                i: i as u32,
                j: j as u32,
            };
            if cutoff.is_some_and(|c| novelty_order(&pairing, &c).is_gt()) {
                continue;
            }
            out.push(pairing);
            if out.len() == limit {
                out.select_nth_unstable_by(k - 1, novelty_order);
                out.truncate(k);
                cutoff = Some(out[k - 1]);
            }
        }
    }
    if k < out.len() {
        out.select_nth_unstable_by(k - 1, novelty_order);
        out.truncate(k);
    }
    // Callers cache the result: hold the pairs, not the buffer.
    out.shrink_to_fit();
    out.sort_unstable_by(novelty_order);
    out
}

/// The `overlap.pack` failure for the dead id at pool index `index`.
/// The z_analysis engines report a dead id they find before any cache
/// is built with this same failure, so it reads alike on every path.
pub(crate) fn dead_pool_id(index: usize, id: IngredientId, err: FlavorDbError) -> StageFailure {
    let message = format!("ingredient id {} is not usable: {err}", id.index());
    StageFailure::error("overlap.pack", index, message)
}

/// Reusable scratch for k-way bitset intersections along a
/// lexicographic combination walk — the kernel under the n-tuple
/// analyses ([`crate::ntuple`]).
///
/// The walk maintains a *prefix-mask stack*: mask `d` is the AND of the
/// profiles chosen at combination positions `0..=d`, so extending the
/// current prefix by one member costs a single word-AND + popcount over
/// the packed blocks instead of a k-way set intersection from scratch.
/// An empty prefix mask prunes the entire subtree of deeper
/// combinations (every superset's intersection is also empty), which
/// skips most of C(n, k) in practice — k-wise common molecules are
/// combinatorially rare.
///
/// One scratch is reused across every recipe a worker scores; the mask
/// stack is resized (never reallocated at steady state) per call.
#[derive(Debug, Clone, Default)]
pub struct IntersectScratch {
    /// Prefix masks, depth-major: depth `d` occupies
    /// `d*words..(d+1)*words`. Leaf depths are popcounted without being
    /// stored, so only `k − 1` levels are ever materialized.
    masks: Vec<u64>,
}

impl IntersectScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> IntersectScratch {
        IntersectScratch::default()
    }

    /// `Σ_{S ⊆ members, |S| = k} |∩_{i∈S} F_i|` over profiles packed as
    /// `words`-block rows of `bits` (row `r` at `r*words..(r+1)*words`).
    ///
    /// Returns 0 when `k == 0` or `k > members.len()`; `k == 1` is the
    /// popcount sum of the members. Counts are exact integers, so the
    /// result is independent of scratch reuse and thread placement.
    pub fn ktuple_sum(&mut self, bits: &[u64], words: usize, members: &[u32], k: usize) -> u64 {
        let n = members.len();
        if k == 0 || k > n || words == 0 {
            return 0;
        }
        let row = |m: u32| -> &[u64] { &bits[m as usize * words..][..words] };
        if k == 1 {
            return members.iter().map(|&m| kernel::popcount(row(m))).sum();
        }
        self.masks.clear();
        self.masks.resize((k - 1) * words, 0);
        let walk = PrefixWalk {
            bits,
            words,
            members,
            k,
        };
        let mut total = 0u64;
        walk.descend(0, 0, &mut self.masks, &mut total);
        total
    }
}

/// The fixed inputs of one combination walk (`k ≥ 2`), so the recursion
/// threads only its per-level state.
struct PrefixWalk<'a> {
    bits: &'a [u64],
    words: usize,
    members: &'a [u32],
    k: usize,
}

impl PrefixWalk<'_> {
    /// One level of the lexicographic combination walk: choose position
    /// `depth` from `start..`, AND the chosen row into the prefix-mask
    /// stack, and either popcount (leaf) or recurse — skipping the
    /// subtree whenever the prefix mask goes empty.
    fn descend(&self, depth: usize, start: usize, masks: &mut [u64], total: &mut u64) {
        let (n, words) = (self.members.len(), self.words);
        let leaf = depth + 1 == self.k;
        // Leave room for the remaining k − depth − 1 positions.
        for i in start..=(n - (self.k - depth)) {
            let row = &self.bits[self.members[i] as usize * words..][..words];
            if depth == 0 {
                // k ≥ 2 here, so depth 0 is never a leaf: seed the stack.
                let ones = kernel::copy_popcount(&mut masks[..words], row);
                if ones > 0 {
                    self.descend(1, i + 1, masks, total);
                }
            } else {
                let (shallow, deep) = masks.split_at_mut(depth * words);
                let prev = &shallow[(depth - 1) * words..];
                if leaf {
                    *total += kernel::and_popcount(prev, row);
                } else {
                    let cur = &mut deep[..words];
                    let ones = kernel::and_store_popcount(cur, prev, row);
                    if ones > 0 {
                        self.descend(depth + 1, i + 1, masks, total);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::Category;
    use culinaria_recipedb::{RecipeStore, Region, Source};

    /// db with 4 ingredients; overlaps: (a,b)=2, (a,c)=1, (b,c)=1,
    /// x shares nothing.
    fn fixture() -> (FlavorDb, Vec<IngredientId>) {
        let mut db = FlavorDb::new();
        let m: Vec<_> = (0..8)
            .map(|k| db.add_molecule(&format!("m{k}"), &[]).unwrap())
            .collect();
        let a = db
            .add_ingredient("a", Category::Herb, vec![m[0], m[1], m[2]])
            .unwrap();
        let b = db
            .add_ingredient("b", Category::Herb, vec![m[1], m[2], m[3]])
            .unwrap();
        let c = db
            .add_ingredient("c", Category::Spice, vec![m[2], m[4]])
            .unwrap();
        let x = db
            .add_ingredient("x", Category::Meat, vec![m[6], m[7]])
            .unwrap();
        (db, vec![a, b, c, x])
    }

    /// An uninstrumented build over a live pool.
    fn build(db: &FlavorDb, pool: &[IngredientId], n_threads: usize) -> OverlapCache {
        OverlapCache::build(db, pool, n_threads, &Metrics::disabled()).expect("live pool")
    }

    #[test]
    fn direct_score_formula() {
        let (db, ids) = fixture();
        let (a, b, c, x) = (ids[0], ids[1], ids[2], ids[3]);
        // Pair (a,b): 2 shared.
        assert_eq!(recipe_pairing_score(&db, &[a, b]), 2.0);
        // Triple (a,b,c): pairs share 2+1+1 = 4, over 3 pairs → 4/3.
        let s = recipe_pairing_score(&db, &[a, b, c]);
        assert!((s - 4.0 / 3.0).abs() < 1e-12);
        // Disjoint pair.
        assert_eq!(recipe_pairing_score(&db, &[a, x]), 0.0);
        // Degenerate sizes.
        assert_eq!(recipe_pairing_score(&db, &[a]), 0.0);
        assert_eq!(recipe_pairing_score(&db, &[]), 0.0);
    }

    #[test]
    fn weighted_score_reduces_to_unweighted() {
        let (db, ids) = fixture();
        for subset in [&ids[0..2], &ids[0..3], &ids[0..4]] {
            let plain = recipe_pairing_score(&db, subset);
            let weighted: Vec<(IngredientId, f64)> = subset.iter().map(|&id| (id, 2.5)).collect();
            let w = weighted_recipe_pairing_score(&db, &weighted);
            assert!((plain - w).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_score_tracks_the_heavy_pair() {
        let (db, ids) = fixture();
        let (a, b, _, x) = (ids[0], ids[1], ids[2], ids[3]);
        // (a,b) share 2; (a,x) and (b,x) share 0. Up-weighting x drags
        // the score down; up-weighting a,b raises it.
        let heavy_ab = weighted_recipe_pairing_score(&db, &[(a, 5.0), (b, 5.0), (x, 0.5)]);
        let heavy_x = weighted_recipe_pairing_score(&db, &[(a, 0.5), (b, 0.5), (x, 5.0)]);
        let plain = recipe_pairing_score(&db, &[a, b, x]);
        assert!(heavy_ab > plain, "{heavy_ab} <= {plain}");
        assert!(heavy_x < plain, "{heavy_x} >= {plain}");
    }

    #[test]
    fn weighted_score_degenerate_inputs() {
        let (db, ids) = fixture();
        assert_eq!(weighted_recipe_pairing_score(&db, &[]), 0.0);
        assert_eq!(weighted_recipe_pairing_score(&db, &[(ids[0], 1.0)]), 0.0);
        // Zero/negative weights drop out entirely.
        assert_eq!(
            weighted_recipe_pairing_score(&db, &[(ids[0], 0.0), (ids[1], -1.0)]),
            0.0
        );
        let only_positive =
            weighted_recipe_pairing_score(&db, &[(ids[0], 1.0), (ids[1], 1.0), (ids[3], 0.0)]);
        assert_eq!(only_positive, recipe_pairing_score(&db, &ids[0..2]));
    }

    #[test]
    fn cache_matches_direct() {
        let (db, ids) = fixture();
        let cache = build(&db, &ids, 0);
        assert_eq!(cache.len(), 4);
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                let direct = db.shared_molecules(ids[i], ids[j]).unwrap();
                let expect = if i == j { 0 } else { direct };
                assert_eq!(cache.overlap(i as u32, j as u32) as usize, expect);
            }
        }
        // Score parity on several subsets.
        for subset in [&ids[0..2], &ids[0..3], &ids[1..4], &ids[0..4]] {
            let direct = recipe_pairing_score(&db, subset);
            let cached = cache.score_ids(subset).unwrap();
            assert!((direct - cached).abs() < 1e-12);
        }
    }

    #[test]
    fn cache_symmetry_and_self_zero() {
        let (db, ids) = fixture();
        let cache = build(&db, &ids, 0);
        for i in 0..4u32 {
            assert_eq!(cache.overlap(i, i), 0);
            for j in 0..4u32 {
                assert_eq!(cache.overlap(i, j), cache.overlap(j, i));
            }
        }
    }

    #[test]
    fn build_identical_for_any_thread_count() {
        let (db, ids) = fixture();
        let serial = build(&db, &ids, 1);
        for threads in [0, 2, 8] {
            let parallel = build(&db, &ids, threads);
            assert_eq!(serial.tri, parallel.tri, "{threads} threads");
            assert_eq!(serial.pool, parallel.pool);
        }
    }

    #[test]
    fn tiled_build_matches_for_any_tile_and_thread_count() {
        use culinaria_flavordb::generator::{generate_flavor_db, GeneratorConfig};
        // A pool large enough for real tile geometry (60 ingredients,
        // multi-word profiles).
        let db = generate_flavor_db(&GeneratorConfig::tiny(42));
        let ids: Vec<IngredientId> = db.ingredient_ids().collect();
        assert!(ids.len() >= 32, "generator fixture too small");
        let reference = build(&db, &ids, 1);
        // The cache agrees with the sorted-merge walk cell by cell.
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate().skip(i + 1) {
                assert_eq!(
                    reference.overlap(i as u32, j as u32) as usize,
                    db.shared_molecules(a, b).unwrap(),
                    "cell ({i}, {j})"
                );
            }
        }
        // Every tile geometry × thread count merges to the same bytes.
        for tile_edge in [1usize, 3, 7, 16, 61] {
            for threads in [1usize, 2, 4, 8] {
                let cache = OverlapCache::try_build_tiled(
                    FlavorViewRef::Owned(&db),
                    &ids,
                    threads,
                    &Metrics::disabled(),
                    Some(tile_edge),
                )
                .expect("live pool");
                assert_eq!(
                    cache.tri, reference.tri,
                    "tile={tile_edge} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn observed_build_matches_and_records() {
        let (db, ids) = fixture();
        let plain = build(&db, &ids, 2);
        let metrics = Metrics::enabled();
        let observed = OverlapCache::build(&db, &ids, 2, &metrics).expect("live pool");
        assert_eq!(observed.tri, plain.tri);
        assert_eq!(observed.pool, plain.pool);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("overlap.pool_size"), Some(4));
        assert_eq!(snap.counter("overlap.cells"), Some(6));
        assert_eq!(snap.span("overlap.build").unwrap().calls, 1);
        assert_eq!(snap.span("overlap.build.pack").unwrap().calls, 1);
        assert_eq!(snap.span("overlap.build.sweep").unwrap().calls, 1);
        assert_eq!(snap.counter("pool.runs"), Some(1));
    }

    #[test]
    fn build_reports_dead_ids_at_any_thread_count() {
        let (mut db, ids) = fixture();
        // Kill ingredient "c" (local index 2): the pack stage reports a
        // structured failure at that index for every thread count.
        db.remove_ingredient("c").expect("c exists");
        for threads in [1, 2, 8] {
            let failure = OverlapCache::build(&db, &ids, threads, &Metrics::disabled())
                .expect_err("dead id fails the pack stage");
            assert_eq!(failure.stage, "overlap.pack");
            assert_eq!(failure.index, 2, "{threads} threads");
            assert!(matches!(
                failure.cause,
                crate::error::FailureCause::Error(_)
            ));
        }
        // An enabled registry records the error counter.
        let metrics = Metrics::enabled();
        let failure =
            OverlapCache::build(&db, &ids, 2, &metrics).expect_err("dead id fails the pack stage");
        assert_eq!(failure.index, 2);
        assert_eq!(metrics.snapshot().counter("error.overlap.pack"), Some(1));
    }

    #[test]
    fn cells_hold_the_profile_cap_and_longer_profiles_fail() {
        use culinaria_flavordb::MoleculeId;
        let cap = usize::from(u16::MAX);
        let mut db = FlavorDb::new();
        db.add_anonymous_molecules(cap + 1);
        let run = |n: usize| (0..n as u32).map(MoleculeId).collect::<Vec<_>>();
        let a = db.add_ingredient("a", Category::Herb, run(cap)).unwrap();
        let b = db.add_ingredient("b", Category::Herb, run(cap)).unwrap();
        let small = db.add_ingredient("s", Category::Spice, run(3)).unwrap();
        let long = db
            .add_ingredient("l", Category::Meat, run(cap + 1))
            .unwrap();

        // Two profiles sharing exactly 65,535 molecules fit one cell.
        let cache = build(&db, &[a, b, small], 2);
        assert_eq!(cache.overlap(0, 1), 65_535);
        assert_eq!(cache.overlap(0, 2), 3);

        // One molecule more fails the pack stage at the profile's pool
        // index, naming the limit, before any cell is computed.
        let failure = OverlapCache::build(&db, &[a, small, long], 2, &Metrics::disabled())
            .expect_err("a 65,536-molecule profile fails");
        assert_eq!((failure.stage, failure.index), ("overlap.pack", 2));
        assert!(failure.to_string().contains("65535"), "{failure}");
        let failure = cache
            .extend(&db, &[a, b, small, long])
            .expect_err("a 65,536-molecule profile fails");
        assert_eq!((failure.stage, failure.index), ("overlap.extend", 3));
        assert!(failure.to_string().contains("65535"), "{failure}");
    }

    #[test]
    fn score_ids_with_reuses_scratch() {
        let (db, ids) = fixture();
        let cache = build(&db, &ids, 0);
        let mut scratch = Vec::new();
        for subset in [&ids[0..2], &ids[0..3], &ids[0..4]] {
            let fresh = cache.score_ids(subset).unwrap();
            let reused = cache.score_ids_with(subset, &mut scratch).unwrap();
            assert_eq!(fresh.to_bits(), reused.to_bits());
            assert_eq!(scratch.len(), subset.len());
        }
        // Unknown id: None, scratch stays usable afterwards.
        let small = build(&db, &ids[0..2], 0);
        assert!(small
            .score_ids_with(&[ids[0], ids[3]], &mut scratch)
            .is_none());
        assert!(small.score_ids_with(&ids[0..2], &mut scratch).is_some());
    }

    #[test]
    fn unknown_ids_give_none() {
        let (db, ids) = fixture();
        let cache = build(&db, &ids[0..2], 0);
        assert!(cache.score_ids(&[ids[0], ids[3]]).is_none());
        assert!(cache.local_index(ids[3]).is_none());
    }

    #[test]
    fn cuisine_mean_score() {
        let (db, ids) = fixture();
        let (a, b, c, x) = (ids[0], ids[1], ids[2], ids[3]);
        let mut store = RecipeStore::new();
        store
            .add_recipe("r1", Region::Italy, Source::Synthetic, vec![a, b])
            .unwrap(); // Ns = 2
        store
            .add_recipe("r2", Region::Italy, Source::Synthetic, vec![a, x])
            .unwrap(); // Ns = 0
        let cuisine = store.cuisine(Region::Italy);
        let mean = mean_cuisine_score(&db, &cuisine);
        assert!((mean - 1.0).abs() < 1e-12);

        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        assert!((cache.mean_cuisine_score(&cuisine).unwrap() - 1.0).abs() < 1e-12);
        // c is not in this cuisine's pool.
        assert_eq!(cache.len(), 3);
        assert!(cache.local_index(c).is_none());
    }

    #[test]
    fn intersect_scratch_matches_brute_force() {
        use culinaria_flavordb::{FlavorProfile, MoleculeUniverse};
        // Profiles spread over > 1 word (ids up to 130 → 3 words).
        let profiles: Vec<FlavorProfile> = vec![
            [0u32, 1, 2, 64, 65, 130].into_iter().collect(),
            [0u32, 2, 64, 66, 130].into_iter().collect(),
            [1u32, 2, 64, 65, 130].into_iter().collect(),
            [99u32].into_iter().collect(),
            [0u32, 64, 130].into_iter().collect(),
        ];
        let universe = MoleculeUniverse::build(profiles.iter().map(FlavorProfile::molecules));
        let words = universe.words();
        let mut bits = Vec::new();
        for p in &profiles {
            bits.extend_from_slice(universe.pack(p.molecules()).words());
        }
        let members: Vec<u32> = (0..profiles.len() as u32).collect();
        let mut scratch = IntersectScratch::new();
        for k in 0..=profiles.len() + 1 {
            // Brute force over index subsets (k = 0 sums nothing).
            let mut expect = 0u64;
            let n = profiles.len();
            for mask in 1u32..(1 << n) {
                if k == 0 || mask.count_ones() as usize != k {
                    continue;
                }
                let chosen: Vec<&FlavorProfile> = (0..n)
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| &profiles[i])
                    .collect();
                let mut inter = chosen[0].clone();
                for p in &chosen[1..] {
                    inter = inter.intersection(p);
                }
                expect += inter.len() as u64;
            }
            let got = scratch.ktuple_sum(&bits, words, &members, k);
            assert_eq!(got, expect, "k = {k}");
        }
        // Empty universe short-circuits.
        assert_eq!(scratch.ktuple_sum(&[], 0, &members, 2), 0);
    }

    #[test]
    fn cooc_triangle_is_sized_by_distinct_ids_not_id_values() {
        let (far, near) = (IngredientId(4_000_000_000), IngredientId(3));
        let mut store = RecipeStore::new();
        for (name, region) in [("r1", Region::Italy), ("r2", Region::Japan)] {
            store
                .add_recipe(name, region, Source::Synthetic, vec![far, near])
                .unwrap();
        }
        let cooc = CoocTriangle::build(&store);
        assert_eq!(cooc.ids, [near, far]);
        assert_eq!(cooc.tri.len(), 1);
        assert_eq!(cooc.count(far, near), 2);
        assert_eq!(cooc.count(near, near), 0);
        assert_eq!(cooc.count(near, IngredientId(7)), 0);
        let empty = CoocTriangle::build(&RecipeStore::new());
        assert!(empty.ids.is_empty() && empty.tri.is_empty());
    }

    #[test]
    fn empty_cuisine_scores_zero() {
        let (db, _) = fixture();
        let store = RecipeStore::new();
        let cuisine = store.cuisine(Region::Usa);
        assert_eq!(mean_cuisine_score(&db, &cuisine), 0.0);
        let cache = OverlapCache::for_cuisine(&db, &cuisine);
        assert!(cache.is_empty());
        assert_eq!(cache.mean_cuisine_score(&cuisine), Some(0.0));
    }
}
