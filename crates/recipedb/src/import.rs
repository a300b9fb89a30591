//! The raw-text import pipeline: scraped recipe → stored recipe.
//!
//! This glues the aliasing NLP (`culinaria-text`) to the flavor database
//! (`culinaria-flavordb`): each ingredient phrase is resolved to
//! canonical names, canonical names are looked up in the flavor
//! database (synonyms included), and resolution statistics are kept so
//! curators can see what fell through — the paper explicitly labels
//! partial matches and unrecognized ingredients for manual curation.
//!
//! # Batch import and determinism
//!
//! [`Importer::import_batch`] fans recipe resolution — the CPU-bound
//! part — over the shared worker pool (`culinaria_stats::pool`), one
//! task per recipe, with a [`ResolveScratch`] per worker so the hot
//! path reuses buffers and its memo cache without locking. Mutation of
//! the store and the statistics happens in a **serial task-order
//! merge** over the pool's in-order results, so recipe ids, stored
//! recipes, and [`ImportStats`] (including the frequency-ranked
//! unresolved-token list) are bit-identical for every thread count.
//! [`Importer::import`] is the single-threaded special case.
//!
//! The fan-out is **adaptive**: when the requested thread count
//! resolves ([`pool::effective_threads`]) to a single worker, or the
//! batch is too small to amortize pool spin-up, resolution runs
//! inline on the calling thread — same outcomes (including panic
//! isolation and lowest-index-wins), none of the pool overhead. The
//! chosen path is recorded in [`ImportStats::mode`]; because it is
//! schedule metadata (the *products* are identical either way), `mode`
//! is excluded from `ImportStats` equality.
//!
//! # Failure collection
//!
//! A bad recipe never aborts the batch: per-recipe problems (no
//! ingredient lines, nothing resolved, unresolved fraction above the
//! importer's threshold, a store rejection, or an injected worker
//! fault) are collected into [`ImportStats::failures`] with the recipe
//! index and name, and the recipe is counted as dropped. Only a worker
//! *panic* — isolated by the pool — fails the whole batch, as
//! [`RecipeDbError::Worker`] with the lowest failing index.

// User-reachable serialization/ingestion surface: panicking on bad
// data is forbidden here — return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use culinaria_flavordb::{FlavorDb, IngredientId};
use culinaria_obs::Metrics;
use culinaria_stats::{fault, pool};
use culinaria_text::alias::{AliasResolver, ResolveScratch};

use crate::error::{RecipeDbError, Result};
use crate::recipe::{RecipeId, Source};
use crate::region::Region;
use crate::store::RecipeStore;

/// The leading-quantity parser that [`Importer::resolve_line_weighted`]
/// splits a line with ("2 cups flour" → 480 ml of "flour"), so callers
/// outside this crate split lines by the same rule.
pub use culinaria_text::quantity::parse_quantity;

/// A raw scraped recipe before aliasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecipe {
    /// Title as scraped.
    pub name: String,
    /// Region annotation.
    pub region: Region,
    /// Source site.
    pub source: Source,
    /// One free-text line per ingredient
    /// ("2 jalapeno peppers, roasted and slit").
    pub ingredient_lines: Vec<String>,
}

/// How a batch import's resolve stage actually ran
/// (see [`ImportStats::mode`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ImportMode {
    /// Resolution ran inline on the calling thread (single effective
    /// worker, or a batch below the pool-granularity threshold).
    #[default]
    Serial,
    /// Resolution fanned out across the shared worker pool.
    Pooled,
}

impl ImportMode {
    /// The counter bumped by the observed import for this mode.
    fn metric_label(self) -> &'static str {
        match self {
            ImportMode::Serial => "import.mode.serial",
            ImportMode::Pooled => "import.mode.pooled",
        }
    }
}

impl fmt::Display for ImportMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportMode::Serial => write!(f, "serial"),
            ImportMode::Pooled => write!(f, "pooled"),
        }
    }
}

/// Smallest batch worth fanning out: below this the pool's thread
/// spin-up and claim-cursor traffic cost more than the resolution work
/// (measured by a since-retired import microbenchmark; DESIGN.md §11.3
/// keeps its numbers).
pub const SERIAL_BATCH_MIN: usize = 64;

/// Statistics of one import run.
#[derive(Debug, Clone, Default, Eq)]
pub struct ImportStats {
    /// Raw recipes offered to the importer.
    pub offered: usize,
    /// Recipes stored (at least one ingredient resolved).
    pub stored: usize,
    /// Recipes dropped because nothing resolved (the paper only keeps
    /// recipes with usable ingredient lists).
    pub dropped: usize,
    /// Ingredient lines that resolved to at least one ingredient.
    pub lines_resolved: usize,
    /// Ingredient lines that resolved to nothing.
    pub lines_unresolved: usize,
    /// Unresolved tokens with their occurrence counts, most frequent
    /// first (ties alphabetical) — the curation worklist, pre-ranked so
    /// the highest-impact gaps come first.
    pub unresolved_tokens: Vec<(String, usize)>,
    /// Per-recipe failures, in batch order. Every dropped recipe has
    /// exactly one entry here explaining why; the batch itself still
    /// succeeds. Deterministic: produced in the serial merge, so
    /// identical for every thread count.
    pub failures: Vec<RecipeFailure>,
    /// How the resolve stage ran ([`ImportMode::Serial`] inline or
    /// [`ImportMode::Pooled`] across workers). Schedule metadata, not a
    /// product of the import — excluded from equality, like the
    /// per-worker memo counters before it.
    pub mode: ImportMode,
}

// `mode` records *how* the batch ran, not *what* it produced; two runs
// of the same batch at different thread counts are equal. Every other
// field participates.
impl PartialEq for ImportStats {
    fn eq(&self, other: &ImportStats) -> bool {
        let ImportStats {
            offered,
            stored,
            dropped,
            lines_resolved,
            lines_unresolved,
            unresolved_tokens,
            failures,
            mode: _,
        } = self;
        *offered == other.offered
            && *stored == other.stored
            && *dropped == other.dropped
            && *lines_resolved == other.lines_resolved
            && *lines_unresolved == other.lines_unresolved
            && *unresolved_tokens == other.unresolved_tokens
            && *failures == other.failures
    }
}

/// Why one recipe of a batch was not stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImportFailureReason {
    /// The raw recipe had no ingredient lines at all.
    NoIngredientLines,
    /// Lines were present but none resolved to a known ingredient.
    NothingResolved,
    /// The unresolved fraction exceeded
    /// [`Importer::unresolved_threshold`].
    UnresolvedAboveThreshold {
        /// Lines that resolved to nothing.
        unresolved: usize,
        /// Total ingredient lines.
        total: usize,
    },
    /// The store rejected the resolved recipe.
    Store(String),
    /// A worker-side fault (error-shaped, e.g. injected by the
    /// fault-injection harness) while resolving this recipe.
    Fault(String),
}

impl fmt::Display for ImportFailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportFailureReason::NoIngredientLines => write!(f, "no ingredient lines"),
            ImportFailureReason::NothingResolved => write!(f, "no ingredient line resolved"),
            ImportFailureReason::UnresolvedAboveThreshold { unresolved, total } => write!(
                f,
                "{unresolved} of {total} ingredient lines unresolved, above threshold"
            ),
            ImportFailureReason::Store(msg) => write!(f, "store rejected recipe: {msg}"),
            ImportFailureReason::Fault(msg) => write!(f, "worker fault: {msg}"),
        }
    }
}

/// One recipe that could not be stored, with enough context to report
/// it to a curator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeFailure {
    /// Position in the raw batch.
    pub index: usize,
    /// Recipe title as scraped.
    pub name: String,
    /// What went wrong.
    pub reason: ImportFailureReason,
}

impl fmt::Display for RecipeFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "recipe {} '{}': {}", self.index, self.name, self.reason)
    }
}

/// Per-recipe resolution result, produced by workers and merged
/// serially in task order. The memo deltas travel alongside so the
/// observed import can total cache efficacy without the workers ever
/// touching a metrics registry.
#[derive(Debug, Clone)]
struct ResolvedRecipe {
    ingredients: Vec<IngredientId>,
    lines_resolved: usize,
    lines_unresolved: usize,
    unresolved: Vec<String>,
    memo_hits: u64,
    memo_misses: u64,
}

/// The importer: owns an [`AliasResolver`] primed from a [`FlavorDb`]'s
/// canonical names and synonyms.
#[derive(Debug, Clone)]
pub struct Importer {
    resolver: AliasResolver,
    unresolved_threshold: f64,
}

impl Importer {
    /// Build an importer whose lexicon is the flavor database's live
    /// ingredient names plus its synonym table.
    pub fn from_flavor_db(db: &FlavorDb) -> Importer {
        let mut resolver = AliasResolver::new();
        for ing in db.ingredients() {
            resolver.add_canonical(&ing.name);
        }
        for (syn, id) in db.synonyms() {
            if let Ok(target) = db.ingredient(id) {
                resolver.add_synonym(syn, &target.name);
            }
        }
        Importer {
            resolver,
            unresolved_threshold: 1.0,
        }
    }

    /// Set the maximum tolerated unresolved-line fraction. A recipe
    /// whose `unresolved / total` fraction is **strictly above** this is
    /// dropped with [`ImportFailureReason::UnresolvedAboveThreshold`].
    /// The default `1.0` never triggers, so only fully-unresolvable
    /// recipes are dropped (the paper's baseline behavior).
    pub fn with_unresolved_threshold(mut self, threshold: f64) -> Importer {
        self.unresolved_threshold = threshold.clamp(0.0, 1.0);
        self
    }

    /// The current unresolved-line tolerance
    /// (see [`Importer::with_unresolved_threshold`]).
    pub fn unresolved_threshold(&self) -> f64 {
        self.unresolved_threshold
    }

    /// Access the underlying resolver (e.g. to register ad-hoc aliases).
    pub fn resolver_mut(&mut self) -> &mut AliasResolver {
        &mut self.resolver
    }

    /// Resolve one ingredient line to flavor-database ids.
    pub fn resolve_line(&self, db: &FlavorDb, line: &str) -> (Vec<IngredientId>, Vec<String>) {
        let mut scratch = ResolveScratch::with_memo_capacity(0);
        self.resolve_line_with(db, line, &mut scratch)
    }

    /// [`Importer::resolve_line`] with caller-owned working state — the
    /// batch-import hot path. One scratch per worker keeps resolution
    /// allocation-free and memoizes repeated lines.
    pub fn resolve_line_with(
        &self,
        db: &FlavorDb,
        line: &str,
        scratch: &mut ResolveScratch,
    ) -> (Vec<IngredientId>, Vec<String>) {
        let resolution = self.resolver.resolve_with(line, scratch);
        let mut ids = Vec::with_capacity(resolution.matches.len());
        for m in &resolution.matches {
            if let Some(id) = db.ingredient_by_name(&m.canonical) {
                ids.push(id);
            }
        }
        (ids, resolution.unresolved)
    }

    /// Resolve a line together with its parsed quantity, normalized to
    /// grams — groundwork for quantity-weighted pairing (paper §V).
    ///
    /// Normalization heuristic: volumes use the water density (1 ml ≈
    /// 1 g, the convention nutrition databases fall back to), counts
    /// assume a 50 g median item. Lines with no parsable amount get
    /// weight 1 g so they still participate. When one line names
    /// several ingredients the weight is split evenly among them.
    pub fn resolve_line_weighted(
        &self,
        db: &FlavorDb,
        line: &str,
    ) -> (Vec<(IngredientId, f64)>, Vec<String>) {
        use culinaria_text::quantity::Unit;
        let (grams, rest) = match parse_quantity(line) {
            Some(q) => {
                let grams = match q.unit {
                    Unit::Gram => q.value,
                    Unit::Millilitre => q.value, // water-density convention
                    Unit::Count => q.value * 50.0,
                };
                (grams.max(1e-6), q.rest)
            }
            None => (1.0, line.to_owned()),
        };
        let (ids, unresolved) = self.resolve_line(db, &rest);
        let share = if ids.is_empty() {
            0.0
        } else {
            grams / ids.len() as f64
        };
        (ids.into_iter().map(|id| (id, share)).collect(), unresolved)
    }

    /// Resolve all lines of one raw recipe (no store mutation — safe to
    /// run on any worker).
    fn resolve_recipe(
        &self,
        db: &FlavorDb,
        raw: &RawRecipe,
        scratch: &mut ResolveScratch,
    ) -> ResolvedRecipe {
        let (hits_before, misses_before) = scratch.memo_stats();
        let mut out = ResolvedRecipe {
            ingredients: Vec::new(),
            lines_resolved: 0,
            lines_unresolved: 0,
            unresolved: Vec::new(),
            memo_hits: 0,
            memo_misses: 0,
        };
        for line in &raw.ingredient_lines {
            let (ids, unresolved) = self.resolve_line_with(db, line, scratch);
            if ids.is_empty() {
                out.lines_unresolved += 1;
            } else {
                out.lines_resolved += 1;
            }
            out.ingredients.extend(ids);
            out.unresolved.extend(unresolved);
        }
        let (hits_after, misses_after) = scratch.memo_stats();
        out.memo_hits = hits_after - hits_before;
        out.memo_misses = misses_after - misses_before;
        out
    }

    /// Import a batch of raw recipes into `store`, resolving through
    /// `db`. Recipes where no line resolves are dropped and counted.
    ///
    /// Equivalent to [`Importer::import_batch`] with one thread.
    pub fn import(
        &self,
        db: &FlavorDb,
        store: &mut RecipeStore,
        raw: &[RawRecipe],
    ) -> Result<ImportStats> {
        self.import_batch(db, store, raw, 1)
    }

    /// Import a batch of raw recipes, resolving lines on `n_threads`
    /// workers (`0` = use the machine).
    ///
    /// The fan-out is adaptive: when [`pool::effective_threads`]
    /// resolves to one worker, or the batch is below
    /// [`SERIAL_BATCH_MIN`], resolution runs on the pool's inline
    /// one-worker path ([`ImportStats::mode`] records which path ran).
    ///
    /// Determinism contract: per-recipe resolution is a pure function
    /// of the recipe, the pool returns results in task order, and all
    /// store/statistics mutation happens in a serial in-order merge —
    /// so the stored recipes, their ids, and the returned
    /// [`ImportStats`] are bit-identical for every thread count (and
    /// for both modes).
    pub fn import_batch(
        &self,
        db: &FlavorDb,
        store: &mut RecipeStore,
        raw: &[RawRecipe],
        n_threads: usize,
    ) -> Result<ImportStats> {
        self.import_batch_observed(db, store, raw, n_threads, &Metrics::disabled())
    }

    /// [`Importer::import_batch`] instrumented through `metrics`:
    ///
    /// * spans `import.resolve` (the parallel resolve fan-out) and
    ///   `import.merge` (the serial task-order merge);
    /// * counters `import.recipes.{offered,stored,dropped}` and
    ///   `import.lines.{resolved,unresolved}` mirroring [`ImportStats`];
    /// * counters `import.memo.{hits,misses}` totalling the per-worker
    ///   memo caches (cache efficacy — these vary with scheduling at
    ///   more than one thread, which is why they live here and not in
    ///   [`ImportStats`]);
    /// * counter `import.mode.{serial,pooled}` for the adaptive
    ///   fan-out decision;
    /// * the shared `pool.*` instruments when the pooled path runs
    ///   (the serial path records none).
    ///
    /// Stored recipes and the returned stats are bit-identical to the
    /// unobserved path — instrumentation records, it never steers.
    ///
    /// # Errors
    ///
    /// Per-recipe problems are collected into
    /// [`ImportStats::failures`], not returned; the only hard error is
    /// [`RecipeDbError::Worker`] when a resolution worker panics (the
    /// pool isolates the panic and reports the lowest failing index).
    pub fn import_batch_observed(
        &self,
        db: &FlavorDb,
        store: &mut RecipeStore,
        raw: &[RawRecipe],
        n_threads: usize,
        metrics: &Metrics,
    ) -> Result<ImportStats> {
        // Error-shaped worker faults become per-recipe outcomes (the
        // batch carries on); only a panic fails the run.
        type Outcome = std::result::Result<ResolvedRecipe, String>;
        // Fan out only when more than one worker would actually run
        // *and* the batch is big enough to amortize pool spin-up;
        // otherwise resolve on one worker, which the pool runs inline
        // with no thread machinery.
        let workers = pool::effective_threads(n_threads).min(raw.len().max(1));
        let mode = if workers > 1 && raw.len() >= SERIAL_BATCH_MIN {
            ImportMode::Pooled
        } else {
            ImportMode::Serial
        };
        let resolve_span = metrics.span("import.resolve");
        let guard = resolve_span.enter();
        // The serial mode is the pool's inline one-worker path, and it
        // records no `pool.*` instruments.
        let (threads, pool_obs) = match mode {
            ImportMode::Pooled => (n_threads, pool::PoolObs::new(metrics)),
            ImportMode::Serial => (1, pool::PoolObs::disabled()),
        };
        let resolved: Vec<Outcome> = pool::try_run_observed(
            threads,
            raw.len(),
            &pool_obs,
            ResolveScratch::new,
            |scratch, i| -> std::result::Result<Outcome, std::convert::Infallible> {
                Ok(match fault::probe("import.recipe", i) {
                    Ok(()) => Ok(self.resolve_recipe(db, &raw[i], scratch)),
                    Err(e) => Err(e.to_string()),
                })
            },
        )
        .map_err(|f| {
            metrics.counter("error.import.recipe").incr();
            RecipeDbError::Worker {
                index: f.index,
                message: match f.kind {
                    pool::FailureKind::Failed(e) => match e {},
                    pool::FailureKind::Panicked(msg) => msg,
                },
            }
        })?;
        guard.stop();
        metrics.counter(mode.metric_label()).incr();

        let merge_span = metrics.span("import.merge");
        let merge_guard = merge_span.enter();
        let mut memo_hits = 0u64;
        let mut memo_misses = 0u64;
        let mut stats = ImportStats {
            offered: raw.len(),
            mode,
            ..ImportStats::default()
        };
        let mut token_counts: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        store.reserve(
            resolved
                .iter()
                .filter(|r| r.as_ref().is_ok_and(|r| !r.ingredients.is_empty()))
                .count(),
        );
        let fail = |stats: &mut ImportStats, index: usize, reason: ImportFailureReason| {
            stats.dropped += 1;
            stats.failures.push(RecipeFailure {
                index,
                name: raw[index].name.clone(),
                reason,
            });
        };
        for (index, (outcome, raw_recipe)) in resolved.into_iter().zip(raw).enumerate() {
            let r = match outcome {
                Ok(r) => r,
                Err(msg) => {
                    fail(&mut stats, index, ImportFailureReason::Fault(msg));
                    continue;
                }
            };
            stats.lines_resolved += r.lines_resolved;
            stats.lines_unresolved += r.lines_unresolved;
            memo_hits += r.memo_hits;
            memo_misses += r.memo_misses;
            for tok in r.unresolved {
                *token_counts.entry(tok).or_insert(0) += 1;
            }
            if raw_recipe.ingredient_lines.is_empty() {
                fail(&mut stats, index, ImportFailureReason::NoIngredientLines);
                continue;
            }
            if r.ingredients.is_empty() {
                fail(&mut stats, index, ImportFailureReason::NothingResolved);
                continue;
            }
            let total = raw_recipe.ingredient_lines.len();
            if r.lines_unresolved as f64 / total as f64 > self.unresolved_threshold {
                fail(
                    &mut stats,
                    index,
                    ImportFailureReason::UnresolvedAboveThreshold {
                        unresolved: r.lines_unresolved,
                        total,
                    },
                );
                continue;
            }
            match store.add_recipe(
                &raw_recipe.name,
                raw_recipe.region,
                raw_recipe.source,
                r.ingredients,
            ) {
                Ok(_) => stats.stored += 1,
                Err(e) => fail(&mut stats, index, ImportFailureReason::Store(e.to_string())),
            }
        }
        stats.unresolved_tokens = token_counts.into_iter().collect();
        stats
            .unresolved_tokens
            .sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        merge_guard.stop();

        if metrics.is_enabled() {
            metrics
                .counter("import.recipes.offered")
                .add(stats.offered as u64);
            metrics
                .counter("import.recipes.stored")
                .add(stats.stored as u64);
            metrics
                .counter("import.recipes.dropped")
                .add(stats.dropped as u64);
            metrics
                .counter("import.lines.resolved")
                .add(stats.lines_resolved as u64);
            metrics
                .counter("import.lines.unresolved")
                .add(stats.lines_unresolved as u64);
            metrics.counter("import.memo.hits").add(memo_hits);
            metrics.counter("import.memo.misses").add(memo_misses);
            metrics
                .counter("import.recipes.failures")
                .add(stats.failures.len() as u64);
        }
        Ok(stats)
    }
}

/// Convenience: one stored recipe from raw lines, or `None` if nothing
/// resolved.
pub fn import_one(
    importer: &Importer,
    db: &FlavorDb,
    store: &mut RecipeStore,
    raw: &RawRecipe,
) -> Result<Option<RecipeId>> {
    let before = store.n_recipes();
    importer.import(db, store, std::slice::from_ref(raw))?;
    Ok((store.n_recipes() > before).then_some(RecipeId(before as u32)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_flavordb::curated::curated_db;

    fn raw(name: &str, lines: &[&str]) -> RawRecipe {
        RawRecipe {
            name: name.into(),
            region: Region::Italy,
            source: Source::Epicurious,
            ingredient_lines: lines.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn end_to_end_import() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let stats = importer
            .import(
                &db,
                &mut store,
                &[raw(
                    "simple marinara",
                    &[
                        "3 ripe tomatoes, diced",
                        "2 cloves garlic, minced",
                        "1 tbsp olive oil",
                        "fresh basil leaves, torn",
                    ],
                )],
            )
            .unwrap();
        assert_eq!(stats.stored, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.lines_resolved, 4);
        let r = store.recipe(RecipeId(0)).unwrap();
        assert_eq!(r.size(), 4);
        for name in ["tomato", "garlic", "olive oil", "basil"] {
            let id = db.ingredient_by_name(name).unwrap();
            assert!(r.contains(id), "{name} missing from imported recipe");
        }
    }

    #[test]
    fn synonyms_resolve_through_db() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        importer
            .import(&db, &mut store, &[raw("toast", &["1 bun", "250g curd"])])
            .unwrap();
        let r = store.recipe(RecipeId(0)).unwrap();
        assert!(r.contains(db.ingredient_by_name("bread").unwrap()));
        assert!(r.contains(db.ingredient_by_name("yogurt").unwrap()));
    }

    #[test]
    fn unresolvable_recipe_dropped_and_tokens_collected() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let stats = importer
            .import(
                &db,
                &mut store,
                &[raw("mystery", &["2 cups quixotic zanthum"])],
            )
            .unwrap();
        assert_eq!(stats.stored, 0);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.lines_unresolved, 1);
        assert!(stats
            .unresolved_tokens
            .iter()
            .any(|(t, c)| t == "quixotic" && *c == 1));
        assert!(stats
            .unresolved_tokens
            .iter()
            .any(|(t, c)| t == "zanthum" && *c == 1));
        assert_eq!(store.n_recipes(), 0);
    }

    #[test]
    fn unresolved_tokens_frequency_ranked() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let stats = importer
            .import(
                &db,
                &mut store,
                &[
                    raw("a", &["zanthum paste", "tomato"]),
                    raw("b", &["zanthum powder", "garlic"]),
                ],
            )
            .unwrap();
        // "zanthum" occurred twice, collapsed into one ranked entry.
        let zanthum: Vec<_> = stats
            .unresolved_tokens
            .iter()
            .filter(|(t, _)| t == "zanthum")
            .collect();
        assert_eq!(zanthum.len(), 1);
        assert_eq!(*zanthum[0], ("zanthum".to_string(), 2));
        // Most frequent first; within equal counts, alphabetical.
        let counts: Vec<usize> = stats.unresolved_tokens.iter().map(|(_, c)| *c).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(stats.unresolved_tokens[0].0, "zanthum");
        assert_eq!(stats.stored, 2);
    }

    #[test]
    fn import_batch_matches_serial_across_thread_counts() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws: Vec<RawRecipe> = (0..24)
            .map(|i| {
                raw(
                    &format!("recipe {i}"),
                    &[
                        "3 ripe tomatoes, diced",
                        "2 cloves garlic",
                        "1 tbsp olive oil",
                        "zanthum gum",
                        "a shot of whisky",
                    ][..(i % 5) + 1],
                )
            })
            .collect();
        let mut serial_store = RecipeStore::new();
        let serial_stats = importer.import(&db, &mut serial_store, &raws).unwrap();
        for threads in [1, 2, 8] {
            let mut store = RecipeStore::new();
            let stats = importer
                .import_batch(&db, &mut store, &raws, threads)
                .unwrap();
            assert_eq!(stats, serial_stats, "stats diverged at {threads} threads");
            assert_eq!(store.n_recipes(), serial_store.n_recipes());
            for (a, b) in store.recipes().zip(serial_store.recipes()) {
                assert_eq!(a, b, "recipe diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn observed_import_matches_and_records() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws = vec![
            raw("a", &["3 ripe tomatoes", "1 tbsp olive oil"]),
            raw("b", &["3 ripe tomatoes", "zanthum gum"]),
            raw("c", &["nothing known here"]),
        ];
        let mut plain_store = RecipeStore::new();
        let plain = importer
            .import_batch(&db, &mut plain_store, &raws, 1)
            .unwrap();

        let metrics = Metrics::enabled();
        let mut store = RecipeStore::new();
        let stats = importer
            .import_batch_observed(&db, &mut store, &raws, 1, &metrics)
            .unwrap();
        assert_eq!(stats, plain);
        assert_eq!(store.n_recipes(), plain_store.n_recipes());

        let snap = metrics.snapshot();
        assert_eq!(snap.counter("import.recipes.offered"), Some(3));
        assert_eq!(
            snap.counter("import.recipes.stored"),
            Some(stats.stored as u64)
        );
        assert_eq!(
            snap.counter("import.recipes.dropped"),
            Some(stats.dropped as u64)
        );
        assert_eq!(
            snap.counter("import.lines.resolved"),
            Some(stats.lines_resolved as u64)
        );
        assert_eq!(
            snap.counter("import.lines.unresolved"),
            Some(stats.lines_unresolved as u64)
        );
        // One worker, so every line is a memo hit or a miss; the
        // repeated tomato line is the single hit.
        let hits = snap.counter("import.memo.hits").unwrap();
        let misses = snap.counter("import.memo.misses").unwrap();
        assert_eq!(hits + misses, 5);
        assert_eq!(hits, 1);
        // A 3-recipe batch resolves inline: the mode is recorded and
        // the pool is never spun up.
        assert_eq!(stats.mode, ImportMode::Serial);
        assert_eq!(snap.counter("import.mode.serial"), Some(1));
        assert_eq!(snap.counter("pool.runs"), None);
        assert_eq!(snap.span("import.resolve").unwrap().calls, 1);
        assert_eq!(snap.span("import.merge").unwrap().calls, 1);
    }

    #[test]
    fn adaptive_fanout_picks_mode_and_products_match() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let big: Vec<RawRecipe> = (0..SERIAL_BATCH_MIN + 8)
            .map(|i| {
                raw(
                    &format!("recipe {i}"),
                    &["3 ripe tomatoes, diced", "2 cloves garlic", "zanthum gum"][..(i % 3) + 1],
                )
            })
            .collect();

        // Big batch, one worker → still serial.
        let metrics = Metrics::enabled();
        let mut store = RecipeStore::new();
        let serial = importer
            .import_batch_observed(&db, &mut store, &big, 1, &metrics)
            .unwrap();
        assert_eq!(serial.mode, ImportMode::Serial);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("import.mode.serial"), Some(1));
        assert_eq!(snap.counter("pool.runs"), None);

        // Big batch, two requested workers → pooled (effective_threads
        // takes a nonzero request literally, even on a 1-core box), and
        // the products are identical to the serial run.
        let metrics = Metrics::enabled();
        let mut pooled_store = RecipeStore::new();
        let pooled = importer
            .import_batch_observed(&db, &mut pooled_store, &big, 2, &metrics)
            .unwrap();
        assert_eq!(pooled.mode, ImportMode::Pooled);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("import.mode.pooled"), Some(1));
        assert_eq!(snap.counter("pool.runs"), Some(1));
        assert_eq!(pooled, serial);
        assert_eq!(pooled_store.n_recipes(), store.n_recipes());
        for (a, b) in pooled_store.recipes().zip(store.recipes()) {
            assert_eq!(a, b);
        }

        // Small batch, many workers → serial (below the granularity
        // threshold).
        let mut small_store = RecipeStore::new();
        let small = importer
            .import_batch(&db, &mut small_store, &big[..8], 8)
            .unwrap();
        assert_eq!(small.mode, ImportMode::Serial);
    }

    #[test]
    fn mode_is_excluded_from_stats_equality() {
        let a = ImportStats {
            offered: 3,
            mode: ImportMode::Serial,
            ..ImportStats::default()
        };
        let mut b = a.clone();
        b.mode = ImportMode::Pooled;
        assert_eq!(a, b);
        b.offered = 4;
        assert_ne!(a, b);
    }

    #[test]
    fn observed_import_is_bit_identical_across_threads() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let raws: Vec<RawRecipe> = (0..16)
            .map(|i| raw(&format!("r{i}"), &["3 ripe tomatoes", "2 cloves garlic"]))
            .collect();
        let mut plain_store = RecipeStore::new();
        let plain = importer.import(&db, &mut plain_store, &raws).unwrap();
        for threads in [2, 8] {
            let metrics = Metrics::enabled();
            let mut store = RecipeStore::new();
            let stats = importer
                .import_batch_observed(&db, &mut store, &raws, threads, &metrics)
                .unwrap();
            assert_eq!(stats, plain, "stats diverged at {threads} threads");
            for (a, b) in store.recipes().zip(plain_store.recipes()) {
                assert_eq!(a, b, "recipe diverged at {threads} threads");
            }
            // Memo totals vary with the schedule, but hits + misses is
            // always the total line count.
            let snap = metrics.snapshot();
            let hits = snap.counter("import.memo.hits").unwrap();
            let misses = snap.counter("import.memo.misses").unwrap();
            assert_eq!(hits + misses, 32);
        }
    }

    #[test]
    fn failures_record_reasons_per_recipe() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let stats = importer
            .import(
                &db,
                &mut store,
                &[
                    raw("empty", &[]),
                    raw("fine", &["2 ripe tomatoes"]),
                    raw("mystery", &["quixotic zanthum"]),
                ],
            )
            .unwrap();
        assert_eq!(stats.stored, 1);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.failures.len(), 2);
        assert_eq!(
            stats.failures[0],
            RecipeFailure {
                index: 0,
                name: "empty".into(),
                reason: ImportFailureReason::NoIngredientLines,
            }
        );
        assert_eq!(
            stats.failures[1],
            RecipeFailure {
                index: 2,
                name: "mystery".into(),
                reason: ImportFailureReason::NothingResolved,
            }
        );
        // Failures render with index, name and reason for reporting.
        let rendered = stats.failures[1].to_string();
        assert!(rendered.contains("recipe 2"), "{rendered}");
        assert!(rendered.contains("mystery"), "{rendered}");
    }

    #[test]
    fn unresolved_threshold_drops_mostly_unknown_recipes() {
        let db = curated_db();
        let lines = &["2 ripe tomatoes", "quixotic paste", "zanthum gum"];
        // Default tolerance (1.0): partially-resolved recipes are kept.
        let lax = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let stats = lax.import(&db, &mut store, &[raw("murky", lines)]).unwrap();
        assert_eq!(stats.stored, 1);
        assert!(stats.failures.is_empty());
        // Strict tolerance: 2/3 unresolved > 0.5 drops it with context.
        let strict = Importer::from_flavor_db(&db).with_unresolved_threshold(0.5);
        let mut store = RecipeStore::new();
        let stats = strict
            .import(&db, &mut store, &[raw("murky", lines)])
            .unwrap();
        assert_eq!(stats.stored, 0);
        assert_eq!(stats.dropped, 1);
        assert_eq!(
            stats.failures[0].reason,
            ImportFailureReason::UnresolvedAboveThreshold {
                unresolved: 2,
                total: 3,
            }
        );
        assert_eq!(store.n_recipes(), 0);
    }

    #[test]
    fn failures_are_deterministic_across_thread_counts() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db).with_unresolved_threshold(0.6);
        let raws: Vec<RawRecipe> = (0..24)
            .map(|i| match i % 4 {
                0 => raw(
                    &format!("good {i}"),
                    &["3 ripe tomatoes", "2 cloves garlic"],
                ),
                1 => raw(&format!("empty {i}"), &[]),
                2 => raw(&format!("murky {i}"), &["tomato", "quixotic", "zanthum"]),
                _ => raw(&format!("mystery {i}"), &["quixotic zanthum"]),
            })
            .collect();
        let mut serial_store = RecipeStore::new();
        let serial = importer.import(&db, &mut serial_store, &raws).unwrap();
        assert_eq!(serial.failures.len(), 18);
        for threads in [2, 8] {
            let mut store = RecipeStore::new();
            let stats = importer
                .import_batch(&db, &mut store, &raws, threads)
                .unwrap();
            assert_eq!(stats, serial, "stats diverged at {threads} threads");
        }
    }

    #[test]
    fn import_one_returns_id() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        let id = import_one(&importer, &db, &mut store, &raw("x", &["tomato"]))
            .unwrap()
            .unwrap();
        assert_eq!(id, RecipeId(0));
        let none = import_one(&importer, &db, &mut store, &raw("y", &["xyzzy"])).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn weighted_resolution_scales_with_amount() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let (small, _) = importer.resolve_line_weighted(&db, "100g butter");
        let (big, _) = importer.resolve_line_weighted(&db, "400g butter");
        assert_eq!(small.len(), 1);
        assert_eq!(big.len(), 1);
        assert_eq!(small[0].0, big[0].0);
        assert!((big[0].1 / small[0].1 - 4.0).abs() < 1e-9);
        // Volume uses the 1 ml ≈ 1 g convention.
        let (cup, _) = importer.resolve_line_weighted(&db, "1 cup milk");
        assert!((cup[0].1 - 240.0).abs() < 1e-9);
        // Counts assume 50 g items.
        let (eggs, _) = importer.resolve_line_weighted(&db, "2 eggs");
        assert!((eggs[0].1 - 100.0).abs() < 1e-9);
        // No amount → weight 1.
        let (pinch, _) = importer.resolve_line_weighted(&db, "basil to garnish");
        assert!((pinch[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_resolution_splits_across_matches() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let (both, _) = importer.resolve_line_weighted(&db, "200g tomato and garlic");
        assert_eq!(both.len(), 2);
        for (_, w) in &both {
            assert!((w - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn spelling_variants_fuzzy_resolve() {
        let db = curated_db();
        let importer = Importer::from_flavor_db(&db);
        let mut store = RecipeStore::new();
        importer
            .import(&db, &mut store, &[raw("drink", &["a shot of whisky"])])
            .unwrap();
        let r = store.recipe(RecipeId(0)).unwrap();
        assert!(r.contains(db.ingredient_by_name("whiskey").unwrap()));
    }
}
