//! Robustness analysis — the paper's first open question (§V): *"How
//! robust are the patterns to changes in recipes data and flavor
//! profiles?"*
//!
//! Two perturbation protocols:
//!
//! * **Recipe subsampling** ([`subsample_robustness`]) — re-run the
//!   pairing z-score on random fractions of the cuisine's recipes;
//! * **Profile dilution** ([`profile_robustness`]) — randomly drop each
//!   flavor molecule from every profile with probability `1 − keep`,
//!   rebuild the pipeline, re-score.
//!
//! Both report the distribution of z-scores across trials and the
//! fraction of trials preserving the original pairing sign — the
//! *sign stability*, which is the paper-level claim under test.
//!
//! Each trial draws from its own derived seed, so the trial loop fans
//! over the shared worker pool (`mc.n_threads` wide) with the inner
//! Monte-Carlo forced serial; the pairing engine is thread-invariant,
//! so every trial z — and hence the whole report — is identical for
//! any thread count.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use culinaria_flavordb::{FlavorDb, FlavorProfile};
use culinaria_obs::Metrics;
use culinaria_recipedb::{Cuisine, Region};
use culinaria_stats::pool;
use culinaria_stats::rng::derive_seed;
use culinaria_stats::zscore::z_score_of_mean;

use crate::monte_carlo::{run_null_model, MonteCarloConfig};
use crate::null_models::{CuisineSampler, NullModel};
use crate::pairing::OverlapCache;

/// Result of one robustness experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// The region analyzed.
    pub region: Region,
    /// z-score on the unperturbed cuisine.
    pub baseline_z: f64,
    /// z-scores across perturbation trials.
    pub trial_z: Vec<f64>,
    /// Fraction of trials whose z shares the baseline's sign.
    pub sign_stability: f64,
}

impl RobustnessReport {
    fn from_trials(region: Region, baseline_z: f64, trial_z: Vec<f64>) -> RobustnessReport {
        let stable = trial_z
            .iter()
            .filter(|z| z.signum() == baseline_z.signum())
            .count();
        let sign_stability = if trial_z.is_empty() {
            0.0
        } else {
            stable as f64 / trial_z.len() as f64
        };
        RobustnessReport {
            region,
            baseline_z,
            trial_z,
            sign_stability,
        }
    }

    /// Mean trial z.
    pub fn mean_trial_z(&self) -> f64 {
        if self.trial_z.is_empty() {
            return f64::NAN;
        }
        self.trial_z.iter().sum::<f64>() / self.trial_z.len() as f64
    }
}

/// z-score of one cuisine against the Random null (shared helper).
fn z_against_random(db: &FlavorDb, cuisine: &Cuisine<'_>, mc: &MonteCarloConfig) -> Option<f64> {
    let sampler = CuisineSampler::build(db, cuisine)?;
    let cache = OverlapCache::for_cuisine(db, cuisine);
    let observed = cache.mean_cuisine_score(cuisine)?;
    let null = run_null_model(
        &cache,
        &sampler,
        NullModel::Random,
        mc,
        &Metrics::disabled(),
    );
    let null = null.unwrap_or_else(|failure| panic!("Monte-Carlo run failed: {failure}"))?;
    z_score_of_mean(observed, &null)
}

/// Recipe-subsampling robustness: `n_trials` random subsets of
/// `fraction` of the recipes, each re-analyzed from scratch.
///
/// Returns `None` when the baseline cuisine has no pairing signal.
pub fn subsample_robustness(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    fraction: f64,
    n_trials: usize,
    mc: &MonteCarloConfig,
    seed: u64,
) -> Option<RobustnessReport> {
    let baseline_z = z_against_random(db, cuisine, mc)?;
    let recipes = cuisine.recipes();
    let keep = ((recipes.len() as f64 * fraction.clamp(0.0, 1.0)).round() as usize).max(2);

    // One trial per task; the inner Monte-Carlo runs serial (it is
    // thread-invariant, so the values match any inner width).
    let inner = MonteCarloConfig {
        n_threads: 1,
        ..*mc
    };
    let trials = pool::run(
        mc.n_threads,
        n_trials,
        || (),
        |(), t| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, t as u64));
            let idx = culinaria_stats::sampling::sample_without_replacement(
                recipes.len(),
                keep,
                &mut rng,
            );
            let subset: Vec<_> = idx.iter().map(|&i| recipes[i]).collect();
            let sub = Cuisine::new(cuisine.region(), subset);
            z_against_random(db, &sub, &inner)
        },
    );
    Some(RobustnessReport::from_trials(
        cuisine.region(),
        baseline_z,
        trials.into_iter().flatten().collect(),
    ))
}

/// Profile-dilution robustness: every molecule of every profile is kept
/// with probability `keep`; the diluted database is re-analyzed.
///
/// Returns `None` when the baseline cuisine has no pairing signal.
pub fn profile_robustness(
    db: &FlavorDb,
    cuisine: &Cuisine<'_>,
    keep: f64,
    n_trials: usize,
    mc: &MonteCarloConfig,
    seed: u64,
) -> Option<RobustnessReport> {
    let baseline_z = z_against_random(db, cuisine, mc)?;
    let keep = keep.clamp(0.0, 1.0);

    let inner = MonteCarloConfig {
        n_threads: 1,
        ..*mc
    };
    let trials = pool::run(
        mc.n_threads,
        n_trials,
        || (),
        |(), t| {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed ^ 0xD11, t as u64));
            let diluted = db.map_profiles(|ing| {
                let kept: Vec<_> = ing
                    .profile
                    .molecules()
                    .iter()
                    .copied()
                    .filter(|_| rng.random::<f64>() < keep)
                    .collect();
                FlavorProfile::new(kept)
            });
            z_against_random(&diluted, cuisine, &inner)
        },
    );
    Some(RobustnessReport::from_trials(
        cuisine.region(),
        baseline_z,
        trials.into_iter().flatten().collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use culinaria_datagen::{generate_world, WorldConfig};

    fn mc() -> MonteCarloConfig {
        MonteCarloConfig {
            n_recipes: 1500,
            seed: 3,
            n_threads: 2,
        }
    }

    #[test]
    fn subsampling_preserves_sign_for_strong_regions() {
        let world = generate_world(&WorldConfig::tiny());
        let cuisine = world.recipes.cuisine(Region::Italy);
        let report = subsample_robustness(&world.flavor, &cuisine, 0.6, 6, &mc(), 1)
            .expect("baseline exists");
        assert_eq!(report.trial_z.len(), 6);
        assert!(report.baseline_z > 0.0);
        assert!(
            report.sign_stability >= 0.8,
            "stability {}",
            report.sign_stability
        );
        assert!(report.mean_trial_z().is_finite());
    }

    #[test]
    fn profile_dilution_preserves_sign_at_high_keep() {
        let world = generate_world(&WorldConfig::tiny());
        let cuisine = world.recipes.cuisine(Region::Italy);
        let report =
            profile_robustness(&world.flavor, &cuisine, 0.8, 5, &mc(), 2).expect("baseline exists");
        assert!(
            report.sign_stability >= 0.8,
            "stability {}",
            report.sign_stability
        );
    }

    #[test]
    fn zero_keep_destroys_signal() {
        let world = generate_world(&WorldConfig::tiny());
        let cuisine = world.recipes.cuisine(Region::Italy);
        // With every molecule dropped, all scores are 0 and the null is
        // degenerate: no trial z can be computed.
        let report =
            profile_robustness(&world.flavor, &cuisine, 0.0, 2, &mc(), 3).expect("baseline exists");
        assert!(report.trial_z.is_empty());
        assert_eq!(report.sign_stability, 0.0);
    }

    #[test]
    fn reports_identical_for_any_thread_count() {
        let world = generate_world(&WorldConfig::tiny());
        let cuisine = world.recipes.cuisine(Region::Italy);
        let at = |threads: usize| MonteCarloConfig {
            n_threads: threads,
            ..mc()
        };
        let serial = subsample_robustness(&world.flavor, &cuisine, 0.6, 4, &at(1), 7).unwrap();
        for threads in [0, 2, 8] {
            let parallel =
                subsample_robustness(&world.flavor, &cuisine, 0.6, 4, &at(threads), 7).unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
        let serial = profile_robustness(&world.flavor, &cuisine, 0.8, 3, &at(1), 7).unwrap();
        for threads in [0, 2, 8] {
            let parallel =
                profile_robustness(&world.flavor, &cuisine, 0.8, 3, &at(threads), 7).unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn subsample_fraction_clamped() {
        let world = generate_world(&WorldConfig::tiny());
        let cuisine = world.recipes.cuisine(Region::Korea);
        let report = subsample_robustness(&world.flavor, &cuisine, 5.0, 2, &mc(), 4)
            .expect("baseline exists");
        // fraction > 1 keeps every recipe; each trial analyzes the same
        // cuisine (in shuffled order), so z agrees with the baseline up
        // to Monte-Carlo noise and certainly in sign.
        assert_eq!(report.sign_stability, 1.0);
        for z in &report.trial_z {
            let rel = (z - report.baseline_z).abs() / report.baseline_z.abs();
            assert!(
                rel < 0.5,
                "trial z {z} far from baseline {}",
                report.baseline_z
            );
        }
    }
}
