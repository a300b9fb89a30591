//! Integration: the generated world reproduces the paper's published
//! shapes at reduced scale — the same checks the full-scale harnesses
//! print, wired as assertions.

use culinaria::analysis::composition::category_shares;
use culinaria::analysis::popularity::world_popularity_profiles;
use culinaria::analysis::size_dist::world_size_histogram;
use culinaria::analysis::z_analysis::analyze_world_view;
use culinaria::analysis::{MonteCarloConfig, NullModel};
use culinaria::datagen::{generate_world, WorldConfig};
use culinaria::flavordb::Category;
use culinaria::recipedb::Region;

fn test_world() -> culinaria::datagen::World {
    let mut cfg = WorldConfig::tiny();
    cfg.recipe_scale = 0.03;
    cfg.min_region_recipes = 20;
    generate_world(&cfg)
}

#[test]
fn fig4_shape_holds_at_test_scale() {
    let world = test_world();
    let analyses = analyze_world_view(
        &world.flavor,
        &world.recipes,
        &[NullModel::Random, NullModel::Frequency, NullModel::Category],
        &MonteCarloConfig {
            n_recipes: 8000,
            seed: 5,
            n_threads: 0,
        },
    );
    assert_eq!(analyses.len(), 22);

    let mut sign_matches = 0;
    let mut freq_collapses = 0;
    let mut cat_stays = 0;
    for a in &analyses {
        let zr = a.z_random().expect("non-degenerate null");
        // Every cuisine must deviate significantly — none random-like.
        assert!(zr.abs() > 1.96, "{}: z {zr}", a.region.code());
        if (zr > 0.0) == a.region.paper_positive_pairing() {
            sign_matches += 1;
        }
        let zf = a
            .against(NullModel::Frequency)
            .and_then(|c| c.z)
            .expect("freq null ran");
        let zc = a
            .against(NullModel::Category)
            .and_then(|c| c.z)
            .expect("cat null ran");
        if zf.abs() < 0.4 * zr.abs() {
            freq_collapses += 1;
        }
        if zc.abs() > 0.4 * zr.abs() {
            cat_stays += 1;
        }
    }
    // Small-scale worlds are noisy; require strong majorities, not
    // perfection (the full-scale harness achieves 22/22).
    assert!(sign_matches >= 18, "sign matches only {sign_matches}/22");
    assert!(
        freq_collapses >= 18,
        "frequency explains only {freq_collapses}/22"
    );
    assert!(
        cat_stays >= 15,
        "category wrongly explains {}/22",
        22 - cat_stays
    );
}

#[test]
fn table1_scaling_and_fig3_shapes() {
    let world = test_world();
    // Per-region recipe counts follow Table 1 proportions (scaled),
    // with the configured floor.
    let usa = world.recipes.n_region_recipes(Region::Usa);
    let kor = world.recipes.n_region_recipes(Region::Korea);
    assert!(usa > kor * 5, "USA {usa} vs KOR {kor}");

    // Fig 3a: bounded thin-tailed sizes.
    let h = world_size_histogram(&world.recipes);
    let mean = h.mean().expect("non-empty");
    assert!(mean > 4.0 && mean < 12.0, "mean size {mean}");
    assert!(h.max().expect("non-empty") <= 30);

    // Fig 3b: consistent scaling across regions.
    let profiles = world_popularity_profiles(&world.recipes);
    assert_eq!(profiles.len(), 22);
    for p in &profiles {
        assert_eq!(p.rank_frequency.first().copied(), Some(1.0));
        let exp = p.zipf_exponent.expect("populated cuisine");
        assert!(
            exp > 0.2 && exp < 2.5,
            "{}: exponent {exp}",
            p.region.code()
        );
    }
}

#[test]
fn fig2_regional_deviations() {
    // Category-composition checks need a flavor universe big enough for
    // every category to be well represented; the 60-ingredient tiny
    // universe distorts small categories, so use the 400-ingredient one
    // at reduced recipe scale.
    let mut cfg = WorldConfig::small();
    cfg.recipe_scale = 0.04;
    cfg.min_region_recipes = 25;
    let world = generate_world(&cfg);
    // Dairy-led regions per the paper.
    for region in [Region::France, Region::BritishIsles, Region::Scandinavia] {
        let s = category_shares(&world.flavor, &world.recipes.cuisine(region));
        assert!(
            s[Category::Dairy.index()] > s[Category::Vegetable.index()],
            "{region}: dairy not dominant"
        );
    }
    // Spice-predominant regions.
    for region in [Region::IndianSubcontinent, Region::MiddleEast] {
        let s = category_shares(&world.flavor, &world.recipes.cuisine(region));
        let top = s.iter().cloned().fold(0.0, f64::max);
        assert!(
            s[Category::Spice.index()] >= top * 0.95,
            "{region}: spice share {} vs top {top}",
            s[Category::Spice.index()]
        );
    }
}

#[test]
fn world_determinism_across_calls() {
    let a = test_world();
    let b = test_world();
    assert_eq!(a.recipes.n_recipes(), b.recipes.n_recipes());
    for (x, y) in a.recipes.recipes().zip(b.recipes.recipes()) {
        assert_eq!(x.ingredients(), y.ingredients());
        assert_eq!(x.region, y.region);
    }
    for (x, y) in a.flavor.ingredients().zip(b.flavor.ingredients()) {
        assert_eq!(x, y);
    }
}
