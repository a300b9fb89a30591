//! Integration: the zero-copy CFDB2/CRDB2 artifacts, the dataset's one
//! on-disk format — every truncation prefix rejected, arbitrary byte
//! flips never panic, misaligned buffers and wrong magic/version
//! rejected, rebuilds byte-identical, identical worlds encoded to
//! identical bytes, and borrowed analyses bit-identical to owned ones
//! at every thread count. Also: the CSV export loads as a table, names
//! with commas, quotes and line breaks included.

use proptest::prelude::*;

use culinaria::analysis::z_analysis::analyze_world_view;
use culinaria::analysis::{FlavorViewRef, MonteCarloConfig, NullModel, RecipesViewRef};
use culinaria::datagen::{generate_world, World, WorldConfig};
use culinaria::flavordb::IngredientId;
use culinaria::flavordb::{
    artifact as flavor_artifact, AlignedBytes, ArtifactError, FlavorArtifactBuilder,
};
use culinaria::recipedb::{
    artifact as recipe_artifact, io as recipe_io, RecipeArtifactBuilder, RecipeStore, Region,
    Source,
};

fn tiny_world() -> World {
    generate_world(&WorldConfig::tiny())
}

/// CFDB2 and CRDB2 buffers of the tiny world, the flavor one carrying
/// one overlap section so section parsing is exercised too.
fn tiny_artifacts() -> (Vec<u8>, Vec<u8>) {
    let world = tiny_world();
    let mut builder = FlavorArtifactBuilder::new(&world.flavor);
    let cuisine = world.recipes.cuisine(Region::Italy);
    let cache = culinaria::analysis::pairing::OverlapCache::for_cuisine(&world.flavor, &cuisine);
    builder
        .add_overlap(Region::Italy.code(), cache.pool(), cache.tri())
        .expect("section encodes");
    let flavor = builder.build().expect("flavor artifact encodes");
    let recipes = RecipeArtifactBuilder::new(&world.recipes)
        .build()
        .expect("recipe artifact encodes");
    (flavor, recipes)
}

/// FNV-1a 64, spelled out so the pinned digests do not depend on
/// `DefaultHasher`, whose algorithm is not stable across Rust releases.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins both formats' bytes across commits, where
/// `artifact_rebuild_is_byte_identical` only checks one process. A
/// change that means to alter a format bumps its version and
/// re-records its digest; any other change leaves both untouched.
#[test]
fn artifact_bytes_are_pinned() {
    let (flavor, recipes) = tiny_artifacts();
    for (what, buf, expected) in [
        ("CFDB2", &flavor, 0x0b70_86b5_8a24_4fd8),
        ("CRDB2", &recipes, 0xa2f3_4910_4dd9_30b1),
    ] {
        let got = fnv1a(buf);
        assert_eq!(
            got,
            expected,
            "{what} bytes changed: {} bytes, digest {got:#018x}",
            buf.len()
        );
    }
}

#[test]
fn recipe_csv_export_is_loadable_tabular() {
    let world = generate_world(&WorldConfig::tiny());
    let csv = recipe_io::to_csv(&world.recipes);
    let frame = culinaria::tabular::Frame::from_csv_str(&csv).expect("own CSV parses");
    assert_eq!(frame.n_rows(), world.recipes.n_recipes());
    for col in ["recipe_id", "name", "region", "source", "ingredients"] {
        assert!(frame.has_column(col), "{col} missing from export");
    }
    // Region codes in the export are valid Table 1 codes.
    let regions = frame.column("region").expect("column exists");
    for v in regions.iter_values() {
        let code = v.as_str().expect("region column is strings");
        assert!(code.parse::<Region>().is_ok(), "bad region code {code}");
    }
}

#[test]
fn recipe_csv_export_quotes_names_with_line_breaks() {
    let names = ["a\nb", "c\r\nd", "e,f", "g\"h"];
    let mut store = RecipeStore::new();
    for (i, name) in names.iter().enumerate() {
        store
            .add_recipe(
                name,
                Region::Italy,
                Source::Synthetic,
                vec![IngredientId(i as u32)],
            )
            .expect("non-empty ingredient list");
    }
    let frame = culinaria::tabular::Frame::from_csv_str(&recipe_io::to_csv(&store))
        .expect("own CSV parses");
    assert_eq!(frame.n_rows(), names.len());
    let column = frame.column("name").expect("column exists");
    let read: Vec<String> = column
        .iter_values()
        .map(|v| v.as_str().expect("name column is strings").to_owned())
        .collect();
    assert_eq!(read, names);
}

type RejectsFn = fn(&[u8]) -> bool;

#[test]
fn artifact_rejects_every_truncation_prefix() {
    let (flavor, recipes) = tiny_artifacts();
    let rejects_flavor: RejectsFn = |b| flavor_artifact::open(b).is_err();
    let rejects_recipes: RejectsFn = |b| recipe_artifact::open(b).is_err();
    let cases: [(&str, &[u8], RejectsFn); 2] = [
        ("CFDB2", &flavor, rejects_flavor),
        ("CRDB2", &recipes, rejects_recipes),
    ];
    for (what, buf, rejected) in cases {
        // One aligned copy; every prefix of an aligned base stays
        // aligned, so each truncated open exercises length validation
        // rather than tripping the alignment guard.
        let aligned = AlignedBytes::from_slice(buf);
        let full = aligned.as_slice();
        for n in 0..full.len() {
            assert!(rejected(&full[..n]), "{what}: {n}-byte prefix opened");
        }
    }
}

#[test]
fn artifact_rejects_misaligned_wrong_magic_and_wrong_version() {
    let (flavor, recipes) = tiny_artifacts();

    // Misaligned base pointer: shift the buffer by one byte inside an
    // aligned backing allocation.
    let mut shifted = vec![0u8; flavor.len() + 8];
    shifted[1..=flavor.len()].copy_from_slice(&flavor);
    let backing = AlignedBytes::from_slice(&shifted);
    let misaligned = &backing.as_slice()[1..=flavor.len()];
    assert!(matches!(
        flavor_artifact::open(misaligned),
        Err(ArtifactError::Misaligned)
    ));

    // Wrong magic.
    let mut raw = flavor.clone();
    raw[0] ^= 0xFF;
    let bad = AlignedBytes::from_vec(raw);
    assert!(matches!(
        flavor_artifact::open(bad.as_slice()),
        Err(ArtifactError::BadMagic)
    ));

    // Wrong version (bytes 8..12 hold the little-endian version).
    let mut raw = recipes.clone();
    raw[8] = raw[8].wrapping_add(1);
    let bad = AlignedBytes::from_vec(raw);
    assert!(matches!(
        recipe_artifact::open(bad.as_slice()),
        Err(ArtifactError::BadVersion { .. })
    ));

    // Swapped formats: each loader refuses the other's magic.
    assert!(flavor_artifact::open(AlignedBytes::from_slice(&recipes).as_slice()).is_err());
    assert!(recipe_artifact::open(AlignedBytes::from_slice(&flavor).as_slice()).is_err());
}

#[test]
fn artifact_rebuild_is_byte_identical() {
    let (flavor, recipes) = tiny_artifacts();

    // CFDB2: borrow, materialize, re-serialize with the same overlap
    // section — one byte encoding per logical content.
    let aligned = AlignedBytes::from_vec(flavor);
    let view = flavor_artifact::open(aligned.as_slice()).expect("valid artifact");
    let owned = view.to_flavor_db().expect("materializes");
    let mut rebuild = FlavorArtifactBuilder::new(&owned);
    for label in view.overlap_labels() {
        let (pool, tri) = view.overlap(label).expect("label listed");
        rebuild
            .add_overlap(label, pool, tri)
            .expect("section encodes");
    }
    assert_eq!(
        rebuild.build().expect("encodes"),
        aligned.as_slice(),
        "CFDB2 rebuild differs"
    );

    // CRDB2 likewise.
    let aligned = AlignedBytes::from_vec(recipes);
    let view = recipe_artifact::open(aligned.as_slice()).expect("valid artifact");
    let owned = view.to_recipe_store().expect("materializes");
    assert_eq!(
        RecipeArtifactBuilder::new(&owned).build().expect("encodes"),
        aligned.as_slice(),
        "CRDB2 rebuild differs"
    );
}

#[test]
fn borrowed_world_analysis_is_bit_identical_across_thread_counts() {
    let world = tiny_world();
    let (flavor, recipes) = tiny_artifacts();
    let faligned = AlignedBytes::from_vec(flavor);
    let raligned = AlignedBytes::from_vec(recipes);
    let fview = flavor_artifact::open(faligned.as_slice()).expect("valid artifact");
    let rview = recipe_artifact::open(raligned.as_slice()).expect("valid artifact");

    let mut reference: Option<Vec<(String, u64, Vec<u64>)>> = None;
    for threads in [1usize, 2, 4, 8] {
        let cfg = MonteCarloConfig {
            n_recipes: 400,
            seed: 7,
            n_threads: threads,
        };
        let owned = analyze_world_view(&world.flavor, &world.recipes, &NullModel::ALL, &cfg);
        let borrowed = analyze_world_view(
            FlavorViewRef::Artifact(&fview),
            RecipesViewRef::Artifact(&rview),
            &NullModel::ALL,
            &cfg,
        );
        let digest: Vec<(String, u64, Vec<u64>)> = owned
            .iter()
            .map(|row| {
                (
                    row.region.code().to_string(),
                    row.observed_mean.to_bits(),
                    row.comparisons
                        .iter()
                        .flat_map(|c| {
                            [
                                c.null.mean.to_bits(),
                                c.null.std_dev.to_bits(),
                                c.null.n,
                                c.z.map(f64::to_bits).unwrap_or(1),
                            ]
                        })
                        .collect(),
                )
            })
            .collect();
        let borrowed_digest: Vec<(String, u64, Vec<u64>)> = borrowed
            .iter()
            .map(|row| {
                (
                    row.region.code().to_string(),
                    row.observed_mean.to_bits(),
                    row.comparisons
                        .iter()
                        .flat_map(|c| {
                            [
                                c.null.mean.to_bits(),
                                c.null.std_dev.to_bits(),
                                c.null.n,
                                c.z.map(f64::to_bits).unwrap_or(1),
                            ]
                        })
                        .collect(),
                )
            })
            .collect();
        assert_eq!(
            digest, borrowed_digest,
            "owned vs borrowed diverged at {threads} threads"
        );
        match &reference {
            None => reference = Some(digest),
            Some(r) => assert_eq!(r, &digest, "thread count {threads} changed the analysis"),
        }
    }
}

proptest! {
    /// Flipping any byte of a valid artifact must never panic: open
    /// either rejects the buffer or yields a view whose accessors stay
    /// in bounds.
    #[test]
    fn artifact_byte_flips_never_panic(pos in 0usize..1 << 20, mask in 1u8..=255) {
        static ARTIFACTS: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
        let (flavor, recipes) = ARTIFACTS.get_or_init(tiny_artifacts);
        for (buf, is_flavor) in [(flavor, true), (recipes, false)] {
            let mut raw = buf.to_vec();
            let i = pos % raw.len();
            raw[i] ^= mask;
            let aligned = AlignedBytes::from_vec(raw);
            if is_flavor {
                if let Ok(view) = flavor_artifact::open(aligned.as_slice()) {
                    for id in view.live_ids() {
                        std::hint::black_box(view.profile(id));
                        std::hint::black_box(view.ingredient_name(id));
                    }
                    for label in view.overlap_labels() {
                        std::hint::black_box(view.overlap(label));
                    }
                }
            } else if let Ok(view) = recipe_artifact::open(aligned.as_slice()) {
                for region in view.regions() {
                    let cuisine = view.cuisine(region);
                    for r in 0..cuisine.n_recipes() {
                        std::hint::black_box(cuisine.ingredients_of(r));
                    }
                }
            }
        }
    }
}

#[test]
fn snapshots_are_stable_across_identical_worlds() {
    let a = generate_world(&WorldConfig::tiny());
    let b = generate_world(&WorldConfig::tiny());
    assert_eq!(
        FlavorArtifactBuilder::new(&a.flavor).build().unwrap(),
        FlavorArtifactBuilder::new(&b.flavor).build().unwrap(),
        "flavor artifacts differ for identical configs"
    );
    assert_eq!(
        RecipeArtifactBuilder::new(&a.recipes).build().unwrap(),
        RecipeArtifactBuilder::new(&b.recipes).build().unwrap(),
        "recipe artifacts differ for identical configs"
    );
}
