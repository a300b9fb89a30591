//! Property-based tests of flavor-profile algebra and CFDB2 artifact
//! round-trips.

use proptest::prelude::*;

use culinaria_flavordb::generator::{generate_flavor_db, GeneratorConfig};
use culinaria_flavordb::{
    artifact, AlignedBytes, Category, FlavorArtifactBuilder, FlavorProfile, MoleculeId,
};

fn arb_profile() -> impl Strategy<Value = FlavorProfile> {
    proptest::collection::vec(0u32..300, 0..60)
        .prop_map(|ids| ids.into_iter().collect::<FlavorProfile>())
}

/// Profiles over a wider id range, so packed universes span many words
/// (up to 10) and exercise the widened kernel's lanes and tails.
fn arb_wide_profile() -> impl Strategy<Value = FlavorProfile> {
    proptest::collection::vec(0u32..600, 0..80)
        .prop_map(|ids| ids.into_iter().collect::<FlavorProfile>())
}

proptest! {
    #[test]
    fn profile_set_algebra(a in arb_profile(), b in arb_profile()) {
        let inter = a.intersection(&b);
        let union = a.union(&b);
        // |A∩B| + |A∪B| = |A| + |B|.
        prop_assert_eq!(inter.len() + union.len(), a.len() + b.len());
        // Intersection ⊆ both, both ⊆ union.
        for &m in inter.molecules() {
            prop_assert!(a.contains(m) && b.contains(m));
        }
        for &m in a.molecules().iter().chain(b.molecules()) {
            prop_assert!(union.contains(m));
        }
        // shared_count agrees with materialized intersection.
        prop_assert_eq!(a.shared_count(&b), inter.len());
        prop_assert_eq!(b.shared_count(&a), inter.len());
    }

    #[test]
    fn bitset_shared_count_matches_sorted_merge(
        a in arb_wide_profile(),
        b in arb_wide_profile(),
        extra in proptest::collection::vec(arb_wide_profile(), 0..4),
    ) {
        use culinaria_flavordb::MoleculeUniverse;
        // The universe may be built from any superset of the two
        // profiles (in production: a whole cuisine's ingredient pool);
        // the lane-widened packed AND+popcount must agree with the
        // frozen sorted-merge walk at any universe width (ids up to
        // 600 → up to 10 words, crossing the 4-word lane boundary).
        let universe = MoleculeUniverse::build(
            [&a, &b]
                .into_iter()
                .chain(extra.iter())
                .map(FlavorProfile::molecules),
        );
        let pa = universe.pack(a.molecules());
        let pb = universe.pack(b.molecules());
        prop_assert_eq!(pa.shared_count(&pb), a.shared_count(&b));
        prop_assert_eq!(pb.shared_count(&pa), a.shared_count(&b));
        prop_assert_eq!(pa.count_ones(), a.len());
        prop_assert_eq!(pb.count_ones(), b.len());
    }

    #[test]
    fn widened_kernel_matches_scalar_reference(
        a in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..24),
        b in proptest::collection::vec(proptest::arbitrary::any::<u64>(), 0..24),
    ) {
        use culinaria_flavordb::kernel;
        // The dispatched lane-widened primitives against the scalar
        // reference walk, on arbitrary words and ragged lengths.
        prop_assert_eq!(kernel::and_popcount(&a, &b), kernel::scalar::and_popcount(&a, &b));
        prop_assert_eq!(kernel::popcount(&a), kernel::scalar::popcount(&a));
        let n = a.len().min(b.len());
        let mut d1 = vec![0u64; n];
        let mut d2 = vec![0u64; n];
        prop_assert_eq!(
            kernel::and_store_popcount(&mut d1, &a, &b),
            kernel::scalar::and_store_popcount(&mut d2, &a, &b)
        );
        prop_assert_eq!(d1, d2);
        let mut c1 = vec![0u64; a.len()];
        let mut c2 = vec![0u64; a.len()];
        prop_assert_eq!(
            kernel::copy_popcount(&mut c1, &a),
            kernel::scalar::copy_popcount(&mut c2, &a)
        );
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn profile_jaccard_bounds(a in arb_profile(), b in arb_profile()) {
        let j = a.jaccard(&b);
        prop_assert!((0.0..=1.0).contains(&j));
        if !a.is_empty() {
            prop_assert_eq!(a.jaccard(&a), 1.0);
        }
        prop_assert!((a.jaccard(&b) - b.jaccard(&a)).abs() < 1e-15);
    }

    #[test]
    fn pooled_is_union_fold(profiles in proptest::collection::vec(arb_profile(), 0..8)) {
        let pooled = FlavorProfile::pooled(profiles.iter());
        let mut expected = FlavorProfile::empty();
        for p in &profiles {
            expected = expected.union(p);
        }
        prop_assert_eq!(pooled, expected);
    }

    #[test]
    fn profiles_sorted_dedup_invariant(ids in proptest::collection::vec(0u32..100, 0..80)) {
        let p: FlavorProfile = ids.iter().copied().collect();
        let mols = p.molecules();
        for w in mols.windows(2) {
            prop_assert!(w[0] < w[1], "not strictly sorted: {mols:?}");
        }
        for &id in &ids {
            prop_assert!(p.contains(MoleculeId(id)));
        }
    }

    #[test]
    fn snapshot_roundtrips_random_dbs(
        seed in 0u64..10_000,
        n_ing in 5usize..40,
        remove_k in 0usize..5,
        synonym_k in 0usize..5,
    ) {
        let cfg = GeneratorConfig {
            seed,
            n_molecules: 120,
            n_ingredients: n_ing,
            mean_profile_size: 8.0,
            profile_sigma: 0.5,
            category_affinity: 0.5,
            shared_pool_fraction: 0.3,
        };
        let mut db = generate_flavor_db(&cfg);
        // Tombstone a few ingredients to stress slot preservation, then
        // point a few synonyms at survivors.
        let names: Vec<String> = db.ingredients().take(remove_k).map(|i| i.name.clone()).collect();
        for name in &names {
            db.remove_ingredient(name).expect("exists");
        }
        let live: Vec<String> = db.ingredients().take(synonym_k).map(|i| i.name.clone()).collect();
        for (k, name) in live.iter().enumerate() {
            db.add_synonym(&format!("alias {k}"), name).expect("live target");
        }
        // builder → open → to_flavor_db → builder: one byte encoding
        // per logical content.
        let bytes = AlignedBytes::from_vec(FlavorArtifactBuilder::new(&db).build().expect("encodes"));
        let back = artifact::open(bytes.as_slice())
            .expect("opens")
            .to_flavor_db()
            .expect("materializes");
        prop_assert_eq!(back.n_ingredients(), db.n_ingredients());
        prop_assert_eq!(back.n_ingredient_slots(), db.n_ingredient_slots());
        for (x, y) in db.ingredients().zip(back.ingredients()) {
            prop_assert_eq!(x, y);
        }
        let mut want: Vec<_> = db.synonyms().collect();
        let mut got: Vec<_> = back.synonyms().collect();
        want.sort();
        got.sort();
        prop_assert_eq!(got, want);
        let rebuilt = FlavorArtifactBuilder::new(&back).build().expect("re-encodes");
        prop_assert_eq!(rebuilt.as_slice(), bytes.as_slice());
    }

    #[test]
    fn shared_molecules_symmetric_in_generated_db(seed in 0u64..500) {
        let db = generate_flavor_db(&GeneratorConfig::tiny(seed));
        let ids: Vec<_> = db.ingredient_ids().take(12).collect();
        for &a in &ids {
            for &b in &ids {
                prop_assert_eq!(
                    db.shared_molecules(a, b).expect("live ids"),
                    db.shared_molecules(b, a).expect("live ids")
                );
            }
            let self_shared = db.shared_molecules(a, a).expect("live id");
            prop_assert_eq!(self_shared, db.ingredient(a).expect("live").profile.len());
        }
    }

    #[test]
    fn compound_profile_superset_of_constituents(seed in 0u64..200) {
        let mut db = generate_flavor_db(&GeneratorConfig::tiny(seed));
        let parts: Vec<_> = db.ingredient_ids().take(3).collect();
        let compound = db
            .add_compound_ingredient("test compound", Category::Dish, &parts)
            .expect("constituents exist");
        let cp = db.ingredient(compound).expect("live").profile.clone();
        for &part in &parts {
            let pp = &db.ingredient(part).expect("live").profile;
            for &m in pp.molecules() {
                prop_assert!(cp.contains(m));
            }
        }
    }
}

#[test]
fn curated_db_is_internally_consistent() {
    use culinaria_flavordb::curated::curated_db;
    let db = curated_db();
    // Every live ingredient's profile references valid molecules.
    for ing in db.ingredients() {
        for &m in ing.profile.molecules() {
            assert!(
                db.molecule(m).is_ok(),
                "{}: dangling molecule {m}",
                ing.name
            );
        }
    }
    // Every synonym resolves to a live ingredient.
    let syns: Vec<(String, _)> = db.synonyms().map(|(s, id)| (s.to_owned(), id)).collect();
    for (syn, _) in syns {
        assert!(
            db.ingredient_by_name(&syn).is_some(),
            "synonym {syn} does not resolve"
        );
    }
}

#[test]
fn regenerating_same_config_is_identical_via_snapshot_bytes() {
    let cfg = GeneratorConfig::tiny(77);
    let a = generate_flavor_db(&cfg);
    let b = generate_flavor_db(&cfg);
    assert_eq!(
        FlavorArtifactBuilder::new(&a).build().unwrap(),
        FlavorArtifactBuilder::new(&b).build().unwrap()
    );
}
