//! Pins the generator's exact output. Each test digests whole worlds —
//! every ingredient's name, category and molecule ids, then every
//! recipe's name, region, source and ingredient ids, in that fixed
//! order — and compares against a digest recorded from the generator.
//!
//! A change that only makes generation faster must leave every digest
//! untouched: EXPERIMENTS.md, `results/*.txt` and the end-to-end
//! benchmark's Fig-4 sign check all rest on the exact world. A change
//! that means to alter the random streams or the scoring arithmetic
//! must re-record the digests and say so.

use culinaria_datagen::{generate_world, World, WorldConfig};

/// FNV-1a 64, spelled out so the digests do not depend on
/// `DefaultHasher`, whose algorithm is not stable across Rust releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so adjacent fields cannot run into each other.
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

fn digest(world: &World) -> u64 {
    let mut h = Fnv1a::new();
    h.u32(world.flavor.n_ingredients() as u32);
    for ing in world.flavor.ingredients() {
        h.str(&ing.name);
        h.u32(ing.category.index() as u32);
        let molecules = ing.profile.molecules();
        h.u32(molecules.len() as u32);
        for m in molecules {
            h.u32(m.0);
        }
    }
    h.u32(world.recipes.n_recipes() as u32);
    for r in world.recipes.recipes() {
        h.str(&r.name);
        h.str(r.region.code());
        h.str(r.source.name());
        h.u32(r.ingredients().len() as u32);
        for id in r.ingredients() {
            h.u32(id.0);
        }
    }
    h.0
}

fn assert_digest(label: &str, cfg: &WorldConfig, expected: u64) {
    let got = digest(&generate_world(cfg));
    assert_eq!(
        got, expected,
        "{label}: world digest {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn tiny_world_is_pinned() {
    assert_digest("tiny", &WorldConfig::tiny(), 0x6703_fcfc_d88a_12d3);
}

#[test]
fn small_world_is_pinned() {
    assert_digest("small", &WorldConfig::small(), 0x54e6_5b34_403a_b293);
}

#[test]
fn paper_world_is_pinned() {
    assert_digest("paper", &WorldConfig::paper(), 0x5ac7_4563_478f_aa79);
}

#[test]
fn ablation_worlds_are_pinned() {
    // `repro_ablation`'s (α, β) sweep at its scale of 0.05. Every
    // config is digested before comparing, so a failure lists them all.
    let sweep = [
        (0.0, 0.0),
        (1.4, 0.0),
        (0.0, 0.35),
        (1.4, 0.35),
        (1.4, 0.75),
        (2.8, 0.35),
    ];
    let got: Vec<String> = sweep
        .iter()
        .map(|&(alpha, beta)| {
            let mut cfg = WorldConfig::paper();
            cfg.recipe_scale = 0.05;
            cfg.popularity_similarity_bias = alpha;
            cfg.pairing_bias = beta;
            format!("{:#018x}", digest(&generate_world(&cfg)))
        })
        .collect();
    let pinned = [
        "0xe68e968213fccbc6",
        "0x9f6a3bfffa3f3e72",
        "0xbfdb3380d69c873b",
        "0x876ffcb3905daa86",
        "0x0f8a66a13fb35158",
        "0x367c66eacd36a101",
    ];
    assert_eq!(got, pinned, "ablation digests for (α, β) in {sweep:?}");
}
