//! Flavor profiles: sorted sets of molecule ids.
//!
//! The food-pairing score is built from pairwise profile intersections,
//! so the representation is a sorted, deduplicated `Vec<MoleculeId>`
//! giving O(min(|A|, |B|)) merge-style intersection without hashing.
//!
//! For cuisine-scale work the sorted-merge walk is still the hot loop:
//! an overlap matrix over an n-ingredient pool needs n²/2 intersections
//! over profiles of hundreds of molecules each. [`MoleculeUniverse`]
//! remaps the molecules that actually occur in a pool to dense bit
//! positions, and [`BitProfile`] packs a profile into `u64` words over
//! that universe, turning each intersection into a handful of
//! word-ANDs + popcounts.

use crate::ids::MoleculeId;

/// The flavor profile of an ingredient: the set of its flavor molecules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlavorProfile {
    /// Sorted, deduplicated molecule ids.
    molecules: Vec<MoleculeId>,
}

impl FlavorProfile {
    /// An empty profile (additives like food coloring have one).
    pub fn empty() -> Self {
        FlavorProfile::default()
    }

    /// Build from arbitrary ids; sorts and deduplicates.
    pub fn new(mut molecules: Vec<MoleculeId>) -> Self {
        molecules.sort_unstable();
        molecules.dedup();
        FlavorProfile { molecules }
    }

    /// Number of molecules.
    pub fn len(&self) -> usize {
        self.molecules.len()
    }

    /// True if no molecules.
    pub fn is_empty(&self) -> bool {
        self.molecules.is_empty()
    }

    /// Sorted molecule ids.
    pub fn molecules(&self) -> &[MoleculeId] {
        &self.molecules
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: MoleculeId) -> bool {
        self.molecules.binary_search(&id).is_ok()
    }

    /// Size of the intersection with `other` ([`shared_sorted`]).
    pub fn shared_count(&self, other: &FlavorProfile) -> usize {
        shared_sorted(&self.molecules, &other.molecules)
    }

    /// The intersection as a new profile.
    pub fn intersection(&self, other: &FlavorProfile) -> FlavorProfile {
        let (a, b) = (&self.molecules, &other.molecules);
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let mut i = 0;
        let mut j = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        FlavorProfile { molecules: out }
    }

    /// The union as a new profile — this is how compound-ingredient
    /// profiles are pooled from constituents.
    pub fn union(&self, other: &FlavorProfile) -> FlavorProfile {
        let (a, b) = (&self.molecules, &other.molecules);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let mut i = 0;
        let mut j = 0;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        FlavorProfile { molecules: out }
    }

    /// Pool many profiles into one (union fold).
    pub fn pooled<'a>(profiles: impl IntoIterator<Item = &'a FlavorProfile>) -> FlavorProfile {
        let mut all: Vec<MoleculeId> = Vec::new();
        for p in profiles {
            all.extend_from_slice(&p.molecules);
        }
        FlavorProfile::new(all)
    }

    /// Jaccard similarity |A∩B| / |A∪B|; 0 when both are empty.
    pub fn jaccard(&self, other: &FlavorProfile) -> f64 {
        let inter = self.shared_count(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

/// Size of the intersection of two sorted, deduplicated molecule-id
/// runs: one sorted-merge walk, O(|a| + |b|). Owned profiles and the
/// borrowed runs of a CFDB2 artifact both count shared molecules here.
#[inline]
pub fn shared_sorted(a: &[MoleculeId], b: &[MoleculeId]) -> usize {
    let (mut i, mut j, mut shared) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// A dense remap of the molecules occurring in some ingredient pool.
///
/// FlavorDB molecule ids are global and sparse relative to any one
/// cuisine: a pool of ~100 ingredients typically touches a small
/// fraction of the molecule table. The universe collects the distinct
/// molecules of the pool's profiles (sorted, so the mapping is
/// deterministic) and assigns each a bit position `0..len`, sizing the
/// [`BitProfile`] words to the pool instead of the whole database.
#[derive(Debug, Clone, Default)]
pub struct MoleculeUniverse {
    /// Sorted distinct molecule ids; position = bit index.
    molecules: Vec<MoleculeId>,
}

impl MoleculeUniverse {
    /// Collect the universe of every molecule in `profiles`, given as
    /// sorted-id slices: an owned [`FlavorProfile::molecules`] or a run
    /// borrowed from a zero-copy artifact.
    pub fn build<'a>(profiles: impl IntoIterator<Item = &'a [MoleculeId]>) -> MoleculeUniverse {
        let mut molecules: Vec<MoleculeId> = Vec::new();
        for p in profiles {
            molecules.extend_from_slice(p);
        }
        molecules.sort_unstable();
        molecules.dedup();
        MoleculeUniverse { molecules }
    }

    /// Number of distinct molecules (= number of bit positions).
    pub fn len(&self) -> usize {
        self.molecules.len()
    }

    /// True when no molecules were collected.
    pub fn is_empty(&self) -> bool {
        self.molecules.is_empty()
    }

    /// `u64` words needed per [`BitProfile`].
    pub fn words(&self) -> usize {
        self.molecules.len().div_ceil(64)
    }

    /// Bit position of a molecule, if it is in the universe.
    pub fn bit_of(&self, id: MoleculeId) -> Option<usize> {
        self.molecules.binary_search(&id).ok()
    }

    /// Pack a profile's molecule ids into bit words over this universe.
    /// Molecules outside the universe are dropped — callers build the
    /// universe from the same pool they pack, so nothing is lost in
    /// practice.
    pub fn pack(&self, molecules: &[MoleculeId]) -> BitProfile {
        let mut words = vec![0u64; self.words()];
        for &m in molecules {
            if let Some(bit) = self.bit_of(m) {
                words[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        BitProfile { words }
    }
}

/// A flavor profile packed as a bitset over a [`MoleculeUniverse`].
///
/// Two profiles packed over the *same* universe intersect in
/// O(words) word-ANDs + popcounts; comparing profiles from different
/// universes is a logic error (lengths differ, and bit positions mean
/// different molecules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitProfile {
    words: Vec<u64>,
}

impl BitProfile {
    /// Number of molecules set.
    pub fn count_ones(&self) -> usize {
        crate::kernel::popcount(&self.words) as usize
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the intersection: lane-widened word-AND + popcount
    /// (see [`crate::kernel`]).
    ///
    /// # Panics
    /// Debug-asserts both profiles come from the same universe (equal
    /// word counts).
    #[inline]
    pub fn shared_count(&self, other: &BitProfile) -> usize {
        debug_assert_eq!(
            self.words.len(),
            other.words.len(),
            "bit profiles from different universes"
        );
        crate::kernel::and_popcount(&self.words, &other.words) as usize
    }
}

impl FromIterator<MoleculeId> for FlavorProfile {
    fn from_iter<T: IntoIterator<Item = MoleculeId>>(iter: T) -> Self {
        FlavorProfile::new(iter.into_iter().collect())
    }
}

impl FromIterator<u32> for FlavorProfile {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        FlavorProfile::new(iter.into_iter().map(MoleculeId).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ids: &[u32]) -> FlavorProfile {
        ids.iter().copied().collect()
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let p = profile(&[5, 1, 3, 1, 5]);
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.molecules(),
            &[MoleculeId(1), MoleculeId(3), MoleculeId(5)]
        );
    }

    #[test]
    fn contains_binary_search() {
        let p = profile(&[2, 4, 6]);
        assert!(p.contains(MoleculeId(4)));
        assert!(!p.contains(MoleculeId(5)));
    }

    #[test]
    fn shared_count_cases() {
        assert_eq!(profile(&[1, 2, 3]).shared_count(&profile(&[2, 3, 4])), 2);
        assert_eq!(profile(&[1, 2]).shared_count(&profile(&[3, 4])), 0);
        assert_eq!(profile(&[]).shared_count(&profile(&[1])), 0);
        let p = profile(&[1, 2, 3]);
        assert_eq!(p.shared_count(&p), 3);
    }

    #[test]
    fn intersection_and_union() {
        let a = profile(&[1, 2, 3, 7]);
        let b = profile(&[2, 3, 9]);
        assert_eq!(a.intersection(&b), profile(&[2, 3]));
        assert_eq!(a.union(&b), profile(&[1, 2, 3, 7, 9]));
        // |A∩B| + |A∪B| = |A| + |B|.
        assert_eq!(
            a.intersection(&b).len() + a.union(&b).len(),
            a.len() + b.len()
        );
    }

    #[test]
    fn pooled_unions_all() {
        let parts = [profile(&[1, 2]), profile(&[2, 3]), profile(&[9])];
        let pooled = FlavorProfile::pooled(parts.iter());
        assert_eq!(pooled, profile(&[1, 2, 3, 9]));
    }

    #[test]
    fn jaccard_values() {
        let a = profile(&[1, 2, 3]);
        let b = profile(&[2, 3, 4]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(FlavorProfile::empty().jaccard(&FlavorProfile::empty()), 0.0);
    }

    #[test]
    fn empty_profile() {
        let e = FlavorProfile::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.union(&profile(&[1])), profile(&[1]));
    }

    #[test]
    fn universe_collects_sorted_distinct() {
        let ps = [profile(&[9, 1]), profile(&[1, 70]), profile(&[200])];
        let u = MoleculeUniverse::build(ps.iter().map(FlavorProfile::molecules));
        assert_eq!(u.len(), 4);
        assert_eq!(u.words(), 1);
        assert_eq!(u.bit_of(MoleculeId(1)), Some(0));
        assert_eq!(u.bit_of(MoleculeId(200)), Some(3));
        assert_eq!(u.bit_of(MoleculeId(5)), None);
        assert!(MoleculeUniverse::default().is_empty());
    }

    #[test]
    fn bit_shared_count_matches_sorted_merge() {
        // Spread ids across several words (ids up to 300 → ≥ 5 words).
        let a = profile(&[0, 63, 64, 65, 127, 128, 250, 300]);
        let b = profile(&[1, 63, 65, 128, 129, 300]);
        let c = profile(&[2, 4, 6]);
        let u = MoleculeUniverse::build([a.molecules(), b.molecules(), c.molecules()]);
        let (ba, bb, bc) = (
            u.pack(a.molecules()),
            u.pack(b.molecules()),
            u.pack(c.molecules()),
        );
        assert_eq!(ba.shared_count(&bb), a.shared_count(&b));
        assert_eq!(ba.shared_count(&bc), a.shared_count(&c));
        assert_eq!(bb.shared_count(&bc), b.shared_count(&c));
        assert_eq!(ba.count_ones(), a.len());
        assert_eq!(ba.shared_count(&ba), a.len());
    }

    #[test]
    fn pack_drops_out_of_universe_molecules() {
        let base = profile(&[1, 2, 3]);
        let u = MoleculeUniverse::build([base.molecules()]);
        let packed = u.pack(profile(&[2, 3, 99]).molecules());
        assert_eq!(packed.count_ones(), 2);
        assert_eq!(packed.shared_count(&u.pack(base.molecules())), 2);
    }

    #[test]
    fn empty_universe_and_profiles() {
        let u = MoleculeUniverse::build(std::iter::empty::<&[MoleculeId]>());
        assert_eq!(u.words(), 0);
        let e = u.pack(FlavorProfile::empty().molecules());
        assert_eq!(e.count_ones(), 0);
        assert_eq!(e.shared_count(&e), 0);
    }
}
