#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! CFDB2: the zero-copy flavor-database artifact, and the only on-disk
//! form of a [`FlavorDb`].
//!
//! Opening it allocates nothing: it is one 8-byte-aligned
//! little-endian buffer whose sections are already in the shapes the
//! hot paths consume —
//!
//! * packed **bit planes** (one per ingredient slot, sized to the full
//!   molecule universe, bit position = global molecule id) borrowable
//!   as `&[u64]` straight into [`crate::kernel`];
//! * sorted **profile id** runs borrowable as `&[MoleculeId]`
//!   (`repr(transparent)` over `u32`);
//! * all names interned into one UTF-8 **string blob**, referenced by
//!   `(offset, length)` spans;
//! * sorted **name** and **synonym** indexes for binary-search lookup
//!   without a hash map;
//! * optional precomputed **overlap triangles** (labelled pools with
//!   their pairwise shared-molecule counts), so a cuisine analysis can
//!   skip the O(n²·words) AND+popcount sweep entirely.
//!
//! [`open`] validates bounds, alignment, counts, sort orders, and
//! bit-plane/profile agreement once, then [`BorrowedFlavorDb`]
//! accessors are straight pointer arithmetic: no copies, no
//! allocation, no panics. See `DESIGN.md` §12 for the byte-level
//! layout and the validation ledger.

pub mod layout;

use crate::category::Category;
use crate::db::FlavorDb;
use crate::error::FlavorDbError;
use crate::ids::{IngredientId, MoleculeId};
use crate::profile::FlavorProfile;

use layout::{
    cast_u32s, cast_u64s, str_span, u32_at, u64_at, ArtifactWriter, Sections, StringTable,
};
pub use layout::{AlignedBytes, ArtifactError};

/// Magic bytes opening every CFDB2 buffer.
pub const CFDB2_MAGIC: [u8; 8] = *b"CFDB2\x00\x00\x00";
/// Format version this module writes and reads.
pub const CFDB2_VERSION: u32 = 2;

const K_META: u32 = 1;
const K_STRINGS: u32 = 2;
const K_MOLECULES: u32 = 3;
const K_DESC_SPANS: u32 = 4;
const K_INGREDIENTS: u32 = 5;
const K_PROFILE_IDS: u32 = 6;
const K_BIT_PLANES: u32 = 7;
const K_SYNONYMS: u32 = 8;
const K_NAME_INDEX: u32 = 9;
const K_OVERLAP_INDEX: u32 = 10;
const K_OVERLAP_POOL: u32 = 11;
const K_OVERLAP_TRI: u32 = 12;
const N_KINDS: usize = 12;

const META_BYTES: usize = 40;
const MOL_REC: usize = 16;
const SPAN_REC: usize = 8;
const ING_REC: usize = 24;
const SYN_REC: usize = 12;
const OVL_REC: usize = 24;

/// Ingredient-record flag bit: the slot holds a live ingredient.
const FLAG_LIVE: u32 = 1;
/// Ingredient-record flag bit: the ingredient is a compound.
const FLAG_COMPOUND: u32 = 2;

fn count_u32(n: usize, what: &str) -> Result<u32, ArtifactError> {
    u32::try_from(n).map_err(|_| ArtifactError::TooLarge(format!("{what} count {n} exceeds u32")))
}

fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Serializes a [`FlavorDb`] (plus optional precomputed overlap
/// triangles) into a canonical CFDB2 buffer.
///
/// The builder is deterministic: the same database and overlap set
/// produce a byte-identical buffer on every run (synonyms, the name
/// index, and overlap sections are sorted; strings are interned in a
/// fixed traversal order).
#[derive(Debug)]
pub struct FlavorArtifactBuilder<'a> {
    db: &'a FlavorDb,
    overlaps: Vec<(String, Vec<IngredientId>, Vec<u32>)>,
}

impl<'a> FlavorArtifactBuilder<'a> {
    /// Start a builder over an owned database.
    pub fn new(db: &'a FlavorDb) -> FlavorArtifactBuilder<'a> {
        FlavorArtifactBuilder {
            db,
            overlaps: Vec::new(),
        }
    }

    /// Attach a precomputed overlap triangle under `label` (typically
    /// a region code): `pool` is the strictly sorted ingredient pool
    /// and `tri` its upper-triangle pairwise shared-molecule counts in
    /// the same row-major order `OverlapCache` uses
    /// (`tri.len() == pool.len()·(pool.len()−1)/2`).
    pub fn add_overlap(
        &mut self,
        label: &str,
        pool: &[IngredientId],
        tri: &[u32],
    ) -> Result<(), ArtifactError> {
        if label.is_empty() {
            return Err(ArtifactError::Corrupt(
                "overlap label must not be empty".to_string(),
            ));
        }
        if self.overlaps.iter().any(|(l, _, _)| l == label) {
            return Err(ArtifactError::Corrupt(format!(
                "duplicate overlap label '{label}'"
            )));
        }
        if !pool.windows(2).all(|w| w[0] < w[1]) {
            return Err(ArtifactError::Corrupt(format!(
                "overlap '{label}' pool is not strictly sorted"
            )));
        }
        for &id in pool {
            if self.db.ingredient(id).is_err() {
                return Err(ArtifactError::Corrupt(format!(
                    "overlap '{label}' references dead ingredient {id}"
                )));
            }
        }
        let expect = pool.len() * pool.len().saturating_sub(1) / 2;
        if tri.len() != expect {
            return Err(ArtifactError::Corrupt(format!(
                "overlap '{label}' has {} counts for a {}-pool (need {expect})",
                tri.len(),
                pool.len()
            )));
        }
        self.overlaps
            .push((label.to_owned(), pool.to_vec(), tri.to_vec()));
        Ok(())
    }

    /// Serialize into a canonical CFDB2 buffer.
    pub fn build(&self) -> Result<Vec<u8>, ArtifactError> {
        let db = self.db;
        let n_molecules = db.n_molecules();
        let n_slots = db.n_ingredient_slots();
        let universe_words = n_molecules.div_ceil(64);

        let mut strings = StringTable::new();

        // Molecules + descriptor spans, in id order.
        let mut molecules_sec = Vec::with_capacity(n_molecules * MOL_REC);
        let mut desc_spans_sec = Vec::new();
        let mut n_desc_spans = 0u32;
        for m in db.molecules() {
            let (name_off, name_len) = strings.intern(&m.name)?;
            let desc_start = n_desc_spans;
            for d in &m.descriptors {
                let (off, len) = strings.intern(d)?;
                push_u32s(&mut desc_spans_sec, &[off, len]);
                n_desc_spans = n_desc_spans
                    .checked_add(1)
                    .ok_or_else(|| ArtifactError::TooLarge("descriptor spans".to_string()))?;
            }
            let count = count_u32(m.descriptors.len(), "molecule descriptor")?;
            push_u32s(&mut molecules_sec, &[name_off, name_len, desc_start, count]);
        }

        // Ingredient slots, profile ids, and full-universe bit planes,
        // in slot order (dead slots are all-zero records/planes).
        let mut ingredients_sec = Vec::with_capacity(n_slots * ING_REC);
        let mut profile_ids_sec = Vec::new();
        let mut planes_sec = Vec::with_capacity(n_slots * universe_words * 8);
        let mut n_profile_ids = 0u32;
        let mut n_live = 0usize;
        for slot in 0..n_slots {
            let slot_u32 = count_u32(slot, "ingredient slot")?;
            match db.ingredient(IngredientId(slot_u32)) {
                Ok(ing) => {
                    n_live += 1;
                    let (name_off, name_len) = strings.intern(&ing.name)?;
                    let prof_start = n_profile_ids;
                    let mut plane = vec![0u64; universe_words];
                    for &m in ing.profile.molecules() {
                        push_u32s(&mut profile_ids_sec, &[m.0]);
                        let bit = m.index();
                        if let Some(word) = plane.get_mut(bit / 64) {
                            *word |= 1u64 << (bit % 64);
                        }
                    }
                    n_profile_ids =
                        count_u32(n_profile_ids as usize + ing.profile.len(), "profile id")?;
                    let flags = FLAG_LIVE | if ing.is_compound { FLAG_COMPOUND } else { 0 };
                    let category = count_u32(ing.category.index(), "category")?;
                    push_u32s(
                        &mut ingredients_sec,
                        &[
                            name_off,
                            name_len,
                            prof_start,
                            n_profile_ids - prof_start,
                            flags,
                            category,
                        ],
                    );
                    for w in plane {
                        planes_sec.extend_from_slice(&w.to_le_bytes());
                    }
                }
                Err(_) => {
                    push_u32s(&mut ingredients_sec, &[0, 0, n_profile_ids, 0, 0, 0]);
                    planes_sec.extend_from_slice(&vec![0u8; universe_words * 8]);
                }
            }
        }

        // Synonyms sorted by name (HashMap iteration order is not
        // deterministic; the sort also enables binary-search lookup).
        let mut synonyms: Vec<(&str, IngredientId)> = db.synonyms().collect();
        synonyms.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut synonyms_sec = Vec::with_capacity(synonyms.len() * SYN_REC);
        for (name, target) in &synonyms {
            let (off, len) = strings.intern(name)?;
            push_u32s(&mut synonyms_sec, &[off, len, target.0]);
        }

        // Live slots sorted by canonical name.
        let mut by_name: Vec<IngredientId> = db.ingredient_ids().collect();
        by_name.sort_unstable_by(|&a, &b| {
            let an = db.ingredient(a).map(|i| i.name.as_str()).unwrap_or("");
            let bn = db.ingredient(b).map(|i| i.name.as_str()).unwrap_or("");
            an.cmp(bn)
        });
        let mut name_index_sec = Vec::with_capacity(by_name.len() * 4);
        for id in &by_name {
            push_u32s(&mut name_index_sec, &[id.0]);
        }

        // Overlap sections sorted by label; pools and triangles tile
        // their flat arrays in index order.
        let mut overlaps: Vec<&(String, Vec<IngredientId>, Vec<u32>)> =
            self.overlaps.iter().collect();
        overlaps.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut overlap_index_sec = Vec::with_capacity(overlaps.len() * OVL_REC);
        let mut overlap_pool_sec = Vec::new();
        let mut overlap_tri_sec = Vec::new();
        let mut pool_cursor = 0u32;
        let mut tri_cursor = 0u32;
        for (label, pool, tri) in overlaps.iter().copied() {
            let (off, len) = strings.intern(label)?;
            let pool_len = count_u32(pool.len(), "overlap pool")?;
            let tri_len = count_u32(tri.len(), "overlap triangle")?;
            push_u32s(
                &mut overlap_index_sec,
                &[off, len, pool_cursor, pool_len, tri_cursor, tri_len],
            );
            for id in pool {
                push_u32s(&mut overlap_pool_sec, &[id.0]);
            }
            push_u32s(&mut overlap_tri_sec, tri);
            pool_cursor = count_u32(pool_cursor as usize + pool.len(), "overlap pool")?;
            tri_cursor = count_u32(tri_cursor as usize + tri.len(), "overlap triangle")?;
        }

        let mut meta = Vec::with_capacity(META_BYTES);
        push_u32s(
            &mut meta,
            &[
                count_u32(n_molecules, "molecule")?,
                count_u32(n_slots, "ingredient slot")?,
                count_u32(n_live, "live ingredient")?,
                count_u32(synonyms.len(), "synonym")?,
                n_desc_spans,
                n_profile_ids,
                count_u32(universe_words, "universe word")?,
                count_u32(self.overlaps.len(), "overlap")?,
            ],
        );
        meta.extend_from_slice(&0u64.to_le_bytes());

        let mut w = ArtifactWriter::new(CFDB2_MAGIC, CFDB2_VERSION);
        w.section(K_META, meta);
        w.section(K_STRINGS, strings.into_blob());
        w.section(K_MOLECULES, molecules_sec);
        w.section(K_DESC_SPANS, desc_spans_sec);
        w.section(K_INGREDIENTS, ingredients_sec);
        w.section(K_PROFILE_IDS, profile_ids_sec);
        w.section(K_BIT_PLANES, planes_sec);
        w.section(K_SYNONYMS, synonyms_sec);
        w.section(K_NAME_INDEX, name_index_sec);
        w.section(K_OVERLAP_INDEX, overlap_index_sec);
        w.section(K_OVERLAP_POOL, overlap_pool_sec);
        w.section(K_OVERLAP_TRI, overlap_tri_sec);
        w.finish()
    }
}

/// A validated zero-copy view over a CFDB2 buffer.
///
/// Construction ([`open`]) is the only place that can fail; every
/// accessor afterwards is bounds-safe pointer arithmetic returning
/// borrows into the underlying buffer.
#[derive(Debug, Clone, Copy)]
pub struct BorrowedFlavorDb<'a> {
    strings: &'a str,
    molecules: &'a [u8],
    desc_spans: &'a [u8],
    ingredients: &'a [u8],
    profile_ids: &'a [MoleculeId],
    planes: &'a [u64],
    synonyms: &'a [u8],
    name_index: &'a [u32],
    overlap_index: &'a [u8],
    overlap_pool: &'a [IngredientId],
    overlap_tri: &'a [u32],
    n_molecules: usize,
    n_slots: usize,
    n_live: usize,
    universe_words: usize,
}

/// Reinterpret a validated `&[u32]` as ids (`repr(transparent)`).
fn as_molecule_ids(ids: &[u32]) -> &[MoleculeId] {
    // SAFETY: MoleculeId is repr(transparent) over u32, so the slices
    // have identical layout.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<MoleculeId>(), ids.len()) }
}

/// Reinterpret a validated `&[u32]` as ids (`repr(transparent)`).
fn as_ingredient_ids(ids: &[u32]) -> &[IngredientId] {
    // SAFETY: IngredientId is repr(transparent) over u32, so the
    // slices have identical layout.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<IngredientId>(), ids.len()) }
}

/// Validate a CFDB2 buffer and return its zero-copy view.
///
/// The buffer must start on an 8-byte boundary ([`AlignedBytes`]
/// guarantees that for file loads) on a little-endian host. Every
/// structural invariant the accessors rely on is checked here once;
/// see `DESIGN.md` §12 for the full ledger.
pub fn open(buf: &[u8]) -> Result<BorrowedFlavorDb<'_>, ArtifactError> {
    let sections = Sections::parse(buf, &CFDB2_MAGIC, CFDB2_VERSION, N_KINDS)?;
    let meta = sections.bytes(K_META as usize);
    if meta.len() != META_BYTES {
        return Err(ArtifactError::Corrupt(format!(
            "META section is {} bytes, expected {META_BYTES}",
            meta.len()
        )));
    }
    let n_molecules = u32_at(meta, 0) as usize;
    let n_slots = u32_at(meta, 4) as usize;
    let n_live = u32_at(meta, 8) as usize;
    let n_synonyms = u32_at(meta, 12) as usize;
    let n_desc_spans = u32_at(meta, 16) as usize;
    let n_profile_ids = u32_at(meta, 20) as usize;
    let universe_words = u32_at(meta, 24) as usize;
    let n_overlaps = u32_at(meta, 28) as usize;
    if u64_at(meta, 32) != 0 {
        return Err(ArtifactError::Corrupt(
            "META reserved field set".to_string(),
        ));
    }
    if universe_words != n_molecules.div_ceil(64) {
        return Err(ArtifactError::Corrupt(format!(
            "universe_words {universe_words} does not match {n_molecules} molecules"
        )));
    }

    let check_len = |kind: u32, per: usize, n: usize, what: &str| -> Result<&[u8], ArtifactError> {
        let bytes = sections.bytes(kind as usize);
        let need = per
            .checked_mul(n)
            .ok_or_else(|| ArtifactError::TooLarge(format!("{what} section size overflows")))?;
        if bytes.len() != need {
            return Err(ArtifactError::Corrupt(format!(
                "{what} section is {} bytes, counts require {need}",
                bytes.len()
            )));
        }
        Ok(bytes)
    };

    let strings = std::str::from_utf8(sections.bytes(K_STRINGS as usize))
        .map_err(|e| ArtifactError::Corrupt(format!("string blob is not UTF-8: {e}")))?;
    let molecules = check_len(K_MOLECULES, MOL_REC, n_molecules, "MOLECULES")?;
    let desc_spans = check_len(K_DESC_SPANS, SPAN_REC, n_desc_spans, "DESC_SPANS")?;
    let ingredients = check_len(K_INGREDIENTS, ING_REC, n_slots, "INGREDIENTS")?;
    let profile_bytes = check_len(K_PROFILE_IDS, 4, n_profile_ids, "PROFILE_IDS")?;
    let planes_bytes = check_len(K_BIT_PLANES, 8 * universe_words, n_slots, "BIT_PLANES")?;
    let synonyms = check_len(K_SYNONYMS, SYN_REC, n_synonyms, "SYNONYMS")?;
    let name_index_bytes = check_len(K_NAME_INDEX, 4, n_live, "NAME_INDEX")?;
    let overlap_index = check_len(K_OVERLAP_INDEX, OVL_REC, n_overlaps, "OVERLAP_INDEX")?;

    let profile_ids = as_molecule_ids(cast_u32s(profile_bytes)?);
    let planes = cast_u64s(planes_bytes)?;
    let name_index = cast_u32s(name_index_bytes)?;
    let overlap_pool = as_ingredient_ids(cast_u32s(sections.bytes(K_OVERLAP_POOL as usize))?);
    let overlap_tri = cast_u32s(sections.bytes(K_OVERLAP_TRI as usize))?;

    // Molecule records: valid name spans, canonical descriptor tiling.
    let mut desc_cursor = 0usize;
    for i in 0..n_molecules {
        let rec = i * MOL_REC;
        let name = str_span(strings, u32_at(molecules, rec), u32_at(molecules, rec + 4))
            .ok_or_else(|| ArtifactError::Corrupt(format!("molecule {i} name span invalid")))?;
        if name.is_empty() {
            return Err(ArtifactError::Corrupt(format!(
                "molecule {i} has empty name"
            )));
        }
        let desc_start = u32_at(molecules, rec + 8) as usize;
        let desc_count = u32_at(molecules, rec + 12) as usize;
        if desc_start != desc_cursor {
            return Err(ArtifactError::Corrupt(format!(
                "molecule {i} descriptor run starts at {desc_start}, canonical is {desc_cursor}"
            )));
        }
        desc_cursor += desc_count;
        if desc_cursor > n_desc_spans {
            return Err(ArtifactError::Corrupt(format!(
                "molecule {i} descriptor run overruns DESC_SPANS"
            )));
        }
    }
    if desc_cursor != n_desc_spans {
        return Err(ArtifactError::Corrupt(format!(
            "DESC_SPANS has {n_desc_spans} spans, molecules reference {desc_cursor}"
        )));
    }
    for i in 0..n_desc_spans {
        let rec = i * SPAN_REC;
        str_span(
            strings,
            u32_at(desc_spans, rec),
            u32_at(desc_spans, rec + 4),
        )
        .ok_or_else(|| ArtifactError::Corrupt(format!("descriptor span {i} invalid")))?;
    }

    // Ingredient slots: canonical profile tiling, sorted in-range
    // profiles, and bit planes that agree with them exactly.
    let mut prof_cursor = 0usize;
    let mut live_seen = 0usize;
    for slot in 0..n_slots {
        let rec = slot * ING_REC;
        let name_off = u32_at(ingredients, rec);
        let name_len = u32_at(ingredients, rec + 4);
        let prof_start = u32_at(ingredients, rec + 8) as usize;
        let prof_len = u32_at(ingredients, rec + 12) as usize;
        let flags = u32_at(ingredients, rec + 16);
        let category = u32_at(ingredients, rec + 20) as usize;
        if flags & !(FLAG_LIVE | FLAG_COMPOUND) != 0 {
            return Err(ArtifactError::Corrupt(format!(
                "ingredient slot {slot} has unknown flags {flags:#x}"
            )));
        }
        if prof_start != prof_cursor {
            return Err(ArtifactError::Corrupt(format!(
                "ingredient slot {slot} profile starts at {prof_start}, canonical is {prof_cursor}"
            )));
        }
        prof_cursor += prof_len;
        if prof_cursor > n_profile_ids {
            return Err(ArtifactError::Corrupt(format!(
                "ingredient slot {slot} profile overruns PROFILE_IDS"
            )));
        }
        let plane = planes
            .get(slot * universe_words..(slot + 1) * universe_words)
            .unwrap_or(&[]);
        if flags & FLAG_LIVE != 0 {
            live_seen += 1;
            if category >= Category::ALL.len() {
                return Err(ArtifactError::Corrupt(format!(
                    "ingredient slot {slot} has category {category} (>= 21)"
                )));
            }
            let name = str_span(strings, name_off, name_len).ok_or_else(|| {
                ArtifactError::Corrupt(format!("ingredient slot {slot} name span invalid"))
            })?;
            if name.is_empty() {
                return Err(ArtifactError::Corrupt(format!(
                    "ingredient slot {slot} has empty name"
                )));
            }
            let profile = profile_ids
                .get(prof_start..prof_start + prof_len)
                .unwrap_or(&[]);
            let mut prev: Option<MoleculeId> = None;
            for &m in profile {
                if m.index() >= n_molecules {
                    return Err(ArtifactError::Corrupt(format!(
                        "ingredient slot {slot} references molecule {} (>= {n_molecules})",
                        m.0
                    )));
                }
                if prev.is_some_and(|p| p >= m) {
                    return Err(ArtifactError::Corrupt(format!(
                        "ingredient slot {slot} profile is not strictly sorted"
                    )));
                }
                prev = Some(m);
                let bit = m.index();
                let word = plane.get(bit / 64).copied().unwrap_or(0);
                if word >> (bit % 64) & 1 == 0 {
                    return Err(ArtifactError::Corrupt(format!(
                        "ingredient slot {slot} bit plane is missing molecule {}",
                        m.0
                    )));
                }
            }
            // Popcount equality + every profile bit present ⇒ the
            // plane is exactly the profile (catches any stray bit).
            if crate::kernel::popcount(plane) as usize != prof_len {
                return Err(ArtifactError::Corrupt(format!(
                    "ingredient slot {slot} bit plane popcount disagrees with profile length"
                )));
            }
        } else {
            if name_off != 0 || name_len != 0 || prof_len != 0 || flags != 0 || category != 0 {
                return Err(ArtifactError::Corrupt(format!(
                    "dead ingredient slot {slot} has nonzero fields"
                )));
            }
            if crate::kernel::popcount(plane) != 0 {
                return Err(ArtifactError::Corrupt(format!(
                    "dead ingredient slot {slot} has bits in its plane"
                )));
            }
        }
    }
    if prof_cursor != n_profile_ids {
        return Err(ArtifactError::Corrupt(format!(
            "PROFILE_IDS has {n_profile_ids} ids, ingredients reference {prof_cursor}"
        )));
    }
    if live_seen != n_live {
        return Err(ArtifactError::Corrupt(format!(
            "META declares {n_live} live ingredients, slots hold {live_seen}"
        )));
    }

    let view = BorrowedFlavorDb {
        strings,
        molecules,
        desc_spans,
        ingredients,
        profile_ids,
        planes,
        synonyms,
        name_index,
        overlap_index,
        overlap_pool,
        overlap_tri,
        n_molecules,
        n_slots,
        n_live,
        universe_words,
    };

    // Synonyms: valid spans, strictly name-sorted, in-range targets.
    let mut prev_name: Option<&str> = None;
    for i in 0..n_synonyms {
        let rec = i * SYN_REC;
        let name = str_span(strings, u32_at(synonyms, rec), u32_at(synonyms, rec + 4))
            .ok_or_else(|| ArtifactError::Corrupt(format!("synonym {i} name span invalid")))?;
        if prev_name.is_some_and(|p| p >= name) {
            return Err(ArtifactError::Corrupt(format!(
                "synonyms are not strictly sorted at entry {i}"
            )));
        }
        prev_name = Some(name);
        let target = u32_at(synonyms, rec + 8) as usize;
        if target >= n_slots {
            return Err(ArtifactError::Corrupt(format!(
                "synonym {i} targets slot {target} (>= {n_slots})"
            )));
        }
    }

    // Name index: live slots, strictly sorted by canonical name.
    let mut prev_name: Option<&str> = None;
    for (i, &slot) in name_index.iter().enumerate() {
        let slot = slot as usize;
        if slot >= n_slots || !view.is_live(IngredientId(slot as u32)) {
            return Err(ArtifactError::Corrupt(format!(
                "name index entry {i} references slot {slot}, which is not live"
            )));
        }
        let name = view.slot_name(slot);
        if prev_name.is_some_and(|p| p >= name) {
            return Err(ArtifactError::Corrupt(format!(
                "name index is not strictly sorted at entry {i}"
            )));
        }
        prev_name = Some(name);
    }

    // Overlap sections: strictly label-sorted, canonical pool/triangle
    // tiling, live sorted pools, exact triangle sizes.
    let mut prev_label: Option<&str> = None;
    let mut pool_cursor = 0usize;
    let mut tri_cursor = 0usize;
    for i in 0..n_overlaps {
        let rec = i * OVL_REC;
        let label = str_span(
            strings,
            u32_at(overlap_index, rec),
            u32_at(overlap_index, rec + 4),
        )
        .ok_or_else(|| ArtifactError::Corrupt(format!("overlap {i} label span invalid")))?;
        if label.is_empty() {
            return Err(ArtifactError::Corrupt(format!(
                "overlap {i} has empty label"
            )));
        }
        if prev_label.is_some_and(|p| p >= label) {
            return Err(ArtifactError::Corrupt(format!(
                "overlap labels are not strictly sorted at entry {i}"
            )));
        }
        prev_label = Some(label);
        let pool_start = u32_at(overlap_index, rec + 8) as usize;
        let pool_len = u32_at(overlap_index, rec + 12) as usize;
        let tri_start = u32_at(overlap_index, rec + 16) as usize;
        let tri_len = u32_at(overlap_index, rec + 20) as usize;
        if pool_start != pool_cursor || tri_start != tri_cursor {
            return Err(ArtifactError::Corrupt(format!(
                "overlap '{label}' spans are not canonically tiled"
            )));
        }
        pool_cursor += pool_len;
        tri_cursor += tri_len;
        if pool_cursor > overlap_pool.len() || tri_cursor > overlap_tri.len() {
            return Err(ArtifactError::Corrupt(format!(
                "overlap '{label}' overruns its flat arrays"
            )));
        }
        if tri_len != pool_len * pool_len.saturating_sub(1) / 2 {
            return Err(ArtifactError::Corrupt(format!(
                "overlap '{label}' triangle size {tri_len} mismatches pool of {pool_len}"
            )));
        }
        let pool = overlap_pool
            .get(pool_start..pool_start + pool_len)
            .unwrap_or(&[]);
        let mut prev: Option<IngredientId> = None;
        for &id in pool {
            if id.index() >= n_slots || !view.is_live(id) {
                return Err(ArtifactError::Corrupt(format!(
                    "overlap '{label}' pool references slot {}, which is not live",
                    id.0
                )));
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(ArtifactError::Corrupt(format!(
                    "overlap '{label}' pool is not strictly sorted"
                )));
            }
            prev = Some(id);
        }
    }
    if pool_cursor != overlap_pool.len() || tri_cursor != overlap_tri.len() {
        return Err(ArtifactError::Corrupt(format!(
            "overlap flat arrays hold {} pool ids / {} counts, index references {pool_cursor} / {tri_cursor}",
            overlap_pool.len(),
            overlap_tri.len()
        )));
    }

    Ok(view)
}

impl<'a> BorrowedFlavorDb<'a> {
    /// Number of molecules.
    pub fn n_molecules(&self) -> usize {
        self.n_molecules
    }

    /// Number of ingredient slots (live + tombstoned).
    pub fn n_ingredient_slots(&self) -> usize {
        self.n_slots
    }

    /// Number of live ingredients.
    pub fn n_ingredients(&self) -> usize {
        self.n_live
    }

    /// `u64` words per bit plane (`n_molecules / 64`, rounded up).
    pub fn universe_words(&self) -> usize {
        self.universe_words
    }

    /// Name of a molecule, if the id is in range.
    pub fn molecule_name(&self, id: MoleculeId) -> Option<&'a str> {
        if id.index() >= self.n_molecules {
            return None;
        }
        let rec = id.index() * MOL_REC;
        str_span(
            self.strings,
            u32_at(self.molecules, rec),
            u32_at(self.molecules, rec + 4),
        )
    }

    /// Descriptors of a molecule (empty when the id is out of range).
    pub fn molecule_descriptors(&self, id: MoleculeId) -> impl Iterator<Item = &'a str> + '_ {
        let (start, count) = if id.index() < self.n_molecules {
            let rec = id.index() * MOL_REC;
            (
                u32_at(self.molecules, rec + 8) as usize,
                u32_at(self.molecules, rec + 12) as usize,
            )
        } else {
            (0, 0)
        };
        (start..start + count).filter_map(move |i| {
            let rec = i * SPAN_REC;
            str_span(
                self.strings,
                u32_at(self.desc_spans, rec),
                u32_at(self.desc_spans, rec + 4),
            )
        })
    }

    fn slot_flags(&self, slot: usize) -> u32 {
        u32_at(self.ingredients, slot * ING_REC + 16)
    }

    fn slot_name(&self, slot: usize) -> &'a str {
        let rec = slot * ING_REC;
        str_span(
            self.strings,
            u32_at(self.ingredients, rec),
            u32_at(self.ingredients, rec + 4),
        )
        .unwrap_or("")
    }

    /// True when the slot holds a live ingredient.
    pub fn is_live(&self, id: IngredientId) -> bool {
        id.index() < self.n_slots && self.slot_flags(id.index()) & FLAG_LIVE != 0
    }

    /// Canonical name of a live ingredient.
    pub fn ingredient_name(&self, id: IngredientId) -> Option<&'a str> {
        self.is_live(id).then(|| self.slot_name(id.index()))
    }

    /// Category of a live ingredient.
    pub fn category(&self, id: IngredientId) -> Option<Category> {
        if !self.is_live(id) {
            return None;
        }
        Category::from_index(u32_at(self.ingredients, id.index() * ING_REC + 20) as usize)
    }

    /// True when a live ingredient is a compound.
    pub fn is_compound(&self, id: IngredientId) -> Option<bool> {
        self.is_live(id)
            .then(|| self.slot_flags(id.index()) & FLAG_COMPOUND != 0)
    }

    /// Sorted molecule ids of a live ingredient's profile, borrowed
    /// from the buffer.
    pub fn profile(&self, id: IngredientId) -> Option<&'a [MoleculeId]> {
        if !self.is_live(id) {
            return None;
        }
        let rec = id.index() * ING_REC;
        let start = u32_at(self.ingredients, rec + 8) as usize;
        let len = u32_at(self.ingredients, rec + 12) as usize;
        self.profile_ids.get(start..start + len)
    }

    /// The full-universe bit plane of a slot (zeros for dead slots),
    /// borrowed from the buffer. Bit position = global molecule id.
    pub fn plane(&self, id: IngredientId) -> Option<&'a [u64]> {
        if id.index() >= self.n_slots {
            return None;
        }
        self.planes
            .get(id.index() * self.universe_words..(id.index() + 1) * self.universe_words)
    }

    /// Shared-molecule count of two live ingredients: one AND+popcount
    /// sweep over their borrowed planes.
    pub fn shared_count(&self, a: IngredientId, b: IngredientId) -> Option<u64> {
        if !self.is_live(a) || !self.is_live(b) {
            return None;
        }
        Some(crate::kernel::and_popcount(self.plane(a)?, self.plane(b)?))
    }

    /// Resolve a (case-insensitive) name — canonical first, then
    /// synonyms — by binary search over the sorted indexes.
    pub fn ingredient_by_name(&self, name: &str) -> Option<IngredientId> {
        let key = name.to_lowercase();
        if let Ok(i) = self
            .name_index
            .binary_search_by(|&slot| self.slot_name(slot as usize).cmp(key.as_str()))
        {
            return self.name_index.get(i).map(|&slot| IngredientId(slot));
        }
        let n_syn = self.synonyms.len() / SYN_REC;
        let mut lo = 0usize;
        let mut hi = n_syn;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let rec = mid * SYN_REC;
            let syn = str_span(
                self.strings,
                u32_at(self.synonyms, rec),
                u32_at(self.synonyms, rec + 4),
            )
            .unwrap_or("");
            match syn.cmp(key.as_str()) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let target = IngredientId(u32_at(self.synonyms, rec + 8));
                    // Dead targets don't resolve (mirrors FlavorDb).
                    return self.is_live(target).then_some(target);
                }
            }
        }
        None
    }

    /// All registered synonyms as `(name, target)`, in name order.
    pub fn synonyms(&self) -> impl Iterator<Item = (&'a str, IngredientId)> + '_ {
        (0..self.synonyms.len() / SYN_REC).filter_map(move |i| {
            let rec = i * SYN_REC;
            let name = str_span(
                self.strings,
                u32_at(self.synonyms, rec),
                u32_at(self.synonyms, rec + 4),
            )?;
            Some((name, IngredientId(u32_at(self.synonyms, rec + 8))))
        })
    }

    /// Ids of all live ingredients, in slot order.
    pub fn live_ids(&self) -> impl Iterator<Item = IngredientId> + '_ {
        (0..self.n_slots)
            .map(|s| IngredientId(s as u32))
            .filter(|&id| self.is_live(id))
    }

    /// Number of precomputed overlap sections.
    pub fn n_overlaps(&self) -> usize {
        self.overlap_index.len() / OVL_REC
    }

    /// The labels of the precomputed overlap sections, sorted.
    pub fn overlap_labels(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.n_overlaps()).filter_map(move |i| {
            let rec = i * OVL_REC;
            str_span(
                self.strings,
                u32_at(self.overlap_index, rec),
                u32_at(self.overlap_index, rec + 4),
            )
        })
    }

    /// The precomputed overlap section under `label`: the sorted
    /// ingredient pool and its upper-triangle pairwise counts, both
    /// borrowed from the buffer.
    pub fn overlap(&self, label: &str) -> Option<(&'a [IngredientId], &'a [u32])> {
        let n = self.n_overlaps();
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let rec = mid * OVL_REC;
            let l = str_span(
                self.strings,
                u32_at(self.overlap_index, rec),
                u32_at(self.overlap_index, rec + 4),
            )
            .unwrap_or("");
            match l.cmp(label) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let pool_start = u32_at(self.overlap_index, rec + 8) as usize;
                    let pool_len = u32_at(self.overlap_index, rec + 12) as usize;
                    let tri_start = u32_at(self.overlap_index, rec + 16) as usize;
                    let tri_len = u32_at(self.overlap_index, rec + 20) as usize;
                    let pool = self.overlap_pool.get(pool_start..pool_start + pool_len)?;
                    let tri = self.overlap_tri.get(tri_start..tri_start + tri_len)?;
                    return Some((pool, tri));
                }
            }
        }
        None
    }

    /// Rebuild an owned [`FlavorDb`] equal to the one the artifact was
    /// built from: replays molecules in id order, ingredients in slot
    /// order (recreating each dead slot as a tombstone so the id space
    /// stays identical), then synonyms.
    pub fn to_flavor_db(&self) -> Result<FlavorDb, FlavorDbError> {
        let mut db = FlavorDb::new();
        for i in 0..self.n_molecules {
            let id = MoleculeId(i as u32);
            let name = self
                .molecule_name(id)
                .ok_or_else(|| FlavorDbError::Snapshot(format!("molecule {i} unreadable")))?;
            let descriptors: Vec<&str> = self.molecule_descriptors(id).collect();
            db.add_molecule(name, &descriptors)
                .map_err(|e| FlavorDbError::Snapshot(format!("molecule replay: {e}")))?;
        }
        for slot in 0..self.n_slots {
            let id = IngredientId(slot as u32);
            if self.is_live(id) {
                let name = self
                    .ingredient_name(id)
                    .ok_or_else(|| FlavorDbError::Snapshot(format!("slot {slot} unreadable")))?;
                let category = self.category(id).ok_or_else(|| {
                    FlavorDbError::Snapshot(format!("slot {slot} category unreadable"))
                })?;
                let profile = self.profile(id).unwrap_or(&[]);
                let is_compound = self.is_compound(id).unwrap_or(false);
                db.add_ingredient_raw(
                    name,
                    category,
                    FlavorProfile::new(profile.to_vec()),
                    is_compound,
                )
                .map_err(|e| FlavorDbError::Snapshot(format!("ingredient replay: {e}")))?;
            } else {
                // Recreate the tombstone to keep the id space identical.
                let placeholder = format!("__tombstone_{slot}");
                db.add_ingredient_raw(&placeholder, Category::Plant, FlavorProfile::empty(), false)
                    .map_err(|e| FlavorDbError::Snapshot(format!("tombstone replay: {e}")))?;
                db.remove_ingredient(&placeholder)
                    .map_err(|e| FlavorDbError::Snapshot(format!("tombstone replay: {e}")))?;
            }
        }
        for (name, target) in self.synonyms() {
            db.add_synonym_raw(name.to_owned(), target);
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curated;

    fn curated_db() -> FlavorDb {
        curated::curated_db()
    }

    fn build(db: &FlavorDb) -> Vec<u8> {
        FlavorArtifactBuilder::new(db).build().expect("builds")
    }

    #[test]
    fn borrowed_view_matches_owned_db() {
        let db = curated_db();
        let buf = AlignedBytes::from_vec(build(&db));
        let view = open(buf.as_slice()).expect("opens");

        assert_eq!(view.n_molecules(), db.n_molecules());
        assert_eq!(view.n_ingredient_slots(), db.n_ingredient_slots());
        assert_eq!(view.n_ingredients(), db.n_ingredients());

        for ing in db.ingredients() {
            assert_eq!(view.ingredient_name(ing.id), Some(ing.name.as_str()));
            assert_eq!(view.category(ing.id), Some(ing.category));
            assert_eq!(view.is_compound(ing.id), Some(ing.is_compound));
            assert_eq!(view.profile(ing.id), Some(ing.profile.molecules()));
            assert_eq!(view.ingredient_by_name(&ing.name), Some(ing.id));
        }
        for (syn, target) in db.synonyms() {
            // Dead targets don't resolve in either representation.
            assert_eq!(
                view.ingredient_by_name(syn),
                db.ingredient_by_name(syn),
                "synonym {syn}"
            );
            assert!(view.synonyms().any(|(n, t)| n == syn && t == target));
        }
        assert_eq!(view.ingredient_by_name("no-such-ingredient"), None);

        for m in db.molecules() {
            assert_eq!(view.molecule_name(m.id), Some(m.name.as_str()));
            let descs: Vec<&str> = view.molecule_descriptors(m.id).collect();
            assert_eq!(descs.len(), m.descriptors.len());
            for (a, b) in descs.iter().zip(&m.descriptors) {
                assert_eq!(*a, b.as_str());
            }
        }
    }

    #[test]
    fn planes_reproduce_shared_counts() {
        let db = curated_db();
        let buf = AlignedBytes::from_vec(build(&db));
        let view = open(buf.as_slice()).expect("opens");
        let ids: Vec<IngredientId> = db.ingredient_ids().collect();
        for &a in ids.iter().take(12) {
            for &b in ids.iter().take(12) {
                let owned = db.shared_molecules(a, b).expect("live pair");
                assert_eq!(view.shared_count(a, b), Some(owned as u64), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rebuild_is_byte_identical() {
        let mut db = curated_db();
        // Exercise the tombstone path.
        db.remove_ingredient("tomato").expect("tomato exists");
        let first = build(&db);
        let buf = AlignedBytes::from_vec(first.clone());
        let view = open(buf.as_slice()).expect("opens");
        let rebuilt = view.to_flavor_db().expect("rebuilds");
        assert_eq!(build(&rebuilt), first);
        assert!(!rebuilt
            .ingredient_ids()
            .any(|id| rebuilt.ingredient(id).expect("live").name == "tomato"));
    }

    #[test]
    fn overlap_sections_roundtrip() {
        let db = curated_db();
        let ids: Vec<IngredientId> = db.ingredient_ids().take(4).collect();
        let tri = vec![1u32, 2, 3, 4, 5, 6];
        let mut b = FlavorArtifactBuilder::new(&db);
        b.add_overlap("NorthAmerican", &ids, &tri).expect("valid");
        b.add_overlap("Italian", &ids[..2], &[9]).expect("valid");
        let buf = AlignedBytes::from_vec(b.build().expect("builds"));
        let view = open(buf.as_slice()).expect("opens");
        assert_eq!(view.n_overlaps(), 2);
        let (pool, t) = view.overlap("NorthAmerican").expect("present");
        assert_eq!(pool, &ids[..]);
        assert_eq!(t, &tri[..]);
        let (pool, t) = view.overlap("Italian").expect("present");
        assert_eq!(pool, &ids[..2]);
        assert_eq!(t, &[9]);
        assert!(view.overlap("Thai").is_none());
        let labels: Vec<&str> = view.overlap_labels().collect();
        assert_eq!(labels, ["Italian", "NorthAmerican"]);
    }

    #[test]
    fn overlap_builder_rejects_bad_sections() {
        let db = curated_db();
        let ids: Vec<IngredientId> = db.ingredient_ids().take(3).collect();
        let mut b = FlavorArtifactBuilder::new(&db);
        assert!(b.add_overlap("x", &ids, &[1, 2]).is_err(), "wrong tri size");
        let unsorted = vec![ids[1], ids[0], ids[2]];
        assert!(b.add_overlap("x", &unsorted, &[1, 2, 3]).is_err());
        b.add_overlap("x", &ids, &[1, 2, 3]).expect("valid");
        assert!(b.add_overlap("x", &ids, &[1, 2, 3]).is_err(), "dup label");
    }

    #[test]
    fn truncation_sweep_rejects_every_prefix() {
        let db = curated_db();
        let full = build(&db);
        for cut in 0..full.len() {
            let prefix = AlignedBytes::from_slice(&full[..cut]);
            assert!(open(prefix.as_slice()).is_err(), "prefix {cut} must fail");
        }
    }

    #[test]
    fn wrong_magic_and_version_error_distinctly() {
        let db = curated_db();
        let full = build(&db);
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        let bad_magic = AlignedBytes::from_vec(bad_magic);
        assert!(matches!(
            open(bad_magic.as_slice()),
            Err(ArtifactError::BadMagic)
        ));
        let mut bad_version = full.clone();
        bad_version[8] = 99;
        let bad_version = AlignedBytes::from_vec(bad_version);
        assert!(matches!(
            open(bad_version.as_slice()),
            Err(ArtifactError::BadVersion {
                found: 99,
                expect: CFDB2_VERSION
            })
        ));
    }

    #[test]
    fn misaligned_buffer_is_rejected() {
        let db = curated_db();
        let full = build(&db);
        let mut shifted = vec![0u8; full.len() + 4];
        shifted[4..].copy_from_slice(&full);
        let backing = AlignedBytes::from_vec(shifted);
        assert!(matches!(
            open(&backing.as_slice()[4..]),
            Err(ArtifactError::Misaligned)
        ));
    }
}
