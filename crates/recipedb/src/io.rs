//! A byte image and a CSV export of a [`RecipeStore`].
//!
//! [`to_snapshot`] is a *comparison image*, not a storage format:
//! nothing reads it back. Two stores hold the same recipes in the same
//! order exactly when their images are equal, which is how the replay,
//! streaming and benchmark suites check a rebuilt store against a cold
//! import. The on-disk form of a store is the CRDB2 artifact
//! ([`crate::artifact`]). Image layout (little-endian):
//!
//! ```text
//! magic "CRDB1"
//! u32 n_recipes
//!   per recipe: str name, u8 region, u8 source,
//!               u32 n_ingredients, u32 × n (ingredient ids)
//! ```
//!
//! `str` = u32 byte length + UTF-8 bytes.

// User-reachable serialization surface: panicking on bad data is
// forbidden here — return errors instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{RecipeDbError, Result};
use crate::store::RecipeStore;

const MAGIC: &[u8; 5] = b"CRDB1";

fn put_str(buf: &mut BytesMut, s: &str) -> Result<()> {
    let len = u32::try_from(s.len()).map_err(|_| {
        RecipeDbError::Snapshot(format!(
            "string of {} bytes exceeds the u32 format limit",
            s.len()
        ))
    })?;
    buf.put_u32_le(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

fn put_count(buf: &mut BytesMut, n: usize, what: &str) -> Result<()> {
    let n = u32::try_from(n)
        .map_err(|_| RecipeDbError::Snapshot(format!("{what} {n} exceeds the u32 format limit")))?;
    buf.put_u32_le(n);
    Ok(())
}

/// Encode a store to its comparison image.
///
/// # Errors
///
/// Returns [`RecipeDbError::Snapshot`] when a value does not fit the
/// format's fixed-width fields (a recipe name or count beyond
/// `u32::MAX`) — the writer checks every conversion instead of silently
/// truncating, so two different stores never share an image.
pub fn to_snapshot(store: &RecipeStore) -> Result<Bytes> {
    let mut buf = BytesMut::with_capacity(1 << 16);
    buf.put_slice(MAGIC);
    put_count(&mut buf, store.n_recipes(), "recipe count")?;
    for r in store.recipes() {
        put_str(&mut buf, &r.name)?;
        buf.put_u8(r.region.index() as u8);
        buf.put_u8(r.source.index() as u8);
        put_count(&mut buf, r.size(), "ingredient count")?;
        for ing in r.ingredients() {
            buf.put_u32_le(ing.0);
        }
    }
    Ok(buf.freeze())
}

/// Export the store as CSV: `recipe_id,name,region,source,ingredients`
/// with ingredient ids `;`-joined.
pub fn to_csv(store: &RecipeStore) -> String {
    let mut out = String::from("recipe_id,name,region,source,ingredients\n");
    for r in store.recipes() {
        let ings: Vec<String> = r.ingredients().iter().map(|i| i.0.to_string()).collect();
        let name = if r.name.contains(',') || r.name.contains('"') {
            format!("\"{}\"", r.name.replace('"', "\"\""))
        } else {
            r.name.clone()
        };
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            r.id.0,
            name,
            r.region.code(),
            r.source.name(),
            ings.join(";")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Source;
    use crate::region::Region;
    use culinaria_flavordb::IngredientId;

    fn ing(id: u32) -> IngredientId {
        IngredientId(id)
    }

    fn store() -> RecipeStore {
        let mut s = RecipeStore::new();
        s.add_recipe(
            "pasta, fresh",
            Region::Italy,
            Source::Epicurious,
            vec![ing(0), ing(1)],
        )
        .unwrap();
        s.add_recipe(
            "sushi",
            Region::Japan,
            Source::AllRecipes,
            vec![ing(2), ing(3), ing(4)],
        )
        .unwrap();
        s
    }

    #[test]
    fn csv_export_shape() {
        let csv = to_csv(&store());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "recipe_id,name,region,source,ingredients");
        assert!(lines[1].contains("\"pasta, fresh\""));
        assert!(lines[1].contains("ITA"));
        assert!(lines[2].contains("2;3;4"));
    }
}
