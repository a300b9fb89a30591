//! What a store snapshot costs: cloning a store allocates its region
//! id lists and at most one chunk of recipes, never a copy of every
//! recipe. A live server keeps one snapshot per data generation, so a
//! full copy per clone would grow its memory with every ingest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use culinaria_flavordb::IngredientId;
use culinaria_recipedb::{io, RecipeStore, Region, Source};

/// The system allocator, counting the bytes that [`allocated_by`] asks
/// for on its own thread. Other test threads are never counted.
struct Counting;

thread_local! {
    /// Bytes allocated on this thread so far, or `None` when not
    /// counting. `const` and drop-free, so reading it never allocates.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + layout.size())));
        // SAFETY: the caller's `layout` requirements pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`, returning its result and the bytes it allocated on this
/// thread (reallocations count their new size).
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNTED.set(Some(0));
    let out = f();
    let bytes = COUNTED.replace(None).expect("counting was on");
    (out, bytes)
}

#[test]
fn clone_costs_region_ids_plus_one_chunk() {
    let n = 20_000u32;
    let mut store = RecipeStore::new();
    for i in 0..n {
        let region = Region::from_index(i as usize % 22).expect("index < 22");
        let ings = vec![
            IngredientId(i % 50),
            IngredientId(50 + i % 7),
            IngredientId(60 + i % 11),
        ];
        store
            .add_recipe(&format!("recipe {i}"), region, Source::Synthetic, ings)
            .expect("non-empty ingredient list");
    }
    let (snapshot, bytes) = allocated_by(|| store.clone());
    // The 22 region id lists hold 4 bytes per recipe; 64 KiB covers the
    // chunk pointers and the open chunk's recipes, names and
    // ingredients (84 KB in all). A full copy of every recipe is 1.9 MB.
    let budget = 4 * n as usize + 64 * 1024;
    assert!(
        bytes < budget,
        "cloning a {n}-recipe store allocated {bytes} bytes (budget {budget})"
    );
    assert_eq!(
        io::to_snapshot(&snapshot).expect("encodes"),
        io::to_snapshot(&store).expect("encodes")
    );
}
