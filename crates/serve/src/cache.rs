//! Bounded LRU response cache keyed by the request itself.
//!
//! # Keying
//!
//! The key is the [`Request`]: its verb, region and arguments name the
//! answer. The cache normalizes nothing. `PAIR` sets arrive sorted and
//! distinct, because the parser normalizes them and the server refuses
//! any other set with `ERR bad-ids`, so textually different requests for
//! one set (`PAIR ITA 3,1,3` and `PAIR ITA 1,3`) share one entry. Which
//! verbs are cached is the server's decision.
//!
//! # Eviction and bounded memory
//!
//! Every entry records the tick of its last use, and an ordered index
//! from tick to key puts the least recently used entry first. A hit, or
//! a store that refreshes an existing entry, moves the entry to a new
//! tick; a store at capacity evicts the index's first entry before it
//! inserts. The map and the index hold at most `capacity` entries and
//! share one `Arc` of each key, so memory stays bounded however many
//! distinct requests pass through.
//!
//! # Generations and invalidation
//!
//! Every entry is stamped with the cache's **generation** at store
//! time. Ingesting new data bumps the generation
//! ([`ResponseCache::set_generation`]); an entry stamped with an older
//! one answers for data that no longer exists, and the next lookup that
//! finds it evicts it ([`Lookup::Stale`]). The bump stays O(1): stale
//! entries age out through lookups and LRU pressure, never a sweep.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::protocol::Request;

/// What [`ResponseCache::lookup`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A current answer; its entry is now the most recent.
    Hit(String),
    /// No entry for the request.
    Miss,
    /// An answer from an older generation, evicted by this lookup.
    Stale,
}

#[derive(Debug)]
struct Entry {
    body: String,
    /// Cache generation at store time; stale when it trails the
    /// cache's current generation.
    generation: u64,
    /// Key of this entry in the LRU index.
    last_used: u64,
}

/// The bounded LRU response cache. Capacity 0 disables it: every
/// lookup misses and every store is a no-op.
#[derive(Debug)]
pub struct ResponseCache {
    capacity: usize,
    entries: HashMap<Arc<Request>, Entry>,
    /// Last-used tick → key, least recently used first.
    lru: BTreeMap<u64, Arc<Request>>,
    tick: u64,
    generation: u64,
}

impl ResponseCache {
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            generation: 0,
        }
    }

    /// Move the cache to a new data generation, making every entry
    /// stored under an older generation stale. O(1): stale entries are
    /// evicted lazily by the lookup that finds them.
    ///
    /// ```
    /// use culinaria_recipedb::Region;
    /// use culinaria_serve::cache::{Lookup, ResponseCache};
    /// use culinaria_serve::Request;
    ///
    /// let zprof = Request::ZProf { region: Region::Italy };
    /// let mut c = ResponseCache::new(4);
    /// c.store(&zprof, "old answer".into());
    /// assert_eq!(c.lookup(&zprof), Lookup::Hit("old answer".into()));
    ///
    /// c.set_generation(1); // new recipes ingested: old answers stale
    /// assert_eq!(c.lookup(&zprof), Lookup::Stale);
    /// assert_eq!(c.lookup(&zprof), Lookup::Miss);
    ///
    /// // Re-stored under the new generation, it serves again.
    /// c.store(&zprof, "new answer".into());
    /// assert_eq!(c.lookup(&zprof), Lookup::Hit("new answer".into()));
    /// ```
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The generation new entries are stamped with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Look up the answer to `req`. A hit makes its entry the most
    /// recent; a stale entry is evicted.
    pub fn lookup(&mut self, req: &Request) -> Lookup {
        let Some(entry) = self.entries.get_mut(req) else {
            return Lookup::Miss;
        };
        if entry.generation != self.generation {
            self.lru.remove(&entry.last_used);
            self.entries.remove(req);
            return Lookup::Stale;
        }
        self.tick += 1;
        touch(&mut self.lru, &mut entry.last_used, self.tick);
        Lookup::Hit(entry.body.clone())
    }

    /// Store the answer to `req` as the most recent entry, stamped with
    /// the current generation. Returns whether the least recent entry
    /// was evicted to make room.
    pub fn store(&mut self, req: &Request, body: String) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(req) {
            touch(&mut self.lru, &mut entry.last_used, self.tick);
            entry.body = body;
            entry.generation = self.generation;
            return false;
        }
        let evict = self.entries.len() >= self.capacity;
        if evict {
            if let Some((_, victim)) = self.lru.pop_first() {
                self.entries.remove(&*victim);
            }
        }
        let key = Arc::new(req.clone());
        self.lru.insert(self.tick, Arc::clone(&key));
        let entry = Entry {
            body,
            generation: self.generation,
            last_used: self.tick,
        };
        self.entries.insert(key, entry);
        evict
    }
}

/// Move the index entry at `*last_used` to `tick`, the most recent.
fn touch(lru: &mut BTreeMap<u64, Arc<Request>>, last_used: &mut u64, tick: u64) {
    if let Some(key) = lru.remove(last_used) {
        lru.insert(tick, key);
    }
    *last_used = tick;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    /// The request a wire line (without its id) parses to.
    fn req(line: &str) -> Request {
        parse_request(format!("1 {line}").as_bytes()).unwrap().1
    }

    fn hit(body: &str) -> Lookup {
        Lookup::Hit(body.into())
    }

    #[test]
    fn hit_after_store_and_order_normalization() {
        let mut c = ResponseCache::new(4);
        assert_eq!(c.lookup(&req("PAIR ITA 3,1")), Lookup::Miss);
        assert!(!c.store(&req("PAIR ITA 3,1"), "v".into()));
        // The parser normalizes the set: another order with a duplicate
        // is the same key.
        assert_eq!(c.lookup(&req("PAIR ITA 1,3,1")), hit("v"));
    }

    #[test]
    fn lru_eviction_order_with_promotion() {
        let mut c = ResponseCache::new(2);
        let [ita, jpn, usa] = ["ZPROF ITA", "ZPROF JPN", "ZPROF USA"].map(req);
        c.store(&ita, "a".into());
        c.store(&jpn, "b".into());
        // Touch ITA so JPN becomes the LRU victim.
        assert_eq!(c.lookup(&ita), hit("a"));
        assert!(c.store(&usa, "c".into()), "at capacity");
        assert_eq!(c.lookup(&jpn), Lookup::Miss, "evicted");
        assert_eq!(c.lookup(&ita), hit("a"));
        assert_eq!(c.lookup(&usa), hit("c"));
    }

    #[test]
    fn bounded_memory_under_churn() {
        let cap = 8;
        let mut c = ResponseCache::new(cap);
        let pair = |i: u32| req(&format!("PAIR ITA {i},{}", i + 1));
        let evictions = (0..1000).filter(|&i| c.store(&pair(i), "x".into())).count();
        assert_eq!(evictions, 1000 - cap);
        assert_eq!((c.entries.len(), c.lru.len()), (cap, cap));
        // Exactly the most recent `cap` sets survive.
        for i in 0..1000 {
            let found = c.lookup(&pair(i)) == hit("x");
            assert_eq!(found, i >= 1000 - cap as u32, "set {i}");
        }
    }

    #[test]
    fn region_and_global_pair_of_one_set_are_separate_entries() {
        let mut c = ResponseCache::new(2);
        let [regional, global] = ["PAIR ITA 5,9", "PAIR - 5,9"].map(req);
        c.store(&regional, "regional".into());
        c.store(&global, "global".into());
        assert_eq!(c.lookup(&regional), hit("regional"));
        assert_eq!(c.lookup(&global), hit("global"));
        // Evicting the regional entry leaves the global one serving.
        assert!(c.store(&req("ZPROF ITA"), "z".into()));
        assert_eq!(c.lookup(&regional), Lookup::Miss);
        assert_eq!(c.lookup(&global), hit("global"));
    }

    #[test]
    fn store_existing_key_refreshes_without_duplicating() {
        let mut c = ResponseCache::new(2);
        let [pair, ita, jpn] = ["PAIR ITA 1,2", "ZPROF ITA", "ZPROF JPN"].map(req);
        c.store(&pair, "old".into());
        c.store(&ita, "z".into());
        // The refresh evicts nothing and makes the pair most recent.
        assert!(!c.store(&pair, "new".into()));
        assert_eq!((c.entries.len(), c.lru.len()), (2, 2));
        assert!(c.store(&jpn, "z2".into()));
        assert_eq!(c.lookup(&ita), Lookup::Miss);
        assert_eq!(c.lookup(&pair), hit("new"));
    }

    #[test]
    fn generation_bump_invalidates_lazily() {
        let mut c = ResponseCache::new(4);
        let [pair, zprof] = ["PAIR ITA 1,2", "ZPROF ITA"].map(req);
        c.store(&pair, "g0".into());
        c.store(&zprof, "z0".into());

        c.set_generation(1);
        assert_eq!(c.generation(), 1);
        // Entries survive the bump (lazy) but the first touch evicts.
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.lookup(&pair), Lookup::Stale);
        assert_eq!((c.entries.len(), c.lru.len()), (1, 1));
        assert_eq!(c.lookup(&pair), Lookup::Miss);

        // A fresh store under generation 1 hits; the untouched stale
        // entry still invalidates on its own first lookup.
        c.store(&pair, "g1".into());
        assert_eq!(c.lookup(&pair), hit("g1"));
        assert_eq!(c.lookup(&zprof), Lookup::Stale);
    }

    #[test]
    fn refresh_in_place_restamps_generation() {
        let mut c = ResponseCache::new(2);
        let zprof = req("ZPROF ITA");
        c.store(&zprof, "old".into());
        c.set_generation(3);
        // A lookup would invalidate; a store refreshes *and* restamps.
        c.store(&zprof, "new".into());
        assert_eq!(c.lookup(&zprof), hit("new"));
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut c = ResponseCache::new(0);
        let pair = req("PAIR ITA 1,2");
        assert!(!c.store(&pair, "v".into()));
        assert_eq!(c.lookup(&pair), Lookup::Miss);
        assert!(c.entries.is_empty() && c.lru.is_empty());
    }
}
