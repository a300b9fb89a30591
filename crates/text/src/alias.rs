//! The alias-resolution pipeline: free-text phrase → canonical
//! ingredients.
//!
//! [`AliasResolver`] holds the curated ingredient lexicon (canonical
//! names, possibly multi-word) and a synonym table (bun → bread,
//! curd → yogurt, …). Resolution follows the paper's protocol:
//! normalize → drop stopwords → singularize → greedy longest-n-gram
//! matching (n ≤ 6) against the lexicon, with a Damerau–Levenshtein
//! fallback for single-token spelling variants, and explicit flagging of
//! unresolved tokens for manual curation.
//!
//! # Engine layout (the ingestion hot path)
//!
//! The matcher is an **interned-token phrase trie** rather than a
//! string-keyed hash map:
//!
//! * a [`TokenInterner`] maps every token occurring in a lexicon entry
//!   to a dense `u32` id;
//! * lexicon entries (canonical names and synonyms) are id-sequences in
//!   a flat trie — one arena of nodes, each with a sorted transition
//!   list probed by binary search;
//! * [`AliasResolver::resolve_with`] walks token-id windows of the
//!   cleaned phrase directly down the trie, so the greedy
//!   longest-match-first scan needs **no n-gram materialization, no
//!   `join(" ")`, and no per-candidate string hashing** — the costs
//!   the legacy matcher ([`crate::legacy`]) pays for every candidate;
//! * the fuzzy pass is a precomputed **deletion-neighborhood index**
//!   (SymSpell-style): each indexed single-token key is bucketed under
//!   itself and its distance-1 deletions, so Damerau–Levenshtein runs
//!   only on bucket collisions instead of every length-adjacent key;
//! * a bounded memo cache in [`ResolveScratch`] short-circuits repeated
//!   ingredient lines — real corpora are highly duplicated.
//!
//! Cleaning reuses caller-owned buffers ([`ResolveScratch`]), so a
//! steady-state import loop allocates only for the `Resolution`s it
//! returns (and not even those on memo hits' cache-internal storage).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

use crate::edit_distance::within_distance;
use crate::normalize::{normalize_phrase_into, tokenize};
use crate::singularize::{singularize, singularized};
use crate::stopwords::is_stopword;

/// How a piece of text was matched to a canonical ingredient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// The n-gram equals a canonical name.
    Exact,
    /// The n-gram equals a registered synonym of a canonical name.
    Synonym,
    /// A single token within edit distance 1 of a canonical name or
    /// synonym (spelling variant).
    Fuzzy,
}

/// One resolved span of a phrase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedMatch {
    /// The canonical ingredient name.
    pub canonical: String,
    /// The (cleaned) text that matched.
    pub matched_text: String,
    /// How the match was found.
    pub kind: MatchKind,
}

/// Full result of resolving one phrase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Resolution {
    /// Matched ingredients, in phrase order.
    pub matches: Vec<ResolvedMatch>,
    /// Cleaned tokens that failed to match anything — the paper labels
    /// these for manual curation.
    pub unresolved: Vec<String>,
}

/// Sentinel id for a phrase token that occurs in no lexicon entry: it
/// can never advance the trie, so the walk rejects it immediately.
const NO_TOKEN: u32 = u32::MAX;

/// Dense string interner: token text → `u32` id, id → text.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    ids: HashMap<String, u32>,
    strings: Vec<String>,
}

impl TokenInterner {
    /// Id of `tok`, allocating a new one on first sight.
    pub fn intern(&mut self, tok: &str) -> u32 {
        if let Some(&id) = self.ids.get(tok) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.ids.insert(tok.to_owned(), id);
        self.strings.push(tok.to_owned());
        id
    }

    /// Id of `tok` if it has been interned.
    pub fn get(&self, tok: &str) -> Option<u32> {
        self.ids.get(tok).copied()
    }

    /// The text of an interned id.
    pub fn text(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Number of distinct interned tokens.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One node of the flat phrase trie. Transitions are kept sorted by
/// token id for binary-search probing; terminal payloads point into the
/// resolver's canonical-name table.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Sorted `(token id, child node index)` transitions.
    edges: Vec<(u32, u32)>,
    /// Path spells a canonical name → its canonical-table index.
    exact: Option<u32>,
    /// Path spells a synonym → the target's canonical-table index.
    synonym: Option<u32>,
}

/// One single-token key eligible for the fuzzy pass.
#[derive(Debug, Clone)]
struct FuzzyEntry {
    /// The key text (a canonical name or synonym, one token).
    key: String,
    /// `key.chars().count()`, cached for the legacy-order tie-break.
    key_len: u32,
    /// Canonical-table index the key resolves to.
    canonical: u32,
}

const DEFAULT_MEMO_CAPACITY: usize = 8192;

/// Maximum n-gram length tried (paper: 6).
const MAX_NGRAM: usize = 6;
/// Maximum edit distance for the fuzzy pass; the deletion index is
/// built for exactly this distance.
const FUZZY_MAX_DISTANCE: usize = 1;
/// Minimum token length eligible for fuzzy matching (short tokens
/// produce too many false positives).
const FUZZY_MIN_LEN: usize = 5;

/// Reusable per-caller working state for [`AliasResolver::resolve_with`]:
/// cleaning buffers plus the bounded memo cache for repeated lines.
///
/// One scratch per worker thread gives an allocation-free steady state
/// *and* keeps memoization lock-free — the cache is a pure function
/// table, so per-worker caches cannot disturb determinism.
#[derive(Debug, Clone)]
pub struct ResolveScratch {
    /// Normalized-phrase buffer.
    norm: String,
    /// Cleaned tokens, concatenated with single spaces (so a matched
    /// span is one contiguous subslice — no `join` needed).
    tok_buf: String,
    /// Byte range of each cleaned token within `tok_buf`.
    spans: Vec<(u32, u32)>,
    /// Interned id of each cleaned token (`NO_TOKEN` when unknown).
    ids: Vec<u32>,
    /// Deletion-variant buffer for the fuzzy pass.
    variant: String,
    /// Candidate-entry buffer for the fuzzy pass.
    candidates: Vec<u32>,
    /// Bounded phrase → resolution memo (cleared wholesale when full,
    /// so the bound is hard and the policy deterministic).
    memo: HashMap<String, Resolution>,
    memo_capacity: usize,
    /// Lifetime memo-cache hits (monotonic; survives cache clears).
    memo_hits: u64,
    /// Lifetime memo-cache misses, i.e. full trie walks. A scratch with
    /// memoization disabled counts every resolve here.
    memo_misses: u64,
}

impl Default for ResolveScratch {
    fn default() -> Self {
        ResolveScratch::new()
    }
}

impl ResolveScratch {
    /// A scratch with the default memo bound (8192 distinct lines).
    pub fn new() -> Self {
        ResolveScratch::with_memo_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// A scratch bounding the memo cache to `capacity` distinct lines;
    /// `0` disables memoization entirely.
    pub fn with_memo_capacity(capacity: usize) -> Self {
        ResolveScratch {
            norm: String::new(),
            tok_buf: String::new(),
            spans: Vec::new(),
            ids: Vec::new(),
            variant: String::new(),
            candidates: Vec::new(),
            memo: HashMap::new(),
            memo_capacity: capacity,
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// Number of lines currently memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Lifetime `(hits, misses)` of the memo cache — the cache-efficacy
    /// numbers the observed import pipeline reports (`import.memo.*`).
    /// Monotonic across cache clears; a miss is one full trie walk.
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// The text of cleaned token `i` (valid after a resolve).
    fn token(&self, i: usize) -> &str {
        let (s, e) = self.spans[i];
        &self.tok_buf[s as usize..e as usize]
    }
}

/// The ingredient lexicon and matching engine.
#[derive(Debug, Clone)]
pub struct AliasResolver {
    /// Token text ↔ dense id for every token in a lexicon entry.
    interner: TokenInterner,
    /// Flat trie arena; index 0 is the root.
    nodes: Vec<TrieNode>,
    /// Canonical-name storage, deduplicated; trie payloads and fuzzy
    /// entries index into this.
    canon_names: Vec<String>,
    canon_ids: HashMap<String, u32>,
    /// Distinct canonical keys / synonym keys registered (set semantics:
    /// re-adding an existing key does not count).
    n_canonical: usize,
    n_synonyms: usize,
    /// Token ids occurring in *multi-word* lexicon entries. These are
    /// exempt from stopword removal so entries like "virgin olive oil"
    /// or "half half" stay matchable even when their words are generic
    /// culinary stopwords.
    multiword_tokens: HashSet<u32>,
    /// Fuzzy keys in insertion order (the legacy tie-break order).
    fuzzy_entries: Vec<FuzzyEntry>,
    /// Deletion-neighborhood index: key text and each of its
    /// one-character deletions → entries bucketed there.
    fuzzy_deletions: HashMap<String, Vec<u32>>,
}

impl Default for AliasResolver {
    fn default() -> Self {
        AliasResolver::new()
    }
}

impl AliasResolver {
    /// A resolver with the paper's parameters: n-grams up to 6, fuzzy
    /// distance 1 for tokens of at least 5 characters.
    pub fn new() -> Self {
        AliasResolver {
            interner: TokenInterner::default(),
            nodes: vec![TrieNode::default()],
            canon_names: Vec::new(),
            canon_ids: HashMap::new(),
            n_canonical: 0,
            n_synonyms: 0,
            multiword_tokens: HashSet::new(),
            fuzzy_entries: Vec::new(),
            fuzzy_deletions: HashMap::new(),
        }
    }

    /// Normalize a lexicon entry the same way phrases are normalized:
    /// tokenize, singularize (stopwords are *kept* — curated names
    /// should not contain any).
    fn canon_key(name: &str) -> String {
        tokenize(name)
            .iter()
            .map(|t| singularize(t))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Index of `key` in the canonical-name table, interning it.
    fn canon_idx(&mut self, key: &str) -> u32 {
        if let Some(&idx) = self.canon_ids.get(key) {
            return idx;
        }
        let idx = self.canon_names.len() as u32;
        self.canon_ids.insert(key.to_owned(), idx);
        self.canon_names.push(key.to_owned());
        idx
    }

    /// Walk-or-create the trie path spelling `key`; returns the final
    /// node index (the root for an empty key).
    fn insert_path(&mut self, key: &str) -> usize {
        let mut node = 0usize;
        if key.is_empty() {
            return node;
        }
        for tok in key.split(' ') {
            let tid = self.interner.intern(tok);
            node = match self.nodes[node].edges.binary_search_by_key(&tid, |e| e.0) {
                Ok(pos) => self.nodes[node].edges[pos].1 as usize,
                Err(pos) => {
                    let child = self.nodes.len();
                    self.nodes.push(TrieNode::default());
                    self.nodes[node].edges.insert(pos, (tid, child as u32));
                    child
                }
            };
        }
        node
    }

    /// Follow one trie transition, if present.
    #[inline]
    fn child(&self, node: usize, tid: u32) -> Option<usize> {
        let edges = &self.nodes[node].edges;
        edges
            .binary_search_by_key(&tid, |e| e.0)
            .ok()
            .map(|pos| edges[pos].1 as usize)
    }

    /// Register a canonical ingredient name (possibly multi-word).
    /// Returns the normalized key under which it was stored.
    pub fn add_canonical(&mut self, name: &str) -> String {
        let key = Self::canon_key(name);
        let cidx = self.canon_idx(&key);
        let node = self.insert_path(&key);
        if self.nodes[node].exact.is_none() {
            self.n_canonical += 1;
        }
        self.nodes[node].exact = Some(cidx);
        self.index_for_fuzzy(&key, cidx);
        self.remember_tokens(&key);
        key
    }

    /// Register `synonym` as an alias of `canonical` (the canonical need
    /// not be registered yet; matches resolve to its normalized form).
    pub fn add_synonym(&mut self, synonym: &str, canonical: &str) {
        let skey = Self::canon_key(synonym);
        let ckey = Self::canon_key(canonical);
        let cidx = self.canon_idx(&ckey);
        self.index_for_fuzzy(&skey, cidx);
        self.remember_tokens(&skey);
        let node = self.insert_path(&skey);
        if self.nodes[node].synonym.is_none() {
            self.n_synonyms += 1;
        }
        self.nodes[node].synonym = Some(cidx);
    }

    fn remember_tokens(&mut self, key: &str) {
        // Only multi-word entries earn the stopword exemption: a
        // single-word entry that doubles as a culinary stopword
        // ("clove" in "2 cloves garlic") is overwhelmingly the
        // container/measure sense in free text.
        if !key.contains(' ') {
            return;
        }
        for tok in key.split(' ') {
            let tid = self.interner.intern(tok);
            self.multiword_tokens.insert(tid);
        }
    }

    /// Index a single-token key for the fuzzy pass: the entry is
    /// bucketed under itself and each of its one-character deletions,
    /// so a distance-≤1 query shares at least one bucket with it
    /// (deletion / insertion / substitution / adjacent transposition
    /// all collide in the combined neighborhoods).
    fn index_for_fuzzy(&mut self, key: &str, canonical: u32) {
        if key.contains(' ') {
            return;
        }
        let key_len = key.chars().count();
        if key_len < FUZZY_MIN_LEN {
            return;
        }
        let idx = self.fuzzy_entries.len() as u32;
        self.fuzzy_entries.push(FuzzyEntry {
            key: key.to_owned(),
            key_len: key_len as u32,
            canonical,
        });
        self.fuzzy_deletions
            .entry(key.to_owned())
            .or_default()
            .push(idx);
        let mut seen: HashSet<String> = HashSet::new();
        for skip in 0..key_len {
            let mut variant = String::with_capacity(key.len());
            for (i, ch) in key.chars().enumerate() {
                if i != skip {
                    variant.push(ch);
                }
            }
            if seen.insert(variant.clone()) {
                self.fuzzy_deletions.entry(variant).or_default().push(idx);
            }
        }
    }

    /// Number of canonical entries.
    pub fn n_canonical(&self) -> usize {
        self.n_canonical
    }

    /// Number of synonyms.
    pub fn n_synonyms(&self) -> usize {
        self.n_synonyms
    }

    /// Number of distinct interned lexicon tokens.
    pub fn n_tokens(&self) -> usize {
        self.interner.len()
    }

    /// True if the normalized form of `name` is a canonical entry.
    pub fn is_canonical(&self, name: &str) -> bool {
        let key = Self::canon_key(name);
        let mut node = 0usize;
        if !key.is_empty() {
            for tok in key.split(' ') {
                let Some(tid) = self.interner.get(tok) else {
                    return false;
                };
                let Some(next) = self.child(node, tid) else {
                    return false;
                };
                node = next;
            }
        }
        self.nodes[node].exact.is_some()
    }

    /// Fuzzy lookup via the deletion index: gather candidate entries
    /// from the query's bucket and its one-deletion buckets, then verify
    /// only those collisions with Damerau–Levenshtein. Ties break
    /// exactly like the legacy length-bucket scan: shortest key first,
    /// then insertion order.
    fn lookup_fuzzy(
        &self,
        token: &str,
        candidates: &mut Vec<u32>,
        variant: &mut String,
    ) -> Option<u32> {
        let len = token.chars().count();
        if len < FUZZY_MIN_LEN {
            return None;
        }
        candidates.clear();
        if let Some(bucket) = self.fuzzy_deletions.get(token) {
            candidates.extend_from_slice(bucket);
        }
        for skip in 0..len {
            variant.clear();
            for (i, ch) in token.chars().enumerate() {
                if i != skip {
                    variant.push(ch);
                }
            }
            if let Some(bucket) = self.fuzzy_deletions.get(variant.as_str()) {
                candidates.extend_from_slice(bucket);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut best: Option<(u32, u32)> = None;
        for &idx in candidates.iter() {
            let entry = &self.fuzzy_entries[idx as usize];
            if best.is_some_and(|b| (entry.key_len, idx) >= b) {
                continue;
            }
            if within_distance(token, &entry.key, FUZZY_MAX_DISTANCE) {
                best = Some((entry.key_len, idx));
            }
        }
        best.map(|(_, idx)| self.fuzzy_entries[idx as usize].canonical)
    }

    /// Clean `phrase` into `scratch`: normalize, split, singularize,
    /// drop stopwords (with the multi-word-entry exemption), and intern
    /// each surviving token against the lexicon. Allocation-free once
    /// the scratch buffers have grown to the phrase size.
    fn clean_into(&self, phrase: &str, scratch: &mut ResolveScratch) {
        normalize_phrase_into(phrase, &mut scratch.norm);
        scratch.tok_buf.clear();
        scratch.spans.clear();
        scratch.ids.clear();
        let ResolveScratch {
            norm,
            tok_buf,
            spans,
            ids,
            ..
        } = scratch;
        for raw in norm.split_whitespace() {
            // Pure numbers are quantities ("2", the "1" and "2" of
            // "1/2"), never ingredients.
            if raw.chars().all(|c| c.is_ascii_digit()) {
                continue;
            }
            let tok: Cow<'_, str> = singularized(raw);
            let id = self.interner.get(&tok);
            let keep =
                !is_stopword(&tok) || id.is_some_and(|id| self.multiword_tokens.contains(&id));
            if !keep {
                continue;
            }
            if !tok_buf.is_empty() {
                tok_buf.push(' ');
            }
            let start = tok_buf.len() as u32;
            tok_buf.push_str(&tok);
            spans.push((start, tok_buf.len() as u32));
            ids.push(id.unwrap_or(NO_TOKEN));
        }
    }

    /// Clean a phrase into match-ready tokens: tokenize, singularize,
    /// then drop stopwords — except tokens that occur in a multi-word
    /// lexicon entry ("virgin olive oil", "half half"), which must
    /// survive cleaning to stay matchable.
    pub fn clean_tokens(&self, phrase: &str) -> Vec<String> {
        let mut scratch = ResolveScratch::with_memo_capacity(0);
        self.clean_into(phrase, &mut scratch);
        (0..scratch.spans.len())
            .map(|i| scratch.token(i).to_owned())
            .collect()
    }

    /// Resolve a phrase: greedy longest-n-gram matching, left to right.
    ///
    /// Convenience wrapper over [`AliasResolver::resolve_with`] with a
    /// throwaway scratch; batch callers should hold a [`ResolveScratch`]
    /// per worker instead.
    pub fn resolve(&self, phrase: &str) -> Resolution {
        let mut scratch = ResolveScratch::with_memo_capacity(0);
        self.resolve_with(phrase, &mut scratch)
    }

    /// Resolve a phrase using caller-owned working state — the hot-path
    /// entry point. Checks the scratch's memo cache first, then walks
    /// token-id windows down the phrase trie, longest match first, with
    /// the deletion-indexed fuzzy fallback for lone tokens.
    ///
    /// ```
    /// use culinaria_text::alias::{AliasResolver, ResolveScratch};
    ///
    /// let mut resolver = AliasResolver::new();
    /// resolver.add_canonical("olive oil");
    /// let mut scratch = ResolveScratch::new();
    ///
    /// let first = resolver.resolve_with("2 tbsp Olive Oil", &mut scratch);
    /// assert_eq!(first.matches[0].canonical, "olive oil");
    ///
    /// // A repeated line comes from the scratch's memo cache — same
    /// // result, no trie walk.
    /// let again = resolver.resolve_with("2 tbsp Olive Oil", &mut scratch);
    /// assert_eq!(again, first);
    /// assert_eq!(scratch.memo_stats(), (1, 1)); // (hits, misses)
    /// ```
    pub fn resolve_with(&self, phrase: &str, scratch: &mut ResolveScratch) -> Resolution {
        if let Some(hit) = scratch.memo.get(phrase) {
            scratch.memo_hits += 1;
            return hit.clone();
        }
        scratch.memo_misses += 1;
        self.clean_into(phrase, scratch);
        let n_tokens = scratch.ids.len();
        let mut matches = Vec::new();
        let mut unresolved = Vec::new();
        let mut pos = 0;
        while pos < n_tokens {
            let top = MAX_NGRAM.min(n_tokens - pos);
            // Walk the trie as deep as the ids allow, remembering the
            // deepest terminal: that is exactly the longest n-gram the
            // legacy matcher would have found, with Exact preferred
            // over Synonym at equal depth.
            let mut node = 0usize;
            let mut best: Option<(usize, u32, MatchKind)> = None;
            for k in 0..top {
                let tid = scratch.ids[pos + k];
                if tid == NO_TOKEN {
                    break;
                }
                let Some(next) = self.child(node, tid) else {
                    break;
                };
                node = next;
                let n = &self.nodes[node];
                if let Some(cidx) = n.exact {
                    best = Some((k + 1, cidx, MatchKind::Exact));
                } else if let Some(cidx) = n.synonym {
                    best = Some((k + 1, cidx, MatchKind::Synonym));
                }
            }
            if let Some((n, cidx, kind)) = best {
                let (start, _) = scratch.spans[pos];
                let (_, end) = scratch.spans[pos + n - 1];
                matches.push(ResolvedMatch {
                    canonical: self.canon_names[cidx as usize].clone(),
                    matched_text: scratch.tok_buf[start as usize..end as usize].to_owned(),
                    kind,
                });
                pos += n;
                continue;
            }
            // Single-token fuzzy fallback.
            let (tok_start, tok_end) = scratch.spans[pos];
            let token = &scratch.tok_buf[tok_start as usize..tok_end as usize];
            if let Some(cidx) =
                self.lookup_fuzzy(token, &mut scratch.candidates, &mut scratch.variant)
            {
                matches.push(ResolvedMatch {
                    canonical: self.canon_names[cidx as usize].clone(),
                    matched_text: token.to_owned(),
                    kind: MatchKind::Fuzzy,
                });
            } else {
                unresolved.push(token.to_owned());
            }
            pos += 1;
        }
        let resolution = Resolution {
            matches,
            unresolved,
        };
        if scratch.memo_capacity > 0 {
            if scratch.memo.len() >= scratch.memo_capacity {
                // Hard bound: restart the cache wholesale. Deterministic
                // and O(1) amortized, which beats tracking recency.
                scratch.memo.clear();
            }
            scratch.memo.insert(phrase.to_owned(), resolution.clone());
        }
        resolution
    }

    /// Convenience: just the matches of [`AliasResolver::resolve`].
    pub fn resolve_phrase(&self, phrase: &str) -> Vec<ResolvedMatch> {
        self.resolve(phrase).matches
    }
}

/// Mine candidate new-lexicon entries from a corpus of unresolved
/// phrases: counts every n-gram (n ≤ `max_n`) across the phrases and
/// returns those occurring at least `min_count` times, most frequent
/// first. This is the paper's curation aid for "commonly occurring
/// ingredients which were either not present in the database or were
/// variations of existing entities".
pub fn mine_frequent_ngrams(
    phrases: &[String],
    max_n: usize,
    min_count: usize,
) -> Vec<(String, usize)> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    for phrase in phrases {
        let tokens: Vec<String> = tokenize(phrase)
            .into_iter()
            .filter(|t| !is_stopword(t))
            .map(|t| singularize(&t))
            .collect();
        for gram in crate::ngram::ngram_strings(&tokens, max_n) {
            *counts.entry(gram).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(String, usize)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_count)
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver() -> AliasResolver {
        let mut r = AliasResolver::new();
        r.add_canonical("tomato");
        r.add_canonical("olive oil");
        r.add_canonical("extra virgin olive oil");
        r.add_canonical("jalapeno pepper");
        r.add_canonical("bread");
        r.add_canonical("yogurt");
        r.add_canonical("whiskey");
        r.add_canonical("chili");
        r.add_canonical("garlic");
        r.add_synonym("bun", "bread");
        r.add_synonym("curd", "yogurt");
        r.add_synonym("chile", "chili");
        r
    }

    #[test]
    fn exact_single_token() {
        let m = resolver().resolve_phrase("3 ripe tomatoes, diced");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "tomato");
        assert_eq!(m[0].kind, MatchKind::Exact);
    }

    #[test]
    fn longest_match_wins() {
        // "extra" and "virgin" are culinary stopwords, but both occur
        // in the multi-word lexicon entry "extra virgin olive oil", so
        // they survive cleaning and the longest (4-gram) entry matches
        // — not the embedded "olive oil".
        let mut r = resolver();
        r.add_canonical("virgin olive oil");
        let m = r.resolve_phrase("2 tbsp extra-virgin olive oil");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "extra virgin olive oil");

        // Without the longer entries, the stopwords fall away and the
        // bare "olive oil" still matches.
        let mut r2 = AliasResolver::new();
        r2.add_canonical("olive oil");
        let m = r2.resolve_phrase("2 tbsp extra-virgin olive oil");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "olive oil");
    }

    #[test]
    fn multiword_before_parts() {
        let m = resolver().resolve_phrase("olive oil for frying");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "olive oil");
        assert_eq!(m[0].matched_text, "olive oil");
    }

    #[test]
    fn synonyms_map_to_canonical() {
        let m = resolver().resolve_phrase("1 bun");
        assert_eq!(m[0].canonical, "bread");
        assert_eq!(m[0].kind, MatchKind::Synonym);
        let m = resolver().resolve_phrase("250g curd");
        assert_eq!(m[0].canonical, "yogurt");
    }

    #[test]
    fn plural_and_case_insensitive() {
        let m = resolver().resolve_phrase("Jalapeno Peppers");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "jalapeno pepper");
    }

    #[test]
    fn fuzzy_spelling_variants() {
        let m = resolver().resolve_phrase("a dram of whisky");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "whiskey");
        assert_eq!(m[0].kind, MatchKind::Fuzzy);
    }

    #[test]
    fn fuzzy_requires_min_length() {
        let mut r = AliasResolver::new();
        r.add_canonical("rice");
        // "rise" is within distance 1 of "rice" but too short for fuzzy.
        let res = r.resolve("rise");
        assert!(res.matches.is_empty());
        assert_eq!(res.unresolved, vec!["rise"]);
    }

    #[test]
    fn fuzzy_transposition_at_min_len_boundary() {
        let mut r = AliasResolver::new();
        r.add_canonical("onion"); // exactly fuzzy_min_len = 5 chars
        r.add_canonical("rice"); // one char below the boundary
                                 // Transposed 5-char token: eligible, matches at distance 1.
        let res = r.resolve("oinon");
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.matches[0].canonical, "onion");
        assert_eq!(res.matches[0].kind, MatchKind::Fuzzy);
        // Transposed 4-char token: below the boundary, never fuzzy.
        let res = r.resolve("rcie");
        assert!(res.matches.is_empty());
        assert_eq!(res.unresolved, vec!["rcie"]);
    }

    #[test]
    fn fuzzy_prefers_shorter_key_then_insertion_order() {
        // Query "gratin" (6 chars) is within distance 1 of both
        // "grain" (5) and "grating" (7): the shorter key wins, exactly
        // like the legacy ascending length-bucket scan.
        let mut r = AliasResolver::new();
        r.add_canonical("grating");
        r.add_canonical("grain");
        let res = r.resolve("gratin");
        assert_eq!(res.matches.len(), 1);
        assert_eq!(res.matches[0].canonical, "grain");
    }

    #[test]
    fn multiword_entry_of_pure_stopwords_matches() {
        // Both tokens of "half half" are culinary stopwords; the
        // multi-word exemption must keep them alive through cleaning.
        let mut r = AliasResolver::new();
        r.add_canonical("half half");
        let m = r.resolve_phrase("1 cup half-and-half, warmed");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "half half");
        // "virgin olive oil" likewise: "virgin" alone is a stopword.
        let mut r = AliasResolver::new();
        r.add_canonical("virgin olive oil");
        let m = r.resolve_phrase("virgin olive oil");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "virgin olive oil");
    }

    #[test]
    fn unresolved_flagged() {
        let res = resolver().resolve("2 cups unobtainium flakes");
        assert!(res.matches.is_empty());
        assert_eq!(res.unresolved, vec!["unobtainium", "flake"]);
    }

    #[test]
    fn mixed_resolution() {
        let res = resolver().resolve("garlic and xyzzy with chile");
        let canon: Vec<&str> = res.matches.iter().map(|m| m.canonical.as_str()).collect();
        assert_eq!(canon, vec!["garlic", "chili"]);
        assert_eq!(res.unresolved, vec!["xyzzy"]);
    }

    #[test]
    fn paper_example_phrase() {
        let m = resolver().resolve_phrase("2 jalapeno peppers, roasted and slit");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].canonical, "jalapeno pepper");
    }

    #[test]
    fn counts_reported() {
        let r = resolver();
        assert_eq!(r.n_canonical(), 9);
        assert_eq!(r.n_synonyms(), 3);
        assert!(r.is_canonical("Tomatoes"));
        assert!(!r.is_canonical("pineapple"));
        assert!(r.n_tokens() >= 9);
    }

    #[test]
    fn re_registration_is_set_semantics() {
        let mut r = resolver();
        r.add_canonical("tomato");
        r.add_canonical("Tomatoes"); // same normalized key
        r.add_synonym("bun", "bread");
        assert_eq!(r.n_canonical(), 9);
        assert_eq!(r.n_synonyms(), 3);
    }

    #[test]
    fn memo_cache_hits_and_stays_bounded() {
        let r = resolver();
        let mut scratch = ResolveScratch::with_memo_capacity(2);
        let first = r.resolve_with("3 ripe tomatoes", &mut scratch);
        assert_eq!(scratch.memo_len(), 1);
        let again = r.resolve_with("3 ripe tomatoes", &mut scratch);
        assert_eq!(first, again);
        r.resolve_with("1 bun", &mut scratch);
        assert_eq!(scratch.memo_len(), 2);
        // Third distinct line trips the bound: cache restarts.
        r.resolve_with("250g curd", &mut scratch);
        assert_eq!(scratch.memo_len(), 1);
        // And memoized results equal fresh ones.
        assert_eq!(
            r.resolve_with("250g curd", &mut scratch),
            r.resolve("250g curd")
        );
        // Hit/miss accounting is monotonic across the wholesale clear:
        // hits for "3 ripe tomatoes" and the "250g curd" re-resolve
        // (inserted right after the clear), misses for the three
        // distinct first-time lines.
        assert_eq!(scratch.memo_stats(), (2, 3));
    }

    #[test]
    fn memo_disabled_counts_every_resolve_as_miss() {
        let r = resolver();
        let mut scratch = ResolveScratch::with_memo_capacity(0);
        r.resolve_with("3 ripe tomatoes", &mut scratch);
        r.resolve_with("3 ripe tomatoes", &mut scratch);
        assert_eq!(scratch.memo_stats(), (0, 2));
    }

    #[test]
    fn scratch_reuse_is_clean_across_phrases() {
        let r = resolver();
        let mut scratch = ResolveScratch::new();
        let long = r.resolve_with("2 jalapeno peppers, roasted and slit", &mut scratch);
        assert_eq!(long.matches[0].canonical, "jalapeno pepper");
        // A shorter follow-up must not see stale buffer contents.
        let short = r.resolve_with("1 bun", &mut scratch);
        assert_eq!(short.matches.len(), 1);
        assert_eq!(short.matches[0].canonical, "bread");
        assert!(short.unresolved.is_empty());
    }

    #[test]
    fn mining_finds_common_unknowns() {
        let phrases: Vec<String> = vec![
            "2 cups panko crumbs".into(),
            "panko crumbs for coating".into(),
            "1 cup panko crumbs, divided".into(),
            "something else".into(),
        ];
        let mined = mine_frequent_ngrams(&phrases, 6, 3);
        assert!(mined.iter().any(|(g, c)| g == "panko crumb" && *c == 3));
        // Rare grams excluded.
        assert!(!mined.iter().any(|(g, _)| g == "something else"));
    }

    #[test]
    fn empty_phrase() {
        let res = resolver().resolve("");
        assert!(res.matches.is_empty());
        assert!(res.unresolved.is_empty());
    }

    #[test]
    fn interner_round_trips() {
        let mut interner = TokenInterner::default();
        assert!(interner.is_empty());
        let a = interner.intern("olive");
        let b = interner.intern("oil");
        assert_eq!(interner.intern("olive"), a);
        assert_eq!(interner.get("oil"), Some(b));
        assert_eq!(interner.get("truffle"), None);
        assert_eq!(interner.text(a), "olive");
        assert_eq!(interner.len(), 2);
    }
}
