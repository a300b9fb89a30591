//! The pre-trie alias matcher, kept as a parity reference.
//!
//! [`LegacyAliasResolver`] is the original string-join matcher: for
//! every phrase position it materializes each candidate n-gram with
//! `join(" ")` and probes a `HashMap<String, _>` per candidate, and its
//! fuzzy pass scans length-adjacent buckets running Damerau–Levenshtein
//! against every key. It is deliberately **unoptimized and frozen**:
//! the `aliasing` criterion bench times the trie resolver against it,
//! and a property test plus a sweep of the curated lexicon
//! (`crates/recipedb/tests/alias_parity.rs`) assert the two produce
//! byte-identical [`Resolution`]s. Do not "improve" this module — its
//! value is being the independently-written specification.

use std::collections::{HashMap, HashSet};

use crate::alias::{MatchKind, Resolution, ResolvedMatch};
use crate::edit_distance::within_distance;
use crate::normalize::tokenize;
use crate::singularize::singularize;
use crate::stopwords::is_stopword;

/// The original ingredient lexicon and matching engine (string-keyed).
#[derive(Debug, Clone, Default)]
pub struct LegacyAliasResolver {
    /// Normalized canonical names (set semantics).
    canonical: HashSet<String>,
    /// Normalized synonym → canonical name.
    synonyms: HashMap<String, String>,
    /// Length-bucketed single-token keys for the fuzzy pass:
    /// `fuzzy_index[len]` holds `(key, canonical)` pairs.
    fuzzy_index: HashMap<usize, Vec<(String, String)>>,
    /// Every token occurring in a multi-word lexicon entry (stopword
    /// exemption set).
    lexicon_tokens: HashSet<String>,
    /// Maximum n-gram length tried (paper: 6).
    max_ngram: usize,
    /// Maximum edit distance for the fuzzy pass.
    fuzzy_max_distance: usize,
    /// Minimum token length eligible for fuzzy matching.
    fuzzy_min_len: usize,
}

impl LegacyAliasResolver {
    /// A resolver with the paper's parameters: n-grams up to 6, fuzzy
    /// distance 1 for tokens of at least 5 characters.
    pub fn new() -> Self {
        LegacyAliasResolver {
            canonical: HashSet::new(),
            synonyms: HashMap::new(),
            fuzzy_index: HashMap::new(),
            lexicon_tokens: HashSet::new(),
            max_ngram: 6,
            fuzzy_max_distance: 1,
            fuzzy_min_len: 5,
        }
    }

    /// Normalize a lexicon entry the same way phrases are normalized.
    fn canon_key(name: &str) -> String {
        tokenize(name)
            .iter()
            .map(|t| singularize(t))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Register a canonical ingredient name (possibly multi-word).
    pub fn add_canonical(&mut self, name: &str) -> String {
        let key = Self::canon_key(name);
        self.canonical.insert(key.clone());
        self.index_for_fuzzy(&key, &key);
        self.remember_tokens(&key);
        key
    }

    fn remember_tokens(&mut self, key: &str) {
        if !key.contains(' ') {
            return;
        }
        for tok in key.split(' ') {
            self.lexicon_tokens.insert(tok.to_owned());
        }
    }

    /// Register `synonym` as an alias of `canonical`.
    pub fn add_synonym(&mut self, synonym: &str, canonical: &str) {
        let skey = Self::canon_key(synonym);
        let ckey = Self::canon_key(canonical);
        self.index_for_fuzzy(&skey, &ckey);
        self.remember_tokens(&skey);
        self.synonyms.insert(skey, ckey);
    }

    fn index_for_fuzzy(&mut self, key: &str, canonical: &str) {
        if !key.contains(' ') && key.chars().count() >= self.fuzzy_min_len {
            self.fuzzy_index
                .entry(key.chars().count())
                .or_default()
                .push((key.to_owned(), canonical.to_owned()));
        }
    }

    /// Number of canonical entries.
    pub fn n_canonical(&self) -> usize {
        self.canonical.len()
    }

    /// Number of synonyms.
    pub fn n_synonyms(&self) -> usize {
        self.synonyms.len()
    }

    /// True if the normalized form of `name` is a canonical entry.
    pub fn is_canonical(&self, name: &str) -> bool {
        self.canonical.contains(&Self::canon_key(name))
    }

    /// Exact/synonym lookup of an already-normalized n-gram.
    fn lookup(&self, gram: &str) -> Option<(String, MatchKind)> {
        if self.canonical.contains(gram) {
            return Some((gram.to_owned(), MatchKind::Exact));
        }
        if let Some(c) = self.synonyms.get(gram) {
            return Some((c.clone(), MatchKind::Synonym));
        }
        None
    }

    /// Fuzzy lookup of a single token against length-adjacent buckets.
    fn lookup_fuzzy(&self, token: &str) -> Option<String> {
        let len = token.chars().count();
        if len < self.fuzzy_min_len {
            return None;
        }
        let lo = len.saturating_sub(self.fuzzy_max_distance);
        let hi = len + self.fuzzy_max_distance;
        for bucket_len in lo..=hi {
            if let Some(bucket) = self.fuzzy_index.get(&bucket_len) {
                for (key, canonical) in bucket {
                    if within_distance(token, key, self.fuzzy_max_distance) {
                        return Some(canonical.clone());
                    }
                }
            }
        }
        None
    }

    /// Clean a phrase into match-ready tokens.
    pub fn clean_tokens(&self, phrase: &str) -> Vec<String> {
        tokenize(phrase)
            .into_iter()
            .map(|t| singularize(&t))
            .filter(|t| !is_stopword(t) || self.lexicon_tokens.contains(t))
            .collect()
    }

    /// Resolve a phrase: greedy longest-n-gram matching, left to right.
    pub fn resolve(&self, phrase: &str) -> Resolution {
        let tokens = self.clean_tokens(phrase);
        let mut matches = Vec::new();
        let mut unresolved = Vec::new();
        let mut pos = 0;
        'outer: while pos < tokens.len() {
            let top = self.max_ngram.min(tokens.len() - pos);
            for n in (1..=top).rev() {
                let gram = tokens[pos..pos + n].join(" ");
                if let Some((canonical, kind)) = self.lookup(&gram) {
                    matches.push(ResolvedMatch {
                        canonical,
                        matched_text: gram,
                        kind,
                    });
                    pos += n;
                    continue 'outer;
                }
            }
            // Single-token fuzzy fallback.
            if let Some(canonical) = self.lookup_fuzzy(&tokens[pos]) {
                matches.push(ResolvedMatch {
                    canonical,
                    matched_text: tokens[pos].clone(),
                    kind: MatchKind::Fuzzy,
                });
            } else {
                unresolved.push(tokens[pos].clone());
            }
            pos += 1;
        }
        Resolution {
            matches,
            unresolved,
        }
    }

    /// Convenience: just the matches of [`LegacyAliasResolver::resolve`].
    pub fn resolve_phrase(&self, phrase: &str) -> Vec<ResolvedMatch> {
        self.resolve(phrase).matches
    }
}
