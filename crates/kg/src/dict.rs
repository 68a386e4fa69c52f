//! Two-way string interning dictionaries.
//!
//! RDF terms (IRIs, literals), relation names and class names are interned to
//! dense `u32` ids so that every downstream algorithm — index scans, random
//! walks, PPR, GNN batching — works on integers instead of strings. This is
//! the same design used by production RDF engines: strings are touched only
//! at load and report time.

use crate::fxhash::FxHashMap;

/// A generic two-way dictionary mapping strings to dense `u32` ids.
///
/// Ids are assigned in first-seen order starting from 0 and never reused,
/// so `resolve(intern(s)) == s` always holds and ids can directly index
/// parallel `Vec`s (node classes, features, ...).
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    forward: FxHashMap<Box<str>, u32>,
    reverse: Vec<Box<str>>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            forward: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            reverse: Vec::with_capacity(n),
        }
    }

    /// Interns `term`, returning its id. Existing terms return their
    /// original id; new terms are assigned the next dense id.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.forward.get(term) {
            return id;
        }
        let id = self.reverse.len() as u32;
        let boxed: Box<str> = term.into();
        self.forward.insert(boxed.clone(), id);
        self.reverse.push(boxed);
        id
    }

    /// Appends a term the caller knows is not interned yet: one hash
    /// insert, no lookup. Compaction and snapshot decoding use it, since
    /// their terms come from a dictionary and are unique by construction.
    pub(crate) fn push_new(&mut self, term: &str) -> u32 {
        let id = self.reverse.len() as u32;
        let boxed: Box<str> = term.into();
        let previous = self.forward.insert(boxed.clone(), id);
        debug_assert!(previous.is_none(), "push_new of an interned term");
        self.reverse.push(boxed);
        id
    }

    /// Looks up an already-interned term without inserting.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.forward.get(term).copied()
    }

    /// Resolves an id back to its term. Panics if the id was never issued.
    pub fn resolve(&self, id: u32) -> &str {
        &self.reverse[id as usize]
    }

    /// Resolves an id if it exists.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        self.reverse.get(id as usize).map(|s| &**s)
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.reverse
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("mag:Paper");
        let b = d.intern("mag:Paper");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), 0);
        assert_eq!(d.intern("b"), 1);
        assert_eq!(d.intern("c"), 2);
        assert_eq!(d.resolve(1), "b");
    }

    #[test]
    fn get_does_not_insert() {
        let mut d = Dictionary::new();
        assert_eq!(d.get("missing"), None);
        d.intern("present");
        assert_eq!(d.get("present"), Some(0));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn try_resolve_out_of_range() {
        let d = Dictionary::new();
        assert_eq!(d.try_resolve(0), None);
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("x");
        d.intern("y");
        let collected: Vec<_> = d.iter().collect();
        assert_eq!(collected, vec![(0, "x"), (1, "y")]);
    }

    #[test]
    fn with_capacity_preallocates() {
        let d = Dictionary::with_capacity(100);
        assert!(d.is_empty());
        assert!(d.reverse.capacity() >= 100);
    }
}
