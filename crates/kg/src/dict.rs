//! Two-way string interning dictionaries.
//!
//! RDF terms (IRIs, literals), relation names and class names are interned to
//! dense `u32` ids so that every downstream algorithm — index scans, random
//! walks, PPR, GNN batching — works on integers instead of strings. This is
//! the same design used by production RDF engines: strings are touched only
//! at load and report time.
//!
//! ## Layout
//!
//! A dictionary is three flat buffers and holds every term once:
//! - `arena`: the terms' bytes back to back, in id order;
//! - `ends`: where each id's term ends in the arena (it starts where the
//!   previous id's ends);
//! - `slots`: an open-addressing table of ids (linear probing, a power of
//!   two long, at most half full) whose probes compare the probed id's
//!   arena bytes with the term looked up.
//!
//! So a clone is three `memcpy`s, and interning a new term appends its bytes
//! and writes two `u32`s. The table hashes with [`FxHasher`], which is not
//! collision-resistant, and the terms it sees are not all the program's own:
//! N-Triples input, `POST /admin/update` deltas and decoded snapshot and
//! cache files are interned here too. A crafted set of colliding terms can
//! make interning them quadratic (ROADMAP item 15).

use std::fmt;
use std::hash::Hasher;

use crate::fxhash::FxHasher;

/// Marks a vacant slot; no term gets this id.
const EMPTY: u32 = u32::MAX;
/// Length of the first table a dictionary allocates.
const MIN_SLOTS: usize = 8;

/// A generic two-way dictionary mapping strings to dense `u32` ids.
///
/// Ids are assigned in first-seen order starting from 0 and never reused,
/// so `resolve(intern(s)) == s` always holds and ids can directly index
/// parallel `Vec`s (node classes, features, ...). See the module docs for
/// the layout.
#[derive(Default, Clone)]
pub struct Dictionary {
    /// Every term's bytes, in id order.
    arena: String,
    /// `ends[id]`: where term `id` ends in `arena`.
    ends: Vec<u32>,
    /// Ids by hash, [`EMPTY`] where vacant; empty or a power of two long.
    slots: Vec<u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Self::with_capacity_and_bytes(n, 0)
    }

    /// Creates an empty dictionary that holds `n` terms of `bytes` bytes in
    /// all without growing any of its buffers.
    pub(crate) fn with_capacity_and_bytes(n: usize, bytes: usize) -> Self {
        Self {
            arena: String::with_capacity(bytes),
            ends: Vec::with_capacity(n),
            slots: vec![EMPTY; slots_for(n)],
        }
    }

    /// Interns `term`, returning its id. Existing terms return their
    /// original id; new terms are assigned the next dense id.
    pub fn intern(&mut self, term: &str) -> u32 {
        let hash = fx_hash(term);
        match self.find(term, hash) {
            Some(id) => id,
            None => self.append(term, hash),
        }
    }

    /// Appends a term the caller knows is not interned yet: its probe only
    /// looks for a vacant slot, comparing no bytes. Compaction and snapshot
    /// decoding use it, since their terms come from a dictionary and are
    /// unique by construction.
    pub(crate) fn push_new(&mut self, term: &str) -> u32 {
        debug_assert!(self.get(term).is_none(), "push_new of an interned term");
        self.append(term, fx_hash(term))
    }

    /// Looks up an already-interned term without inserting.
    pub fn get(&self, term: &str) -> Option<u32> {
        self.find(term, fx_hash(term))
    }

    /// Resolves an id back to its term. Panics if the id was never issued.
    pub fn resolve(&self, id: u32) -> &str {
        match self.try_resolve(id) {
            Some(term) => term,
            None => panic!("term id {id} was never issued ({} terms)", self.len()),
        }
    }

    /// Resolves an id if it exists.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        let (start, end) = self.span(id)?;
        Some(&self.arena[start..end])
    }

    /// Byte length of term `id`. Panics if the id was never issued.
    pub(crate) fn term_len(&self, id: u32) -> usize {
        let (start, end) = self.span(id).expect("term id was never issued");
        end - start
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let mut start = 0;
        (0u32..).zip(self.ends.iter().map(move |&end| {
            let term = &self.arena[start..end as usize];
            start = end as usize;
            term
        }))
    }

    /// Where term `id` lies in the arena.
    #[inline]
    fn span(&self, id: u32) -> Option<(usize, usize)> {
        let i = id as usize;
        let end = *self.ends.get(i)? as usize;
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        Some((start, end))
    }

    /// The id of `term`, whose hash is `hash`.
    fn find(&self, term: &str, hash: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = home(&self.slots, hash);
        loop {
            let id = self.slots[at];
            if id == EMPTY {
                return None;
            }
            let (start, end) = self.span(id).expect("slots hold issued ids");
            // Lengths first: they come from `ends`, so most mismatches
            // touch no arena byte.
            if end - start == term.len() && self.arena.as_bytes()[start..end] == *term.as_bytes() {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends `term`, which is not interned, under the next id.
    fn append(&mut self, term: &str, hash: u64) -> u32 {
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("a dictionary holds fewer than u32::MAX terms");
        let end = self
            .arena
            .len()
            .checked_add(term.len())
            .and_then(|end| u32::try_from(end).ok())
            .expect("a dictionary's terms fit in 4 GiB");
        if slots_for(self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        self.arena.push_str(term);
        self.ends.push(end);
        occupy(&mut self.slots, hash, id);
        id
    }

    /// Doubles the table and re-inserts every id, hashing its term again
    /// from the arena.
    fn grow(&mut self) {
        let mut slots = vec![EMPTY; (self.slots.len() * 2).max(MIN_SLOTS)];
        for (id, term) in self.iter() {
            occupy(&mut slots, fx_hash(term), id);
        }
        self.slots = slots;
    }
}

/// The slot a probe for `hash` starts at: the hash's top bits, which Fx's
/// final multiply mixes best. `slots` is a power of two long.
#[inline]
fn home(slots: &[u32], hash: u64) -> usize {
    (hash >> (u64::BITS - slots.len().trailing_zeros())) as usize
}

/// Writes `id` into the first vacant slot of `hash`'s probe sequence.
fn occupy(slots: &mut [u32], hash: u64, id: u32) {
    let mask = slots.len() - 1;
    let mut at = home(slots, hash);
    while slots[at] != EMPTY {
        at = (at + 1) & mask;
    }
    slots[at] = id;
}

/// Table length that keeps `n` terms at most half full.
fn slots_for(n: usize) -> usize {
    match n {
        0 => 0,
        _ => (n * 2).next_power_of_two().max(MIN_SLOTS),
    }
}

fn fx_hash(term: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(term.as_bytes());
    hasher.finish()
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
        assert!(d.ends.capacity() >= 100);
        assert!(d.slots.len() >= 200);
        let sized = Dictionary::with_capacity_and_bytes(3, 12);
        assert!(sized.arena.capacity() >= 12);
    }

    #[test]
    fn sized_dictionary_does_not_grow() {
        let terms = ["", "a", "ab", "abc", "é", "中文"];
        let bytes = terms.iter().map(|t| t.len()).sum();
        let mut d = Dictionary::with_capacity_and_bytes(terms.len(), bytes);
        let (arena, ends, slots) = (d.arena.capacity(), d.ends.capacity(), d.slots.len());
        for t in terms {
            d.push_new(t);
        }
        assert_eq!(
            (d.arena.capacity(), d.ends.capacity(), d.slots.len()),
            (arena, ends, slots)
        );
        for (id, t) in (0u32..).zip(terms) {
            assert_eq!(
                (d.get(t), d.resolve(id), d.term_len(id)),
                (Some(id), t, t.len())
            );
        }
    }

    #[test]
    fn debug_lists_terms_by_id() {
        let mut d = Dictionary::new();
        d.intern("x");
        assert_eq!(format!("{d:?}"), r#"{0: "x"}"#);
    }
}
