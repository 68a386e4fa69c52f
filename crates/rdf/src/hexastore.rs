//! Sextuple-indexed triple storage ("hexastore", Weiss et al. VLDB'08).
//!
//! The paper's SPARQL-based extraction method leans on the fact that RDF
//! engines maintain *six* built-in orderings of the triple table — one per
//! permutation of (subject, predicate, object) — so any triple pattern with
//! any subset of bound components resolves to a single binary-searchable
//! range. This module reproduces exactly that: six sorted `[u32; 3]` arrays
//! in permuted key order plus prefix range scans.

use std::ops::Range;

/// The six component orderings. The name lists the sort key order; e.g.
/// [`Order::Pos`] sorts by predicate, then object, then subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// subject, predicate, object
    Spo,
    /// subject, object, predicate
    Sop,
    /// predicate, subject, object
    Pso,
    /// predicate, object, subject
    Pos,
    /// object, subject, predicate
    Osp,
    /// object, predicate, subject
    Ops,
}

impl Order {
    /// All orderings.
    pub const ALL: [Order; 6] = [
        Order::Spo,
        Order::Sop,
        Order::Pso,
        Order::Pos,
        Order::Osp,
        Order::Ops,
    ];

    /// Maps an `(s, p, o)` triple into this ordering's key layout.
    #[inline]
    pub fn permute(self, t: [u32; 3]) -> [u32; 3] {
        let [s, p, o] = t;
        match self {
            Order::Spo => [s, p, o],
            Order::Sop => [s, o, p],
            Order::Pso => [p, s, o],
            Order::Pos => [p, o, s],
            Order::Osp => [o, s, p],
            Order::Ops => [o, p, s],
        }
    }

    /// Inverse of [`Order::permute`]: recovers `(s, p, o)` from key layout.
    #[inline]
    pub fn unpermute(self, k: [u32; 3]) -> [u32; 3] {
        let [a, b, c] = k;
        match self {
            Order::Spo => [a, b, c],
            Order::Sop => [a, c, b],
            Order::Pso => [b, a, c],
            Order::Pos => [c, a, b],
            Order::Osp => [b, c, a],
            Order::Ops => [c, b, a],
        }
    }

    /// Picks the ordering whose key prefix covers exactly the bound
    /// components of a pattern, so matching triples form one contiguous run.
    ///
    /// `bound = (s?, p?, o?)` flags which components are constants.
    pub fn for_bound(s: bool, p: bool, o: bool) -> Order {
        match (s, p, o) {
            // Fully bound or fully unbound: any order works; SPO is canonical.
            (true, true, true) | (false, false, false) => Order::Spo,
            (true, true, false) => Order::Spo,
            (true, false, true) => Order::Sop,
            (true, false, false) => Order::Spo,
            (false, true, true) => Order::Pos,
            (false, true, false) => Order::Pso,
            (false, false, true) => Order::Osp,
        }
    }

    /// Number of leading key components a pattern with these bound flags
    /// pins down in this ordering.
    fn prefix_len(s: bool, p: bool, o: bool) -> usize {
        (s as usize) + (p as usize) + (o as usize)
    }

    /// Builds the key prefix for bound components in this ordering's layout.
    fn prefix_key(self, s: Option<u32>, p: Option<u32>, o: Option<u32>) -> [u32; 3] {
        self.permute([s.unwrap_or(0), p.unwrap_or(0), o.unwrap_or(0)])
    }
}

/// An immutable triple index with all six orderings materialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hexastore {
    // Index 0..6 corresponds to Order::ALL.
    indices: [Box<[[u32; 3]]>; 6],
    len: usize,
}

impl Hexastore {
    /// Builds the six sorted permutations from a triple list. Duplicates are
    /// removed. `O(6 · m log m)` construction.
    pub fn build(triples: &[[u32; 3]]) -> Self {
        let mut indices: [Box<[[u32; 3]]>; 6] = Default::default();
        let mut len = 0;
        for (slot, order) in Order::ALL.iter().enumerate() {
            let mut permuted: Vec<[u32; 3]> =
                triples.iter().map(|&t| order.permute(t)).collect();
            permuted.sort_unstable();
            permuted.dedup();
            len = permuted.len();
            indices[slot] = permuted.into_boxed_slice();
        }
        Self { indices, len }
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn index(&self, order: Order) -> &[[u32; 3]] {
        let slot = Order::ALL.iter().position(|&o| o == order).unwrap();
        &self.indices[slot]
    }

    /// Finds the contiguous run of keys in `order` matching the bound
    /// prefix of the pattern.
    fn prefix_range(
        &self,
        order: Order,
        s: Option<u32>,
        p: Option<u32>,
        o: Option<u32>,
    ) -> Range<usize> {
        let idx = self.index(order);
        let plen = Order::prefix_len(s.is_some(), p.is_some(), o.is_some());
        if plen == 0 {
            return 0..idx.len();
        }
        let key = order.prefix_key(s, p, o);
        let lo = idx.partition_point(|k| k[..plen] < key[..plen]);
        let hi = idx.partition_point(|k| k[..plen] <= key[..plen]);
        lo..hi
    }

    /// Number of triples matching a pattern (`None` = wildcard). Used by the
    /// query planner for selectivity estimation — `O(log m)`.
    pub fn count(&self, s: Option<u32>, p: Option<u32>, o: Option<u32>) -> usize {
        let order = Order::for_bound(s.is_some(), p.is_some(), o.is_some());
        self.prefix_range(order, s, p, o).len()
    }

    /// Scans all triples matching a pattern, yielding them in `(s, p, o)`
    /// component order. `O(log m + k)`.
    pub fn scan(
        &self,
        s: Option<u32>,
        p: Option<u32>,
        o: Option<u32>,
    ) -> impl Iterator<Item = [u32; 3]> + '_ {
        let order = Order::for_bound(s.is_some(), p.is_some(), o.is_some());
        let range = self.prefix_range(order, s, p, o);
        self.index(order)[range]
            .iter()
            .map(move |&k| order.unpermute(k))
    }

    /// Membership test for a fully-bound triple. `O(log m)`.
    pub fn contains(&self, s: u32, p: u32, o: u32) -> bool {
        self.index(Order::Spo).binary_search(&[s, p, o]).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Hexastore {
        Hexastore::build(&[
            [0, 0, 1],
            [0, 0, 2],
            [0, 1, 2],
            [1, 0, 2],
            [2, 1, 0],
            [2, 1, 0], // duplicate
        ])
    }

    #[test]
    fn dedups_on_build() {
        assert_eq!(store().len(), 5);
    }

    #[test]
    fn permute_roundtrip_all_orders() {
        let t = [7u32, 11, 13];
        for order in Order::ALL {
            assert_eq!(order.unpermute(order.permute(t)), t);
        }
    }

    #[test]
    fn scan_by_subject() {
        let h = store();
        let got: Vec<_> = h.scan(Some(0), None, None).collect();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|t| t[0] == 0));
    }

    #[test]
    fn scan_by_predicate_object() {
        let h = store();
        let got: Vec<_> = h.scan(None, Some(0), Some(2)).collect();
        let mut subjects: Vec<u32> = got.iter().map(|t| t[0]).collect();
        subjects.sort_unstable();
        assert_eq!(subjects, vec![0, 1]);
    }

    #[test]
    fn scan_wildcard_returns_all() {
        let h = store();
        assert_eq!(h.scan(None, None, None).count(), 5);
    }

    #[test]
    fn scan_fully_bound() {
        let h = store();
        assert_eq!(h.scan(Some(2), Some(1), Some(0)).count(), 1);
        assert_eq!(h.scan(Some(2), Some(1), Some(9)).count(), 0);
    }

    #[test]
    fn count_matches_scan() {
        let h = store();
        for s in [None, Some(0), Some(9)] {
            for p in [None, Some(0), Some(1)] {
                for o in [None, Some(2)] {
                    assert_eq!(h.count(s, p, o), h.scan(s, p, o).count());
                }
            }
        }
    }

    #[test]
    fn contains_exact() {
        let h = store();
        assert!(h.contains(0, 1, 2));
        assert!(!h.contains(0, 1, 3));
    }

    #[test]
    fn empty_store() {
        let h = Hexastore::build(&[]);
        assert!(h.is_empty());
        assert_eq!(h.scan(None, None, None).count(), 0);
        assert_eq!(h.count(Some(1), None, None), 0);
    }
}
