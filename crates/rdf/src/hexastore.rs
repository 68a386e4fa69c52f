//! Five-way-indexed triple storage (after the "hexastore", Weiss et al.
//! VLDB'08).
//!
//! The paper's SPARQL-based extraction method leans on the fact that RDF
//! engines maintain built-in orderings of the triple table — one per
//! permutation of (subject, predicate, object) — so any triple pattern with
//! any subset of bound components resolves to a single binary-searchable
//! range. This module reproduces that with sorted `[u32; 3]` arrays in
//! permuted key order plus prefix range scans.
//!
//! Five of the six permutations are kept. [`Order::for_bound`] maps every
//! combination of bound components to SPO, SOP, PSO, POS or OSP; no lookup
//! can reach OPS, so it is not built (a documented substitution — DESIGN.md
//! §4 — not a lost access path).
//!
//! ## Build: SPO given, derive the rest
//!
//! SPO comes in already strictly ascending: `RdfStore` builds it from the
//! knowledge graph's own triple order (a set, ascending by `(s, p, o)`)
//! plus one type row per subject, and [`Hexastore::build`] sorts and
//! deduplicates arbitrary input first. Every further ordering is then
//! *derived* from an already-sorted one by a single stable sort on one
//! component:
//! rows sorted by `(a, b, c)` and stably re-sorted by `b` are sorted by
//! `(b, a, c)`; re-sorted by `c`, by `(c, a, b)`. So SPO → PSO, SPO → OSP,
//! OSP → SOP and OSP → POS. Sorted, duplicate-free arrays are unique, so the
//! result is byte-identical to sorting each permuted copy independently
//! (the `#[cfg(test)]` oracle below).

use std::ops::Range;

/// The component orderings that are built. The name lists the sort key
/// order; e.g. [`Order::Pos`] sorts by predicate, then object, then subject.
/// The discriminant is the ordering's slot in [`Hexastore`].
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
}

impl Order {
    /// All orderings, in slot order.
    pub const ALL: [Order; 5] = [Order::Spo, Order::Sop, Order::Pso, Order::Pos, Order::Osp];

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

/// Radix of the build's counting sorts, and of the executor's row dedup:
/// 2¹¹ buckets keep one histogram in L1 and cover any predicate id in one
/// pass and node ids below 2²² in two.
const DIGIT_BITS: u32 = 11;
pub(crate) const BUCKETS: usize = 1 << DIGIT_BITS;
pub(crate) const DIGITS: usize = u32::BITS.div_ceil(DIGIT_BITS) as usize;

/// Digit `d` of `value`, least significant first.
#[inline]
pub(crate) fn digit(value: u32, d: usize) -> usize {
    (value >> (d as u32 * DIGIT_BITS)) as usize & (BUCKETS - 1)
}

/// Histograms of every radix digit of one component over a row set.
type DigitCounts = [[usize; BUCKETS]; DIGITS];

/// Counts every digit of the first `components` components in one read of
/// `rows`. A histogram depends only on the values present, not on their
/// order or key layout, so one count serves every ordering of the same
/// triples.
fn count_digits(rows: &[[u32; 3]], components: usize) -> Vec<DigitCounts> {
    let mut counts = vec![[[0usize; BUCKETS]; DIGITS]; components];
    for row in rows {
        for (component, per_digit) in counts.iter_mut().enumerate() {
            for (d, hist) in per_digit.iter_mut().enumerate() {
                hist[digit(row[component], d)] += 1;
            }
        }
    }
    counts
}

/// One stable counting-sort pass: scatters `src` into `dst` by digit `d` of
/// component `key`, writing each row through `map`.
fn scatter(
    src: &[[u32; 3]],
    dst: &mut [[u32; 3]],
    key: usize,
    d: usize,
    hist: &[usize; BUCKETS],
    map: impl Fn([u32; 3]) -> [u32; 3],
) {
    let mut next = 0;
    let mut offsets = hist.map(|count| {
        next += count;
        next - count
    });
    for &row in src {
        let slot = &mut offsets[digit(row[key], d)];
        dst[*slot] = map(row);
        *slot += 1;
    }
}

/// Moves component `key` (1 or 2) of every row of `src` to the front and
/// stably sorts on it (LSD radix, `counts` being that component's
/// histograms), leaving the result in `dst`; `scratch` is the other half of
/// the ping-pong. Rows sorted by `(a, b, c)` come out sorted by `(b, a, c)`
/// or `(c, a, b)`, in that key layout. A digit on which every row agrees
/// moves nothing and is skipped, so the number of passes follows the spread
/// of the ids actually present, not their width.
fn derive_into(
    src: &[[u32; 3]],
    key: usize,
    counts: &DigitCounts,
    dst: &mut Vec<[u32; 3]>,
    scratch: &mut Vec<[u32; 3]>,
) {
    let rotate = |t: [u32; 3]| [t[key], t[0], t[3 - key]];
    let varying: Vec<usize> = match src.first() {
        Some(t) => (0..DIGITS)
            .filter(|&d| counts[d][digit(t[key], d)] != src.len())
            .collect(),
        None => Vec::new(),
    };
    let Some((&first, rest)) = varying.split_first() else {
        dst.clear();
        dst.extend(src.iter().map(|&t| rotate(t)));
        return;
    };
    dst.resize(src.len(), [0; 3]);
    scratch.resize(src.len(), [0; 3]);
    // An odd number of passes must start in `dst` to end there.
    let (mut to, mut from) = if varying.len() % 2 == 1 {
        (dst, scratch)
    } else {
        (scratch, dst)
    };
    scatter(src, to, key, first, &counts[first], rotate);
    for &d in rest {
        std::mem::swap(&mut to, &mut from);
        scatter(from, to, 0, d, &counts[d], |t| t);
    }
}

/// Stably sorts `rows` by their first component (LSD radix over that
/// component's digits, skipping each digit on which all rows agree), so
/// rows that share it keep their input order. The fetcher's sort: each
/// subject's run is left for a comparison sort of its few rows.
pub(crate) fn sort_by_first(rows: Vec<[u32; 3]>) -> Vec<[u32; 3]> {
    let Some(&first) = rows.first() else {
        return rows;
    };
    let n = rows.len();
    let counts = &count_digits(&rows, 1)[0];
    let (mut from, mut to) = (rows, Vec::new());
    for d in (0..DIGITS).filter(|&d| counts[d][digit(first[0], d)] != n) {
        to.resize(n, [0; 3]);
        scatter(&from, &mut to, 0, d, &counts[d], |t| t);
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// An immutable triple index with the five reachable orderings materialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hexastore {
    // Slot `order as usize` holds that ordering.
    indices: [Box<[[u32; 3]]>; 5],
    len: usize,
}

impl Hexastore {
    /// Builds the sorted permutations from a triple list in any order.
    /// Duplicates are removed.
    pub fn build(triples: &[[u32; 3]]) -> Self {
        let mut spo = triples.to_vec();
        spo.sort_unstable();
        spo.dedup();
        Self::from_spo(spo)
    }

    /// The index over `spo`, which must be strictly ascending (checked in
    /// debug builds): four derived passes, `O(m)` for ids of bounded
    /// spread, and `spo`'s allocation becomes the SPO ordering.
    pub(crate) fn from_spo(spo: Vec<[u32; 3]>) -> Self {
        debug_assert!(spo.windows(2).all(|w| w[0] < w[1]));
        let (s, p, o) = (0, 1, 2);
        let counts = count_digits(&spo, 3);
        let mut scratch = Vec::new();
        let (mut pso, mut osp, mut sop, mut pos) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        derive_into(&spo, 1, &counts[p], &mut pso, &mut scratch);
        derive_into(&spo, 2, &counts[o], &mut osp, &mut scratch);
        derive_into(&osp, 1, &counts[s], &mut sop, &mut scratch);
        derive_into(&osp, 2, &counts[p], &mut pos, &mut scratch);
        let len = spo.len();
        // Slot order is `Order`'s declaration order.
        let indices = [spo, sop, pso, pos, osp].map(Vec::into_boxed_slice);
        Self { indices, len }
    }

    /// The build this module had before orderings were derived: every
    /// ordering sorted independently from a permuted copy. Kept as the
    /// oracle the derived build is compared against.
    #[cfg(test)]
    fn build_by_sorting(triples: &[[u32; 3]]) -> Self {
        let mut indices: [Box<[[u32; 3]]>; 5] = Default::default();
        let mut len = 0;
        for order in Order::ALL {
            let mut permuted: Vec<[u32; 3]> = triples.iter().map(|&t| order.permute(t)).collect();
            permuted.sort_unstable();
            permuted.dedup();
            len = permuted.len();
            indices[order as usize] = permuted.into_boxed_slice();
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
        &self.indices[order as usize]
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
    use proptest::prelude::*;

    /// Ids that reach every radix digit: small, at and around 2¹⁶, and the
    /// top of the range.
    fn arb_id() -> impl Strategy<Value = u32> {
        (0u8..5, any::<u32>()).prop_map(|(kind, x)| match kind {
            0 => x % 8,
            1 => x % 5_000,
            2 => 65_530 + x % 15,
            3 => u32::MAX,
            _ => x,
        })
    }

    proptest! {
        #[test]
        fn derived_build_equals_sort_build(
            triples in proptest::collection::vec((arb_id(), arb_id(), arb_id()), 0..200),
            repeats in 0usize..4,
        ) {
            // Duplicates, adjacent and far apart.
            let mut input: Vec<[u32; 3]> = triples.iter().map(|&(s, p, o)| [s, p, o]).collect();
            input.extend_from_within(..input.len().min(repeats * 10));
            prop_assert_eq!(Hexastore::build(&input), Hexastore::build_by_sorting(&input));
        }
    }

    #[test]
    fn derived_build_skips_constant_digits() {
        // One predicate, all ids sharing their high digits: most passes are
        // skipped, and the ones that run must still order the rest.
        let base = 3 << 22;
        let input: Vec<[u32; 3]> = (0..500u32)
            .rev()
            .map(|i| [base + i % 7, 9, base + i])
            .collect();
        assert_eq!(
            Hexastore::build(&input),
            Hexastore::build_by_sorting(&input)
        );
        let single = [[u32::MAX, 0, u32::MAX]];
        assert_eq!(
            Hexastore::build(&single),
            Hexastore::build_by_sorting(&single)
        );
    }

    #[test]
    fn every_bound_combination_reads_a_built_ordering() {
        let h = store();
        for mask in 0..8u8 {
            let (s, p, o) = (mask & 4 != 0, mask & 2 != 0, mask & 1 != 0);
            let order = Order::for_bound(s, p, o);
            assert!(Order::ALL.contains(&order), "{order:?} is not built");
            assert_eq!(Order::ALL[order as usize], order, "slot of {order:?}");
            assert_eq!(h.index(order).len(), h.len());
            // The bound components must form the ordering's key prefix.
            let key = order.permute([s as u32, p as u32, o as u32]);
            let bound = Order::prefix_len(s, p, o);
            assert!(
                key[..bound].iter().all(|&b| b == 1),
                "{order:?} for {:?}",
                (s, p, o)
            );
        }
    }

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
