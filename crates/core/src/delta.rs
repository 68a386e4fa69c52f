//! Pattern-scoped cache staleness under a KG delta.
//!
//! When a [`kgtosa_kg::KgDelta`] lands, every cached extraction keyed to the
//! old fingerprint is *keyed* stale — but most are not *semantically* stale:
//! a delta inside the movie cluster cannot change `KG-TOSA_{d1h1}` around
//! `Paper` targets. The [`StalenessOracle`] decides, per cache entry, whether
//! the delta's triples can intersect the entry's BGP match set, using a
//! conservative class-level (schema) reachability argument:
//!
//! * a branch of pattern `P` anchored at class `C` only ever matches a triple
//!   whose *chain vertex* lies within `hops(P) − 1` schema steps of `C`
//!   (out-edges only for `d1`, both directions for `d2`);
//! * therefore a delta triple is relevant only if its subject class (`d1`) or
//!   either endpoint class (`d2`) falls inside that reach set;
//! * the schema graph is taken over the updated KG **plus** the removed
//!   triples, so reachability over-approximates both the old and new graphs.
//!   A server keeps the updated KG's side of it as [`ClassPairCounts`],
//!   moved by each delta, so building the oracle never walks the KG.
//!
//! Entries whose task/pattern cannot be parsed — and all link-prediction
//! entries, whose connecting branch is predicate- rather than class-scoped —
//! are conservatively treated as stale. The oracle also tracks vertices
//! interned by the delta whose term shadows a class name: the store resolves
//! query constants vertex-first, so such a vertex silently empties the
//! class's anchor and every entry over that class must be treated as stale.
//!
//! [`sweep_cache_after_delta`] wires the oracle into
//! [`ArtifactCache::sweep_fingerprint`]: fresh entries are migrated to the
//! new fingerprint (payload re-pinned to the new node count), stale entries
//! are handed to a caller-supplied repair hook or invalidated.

use std::io;

use kgtosa_cache::{ArtifactCache, EntryInfo, SweepAction, SweepReport};
use kgtosa_kg::{FxHashMap, FxHashSet, KnowledgeGraph, Triple, Vid};

use crate::pattern::{Direction, GraphPattern};

/// Decides which cached extractions a delta can actually affect.
#[derive(Debug)]
pub struct StalenessOracle {
    class_ids: FxHashMap<String, usize>,
    /// Per class: classes reachable over one out-edge / one in-edge, in the
    /// union of the updated KG and the removed triples.
    schema_out: Vec<FxHashSet<usize>>,
    schema_in: Vec<FxHashSet<usize>>,
    /// Endpoint classes of the delta's triples.
    delta_subject_classes: FxHashSet<usize>,
    delta_object_classes: FxHashSet<usize>,
    /// Classes whose anchor became shadowed by a newly interned vertex term.
    newly_shadowed: FxHashSet<usize>,
}

/// How many triples of a KG join each (subject class, object class) pair:
/// the schema graph the [`StalenessOracle`] reasons over, kept per epoch
/// and moved by each delta's triples, so an update builds its oracle in
/// O(|delta| + |class pairs|) instead of walking every triple.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassPairCounts {
    counts: FxHashMap<(usize, usize), u64>,
}

impl ClassPairCounts {
    /// Counts every triple of `kg`.
    pub fn of(kg: &KnowledgeGraph) -> Self {
        let mut pairs = Self::default();
        for t in kg.triples() {
            *pairs.counts.entry(class_pair(kg, t)).or_default() += 1;
        }
        pairs
    }

    /// Moves the counts of the KG a delta was applied to onto the KG it
    /// produced: `kg` is the **updated** KG (node classes are immutable, so
    /// it classifies the removed triples exactly) and `added`/`removed` the
    /// delta's resolved triples ([`kgtosa_kg::DeltaApplication`] fields).
    ///
    /// A triple one delta both adds and removes is in both lists, whichever
    /// op came first, so the additions are counted before the removals:
    /// that order never takes a count below zero.
    pub fn apply(&mut self, kg: &KnowledgeGraph, added: &[Triple], removed: &[Triple]) {
        for t in added {
            *self.counts.entry(class_pair(kg, t)).or_default() += 1;
        }
        for t in removed {
            let pair = class_pair(kg, t);
            let count = self.counts.get_mut(&pair);
            debug_assert!(count.is_some(), "a removed triple was counted");
            if let Some(count) = count {
                *count -= 1;
                if *count == 0 {
                    self.counts.remove(&pair);
                }
            }
        }
    }

    /// The pairs at least one triple joins.
    fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.counts.keys().copied()
    }
}

fn class_pair(kg: &KnowledgeGraph, t: &Triple) -> (usize, usize) {
    (kg.class_of(t.s).idx(), kg.class_of(t.o).idx())
}

impl StalenessOracle {
    /// Builds the oracle from the **updated** KG and the delta's resolved
    /// triples ([`kgtosa_kg::DeltaApplication`] fields). `new_nodes` are the
    /// vertices the delta interned. Counts the KG's class pairs, then
    /// builds as [`Self::from_class_pairs`].
    pub fn new(
        kg: &KnowledgeGraph,
        added: &[Triple],
        removed: &[Triple],
        new_nodes: &[Vid],
    ) -> Self {
        Self::from_class_pairs(kg, &ClassPairCounts::of(kg), added, removed, new_nodes)
    }

    /// [`Self::new`] with `pairs`, the class-pair counts of the **updated**
    /// KG, supplied by the caller: a server keeps them per epoch
    /// ([`ClassPairCounts::apply`]), so nothing here walks the KG.
    pub fn from_class_pairs(
        kg: &KnowledgeGraph,
        pairs: &ClassPairCounts,
        added: &[Triple],
        removed: &[Triple],
        new_nodes: &[Vid],
    ) -> Self {
        let n = kg.num_classes();
        let mut schema_out = vec![FxHashSet::default(); n];
        let mut schema_in = vec![FxHashSet::default(); n];
        // The updated KG's pairs plus the removed triples' (classified
        // through the updated KG, which is exact: node classes are
        // immutable) — the old KG's pairs plus the added triples'.
        for (cs, co) in pairs
            .pairs()
            .chain(removed.iter().map(|t| class_pair(kg, t)))
        {
            schema_out[cs].insert(co);
            schema_in[co].insert(cs);
        }
        let mut delta_subject_classes = FxHashSet::default();
        let mut delta_object_classes = FxHashSet::default();
        for t in added.iter().chain(removed) {
            delta_subject_classes.insert(kg.class_of(t.s).idx());
            delta_object_classes.insert(kg.class_of(t.o).idx());
        }
        let newly_shadowed = new_nodes
            .iter()
            .filter_map(|&v| kg.find_class(kg.node_term(v)))
            .map(|c| c.idx())
            .collect();
        Self {
            class_ids: kg
                .classes()
                .map(|(c, term)| (term.to_string(), c.idx()))
                .collect(),
            schema_out,
            schema_in,
            delta_subject_classes,
            delta_object_classes,
            newly_shadowed,
        }
    }

    /// Classes within `steps` schema hops of `class`, following out-edges
    /// only (`d1`) or both directions (`d2`). Includes `class` itself.
    fn reach(&self, class: usize, steps: usize, both: bool) -> FxHashSet<usize> {
        let mut reach = FxHashSet::default();
        reach.insert(class);
        let mut frontier = vec![class];
        for _ in 0..steps {
            let mut next = Vec::new();
            for &c in &frontier {
                for &d in &self.schema_out[c] {
                    if reach.insert(d) {
                        next.push(d);
                    }
                }
                if both {
                    for &d in &self.schema_in[c] {
                        if reach.insert(d) {
                            next.push(d);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        reach
    }

    /// Can the delta change the match set of the entry identified by its
    /// cache-header `pattern` and `task` labels (e.g. `"d1h1"`, `"nc:Paper"`)?
    ///
    /// Conservative: `true` on anything unparseable or link-prediction
    /// shaped; `false` only when the class-level argument proves the entry
    /// untouched.
    pub fn entry_is_stale(&self, pattern_label: &str, task_label: &str) -> bool {
        let Some(class) = task_label.strip_prefix("nc:") else {
            // Link prediction (or an unknown label): the connecting branch
            // is predicate-scoped, outside the class-reach argument.
            return true;
        };
        let Some(pattern) = GraphPattern::from_label(pattern_label) else {
            return true;
        };
        let Some(&cid) = self.class_ids.get(class) else {
            // Dictionaries are append-only: a class absent now was absent
            // when the entry was cached, so its extraction is empty in both
            // worlds.
            return false;
        };
        if self.newly_shadowed.contains(&cid) {
            return true;
        }
        // A matched chain edge at position i has its chain vertex at schema
        // distance i ≤ hops − 1 from the anchor. Out-steps put that vertex
        // in subject position; in-steps (d2 only) in object position.
        let both = pattern.direction == Direction::Both;
        let reach = self.reach(cid, pattern.hops.max(1) - 1, both);
        self.delta_subject_classes.iter().any(|c| reach.contains(c))
            || (both && self.delta_object_classes.iter().any(|c| reach.contains(c)))
    }
}

/// Outcome of a delta-driven cache sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeltaSweepOutcome {
    /// Raw per-entry accounting from the store sweep.
    pub report: SweepReport,
    /// Entries the oracle flagged as semantically stale.
    pub stale: usize,
    /// Stale entries the repair hook re-published under the new fingerprint.
    pub repaired: usize,
    /// Stale (or unmigratable) entries dropped from the cache.
    pub invalidated: usize,
}

/// Sweeps `cache` after a delta moved the KG fingerprint from `old_fp` to
/// `new_fp`.
///
/// Fresh entries (per `oracle`) are migrated: their payload is re-pinned
/// from `old_parent_nodes` to `new_parent_nodes` and stored under the new
/// fingerprint. Stale entries go through `repair`, which may return a
/// replacement payload (already encoded against the updated KG) to publish
/// under the new fingerprint, or `None` to drop the entry.
pub fn sweep_cache_after_delta(
    cache: &ArtifactCache,
    old_fp: u64,
    new_fp: u64,
    old_parent_nodes: usize,
    new_parent_nodes: usize,
    oracle: &StalenessOracle,
    mut repair: impl FnMut(&EntryInfo, &[u8]) -> Option<Vec<u8>>,
) -> io::Result<DeltaSweepOutcome> {
    let mut out = DeltaSweepOutcome::default();
    let report = cache.sweep_fingerprint(old_fp, new_fp, |info, payload| {
        let pattern = info.pattern.as_deref().unwrap_or("");
        let task = info.task.as_deref().unwrap_or("");
        if oracle.entry_is_stale(pattern, task) {
            out.stale += 1;
            match repair(info, &payload) {
                Some(bytes) => {
                    out.repaired += 1;
                    SweepAction::Migrate(bytes)
                }
                None => {
                    out.invalidated += 1;
                    SweepAction::Invalidate
                }
            }
        } else {
            match crate::cache::migrate_payload(&payload, old_parent_nodes, new_parent_nodes) {
                Ok(bytes) => SweepAction::Migrate(bytes),
                Err(_) => {
                    out.invalidated += 1;
                    SweepAction::Invalidate
                }
            }
        }
    })?;
    out.report = report;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, KgDelta, MultisetFingerprint};

    /// Papers/venues/authors plus an unrelated movie cluster.
    fn fixture() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("p1", "Paper", "publishedIn", "v1", "Venue");
        kg.add_triple_terms("p1", "Paper", "cites", "p2", "Paper");
        kg.add_triple_terms("a1", "Author", "writes", "p1", "Paper");
        kg.add_triple_terms("m1", "Movie", "hasGenre", "g1", "Genre");
        kg
    }

    fn oracle_for(kg: &KnowledgeGraph, ops: Vec<DeltaOp>) -> StalenessOracle {
        let delta = KgDelta {
            base_fingerprint: fingerprint(kg),
            ops,
        };
        let app = apply_delta(kg, fingerprint(kg), MultisetFingerprint::of(kg), &delta)
            .expect("delta applies");
        StalenessOracle::new(&app.kg, &app.added, &app.removed, &app.new_nodes)
    }

    fn movie_add() -> DeltaOp {
        DeltaOp::Add {
            s: "m2".into(),
            s_class: "Movie".into(),
            p: "hasGenre".into(),
            o: "g1".into(),
            o_class: "Genre".into(),
        }
    }

    /// Counts moved by a delta equal a recount of the graph it produced,
    /// also when one delta adds and removes the same triple, in either
    /// order; and the oracle built from them is the one `new` builds.
    #[test]
    fn class_pair_counts_follow_deltas_that_add_and_remove_one_triple() {
        let kg = fixture();
        let t = kg.triples()[1]; // p1 -cites-> p2
        let remove = DeltaOp::Remove {
            s: kg.node_term(t.s).into(),
            p: kg.relation_term(t.p).into(),
            o: kg.node_term(t.o).into(),
        };
        let readd = add_op("p1", "Paper", "cites", "p2", "Paper");
        let new_then_gone = [
            add_op("m9", "Movie", "cites", "p1", "Paper"),
            DeltaOp::Remove {
                s: "m9".into(),
                p: "cites".into(),
                o: "p1".into(),
            },
        ];
        for ops in [
            vec![remove.clone(), readd],
            new_then_gone.to_vec(),
            vec![remove, movie_add()],
        ] {
            let delta = KgDelta {
                base_fingerprint: fingerprint(&kg),
                ops,
            };
            let app = apply_delta(&kg, fingerprint(&kg), MultisetFingerprint::of(&kg), &delta)
                .expect("delta applies");
            let mut pairs = ClassPairCounts::of(&kg);
            pairs.apply(&app.kg, &app.added, &app.removed);
            assert_eq!(pairs, ClassPairCounts::of(&app.kg));
            let counted = StalenessOracle::from_class_pairs(
                &app.kg,
                &pairs,
                &app.added,
                &app.removed,
                &app.new_nodes,
            );
            let walked = StalenessOracle::new(&app.kg, &app.added, &app.removed, &app.new_nodes);
            for p in &GraphPattern::VARIANTS {
                for class in ["nc:Paper", "nc:Venue", "nc:Author", "nc:Movie", "nc:Genre"] {
                    assert_eq!(
                        counted.entry_is_stale(&p.label(), class),
                        walked.entry_is_stale(&p.label(), class),
                        "{} {class}",
                        p.label()
                    );
                }
            }
        }
    }

    fn add_op(s: &str, s_class: &str, p: &str, o: &str, o_class: &str) -> DeltaOp {
        DeltaOp::Add {
            s: s.into(),
            s_class: s_class.into(),
            p: p.into(),
            o: o.into(),
            o_class: o_class.into(),
        }
    }

    #[test]
    fn unrelated_cluster_delta_leaves_entry_fresh() {
        let kg = fixture();
        let oracle = oracle_for(&kg, vec![movie_add()]);
        for p in &GraphPattern::VARIANTS {
            assert!(
                !oracle.entry_is_stale(&p.label(), "nc:Paper"),
                "{}: movie delta must not stale Paper",
                p.label()
            );
        }
        assert!(oracle.entry_is_stale("d1h1", "nc:Movie"));
    }

    #[test]
    fn incoming_edge_delta_stales_only_d2() {
        let kg = fixture();
        // writes: Author -> Paper. Under d1 only outgoing chains from Paper
        // match, so an incoming edge is irrelevant; under d2 it is matched.
        let oracle = oracle_for(
            &kg,
            vec![DeltaOp::Add {
                s: "a2".into(),
                s_class: "Author".into(),
                p: "writes".into(),
                o: "p1".into(),
                o_class: "Paper".into(),
            }],
        );
        assert!(!oracle.entry_is_stale("d1h1", "nc:Paper"));
        assert!(!oracle.entry_is_stale("d1h2", "nc:Paper"));
        assert!(oracle.entry_is_stale("d2h1", "nc:Paper"));
        assert!(oracle.entry_is_stale("d2h2", "nc:Paper"));
    }

    #[test]
    fn removal_is_tracked_through_old_schema_edges() {
        let kg = fixture();
        let t = kg.triples()[1]; // p1 -cites-> p2
        let oracle = oracle_for(
            &kg,
            vec![DeltaOp::Remove {
                s: kg.node_term(t.s).into(),
                p: kg.relation_term(t.p).into(),
                o: kg.node_term(t.o).into(),
            }],
        );
        assert!(oracle.entry_is_stale("d1h1", "nc:Paper"));
        assert!(!oracle.entry_is_stale("d1h1", "nc:Genre"));
    }

    #[test]
    fn lp_and_unparseable_entries_are_always_stale() {
        let kg = fixture();
        let oracle = oracle_for(&kg, vec![movie_add()]);
        assert!(oracle.entry_is_stale("d2h1", "lp:writes:Author+Paper"));
        assert!(oracle.entry_is_stale("d9h9", "nc:Paper"));
        assert!(oracle.entry_is_stale("", ""));
    }

    #[test]
    fn unknown_class_entry_stays_fresh() {
        let kg = fixture();
        let oracle = oracle_for(&kg, vec![movie_add()]);
        assert!(!oracle.entry_is_stale("d1h1", "nc:Nonexistent"));
    }

    #[test]
    fn vertex_shadowing_a_class_stales_that_class() {
        let kg = fixture();
        // The new subject vertex is literally named "Venue": anchors over
        // class Venue now resolve to the vertex and match nothing.
        let oracle = oracle_for(
            &kg,
            vec![DeltaOp::Add {
                s: "Venue".into(),
                s_class: "Movie".into(),
                p: "hasGenre".into(),
                o: "g1".into(),
                o_class: "Genre".into(),
            }],
        );
        assert!(oracle.entry_is_stale("d1h1", "nc:Venue"));
    }
}
