//! Incremental TOSG repair under a triple delta.
//!
//! After a [`kgtosa_kg::KgDelta`] is applied to the parent KG, a previously
//! extracted TOSG is stale only where the delta touched its BGP frontier.
//! Re-running Algorithm 3 from scratch re-pays the full pagination cost; this
//! module instead *patches* the old extraction:
//!
//! 1. enumerate **candidate** triples whose membership in the pattern's match
//!    set can have changed — the delta's own triples, plus (for `h = 2`) every
//!    triple incident to a delta endpoint, since a two-hop chain can gain or
//!    lose its prefix edge there;
//! 2. re-evaluate the branch predicate for each candidate directly against the
//!    RDF store's index — membership is one SPO probe, a vertex's out-edges
//!    one SPO range and its in-edges one OSP range — mirroring the exact
//!    branch shapes `crate::bgp` compiles (anchor `?v0 a <class>`, then the
//!    direction sequence);
//! 3. splice the candidates' verdicts into the old parent-space triples by
//!    one sorted merge, and rebuild the compacted subgraph.
//!
//! The result is **bit-identical** to a fresh [`extract_sparql`] run on the
//! updated KG (the differential harness in `tests/delta_differential.rs`
//! proves this): both paths end in `subgraph_from_triples_and_nodes` over the
//! same sorted, deduplicated triple set. Repair cost scales with the delta,
//! its incident frontier and the TOSG, not with `|KG|`: no step hashes or
//! sorts the whole old triple set, and [`repair_entry`] lifts it straight
//! from the cached payload's bytes.
//!
//! When the candidate frontier grows past a configurable fraction of the KG,
//! a target class's anchor is shadowed by a same-named vertex, or the
//! task/pattern is outside the supported shape (link prediction, more than
//! two hops), repair falls back to the full extractor — correctness never
//! depends on the cheap path being applicable.

use kgtosa_cache::EntryInfo;
use kgtosa_kg::{
    sort_subject_runs, sorted_unique, subgraph_from_triples_and_nodes, Cid, FxHashSet,
    HeteroGraph, KnowledgeGraph, Rid, Triple, Vid,
};
use kgtosa_rdf::{FetchConfig, RdfError, RdfStore};

use crate::bgp::{direction_sequences, Step};
use crate::cache::{encode_extraction_parts, task_params, ExtractionView};
use crate::extract::{extract_sparql, ExtractionResult};
use crate::pattern::{ExtractionTask, GraphPattern};

/// Tuning knobs for the repair-vs-rebuild decision.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Fall back to full extraction when the candidate triple count exceeds
    /// this fraction of the parent KG's triples: past that point the repair
    /// walk stops being cheaper than re-running the paginated fetch.
    pub max_candidate_ratio: f64,
    /// Candidate counts below this floor never trigger fallback, so small
    /// graphs (where any delta is a large *fraction*) still take the
    /// incremental path.
    pub min_candidate_floor: usize,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self {
            max_candidate_ratio: 0.25,
            min_candidate_floor: 64,
        }
    }
}

/// Why a repair attempt fell back to full re-extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Link-prediction tasks add the `⟨?s, p_T, ?o⟩` connecting branch,
    /// which the frontier predicate does not model.
    LinkPrediction,
    /// Patterns deeper than two hops (none of the paper's four variants).
    HopsUnsupported,
    /// A target class's name is shadowed by a vertex term: the store
    /// resolves query constants vertex-first, so fresh extraction matches
    /// nothing — while the splice would keep every old triple the delta
    /// did not touch. Only the full extractor agrees with the store here.
    ClassShadowed,
    /// The candidate frontier exceeded [`RepairConfig::max_candidate_ratio`].
    FrontierTooLarge,
}

/// Accounting for one repair attempt.
#[derive(Debug, Clone, Copy)]
pub struct RepairReport {
    /// Candidate triples whose membership was re-evaluated (0 on an early
    /// fallback, i.e. before candidates were enumerated).
    pub candidates: usize,
    /// `Some` when the full extractor ran instead of the incremental patch.
    pub fallback: Option<FallbackReason>,
}

/// Maps an extracted subgraph's triples back into parent-KG id space,
/// ascending (see [`sort_subject_runs`]).
///
/// The subgraph re-interns relations, so predicate ids are translated through
/// their terms, once per relation; dictionaries are append-only across
/// deltas, which keeps the parent ids stable and the lookup infallible for
/// any subgraph extracted from (an ancestor of) `parent`.
pub fn parent_triples(
    parent: &KnowledgeGraph,
    sub: &kgtosa_kg::InducedSubgraph,
) -> Vec<Triple> {
    let relations: Vec<Rid> = sub
        .kg
        .relations()
        .map(|(_, term)| {
            parent
                .find_relation(term)
                .expect("subgraph relation term must exist in parent")
        })
        .collect();
    let mut triples: Vec<Triple> = sub
        .kg
        .triples()
        .iter()
        .map(|t| Triple::new(sub.map_up(t.s), relations[t.p.idx()], sub.map_up(t.o)))
        .collect();
    sort_subject_runs(&mut triples);
    triples
}

/// The out-edges of `v` in the store: one SPO range, minus `v`'s
/// `rdf:type` row, whose object is a class (`N + cid`, see `kgtosa_rdf`'s
/// "Id spaces"), not a vertex.
fn out_edges<'a>(store: &'a RdfStore<'_>, v: Vid) -> impl Iterator<Item = Triple> + 'a {
    store
        .hexastore()
        .scan(Some(v.0), None, None)
        .filter_map(|[s, p, o]| store.to_data_triple(s, p, o))
}

/// The in-edges of `v` in the store: one OSP range. A type row's object is
/// a class, never the vertex `v`, so none can appear here.
fn in_edges<'a>(store: &'a RdfStore<'_>, v: Vid) -> impl Iterator<Item = Triple> + 'a {
    store
        .hexastore()
        .scan(None, None, Some(v.0))
        .map(|[s, p, o]| Triple::new(Vid(s), Rid(p), Vid(o)))
}

/// Would a fresh run of branch `(class, seq)` emit `t` as its final-hop
/// triple? Mirrors `bgp::branch_patterns`: the chain node is `t.s` for an
/// outgoing final step and `t.o` for an incoming one; the prefix is walked
/// *backwards* (an `Out` prefix step means the earlier chain node is an
/// in-neighbor, `In` means an out-neighbor) until a node of the anchor class
/// is reached.
fn branch_emits(store: &RdfStore<'_>, class: Cid, seq: &[Step], t: Triple) -> bool {
    let (last, prefix) = match seq.split_last() {
        Some(split) => split,
        None => return false,
    };
    let chain_node = match last {
        Step::Out => t.s,
        Step::In => t.o,
    };
    let mut frontier: FxHashSet<Vid> = FxHashSet::default();
    frontier.insert(chain_node);
    for step in prefix.iter().rev() {
        let mut next: FxHashSet<Vid> = FxHashSet::default();
        for &v in &frontier {
            match step {
                // Prefix pattern (v_i, p_i, v_{i+1}): predecessors of the
                // current frontier are its in-neighbors.
                Step::Out => next.extend(in_edges(store, v).map(|e| e.s)),
                // Prefix pattern (v_{i+1}, p_i, v_i): predecessors are
                // out-neighbors.
                Step::In => next.extend(out_edges(store, v).map(|e| e.o)),
            }
        }
        if next.is_empty() {
            return false;
        }
        frontier = next;
    }
    frontier.iter().any(|&v| store.kg().class_of(v) == class)
}

/// Repairs a cached extraction after a delta, producing a result
/// bit-identical to [`extract_sparql`] on the updated store.
///
/// * `store` — the **updated** KG (post-[`kgtosa_kg::apply_delta`]). Every
///   adjacency read is one range of its index.
/// * `_graph` — ignored. It stays only so existing callers keep compiling,
///   until ROADMAP item 14(b) moves them to a signature without it.
/// * `old_parent_triples` — the previous extraction's triples lifted into
///   parent id space (see [`parent_triples`]); ids are stable across deltas.
///   Strictly ascending input (what [`ExtractionView::parse_lifting`]
///   returns) is spliced as it is; anything else is sorted first.
/// * `added`/`removed` — the delta's ops resolved to parent-space triples
///   ([`kgtosa_kg::DeltaApplication::added`] / `removed`).
/// * `fetch` — only used when repair falls back to the full extractor.
#[allow(clippy::too_many_arguments)]
pub fn repair_extraction(
    store: &RdfStore<'_>,
    _graph: &HeteroGraph,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    old_parent_triples: &[Triple],
    added: &[Triple],
    removed: &[Triple],
    fetch: &FetchConfig,
    cfg: &RepairConfig,
) -> Result<(ExtractionResult, RepairReport), RdfError> {
    repair(store, task, pattern, old_parent_triples, added, removed, fetch, cfg)
}

/// [`repair_extraction`] without the ignored graph.
#[allow(clippy::too_many_arguments)]
fn repair(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    old_parent_triples: &[Triple],
    added: &[Triple],
    removed: &[Triple],
    fetch: &FetchConfig,
    cfg: &RepairConfig,
) -> Result<(ExtractionResult, RepairReport), RdfError> {
    let fallback = |reason, candidates| -> Result<(ExtractionResult, RepairReport), RdfError> {
        let result = extract_sparql(store, task, pattern, fetch)?;
        Ok((
            result,
            RepairReport {
                candidates,
                fallback: Some(reason),
            },
        ))
    };
    if task.lp_predicate.is_some() {
        return fallback(FallbackReason::LinkPrediction, 0);
    }
    if pattern.hops > 2 {
        return fallback(FallbackReason::HopsUnsupported, 0);
    }

    let kg = store.kg();
    // A vertex term equal to a target class name shadows the class: the
    // store resolves the anchor's constant vertex-first, so a fresh run
    // matches nothing — but the splice below starts from the *old* triple
    // set and only touches delta candidates, so it would keep everything
    // else and diverge. Dictionaries are append-only, so checking the
    // updated KG sees exactly what the fresh extractor would.
    if task
        .target_classes
        .iter()
        .any(|class| kg.find_node(class).is_some())
    {
        return fallback(FallbackReason::ClassShadowed, 0);
    }
    let guard = kgtosa_obs::span!("extract.repair");

    // Candidate enumeration: the delta's own triples always qualify; at two
    // hops, any triple incident to a delta endpoint can gain or lose a
    // prefix chain through that endpoint.
    let mut candidates: Vec<Triple> = added.iter().chain(removed).copied().collect();
    if pattern.hops >= 2 {
        let mut endpoints: FxHashSet<Vid> = FxHashSet::default();
        for t in added.iter().chain(removed) {
            endpoints.insert(t.s);
            endpoints.insert(t.o);
        }
        for &v in &endpoints {
            candidates.extend(out_edges(store, v));
            candidates.extend(in_edges(store, v));
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    let limit = ((kg.num_triples() as f64) * cfg.max_candidate_ratio).ceil() as usize;
    if candidates.len() > limit.max(cfg.min_candidate_floor) {
        return fallback(FallbackReason::FrontierTooLarge, candidates.len());
    }

    // Branch shapes, exactly as the BGP compiler would emit them. Shadowed
    // classes already fell back above, so every target class resolves to
    // its class anchor here.
    let seqs = direction_sequences(pattern);
    let mut branches: Vec<(Cid, &[Step])> = Vec::new();
    for class in &task.target_classes {
        if let Some(cid) = kg.find_class(class) {
            for seq in &seqs {
                branches.push((cid, seq.as_slice()));
            }
        }
    }

    // The splice: one merge of two ascending lists. A candidate is in the
    // result iff its verdict says so; every other old triple stays.
    let old_sorted = sorted_unique(old_parent_triples);
    let mut old: &[Triple] = &old_sorted;
    let mut triples: Vec<Triple> = Vec::with_capacity(old.len() + candidates.len());
    for &t in &candidates {
        let before = old.partition_point(|o| *o < t);
        triples.extend_from_slice(&old[..before]);
        old = &old[before..];
        if old.first() == Some(&t) {
            old = &old[1..];
        }
        // Candidates sourced from the delta's removed ops may be absent.
        let member = store.hexastore().contains(t.s.0, t.p.0, t.o.0)
            && branches
                .iter()
                .any(|&(cid, seq)| branch_emits(store, cid, seq, t));
        if member {
            triples.push(t);
        }
    }
    triples.extend_from_slice(old);

    let sub = subgraph_from_triples_and_nodes(kg, &triples, &task.targets);
    let sampled = sub.kg.num_nodes();
    let result = ExtractionResult::new(
        format!("KG-TOSA_{}", pattern.label()),
        sub,
        &task.targets,
        guard.finish().wall_s,
        sampled,
        0,
        1.0,
    );
    Ok((
        result,
        RepairReport {
            candidates: candidates.len(),
            fallback: None,
        },
    ))
}

/// Repairs one stale cache entry against the updated graph, returning the
/// replacement payload to publish under the entry's own key together with
/// the repair's report — or `None` when the entry cannot be repaired and is
/// to be invalidated instead. This is what `kgtosa serve` hands
/// [`crate::sweep_cache_after_delta`] as its repair hook.
///
/// * `store` — the **updated** KG, as for [`repair_extraction`];
/// * `info`/`payload` — the entry as the sweep reads it, the payload
///   extracted from a parent graph of `old_parent_nodes` vertices;
/// * `added`/`removed` — the delta's resolved triples.
///
/// Only SPARQL node-classification entries are repairable: the entry's
/// original target set is recovered from the payload (NC targets always
/// survive extraction, in task order), and the `params` hash must
/// round-trip so the republished payload answers exactly the key it is
/// stored under. The old targets and parent-space triples are read
/// straight from the payload by [`ExtractionView::parse_lifting`], whose
/// one validating walk lifts the triples as it checks them; no subgraph
/// graph is built. A partial result (`completeness < 1`) is never
/// published.
#[allow(clippy::too_many_arguments)]
pub fn repair_entry(
    store: &RdfStore<'_>,
    info: &EntryInfo,
    payload: &[u8],
    old_parent_nodes: usize,
    added: &[Triple],
    removed: &[Triple],
    fetch: &FetchConfig,
    cfg: &RepairConfig,
) -> Option<(Vec<u8>, RepairReport)> {
    if info.extractor.as_deref() != Some("sparql") {
        return None;
    }
    let pattern = GraphPattern::from_label(info.pattern.as_deref()?)?;
    let class = info.task.as_deref()?.strip_prefix("nc:")?;
    let (old, old_triples) =
        ExtractionView::parse_lifting(payload, old_parent_nodes, store.kg()).ok()?;
    let targets: Vec<Vid> = old.targets().map(|t| old.map_up(t)).collect();
    let task = ExtractionTask::node_classification(class, class, targets);
    if info.params != Some(task_params(&task)) {
        return None;
    }
    let old_triples = old_triples?;
    let (res, report) =
        repair(store, &task, &pattern, &old_triples, added, removed, fetch, cfg).ok()?;
    if res.report.completeness < 1.0 {
        return None;
    }
    let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
    let bytes = encode_extraction_parts(
        &res.report.method,
        &res.subgraph,
        &res.targets,
        store.kg().num_nodes(),
        &q,
    );
    Some((bytes, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, KgDelta, MultisetFingerprint};

    fn academic_kg() -> (KnowledgeGraph, ExtractionTask) {
        let mut kg = KnowledgeGraph::new();
        for i in 0..8 {
            let p = format!("p{i}");
            kg.add_triple_terms(&p, "Paper", "publishedIn", &format!("v{}", i % 2), "Venue");
            kg.add_triple_terms(&format!("a{}", i % 3), "Author", "writes", &p, "Paper");
            if i > 0 {
                kg.add_triple_terms(&p, "Paper", "cites", &format!("p{}", i - 1), "Paper");
            }
        }
        kg.add_triple_terms("a0", "Author", "memberOf", "o0", "Org");
        let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
        let task = ExtractionTask::node_classification("PV", "Paper", targets);
        (kg, task)
    }

    fn sample_delta(kg: &KnowledgeGraph) -> KgDelta {
        let existing = kg.triples()[2];
        KgDelta {
            base_fingerprint: fingerprint(kg),
            ops: vec![
                DeltaOp::Add {
                    s: "p9".into(),
                    s_class: "Paper".into(),
                    p: "cites".into(),
                    o: "p0".into(),
                    o_class: "Paper".into(),
                },
                DeltaOp::Add {
                    s: "a9".into(),
                    s_class: "Author".into(),
                    p: "writes".into(),
                    o: "p1".into(),
                    o_class: "Paper".into(),
                },
                DeltaOp::Remove {
                    s: kg.node_term(existing.s).into(),
                    p: kg.relation_term(existing.p).into(),
                    o: kg.node_term(existing.o).into(),
                },
            ],
        }
    }

    fn assert_identical(a: &ExtractionResult, b: &ExtractionResult) {
        let mut abytes = Vec::new();
        let mut bbytes = Vec::new();
        kgtosa_kg::write_snapshot(&a.subgraph.kg, &mut abytes).unwrap();
        kgtosa_kg::write_snapshot(&b.subgraph.kg, &mut bbytes).unwrap();
        assert_eq!(abytes, bbytes, "subgraph snapshots differ");
        assert_eq!(a.subgraph.to_parent, b.subgraph.to_parent);
        assert_eq!(a.subgraph.from_parent, b.subgraph.from_parent);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.report.method, b.report.method);
    }

    #[test]
    fn repair_matches_fresh_extraction_on_all_variants() {
        let (kg, task) = academic_kg();
        let old_store = RdfStore::new(&kg);
        let delta = sample_delta(&kg);
        let app = apply_delta(&kg, fingerprint(&kg), MultisetFingerprint::of(&kg), &delta)
            .expect("delta applies");
        let new_store = RdfStore::new(&app.kg);
        let graph = HeteroGraph::build(&app.kg);
        let fetch = FetchConfig::default();
        for pattern in &GraphPattern::VARIANTS {
            let old = extract_sparql(&old_store, &task, pattern, &fetch).unwrap();
            let old_triples = parent_triples(&kg, &old.subgraph);
            let (repaired, report) = repair_extraction(
                &new_store,
                &graph,
                &task,
                pattern,
                &old_triples,
                &app.added,
                &app.removed,
                &fetch,
                &RepairConfig::default(),
            )
            .unwrap();
            assert!(report.fallback.is_none(), "{}: fell back", pattern.label());
            assert!(report.candidates > 0);
            let fresh = extract_sparql(&new_store, &task, pattern, &fetch).unwrap();
            assert_identical(&repaired, &fresh);
        }
    }

    fn add(s: &str, s_class: &str, p: &str, o: &str, o_class: &str) -> DeltaOp {
        DeltaOp::Add {
            s: s.into(),
            s_class: s_class.into(),
            p: p.into(),
            o: o.into(),
            o_class: o_class.into(),
        }
    }

    /// Repairs `kg`'s d2h2 extraction (targets: every `Paper`) after
    /// `ops` and checks it against a fresh run, which must emit `expect`.
    fn assert_d2h2_repair_emits(kg: &KnowledgeGraph, ops: Vec<DeltaOp>, expect: [&str; 3]) {
        let pattern = &GraphPattern::D2H2;
        let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
        let task = ExtractionTask::node_classification("PV", "Paper", targets);
        let delta = KgDelta { base_fingerprint: fingerprint(kg), ops };
        let app = apply_delta(kg, fingerprint(kg), MultisetFingerprint::of(kg), &delta).unwrap();
        let new_store = RdfStore::new(&app.kg);
        let graph = HeteroGraph::build(&app.kg);
        let fetch = FetchConfig::default();
        let old = extract_sparql(&RdfStore::new(kg), &task, pattern, &fetch).unwrap();
        let (repaired, report) = repair_extraction(
            &new_store,
            &graph,
            &task,
            pattern,
            &parent_triples(kg, &old.subgraph),
            &app.added,
            &app.removed,
            &fetch,
            &RepairConfig::default(),
        )
        .unwrap();
        assert!(report.fallback.is_none());
        let fresh = extract_sparql(&new_store, &task, pattern, &fetch).unwrap();
        let [s, p, o] = expect;
        let t = Triple::new(
            app.kg.find_node(s).unwrap(),
            app.kg.find_relation(p).unwrap(),
            app.kg.find_node(o).unwrap(),
        );
        assert!(
            parent_triples(&app.kg, &fresh.subgraph).contains(&t),
            "precondition: a fresh run emits {s} {p} {o}"
        );
        assert_identical(&repaired, &fresh);
    }

    #[test]
    fn two_hop_repair_follows_out_edges() {
        // The added triple's only chain to a Paper runs through an out-edge
        // prefix: `?v1 writes ?v0 . ?v1 memberOf ?o` (an `In` prefix step).
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("a0", "Author", "writes", "p0", "Paper");
        assert_d2h2_repair_emits(
            &kg,
            vec![add("a0", "Author", "memberOf", "o0", "Org")],
            ["a0", "memberOf", "o0"],
        );

        // Linking the Paper to `x` makes `x`'s existing out-edge a second
        // hop, so it must be enumerated as a candidate from the endpoint.
        let mut kg = KnowledgeGraph::new();
        kg.add_node("p0", "Paper");
        kg.add_triple_terms("x", "Thing", "r", "y", "Thing");
        assert_d2h2_repair_emits(
            &kg,
            vec![add("p0", "Paper", "cites", "x", "Thing")],
            ["x", "r", "y"],
        );
    }

    #[test]
    fn two_hop_repair_follows_in_edges() {
        // Linking the Paper to `x` makes an existing edge *into* `x` a
        // second hop (`?v0 cites ?v1 . ?v2 r ?v1`), so the endpoint's
        // in-edges (one OSP range) must be enumerated as candidates too.
        let mut kg = KnowledgeGraph::new();
        kg.add_node("p0", "Paper");
        kg.add_triple_terms("y", "Thing", "r", "x", "Thing");
        assert_d2h2_repair_emits(
            &kg,
            vec![add("p0", "Paper", "cites", "x", "Thing")],
            ["y", "r", "x"],
        );
    }

    #[test]
    fn repair_handles_class_shadowed_by_vertex() {
        // A vertex literally named "Paper" makes the anchor resolve to the
        // vertex, so fresh extraction returns nothing for the class — repair
        // must fall back to the full extractor and agree.
        let mut kg = KnowledgeGraph::new();
        kg.add_triple_terms("Paper", "Thing", "rel", "x", "Thing");
        kg.add_triple_terms("p1", "Paper", "cites", "p2", "Paper");
        let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
        let task = ExtractionTask::node_classification("PV", "Paper", targets);
        let delta = KgDelta {
            base_fingerprint: fingerprint(&kg),
            ops: vec![DeltaOp::Add {
                s: "p3".into(),
                s_class: "Paper".into(),
                p: "cites".into(),
                o: "p1".into(),
                o_class: "Paper".into(),
            }],
        };
        let app = apply_delta(&kg, fingerprint(&kg), MultisetFingerprint::of(&kg), &delta)
            .unwrap();
        let new_store = RdfStore::new(&app.kg);
        let graph = HeteroGraph::build(&app.kg);
        let fetch = FetchConfig::default();
        let old_store = RdfStore::new(&kg);
        for pattern in &GraphPattern::VARIANTS {
            let old = extract_sparql(&old_store, &task, pattern, &fetch).unwrap();
            let old_triples = parent_triples(&kg, &old.subgraph);
            let (repaired, report) = repair_extraction(
                &new_store,
                &graph,
                &task,
                pattern,
                &old_triples,
                &app.added,
                &app.removed,
                &fetch,
                &RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(report.fallback, Some(FallbackReason::ClassShadowed));
            let fresh = extract_sparql(&new_store, &task, pattern, &fetch).unwrap();
            assert_identical(&repaired, &fresh);
        }
    }

    #[test]
    fn delta_interned_vertex_shadowing_class_invalidates_old_extraction() {
        // The regression from the review: the *delta itself* interns a
        // vertex named after the target class. The old extraction is
        // non-empty, but a fresh run on the updated KG is empty (the
        // anchor now binds to the vertex). A splice that only re-evaluates
        // delta candidates would keep the old triples — repair must fall
        // back and return the (empty) fresh result bit-identically.
        let (kg, task) = academic_kg();
        let delta = KgDelta {
            base_fingerprint: fingerprint(&kg),
            ops: vec![DeltaOp::Add {
                s: "Paper".into(),
                s_class: "Thing".into(),
                p: "rel".into(),
                o: "x".into(),
                o_class: "Thing".into(),
            }],
        };
        let app = apply_delta(&kg, fingerprint(&kg), MultisetFingerprint::of(&kg), &delta)
            .unwrap();
        let new_store = RdfStore::new(&app.kg);
        let graph = HeteroGraph::build(&app.kg);
        let fetch = FetchConfig::default();
        let old_store = RdfStore::new(&kg);
        for pattern in &GraphPattern::VARIANTS {
            let old = extract_sparql(&old_store, &task, pattern, &fetch).unwrap();
            assert!(
                old.subgraph.kg.num_triples() > 0,
                "{}: precondition — the old extraction must be non-empty",
                pattern.label()
            );
            let old_triples = parent_triples(&kg, &old.subgraph);
            let (repaired, report) = repair_extraction(
                &new_store,
                &graph,
                &task,
                pattern,
                &old_triples,
                &app.added,
                &app.removed,
                &fetch,
                &RepairConfig::default(),
            )
            .unwrap();
            assert_eq!(report.fallback, Some(FallbackReason::ClassShadowed));
            let fresh = extract_sparql(&new_store, &task, pattern, &fetch).unwrap();
            assert_identical(&repaired, &fresh);
        }
    }

    #[test]
    fn oversized_frontier_falls_back_to_full_extraction() {
        let (kg, task) = academic_kg();
        let delta = sample_delta(&kg);
        let app = apply_delta(&kg, fingerprint(&kg), MultisetFingerprint::of(&kg), &delta)
            .unwrap();
        let new_store = RdfStore::new(&app.kg);
        let graph = HeteroGraph::build(&app.kg);
        let cfg = RepairConfig {
            max_candidate_ratio: 0.0,
            min_candidate_floor: 0,
        };
        let (result, report) = repair_extraction(
            &new_store,
            &graph,
            &task,
            &GraphPattern::D1H1,
            &[],
            &app.added,
            &app.removed,
            &FetchConfig::default(),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.fallback, Some(FallbackReason::FrontierTooLarge));
        let fresh = extract_sparql(&new_store, &task, &GraphPattern::D1H1, &FetchConfig::default())
            .unwrap();
        assert_identical(&result, &fresh);
    }

    #[test]
    fn link_prediction_always_falls_back() {
        let (kg, _) = academic_kg();
        let task = ExtractionTask::link_prediction(
            "AP",
            vec!["Author".into(), "Paper".into()],
            kg.nodes_of_class(kg.find_class("Author").unwrap()),
            "writes",
        );
        let store = RdfStore::new(&kg);
        let graph = HeteroGraph::build(&kg);
        let (_, report) = repair_extraction(
            &store,
            &graph,
            &task,
            &GraphPattern::D1H1,
            &[],
            &[],
            &[],
            &FetchConfig::default(),
            &RepairConfig::default(),
        )
        .unwrap();
        assert_eq!(report.fallback, Some(FallbackReason::LinkPrediction));
    }
}
