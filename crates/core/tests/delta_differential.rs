//! The differential harness for `kgtosa-delta`: random KGs, random delta
//! streams, random patterns — and three bit-identity obligations checked
//! on every round of every stream:
//!
//! 1. **Incremental apply ≡ rebuild.** The multiset fingerprint maintained
//!    by [`apply_delta`] matches a from-scratch recomputation, and a KG
//!    round-tripped through the snapshot codec then patched with the same
//!    delta lands on the same canonical fingerprint as the live graph.
//! 2. **Repair ≡ fresh.** [`repair_extraction`] splicing the delta into a
//!    pre-delta TOSG produces byte-for-byte the subgraph snapshot, parent
//!    mappings, targets, and quality of [`extract_sparql`] re-run from
//!    scratch on the patched KG — at 1, 4, and 8 worker threads.
//! 3. **The oracle never lies fresh.** Any (pattern, class) entry the
//!    [`StalenessOracle`] declares untouched extracts bit-identically on
//!    the old and new KGs — migrating its cache entry is sound.

use std::io::Cursor;

use proptest::prelude::*;

use kgtosa_core::{
    extract_sparql, parent_triples, repair_extraction, ExtractionResult, ExtractionTask,
    GraphPattern, RepairConfig, StalenessOracle,
};
use kgtosa_kg::{
    apply_delta, fingerprint, read_snapshot, write_snapshot, DeltaOp, HeteroGraph, KgDelta,
    KnowledgeGraph, MultisetFingerprint,
};
use kgtosa_rdf::{FetchConfig, RdfStore};

const CLASSES: [&str; 3] = ["A", "B", "C"];
const RELATIONS: [&str; 4] = ["r0", "r1", "r2", "r3"];

/// A small random KG in the `fuzz_delta` mold: every node `n{i}` carries
/// class `A`/`B`/`C` by index, so class `A` is never empty.
fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    (
        1usize..10,
        proptest::collection::vec((0usize..10, 0usize..4, 0usize..10), 0..40),
    )
        .prop_map(|(n, triples)| {
            let mut kg = KnowledgeGraph::new();
            for i in 0..n {
                kg.add_node(&format!("n{i}"), CLASSES[i % 3]);
            }
            for (s, p, o) in triples {
                if s < n && o < n {
                    kg.add_triple_terms(
                        &format!("n{s}"),
                        CLASSES[s % 3],
                        RELATIONS[p],
                        &format!("n{o}"),
                        CLASSES[o % 3],
                    );
                }
            }
            kg
        })
}

/// An abstract op spec, resolved against whatever the KG looks like when
/// its round executes — so removes always name a live triple and the
/// whole delta is guaranteed to apply (rejection paths are `fuzz_delta`'s
/// job; the differential wants applied streams).
type OpSpec = (u8, usize, usize, usize);

/// A stream: 1–3 rounds of 1–5 ops each.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..4, 0usize..64, 0usize..64, 0usize..64), 1..5),
        1..3,
    )
}

/// Resolves one round of specs. Kind 0 removes an existing triple (when
/// there is one); other kinds add, with endpoints drawn from the existing
/// nodes plus a growing pool of brand-new `x{i}` vertices.
fn resolve_ops(kg: &KnowledgeGraph, specs: &[OpSpec], fresh: &mut usize) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    // Ops apply sequentially, so removes must draw from the triples still
    // alive *after* the earlier ops of the same round.
    let mut live: Vec<(String, String, String)> = kg
        .triples()
        .iter()
        .map(|t| {
            (
                kg.node_term(t.s).into(),
                kg.relation_term(t.p).into(),
                kg.node_term(t.o).into(),
            )
        })
        .collect();
    for &(kind, a, b, c) in specs {
        if kind == 0 && !live.is_empty() {
            let (s, p, o) = live.swap_remove(a % live.len());
            ops.push(DeltaOp::Remove {
                s: s.clone(),
                p: p.clone(),
                o: o.clone(),
            });
            continue;
        }
        let mut endpoint = |pick: usize| {
            // One slot past the existing nodes mints a new vertex.
            let n = kg.num_nodes();
            if pick % (n + 1) < n {
                let v = kgtosa_kg::Vid((pick % n) as u32);
                (
                    kg.node_term(v).to_string(),
                    kg.class_term(kg.class_of(v)).to_string(),
                )
            } else if pick.is_multiple_of(2) {
                // Sometimes the new vertex's *term* is a class name: the
                // store resolves query constants vertex-first, so this
                // shadows the class's anchor mid-stream and repair must
                // notice (fall back) rather than splice stale triples.
                // Biased toward "A" — the class obligation (2) repairs —
                // so streams regularly shadow an extraction that was
                // non-empty the round before. The term→class mapping is
                // fixed so a re-mint of the same shadow term in a later
                // round stays class-consistent.
                let j = [0, 0, 1, 2][(pick / (n + 1)) % 4];
                (CLASSES[j].to_string(), CLASSES[(j + 1) % 3].to_string())
            } else {
                *fresh += 1;
                (format!("x{fresh}"), CLASSES[pick % 3].to_string())
            }
        };
        let (s, s_class) = endpoint(a);
        let (o, o_class) = endpoint(c);
        let p = RELATIONS[b % 4].to_string();
        live.push((s.clone(), p.clone(), o.clone()));
        ops.push(DeltaOp::Add {
            s,
            s_class,
            p,
            o,
            o_class,
        });
    }
    ops
}

fn snapshot_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(kg, &mut buf).expect("in-memory snapshot write");
    buf
}

/// Everything two extractions must agree on to count as bit-identical.
#[derive(Debug, PartialEq)]
struct Witness {
    snapshot: Vec<u8>,
    to_parent: Vec<kgtosa_kg::Vid>,
    from_parent: Vec<Option<kgtosa_kg::Vid>>,
    targets: Vec<kgtosa_kg::Vid>,
    method: String,
    quality: String,
}

fn witness(res: &ExtractionResult) -> Witness {
    Witness {
        snapshot: snapshot_bytes(&res.subgraph.kg),
        to_parent: res.subgraph.to_parent.clone(),
        from_parent: res.subgraph.from_parent.clone(),
        targets: res.targets.clone(),
        method: res.report.method.clone(),
        quality: format!("{:?}", kgtosa_kg::quality(&res.subgraph.kg, &res.targets)),
    }
}

fn nc_task(kg: &KnowledgeGraph, class: &str) -> ExtractionTask {
    let targets = kg
        .find_class(class)
        .map(|c| kg.nodes_of_class(c))
        .unwrap_or_default();
    ExtractionTask::node_classification(class, class, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: one random stream, every obligation.
    #[test]
    fn update_stream_is_bit_identical_to_rebuild(
        base in arb_kg(),
        stream in arb_stream(),
        pattern_pick in 0usize..4,
    ) {
        let pattern = GraphPattern::VARIANTS[pattern_pick];
        let fetch = FetchConfig::default();
        // The snapshot-rebuilt twin shadows the live graph through the
        // whole stream.
        let mut twin = read_snapshot(Cursor::new(snapshot_bytes(&base))).expect("own snapshot reads");
        let mut kg = base;
        let mut multiset = MultisetFingerprint::of(&kg);
        let mut fresh = 0usize;

        for specs in &stream {
            let ops = resolve_ops(&kg, specs, &mut fresh);
            let fp = fingerprint(&kg);
            let delta = KgDelta { base_fingerprint: fp, ops: ops.clone() };

            // The entry a server would have cached just before this delta:
            // the class-A task extracted against the pre-delta graph.
            let task = nc_task(&kg, "A");
            let old_store = RdfStore::new(&kg);
            let old_res = extract_sparql(&old_store, &task, &pattern, &fetch).expect("old extraction");
            // Pre-delta extractions for every (pattern, class) the oracle
            // will be asked about below.
            let mut old_witnesses = Vec::new();
            for p in &GraphPattern::VARIANTS {
                for class in CLASSES {
                    let t = nc_task(&kg, class);
                    let res = extract_sparql(&old_store, &t, p, &fetch).expect("old extraction");
                    old_witnesses.push((p.label(), class, witness(&res)));
                }
            }

            let app = apply_delta(&kg, fp, multiset, &delta).expect("resolved delta applies");

            // (1) incremental apply ≡ rebuild.
            prop_assert_eq!(&app.multiset, &MultisetFingerprint::of(&app.kg));
            let twin_fp = fingerprint(&twin);
            let twin_app = apply_delta(
                &twin,
                twin_fp,
                MultisetFingerprint::of(&twin),
                &KgDelta { base_fingerprint: twin_fp, ops },
            )
            .expect("twin delta applies");
            prop_assert_eq!(fingerprint(&twin_app.kg), fingerprint(&app.kg));
            prop_assert_eq!(snapshot_bytes(&twin_app.kg), snapshot_bytes(&app.kg));

            // (2) repair ≡ fresh, across worker-thread counts.
            let new_store = RdfStore::new(&app.kg);
            let graph = HeteroGraph::build(&app.kg);
            let old_triples = parent_triples(&app.kg, &old_res.subgraph);
            for &threads in &[1usize, 4, 8] {
                let (repaired, fresh_w) = kgtosa_par::with_threads(threads, || {
                    let (rep, _) = repair_extraction(
                        &new_store,
                        &graph,
                        &task,
                        &pattern,
                        &old_triples,
                        &app.added,
                        &app.removed,
                        &fetch,
                        &RepairConfig::default(),
                    )
                    .expect("repair");
                    let fresh_res =
                        extract_sparql(&new_store, &task, &pattern, &fetch).expect("fresh extraction");
                    (witness(&rep), witness(&fresh_res))
                });
                prop_assert_eq!(&repaired, &fresh_w, "repair diverged at {} threads", threads);
            }

            // (3) entries the oracle leaves fresh really are unchanged.
            // `from_parent` is parent-sized, so a delta that merely grows
            // the KG appends `None`s — the decode path rebuilds it from
            // the live node count, so only the old prefix must match.
            let oracle = StalenessOracle::new(&app.kg, &app.added, &app.removed, &app.new_nodes);
            for (label, class, old_w) in old_witnesses {
                if oracle.entry_is_stale(&label, &format!("nc:{class}")) {
                    continue;
                }
                let t = nc_task(&kg, class);
                let new_res = extract_sparql(&new_store, &t, GraphPattern::VARIANTS
                    .iter()
                    .find(|p| p.label() == label)
                    .unwrap(), &fetch)
                    .expect("new extraction");
                let new_w = witness(&new_res);
                let old_len = old_w.from_parent.len();
                prop_assert!(
                    new_w.snapshot == old_w.snapshot
                        && new_w.to_parent == old_w.to_parent
                        && new_w.from_parent[..old_len] == old_w.from_parent[..]
                        && new_w.from_parent[old_len..].iter().all(Option::is_none)
                        && new_w.targets == old_w.targets
                        && new_w.method == old_w.method
                        && new_w.quality == old_w.quality,
                    "oracle kept {}/nc:{} fresh but the extraction changed", label, class
                );
            }

            twin = twin_app.kg;
            multiset = app.multiset;
            kg = app.kg;
        }
    }
}
