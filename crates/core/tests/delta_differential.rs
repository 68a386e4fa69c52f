//! The differential harness for `kgtosa-delta`: random KGs, random delta
//! streams, random patterns — and three bit-identity obligations checked
//! on every round of every stream:
//!
//! 1. **Incremental apply ≡ rebuild.** The multiset fingerprint maintained
//!    by [`apply_delta`] matches a from-scratch recomputation, and a KG
//!    round-tripped through the snapshot codec then patched with the same
//!    delta lands on the same canonical fingerprint as the live graph.
//! 2. **Repair ≡ fresh.** [`repair_extraction`] splicing the delta into a
//!    pre-delta TOSG, and [`repair_entry`] repairing the pre-delta cache
//!    payload the way the daemon does, both produce byte-for-byte the
//!    artifact payload (method, targets, parent mapping, quality, snapshot)
//!    of [`extract_sparql`] re-run from scratch on the patched KG — at 1, 4,
//!    and 8 worker threads.
//! 3. **The oracle never lies fresh.** Any (pattern, class) entry the
//!    [`StalenessOracle`] declares untouched, migrated with
//!    [`migrate_payload`], is byte-for-byte the payload a fresh extraction
//!    on the new KG publishes — migrating its cache entry is sound. The
//!    oracle a server builds from its maintained [`ClassPairCounts`]
//!    answers every entry exactly as one built by walking the KG, and the
//!    counts equal a recount.

use std::io::Cursor;

use proptest::prelude::*;

use kgtosa_cache::{EntryInfo, FORMAT_VERSION};
use kgtosa_core::{
    encode_extraction, extract_sparql, migrate_payload, parent_triples, repair_entry,
    repair_extraction, task_label, task_params, ClassPairCounts, ExtractionResult,
    ExtractionTask, GraphPattern, RepairConfig, StalenessOracle,
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
/// there is one); other kinds add an absent triple, with endpoints drawn
/// from the existing nodes plus a growing pool of brand-new `x{i}`
/// vertices.
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
        // The KG is a set: an add of a live triple would reject the delta.
        let triple = (s.clone(), p.clone(), o.clone());
        if live.contains(&triple) {
            continue;
        }
        live.push(triple);
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

/// The artifact payload a cache publishes for `res`, extracted from a
/// parent graph of `parent_nodes` vertices: everything two extractions
/// must agree on to count as bit-identical.
fn payload(res: &ExtractionResult, parent_nodes: usize) -> Vec<u8> {
    encode_extraction(res, parent_nodes, &kgtosa_kg::quality(&res.subgraph.kg, &res.targets))
}

/// The header the cache lists for `task`'s SPARQL entry under `pattern`.
fn entry_info(task: &ExtractionTask, pattern: &GraphPattern) -> EntryInfo {
    EntryInfo {
        file_name: String::new(),
        bytes: 0,
        kg_fingerprint: None,
        params: Some(task_params(task)),
        pattern: Some(pattern.label()),
        task: Some(task_label(task)),
        extractor: Some("sparql".into()),
        version: Some(FORMAT_VERSION),
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
        let mut class_pairs = ClassPairCounts::of(&kg);
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
            let old_payload = payload(&old_res, kg.num_nodes());
            // Pre-delta payloads for every (pattern, class) the oracle will
            // be asked about below.
            let mut old_payloads = Vec::new();
            for p in &GraphPattern::VARIANTS {
                for class in CLASSES {
                    let t = nc_task(&kg, class);
                    let res = extract_sparql(&old_store, &t, p, &fetch).expect("old extraction");
                    old_payloads.push((*p, class, payload(&res, kg.num_nodes())));
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
            let (old_nodes, new_nodes) = (kg.num_nodes(), app.kg.num_nodes());
            for &threads in &[1usize, 4, 8] {
                let (repaired, from_entry, fresh) = kgtosa_par::with_threads(threads, || {
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
                    let (from_entry, _) = repair_entry(
                        &new_store,
                        &entry_info(&task, &pattern),
                        &old_payload,
                        old_nodes,
                        &app.added,
                        &app.removed,
                        &fetch,
                        &RepairConfig::default(),
                    )
                    .expect("an NC SPARQL entry is repairable");
                    let fresh_res =
                        extract_sparql(&new_store, &task, &pattern, &fetch).expect("fresh extraction");
                    (payload(&rep, new_nodes), from_entry, payload(&fresh_res, new_nodes))
                });
                prop_assert!(repaired == fresh, "repair diverged at {} threads", threads);
                prop_assert!(from_entry == fresh, "entry repair diverged at {} threads", threads);
            }

            // (3) entries the oracle leaves fresh really are unchanged: the
            // migrated payload is the one a fresh extraction publishes.
            let oracle = StalenessOracle::new(&app.kg, &app.added, &app.removed, &app.new_nodes);
            // The oracle the daemon builds, from counts moved by the delta.
            class_pairs.apply(&app.kg, &app.added, &app.removed);
            prop_assert_eq!(&class_pairs, &ClassPairCounts::of(&app.kg));
            let counted = StalenessOracle::from_class_pairs(
                &app.kg,
                &class_pairs,
                &app.added,
                &app.removed,
                &app.new_nodes,
            );
            let labels: Vec<String> = GraphPattern::VARIANTS.iter().map(|p| p.label()).collect();
            for pattern in labels.iter().map(String::as_str).chain(["d9h9", ""]) {
                for task in ["nc:A", "nc:B", "nc:C", "nc:Z", "lp:r0:A+B", ""] {
                    prop_assert_eq!(
                        counted.entry_is_stale(pattern, task),
                        oracle.entry_is_stale(pattern, task),
                        "{} / {}", pattern, task
                    );
                }
            }
            for (p, class, old_payload) in old_payloads {
                if oracle.entry_is_stale(&p.label(), &format!("nc:{class}")) {
                    continue;
                }
                let t = nc_task(&kg, class);
                let new_res = extract_sparql(&new_store, &t, &p, &fetch).expect("new extraction");
                let migrated = migrate_payload(&old_payload, old_nodes, new_nodes).expect("own payload");
                prop_assert!(
                    migrated == payload(&new_res, new_nodes),
                    "oracle kept {}/nc:{} fresh but the extraction changed", p.label(), class
                );
            }

            twin = twin_app.kg;
            multiset = app.multiset;
            kg = app.kg;
        }
    }
}
