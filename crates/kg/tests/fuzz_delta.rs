//! Delta apply is all-or-nothing: random op streams either patch the
//! graph completely, with an incrementally maintained multiset
//! fingerprint equal to a full recomputation, or are rejected with the
//! base graph byte-identical.

use proptest::prelude::*;

use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, KgDelta, KnowledgeGraph, MultisetFingerprint};

/// A small random KG: up to 12 nodes across 3 classes, 4 relations.
fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    (
        1usize..12,
        proptest::collection::vec((0usize..12, 0usize..4, 0usize..12), 0..60),
    )
        .prop_map(|(n, triples)| {
            let mut kg = KnowledgeGraph::new();
            for i in 0..n {
                kg.add_node(&format!("n{i}"), ["A", "B", "C"][i % 3]);
            }
            for (s, p, o) in triples {
                if s < n && o < n {
                    kg.add_triple_terms(
                        &format!("n{s}"),
                        ["A", "B", "C"][s % 3],
                        ["r0", "r1", "r2", "r3"][p],
                        &format!("n{o}"),
                        ["A", "B", "C"][o % 3],
                    );
                }
            }
            kg
        })
}

/// A random op: adds over a small term universe plus removes that may or
/// may not resolve against the graph (apply must reject the bad ones).
fn arb_op() -> impl Strategy<Value = DeltaOp> {
    (0usize..2, 0usize..16, 0usize..4, 0usize..16).prop_map(|(kind, s, p, o)| {
        if kind == 0 {
            DeltaOp::Add {
                s: format!("n{s}"),
                s_class: ["A", "B", "C"][s % 3].into(),
                p: ["r0", "r1", "r2", "r3"][p].into(),
                o: format!("n{o}"),
                o_class: ["A", "B", "C"][o % 3].into(),
            }
        } else {
            DeltaOp::Remove {
                s: format!("n{s}"),
                p: ["r0", "r1", "r2", "r3"][p].into(),
                o: format!("n{o}"),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Apply is all-or-nothing: random op streams either produce a patched
    /// graph whose incrementally maintained multiset fingerprint matches a
    /// full recomputation, or they are rejected with the base graph
    /// untouched. There is no partial-application state.
    #[test]
    fn apply_never_partial(kg in arb_kg(), ops in proptest::collection::vec(arb_op(), 0..20)) {
        let fp = fingerprint(&kg);
        let ms = MultisetFingerprint::of(&kg);
        let delta = KgDelta { base_fingerprint: fp, ops };
        match apply_delta(&kg, fp, ms, &delta) {
            Ok(app) => {
                prop_assert_eq!(app.multiset, MultisetFingerprint::of(&app.kg));
            }
            Err(_) => {
                prop_assert_eq!(fingerprint(&kg), fp, "rejected delta must not mutate");
            }
        }
    }
}
