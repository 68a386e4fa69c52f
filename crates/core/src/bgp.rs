//! The BGP compiler: turns a [`GraphPattern`] + task into SPARQL.
//!
//! §IV-C of the paper formalizes the generic graph pattern as a basic graph
//! pattern with one `UNION` branch per (direction-sequence, hop) expansion.
//! Because repeating a big `UNION` query once per page is wasteful
//! (duplicate elimination on every page), Algorithm 3 *paginates each
//! subquery independently* — so this module exposes both forms:
//!
//! * [`compile_subqueries`] — one `SELECT DISTINCT ?s ?p ?o` query per
//!   branch, the form the paginated parallel fetcher consumes. `DISTINCT`
//!   makes a 2-hop branch return each triple once rather than once per
//!   path reaching it, and lets the engine project the middle of the path
//!   away early; the fetcher still sorts and dedups what it merges, as it
//!   must for any endpoint,
//! * [`compile_union`] — the single `UNION` query (`Q^{d2h1}` in the
//!   paper), used for counting and for documentation/tests.

use kgtosa_rdf::{Element, Group, Query, Selection, Term, TriplePattern};

use crate::pattern::{Direction, ExtractionTask, GraphPattern};

fn var(name: impl Into<String>) -> Term {
    Term::Var(name.into())
}

fn constant(name: &str) -> Term {
    Term::Const(name.to_string())
}

/// One directed step of the expansion. Crate-visible so the incremental
/// repair path (`crate::repair`) and the staleness oracle (`crate::delta`)
/// can walk the exact branch shapes the compiler emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Out,
    In,
}

/// Enumerates the direction sequences for every hop level `1..=h`.
/// `d1`: only all-outgoing sequences; `d2`: every `{out,in}^L` combination.
pub(crate) fn direction_sequences(pattern: &GraphPattern) -> Vec<Vec<Step>> {
    let mut sequences = Vec::new();
    for level in 1..=pattern.hops.max(1) {
        match pattern.direction {
            Direction::Outgoing => sequences.push(vec![Step::Out; level]),
            Direction::Both => {
                // All 2^level combinations, in a stable order.
                for bits in 0..(1u32 << level) {
                    let seq: Vec<Step> = (0..level)
                        .map(|i| {
                            if bits & (1 << i) == 0 {
                                Step::Out
                            } else {
                                Step::In
                            }
                        })
                        .collect();
                    sequences.push(seq);
                }
            }
        }
    }
    sequences
}

/// Builds the triple patterns of one branch: anchor `?v0 a <class>`, then a
/// chain of `L` hops; the *last* hop's triple is bound to `(?s, ?p, ?o)` so
/// the fetcher can extract it uniformly.
fn branch_patterns(class: &str, seq: &[Step]) -> Vec<TriplePattern> {
    let mut patterns = vec![TriplePattern::new(
        var("v0"),
        constant(kgtosa_rdf::RDF_TYPE),
        constant(class),
    )];
    for (i, step) in seq.iter().enumerate() {
        let from = format!("v{i}");
        let last = i + 1 == seq.len();
        let to = if last {
            // Bind the final endpoint through the extraction variables.
            String::new()
        } else {
            format!("v{}", i + 1)
        };
        let (s, p, o) = match (step, last) {
            (Step::Out, false) => (var(from), var(format!("p{i}")), var(to)),
            (Step::In, false) => (var(to), var(format!("p{i}")), var(from)),
            (Step::Out, true) => (var(from), var("p"), var("o_end")),
            (Step::In, true) => (var("s_end"), var("p"), var(from)),
        };
        patterns.push(TriplePattern::new(s, p, o));
    }
    patterns
}

/// The extraction triple variables of a branch ending with `seq`'s last
/// step. Outgoing final hop: `(v_{L-1}, p, o_end)`; incoming: the subject
/// is the new vertex.
fn branch_triple_vars(seq: &[Step]) -> (String, String, String) {
    // `direction_sequences` never yields an empty sequence; treating one
    // as a final outgoing hop from the anchor keeps this function total
    // instead of panicking on a malformed caller.
    let (last, init) = seq.split_last().unwrap_or((&Step::Out, &[]));
    let from = format!("v{}", init.len());
    match last {
        Step::Out => (from, "p".to_string(), "o_end".to_string()),
        Step::In => ("s_end".to_string(), "p".to_string(), from),
    }
}

/// A compiled subquery plus the variable names binding the extracted triple.
#[derive(Debug, Clone)]
pub struct Subquery {
    /// The SELECT query projecting the triple variables.
    pub query: Query,
    /// `(subject, predicate, object)` variable names.
    pub triple_vars: (String, String, String),
}

/// Compiles the per-branch subqueries for a task under a pattern.
///
/// For every target class: one subquery per direction sequence. For LP
/// tasks, one extra subquery per class pair collects the `p_T` connecting
/// triples (`⟨?v_Ti, p_T, ?v_Tj⟩`, §IV-C).
pub fn compile_subqueries(task: &ExtractionTask, pattern: &GraphPattern) -> Vec<Subquery> {
    let mut out = Vec::new();
    for class in &task.target_classes {
        for seq in direction_sequences(pattern) {
            let patterns = branch_patterns(class, &seq);
            let (s, p, o) = branch_triple_vars(&seq);
            let query = Query {
                select: Selection::Vars(vec![s.clone(), p.clone(), o.clone()]),
                distinct: true,
                group: Group::of_patterns(patterns),
                limit: None,
                offset: None,
            };
            out.push(Subquery {
                query,
                triple_vars: (s, p, o),
            });
        }
    }
    if let Some(pt) = &task.lp_predicate {
        // The connecting pattern between the target subgraphs: fetch every
        // ⟨s, p_T, o⟩ edge. `?p` is joined onto the same pair so the fetcher
        // sees a uniform (s, p, o) projection.
        let patterns = vec![
            TriplePattern::new(var("s"), constant(pt), var("o")),
            TriplePattern::new(var("s"), var("p"), var("o")),
        ];
        out.push(Subquery {
            query: Query {
                select: Selection::Vars(vec!["s".into(), "p".into(), "o".into()]),
                distinct: true,
                group: Group::of_patterns(patterns),
                limit: None,
                offset: None,
            },
            triple_vars: ("s".into(), "p".into(), "o".into()),
        });
    }
    out
}

/// Compiles the single `UNION` form (e.g. `Q^{d2h1}` in §IV-C): the
/// disjunction of every branch, projected on `*`.
pub fn compile_union(task: &ExtractionTask, pattern: &GraphPattern) -> Query {
    let branches: Vec<Group> = compile_subqueries(task, pattern)
        .into_iter()
        .map(|sq| sq.query.group)
        .collect();
    Query {
        select: Selection::All,
        distinct: false,
        group: Group {
            elements: vec![Element::Union(branches)],
        },
        limit: None,
        offset: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nc_task() -> ExtractionTask {
        ExtractionTask::node_classification("PV", "Paper", vec![])
    }

    #[test]
    fn d1h1_single_branch() {
        let subs = compile_subqueries(&nc_task(), &GraphPattern::D1H1);
        assert_eq!(subs.len(), 1);
        let q = subs[0].query.to_string();
        assert!(q.contains("?v0 <rdf:type> <Paper>"), "{q}");
        assert!(q.contains("?v0 ?p ?o_end"), "{q}");
        assert_eq!(subs[0].triple_vars, ("v0".into(), "p".into(), "o_end".into()));
    }

    #[test]
    fn d2h1_two_branches() {
        let subs = compile_subqueries(&nc_task(), &GraphPattern::D2H1);
        assert_eq!(subs.len(), 2);
        let q1 = subs[1].query.to_string();
        assert!(q1.contains("?s_end ?p ?v0"), "incoming branch: {q1}");
    }

    #[test]
    fn hop_counts() {
        // d1h2: out, out-out → 2 branches.
        assert_eq!(compile_subqueries(&nc_task(), &GraphPattern::D1H2).len(), 2);
        // d2h2: 2 + 4 = 6 branches.
        assert_eq!(compile_subqueries(&nc_task(), &GraphPattern::D2H2).len(), 6);
    }

    #[test]
    fn two_hop_chain_shape() {
        let subs = compile_subqueries(&nc_task(), &GraphPattern::D1H2);
        let q = subs[1].query.to_string();
        assert!(q.contains("?v0 ?p0 ?v1"), "{q}");
        assert!(q.contains("?v1 ?p ?o_end"), "{q}");
    }

    #[test]
    fn lp_task_adds_predicate_branch() {
        let task = ExtractionTask::link_prediction(
            "AA",
            vec!["Author".into(), "Org".into()],
            vec![],
            "affiliatedWith",
        );
        let subs = compile_subqueries(&task, &GraphPattern::D2H1);
        // 2 classes × 2 directions + 1 predicate branch.
        assert_eq!(subs.len(), 5);
        let last = subs.last().unwrap().query.to_string();
        assert!(last.contains("<affiliatedWith>"), "{last}");
    }

    #[test]
    fn union_query_parses_back() {
        let q = compile_union(&nc_task(), &GraphPattern::D2H1);
        let text = q.to_string();
        let reparsed = kgtosa_rdf::parse(&text).unwrap();
        assert_eq!(q, reparsed);
    }
}
