//! The three TOSG extraction methods (§IV): biased random walk (BRW),
//! influence-based sampling (IBS) and the SPARQL-based method, plus the
//! uniform-random-walk (URW) reference used throughout the paper's
//! comparisons (Figure 2, Table III).
//!
//! All methods end in the same place: a compacted subgraph `KG'` plus the
//! target vertices remapped into it, with wall-clock and volume accounting
//! for the cost breakdowns of Figures 6-8 and Table IV. Each extractor
//! runs under an `extract.<method>` span, and every completed extraction
//! bumps the `extract.sampled_nodes` / `extract.triples` counters.

use kgtosa_kg::{
    induced_subgraph, map_targets, merge_sorted, subgraph_from_triples_and_nodes, HeteroGraph,
    InducedSubgraph, KnowledgeGraph, Vid,
};
use kgtosa_rdf::{fetch_triples_robust, FetchConfig, InProcessEndpoint, RdfError, RdfStore};
use kgtosa_sampler::{biased_random_walk, ibs_sample, uniform_random_walk, IbsConfig, WalkConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bgp::compile_subqueries;
use crate::pattern::{ExtractionTask, GraphPattern};

/// Accounting attached to every extraction.
#[derive(Debug, Clone)]
pub struct ExtractionReport {
    /// Method label (`URW`, `BRW`, `IBS`, `KG-TOSA_d1h1`, ...).
    pub method: String,
    /// Wall-clock extraction time in seconds.
    pub seconds: f64,
    /// Vertices sampled before subgraph construction (`|V_s|`), when the
    /// method is vertex-driven; node count of `KG'` otherwise.
    pub sampled_nodes: usize,
    /// Triples in `KG'`.
    pub triples: usize,
    /// Endpoint requests issued (SPARQL method only).
    pub requests: usize,
    /// Fraction of planned fetch pages actually retrieved, in `[0, 1]`.
    /// `1.0` for the in-memory methods and for complete SPARQL fetches;
    /// below `1.0` only when [`kgtosa_rdf::FetchMode::Partial`] degraded
    /// the extraction past endpoint failures.
    pub completeness: f64,
    /// Whether this result was loaded from the artifact cache instead of
    /// being extracted (in which case `seconds` is the load time and
    /// `requests` is zero).
    pub cached: bool,
}

/// A completed extraction: the compacted subgraph, the targets that
/// survived (in subgraph ids), and the report.
#[derive(Debug)]
pub struct ExtractionResult {
    /// The compacted task-oriented subgraph (`KG'`).
    pub subgraph: InducedSubgraph,
    /// Task targets remapped into `KG'` ids.
    pub targets: Vec<Vid>,
    /// Cost/volume accounting.
    pub report: ExtractionReport,
}

impl ExtractionResult {
    /// Crate-visible so the incremental repair path (`crate::repair`) can
    /// produce results through the exact same accounting/quality funnel as
    /// the extractors.
    pub(crate) fn new(
        method: String,
        subgraph: InducedSubgraph,
        parent_targets: &[Vid],
        seconds: f64,
        sampled_nodes: usize,
        requests: usize,
        completeness: f64,
    ) -> Self {
        let targets = map_targets(&subgraph, parent_targets);
        let triples = subgraph.kg.num_triples();
        kgtosa_obs::counter("extract.sampled_nodes").add(sampled_nodes as u64);
        kgtosa_obs::counter("extract.triples").add(triples as u64);
        if kgtosa_obs::telemetry_active() {
            let q = kgtosa_kg::quality(&subgraph.kg, &targets);
            crate::quality::record_quality_metrics(&method, &q, completeness);
        }
        Self {
            subgraph,
            targets,
            report: ExtractionReport {
                method,
                seconds,
                sampled_nodes,
                triples,
                requests,
                completeness,
                cached: false,
            },
        }
    }
}

/// Baseline: GraphSAINT's uniform random walk, ignoring the task (Figure 2).
pub fn extract_urw(
    kg: &KnowledgeGraph,
    graph: &HeteroGraph,
    task: &ExtractionTask,
    cfg: &WalkConfig,
    seed: u64,
) -> ExtractionResult {
    let guard = kgtosa_obs::span!("extract.urw");
    let mut rng = StdRng::seed_from_u64(seed);
    let vs = uniform_random_walk(graph, cfg, &mut rng);
    let sampled = vs.len();
    let sub = induced_subgraph(kg, &vs);
    ExtractionResult::new(
        "URW".into(),
        sub,
        &task.targets,
        guard.finish().wall_s,
        sampled,
        0,
        1.0,
    )
}

/// Algorithm 1: biased random walk from the target vertices.
pub fn extract_brw(
    kg: &KnowledgeGraph,
    graph: &HeteroGraph,
    task: &ExtractionTask,
    cfg: &WalkConfig,
    seed: u64,
) -> ExtractionResult {
    let guard = kgtosa_obs::span!("extract.brw");
    let mut rng = StdRng::seed_from_u64(seed);
    let vs = biased_random_walk(graph, &task.targets, cfg, &mut rng);
    let sampled = vs.len();
    let sub = induced_subgraph(kg, &vs);
    ExtractionResult::new(
        "BRW".into(),
        sub,
        &task.targets,
        guard.finish().wall_s,
        sampled,
        0,
        1.0,
    )
}

/// Algorithm 2: influence-based sampling via approximate PPR.
pub fn extract_ibs(
    kg: &KnowledgeGraph,
    graph: &HeteroGraph,
    task: &ExtractionTask,
    cfg: &IbsConfig,
) -> ExtractionResult {
    let guard = kgtosa_obs::span!("extract.ibs");
    let vs = ibs_sample(graph, &task.targets, cfg);
    let sampled = vs.len();
    let sub = induced_subgraph(kg, &vs);
    ExtractionResult::new(
        "IBS".into(),
        sub,
        &task.targets,
        guard.finish().wall_s,
        sampled,
        0,
        1.0,
    )
}

/// Algorithm 3: SPARQL-based extraction against an RDF store.
///
/// The store argument models the deployment reality the paper leans on: the
/// KG already lives inside an RDF engine with its six indices built, so
/// extraction pays only for query execution, pagination and merging — not
/// for any migration of the full KG.
pub fn extract_sparql(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    fetch: &FetchConfig,
) -> Result<ExtractionResult, RdfError> {
    let kg = store.kg();
    let guard = kgtosa_obs::span!("extract.sparql");
    let subqueries = compile_subqueries(task, pattern);
    let endpoint = InProcessEndpoint::new(store);
    // Branches can project differently-named triple vars: one fetch per
    // set of names.
    let mut grouped: Vec<(&(String, String, String), Vec<_>)> = Vec::new();
    for sq in &subqueries {
        match grouped.iter_mut().find(|(vars, _)| **vars == sq.triple_vars) {
            Some((_, qs)) => qs.push(sq.query.clone()),
            None => grouped.push((&sq.triple_vars, vec![sq.query.clone()])),
        }
    }
    let (mut triples, mut planned_pages, mut completed_pages) = (Vec::new(), 0usize, 0usize);
    for ((s, p, o), qs) in grouped {
        let outcome = fetch_triples_robust(&endpoint, store, &qs, (s, p, o), fetch)?;
        planned_pages += outcome.planned_pages;
        completed_pages += outcome.completed_pages;
        // Each group's triples ascend: merge them in, each triple once.
        triples = if triples.is_empty() {
            outcome.triples
        } else {
            merge_sorted(&triples, &outcome.triples, &[])
        };
    }
    let completeness = if planned_pages == 0 {
        1.0
    } else {
        completed_pages as f64 / planned_pages as f64
    };
    let sub = subgraph_from_triples_and_nodes(kg, &triples, &task.targets);
    let sampled = sub.kg.num_nodes();
    Ok(ExtractionResult::new(
        format!("KG-TOSA_{}", pattern.label()),
        sub,
        &task.targets,
        guard.finish().wall_s,
        sampled,
        endpoint.stats().requests(),
        completeness,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small two-community KG: papers/venues/authors around targets, and
    /// an unrelated movie cluster.
    fn academic_kg() -> (KnowledgeGraph, ExtractionTask) {
        let mut kg = KnowledgeGraph::new();
        for i in 0..10 {
            let p = format!("p{i}");
            kg.add_triple_terms(&p, "Paper", "publishedIn", &format!("v{}", i % 2), "Venue");
            kg.add_triple_terms(&format!("a{}", i % 3), "Author", "writes", &p, "Paper");
            if i > 0 {
                kg.add_triple_terms(&p, "Paper", "cites", &format!("p{}", i - 1), "Paper");
            }
        }
        // Unrelated cluster.
        for i in 0..5 {
            kg.add_triple_terms(
                &format!("m{i}"),
                "Movie",
                "hasGenre",
                &format!("g{}", i % 2),
                "Genre",
            );
        }
        let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
        let task = ExtractionTask::node_classification("PV", "Paper", targets);
        (kg, task)
    }

    #[test]
    fn merge_equals_concatenate_sort_dedup() {
        use kgtosa_kg::{Rid, Triple};
        let run = |ids: &[u32]| -> Vec<Triple> {
            ids.iter()
                .map(|&i| Triple::new(Vid(i / 100), Rid(i / 10 % 10), Vid(i % 10)))
                .collect()
        };
        let cases: [(&[u32], &[u32]); 7] = [
            (&[], &[]),
            (&[], &[3, 150, 999]),
            (&[3, 150, 999], &[]),
            (&[1, 2, 3], &[10, 20, 30]),
            (&[10, 20, 30], &[1, 2, 3]),
            (&[1, 5, 9, 120, 480], &[2, 5, 120, 121, 999]),
            (&[7, 70, 700], &[7, 70, 700]),
        ];
        for (a, b) in cases {
            let mut expect = [run(a), run(b)].concat();
            expect.sort_unstable();
            expect.dedup();
            assert_eq!(merge_sorted(&run(a), &run(b), &[]), expect, "{a:?} + {b:?}");
        }
    }

    #[test]
    fn sparql_d1h1_covers_target_out_edges_only() {
        let (kg, task) = academic_kg();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D1H1, &FetchConfig::default()).unwrap();
        let sub = &res.subgraph.kg;
        // Outgoing from Papers: publishedIn + cites, but not writes
        // (incoming) and nothing from the movie cluster.
        assert!(sub.find_relation("publishedIn").is_some());
        assert!(sub.find_relation("cites").is_some());
        assert!(sub.find_relation("writes").is_none());
        assert!(sub.find_relation("hasGenre").is_none());
        // Every target must survive extraction.
        assert_eq!(res.targets.len(), task.targets.len());
        assert!(res.report.requests > 0);
    }

    #[test]
    fn sparql_transient_faults_with_retry_match_fault_free() {
        use kgtosa_rdf::{FaultPlan, RetryPolicy};
        let (kg, task) = academic_kg();
        let store = RdfStore::new(&kg);
        let clean =
            extract_sparql(&store, &task, &GraphPattern::D2H1, &FetchConfig::default()).unwrap();
        let fetch = FetchConfig {
            batch_size: 4,
            retry: Some(RetryPolicy::default()),
            fault: Some(FaultPlan {
                fault_rate: 1.0,
                max_burst: 2,
                ..Default::default()
            }),
            ..Default::default()
        };
        let faulty = extract_sparql(&store, &task, &GraphPattern::D2H1, &fetch).unwrap();
        assert_eq!(faulty.report.triples, clean.report.triples);
        assert_eq!(faulty.report.completeness, 1.0);
        assert_eq!(clean.report.completeness, 1.0);
    }

    #[test]
    fn sparql_partial_mode_reports_degraded_completeness() {
        use kgtosa_rdf::{FaultPlan, FetchMode};
        let (kg, task) = academic_kg();
        let store = RdfStore::new(&kg);
        let fetch = FetchConfig {
            batch_size: 4,
            fault: Some(FaultPlan {
                fault_rate: 1.0,
                fatal_rate: 1.0,
                ..Default::default()
            }),
            mode: FetchMode::Partial,
            ..Default::default()
        };
        let res = extract_sparql(&store, &task, &GraphPattern::D1H1, &fetch).unwrap();
        assert!(
            res.report.completeness < 1.0,
            "all pages fatally failed, completeness {}",
            res.report.completeness
        );
    }

    #[test]
    fn sparql_d2h1_adds_incoming() {
        let (kg, task) = academic_kg();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D2H1, &FetchConfig::default()).unwrap();
        assert!(res.subgraph.kg.find_relation("writes").is_some());
    }

    #[test]
    fn sparql_h2_reaches_further() {
        let (kg, task) = academic_kg();
        let store = RdfStore::new(&kg);
        let h1 =
            extract_sparql(&store, &task, &GraphPattern::D1H1, &FetchConfig::default()).unwrap();
        let h2 =
            extract_sparql(&store, &task, &GraphPattern::D1H2, &FetchConfig::default()).unwrap();
        assert!(h2.report.triples >= h1.report.triples);
    }

    #[test]
    fn brw_excludes_disconnected_cluster() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let res = extract_brw(
            &kg,
            &g,
            &task,
            &WalkConfig {
                roots: 20,
                walk_length: 3,
            },
            7,
        );
        assert!(res.subgraph.kg.find_class("Movie").is_none());
        assert!(!res.targets.is_empty());
    }

    #[test]
    fn ibs_excludes_disconnected_cluster() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let res = extract_ibs(&kg, &g, &task, &IbsConfig { threads: 2, ..Default::default() });
        assert!(res.subgraph.kg.find_class("Movie").is_none());
        assert_eq!(res.targets.len(), task.targets.len());
    }

    #[test]
    fn urw_ignores_task() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let res = extract_urw(
            &kg,
            &g,
            &task,
            &WalkConfig {
                roots: 200,
                walk_length: 2,
            },
            3,
        );
        // With 200 roots over 22 nodes, URW reaches the movie cluster.
        assert!(res.subgraph.kg.find_class("Movie").is_some());
    }

    #[test]
    fn reports_are_populated() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let res = extract_brw(&kg, &g, &task, &WalkConfig::default(), 1);
        assert_eq!(res.report.method, "BRW");
        assert!(res.report.seconds >= 0.0);
        assert!(res.report.sampled_nodes > 0);
        assert_eq!(res.report.triples, res.subgraph.kg.num_triples());
    }
}
