//! Metapath-guided TOSG extraction — an extension beyond the paper's
//! three methods (its §VI vision points toward richer task-oriented
//! operators on KG engines).
//!
//! Instead of expanding *every* predicate around the targets (the generic
//! graph pattern) or sampling, this method first discovers the top-`k`
//! schema metapaths rooted at the target class (ranked by edge support,
//! see [`kgtosa_kg::metapath`]), then collects exactly the triples lying on
//! instances of those metapaths. The result is a TOSG biased toward the
//! *semantically dominant* paths — a middle ground between `d1h1`'s
//! locality and BRW/IBS's diversity, at index-scan cost.

use std::time::Instant;

use kgtosa_kg::{
    schema_metapaths, subgraph_from_triples_and_nodes, HeteroGraph, KnowledgeGraph, NodeSet,
    Triple, Vid,
};

use crate::extract::ExtractionResult;
use crate::pattern::ExtractionTask;

/// Configuration of the metapath extractor.
#[derive(Debug, Clone, Copy)]
pub struct MetapathConfig {
    /// Maximum metapath length (hops).
    pub max_len: usize,
    /// Number of schema metapaths kept (by first-step support).
    pub max_paths: usize,
}

impl Default for MetapathConfig {
    fn default() -> Self {
        Self {
            max_len: 2,
            max_paths: 8,
        }
    }
}

/// Extracts the TOSG along the top schema metapaths from the target class.
///
/// Every collected triple lies on a metapath instance starting at a target
/// vertex, so Definition 3.1's reachability requirement holds by
/// construction.
pub fn extract_metapath(
    kg: &KnowledgeGraph,
    graph: &HeteroGraph,
    task: &ExtractionTask,
    cfg: &MetapathConfig,
) -> ExtractionResult {
    let start = Instant::now();
    let mut triples: Vec<Triple> = Vec::new();
    let target_class = task
        .target_classes
        .first()
        .and_then(|c| kg.find_class(c));
    if let Some(class) = target_class {
        let paths = schema_metapaths(kg, class, cfg.max_len, cfg.max_paths);
        for sp in &paths {
            // Walk the path level by level, collecting the traversed edges.
            let mut frontier: Vec<Vid> = task.targets.clone();
            for step in &sp.path.steps {
                let adj = graph.relation(step.rel);
                let mut next = NodeSet::new(graph.num_nodes());
                for &v in &frontier {
                    if step.forward {
                        for &u in adj.out.neighbors(v) {
                            triples.push(Triple::new(v, step.rel, Vid(u)));
                            next.insert(Vid(u));
                        }
                    } else {
                        for &u in adj.inc.neighbors(v) {
                            triples.push(Triple::new(Vid(u), step.rel, v));
                            next.insert(Vid(u));
                        }
                    }
                }
                frontier = next.iter().collect();
                if frontier.is_empty() {
                    break;
                }
            }
        }
    }
    let subgraph = subgraph_from_triples_and_nodes(kg, &triples, &task.targets);
    let targets = kgtosa_kg::map_targets(&subgraph, &task.targets);
    let triples_count = subgraph.kg.num_triples();
    let sampled_nodes = subgraph.kg.num_nodes();
    ExtractionResult {
        subgraph,
        targets,
        report: crate::extract::ExtractionReport {
            method: "Metapath".into(),
            seconds: start.elapsed().as_secs_f64(),
            sampled_nodes,
            triples: triples_count,
            requests: 0,
            completeness: 1.0,
            cached: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::quality;

    fn academic_kg() -> (KnowledgeGraph, ExtractionTask) {
        let mut kg = KnowledgeGraph::new();
        for i in 0..12 {
            let p = format!("p{i}");
            kg.add_triple_terms(&p, "Paper", "publishedIn", &format!("v{}", i % 2), "Venue");
            kg.add_triple_terms(&format!("a{}", i % 4), "Author", "writes", &p, "Paper");
            if i > 0 {
                kg.add_triple_terms(&p, "Paper", "cites", &format!("p{}", i - 1), "Paper");
            }
        }
        // Irrelevant cluster the metapaths never reach.
        kg.add_triple_terms("m0", "Movie", "hasGenre", "g0", "Genre");
        let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
        let task = ExtractionTask::node_classification("PV", "Paper", targets);
        (kg, task)
    }

    #[test]
    fn covers_dominant_paths_and_excludes_unrelated() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let res = extract_metapath(&kg, &g, &task, &MetapathConfig::default());
        let sub = &res.subgraph.kg;
        assert!(sub.find_relation("publishedIn").is_some());
        assert!(sub.find_relation("cites").is_some());
        // Incoming writes edges are on a (Paper <-writes- Author) metapath.
        assert!(sub.find_relation("writes").is_some());
        assert!(sub.find_class("Movie").is_none(), "unrelated cluster excluded");
        assert_eq!(res.targets.len(), task.targets.len());
    }

    #[test]
    fn satisfies_definition_31_reachability() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let res = extract_metapath(&kg, &g, &task, &MetapathConfig::default());
        let q = quality(&res.subgraph.kg, &res.targets);
        assert_eq!(q.target_disconnected_pct, 0.0);
    }

    #[test]
    fn path_budget_bounds_size() {
        let (kg, task) = academic_kg();
        let g = HeteroGraph::build(&kg);
        let narrow = extract_metapath(
            &kg,
            &g,
            &task,
            &MetapathConfig { max_len: 1, max_paths: 1 },
        );
        let wide = extract_metapath(
            &kg,
            &g,
            &task,
            &MetapathConfig { max_len: 2, max_paths: 16 },
        );
        assert!(narrow.report.triples <= wide.report.triples);
    }

    #[test]
    fn unknown_target_class_yields_targets_only() {
        let (kg, mut task) = academic_kg();
        task.target_classes = vec!["Nonexistent".into()];
        let g = HeteroGraph::build(&kg);
        let res = extract_metapath(&kg, &g, &task, &MetapathConfig::default());
        assert_eq!(res.subgraph.kg.num_triples(), 0);
        assert_eq!(res.subgraph.kg.num_nodes(), task.targets.len());
    }
}
