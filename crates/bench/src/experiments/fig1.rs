//! Figure 1 — the motivating experiment: train the Paper-Venue task on a
//! MAG-shaped KG with ShaDowSAINT and SeHGNN using three inputs:
//!
//! * **FG** — the full graph,
//! * **OGBN-MAG** — a handcrafted task-oriented subgraph (four node types:
//!   Paper/Author/Affiliation/FieldOfStudy with their four relations, and
//!   aggressively pruned context — how OGB's curators built OGBN-MAG),
//! * **KG-TOSA_d1h1** — the automatically extracted TOSG.
//!
//! Panels: (A) accuracy, (B) training time incl. preprocessing,
//! (C) training memory.

use crate::{
    nc_extraction_task, nc_fg_record, nc_tosg_record, print_panel, Kg, NcMethod, Record, World,
};
use kgtosa_core::{ExtractionReport, ExtractionResult, ExtractionTask};
use kgtosa_kg::{map_targets, subgraph_from_triples_and_nodes, KnowledgeGraph, NodeSet, Triple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Emulates the handcrafted OGBN-MAG subgraph: keep only the four curated
/// node types and their four relations, with manual pruning of context
/// nodes (the curators kept ≈0.2% of MAG).
fn handcrafted_ogbn_mag(
    kg: &KnowledgeGraph,
    task: &ExtractionTask,
    seed: u64,
) -> ExtractionResult {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let classes = ["Paper", "Author", "Affiliation", "FieldOfStudy"];
    let relations = ["writes", "cites", "hasTopic", "memberOf"];
    let mut keep = NodeSet::new(kg.num_nodes());
    for c in classes {
        if let Some(cid) = kg.find_class(c) {
            for v in kg.nodes_of_class(cid) {
                // Papers (targets) are all kept; context is pruned to 60%.
                if c == "Paper" || rng.gen::<f64>() < 0.6 {
                    keep.insert(v);
                }
            }
        }
    }
    let rel_ids: Vec<_> = relations.iter().filter_map(|r| kg.find_relation(r)).collect();
    let triples: Vec<Triple> = kg
        .triples()
        .iter()
        .filter(|t| rel_ids.contains(&t.p) && keep.contains(t.s) && keep.contains(t.o))
        .copied()
        .collect();
    let subgraph = subgraph_from_triples_and_nodes(kg, &triples, &task.targets);
    let targets = map_targets(&subgraph, &task.targets);
    let triples_count = subgraph.kg.num_triples();
    let sampled_nodes = subgraph.kg.num_nodes();
    ExtractionResult {
        subgraph,
        targets,
        report: ExtractionReport {
            method: "OGBN-MAG".into(),
            seconds: start.elapsed().as_secs_f64(),
            sampled_nodes,
            triples: triples_count,
            requests: 0,
            completeness: 1.0,
            cached: false,
        },
    }
}

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Figure 1 — PV on MAG (scale {}): FG vs handcrafted OGBN-MAG vs KG-TOSA_d1h1",
        env.scale
    );
    let dataset = world.dataset(Kg::Mag);
    let kg = &dataset.gen.kg;
    let task = &dataset.nc[0]; // PV/MAG
    let ext_task = nc_extraction_task(task);
    say!(
        world,
        "MAG-42M (scaled): {} nodes, {} triples",
        kg.num_nodes(),
        kg.num_triples()
    );

    let handcrafted = handcrafted_ogbn_mag(kg, &ext_task, env.seed);
    let tosg = world.d1h1(Kg::Mag, 0);
    say!(
        world,
        "inputs: FG {}t | OGBN-MAG {}t | KG-TOSA_d1h1 {}t",
        kg.num_triples(),
        handcrafted.report.triples,
        tosg.report.triples
    );

    let mut records = Vec::new();
    for method in [NcMethod::ShadowSaint, NcMethod::SeHgnn] {
        records.push(nc_fg_record(kg, task, method, &cfg));
        records.push(nc_tosg_record(task, &handcrafted, method, &cfg));
        records.push(nc_tosg_record(task, tosg, method, &cfg));
    }
    print_panel(world, "Figure 1 (A/B/C)", &records);
    records
}
