//! Table I — benchmark statistics: nodes, edges, node types, edge types
//! for the five (scaled) KGs.

use crate::{Columns, World};

pub struct Row {
    dataset: String,
    nodes: usize,
    edges: usize,
    node_types: usize,
    edge_types: usize,
}

kgtosa_obs::json_row!(Row { dataset, nodes, edges, node_types, edge_types });

impl Columns for Row {
    const MEASURED: &'static [&'static str] = &[];
}

pub fn run(world: &World<'_>) -> Vec<Row> {
    say!(world, "Table I — Benchmark statistics (scale {})", world.env.scale);
    say!(
        world,
        "{:<14} {:>9} {:>9} {:>8} {:>8}",
        "KG-Dataset", "#nodes", "#edges", "#n-type", "#e-type"
    );
    let mut rows = Vec::new();
    for d in world.datasets() {
        let kg = &d.gen.kg;
        say!(
            world,
            "{:<14} {:>9} {:>9} {:>8} {:>8}",
            d.gen.spec.name,
            kg.num_nodes(),
            kg.num_triples(),
            kg.num_classes(),
            kg.num_relations()
        );
        rows.push(Row {
            dataset: d.gen.spec.name.clone(),
            nodes: kg.num_nodes(),
            edges: kg.num_triples(),
            node_types: kg.num_classes(),
            edge_types: kg.num_relations(),
        });
    }
    rows
}
