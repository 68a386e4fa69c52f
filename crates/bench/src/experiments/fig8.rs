//! Figure 8 — extraction-method comparison: GraphSAINT trained with the
//! BRW sampler on the full graph, versus GraphSAINT on the TOSGs produced
//! by IBS and the four SPARQL variants (KG-TOSA_{d1h1,d2h1,d1h2,d2h2}),
//! on PV/MAG (top), PV/DBLP (middle), PC/YAGO (bottom).
//!
//! Reported per §V-C: accuracy; extraction + transformation + training
//! time; memory. Parameters follow the paper: BRW h=3 with an initial set
//! covering the targets, IBS top-k=16, α=0.25, ε=2e-4.

use crate::{
    measure, nc_extraction_task, nc_tosg_record, print_panel, record_from_report, Kg, NcMethod,
    Record, World,
};
use kgtosa_core::{extract_ibs, extract_sparql, GraphPattern};
use kgtosa_models::{train_graphsaint_nc, NcDataset, SaintSampler};
use kgtosa_rdf::FetchConfig;
use kgtosa_sampler::IbsConfig;

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Figure 8 — GraphSAINT+BRW on FG vs IBS vs KG-TOSA_dihj (scale {})",
        env.scale
    );

    let cases = [(Kg::Mag, 0usize), (Kg::Dblp, 0usize), (Kg::Yago30, 0usize)];

    let mut all = Vec::new();
    for (which, task_idx) in cases {
        let dataset = world.dataset(which);
        let task = &dataset.nc[task_idx];
        let kg = &dataset.gen.kg;
        let ext_task = nc_extraction_task(task);
        let mut rows: Vec<Record> = Vec::new();

        // --- GraphSAINT+BRW directly on the full graph -------------------
        let ((report, transformation_s), _, peak) = measure(|| {
            let (graph, tsecs) = kgtosa_core::transform(kg);
            let data = NcDataset {
                kg,
                graph: &graph,
                labels: &task.labels,
                num_labels: task.num_labels,
                train: &task.train,
                valid: &task.valid,
                test: &task.test,
            };
            (train_graphsaint_nc(&data, &cfg, SaintSampler::Biased), tsecs)
        });
        rows.push(record_from_report(task.name.clone(), "FG", report, 0.0, transformation_s, peak, 0));

        // --- IBS extraction, then GraphSAINT ------------------------------
        let ibs = extract_ibs(
            kg,
            world.graph(which),
            &ext_task,
            &IbsConfig { k: 16, threads: 4, ..Default::default() },
        );
        rows.push(nc_tosg_record(task, &ibs, NcMethod::GraphSaint, &cfg));

        // --- The four SPARQL variants -------------------------------------
        for pattern in GraphPattern::VARIANTS {
            let tosg =
                extract_sparql(world.store(which), &ext_task, &pattern, &FetchConfig::default())
                    .expect("extraction");
            rows.push(nc_tosg_record(task, &tosg, NcMethod::GraphSaint, &cfg));
        }

        print_panel(world, &format!("Figure 8 — {}", task.name), &rows);
        all.extend(rows);
    }
    all
}
