//! Ablation: two ways to tame `|R|`-proportional model growth.
//!
//! RGCN's model size scales with the number of relations. The literature's
//! fix is **basis decomposition** (share B bases across relations);
//! KG-TOSA's fix is to shrink `|R|` itself by extracting the TOSG. This
//! ablation runs full-parameter RGCN and basis-RGCN (B ∈ {2, 8}) on both
//! FG and KG', showing the two are complementary: the TOSG shrinks every
//! variant, and basis sharing trades a little accuracy for a lot of
//! parameters on both inputs.

use crate::{measure, print_panel, record_from_report, remap_nc, Kg, Record, World};
use kgtosa_models::{train_rgcn_basis_nc, train_rgcn_nc, NcDataset, TrainReport};

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Ablation — full RGCN vs basis decomposition, FG vs KG-TOSA_d1h1 (scale {})",
        env.scale
    );
    let dataset = world.dataset(Kg::Mag);
    let kg = &dataset.gen.kg;
    let task = &dataset.nc[0];
    let tosg = world.d1h1(Kg::Mag, 0);
    let view = remap_nc(&tosg.subgraph, task);

    type Trainer<'a> = Box<dyn Fn(&NcDataset<'_>) -> TrainReport + 'a>;
    let variants: Vec<(&str, Trainer<'_>)> = vec![
        ("full", Box::new(|d: &NcDataset<'_>| train_rgcn_nc(d, &cfg))),
        ("basis-8", Box::new(|d: &NcDataset<'_>| train_rgcn_basis_nc(d, &cfg, 8))),
        ("basis-2", Box::new(|d: &NcDataset<'_>| train_rgcn_basis_nc(d, &cfg, 2))),
    ];

    let mut rows: Vec<Record> = Vec::new();
    for (name, trainer) in &variants {
        // FG.
        let ((report, tsecs), _, peak) = measure(|| {
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
            (trainer(&data), tsecs)
        });
        rows.push(Record {
            method: format!("RGCN-{name}"),
            trace: vec![],
            ..record_from_report(task.name.clone(), "FG", report, 0.0, tsecs, peak, 0)
        });
        // KG'.
        let sub = &tosg.subgraph;
        let ((report, tsecs), _, peak) = measure(|| {
            let (graph, tsecs) = kgtosa_core::transform(&sub.kg);
            let data = NcDataset {
                kg: &sub.kg,
                graph: &graph,
                labels: &view.labels,
                num_labels: task.num_labels,
                train: &view.train,
                valid: &view.valid,
                test: &view.test,
            };
            (trainer(&data), tsecs)
        });
        rows.push(Record {
            method: format!("RGCN-{name}"),
            trace: vec![],
            ..record_from_report(
                task.name.clone(),
                "KG-TOSA_d1h1",
                report,
                tosg.report.seconds,
                tsecs,
                peak,
                tosg.report.triples,
            )
        });
    }
    print_panel(world, "Ablation: parameter taming", &rows);
    rows
}
