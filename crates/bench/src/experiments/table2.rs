//! Table II — task summary: task type, name, KG, split kind, split ratio,
//! and evaluation metric for the six NC and three LP tasks.

use crate::{Columns, World};

pub struct Row {
    task_type: &'static str,
    name: String,
    kg: String,
    split: String,
    ratio: String,
    metric: &'static str,
    targets: usize,
}

kgtosa_obs::json_row!(Row { task_type, name, kg, split, ratio, metric, targets });

impl Columns for Row {
    const MEASURED: &'static [&'static str] = &[];
}

pub fn run(world: &World<'_>) -> Vec<Row> {
    say!(world, "Table II — GNN task summary (scale {})", world.env.scale);
    say!(
        world,
        "{:<4} {:<14} {:<14} {:<8} {:<14} {:<9} {:>8}",
        "TT", "Name", "KG", "Split", "Ratio", "Metric", "targets"
    );
    let mut rows = Vec::new();
    for d in world.datasets() {
        for t in &d.nc {
            let total = t.train.len() + t.valid.len() + t.test.len();
            let pct = |n: usize| format!("{:.0}", 100.0 * n as f64 / total as f64);
            let ratio = format!("{}/{}/{}", pct(t.train.len()), pct(t.valid.len()), pct(t.test.len()));
            say!(
                world,
                "{:<4} {:<14} {:<14} {:<8} {:<14} {:<9} {:>8}",
                "NC", t.name, d.gen.spec.name, format!("{:?}", t.split), ratio, "Accuracy", total
            );
            rows.push(Row {
                task_type: "NC",
                name: t.name.clone(),
                kg: d.gen.spec.name.clone(),
                split: format!("{:?}", t.split),
                ratio,
                metric: "Accuracy",
                targets: total,
            });
        }
        for t in &d.lp {
            let total = t.train.len() + t.valid.len() + t.test.len();
            let pct = |n: usize| format!("{:.1}", 100.0 * n as f64 / total as f64);
            let ratio = format!("{}/{}/{}", pct(t.train.len()), pct(t.valid.len()), pct(t.test.len()));
            say!(
                world,
                "{:<4} {:<14} {:<14} {:<8} {:<14} {:<9} {:>8}",
                "LP", t.name, d.gen.spec.name, "Time", ratio, "Hits@10", total
            );
            rows.push(Row {
                task_type: "LP",
                name: t.name.clone(),
                kg: d.gen.spec.name.clone(),
                split: "Time".into(),
                ratio,
                metric: "Hits@10",
                targets: total,
            });
        }
    }
    rows
}
