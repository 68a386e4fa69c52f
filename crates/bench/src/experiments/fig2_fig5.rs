//! Figures 2 & 5 — sample composition of the uniform random walk (URW,
//! Figure 2) versus the biased random walk (BRW, Figure 5) on the three
//! NC dataset/task pairs the paper plots: CG/YAGO, PV/MAG, PV/DBLP.
//!
//! The paper reports the target-vertex percentage of each sample (e.g.
//! URW 15.25% vs BRW 36.73% on YAGO) and shows that URW leaves vertices
//! disconnected from every target while BRW does not. Both are walk
//! samplers with h=2 and 20 initial vertices, as in §III-A.

use crate::{nc_extraction_task, print_quality, Kg, World};
use kgtosa_core::{extract_brw, extract_urw, QualityRow};
use kgtosa_sampler::WalkConfig;

pub fn run(world: &World<'_>) -> Vec<QualityRow> {
    let env = world.env;
    say!(
        world,
        "Figures 2 & 5 — URW vs BRW sample composition (scale {}, h=2, 20 roots)",
        env.scale
    );
    let walk = WalkConfig { roots: 20, walk_length: 2 };

    let cases = [
        (Kg::Yago30, 1usize), // CG/YAGO (second NC task)
        (Kg::Mag, 0usize),    // PV/MAG
        (Kg::Dblp, 0usize),   // PV/DBLP
    ];

    let mut rows = Vec::new();
    for (which, task_idx) in cases {
        let dataset = world.dataset(which);
        let task = &dataset.nc[task_idx];
        let kg = &dataset.gen.kg;
        let graph = world.graph(which);
        let ext_task = nc_extraction_task(task);
        let urw = extract_urw(kg, graph, &ext_task, &walk, env.seed);
        let brw = extract_brw(kg, graph, &ext_task, &walk, env.seed);
        let mut panel = vec![
            QualityRow::from_extraction(&urw),
            QualityRow::from_extraction(&brw),
        ];
        for r in &mut panel {
            r.method = format!("{} {}", r.method, task.name);
        }
        print_quality(world, &format!("{} — URW (Fig 2) vs BRW (Fig 5)", task.name), &panel);
        rows.extend(panel);
    }
    say!(
        world,
        "\nExpected shape: BRW raises the target-vertex ratio on every task \
         and drives target-disconnection to 0% (URW does not guarantee either)."
    );
    rows
}
