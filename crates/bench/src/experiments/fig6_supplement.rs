//! Supplementary NC results (the paper shows three of its six NC tasks in
//! Figure 6 "due to space constraints" and defers the rest to the
//! supplementary material): PD/MAG, AC/DBLP, CG/YAGO with all four
//! methods × {FG, KG-TOSA_d1h1}.

use crate::{nc_fg_record, nc_tosg_record, print_panel, Kg, NcMethod, Record, World};

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Figure 6 (supplementary) — remaining NC tasks, scale {}",
        env.scale
    );

    let cases = [(Kg::Mag, 1usize), (Kg::Dblp, 1usize), (Kg::Yago30, 1usize)];

    let mut all = Vec::new();
    for (which, task_idx) in cases {
        let dataset = world.dataset(which);
        let task = &dataset.nc[task_idx];
        let kg = &dataset.gen.kg;
        let tosg = world.d1h1(which, task_idx);
        say!(
            world,
            "\n{}: FG {} triples → KG' {} triples ({:.1}%)",
            task.name,
            kg.num_triples(),
            tosg.report.triples,
            100.0 * tosg.report.triples as f64 / kg.num_triples() as f64,
        );
        let mut rows = Vec::new();
        for method in NcMethod::ALL {
            rows.push(nc_fg_record(kg, task, method, &cfg));
            rows.push(nc_tosg_record(task, tosg, method, &cfg));
        }
        print_panel(world, &format!("Supplementary — {}", task.name), &rows);
        all.extend(rows);
    }
    all
}
