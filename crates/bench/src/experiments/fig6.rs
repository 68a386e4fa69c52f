//! Figure 6 — node classification: all four NC methods × {FG, KG'} on the
//! three plotted tasks (PV/MAG at the top, PV/DBLP in the middle,
//! PC/YAGO at the bottom), reporting accuracy, training time including
//! KG-TOSA's preprocessing, and peak training memory.
//!
//! `KG'` is extracted with the paper's NC default `KG-TOSA_{d1h1}`.

use crate::{nc_fg_record, nc_tosg_record, print_panel, Kg, NcMethod, Record, World};

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Figure 6 — NC tasks, 4 methods x (FG, KG-TOSA_d1h1), scale {}",
        env.scale
    );

    let cases = [(Kg::Mag, 0usize), (Kg::Dblp, 0usize), (Kg::Yago30, 0usize)];

    let mut all = Vec::new();
    for (which, task_idx) in cases {
        let dataset = world.dataset(which);
        let task = &dataset.nc[task_idx];
        let kg = &dataset.gen.kg;
        let tosg = world.d1h1(which, task_idx);
        say!(
            world,
            "\n{}: FG {} triples → KG' {} triples ({:.1}%), extracted in {:.2}s",
            task.name,
            kg.num_triples(),
            tosg.report.triples,
            100.0 * tosg.report.triples as f64 / kg.num_triples() as f64,
            tosg.report.seconds
        );

        let mut rows = Vec::new();
        for method in NcMethod::ALL {
            rows.push(nc_fg_record(kg, task, method, &cfg));
            rows.push(nc_tosg_record(task, tosg, method, &cfg));
        }
        print_panel(world, &format!("Figure 6 — {}", task.name), &rows);
        all.extend(rows);
    }
    all
}
