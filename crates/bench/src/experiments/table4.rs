//! Table IV — the full cost breakdown for the six NC tasks: KG'
//! extraction time, triples→adjacency transformation time, GraphSAINT
//! training time, total, accuracy, model size (#params), inference time
//! and peak training memory — for the traditional pipeline (FG) versus
//! KG-TOSA_{d1h1} (KG').

use crate::{nc_fg_record, nc_tosg_record, Kg, NcMethod, Record, World};

fn print_pair(world: &World<'_>, task: &str, fg: &Record, kgp: &Record) {
    say!(world, "\n--- {task} ---");
    say!(
        world,
        "{:<24} {:>12} {:>12}",
        "step", "FG", "KG'"
    );
    let row = |name: &str, a: f64, b: f64, unit: &str| {
        say!(world, "{:<24} {:>11.2}{} {:>11.2}{}", name, a, unit, b, unit);
    };
    row("KG extraction time", fg.extraction_s, kgp.extraction_s, "s");
    row("transformation time", fg.transformation_s, kgp.transformation_s, "s");
    row("GNN training time", fg.training_s, kgp.training_s, "s");
    row(
        "total time",
        fg.extraction_s + fg.transformation_s + fg.training_s,
        kgp.extraction_s + kgp.transformation_s + kgp.training_s,
        "s",
    );
    row("accuracy (%)", fg.metric * 100.0, kgp.metric * 100.0, "");
    say!(
        world,
        "{:<24} {:>12} {:>12}",
        "model size (#params)", fg.params, kgp.params
    );
    row("inference time", fg.inference_s, kgp.inference_s, "s");
    say!(
        world,
        "{:<24} {:>12} {:>12}",
        "training memory",
        kgtosa_memtrack::format_bytes(fg.peak_bytes),
        kgtosa_memtrack::format_bytes(kgp.peak_bytes)
    );
}

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Table IV — cost breakdown, traditional pipeline (FG) vs KG-TOSA_d1h1 (KG'), scale {}",
        env.scale
    );

    // Table IV order: PV/MAG, PD/MAG, PV/DBLP, AC/DBLP, PC/YAGO, CG/YAGO.
    let tasks =
        [(Kg::Mag, 0), (Kg::Mag, 1), (Kg::Dblp, 0), (Kg::Dblp, 1), (Kg::Yago30, 0), (Kg::Yago30, 1)];

    let mut all = Vec::new();
    for (which, idx) in tasks {
        let dataset = world.dataset(which);
        let task = &dataset.nc[idx];
        let kg = &dataset.gen.kg;
        let tosg = world.d1h1(which, idx);

        let fg = nc_fg_record(kg, task, NcMethod::GraphSaint, &cfg);
        let kgp = nc_tosg_record(task, tosg, NcMethod::GraphSaint, &cfg);
        print_pair(world, &task.name, &fg, &kgp);
        all.push(fg);
        all.push(kgp);
    }
    all
}
