//! Figure 9 — convergence-rate analysis: GraphSAINT's validation accuracy
//! as a function of wall-clock training time on the full graph versus the
//! KG-TOSA_{d1h1} subgraph, for all six NC tasks.
//!
//! The paper's observation: KG' epochs are much shorter, so the model
//! reaches its plateau earlier in wall-clock terms.

use crate::{nc_fg_record, nc_tosg_record, Kg, NcMethod, Record, World};

fn print_trace(world: &World<'_>, label: &str, rec: &Record) {
    let mut line = format!("  {label:<8}");
    for (t, m) in rec.trace.iter().step_by(rec.trace.len().div_ceil(10).max(1)) {
        line.push_str(&format!(" {t:>6.2}s:{:>5.3}", m));
    }
    say!(world, "{line} | final test {:.3}", rec.metric);
}

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Figure 9 — GraphSAINT convergence, FG vs KG-TOSA_d1h1 (scale {}, {} epochs)",
        env.scale, cfg.epochs
    );

    let tasks =
        [(Kg::Mag, 0), (Kg::Mag, 1), (Kg::Yago30, 0), (Kg::Yago30, 1), (Kg::Dblp, 0), (Kg::Dblp, 1)];

    let mut all = Vec::new();
    for (which, idx) in tasks {
        let dataset = world.dataset(which);
        let task = &dataset.nc[idx];
        let kg = &dataset.gen.kg;
        let tosg = world.d1h1(which, idx);

        let fg = nc_fg_record(kg, task, NcMethod::GraphSaint, &cfg);
        let kgp = nc_tosg_record(task, tosg, NcMethod::GraphSaint, &cfg);

        say!(world, "\n{} (validation accuracy vs elapsed seconds):", task.name);
        print_trace(world, "FG", &fg);
        print_trace(world, "KG'", &kgp);
        let fg_end = fg.trace.last().map(|p| p.0).unwrap_or(0.0);
        let kgp_end = kgp.trace.last().map(|p| p.0).unwrap_or(0.0);
        say!(
            world,
            "  -> same #epochs in {kgp_end:.2}s on KG' vs {fg_end:.2}s on FG ({:.1}x faster/epoch)",
            fg_end / kgp_end.max(1e-9)
        );
        all.push(fg);
        all.push(kgp);
    }
    all
}
