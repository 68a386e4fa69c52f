//! Figure 7 — link prediction: RGCN, MorsE and LHGNN × {FG, KG'} on the
//! three LP tasks (CA/YAGO3-10, PO/wikikg2, AA/DBLP), reporting Hits@10,
//! training time and peak memory. `KG'` uses the LP default
//! `KG-TOSA_{d2h1}`.
//!
//! Like the paper (where LHGNN exhausted its budget on the two larger
//! KGs), LHGNN runs only on the smallest dataset.

use crate::{
    lp_extraction_task, lp_fg_record, lp_tosg_record, print_panel, Kg, LpMethod, Record, World,
};
use kgtosa_core::{extract_sparql, GraphPattern};
use kgtosa_rdf::FetchConfig;

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "Figure 7 — LP tasks, 3 methods x (FG, KG-TOSA_d2h1), scale {}",
        env.scale
    );

    let cases = [(Kg::Yago310, true), (Kg::Wikikg2, false), (Kg::Dblp, false)];

    let mut all = Vec::new();
    for (which, smallest) in cases {
        let dataset = world.dataset(which);
        let task = &dataset.lp[0];
        let kg = &dataset.gen.kg;
        let ext_task = lp_extraction_task(task, &dataset.gen);
        let tosg = extract_sparql(
            world.store(which),
            &ext_task,
            &GraphPattern::D2H1,
            &FetchConfig::default(),
        )
        .expect("extraction");
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
        for method in LpMethod::ALL {
            if method == LpMethod::Lhgnn && !smallest {
                say!(world, "  (skipping LHGNN on {} — exceeds budget, as in the paper)", task.name);
                continue;
            }
            rows.push(lp_fg_record(kg, task, method, &cfg));
            rows.push(lp_tosg_record(kg, task, &tosg, method, &cfg));
        }
        print_panel(world, &format!("Figure 7 — {}", task.name), &rows);
        all.extend(rows);
    }
    all
}
