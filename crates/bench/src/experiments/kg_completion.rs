//! §V-B2's closing claim: "performing KG completion using MorsE on
//! DBLP-15M consumed 330GB memory and 124 training hours compared with
//! 11GB and 9.8 training hours using the KG' of KG-TOSA for the
//! affiliatedWith edge type only" — one order of magnitude saved in both
//! time and memory by scoping LP to the predicate of interest.
//!
//! Reproduced at scale: (a) MorsE trained for *full KG completion* (every
//! edge type scored) on the full DBLP graph, versus (b) MorsE trained for
//! the `affiliatedWith` predicate only on the KG-TOSA_{d2h1} subgraph.

use crate::{
    lp_extraction_task, lp_fg_record, lp_tosg_record, measure, print_panel, record_from_report, Kg,
    LpMethod, Record, World,
};
use kgtosa_core::{extract_sparql, GraphPattern};
use kgtosa_datagen::LpTask;
use kgtosa_models::{train_morse_lp, LpDataset};
use kgtosa_rdf::FetchConfig;

pub fn run(world: &World<'_>) -> Vec<Record> {
    let env = world.env;
    let cfg = env.train_config();
    say!(
        world,
        "KG completion vs predicate-scoped LP (MorsE on DBLP, scale {})",
        env.scale
    );
    let dataset = world.dataset(Kg::Dblp);
    let kg = &dataset.gen.kg;
    let task = &dataset.lp[0];

    // --- (a) Full KG completion on FG: every triple is a training example.
    let all_triples: Vec<_> = kg.triples().to_vec();
    let completion_task = LpTask {
        name: "completion/DBLP".into(),
        predicate: "*".into(),
        src_class: task.src_class.clone(),
        dst_class: task.dst_class.clone(),
        train: all_triples,
        valid: task.valid.clone(),
        test: task.test.clone(),
    };
    let ((report, transformation_s), _, peak) = measure(|| {
        let (graph, tsecs) = kgtosa_core::transform(kg);
        let data = LpDataset {
            kg,
            graph: &graph,
            train: &completion_task.train,
            valid: &completion_task.valid,
            test: &completion_task.test,
        };
        (train_morse_lp(&data, &cfg), tsecs)
    });
    let completion = Record {
        method: "MorsE".into(),
        trace: vec![],
        ..record_from_report(
            completion_task.name.clone(),
            "FG (all predicates)",
            report,
            0.0,
            transformation_s,
            peak,
            0,
        )
    };

    // --- (b) Single-predicate LP on the KG-TOSA_{d2h1} subgraph.
    let ext_task = lp_extraction_task(task, &dataset.gen);
    let tosg = extract_sparql(
        world.store(Kg::Dblp),
        &ext_task,
        &GraphPattern::D2H1,
        &FetchConfig::default(),
    )
    .expect("extraction");
    let scoped = lp_tosg_record(kg, task, &tosg, LpMethod::Morse, &cfg);
    // Also the single-predicate FG run for reference.
    let fg_scoped = lp_fg_record(kg, task, LpMethod::Morse, &cfg);

    let rows = vec![completion, fg_scoped, scoped];
    print_panel(world, "MorsE: completion vs predicate-scoped", &rows);
    let time_ratio = rows[0].training_s / rows[2].training_s.max(1e-9);
    let mem_ratio = rows[0].peak_bytes as f64 / rows[2].peak_bytes.max(1) as f64;
    say!(
        world,
        "\npredicate-scoped LP on KG' is {time_ratio:.1}x faster and uses {mem_ratio:.1}x \
         less peak memory than full completion on FG\n(paper: ~12.7x time, ~30x memory)"
    );
    rows
}
