//! Table III — subgraph quality statistics for URW, BRW, IBS and
//! KG-TOSA_{d1h1} on the four analyzed tasks (CG/YAGO, PC/YAGO, PV/DBLP,
//! PV/MAG): data sufficiency (V_T count & ratio, |C'|, |R'|), graph
//! topology (target-disconnected %, average distance to target, neighbour
//! type entropy, Eq. 2) and the downstream GraphSAINT accuracy.
//!
//! Walk parameters follow the paper (h = 3, initial set covering V_T,
//! scaled from the 20k of §V-C).

use crate::{nc_extraction_task, nc_tosg_record, Columns, Kg, NcMethod, World};
use kgtosa_core::{extract_brw, extract_ibs, extract_urw, QualityRow};
use kgtosa_obs::Json;
use kgtosa_sampler::{IbsConfig, WalkConfig};

pub struct Row {
    task: String,
    /// Spliced between `task` and `accuracy` as columns of their own.
    quality: QualityRow,
    accuracy: f64,
}

impl From<Row> for Json {
    fn from(row: Row) -> Self {
        let Row { task, quality, accuracy } = row;
        let Json::Obj(quality) = Json::from(quality) else {
            unreachable!("json_row! builds objects")
        };
        let mut columns = vec![("task".into(), task.into())];
        columns.extend(quality);
        columns.push(("accuracy".into(), accuracy.into()));
        Json::Obj(columns)
    }
}

impl Columns for Row {
    const MEASURED: &'static [&'static str] = QualityRow::MEASURED;
}

pub fn run(world: &World<'_>) -> Vec<Row> {
    let env = world.env;
    let cfg = env.train_config();
    say!(world, "Table III — subgraph quality, URW vs BRW vs IBS vs KG-TOSA_d1h1 (scale {})", env.scale);

    let cases = [
        (Kg::Yago30, 1usize), // CG/YAGO
        (Kg::Yago30, 0usize), // PC/YAGO
        (Kg::Dblp, 0usize),   // PV/DBLP
        (Kg::Mag, 0usize),    // PV/MAG
    ];

    let mut all = Vec::new();
    for (which, idx) in cases {
        let dataset = world.dataset(which);
        let task = &dataset.nc[idx];
        let kg = &dataset.gen.kg;
        let graph = world.graph(which);
        let ext_task = nc_extraction_task(task);
        let walk = WalkConfig {
            roots: ext_task.targets.len().min(20_000),
            walk_length: 3,
        };

        let sampled = [
            extract_urw(kg, graph, &ext_task, &walk, env.seed),
            extract_brw(kg, graph, &ext_task, &walk, env.seed),
            extract_ibs(kg, graph, &ext_task, &IbsConfig { k: 16, threads: 4, ..Default::default() }),
        ];

        say!(world, "\n--- {} ---", task.name);
        say!(world, "{} {:>9}", QualityRow::header(), "accuracy");
        for ext in sampled.iter().chain([world.d1h1(which, idx)]) {
            let quality = QualityRow::from_extraction(ext);
            // Downstream accuracy: GraphSAINT trained on the subgraph.
            let rec = nc_tosg_record(task, ext, NcMethod::GraphSaint, &cfg);
            say!(world, "{} {:>9.4}", quality.format_row(), rec.metric);
            all.push(Row {
                task: task.name.clone(),
                quality,
                accuracy: rec.metric,
            });
        }
    }
    say!(
        world,
        "\nExpected shape (paper Table III): URW has the lowest target ratio \
         and non-zero disconnection; BRW/IBS/d1h1 reach 0% disconnection with \
         fewer types and shorter target distances; d1h1 achieves it at \
         negligible extraction cost."
    );
    all
}
