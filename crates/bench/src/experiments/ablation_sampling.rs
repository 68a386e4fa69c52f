//! Ablation of the sampling extractors' parameters (the §IV complexity
//! discussion): BRW walk length `h`, BRW initial-set size, IBS `top-k`,
//! and the PPR tolerance `ε` — each swept against subgraph size,
//! extraction time and quality indicators.

use crate::{nc_extraction_task, Columns, Kg, World};
use kgtosa_core::{extract_brw, extract_ibs, QualityRow};
use kgtosa_sampler::{IbsConfig, PprConfig, WalkConfig};

pub struct Row {
    sweep: String,
    value: String,
    nodes: usize,
    triples: usize,
    seconds: f64,
    target_ratio_pct: f64,
    entropy: f64,
}

kgtosa_obs::json_row!(Row { sweep, value, nodes, triples, seconds, target_ratio_pct, entropy });

impl Columns for Row {
    const MEASURED: &'static [&'static str] = &["seconds"];
}

fn push(world: &World<'_>, rows: &mut Vec<Row>, sweep: &str, value: String, q: &QualityRow) {
    say!(
        world,
        "{:>10} {:>10} {:>8} {:>9} {:>9.4} {:>8.1}% {:>8.2}",
        sweep, value, q.num_nodes, q.num_triples, q.extraction_s, q.target_ratio_pct, q.avg_entropy
    );
    rows.push(Row {
        sweep: sweep.into(),
        value,
        nodes: q.num_nodes,
        triples: q.num_triples,
        seconds: q.extraction_s,
        target_ratio_pct: q.target_ratio_pct,
        entropy: q.avg_entropy,
    });
}

pub fn run(world: &World<'_>) -> Vec<Row> {
    let env = world.env;
    say!(world, "Ablation — sampling parameters (scale {})", env.scale);
    let dataset = world.dataset(Kg::Yago30);
    let kg = &dataset.gen.kg;
    let task = nc_extraction_task(&dataset.nc[0]);
    let graph = world.graph(Kg::Yago30);
    let mut rows = Vec::new();

    say!(
        world,
        "{:>10} {:>10} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "sweep", "value", "nodes", "triples", "time(s)", "V_T%", "entropy"
    );

    // BRW walk length.
    for h in [1usize, 2, 3, 5] {
        let res = extract_brw(
            kg,
            graph,
            &task,
            &WalkConfig { roots: task.targets.len(), walk_length: h },
            env.seed,
        );
        push(world, &mut rows, "brw_h", h.to_string(), &QualityRow::from_extraction(&res));
    }
    // BRW initial-set size.
    for frac in [0.1f64, 0.5, 1.0] {
        let roots = ((task.targets.len() as f64) * frac).max(1.0) as usize;
        let res = extract_brw(
            kg,
            graph,
            &task,
            &WalkConfig { roots, walk_length: 3 },
            env.seed,
        );
        push(world, &mut rows, "brw_roots", format!("{frac}"), &QualityRow::from_extraction(&res));
    }
    // IBS top-k.
    for k in [2usize, 8, 16, 32] {
        let res = extract_ibs(
            kg,
            graph,
            &task,
            &IbsConfig { k, threads: 4, ..Default::default() },
        );
        push(world, &mut rows, "ibs_k", k.to_string(), &QualityRow::from_extraction(&res));
    }
    // PPR tolerance.
    for eps in [1e-2f32, 1e-3, 2e-4, 1e-5] {
        let res = extract_ibs(
            kg,
            graph,
            &task,
            &IbsConfig {
                k: 16,
                threads: 4,
                ppr: PprConfig { alpha: 0.25, epsilon: eps },
                ..Default::default()
            },
        );
        push(world, &mut rows, "ppr_eps", format!("{eps:e}"), &QualityRow::from_extraction(&res));
    }

    say!(
        world,
        "\nExpected: larger h / roots / k / tighter ε all grow the subgraph \
         and the extraction cost — the overhead §IV says the SPARQL method avoids."
    );
    rows
}
