//! `ladder`: the paper's central claim as a curve. The paged d1h1
//! extraction of the paper-venue task at MAG scale 1, 2 and 4, page size
//! scaled so every rung fetches over ≈55 pages, beside the same
//! extraction in one page — written to `results/ladder.json` as a
//! plot-ready table of extraction time against |KG| and against |TOSG|.
//! Outside the timed runs; ROADMAP item 1's "curve rather than a sentence".

use std::time::Instant;

use kgtosa_bench::nc_extraction_task;
use kgtosa_core::{extract_sparql, GraphPattern};
use kgtosa_obs::Json;
use kgtosa_rdf::{FetchConfig, RdfStore};

use crate::stats::median;
use crate::world::{results_dir, POOL_THREADS};

const SCALES: [f64; 3] = [1.0, 2.0, 4.0];
/// Page size per unit of scale: 5 000 at scale 4, as `paged-extract` uses.
const BS_PER_SCALE: f64 = 1_250.0;
const REPS: usize = 3;

pub fn run(seed: u64) -> Result<bool, String> {
    kgtosa_par::set_threads(POOL_THREADS);
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "scale", "kg_triples", "tosg_triples", "requests", "paged_s", "onepage_s"
    );
    let mut rows = Vec::new();
    for scale in SCALES {
        let data = kgtosa_datagen::mag(scale, seed);
        let store = RdfStore::new(&data.gen.kg);
        let task = nc_extraction_task(&data.nc[0]);
        let timed = |bs: usize| {
            let fetch = FetchConfig {
                batch_size: bs,
                ..FetchConfig::default()
            };
            let mut seconds = Vec::new();
            let mut last = None;
            for _ in 0..REPS {
                let started = Instant::now();
                last = Some(extract_sparql(&store, &task, &GraphPattern::D1H1, &fetch));
                seconds.push(started.elapsed().as_secs_f64());
            }
            let result = last
                .expect("REPS > 0")
                .map_err(|e| format!("extraction failed: {e}"))?;
            Ok::<_, String>((median(&seconds), result.report))
        };
        let (paged_s, paged) = timed((BS_PER_SCALE * scale) as usize)?;
        let (onepage_s, _) = timed(usize::MAX)?;
        let kg_triples = data.gen.kg.num_triples();
        println!(
            "{scale:>6} {kg_triples:>12} {:>12} {:>9} {paged_s:>10.4} {onepage_s:>10.4}",
            paged.triples, paged.requests
        );
        rows.push(Json::Obj(vec![
            ("scale".into(), Json::Num(scale)),
            ("kg_triples".into(), Json::Num(kg_triples as f64)),
            ("tosg_triples".into(), Json::Num(paged.triples as f64)),
            ("requests".into(), Json::Num(paged.requests as f64)),
            ("paged_s".into(), Json::Num(paged_s)),
            ("onepage_s".into(), Json::Num(onepage_s)),
        ]));
    }
    let table = Json::Obj(vec![
        ("task".into(), Json::Str("PV/MAG".into())),
        ("pattern".into(), Json::Str("d1h1".into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("ladder.json");
    std::fs::write(&path, table.to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(true)
}
