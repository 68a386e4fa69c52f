//! `reproduce <name>…|all` — regenerates the paper's tables, figures and
//! ablations (see `kgtosa_bench::experiments`) over one shared world and
//! writes `results/<name>.json`; `reproduce golden` prints the golden file
//! of `crates/bench/tests/golden.rs` to stdout instead. Configuration is
//! `KGTOSA_SCALE/SEED/EPOCHS/DIM` only.

use kgtosa_bench::experiments::{self, ALL, SMOKE};
use kgtosa_bench::{Datasets, Env, World};

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names == ["golden"] {
        print!("{}", experiments::golden(SMOKE, ALL));
        return;
    }
    let selected = experiments::select(&names).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let data = Datasets::new(Env::from_env());
    experiments::run(&World::new(&data, Some("results".into())), &selected);
}
