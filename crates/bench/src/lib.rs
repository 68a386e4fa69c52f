//! # kgtosa-bench — the experiment harness
//!
//! One binary, `reproduce`, regenerates every table and figure of the
//! paper (see DESIGN.md §5); its only arguments are experiment names
//! (`cargo run --release -p kgtosa-bench --bin reproduce -- <name>…|all`):
//!
//! | experiment | regenerates |
//! |---|---|
//! | `table1` | Table I — benchmark statistics |
//! | `table2` | Table II — task summary |
//! | `fig1` | Figure 1 — motivation: FG vs handcrafted vs KG-TOSA |
//! | `fig2_fig5` | Figures 2 & 5 — URW vs BRW sample composition |
//! | `fig6`, `fig6_supplement` | Figure 6 — NC tasks, 4 methods × FG/KG' |
//! | `fig7` | Figure 7 — LP tasks, 3 methods × FG/KG' |
//! | `fig8` | Figure 8 — BRW/IBS vs the four SPARQL variants |
//! | `fig9` | Figure 9 — convergence traces FG vs KG' |
//! | `table3` | Table III — subgraph quality indicators |
//! | `table4` | Table IV — cost breakdown for the six NC tasks |
//! | `kg_completion` | §V-B2 — completion vs predicate-scoped LP |
//! | `ablation_basis`, `ablation_engine`, `ablation_sampling` | ablations |
//! | `cache`, `chaos` | cold/warm extraction, extraction under faults |
//!
//! Each experiment is a `experiments::<name>::run(&World) -> rows`
//! function over one shared [`World`]; the driver writes the rows to
//! `results/<name>.json`. Configuration is the environment variables
//! `KGTOSA_SCALE` (dataset scale factor, default 0.1), `KGTOSA_SEED`,
//! `KGTOSA_EPOCHS`, `KGTOSA_DIM` ([`Env::from_env`]). The `kernels`,
//! `loadgen` and `update` binaries are separate because CI gates on them.

/// `println!` on an experiment's console table, silent when the [`World`]
/// has no output directory.
macro_rules! say {
    ($world:expr, $($arg:tt)*) => {
        $world.say(format_args!($($arg)*))
    };
}

pub mod experiments;

use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use kgtosa_core::{extract_sparql, ExtractionResult, ExtractionTask, GraphPattern, QualityRow};
use kgtosa_datagen::{Dataset, GeneratedKg, LpTask, NcTask};
use kgtosa_kg::{HeteroGraph, InducedSubgraph, Triple, Vid};
use kgtosa_models::{
    train_graphsaint_nc, train_lhgnn_lp, train_morse_lp, train_rgcn_lp, train_rgcn_nc,
    train_sehgnn_nc, train_shadowsaint_nc, LpDataset, NcDataset, SaintSampler, TrainConfig,
    TrainReport,
};
use kgtosa_obs::Json;
use kgtosa_rdf::{FetchConfig, RdfStore};

/// Experiment-wide knobs, read from the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Env {
    /// Dataset scale factor relative to the `scale = 1` presets.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Training epochs per run.
    pub epochs: usize,
    /// Embedding dimension.
    pub dim: usize,
}

kgtosa_obs::json_row!(Env { scale, seed, epochs, dim });

impl Env {
    /// Parses the four knobs from `lookup` — the process environment in
    /// [`Env::from_env`], a closure in tests. An unset variable takes its
    /// default; a set one that does not parse is an error naming the
    /// variable and the value, never a silent default.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn get<T: std::str::FromStr>(
            lookup: &impl Fn(&str) -> Option<String>,
            key: &str,
            default: T,
            what: &str,
            valid: impl Fn(&T) -> bool,
        ) -> Result<T, String> {
            let Some(v) = lookup(key) else { return Ok(default) };
            let parsed = v.trim().parse().ok().filter(valid);
            parsed.ok_or_else(|| format!("{key}={v:?}: expected {what}"))
        }
        let unsigned = "an unsigned integer";
        Ok(Self {
            scale: get(&lookup, "KGTOSA_SCALE", 0.1, "a finite number > 0", |s: &f64| {
                s.is_finite() && *s > 0.0
            })?,
            seed: get(&lookup, "KGTOSA_SEED", 7, unsigned, |_| true)?,
            epochs: get(&lookup, "KGTOSA_EPOCHS", 15, unsigned, |_| true)?,
            dim: get(&lookup, "KGTOSA_DIM", 16, unsigned, |_| true)?,
        })
    }

    /// [`Env::parse`] over the process environment, after
    /// [`arm_telemetry`]; a malformed variable ends the process with
    /// exit code 2 and the parse error on stderr.
    pub fn from_env() -> Self {
        arm_telemetry();
        Self::parse(|k| std::env::var(k).ok()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// The shared training configuration. Epoch telemetry is attached only
    /// when a trace sink is active: bench binaries run dozens of training
    /// jobs, and unconditional per-epoch stderr lines would drown the
    /// printed tables.
    pub fn train_config(&self) -> TrainConfig {
        let observer = if kgtosa_obs::trace_enabled() {
            kgtosa_obs::Observer::new(kgtosa_obs::TelemetryObserver)
        } else {
            kgtosa_obs::Observer::none()
        };
        TrainConfig {
            epochs: self.epochs,
            dim: self.dim,
            lr: 0.02,
            seed: self.seed,
            batch_size: 512,
            negatives: 4,
            margin: 2.0,
            observer,
            checkpoint: None,
        }
    }
}

/// Arms the JSONL trace sink when `KGTOSA_TRACE` names a file and the live
/// metrics endpoint when `KGTOSA_METRICS_ADDR` names an address, so every
/// bench binary can be traced and scraped without code changes. A panic
/// hook flushes the trace on crash, so a failed run still leaves an
/// inspectable JSONL file behind.
pub fn arm_telemetry() {
    kgtosa_obs::install_panic_hook();
    kgtosa_obs::init_trace_from_env();
    kgtosa_obs::init_serve_from_env();
}

/// An NC task remapped into a subgraph's id space.
pub struct NcView {
    /// Per-subgraph-vertex labels.
    pub labels: Vec<u32>,
    /// Remapped training split.
    pub train: Vec<Vid>,
    /// Remapped validation split.
    pub valid: Vec<Vid>,
    /// Remapped test split.
    pub test: Vec<Vid>,
}

/// Remaps an NC task into subgraph ids (targets lost by extraction are
/// dropped from their splits).
pub fn remap_nc(sub: &InducedSubgraph, task: &NcTask) -> NcView {
    let mut labels = vec![u32::MAX; sub.kg.num_nodes()];
    for v in 0..sub.kg.num_nodes() as u32 {
        labels[v as usize] = task.labels[sub.map_up(Vid(v)).idx()];
    }
    let map = |nodes: &[Vid]| -> Vec<Vid> {
        nodes.iter().filter_map(|&v| sub.map_down(v)).collect()
    };
    NcView {
        labels,
        train: map(&task.train),
        valid: map(&task.valid),
        test: map(&task.test),
    }
}

/// Remaps LP triples into subgraph ids, dropping triples whose endpoints
/// or predicate did not survive.
pub fn remap_lp(
    sub: &InducedSubgraph,
    parent: &kgtosa_kg::KnowledgeGraph,
    triples: &[Triple],
) -> Vec<Triple> {
    triples
        .iter()
        .filter_map(|t| {
            Some(Triple::new(
                sub.map_down(t.s)?,
                sub.kg.find_relation(parent.relation_term(t.p))?,
                sub.map_down(t.o)?,
            ))
        })
        .collect()
}

/// Builds the extraction task of an NC benchmark task.
pub fn nc_extraction_task(task: &NcTask) -> ExtractionTask {
    ExtractionTask::node_classification(&task.name, &task.target_class, task.targets())
}

/// Builds the extraction task of an LP benchmark task.
pub fn lp_extraction_task(task: &LpTask, gen: &GeneratedKg) -> ExtractionTask {
    ExtractionTask::link_prediction(
        &task.name,
        vec![task.src_class.clone(), task.dst_class.clone()],
        task.target_nodes(gen),
        &task.predicate,
    )
}

/// The four NC methods of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NcMethod {
    /// Full-batch RGCN.
    Rgcn,
    /// GraphSAINT (URW sampler).
    GraphSaint,
    /// ShaDowSAINT.
    ShadowSaint,
    /// SeHGNN.
    SeHgnn,
}

impl NcMethod {
    /// All four, in the paper's plotting order.
    pub const ALL: [NcMethod; 4] = [
        NcMethod::Rgcn,
        NcMethod::GraphSaint,
        NcMethod::ShadowSaint,
        NcMethod::SeHgnn,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NcMethod::Rgcn => "RGCN",
            NcMethod::GraphSaint => "GraphSAINT",
            NcMethod::ShadowSaint => "ShaDowSAINT",
            NcMethod::SeHgnn => "SeHGNN",
        }
    }

    /// Runs the method on a dataset view.
    pub fn run(self, data: &NcDataset<'_>, cfg: &TrainConfig) -> TrainReport {
        match self {
            NcMethod::Rgcn => train_rgcn_nc(data, cfg),
            NcMethod::GraphSaint => train_graphsaint_nc(data, cfg, SaintSampler::Uniform),
            NcMethod::ShadowSaint => train_shadowsaint_nc(data, cfg),
            NcMethod::SeHgnn => train_sehgnn_nc(data, cfg),
        }
    }
}

/// The three LP methods of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpMethod {
    /// RGCN encoder + DistMult.
    Rgcn,
    /// MorsE-TransE.
    Morse,
    /// LHGNN.
    Lhgnn,
}

impl LpMethod {
    /// All three, in the paper's plotting order.
    pub const ALL: [LpMethod; 3] = [LpMethod::Rgcn, LpMethod::Morse, LpMethod::Lhgnn];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LpMethod::Rgcn => "RGCN",
            LpMethod::Morse => "MorsE",
            LpMethod::Lhgnn => "LHGNN",
        }
    }

    /// Runs the method on a dataset view.
    pub fn run(self, data: &LpDataset<'_>, cfg: &TrainConfig) -> TrainReport {
        match self {
            LpMethod::Rgcn => train_rgcn_lp(data, cfg),
            LpMethod::Morse => train_morse_lp(data, cfg),
            LpMethod::Lhgnn => train_lhgnn_lp(data, cfg),
        }
    }
}

/// A `(result, seconds, peak_heap_bytes)` measurement of `f`.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, usize) {
    let start = Instant::now();
    let (out, peak) = kgtosa_memtrack::measure_peak(f);
    (out, start.elapsed().as_secs_f64(), peak)
}

/// The columns of a result row. Every column the row serializes is
/// deterministic — a function of `Env` and the code alone, pinned exactly
/// by the golden gate (`tests/golden.rs`) — except the ones named here,
/// which are measured (seconds, bytes): single-run and host-dependent.
pub trait Columns: Into<Json> {
    /// The measured columns.
    const MEASURED: &'static [&'static str];
}

impl Columns for QualityRow {
    const MEASURED: &'static [&'static str] = &["extraction_s"];
}

/// One experiment record, serialized to `results/<file>.json`.
#[derive(Debug, Clone)]
pub struct Record {
    /// Task name.
    pub task: String,
    /// Method name.
    pub method: String,
    /// Input graph label (`FG`, `KG-TOSA_d1h1`, `BRW`, ...).
    pub input: String,
    /// Final metric (accuracy or Hits@10).
    pub metric: f64,
    /// Extraction (preprocessing) seconds.
    pub extraction_s: f64,
    /// Transformation seconds.
    pub transformation_s: f64,
    /// Training seconds.
    pub training_s: f64,
    /// Inference seconds.
    pub inference_s: f64,
    /// Trainable parameters.
    pub params: usize,
    /// Peak heap bytes during the run.
    pub peak_bytes: usize,
    /// Subgraph triples (0 for FG).
    pub subgraph_triples: usize,
    /// Convergence trace (elapsed_s, metric) pairs.
    pub trace: Vec<(f64, f64)>,
    /// `TrainReport::param_hash` of the final trainable state, in hex (a
    /// JSON number cannot carry 64 bits).
    pub param_hash: String,
}

kgtosa_obs::json_row!(Record {
    task,
    method,
    input,
    metric,
    extraction_s,
    transformation_s,
    training_s,
    inference_s,
    params,
    peak_bytes,
    subgraph_triples,
    trace,
    param_hash,
});

impl Columns for Record {
    const MEASURED: &'static [&'static str] = &[
        "extraction_s",
        "transformation_s",
        "training_s",
        "inference_s",
        "peak_bytes",
        "trace",
    ];
}

/// Writes a report as pretty JSON to `results/<name>.json`.
pub fn save_json(name: &str, value: impl Into<Json>) {
    write_json(Path::new("results"), name, &value.into().to_string_pretty());
}

fn write_json(dir: &Path, name: &str, json: &str) {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results");
    eprintln!("[saved {}]", path.display());
}

/// Prints a formatted metric/time/memory block like the paper's grouped
/// bar panels.
pub fn print_panel(world: &World<'_>, title: &str, rows: &[Record]) {
    say!(world, "\n=== {title} ===");
    say!(
        world,
        "{:<14} {:<14} {:>9} {:>9} {:>9} {:>9} {:>11} {:>10}",
        "method", "input", "metric", "prep(s)", "train(s)", "infer(s)", "params", "peak-mem"
    );
    for r in rows {
        say!(
            world,
            "{:<14} {:<14} {:>9.4} {:>9.2} {:>9.2} {:>9.3} {:>11} {:>10}",
            r.method,
            r.input,
            r.metric,
            r.extraction_s + r.transformation_s,
            r.training_s,
            r.inference_s,
            r.params,
            kgtosa_memtrack::format_bytes(r.peak_bytes),
        );
    }
}

/// Quality-row printing shared by the table3/fig2 experiments.
pub fn print_quality(world: &World<'_>, title: &str, rows: &[QualityRow]) {
    say!(world, "\n=== {title} ===");
    say!(world, "{}", QualityRow::header());
    for r in rows {
        say!(world, "{}", r.format_row());
    }
}

/// Trains an NC method on the full graph, measuring the whole
/// transform+train pipeline (Figure 6's "FG" bars).
pub fn nc_fg_record(
    kg: &kgtosa_kg::KnowledgeGraph,
    task: &NcTask,
    method: NcMethod,
    cfg: &TrainConfig,
) -> Record {
    let ((report, transformation_s), _, peak) = measure(|| {
        let (graph, transformation_s) = kgtosa_core::transform(kg);
        let data = NcDataset {
            kg,
            graph: &graph,
            labels: &task.labels,
            num_labels: task.num_labels,
            train: &task.train,
            valid: &task.valid,
            test: &task.test,
        };
        (method.run(&data, cfg), transformation_s)
    });
    record_from_report(task.name.clone(), "FG", report, 0.0, transformation_s, peak, 0)
}

/// Trains an NC method on an extracted TOSG (any extraction method),
/// measuring transform+train and carrying the extraction cost.
pub fn nc_tosg_record(
    task: &NcTask,
    extraction: &kgtosa_core::ExtractionResult,
    method: NcMethod,
    cfg: &TrainConfig,
) -> Record {
    let sub = &extraction.subgraph;
    let view = remap_nc(sub, task);
    let ((report, transformation_s), _, peak) = measure(|| {
        let (graph, transformation_s) = kgtosa_core::transform(&sub.kg);
        let data = NcDataset {
            kg: &sub.kg,
            graph: &graph,
            labels: &view.labels,
            num_labels: task.num_labels,
            train: &view.train,
            valid: &view.valid,
            test: &view.test,
        };
        (method.run(&data, cfg), transformation_s)
    });
    record_from_report(
        task.name.clone(),
        &extraction.report.method,
        report,
        extraction.report.seconds,
        transformation_s,
        peak,
        extraction.report.triples,
    )
}

/// Trains an LP method on the full graph.
pub fn lp_fg_record(
    kg: &kgtosa_kg::KnowledgeGraph,
    task: &LpTask,
    method: LpMethod,
    cfg: &TrainConfig,
) -> Record {
    let ((report, transformation_s), _, peak) = measure(|| {
        let (graph, transformation_s) = kgtosa_core::transform(kg);
        let data = LpDataset {
            kg,
            graph: &graph,
            train: &task.train,
            valid: &task.valid,
            test: &task.test,
        };
        (method.run(&data, cfg), transformation_s)
    });
    record_from_report(task.name.clone(), "FG", report, 0.0, transformation_s, peak, 0)
}

/// Trains an LP method on an extracted TOSG.
pub fn lp_tosg_record(
    parent: &kgtosa_kg::KnowledgeGraph,
    task: &LpTask,
    extraction: &kgtosa_core::ExtractionResult,
    method: LpMethod,
    cfg: &TrainConfig,
) -> Record {
    let sub = &extraction.subgraph;
    let train = remap_lp(sub, parent, &task.train);
    let valid = remap_lp(sub, parent, &task.valid);
    let test = remap_lp(sub, parent, &task.test);
    let ((report, transformation_s), _, peak) = measure(|| {
        let (graph, transformation_s) = kgtosa_core::transform(&sub.kg);
        let data = LpDataset {
            kg: &sub.kg,
            graph: &graph,
            train: &train,
            valid: &valid,
            test: &test,
        };
        (method.run(&data, cfg), transformation_s)
    });
    record_from_report(
        task.name.clone(),
        &extraction.report.method,
        report,
        extraction.report.seconds,
        transformation_s,
        peak,
        extraction.report.triples,
    )
}

/// The row of one training run: `report`'s columns plus what the caller
/// measured around it.
pub fn record_from_report(
    task: String,
    input: &str,
    report: TrainReport,
    extraction_s: f64,
    transformation_s: f64,
    peak_bytes: usize,
    subgraph_triples: usize,
) -> Record {
    Record {
        task,
        method: report.method.clone(),
        input: input.to_string(),
        metric: report.metric,
        extraction_s,
        transformation_s,
        training_s: report.training_s,
        inference_s: report.inference_s,
        params: report.param_count,
        peak_bytes,
        subgraph_triples,
        trace: report.trace.iter().map(|p| (p.elapsed_s, p.metric)).collect(),
        param_hash: format!("{:016x}", report.param_hash),
    }
}

/// The five benchmark KGs in Table I order (the order of
/// `kgtosa_datagen::all_datasets`, which also owns the per-dataset seed
/// offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kg {
    /// MAG-42M: PV/MAG, PD/MAG.
    Mag,
    /// YAGO-30M: PC/YAGO, CG/YAGO.
    Yago30,
    /// DBLP-15M: PV/DBLP, AC/DBLP, AA/DBLP.
    Dblp,
    /// ogbl-wikikg2: PO/wikikg2.
    Wikikg2,
    /// YAGO3-10: CA/YAGO3-10.
    Yago310,
}

/// The generated KGs a [`World`] borrows (an `RdfStore` borrows its KG, so
/// the owner has to outlive the world). All five are generated together,
/// on first use.
pub struct Datasets {
    env: Env,
    all: OnceCell<Vec<Dataset>>,
}

impl Datasets {
    /// Nothing is generated yet.
    pub fn new(env: Env) -> Self {
        Self { env, all: OnceCell::new() }
    }
}

/// What every experiment derives from `Env` before it measures anything:
/// the datasets, their stores and adjacency, and the d1h1 extraction of
/// each NC task — each built once, on first use. Training runs are never
/// shared: every row trains (and measures) its own.
pub struct World<'d> {
    /// The configuration everything here was derived from.
    pub env: Env,
    data: &'d Datasets,
    out: Option<PathBuf>,
    stores: [OnceCell<RdfStore<'d>>; 5],
    graphs: [OnceCell<HeteroGraph>; 5],
    d1h1: [[OnceCell<ExtractionResult>; 2]; 5],
}

impl<'d> World<'d> {
    /// `out` is where the driver writes `<name>.json` (and experiments
    /// their scratch). `None` is no output at all — no file, no console
    /// table: the rows are only returned.
    pub fn new(data: &'d Datasets, out: Option<PathBuf>) -> Self {
        Self {
            env: data.env,
            data,
            out,
            stores: Default::default(),
            graphs: Default::default(),
            d1h1: Default::default(),
        }
    }

    /// The output directory, if the caller gave one.
    pub fn out(&self) -> Option<&Path> {
        self.out.as_deref()
    }

    /// Prints one line of an experiment's console table (see `say!`).
    pub fn say(&self, line: std::fmt::Arguments<'_>) {
        if self.out.is_some() {
            println!("{line}");
        }
    }

    /// All five datasets, in Table I order.
    pub fn datasets(&self) -> &'d [Dataset] {
        let env = self.env;
        self.data.all.get_or_init(|| kgtosa_datagen::all_datasets(env.scale, env.seed))
    }

    /// One dataset.
    pub fn dataset(&self, kg: Kg) -> &'d Dataset {
        &self.datasets()[kg as usize]
    }

    /// The dataset's hexastore-backed RDF store.
    pub fn store(&self, kg: Kg) -> &RdfStore<'d> {
        self.stores[kg as usize].get_or_init(|| RdfStore::new(&self.dataset(kg).gen.kg))
    }

    /// The dataset's full-graph adjacency.
    pub fn graph(&self, kg: Kg) -> &HeteroGraph {
        self.graphs[kg as usize].get_or_init(|| HeteroGraph::build(&self.dataset(kg).gen.kg))
    }

    /// `KG-TOSA_{d1h1}` (the paper's NC default) of the dataset's
    /// `nc`-th node-classification task.
    pub fn d1h1(&self, kg: Kg, nc: usize) -> &ExtractionResult {
        self.d1h1[kg as usize][nc].get_or_init(|| {
            let task = nc_extraction_task(&self.dataset(kg).nc[nc]);
            extract_sparql(self.store(kg), &task, &GraphPattern::D1H1, &FetchConfig::default())
                .expect("extraction")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Env, String> {
        Env::parse(|k| vars.iter().find(|(name, _)| *name == k).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn env_defaults() {
        let env = parse(&[]).unwrap();
        assert_eq!((env.scale, env.seed, env.epochs, env.dim), (0.1, 7, 15, 16));
    }

    #[test]
    fn env_reads_each_variable_at_its_own_width() {
        let env = parse(&[
            ("KGTOSA_SCALE", "0.25"),
            ("KGTOSA_SEED", "18446744073709551615"),
            ("KGTOSA_EPOCHS", " 3 "),
            ("KGTOSA_DIM", "8"),
        ])
        .unwrap();
        assert_eq!((env.scale, env.seed, env.epochs, env.dim), (0.25, u64::MAX, 3, 8));
    }

    #[test]
    fn env_rejects_malformed_values_naming_variable_and_value() {
        for (key, value) in [
            ("KGTOSA_EPOCHS", "2O"),
            ("KGTOSA_EPOCHS", "1.5"),
            ("KGTOSA_EPOCHS", "-1"),
            ("KGTOSA_DIM", ""),
            ("KGTOSA_SEED", "18446744073709551616"),
            ("KGTOSA_SEED", "7.0"),
            ("KGTOSA_SCALE", "0"),
            ("KGTOSA_SCALE", "-0.1"),
            ("KGTOSA_SCALE", "inf"),
            ("KGTOSA_SCALE", "NaN"),
            ("KGTOSA_SCALE", "fast"),
        ] {
            let err = parse(&[(key, value)]).expect_err(value);
            assert!(err.contains(key), "{err}");
            assert!(err.contains(&format!("{value:?}")), "{err}");
        }
    }

    #[test]
    fn method_tables_complete() {
        assert_eq!(NcMethod::ALL.len(), 4);
        assert_eq!(LpMethod::ALL.len(), 3);
        assert_eq!(NcMethod::SeHgnn.name(), "SeHGNN");
        assert_eq!(LpMethod::Morse.name(), "MorsE");
    }

    #[test]
    fn measure_returns_value() {
        let (v, secs, _bytes) = measure(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn remap_nc_preserves_labels() {
        let mut kg = kgtosa_kg::KnowledgeGraph::new();
        kg.add_triple_terms("a", "T", "r", "b", "T");
        let task = kgtosa_datagen::NcTask {
            name: "t".into(),
            target_class: "T".into(),
            labels: vec![0, 1],
            num_labels: 2,
            split: kgtosa_datagen::SplitKind::Time,
            train: vec![Vid(0)],
            valid: vec![],
            test: vec![Vid(1)],
        };
        let keep = kgtosa_kg::NodeSet::from_iter(2, [Vid(1)]);
        let sub = kgtosa_kg::induced_subgraph(&kg, &keep);
        let view = remap_nc(&sub, &task);
        assert_eq!(view.labels, vec![1]);
        assert!(view.train.is_empty());
        assert_eq!(view.test.len(), 1);
    }
}
