//! The end-to-end, layer-attributed benchmark of kgtosa-rs.
//!
//! ```text
//! kgtosa-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! kgtosa-benchmark                 every workload, untraced then traced
//! kgtosa-benchmark agree [--runs N] [--seconds S]
//! kgtosa-benchmark ladder [--seed N]
//! ```
//!
//! One run is one workload: set-up, then as many rounds of the four phases
//! (extraction, training, serve-read, update-stream) as fill `--seconds`,
//! with the workload's own phase at its calibrated scale or slice, then
//! the correctness checks. See README.md for why, and BENCHMARK.json for the metric list.

mod agree;
mod extract;
mod gen;
mod ladder;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;
mod update;
mod world;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use kgtosa_obs::Json;

use extract::Extract;
use report::Report;
use serve::Serve;
use spec::{Metric, Spec};
use trace::{self_times, Tracer};
use train::Train;
use update::Update;
use world::{
    generate, results_dir, train_full_graph, view_at, Daemon, Scratch, View, POOL_THREADS, SMALL,
};

// Installed exactly as the shipped CLI installs it, so allocation costs
// are the ones users pay and `kgtosa_memtrack` can report heap metrics.
#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

/// Times set-up is built per untraced run; `setup_s` is the best of them.
const SETUPS: usize = 2;
/// Rounds a run makes however small `--seconds` is.
const MIN_ROUNDS: usize = 2;
const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainPvMag,
    PagedExtract,
    ServeRead,
    UpdateStream,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TrainPvMag,
        Workload::PagedExtract,
        Workload::ServeRead,
        Workload::UpdateStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainPvMag => "train-pv-mag",
            Workload::PagedExtract => "paged-extract",
            Workload::ServeRead => "serve-read",
            Workload::UpdateStream => "update-stream",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// MAG scale of the training phase: 1 where training is the point.
    fn train_scale(self) -> f64 {
        if self == Workload::TrainPvMag {
            1.0
        } else {
            SMALL
        }
    }

    /// MAG scale of the extraction phase: 2 where paging is the point.
    fn extract_scale(self) -> f64 {
        if self == Workload::PagedExtract {
            2.0
        } else {
            SMALL
        }
    }

    /// Extraction slices per round. The small KG's slice is a third of a
    /// second, so it is repeated to give its metrics as many samples per
    /// run as the other phases' get.
    fn extract_slices(self) -> usize {
        if self == Workload::PagedExtract {
            1
        } else {
            3
        }
    }

    /// How long the two clients' closed loop runs each round.
    fn serve_slice(self) -> Duration {
        Duration::from_millis(if self == Workload::ServeRead {
            2_000
        } else {
            1_000
        })
    }

    /// Updates sent each round: enough that every run has a fastest decile
    /// worth the name, few enough that the stream ends before the daemon's
    /// slow regime takes over (README "update-stream").
    fn updates_per_round(self) -> usize {
        if self == Workload::UpdateStream {
            16
        } else {
            12
        }
    }

    /// What one round of the above takes on the reference sandbox. A run
    /// makes `--seconds` / this many rounds, to the nearest whole round, so
    /// every run of a workload does the same work: a run that stopped
    /// on the clock would sample least exactly when the host is busiest.
    fn round_seconds(self) -> f64 {
        match self {
            Workload::TrainPvMag => 8.8,
            Workload::PagedExtract => 6.3,
            Workload::ServeRead => 5.4,
            Workload::UpdateStream => 5.2,
        }
    }
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        runs: 10,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "agree" | "ladder" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds <= 0.0 || args.runs < 2 {
        return Err("--seconds must be positive and --runs at least 2".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args(&spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kgtosa-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), &args.workload) {
        (Some("agree"), _) => agree::run(&spec, args.runs, args.seconds, args.seed),
        (Some("ladder"), _) => ladder::run(args.seed),
        (_, Some(name)) => match Workload::parse(name) {
            Some(w) => run_workload(&spec, w, args.seed, args.seconds, args.trace),
            None => Err(format!(
                "unknown workload {name:?}; expected one of {:?}",
                spec.workloads
            )),
        },
        (_, None) => agree::run_all(&spec, args.seed, args.seconds),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kgtosa-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its result; `Ok(false)` when an operation
/// or a correctness check failed.
fn run_workload(
    spec: &Spec,
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<bool, String> {
    kgtosa_par::set_threads(POOL_THREADS);
    // Telemetry stays disarmed (no sink, no metrics listener); this only
    // silences the daemon's progress chatter on stderr.
    kgtosa_obs::set_quiet(true);
    let scratch = Scratch::new().map_err(|e| format!("create scratch directory: {e}"))?;
    let tracer = Tracer::new(trace);
    let mut report = Report::default();

    let mut scales = vec![SMALL, w.train_scale(), w.extract_scale()];
    scales.sort_by(|a, b| a.partial_cmp(b).expect("scales are finite"));
    scales.dedup();
    let setups = if trace { 1 } else { SETUPS };
    let (mut setup_s, mut checkpoint_hashes) = (Vec::new(), Vec::new());
    for setup in 0..setups {
        let started = Instant::now();
        let data = generate(&scales, seed, &tracer);
        let views: Vec<(f64, View<'_>)> = data
            .iter()
            .map(|(scale, d)| (*scale, View::build(d, &tracer)))
            .collect();
        let small = view_at(&views, SMALL);
        let checkpoints = scratch.dir(&format!("checkpoints-{setup}"));
        checkpoint_hashes.push(train_full_graph(small, seed, Some(&checkpoints)).param_hash);
        // Two daemons on the same KG and checkpoint: updates grow the
        // written one's graph, after which its `/infer` no longer fits the
        // checkpoint, so reads are timed against one that is never updated.
        let start = |role: &str| {
            let cache = scratch.dir(&format!("cache-{role}-{setup}"));
            Daemon::start(seed, small.task(), &checkpoints, &cache)
        };
        let (reader, writer) = (start("read")?, start("write")?);
        setup_s.push(started.elapsed().as_secs_f64());
        if setup + 1 < setups {
            reader.shutdown()?;
            writer.shutdown()?;
            continue;
        }

        let mut extract = Extract::new(view_at(&views, w.extract_scale()), w.extract_scale(), seed);
        let mut train = Train::new(view_at(&views, w.train_scale()), seed);
        let mut serve = Serve::new(&reader, small, w.serve_slice(), seed);
        let mut update = Update::new(&writer, small, w.updates_per_round(), seed);
        let mut peak_bytes = 0;
        kgtosa_memtrack::reset_peak();
        tracer.span("run", || {
            let mut round = |i: usize| {
                tracer.set_id(i as u64);
                let started = Instant::now();
                for _ in 0..w.extract_slices() {
                    extract.round(&tracer);
                }
                train.round(&tracer);
                let batch_s = started.elapsed().as_secs_f64();
                serve.round(&tracer);
                // Read before the first update: what updates leak has its
                // own metric.
                if i == 0 {
                    peak_bytes = kgtosa_memtrack::peak_bytes();
                }
                update.round(&tracer, &mut report);
                batch_s
            };
            if trace {
                // Two rounds of identical batch work, the first with
                // recording suspended: their difference is the overhead.
                let untraced_s = tracer.suspended(|| round(0));
                let traced_s = round(1);
                report.set(
                    "bench.trace_overhead_pct",
                    (traced_s / untraced_s - 1.0) * 100.0,
                );
            } else {
                let rounds = (seconds / w.round_seconds()).round() as usize;
                for i in 0..rounds.max(MIN_ROUNDS) {
                    round(i);
                }
            }
        });
        let fg_param_hash = tracer.span("finish", || {
            extract.finish(&tracer, &mut report);
            let fg_param_hash = train.finish(&tracer, &mut report);
            serve.finish(&tracer, &mut report);
            update.finish(&scratch.dir("replay-cache"), &tracer, &mut report);
            fg_param_hash
        });
        report.set("peak_heap_mb", peak_bytes as f64 / (1024.0 * 1024.0));
        report.set("setup_s", stats::best(&setup_s));
        for daemon in [reader, writer] {
            let drained = daemon.shutdown()?;
            report.op(drained.handler_panics == 0, || {
                format!("{} handler panics", drained.handler_panics)
            });
        }
        // Every full-graph RGCN run on the small KG — each set-up's served
        // checkpoint and, where it used the same KG, the training phase's —
        // must end in the same state.
        if w.train_scale() == SMALL {
            checkpoint_hashes.push(fg_param_hash);
        }
        report.op(
            checkpoint_hashes.iter().all(|&h| h == checkpoint_hashes[0]),
            || format!("full-graph RGCN runs disagree on param_hash: {checkpoint_hashes:x?}"),
        );
    }
    drop(scratch);

    if trace {
        finish_trace(w, &tracer, &mut report)?;
    }
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    print_result(declared, &report)
}

/// Per-layer values that come from set-up spans, the telescoping check,
/// and the trace file.
fn finish_trace(w: Workload, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    report.set(
        "datagen.mag.s",
        tracer.durations("datagen.mag").iter().sum(),
    );
    report.set(
        "rdf.store_build.s",
        tracer.durations("rdf.store_build").iter().sum(),
    );

    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let root = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("the run span");
    let phases: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(trace::Span::duration)
        .sum();
    let gap = (selfs[root] + phases - spans[root].duration()).abs() / spans[root].duration();
    report.op(gap < 0.01, || {
        format!(
            "top-level spans miss the run's wall by {:.2} %",
            gap * 100.0
        )
    });

    let path = results_dir().join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, tracer.to_json(w.name()).to_string())
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Prints every declared metric by name with its unit, the failed
/// operations, and — last — the one-line JSON result.
fn print_result(declared: &[Metric], report: &Report) -> Result<bool, String> {
    let mut metrics = Vec::new();
    for m in declared {
        let value = *report
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("metric {} was declared but not measured", m.name))?;
        println!("{:<36} {:>16.4} {}", m.name, value, m.unit);
        metrics.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let correct = report.failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{result}");
    Ok(correct)
}
