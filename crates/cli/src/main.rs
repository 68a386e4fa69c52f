//! `kgtosa` — the command-line interface of the KG-TOSA reproduction.
//!
//! ```text
//! kgtosa generate --dataset mag --scale 0.1 --out mag.nt
//! kgtosa stats    --kg mag.nt [--target-class Paper]
//! kgtosa query    --kg mag.nt --sparql 'SELECT ?s WHERE { ?s a <Paper> } LIMIT 5'
//! kgtosa extract  --kg mag.nt --target-class Paper --method sparql --pattern d1h1 --out tosg.nt
//! kgtosa train    --dataset mag --task PV/MAG --method graphsaint [--tosg d1h1]
//! kgtosa compare  --dataset dblp --task PV/DBLP --method rgcn
//! ```

mod args;
mod commands;

use args::Args;

#[global_allocator]
static ALLOC: kgtosa_memtrack::TrackingAllocator = kgtosa_memtrack::TrackingAllocator;

const USAGE: &str = "\
kgtosa — task-oriented subgraph extraction for HGNN training (ICDE'24 reproduction)

USAGE: kgtosa <command> [--options]

COMMANDS:
  generate   Generate a benchmark KG and write it out
               --dataset mag|yago30|dblp|wikikg2|yago3-10  --out FILE
               [--scale 0.1] [--seed 7]
               (FILE ending in .kgb writes the compact binary snapshot
                format; anything else writes N-Triples)
  stats      Print statistics of an N-Triples KG
               --kg FILE [--target-class CLASS]
  query      Run a SPARQL query against an N-Triples KG
               --kg FILE --sparql QUERY [--limit N] [--explain]
  extract    Extract a task-oriented subgraph
               --kg FILE --target-class CLASS --out FILE
               [--method sparql|brw|ibs|metapath] [--pattern d1h1|d2h1|d1h2|d2h2]
               [--walk-length 3] [--roots 2000] [--top-k 16] [--seed 7]
               (sparql method also honours the fault-tolerance options)
  train      Train a GNN method on a generated benchmark task
               --dataset NAME --task NAME --method rgcn|graphsaint|shadowsaint|sehgnn|rgcn-lp|morse|lhgnn
               [--tosg d1h1] [--scale 0.1] [--epochs 15] [--dim 16] [--seed 7]
  compare    Train on FG and on the KG-TOSA subgraph, print both
               (same options as train)
  serve      Run the overload-safe extraction/inference daemon
               --addr HOST:PORT (port 0 picks a free port, printed on
               stdout) [--dataset mag] [--scale 0.05] [--seed 7]
               [--dim 16] [--lr 0.02] [--workers 4] [--queue-cap 64]
               [--max-inflight-bytes 8388608] [--max-body-bytes 1048576]
               [--default-deadline-ms 2000] [--max-deadline-ms 30000]
               [--breaker trip=5,cooldown=16,seed=7] [--retry SPEC]
               [--fault-spec SPEC] [--cache-dir DIR]
               [--checkpoint-dir DIR (serves its *.ckpt via POST /infer)]
             Routes: POST /extract {task|target_class, pattern,
             deadline_ms}, POST /infer {checkpoint, task, nodes},
             GET /serve (live stats), POST /admin/fault, POST
             /admin/shutdown, plus the obs /metrics family. Admission
             beyond --queue-cap or the in-flight byte budget sheds with
             429; SIGTERM/SIGINT drains gracefully and exits 0.
  cache      Inspect or reset the extraction artifact cache
               kgtosa cache ls|stats|clear (--cache-dir DIR or
               KGTOSA_CACHE_DIR=DIR)
  trace-summary
             Aggregate a JSONL trace into a per-span table with self time
             (wall minus direct children) and its share of the run
               kgtosa trace-summary trace.jsonl
  trace-diff Compare two JSONL traces (or BENCH_*.json reports) per span
             and exit nonzero on regressions beyond the threshold
               kgtosa trace-diff OLD NEW [--threshold 25]
               [--min-seconds 0.001]
  trace-chrome
             Render a JSONL trace (a killed run's too) as a validated
             Chrome-trace / Perfetto file for ui.perfetto.dev: a process
             track per telemetry context, a thread track per thread;
             exits nonzero on a malformed trace
               kgtosa trace-chrome run.jsonl trace.json
  help       Show this message

GLOBAL OPTIONS (any command):
  --trace-out FILE   Write a JSONL event trace (spans, train.epoch, logs,
                     final metrics); KGTOSA_TRACE=FILE does the same
  --threads N        Worker threads for parallel kernels (matmul, sampling,
                     CSR build, SPARQL fetch); KGTOSA_THREADS=N does the
                     same; defaults to the machine's available parallelism.
                     Results are bit-identical at any thread count.
  --quiet            Silence progress chatter on stderr (result lines on
                     stdout are unaffected)

CACHING (extract with --method sparql; train/compare TOSG runs):
  --cache-dir DIR    Content-addressed artifact cache: a completed
                     extraction is published under DIR keyed by the
                     source KG fingerprint + task + pattern + extractor,
                     and a later identical run loads it bit-for-bit
                     without touching the endpoint;
                     KGTOSA_CACHE_DIR=DIR does the same
  --cache-budget N   Cap the cache directory at N bytes (least-recently-
                     used artifacts are evicted)
  --no-cache         Disable both the artifact cache and the in-memory
                     SPARQL page cache for this run

FAULT TOLERANCE (extract with --method sparql; train/compare TOSG runs):
  --fault-spec SPEC  Inject a deterministic endpoint fault schedule, e.g.
                     'seed=7,rate=0.3,burst=2' (keys: seed, rate, burst,
                     fatal-rate, latency-rate, latency-us)
  --retry SPEC       Retry transient endpoint failures with seeded-jitter
                     exponential backoff, e.g. 'attempts=5,base-us=200'
                     (keys: attempts, base-us, max-us, seed,
                     request-deadline-ms, fetch-deadline-ms)
  --partial          Degrade to a partial subgraph (with a reported
                     completeness fraction) instead of aborting when a
                     page permanently fails

CHECKPOINTS (train/compare; serve):
  --checkpoint-dir DIR
                     Persist per-epoch training snapshots under DIR, one
                     subdirectory per run (fg/, tosg-<pattern>/);
                     re-running the same command resumes them. serve
                     answers POST /infer from the *.ckpt in DIR
  --checkpoint-interval N
                     Save a training snapshot every N epochs (default 1)
";

/// Every `--option` some command reads, sorted by name; anything else is
/// rejected with exit status 2. `true` marks a bare flag, which never
/// takes the token after it as a value.
const OPTIONS: &[(&str, bool)] = &[
    ("addr", false), ("breaker", false), ("cache-budget", false), ("cache-dir", false),
    ("checkpoint-dir", false), ("checkpoint-interval", false), ("dataset", false),
    ("default-deadline-ms", false), ("dim", false), ("epochs", false),
    ("explain", true), ("fault-spec", false), ("kg", false), ("limit", false), ("lr", false),
    ("max-body-bytes", false), ("max-deadline-ms", false), ("max-inflight-bytes", false),
    ("max-len", false), ("max-paths", false), ("method", false), ("min-seconds", false),
    ("no-cache", true), ("out", false), ("partial", true), ("pattern", false),
    ("queue-cap", false), ("quiet", true), ("retry", false), ("roots", false),
    ("scale", false), ("seed", false), ("sparql", false), ("target-class", false),
    ("task", false), ("threads", false), ("threshold", false), ("top-k", false),
    ("tosg", false), ("trace", false), ("trace-out", false), ("walk-length", false),
    ("workers", false),
];

fn main() {
    // Crash-path telemetry: a panic emits a final `panic` event (message,
    // location, live span stack) and flushes the JSONL trace before the
    // default hook prints its backtrace.
    kgtosa_obs::install_panic_hook();
    let args = match Args::parse(std::env::args().skip(1), OPTIONS) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.flag("quiet") {
        kgtosa_obs::set_quiet(true);
    }
    match args.options.get("threads").map(|t| t.parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => kgtosa_par::set_threads(n),
        Some(_) => {
            eprintln!("error: --threads expects a positive integer\n\n{USAGE}");
            std::process::exit(2);
        }
        None => {}
    }
    let traced = match args.options.get("trace-out") {
        Some(path) => kgtosa_obs::init_trace_to(path)
            .map(|()| true)
            .map_err(|e| format!("cannot open trace file {path:?}: {e}")),
        None => Ok(kgtosa_obs::init_trace_from_env()),
    };
    // The run context scopes every span and instrument delta of this
    // invocation under one trace id, so the trace sees per-request
    // numbers. Created only when a trace is written — silent runs skip
    // the (cheap, but nonzero) scoped bookkeeping entirely.
    let run_ctx = kgtosa_obs::trace_enabled()
        .then(|| kgtosa_obs::TelemetryContext::new(&format!("cli.{}", args.command)));
    let result = traced.and_then(|_| {
        let _scope = run_ctx.as_ref().map(|c| c.enter());
        match args.command.as_str() {
            "generate" => commands::generate(&args),
            "stats" => commands::stats(&args),
            "query" => commands::query(&args),
            "extract" => commands::extract(&args),
            "train" => commands::train(&args, false),
            "compare" => commands::train(&args, true),
            "serve" => commands::serve(&args),
            "cache" => commands::cache(&args),
            "trace-summary" => commands::trace_summary(&args),
            "trace-diff" => commands::trace_diff(&args),
            "trace-chrome" => commands::trace_chrome(&args),
            "help" | "" | "--help" | "-h" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
        }
    });
    if let Some(ctx) = &run_ctx {
        ctx.finish();
    }
    // Final accounting: the summary tree goes to stderr (it is telemetry,
    // not command output), and shutdown flushes the JSONL sink.
    if !kgtosa_obs::is_quiet() {
        let tree = kgtosa_obs::render_summary_tree();
        if !tree.is_empty() {
            eprint!("{tree}");
        }
    }
    kgtosa_obs::shutdown();
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::OPTIONS;
    use std::collections::BTreeSet;

    /// `OPTIONS` is exactly the set of option names the sources read: a
    /// name missing from it would be rejected before its command ran, and
    /// a name nothing reads would be accepted and ignored.
    #[test]
    fn options_list_matches_what_the_commands_read() {
        let mut read = BTreeSet::new();
        for src in [include_str!("main.rs"), include_str!("commands.rs")] {
            let mut pieces = src.split("(\"");
            let mut before = pieces.next().unwrap_or("");
            for piece in pieces {
                let accessor = ["flag", "required", "get_or", "parse_or", ".get", "contains_key"]
                    .iter()
                    .any(|a| before.trim_end().ends_with(a));
                let name = piece.split('"').next().unwrap_or("");
                if accessor && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-') {
                    read.insert(name);
                }
                before = piece;
            }
        }
        let listed: Vec<&str> = OPTIONS.iter().map(|(name, _)| *name).collect();
        assert!(listed.windows(2).all(|w| w[0] < w[1]), "OPTIONS must stay sorted and unique");
        assert_eq!(listed, read.into_iter().collect::<Vec<_>>());
    }
}
