//! Subcommand implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

use kgtosa_cache::ArtifactCache;
use kgtosa_core::{
    extract_brw, extract_ibs, extract_metapath, extract_sparql, extract_sparql_cached, transform,
    ExtractionResult, ExtractionTask, GraphPattern, MetapathConfig, QualityRow,
};
use kgtosa_obs::{render_trace_table, summarize_jsonl};
use kgtosa_datagen::Dataset;
use kgtosa_kg::{HeteroGraph, KnowledgeGraph, Vid};
use kgtosa_models::{
    train_graphsaint_nc, train_lhgnn_lp, train_morse_lp, train_rgcn_lp, train_rgcn_nc,
    train_sehgnn_nc, train_shadowsaint_nc, CheckpointConfig, LpDataset, NcDataset, SaintSampler,
    TrainConfig, TrainReport,
};
use kgtosa_rdf::{
    read_ntriples, write_ntriples, FaultPlan, FetchConfig, FetchMode, PageCache, RdfStore,
    RetryPolicy, SparqlEngine,
};
use kgtosa_sampler::{IbsConfig, WalkConfig};

use crate::args::Args;

/// Loads a KG from N-Triples (`.nt`) or the binary snapshot format
/// (`.kgb`), auto-detected by extension.
fn load_kg(path: &str) -> Result<KnowledgeGraph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    if path.ends_with(".kgb") {
        kgtosa_kg::read_snapshot(BufReader::new(file))
            .map_err(|e| format!("cannot parse snapshot {path}: {e}"))
    } else {
        read_ntriples(BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
    }
}

/// Saves a KG as N-Triples, or as a binary snapshot when the path ends in
/// `.kgb`.
fn save_kg(kg: &KnowledgeGraph, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    if path.ends_with(".kgb") {
        kgtosa_kg::write_snapshot(kg, BufWriter::new(file))
            .map_err(|e| format!("cannot write snapshot {path}: {e}"))
    } else {
        write_ntriples(kg, BufWriter::new(file)).map_err(|e| format!("cannot write {path}: {e}"))
    }
}

fn dataset_by_name(name: &str, scale: f64, seed: u64) -> Result<Dataset, String> {
    match name {
        "mag" => Ok(kgtosa_datagen::mag(scale, seed)),
        "yago30" => Ok(kgtosa_datagen::yago30(scale, seed)),
        "dblp" => Ok(kgtosa_datagen::dblp(scale, seed)),
        "wikikg2" => Ok(kgtosa_datagen::wikikg2(scale, seed)),
        "yago3-10" => Ok(kgtosa_datagen::yago3_10(scale, seed)),
        other => Err(format!(
            "unknown dataset {other:?} (expected mag|yago30|dblp|wikikg2|yago3-10)"
        )),
    }
}

/// `--checkpoint-dir DIR`, the root under which both fetch page
/// checkpoints and training epoch checkpoints are kept.
fn checkpoint_dir(args: &Args) -> Option<PathBuf> {
    args.options.get("checkpoint-dir").map(PathBuf::from)
}

/// Builds the fetch-layer fault-tolerance config from the CLI flags:
/// `--fault-spec` (deterministic fault injection), `--retry` (backoff
/// policy), `--partial` (degrade instead of aborting), plus an optional
/// page-checkpoint file so an interrupted extraction resumes. Unless
/// `--no-cache`, an in-memory SPARQL page cache dedups repeated
/// rendered subqueries within the invocation (results stay bit-identical;
/// only duplicate endpoint round-trips are saved).
fn fetch_config(args: &Args, checkpoint: Option<PathBuf>) -> Result<FetchConfig, String> {
    let mut cfg = FetchConfig::default();
    if let Some(spec) = args.options.get("fault-spec") {
        cfg.fault = Some(FaultPlan::parse(spec).map_err(|e| format!("--fault-spec: {e}"))?);
    }
    if let Some(spec) = args.options.get("retry") {
        cfg.retry = Some(RetryPolicy::parse(spec).map_err(|e| format!("--retry: {e}"))?);
    }
    if args.flag("partial") {
        cfg.mode = FetchMode::Partial;
    }
    if !args.flag("no-cache") {
        cfg.page_cache = Some(PageCache::new());
    }
    cfg.checkpoint = checkpoint;
    Ok(cfg)
}

/// Resolves the on-disk extraction artifact cache: `--cache-dir DIR`
/// (or `KGTOSA_CACHE_DIR`) opts in, `--no-cache` wins over both, and
/// `--cache-budget BYTES` bounds the directory with LRU eviction.
fn artifact_cache(args: &Args) -> Result<Option<ArtifactCache>, String> {
    if args.flag("no-cache") {
        return Ok(None);
    }
    let dir = match args
        .options
        .get("cache-dir")
        .cloned()
        .or_else(|| std::env::var("KGTOSA_CACHE_DIR").ok())
    {
        Some(d) if !d.is_empty() => d,
        _ => return Ok(None),
    };
    let mut cache =
        ArtifactCache::open(&dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))?;
    if let Some(spec) = args.options.get("cache-budget") {
        let bytes: u64 = spec
            .parse()
            .map_err(|_| format!("invalid value for --cache-budget: {spec:?}"))?;
        cache = cache.with_budget(bytes);
    }
    Ok(Some(cache))
}

/// SPARQL extraction through the artifact cache when one is configured,
/// falling back to a plain [`extract_sparql`] otherwise. Returns how the
/// cache resolved (`None` when no cache is configured) so callers can
/// report whether the endpoint was touched.
fn extract_sparql_maybe_cached(
    args: &Args,
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    fetch: &FetchConfig,
) -> Result<(ExtractionResult, Option<&'static str>), String> {
    match artifact_cache(args)? {
        Some(cache) => {
            let (res, outcome) = extract_sparql_cached(store, task, pattern, fetch, &cache)
                .map_err(|e| e.to_string())?;
            kgtosa_obs::info!(
                "cache: {} for {} ({})",
                outcome.label(),
                pattern.label(),
                cache.dir().display()
            );
            Ok((res, Some(outcome.label())))
        }
        None => extract_sparql(store, task, pattern, fetch)
            .map_err(|e| e.to_string())
            .map(|res| (res, None)),
    }
}

/// Epoch checkpointing for one training run. `run` names a subdirectory
/// (`fg`, `tosg-d1h1`, …) so the FG and TOSG runs of a single
/// `train`/`compare` invocation keep separate snapshots.
fn train_checkpoint(args: &Args, run: &str) -> Result<Option<CheckpointConfig>, String> {
    let Some(dir) = checkpoint_dir(args) else {
        return Ok(None);
    };
    let interval = args.parse_or("checkpoint-interval", 1usize)?;
    if interval == 0 {
        return Err("--checkpoint-interval must be >= 1".into());
    }
    let mut cfg = CheckpointConfig::new(dir.join(run));
    cfg.interval = interval;
    Ok(Some(cfg))
}

fn pattern_by_name(name: &str) -> Result<GraphPattern, String> {
    GraphPattern::VARIANTS
        .into_iter()
        .find(|p| p.label() == name)
        .ok_or_else(|| format!("unknown pattern {name:?} (expected d1h1|d2h1|d1h2|d2h2)"))
}

/// `kgtosa generate`.
pub fn generate(args: &Args) -> Result<(), String> {
    let dataset = args.required("dataset")?;
    let out = args.required("out")?;
    let scale = args.parse_or("scale", 0.1)?;
    let seed = args.parse_or("seed", 7u64)?;
    let d = dataset_by_name(dataset, scale, seed)?;
    save_kg(&d.gen.kg, out)?;
    println!(
        "wrote {out}: {} nodes, {} triples, {} node types, {} edge types",
        d.gen.kg.num_nodes(),
        d.gen.kg.num_triples(),
        d.gen.kg.num_classes(),
        d.gen.kg.num_relations()
    );
    for t in &d.nc {
        kgtosa_obs::info!(
            "  NC task {}: {} targets of class {}",
            t.name,
            t.targets().len(),
            t.target_class
        );
    }
    for t in &d.lp {
        kgtosa_obs::info!(
            "  LP task {}: predicate <{}>, {} train / {} valid / {} test",
            t.name,
            t.predicate,
            t.train.len(),
            t.valid.len(),
            t.test.len()
        );
    }
    Ok(())
}

/// `kgtosa stats`.
pub fn stats(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.required("kg")?)?;
    println!(
        "nodes: {}\ntriples: {}\nnode types: {}\nedge types: {}",
        kg.num_nodes(),
        kg.num_triples(),
        kg.num_classes(),
        kg.num_relations()
    );
    let mut hist: Vec<(usize, String)> = kg
        .class_histogram()
        .into_iter()
        .enumerate()
        .map(|(c, n)| (n, kg.class_term(kgtosa_kg::Cid(c as u32)).to_string()))
        .collect();
    hist.sort_unstable_by(|a, b| b.cmp(a));
    println!("largest classes:");
    for (count, name) in hist.iter().take(10) {
        println!("  {name:<32} {count}");
    }
    if let Some(class) = args.options.get("target-class") {
        let cid = kg
            .find_class(class)
            .ok_or_else(|| format!("class {class:?} not found"))?;
        let targets = kg.nodes_of_class(cid);
        let q = kgtosa_kg::quality(&kg, &targets);
        println!("\nquality w.r.t. {} targets of class {class}:", targets.len());
        println!("  target ratio      {:.2}%", q.target_ratio_pct);
        println!("  disconnected      {:.2}%", q.target_disconnected_pct);
        println!("  avg dist→target   {:.2}", q.avg_dist_to_target);
        println!("  type entropy      {:.3}", q.avg_entropy);
    }
    Ok(())
}

/// `kgtosa query`.
pub fn query(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.required("kg")?)?;
    let sparql = args.required("sparql")?;
    let limit = args.parse_or("limit", 20usize)?;
    let store = RdfStore::new(&kg);
    let engine = SparqlEngine::new(&store);
    let start = Instant::now();
    let rs = engine.execute_str(sparql).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    if args.flag("explain") {
        kgtosa_obs::info!("parsed: {}", kgtosa_rdf::parse(sparql).map_err(|e| e.to_string())?);
    }
    println!("{}", rs.vars.join("\t"));
    for i in 0..rs.len().min(limit) {
        println!("{}", rs.row_terms(&store, i).join("\t"));
    }
    if rs.len() > limit {
        println!("... ({} more rows)", rs.len() - limit);
    }
    kgtosa_obs::info!("{} rows in {:.3}s", rs.len(), elapsed.as_secs_f64());
    Ok(())
}

/// `kgtosa extract`.
pub fn extract(args: &Args) -> Result<(), String> {
    let kg = load_kg(args.required("kg")?)?;
    let class = args.required("target-class")?;
    let out = args.required("out")?;
    let method = args.get_or("method", "sparql");
    let seed = args.parse_or("seed", 7u64)?;
    let cid = kg
        .find_class(class)
        .ok_or_else(|| format!("class {class:?} not found"))?;
    let targets = kg.nodes_of_class(cid);
    let task = ExtractionTask::node_classification("cli", class, targets);

    let mut cache_outcome: Option<&'static str> = None;
    let result: ExtractionResult = match method {
        "sparql" => {
            let pattern = pattern_by_name(args.get_or("pattern", "d1h1"))?;
            let store = RdfStore::new(&kg);
            let fetch = fetch_config(args, checkpoint_dir(args).map(|d| d.join("fetch.ckpt")))?;
            let (res, outcome) = extract_sparql_maybe_cached(args, &store, &task, &pattern, &fetch)?;
            cache_outcome = outcome;
            res
        }
        "brw" => {
            let g = HeteroGraph::build(&kg);
            let cfg = WalkConfig {
                roots: args.parse_or("roots", 2000usize)?,
                walk_length: args.parse_or("walk-length", 3usize)?,
            };
            extract_brw(&kg, &g, &task, &cfg, seed)
        }
        "ibs" => {
            let g = HeteroGraph::build(&kg);
            let cfg = IbsConfig {
                k: args.parse_or("top-k", 16usize)?,
                threads: args.parse_or("threads", kgtosa_par::current_threads())?,
                ..Default::default()
            };
            extract_ibs(&kg, &g, &task, &cfg)
        }
        "metapath" => {
            let g = HeteroGraph::build(&kg);
            let cfg = MetapathConfig {
                max_len: args.parse_or("max-len", 2usize)?,
                max_paths: args.parse_or("max-paths", 8usize)?,
            };
            extract_metapath(&kg, &g, &task, &cfg)
        }
        other => {
            return Err(format!(
                "unknown method {other:?} (expected sparql|brw|ibs|metapath)"
            ))
        }
    };

    println!("{}", QualityRow::header());
    println!("{}", QualityRow::from_extraction(&result).format_row());
    if let Some(outcome) = cache_outcome {
        println!("cache: {outcome}");
    }
    println!(
        "extracted {} triples / {} nodes in {:.3}s ({:.1}% of the input)",
        result.report.triples,
        result.subgraph.kg.num_nodes(),
        result.report.seconds,
        100.0 * result.report.triples as f64 / kg.num_triples().max(1) as f64
    );
    if result.report.completeness < 1.0 {
        println!(
            "WARNING: partial extraction — {:.1}% of planned fetch pages retrieved",
            100.0 * result.report.completeness
        );
    }
    save_kg(&result.subgraph.kg, out)?;
    kgtosa_obs::info!("wrote {out}");
    Ok(())
}

/// `kgtosa trace-summary`: aggregates a JSONL trace (written via
/// `--trace-out` or `KGTOSA_TRACE`) into a per-span table on stdout.
pub fn trace_summary(args: &Args) -> Result<(), String> {
    let path = args
        .positionals
        .first()
        .map(|s| s.as_str())
        .or_else(|| args.options.get("trace").map(|s| s.as_str()))
        .ok_or("usage: kgtosa trace-summary <trace.jsonl>")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let rows = summarize_jsonl(&text)?;
    if rows.is_empty() {
        return Err(format!("{path} contains no span or train.epoch events"));
    }
    print!("{}", render_trace_table(&rows));
    Ok(())
}

/// `kgtosa trace-diff OLD NEW`: per-span comparison of two JSONL traces or
/// BENCH_*.json reports; errors (exit 1) when any span regresses beyond the
/// threshold so CI can gate on it.
pub fn trace_diff(args: &Args) -> Result<(), String> {
    let (old_path, new_path) = match args.positionals.as_slice() {
        [old, new] => (old.as_str(), new.as_str()),
        _ => return Err("usage: kgtosa trace-diff <old> <new> [--threshold PCT]".into()),
    };
    let base = kgtosa_obs::DiffOptions::default();
    let opts = kgtosa_obs::DiffOptions {
        threshold_pct: args.parse_or("threshold", base.threshold_pct)?,
        min_seconds: args.parse_or("min-seconds", base.min_seconds)?,
        ..base
    };
    let old_text =
        std::fs::read_to_string(old_path).map_err(|e| format!("cannot read {old_path}: {e}"))?;
    let new_text =
        std::fs::read_to_string(new_path).map_err(|e| format!("cannot read {new_path}: {e}"))?;
    let report = kgtosa_obs::diff_trace_texts(&old_text, &new_text, &opts)
        .map_err(|e| format!("trace-diff {old_path} vs {new_path}: {e}"))?;
    print!("{}", report.render());
    github_step_summary(&kgtosa_obs::render_markdown(
        &report,
        &format!("trace-diff: {old_path} vs {new_path}"),
    ));
    let regressions = report.regressions();
    if regressions > 0 {
        return Err(format!(
            "{regressions} span(s) regressed beyond {:.0}% (old: {old_path}, new: {new_path})",
            report.threshold_pct
        ));
    }
    Ok(())
}

/// Appends a markdown fragment to the GitHub Actions step summary when
/// `GITHUB_STEP_SUMMARY` points at a writable file (a no-op elsewhere, so
/// local runs stay stderr-only).
fn github_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else { return };
    if path.is_empty() {
        return;
    }
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = writeln!(f, "{markdown}");
    }
}

/// `kgtosa trace-validate TRACE`: load-validates a Chrome-trace JSON file
/// (as written by `--chrome-out`): event schema, monotone per-track
/// timestamps, balanced B/E nesting, counter tracks. Exits nonzero on a
/// malformed trace so CI can gate on the artifact it uploads.
pub fn trace_validate(args: &Args) -> Result<(), String> {
    let path = args
        .positionals
        .first()
        .map(|s| s.as_str())
        .ok_or("usage: kgtosa trace-validate <trace.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let stats = kgtosa_obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid Chrome trace — {} span event(s), {} counter event(s), \
         {} process track(s), max span depth {}",
        stats.span_events, stats.counter_events, stats.pids, stats.max_depth
    );
    Ok(())
}

/// `kgtosa cache <ls|stats|clear>`: inspect or reset the extraction
/// artifact cache. The directory comes from `--cache-dir` or
/// `KGTOSA_CACHE_DIR` (an explicit location — this command never guesses).
pub fn cache(args: &Args) -> Result<(), String> {
    let action = args.positionals.first().map(|s| s.as_str()).unwrap_or("stats");
    let dir = args
        .options
        .get("cache-dir")
        .cloned()
        .or_else(|| std::env::var("KGTOSA_CACHE_DIR").ok())
        .filter(|d| !d.is_empty())
        .ok_or("cache: pass --cache-dir DIR or set KGTOSA_CACHE_DIR")?;
    let cache =
        ArtifactCache::open(&dir).map_err(|e| format!("cannot open cache dir {dir}: {e}"))?;
    match action {
        "ls" => {
            let rows = cache.entries().map_err(|e| e.to_string())?;
            if rows.is_empty() {
                println!("cache {dir}: empty");
                return Ok(());
            }
            println!(
                "{:<21} {:>10}  {:<3} {:<5} {:<24} {:<9} kg-fingerprint",
                "artifact", "bytes", "ver", "ptrn", "task", "extractor"
            );
            for r in rows {
                let or_q = |s: Option<String>| s.unwrap_or_else(|| "?".into());
                println!(
                    "{:<21} {:>10}  {:<3} {:<5} {:<24} {:<9} {}",
                    r.file_name,
                    r.bytes,
                    r.version.map(|v| v.to_string()).unwrap_or_else(|| "?".into()),
                    or_q(r.pattern),
                    or_q(r.task),
                    or_q(r.extractor),
                    r.kg_fingerprint
                        .map(|f| format!("{f:016x}"))
                        .unwrap_or_else(|| "?".into()),
                );
            }
        }
        "stats" => {
            let s = cache.disk_stats().map_err(|e| e.to_string())?;
            println!("dir:         {dir}");
            println!("entries:     {}", s.entries);
            println!("bytes:       {}", s.bytes);
            println!("quarantined: {}", s.quarantined);
        }
        "clear" => {
            let removed = cache.clear().map_err(|e| e.to_string())?;
            println!("cleared {removed} artifact(s) from {dir}");
        }
        other => {
            return Err(format!("unknown cache action {other:?} (expected ls|stats|clear)"))
        }
    }
    Ok(())
}

/// Runs one train/compare variant (FG, or a TOSG extraction + training)
/// inside its own [`kgtosa_obs::TelemetryContext`] so the two runs of a
/// `compare` stay separately attributable in `/contexts`, the Chrome
/// trace, and SLO sweeps. With no telemetry consumer the closure runs
/// uncontexted — numerics are identical either way.
fn in_variant_ctx<T>(label: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let ctx = kgtosa_obs::telemetry_active()
        .then(|| kgtosa_obs::TelemetryContext::new(label));
    let out = {
        let _scope = ctx.as_ref().map(|c| c.enter());
        f()
    };
    if let Some(ctx) = ctx {
        ctx.finish();
    }
    out
}

fn print_report(label: &str, r: &TrainReport) {
    println!(
        "{label:<8} {:<12} metric {:.4} | train {:.2}s | infer {:.3}s | {} params",
        r.method, r.metric, r.training_s, r.inference_s, r.param_count
    );
}

/// `kgtosa train` / `kgtosa compare` (with `compare = true` both FG and
/// the KG-TOSA subgraph are trained).
pub fn train(args: &Args, compare: bool) -> Result<(), String> {
    let dataset_name = args.required("dataset")?;
    let task_name = args.required("task")?;
    let method = args.get_or("method", "graphsaint");
    let scale = args.parse_or("scale", 0.1)?;
    let seed = args.parse_or("seed", 7u64)?;
    let cfg = TrainConfig {
        epochs: args.parse_or("epochs", 15usize)?,
        dim: args.parse_or("dim", 16usize)?,
        lr: args.parse_or("lr", 0.02f32)?,
        seed,
        // Per-epoch telemetry: a progress line on stderr (silenced by
        // --quiet) plus train.epoch events when a trace sink is active.
        observer: kgtosa_obs::Observer::new(kgtosa_obs::TelemetryObserver),
        ..Default::default()
    };
    let d = dataset_by_name(dataset_name, scale, seed)?;

    // NC task?
    if let Some(task) = d.nc.iter().find(|t| t.name == task_name) {
        let run_nc = |cfg: &TrainConfig,
                      kg: &KnowledgeGraph,
                      labels: &[u32],
                      train: &[Vid],
                      valid: &[Vid],
                      test: &[Vid]|
         -> Result<TrainReport, String> {
            let (graph, _) = transform(kg);
            let data = NcDataset {
                kg,
                graph: &graph,
                labels,
                num_labels: task.num_labels,
                train,
                valid,
                test,
            };
            Ok(match method {
                "rgcn" => train_rgcn_nc(&data, cfg),
                "graphsaint" => train_graphsaint_nc(&data, cfg, SaintSampler::Uniform),
                "graphsaint-brw" => train_graphsaint_nc(&data, cfg, SaintSampler::Biased),
                "shadowsaint" => train_shadowsaint_nc(&data, cfg),
                "sehgnn" => train_sehgnn_nc(&data, cfg),
                other => return Err(format!("{other:?} is not an NC method")),
            })
        };
        if compare || !args.options.contains_key("tosg") {
            let fg_cfg = TrainConfig { checkpoint: train_checkpoint(args, "fg")?, ..cfg.clone() };
            let r = in_variant_ctx("train.fg", || {
                run_nc(&fg_cfg, &d.gen.kg, &task.labels, &task.train, &task.valid, &task.test)
            })?;
            print_report("FG", &r);
        }
        if compare || args.options.contains_key("tosg") {
            let pattern = pattern_by_name(args.get_or("tosg", "d1h1"))?;
            let r = in_variant_ctx(&format!("train.tosg-{}", pattern.label()), || {
                let store = RdfStore::new(&d.gen.kg);
                let ext = ExtractionTask::node_classification(
                    &task.name,
                    &task.target_class,
                    task.targets(),
                );
                let fetch = fetch_config(
                    args,
                    checkpoint_dir(args)
                        .map(|dir| dir.join(format!("tosg-{}.fetch.ckpt", pattern.label()))),
                )?;
                let (tosg, _) =
                    extract_sparql_maybe_cached(args, &store, &ext, &pattern, &fetch)?;
                let sub = &tosg.subgraph;
                let mut labels = vec![u32::MAX; sub.kg.num_nodes()];
                for v in 0..sub.kg.num_nodes() as u32 {
                    labels[v as usize] = task.labels[sub.map_up(Vid(v)).idx()];
                }
                let map = |ns: &[Vid]| -> Vec<Vid> {
                    ns.iter().filter_map(|&v| sub.map_down(v)).collect()
                };
                let tosg_cfg = TrainConfig {
                    checkpoint: train_checkpoint(args, &format!("tosg-{}", pattern.label()))?,
                    ..cfg.clone()
                };
                run_nc(
                    &tosg_cfg,
                    &sub.kg,
                    &labels,
                    &map(&task.train),
                    &map(&task.valid),
                    &map(&task.test),
                )
            })?;
            print_report(&format!("KG'({})", pattern.label()), &r);
        }
        return Ok(());
    }

    // LP task?
    if let Some(task) = d.lp.iter().find(|t| t.name == task_name) {
        let run_lp = |cfg: &TrainConfig,
                      kg: &KnowledgeGraph,
                      train: &[kgtosa_kg::Triple],
                      valid: &[kgtosa_kg::Triple],
                      test: &[kgtosa_kg::Triple]|
         -> Result<TrainReport, String> {
            let (graph, _) = transform(kg);
            let data = LpDataset { kg, graph: &graph, train, valid, test };
            Ok(match method {
                "rgcn" | "rgcn-lp" => train_rgcn_lp(&data, cfg),
                "morse" => train_morse_lp(&data, cfg),
                "lhgnn" => train_lhgnn_lp(&data, cfg),
                other => return Err(format!("{other:?} is not an LP method")),
            })
        };
        if compare || !args.options.contains_key("tosg") {
            let fg_cfg = TrainConfig { checkpoint: train_checkpoint(args, "fg")?, ..cfg.clone() };
            let r = in_variant_ctx("train.fg", || {
                run_lp(&fg_cfg, &d.gen.kg, &task.train, &task.valid, &task.test)
            })?;
            print_report("FG", &r);
        }
        if compare || args.options.contains_key("tosg") {
            let pattern = pattern_by_name(args.get_or("tosg", "d2h1"))?;
            let r = in_variant_ctx(&format!("train.tosg-{}", pattern.label()), || {
                let store = RdfStore::new(&d.gen.kg);
                let ext = ExtractionTask::link_prediction(
                    &task.name,
                    vec![task.src_class.clone(), task.dst_class.clone()],
                    task.target_nodes(&d.gen),
                    &task.predicate,
                );
                let fetch = fetch_config(
                    args,
                    checkpoint_dir(args)
                        .map(|dir| dir.join(format!("tosg-{}.fetch.ckpt", pattern.label()))),
                )?;
                let (tosg, _) =
                    extract_sparql_maybe_cached(args, &store, &ext, &pattern, &fetch)?;
                let sub = &tosg.subgraph;
                let remap = |ts: &[kgtosa_kg::Triple]| -> Vec<kgtosa_kg::Triple> {
                    ts.iter()
                        .filter_map(|t| {
                            Some(kgtosa_kg::Triple::new(
                                sub.map_down(t.s)?,
                                sub.kg.find_relation(d.gen.kg.relation_term(t.p))?,
                                sub.map_down(t.o)?,
                            ))
                        })
                        .collect()
                };
                let tosg_cfg = TrainConfig {
                    checkpoint: train_checkpoint(args, &format!("tosg-{}", pattern.label()))?,
                    ..cfg.clone()
                };
                run_lp(
                    &tosg_cfg,
                    &sub.kg,
                    &remap(&task.train),
                    &remap(&task.valid),
                    &remap(&task.test),
                )
            })?;
            print_report(&format!("KG'({})", pattern.label()), &r);
        }
        return Ok(());
    }

    let available: Vec<String> = d
        .nc
        .iter()
        .map(|t| t.name.clone())
        .chain(d.lp.iter().map(|t| t.name.clone()))
        .collect();
    Err(format!(
        "task {task_name:?} not found in dataset {dataset_name:?}; available: {available:?}"
    ))
}

/// `kgtosa serve` — the overload-safe extraction/inference daemon.
///
/// Loads one dataset snapshot and a checkpoint registry, binds the
/// address, and serves until SIGTERM/SIGINT (or `POST /admin/shutdown`)
/// drains it. The drain report is printed on stdout; telemetry flushing
/// (JSONL trace, Chrome trace, summary tree) is handled by the shared
/// CLI epilogue, so a drained daemon exits 0 with complete traces.
pub fn serve(args: &Args) -> Result<(), String> {
    use std::time::Duration;

    let mut cfg = kgtosa_serve::ServeConfig {
        addr: args.get_or("addr", "127.0.0.1:0").to_string(),
        dataset: args.get_or("dataset", "mag").to_string(),
        scale: args.parse_or("scale", 0.05)?,
        seed: args.parse_or("seed", 7u64)?,
        dim: args.parse_or("dim", 16usize)?,
        lr: args.parse_or("lr", 0.02f32)?,
        workers: args.parse_or("workers", 4usize)?.max(1),
        queue_cap: args.parse_or("queue-cap", 64usize)?.max(1),
        max_inflight_bytes: args.parse_or("max-inflight-bytes", 8 * 1024 * 1024usize)?,
        max_body_bytes: args.parse_or("max-body-bytes", 1024 * 1024usize)?,
        default_deadline: Duration::from_millis(args.parse_or("default-deadline-ms", 2_000u64)?),
        max_deadline: Duration::from_millis(args.parse_or("max-deadline-ms", 30_000u64)?),
        ..Default::default()
    };
    if let Some(spec) = args.options.get("breaker") {
        cfg.breaker =
            kgtosa_rdf::BreakerPolicy::parse(spec).map_err(|e| format!("--breaker: {e}"))?;
    }
    if let Some(spec) = args.options.get("retry") {
        cfg.retry = RetryPolicy::parse(spec).map_err(|e| format!("--retry: {e}"))?;
    }
    if let Some(spec) = args.options.get("fault-spec") {
        cfg.fault = Some(FaultPlan::parse(spec).map_err(|e| format!("--fault-spec: {e}"))?);
    }
    if !args.flag("no-cache") {
        cfg.cache_dir = args
            .options
            .get("cache-dir")
            .cloned()
            .or_else(|| std::env::var("KGTOSA_CACHE_DIR").ok())
            .filter(|d| !d.is_empty())
            .map(PathBuf::from);
    }
    cfg.checkpoint_dir = checkpoint_dir(args);

    let state = kgtosa_serve::ServeState::from_dataset(cfg)?;
    let server = kgtosa_serve::Server::bind(state)
        .map_err(|e| format!("cannot bind serve address: {e}"))?;
    // The bound address goes to stdout so scripts (and port-0 runs) can
    // read it back.
    println!("serve: listening on http://{}", server.addr());
    let report = server.run().map_err(|e| format!("serve loop failed: {e}"))?;
    println!(
        "serve: drained — served={} sheds={} handler_panics={} deadline_expired={}",
        report.served, report.sheds, report.handler_panics, report.deadline_expired
    );
    Ok(())
}
