//! End-to-end CLI tests driving the actual `kgtosa` binary.

use std::path::PathBuf;
use std::process::Command;

fn kgtosa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kgtosa"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kgtosa-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn generate_stats_extract_query_pipeline() {
    let kg_path = tmp("pipeline.nt");
    let tosg_path = tmp("pipeline-tosg.nt");

    // generate
    let out = kgtosa()
        .args([
            "generate", "--dataset", "yago3-10", "--scale", "0.05",
            "--out", kg_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("node types"), "{stdout}");

    // stats
    let out = kgtosa()
        .args(["stats", "--kg", kg_path.to_str().unwrap(), "--target-class", "Person"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("target ratio"), "{stdout}");

    // query
    let out = kgtosa()
        .args([
            "query", "--kg", kg_path.to_str().unwrap(),
            "--sparql", "SELECT (COUNT(*) AS ?c) WHERE { ?s a <Person> }",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // extract
    let out = kgtosa()
        .args([
            "extract", "--kg", kg_path.to_str().unwrap(),
            "--target-class", "Person", "--method", "sparql",
            "--pattern", "d2h1", "--out", tosg_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("extracted"), "{stdout}");
    assert!(tosg_path.exists());

    // the extracted file is loadable again
    let out = kgtosa()
        .args(["stats", "--kg", tosg_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn snapshot_format_roundtrips_via_cli() {
    let kgb = tmp("snap.kgb");
    let out = kgtosa()
        .args([
            "generate", "--dataset", "yago3-10", "--scale", "0.05",
            "--out", kgb.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = kgtosa()
        .args(["stats", "--kg", kgb.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("triples"), "{stdout}");
}

#[test]
fn train_command_runs() {
    let out = kgtosa()
        .args([
            "train", "--dataset", "dblp", "--task", "PV/DBLP",
            "--method", "graphsaint", "--scale", "0.03", "--epochs", "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("metric"), "{stdout}");
}

/// Runs a traced, `--quiet` `train --tosg` and returns its JSONL trace.
/// `--tosg` routes through SPARQL extraction + transform inside a variant
/// context, so the trace covers the whole pipeline, not just training.
fn traced_train(name: &str) -> (PathBuf, String) {
    let trace = tmp(name);
    let out = kgtosa()
        .args([
            "train", "--dataset", "dblp", "--task", "PV/DBLP",
            "--method", "rgcn", "--scale", "0.05", "--epochs", "3",
            "--tosg", "d1h1", "--quiet", "--trace-out", trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // --quiet: no chatter, no summary tree on stderr.
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).unwrap();
    (trace, text)
}

#[test]
fn trace_out_emits_parseable_jsonl_and_summary_renders() {
    let (trace, text) = traced_train("train-trace.jsonl");
    let mut kinds = std::collections::BTreeSet::new();
    let mut epoch_events = 0usize;
    let mut saw_transform = false;
    for line in text.lines() {
        let v = kgtosa_obs::Json::parse(line)
            .unwrap_or_else(|e| panic!("invalid JSONL line {line:?}: {e}"));
        let ev = v
            .get("ev")
            .and_then(|e| e.as_str())
            .expect("every event has an `ev` kind")
            .to_string();
        assert!(
            v.get("t").and_then(|t| t.as_f64()).is_some(),
            "every event has a timestamp"
        );
        match ev.as_str() {
            "span" => {
                let name = v.get("name").and_then(|n| n.as_str()).unwrap();
                if name.contains("pipeline.transform") {
                    saw_transform = true;
                }
            }
            "train.epoch" => {
                epoch_events += 1;
                assert!(v.get("loss").and_then(|l| l.as_f64()).unwrap().is_finite());
                assert!(v.get("peak_bytes").and_then(|p| p.as_f64()).unwrap() > 0.0);
            }
            _ => {}
        }
        kinds.insert(ev);
    }
    assert!(saw_transform, "trace must contain a pipeline.transform span:\n{text}");
    assert_eq!(epoch_events, 3, "one train.epoch event per epoch:\n{text}");
    assert!(kinds.contains("metrics"), "final metrics event missing:\n{text}");

    // The summary subcommand aggregates the trace into a table.
    let out = kgtosa()
        .args(["trace-summary", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pipeline.transform"), "{stdout}");
    assert!(stdout.contains("train.epoch[RGCN]"), "{stdout}");
    assert!(stdout.contains("self(s)") && stdout.contains("self%"), "{stdout}");

    // A bare flag ahead of the file must not swallow it as its value.
    let flag_first = kgtosa()
        .args(["trace-summary", "--quiet", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(flag_first.status.success(), "{}", String::from_utf8_lossy(&flag_first.stderr));
    assert_eq!(flag_first.stdout, out.stdout);
}

#[test]
fn trace_diff_identical_passes_and_regression_fails() {
    let old = tmp("diff-old.jsonl");
    let new_ok = tmp("diff-new-ok.jsonl");
    let new_bad = tmp("diff-new-bad.jsonl");
    let span = |wall: f64| {
        format!(
            "{{\"ev\":\"span\",\"t\":0.1,\"name\":\"kernel.spmm\",\"wall_s\":{wall},\
             \"live_bytes\":0,\"peak_delta_bytes\":1024,\"allocs\":10}}\n"
        )
    };
    std::fs::write(&old, span(1.0)).unwrap();
    std::fs::write(&new_ok, span(1.0)).unwrap();
    std::fs::write(&new_bad, span(3.0)).unwrap();

    // Identical traces: exit 0, every span OK.
    let out = kgtosa()
        .args(["trace-diff", old.to_str().unwrap(), new_ok.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kernel.spmm"), "{stdout}");
    assert!(!stdout.contains("REGRESSED"), "{stdout}");

    // 3x wall time: exit nonzero with the regression named.
    let out = kgtosa()
        .args([
            "trace-diff", old.to_str().unwrap(), new_bad.to_str().unwrap(),
            "--threshold", "25",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "3x slowdown must fail the gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSED(wall)"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("regressed"), "{stderr}");

    // A generous threshold lets the same pair pass.
    let out = kgtosa()
        .args([
            "trace-diff", old.to_str().unwrap(), new_bad.to_str().unwrap(),
            "--threshold", "400",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// The `metric X.XXXX` token from a train run's stdout — the part of the
/// output that must be invariant across fault regimes (wall times are not).
fn metric_of(stdout: &str) -> String {
    stdout
        .split_whitespace()
        .skip_while(|w| *w != "metric")
        .nth(1)
        .unwrap_or_else(|| panic!("no metric in output: {stdout}"))
        .to_string()
}

/// Does the trace record a strictly positive value for `counter`?
fn trace_counter_positive(trace_text: &str, counter: &str) -> bool {
    let needle = format!("\"{counter}\":");
    trace_text.find(&needle).is_some_and(|i| {
        trace_text[i + needle.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() && c != '0')
    })
}

#[test]
fn chaos_train_with_retry_matches_fault_free_metric() {
    let trace = tmp("chaos-trace.jsonl");
    let run = |extra: &[&str]| {
        let out = kgtosa()
            .args([
                "train", "--dataset", "dblp", "--task", "PV/DBLP",
                "--method", "rgcn", "--scale", "0.02", "--epochs", "2",
                "--tosg", "d1h1", "--quiet",
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let clean = run(&[]);
    // Every request fails twice before succeeding; the retry budget (5)
    // absorbs all of it, so training must see an identical ToSG.
    let faulted = run(&[
        "--fault-spec", "seed=11,rate=1.0,burst=2",
        "--retry", "attempts=5,base-us=50",
        "--trace-out", trace.to_str().unwrap(),
    ]);
    assert_eq!(
        metric_of(&clean),
        metric_of(&faulted),
        "transient faults below the retry budget must not change the metric"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_counter_positive(&text, "rdf.retries"),
        "the trace must record the retries the run survived:\n{text}"
    );
    assert!(
        !trace_counter_positive(&text, "rdf.giveups"),
        "no request may exhaust the retry budget:\n{text}"
    );
}

#[test]
fn checkpointed_rerun_resumes_and_reproduces_the_metric() {
    let dir = tmp("resume-ckpt");
    let _ = std::fs::remove_dir_all(&dir); // fresh run, not a stale resume
    let trace = tmp("resume-trace.jsonl");
    let run = |extra: &[&str]| {
        let out = kgtosa()
            .args([
                "train", "--dataset", "dblp", "--task", "PV/DBLP",
                "--method", "rgcn", "--scale", "0.02", "--epochs", "2",
                "--tosg", "d1h1", "--quiet",
                "--checkpoint-dir", dir.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let first = run(&[]);
    let second = run(&["--trace-out", trace.to_str().unwrap()]);
    assert_eq!(
        metric_of(&first),
        metric_of(&second),
        "a resumed run must reproduce the original metric bit-for-bit"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(
        trace_counter_positive(&text, "train.checkpoint.resumes"),
        "the rerun must actually resume from the snapshot:\n{text}"
    );
    // Only training is checkpointed: no fetch checkpoint appears anywhere
    // under the directory.
    let mut dirs = vec![dir.clone()];
    while let Some(d) = dirs.pop() {
        for path in std::fs::read_dir(&d).unwrap().map(|e| e.unwrap().path()) {
            assert!(!path.to_string_lossy().ends_with(".fetch.ckpt"), "{}", path.display());
            dirs.extend(path.is_dir().then_some(path));
        }
    }
}

/// The full artifact-cache lifecycle through the binary: a cold extract
/// publishes, a warm re-run loads bit-identically without a single
/// endpoint page, `cache stats`/`ls` see the artifact, and `cache clear`
/// returns the next run to a miss.
#[test]
fn cache_lifecycle_extract_twice_then_clear() {
    let kg_path = tmp("cache-kg.kgb");
    let cache_dir = tmp("cache-dir-e2e");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let out = kgtosa()
        .args([
            "generate", "--dataset", "yago3-10", "--scale", "0.05",
            "--out", kg_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let run_extract = |out_name: &str, trace_name: &str| {
        let tosg = tmp(out_name);
        let trace = tmp(trace_name);
        let _ = std::fs::remove_file(&trace);
        let out = kgtosa()
            .args([
                "extract", "--kg", kg_path.to_str().unwrap(),
                "--target-class", "Person", "--method", "sparql",
                "--pattern", "d1h1", "--out", tosg.to_str().unwrap(),
                "--cache-dir", cache_dir.to_str().unwrap(),
                "--trace-out", trace.to_str().unwrap(), "--quiet",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read(&tosg).unwrap(),
            std::fs::read_to_string(&trace).unwrap(),
        )
    };

    // Cold: a miss that fetches pages and publishes the artifact.
    let (cold_out, cold_bytes, cold_trace) = run_extract("cache-tosg-cold.kgb", "cache-cold.jsonl");
    assert!(cold_out.contains("cache: miss"), "{cold_out}");
    assert!(
        trace_counter_positive(&cold_trace, "cache.misses"),
        "cold run must record the miss:\n{cold_trace}"
    );
    assert!(
        trace_counter_positive(&cold_trace, "rdf.fetch.pages"),
        "cold run must actually fetch:\n{cold_trace}"
    );

    // Warm: a hit that is bit-identical and never touches the endpoint.
    let (warm_out, warm_bytes, warm_trace) = run_extract("cache-tosg-warm.kgb", "cache-warm.jsonl");
    assert!(warm_out.contains("cache: hit"), "{warm_out}");
    assert_eq!(cold_bytes, warm_bytes, "cached TOSG snapshot must be bit-identical");
    assert!(
        trace_counter_positive(&warm_trace, "cache.hits"),
        "warm run must record the hit:\n{warm_trace}"
    );
    assert!(
        !trace_counter_positive(&warm_trace, "rdf.fetch.pages"),
        "a cache hit must fetch zero endpoint pages:\n{warm_trace}"
    );

    // The quality row (first data line under the header) is invariant.
    let quality_line = |s: &str| s.lines().nth(1).unwrap_or_default().to_string();
    assert_eq!(quality_line(&cold_out), quality_line(&warm_out));

    // cache stats / ls see the artifact with its embedded key.
    let out = kgtosa()
        .args(["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("entries:     1"), "{stdout}");

    let out = kgtosa()
        .args(["cache", "ls", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("nc:Person"), "{stdout}");
    assert!(stdout.contains("d1h1"), "{stdout}");
    assert!(stdout.contains("sparql"), "{stdout}");

    // clear empties the slot: the next run misses (and re-publishes).
    let out = kgtosa()
        .args(["cache", "clear", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cleared 1 artifact(s)"), "{stdout}");

    let (cleared_out, cleared_bytes, _) =
        run_extract("cache-tosg-cleared.kgb", "cache-cleared.jsonl");
    assert!(cleared_out.contains("cache: miss"), "{cleared_out}");
    assert_eq!(cold_bytes, cleared_bytes, "re-extraction is still deterministic");
}

/// `--no-cache` bypasses the artifact cache even when a directory is
/// configured, and `cache` without a directory fails with guidance.
#[test]
fn no_cache_flag_and_missing_dir_guidance() {
    let kg_path = tmp("nocache-kg.kgb");
    let cache_dir = tmp("nocache-dir");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let out = kgtosa()
        .args([
            "generate", "--dataset", "yago3-10", "--scale", "0.03",
            "--out", kg_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let tosg = tmp("nocache-tosg.kgb");
    let out = kgtosa()
        .args([
            "extract", "--kg", kg_path.to_str().unwrap(),
            "--target-class", "Person", "--method", "sparql",
            "--out", tosg.to_str().unwrap(),
            "--cache-dir", cache_dir.to_str().unwrap(), "--no-cache", "--quiet",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("cache:"), "--no-cache must bypass the cache: {stdout}");
    assert!(
        !cache_dir.exists() || std::fs::read_dir(&cache_dir).unwrap().next().is_none(),
        "--no-cache must not publish artifacts"
    );

    let out = kgtosa()
        .env_remove("KGTOSA_CACHE_DIR")
        .args(["cache", "stats"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-dir"), "{stderr}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = kgtosa().args(["bogus"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");

    // Subcommands that no longer exist are unknown like any other. (The
    // removed names are spelled in pieces here and below so that a grep
    // for them over the tree stays empty.)
    for gone in [&["trace-", "trend"].concat(), &["trace-", "validate"].concat(), "prof", "report"] {
        let out = kgtosa().args([gone, "a", "b"]).output().unwrap();
        assert!(!out.status.success(), "{gone} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown command {gone:?}")), "{stderr}");
    }
}

#[test]
fn unknown_option_exits_2_naming_it() {
    // Removed options, spelled in pieces like the commands above.
    let gone = [
        ["--prof", "-out"].concat(),
        ["--metrics", "-addr"].concat(),
        ["--s", "lo"].concat(),
        ["--strict", "-slo"].concat(),
        ["--chrome", "-out"].concat(),
    ];
    for option in gone.iter().map(String::as_str).chain(["--bogus-option"]) {
        let out = kgtosa()
            .args(["generate", "--dataset", "dblp", "--out", "unused.nt", option, "x"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{option}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown option {option}")), "{stderr}");
    }
    assert!(!std::path::Path::new("unused.nt").exists(), "rejected before the command ran");
}

#[test]
fn missing_options_fail_cleanly() {
    let out = kgtosa().args(["extract"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing required option"), "{stderr}");
}

#[test]
fn trace_chrome_renders_a_train_trace_and_rejects_malformed_jsonl() {
    let (trace, _) = traced_train("chrome-run.jsonl");
    let chrome = tmp("chrome-trace.json");
    let render = |jsonl: &PathBuf| {
        let args = ["trace-chrome", jsonl.to_str().unwrap(), chrome.to_str().unwrap()];
        kgtosa().args(args).output().unwrap()
    };
    let out = render(&trace);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid Chrome trace") && !stdout.contains(" 0 span"), "{stdout}");
    let written = std::fs::read_to_string(&chrome).unwrap();
    kgtosa_obs::validate_chrome_trace(&written).expect("written file validates");

    // A malformed interior line exits nonzero, naming the line.
    let broken = tmp("chrome-broken.jsonl");
    std::fs::write(&broken, "{\"ev\":\"span\"}\n{\"ev\":\"log\",\"t\":0}\n").unwrap();
    let out = render(&broken);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
}

#[test]
fn a_killed_run_still_renders() {
    let (_, text) = traced_train("chrome-killed.jsonl");
    // A killed run never writes the final `metrics` event: cut before it.
    let metrics_at = text.find("{\"ev\":\"metrics\"").expect("complete run has metrics");
    for k in 1..=16 {
        let mut cut = metrics_at * k / 17;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let head = &text[..cut];
        let chrome = kgtosa_obs::render_chrome_trace(head)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        let stats = kgtosa_obs::validate_chrome_trace(&chrome)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        let complete = head.lines().filter(|l| kgtosa_obs::Json::parse(l).is_ok());
        let spans = complete.filter(|l| l.contains("\"ev\":\"span\"")).count();
        assert_eq!(stats.span_events, spans, "cut at byte {cut}");
    }
}

#[test]
fn rendered_trace_validates_with_real_spans() {
    use kgtosa_obs::Json;
    let (_, text) = traced_train("chrome-pairs.jsonl");
    let chrome = kgtosa_obs::render_chrome_trace(&text).unwrap();
    kgtosa_obs::validate_chrome_trace(&chrome).expect("rendering validates");
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let Some(Json::Arr(events)) = Json::parse(&chrome).unwrap().get("traceEvents").cloned() else {
        panic!("no traceEvents: {chrome}")
    };
    let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).map_or(0, |v| v as u64);
    let str_of = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    // Sorted (name, pid, tid) of the events whose `kind` field is `phase`.
    let keys = |evs: &[Json], kind: &str, phase: &str, pid: &str| {
        let mut keys: Vec<(String, u64, u64)> = evs
            .iter()
            .filter(|e| str_of(e, kind) == phase)
            .map(|e| (str_of(e, "name"), num(e, pid), num(e, "tid")))
            .collect();
        keys.sort();
        keys
    };

    // Every `span` line becomes exactly one B/E pair on its (ctx, tid) track.
    let spans = keys(&lines, "ev", "span", "ctx");
    assert!(!spans.is_empty(), "{text}");
    assert_eq!(keys(&events, "ph", "B", "pid"), spans);
    assert_eq!(keys(&events, "ph", "E", "pid"), spans);

    // Every `context` event names its pid track.
    let contexts = keys(&lines, "ev", "context", "id");
    let tracks: Vec<_> = events
        .iter()
        .filter(|e| str_of(e, "ph") == "M")
        .map(|e| (e.get("args").map(|a| str_of(a, "name")).unwrap_or_default(), num(e, "pid"), 0))
        .collect();
    assert!(!contexts.is_empty(), "{text}");
    assert!(contexts.iter().all(|c| tracks.contains(c)), "{contexts:?} not all in {tracks:?}");
}
