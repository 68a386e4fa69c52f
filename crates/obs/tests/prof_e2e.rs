//! End-to-end cost-attribution contract: real nested spans → JSONL trace
//! → self-time attribution that telescopes to the root wall, both as
//! [`self_times`] rows and as the `self(s)` column `trace-summary` prints.
//!
//! Single `#[test]` on purpose: the trace sink is a process-global
//! one-shot, so the whole pipeline is exercised in one pass.

use std::time::Duration;

use kgtosa_obs::{render_trace_table, self_times, span, summarize_jsonl};

fn busy(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

#[test]
fn trace_self_times_telescope_to_root_wall() {
    let dir = std::env::temp_dir().join(format!("kgtosa-prof-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("run.jsonl");
    kgtosa_obs::init_trace_to(trace_path.to_str().unwrap()).expect("init trace");

    // A realistic shape: one root covering extraction + training phases,
    // with leaf work under each. Sleeps are the "work" so wall times are
    // large relative to span bookkeeping noise.
    {
        let _root = span("pipeline");
        {
            let _e = span("extract");
            {
                let _f = span("fetch");
                busy(30);
            }
            {
                let _s = span("sample");
                busy(20);
            }
            busy(10); // self time of extract
        }
        {
            let _t = span("train");
            for _ in 0..3 {
                let _ep = span("epoch");
                busy(10);
            }
        }
        busy(10); // self time of pipeline
    }

    kgtosa_obs::shutdown();
    let trace = std::fs::read_to_string(&trace_path).expect("read trace");
    assert!(trace.contains("\"span\""), "trace has span events:\n{trace}");

    // Self-times must telescope: summing self_s over every span recovers
    // the wall time of the roots, exactly up to f64 rounding.
    let aggs = summarize_jsonl(&trace).expect("summarize trace");
    assert!(aggs.len() >= 5, "expected the nested spans, got {aggs:?}");
    let rows = self_times(&aggs);
    let self_sum: f64 = rows.iter().map(|r| r.self_s).sum();
    let root_wall: f64 = rows.iter().filter(|r| r.parent.is_none()).map(|r| r.total_s).sum();
    assert!(root_wall > 0.1, "root wall should cover the sleeps: {root_wall}");
    let drift = (self_sum - root_wall).abs();
    assert!(
        drift <= root_wall * 0.01 + 1e-6,
        "self-times must sum to root wall: sum={self_sum} root={root_wall} drift={drift}"
    );
    // Leaf spans keep all their time; parents keep only what children
    // did not cover.
    let extract = rows.iter().find(|r| r.name.ends_with("extract")).unwrap();
    assert!(extract.self_s < extract.total_s, "extract has children: {extract:?}");

    // The printed table carries the same breakdown: its `self(s)` column
    // sums to the root's `total(s)` (4-decimal cells, hence the 1 %).
    let table = render_trace_table(&aggs);
    let mut lines = table.lines();
    let header: Vec<&str> = lines.next().expect("header row").split_whitespace().collect();
    let col = |name: &str| header.iter().position(|h| *h == name).expect(name);
    let (total_col, self_col) = (col("total(s)"), col("self(s)"));
    let mut printed_self = 0.0;
    let mut printed_root = 0.0;
    for line in lines.skip(1) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        printed_self += cells[self_col].parse::<f64>().expect("self(s) cell");
        if cells[0] == "pipeline" {
            printed_root = cells[total_col].parse().expect("total(s) cell");
        }
    }
    assert!(
        (printed_self - printed_root).abs() <= printed_root * 0.01,
        "printed self(s) must sum to the root total(s): {printed_self} vs {printed_root}\n{table}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
