//! Trace-to-trace regression diffing: the engine behind
//! `kgtosa trace-diff` and the CI perf gate.
//!
//! Compares two runs span-by-span on wall time, peak heap, and allocation
//! count, flags any span that regressed beyond a percentage threshold,
//! and renders a delta table. Inputs are either JSONL traces (as written
//! by `--trace-out` / `KGTOSA_TRACE`) or `BENCH_*.json` kernel reports —
//! the format is auto-detected, so the same gate covers both the tracing
//! pipeline and the kernel benchmarks.

use std::fmt::Write as _;

use crate::json::Json;
use crate::summary::{render_aligned, summarize_jsonl, SpanAgg};

/// Knobs of the regression check.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Allowed growth before a span counts as regressed, in percent
    /// (`25.0` = new may be up to 1.25× old).
    pub threshold_pct: f64,
    /// Spans whose baseline wall time is below this are never flagged on
    /// time (micro-spans are timer noise).
    pub min_seconds: f64,
    /// Baseline peak-heap floor (bytes) below which heap growth is not
    /// flagged.
    pub min_bytes: usize,
    /// Baseline allocation-count floor below which alloc growth is not
    /// flagged.
    pub min_allocs: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            threshold_pct: 25.0,
            min_seconds: 1e-3,
            min_bytes: 1 << 20,
            min_allocs: 10_000,
        }
    }
}

/// One span's before/after comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    pub name: String,
    pub old_s: f64,
    pub new_s: f64,
    /// Wall-time change in percent (positive = slower).
    pub delta_pct: f64,
    pub old_peak: usize,
    pub new_peak: usize,
    pub old_allocs: u64,
    pub new_allocs: u64,
    /// Dimensions that regressed beyond the threshold (`wall`, `heap`,
    /// `allocs`); empty when the span passes.
    pub regressed: Vec<&'static str>,
}

/// The full comparison of two runs.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Spans present in both runs, sorted by wall-time delta (worst first).
    pub rows: Vec<DiffRow>,
    /// Span names only in the baseline (phase disappeared).
    pub only_old: Vec<String>,
    /// Span names only in the new run (phase appeared).
    pub only_new: Vec<String>,
    /// The threshold the check ran with.
    pub threshold_pct: f64,
}

impl DiffReport {
    /// Number of spans that regressed on at least one dimension.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| !r.regressed.is_empty()).count()
    }

    /// Renders the aligned delta table plus the appeared/disappeared notes.
    pub fn render(&self) -> String {
        let headers = ["span", "old(s)", "new(s)", "Δ%", "old peak", "new peak", "allocs Δ", "status"];
        let mut cells = vec![headers.map(str::to_string)];
        for r in &self.rows {
            let alloc_delta = r.new_allocs as i128 - r.old_allocs as i128;
            cells.push([
                r.name.clone(),
                format!("{:.4}", r.old_s),
                format!("{:.4}", r.new_s),
                format!("{:+.1}", r.delta_pct),
                kgtosa_memtrack::format_bytes(r.old_peak),
                kgtosa_memtrack::format_bytes(r.new_peak),
                format!("{alloc_delta:+}"),
                if r.regressed.is_empty() {
                    "ok".to_string()
                } else {
                    format!("REGRESSED({})", r.regressed.join(","))
                },
            ]);
        }
        let mut out = render_aligned(&cells);
        if !self.only_old.is_empty() {
            out.push_str(&format!("only in baseline: {}\n", self.only_old.join(", ")));
        }
        if !self.only_new.is_empty() {
            out.push_str(&format!("only in new run:  {}\n", self.only_new.join(", ")));
        }
        out
    }
}

/// Markdown summary table for a diff report — what `trace-diff` writes
/// to the GitHub step summary. `title` heads the section.
pub fn render_markdown(report: &DiffReport, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    let _ = writeln!(
        out,
        "| span | old (s) | new (s) | Δ% | old peak | new peak | status |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---|");
    for r in &report.rows {
        let status = if r.regressed.is_empty() {
            "ok".to_string()
        } else {
            format!("**REGRESSED ({})**", r.regressed.join(", "))
        };
        let _ = writeln!(
            out,
            "| `{}` | {:.4} | {:.4} | {:+.1} | {} | {} | {} |",
            r.name,
            r.old_s,
            r.new_s,
            r.delta_pct,
            kgtosa_memtrack::format_bytes(r.old_peak),
            kgtosa_memtrack::format_bytes(r.new_peak),
            status,
        );
    }
    if !report.only_old.is_empty() {
        let _ = writeln!(out, "\nonly in baseline: {}", report.only_old.join(", "));
    }
    if !report.only_new.is_empty() {
        let _ = writeln!(out, "\nonly in new run: {}", report.only_new.join(", "));
    }
    let n = report.regressions();
    let _ = writeln!(
        out,
        "\n{} — threshold {:.0}%",
        if n == 0 { "**no regressions**".to_string() } else { format!("**{n} regression(s)**") },
        report.threshold_pct,
    );
    out
}

/// Parses either a JSONL trace or a `BENCH_*.json` kernel report into
/// span aggregates. Kernel rows key as `<kernel>@<threads>t`.
pub fn parse_trace_or_bench(text: &str) -> Result<Vec<SpanAgg>, String> {
    // A bench report is one (pretty-printed) JSON document with a `rows`
    // array; a trace is one JSON object per line.
    if let Ok(doc) = Json::parse(text.trim()) {
        if let Some(Json::Arr(rows)) = doc.get("rows") {
            return parse_bench_rows(rows);
        }
        if doc.get("ev").is_none() {
            return Err("JSON document has no `rows` array (not a BENCH_*.json) \
                        and no `ev` field (not a JSONL trace)"
                .to_string());
        }
    }
    summarize_jsonl(text)
}

fn parse_bench_rows(rows: &[Json]) -> Result<Vec<SpanAgg>, String> {
    let mut out: Vec<SpanAgg> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let kernel = row
            .get("kernel")
            .or_else(|| row.get("name"))
            .and_then(Json::as_str)
            .ok_or_else(|| format!("bench row {i}: missing `kernel`/`name`"))?;
        let seconds = row
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("bench row {i}: missing `seconds`"))?;
        let name = match row.get("threads").and_then(Json::as_f64) {
            Some(t) => format!("{kernel}@{}t", t as u64),
            None => kernel.to_string(),
        };
        out.push(SpanAgg {
            name,
            count: 1,
            total_s: seconds,
            mean_s: seconds,
            p95_s: seconds,
            max_s: seconds,
            peak_max_bytes: 0,
            allocs: 0,
        });
    }
    Ok(out)
}

/// Compares baseline aggregates against a new run's.
pub fn diff_spans(old: &[SpanAgg], new: &[SpanAgg], opts: &DiffOptions) -> DiffReport {
    let factor = 1.0 + opts.threshold_pct / 100.0;
    let mut rows = Vec::new();
    let mut only_old = Vec::new();
    for o in old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            only_old.push(o.name.clone());
            continue;
        };
        let mut regressed = Vec::new();
        if o.total_s >= opts.min_seconds && n.total_s > o.total_s * factor {
            regressed.push("wall");
        }
        if o.peak_max_bytes >= opts.min_bytes
            && n.peak_max_bytes as f64 > o.peak_max_bytes as f64 * factor
        {
            regressed.push("heap");
        }
        if o.allocs >= opts.min_allocs && n.allocs as f64 > o.allocs as f64 * factor {
            regressed.push("allocs");
        }
        let delta_pct = if o.total_s > 0.0 {
            100.0 * (n.total_s - o.total_s) / o.total_s
        } else {
            0.0
        };
        rows.push(DiffRow {
            name: o.name.clone(),
            old_s: o.total_s,
            new_s: n.total_s,
            delta_pct,
            old_peak: o.peak_max_bytes,
            new_peak: n.peak_max_bytes,
            old_allocs: o.allocs,
            new_allocs: n.allocs,
            regressed,
        });
    }
    let only_new = new
        .iter()
        .filter(|n| !old.iter().any(|o| o.name == n.name))
        .map(|n| n.name.clone())
        .collect();
    rows.sort_by(|a, b| b.delta_pct.partial_cmp(&a.delta_pct).unwrap_or(std::cmp::Ordering::Equal));
    DiffReport {
        rows,
        only_old,
        only_new,
        threshold_pct: opts.threshold_pct,
    }
}

/// End-to-end: parse two files' contents and diff them.
pub fn diff_trace_texts(old: &str, new: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let old_rows = parse_trace_or_bench(old).map_err(|e| format!("baseline: {e}"))?;
    let new_rows = parse_trace_or_bench(new).map_err(|e| format!("new run: {e}"))?;
    Ok(diff_spans(&old_rows, &new_rows, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(name: &str, total_s: f64, peak: usize, allocs: u64) -> SpanAgg {
        SpanAgg {
            name: name.to_string(),
            count: 1,
            total_s,
            mean_s: total_s,
            p95_s: total_s,
            max_s: total_s,
            peak_max_bytes: peak,
            allocs,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let rows = vec![agg("a", 1.0, 4 << 20, 100_000), agg("b", 0.5, 0, 0)];
        let report = diff_spans(&rows, &rows, &DiffOptions::default());
        assert_eq!(report.regressions(), 0);
        assert!(report.only_old.is_empty() && report.only_new.is_empty());
    }

    #[test]
    fn wall_time_regression_flagged_beyond_threshold() {
        let old = vec![agg("slow", 1.0, 0, 0)];
        let ok = vec![agg("slow", 1.2, 0, 0)];
        let bad = vec![agg("slow", 1.3, 0, 0)];
        let opts = DiffOptions { threshold_pct: 25.0, ..Default::default() };
        assert_eq!(diff_spans(&old, &ok, &opts).regressions(), 0);
        let report = diff_spans(&old, &bad, &opts);
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.rows[0].regressed, vec!["wall"]);
        assert!((report.rows[0].delta_pct - 30.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_spans_are_not_flagged_on_time() {
        // 10x slower, but below the min_seconds floor.
        let old = vec![agg("micro", 1e-5, 0, 0)];
        let new = vec![agg("micro", 1e-4, 0, 0)];
        assert_eq!(diff_spans(&old, &new, &DiffOptions::default()).regressions(), 0);
    }

    #[test]
    fn heap_and_alloc_regressions() {
        let old = vec![agg("x", 1.0, 10 << 20, 1_000_000)];
        let new = vec![agg("x", 1.0, 20 << 20, 2_000_000)];
        let report = diff_spans(&old, &new, &DiffOptions::default());
        assert_eq!(report.regressions(), 1);
        assert_eq!(report.rows[0].regressed, vec!["heap", "allocs"]);
    }

    #[test]
    fn appeared_and_disappeared_spans_reported_not_flagged() {
        let old = vec![agg("gone", 1.0, 0, 0), agg("both", 1.0, 0, 0)];
        let new = vec![agg("both", 1.0, 0, 0), agg("fresh", 9.0, 0, 0)];
        let report = diff_spans(&old, &new, &DiffOptions::default());
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.only_old, vec!["gone"]);
        assert_eq!(report.only_new, vec!["fresh"]);
        let table = report.render();
        assert!(table.contains("only in baseline: gone"));
        assert!(table.contains("only in new run:  fresh"));
    }

    #[test]
    fn bench_report_parses_and_diffs() {
        let old = r#"{"available_parallelism": 8, "rows": [
            {"kernel": "matmul", "threads": 1, "seconds": 0.010},
            {"kernel": "matmul", "threads": 4, "seconds": 0.004}
        ]}"#;
        let new = r#"{"available_parallelism": 8, "rows": [
            {"kernel": "matmul", "threads": 1, "seconds": 0.011},
            {"kernel": "matmul", "threads": 4, "seconds": 0.009}
        ]}"#;
        let report = diff_trace_texts(old, new, &DiffOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 2);
        // 1-thread run grew 10% (ok); 4-thread run grew 125% (regressed).
        assert_eq!(report.regressions(), 1);
        let bad = report.rows.iter().find(|r| !r.regressed.is_empty()).unwrap();
        assert_eq!(bad.name, "matmul@4t");
    }

    #[test]
    fn jsonl_traces_diff_end_to_end() {
        let old = r#"{"ev":"span","t":0.1,"name":"extract.brw","wall_s":1.0,"live_bytes":0,"peak_delta_bytes":0,"allocs":0}"#;
        let same = old;
        let slow = r#"{"ev":"span","t":0.1,"name":"extract.brw","wall_s":2.0,"live_bytes":0,"peak_delta_bytes":0,"allocs":0}"#;
        assert_eq!(
            diff_trace_texts(old, same, &DiffOptions::default()).unwrap().regressions(),
            0
        );
        assert_eq!(
            diff_trace_texts(old, slow, &DiffOptions::default()).unwrap().regressions(),
            1
        );
    }

    #[test]
    fn unrecognized_json_document_is_an_error() {
        assert!(parse_trace_or_bench(r#"{"version": 3}"#).is_err());
    }

    #[test]
    fn markdown_table_renders() {
        let old = vec![agg("a", 1.0, 0, 0)];
        let new = vec![agg("a", 2.0, 0, 0)];
        let report = diff_spans(&old, &new, &DiffOptions::default());
        let md = render_markdown(&report, "kernel gate");
        assert!(md.contains("### kernel gate"));
        assert!(md.contains("| `a` |"));
        assert!(md.contains("REGRESSED (wall)"));
        assert!(md.contains("**1 regression(s)**"));
    }
}
