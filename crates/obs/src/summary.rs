//! Trace aggregation: turns a JSONL event stream (or the live registry)
//! into per-span tables — the Rust analogue of the paper's Table IV cost
//! rows.

use crate::json::Json;
use crate::prof::self_times;
use crate::registry;

/// Aggregate over all events sharing one span name.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    pub name: String,
    pub count: u64,
    pub total_s: f64,
    pub mean_s: f64,
    pub p95_s: f64,
    pub max_s: f64,
    /// Largest peak-heap value seen (span growth or epoch peak).
    pub peak_max_bytes: usize,
    pub allocs: u64,
}

/// Reads a JSONL trace event by event, calling `f(kind, event)` with each
/// event's `ev` kind; an error from `f` is prefixed with its line number.
/// Blank lines are skipped; malformed lines are an error (the stream is
/// machine-generated) — except on the *final* line, where a parse failure
/// is treated as a crash- or kill-truncated write and the line is
/// dropped, so traces of interrupted runs stay readable up to the last
/// complete event.
pub(crate) fn for_each_event(
    text: &str,
    mut f: impl FnMut(&str, &Json) -> Result<(), String>,
) -> Result<(), String> {
    let line_count = text.lines().count();
    for (line, lineno) in text.lines().zip(1..) {
        if line.trim().is_empty() {
            continue;
        }
        let event = match Json::parse(line) {
            Ok(event) => event,
            Err(_) if lineno == line_count => continue,
            Err(e) => return Err(format!("line {lineno}: {e}")),
        };
        let kind = event
            .get("ev")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing 'ev'"))?;
        f(kind, &event).map_err(|e| format!("line {lineno}: {e}"))?;
    }
    Ok(())
}

/// Parses a JSONL trace (read by [`for_each_event`]) and aggregates
/// `span` and `train.epoch` events per name. Epoch events aggregate as
/// `train.epoch[<method>]` with the per-epoch wall time as their
/// duration.
pub fn summarize_jsonl(text: &str) -> Result<Vec<SpanAgg>, String> {
    struct Acc {
        durations: Vec<f64>,
        peak_max: usize,
        allocs: u64,
    }
    let mut by_name: Vec<(String, Acc)> = Vec::new();
    fn find(by_name: &mut Vec<(String, Acc)>, name: String) -> usize {
        if let Some(i) = by_name.iter().position(|(n, _)| *n == name) {
            i
        } else {
            by_name.push((name, Acc { durations: Vec::new(), peak_max: 0, allocs: 0 }));
            by_name.len() - 1
        }
    }

    for_each_event(text, |kind, event| {
        let num = |key: &str| event.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        match kind {
            "span" => {
                let name = event
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without name")?
                    .to_string();
                let i = find(&mut by_name, name);
                let acc = &mut by_name[i].1;
                acc.durations.push(num("wall_s"));
                acc.peak_max = acc.peak_max.max(num("peak_delta_bytes") as usize);
                acc.allocs += num("allocs") as u64;
            }
            "train.epoch" => {
                let method = event.get("method").and_then(Json::as_str).unwrap_or("?");
                let i = find(&mut by_name, format!("train.epoch[{method}]"));
                let acc = &mut by_name[i].1;
                acc.durations.push(num("epoch_s"));
                acc.peak_max = acc.peak_max.max(num("peak_bytes") as usize);
            }
            _ => {}
        }
        Ok(())
    })?;

    let mut rows: Vec<SpanAgg> = by_name
        .into_iter()
        .map(|(name, mut acc)| {
            acc.durations.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let count = acc.durations.len() as u64;
            let total: f64 = acc.durations.iter().sum();
            let p95_idx =
                ((0.95 * count as f64).ceil() as usize).clamp(1, count as usize) - 1;
            SpanAgg {
                name,
                count,
                total_s: total,
                mean_s: if count == 0 { 0.0 } else { total / count as f64 },
                p95_s: acc.durations.get(p95_idx).copied().unwrap_or(0.0),
                max_s: acc.durations.last().copied().unwrap_or(0.0),
                peak_max_bytes: acc.peak_max,
                allocs: acc.allocs,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.total_s
            .partial_cmp(&a.total_s)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(rows)
}

/// Renders the aggregate rows as an aligned text table. `self(s)` is a
/// span's wall time minus its direct children's ([`self_times`]), and
/// `self%` its share of the summed root wall time — the column to read
/// for "where did the time go": summed over the table it telescopes back
/// to the roots' `total(s)`.
pub fn render_trace_table(rows: &[SpanAgg]) -> String {
    let selfs = self_times(rows);
    let root_wall: f64 = selfs.iter().filter(|s| s.parent.is_none()).map(|s| s.total_s).sum();
    let headers = [
        "span", "count", "total(s)", "self(s)", "self%", "mean(s)", "p95(s)", "max(s)", "peak",
        "allocs",
    ];
    let mut cells = vec![headers.map(str::to_string)];
    // `self_times` keeps input order, so the two zip row for row.
    for (r, s) in rows.iter().zip(&selfs) {
        cells.push([
            r.name.clone(),
            r.count.to_string(),
            format!("{:.4}", r.total_s),
            format!("{:.4}", s.self_s),
            format!("{:.1}", 100.0 * s.self_s / root_wall.max(f64::MIN_POSITIVE)),
            format!("{:.4}", r.mean_s),
            format!("{:.4}", r.p95_s),
            format!("{:.4}", r.max_s),
            kgtosa_memtrack::format_bytes(r.peak_max_bytes),
            r.allocs.to_string(),
        ]);
    }
    render_aligned(&cells)
}

/// Lays `cells` (header row first) out as an aligned text table: first
/// column left-aligned, the rest right-aligned, a rule under the header.
pub(crate) fn render_aligned<const N: usize>(cells: &[[String; N]]) -> String {
    let mut out = String::new();
    let mut widths = [0usize; N];
    for row in cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    for (i, row) in cells.iter().enumerate() {
        for (j, (cell, width)) in row.iter().zip(widths).enumerate() {
            if j == 0 {
                out.push_str(&format!("{cell:<width$}"));
            } else {
                out.push_str(&format!("  {cell:>width$}"));
            }
        }
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Renders the live registry's span aggregates as an indented tree plus
/// a flat list of counters — the human-readable stderr sink.
pub fn render_summary_tree() -> String {
    let stats = registry::span_stats();
    let mut out = String::new();
    if stats.is_empty() {
        return out;
    }
    out.push_str("span summary (wall time · count · max peak growth · allocs)\n");
    for (path, stat) in &stats {
        let depth = path.matches('.').count();
        let label = path.rsplit('.').next().unwrap_or(path);
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(&format!(
            "{label:<24} {:>9.4}s ×{:<4} peak +{:<10} allocs {}\n",
            stat.total_s,
            stat.count,
            kgtosa_memtrack::format_bytes(stat.peak_delta_max),
            stat.allocs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"ev":"log","t":0.0,"msg":"hi"}"#, "\n",
        r#"{"ev":"span","t":0.1,"name":"pipeline.transform","wall_s":0.5,"live_bytes":100,"peak_delta_bytes":2048,"allocs":10}"#, "\n",
        r#"{"ev":"span","t":0.2,"name":"pipeline.transform","wall_s":1.5,"live_bytes":100,"peak_delta_bytes":1024,"allocs":5}"#, "\n",
        "\n",
        r#"{"ev":"train.epoch","t":0.3,"method":"rgcn","epoch":0,"epochs":2,"loss":1.0,"metric":0.5,"elapsed_s":0.2,"epoch_s":0.2,"live_bytes":1,"peak_bytes":4096,"allocs":3}"#, "\n",
        r#"{"ev":"train.epoch","t":0.5,"method":"rgcn","epoch":1,"epochs":2,"loss":0.5,"metric":0.7,"elapsed_s":0.5,"epoch_s":0.3,"live_bytes":1,"peak_bytes":4096,"allocs":3}"#, "\n",
    );

    #[test]
    fn aggregates_spans_and_epochs() {
        let rows = summarize_jsonl(TRACE).unwrap();
        let transform = rows.iter().find(|r| r.name == "pipeline.transform").unwrap();
        assert_eq!(transform.count, 2);
        assert!((transform.total_s - 2.0).abs() < 1e-9);
        assert!((transform.mean_s - 1.0).abs() < 1e-9);
        assert!((transform.max_s - 1.5).abs() < 1e-9);
        assert_eq!(transform.peak_max_bytes, 2048);
        assert_eq!(transform.allocs, 15);

        let epochs = rows.iter().find(|r| r.name == "train.epoch[rgcn]").unwrap();
        assert_eq!(epochs.count, 2);
        assert_eq!(epochs.peak_max_bytes, 4096);
        // Sorted by total time descending: transform (2.0s) first.
        assert_eq!(rows[0].name, "pipeline.transform");
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = summarize_jsonl(TRACE).unwrap();
        let table = render_trace_table(&rows);
        assert!(table.contains("pipeline.transform"));
        assert!(table.contains("train.epoch[rgcn]"));
        assert!(table.lines().count() >= 4); // header + rule + 2 rows
    }

    #[test]
    fn malformed_interior_line_is_an_error() {
        // A broken line with complete events after it is corruption, not
        // truncation: the whole file is rejected.
        let text = format!("{{\"ev\":\"span\"\n{TRACE}");
        assert!(summarize_jsonl(&text).is_err());
        // Well-formed JSON missing the schema's `ev` is an error anywhere.
        assert!(summarize_jsonl("{\"t\":1}").is_err());
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        // Simulate a kill -9 mid-write: the last line is cut off.
        let full = format!("{TRACE}{{\"ev\":\"span\",\"t\":0.9,\"name\":\"pipeline.tra");
        let rows = summarize_jsonl(&full).expect("truncated tail is dropped");
        let transform = rows.iter().find(|r| r.name == "pipeline.transform").unwrap();
        assert_eq!(transform.count, 2, "complete events before the cut survive");
        // A file that is nothing but one truncated line yields no rows.
        assert!(summarize_jsonl("{\"ev\":\"span\"").unwrap().is_empty());
    }

    #[test]
    fn p95_of_single_sample_is_that_sample() {
        let line = r#"{"ev":"span","t":0,"name":"x","wall_s":0.25,"live_bytes":0,"peak_delta_bytes":0,"allocs":0}"#;
        let rows = summarize_jsonl(line).unwrap();
        assert!((rows[0].p95_s - 0.25).abs() < 1e-9);
    }
}
