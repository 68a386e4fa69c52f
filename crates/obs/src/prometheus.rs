//! Prometheus text exposition (format version 0.0.4) of the live
//! registry: counters, gauges, histograms and per-span aggregates — what
//! [`crate::builtin_route`] returns on `/metrics`.
//!
//! Naming follows the Prometheus conventions: every family is prefixed
//! `kgtosa_`, dots become underscores, counters end in `_total`, and
//! histograms expose cumulative `_bucket{le="..."}` series plus `_sum`
//! and `_count`.

use std::fmt::Write as _;

use crate::registry;

/// Maps an internal dotted metric name onto a Prometheus metric name.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' | ':' => out.push(c),
            '0'..='9' if i > 0 => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Escapes a label value (`\`, `"`, and newline per the exposition spec).
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an f64 the way Prometheus expects (`+Inf` / `-Inf` / `NaN`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        v.to_string()
    }
}

fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders the entire registry in exposition format.
pub fn render_prometheus() -> String {
    let mut out = String::with_capacity(4096);

    // Live request-scoped contexts: the fleet-level count a dashboard
    // alerts on.
    family(
        &mut out,
        "kgtosa_active_contexts",
        "gauge",
        "Live telemetry contexts",
    );
    let _ = writeln!(out, "kgtosa_active_contexts {}", crate::context::active_context_count());

    for (name, value) in registry::counter_values() {
        let metric = format!("kgtosa_{}_total", sanitize_name(&name));
        family(&mut out, &metric, "counter", "kgtosa counter");
        let _ = writeln!(out, "{metric} {value}");
    }

    for (name, value) in registry::gauge_values() {
        let metric = format!("kgtosa_{}", sanitize_name(&name));
        family(&mut out, &metric, "gauge", "kgtosa gauge");
        let _ = writeln!(out, "{metric} {value}");
    }

    for (name, value) in registry::gauge_f64_values() {
        let metric = format!("kgtosa_{}", sanitize_name(&name));
        family(&mut out, &metric, "gauge", "kgtosa gauge");
        let _ = writeln!(out, "{metric} {}", fmt_f64(value));
    }

    for (name, hist) in registry::histogram_handles() {
        let metric = format!("kgtosa_{}", sanitize_name(&name));
        family(&mut out, &metric, "histogram", "kgtosa histogram");
        let mut cumulative = 0u64;
        for (edge, count) in hist.bucket_counts() {
            cumulative += count;
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_f64(edge)
            );
        }
        let _ = writeln!(out, "{metric}_sum {}", fmt_f64(hist.sum()));
        let _ = writeln!(out, "{metric}_count {}", hist.count());
    }

    let spans = registry::span_stats();
    if !spans.is_empty() {
        family(
            &mut out,
            "kgtosa_span_seconds_total",
            "counter",
            "Cumulative wall time per span",
        );
        for (name, stat) in &spans {
            let _ = writeln!(
                out,
                "kgtosa_span_seconds_total{{span=\"{}\"}} {}",
                escape_label(name),
                fmt_f64(stat.total_s)
            );
        }
        family(
            &mut out,
            "kgtosa_span_executions_total",
            "counter",
            "Completed executions per span",
        );
        for (name, stat) in &spans {
            let _ = writeln!(
                out,
                "kgtosa_span_executions_total{{span=\"{}\"}} {}",
                escape_label(name),
                stat.count
            );
        }
        family(
            &mut out,
            "kgtosa_span_peak_heap_delta_bytes",
            "gauge",
            "Largest single-execution peak-heap growth per span",
        );
        for (name, stat) in &spans {
            let _ = writeln!(
                out,
                "kgtosa_span_peak_heap_delta_bytes{{span=\"{}\"}} {}",
                escape_label(name),
                stat.peak_delta_max
            );
        }
        family(
            &mut out,
            "kgtosa_span_allocs_total",
            "counter",
            "Heap allocations per span",
        );
        for (name, stat) in &spans {
            let _ = writeln!(
                out,
                "kgtosa_span_allocs_total{{span=\"{}\"}} {}",
                escape_label(name),
                stat.allocs
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_sanitization() {
        assert_eq!(sanitize_name("rdf.fetch.pages"), "rdf_fetch_pages");
        assert_eq!(sanitize_name("train.epoch_s"), "train_epoch_s");
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label(r#"a"b"#), r#"a\"b"#);
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        // All three escapes combined; a pre-escaped backslash must not be
        // double-interpreted (escape the backslash itself, then the rest).
        assert_eq!(escape_label("x\\\"y\nz"), "x\\\\\\\"y\\nz");
        assert_eq!(escape_label("already\\n"), "already\\\\n");
        // Everything else passes through verbatim.
        assert_eq!(escape_label("train.epoch[rgcn] 100%"), "train.epoch[rgcn] 100%");
    }

    #[test]
    fn sanitized_names_are_always_legal_prometheus_identifiers() {
        let legal = |s: &str| {
            !s.is_empty()
                && s.chars().enumerate().all(|(i, c)| match c {
                    'a'..='z' | 'A'..='Z' | '_' | ':' => true,
                    '0'..='9' => i > 0,
                    _ => false,
                })
        };
        for ugly in ["rdf.fetch-retries", "9lives", "träin.loss", "a b\tc", "cache.hit_ratio"] {
            assert!(legal(&sanitize_name(ugly)), "{ugly} → {}", sanitize_name(ugly));
        }
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
    }

    #[test]
    fn counters_and_gauges_render_with_types() {
        crate::counter("test.prom.counter").add(3);
        crate::gauge("test.prom.gauge").set(-4);
        let text = render_prometheus();
        assert!(text.contains("# TYPE kgtosa_test_prom_counter_total counter"));
        assert!(text.contains("kgtosa_test_prom_counter_total 3"));
        assert!(text.contains("# TYPE kgtosa_test_prom_gauge gauge"));
        assert!(text.contains("kgtosa_test_prom_gauge -4"));
    }

    #[test]
    fn active_contexts_gauge_renders_live_count() {
        let text = render_prometheus();
        assert!(text.contains("# TYPE kgtosa_active_contexts gauge"), "{text}");
        let ctx = crate::TelemetryContext::new("prom-ctx");
        let _scope = ctx.enter();
        let text = render_prometheus();
        // At least this context is live (sibling tests may hold more).
        let count: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("kgtosa_active_contexts "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(count >= 1, "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = crate::histogram_with_bounds("test.prom.hist", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let text = render_prometheus();
        assert!(text.contains("# TYPE kgtosa_test_prom_hist histogram"), "{text}");
        // Cumulative: le=1 → 1, le=2 → 2, le=4 → 3, le=+Inf → 4.
        assert!(text.contains("kgtosa_test_prom_hist_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("kgtosa_test_prom_hist_bucket{le=\"2\"} 2"), "{text}");
        assert!(text.contains("kgtosa_test_prom_hist_bucket{le=\"4\"} 3"), "{text}");
        assert!(text.contains("kgtosa_test_prom_hist_bucket{le=\"+Inf\"} 4"), "{text}");
        assert!(text.contains("kgtosa_test_prom_hist_sum 105"), "{text}");
        assert!(text.contains("kgtosa_test_prom_hist_count 4"), "{text}");
    }

    #[test]
    fn histogram_bucket_series_is_monotone_and_ends_at_count() {
        let h = crate::histogram_with_bounds("test.prom.mono", &[0.1, 0.2, 0.5, 1.0]);
        for i in 0..50 {
            h.observe((i as f64 * 0.031) % 1.3);
        }
        let text = render_prometheus();
        // Parse every bucket line of this family back out and check the
        // cumulative counts never decrease and the +Inf bucket equals
        // the family's _count.
        let counts: Vec<u64> = text
            .lines()
            .filter_map(|l| l.strip_prefix("kgtosa_test_prom_mono_bucket{le=\""))
            .map(|rest| rest.split("\"} ").nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), 5, "4 bounds + overflow");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "non-monotone: {counts:?}");
        assert_eq!(*counts.last().unwrap(), h.count());
        assert!(text.contains(&format!("kgtosa_test_prom_mono_count {}", h.count())));
    }

    #[test]
    fn f64_gauges_render() {
        crate::gauge_f64("test.prom.ratio").set(0.875);
        let text = render_prometheus();
        assert!(text.contains("# TYPE kgtosa_test_prom_ratio gauge"), "{text}");
        assert!(text.contains("kgtosa_test_prom_ratio 0.875"), "{text}");
    }

    #[test]
    fn spans_render_as_labelled_series() {
        crate::span("test_prom_span").finish();
        let text = render_prometheus();
        assert!(
            text.contains("kgtosa_span_executions_total{span=\"test_prom_span\"}"),
            "{text}"
        );
        assert!(text.contains("# TYPE kgtosa_span_seconds_total counter"));
    }
}
