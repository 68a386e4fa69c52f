//! Cost attribution on top of the span machinery: [`self_times`] turns
//! per-span aggregates (from the live registry or a parsed trace) into a
//! tree where every span carries its *self* time — wall time minus the
//! wall time of its direct children. Summed over a tree, self times
//! telescope back to the root's wall time, which is what makes them a
//! valid cost breakdown (the paper's Table IV decomposition, computed
//! instead of transcribed). `trace-summary` prints it for a finished
//! run, `/prof` serves it for a live one.

use crate::json::Json;
use crate::registry;
use crate::summary::SpanAgg;

/// One span's position in the attribution tree.
#[derive(Debug, Clone)]
pub struct SelfTime {
    /// Full dotted path as recorded.
    pub name: String,
    /// Index into the result of the direct parent, when one was recorded.
    pub parent: Option<usize>,
    /// Nesting depth under its recorded root (0 = root).
    pub depth: usize,
    /// Cumulative wall time (the span and everything under it).
    pub total_s: f64,
    /// Wall time attributed to the span itself: total minus direct
    /// children, clamped at zero (clock noise can make children sum past
    /// their parent by nanoseconds).
    pub self_s: f64,
    /// Allocations attributed to the span itself (total minus children,
    /// clamped — the allocator counters are process-global, so this is
    /// attribution by containment, not by thread).
    pub self_allocs: u64,
    pub count: u64,
}

/// Computes self-time attribution over per-span aggregates. The parent
/// of a span is the *longest* other span name that prefixes it at a dot
/// boundary — exactly how `span()` builds nested paths. Input order is
/// preserved in the output; the result is a forest when several roots
/// were recorded (e.g. spans from spawned threads).
pub fn self_times(aggs: &[SpanAgg]) -> Vec<SelfTime> {
    let mut rows: Vec<SelfTime> = aggs
        .iter()
        .map(|a| SelfTime {
            name: a.name.clone(),
            parent: None,
            depth: 0,
            total_s: a.total_s,
            self_s: a.total_s,
            self_allocs: a.allocs,
            count: a.count,
        })
        .collect();
    for (i, row) in rows.iter_mut().enumerate() {
        let mut best: Option<usize> = None;
        for (j, cand) in aggs.iter().enumerate() {
            if i == j || row.name.len() <= cand.name.len() {
                continue;
            }
            let is_parent = row
                .name
                .strip_prefix(&cand.name)
                .is_some_and(|rest| rest.starts_with('.'));
            if is_parent && best.is_none_or(|b| aggs[b].name.len() < cand.name.len()) {
                best = Some(j);
            }
        }
        row.parent = best;
    }
    // Depth by walking parent links (paths are acyclic by construction).
    for i in 0..rows.len() {
        let mut depth = 0;
        let mut at = rows[i].parent;
        while let Some(p) = at {
            depth += 1;
            at = rows[p].parent;
        }
        rows[i].depth = depth;
    }
    // Subtract each span's total from its direct parent's self time.
    for i in 0..rows.len() {
        if let Some(p) = rows[i].parent {
            rows[p].self_s = (rows[p].self_s - rows[i].total_s).max(0.0);
            rows[p].self_allocs = rows[p].self_allocs.saturating_sub(aggs[i].allocs);
        }
    }
    rows
}

/// Registry span aggregates in [`SpanAgg`] form (bridging the live
/// registry into the attribution/report pipeline).
pub fn registry_aggs() -> Vec<SpanAgg> {
    registry::span_stats()
        .into_iter()
        .map(|(name, s)| SpanAgg {
            name,
            count: s.count,
            total_s: s.total_s,
            mean_s: if s.count == 0 { 0.0 } else { s.total_s / s.count as f64 },
            p95_s: s.max_s,
            max_s: s.max_s,
            peak_max_bytes: s.peak_delta_max,
            allocs: s.allocs,
        })
        .collect()
}

/// The `/prof` payload: live self-time attribution over the registry.
pub fn prof_json() -> Json {
    let spans: Vec<Json> = self_times(&registry_aggs())
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("depth".into(), Json::Num(r.depth as f64)),
                ("total_s".into(), Json::Num(r.total_s)),
                ("self_s".into(), Json::Num(r.self_s)),
                ("self_allocs".into(), Json::Num(r.self_allocs as f64)),
                ("count".into(), Json::Num(r.count as f64)),
            ])
        })
        .collect();
    Json::Obj(vec![("spans".into(), Json::Arr(spans))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(name: &str, total_s: f64, allocs: u64) -> SpanAgg {
        SpanAgg {
            name: name.to_string(),
            count: 1,
            total_s,
            mean_s: total_s,
            p95_s: total_s,
            max_s: total_s,
            peak_max_bytes: 0,
            allocs,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let aggs = vec![
            agg("root", 10.0, 1000),
            agg("root.a", 6.0, 600),
            agg("root.a.x", 2.0, 100),
            agg("root.b", 3.0, 50),
        ];
        let rows = self_times(&aggs);
        let by = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // root self = 10 - (6 + 3); root.a self = 6 - 2; leaves keep all.
        assert!((by("root").self_s - 1.0).abs() < 1e-12);
        assert!((by("root.a").self_s - 4.0).abs() < 1e-12);
        assert!((by("root.a.x").self_s - 2.0).abs() < 1e-12);
        assert!((by("root.b").self_s - 3.0).abs() < 1e-12);
        assert_eq!(by("root").depth, 0);
        assert_eq!(by("root.a.x").depth, 2);
        assert_eq!(by("root").self_allocs, 1000 - 600 - 50);
    }

    #[test]
    fn self_times_telescope_to_root_wall() {
        let aggs = vec![
            agg("r", 5.0, 0),
            agg("r.a", 2.0, 0),
            agg("r.a.i", 0.5, 0),
            agg("r.b", 1.5, 0),
        ];
        let rows = self_times(&aggs);
        let sum: f64 = rows.iter().map(|r| r.self_s).sum();
        assert!((sum - 5.0).abs() < 1e-9, "self times must sum to the root wall: {sum}");
    }

    #[test]
    fn dotted_names_are_not_confused_with_nesting() {
        // "extract.brw" is a single span name; it only nests under
        // "extract" if a span literally named "extract" was recorded.
        let aggs = vec![agg("extract.brw", 2.0, 0), agg("pipeline", 1.0, 0)];
        let rows = self_times(&aggs);
        assert!(rows.iter().all(|r| r.parent.is_none()));
        // With the parent recorded, the longest prefix wins.
        let aggs = vec![
            agg("p", 9.0, 0),
            agg("p.q", 5.0, 0),
            agg("p.q.r", 1.0, 0),
        ];
        let rows = self_times(&aggs);
        assert_eq!(rows[2].parent, Some(1), "longest prefix, not just any");
    }

    #[test]
    fn clamps_noise_below_zero() {
        // Children's totals can exceed the parent's by clock noise.
        let aggs = vec![agg("n", 1.0, 10), agg("n.c", 1.0000001, 20)];
        let rows = self_times(&aggs);
        assert_eq!(rows[0].self_s, 0.0);
        assert_eq!(rows[0].self_allocs, 0);
    }
}
