//! Process-global metrics registry: named counters, gauges, fixed-bucket
//! histograms, and per-span aggregate statistics.
//!
//! Handles are `Arc`s — look a metric up once (a short RwLock critical
//! section) and update it lock-free afterwards. Registration is
//! idempotent: the same name always returns the same instrument.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::json::Json;

/// Monotonically increasing event count.
///
/// Registry-created counters know their own name, which is what lets
/// every update additionally flow into the telemetry context current on
/// the updating thread (see [`crate::TelemetryContext`]); a
/// default-constructed counter has no name and skips that layer.
#[derive(Debug, Default)]
pub struct Counter {
    name: String,
    value: AtomicU64,
}

impl Counter {
    fn named(name: &str) -> Self {
        Counter { name: name.to_string(), value: AtomicU64::new(0) }
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.name.is_empty() {
            crate::context::on_counter(&self.name, n);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed level (queue depths, worker counts, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point level, for derived ratios and rates
/// (`cache.hit_ratio`, utilizations). Stored as f64 bit patterns in an
/// `AtomicU64`, so it stays lock-free like [`Gauge`].
#[derive(Debug)]
pub struct GaugeF64 {
    bits: AtomicU64,
}

impl Default for GaugeF64 {
    fn default() -> Self {
        GaugeF64 { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl GaugeF64 {
    /// Sets the level. Non-finite values are dropped rather than stored —
    /// a ratio gauge must never poison the Prometheus exposition or the
    /// JSON snapshot with `NaN`/`inf`.
    pub fn set(&self, v: f64) {
        if v.is_finite() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram. `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one overflow bucket catches everything above the last
/// bound. Sum and max are kept via CAS on f64 bit patterns, so `observe`
/// stays lock-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS-accumulate the sum.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // CAS-max.
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self
                .max_bits
                .compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Quantile estimate from bucket counts: returns the upper edge of the
    /// bucket where the cumulative count crosses `q`, or the observed max
    /// for the overflow bucket. `q` in [0, 1].
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return if i < self.bounds.len() { self.bounds[i] } else { self.max() };
            }
        }
        self.max()
    }

    /// (upper_edge, count) pairs; the overflow bucket reports `f64::INFINITY`.
    pub fn bucket_counts(&self) -> Vec<(f64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let edge = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
                (edge, b.load(Ordering::Relaxed))
            })
            .collect()
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_s: f64,
    pub max_s: f64,
    /// Largest single-span peak-heap growth observed.
    pub peak_delta_max: usize,
    /// Total allocations across all executions of this span.
    pub allocs: u64,
}

#[derive(Default)]
struct Registry {
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    gauges_f64: RwLock<HashMap<String, Arc<GaugeF64>>>,
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    spans: RwLock<HashMap<String, SpanStat>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

pub fn counter(name: &str) -> Arc<Counter> {
    if let Some(c) = registry().counters.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(name) {
        return Arc::clone(c);
    }
    let mut map = registry().counters.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::named(name))),
    )
}

pub fn gauge(name: &str) -> Arc<Gauge> {
    if let Some(g) = registry().gauges.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(name) {
        return Arc::clone(g);
    }
    let mut map = registry().gauges.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::default())),
    )
}

pub fn gauge_f64(name: &str) -> Arc<GaugeF64> {
    if let Some(g) = registry().gauges_f64.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(name) {
        return Arc::clone(g);
    }
    let mut map = registry().gauges_f64.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(GaugeF64::default())),
    )
}

/// Default time buckets: 1µs → ~1000s, one per decade-third (1/2/5 feel).
const DEFAULT_TIME_BOUNDS: [f64; 19] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
    1e-1, 1.0, 10.0, 100.0,
];

/// A histogram with the default duration buckets (seconds).
pub fn histogram(name: &str) -> Arc<Histogram> {
    histogram_with_bounds(name, &DEFAULT_TIME_BOUNDS)
}

/// A histogram with explicit upper edges. The bounds are fixed on first
/// registration; later calls with a different shape get the original.
pub fn histogram_with_bounds(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    if let Some(h) = registry().histograms.read().unwrap_or_else(std::sync::PoisonError::into_inner).get(name) {
        return Arc::clone(h);
    }
    let mut map = registry().histograms.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(bounds.to_vec()))),
    )
}

pub(crate) fn record_span(name: &str, wall_s: f64, peak_delta: usize, allocs: u64) {
    let mut map = registry().spans.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    let stat = map.entry(name.to_string()).or_default();
    stat.count += 1;
    stat.total_s += wall_s;
    stat.max_s = stat.max_s.max(wall_s);
    stat.peak_delta_max = stat.peak_delta_max.max(peak_delta);
    stat.allocs += allocs;
}

/// All counters as `(name, value)`, sorted by name (Prometheus renderer).
pub(crate) fn counter_values() -> Vec<(String, u64)> {
    let mut rows: Vec<_> = registry()
        .counters
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// All gauges as `(name, value)`, sorted by name.
pub(crate) fn gauge_values() -> Vec<(String, i64)> {
    let mut rows: Vec<_> = registry()
        .gauges
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// All f64 gauges as `(name, value)`, sorted by name.
pub(crate) fn gauge_f64_values() -> Vec<(String, f64)> {
    let mut rows: Vec<_> = registry()
        .gauges_f64
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), v.get()))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// All histogram handles, sorted by name.
pub(crate) fn histogram_handles() -> Vec<(String, Arc<Histogram>)> {
    let mut rows: Vec<_> = registry()
        .histograms
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), Arc::clone(v)))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// All span aggregates, sorted by name for stable output.
pub fn span_stats() -> Vec<(String, SpanStat)> {
    let mut rows: Vec<_> = registry()
        .spans
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// The `counters` and `gauges` fields shared by the trace's periodic
/// `counters` event and its final `metrics` snapshot.
pub(crate) fn counter_gauge_fields() -> Vec<(String, Json)> {
    let counters = counter_values()
        .into_iter()
        .map(|(k, v)| (k, Json::Num(v as f64)))
        .collect();
    let mut gauges: Vec<(String, Json)> = gauge_values()
        .into_iter()
        .map(|(k, v)| (k, Json::Num(v as f64)))
        .collect();
    // Integer and float gauges share one namespace in the snapshot.
    gauges.extend(gauge_f64_values().into_iter().map(|(k, v)| (k, Json::Num(v))));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
    ]
}

/// Snapshot of every instrument as a JSON object — emitted as the final
/// `metrics` event when a trace stream shuts down.
pub fn metrics_snapshot() -> Json {
    let histograms: Vec<(String, Json)> = histogram_handles()
        .into_iter()
        .map(|(k, v)| {
            (
                k,
                Json::Obj(vec![
                    ("count".into(), Json::Num(v.count() as f64)),
                    ("mean".into(), Json::Num(v.mean())),
                    ("p95".into(), Json::Num(v.quantile(0.95))),
                    ("max".into(), Json::Num(v.max())),
                ]),
            )
        })
        .collect();

    let spans: Vec<(String, Json)> = span_stats()
        .into_iter()
        .map(|(k, s)| {
            (
                k,
                Json::Obj(vec![
                    ("count".into(), Json::Num(s.count as f64)),
                    ("total_s".into(), Json::Num(s.total_s)),
                    ("max_s".into(), Json::Num(s.max_s)),
                    ("peak_delta_max".into(), Json::Num(s.peak_delta_max as f64)),
                    ("allocs".into(), Json::Num(s.allocs as f64)),
                ]),
            )
        })
        .collect();

    let mut fields = counter_gauge_fields();
    fields.push(("histograms".into(), Json::Obj(histograms)));
    fields.push(("spans".into(), Json::Obj(spans)));
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_shared_by_name() {
        let a = counter("test.reg.shared");
        let b = counter("test.reg.shared");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = gauge("test.reg.gauge");
        g.set(-2);
        g.add(5);
        assert_eq!(gauge("test.reg.gauge").get(), 3);
    }

    #[test]
    fn histogram_bucketing() {
        let h = histogram_with_bounds("test.reg.hist", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-9);
        assert!((h.mean() - 21.2).abs() < 1e-9);
        assert_eq!(h.max(), 100.0);
        let buckets = h.bucket_counts();
        // <=1.0: {0.5, 1.0}; <=2.0: {1.5}; <=4.0: {3.0}; overflow: {100.0}
        assert_eq!(buckets[0], (1.0, 2));
        assert_eq!(buckets[1], (2.0, 1));
        assert_eq!(buckets[2], (4.0, 1));
        assert_eq!(buckets[3].1, 1);
        assert!(buckets[3].0.is_infinite());
        // Quantiles: p40 lands in the first bucket, p99 in overflow (= max).
        assert_eq!(h.quantile(0.4), 1.0);
        assert_eq!(h.quantile(0.99), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn histogram_concurrent_observe() {
        let h = histogram_with_bounds("test.reg.hist.par", &[10.0]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe(i as f64 % 5.0);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 4.0 * (0.0 + 1.0 + 2.0 + 3.0 + 4.0) * 200.0).abs() < 1e-6);
    }

    #[test]
    fn f64_gauge_stores_ratios_and_rejects_non_finite() {
        let g = gauge_f64("test.reg.ratio");
        g.set(0.75);
        assert_eq!(gauge_f64("test.reg.ratio").get(), 0.75);
        g.set(f64::NAN);
        g.set(f64::INFINITY);
        assert_eq!(g.get(), 0.75, "non-finite writes must be dropped");
        let snap = metrics_snapshot();
        assert_eq!(
            snap.get("gauges").unwrap().get("test.reg.ratio").unwrap().as_f64(),
            Some(0.75)
        );
    }

    #[test]
    fn snapshot_contains_instruments() {
        counter("test.reg.snap").add(7);
        let snap = metrics_snapshot();
        let counters = snap.get("counters").unwrap();
        assert_eq!(counters.get("test.reg.snap").unwrap().as_f64(), Some(7.0));
    }
}
