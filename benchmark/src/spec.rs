//! `BENCHMARK.json`, embedded at build time: the one list of workloads,
//! metric names, units, directions and bounds. The run reports exactly
//! the metrics declared there, and `agree` judges them by those bounds.

use kgtosa_obs::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn array(json: &Json, key: &str) -> Vec<Json> {
    match json.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => panic!("BENCHMARK.json: {key:?} must be an array"),
    }
}

fn text(json: &Json, key: &str) -> String {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string {key:?}"))
        .to_string()
}

fn metrics(json: &Json, key: &str) -> Vec<Metric> {
    array(json, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Spec {
    pub fn load() -> Self {
        let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds") as u64,
            workloads: array(&json, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics(&json, "end_to_end"),
            per_layer: metrics(&json, "per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits of the benchmark contract that a typo could break.
    #[test]
    fn benchmark_json_meets_the_contract() {
        let spec = Spec::load();
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&String> = spec
            .workloads
            .iter()
            .chain(spec.end_to_end.iter().map(|m| &m.name))
            .chain(spec.per_layer.iter().map(|m| &m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_unit(&m.unit), "bad unit {:?} on {}", m.unit, m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }
}
