//! Deterministic fault injection: the innermost stage of the request
//! pipeline (DESIGN.md §4).
//!
//! A real deployment of Algorithm 3 talks to a live RDF endpoint over HTTP,
//! where requests time out, get rate-limited, or land on a slow replica.
//! A [`FaultPlan`] reproduces that failure surface *deterministically*: it
//! derives, from a seed and the rendered query text, a reproducible
//! schedule of injected transient errors and latency spikes per logical
//! request. Keying the schedule on the request (rather than on a global
//! call counter) keeps it independent of worker interleaving, so a chaos
//! run is reproducible at any thread count — which is what lets the
//! fault-tolerance property tests compare faulty and fault-free fetches
//! bit for bit.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::error::RdfError;

/// One round of splitmix64: a cheap avalanche mixer for deriving
/// independent per-request decisions from a seed.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform fraction in `[0, 1)` from a hash value.
pub(crate) fn unit_frac(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_FAULT: u64 = 0x11;
const SALT_BURST: u64 = 0x22;
const SALT_FATAL: u64 = 0x33;
const SALT_LATENCY: u64 = 0x44;

/// A seeded, reproducible schedule of injected faults.
///
/// Parsed from a `--fault-spec` string of comma-separated `key=value`
/// pairs, e.g. `seed=7,rate=0.3,burst=2,latency-rate=0.1,latency-us=200`:
///
/// | key            | meaning                                                | default |
/// |----------------|--------------------------------------------------------|---------|
/// | `seed`         | seed of the schedule                                   | 7       |
/// | `rate`         | fraction of requests that fail at least once           | 0.2     |
/// | `burst`        | max consecutive transient failures per request         | 2       |
/// | `fatal-rate`   | fraction of requests that fail *permanently*           | 0.0     |
/// | `latency-rate` | fraction of requests hit by a latency spike            | 0.0     |
/// | `latency-us`   | spike duration in microseconds                         | 0       |
///
/// A request selected for transient failure fails its first 1..=`burst`
/// issues and then succeeds, so any retry policy with more than `burst`
/// attempts is guaranteed to get through — that is the "faults below the
/// give-up threshold" regime of the acceptance tests. Fatal faults fail
/// on every issue and model a permanently broken page (only survivable in
/// partial-fetch mode).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the reproducible schedule.
    pub seed: u64,
    /// Fraction of logical requests that fail at least once.
    pub fault_rate: f64,
    /// Maximum consecutive injected transient failures per request.
    pub max_burst: u32,
    /// Fraction of logical requests whose failure is permanent (fatal).
    pub fatal_rate: f64,
    /// Fraction of logical requests hit by a latency spike (first issue).
    pub latency_rate: f64,
    /// Latency spike duration in microseconds.
    pub latency_us: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 7,
            fault_rate: 0.2,
            max_burst: 2,
            fatal_rate: 0.0,
            latency_rate: 0.0,
            latency_us: 0,
        }
    }
}

/// The plan's verdict for one issue of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Pass the request through to the inner endpoint.
    Pass,
    /// Inject a transient error (retry will eventually succeed).
    Transient,
    /// Inject a fatal error (every retry fails too).
    Fatal,
}

impl FaultPlan {
    /// Parses a `--fault-spec` string; see the type docs for the grammar.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault-spec entry {pair:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("fault-spec {key}={value:?}: expected {what}");
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad("an integer"))?,
                "rate" => plan.fault_rate = parse_rate(value).ok_or_else(|| bad("0..=1"))?,
                "burst" => plan.max_burst = value.parse().map_err(|_| bad("an integer"))?,
                "fatal-rate" => plan.fatal_rate = parse_rate(value).ok_or_else(|| bad("0..=1"))?,
                "latency-rate" => {
                    plan.latency_rate = parse_rate(value).ok_or_else(|| bad("0..=1"))?
                }
                "latency-us" => plan.latency_us = value.parse().map_err(|_| bad("an integer"))?,
                other => return Err(format!("unknown fault-spec key {other:?}")),
            }
        }
        if plan.max_burst == 0 {
            return Err("fault-spec burst must be >= 1".into());
        }
        Ok(plan)
    }

    /// Number of injected transient failures scheduled for a request
    /// (0 if the request is not selected for failure).
    fn burst_for(&self, key: u64) -> u32 {
        if unit_frac(mix64(self.seed ^ key ^ SALT_FAULT)) < self.fault_rate {
            1 + (mix64(self.seed ^ key ^ SALT_BURST) % self.max_burst as u64) as u32
        } else {
            0
        }
    }

    fn is_fatal(&self, key: u64) -> bool {
        unit_frac(mix64(self.seed ^ key ^ SALT_FATAL)) < self.fatal_rate
    }

    fn latency_spike(&self, key: u64) -> Option<Duration> {
        if self.latency_us > 0 && unit_frac(mix64(self.seed ^ key ^ SALT_LATENCY)) < self.latency_rate
        {
            Some(Duration::from_micros(self.latency_us))
        } else {
            None
        }
    }

    /// The scheduled outcome for the `issue`-th (1-based) send of the
    /// request identified by `key`.
    pub fn decide(&self, key: u64, issue: u32) -> FaultDecision {
        if self.is_fatal(key) {
            FaultDecision::Fatal
        } else if issue <= self.burst_for(key) {
            FaultDecision::Transient
        } else {
            FaultDecision::Pass
        }
    }

    /// The pipeline's fault stage: books one more issue of request `key`
    /// in `issues` (one fetch's issue count per request, retries
    /// included), sleeps a latency spike scheduled for its first issue,
    /// and fails the issue if the plan says so. `Ok` lets the request
    /// through to the endpoint.
    pub(crate) fn inject(
        &self,
        issues: &Mutex<HashMap<u64, u32>>,
        key: u64,
    ) -> Result<(), RdfError> {
        let issue = {
            let mut issues = issues.lock().unwrap_or_else(|e| e.into_inner());
            let n = issues.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        if issue == 1 {
            if let Some(spike) = self.latency_spike(key) {
                kgtosa_obs::counter("rdf.faults.latency").inc();
                std::thread::sleep(spike);
            }
        }
        let fault = match self.decide(key, issue) {
            FaultDecision::Pass => return Ok(()),
            FaultDecision::Transient => RdfError::transient(format!(
                "injected fault (request {key:016x}, issue {issue})"
            )),
            FaultDecision::Fatal => {
                RdfError::exec(format!("injected fatal fault (request {key:016x})"))
            }
        };
        kgtosa_obs::counter("rdf.faults").inc();
        Err(fault)
    }
}

fn parse_rate(value: &str) -> Option<f64> {
    let rate: f64 = value.parse().ok()?;
    (0.0..=1.0).contains(&rate).then_some(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{FetchConfig, InProcessEndpoint, Pipeline, SparqlEndpoint};
    use crate::parser::parse;
    use crate::store::RdfStore;
    use kgtosa_kg::KnowledgeGraph;
    use kgtosa_obs::TelemetryContext;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..5 {
            kg.add_triple_terms(&format!("a{i}"), "Author", "writes", "p0", "Paper");
        }
        kg
    }

    #[test]
    fn parse_spec_roundtrip() {
        let plan = FaultPlan::parse("seed=9,rate=0.5,burst=3,latency-rate=0.25,latency-us=50")
            .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.fault_rate, 0.5);
        assert_eq!(plan.max_burst, 3);
        assert_eq!(plan.latency_us, 50);
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("rate=2.0").is_err());
        assert!(FaultPlan::parse("burst=0").is_err());
        assert!(FaultPlan::parse("").is_ok());
    }

    #[test]
    fn schedule_is_reproducible_and_bounded() {
        let plan = FaultPlan {
            fault_rate: 0.9,
            max_burst: 3,
            ..FaultPlan::default()
        };
        for key in 0..200u64 {
            let burst = (1..=8)
                .take_while(|&i| plan.decide(key, i) == FaultDecision::Transient)
                .count() as u32;
            assert!(burst <= 3, "burst exceeds max_burst");
            // After the burst, every later issue passes.
            for issue in burst + 1..burst + 4 {
                assert_eq!(plan.decide(key, issue), FaultDecision::Pass);
            }
        }
    }

    #[test]
    fn transient_faults_then_success() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let plan = FaultPlan {
            fault_rate: 1.0,
            max_burst: 2,
            ..FaultPlan::default()
        };
        let cfg = FetchConfig { fault: Some(plan.clone()), ..FetchConfig::default() };
        let faulty = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let ctx = TelemetryContext::new("faults");
        let _scope = ctx.enter();
        let mut failures = 0;
        loop {
            match faulty.select(&q) {
                Ok(rs) => {
                    assert_eq!(rs.len(), 5);
                    break;
                }
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                    assert!(failures <= plan.max_burst, "fault burst not bounded");
                }
            }
        }
        assert!(failures >= 1, "rate=1.0 must fault at least once");
        assert_eq!(ctx.counter_delta("rdf.faults"), failures as u64);
    }

    #[test]
    fn fatal_faults_never_recover() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let plan = FaultPlan {
            fault_rate: 1.0,
            fatal_rate: 1.0,
            ..FaultPlan::default()
        };
        let cfg = FetchConfig { fault: Some(plan), ..FetchConfig::default() };
        let faulty = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        for _ in 0..5 {
            let err = faulty.select(&q).unwrap_err();
            assert!(!err.is_transient());
        }
    }
}
