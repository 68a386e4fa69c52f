//! Retry/backoff: the stage of the request pipeline (DESIGN.md §4) that
//! loops around the endpoint.
//!
//! Algorithm 3's request handlers fire thousands of paginated requests at
//! the RDF engine; in a live deployment any of them can fail transiently.
//! A [`RetryPolicy`] makes that loop survivable: transient errors (as
//! classified by [`RdfError::is_transient`]) are retried with exponential
//! backoff and *seeded* jitter — deterministic per request, so chaos runs
//! reproduce — while fatal errors (parse/exec) propagate immediately.

use std::time::{Duration, Instant};

use crate::error::RdfError;
use crate::fault::{mix64, unit_frac};

/// When to stop retrying and how long to wait in between.
///
/// Parsed from a `--retry` string of comma-separated `key=value` pairs,
/// e.g. `attempts=6,base-us=200,max-us=20000,seed=7`:
///
/// | key                   | meaning                                      | default |
/// |-----------------------|----------------------------------------------|---------|
/// | `attempts`            | total attempts per request (first + retries) | 5       |
/// | `base-us`             | backoff before the first retry (µs)          | 200     |
/// | `max-us`              | backoff cap (µs)                             | 20000   |
/// | `seed`                | jitter seed                                  | 7       |
/// | `request-deadline-ms` | wall-clock budget per request incl. retries  | none    |
/// | `fetch-deadline-ms`   | wall-clock budget for the whole endpoint     | none    |
///
/// The defaults are sized for the in-process engine used in tests; a real
/// HTTP deployment would use millisecond-scale backoffs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request (the first send counts as attempt 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in microseconds.
    pub base_backoff_us: u64,
    /// Upper bound on a single backoff, in microseconds.
    pub max_backoff_us: u64,
    /// Seed of the deterministic jitter.
    pub jitter_seed: u64,
    /// Wall-clock budget for one request including its retries.
    pub request_deadline: Option<Duration>,
    /// Wall-clock budget for the whole fetch (endpoint lifetime).
    pub fetch_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff_us: 200,
            max_backoff_us: 20_000,
            jitter_seed: 7,
            request_deadline: None,
            fetch_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// Parses a `--retry` string; see the type docs for the grammar.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = RetryPolicy::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("retry entry {pair:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || format!("retry {key}={value:?}: expected an integer");
            let int = |v: &str| v.parse::<u64>().map_err(|_| bad());
            match key {
                // Parsed at the field's own width: a value that does not
                // fit is an error, not a truncation.
                "attempts" => policy.max_attempts = value.parse().map_err(|_| bad())?,
                "base-us" => policy.base_backoff_us = int(value)?,
                "max-us" => policy.max_backoff_us = int(value)?,
                "seed" => policy.jitter_seed = int(value)?,
                "request-deadline-ms" => {
                    policy.request_deadline = Some(Duration::from_millis(int(value)?))
                }
                "fetch-deadline-ms" => {
                    policy.fetch_deadline = Some(Duration::from_millis(int(value)?))
                }
                other => return Err(format!("unknown retry key {other:?}")),
            }
        }
        if policy.max_attempts == 0 {
            return Err("retry attempts must be >= 1".into());
        }
        Ok(policy)
    }

    /// Derives a policy whose request and fetch deadlines are capped at
    /// `budget` (an existing tighter deadline wins). The serving layer
    /// uses this to propagate a request's *remaining* wall-clock budget
    /// into every endpoint round-trip it triggers, so a doomed request
    /// stops retrying instead of timing out at the socket.
    pub fn capped_to_budget(&self, budget: Duration) -> Self {
        let cap = |d: Option<Duration>| Some(d.map_or(budget, |d| d.min(budget)));
        Self {
            request_deadline: cap(self.request_deadline),
            fetch_deadline: cap(self.fetch_deadline),
            ..self.clone()
        }
    }

    /// Backoff before retry number `retry` (1-based) of the request
    /// identified by `key`: exponential growth capped at `max_backoff_us`,
    /// scaled into `[1/2, 1)` of the nominal delay by seeded jitter so
    /// concurrent handlers don't stampede in lockstep — yet every run with
    /// the same seed waits exactly as long.
    pub fn backoff(&self, key: u64, retry: u32) -> Duration {
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64 << (retry - 1).min(20))
            .min(self.max_backoff_us);
        let jitter = unit_frac(mix64(self.jitter_seed ^ key ^ retry as u64));
        Duration::from_micros(exp / 2 + (exp as f64 / 2.0 * jitter) as u64)
    }
}

/// Why the retry stage abandoned a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GiveUp {
    /// Every attempt the policy allows failed.
    AttemptsExhausted,
    /// A wall-clock budget ran out, or cannot cover the next backoff; the
    /// text says which.
    Deadline(&'static str),
}

impl RetryPolicy {
    /// The verdict after attempt number `attempt` of request `key` failed
    /// transiently: how long to back off before the next attempt, or why
    /// there will be none. The request deadline runs from `request_start`,
    /// the fetch deadline from `fetch_start`.
    fn next_backoff(
        &self,
        key: u64,
        attempt: u32,
        request_start: Instant,
        fetch_start: Instant,
    ) -> Result<Duration, GiveUp> {
        let spent = |deadline: Option<Duration>, start: Instant, more: Duration| {
            deadline.is_some_and(|d| start.elapsed() + more >= d)
        };
        if attempt >= self.max_attempts {
            return Err(GiveUp::AttemptsExhausted);
        }
        if spent(self.fetch_deadline, fetch_start, Duration::ZERO) {
            return Err(GiveUp::Deadline("fetch deadline exceeded"));
        }
        if spent(self.request_deadline, request_start, Duration::ZERO) {
            return Err(GiveUp::Deadline("request deadline exceeded"));
        }
        let backoff = self.backoff(key, attempt);
        // A backoff that would sleep past the remaining budget cannot
        // lead to a successful retry — the next attempt would start
        // already expired. Give up now instead of burning a worker on
        // a sleep whose outcome is predetermined.
        if spent(self.request_deadline, request_start, backoff) {
            return Err(GiveUp::Deadline("request deadline precludes next backoff"));
        }
        if spent(self.fetch_deadline, fetch_start, backoff) {
            return Err(GiveUp::Deadline("fetch deadline precludes next backoff"));
        }
        Ok(backoff)
    }

    /// The pipeline's retry stage, entered when attempt number `attempt`
    /// of request `key` failed with the transient `err`: sleeps the
    /// backoff and returns `Ok` for the request to be sent again, or gives
    /// up with the request's final error. Every retry bumps `rdf.retries`
    /// and emits an `rdf.retry` trace event, every give-up `rdf.giveups`
    /// and `rdf.giveup`.
    pub(crate) fn back_off(
        &self,
        key: u64,
        attempt: u32,
        request_start: Instant,
        fetch_start: Instant,
        err: &RdfError,
    ) -> Result<(), RdfError> {
        let backoff = self
            .next_backoff(key, attempt, request_start, fetch_start)
            .map_err(|why| give_up(key, attempt, why, err))?;
        kgtosa_obs::counter("rdf.retries").inc();
        if kgtosa_obs::telemetry_active() {
            kgtosa_obs::emit_event(
                "rdf.retry",
                vec![
                    ("request".into(), kgtosa_obs::Json::Str(format!("{key:016x}"))),
                    ("attempt".into(), kgtosa_obs::Json::Num(attempt as f64)),
                    ("backoff_us".into(), kgtosa_obs::Json::Num(backoff.as_micros() as f64)),
                    ("error".into(), kgtosa_obs::Json::Str(err.to_string())),
                ],
            );
        }
        std::thread::sleep(backoff);
        Ok(())
    }
}

/// Books a give-up and builds the abandoned request's final error.
fn give_up(key: u64, attempt: u32, why: GiveUp, err: &RdfError) -> RdfError {
    let text = match why {
        GiveUp::AttemptsExhausted => "attempts exhausted",
        GiveUp::Deadline(which) => which,
    };
    kgtosa_obs::counter("rdf.giveups").inc();
    if kgtosa_obs::telemetry_active() {
        kgtosa_obs::emit_event(
            "rdf.giveup",
            vec![
                ("request".into(), kgtosa_obs::Json::Str(format!("{key:016x}"))),
                ("attempts".into(), kgtosa_obs::Json::Num(attempt as f64)),
                ("why".into(), kgtosa_obs::Json::Str(text.into())),
            ],
        );
    }
    let msg = format!("gave up after {attempt} attempts ({text}): {err}");
    // The give-up is final: neither variant is transient, so nothing
    // retries a request this policy already abandoned. Deadline give-ups
    // keep their classification so the serving layer can answer with a
    // budget-exhausted status instead of a plain error.
    match why {
        GiveUp::AttemptsExhausted => RdfError::exec(msg),
        GiveUp::Deadline(_) => RdfError::deadline(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;
    use crate::endpoint::{FetchConfig, InProcessEndpoint, Pipeline, SparqlEndpoint};
    use crate::exec::ResultSet;
    use crate::fault::FaultPlan;
    use crate::parser::parse;
    use crate::store::RdfStore;
    use kgtosa_kg::KnowledgeGraph;
    use kgtosa_obs::TelemetryContext;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..6 {
            kg.add_triple_terms(&format!("a{i}"), "Author", "writes", "p0", "Paper");
        }
        kg
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            base_backoff_us: 1,
            max_backoff_us: 10,
            ..RetryPolicy::default()
        }
    }

    fn faulty_retrying(plan: FaultPlan, policy: RetryPolicy) -> FetchConfig {
        FetchConfig { fault: Some(plan), retry: Some(policy), ..FetchConfig::default() }
    }

    #[test]
    fn parse_spec() {
        let p = RetryPolicy::parse("attempts=7,base-us=50,max-us=500,request-deadline-ms=9")
            .unwrap();
        assert_eq!(p.max_attempts, 7);
        assert_eq!(p.base_backoff_us, 50);
        assert_eq!(p.max_backoff_us, 500);
        assert_eq!(p.request_deadline, Some(Duration::from_millis(9)));
        assert!(RetryPolicy::parse("attempts=0").is_err());
        // Used to wrap to 1.
        assert!(RetryPolicy::parse("attempts=4294967297").is_err());
        assert!(RetryPolicy::parse("bogus=1").is_err());
    }

    #[test]
    fn backoff_grows_capped_and_deterministic() {
        let p = RetryPolicy {
            base_backoff_us: 100,
            max_backoff_us: 1_000,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff(42, 1);
        let b4 = p.backoff(42, 4);
        assert!(b1 >= Duration::from_micros(50) && b1 < Duration::from_micros(100));
        // Nominal delay at retry 4 is 800µs (capped at 1000); jitter keeps
        // it in [nominal/2, nominal).
        assert!(b4 >= Duration::from_micros(400) && b4 < Duration::from_micros(800));
        assert_eq!(p.backoff(42, 3), p.backoff(42, 3), "jitter must be seeded");
    }

    #[test]
    fn retries_through_transient_faults() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let plan = FaultPlan {
            fault_rate: 1.0,
            max_burst: 3,
            ..FaultPlan::default()
        };
        let cfg = faulty_retrying(plan, fast_policy());
        let retrying = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let ctx = TelemetryContext::new("retries");
        let _scope = ctx.enter();
        let rs = retrying.select(&q).unwrap();
        assert_eq!(rs.len(), 6);
        let retries = ctx.counter_delta("rdf.retries");
        assert!((1..=3).contains(&retries));
        assert_eq!(ctx.counter_delta("rdf.giveups"), 0);
    }

    #[test]
    fn gives_up_when_attempts_exhausted() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let plan = FaultPlan {
            fault_rate: 1.0,
            max_burst: 10,
            ..FaultPlan::default()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            ..fast_policy()
        };
        let cfg = faulty_retrying(plan, policy);
        let retrying = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let ctx = TelemetryContext::new("giveup");
        let _scope = ctx.enter();
        let err = retrying.select(&q).unwrap_err();
        assert!(!err.is_transient(), "give-up must not invite outer retries");
        assert!(err.to_string().contains("gave up after 3 attempts"));
        assert_eq!(ctx.counter_delta("rdf.retries"), 2);
        assert_eq!(ctx.counter_delta("rdf.giveups"), 1);
    }

    #[test]
    fn backoff_longer_than_remaining_budget_gives_up_immediately() {
        let kg = kg();
        let store = RdfStore::new(&kg);
        let ep = InProcessEndpoint::new(&store);
        let plan = FaultPlan {
            fault_rate: 1.0,
            max_burst: 10,
            ..FaultPlan::default()
        };
        // The next backoff (~0.25-0.5s) dwarfs the 50ms budget: the layer
        // must give up *now* with a deadline classification instead of
        // sleeping past the deadline and failing at the next attempt.
        let policy = RetryPolicy {
            base_backoff_us: 500_000,
            max_backoff_us: 500_000,
            request_deadline: Some(Duration::from_millis(50)),
            ..RetryPolicy::default()
        };
        let cfg = faulty_retrying(plan, policy);
        let retrying = Pipeline::new(&ep, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let ctx = TelemetryContext::new("deadline");
        let _scope = ctx.enter();
        let start = Instant::now();
        let err = retrying.select(&q).unwrap_err();
        assert!(err.is_deadline(), "expected deadline classification: {err}");
        assert!(!err.is_transient());
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "gave up after {:?} — it slept through the doomed backoff",
            start.elapsed()
        );
        assert_eq!(ctx.counter_delta("rdf.retries"), 0, "no retry can fit in the budget");
        assert_eq!(ctx.counter_delta("rdf.giveups"), 1);
    }

    #[test]
    fn capped_to_budget_tightens_never_loosens() {
        let p = RetryPolicy {
            request_deadline: Some(Duration::from_millis(5)),
            fetch_deadline: None,
            ..RetryPolicy::default()
        };
        let capped = p.capped_to_budget(Duration::from_millis(100));
        assert_eq!(capped.request_deadline, Some(Duration::from_millis(5)));
        assert_eq!(capped.fetch_deadline, Some(Duration::from_millis(100)));
        let tighter = p.capped_to_budget(Duration::from_millis(2));
        assert_eq!(tighter.request_deadline, Some(Duration::from_millis(2)));
    }

    #[test]
    fn fatal_errors_pass_straight_through() {
        struct FatalEndpoint;
        impl SparqlEndpoint for FatalEndpoint {
            fn select(&self, _q: &Query) -> Result<ResultSet, RdfError> {
                Err(RdfError::exec("boom"))
            }
        }
        let cfg = FetchConfig { retry: Some(fast_policy()), ..FetchConfig::default() };
        let retrying = Pipeline::new(&FatalEndpoint, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        let ctx = TelemetryContext::new("fatal");
        let _scope = ctx.enter();
        let err = retrying.select(&q).unwrap_err();
        assert_eq!(err, RdfError::exec("boom"));
        assert_eq!(ctx.counter_delta("rdf.retries"), 0);
        assert_eq!(ctx.counter_delta("rdf.giveups"), 0);
    }
}
