//! A deterministic circuit breaker: the stage of the request pipeline
//! (DESIGN.md §4) that gates what the retry loop may send.
//!
//! When the backend starts failing *permanently* (give-ups, fatal
//! errors), retrying harder only cascades the failure: every doomed
//! request still burns a worker for its full retry budget. The breaker
//! cuts that loop. It watches the final outcomes of requests — give-ups
//! and fatal errors, not the transient attempts a retry absorbed — and,
//! after `trip_threshold` consecutive failures, *opens*: subsequent
//! requests are rejected immediately with [`RdfError::BreakerOpen`],
//! without touching the backend. After a cooldown it *half-opens* and
//! lets exactly one probe request through; a successful probe closes the
//! breaker, a failed one re-opens it.
//!
//! **Determinism contract.** The repo's chaos tests replay fault
//! schedules at 1/4/8 threads and expect identical breaker trajectories,
//! so nothing in the state machine may depend on wall-clock time or
//! thread interleaving:
//!
//! * transitions are driven by *outcome counts*, not timers — the
//!   cooldown is "reject the next `k` requests", not "stay open for
//!   `t` ms";
//! * the cooldown length `k` is derived from the policy seed and the
//!   trip ordinal by seeded jitter (so concurrent breakers across
//!   endpoints don't half-open in lockstep, yet every run with the same
//!   seed rejects exactly as many requests);
//! * the whole state machine lives behind one mutex, so the transition
//!   log is a single total order.
//!
//! Under an all-fail or all-pass outcome regime (the regimes the chaos
//! suite uses), the trajectory is therefore a pure function of the
//! number of requests processed — independent of which worker processed
//! which request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::RdfError;
use crate::fault::mix64;

/// When the breaker trips and how long it stays open.
///
/// Parsed from a `--breaker` string of comma-separated `key=value`
/// pairs, e.g. `trip=5,cooldown=20,seed=7`:
///
/// | key        | meaning                                            | default |
/// |------------|----------------------------------------------------|---------|
/// | `trip`     | consecutive failures that open the breaker         | 5       |
/// | `cooldown` | nominal requests rejected before half-opening      | 16      |
/// | `seed`     | jitter seed for the per-trip cooldown length       | 7       |
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker open.
    pub trip_threshold: u32,
    /// Nominal number of rejected requests before a half-open probe; the
    /// actual per-trip length is jittered into `[cooldown/2, cooldown]`.
    pub cooldown_requests: u32,
    /// Seed of the deterministic cooldown jitter.
    pub seed: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self { trip_threshold: 5, cooldown_requests: 16, seed: 7 }
    }
}

impl BreakerPolicy {
    /// Parses a `--breaker` string; see the type docs for the grammar.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = BreakerPolicy::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("breaker entry {pair:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            // Each value is parsed at its field's own width: one that does
            // not fit is an error, not a truncation.
            let bad = |_| format!("breaker {key}={value:?}: expected an integer");
            match key {
                "trip" => policy.trip_threshold = value.parse().map_err(bad)?,
                "cooldown" => policy.cooldown_requests = value.parse().map_err(bad)?,
                "seed" => policy.seed = value.parse().map_err(bad)?,
                other => return Err(format!("unknown breaker key {other:?}")),
            }
        }
        if policy.trip_threshold == 0 {
            return Err("breaker trip must be >= 1".into());
        }
        if policy.cooldown_requests == 0 {
            return Err("breaker cooldown must be >= 1".into());
        }
        Ok(policy)
    }

    /// Cooldown length for the `trip`-th (1-based) open period: seeded
    /// jitter scales the nominal length into `[cooldown/2, cooldown]`,
    /// deterministically per (seed, trip ordinal).
    fn cooldown_for(&self, trip: u64) -> u32 {
        let nominal = self.cooldown_requests as u64;
        let jitter = mix64(self.seed ^ trip.wrapping_mul(0x9E37)) % (nominal / 2 + 1);
        (nominal - jitter) as u32
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow through; consecutive failures are counted.
    Closed,
    /// Requests are rejected without reaching the backend.
    Open,
    /// The next admitted request is a probe deciding open vs closed.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case label (`closed` / `open` / `half-open`).
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One recorded state transition, rendered by
/// [`CircuitBreaker::trajectory`].
#[derive(Debug)]
struct BreakerTransition {
    /// State before.
    from: BreakerState,
    /// State after.
    to: BreakerState,
    /// Requests observed (admitted + rejected) when the transition fired.
    at_request: u64,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    /// Consecutive failures while closed.
    consecutive_failures: u32,
    /// Requests rejected during the current open period.
    rejected_this_open: u32,
    /// Cooldown length of the current open period.
    cooldown: u32,
    /// Total requests observed (admission decisions taken).
    requests: u64,
    /// Total trips (closed/half-open → open), 1-based trip ordinal.
    trips: u64,
    /// Whether a half-open probe is currently in flight.
    probe_in_flight: bool,
    log: Vec<BreakerTransition>,
}

/// Cheap aggregate counters, mirrored into the `rdf.breaker.*` registry
/// family on every transition.
#[derive(Debug, Default)]
struct BreakerCounters {
    trips: AtomicU64,
    rejections: AtomicU64,
    probes: AtomicU64,
    closes: AtomicU64,
    reopens: AtomicU64,
}

/// A shared circuit breaker: clone it to gate any number of fetches with
/// the same state machine (all fetches of one serving backend share one
/// breaker).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    inner: Arc<Mutex<BreakerInner>>,
    counters: Arc<BreakerCounters>,
}

/// How the breaker let a request through; its outcome is owed back to
/// [`CircuitBreaker::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// An ordinary request while closed.
    Admit,
    /// The half-open probe: its outcome decides the next state.
    Probe,
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        Self {
            policy,
            inner: Arc::new(Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                rejected_this_open: 0,
                cooldown: 0,
                requests: 0,
                trips: 0,
                probe_in_flight: false,
                log: Vec::new(),
            })),
            counters: Arc::new(BreakerCounters::default()),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Total trips so far.
    pub fn trips(&self) -> u64 {
        self.counters.trips.load(Ordering::Relaxed)
    }

    /// Requests rejected while open.
    pub fn rejections(&self) -> u64 {
        self.counters.rejections.load(Ordering::Relaxed)
    }

    /// Half-open probes sent.
    pub fn probes(&self) -> u64 {
        self.counters.probes.load(Ordering::Relaxed)
    }

    /// Successful probe closures.
    pub fn closes(&self) -> u64 {
        self.counters.closes.load(Ordering::Relaxed)
    }

    /// Renders the transition log as `closed->open@12` hops, the compact
    /// form the loadgen report and determinism tests compare.
    pub fn trajectory(&self) -> Vec<String> {
        self.lock()
            .log
            .iter()
            .map(|t| format!("{}->{}@{}", t.from.label(), t.to.label(), t.at_request))
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn transition(inner: &mut BreakerInner, to: BreakerState) {
        let from = inner.state;
        inner.log.push(BreakerTransition { from, to, at_request: inner.requests });
        inner.state = to;
        if kgtosa_obs::telemetry_active() {
            kgtosa_obs::emit_event(
                "rdf.breaker.transition",
                vec![
                    ("from".into(), kgtosa_obs::Json::Str(from.label().into())),
                    ("to".into(), kgtosa_obs::Json::Str(to.label().into())),
                    ("at_request".into(), kgtosa_obs::Json::Num(inner.requests as f64)),
                ],
            );
        }
    }

    /// Gates request `key`: `Ok` says send it and [`settle`](Self::settle)
    /// its outcome, `Err` is the rejection — the backend is not touched.
    pub(crate) fn admit(&self, key: u64) -> Result<Admission, RdfError> {
        let mut inner = self.lock();
        inner.requests += 1;
        match inner.state {
            BreakerState::Closed => return Ok(Admission::Admit),
            BreakerState::Open => {
                inner.rejected_this_open += 1;
                if inner.rejected_this_open >= inner.cooldown {
                    Self::transition(&mut inner, BreakerState::HalfOpen);
                    inner.probe_in_flight = false;
                }
            }
            BreakerState::HalfOpen if !inner.probe_in_flight => {
                inner.probe_in_flight = true;
                self.counters.probes.fetch_add(1, Ordering::Relaxed);
                kgtosa_obs::counter("rdf.breaker.probes").inc();
                return Ok(Admission::Probe);
            }
            // Only one probe at a time; everyone else keeps being rejected
            // so a failing backend sees a single request.
            BreakerState::HalfOpen => {}
        }
        drop(inner);
        self.counters.rejections.fetch_add(1, Ordering::Relaxed);
        kgtosa_obs::counter("rdf.breaker.rejections").inc();
        Err(RdfError::breaker_open(format!(
            "request {key:016x} rejected while the backend is quarantined"
        )))
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.trips += 1;
        inner.cooldown = self.policy.cooldown_for(inner.trips);
        inner.rejected_this_open = 0;
        inner.consecutive_failures = 0;
        self.counters.trips.fetch_add(1, Ordering::Relaxed);
        kgtosa_obs::counter("rdf.breaker.trips").inc();
        Self::transition(inner, BreakerState::Open);
    }

    /// Records the outcome of an admitted (non-probe) request.
    fn record(&self, success: bool) {
        let mut inner = self.lock();
        if inner.state != BreakerState::Closed {
            // A stale outcome from before a concurrent trip: the breaker
            // already acted, don't double-count.
            return;
        }
        if success {
            inner.consecutive_failures = 0;
        } else {
            inner.consecutive_failures += 1;
            if inner.consecutive_failures >= self.policy.trip_threshold {
                self.trip(&mut inner);
            }
        }
    }

    /// Records the outcome of the half-open probe.
    fn record_probe(&self, success: bool) {
        let mut inner = self.lock();
        if inner.state != BreakerState::HalfOpen {
            return;
        }
        inner.probe_in_flight = false;
        if success {
            inner.consecutive_failures = 0;
            self.counters.closes.fetch_add(1, Ordering::Relaxed);
            kgtosa_obs::counter("rdf.breaker.closes").inc();
            Self::transition(&mut inner, BreakerState::Closed);
        } else {
            self.counters.reopens.fetch_add(1, Ordering::Relaxed);
            kgtosa_obs::counter("rdf.breaker.reopens").inc();
            self.trip(&mut inner);
        }
    }

    /// Reports an admitted request's final outcome. `Ok` is success;
    /// deadline exhaustion is *neutral* (treated as success, so a caller
    /// with an aggressive budget cannot quarantine a healthy backend for
    /// everyone else); everything else — give-ups, fatal errors, raw
    /// transients no retry policy absorbed — is failure.
    pub(crate) fn settle<T>(&self, admission: Admission, outcome: &Result<T, RdfError>) {
        let success = match outcome {
            Ok(_) => true,
            Err(e) => e.is_deadline(),
        };
        match admission {
            Admission::Admit => self.record(success),
            Admission::Probe => self.record_probe(success),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Query;
    use crate::endpoint::{FetchConfig, InProcessEndpoint, Pipeline, SparqlEndpoint};
    use crate::exec::ResultSet;
    use crate::parser::parse;
    use crate::store::RdfStore;
    use kgtosa_kg::KnowledgeGraph;

    fn kg() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..4 {
            kg.add_triple_terms(&format!("a{i}"), "Author", "writes", "p0", "Paper");
        }
        kg
    }

    struct FailingEndpoint;
    impl SparqlEndpoint for FailingEndpoint {
        fn select(&self, _q: &Query) -> Result<ResultSet, RdfError> {
            Err(RdfError::exec("backend down"))
        }
    }

    fn gated_by(breaker: &CircuitBreaker) -> FetchConfig {
        FetchConfig { breaker: Some(breaker.clone()), ..FetchConfig::default() }
    }

    #[test]
    fn parse_spec() {
        let p = BreakerPolicy::parse("trip=3,cooldown=8,seed=11").unwrap();
        assert_eq!(p.trip_threshold, 3);
        assert_eq!(p.cooldown_requests, 8);
        assert_eq!(p.seed, 11);
        assert!(BreakerPolicy::parse("trip=0").is_err());
        assert!(BreakerPolicy::parse("cooldown=0").is_err());
        // Used to wrap to 1 and 2.
        assert!(BreakerPolicy::parse("trip=4294967297").is_err());
        assert!(BreakerPolicy::parse("cooldown=4294967298").is_err());
        assert!(BreakerPolicy::parse("bogus=1").is_err());
        assert!(BreakerPolicy::parse("").is_ok());
    }

    #[test]
    fn trips_after_threshold_and_rejects_during_cooldown() {
        let policy = BreakerPolicy { trip_threshold: 3, cooldown_requests: 4, seed: 7 };
        let breaker = CircuitBreaker::new(policy);
        let cfg = gated_by(&breaker);
        let ep = Pipeline::new(&FailingEndpoint, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        for _ in 0..3 {
            let err = ep.select(&q).unwrap_err();
            assert!(!err.is_breaker_open(), "still closed: real errors pass through");
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 1);
        let err = ep.select(&q).unwrap_err();
        assert!(err.is_breaker_open());
        assert!(breaker.rejections() >= 1);
    }

    #[test]
    fn successful_probe_closes_failed_probe_reopens() {
        let policy = BreakerPolicy { trip_threshold: 2, cooldown_requests: 2, seed: 3 };
        let cooldown1 = policy.cooldown_for(1);
        let kg = kg();
        let store = RdfStore::new(&kg);
        let good = InProcessEndpoint::new(&store);
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();

        // Trip via the failing endpoint, then recover through the good one
        // — same breaker, two fetches (the serve daemon's shape).
        let breaker = CircuitBreaker::new(policy.clone());
        let cfg = gated_by(&breaker);
        let bad_ep = Pipeline::new(&FailingEndpoint, &cfg).unwrap();
        let good_ep = Pipeline::new(&good, &cfg).unwrap();
        for _ in 0..2 {
            bad_ep.select(&q).unwrap_err();
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // Burn through the cooldown: each rejected request counts.
        for _ in 0..cooldown1 {
            assert!(good_ep.select(&q).unwrap_err().is_breaker_open());
        }
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // The probe goes through to the healthy backend and closes.
        let rs = good_ep.select(&q).unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.closes(), 1);
        assert_eq!(breaker.probes(), 1);

        // Same dance against a still-broken backend: the probe re-opens.
        let breaker2 = CircuitBreaker::new(policy);
        let cfg2 = gated_by(&breaker2);
        let bad2 = Pipeline::new(&FailingEndpoint, &cfg2).unwrap();
        for _ in 0..2 {
            bad2.select(&q).unwrap_err();
        }
        for _ in 0..cooldown1 {
            bad2.select(&q).unwrap_err();
        }
        assert_eq!(breaker2.state(), BreakerState::HalfOpen);
        bad2.select(&q).unwrap_err();
        assert_eq!(breaker2.state(), BreakerState::Open);
        assert_eq!(breaker2.trips(), 2);
        assert_eq!(breaker2.closes(), 0);
    }

    #[test]
    fn deadline_outcomes_do_not_trip() {
        struct DeadlineEndpoint;
        impl SparqlEndpoint for DeadlineEndpoint {
            fn select(&self, _q: &Query) -> Result<ResultSet, RdfError> {
                Err(RdfError::deadline("budget gone"))
            }
        }
        let breaker = CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 2,
            ..BreakerPolicy::default()
        });
        let cfg = gated_by(&breaker);
        let ep = Pipeline::new(&DeadlineEndpoint, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        for _ in 0..10 {
            assert!(ep.select(&q).unwrap_err().is_deadline());
        }
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.trips(), 0);
    }

    #[test]
    fn cooldown_jitter_is_seeded_and_bounded() {
        let policy = BreakerPolicy { trip_threshold: 1, cooldown_requests: 16, seed: 9 };
        for trip in 1..50u64 {
            let c = policy.cooldown_for(trip);
            assert!((8..=16).contains(&c), "cooldown {c} out of [nominal/2, nominal]");
            assert_eq!(c, policy.cooldown_for(trip), "jitter must be deterministic");
        }
        // Different trips draw different cooldowns (jitter is real).
        let distinct: std::collections::HashSet<u32> =
            (1..50).map(|t| policy.cooldown_for(t)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn trajectory_renders_hops() {
        let breaker = CircuitBreaker::new(BreakerPolicy {
            trip_threshold: 1,
            cooldown_requests: 1,
            seed: 7,
        });
        let cfg = gated_by(&breaker);
        let ep = Pipeline::new(&FailingEndpoint, &cfg).unwrap();
        let q = parse("SELECT ?s ?o WHERE { ?s <writes> ?o }").unwrap();
        ep.select(&q).unwrap_err();
        let hops = breaker.trajectory();
        assert_eq!(hops, vec!["closed->open@1".to_string()]);
    }
}
