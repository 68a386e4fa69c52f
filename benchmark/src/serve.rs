//! Serve-read phase: KGNet-style callers that each wait for their reply.
//! Each round, two closed-loop clients alternate a warm `/extract` and an
//! `/infer` against the in-process daemon for the workload's slice.

use std::time::{Duration, Instant};

use kgtosa_core::sparql_cache_key;
use kgtosa_obs::httpd::HttpRequest;
use kgtosa_obs::Json;
use kgtosa_serve::handle_guarded;

use crate::gen::{read_request, Request, INFER_NODES};
use crate::report::Report;
use crate::stats::{median, percentile, BEST_DECILE};
use crate::trace::Tracer;
use crate::world::{key_pattern, key_task, local_fingerprints, reply_field, Daemon, View, WORKERS};

/// Repetitions of each socket-free replay in a traced run.
const REPLAYS: usize = 5;

/// One request as its client saw it.
struct Sample {
    request: Request,
    start_s: f64,
    end_s: f64,
    status: u16,
    body: String,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }

    /// Whether the reply is the right answer: `200`, and for `/extract`
    /// the subgraph a local uncached extraction produces, for `/infer`
    /// one prediction per requested node.
    fn correct(&self, expected: &[String]) -> bool {
        if self.status != 200 {
            return false;
        }
        match self.request.key {
            Some(key) => {
                reply_field(&self.body, "subgraph_fingerprint")
                    .as_ref()
                    .and_then(Json::as_str)
                    == Some(expected[key].as_str())
            }
            None => matches!(
                reply_field(&self.body, "predictions"),
                Some(Json::Arr(p)) if p.len() == INFER_NODES
            ),
        }
    }
}

/// Client-observed latencies of the requests to `path`.
fn latencies_ms<'s>(samples: impl Iterator<Item = &'s Sample>, path: &str) -> Vec<f64> {
    samples
        .filter(|s| s.request.path == path)
        .map(Sample::latency_ms)
        .collect()
}

/// The serve-read phase of one run: [`Serve::round`] once per round, then
/// [`Serve::finish`].
pub struct Serve<'a> {
    daemon: &'a Daemon,
    small: &'a View<'a>,
    /// Per warm key, the fingerprint of a local uncached extraction.
    expected: Vec<String>,
    /// How long the clients' closed loop runs each round.
    slice: Duration,
    seed: u64,
    /// Requests each client has sent so far: the stream continues across
    /// rounds instead of restarting.
    sent: [usize; WORKERS],
    samples: Vec<Sample>,
    window_s: f64,
    hits: u64,
    misses: u64,
}

impl<'a> Serve<'a> {
    pub fn new(daemon: &'a Daemon, small: &'a View<'a>, slice: Duration, seed: u64) -> Self {
        Serve {
            daemon,
            small,
            expected: local_fingerprints(&daemon.keys, small.kg(), small.task()),
            slice,
            seed,
            sent: [0; WORKERS],
            samples: Vec::new(),
            window_s: 0.0,
            hits: 0,
            misses: 0,
        }
    }

    pub fn round(&mut self, tracer: &Tracer) {
        let (daemon, task, seed, slice, sent) = (
            self.daemon,
            self.small.task(),
            self.seed,
            self.slice,
            self.sent,
        );
        let (hits, misses) = (
            kgtosa_obs::counter("cache.hits"),
            kgtosa_obs::counter("cache.misses"),
        );
        let (hits0, misses0) = (hits.get(), misses.get());
        let window = Instant::now();
        let per_client: Vec<Vec<Sample>> = tracer.span("phase.serve", || {
            let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..WORKERS)
                    .map(|client| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            // Whole extract+infer pairs, so both kinds get
                            // the same number of samples.
                            while window.elapsed() < slice || out.len() % 2 == 1 {
                                let i = sent[client] + out.len();
                                let request = read_request(seed, client, i, &daemon.keys, task);
                                let start_s = window.elapsed().as_secs_f64();
                                let reply = daemon.post(request.path, &request.body);
                                let end_s = window.elapsed().as_secs_f64();
                                let (status, body) = match reply {
                                    Ok(r) => (r.status, r.body),
                                    Err(e) => (0, e.to_string()),
                                };
                                out.push(Sample {
                                    request,
                                    start_s,
                                    end_s,
                                    status,
                                    body,
                                });
                            }
                            out
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread"))
                    .collect()
            });
            // Hand the clients' request intervals to the recorder, shifted
            // onto its time base.
            let shift = tracer.now() - window.elapsed().as_secs_f64();
            for (client, samples) in per_client.iter().enumerate() {
                for (i, s) in samples.iter().enumerate() {
                    let id = (client * 1_000_000 + self.sent[client] + i) as u64;
                    let name = format!("client{}", s.request.path);
                    tracer.record(&name, s.start_s + shift, s.end_s + shift, id);
                }
            }
            per_client
        });
        self.window_s += window.elapsed().as_secs_f64();
        self.hits += hits.get() - hits0;
        self.misses += misses.get() - misses0;

        for (client, samples) in per_client.into_iter().enumerate() {
            self.sent[client] += samples.len();
            self.samples.extend(samples);
        }
    }

    pub fn finish(self, tracer: &Tracer, report: &mut Report) {
        let samples = &self.samples;
        let (extract, infer) = (
            latencies_ms(samples.iter(), "/extract"),
            latencies_ms(samples.iter(), "/infer"),
        );
        report.set("extract_p10_ms", percentile(&extract, BEST_DECILE));
        report.set("infer_p10_ms", percentile(&infer, BEST_DECILE));

        for s in samples {
            report.op(s.correct(&self.expected), || {
                let reply: String = s.body.chars().take(120).collect();
                format!("{} answered {}: {reply}", s.request.path, s.status)
            });
        }
        // Shown, not asserted: the timed traffic is all cache hits.
        let (hit, miss) = (self.hits, self.misses);
        report.op(hit > 0 && miss == 0, || {
            format!("timed /extract traffic saw {hit} hits, {miss} misses")
        });

        if tracer.enabled() {
            let ok = samples.iter().filter(|s| s.status == 200).count();
            let overhead: Vec<f64> = samples
                .iter()
                .filter_map(|s| {
                    let inside = reply_field(&s.body, "elapsed_ms")?.as_f64()?;
                    Some(s.latency_ms() - inside)
                })
                .collect();
            report.set("serve.extract_p95_ms", percentile(&extract, 0.95));
            report.set("serve.infer_p95_ms", percentile(&infer, 0.95));
            report.set("serve.socket_overhead.ms", median(&overhead));
            report.set("serve.goodput_rps", ok as f64 / self.window_s);
            report.set(
                "serve.shed_429",
                samples.iter().filter(|s| s.status == 429).count() as f64,
            );
            report.set("serve.extract_cold.ms", median(&self.daemon.cold_ms));
            report.set("cache.hits", hit as f64);
            report.set("cache.misses", miss as f64);
            tracer.span("replay.serve", || {
                replay(self.daemon, self.small, samples, tracer, report)
            });
        }
    }
}

/// Replays a request's parts without a socket: the guarded handler, the
/// artifact-cache lookup, the reply's subgraph fingerprint, and the
/// frozen model's forward pass — checking each handler replay answers
/// what the socket answered.
fn replay(
    daemon: &Daemon,
    small: &View<'_>,
    samples: &[Sample],
    tracer: &Tracer,
    report: &mut Report,
) {
    let state = &daemon.state;
    let first = |path: &str| {
        samples
            .iter()
            .find(|s| s.request.path == path && s.status == 200)
            .expect("an answered request")
    };
    for (span, sample, field) in [
        (
            "serve.handle_guarded_extract",
            first("/extract"),
            "subgraph_fingerprint",
        ),
        ("serve.handle_guarded_infer", first("/infer"), "predictions"),
    ] {
        let request = HttpRequest {
            method: "POST".into(),
            path: sample.request.path.into(),
            body: sample.request.body.clone().into_bytes(),
            ..HttpRequest::default()
        };
        for _ in 0..REPLAYS {
            let reply = tracer.span(span, || handle_guarded(state, &request, Instant::now()));
            let body = String::from_utf8_lossy(&reply.body);
            report.op(
                reply.status == 200
                    && reply_field(&body, field) == reply_field(&sample.body, field),
                || format!("{span}: socket-free replay answered differently"),
            );
        }
        report.set(&format!("{span}.ms"), median(&tracer.durations(span)) * 1e3);
    }

    let epoch = state.epoch();
    let key = &daemon.keys[first("/extract")
        .request
        .key
        .expect("extract requests carry a key")];
    let cache_key = sparql_cache_key(
        epoch.fingerprint,
        &key_task(key, small.kg(), small.task()),
        &key_pattern(key),
    );
    let cache = state
        .cache
        .as_ref()
        .expect("the daemon runs with an artifact cache");
    let model = {
        let info = state
            .registry()
            .by_method("RGCN")
            .expect("the served checkpoint");
        state
            .model_for(&epoch, info, small.task().num_labels)
            .expect("the served model")
    };
    let nodes = &small.task().test[..INFER_NODES.min(small.task().test.len())];
    for _ in 0..REPLAYS {
        let lookup = tracer.span("cache.hit_lookup", || cache.lookup(&cache_key));
        let payload = lookup.payload.expect("a warm key is a cache hit");
        let decoded = kgtosa_core::decode_extraction(&payload, epoch.kg.num_nodes())
            .expect("decodable artifact");
        tracer.span("kg.fingerprint_subgraph", || {
            kgtosa_kg::fingerprint(&decoded.subgraph.kg)
        });
        tracer.span("models.predict_nodes", || {
            model.predict_nodes(&epoch.graph, nodes)
        });
    }
    for name in [
        "cache.hit_lookup",
        "kg.fingerprint_subgraph",
        "models.predict_nodes",
    ] {
        report.set(&format!("{name}.ms"), median(&tracer.durations(name)) * 1e3);
    }
}
