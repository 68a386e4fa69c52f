//! Extraction phase: Algorithm 3 with the result much larger than the
//! page (d1h1, d2h1, d1h2 over LIMIT/OFFSET pages, page cache off), then
//! the two sampling extractors on the same KG — once per round.

use std::time::Instant;

use kgtosa_bench::nc_extraction_task;
use kgtosa_core::{
    compile_subqueries, extract_brw, extract_ibs, extract_sparql, ExtractionResult, ExtractionTask,
    GraphPattern,
};
use kgtosa_kg::{fingerprint, induced_subgraph, subgraph_from_triples_and_nodes};
use kgtosa_rdf::{fetch_triples_robust, FetchConfig, InProcessEndpoint, Query, SparqlEndpoint};
use kgtosa_sampler::{biased_random_walk, ibs_sample, IbsConfig, WalkConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::stats::{best, median};
use crate::trace::Tracer;
use crate::world::View;

/// Page sizes quoted at MAG scale 4 (the issue's calibration); other scales
/// shrink them in proportion so a fetch keeps the same number of pages (≈55
/// for d1h1, ≈105 for d2h1, ≈13 for d1h2) and the quadratic LIMIT/OFFSET
/// cost keeps its shape.
const BS_H1_AT_4: f64 = 5_000.0;
const BS_H2_AT_4: f64 = 100_000.0;
const BRW_HOPS: usize = 3;
const IBS_K: usize = 16;
/// Single pages timed for `rdf.execute_page.s`.
const PAGE_SAMPLES: usize = 5;

fn page_size(at_scale_4: f64, scale: f64) -> usize {
    (at_scale_4 * scale / 4.0).round() as usize
}

fn paged(
    view: &View<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    bs: usize,
) -> ExtractionResult {
    let fetch = FetchConfig {
        batch_size: bs,
        ..FetchConfig::default()
    };
    extract_sparql(&view.store, task, pattern, &fetch).expect("fault-free extraction")
}

/// Runs `f`, pushing its wall seconds onto `seconds`.
fn timed<T>(seconds: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    seconds.push(started.elapsed().as_secs_f64());
    out
}

/// The extraction phase of one run: [`Extract::round`] once per round,
/// then [`Extract::finish`].
pub struct Extract<'v> {
    view: &'v View<'v>,
    seed: u64,
    task: ExtractionTask,
    /// Pattern and page size of the three paged extractions.
    plan: [(GraphPattern, usize); 3],
    walk: WalkConfig,
    ibs: IbsConfig,
    /// Seconds of each paged extraction (in `plan` order), BRW and IBS,
    /// one sample per round.
    seconds: [Vec<f64>; 5],
    /// The latest round's results, for the checks and the replays.
    last: Vec<ExtractionResult>,
    last_brw: Option<ExtractionResult>,
}

impl<'v> Extract<'v> {
    pub fn new(view: &'v View<'v>, scale: f64, seed: u64) -> Self {
        let task = nc_extraction_task(view.task());
        let (bs_h1, bs_h2) = (page_size(BS_H1_AT_4, scale), page_size(BS_H2_AT_4, scale));
        Extract {
            view,
            seed,
            plan: [
                (GraphPattern::D1H1, bs_h1),
                (GraphPattern::D2H1, bs_h1),
                (GraphPattern::D1H2, bs_h2),
            ],
            walk: WalkConfig {
                roots: task.targets.len(),
                walk_length: BRW_HOPS,
            },
            ibs: IbsConfig {
                k: IBS_K,
                ..IbsConfig::default()
            },
            task,
            seconds: Default::default(),
            last: Vec::new(),
            last_brw: None,
        }
    }

    pub fn round(&mut self, tracer: &Tracer) {
        tracer.span("phase.extract", || self.slice(tracer));
    }

    fn slice(&mut self, tracer: &Tracer) {
        let (view, task) = (self.view, &self.task);
        let [d1h1, d2h1, d1h2, brw, ibs] = &mut self.seconds;
        self.last = self
            .plan
            .iter()
            .zip([d1h1, d2h1, d1h2])
            .map(|((pattern, bs), seconds)| {
                timed(seconds, || {
                    tracer.span("core.extract_sparql", || paged(view, task, pattern, *bs))
                })
            })
            .collect();
        self.last_brw = Some(timed(brw, || {
            extract_brw(view.kg(), &view.graph, task, &self.walk, self.seed)
        }));
        timed(ibs, || extract_ibs(view.kg(), &view.graph, task, &self.ibs));
    }

    pub fn finish(self, tracer: &Tracer, report: &mut Report) {
        // Each part is the best of its rounds; a metric that spans two
        // parts adds their bests, so one disturbed part does not cost the
        // round its other half.
        let [d1h1, d2h1, d1h2, brw, ibs] = self.seconds.each_ref().map(|s| best(s));
        report.set("extract_h1_s", d1h1 + d2h1);
        report.set("extract_h2_s", d1h2);
        report.set("extract_sampling_s", brw + ibs);

        // Every round ran five extractions; each is an operation, and so
        // is each paged-vs-single-page equivalence check below.
        report.attempted += 5 * self.seconds[0].len() as u64;
        for ((pattern, bs), res) in self.plan.iter().zip(&self.last) {
            let whole = paged(self.view, &self.task, pattern, usize::MAX);
            let same = fingerprint(&whole.subgraph.kg) == fingerprint(&res.subgraph.kg)
                && whole.targets == res.targets;
            report.op(same && res.report.completeness == 1.0, || {
                format!(
                    "{} paged at bs={bs} differs from the single-page extraction",
                    pattern.label()
                )
            });
        }
        // The traffic assumption this phase exists for, shown rather than
        // asserted: d1h1 really is fetched over ≥ 50 requests.
        let (d1h1, bs_h1) = (&self.last[0], self.plan[0].1);
        report.op(d1h1.report.requests >= 50, || {
            format!(
                "d1h1 took {} requests at bs={bs_h1}, expected ≥ 50",
                d1h1.report.requests
            )
        });

        if tracer.enabled() {
            let brw = self.last_brw.as_ref().expect("a round ran");
            tracer.span("replay.extract", || {
                replay_sparql(self.view, &self.task, d1h1, bs_h1, tracer, report);
                replay_samplers(
                    self.view, &self.task, brw, &self.walk, &self.ibs, self.seed, tracer, report,
                );
            });
            report.set(
                "core.extract_sparql.s",
                tracer.durations("core.extract_sparql").iter().sum(),
            );
            report.set(
                "core.extract_sparql.triples",
                self.last.iter().map(|r| r.report.triples as f64).sum(),
            );
            report.set(
                "core.extract.tosg_ratio",
                d1h1.report.triples as f64 / self.view.kg().num_triples() as f64,
            );
        }
    }
}

/// Replays `extract_sparql`'s parts directly for d1h1 — plan, paged fetch,
/// dedup + compaction — and checks they rebuild the composite's subgraph.
fn replay_sparql(
    view: &View<'_>,
    task: &ExtractionTask,
    composite: &ExtractionResult,
    bs: usize,
    tracer: &Tracer,
    report: &mut Report,
) {
    let fetch = FetchConfig {
        batch_size: bs,
        ..FetchConfig::default()
    };
    let subqueries = tracer.span("core.compile_subqueries", || {
        compile_subqueries(task, &GraphPattern::D1H1)
    });
    // extract_sparql fetches subqueries that share a projection together.
    let mut groups: Vec<((String, String, String), Vec<Query>)> = Vec::new();
    for sq in &subqueries {
        match groups.iter_mut().find(|(vars, _)| *vars == sq.triple_vars) {
            Some((_, qs)) => qs.push(sq.query.clone()),
            None => groups.push((sq.triple_vars.clone(), vec![sq.query.clone()])),
        }
    }
    let endpoint = InProcessEndpoint::new(&view.store);
    let (mut triples, mut pages) = (Vec::new(), 0);
    for ((s, p, o), qs) in &groups {
        let outcome = tracer
            .span("rdf.fetch", || {
                fetch_triples_robust(&endpoint, &view.store, qs, (s, p, o), &fetch)
            })
            .expect("fault-free fetch");
        pages += outcome.completed_pages;
        triples.extend(outcome.triples);
    }
    let stats = endpoint.stats();
    let (requests, rows, bytes) = (stats.requests(), stats.rows(), stats.bytes());
    let sub = tracer.span("core.dedup_compact", || {
        triples.sort_unstable();
        triples.dedup();
        subgraph_from_triples_and_nodes(view.kg(), &triples, &task.targets)
    });
    report.op(
        fingerprint(&sub.kg) == fingerprint(&composite.subgraph.kg),
        || "replayed d1h1 parts do not rebuild extract_sparql's subgraph".into(),
    );
    report.op(requests == composite.report.requests, || {
        format!(
            "replay issued {requests} requests, extract_sparql {}",
            composite.report.requests
        )
    });

    let first = &groups[0].1[0];
    tracer
        .span("rdf.count", || endpoint.count(first))
        .expect("count query");
    for page in 0..PAGE_SAMPLES.min(pages) {
        tracer
            .span("rdf.execute_page", || {
                endpoint.select(&first.with_page(bs, page * bs))
            })
            .expect("page query");
    }

    let total = |name| tracer.durations(name).iter().sum::<f64>();
    report.set(
        "core.compile_subqueries.s",
        total("core.compile_subqueries"),
    );
    report.set("rdf.fetch.s", total("rdf.fetch"));
    report.set("core.dedup_compact.s", total("core.dedup_compact"));
    report.set("rdf.count.s", total("rdf.count"));
    report.set(
        "rdf.execute_page.s",
        median(&tracer.durations("rdf.execute_page")),
    );
    report.set("rdf.fetch.pages", pages as f64);
    report.set("rdf.fetch.requests", requests as f64);
    report.set("rdf.fetch.rows", rows as f64);
    report.set("rdf.fetch.bytes", bytes as f64);
    report.set(
        "rdf.fetch.requests_per_ktriple",
        requests as f64 / (composite.report.triples as f64 / 1e3),
    );
}

/// Replays the samplers' parts: the walk / PPR selection, then the
/// induced-subgraph compaction both share.
#[allow(clippy::too_many_arguments)]
fn replay_samplers(
    view: &View<'_>,
    task: &ExtractionTask,
    composite_brw: &ExtractionResult,
    walk: &WalkConfig,
    ibs: &IbsConfig,
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let visited = tracer.span("sampler.brw", || {
        biased_random_walk(&view.graph, &task.targets, walk, &mut rng)
    });
    let sub = tracer.span("kg.induced_subgraph", || {
        induced_subgraph(view.kg(), &visited)
    });
    report.op(
        fingerprint(&sub.kg) == fingerprint(&composite_brw.subgraph.kg),
        || "replayed BRW walk + induced_subgraph differs from extract_brw".into(),
    );
    let influencers = tracer.span("sampler.ibs", || {
        ibs_sample(&view.graph, &task.targets, ibs)
    });
    tracer.span("kg.induced_subgraph", || {
        induced_subgraph(view.kg(), &influencers)
    });

    report.set(
        "sampler.brw.s",
        tracer.durations("sampler.brw").iter().sum(),
    );
    report.set(
        "sampler.ibs.s",
        tracer.durations("sampler.ibs").iter().sum(),
    );
    report.set(
        "kg.induced_subgraph.s",
        median(&tracer.durations("kg.induced_subgraph")),
    );
}
