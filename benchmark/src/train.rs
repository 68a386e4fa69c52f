//! Training phase: the practitioner's batch pipeline of Fig. 4 — extract
//! the TOSG in one page, transform, full-batch RGCN and mini-batch
//! GraphSAINT on it, then RGCN on the full graph for the Table IV contrast
//! — once per round.

use std::time::Instant;

use kgtosa_bench::{nc_extraction_task, remap_nc, NcView};
use kgtosa_core::{
    compile_subqueries, extract_sparql, transform, ExtractionResult, ExtractionTask, GraphPattern,
};
use kgtosa_kg::{HeteroGraph, Rid};
use kgtosa_models::common::restrict_labels;
use kgtosa_models::{
    state_fingerprint, train_graphsaint_nc, train_rgcn_nc, EmbeddingTable, NcDataset, RgcnStack,
    SaintSampler, TracePoint, TrainConfig, TrainReport,
};
use kgtosa_nn::mean_aggregate;
use kgtosa_rdf::FetchConfig;
use kgtosa_tensor::{softmax_cross_entropy_into, Matrix, StateIo};

use crate::report::Report;
use crate::stats::best;
use crate::trace::Tracer;
use crate::world::{train_config, train_full_graph, View};

/// TOSG accuracy may trail the full graph's by at most this much.
const ACCURACY_SLACK: f64 = 0.10;
/// Epochs of the 1-thread and 2-thread reruns behind `par.*`.
const PAR_EPOCHS: usize = 20;
const TRAINERS: [&str; 3] = [
    "RGCN on the TOSG",
    "GraphSAINT on the TOSG",
    "RGCN on the full graph",
];

/// Per-epoch wall in ms, from the cumulative `elapsed_s` of a trace.
fn epoch_ms(trace: &[TracePoint]) -> impl Iterator<Item = f64> + '_ {
    let mut previous = 0.0;
    trace.iter().map(move |p| {
        let ms = (p.elapsed_s - previous) * 1e3;
        previous = p.elapsed_s;
        ms
    })
}

/// An extracted TOSG ready to train on.
struct Tosg {
    extraction: ExtractionResult,
    graph: HeteroGraph,
    labels: NcView,
}

impl Tosg {
    fn dataset(&self, num_labels: usize) -> NcDataset<'_> {
        NcDataset {
            kg: &self.extraction.subgraph.kg,
            graph: &self.graph,
            labels: &self.labels.labels,
            num_labels,
            train: &self.labels.train,
            valid: &self.labels.valid,
            test: &self.labels.test,
        }
    }
}

/// The training phase of one run: [`Train::round`] once per round, then
/// [`Train::finish`].
pub struct Train<'v> {
    view: &'v View<'v>,
    seed: u64,
    task: ExtractionTask,
    cfg: TrainConfig,
    /// One time-to-model sample per round.
    pipeline_s: Vec<f64>,
    /// Every epoch of every round, per trainer.
    tosg_ms: Vec<f64>,
    saint_ms: Vec<f64>,
    fg_ms: Vec<f64>,
    /// Per round: the reports of the three trainers, in [`TRAINERS`] order.
    runs: Vec<[TrainReport; 3]>,
    last: Option<Tosg>,
    allocs_per_epoch: f64,
}

impl<'v> Train<'v> {
    pub fn new(view: &'v View<'v>, seed: u64) -> Self {
        Train {
            view,
            seed,
            task: nc_extraction_task(view.task()),
            cfg: train_config(seed),
            pipeline_s: Vec::new(),
            tosg_ms: Vec::new(),
            saint_ms: Vec::new(),
            fg_ms: Vec::new(),
            runs: Vec::new(),
            last: None,
            allocs_per_epoch: 0.0,
        }
    }

    pub fn round(&mut self, tracer: &Tracer) {
        tracer.span("phase.train", || self.slice(tracer));
    }

    fn slice(&mut self, tracer: &Tracer) {
        let (view, nc) = (self.view, self.view.task());
        let started = Instant::now();
        let extraction = tracer.span("core.extract_onepage", || {
            extract_sparql(
                &view.store,
                &self.task,
                &GraphPattern::D1H1,
                &FetchConfig::default(),
            )
            .expect("fault-free extraction")
        });
        let (graph, _) = tracer.span("core.transform_tosg", || transform(&extraction.subgraph.kg));
        let labels = remap_nc(&extraction.subgraph, nc);
        let tosg = Tosg {
            extraction,
            graph,
            labels,
        };
        let data = tosg.dataset(nc.num_labels);
        let allocs = kgtosa_memtrack::alloc_count();
        let rgcn = tracer.span("models.rgcn_tosg", || train_rgcn_nc(&data, &self.cfg));
        self.pipeline_s.push(started.elapsed().as_secs_f64());
        self.allocs_per_epoch =
            (kgtosa_memtrack::alloc_count() - allocs) as f64 / rgcn.epochs as f64;

        let saint = tracer.span("models.saint_tosg", || {
            train_graphsaint_nc(&data, &self.cfg, SaintSampler::Uniform)
        });
        tracer.span("core.transform_fg", || transform(view.kg()));
        let fg = tracer.span("models.rgcn_fg", || train_full_graph(view, self.seed, None));

        self.tosg_ms.extend(epoch_ms(&rgcn.trace));
        self.saint_ms.extend(epoch_ms(&saint.trace));
        self.fg_ms.extend(epoch_ms(&fg.trace));
        self.runs.push([rgcn, saint, fg]);
        self.last = Some(tosg);
    }

    /// Returns the `param_hash` of the full-graph RGCN run, which the
    /// daemon's checkpoint must share when it was trained on the same KG.
    pub fn finish(self, tracer: &Tracer, report: &mut Report) -> u64 {
        report.set("tosg_epoch_ms", best(&self.tosg_ms));
        report.set("saint_epoch_ms", best(&self.saint_ms));
        report.set("fg_epoch_ms", best(&self.fg_ms));

        let nc = self.view.task();
        let tosg = self.last.as_ref().expect("a round ran");
        let [rgcn, saint, fg] = self.runs.last().expect("a round ran");
        // One operation per training run, failed if it ended in a different
        // state than the first round's run of the same trainer.
        for run in &self.runs {
            for (i, name) in TRAINERS.iter().enumerate() {
                report.op(run[i].param_hash == self.runs[0][i].param_hash, || {
                    format!("{name}: param_hash differs between rounds")
                });
            }
        }
        report.op(rgcn.metric >= fg.metric - ACCURACY_SLACK, || {
            format!(
                "TOSG accuracy {:.3} trails the full graph's {:.3}",
                rgcn.metric, fg.metric
            )
        });
        // The other traffic assumption: at the default page size this
        // extraction is one request per subquery, so paging cost is absent.
        let subqueries = compile_subqueries(&self.task, &GraphPattern::D1H1).len();
        let requests = tosg.extraction.report.requests;
        report.op(requests == subqueries, || {
            format!("{requests} requests for {subqueries} one-page subqueries")
        });

        if tracer.enabled() {
            let data = tosg.dataset(nc.num_labels);
            tracer.span("replay.train", || {
                replay_epoch(&data, &self.cfg, tracer, report);
                replay_kernels(&tosg.graph, self.cfg.dim, tracer, report);
                replay_two_threads(&data, &self.cfg, tracer, report);
            });
            let total = |name| tracer.durations(name).iter().sum::<f64>();
            report.set("models.pipeline_s", best(&self.pipeline_s));
            report.set("core.extract_onepage.requests", requests as f64);
            report.set("core.transform_tosg.s", total("core.transform_tosg"));
            report.set("core.transform_fg.s", total("core.transform_fg"));
            report.set("models.rgcn_tosg.train_s", rgcn.training_s);
            report.set("models.rgcn_tosg.infer_s", rgcn.inference_s);
            report.set("models.saint_tosg.train_s", saint.training_s);
            report.set("models.rgcn_fg.train_s", fg.training_s);
            report.set("models.accuracy_tosg", rgcn.metric);
            report.set("models.accuracy_fg", fg.metric);
            report.set("memtrack.allocs_per_epoch", self.allocs_per_epoch);
        }
        fg.param_hash
    }
}

/// Replays one epoch of `train_rgcn_nc` from its parts — forward, loss,
/// backward + optimiser step, embedding step — and checks the state it
/// reaches is the one the trainer reaches after one epoch.
fn replay_epoch(data: &NcDataset<'_>, cfg: &TrainConfig, tracer: &Tracer, report: &mut Report) {
    let graph = data.graph;
    let n = graph.num_nodes();
    let mut embed = EmbeddingTable::new(n, cfg.dim, cfg.lr, cfg.seed);
    let mut stack = RgcnStack::new(
        graph.num_relations(),
        cfg.dim,
        cfg.dim,
        data.num_labels,
        cfg.lr,
        cfg.seed + 1,
    );
    let train_labels = restrict_labels(data.labels, data.train, n);

    let (logits, cache) = tracer.span("models.stack_forward", || {
        stack.forward(graph, &embed.weight)
    });
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    softmax_cross_entropy_into(&logits, &train_labels, &mut grad);
    let grad_x = tracer.span("models.stack_backward_step", || {
        stack.backward_step(graph, &embed.weight, &cache, grad)
    });
    embed.step(&grad_x);
    let replayed = state_fingerprint(|w| {
        embed.save_state(w)?;
        stack.save_state(w)
    });

    let one_epoch = train_rgcn_nc(
        data,
        &TrainConfig {
            epochs: 1,
            ..cfg.clone()
        },
    );
    report.op(replayed == one_epoch.param_hash, || {
        "a replayed forward/backward/step epoch does not reach train_rgcn_nc's state".into()
    });
    let total = |name| tracer.durations(name).iter().sum::<f64>();
    report.set("models.stack_forward.s", total("models.stack_forward"));
    report.set(
        "models.stack_backward_step.s",
        total("models.stack_backward_step"),
    );
}

/// Times the three kernels an RGCN layer is made of, at the trainer's
/// shapes: neighbour aggregation over the busiest relation, the `n×d·d×d`
/// projection, and the `d×n·n×d` weight-gradient product.
fn replay_kernels(graph: &HeteroGraph, dim: usize, tracer: &Tracer, report: &mut Report) {
    let n = graph.num_nodes();
    let csr = (0..graph.num_relations())
        .map(|r| &graph.relation(Rid(r as u32)).out)
        .max_by_key(|csr| csr.num_edges())
        .expect("the TOSG has a relation");
    let h = Matrix::from_vec(
        n,
        dim,
        (0..n * dim).map(|i| (i % 97) as f32 / 97.0).collect(),
    );
    let w = Matrix::from_vec(
        dim,
        dim,
        (0..dim * dim).map(|i| (i % 13) as f32 / 13.0).collect(),
    );
    let mut out = Matrix::zeros(n, dim);
    tracer.span("nn.mean_aggregate", || mean_aggregate(csr, &h, &mut out));
    let projected = tracer.span("tensor.matmul", || h.matmul(&w));
    let weight_grad = tracer.span("tensor.t_matmul", || h.t_matmul(&projected));
    std::hint::black_box((&out, &weight_grad));

    let total = |name| tracer.durations(name).iter().sum::<f64>();
    report.set("nn.mean_aggregate.s", total("nn.mean_aggregate"));
    report.set("tensor.matmul.s", total("tensor.matmul"));
    report.set("tensor.t_matmul.s", total("tensor.t_matmul"));
    // Computed, not measured: 2·n·d·d flops for the projection; one read of
    // each gathered neighbour row plus one write of each output row.
    report.set("tensor.matmul.flops", 2.0 * (n * dim * dim) as f64);
    report.set(
        "nn.mean_aggregate.bytes",
        ((csr.num_edges() + n) * dim * 4) as f64,
    );
}

/// The timed run pins the pool to one thread (see README "Threads"); this
/// keeps the pool itself measured: the same short training under one and
/// under two pool threads, and the share of the two workers' time spent
/// inside parallel closures.
fn replay_two_threads(
    data: &NcDataset<'_>,
    cfg: &TrainConfig,
    tracer: &Tracer,
    report: &mut Report,
) {
    let cfg = TrainConfig {
        epochs: PAR_EPOCHS,
        ..cfg.clone()
    };
    let busy = kgtosa_obs::histogram("par.worker_busy_s");
    let train = |threads| kgtosa_par::with_threads(threads, || train_rgcn_nc(data, &cfg));
    let one = tracer.span("par.one_thread", || train(1));
    let busy_before = busy.sum();
    let two = tracer.span("par.two_threads", || train(2));
    report.op(one.param_hash == two.param_hash, || {
        "training under 1 and 2 pool threads ended in different states".into()
    });
    report.set("par.two_thread_speedup", one.training_s / two.training_s);
    report.set(
        "par.utilization",
        (busy.sum() - busy_before) / (2.0 * two.training_s),
    );
}
