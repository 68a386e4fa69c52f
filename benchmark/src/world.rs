//! Set-up: generated datasets with their store and adjacency, the served
//! checkpoint, and the in-process daemon with a warm artifact cache.
//! Everything built here is what `setup_s` times.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kgtosa_core::{extract_sparql, transform, ExtractionTask, GraphPattern};
use kgtosa_datagen::{Dataset, NcTask};
use kgtosa_kg::{HeteroGraph, KnowledgeGraph};
use kgtosa_models::{train_rgcn_nc, CheckpointConfig, NcDataset, TrainConfig, TrainReport};
use kgtosa_obs::Json;
use kgtosa_rdf::{FetchConfig, RdfStore};
use kgtosa_serve::client::{post_json, HttpReply};
use kgtosa_serve::{DrainReport, ServeConfig, ServeState, Server};

use crate::gen::{warm_keys, WarmKey};
use crate::trace::Tracer;

/// MAG scale of the daemon's KG and of every phase a workload does not
/// stress (see README "Workloads").
pub const SMALL: f64 = 0.25;
/// Model width and learning rate shared by every trainer and the daemon.
pub const DIM: usize = 16;
pub const LR: f32 = 0.02;
/// Epochs of the full-graph RGCN run, which is also the served checkpoint.
pub const FG_EPOCHS: usize = 3;
/// Worker threads of the daemon and closed-loop client connections.
pub const WORKERS: usize = 2;
/// `kgtosa_par` pool threads for everything timed. One, not the CLI's
/// `nproc`: at these sizes the pool's per-region thread spawns make two
/// threads about twice as slow as one on the 2-vCPU sandbox, and a region
/// that needs both vCPUs at once stalls on any steal (README "Threads").
/// The traced run measures the 2-thread pool separately (`par.*`).
pub const POOL_THREADS: usize = 1;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Scratch space for the artifact cache and checkpoints, inside the
/// benchmark's own `results/` directory and removed when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let root = results_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `benchmark/results/`: traces, the ladder table and scratch space.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// One generated KG with the indices every extraction and trainer needs.
pub struct View<'d> {
    pub data: &'d Dataset,
    pub store: RdfStore<'d>,
    pub graph: HeteroGraph,
}

impl<'d> View<'d> {
    pub fn build(data: &'d Dataset, tracer: &Tracer) -> Self {
        let store = tracer.span("rdf.store_build", || RdfStore::new(&data.gen.kg));
        let (graph, _) = transform(&data.gen.kg);
        View { data, store, graph }
    }

    pub fn kg(&self) -> &'d KnowledgeGraph {
        &self.data.gen.kg
    }

    /// The paper-venue task every workload is built around.
    pub fn task(&self) -> &'d NcTask {
        &self.data.nc[0]
    }
}

/// One dataset per scale, in the order asked for.
pub fn generate(scales: &[f64], seed: u64, tracer: &Tracer) -> Vec<(f64, Dataset)> {
    scales
        .iter()
        .map(|&s| {
            (
                s,
                tracer.span("datagen.mag", || kgtosa_datagen::mag(s, seed)),
            )
        })
        .collect()
}

/// The view built for `scale`.
pub fn view_at<'a, 'd>(views: &'a [(f64, View<'d>)], scale: f64) -> &'a View<'d> {
    let found = views.iter().find(|(s, _)| *s == scale);
    &found
        .expect("a view was built for every scale the run uses")
        .1
}

/// Trains the full-graph RGCN on `view`, leaving its checkpoint in `dir`
/// when given. The daemon serves this checkpoint; the train phase runs the
/// same configuration without a directory.
pub fn train_full_graph(view: &View<'_>, seed: u64, dir: Option<&Path>) -> TrainReport {
    let task = view.task();
    let data = NcDataset {
        kg: view.kg(),
        graph: &view.graph,
        labels: &task.labels,
        num_labels: task.num_labels,
        train: &task.train,
        valid: &task.valid,
        test: &task.test,
    };
    let cfg = TrainConfig {
        epochs: FG_EPOCHS,
        checkpoint: dir.map(|d| CheckpointConfig {
            dir: d.to_path_buf(),
            interval: FG_EPOCHS,
        }),
        ..train_config(seed)
    };
    train_rgcn_nc(&data, &cfg)
}

pub fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 60,
        dim: DIM,
        lr: LR,
        seed,
        batch_size: 512,
        ..Default::default()
    }
}

/// The extraction task behind a warm key, resolved the way the daemon's
/// `/extract` handler resolves it against `kg`.
pub fn key_task(key: &WarmKey, kg: &KnowledgeGraph, task: &NcTask) -> ExtractionTask {
    if key.field == "task" {
        return ExtractionTask::node_classification(&task.name, &task.target_class, task.targets());
    }
    let class = kg
        .find_class(&key.target)
        .expect("warm-key class exists in MAG");
    ExtractionTask::node_classification(&key.target, &key.target, kg.nodes_of_class(class))
}

pub fn key_pattern(key: &WarmKey) -> GraphPattern {
    GraphPattern::VARIANTS
        .into_iter()
        .find(|p| p.label() == key.pattern)
        .expect("warm-key pattern is a KG-TOSA variant")
}

/// Hex fingerprints of a local, uncached extraction of every warm key on
/// `kg` — what the daemon's answers are checked against.
pub fn local_fingerprints(keys: &[WarmKey], kg: &KnowledgeGraph, task: &NcTask) -> Vec<String> {
    let store = RdfStore::new(kg);
    keys.iter()
        .map(|key| {
            let res = extract_sparql(
                &store,
                &key_task(key, kg, task),
                &key_pattern(key),
                &FetchConfig::default(),
            )
            .expect("local extraction of a warm key");
            format!("{:016x}", kgtosa_kg::fingerprint(&res.subgraph.kg))
        })
        .collect()
}

/// The in-process `kgtosa-serve` daemon on MAG at [`SMALL`], with its
/// artifact cache warmed by one cold pass over the six keys.
pub struct Daemon {
    pub addr: SocketAddr,
    pub state: Arc<ServeState>,
    pub keys: Vec<WarmKey>,
    /// Client-observed latency of each cold `/extract` of the warm-up pass.
    pub cold_ms: Vec<f64>,
    thread: JoinHandle<std::io::Result<DrainReport>>,
}

impl Daemon {
    pub fn start(
        seed: u64,
        task: &NcTask,
        checkpoints: &Path,
        cache: &Path,
    ) -> Result<Self, String> {
        let cfg = ServeConfig {
            dataset: "mag".into(),
            scale: SMALL,
            seed,
            dim: DIM,
            lr: LR,
            workers: WORKERS,
            default_deadline: Duration::from_secs(30),
            cache_dir: Some(cache.to_path_buf()),
            checkpoint_dir: Some(checkpoints.to_path_buf()),
            ..ServeConfig::default()
        };
        let state = ServeState::from_dataset(cfg)?;
        let server = Server::bind(state.clone()).map_err(|e| format!("bind daemon: {e}"))?;
        let addr = server.addr();
        let thread = std::thread::spawn(move || server.run());
        let mut daemon = Daemon {
            addr,
            state,
            keys: warm_keys(task),
            cold_ms: Vec::new(),
            thread,
        };
        for key in daemon.keys.clone() {
            let started = Instant::now();
            let reply = daemon
                .post("/extract", &key.body())
                .map_err(|e| e.to_string())?;
            daemon.cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
            if reply.status != 200 {
                return Err(format!(
                    "cold /extract {}: {} {}",
                    key.label(),
                    reply.status,
                    reply.body
                ));
            }
        }
        Ok(daemon)
    }

    pub fn post(&self, path: &str, body: &str) -> std::io::Result<HttpReply> {
        post_json(self.addr, path, body, REQUEST_TIMEOUT)
    }

    /// Drains the daemon through `/admin/shutdown` and joins its threads,
    /// so no thread or port outlives the run.
    pub fn shutdown(self) -> Result<DrainReport, String> {
        let reply = self
            .post("/admin/shutdown", "{}")
            .map_err(|e| e.to_string())?;
        if reply.status != 202 {
            return Err(format!("/admin/shutdown answered {}", reply.status));
        }
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon loop: {e}"))
    }
}

/// A field of a JSON reply body, parsed leniently: a malformed body reads
/// as "field absent" and the caller counts the request as failed.
pub fn reply_field(body: &str, field: &str) -> Option<Json> {
    Json::parse(body).ok()?.get(field).cloned()
}
