//! Shared daemon state: the loaded KG (as a swappable epoch), the
//! checkpoint registry, and the robustness machinery every request flows
//! through.
//!
//! ## Epochs
//!
//! Everything derived from the KG's *contents* — the RDF store, the
//! adjacency views, the canonical and multiset fingerprints, the class-pair
//! counts, and the SPARQL page cache — lives in one immutable [`KgEpoch`]
//! behind an `RwLock<Arc<..>>`. The store is the epoch's one index on the
//! update path: extraction and cache repair read it. The adjacency views
//! exist only for `/infer`'s forward pass, so an epoch builds them the
//! first time an `/infer` needs them, and an update that no `/infer`
//! follows never pays for them. Requests grab an `Arc` once and work
//! against a consistent world for their whole lifetime; `POST
//! /admin/update` builds the next epoch off to the side and swaps the
//! pointer, so in-flight requests never observe a half-applied delta.
//! The page cache is per-epoch by construction: rendered query text only
//! identifies a result relative to one graph's contents, so an update
//! must start from an empty page cache rather than poison the new world
//! with old pages.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, LazyLock, Mutex, PoisonError, RwLock};

use kgtosa_cache::ArtifactCache;
use kgtosa_core::{transform, ClassPairCounts};
use kgtosa_datagen::NcTask;
use kgtosa_kg::{HeteroGraph, KnowledgeGraph, MultisetFingerprint};
use kgtosa_models::{
    read_validated_state, CheckpointInfo, CheckpointRegistry, NcModelShape, RgcnNcModel,
};
use kgtosa_rdf::{CircuitBreaker, FaultPlan, PageCache, RdfStore};

use crate::config::ServeConfig;

/// One immutable generation of the served KG and everything derived from
/// its contents.
///
/// The epoch owns its graph: `kg` and the store share one
/// `Arc<KnowledgeGraph>`, so whoever drops the last `Arc<KgEpoch>` — the
/// swap in `/admin/update`, or the last in-flight request still holding
/// the old epoch — frees the graph, store, adjacency and page cache
/// together.
pub struct KgEpoch {
    /// The knowledge graph this epoch serves.
    pub kg: Arc<KnowledgeGraph>,
    /// The RDF store indexing it.
    pub store: RdfStore<'static>,
    /// Adjacency views for inference forward passes, built from `kg` on
    /// first dereference.
    pub graph: LazyLock<HeteroGraph, Box<dyn FnOnce() -> HeteroGraph + Send>>,
    /// Canonical snapshot fingerprint (cache key component), computed
    /// once per epoch.
    pub fingerprint: u64,
    /// Incrementally maintained multiset fingerprint; the differential
    /// invariant `MultisetFingerprint::of(kg) == multiset` is what the
    /// delta test harness checks.
    pub multiset: MultisetFingerprint,
    /// Incrementally maintained class-pair counts of `kg`, from which an
    /// update builds its staleness oracle without walking the graph.
    pub class_pairs: ClassPairCounts,
    /// SPARQL page cache, fresh per epoch.
    pub page_cache: PageCache,
    /// 0 for the startup epoch, +1 per applied delta.
    pub version: u64,
}

impl KgEpoch {
    /// Builds the derived state for a graph. `fingerprint`, `multiset`
    /// and `class_pairs` are passed in because the update path maintains
    /// them incrementally; the startup path computes them from scratch.
    pub fn build(
        kg: Arc<KnowledgeGraph>,
        fingerprint: u64,
        multiset: MultisetFingerprint,
        class_pairs: ClassPairCounts,
        version: u64,
    ) -> Self {
        let store = RdfStore::shared(kg.clone());
        let graph_kg = kg.clone();
        KgEpoch {
            kg,
            store,
            graph: LazyLock::new(Box::new(move || transform(&graph_kg).0)),
            fingerprint,
            multiset,
            class_pairs,
            page_cache: PageCache::new(),
            version,
        }
    }
}

/// Everything a request handler can touch, shared across workers.
pub struct ServeState {
    /// The daemon's configuration.
    pub cfg: ServeConfig,
    /// The current KG epoch; swapped atomically by `/admin/update`.
    epoch: RwLock<Arc<KgEpoch>>,
    /// Serializes delta application (epoch build + cache sweep). Readers
    /// never take this; they only clone the epoch `Arc`.
    pub update_lock: Mutex<()>,
    nc_tasks: Vec<NcTask>,
    registry: CheckpointRegistry,
    /// Frozen inference models, keyed by (checkpoint fingerprint, node
    /// count of the epoch they were materialized against) — a delta that
    /// grows the graph must not serve a model shaped for the old size.
    /// A checkpoint that does not fit the key's shape is remembered as
    /// such, so the file is read and validated once per key either way.
    models: Mutex<HashMap<(u64, usize), LoadedModel>>,
    /// Extraction artifact cache (the breaker-open degraded-answer path).
    pub cache: Option<ArtifactCache>,
    /// Circuit breaker shared by every extraction against the backend.
    pub breaker: CircuitBreaker,
    /// Runtime-togglable deterministic fault plan (`POST /admin/fault`).
    pub fault: Mutex<Option<FaultPlan>>,
    /// Set once drain begins; the accept loop stops admitting.
    pub draining: AtomicBool,
    /// Responses written, by coarse class.
    pub served: AtomicU64,
    /// Body bytes currently being handled (the in-flight budget).
    pub inflight_bytes: AtomicUsize,
}

impl ServeState {
    /// Builds the state for `cfg`: generates the dataset, indexes it in
    /// the RDF store, scans the checkpoint registry, and opens the
    /// artifact cache.
    pub fn from_dataset(cfg: ServeConfig) -> Result<Arc<Self>, String> {
        let guard = kgtosa_obs::span!("serve.startup");
        let d = kgtosa_datagen::by_name(&cfg.dataset, cfg.scale, cfg.seed)?;
        let kg = Arc::new(d.gen.kg);
        let fingerprint = kgtosa_kg::fingerprint(&kg);
        let multiset = MultisetFingerprint::of(&kg);
        let class_pairs = ClassPairCounts::of(&kg);
        let epoch = KgEpoch::build(kg, fingerprint, multiset, class_pairs, 0);
        let registry = match &cfg.checkpoint_dir {
            Some(dir) => CheckpointRegistry::scan(dir)
                .map_err(|e| format!("cannot scan checkpoint dir {}: {e}", dir.display()))?,
            None => CheckpointRegistry::default(),
        };
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(
                ArtifactCache::open(dir)
                    .map_err(|e| format!("cannot open cache dir {}: {e}", dir.display()))?,
            ),
            None => None,
        };
        let breaker = CircuitBreaker::new(cfg.breaker.clone());
        let fault = Mutex::new(cfg.fault.clone());
        drop(guard);
        kgtosa_obs::info!(
            "serve: loaded {} ({} nodes, {} triples, fingerprint {fingerprint:016x}), {} checkpoint(s)",
            cfg.dataset,
            epoch.kg.num_nodes(),
            epoch.kg.num_triples(),
            registry.entries().len()
        );
        Ok(Arc::new(Self {
            cfg,
            epoch: RwLock::new(Arc::new(epoch)),
            update_lock: Mutex::new(()),
            nc_tasks: d.nc,
            registry,
            models: Mutex::new(HashMap::new()),
            cache,
            breaker,
            fault,
            draining: AtomicBool::new(false),
            served: AtomicU64::new(0),
            inflight_bytes: AtomicUsize::new(0),
        }))
    }

    /// The current epoch. Handlers clone the `Arc` once per request and
    /// use it throughout, so a concurrent update cannot shear their view.
    pub fn epoch(&self) -> Arc<KgEpoch> {
        self.epoch
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes `next` as the current epoch. Callers must hold
    /// [`ServeState::update_lock`].
    pub fn swap_epoch(&self, next: Arc<KgEpoch>) {
        *self
            .epoch
            .write()
            .unwrap_or_else(PoisonError::into_inner) = next;
    }

    /// The dataset's node-classification tasks. Their target vertex ids
    /// stay valid across deltas (vertex ids are append-only).
    pub fn nc_tasks(&self) -> &[NcTask] {
        &self.nc_tasks
    }

    /// The checkpoint registry scanned at startup.
    pub fn registry(&self) -> &CheckpointRegistry {
        &self.registry
    }

    /// Loads (or returns the cached) inference model for a checkpoint,
    /// shaped against `epoch`'s KG; the epoch's adjacency is not built. The state blob is
    /// checksum-verified on first load; later requests share one frozen
    /// in-memory model. A checkpoint trained against a differently-sized
    /// graph fails shape validation here rather than predicting garbage,
    /// and that verdict is shared by later requests too.
    pub fn model_for(
        &self,
        epoch: &KgEpoch,
        info: &CheckpointInfo,
        num_labels: usize,
    ) -> LoadedModel {
        let key = (info.fingerprint, epoch.kg.num_nodes());
        let models = || self.models.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(known) = models().get(&key) {
            return known.clone();
        }
        // A read failure may pass; it is not remembered.
        let (_, state) = read_validated_state(&info.path).map_err(|e| {
            ModelError::Unusable(format!("checkpoint {} unreadable: {e}", info.path.display()))
        })?;
        let shape = NcModelShape {
            nodes: epoch.kg.num_nodes(),
            relations: epoch.kg.num_relations(),
            dim: self.cfg.dim,
            num_labels,
            lr: self.cfg.lr,
            seed: self.cfg.seed,
        };
        let loaded = match NcModelShape::trained_nodes(&state) {
            Some(trained) if trained != shape.nodes => Err(ModelError::Misfit {
                checkpoint_nodes: trained,
                epoch_nodes: shape.nodes,
            }),
            _ => RgcnNcModel::from_state(shape, &state).map(Arc::new).map_err(|e| {
                ModelError::Unusable(format!(
                    "checkpoint {} does not fit shape {shape:?}: {e}",
                    info.path.display()
                ))
            }),
        };
        models().insert(key, loaded.clone());
        loaded
    }
}

/// What [`ServeState::model_for`] answers: the frozen model, or why there is
/// none.
pub type LoadedModel = Result<Arc<RgcnNcModel>, ModelError>;

/// Why a checkpoint cannot serve an epoch.
#[derive(Debug, Clone)]
pub enum ModelError {
    /// The checkpoint was trained on a graph of another size — what every
    /// checkpoint becomes once `/admin/update` adds a vertex.
    Misfit {
        /// Rows of the checkpoint's embedding table.
        checkpoint_nodes: usize,
        /// Vertices of the epoch asked about.
        epoch_nodes: usize,
    },
    /// The file cannot be read, or disagrees with the daemon's model
    /// configuration in some other way.
    Unusable(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Misfit { checkpoint_nodes, epoch_nodes } => write!(
                f,
                "checkpoint was trained on {checkpoint_nodes} nodes but the served graph now has \
                 {epoch_nodes}; retrain on the updated graph"
            ),
            ModelError::Unusable(why) => f.write_str(why),
        }
    }
}
