//! The differential cached-vs-fresh harness.
//!
//! The cache's whole correctness claim is *substitutability*: an
//! artifact served from disk must be indistinguishable from running the
//! extraction again — bit-identical snapshot bytes, identical Table III
//! quality indicators, and (the end-to-end version of the claim)
//! training on the cached TOSG must reproduce the fresh run's epoch
//! losses exactly. These tests state that claim over random graphs,
//! patterns, and thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use kgtosa_cache::{ArtifactCache, CacheOutcome};
use kgtosa_core::{
    decode_extraction, encode_extraction, encode_extraction_parts, extract_sparql,
    extract_sparql_cached, migrate_payload, parent_triples, transform, ExtractionResult,
    ExtractionTask, ExtractionView, GraphPattern,
};
use kgtosa_kg::{fingerprint, quality, write_snapshot, KnowledgeGraph, Vid};
use kgtosa_models::{train_rgcn_nc, NcDataset, TrainConfig};
use kgtosa_rdf::{FetchConfig, RdfStore};
use proptest::prelude::*;

/// A fresh directory per case so proptest cases never share state.
fn case_dir(prefix: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("kgtosa-cache-differential")
        .join(format!("{prefix}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn snapshot_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut out = Vec::new();
    write_snapshot(kg, &mut out).unwrap();
    out
}

/// Random small academic-shaped KGs. The class is baked into each node
/// term so membership stays consistent across triples, and a seed edge
/// guarantees at least one Paper target.
fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    proptest::collection::vec((0u8..24, 0u8..3, 0u8..4, 0u8..24, 0u8..3), 0..80).prop_map(
        |triples| {
            const CLASSES: [&str; 3] = ["Paper", "Author", "Venue"];
            const RELS: [&str; 4] = ["writes", "cites", "publishedIn", "memberOf"];
            let mut kg = KnowledgeGraph::new();
            kg.add_triple_terms("seed0", "Paper", "cites", "seed1", "Paper");
            for (s, cs, r, o, co) in triples {
                kg.add_triple_terms(
                    &format!("n{s}c{cs}"),
                    CLASSES[cs as usize],
                    RELS[r as usize],
                    &format!("n{o}c{co}"),
                    CLASSES[co as usize],
                );
            }
            kg
        },
    )
}

fn paper_task(kg: &KnowledgeGraph) -> ExtractionTask {
    let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
    ExtractionTask::node_classification("diff", "Paper", targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cold (publishing) and warm (served) runs agree with an uncached
    /// extraction bit-for-bit — including when the cold run used one
    /// worker thread and the warm consumer uses four, and vice versa.
    #[test]
    fn cold_and_cached_runs_are_bit_identical_across_thread_counts(
        kg in arb_kg(),
        pattern in proptest::sample::select(vec![
            GraphPattern::D1H1, GraphPattern::D2H1, GraphPattern::D1H2, GraphPattern::D2H2,
        ]),
        cold_threads in proptest::sample::select(vec![1usize, 4]),
        warm_threads in proptest::sample::select(vec![1usize, 4]),
    ) {
        let task = paper_task(&kg);
        let store = RdfStore::new(&kg);
        let fetch = FetchConfig::default();
        let cache = ArtifactCache::open(case_dir("threads")).unwrap();

        let baseline = kgtosa_par::with_threads(cold_threads, || {
            extract_sparql(&store, &task, &pattern, &fetch).unwrap()
        });
        let (cold, first) = kgtosa_par::with_threads(cold_threads, || {
            extract_sparql_cached(&store, &task, &pattern, &fetch, &cache).unwrap()
        });
        prop_assert_eq!(first, CacheOutcome::Miss);
        let (warm, second) = kgtosa_par::with_threads(warm_threads, || {
            extract_sparql_cached(&store, &task, &pattern, &fetch, &cache).unwrap()
        });
        prop_assert_eq!(second, CacheOutcome::Hit);
        prop_assert!(warm.report.cached);
        prop_assert_eq!(warm.report.requests, 0, "a hit must not touch the endpoint");

        // Substitutability: snapshot bytes, target mapping, and quality
        // indicators all agree with the never-cached baseline.
        let base_bytes = snapshot_bytes(&baseline.subgraph.kg);
        prop_assert_eq!(&snapshot_bytes(&cold.subgraph.kg), &base_bytes);
        prop_assert_eq!(&snapshot_bytes(&warm.subgraph.kg), &base_bytes);
        prop_assert_eq!(&warm.targets, &baseline.targets);
        prop_assert_eq!(&warm.subgraph.to_parent, &baseline.subgraph.to_parent);
        prop_assert_eq!(&warm.subgraph.from_parent, &baseline.subgraph.from_parent);
        prop_assert_eq!(
            quality(&warm.subgraph.kg, &warm.targets),
            quality(&baseline.subgraph.kg, &baseline.targets)
        );
    }

    /// Migration patches the payload's `parent_nodes` field in place; the
    /// bytes must be exactly what decoding against the old parent size and
    /// re-encoding against the new one produces.
    #[test]
    fn migrating_a_payload_equals_decoding_and_re_encoding_it(
        kg in arb_kg(),
        pattern in proptest::sample::select(vec![
            GraphPattern::D1H1, GraphPattern::D2H1, GraphPattern::D1H2, GraphPattern::D2H2,
        ]),
        growth in 0usize..40,
    ) {
        let task = paper_task(&kg);
        let store = RdfStore::new(&kg);
        let res = extract_sparql(&store, &task, &pattern, &FetchConfig::default()).unwrap();
        let (old, new) = (kg.num_nodes(), kg.num_nodes() + growth);
        let payload = encode_extraction(&res, old, &quality(&res.subgraph.kg, &res.targets));

        let dec = decode_extraction(&payload, old).unwrap();
        let re_encoded =
            encode_extraction_parts(&dec.method, &dec.subgraph, &dec.targets, new, &dec.quality);
        prop_assert_eq!(migrate_payload(&payload, old, new).unwrap(), re_encoded);
        prop_assert!(migrate_payload(&payload, old + 1, new).is_err(), "wrong old parent size");
        prop_assert!(migrate_payload(&payload[..12], old, new).is_err(), "truncated prefix");
    }

    /// A warm `/extract` answers from the payload's view, a cold one from
    /// the fresh extraction: the view's counts, targets, parent mapping
    /// and fingerprint must be what decoding the payload (and extracting
    /// afresh) gives.
    #[test]
    fn the_view_answers_what_decoding_gives(
        kg in arb_kg(),
        pattern in proptest::sample::select(vec![
            GraphPattern::D1H1, GraphPattern::D2H1, GraphPattern::D1H2, GraphPattern::D2H2,
        ]),
    ) {
        let task = paper_task(&kg);
        let store = RdfStore::new(&kg);
        let res = extract_sparql(&store, &task, &pattern, &FetchConfig::default()).unwrap();
        let payload = encode_extraction(&res, kg.num_nodes(), &quality(&res.subgraph.kg, &res.targets));

        let view = ExtractionView::parse(&payload, kg.num_nodes()).unwrap();
        let dec = decode_extraction(&payload, kg.num_nodes()).unwrap();
        prop_assert_eq!(view.fingerprint(), fingerprint(&dec.subgraph.kg));
        prop_assert_eq!(view.fingerprint(), fingerprint(&res.subgraph.kg));
        prop_assert_eq!(view.snapshot().num_nodes(), dec.subgraph.kg.num_nodes());
        prop_assert_eq!(view.snapshot().num_triples(), dec.subgraph.kg.num_triples());
        prop_assert_eq!(view.num_targets(), dec.targets.len());
        prop_assert_eq!(view.method(), dec.method.as_str());
        prop_assert_eq!(view.quality(), &dec.quality);
        let targets: Vec<Vid> = view.targets().map(|t| view.map_up(t)).collect();
        let decoded: Vec<Vid> = dec.targets.iter().map(|&t| dec.subgraph.map_up(t)).collect();
        prop_assert_eq!(targets, decoded);
        prop_assert_eq!(view.parent_triples(&kg), Some(parent_triples(&kg, &dec.subgraph)));
    }
}

/// Records each epoch's exact loss bits (and metric bits) so two
/// training runs can be compared for bit-identity, not approximately.
#[derive(Default)]
struct LossRecorder(Mutex<Vec<(u64, u64)>>);

impl kgtosa_obs::TrainObserver for LossRecorder {
    fn on_epoch(&self, ev: &kgtosa_obs::EpochEvent<'_>) {
        self.0.lock().unwrap().push((ev.loss.to_bits(), ev.metric.to_bits()));
    }
}

/// Trains RGCN on an extracted TOSG exactly the way the CLI does
/// (remapped labels and splits) and returns the per-epoch loss/metric
/// bits plus the final parameter-state fingerprint.
fn train_on_tosg(
    res: &ExtractionResult,
    task: &kgtosa_datagen::NcTask,
) -> (Vec<(u64, u64)>, u64, f64) {
    let sub = &res.subgraph;
    let (graph, _) = transform(&sub.kg);
    let mut labels = vec![u32::MAX; sub.kg.num_nodes()];
    for v in 0..sub.kg.num_nodes() as u32 {
        labels[v as usize] = task.labels[sub.map_up(Vid(v)).idx()];
    }
    let map = |ns: &[Vid]| -> Vec<Vid> { ns.iter().filter_map(|&v| sub.map_down(v)).collect() };
    let (train, valid, test) = (map(&task.train), map(&task.valid), map(&task.test));
    let recorder = Arc::new(LossRecorder::default());
    let cfg = TrainConfig {
        epochs: 4,
        dim: 8,
        seed: 7,
        observer: kgtosa_obs::Observer::from_arc(recorder.clone()),
        ..Default::default()
    };
    let data = NcDataset {
        kg: &sub.kg,
        graph: &graph,
        labels: &labels,
        num_labels: task.num_labels,
        train: &train,
        valid: &valid,
        test: &test,
    };
    let report = train_rgcn_nc(&data, &cfg);
    let losses = recorder.0.lock().unwrap().clone();
    (losses, report.param_hash, report.metric)
}

/// End-to-end: training on the cache-served TOSG reproduces the fresh
/// run's epoch losses, validation metrics, final metric, and parameter
/// fingerprint exactly.
#[test]
fn training_on_cached_tosg_reproduces_fresh_epoch_losses() {
    let d = kgtosa_datagen::dblp(0.03, 7);
    let task = &d.nc[0];
    let ext = ExtractionTask::node_classification(&task.name, &task.target_class, task.targets());
    let store = RdfStore::new(&d.gen.kg);
    let fetch = FetchConfig::default();
    let cache = ArtifactCache::open(case_dir("train")).unwrap();

    let (fresh, first) =
        extract_sparql_cached(&store, &ext, &GraphPattern::D1H1, &fetch, &cache).unwrap();
    assert_eq!(first, CacheOutcome::Miss);
    let (cached, second) =
        extract_sparql_cached(&store, &ext, &GraphPattern::D1H1, &fetch, &cache).unwrap();
    assert_eq!(second, CacheOutcome::Hit);

    let (fresh_losses, fresh_hash, fresh_metric) = train_on_tosg(&fresh, task);
    let (cached_losses, cached_hash, cached_metric) = train_on_tosg(&cached, task);
    assert_eq!(fresh_losses.len(), 4, "one record per epoch");
    assert_eq!(
        fresh_losses, cached_losses,
        "per-epoch losses/metrics must be bit-identical on the cached TOSG"
    );
    assert_eq!(fresh_hash, cached_hash, "final parameter state must match exactly");
    assert_eq!(fresh_metric.to_bits(), cached_metric.to_bits());
}
