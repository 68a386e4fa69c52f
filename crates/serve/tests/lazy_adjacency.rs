//! The daemon builds an epoch's adjacency only for `/infer`.
//!
//! Start-up, `/admin/update`, a `400` and a `409` from `/infer` all leave
//! the adjacency unbuilt; the first `/infer` that runs a forward pass
//! builds it once, and later ones reuse it. Builds are counted as
//! `pipeline.transform` spans in the process-global registry, so this
//! file is a test binary of its own with a single test: no other test can
//! move the count.

use kgtosa_datagen::NcTask;
use kgtosa_kg::{apply_delta, fingerprint, DeltaOp, HeteroGraph, KgDelta, MultisetFingerprint, Vid};
use kgtosa_obs::httpd::HttpRequest;
use kgtosa_obs::Json;
use kgtosa_serve::{handle_guarded, ServeConfig, ServeState};

const SCALE: f64 = 0.02;
const SEED: u64 = 7;

/// Adjacency builds so far, wherever in the span tree they ran.
fn transforms() -> u64 {
    kgtosa_obs::span_stats()
        .iter()
        .filter(|(name, _)| name == "pipeline.transform" || name.ends_with(".pipeline.transform"))
        .map(|(_, stat)| stat.count)
        .sum()
}

fn post(state: &ServeState, path: &str, body: &str) -> (u16, Json) {
    let req = HttpRequest {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let resp = handle_guarded(state, &req, std::time::Instant::now());
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{path} answered non-JSON ({e}): {text}"));
    (resp.status, json)
}

fn predictions(reply: &Json) -> Vec<u32> {
    match reply.get("predictions") {
        Some(Json::Arr(items)) => items.iter().map(|p| p.as_f64().unwrap() as u32).collect(),
        other => panic!("no predictions in {reply}: {other:?}"),
    }
}

/// Trains the served checkpoint without `transform`, so training adds no
/// build to the count.
fn train_checkpoint(dir: &std::path::Path, kg: &kgtosa_kg::KnowledgeGraph, task: &NcTask) {
    let graph = HeteroGraph::build(kg);
    let data = kgtosa_models::NcDataset {
        kg,
        graph: &graph,
        labels: &task.labels,
        num_labels: task.num_labels,
        train: &task.train,
        valid: &task.valid,
        test: &task.test,
    };
    let cfg = kgtosa_models::TrainConfig {
        epochs: 1,
        dim: 8,
        seed: SEED,
        checkpoint: Some(kgtosa_models::CheckpointConfig::new(dir)),
        ..Default::default()
    };
    kgtosa_models::train_rgcn_nc(&data, &cfg);
}

#[test]
fn the_adjacency_is_built_once_and_only_for_infer() {
    let ckpt_dir = std::env::temp_dir().join(format!("kgtosa-lazy-adjacency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let kg = &dataset.gen.kg;
    let task = &dataset.nc[0];
    train_checkpoint(&ckpt_dir, kg, task);

    let before = transforms();
    let state = ServeState::from_dataset(ServeConfig {
        dataset: "mag".into(),
        scale: SCALE,
        seed: SEED,
        dim: 8,
        workers: 2,
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("serve state");
    assert_eq!(transforms(), before, "start-up builds no adjacency");

    // A delta that only removes triples: the vertex count stays, so the
    // checkpoint still fits. It removes edges of the first queried node,
    // so its answer depends on the new adjacency.
    let nodes: Vec<Vid> = task.test[..4].to_vec();
    let ops: Vec<DeltaOp> = kg
        .triples()
        .iter()
        .filter(|t| t.s == nodes[0] || t.o == nodes[0])
        .take(3)
        .map(|t| DeltaOp::Remove {
            s: kg.node_term(t.s).into(),
            p: kg.relation_term(t.p).into(),
            o: kg.node_term(t.o).into(),
        })
        .collect();
    assert!(!ops.is_empty(), "precondition: the queried node has edges");
    let ops_json: Vec<String> = ops
        .iter()
        .map(|op| match op {
            DeltaOp::Remove { s, p, o } => {
                format!("{{\"op\":\"remove\",\"s\":\"{s}\",\"p\":\"{p}\",\"o\":\"{o}\"}}")
            }
            DeltaOp::Add { .. } => unreachable!("the delta only removes"),
        })
        .collect();
    let (status, reply) = post(&state, "/admin/update", &format!("{{\"ops\":[{}]}}", ops_json.join(",")));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(transforms(), before, "an update with no /infer after it builds no adjacency");

    // A rejected node id is answered from the KG's vertex count.
    let n = kg.num_nodes();
    let (status, reply) = post(&state, "/infer", &format!("{{\"checkpoint\":\"RGCN\",\"nodes\":[{n}]}}"));
    assert_eq!(status, 400, "{reply}");
    assert_eq!(transforms(), before, "a 400 builds no adjacency");

    let ids: Vec<String> = nodes.iter().map(|v| v.0.to_string()).collect();
    let infer = format!(
        "{{\"checkpoint\":\"RGCN\",\"nodes\":[{}],\"deadline_ms\":60000}}",
        ids.join(",")
    );
    let (status, first) = post(&state, "/infer", &infer);
    assert_eq!(status, 200, "{first}");
    assert_eq!(transforms(), before + 1, "the first /infer builds the adjacency once");
    let (status, second) = post(&state, "/infer", &infer);
    assert_eq!(status, 200, "{second}");
    assert_eq!(transforms(), before + 1, "a second /infer reuses it");
    assert_eq!(predictions(&first), predictions(&second));

    // The lazily built adjacency answers exactly what one built eagerly
    // from a local copy of the same delta does.
    let delta = KgDelta { base_fingerprint: fingerprint(kg), ops };
    let local = apply_delta(kg, fingerprint(kg), MultisetFingerprint::of(kg), &delta).expect("delta applies");
    assert_eq!(local.kg.num_nodes(), n);
    let epoch = state.epoch();
    let info = state.registry().by_method("RGCN").expect("the served checkpoint");
    let model = state.model_for(&epoch, info, task.num_labels).expect("the checkpoint fits");
    let expected = model.predict_nodes(&HeteroGraph::build(&local.kg), &nodes);
    assert_eq!(predictions(&first), expected);

    // A delta that adds a vertex leaves the checkpoint misfit: `/infer`
    // answers 409 without building the new epoch's adjacency.
    let target = kg.node_term(task.targets()[0]);
    let grow = format!(
        "{{\"ops\":[{{\"op\":\"add\",\"s\":\"Paper_lazy_new\",\"s_class\":\"Paper\",\
         \"p\":\"cites\",\"o\":\"{target}\",\"o_class\":\"Paper\"}}]}}"
    );
    let (status, reply) = post(&state, "/admin/update", &grow);
    assert_eq!(status, 200, "{reply}");
    let (status, reply) = post(&state, "/infer", &infer);
    assert_eq!(status, 409, "{reply}");
    assert_eq!(transforms(), before + 1, "an update and a 409 build no adjacency");

    std::fs::remove_dir_all(&ckpt_dir).unwrap();
}
