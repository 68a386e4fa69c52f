//! End-to-end tests for `POST /admin/update`: a live delta swaps the
//! epoch, stale cache entries are repaired (or invalidated with repair
//! off) while untouched ones keep hitting, the repaired answer is
//! bit-identical to a fresh extraction against the updated graph, and a
//! replaced epoch's graph is freed with its last holder.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use kgtosa_core::{extract_sparql, ExtractionTask, GraphPattern};
use kgtosa_kg::{apply_delta, DeltaOp, KgDelta, MultisetFingerprint, Vid};
use kgtosa_obs::httpd::HttpRequest;
use kgtosa_obs::Json;
use kgtosa_rdf::{FetchConfig, RdfStore};
use kgtosa_serve::client::{get, post_json, HttpReply};
use kgtosa_serve::{handle_guarded, DrainReport, KgEpoch, ServeConfig, ServeState, Server};

const SCALE: f64 = 0.02;
const SEED: u64 = 7;

fn base_config() -> ServeConfig {
    ServeConfig {
        dataset: "mag".into(),
        scale: SCALE,
        seed: SEED,
        dim: 8,
        workers: 2,
        ..ServeConfig::default()
    }
}

struct Daemon {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<DrainReport>,
}

impl Daemon {
    fn spawn(cfg: ServeConfig) -> Self {
        Self::serve(ServeState::from_dataset(cfg).expect("serve state"))
    }

    fn serve(state: Arc<ServeState>) -> Self {
        let server = Server::bind(state).expect("bind");
        let addr = server.addr();
        let thread = std::thread::spawn(move || server.run().expect("serve loop"));
        Daemon { addr, thread }
    }

    fn shutdown(self) -> DrainReport {
        let r = post_json(self.addr, "/admin/shutdown", "", Duration::from_secs(5))
            .expect("shutdown request");
        assert_eq!(r.status, 202);
        self.thread.join().expect("server thread")
    }
}

fn ok_json(reply: &HttpReply) -> Json {
    assert_eq!(reply.status, 200, "expected 200, got {}: {}", reply.status, reply.body);
    Json::parse(&reply.body).expect("response body is JSON")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgtosa-update-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn extract(addr: SocketAddr, body: &str) -> Json {
    ok_json(&post_json(addr, "/extract", body, Duration::from_secs(30)).unwrap())
}

fn num(json: &Json, path: &[&str]) -> f64 {
    let mut cur = json;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing field {path:?} in {json}"));
    }
    cur.as_f64().unwrap_or_else(|| panic!("field {path:?} is not a number in {json}"))
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field {key:?} in {json}"))
}

/// The ground-truth side of the differential check: the same dataset the
/// daemon loads, plus the same delta applied locally via `apply_delta`.
struct GroundTruth {
    ops: Vec<DeltaOp>,
    ops_json: String,
    base_fingerprint: u64,
}

impl GroundTruth {
    /// One add (a target paper gains an outgoing `cites` edge to a brand
    /// new node — guaranteed fresh, guaranteed to change the d1h1 TOSG)
    /// and one remove (an existing outgoing edge of a target paper).
    fn build(dataset: &kgtosa_datagen::Dataset) -> Self {
        let kg = &dataset.gen.kg;
        let task = &dataset.nc[0];
        let targets = task.targets();
        let target_set: std::collections::HashSet<Vid> = targets.iter().copied().collect();
        assert!(kg.find_relation("cites").is_some(), "mag has a cites relation");
        let add_s = kg.node_term(targets[0]).to_string();
        let removable = kg
            .triples()
            .iter()
            .copied()
            .find(|t| target_set.contains(&t.s))
            .expect("some target paper has an outgoing edge");
        let (rs, rp, ro) = (
            kg.node_term(removable.s).to_string(),
            kg.relation_term(removable.p).to_string(),
            kg.node_term(removable.o).to_string(),
        );
        let ops = vec![
            DeltaOp::Add {
                s: add_s.clone(),
                s_class: "Paper".into(),
                p: "cites".into(),
                o: "Paper_delta_0".into(),
                o_class: "Paper".into(),
            },
            DeltaOp::Remove {
                s: rs.clone(),
                p: rp.clone(),
                o: ro.clone(),
            },
        ];
        let ops_json = format!(
            "[{{\"op\":\"add\",\"s\":\"{add_s}\",\"s_class\":\"Paper\",\"p\":\"cites\",\
             \"o\":\"Paper_delta_0\",\"o_class\":\"Paper\"}},\
             {{\"op\":\"remove\",\"s\":\"{rs}\",\"p\":\"{rp}\",\"o\":\"{ro}\"}}]"
        );
        GroundTruth {
            ops,
            ops_json,
            base_fingerprint: kgtosa_kg::fingerprint(kg),
        }
    }

    /// Applies the delta locally and freshly extracts the named task at
    /// d1h1, returning (new KG fingerprint, subgraph fingerprint) as the
    /// hex strings the daemon must report, plus the updated graph's
    /// (nodes, triples, classes, relations) counts.
    fn expected(&self, dataset: &kgtosa_datagen::Dataset) -> (String, String, [f64; 4]) {
        let kg = &dataset.gen.kg;
        let task = &dataset.nc[0];
        let delta = KgDelta {
            base_fingerprint: self.base_fingerprint,
            ops: self.ops.clone(),
        };
        let app = apply_delta(kg, self.base_fingerprint, MultisetFingerprint::of(kg), &delta)
            .expect("ground-truth delta applies");
        let kg_fp = format!("{:016x}", kgtosa_kg::fingerprint(&app.kg));
        let store = RdfStore::new(&app.kg);
        let etask =
            ExtractionTask::node_classification(&task.name, &task.target_class, task.targets());
        let fresh = extract_sparql(&store, &etask, &GraphPattern::D1H1, &FetchConfig::default())
            .expect("fresh extraction on the updated graph");
        let sub_fp = format!("{:016x}", kgtosa_kg::fingerprint(&fresh.subgraph.kg));
        let counts = [
            app.kg.num_nodes(),
            app.kg.num_triples(),
            app.kg.num_classes(),
            app.kg.num_relations(),
        ]
        .map(|n| n as f64);
        (kg_fp, sub_fp, counts)
    }
}

#[test]
fn live_update_repairs_stale_entries_and_migrates_fresh_ones() {
    let cache_dir = temp_dir("repair-cache");
    let daemon = Daemon::spawn(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..base_config()
    });

    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let task_name = dataset.nc[0].name.clone();
    let truth = GroundTruth::build(&dataset);
    let (expected_kg_fp, expected_sub_fp, expected_counts) = truth.expected(&dataset);

    // Warm two entries: the named Paper task (the delta will touch it)
    // and the Patent cluster (disjoint from every delta class, so the
    // oracle must keep it fresh).
    let paper_body = format!("{{\"task\":\"{task_name}\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}}");
    let patent_body = "{\"target_class\":\"Patent\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}";
    let paper0 = extract(daemon.addr, &paper_body);
    assert_eq!(paper0.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(num(&paper0, &["epoch"]), 0.0);
    let paper0_fp = str_field(&paper0, "subgraph_fingerprint").to_string();
    let old_kg_fp = str_field(&paper0, "kg_fingerprint").to_string();
    assert_eq!(old_kg_fp, format!("{:016x}", truth.base_fingerprint));
    let patent0 = extract(daemon.addr, patent_body);
    assert_eq!(patent0.get("cached").and_then(Json::as_bool), Some(false));
    let patent0_fp = str_field(&patent0, "subgraph_fingerprint").to_string();

    // Apply the delta (CAS-pinned to the epoch we warmed against).
    let update_body = format!(
        "{{\"base_fingerprint\":\"{old_kg_fp}\",\"ops\":{},\"repair\":true}}",
        truth.ops_json
    );
    let upd = ok_json(&post_json(daemon.addr, "/admin/update", &update_body, Duration::from_secs(60)).unwrap());
    assert_eq!(str_field(&upd, "status"), "ok");
    assert_eq!(num(&upd, &["epoch"]), 1.0);
    assert_eq!(str_field(&upd, "previous_fingerprint"), old_kg_fp);
    assert_eq!(str_field(&upd, "kg_fingerprint"), expected_kg_fp);
    assert_eq!(num(&upd, &["ops"]), 2.0);
    assert_eq!(num(&upd, &["added"]), 1.0);
    assert_eq!(num(&upd, &["removed"]), 1.0);
    assert_eq!(num(&upd, &["new_nodes"]), 1.0);
    // Exactly the Paper entry is stale (and repaired in place); the
    // Patent entry migrates untouched. `migrated` counts every entry
    // re-keyed to the new fingerprint — the repaired one included.
    assert_eq!(num(&upd, &["cache", "scanned"]), 2.0);
    assert_eq!(num(&upd, &["cache", "stale"]), 1.0);
    assert_eq!(num(&upd, &["cache", "repaired"]), 1.0);
    assert_eq!(num(&upd, &["cache", "migrated"]), 2.0);
    assert_eq!(num(&upd, &["cache", "invalidated"]), 0.0);
    assert_eq!(num(&upd, &["cache", "failed"]), 0.0);

    // The repaired entry answers from cache, against the new epoch, with
    // exactly the fingerprint a from-scratch extraction computes.
    let paper1 = extract(daemon.addr, &paper_body);
    assert_eq!(
        paper1.get("cached").and_then(Json::as_bool),
        Some(true),
        "repaired entry must be republished under the new fingerprint: {paper1}"
    );
    assert_eq!(num(&paper1, &["epoch"]), 1.0);
    assert_eq!(str_field(&paper1, "kg_fingerprint"), expected_kg_fp);
    assert_eq!(
        str_field(&paper1, "subgraph_fingerprint"),
        expected_sub_fp,
        "repaired TOSG differs from a fresh extraction on the updated graph"
    );
    assert_ne!(
        str_field(&paper1, "subgraph_fingerprint"),
        paper0_fp,
        "the delta added an outgoing edge to a target, so the TOSG must change"
    );

    // The untouched cluster still cache-hits with an unchanged TOSG.
    let patent1 = extract(daemon.addr, patent_body);
    assert_eq!(patent1.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(str_field(&patent1, "subgraph_fingerprint"), patent0_fp);
    assert_eq!(num(&patent1, &["epoch"]), 1.0);

    // /serve reports the new epoch; /metrics exposes the delta counters.
    let stats = ok_json(&get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap());
    assert_eq!(num(&stats, &["epoch", "version"]), 1.0);
    assert_eq!(str_field(&stats, "kg_fingerprint"), expected_kg_fp);
    // Its counts describe the updated graph, not the one loaded at startup.
    let served_counts =
        ["nodes", "triples", "classes", "relations"].map(|k| num(&stats, &["epoch", k]));
    assert_eq!(served_counts, expected_counts);
    let metrics = get(daemon.addr, "/metrics", Duration::from_secs(5)).unwrap();
    assert_eq!(metrics.status, 200);
    for counter in ["kgtosa_delta_applied_total", "kgtosa_delta_ops_total", "kgtosa_delta_repairs_total", "kgtosa_delta_migrations_total"] {
        assert!(metrics.body.contains(counter), "{counter} missing from /metrics");
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn update_validates_requests_and_invalidates_without_repair() {
    let cache_dir = temp_dir("invalidate-cache");
    let daemon = Daemon::spawn(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..base_config()
    });

    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let task_name = dataset.nc[0].name.clone();
    let target_term = dataset.gen.kg.node_term(dataset.nc[0].targets()[0]).to_string();

    let paper_body = format!("{{\"task\":\"{task_name}\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}}");
    let paper0 = extract(daemon.addr, &paper_body);
    let paper0_fp = str_field(&paper0, "subgraph_fingerprint").to_string();
    let old_kg_fp = str_field(&paper0, "kg_fingerprint").to_string();

    // A new paper citing an existing target: the d1h1 BGP anchors on the
    // whole Paper *class* (`?v0 a Paper`), so the new node's outgoing
    // edge joins the TOSG and the cached entry is genuinely stale.
    let ops = format!(
        "[{{\"op\":\"add\",\"s\":\"Paper_delta_new\",\"s_class\":\"Paper\",\"p\":\"cites\",\
         \"o\":\"{target_term}\",\"o_class\":\"Paper\"}}]"
    );

    // Compare-and-swap against the wrong base fingerprint is refused.
    let stale_cas = format!("{{\"base_fingerprint\":\"0000000000000001\",\"ops\":{ops}}}");
    let r = post_json(daemon.addr, "/admin/update", &stale_cas, Duration::from_secs(10)).unwrap();
    assert_eq!(r.status, 409, "wrong base fingerprint must 409: {}", r.body);
    let cas = Json::parse(&r.body).unwrap();
    assert_eq!(str_field(&cas, "expected"), old_kg_fp);

    // Malformed deltas are 400s, and none of them disturb the epoch.
    for bad in [
        "{}",
        "{\"ops\":[]}",
        "{\"ops\":[{\"op\":\"teleport\"}]}",
        "{\"ops\":[{\"op\":\"add\",\"s\":\"x\"}]}",
        "{\"ops\":[{\"op\":\"remove\",\"s\":\"NoSuchNode\",\"p\":\"cites\",\"o\":\"AlsoMissing\"}]}",
    ] {
        let r = post_json(daemon.addr, "/admin/update", bad, Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, 400, "bad update {bad} must 400: {}", r.body);
    }
    // A base fingerprint is at most one `0x` and then hex digits: no
    // repeated prefix and no sign, even around the right value.
    for base in [
        format!("0x0x{old_kg_fp}"),
        format!("+{old_kg_fp}"),
        format!("0x+{old_kg_fp}"),
        "0x0xab".into(),
        "+ab".into(),
        "0x+ab".into(),
    ] {
        let body = format!("{{\"base_fingerprint\":\"{base}\",\"ops\":{ops}}}");
        let r = post_json(daemon.addr, "/admin/update", &body, Duration::from_secs(10)).unwrap();
        assert_eq!(r.status, 400, "base fingerprint {base:?} must 400: {}", r.body);
    }
    let stats = ok_json(&get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap());
    assert_eq!(num(&stats, &["epoch", "version"]), 0.0, "rejected deltas must not advance the epoch");

    // With repair disabled, the stale entry is dropped instead.
    let upd = ok_json(&post_json(
        daemon.addr,
        "/admin/update",
        &format!("{{\"base_fingerprint\":\"{old_kg_fp}\",\"ops\":{ops},\"repair\":false}}"),
        Duration::from_secs(60),
    )
    .unwrap());
    assert_eq!(num(&upd, &["epoch"]), 1.0);
    assert_eq!(num(&upd, &["cache", "scanned"]), 1.0);
    assert_eq!(num(&upd, &["cache", "stale"]), 1.0);
    assert_eq!(num(&upd, &["cache", "invalidated"]), 1.0);
    assert_eq!(num(&upd, &["cache", "repaired"]), 0.0);
    let new_kg_fp = str_field(&upd, "kg_fingerprint").to_string();
    assert_ne!(new_kg_fp, old_kg_fp);

    // The next extraction pays a miss against the new epoch and sees the
    // new paper's edge in the class-anchored TOSG.
    let paper1 = extract(daemon.addr, &paper_body);
    assert_eq!(paper1.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(num(&paper1, &["epoch"]), 1.0);
    assert_eq!(str_field(&paper1, "kg_fingerprint"), new_kg_fp);
    assert_ne!(str_field(&paper1, "subgraph_fingerprint"), paper0_fp);
    // ... and is republished under the new fingerprint.
    let paper2 = extract(daemon.addr, &paper_body);
    assert_eq!(paper2.get("cached").and_then(Json::as_bool), Some(true));

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The KG is a set: an add of a triple it already holds rejects the whole
/// delta with `400`, even after an add that would have applied, and the
/// epoch's version and fingerprint stay as they were.
#[test]
fn an_add_of_a_present_triple_is_a_400_that_changes_nothing() {
    let daemon = Daemon::spawn(base_config());
    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let kg = &dataset.gen.kg;
    let t = kg.triples()[0];
    let (s, p, o) = (kg.node_term(t.s), kg.relation_term(t.p), kg.node_term(t.o));
    let (sc, oc) = (kg.class_term(kg.class_of(t.s)), kg.class_term(kg.class_of(t.o)));
    let before = ok_json(&get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap());

    let body = format!(
        "{{\"ops\":[{{\"op\":\"add\",\"s\":\"Paper_delta_new\",\"s_class\":\"Paper\",\
         \"p\":\"cites\",\"o\":\"{o}\",\"o_class\":\"{oc}\"}},\
         {{\"op\":\"add\",\"s\":\"{s}\",\"s_class\":\"{sc}\",\"p\":\"{p}\",\
         \"o\":\"{o}\",\"o_class\":\"{oc}\"}}]}}"
    );
    let r = post_json(daemon.addr, "/admin/update", &body, Duration::from_secs(10)).unwrap();
    assert_eq!(r.status, 400, "an add of a present triple must 400: {}", r.body);
    assert!(r.body.contains("present triple"), "{}", r.body);

    let after = ok_json(&get(daemon.addr, "/serve", Duration::from_secs(5)).unwrap());
    assert_eq!(num(&after, &["epoch", "version"]), num(&before, &["epoch", "version"]));
    assert_eq!(num(&after, &["epoch", "triples"]), kg.num_triples() as f64);
    assert_eq!(str_field(&after, "kg_fingerprint"), str_field(&before, "kg_fingerprint"));
    daemon.shutdown();
}

/// Regression: an update that leaves the canonical fingerprint as it was —
/// here one delta that removes and then re-adds the same existing triple —
/// re-keys every entry onto its own path, and the sweep used to delete
/// each republished file right after writing it while still counting it
/// `migrated`.
#[test]
fn an_update_that_keeps_the_fingerprint_keeps_the_cache() {
    let cache_dir = temp_dir("same-fp-cache");
    let daemon = Daemon::spawn(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..base_config()
    });
    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let kg = &dataset.gen.kg;
    let task = &dataset.nc[0];
    // An outgoing edge of a target paper: the d1h1 Paper entry is stale
    // under it (and repaired), the Patent entry is not (and migrated).
    let t = kg
        .triples()
        .iter()
        .copied()
        .find(|t| t.s == task.targets()[0])
        .expect("a target paper has an outgoing edge");
    let (s, p, o) = (kg.node_term(t.s), kg.relation_term(t.p), kg.node_term(t.o));
    let (sc, oc) = (kg.class_term(kg.class_of(t.s)), kg.class_term(kg.class_of(t.o)));

    let paper_body = format!(
        "{{\"task\":\"{}\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}}",
        task.name
    );
    let patent_body = "{\"target_class\":\"Patent\",\"pattern\":\"d1h1\",\"deadline_ms\":30000}";
    let paper0 = extract(daemon.addr, &paper_body);
    let patent0 = extract(daemon.addr, patent_body);

    let upd = ok_json(
        &post_json(
            daemon.addr,
            "/admin/update",
            &format!(
                "{{\"ops\":[{{\"op\":\"remove\",\"s\":\"{s}\",\"p\":\"{p}\",\"o\":\"{o}\"}},\
                 {{\"op\":\"add\",\"s\":\"{s}\",\"s_class\":\"{sc}\",\"p\":\"{p}\",\
                 \"o\":\"{o}\",\"o_class\":\"{oc}\"}}]}}"
            ),
            Duration::from_secs(60),
        )
        .unwrap(),
    );
    assert_eq!(num(&upd, &["epoch"]), 1.0);
    assert_eq!(
        str_field(&upd, "kg_fingerprint"),
        str_field(&upd, "previous_fingerprint")
    );
    assert_eq!(num(&upd, &["cache", "stale"]), 1.0);
    assert_eq!(num(&upd, &["cache", "repaired"]), 1.0);
    assert_eq!(num(&upd, &["cache", "migrated"]), 2.0);
    assert_eq!(num(&upd, &["cache", "invalidated"]), 0.0);
    assert_eq!(num(&upd, &["cache", "failed"]), 0.0);
    // What `migrated` counts is on disk...
    let on_disk = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "kgc"))
        .count();
    assert_eq!(on_disk, 2);
    // ...and both warm keys still hit, answering what they answered.
    for (body, before) in [(paper_body.as_str(), &paper0), (patent_body, &patent0)] {
        let after = extract(daemon.addr, body);
        assert_eq!(after.get("cached").and_then(Json::as_bool), Some(true), "{body}: {after}");
        assert_eq!(num(&after, &["epoch"]), 1.0);
        assert_eq!(
            str_field(&after, "subgraph_fingerprint"),
            str_field(before, "subgraph_fingerprint")
        );
    }

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// An epoch held across an update (as an in-flight request holds it) keeps
/// answering from the graph it was built on, and that graph is freed the
/// moment the holder lets go — for the startup graph (round 0) and for one
/// `apply_delta` built (round 1).
#[test]
fn a_replaced_epoch_serves_its_holder_and_then_frees_its_graph() {
    let state = ServeState::from_dataset(base_config()).expect("serve state");
    let daemon = Daemon::serve(Arc::clone(&state));
    let task = &state.nc_tasks()[0];
    let etask = ExtractionTask::node_classification(&task.name, &task.target_class, task.targets());
    // (KG fingerprint, KG triples, d1h1 TOSG fingerprint) as `epoch` answers.
    let answers = |epoch: &KgEpoch| {
        let tosg = extract_sparql(&epoch.store, &etask, &GraphPattern::D1H1, &FetchConfig::default())
            .expect("extraction against a held epoch");
        (
            epoch.fingerprint,
            epoch.kg.num_triples(),
            kgtosa_kg::fingerprint(&tosg.subgraph.kg),
        )
    };
    let target_term = state.epoch().kg.node_term(task.targets()[0]).to_string();

    for round in 0..2u64 {
        let held = state.epoch();
        let graph = Arc::downgrade(&held.kg);
        let before = answers(&held);

        // A new paper citing a target: the class-anchored d1h1 TOSG grows.
        let upd = ok_json(
            &post_json(
                daemon.addr,
                "/admin/update",
                &format!(
                    "{{\"ops\":[{{\"op\":\"add\",\"s\":\"Paper_delta_{round}\",\"s_class\":\"Paper\",\
                     \"p\":\"cites\",\"o\":\"{target_term}\",\"o_class\":\"Paper\"}}]}}"
                ),
                Duration::from_secs(60),
            )
            .unwrap(),
        );

        let current = state.epoch();
        assert_eq!(current.version, round + 1);
        let after = answers(&current);
        assert_eq!(format!("{:016x}", after.0), str_field(&upd, "kg_fingerprint"));
        assert_eq!(after.1, before.1 + 1);
        assert_ne!(after.2, before.2, "the daemon serves the updated graph");
        assert_eq!(answers(&held), before, "round {round}: the held epoch answers from its own graph");

        drop(held);
        assert!(
            graph.upgrade().is_none(),
            "round {round}: the replaced epoch's graph outlived its last holder"
        );
    }
    daemon.shutdown();
}

/// Regression: handlers run under `catch_unwind`, so an update that
/// panicked left `update_lock` poisoned and the daemon up — and every
/// later `/admin/update` hit `.lock().unwrap()` and answered 500 until
/// restart.
#[test]
fn update_survives_a_poisoned_update_lock() {
    let state = ServeState::from_dataset(base_config()).expect("serve state");
    let poisoner = Arc::clone(&state);
    std::thread::spawn(move || {
        let _held = poisoner.update_lock.lock().unwrap();
        panic!("an update dies holding the lock");
    })
    .join()
    .expect_err("the poisoner panics");
    assert!(state.update_lock.is_poisoned());

    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let target_term = dataset.gen.kg.node_term(dataset.nc[0].targets()[0]);
    let req = HttpRequest {
        method: "POST".into(),
        path: "/admin/update".into(),
        query: String::new(),
        headers: Vec::new(),
        body: format!(
            "{{\"ops\":[{{\"op\":\"add\",\"s\":\"Paper_delta_new\",\"s_class\":\"Paper\",\
             \"p\":\"cites\",\"o\":\"{target_term}\",\"o_class\":\"Paper\"}}]}}"
        )
        .into_bytes(),
    };
    let resp = handle_guarded(&state, &req, std::time::Instant::now());
    let body = String::from_utf8_lossy(&resp.body);
    assert_eq!(resp.status, 200, "update behind a poisoned lock: {body}");
    assert_eq!(state.epoch().version, 1);
}

/// Regression: a delta that adds a vertex leaves every checkpoint shaped
/// for the old graph. `/infer` used to re-read and re-validate the file on
/// every request and answer 500 from the failed load; the misfit is a
/// conflict between the request and the daemon's state (409, naming both
/// node counts), and it is decided once — the second answer comes without
/// the file.
#[test]
fn infer_after_a_growing_update_is_a_remembered_409() {
    let ckpt_dir = temp_dir("misfit-ckpt");
    let dataset = kgtosa_datagen::mag(SCALE, SEED);
    let task = &dataset.nc[0];
    let (graph, _) = kgtosa_core::transform(&dataset.gen.kg);
    let data = kgtosa_models::NcDataset {
        kg: &dataset.gen.kg,
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
        checkpoint: Some(kgtosa_models::CheckpointConfig::new(&ckpt_dir)),
        ..Default::default()
    };
    kgtosa_models::train_rgcn_nc(&data, &cfg);

    let state = ServeState::from_dataset(ServeConfig {
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..base_config()
    })
    .expect("serve state");
    let post = |path: &str, body: String| {
        let req = HttpRequest {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let resp = handle_guarded(&state, &req, std::time::Instant::now());
        (resp.status, String::from_utf8_lossy(&resp.body).into_owned())
    };
    let infer = || post("/infer", "{\"checkpoint\":\"RGCN\",\"nodes\":[3]}".into());

    let (status, body) = infer();
    assert_eq!(status, 200, "the checkpoint fits the startup epoch: {body}");
    let target_term = dataset.gen.kg.node_term(task.targets()[0]);
    let (status, body) = post(
        "/admin/update",
        format!(
            "{{\"ops\":[{{\"op\":\"add\",\"s\":\"Paper_delta_new\",\"s_class\":\"Paper\",\
             \"p\":\"cites\",\"o\":\"{target_term}\",\"o_class\":\"Paper\"}}]}}"
        ),
    );
    assert_eq!(status, 200, "{body}");

    let nodes = graph.num_nodes();
    let (status, first) = infer();
    assert_eq!(status, 409, "{first}");
    assert!(
        first.contains(&nodes.to_string()) && first.contains(&(nodes + 1).to_string()),
        "the 409 names both node counts ({nodes}, {}): {first}",
        nodes + 1
    );
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
    assert_eq!(infer(), (409, first), "the verdict is remembered, not re-derived from the file");
}
