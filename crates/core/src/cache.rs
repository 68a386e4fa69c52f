//! Consult-before-extract: the artifact-cache integration of the SPARQL
//! extraction path.
//!
//! The paper's cost model (§V-C) counts TOSG extraction as a one-time
//! cost amortized over many training runs. [`extract_sparql_cached`]
//! realizes that: it derives a content address from the source graph's
//! fingerprint plus the task/pattern/extractor spec, consults the
//! [`kgtosa_cache::ArtifactCache`], and only on a miss runs Algorithm 3 —
//! publishing the finished subgraph (snapshot + report + Table III
//! quality metrics) for every later run. A *partial* extraction
//! ([`kgtosa_rdf::FetchMode::Partial`] with `completeness < 1`) is never
//! cached: an incomplete subgraph must not masquerade as the TOSG.
//!
//! Payload layout (versioned by `kgtosa_cache::FORMAT_VERSION`; the
//! store's checksum has already validated the bytes before this codec
//! ever sees them, so decode errors here indicate a logic-level format
//! change, answered by re-extracting — never by panicking):
//!
//! ```text
//! magic "KGTOSAE1" | method str
//! | parent_nodes u64 | targets (u64 count + u32 ids, subgraph space)
//! | to_parent (u64 count + u32 ids, parent space)
//! | SubgraphQuality (usize fields as u64, f64 fields as bits)
//! | KGTOSA1 snapshot of the subgraph
//! ```

use std::io::{self, Cursor, Read};
use std::time::Instant;

use kgtosa_cache::{ArtifactCache, CacheKey, CacheOutcome};
use kgtosa_kg::{
    read_snapshot, write_snapshot, Fnv64, InducedSubgraph, SubgraphQuality, Vid,
};
use kgtosa_rdf::{FetchConfig, RdfError, RdfStore};

use crate::extract::{extract_sparql, ExtractionReport, ExtractionResult};
use crate::pattern::{ExtractionTask, GraphPattern};

const PAYLOAD_MAGIC: &[u8; 8] = b"KGTOSAE1";

/// Human-readable task spec label for the cache key: `nc:<class>` or
/// `lp:<predicate>:<class>+<class>`.
pub fn task_label(task: &ExtractionTask) -> String {
    match &task.lp_predicate {
        Some(pred) => format!("lp:{pred}:{}", task.target_classes.join("+")),
        None => format!("nc:{}", task.target_classes.join("+")),
    }
}

/// Fingerprint of the extraction inputs that are not covered by the key
/// strings: the resolved target vertex set. (Fetch batch size, thread
/// count, and retry policy deliberately do not participate — the repo's
/// determinism contract guarantees they cannot change the result bytes.)
pub fn task_params(task: &ExtractionTask) -> u64 {
    let mut h = Fnv64::new();
    h.update(&(task.targets.len() as u64).to_le_bytes());
    for t in &task.targets {
        h.update(&t.raw().to_le_bytes());
    }
    h.finish()
}

/// The content address of a SPARQL extraction artifact.
pub fn sparql_cache_key(
    kg_fingerprint: u64,
    task: &ExtractionTask,
    pattern: &GraphPattern,
) -> CacheKey {
    CacheKey {
        kg_fingerprint,
        pattern: pattern.label(),
        task: task_label(task),
        extractor: "sparql".into(),
        params: task_params(task),
    }
}

/// Serializes a completed extraction (with its quality row) into the
/// artifact payload.
pub fn encode_extraction(
    res: &ExtractionResult,
    parent_nodes: usize,
    quality: &SubgraphQuality,
) -> Vec<u8> {
    encode_extraction_parts(&res.report.method, &res.subgraph, &res.targets, parent_nodes, quality)
}

/// The parts-level encoder behind [`encode_extraction`], also used by the
/// delta path to publish a repaired subgraph.
pub fn encode_extraction_parts(
    method: &str,
    subgraph: &InducedSubgraph,
    targets: &[Vid],
    parent_nodes: usize,
    quality: &SubgraphQuality,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + subgraph.to_parent.len() * 4);
    out.extend_from_slice(PAYLOAD_MAGIC);
    write_str(&mut out, method);
    out.extend_from_slice(&(parent_nodes as u64).to_le_bytes());
    write_vids(&mut out, targets);
    write_vids(&mut out, &subgraph.to_parent);
    for v in [
        quality.num_nodes as u64,
        quality.num_triples as u64,
        quality.target_count as u64,
        quality.num_classes as u64,
        quality.num_relations as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for f in [
        quality.target_ratio_pct,
        quality.target_disconnected_pct,
        quality.avg_dist_to_target,
        quality.avg_entropy,
    ] {
        out.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    write_snapshot(&subgraph.kg, &mut out).expect("in-memory snapshot write cannot fail");
    out
}

/// Rewrites an artifact payload for a parent graph that grew from
/// `old_parent_nodes` to `new_parent_nodes` vertices (delta apply with
/// vertex interning). Only the embedded parent size changes — it is
/// overwritten in a copy of the bytes, because [`decode_extraction`]
/// validates it against the live graph — so the subgraph, mappings and
/// quality are carried over untouched. The payload's prefix (magic, method,
/// stored parent size) is checked here; the rest is structurally validated
/// by [`decode_extraction`] on every later load, and a payload it rejects
/// is re-extracted. Valid only when the entry's extraction is unaffected by
/// the delta; deciding that is the staleness oracle's job (`crate::delta`).
pub fn migrate_payload(
    payload: &[u8],
    old_parent_nodes: usize,
    new_parent_nodes: usize,
) -> io::Result<Vec<u8>> {
    let mut r = Cursor::new(payload);
    read_payload_prefix(&mut r, old_parent_nodes)?;
    let end = r.position() as usize;
    let mut out = payload.to_vec();
    out[end - 8..end].copy_from_slice(&(new_parent_nodes as u64).to_le_bytes());
    Ok(out)
}

/// Reads a payload up to and including its `parent_nodes` field — magic,
/// method string, parent size — and returns the method. Errors unless the
/// stored parent size is `parent_nodes`.
fn read_payload_prefix(r: &mut Cursor<&[u8]>, parent_nodes: usize) -> io::Result<String> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != PAYLOAD_MAGIC {
        return Err(bad("bad extraction payload magic"));
    }
    let method = read_str(r)?;
    if read_u64(r)? != parent_nodes as u64 {
        return Err(bad("artifact parent graph size mismatch"));
    }
    Ok(method)
}

/// A decoded artifact payload, before it is dressed up as an
/// [`ExtractionResult`].
pub struct DecodedExtraction {
    pub method: String,
    pub subgraph: InducedSubgraph,
    pub targets: Vec<Vid>,
    pub quality: SubgraphQuality,
}

/// Deserializes and *re-validates* an artifact payload. Validation here
/// is structural (id ranges, counts against the embedded snapshot), on
/// top of the store's byte-level checksum: a payload that checksums
/// correctly but decodes to inconsistent ids is still rejected.
pub fn decode_extraction(bytes: &[u8], parent_nodes: usize) -> io::Result<DecodedExtraction> {
    let mut r = Cursor::new(bytes);
    let method = read_payload_prefix(&mut r, parent_nodes)?;
    let targets = read_vids(&mut r)?;
    let to_parent = read_vids(&mut r)?;
    let num_nodes = read_u64(&mut r)? as usize;
    let num_triples = read_u64(&mut r)? as usize;
    let target_count = read_u64(&mut r)? as usize;
    let num_classes = read_u64(&mut r)? as usize;
    let num_relations = read_u64(&mut r)? as usize;
    let target_ratio_pct = f64::from_bits(read_u64(&mut r)?);
    let target_disconnected_pct = f64::from_bits(read_u64(&mut r)?);
    let avg_dist_to_target = f64::from_bits(read_u64(&mut r)?);
    let avg_entropy = f64::from_bits(read_u64(&mut r)?);
    let kg = read_snapshot(&mut r)?;
    if to_parent.len() != kg.num_nodes() {
        return Err(bad("to_parent length disagrees with snapshot"));
    }
    if kg.num_nodes() != num_nodes || kg.num_triples() != num_triples {
        return Err(bad("quality row disagrees with snapshot"));
    }
    if to_parent.iter().any(|v| v.idx() >= parent_nodes) {
        return Err(bad("to_parent id out of parent range"));
    }
    if targets.iter().any(|v| v.idx() >= kg.num_nodes()) {
        return Err(bad("target id out of subgraph range"));
    }
    // Rebuild the parent → subgraph map from its inverse.
    let mut from_parent: Vec<Option<Vid>> = vec![None; parent_nodes];
    for (sub, parent) in to_parent.iter().enumerate() {
        if from_parent[parent.idx()].replace(Vid(sub as u32)).is_some() {
            return Err(bad("duplicate parent id in to_parent"));
        }
    }
    Ok(DecodedExtraction {
        method,
        subgraph: InducedSubgraph { kg, to_parent, from_parent },
        targets,
        quality: SubgraphQuality {
            num_nodes,
            num_triples,
            target_count,
            target_ratio_pct,
            num_classes,
            num_relations,
            target_disconnected_pct,
            avg_dist_to_target,
            avg_entropy,
        },
    })
}

/// [`extract_sparql`] behind the artifact cache: a hit skips every
/// endpoint request and returns the stored subgraph bit-identically; a
/// miss (or stale/corrupt entry) extracts fresh and publishes the result
/// — unless the extraction was partial. Returns the result together with
/// how the cache resolved.
pub fn extract_sparql_cached(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    fetch: &FetchConfig,
    cache: &ArtifactCache,
) -> Result<(ExtractionResult, CacheOutcome), RdfError> {
    let fp = kgtosa_kg::fingerprint(store.kg());
    extract_sparql_cached_with_fingerprint(store, task, pattern, fetch, cache, fp)
}

/// [`extract_sparql_cached`] with the source graph's canonical fingerprint
/// supplied by the caller. Long-lived servers hold the fingerprint in
/// their epoch state; re-hashing the whole KG on every request would be
/// O(|KG|) per extract for a value that only changes on delta apply.
pub fn extract_sparql_cached_with_fingerprint(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    fetch: &FetchConfig,
    cache: &ArtifactCache,
    kg_fingerprint: u64,
) -> Result<(ExtractionResult, CacheOutcome), RdfError> {
    let kg = store.kg();
    let key = sparql_cache_key(kg_fingerprint, task, pattern);
    let lookup = cache.lookup(&key);
    if let (CacheOutcome::Hit, Some(payload)) = (lookup.outcome, &lookup.payload) {
        let guard = kgtosa_obs::span!("extract.cache.load");
        let started = Instant::now();
        match decode_extraction(payload, kg.num_nodes()) {
            Ok(dec) => {
                drop(guard);
                if kgtosa_obs::telemetry_active() {
                    crate::quality::record_quality_metrics(&dec.method, &dec.quality, 1.0);
                }
                let triples = dec.subgraph.kg.num_triples();
                let sampled_nodes = dec.subgraph.kg.num_nodes();
                return Ok((
                    ExtractionResult {
                        subgraph: dec.subgraph,
                        targets: dec.targets,
                        report: ExtractionReport {
                            method: dec.method,
                            seconds: started.elapsed().as_secs_f64(),
                            sampled_nodes,
                            triples,
                            requests: 0,
                            completeness: 1.0,
                            cached: true,
                        },
                    },
                    CacheOutcome::Hit,
                ));
            }
            Err(e) => {
                // Checksum-valid but structurally inconsistent: a format
                // logic change. Degrade to a fresh extraction; the store
                // below overwrites the bad entry.
                drop(guard);
                kgtosa_obs::info!("cache: undecodable artifact ({e}), re-extracting");
            }
        }
    }
    let res = extract_sparql(store, task, pattern, fetch)?;
    // Publish only complete extractions: a partial subgraph served from
    // cache would silently cap every future run's completeness.
    if res.report.completeness >= 1.0 {
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, kg.num_nodes(), &q);
        if let Err(e) = cache.store(&key, &payload) {
            kgtosa_obs::info!("cache: cannot publish artifact: {e}");
        }
    }
    Ok((res, lookup.outcome))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn read_str(r: &mut impl Read) -> io::Result<String> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > 1 << 16 {
        return Err(bad("unreasonable method string length"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("method string not UTF-8"))
}

fn write_vids(out: &mut Vec<u8>, vids: &[Vid]) {
    out.extend_from_slice(&(vids.len() as u64).to_le_bytes());
    for v in vids {
        out.extend_from_slice(&v.raw().to_le_bytes());
    }
}

fn read_vids(r: &mut impl Read) -> io::Result<Vec<Vid>> {
    let count = read_u64(r)? as usize;
    // 4 bytes per id must still be ahead of the cursor; a forged count
    // fails on read_exact, but cap the preallocation first.
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        out.push(Vid(u32::from_le_bytes(buf)));
    }
    Ok(out)
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgtosa_kg::KnowledgeGraph;

    fn academic() -> (KnowledgeGraph, ExtractionTask) {
        let mut kg = KnowledgeGraph::new();
        for i in 0..10 {
            let p = format!("p{i}");
            kg.add_triple_terms(&p, "Paper", "publishedIn", &format!("v{}", i % 2), "Venue");
            kg.add_triple_terms(&format!("a{}", i % 3), "Author", "writes", &p, "Paper");
        }
        let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
        let task = ExtractionTask::node_classification("PV", "Paper", targets);
        (kg, task)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kgtosa-core-cache-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn labels_and_params() {
        let (_, task) = academic();
        assert_eq!(task_label(&task), "nc:Paper");
        let lp = ExtractionTask::link_prediction(
            "AA",
            vec!["Author".into(), "Affiliation".into()],
            vec![Vid(3)],
            "affiliatedWith",
        );
        assert_eq!(task_label(&lp), "lp:affiliatedWith:Author+Affiliation");
        let mut fewer = task.clone();
        fewer.targets.pop();
        assert_ne!(task_params(&task), task_params(&fewer));
    }

    #[test]
    fn payload_roundtrip_is_exact() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D1H1, &FetchConfig::default()).unwrap();
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, kg.num_nodes(), &q);
        let dec = decode_extraction(&payload, kg.num_nodes()).unwrap();
        assert_eq!(dec.method, res.report.method);
        assert_eq!(dec.targets, res.targets);
        assert_eq!(dec.subgraph.to_parent, res.subgraph.to_parent);
        assert_eq!(dec.subgraph.from_parent, res.subgraph.from_parent);
        assert_eq!(dec.quality, q);
        let mut fresh = Vec::new();
        let mut cached = Vec::new();
        write_snapshot(&res.subgraph.kg, &mut fresh).unwrap();
        write_snapshot(&dec.subgraph.kg, &mut cached).unwrap();
        assert_eq!(fresh, cached, "snapshot bytes must be identical");
    }

    #[test]
    fn migrate_payload_re_pins_parent_size() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D1H1, &FetchConfig::default()).unwrap();
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, kg.num_nodes(), &q);
        // The parent grew by 3 vertices under a delta; the migrated
        // payload decodes against the new size and carries everything
        // else over byte-identically.
        let migrated = migrate_payload(&payload, kg.num_nodes(), kg.num_nodes() + 3).unwrap();
        assert!(decode_extraction(&migrated, kg.num_nodes()).is_err());
        let dec = decode_extraction(&migrated, kg.num_nodes() + 3).unwrap();
        assert_eq!(dec.targets, res.targets);
        assert_eq!(dec.subgraph.to_parent, res.subgraph.to_parent);
        assert_eq!(dec.quality, q);
        let mut fresh = Vec::new();
        let mut moved = Vec::new();
        write_snapshot(&res.subgraph.kg, &mut fresh).unwrap();
        write_snapshot(&dec.subgraph.kg, &mut moved).unwrap();
        assert_eq!(fresh, moved);
    }

    #[test]
    fn decode_rejects_wrong_parent_graph() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D1H1, &FetchConfig::default()).unwrap();
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, kg.num_nodes(), &q);
        assert!(decode_extraction(&payload, kg.num_nodes() + 5).is_err());
    }

    #[test]
    fn cached_extract_hits_and_matches() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let cache = ArtifactCache::open(tmpdir("hit")).unwrap();
        let (fresh, first) =
            extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &FetchConfig::default(), &cache)
                .unwrap();
        assert_eq!(first, CacheOutcome::Miss);
        assert!(!fresh.report.cached);
        let (warm, second) =
            extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &FetchConfig::default(), &cache)
                .unwrap();
        assert_eq!(second, CacheOutcome::Hit);
        assert!(warm.report.cached);
        assert_eq!(warm.report.requests, 0);
        assert_eq!(warm.targets, fresh.targets);
        assert_eq!(warm.subgraph.to_parent, fresh.subgraph.to_parent);
        assert_eq!(
            kgtosa_kg::fingerprint(&warm.subgraph.kg),
            kgtosa_kg::fingerprint(&fresh.subgraph.kg)
        );
    }

    #[test]
    fn different_pattern_or_graph_misses() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let cache = ArtifactCache::open(tmpdir("keys")).unwrap();
        extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &FetchConfig::default(), &cache)
            .unwrap();
        let (_, outcome) =
            extract_sparql_cached(&store, &task, &GraphPattern::D2H1, &FetchConfig::default(), &cache)
                .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "other pattern is a different artifact");
        // Mutating the graph changes its fingerprint: cold again.
        let mut kg2 = kg.clone();
        kg2.add_triple_terms("extra", "Paper", "cites", "p0", "Paper");
        let targets = kg2.nodes_of_class(kg2.find_class("Paper").unwrap());
        let task2 = ExtractionTask::node_classification("PV", "Paper", targets);
        let store2 = RdfStore::new(&kg2);
        let (_, outcome2) =
            extract_sparql_cached(&store2, &task2, &GraphPattern::D1H1, &FetchConfig::default(), &cache)
                .unwrap();
        assert_eq!(outcome2, CacheOutcome::Miss);
    }

    #[test]
    fn partial_extraction_is_never_cached() {
        use kgtosa_rdf::{FaultPlan, FetchMode};
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let cache = ArtifactCache::open(tmpdir("partial")).unwrap();
        let fetch = FetchConfig {
            batch_size: 4,
            fault: Some(FaultPlan { fault_rate: 1.0, fatal_rate: 1.0, ..Default::default() }),
            mode: FetchMode::Partial,
            ..Default::default()
        };
        let (res, _) =
            extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &fetch, &cache).unwrap();
        assert!(res.report.completeness < 1.0);
        assert_eq!(cache.disk_stats().unwrap().entries, 0, "partial result must not publish");
        // A later fault-free run still misses (nothing was cached) and
        // then publishes the complete subgraph.
        let (full, outcome) =
            extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &FetchConfig::default(), &cache)
                .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(full.report.completeness, 1.0);
        assert_eq!(cache.disk_stats().unwrap().entries, 1);
    }
}
