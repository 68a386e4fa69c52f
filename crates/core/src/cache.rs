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
//! A hit is read through [`ExtractionView`]: the payload's bytes,
//! validated in place, with counts, targets, the parent mapping and the
//! subgraph fingerprint answered from them. Only callers that need the
//! subgraph as a graph ([`decode_extraction`], the CLI's `--out`,
//! training) pay for [`ExtractionView::materialise`]; the daemon answers a
//! warm `/extract` from the view ([`load_cached`] + [`extract_and_publish`]
//! are the two halves it composes around its own lookup).
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
//! | KGTOSA1 snapshot of the subgraph (canonical, and the payload's end)
//! ```

use std::io;
use std::time::Instant;

use kgtosa_cache::{ArtifactCache, CacheKey, CacheOutcome};
use kgtosa_kg::{
    write_snapshot, Fnv64, InducedSubgraph, KnowledgeGraph, Rid, SnapshotView, SnapshotVisitor,
    SubgraphQuality, Triple, Vid,
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
    out.extend_from_slice(&(method.len() as u32).to_le_bytes());
    out.extend_from_slice(method.as_bytes());
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
/// overwritten in a copy of the bytes, because [`ExtractionView::parse`]
/// validates it against the live graph — so the subgraph, mappings and
/// quality are carried over untouched. The payload's prefix (magic, method,
/// stored parent size) is checked here; the rest is structurally validated
/// on every later load, and a payload that fails is re-extracted. Valid
/// only when the entry's extraction is unaffected by the delta; deciding
/// that is the staleness oracle's job (`crate::delta`).
pub fn migrate_payload(
    payload: &[u8],
    old_parent_nodes: usize,
    new_parent_nodes: usize,
) -> io::Result<Vec<u8>> {
    let mut rest = payload;
    read_payload_prefix(&mut rest, old_parent_nodes)?;
    let end = payload.len() - rest.len();
    let mut out = payload.to_vec();
    out[end - 8..end].copy_from_slice(&(new_parent_nodes as u64).to_le_bytes());
    Ok(out)
}

/// Reads a payload up to and including its `parent_nodes` field — magic,
/// method string, parent size — and returns the method. Errors unless the
/// stored parent size is `parent_nodes`.
fn read_payload_prefix<'a>(r: &mut &'a [u8], parent_nodes: usize) -> io::Result<&'a str> {
    if take(r, PAYLOAD_MAGIC.len())? != PAYLOAD_MAGIC {
        return Err(bad("bad extraction payload magic"));
    }
    let len = u32::from_le_bytes(take(r, 4)?.try_into().expect("4 bytes")) as usize;
    if len > 1 << 16 {
        return Err(bad("unreasonable method string length"));
    }
    let method = std::str::from_utf8(take(r, len)?).map_err(|_| bad("method string not UTF-8"))?;
    if read_u64(r)? != parent_nodes as u64 {
        return Err(bad("artifact parent graph size mismatch"));
    }
    Ok(method)
}

/// A validated, borrowed artifact payload: every structural check
/// [`decode_extraction`] makes, without decoding anything into owned
/// structures. Validation is on top of the store's byte-level checksum: a
/// payload that checksums correctly but holds inconsistent ids, counts
/// that disagree with its snapshot, or a non-canonical snapshot is
/// rejected.
pub struct ExtractionView<'a> {
    method: &'a str,
    parent_nodes: usize,
    /// `u32` ids, subgraph space.
    targets: &'a [u8],
    /// `u32` ids, parent space, one per subgraph vertex.
    to_parent: &'a [u8],
    quality: SubgraphQuality,
    snapshot: SnapshotView<'a>,
}

impl<'a> ExtractionView<'a> {
    /// Validates `bytes` as a payload extracted from a parent graph of
    /// `parent_nodes` vertices.
    pub fn parse(bytes: &'a [u8], parent_nodes: usize) -> io::Result<Self> {
        let mut r = bytes;
        let method = read_payload_prefix(&mut r, parent_nodes)?;
        let targets = read_ids(&mut r)?;
        let to_parent = read_ids(&mut r)?;
        let mut counts = [0usize; 5];
        for c in &mut counts {
            *c = read_u64(&mut r)? as usize;
        }
        let [num_nodes, num_triples, target_count, num_classes, num_relations] = counts;
        let mut ratios = [0f64; 4];
        for f in &mut ratios {
            *f = f64::from_bits(read_u64(&mut r)?);
        }
        let [target_ratio_pct, target_disconnected_pct, avg_dist_to_target, avg_entropy] = ratios;
        let snapshot = SnapshotView::parse(r)?;
        if snapshot.bytes().len() != r.len() {
            return Err(bad("bytes after the snapshot"));
        }
        let view = ExtractionView {
            method,
            parent_nodes,
            targets,
            to_parent,
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
            snapshot,
        };
        if to_parent.len() / 4 != snapshot.num_nodes() {
            return Err(bad("to_parent length disagrees with snapshot"));
        }
        if snapshot.num_nodes() != num_nodes || snapshot.num_triples() != num_triples {
            return Err(bad("quality row disagrees with snapshot"));
        }
        let mut seen = vec![0u64; parent_nodes.div_ceil(64)];
        for v in view.to_parent() {
            if v.idx() >= parent_nodes {
                return Err(bad("to_parent id out of parent range"));
            }
            let (word, bit) = (v.idx() / 64, 1u64 << (v.idx() % 64));
            if seen[word] & bit != 0 {
                return Err(bad("duplicate parent id in to_parent"));
            }
            seen[word] |= bit;
        }
        if view.targets().any(|v| v.idx() >= snapshot.num_nodes()) {
            return Err(bad("target id out of subgraph range"));
        }
        Ok(view)
    }

    /// The extraction method the payload was published under.
    pub fn method(&self) -> &'a str {
        self.method
    }

    /// The stored Table III quality row.
    pub fn quality(&self) -> &SubgraphQuality {
        &self.quality
    }

    /// The stored subgraph.
    pub fn snapshot(&self) -> &SnapshotView<'a> {
        &self.snapshot
    }

    /// The subgraph fingerprint, [`kgtosa_kg::fingerprint`] of the stored
    /// subgraph.
    pub fn fingerprint(&self) -> u64 {
        self.snapshot.fingerprint()
    }

    pub fn num_targets(&self) -> usize {
        self.targets.len() / 4
    }

    /// The targets, in subgraph id space.
    pub fn targets(&self) -> impl Iterator<Item = Vid> + 'a {
        ids(self.targets)
    }

    /// The parent id of every subgraph vertex, in subgraph id order.
    pub fn to_parent(&self) -> impl Iterator<Item = Vid> + 'a {
        ids(self.to_parent)
    }

    /// Maps a subgraph vertex to its parent id.
    pub fn map_up(&self, v: Vid) -> Vid {
        let at = v.idx() * 4;
        Vid(u32::from_le_bytes(
            self.to_parent[at..at + 4].try_into().expect("4 bytes"),
        ))
    }

    /// The subgraph's triples in `parent`'s id space, in snapshot order —
    /// what [`crate::parent_triples`] computes from a materialised
    /// subgraph. Each relation term is resolved once; `None` when one is
    /// not in `parent`.
    pub fn parent_triples(&self, parent: &KnowledgeGraph) -> Option<Vec<Triple>> {
        struct Lift<'v, 'a> {
            view: &'v ExtractionView<'a>,
            parent: &'v KnowledgeGraph,
            relations: Vec<Option<Rid>>,
            triples: Vec<Triple>,
            unresolved: bool,
        }
        impl<'a> SnapshotVisitor<'a> for Lift<'_, 'a> {
            fn relation(&mut self, term: &'a str) {
                self.relations.push(self.parent.find_relation(term));
            }
            fn triple(&mut self, t: Triple) {
                match self.relations[t.p.idx()] {
                    Some(p) => self.triples.push(Triple::new(
                        self.view.map_up(t.s),
                        p,
                        self.view.map_up(t.o),
                    )),
                    None => self.unresolved = true,
                }
            }
        }
        let mut lift = Lift {
            view: self,
            parent,
            relations: Vec::with_capacity(self.snapshot.num_relations()),
            triples: Vec::with_capacity(self.snapshot.num_triples()),
            unresolved: false,
        };
        self.snapshot.visit(&mut lift);
        (!lift.unresolved).then_some(lift.triples)
    }

    /// Decodes the payload into owned structures, the subgraph built as a
    /// [`KnowledgeGraph`].
    pub fn materialise(&self) -> DecodedExtraction {
        let to_parent: Vec<Vid> = self.to_parent().collect();
        let mut from_parent: Vec<Option<Vid>> = vec![None; self.parent_nodes];
        for (sub, parent) in to_parent.iter().enumerate() {
            from_parent[parent.idx()] = Some(Vid(sub as u32));
        }
        DecodedExtraction {
            method: self.method.to_string(),
            subgraph: InducedSubgraph {
                kg: self.snapshot.to_graph(),
                to_parent,
                from_parent,
            },
            targets: self.targets().collect(),
            quality: self.quality.clone(),
        }
    }
}

/// A decoded artifact payload, before it is dressed up as an
/// [`ExtractionResult`].
pub struct DecodedExtraction {
    pub method: String,
    pub subgraph: InducedSubgraph,
    pub targets: Vec<Vid>,
    pub quality: SubgraphQuality,
}

/// Deserializes and *re-validates* an artifact payload:
/// [`ExtractionView::parse`], then [`ExtractionView::materialise`].
pub fn decode_extraction(bytes: &[u8], parent_nodes: usize) -> io::Result<DecodedExtraction> {
    ExtractionView::parse(bytes, parent_nodes).map(|view| view.materialise())
}

/// The hit half of [`extract_sparql_cached_with_fingerprint`]: validates a
/// looked-up payload (the `extract.cache.load` span) and publishes its
/// quality row. `None` means the payload is checksum-valid but
/// structurally inconsistent — a format logic change. It is logged, and
/// the caller degrades to [`extract_and_publish`], whose store overwrites
/// the bad entry.
pub fn load_cached(payload: &[u8], parent_nodes: usize) -> Option<ExtractionView<'_>> {
    let view = {
        let _guard = kgtosa_obs::span!("extract.cache.load");
        ExtractionView::parse(payload, parent_nodes)
    };
    match view {
        Ok(view) => {
            if kgtosa_obs::telemetry_active() {
                crate::quality::record_quality_metrics(view.method(), view.quality(), 1.0);
            }
            Some(view)
        }
        Err(e) => {
            kgtosa_obs::info!("cache: undecodable artifact ({e}), re-extracting");
            None
        }
    }
}

/// The miss half of [`extract_sparql_cached_with_fingerprint`]: runs
/// [`extract_sparql`] and publishes the result under `key` — unless the
/// extraction was partial, because a partial subgraph served from cache
/// would silently cap every future run's completeness.
pub fn extract_and_publish(
    store: &RdfStore<'_>,
    task: &ExtractionTask,
    pattern: &GraphPattern,
    fetch: &FetchConfig,
    cache: &ArtifactCache,
    key: &CacheKey,
) -> Result<ExtractionResult, RdfError> {
    let res = extract_sparql(store, task, pattern, fetch)?;
    if res.report.completeness >= 1.0 {
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, store.kg().num_nodes(), &q);
        if let Err(e) = cache.store(key, &payload) {
            kgtosa_obs::info!("cache: cannot publish artifact: {e}");
        }
    }
    Ok(res)
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
    let key = sparql_cache_key(kg_fingerprint, task, pattern);
    let lookup = cache.lookup(&key);
    let started = Instant::now();
    let parent_nodes = store.kg().num_nodes();
    if let Some(view) = lookup
        .payload
        .as_deref()
        .and_then(|p| load_cached(p, parent_nodes))
    {
        let dec = view.materialise();
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
    let res = extract_and_publish(store, task, pattern, fetch, cache, &key)?;
    Ok((res, lookup.outcome))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Splits the next `n` bytes off `r`; too few left is `UnexpectedEof`.
fn take<'a>(r: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if n > r.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "payload truncated",
        ));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

fn read_u64(r: &mut &[u8]) -> io::Result<u64> {
    Ok(u64::from_le_bytes(take(r, 8)?.try_into().expect("8 bytes")))
}

fn write_vids(out: &mut Vec<u8>, vids: &[Vid]) {
    out.extend_from_slice(&(vids.len() as u64).to_le_bytes());
    for v in vids {
        out.extend_from_slice(&v.raw().to_le_bytes());
    }
}

/// The bytes of a [`write_vids`] list (4 per id, after its `u64` count).
fn read_ids<'a>(r: &mut &'a [u8]) -> io::Result<&'a [u8]> {
    let count = read_u64(r)?;
    let len = usize::try_from(count).unwrap_or(usize::MAX);
    take(r, len.saturating_mul(4))
}

fn ids(bytes: &[u8]) -> impl Iterator<Item = Vid> + '_ {
    bytes
        .chunks_exact(4)
        .map(|b| Vid(u32::from_le_bytes(b.try_into().expect("4 bytes"))))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn view_answers_what_the_decoded_payload_holds() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D2H1, &FetchConfig::default()).unwrap();
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, kg.num_nodes(), &q);
        let view = ExtractionView::parse(&payload, kg.num_nodes()).unwrap();
        assert_eq!(view.method(), res.report.method);
        assert_eq!(*view.quality(), q);
        assert_eq!(view.num_targets(), res.targets.len());
        assert_eq!(view.targets().collect::<Vec<_>>(), res.targets);
        assert_eq!(view.to_parent().collect::<Vec<_>>(), res.subgraph.to_parent);
        assert_eq!(view.snapshot().num_nodes(), res.subgraph.kg.num_nodes());
        assert_eq!(view.snapshot().num_triples(), res.subgraph.kg.num_triples());
        assert_eq!(view.fingerprint(), kgtosa_kg::fingerprint(&res.subgraph.kg));
        for v in 0..res.subgraph.kg.num_nodes() as u32 {
            assert_eq!(view.map_up(Vid(v)), res.subgraph.map_up(Vid(v)));
        }
        assert_eq!(
            view.parent_triples(&kg),
            Some(crate::parent_triples(&kg, &view.materialise().subgraph))
        );
        // A relation the parent does not know cannot be lifted.
        let mut other = KnowledgeGraph::new();
        other.add_relation("writes");
        assert_eq!(view.parent_triples(&other), None);
    }

    #[test]
    fn view_rejects_what_the_encoder_never_writes() {
        let (kg, task) = academic();
        let store = RdfStore::new(&kg);
        let res =
            extract_sparql(&store, &task, &GraphPattern::D1H1, &FetchConfig::default()).unwrap();
        let q = kgtosa_kg::quality(&res.subgraph.kg, &res.targets);
        let payload = encode_extraction(&res, kg.num_nodes(), &q);
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(ExtractionView::parse(&trailing, kg.num_nodes()).is_err());
        // A count past the end is a truncation, not an allocation.
        let mut forged = payload.clone();
        let at = PAYLOAD_MAGIC.len() + 4 + res.report.method.len() + 8;
        forged[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = ExtractionView::parse(&forged, kg.num_nodes())
            .err()
            .unwrap();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Two subgraph vertices claiming one parent vertex.
        let mut dup = res.subgraph.clone();
        dup.to_parent[1] = dup.to_parent[0];
        let payload =
            encode_extraction_parts(&res.report.method, &dup, &res.targets, kg.num_nodes(), &q);
        assert!(ExtractionView::parse(&payload, kg.num_nodes()).is_err());
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
