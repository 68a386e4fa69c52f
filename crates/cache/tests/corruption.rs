//! Corruption fuzzing of stored artifacts.
//!
//! A cache that can be corrupted on disk (bit rot, torn writes, truncated
//! copies) must *never* serve wrong bytes, never panic, and always leave
//! the slot usable: the damaged file is quarantined (or removed when it
//! merely looks stale), a re-extraction repopulates the slot, and the
//! recovered subgraph is bit-identical to the original. Below the store's
//! checksum, the payload codec's two readers — the borrowed
//! [`ExtractionView`] a warm `/extract` answers from and the decoder that
//! builds the subgraph — accept exactly the same damaged payloads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use kgtosa_cache::{ArtifactCache, CacheKey, CacheOutcome};
use kgtosa_core::{
    decode_extraction, extract_sparql_cached, sparql_cache_key, ExtractionTask, ExtractionView,
    GraphPattern,
};
use kgtosa_kg::{fingerprint, write_snapshot, KnowledgeGraph};
use kgtosa_rdf::{FetchConfig, RdfStore};
use proptest::prelude::*;

struct Setup {
    kg: KnowledgeGraph,
    key: CacheKey,
    /// The artifact file's base name inside a cache directory.
    file_name: String,
    /// Pristine on-disk artifact bytes (header + payload + checksum).
    pristine: Vec<u8>,
    /// Snapshot bytes of the correctly extracted subgraph.
    baseline: Vec<u8>,
    /// The payload a hit on the pristine artifact serves.
    payload: Vec<u8>,
}

fn academic_kg() -> (KnowledgeGraph, ExtractionTask) {
    let mut kg = KnowledgeGraph::new();
    for i in 0..12 {
        let p = format!("p{i}");
        kg.add_triple_terms(&p, "Paper", "publishedIn", &format!("v{}", i % 3), "Venue");
        kg.add_triple_terms(&format!("a{}", i % 4), "Author", "writes", &p, "Paper");
        if i > 0 {
            kg.add_triple_terms(&p, "Paper", "cites", &format!("p{}", i - 1), "Paper");
        }
    }
    let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
    let task = ExtractionTask::node_classification("fuzz", "Paper", targets);
    (kg, task)
}

fn paper_task(kg: &KnowledgeGraph) -> ExtractionTask {
    let targets = kg.nodes_of_class(kg.find_class("Paper").unwrap());
    ExtractionTask::node_classification("fuzz", "Paper", targets)
}

/// Extracts once through a scratch cache and captures the pristine
/// artifact bytes; every fuzz case then replays a mutated copy of those
/// bytes into its own directory.
fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| {
        let (kg, task) = academic_kg();
        let dir = std::env::temp_dir()
            .join("kgtosa-cache-corruption")
            .join(format!("setup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = RdfStore::new(&kg);
        let cache = ArtifactCache::open(&dir).unwrap();
        let (res, outcome) =
            extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &FetchConfig::default(), &cache)
                .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let key = sparql_cache_key(fingerprint(&kg), &task, &GraphPattern::D1H1);
        let file_name = key.file_name();
        let pristine = std::fs::read(dir.join(&file_name)).unwrap();
        let mut baseline = Vec::new();
        write_snapshot(&res.subgraph.kg, &mut baseline).unwrap();
        let payload = cache.lookup(&key).payload.expect("the published artifact hits");
        Setup { kg, key, file_name, pristine, baseline, payload }
    })
}

/// A fresh directory per fuzz case, pre-seeded with `bytes` as the
/// artifact file.
fn seeded_case_dir(bytes: &[u8]) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("kgtosa-cache-corruption")
        .join(format!("case-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(&setup().file_name), bytes).unwrap();
    dir
}

/// After a damaged lookup, a cached re-extraction must produce the
/// baseline subgraph and leave the slot healthy again.
fn assert_recovers(cache: &ArtifactCache, setup: &Setup) -> Result<(), TestCaseError> {
    let store = RdfStore::new(&setup.kg);
    let task = paper_task(&setup.kg);
    let (res, outcome) =
        extract_sparql_cached(&store, &task, &GraphPattern::D1H1, &FetchConfig::default(), cache)
            .unwrap();
    // The damaged slot cannot hit.
    prop_assert_ne!(outcome, CacheOutcome::Hit);
    let mut bytes = Vec::new();
    write_snapshot(&res.subgraph.kg, &mut bytes).unwrap();
    prop_assert_eq!(&bytes, &setup.baseline, "recovery must rebuild the exact subgraph");
    let hit = cache.lookup(&setup.key);
    prop_assert_eq!(hit.outcome, CacheOutcome::Hit, "the slot is healthy after recovery");
    Ok(())
}

/// The view accepts `payload` exactly when the decoder does, and then
/// answers what the decoded subgraph holds.
fn assert_view_agrees(payload: &[u8], parent_nodes: usize) -> Result<(), TestCaseError> {
    let view = ExtractionView::parse(payload, parent_nodes);
    let decoded = decode_extraction(payload, parent_nodes);
    prop_assert_eq!(view.is_ok(), decoded.is_ok());
    if let (Ok(view), Ok(dec)) = (view, decoded) {
        let kg = &dec.subgraph.kg;
        prop_assert_eq!(view.fingerprint(), fingerprint(kg));
        prop_assert_eq!(
            (
                view.snapshot().num_nodes(),
                view.snapshot().num_triples(),
                view.num_targets()
            ),
            (kg.num_nodes(), kg.num_triples(), dec.targets.len())
        );
        prop_assert_eq!(view.method(), dec.method.as_str());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped bit makes the artifact unservable — the lookup
    /// classifies it as Corrupt (quarantined) or Stale (removed), never a
    /// Hit, never a panic — and the slot recovers by re-extraction.
    #[test]
    fn bit_flip_never_serves_and_always_recovers(
        byte_pick in 0usize..1 << 16,
        bit in 0u8..8,
    ) {
        let s = setup();
        let mut bytes = s.pristine.clone();
        let idx = byte_pick % bytes.len();
        bytes[idx] ^= 1 << bit;
        let dir = seeded_case_dir(&bytes);
        let cache = ArtifactCache::open(&dir).unwrap();
        let lookup = cache.lookup(&s.key);
        // A flipped byte must never hit, wherever it landed.
        prop_assert_ne!(lookup.outcome, CacheOutcome::Hit);
        prop_assert!(lookup.payload.is_none());
        // Corrupt quarantines for autopsy; stale removes. Both free the slot.
        let stats = cache.disk_stats().unwrap();
        prop_assert_eq!(stats.entries, 0, "the damaged artifact must leave the slot");
        match lookup.outcome {
            CacheOutcome::Corrupt => prop_assert_eq!(stats.quarantined, 1),
            CacheOutcome::Stale | CacheOutcome::Miss => prop_assert_eq!(stats.quarantined, 0),
            CacheOutcome::Hit => unreachable!(),
        }
        assert_recovers(&cache, s)?;
    }

    /// Any strict truncation is detected as Corrupt, quarantined, and
    /// recovered from — the validator never reads past what is present
    /// and never accepts a prefix.
    #[test]
    fn truncation_never_serves_and_always_recovers(cut in 0usize..1 << 16) {
        let s = setup();
        let keep = cut % s.pristine.len();
        let dir = seeded_case_dir(&s.pristine[..keep]);
        let cache = ArtifactCache::open(&dir).unwrap();
        let lookup = cache.lookup(&s.key);
        prop_assert_eq!(lookup.outcome, CacheOutcome::Corrupt, "prefix of {} bytes", keep);
        prop_assert!(lookup.payload.is_none());
        let stats = cache.disk_stats().unwrap();
        prop_assert_eq!((stats.entries, stats.quarantined), (0, 1));
        assert_recovers(&cache, s)?;
    }

    /// Arbitrary garbage in the artifact slot — random bytes that never
    /// came from the store — is rejected without panicking.
    #[test]
    fn arbitrary_bytes_never_panic_or_hit(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let s = setup();
        let dir = seeded_case_dir(&bytes);
        let cache = ArtifactCache::open(&dir).unwrap();
        let lookup = cache.lookup(&s.key);
        prop_assert_ne!(lookup.outcome, CacheOutcome::Hit);
        prop_assert!(lookup.payload.is_none());
        assert_recovers(&cache, s)?;
    }

    /// A flipped payload bit — what the store's checksum exists to catch —
    /// is judged the same by the view and the decoder, whatever it hits:
    /// counts, ids, quality bits, dictionary terms or triple varints.
    #[test]
    fn view_and_decoder_agree_on_flipped_payloads(
        byte_pick in 0usize..1 << 16,
        bit in 0u8..8,
        parent_delta in 0usize..2,
    ) {
        let s = setup();
        let mut payload = s.payload.clone();
        let idx = byte_pick % payload.len();
        payload[idx] ^= 1 << bit;
        assert_view_agrees(&payload, s.kg.num_nodes() + parent_delta)?;
    }

    /// Every truncation of a payload is judged the same by both readers
    /// (and, the snapshot being the payload's end, rejected by both).
    #[test]
    fn view_and_decoder_agree_on_truncated_payloads(cut in 0usize..1 << 16) {
        let s = setup();
        let keep = cut % s.payload.len();
        prop_assert!(ExtractionView::parse(&s.payload[..keep], s.kg.num_nodes()).is_err());
        assert_view_agrees(&s.payload[..keep], s.kg.num_nodes())?;
    }
}
