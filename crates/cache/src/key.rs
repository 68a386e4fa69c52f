//! Content-addressed cache keys.
//!
//! An artifact is addressed by everything that determines the bytes of a
//! task-oriented subgraph: the source graph's content fingerprint, the
//! BGP shape (`d1h1` … `d2h2`), the task spec (target class / LP
//! predicate), and the extractor with its parameter fingerprint. The
//! on-disk *format version* is deliberately **not** part of the digest:
//! a version bump must land on the same file name so the reader can
//! observe the old version inside and report [`super::CacheOutcome::Stale`]
//! (a digest that included the version would silently miss instead,
//! leaking the old entry until eviction).

use kgtosa_kg::Fnv64;

/// Bumped whenever the artifact layout changes; stored as the version of
/// the artifact's frame and checked on load. Version 2 moved the artifact
/// onto the shared `kgtosa_kg::frame`; version 3 is that frame with an
/// XXH64 checksum (magic `KGTOSAA2`).
pub const FORMAT_VERSION: u32 = 3;

/// Everything that addresses one cached extraction artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Content fingerprint of the source [`kgtosa_kg::KnowledgeGraph`]
    /// (see [`kgtosa_kg::fingerprint`]).
    pub kg_fingerprint: u64,
    /// BGP shape label, e.g. `"d1h1"`; `"fg"` for full-graph artifacts.
    pub pattern: String,
    /// Task spec label, e.g. `"nc:Paper"` or `"lp:cites"`.
    pub task: String,
    /// Extractor name, e.g. `"sparql"`.
    pub extractor: String,
    /// FNV-1a fingerprint of the extractor parameters that affect the
    /// result bytes (fetch batch size does not; sampling seeds do).
    pub params: u64,
}

impl CacheKey {
    /// The 64-bit content address: file name stem of the artifact.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.update(&self.kg_fingerprint.to_le_bytes());
        // Length-prefix the strings so ("ab","c") != ("a","bc").
        for s in [&self.pattern, &self.task, &self.extractor] {
            h.update(&(s.len() as u64).to_le_bytes());
            h.update(s.as_bytes());
        }
        h.update(&self.params.to_le_bytes());
        h.finish()
    }

    /// Artifact file name, `<digest-hex>.kgc`.
    pub fn file_name(&self) -> String {
        format!("{:016x}.kgc", self.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey {
            kg_fingerprint: 0xdead_beef,
            pattern: "d1h1".into(),
            task: "nc:Paper".into(),
            extractor: "sparql".into(),
            params: 7,
        }
    }

    #[test]
    fn digest_is_stable_and_field_sensitive() {
        let base = key().digest();
        assert_eq!(base, key().digest(), "digest must be deterministic");
        for (i, k) in [
            CacheKey { kg_fingerprint: 1, ..key() },
            CacheKey { pattern: "d2h1".into(), ..key() },
            CacheKey { task: "nc:Author".into(), ..key() },
            CacheKey { extractor: "brw".into(), ..key() },
            CacheKey { params: 8, ..key() },
        ]
        .iter()
        .enumerate()
        {
            assert_ne!(base, k.digest(), "field {i} must affect the digest");
        }
    }

    #[test]
    fn string_boundaries_are_unambiguous() {
        let a = CacheKey { pattern: "ab".into(), task: "c".into(), ..key() };
        let b = CacheKey { pattern: "a".into(), task: "bc".into(), ..key() };
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn file_name_is_hex() {
        let name = key().file_name();
        assert!(name.ends_with(".kgc"));
        assert_eq!(name.len(), 16 + 4);
    }
}
