//! The on-disk artifact store.
//!
//! One directory, one file per artifact, named by the key digest:
//!
//! ```text
//! <dir>/<digest-hex>.kgc          the artifact
//! <dir>/<digest-hex>.touch        zero-byte access marker (LRU clock)
//! <dir>/<digest-hex>.kgc.quarantine   a corrupt artifact, kept for autopsy
//! <dir>/<digest-hex>.<pid>-<n>.kgc.tmp a store in flight (one per store call)
//! ```
//!
//! Artifact layout (mirrors `crates/models/checkpoint.rs` conventions —
//! magic, embedded key, length-prefixed payload, trailing checksum,
//! atomic tmp+rename publish, validate *everything* before load):
//!
//! ```text
//! magic "KGTOSAA1" | version u32
//! | kg_fingerprint u64 | params u64
//! | pattern str | task str | extractor str   (u32 len + bytes each)
//! | payload_len u64 | payload | fnv64(payload) u64
//! ```
//!
//! Lookup classification:
//! - file absent                         → `Miss`
//! - bad magic / truncation / bad sum    → `Corrupt` (file quarantined)
//! - version or embedded key mismatch    → `Stale` (file removed)
//! - everything checks out               → `Hit` (access marker refreshed)
//!
//! A corrupt artifact is *moved aside*, never deleted: the differential
//! harness (and a human) can inspect what went wrong, and the slot is
//! free for a clean re-extract. No lookup path panics on hostile bytes.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

use kgtosa_kg::fnv64;

use crate::invalidate::{SweepAction, SweepReport};
use crate::key::{CacheKey, FORMAT_VERSION};

const MAGIC: &[u8; 8] = b"KGTOSAA1";
/// Upper bound on embedded key strings; anything larger is a forged header.
const MAX_KEY_STR: usize = 4096;
/// Upper bound on a payload we will load (1 GiB); beyond this the header
/// is treated as corrupt rather than letting it drive allocation.
const MAX_PAYLOAD: u64 = 1 << 30;

/// How a lookup resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Valid artifact found and loaded.
    Hit,
    /// No artifact for this key.
    Miss,
    /// An artifact existed but its format version or embedded key did
    /// not match; it was removed so the slot can be repopulated.
    Stale,
    /// An artifact existed but failed validation (truncation, bad
    /// magic, checksum mismatch); it was quarantined.
    Corrupt,
}

impl CacheOutcome {
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Stale => "stale",
            CacheOutcome::Corrupt => "corrupt",
        }
    }
}

/// Result of [`ArtifactCache::lookup`]: the outcome plus the payload on
/// a hit.
#[derive(Debug)]
pub struct CacheLookup {
    pub outcome: CacheOutcome,
    pub payload: Option<Vec<u8>>,
}

/// Per-instance lookup/store counters (race-free under concurrent test
/// binaries, unlike the process-global obs registry which is also fed).
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub stale: AtomicU64,
    pub corrupt: AtomicU64,
    pub stores: AtomicU64,
    pub evictions: AtomicU64,
}

/// A point-in-time summary of what is on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskStats {
    pub entries: usize,
    pub bytes: u64,
    pub quarantined: usize,
}

/// One row of [`ArtifactCache::entries`] (the `cache ls` listing).
#[derive(Debug, Clone)]
pub struct EntryInfo {
    pub file_name: String,
    pub bytes: u64,
    /// Header fields, if the header was readable.
    pub kg_fingerprint: Option<u64>,
    pub params: Option<u64>,
    pub pattern: Option<String>,
    pub task: Option<String>,
    pub extractor: Option<String>,
    pub version: Option<u32>,
}

/// Content-addressed artifact store with a byte-budget LRU.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
    /// Evict least-recently-used artifacts once the directory exceeds
    /// this many bytes (`None` = unbounded).
    budget: Option<u64>,
    stats: Arc<CacheStats>,
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactCache { dir, budget: None, stats: Arc::new(CacheStats::default()) })
    }

    /// Caps the directory at `bytes`; the least-recently-used artifacts
    /// are evicted after each store to get back under the cap.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn artifact_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    fn touch_path_for(&self, artifact: &Path) -> PathBuf {
        artifact.with_extension("touch")
    }

    /// Looks up `key`, validating the artifact end-to-end before any
    /// byte of it is trusted.
    pub fn lookup(&self, key: &CacheKey) -> CacheLookup {
        let path = self.artifact_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return self.resolve(CacheOutcome::Miss, None);
            }
            Err(_) => return self.resolve(CacheOutcome::Miss, None),
        };
        match parse_artifact(&bytes, key) {
            Ok(payload) => {
                // Refresh the LRU clock: recreate the zero-byte marker so
                // its mtime records this access (std cannot set mtimes
                // directly).
                let touch = self.touch_path_for(&path);
                let _ = fs::remove_file(&touch);
                let _ = fs::File::create(&touch);
                self.resolve(CacheOutcome::Hit, Some(payload))
            }
            Err(ParseError::Stale(_why)) => {
                let _ = fs::remove_file(&path);
                let _ = fs::remove_file(self.touch_path_for(&path));
                self.publish_bytes_gauge();
                self.resolve(CacheOutcome::Stale, None)
            }
            Err(ParseError::Corrupt(_why)) => {
                let mut quarantine = path.as_os_str().to_owned();
                quarantine.push(".quarantine");
                let _ = fs::rename(&path, PathBuf::from(quarantine));
                let _ = fs::remove_file(self.touch_path_for(&path));
                self.publish_bytes_gauge();
                self.resolve(CacheOutcome::Corrupt, None)
            }
        }
    }

    fn resolve(&self, outcome: CacheOutcome, payload: Option<Vec<u8>>) -> CacheLookup {
        let (instance, global) = match outcome {
            CacheOutcome::Hit => (&self.stats.hits, "cache.hits"),
            CacheOutcome::Miss => (&self.stats.misses, "cache.misses"),
            CacheOutcome::Stale => (&self.stats.stale, "cache.stale"),
            CacheOutcome::Corrupt => (&self.stats.corrupt, "cache.corrupt"),
        };
        instance.fetch_add(1, Ordering::Relaxed);
        kgtosa_obs::counter(global).inc();
        // Derived hit ratio over every lookup the process has made (the
        // global counters — not this store instance), refreshed on each
        // lookup so `/metrics` always carries a current value. Stale and
        // corrupt entries count as misses: the caller has to recompute.
        let hits = kgtosa_obs::counter("cache.hits").get() as f64;
        let lookups = hits
            + kgtosa_obs::counter("cache.misses").get() as f64
            + kgtosa_obs::counter("cache.stale").get() as f64
            + kgtosa_obs::counter("cache.corrupt").get() as f64;
        if lookups > 0.0 {
            kgtosa_obs::gauge_f64("cache.hit_ratio").set(hits / lookups);
        }
        CacheLookup { outcome, payload }
    }

    /// Atomically publishes `payload` under `key` (tmp + rename — a
    /// crash mid-store leaves either the old artifact or none, never a
    /// torn file), then evicts down to the byte budget.
    pub fn store(&self, key: &CacheKey, payload: &[u8]) -> io::Result<PathBuf> {
        let path = self.store_entry(key, payload)?;
        self.publish_bytes_gauge();
        Ok(path)
    }

    /// [`ArtifactCache::store`] without the `cache.bytes` refresh (a walk
    /// of the directory), for a caller that stores many entries and
    /// publishes the gauge once.
    fn store_entry(&self, key: &CacheKey, payload: &[u8]) -> io::Result<PathBuf> {
        /// Distinguishes the temp files of one process's concurrent stores.
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.artifact_path(key);
        // Every store writes its own temp file. Writers of one key — two
        // workers missing on it at once, or a reader re-extracting while a
        // sweep migrates it — would otherwise truncate each other's
        // half-written file and rename a torn artifact into place. The
        // name still ends in `.kgc.tmp`, so `clear` sweeps leftovers.
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{seq}.kgc.tmp", std::process::id()));
        let bytes = encode_artifact(key, payload);
        let publish = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        if let Err(e) = publish() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let touch = self.touch_path_for(&path);
        let _ = fs::remove_file(&touch);
        let _ = fs::File::create(&touch);
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        self.evict_to_budget()?;
        Ok(path)
    }

    /// Removes least-recently-used artifacts until the directory is
    /// within the byte budget.
    fn evict_to_budget(&self) -> io::Result<()> {
        let Some(budget) = self.budget else { return Ok(()) };
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let mut total = 0u64;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("kgc") {
                continue;
            }
            let meta = entry.metadata()?;
            let accessed = fs::metadata(self.touch_path_for(&path))
                .and_then(|m| m.modified())
                .or_else(|_| meta.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            total += meta.len();
            entries.push((path, meta.len(), accessed));
        }
        if total <= budget {
            return Ok(());
        }
        // Oldest access first; file name tie-break keeps eviction
        // deterministic when markers share an mtime granule.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, len, _) in entries {
            if total <= budget {
                break;
            }
            fs::remove_file(&path)?;
            let _ = fs::remove_file(self.touch_path_for(&path));
            total = total.saturating_sub(len);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            kgtosa_obs::counter("cache.evictions").inc();
        }
        Ok(())
    }

    /// Sets the `cache.bytes` gauge to the current on-disk total.
    fn publish_bytes_gauge(&self) {
        if let Ok(stats) = self.disk_stats() {
            kgtosa_obs::gauge("cache.bytes").set(stats.bytes.min(i64::MAX as u64) as i64);
        }
    }

    /// Entry count / byte total / quarantine count, by walking the dir.
    pub fn disk_stats(&self) -> io::Result<DiskStats> {
        let mut stats = DiskStats { entries: 0, bytes: 0, quarantined: 0 };
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".kgc") {
                stats.entries += 1;
                stats.bytes += entry.metadata()?.len();
            } else if name.ends_with(".quarantine") {
                stats.quarantined += 1;
            }
        }
        Ok(stats)
    }

    /// Lists artifacts with their embedded key headers (for `cache ls`).
    pub fn entries(&self) -> io::Result<Vec<EntryInfo>> {
        let mut rows = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("kgc") {
                continue;
            }
            let bytes = entry.metadata()?.len();
            let file_name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let header = fs::File::open(&path).ok().and_then(|f| read_header(f).ok());
            let (kg_fingerprint, params, pattern, task, extractor, version) = match header {
                Some(h) => (
                    Some(h.kg_fingerprint),
                    Some(h.params),
                    Some(h.pattern),
                    Some(h.task),
                    Some(h.extractor),
                    Some(h.version),
                ),
                None => (None, None, None, None, None, None),
            };
            rows.push(EntryInfo { file_name, bytes, kg_fingerprint, params, pattern, task, extractor, version });
        }
        rows.sort_by(|a, b| a.file_name.cmp(&b.file_name));
        Ok(rows)
    }

    /// Re-keys the store across a KG fingerprint change (delta apply).
    ///
    /// Every artifact keyed by `old_fp` is read, validated against its own
    /// embedded key, and handed to `decide` together with its payload. The
    /// caller returns a [`SweepAction`]: `Invalidate` removes the entry
    /// (its extraction no longer matches what a fresh run would produce),
    /// `Migrate(payload)` atomically publishes the given payload under the
    /// identical key re-pinned to `new_fp` and removes the old file — so
    /// entries untouched by the delta keep hitting after the update.
    /// Entries keyed by other fingerprints are skipped; entries whose
    /// bytes fail validation — and `Migrate`s whose re-publish fails —
    /// are removed and counted as `failed`, so a sweep always terminates
    /// with no entries left under `old_fp`.
    pub fn sweep_fingerprint(
        &self,
        old_fp: u64,
        new_fp: u64,
        mut decide: impl FnMut(&EntryInfo, Vec<u8>) -> SweepAction,
    ) -> io::Result<SweepReport> {
        let mut report = SweepReport::default();
        for info in self.entries()? {
            report.scanned += 1;
            if info.kg_fingerprint != Some(old_fp) {
                report.skipped += 1;
                continue;
            }
            let path = self.dir.join(&info.file_name);
            let remove_entry = |path: &Path| {
                let _ = fs::remove_file(path);
                let _ = fs::remove_file(self.touch_path_for(path));
            };
            let (Some(params), Some(pattern), Some(task), Some(extractor)) =
                (info.params, info.pattern.clone(), info.task.clone(), info.extractor.clone())
            else {
                remove_entry(&path);
                report.failed += 1;
                continue;
            };
            let old_key =
                CacheKey { kg_fingerprint: old_fp, pattern, task, extractor, params };
            let payload = fs::read(&path).ok().and_then(|bytes| parse_artifact(&bytes, &old_key).ok());
            let Some(payload) = payload else {
                remove_entry(&path);
                report.failed += 1;
                continue;
            };
            match decide(&info, payload) {
                SweepAction::Invalidate => {
                    remove_entry(&path);
                    report.invalidated += 1;
                    kgtosa_obs::counter("cache.invalidations").inc();
                }
                SweepAction::Migrate(new_payload) => {
                    let new_key = CacheKey { kg_fingerprint: new_fp, ..old_key };
                    match self.store_entry(&new_key, &new_payload) {
                        Ok(_) => {
                            remove_entry(&path);
                            report.migrated += 1;
                            kgtosa_obs::counter("cache.migrations").inc();
                        }
                        // A failed publish must not abort the sweep: the
                        // old file is unreachable under the new fingerprint
                        // anyway, and later sweeps skip foreign
                        // fingerprints, so leaving it behind would strand
                        // dead bytes on disk forever. Drop it and count the
                        // entry as failed (cold cache, never a wrong
                        // answer).
                        Err(_) => {
                            remove_entry(&path);
                            report.failed += 1;
                        }
                    }
                }
            }
        }
        self.publish_bytes_gauge();
        Ok(report)
    }

    /// Deletes every artifact, marker, temp file, and quarantined file;
    /// returns how many artifacts were removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0usize;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let ours = name.ends_with(".kgc")
                || name.ends_with(".touch")
                || name.ends_with(".kgc.tmp")
                || name.ends_with(".quarantine");
            if !ours {
                continue;
            }
            if name.ends_with(".kgc") {
                removed += 1;
            }
            fs::remove_file(entry.path())?;
        }
        kgtosa_obs::gauge("cache.bytes").set(0);
        Ok(removed)
    }
}

struct Header {
    version: u32,
    kg_fingerprint: u64,
    params: u64,
    pattern: String,
    task: String,
    extractor: String,
}

enum ParseError {
    /// Structurally damaged: quarantine.
    Corrupt(&'static str),
    /// Valid file for an outdated version or a colliding key: replaceable.
    Stale(&'static str),
}

fn read_header(mut r: impl Read) -> io::Result<Header> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let version = read_u32(&mut r)?;
    let kg_fingerprint = read_u64(&mut r)?;
    let params = read_u64(&mut r)?;
    let mut strs = Vec::with_capacity(3);
    for _ in 0..3 {
        let len = read_u32(&mut r)? as usize;
        if len > MAX_KEY_STR {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "key string too long"));
        }
        let mut buf = vec![0u8; len];
        r.read_exact(&mut buf)?;
        strs.push(String::from_utf8(buf).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "key string not UTF-8")
        })?);
    }
    let extractor = strs.pop().unwrap_or_default();
    let task = strs.pop().unwrap_or_default();
    let pattern = strs.pop().unwrap_or_default();
    Ok(Header { version, kg_fingerprint, params, pattern, task, extractor })
}

/// The artifact file for `payload` under `key`, in the module-doc layout.
fn encode_artifact(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let strs = [&key.pattern, &key.task, &key.extractor];
    let key_len: usize = strs.iter().map(|s| 4 + s.len()).sum();
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 8 + 8 + key_len + 8 + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.kg_fingerprint.to_le_bytes());
    out.extend_from_slice(&key.params.to_le_bytes());
    for s in strs {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// Full validate-before-load: every check happens before the payload is
/// handed back, so a partial or tampered artifact can never be mistaken
/// for a subgraph.
fn parse_artifact(bytes: &[u8], key: &CacheKey) -> Result<Vec<u8>, ParseError> {
    let mut cursor = io::Cursor::new(bytes);
    let header = read_header(&mut cursor).map_err(|_| ParseError::Corrupt("unreadable header"))?;
    if header.version != FORMAT_VERSION {
        return Err(ParseError::Stale("format version mismatch"));
    }
    if header.kg_fingerprint != key.kg_fingerprint
        || header.params != key.params
        || header.pattern != key.pattern
        || header.task != key.task
        || header.extractor != key.extractor
    {
        // Same digest, different key: collision or tampering. Either
        // way the entry cannot serve this request and a re-extract
        // should overwrite it.
        return Err(ParseError::Stale("embedded key mismatch"));
    }
    let payload_len = read_u64(&mut cursor).map_err(|_| ParseError::Corrupt("missing payload length"))?;
    if payload_len > MAX_PAYLOAD {
        return Err(ParseError::Corrupt("payload length implausible"));
    }
    let start = cursor.position() as usize;
    let end = start
        .checked_add(payload_len as usize)
        .ok_or(ParseError::Corrupt("payload length overflow"))?;
    // Exactly payload + trailing 8-byte checksum must remain.
    if bytes.len() != end + 8 {
        return Err(ParseError::Corrupt("artifact truncated or padded"));
    }
    let payload = &bytes[start..end];
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[end..end + 8]);
    if fnv64(payload) != u64::from_le_bytes(sum) {
        return Err(ParseError::Corrupt("checksum mismatch"));
    }
    Ok(payload.to_vec())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kgtosa-cache-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn assert_no_tmp_files(cache: &ArtifactCache) {
        for entry in fs::read_dir(cache.dir()).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"), "tmp file left behind");
        }
    }

    fn key(task: &str) -> CacheKey {
        CacheKey {
            kg_fingerprint: 42,
            pattern: "d1h1".into(),
            task: task.into(),
            extractor: "sparql".into(),
            params: 3,
        }
    }

    #[test]
    fn miss_store_hit_roundtrip() {
        let cache = ArtifactCache::open(tmpdir("roundtrip")).unwrap();
        let k = key("nc:Paper");
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Miss);
        cache.store(&k, b"payload-bytes").unwrap();
        let hit = cache.lookup(&k);
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert_eq!(hit.payload.as_deref(), Some(&b"payload-bytes"[..]));
        assert_eq!(cache.stats().hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hit_ratio_gauge_tracks_lookups() {
        let cache = ArtifactCache::open(tmpdir("ratio")).unwrap();
        let k = key("nc:Ratio");
        cache.lookup(&k); // miss
        let after_miss = kgtosa_obs::gauge_f64("cache.hit_ratio").get();
        // Counters are process-global and other tests run concurrently, so
        // assert bounds, not exact values: after a miss the ratio is < 1...
        assert!((0.0..1.0).contains(&after_miss), "{after_miss}");
        cache.store(&k, b"payload").unwrap();
        cache.lookup(&k); // hit
        let after_hit = kgtosa_obs::gauge_f64("cache.hit_ratio").get();
        // ...and once any hit has been recorded it is strictly positive.
        assert!(after_hit > 0.0 && after_hit <= 1.0, "{after_hit}");
    }

    #[test]
    fn truncation_is_corrupt_and_quarantined() {
        let cache = ArtifactCache::open(tmpdir("trunc")).unwrap();
        let k = key("nc:Paper");
        let path = cache.store(&k, b"0123456789").unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Corrupt);
        assert!(!path.exists(), "corrupt artifact must leave the slot");
        assert_eq!(cache.disk_stats().unwrap().quarantined, 1);
        // The slot is clean: a re-store then hits again.
        cache.store(&k, b"0123456789").unwrap();
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Hit);
    }

    #[test]
    fn payload_bitflip_is_corrupt() {
        let cache = ArtifactCache::open(tmpdir("bitflip")).unwrap();
        let k = key("nc:Paper");
        let path = cache.store(&k, b"sensitive-graph-bytes").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 12; // inside the payload
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Corrupt);
    }

    #[test]
    fn version_bump_is_stale() {
        let cache = ArtifactCache::open(tmpdir("stale")).unwrap();
        let k = key("nc:Paper");
        let path = cache.store(&k, b"old-version-payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Stale);
        assert!(!path.exists(), "stale artifact is removed");
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Miss);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let cache = ArtifactCache::open(tmpdir("lru")).unwrap();
        let ka = key("a");
        let kb = key("b");
        let payload = vec![7u8; 64];
        cache.store(&ka, &payload).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(&kb, &payload).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Touch `a` so `b` becomes the LRU entry.
        assert_eq!(cache.lookup(&ka).outcome, CacheOutcome::Hit);
        let entry_size = fs::metadata(cache.artifact_path(&ka)).unwrap().len();
        // Budget fits one entry: storing a third must evict exactly `b`.
        let cache = ArtifactCache { budget: Some(2 * entry_size), ..cache };
        let kc = key("c");
        cache.store(&kc, &payload).unwrap();
        assert_eq!(cache.lookup(&ka).outcome, CacheOutcome::Hit, "recently used survives");
        assert_eq!(cache.lookup(&kb).outcome, CacheOutcome::Miss, "LRU entry evicted");
        assert_eq!(cache.lookup(&kc).outcome, CacheOutcome::Hit);
        assert!(cache.stats().evictions.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn clear_removes_everything() {
        let cache = ArtifactCache::open(tmpdir("clear")).unwrap();
        cache.store(&key("a"), b"x").unwrap();
        cache.store(&key("b"), b"y").unwrap();
        assert_eq!(cache.clear().unwrap(), 2);
        let stats = cache.disk_stats().unwrap();
        assert_eq!(stats, DiskStats { entries: 0, bytes: 0, quarantined: 0 });
        assert_eq!(cache.lookup(&key("a")).outcome, CacheOutcome::Miss);
    }

    #[test]
    fn entries_reports_embedded_keys() {
        let cache = ArtifactCache::open(tmpdir("entries")).unwrap();
        cache.store(&key("nc:Paper"), b"p").unwrap();
        let rows = cache.entries().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].task.as_deref(), Some("nc:Paper"));
        assert_eq!(rows[0].pattern.as_deref(), Some("d1h1"));
        assert_eq!(rows[0].version, Some(FORMAT_VERSION));
    }

    #[test]
    fn sweep_migrates_clean_entries_and_drops_stale_ones() {
        let cache = ArtifactCache::open(tmpdir("sweep")).unwrap();
        let stale_key = key("nc:Paper");
        let clean_key = key("nc:Venue");
        let other_fp = CacheKey { kg_fingerprint: 99, ..key("nc:Other") };
        cache.store(&stale_key, b"stale-payload").unwrap();
        cache.store(&clean_key, b"clean-payload").unwrap();
        cache.store(&other_fp, b"other-payload").unwrap();

        let report = cache
            .sweep_fingerprint(42, 43, |info, payload| {
                if info.task.as_deref() == Some("nc:Paper") {
                    SweepAction::Invalidate
                } else {
                    SweepAction::Migrate(payload)
                }
            })
            .unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.skipped, 1, "foreign fingerprint untouched");
        assert_eq!(report.invalidated, 1);
        assert_eq!(report.migrated, 1);
        assert_eq!(report.failed, 0);

        // The stale entry is gone under both fingerprints.
        assert_eq!(cache.lookup(&stale_key).outcome, CacheOutcome::Miss);
        let stale_new = CacheKey { kg_fingerprint: 43, ..key("nc:Paper") };
        assert_eq!(cache.lookup(&stale_new).outcome, CacheOutcome::Miss);
        // The clean entry now hits under the new fingerprint only, with
        // the payload carried over byte-identically.
        assert_eq!(cache.lookup(&clean_key).outcome, CacheOutcome::Miss);
        let clean_new = CacheKey { kg_fingerprint: 43, ..key("nc:Venue") };
        let hit = cache.lookup(&clean_new);
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert_eq!(hit.payload.as_deref(), Some(&b"clean-payload"[..]));
        // The unrelated fingerprint still hits untouched.
        assert_eq!(cache.lookup(&other_fp).outcome, CacheOutcome::Hit);
    }

    #[test]
    fn sweep_removes_unreadable_entries() {
        let cache = ArtifactCache::open(tmpdir("sweep-corrupt")).unwrap();
        let k = key("nc:Paper");
        let path = cache.store(&k, b"payload").unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let report = cache.sweep_fingerprint(42, 43, |_, p| SweepAction::Migrate(p)).unwrap();
        assert_eq!(report.failed, 1);
        assert_eq!(report.migrated, 0);
        assert!(!path.exists(), "unreadable entry leaves the slot clean");
    }

    #[test]
    fn sweep_survives_a_failed_migrate_publish() {
        let cache = ArtifactCache::open(tmpdir("sweep-migrate-fail")).unwrap();
        let blocked = key("nc:Paper");
        let clean = key("nc:Venue");
        cache.store(&blocked, b"blocked-payload").unwrap();
        cache.store(&clean, b"clean-payload").unwrap();
        // A directory squatting on the new key's artifact path makes the
        // re-publish (the rename) fail for that entry only.
        let blocked_new = CacheKey { kg_fingerprint: 43, ..key("nc:Paper") };
        fs::create_dir(cache.artifact_path(&blocked_new)).unwrap();

        let report = cache
            .sweep_fingerprint(42, 43, |_, p| SweepAction::Migrate(p))
            .expect("a failed publish must not abort the sweep");
        assert_eq!(report.migrated, 1);
        assert_eq!(report.failed, 1);
        // Nothing is left keyed under the old fingerprint — the failed
        // entry is dropped (cold cache), not stranded as dead bytes.
        assert!(!cache.artifact_path(&blocked).exists());
        assert_eq!(cache.lookup(&blocked).outcome, CacheOutcome::Miss);
        assert_eq!(cache.lookup(&blocked_new).outcome, CacheOutcome::Miss);
        let clean_new = CacheKey { kg_fingerprint: 43, ..key("nc:Venue") };
        assert_eq!(cache.lookup(&clean_new).outcome, CacheOutcome::Hit);
        // The failed store cleaned up after itself.
        assert_no_tmp_files(&cache);
    }

    #[test]
    fn racing_stores_of_one_key_never_publish_a_torn_artifact() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        const WRITERS: usize = 3;
        const STORES_EACH: usize = 40;
        let cache = ArtifactCache::open(tmpdir("race")).unwrap();
        let k = key("nc:Paper");
        let payload: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let start = Barrier::new(WRITERS + 1);
        let done = AtomicBool::new(false);
        // Threads report instead of panicking, so a failure cannot leave the
        // reader spinning on `done`.
        let (stored, (hits, torn)) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..STORES_EACH).all(|_| cache.store(&k, &payload).is_ok())
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                start.wait();
                let (mut hits, mut torn) = (0usize, 0usize);
                while !done.load(Ordering::SeqCst) {
                    let got = cache.lookup(&k);
                    match got.outcome {
                        CacheOutcome::Hit if got.payload.as_deref() == Some(&payload[..]) => hits += 1,
                        CacheOutcome::Miss => {}
                        _ => torn += 1,
                    }
                }
                (hits, torn)
            });
            let stored = writers.into_iter().all(|w| w.join().unwrap());
            done.store(true, Ordering::SeqCst);
            (stored, reader.join().unwrap())
        });
        assert!(stored, "a racing store failed");
        assert_eq!(torn, 0, "a lookup during racing stores was not a clean hit or miss");
        assert!(hits > 0, "the reader never overlapped a store");
        assert_eq!(cache.stats().corrupt.load(Ordering::Relaxed), 0);
        let disk = cache.disk_stats().unwrap();
        assert_eq!((disk.entries, disk.quarantined), (1, 0));
        assert_no_tmp_files(&cache);
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Hit);
    }

    #[test]
    fn tmp_file_never_visible_as_artifact() {
        let cache = ArtifactCache::open(tmpdir("tmpfile")).unwrap();
        let k = key("nc:Paper");
        cache.store(&k, b"payload").unwrap();
        assert_no_tmp_files(&cache);
    }
}
