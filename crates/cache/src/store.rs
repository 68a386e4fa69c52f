//! The on-disk artifact store.
//!
//! One directory, one file per artifact, named by the key digest:
//!
//! ```text
//! <dir>/<digest-hex>.kgc          the artifact; its mtime is its LRU clock
//! <dir>/<digest-hex>.kgc.quarantine   a corrupt artifact, kept for autopsy
//! <dir>/<digest-hex>.<pid>-<n>.kgc.tmp a store in flight (one per store call,
//!                                      and one per sweep `Migrate`, from its
//!                                      write on the sweeping thread until the
//!                                      sweep's flusher syncs and renames it)
//! ```
//!
//! An artifact is a [`kgtosa_kg::frame`] with magic `KGTOSAA2` and
//! version [`FORMAT_VERSION`] (the frame checksums everything, and is
//! published by an atomic tmp + rename), whose body is
//!
//! ```text
//! kg_fingerprint u64 | params u64
//! | pattern str | task str | extractor str   (u32 len + bytes each)
//! | payload                                   (the rest of the body)
//! ```
//!
//! Lookup classification:
//! - file absent                           → `Miss`
//! - frame or embedded key does not parse  → `Corrupt` (file quarantined)
//! - version or embedded key mismatch, or
//!   the `KGTOSAA1` frame of format 2      → `Stale` (file removed)
//! - everything checks out                 → `Hit` (mtime set to now)
//!
//! The LRU clock is the artifact's own mtime: a store sets it by writing
//! the file, a hit by [`fs::File::set_modified`] on the handle it read
//! through. Caches written before format 3 kept the clock in a zero-byte
//! `<digest-hex>.touch` marker beside each artifact; [`ArtifactCache::clear`]
//! still removes any such marker it finds.
//!
//! A corrupt artifact is *moved aside*, never deleted: the differential
//! harness (and a human) can inspect what went wrong, and the slot is
//! free for a clean re-extract. No lookup path panics on hostile bytes.

use std::fs;
use std::io::{self, Read};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::SystemTime;

use kgtosa_kg::{read_framed, stage_framed, write_framed, StagedFrame};

use crate::invalidate::{SweepAction, SweepReport};
use crate::key::{CacheKey, FORMAT_VERSION};

const MAGIC: &[u8; 8] = b"KGTOSAA2";
/// The magic of format 2's frames, whose checksum was FNV-1a: such a file
/// cannot be checked any more, only recognised as another format.
const FORMAT_2_MAGIC: &[u8; 8] = b"KGTOSAA1";

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
    pub payload: Option<Payload>,
}

/// A hit's payload: the artifact file as it was read, once, into one
/// buffer, dereferencing to the payload bytes inside it — a hit copies
/// nothing out.
#[derive(Debug)]
pub struct Payload {
    file: Vec<u8>,
    range: Range<usize>,
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.file[self.range.clone()]
    }
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
    /// Embedded key fields, if the artifact validated.
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

    /// Looks up `key`, validating the artifact end-to-end before any
    /// byte of it is trusted. A hit sets the artifact's mtime, its LRU
    /// clock, through the handle it was read by.
    pub fn lookup(&self, key: &CacheKey) -> CacheLookup {
        let path = self.artifact_path(key);
        let Ok((file, bytes)) = read_file(&path) else {
            return self.resolve(CacheOutcome::Miss, None);
        };
        match read_artifact(&bytes) {
            Ok((stored, payload)) if stored == *key => {
                // `payload` borrows from `bytes`: its place there.
                let start = payload.as_ptr() as usize - bytes.as_ptr() as usize;
                let range = start..start + payload.len();
                let _ = file.set_modified(SystemTime::now());
                self.resolve(CacheOutcome::Hit, Some(Payload { file: bytes, range }))
            }
            // Same digest, different key — a collision or tampering — or
            // another format version: either way the entry cannot serve
            // this request and a re-extract should overwrite it.
            Ok(_) | Err(CacheOutcome::Stale) => {
                let _ = fs::remove_file(&path);
                self.publish_bytes_gauge();
                self.resolve(CacheOutcome::Stale, None)
            }
            Err(_) => {
                let mut quarantine = path.as_os_str().to_owned();
                quarantine.push(".quarantine");
                let _ = fs::rename(&path, PathBuf::from(quarantine));
                self.publish_bytes_gauge();
                self.resolve(CacheOutcome::Corrupt, None)
            }
        }
    }

    fn resolve(&self, outcome: CacheOutcome, payload: Option<Payload>) -> CacheLookup {
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
        let path = self.artifact_path(key);
        // Every store writes its own temp file: writers of one key — two
        // workers missing on it at once, or a reader re-extracting while a
        // sweep migrates it — never publish each other's half-written
        // file. Its name ends in `.kgc.tmp`, so `clear` sweeps leftovers.
        // The write itself sets the artifact's LRU clock.
        write_framed(&path, MAGIC, FORMAT_VERSION, &artifact_body(key, payload))?;
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        let mut evicted = 0;
        let evict = self.evict_to_budget(&mut evicted);
        kgtosa_obs::counter("cache.evictions").add(evicted);
        evict?;
        self.publish_bytes_gauge();
        Ok(path)
    }

    /// Removes least-recently-used artifacts until the directory is
    /// within the byte budget, counting them in `evicted` (and in this
    /// store's stats: the `cache.evictions` counter is the caller's, so
    /// that it lands in the caller's telemetry context).
    fn evict_to_budget(&self, evicted: &mut u64) -> io::Result<()> {
        let Some(budget) = self.budget else { return Ok(()) };
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let mut total = 0u64;
        for path in self.artifact_paths()? {
            let meta = fs::metadata(&path)?;
            let accessed = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            total += meta.len();
            entries.push((path, meta.len(), accessed));
        }
        if total <= budget {
            return Ok(());
        }
        // Oldest access first; the stable sort keeps name order among
        // artifacts that share an mtime granule, so eviction is deterministic.
        entries.sort_by_key(|e| e.2);
        for (path, len, _) in entries {
            if total <= budget {
                break;
            }
            fs::remove_file(&path)?;
            total = total.saturating_sub(len);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            *evicted += 1;
        }
        Ok(())
    }

    /// Publishes one staged migration: syncs and renames the new artifact
    /// into place, removes the file it replaces, and evicts down to the
    /// budget — what [`ArtifactCache::store`] does after its write. The
    /// old file goes whether or not the publish succeeds (see the sweep's
    /// failed write).
    fn publish_migration(&self, m: Migration, tally: &mut FlushTally) {
        let new_path = m.staged.path().to_owned();
        let published = m.staged.publish().and_then(|()| {
            self.stats.stores.fetch_add(1, Ordering::Relaxed);
            // An update that keeps the fingerprint re-keys the entry onto
            // its own path, which the publish has just replaced.
            if new_path != m.old {
                let _ = fs::remove_file(&m.old);
            }
            self.evict_to_budget(&mut tally.evicted)
        });
        match published {
            Ok(()) => tally.migrated += 1,
            Err(_) => {
                let _ = fs::remove_file(&m.old);
                tally.failed += 1;
            }
        }
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

    /// The `.kgc` files in the store, sorted by name.
    fn artifact_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut paths = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("kgc")
                && entry.file_type()?.is_file()
            {
                paths.push(path);
            }
        }
        paths.sort();
        Ok(paths)
    }

    /// Lists artifacts with their embedded keys (for `cache ls`); the key
    /// fields of a file that does not validate are `None`.
    pub fn entries(&self) -> io::Result<Vec<EntryInfo>> {
        Ok(self.artifact_paths()?.iter().map(|path| read_entry(path).0).collect())
    }

    /// Re-keys the store across a KG fingerprint change (delta apply).
    ///
    /// Every artifact is read and validated once. One keyed by `old_fp` is
    /// handed to `decide` together with its payload. The caller returns a
    /// [`SweepAction`]: `Invalidate` removes the entry (its extraction no
    /// longer matches what a fresh run would produce), `Migrate(payload)`
    /// atomically publishes the given payload under the identical key
    /// re-pinned to `new_fp` and removes the old file (when
    /// `new_fp == old_fp` the publish itself replaced it) — so entries
    /// untouched by the delta keep hitting after the update.
    /// Entries keyed by other fingerprints are skipped; entries whose
    /// bytes fail validation — whatever fingerprint they claim — and
    /// `Migrate`s whose re-publish fails are removed and counted as
    /// `failed`, so a sweep always terminates with no entries left under
    /// `old_fp`.
    ///
    /// A `Migrate`'s new artifact is written to its temp file here, then
    /// handed to one flusher thread (spawned on the first `Migrate`) that
    /// syncs, renames and removes the old file, in order, while this thread
    /// reads and decides the next entry. The sweep joins the flusher before
    /// it returns, so every migrated entry is published — synced before its
    /// rename — by then, and tallies what it did here: the report and the
    /// `cache.migrations`/`cache.evictions` counters land on the calling
    /// thread's telemetry context.
    pub fn sweep_fingerprint(
        &self,
        old_fp: u64,
        new_fp: u64,
        mut decide: impl FnMut(&EntryInfo, Vec<u8>) -> SweepAction,
    ) -> io::Result<SweepReport> {
        let mut report = SweepReport::default();
        let paths = self.artifact_paths()?;
        let flushed = std::thread::scope(|scope| {
            let mut flusher: Option<Flusher<'_>> = None;
            // Publishes made here: when no flusher thread could be started.
            let mut inline = FlushTally::default();
            for path in paths {
                report.scanned += 1;
                let (info, entry) = read_entry(&path);
                let Some((old_key, payload)) = entry else {
                    let _ = fs::remove_file(&path);
                    report.failed += 1;
                    continue;
                };
                if old_key.kg_fingerprint != old_fp {
                    report.skipped += 1;
                    continue;
                }
                match decide(&info, payload) {
                    SweepAction::Invalidate => {
                        let _ = fs::remove_file(&path);
                        report.invalidated += 1;
                        kgtosa_obs::counter("cache.invalidations").inc();
                    }
                    SweepAction::Migrate(new_payload) => {
                        let new_key = CacheKey { kg_fingerprint: new_fp, ..old_key };
                        let new_path = self.artifact_path(&new_key);
                        let body = artifact_body(&new_key, &new_payload);
                        match stage_framed(&new_path, MAGIC, FORMAT_VERSION, &body) {
                            Ok(staged) => {
                                let m = Migration { staged, old: path };
                                let flusher =
                                    flusher.get_or_insert_with(|| Flusher::spawn(scope, self));
                                if let Err(m) = flusher.send(m) {
                                    self.publish_migration(m, &mut inline);
                                }
                            }
                            // A failed write, like a failed publish, must
                            // not abort the sweep: the old file is
                            // unreachable under the new fingerprint anyway,
                            // and later sweeps skip foreign fingerprints, so
                            // leaving it behind would strand dead bytes on
                            // disk forever. Drop it and count the entry as
                            // failed (cold cache, never a wrong answer).
                            Err(_) => {
                                let _ = fs::remove_file(&path);
                                report.failed += 1;
                            }
                        }
                    }
                }
            }
            let mut tally = flusher.map_or_else(FlushTally::default, Flusher::join);
            tally.add(inline);
            tally
        });
        report.migrated += flushed.migrated;
        report.failed += flushed.failed;
        kgtosa_obs::counter("cache.migrations").add(flushed.migrated as u64);
        kgtosa_obs::counter("cache.evictions").add(flushed.evicted);
        self.publish_bytes_gauge();
        Ok(report)
    }

    /// Deletes every artifact, temp file and quarantined file, and any
    /// `.touch` marker a cache of format 2 left; returns how many artifacts
    /// were removed.
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

/// A `Migrate` of [`ArtifactCache::sweep_fingerprint`] waiting on the
/// disk: its new artifact, staged, and the file it replaces.
struct Migration {
    staged: StagedFrame,
    old: PathBuf,
}

/// What publishing migrations did, tallied where they ran.
#[derive(Debug, Default)]
struct FlushTally {
    migrated: usize,
    failed: usize,
    evicted: u64,
}

impl FlushTally {
    fn add(&mut self, other: FlushTally) {
        self.migrated += other.migrated;
        self.failed += other.failed;
        self.evicted += other.evicted;
    }
}

/// Staged migrations the sweep may queue ahead of its flusher. Each holds
/// an open temp file, so the bound caps the sweep's file handles and temp
/// files however far a run of cheap migrations outpaces the disk.
const QUEUED_MIGRATIONS: usize = 4;

/// The sweep's flusher: one scoped thread publishing migrations in the
/// order they are sent. It only waits on the disk, so it is no part of the
/// `kgtosa-par` pool's compute parallelism.
struct Flusher<'scope> {
    /// `None` when the thread could not be started.
    thread: Option<(mpsc::SyncSender<Migration>, ScopedJoinHandle<'scope, FlushTally>)>,
}

impl<'scope> Flusher<'scope> {
    fn spawn<'env>(scope: &'scope Scope<'scope, 'env>, cache: &'env ArtifactCache) -> Self {
        let (jobs, queue) = mpsc::sync_channel::<Migration>(QUEUED_MIGRATIONS);
        let thread = std::thread::Builder::new()
            .name("kgtosa-cache-flush".into())
            .spawn_scoped(scope, move || {
                let mut tally = FlushTally::default();
                for m in queue {
                    cache.publish_migration(m, &mut tally);
                }
                tally
            });
        Flusher { thread: thread.ok().map(|handle| (jobs, handle)) }
    }

    /// Queues `m` (waiting while the queue is full), or hands it back when
    /// there is no thread to take it.
    fn send(&self, m: Migration) -> Result<(), Migration> {
        match &self.thread {
            Some((jobs, _)) => jobs.send(m).map_err(|e| e.0),
            None => Err(m),
        }
    }

    /// Waits for every queued migration to be published.
    fn join(self) -> FlushTally {
        let Some((jobs, handle)) = self.thread else { return FlushTally::default() };
        drop(jobs);
        handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// The body of an artifact holding `payload` under `key`.
fn artifact_body(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let strs = [&key.pattern, &key.task, &key.extractor];
    let key_len: usize = strs.iter().map(|s| 4 + s.len()).sum();
    let mut body = Vec::with_capacity(16 + key_len + payload.len());
    body.extend_from_slice(&key.kg_fingerprint.to_le_bytes());
    body.extend_from_slice(&key.params.to_le_bytes());
    for s in strs {
        body.extend_from_slice(&(s.len() as u32).to_le_bytes());
        body.extend_from_slice(s.as_bytes());
    }
    body.extend_from_slice(payload);
    body
}

/// Validate-before-load: the frame, then the format version, then the
/// key the body embeds, which is returned with the payload after it. A
/// partial or tampered artifact can never be mistaken for a subgraph: it
/// is `Corrupt` (damaged) or `Stale` (another format version).
fn read_artifact(bytes: &[u8]) -> Result<(CacheKey, &[u8]), CacheOutcome> {
    match read_framed(bytes, MAGIC) {
        Err(_) if bytes.starts_with(FORMAT_2_MAGIC) => Err(CacheOutcome::Stale),
        Err(_) => Err(CacheOutcome::Corrupt),
        Ok((version, _)) if version != FORMAT_VERSION => Err(CacheOutcome::Stale),
        Ok((_, body)) => split_body(body).ok_or(CacheOutcome::Corrupt),
    }
}

/// Splits an artifact body into its key and payload.
fn split_body(body: &[u8]) -> Option<(CacheKey, &[u8])> {
    let (kg_fingerprint, body) = body.split_first_chunk::<8>()?;
    let (params, mut body) = body.split_first_chunk::<8>()?;
    let mut strs = [String::new(), String::new(), String::new()];
    for s in &mut strs {
        let (len, rest) = body.split_first_chunk::<4>()?;
        let (text, rest) = rest.split_at_checked(u32::from_le_bytes(*len) as usize)?;
        *s = std::str::from_utf8(text).ok()?.to_owned();
        body = rest;
    }
    let [pattern, task, extractor] = strs;
    let key = CacheKey {
        kg_fingerprint: u64::from_le_bytes(*kg_fingerprint),
        pattern,
        task,
        extractor,
        params: u64::from_le_bytes(*params),
    };
    Some((key, body))
}

/// Opens `path` and reads all of it, keeping the handle.
fn read_file(path: &Path) -> io::Result<(fs::File, Vec<u8>)> {
    let mut file = fs::File::open(path)?;
    let len = file.metadata().map_or(0, |m| m.len() as usize);
    let mut bytes = Vec::with_capacity(len);
    file.read_to_end(&mut bytes)?;
    Ok((file, bytes))
}

/// Reads one artifact file once: its listing row, plus its key and
/// payload when it validates.
fn read_entry(path: &Path) -> (EntryInfo, Option<(CacheKey, Vec<u8>)>) {
    let bytes = fs::read(path).unwrap_or_default();
    let entry = read_artifact(&bytes).ok().map(|(key, payload)| (key, payload.to_vec()));
    let key = entry.as_ref().map(|(key, _)| key);
    let info = EntryInfo {
        file_name: path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default(),
        bytes: bytes.len() as u64,
        kg_fingerprint: key.map(|k| k.kg_fingerprint),
        params: key.map(|k| k.params),
        pattern: key.map(|k| k.pattern.clone()),
        task: key.map(|k| k.task.clone()),
        extractor: key.map(|k| k.extractor.clone()),
        version: key.map(|_| FORMAT_VERSION),
    };
    (info, entry)
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
        // What another version's writer publishes: a sound frame.
        let body = artifact_body(&k, b"old-version-payload");
        write_framed(&path, MAGIC, FORMAT_VERSION + 1, &body).unwrap();
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Stale);
        assert!(!path.exists(), "stale artifact is removed");
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Miss);
    }

    /// An artifact of format 2 as its writer left it: magic `KGTOSAA1`,
    /// version 2, the same body, and an FNV-1a trailer. It is another
    /// format, not damage: removed as stale, never quarantined.
    #[test]
    fn format_2_artifact_is_stale_not_corrupt() {
        let cache = ArtifactCache::open(tmpdir("format-2")).unwrap();
        let k = key("nc:Paper");
        let body = artifact_body(&k, b"format-2-payload");
        let mut old = [&FORMAT_2_MAGIC[..], &2u32.to_le_bytes(), &(body.len() as u64).to_le_bytes()]
            .concat();
        old.extend_from_slice(&body);
        old.extend_from_slice(&kgtosa_kg::fnv64(&old).to_le_bytes());
        let path = cache.artifact_path(&k);
        fs::write(&path, &old).unwrap();
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Stale);
        assert!(!path.exists(), "the old artifact leaves the slot");
        assert_eq!(cache.lookup(&k).outcome, CacheOutcome::Miss);
        assert_eq!(cache.disk_stats().unwrap(), DiskStats { entries: 0, bytes: 0, quarantined: 0 });
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
        // The clock is the artifacts' own mtimes: nothing else is on disk.
        let mut names: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        names.sort();
        assert_eq!(names, [cache.artifact_path(&ka), cache.artifact_path(&kc)]);
    }

    #[test]
    fn clear_removes_everything() {
        let cache = ArtifactCache::open(tmpdir("clear")).unwrap();
        cache.store(&key("a"), b"x").unwrap();
        cache.store(&key("b"), b"y").unwrap();
        // A marker an older cache kept as its LRU clock goes too.
        fs::write(cache.artifact_path(&key("a")).with_extension("touch"), b"").unwrap();
        assert_eq!(cache.clear().unwrap(), 2);
        assert_eq!(fs::read_dir(cache.dir()).unwrap().count(), 0);
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
    fn sweep_onto_the_same_fingerprint_keeps_migrated_entries() {
        let cache = ArtifactCache::open(tmpdir("sweep-same-fp")).unwrap();
        let (kept, dropped) = (key("nc:Paper"), key("nc:Venue"));
        cache.store(&kept, b"old-payload").unwrap();
        cache.store(&dropped, b"dropped-payload").unwrap();
        let report = cache
            .sweep_fingerprint(42, 42, |info, _| {
                if info.task.as_deref() == Some("nc:Paper") {
                    SweepAction::Migrate(b"new-payload".to_vec())
                } else {
                    SweepAction::Invalidate
                }
            })
            .unwrap();
        assert_eq!((report.migrated, report.invalidated, report.failed), (1, 1, 0));
        // The republished payload is what the key answers now.
        let hit = cache.lookup(&kept);
        assert_eq!(hit.outcome, CacheOutcome::Hit);
        assert_eq!(hit.payload.as_deref(), Some(&b"new-payload"[..]));
        assert_eq!(cache.lookup(&dropped).outcome, CacheOutcome::Miss);
        assert_eq!(cache.disk_stats().unwrap().entries, 1);
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

    /// Many migrations through the flusher under a byte budget: when the
    /// sweep returns, each is published (a hit with its payload), its old
    /// file is gone, no temp file is left, and each was stored once. The
    /// budget holds what the store held before the sweep, which a sweep
    /// never grows, so nothing is evicted.
    #[test]
    fn sweep_publishes_every_migration_before_it_returns() {
        let cache = ArtifactCache::open(tmpdir("sweep-many")).unwrap();
        let keys: Vec<CacheKey> = (0..24).map(|i| key(&format!("nc:C{i:02}"))).collect();
        let payload = |k: &CacheKey| format!("payload of {}", k.task).repeat(40).into_bytes();
        for k in &keys {
            cache.store(k, &payload(k)).unwrap();
        }
        let budget = cache.disk_stats().unwrap().bytes;
        let cache = cache.with_budget(budget);
        let stores_before = cache.stats().stores.load(Ordering::Relaxed);
        // Every third entry is invalidated, the rest migrate.
        let dropped = |task: &str| task[4..].parse::<usize>().unwrap() % 3 == 0;
        let report = cache
            .sweep_fingerprint(42, 43, |info, p| match info.task.as_deref() {
                Some(task) if dropped(task) => SweepAction::Invalidate,
                _ => SweepAction::Migrate(p),
            })
            .unwrap();
        assert_eq!((report.scanned, report.migrated, report.invalidated), (24, 16, 8));
        assert_eq!((report.failed, report.skipped), (0, 0));
        assert_eq!(cache.stats().stores.load(Ordering::Relaxed) - stores_before, 16);
        assert_eq!(cache.stats().evictions.load(Ordering::Relaxed), 0);
        assert_no_tmp_files(&cache);
        for k in &keys {
            let migrated = CacheKey { kg_fingerprint: 43, ..k.clone() };
            let hit = cache.lookup(&migrated);
            if dropped(&k.task) {
                assert_eq!(hit.outcome, CacheOutcome::Miss, "{}", k.task);
            } else {
                assert_eq!(hit.outcome, CacheOutcome::Hit, "{}", k.task);
                assert_eq!(hit.payload.as_deref(), Some(&payload(k)[..]));
            }
            assert_eq!(cache.lookup(k).outcome, CacheOutcome::Miss, "old file of {}", k.task);
        }
        assert_eq!(cache.disk_stats().unwrap().entries, 16);
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
