//! Epoch checkpoint/resume for the trainers.
//!
//! Every trainer owns a small set of mutable training state — model
//! parameters, optimizer moments, the RNG stream, and (for the shuffling
//! methods) the current permutation of the training set. A [`Checkpointer`]
//! snapshots all of it at a configurable epoch interval so a killed run can
//! resume from the last completed epoch and finish with *bit-identical*
//! weights to an uninterrupted run (the repo's determinism contract, see
//! DESIGN.md).
//!
//! On-disk format (`<dir>/<method>.ckpt`): a [`kgtosa_kg::frame`] with
//! magic `KGTOSAC3` and version 3, whose body is
//!
//! ```text
//! fingerprint u64 | completed_epoch u64
//! | trace count u64 | {epoch u64, elapsed_s f64, metric f64}*
//! | state bytes (the rest of the body)
//! ```
//!
//! The fingerprint binds the file to the hyperparameters and dataset shape
//! that produced it, and the frame's checksum covers every byte; a
//! mismatched or corrupt checkpoint, or one of another version, is
//! *ignored* with a warning (training restarts from scratch), never
//! silently loaded. The frame's atomic publish means a crash mid-save, or
//! a racing save, leaves a whole checkpoint behind. A `KGTOSAC2` file is
//! this layout in the frame's earlier FNV-1a-checksummed form; it no longer
//! parses, so it too is ignored.

use std::fs;
use std::io::{self, Read, Write};
use std::path::PathBuf;

use kgtosa_kg::{read_framed, write_framed, Fnv64, HashingWriter, Rid, Triple, Vid};
use kgtosa_tensor::state::{read_u64, write_u64};
use rand::rngs::StdRng;

use crate::common::{LpDataset, NcDataset, TracePoint, TrainConfig};

const MAGIC: &[u8; 8] = b"KGTOSAC3";
/// Frame version of the body layout above.
const VERSION: u32 = 3;
/// Serialized size of one trace point.
const TRACE_POINT_BYTES: usize = 24;

/// Where and how often trainers snapshot their state.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding one `<method>.ckpt` file per trainer.
    pub dir: PathBuf,
    /// Save every `interval` epochs (the final epoch always saves).
    pub interval: usize,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` after every epoch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), interval: 1 }
    }
}

/// Hashes whatever `save` writes, without materializing the bytes. Trainers
/// use this to stamp [`crate::TrainReport::param_hash`]: two runs ended in
/// bit-identical state if and only if their fingerprints match.
pub fn state_fingerprint(save: impl FnOnce(&mut dyn Write) -> io::Result<()>) -> u64 {
    let mut w = HashingWriter::new(io::sink());
    save(&mut w).expect("hashing into a sink cannot fail");
    w.finish()
}

/// FNV-1a over `prefix`, then each of `words` little-endian.
fn hash_words(prefix: &[u8], words: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.update(prefix);
    for w in words {
        h.update(&w.to_le_bytes());
    }
    h.finish()
}

/// Hash of the dataset shape an NC trainer's state depends on, folded into
/// the checkpoint fingerprint so a file from a different graph is rejected
/// before any state is overwritten.
pub(crate) fn nc_data_key(data: &NcDataset<'_>) -> u64 {
    let (g, labels, train) = (data.graph, data.num_labels, data.train.len());
    hash_words(&[], &[g.num_nodes() as u64, g.num_relations() as u64, labels as u64, train as u64])
}

/// LP counterpart of [`nc_data_key`].
pub(crate) fn lp_data_key(data: &LpDataset<'_>) -> u64 {
    let (g, train) = (data.graph, data.train.len());
    hash_words(&[], &[g.num_nodes() as u64, g.num_relations() as u64, train as u64])
}

/// Binds a checkpoint to the run that may resume it. Deliberately excludes
/// `epochs`: a run killed at epoch `k` is resumed by re-invoking with the
/// same config, and the target epoch count is the one thing the caller may
/// legitimately extend.
fn config_fingerprint(cfg: &TrainConfig, method: &str, data_key: u64) -> u64 {
    let (lr, margin) = (cfg.lr.to_bits() as u64, cfg.margin.to_bits() as u64);
    let (dim, batch, negatives) = (cfg.dim as u64, cfg.batch_size as u64, cfg.negatives as u64);
    hash_words(method.as_bytes(), &[dim, cfg.seed, lr, batch, negatives, margin, data_key])
}

/// Filesystem-safe checkpoint file stem for a method label
/// (`GraphSAINT+BRW` → `GraphSAINT-BRW`).
fn sanitize(method: &str) -> String {
    method
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// A checkpoint file parsed and checksum-verified, but not yet bound to
/// any particular run's config fingerprint. The serving layer's
/// [`crate::registry`] works at this level: it trusts the checksum for
/// integrity and the fingerprint for identity, without needing the
/// originating [`TrainConfig`].
#[derive(Debug)]
pub struct RawCheckpoint<'a> {
    /// Config+dataset fingerprint the trainer stamped at save time.
    pub fingerprint: u64,
    /// Last fully-completed epoch.
    pub completed_epoch: usize,
    /// Convergence trace up to that epoch.
    pub trace: Vec<TracePoint>,
    /// The opaque trainer state blob.
    pub state: &'a [u8],
}

/// Parses checkpoint `bytes`: the frame (magic, length, checksum), its
/// version, then header, trace and state blob. Does *not* compare the
/// fingerprint against anything — callers decide what identity means.
pub fn parse_checkpoint_bytes(bytes: &[u8]) -> io::Result<RawCheckpoint<'_>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let (version, mut r) = read_framed(bytes, MAGIC)?;
    if version != VERSION {
        return Err(bad("unsupported checkpoint version"));
    }
    let fingerprint = read_u64(&mut r)?;
    let completed_epoch = read_u64(&mut r)? as usize;
    let count = read_u64(&mut r)?;
    if count > (r.len() / TRACE_POINT_BYTES) as u64 {
        return Err(bad("trace count exceeds the body"));
    }
    let mut trace = Vec::with_capacity(count as usize);
    for _ in 0..count {
        trace.push(TracePoint {
            epoch: read_u64(&mut r)? as usize,
            elapsed_s: f64::from_bits(read_u64(&mut r)?),
            metric: f64::from_bits(read_u64(&mut r)?),
        });
    }
    Ok(RawCheckpoint { fingerprint, completed_epoch, trace, state: r })
}

/// Per-trainer checkpoint driver: resolves the file path, validates resume
/// candidates, and performs atomic interval saves.
pub struct Checkpointer {
    path: PathBuf,
    interval: usize,
    fingerprint: u64,
}

impl Checkpointer {
    /// Builds the driver when `cfg.checkpoint` is set; `None` disables
    /// checkpointing entirely (the trainers' zero-cost default).
    pub(crate) fn from_cfg(cfg: &TrainConfig, method: &str, data_key: u64) -> Option<Self> {
        let ck = cfg.checkpoint.as_ref()?;
        Some(Self {
            path: ck.dir.join(format!("{}.ckpt", sanitize(method))),
            interval: ck.interval.max(1),
            fingerprint: config_fingerprint(cfg, method, data_key),
        })
    }

    /// Attempts to resume from the checkpoint file. On success `load` has
    /// restored the trainer's state and the completed epoch index plus the
    /// recorded convergence trace are returned. A missing, mismatched, or
    /// corrupt file logs a warning and returns `None` — `load` is only
    /// invoked after the frame, version, and fingerprint all pass,
    /// so trainer state is never partially overwritten by a bad file.
    pub(crate) fn resume(
        &self,
        load: impl FnOnce(&mut dyn Read) -> io::Result<()>,
    ) -> Option<(usize, Vec<TracePoint>)> {
        let bytes = match fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                kgtosa_obs::info!("checkpoint {} unreadable, starting fresh: {e}", self.path.display());
                return None;
            }
        };
        let (epoch, trace, state) = match self.parse(&bytes) {
            Ok(v) => v,
            Err(e) => {
                kgtosa_obs::info!("checkpoint {} ignored, starting fresh: {e}", self.path.display());
                return None;
            }
        };
        let mut r: &[u8] = state;
        // The fingerprint pins every shape this state was saved under, so a
        // load failure here means the serialization format itself changed —
        // fail loudly rather than train from scrambled state.
        load(&mut r).unwrap_or_else(|e| {
            panic!(
                "checkpoint {} matches this run's config but failed to load ({e}); \
                 delete the file to start fresh",
                self.path.display()
            )
        });
        kgtosa_obs::counter("train.checkpoint.resumes").inc();
        kgtosa_obs::info!(
            "resumed from checkpoint {} at epoch {epoch}",
            self.path.display()
        );
        Some((epoch, trace))
    }

    fn parse<'a>(&self, bytes: &'a [u8]) -> io::Result<(usize, Vec<TracePoint>, &'a [u8])> {
        let raw = parse_checkpoint_bytes(bytes)?;
        if raw.fingerprint != self.fingerprint {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "config/dataset fingerprint mismatch",
            ));
        }
        Ok((raw.completed_epoch, raw.trace, raw.state))
    }

    /// Saves after epoch `epoch` (1-based) when the interval or the final
    /// epoch says so. Save failures are warnings — a broken disk should
    /// degrade durability, not kill a training run.
    pub(crate) fn maybe_save(
        &self,
        epoch: usize,
        total: usize,
        trace: &[TracePoint],
        save: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) {
        if !epoch.is_multiple_of(self.interval) && epoch != total {
            return;
        }
        if let Err(e) = self.save(epoch, trace, save) {
            kgtosa_obs::info!("checkpoint save to {} failed: {e}", self.path.display());
        } else {
            kgtosa_obs::counter("train.checkpoint.saves").inc();
        }
    }

    fn save(
        &self,
        epoch: usize,
        trace: &[TracePoint],
        save: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut body = Vec::with_capacity(24 + trace.len() * TRACE_POINT_BYTES);
        write_u64(&mut body, self.fingerprint)?;
        write_u64(&mut body, epoch as u64)?;
        write_u64(&mut body, trace.len() as u64)?;
        for p in trace {
            write_u64(&mut body, p.epoch as u64)?;
            write_u64(&mut body, p.elapsed_s.to_bits())?;
            write_u64(&mut body, p.metric.to_bits())?;
        }
        save(&mut body)?;
        if let Some(dir) = self.path.parent() {
            fs::create_dir_all(dir)?;
        }
        write_framed(&self.path, MAGIC, VERSION, &body)
    }
}

// ---- serialization helpers for non-tensor trainer state -----------------

/// Saves the RNG stream position (xoshiro256++ state words).
pub(crate) fn write_rng(w: &mut dyn Write, rng: &StdRng) -> io::Result<()> {
    for v in rng.state() {
        write_u64(w, v)?;
    }
    Ok(())
}

/// Restores an RNG saved by [`write_rng`].
pub(crate) fn read_rng(r: &mut dyn Read, rng: &mut StdRng) -> io::Result<()> {
    let mut s = [0u64; 4];
    for v in &mut s {
        *v = read_u64(r)?;
    }
    *rng = StdRng::from_state(s);
    Ok(())
}

/// Saves a shuffled training-triple order (the LP trainers shuffle in
/// place across epochs, so the permutation is part of the resumable state).
pub(crate) fn write_triples(w: &mut dyn Write, triples: &[Triple]) -> io::Result<()> {
    write_u64(w, triples.len() as u64)?;
    for t in triples {
        w.write_all(&t.s.raw().to_le_bytes())?;
        w.write_all(&t.p.raw().to_le_bytes())?;
        w.write_all(&t.o.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Restores a triple order saved by [`write_triples`] into a buffer of the
/// same length.
pub(crate) fn read_triples_into(r: &mut dyn Read, triples: &mut [Triple]) -> io::Result<()> {
    let got = read_u64(r)?;
    if got != triples.len() as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint triple count mismatch: stored {got}, expected {}", triples.len()),
        ));
    }
    let mut b = [0u8; 4];
    for t in triples.iter_mut() {
        r.read_exact(&mut b)?;
        t.s = Vid(u32::from_le_bytes(b));
        r.read_exact(&mut b)?;
        t.p = Rid(u32::from_le_bytes(b));
        r.read_exact(&mut b)?;
        t.o = Vid(u32::from_le_bytes(b));
    }
    Ok(())
}

/// Saves a shuffled node order (ShaDowSAINT's cumulative epoch shuffle).
pub(crate) fn write_vids(w: &mut dyn Write, vids: &[Vid]) -> io::Result<()> {
    write_u64(w, vids.len() as u64)?;
    for v in vids {
        w.write_all(&v.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Restores a node order saved by [`write_vids`].
pub(crate) fn read_vids_into(r: &mut dyn Read, vids: &mut [Vid]) -> io::Result<()> {
    let got = read_u64(r)?;
    if got != vids.len() as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint node count mismatch: stored {got}, expected {}", vids.len()),
        ));
    }
    let mut b = [0u8; 4];
    for v in vids.iter_mut() {
        r.read_exact(&mut b)?;
        *v = Vid(u32::from_le_bytes(b));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kgtosa-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg_with(dir: &std::path::Path) -> TrainConfig {
        TrainConfig {
            checkpoint: Some(CheckpointConfig::new(dir)),
            ..Default::default()
        }
    }

    #[test]
    fn roundtrip_restores_epoch_trace_and_state() {
        let dir = temp_dir("roundtrip");
        let cfg = cfg_with(&dir);
        let ck = Checkpointer::from_cfg(&cfg, "RGCN", 42).unwrap();
        let state = vec![1.0f32, -2.5, 3.25];
        let trace = vec![TracePoint { epoch: 1, elapsed_s: 0.5, metric: 0.75 }];
        ck.maybe_save(1, 10, &trace, |w| {
            kgtosa_tensor::state::write_f32s(w, &state)
        });
        let mut restored = vec![0.0f32; 3];
        let (epoch, t) = ck
            .resume(|r| kgtosa_tensor::state::read_f32s_into(r, &mut restored))
            .unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].metric, 0.75);
        assert_eq!(restored, state);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_skips_between_saves_but_final_epoch_saves() {
        let dir = temp_dir("interval");
        let mut cfg = cfg_with(&dir);
        cfg.checkpoint.as_mut().unwrap().interval = 4;
        let ck = Checkpointer::from_cfg(&cfg, "RGCN", 0).unwrap();
        ck.maybe_save(3, 10, &[], |_| Ok(()));
        assert!(ck.resume(|_| Ok(())).is_none(), "epoch 3 must not save at interval 4");
        ck.maybe_save(10, 10, &[], |_| Ok(()));
        assert_eq!(ck.resume(|_| Ok(())).unwrap().0, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_config_or_corruption_is_ignored() {
        let dir = temp_dir("mismatch");
        let cfg = cfg_with(&dir);
        let ck = Checkpointer::from_cfg(&cfg, "RGCN", 1).unwrap();
        ck.maybe_save(2, 10, &[], |w| write_u64(w, 7));
        // Different dataset key → different fingerprint → fresh start.
        let other = Checkpointer::from_cfg(&cfg, "RGCN", 2).unwrap();
        assert!(other.resume(|_| Ok(())).is_none());
        // Different seed likewise.
        let seeded = TrainConfig { seed: 99, ..cfg_with(&dir) };
        let ck2 = Checkpointer::from_cfg(&seeded, "RGCN", 1).unwrap();
        assert!(ck2.resume(|_| Ok(())).is_none());
        // Flip a state byte: checksum must reject before load runs.
        let path = dir.join("RGCN.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(ck.resume(|_| panic!("load must not run on corrupt state")).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two declared lengths place the state blob: the frame's body length
    /// (the state is the rest of the body) and the trace count ahead of it.
    /// Forged ones are errors, even inside a frame whose checksum holds.
    #[test]
    fn forged_state_length_is_an_error() {
        let dir = temp_dir("forged-len");
        let ck = Checkpointer::from_cfg(&cfg_with(&dir), "RGCN", 3).unwrap();
        ck.maybe_save(1, 10, &[], |w| write_u64(w, 7));
        let path = dir.join("RGCN.ckpt");
        let bytes = fs::read(&path).unwrap();
        assert!(parse_checkpoint_bytes(&bytes).is_ok());
        let body = read_framed(&bytes, MAGIC).unwrap().1.to_vec();
        for forged in [u64::MAX, u64::MAX - 7, bytes.len() as u64] {
            // The body length follows the magic and the version.
            let mut bad = bytes.clone();
            bad[12..20].copy_from_slice(&forged.to_le_bytes());
            assert!(parse_checkpoint_bytes(&bad).is_err(), "body length {forged}");
            // The trace count follows the fingerprint and the epoch.
            let mut bad = body.clone();
            bad[16..24].copy_from_slice(&forged.to_le_bytes());
            write_framed(&path, MAGIC, VERSION, &bad).unwrap();
            assert!(parse_checkpoint_bytes(&fs::read(&path).unwrap()).is_err(), "count {forged}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_header_and_trace_bit_is_checksummed() {
        let dir = temp_dir("header-bits");
        let ck = Checkpointer::from_cfg(&cfg_with(&dir), "RGCN", 4).unwrap();
        let trace = [
            TracePoint { epoch: 1, elapsed_s: 0.5, metric: 0.25 },
            TracePoint { epoch: 2, elapsed_s: 1.0, metric: 0.75 },
        ];
        ck.maybe_save(2, 10, &trace, |w| write_u64(w, 7));
        let bytes = fs::read(dir.join("RGCN.ckpt")).unwrap();
        assert!(parse_checkpoint_bytes(&bytes).is_ok());
        // The frame header (magic, version, body length), fingerprint,
        // completed_epoch, trace count and two trace points: everything
        // before the state blob.
        let header_and_trace = 20 + 3 * 8 + trace.len() * TRACE_POINT_BYTES;
        for bit in 0..header_and_trace * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(parse_checkpoint_bytes(&bad).is_err(), "flipped bit {bit} was trusted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint whose frame carries the FNV-1a trailer saves wrote
    /// before the frame moved to XXH64 (magic `KGTOSAC2`, the same version
    /// and body) starts the trainer fresh and is skipped by the serving
    /// registry, even when its fingerprint matches the run.
    #[test]
    fn fnv_framed_checkpoint_starts_fresh() {
        let dir = temp_dir("fnv-frame");
        let ck = Checkpointer::from_cfg(&cfg_with(&dir), "RGCN", 7).unwrap();
        ck.maybe_save(1, 10, &[], |w| write_u64(w, 7));
        let path = dir.join("RGCN.ckpt");
        let bytes = fs::read(&path).unwrap();
        let body = read_framed(&bytes, MAGIC).unwrap().1;
        let mut old = [&b"KGTOSAC2"[..], &VERSION.to_le_bytes(), &(body.len() as u64).to_le_bytes()]
            .concat();
        old.extend_from_slice(body);
        old.extend_from_slice(&kgtosa_kg::fnv64(&old).to_le_bytes());
        fs::write(&path, &old).unwrap();

        assert!(parse_checkpoint_bytes(&old).is_err());
        assert!(ck.resume(|_| panic!("load must not run on an FNV-framed file")).is_none());
        let reg = crate::registry::CheckpointRegistry::scan(&dir).unwrap();
        assert_eq!((reg.entries().len(), reg.skipped()), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: every save of one checkpoint used to write the same
    /// temp file, so racing saves could publish each other's half-written
    /// bytes.
    #[test]
    fn racing_saves_never_publish_a_torn_checkpoint() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        let dir = temp_dir("race");
        let ck = Checkpointer::from_cfg(&cfg_with(&dir), "RGCN", 6).unwrap();
        let state: Vec<f32> = (0..64 * 1024).map(|i| i as f32).collect();
        let save = |w: &mut dyn Write| kgtosa_tensor::state::write_f32s(w, &state);
        let (start, done) = (Barrier::new(4), AtomicBool::new(false));
        let torn = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..20).for_each(|_| ck.maybe_save(1, 1, &[], save));
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                start.wait();
                let mut torn = 0usize;
                while !done.load(Ordering::SeqCst) {
                    // Once published, the file is always a whole checkpoint.
                    if let Ok(bytes) = fs::read(dir.join("RGCN.ckpt")) {
                        torn += usize::from(parse_checkpoint_bytes(&bytes).is_err());
                    }
                }
                torn
            });
            writers.into_iter().for_each(|w| w.join().unwrap());
            done.store(true, Ordering::SeqCst);
            reader.join().unwrap()
        });
        assert_eq!(torn, 0, "a read during racing saves saw a torn checkpoint");
        let mut restored = vec![0.0f32; state.len()];
        assert!(ck.resume(|r| kgtosa_tensor::state::read_f32s_into(r, &mut restored)).is_some());
        assert_eq!(restored, state);
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"), "{name:?} left behind");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_distinguishes_state() {
        let a = state_fingerprint(|w| write_u64(w, 1));
        let b = state_fingerprint(|w| write_u64(w, 2));
        let a2 = state_fingerprint(|w| write_u64(w, 1));
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn rng_and_order_helpers_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let _ = rng.next_u64();
        let triples = vec![
            Triple { s: Vid(1), p: Rid(2), o: Vid(3) },
            Triple { s: Vid(4), p: Rid(5), o: Vid(6) },
        ];
        let vids = vec![Vid(7), Vid(8)];
        let mut buf = Vec::new();
        write_rng(&mut buf, &rng).unwrap();
        write_triples(&mut buf, &triples).unwrap();
        write_vids(&mut buf, &vids).unwrap();

        let mut rng2 = StdRng::seed_from_u64(0);
        let mut t2 = vec![Triple { s: Vid(0), p: Rid(0), o: Vid(0) }; 2];
        let mut v2 = vec![Vid(0); 2];
        let mut r: &[u8] = &buf;
        read_rng(&mut r, &mut rng2).unwrap();
        read_triples_into(&mut r, &mut t2).unwrap();
        read_vids_into(&mut r, &mut v2).unwrap();
        assert_eq!(rng.next_u64(), rng2.next_u64());
        assert_eq!(t2, triples);
        assert_eq!(v2, vids);

        // Length mismatches are loud.
        let mut short = vec![Vid(0); 1];
        let mut r2: &[u8] = &buf[32..];
        read_triples_into(&mut r2, &mut t2).unwrap();
        assert!(read_vids_into(&mut r2, &mut short).is_err());
    }
}
