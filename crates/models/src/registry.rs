//! Checkpoint discovery for the serving layer.
//!
//! `kgtosa serve` answers `/infer` against trained models it finds on
//! disk, addressed by the config+dataset *fingerprint* their trainer
//! stamped into the `KGTOSAC1` header (see [`crate::checkpoint`]). A
//! [`CheckpointRegistry`] scans a directory once at startup, keeps the
//! cheap headers ([`CheckpointInfo`]) of every valid file, and loads the
//! full state blob lazily per request via [`read_validated_state`] — the
//! checksum is re-verified on every load, so a file corrupted after the
//! scan is rejected, never served.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::checkpoint::parse_checkpoint_bytes;
use crate::common::TracePoint;

/// The header of one valid checkpoint file — everything `/infer` routing
/// needs without the (potentially large) state blob.
#[derive(Debug, Clone)]
pub struct CheckpointInfo {
    /// Where the file lives.
    pub path: PathBuf,
    /// Method label recovered from the file stem (`RGCN.ckpt` → `RGCN`;
    /// sanitization at save time means `GraphSAINT+BRW` reads back as
    /// `GraphSAINT-BRW`).
    pub method: String,
    /// The trainer's config+dataset fingerprint — the identity clients
    /// address models by.
    pub fingerprint: u64,
    /// Last fully-completed epoch recorded in the file.
    pub completed_epoch: usize,
    /// Size of the state blob in bytes.
    pub state_len: usize,
    /// Final convergence-trace point, if the trainer recorded any.
    pub last_metric: Option<f64>,
}

fn method_from_path(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Parses the header of one checkpoint file (checksum verified, state
/// discarded). Errors on missing files, bad magic, or corruption.
pub fn inspect_checkpoint(path: impl AsRef<Path>) -> io::Result<CheckpointInfo> {
    let path = path.as_ref();
    let bytes = fs::read(path)?;
    let raw = parse_checkpoint_bytes(&bytes)?;
    Ok(CheckpointInfo {
        path: path.to_path_buf(),
        method: method_from_path(path),
        fingerprint: raw.fingerprint,
        completed_epoch: raw.completed_epoch,
        state_len: raw.state.len(),
        last_metric: raw.trace.last().map(|p: &TracePoint| p.metric),
    })
}

/// Reads one checkpoint file and returns its header plus the state blob,
/// re-verifying the checksum. This is the load path for `/infer`.
pub fn read_validated_state(path: impl AsRef<Path>) -> io::Result<(CheckpointInfo, Vec<u8>)> {
    let path = path.as_ref();
    let bytes = fs::read(path)?;
    let raw = parse_checkpoint_bytes(&bytes)?;
    let info = CheckpointInfo {
        path: path.to_path_buf(),
        method: method_from_path(path),
        fingerprint: raw.fingerprint,
        completed_epoch: raw.completed_epoch,
        state_len: raw.state.len(),
        last_metric: raw.trace.last().map(|p| p.metric),
    };
    let state = raw.state.to_vec();
    Ok((info, state))
}

/// A directory of trained checkpoints indexed for serving.
#[derive(Debug, Default)]
pub struct CheckpointRegistry {
    entries: Vec<CheckpointInfo>,
    skipped: usize,
}

impl CheckpointRegistry {
    /// Scans `dir` for `*.ckpt` files, keeping every one that parses and
    /// checksums clean. Unparseable files are counted ([`Self::skipped`])
    /// and logged, not fatal — one corrupt file must not take down the
    /// daemon. Entries are sorted by method name so registry order (and
    /// everything derived from it) is independent of directory iteration
    /// order.
    pub fn scan(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let mut entries = Vec::new();
        let mut skipped = 0usize;
        let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
            .collect();
        paths.sort();
        for path in paths {
            match inspect_checkpoint(&path) {
                Ok(info) => entries.push(info),
                Err(e) => {
                    skipped += 1;
                    kgtosa_obs::info!("registry: skipping {}: {e}", path.display());
                }
            }
        }
        entries.sort_by(|a, b| a.method.cmp(&b.method));
        Ok(Self { entries, skipped })
    }

    /// All valid checkpoints found, sorted by method.
    pub fn entries(&self) -> &[CheckpointInfo] {
        &self.entries
    }

    /// How many files failed to parse during the scan.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Looks a model up by the fingerprint its trainer stamped.
    pub fn by_fingerprint(&self, fingerprint: u64) -> Option<&CheckpointInfo> {
        self.entries.iter().find(|e| e.fingerprint == fingerprint)
    }

    /// Looks a model up by method label (file stem).
    pub fn by_method(&self, method: &str) -> Option<&CheckpointInfo> {
        self.entries.iter().find(|e| e.method == method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::common::TrainConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgtosa-reg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn train_toy_into(dir: &Path) -> crate::common::TrainReport {
        let (kg, labels, papers) = crate::testutil::toy_nc(20);
        let graph = kgtosa_kg::HeteroGraph::build(&kg);
        let (train, rest) = papers.split_at(12);
        let (valid, test) = rest.split_at(4);
        let data = crate::common::NcDataset {
            kg: &kg,
            graph: &graph,
            labels: &labels,
            num_labels: 2,
            train,
            valid,
            test,
        };
        let cfg = TrainConfig {
            epochs: 5,
            dim: 8,
            lr: 0.05,
            checkpoint: Some(CheckpointConfig::new(dir)),
            ..Default::default()
        };
        crate::rgcn_nc::train_rgcn_nc(&data, &cfg)
    }

    #[test]
    fn scan_indexes_trained_checkpoints() {
        let dir = temp_dir("scan");
        let report = train_toy_into(&dir);
        // A non-checkpoint file and a corrupt .ckpt must both be ignored.
        fs::write(dir.join("notes.txt"), b"not a checkpoint").unwrap();
        fs::write(dir.join("broken.ckpt"), b"KGTOSAC1 but then garbage").unwrap();

        let reg = CheckpointRegistry::scan(&dir).unwrap();
        assert_eq!(reg.entries().len(), 1, "only the valid RGCN checkpoint");
        assert_eq!(reg.skipped(), 1, "the corrupt .ckpt is counted");
        let info = reg.by_method("RGCN").expect("RGCN indexed");
        assert_eq!(info.completed_epoch, 5);
        assert!(info.state_len > 0);
        assert!(info.last_metric.is_some());
        assert!(reg.by_fingerprint(info.fingerprint).is_some());
        assert!(reg.by_fingerprint(info.fingerprint ^ 1).is_none());

        // The serving load path returns the exact state the trainer saved.
        let (info2, state) = read_validated_state(&info.path).unwrap();
        assert_eq!(info2.fingerprint, info.fingerprint);
        assert_eq!(state.len(), info.state_len);
        // param_hash fingerprints the same bytes the final save wrote.
        let fp = crate::checkpoint::state_fingerprint(|w| w.write_all(&state));
        assert_eq!(fp, report.param_hash, "saved state is the reported final state");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_after_scan_is_caught_at_load() {
        let dir = temp_dir("late-corrupt");
        train_toy_into(&dir);
        let reg = CheckpointRegistry::scan(&dir).unwrap();
        let info = reg.by_method("RGCN").unwrap();
        let mut bytes = fs::read(&info.path).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0xff;
        fs::write(&info.path, &bytes).unwrap();
        assert!(read_validated_state(&info.path).is_err(), "checksum re-verified per load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_missing_dir_errors() {
        assert!(CheckpointRegistry::scan("/nonexistent/kgtosa-reg").is_err());
    }
}
