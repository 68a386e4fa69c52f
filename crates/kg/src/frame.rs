//! The one checksummed container the system's files share.
//!
//! The artifact cache (`kgtosa-cache`) and the trainers' checkpoints
//! (`kgtosa-models`) write their bodies through [`write_framed`] and read
//! them back through [`read_framed`]. Layout (little-endian):
//!
//! ```text
//! magic [u8; 8] | version u32 | body_len u64 | body | fnv64(magic … body) u64
//! ```
//!
//! The checksum covers the header as well as the body, so no byte of a
//! file is trusted unchecked, and the declared length must equal what the
//! file holds, so a forged one never sizes anything. What a version means
//! is the caller's business: a frame that checks out is returned whatever
//! its version says.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fingerprint::{fnv64, Fnv64};

/// Bytes before the body: magic, version, body length.
const HEADER: usize = 8 + 4 + 8;
/// Bytes after the body: the checksum.
const TRAILER: usize = 8;

/// Atomically replaces `path` with a frame holding `body`.
///
/// Every call writes its own temp file next to `path`
/// (`<stem>.<pid>-<n>.<ext>.tmp`), so writers of one path never share a
/// half-written file. The temp file is synced before the rename publishes
/// it — a reader sees the old frame or the new one, never a torn one — and
/// removed if any step fails.
pub fn write_framed(path: &Path, magic: &[u8; 8], version: u32, body: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ext = path.extension().unwrap_or_default().to_string_lossy();
    let tmp = path.with_extension(format!("{}-{seq}.{ext}.tmp", std::process::id()));
    let mut header = [0u8; HEADER];
    header[..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&(body.len() as u64).to_le_bytes());
    let mut sum = Fnv64::new();
    sum.update(&header);
    sum.update(body);
    let publish = || -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(body)?;
        f.write_all(&sum.finish().to_le_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    };
    publish().inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Checks a frame written by [`write_framed`] with `magic` and returns its
/// version and body. Only borrows: nothing is allocated for the declared
/// length, which is compared with the bytes present before the checksum
/// is taken over everything ahead of it.
pub fn read_framed<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> io::Result<(u32, &'a [u8])> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if bytes.get(..magic.len()) != Some(magic.as_slice()) {
        return Err(bad("bad magic"));
    }
    let Some(framed_len) = bytes.len().checked_sub(TRAILER).filter(|&n| n >= HEADER) else {
        return Err(bad("truncated frame"));
    };
    let (framed, sum) = bytes.split_at(framed_len);
    let (header, body) = framed.split_at(HEADER);
    if u64::from_le_bytes(le(&header[12..])) != body.len() as u64 {
        return Err(bad("frame length does not match the file"));
    }
    if fnv64(framed) != u64::from_le_bytes(le(sum)) {
        return Err(bad("frame checksum mismatch"));
    }
    Ok((u32::from_le_bytes(le(&header[8..12])), body))
}

/// A fixed-width field of a slice already cut to that width.
fn le<const N: usize>(field: &[u8]) -> [u8; N] {
    field.try_into().expect("a field cut to its width")
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"KGTOSAT1";

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kgtosa-frame-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn no_temp_files(dir: &Path) -> bool {
        fs::read_dir(dir)
            .unwrap()
            .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
    }

    /// `body` framed as `write_framed` leaves it on disk.
    fn framed(tag: &str, version: u32, body: &[u8]) -> Vec<u8> {
        let dir = temp_dir(tag);
        let path = dir.join("entry.kgc");
        write_framed(&path, MAGIC, version, body).unwrap();
        assert!(no_temp_files(&dir), "temp file left behind");
        let bytes = fs::read(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    #[test]
    fn roundtrip_returns_version_and_body_under_its_own_magic() {
        for (version, body) in [(1, &b"first body"[..]), (2, &b""[..])] {
            let bytes = framed("roundtrip", version, body);
            assert_eq!(bytes.len(), HEADER + body.len() + TRAILER);
            assert_eq!(read_framed(&bytes, MAGIC).unwrap(), (version, body));
            assert!(read_framed(&bytes, b"KGTOSAX1").is_err(), "another container's magic");
        }
    }

    /// Magic, version, length, body and checksum: no flipped bit, no
    /// prefix and no padding is trusted.
    #[test]
    fn every_bit_flip_and_truncation_is_rejected() {
        let good = framed("hostile", 7, b"twenty-one body bytes");
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(read_framed(&bad, MAGIC).is_err(), "flipped bit {bit} was trusted");
        }
        for len in 0..good.len() {
            assert!(read_framed(&good[..len], MAGIC).is_err(), "prefix of {len} bytes trusted");
        }
        assert!(read_framed(&[&good[..], &[0]].concat(), MAGIC).is_err(), "padding trusted");
    }

    /// A forged length is rejected by the length bound alone: the checksum
    /// is recomputed over it. `read_framed` only borrows, so there is
    /// nothing the length could size.
    #[test]
    fn forged_lengths_are_rejected_without_allocating() {
        let good = framed("lengths", 7, b"twenty-one body bytes");
        let framed_len = good.len() - TRAILER;
        for forged in [u64::MAX, u64::MAX - 7, good.len() as u64] {
            let mut bad = good.clone();
            bad[12..20].copy_from_slice(&forged.to_le_bytes());
            let sum = fnv64(&bad[..framed_len]);
            bad[framed_len..].copy_from_slice(&sum.to_le_bytes());
            assert!(read_framed(&bad, MAGIC).is_err(), "body_len {forged} was trusted");
        }
    }
}
