//! The one checksummed container the system's files share.
//!
//! The artifact cache (`kgtosa-cache`) and the trainers' checkpoints
//! (`kgtosa-models`) write their bodies through [`write_framed`] and read
//! them back through [`read_framed`]. A writer that has other work to do
//! while the disk syncs (the cache's delta sweep) takes the two steps of
//! [`write_framed`] apart: [`stage_framed`] writes the temp file, and
//! [`StagedFrame::publish`] syncs it and renames it into place. Layout
//! (little-endian):
//!
//! ```text
//! magic [u8; 8] | version u32 | body_len u64 | body | xxh64(magic … body) u64
//! ```
//!
//! The checksum covers the header as well as the body, so no byte of a
//! file is trusted unchecked, and the declared length must equal what the
//! file holds, so a forged one never sizes anything. What a version means
//! is the caller's business: a frame that checks out is returned whatever
//! its version says.
//!
//! The checksum is XXH64 (seed 0), not the FNV-1a the fingerprints use: it
//! reads four independent 8-byte lanes, so a warm cache hit checks its
//! artifact at memory speed rather than one multiply per byte, and its
//! round multiplies after the rotate, so one flipped bit has spread across
//! its lane before the next word arrives — two structured flips cannot
//! cancel the way they can in a word-wise FNV.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes before the body: magic, version, body length.
const HEADER: usize = 8 + 4 + 8;
/// Bytes after the body: the checksum.
const TRAILER: usize = 8;

/// Atomically replaces `path` with a frame holding `body`: [`stage_framed`]
/// and [`StagedFrame::publish`], one after the other.
pub fn write_framed(path: &Path, magic: &[u8; 8], version: u32, body: &[u8]) -> io::Result<()> {
    stage_framed(path, magic, version, body)?.publish()
}

/// Writes a frame holding `body` to a temp file of its own next to `path`
/// (`<stem>.<pid>-<n>.<ext>.tmp`), so writers of one path never share a
/// half-written file. Nothing is published until [`StagedFrame::publish`];
/// the temp file is removed if a write fails, and whenever the staged frame
/// is dropped unpublished.
pub fn stage_framed(
    path: &Path,
    magic: &[u8; 8],
    version: u32,
    body: &[u8],
) -> io::Result<StagedFrame> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let ext = path.extension().unwrap_or_default().to_string_lossy();
    let tmp = path.with_extension(format!("{}-{seq}.{ext}.tmp", std::process::id()));
    let mut header = [0u8; HEADER];
    header[..8].copy_from_slice(magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..].copy_from_slice(&(body.len() as u64).to_le_bytes());
    let mut sum = Xxh64::new();
    sum.update(&header);
    sum.update(body);
    let file = fs::File::create(&tmp)?;
    let staged = StagedFrame { file, tmp, path: path.to_owned(), published: false };
    let mut f = &staged.file;
    f.write_all(&header)?;
    f.write_all(body)?;
    f.write_all(&sum.finish().to_le_bytes())?;
    Ok(staged)
}

/// A frame written to its temp file by [`stage_framed`] and not yet
/// published.
#[derive(Debug)]
pub struct StagedFrame {
    file: fs::File,
    tmp: PathBuf,
    path: PathBuf,
    published: bool,
}

impl StagedFrame {
    /// The path [`Self::publish`] replaces.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Syncs the temp file, then renames it over the path: a reader sees
    /// the old frame or the new one, never a torn one. On an error the temp
    /// file is removed and the path left as it was.
    pub fn publish(mut self) -> io::Result<()> {
        self.file.sync_all()?;
        fs::rename(&self.tmp, &self.path)?;
        self.published = true;
        Ok(())
    }
}

impl Drop for StagedFrame {
    fn drop(&mut self) {
        if !self.published {
            let _ = fs::remove_file(&self.tmp);
        }
    }
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
    if xxh64(framed) != u64::from_le_bytes(le(sum)) {
        return Err(bad("frame checksum mismatch"));
    }
    Ok((u32::from_le_bytes(le(&header[8..12])), body))
}

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

/// XXH64 at seed 0, fed in pieces, as its specification defines it: four
/// lanes over each 32-byte stripe, merged, then the 8-, 4- and 1-byte
/// tails, then the avalanche.
struct Xxh64 {
    lanes: [u64; 4],
    /// The stripe in progress: its first `buffered` bytes.
    stripe: [u8; 32],
    buffered: usize,
    len: u64,
}

impl Xxh64 {
    fn new() -> Self {
        let lanes = [PRIME_1.wrapping_add(PRIME_2), PRIME_2, 0, PRIME_1.wrapping_neg()];
        Xxh64 { lanes, stripe: [0; 32], buffered: 0, len: 0 }
    }

    fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let n = bytes.len().min(32 - self.buffered);
            self.stripe[self.buffered..self.buffered + n].copy_from_slice(&bytes[..n]);
            self.buffered += n;
            bytes = &bytes[n..];
            if self.buffered < 32 {
                return;
            }
            let stripe = self.stripe;
            self.consume(&stripe);
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        stripes.for_each(|stripe| self.consume(stripe));
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn consume(&mut self, stripe: &[u8]) {
        for (lane, w) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = xxh_round(*lane, word(w));
        }
    }

    fn finish(&self) -> u64 {
        let mut h = if self.len >= 32 {
            let [v1, v2, v3, v4] = self.lanes;
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| {
                (h ^ xxh_round(0, lane)).wrapping_mul(PRIME_1).wrapping_add(PRIME_4)
            })
        } else {
            PRIME_5
        };
        h = h.wrapping_add(self.len);
        let words = self.stripe[..self.buffered].chunks_exact(8);
        let mut rest = words.remainder();
        for w in words {
            h ^= xxh_round(0, word(w));
            h = h.rotate_left(27).wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
        }
        if let Some((half, after)) = rest.split_first_chunk::<4>() {
            h ^= u64::from(u32::from_le_bytes(*half)).wrapping_mul(PRIME_1);
            h = h.rotate_left(23).wrapping_mul(PRIME_2).wrapping_add(PRIME_3);
            rest = after;
        }
        for &b in rest {
            h = (h ^ u64::from(b).wrapping_mul(PRIME_5)).rotate_left(11).wrapping_mul(PRIME_1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }
}

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2)).rotate_left(31).wrapping_mul(PRIME_1)
}

fn word(w: &[u8]) -> u64 {
    u64::from_le_bytes(le(w))
}

/// One-shot [`Xxh64`].
fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.finish()
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

    /// A staged frame is only a temp file: the path keeps its old frame
    /// until the publish, which leaves exactly what `write_framed` would.
    /// A staged frame dropped unpublished, or one whose rename fails,
    /// leaves no temp file behind.
    #[test]
    fn a_staged_frame_is_invisible_until_published() {
        let dir = temp_dir("staged");
        let path = dir.join("entry.kgc");
        write_framed(&path, MAGIC, 1, b"old body").unwrap();
        let staged = stage_framed(&path, MAGIC, 2, b"new body").unwrap();
        assert_eq!(staged.path(), path);
        assert!(!no_temp_files(&dir), "the staged frame is on disk");
        assert_eq!(read_framed(&fs::read(&path).unwrap(), MAGIC).unwrap(), (1, &b"old body"[..]));
        staged.publish().unwrap();
        assert!(no_temp_files(&dir));
        let published = fs::read(&path).unwrap();
        assert_eq!(published, framed("staged-ref", 2, b"new body"));

        drop(stage_framed(&path, MAGIC, 3, b"dropped body").unwrap());
        assert!(no_temp_files(&dir), "an unpublished frame leaves no temp file");
        assert_eq!(fs::read(&path).unwrap(), published);

        let squatted = dir.join("squatted.kgc");
        fs::create_dir(&squatted).unwrap();
        let staged = stage_framed(&squatted, MAGIC, 1, b"body").unwrap();
        assert!(staged.publish().is_err(), "a directory cannot be renamed over");
        assert!(no_temp_files(&dir), "a failed publish removes its temp file");
        fs::remove_dir_all(&dir).unwrap();
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

    /// The published XXH64 vectors, plus one long enough for the 4-lane
    /// path (bytes `0..100`: three stripes, then a 4-byte tail), computed
    /// from the specification's reference steps.
    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        let counting: Vec<u8> = (0..100).collect();
        assert_eq!(xxh64(&counting), 0x6ac1_e580_3216_6597);
    }

    /// Fed in pieces, the hash is the one-shot hash of their concatenation,
    /// wherever the cuts fall against the 32-byte stripes.
    #[test]
    fn xxh64_in_pieces_matches_one_shot() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 20, 31, 32, 33, 63, 64, 100, 200] {
            let whole = xxh64(&bytes[..len]);
            for cut in 0..=len {
                let mut h = Xxh64::new();
                h.update(&bytes[..cut]);
                h.update(&bytes[cut..len]);
                assert_eq!(h.finish(), whole, "length {len}, cut at {cut}");
            }
        }
    }

    /// Seeded bodies of 0–4 KiB: every length up to 80 bytes, whose frames
    /// (body + 20 header bytes) fall on each side of one to three 32-byte
    /// stripes with every 8-, 4- and 1-byte tail, then three random
    /// lengths and 4 KiB itself. No single flipped bit and no truncation
    /// of any of them is trusted.
    #[test]
    fn every_bit_flip_and_truncation_of_seeded_bodies_is_rejected() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let random: Vec<usize> = (0..3).map(|_| 81 + next() as usize % 4016).collect();
        let dir = temp_dir("seeded");
        let path = dir.join("entry.kgc");
        for len in (0..=80).chain(random).chain([4096]) {
            let body: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            write_framed(&path, MAGIC, 3, &body).unwrap();
            let good = fs::read(&path).unwrap();
            assert_eq!(read_framed(&good, MAGIC).unwrap(), (3, &body[..]));
            let mut bad = good.clone();
            for bit in 0..good.len() * 8 {
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(read_framed(&bad, MAGIC).is_err(), "body {len}: flipped bit {bit} trusted");
                bad[bit / 8] ^= 1 << (bit % 8);
            }
            for cut in 0..good.len() {
                assert!(read_framed(&good[..cut], MAGIC).is_err(), "body {len}: prefix {cut}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
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
            let sum = xxh64(&bad[..framed_len]);
            bad[framed_len..].copy_from_slice(&sum.to_le_bytes());
            assert!(read_framed(&bad, MAGIC).is_err(), "body_len {forged} was trusted");
        }
    }
}
