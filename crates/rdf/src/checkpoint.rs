//! Serializable progress of a paginated fetch.
//!
//! Algorithm 3 pages every UNION subquery with `LIMIT`/`OFFSET`; when a
//! long extraction dies (endpoint outage, process kill), all completed
//! pages were already paid for in requests and transfer. A
//! [`FetchCheckpoint`] records each finished `(subquery, offset)` page —
//! triples included — in a compact binary file alongside the kg snapshot
//! format, so a re-run skips straight to the first missing page.
//!
//! Layout (little-endian, same conventions as `kgtosa_kg::snapshot`):
//!
//! ```text
//! magic "KGTOSAF\n"
//! u64 key            fingerprint of (subqueries, batch size, triple vars)
//! u64 payload_len    then u64 fnv64(payload) checksum
//! payload:
//!   u32 num_subqueries
//!   per subquery: u8 exhausted, u32 num_pages,
//!     per page: u64 offset, u32 num_triples, (u32 s, u32 p, u32 o) each
//! ```
//!
//! The key binds a checkpoint to the exact fetch it came from: a stale or
//! foreign file is ignored (the fetch restarts from scratch) rather than
//! trusted, and a corrupt payload fails the checksum the same way.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

use kgtosa_kg::{fnv64, Rid, Triple, Vid};

const MAGIC: &[u8; 8] = b"KGTOSAF\n";
/// Serialized size of a subquery's header (`u8 exhausted, u32 num_pages`).
const SUB_HEADER_BYTES: usize = 5;
/// Serialized size of one triple.
const TRIPLE_BYTES: usize = 12;

/// Progress of one subquery's pagination.
#[derive(Debug, Clone, Default)]
struct SubProgress {
    /// Completed pages, keyed by offset; values are the (filtered) data
    /// triples each page yielded.
    pages: BTreeMap<u64, Vec<Triple>>,
    /// Whether pagination hit the final short page.
    exhausted: bool,
}

/// Completed pages of a paginated fetch, resumable across process runs.
#[derive(Debug, Clone)]
pub struct FetchCheckpoint {
    key: u64,
    subs: Vec<SubProgress>,
}

impl FetchCheckpoint {
    /// An empty checkpoint for a fetch identified by `key` over
    /// `num_subqueries` subqueries.
    pub fn new(key: u64, num_subqueries: usize) -> Self {
        Self {
            key,
            subs: vec![SubProgress::default(); num_subqueries],
        }
    }

    /// The fetch fingerprint this checkpoint belongs to.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether this checkpoint was produced by the same fetch shape.
    pub fn matches(&self, key: u64, num_subqueries: usize) -> bool {
        self.key == key && self.subs.len() == num_subqueries
    }

    /// Whether the page at `offset` of subquery `sub` is already done.
    pub fn has_page(&self, sub: usize, offset: u64) -> bool {
        self.subs[sub].pages.contains_key(&offset)
    }

    /// Whether subquery `sub` was fully paginated.
    pub fn is_exhausted(&self, sub: usize) -> bool {
        self.subs[sub].exhausted
    }

    /// Records a completed page.
    pub fn record_page(&mut self, sub: usize, offset: u64, triples: Vec<Triple>) {
        self.subs[sub].pages.insert(offset, triples);
    }

    /// Marks a subquery as fully paginated.
    pub fn mark_exhausted(&mut self, sub: usize) {
        self.subs[sub].exhausted = true;
    }

    /// Completed pages recorded for subquery `sub`.
    pub fn pages_done(&self, sub: usize) -> usize {
        self.subs[sub].pages.len()
    }

    /// Total completed pages across all subqueries.
    pub fn completed_pages(&self) -> usize {
        self.subs.iter().map(|s| s.pages.len()).sum()
    }

    /// All recorded triples, concatenated (callers sort + dedup).
    pub fn all_triples(&self) -> Vec<Triple> {
        let total: usize = self
            .subs
            .iter()
            .flat_map(|s| s.pages.values())
            .map(Vec::len)
            .sum();
        let mut out = Vec::with_capacity(total);
        for sub in &self.subs {
            for triples in sub.pages.values() {
                out.extend_from_slice(triples);
            }
        }
        out
    }

    /// Serializes the checkpoint.
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(self.subs.len() as u32).to_le_bytes());
        for sub in &self.subs {
            payload.push(sub.exhausted as u8);
            payload.extend_from_slice(&(sub.pages.len() as u32).to_le_bytes());
            for (&offset, triples) in &sub.pages {
                payload.extend_from_slice(&offset.to_le_bytes());
                payload.extend_from_slice(&(triples.len() as u32).to_le_bytes());
                for t in triples {
                    for id in t.raw() {
                        payload.extend_from_slice(&id.to_le_bytes());
                    }
                }
            }
        }
        w.write_all(MAGIC)?;
        w.write_all(&self.key.to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&fnv64(&payload).to_le_bytes())?;
        w.write_all(&payload)
    }

    /// Deserializes a checkpoint written by [`FetchCheckpoint::write_to`].
    pub fn read_from(mut r: impl Read) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != *MAGIC {
            return Err(bad("not a fetch checkpoint (bad magic)"));
        }
        let key = read_u64(&mut r)?;
        let payload_len = read_u64(&mut r)?;
        let checksum = read_u64(&mut r)?;
        // No checksum covers the header, so `payload_len` is whatever the
        // file says: read at most that much of what is really there
        // instead of allocating for it up front.
        let mut payload = Vec::new();
        r.take(payload_len).read_to_end(&mut payload)?;
        if payload.len() as u64 != payload_len {
            return Err(bad("fetch checkpoint truncated"));
        }
        if fnv64(&payload) != checksum {
            return Err(bad("fetch checkpoint payload corrupt (checksum mismatch)"));
        }
        // Counts are trusted no further than the bytes left to hold them.
        let mut p = &payload[..];
        let num_subs = read_u32(&mut p)? as usize;
        let mut subs = Vec::with_capacity(num_subs.min(p.len() / SUB_HEADER_BYTES));
        for _ in 0..num_subs {
            let mut flag = [0u8; 1];
            p.read_exact(&mut flag)?;
            let num_pages = read_u32(&mut p)? as usize;
            let mut pages = BTreeMap::new();
            for _ in 0..num_pages {
                let offset = read_u64(&mut p)?;
                let num_triples = read_u32(&mut p)? as usize;
                let mut triples = Vec::with_capacity(num_triples.min(p.len() / TRIPLE_BYTES));
                for _ in 0..num_triples {
                    let s = read_u32(&mut p)?;
                    let pred = read_u32(&mut p)?;
                    let o = read_u32(&mut p)?;
                    triples.push(Triple::new(Vid(s), Rid(pred), Vid(o)));
                }
                pages.insert(offset, triples);
            }
            subs.push(SubProgress {
                pages,
                exhausted: flag[0] != 0,
            });
        }
        Ok(Self { key, subs })
    }

    /// Saves atomically (write to a temp file, then rename), creating the
    /// parent directory if needed so `--checkpoint-dir` can point at a
    /// directory that does not exist yet.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = io::BufWriter::new(fs::File::create(&tmp)?);
            self.write_to(&mut f)?;
            f.flush()?;
        }
        fs::rename(&tmp, path)
    }

    /// Loads the checkpoint at `path` if it exists, matches the fetch
    /// shape, and passes its checksum; otherwise returns a fresh one. A
    /// bad file is reported but never fatal — the fetch simply restarts.
    pub fn load_or_new(path: &Path, key: u64, num_subqueries: usize) -> Self {
        match fs::File::open(path) {
            Err(_) => FetchCheckpoint::new(key, num_subqueries),
            Ok(f) => match FetchCheckpoint::read_from(io::BufReader::new(f)) {
                Ok(ckpt) if ckpt.matches(key, num_subqueries) => ckpt,
                Ok(_) => {
                    kgtosa_obs::info!(
                        "fetch checkpoint {} belongs to a different fetch; starting fresh",
                        path.display()
                    );
                    FetchCheckpoint::new(key, num_subqueries)
                }
                Err(e) => {
                    kgtosa_obs::info!(
                        "fetch checkpoint {} unreadable ({}); starting fresh",
                        path.display(),
                        e
                    );
                    FetchCheckpoint::new(key, num_subqueries)
                }
            },
        }
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(Vid(s), Rid(p), Vid(o))
    }

    #[test]
    fn roundtrip_preserves_pages() {
        let mut ckpt = FetchCheckpoint::new(0xDEAD, 3);
        ckpt.record_page(0, 0, vec![t(1, 2, 3), t(4, 5, 6)]);
        ckpt.record_page(0, 100, vec![t(7, 8, 9)]);
        ckpt.record_page(2, 0, vec![]);
        ckpt.mark_exhausted(2);
        let mut buf = Vec::new();
        ckpt.write_to(&mut buf).unwrap();
        let back = FetchCheckpoint::read_from(&buf[..]).unwrap();
        assert!(back.matches(0xDEAD, 3));
        assert!(back.has_page(0, 0) && back.has_page(0, 100) && back.has_page(2, 0));
        assert!(!back.has_page(1, 0));
        assert!(back.is_exhausted(2) && !back.is_exhausted(0));
        assert_eq!(back.completed_pages(), 3);
        let mut triples = back.all_triples();
        triples.sort_unstable();
        assert_eq!(triples, vec![t(1, 2, 3), t(4, 5, 6), t(7, 8, 9)]);
    }

    #[test]
    fn corrupt_and_mismatched_files_start_fresh() {
        let dir = std::env::temp_dir().join("kgtosa-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fetch.ckpt");

        let mut ckpt = FetchCheckpoint::new(1, 2);
        ckpt.record_page(0, 0, vec![t(1, 2, 3)]);
        ckpt.save(&path).unwrap();
        assert_eq!(FetchCheckpoint::load_or_new(&path, 1, 2).completed_pages(), 1);
        // Wrong key or shape -> fresh.
        assert_eq!(FetchCheckpoint::load_or_new(&path, 9, 2).completed_pages(), 0);
        assert_eq!(FetchCheckpoint::load_or_new(&path, 1, 5).completed_pages(), 0);
        // Flip a payload byte -> checksum fails -> fresh.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(FetchCheckpoint::load_or_new(&path, 1, 2).completed_pages(), 0);
        // Absent file -> fresh.
        fs::remove_file(&path).unwrap();
        assert_eq!(FetchCheckpoint::load_or_new(&path, 1, 2).completed_pages(), 0);
        let _ = fs::remove_dir(&dir);
    }
    /// Regression: the header is outside the checksum, and `payload_len`
    /// used to size an allocation before a single payload byte was read —
    /// one flipped high bit asked for exabytes and aborted the run the
    /// checkpoint exists to save.
    #[test]
    fn damaged_header_or_truncation_starts_fresh_without_panicking() {
        let mut ckpt = FetchCheckpoint::new(7, 2);
        ckpt.record_page(0, 0, vec![t(1, 2, 3), t(4, 5, 6)]);
        ckpt.record_page(1, 50, vec![t(7, 8, 9)]);
        ckpt.mark_exhausted(1);
        let mut good = Vec::new();
        ckpt.write_to(&mut good).unwrap();
        let resumes = |bytes: &[u8]| {
            FetchCheckpoint::read_from(bytes)
                .is_ok_and(|c| c.matches(7, 2) && c.completed_pages() == 2)
        };
        assert!(resumes(&good));
        for byte in 0..32 {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(!resumes(&bad), "header byte {byte} bit {bit} flipped, still trusted");
            }
        }
        for len in 0..good.len() {
            assert!(!resumes(&good[..len]), "truncated to {len} bytes, still trusted");
        }

        // And through the file path `--checkpoint-dir` takes.
        let dir = std::env::temp_dir().join(format!("kgtosa-ckpt-header-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fetch.ckpt");
        let mut bad = good.clone();
        bad[23] ^= 0x40; // payload_len += 2^62
        fs::write(&path, &bad).unwrap();
        assert_eq!(FetchCheckpoint::load_or_new(&path, 7, 2).completed_pages(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
