//! Robustness fuzzing for the `KGTOSA1` snapshot reader, in the style of
//! `crates/rdf/tests/fuzz_parser.rs`: arbitrary and adversarially mutated
//! byte streams must never panic, abort, or silently produce a *different*
//! graph — they either error or round-trip exactly. Whatever the reader
//! accepts is canonical: writing the decoded graph back reproduces the
//! accepted bytes, so their hash is the graph's fingerprint.

use proptest::prelude::*;
use std::io::Cursor;

use kgtosa_kg::{fingerprint, read_snapshot, write_snapshot, KnowledgeGraph, SnapshotView, Vid};

/// A small random KG: up to 12 nodes across 3 classes, 4 relations.
fn arb_kg() -> impl Strategy<Value = KnowledgeGraph> {
    (
        1usize..12,
        proptest::collection::vec((0usize..12, 0usize..4, 0usize..12), 0..60),
    )
        .prop_map(|(n, triples)| {
            let mut kg = KnowledgeGraph::new();
            for i in 0..n {
                kg.add_node(&format!("n{i}"), ["A", "B", "C"][i % 3]);
            }
            for (s, p, o) in triples {
                if s < n && o < n {
                    kg.add_triple_terms(
                        &format!("n{s}"),
                        ["A", "B", "C"][s % 3],
                        ["r0", "r1", "r2", "r3"][p],
                        &format!("n{o}"),
                        ["A", "B", "C"][o % 3],
                    );
                }
            }
            kg
        })
}

fn snapshot_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_snapshot(kg, &mut buf).expect("in-memory write cannot fail");
    buf
}

/// The view and `read_snapshot` accept the same bytes, and accepted bytes
/// are exactly what `write_snapshot` emits for the decoded graph.
fn assert_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    match SnapshotView::parse(bytes) {
        Ok(view) => {
            let kg = read_snapshot(Cursor::new(bytes))
                .expect("read_snapshot accepts what the view does");
            prop_assert_eq!(snapshot_bytes(&kg), view.bytes());
            prop_assert_eq!(view.bytes(), &bytes[..view.bytes().len()]);
            prop_assert_eq!(view.fingerprint(), fingerprint(&kg));
            prop_assert_eq!(
                (view.num_nodes(), view.num_triples()),
                (kg.num_nodes(), kg.num_triples())
            );
        }
        Err(_) => prop_assert!(read_snapshot(Cursor::new(bytes)).is_err()),
    }
    Ok(())
}

/// A byte with its continuation bit clear, re-encoded one group longer
/// (`b` → `b | 0x80, 0x00`): the value is unchanged, the bytes are not
/// what the writer emits.
fn pad_varint_at(buf: &mut Vec<u8>, at: usize) {
    buf[at] |= 0x80;
    buf.insert(at + 1, 0);
}

#[test]
fn padded_varint_is_rejected() {
    let mut kg = KnowledgeGraph::new();
    kg.add_triple_terms("a", "A", "r", "b", "B");
    let mut buf = snapshot_bytes(&kg);
    // The last byte is the final triple's object id.
    let last = buf.len() - 1;
    pad_varint_at(&mut buf, last);
    assert!(read_snapshot(Cursor::new(&buf)).is_err());
    assert!(SnapshotView::parse(&buf).is_err());
}

/// A triple twice is not a canonical snapshot, the all-zero triple
/// included (it equals the zero the first triple is compared against):
/// the triple list is a set, so both readers reject the repeat.
#[test]
fn duplicate_triple_is_rejected() {
    let mut kg = KnowledgeGraph::new();
    kg.add_triple_terms("a", "A", "r", "a", "A");
    kg.add_triple_terms("a", "A", "r", "b", "B");
    let buf = snapshot_bytes(&kg);
    // The triple section ends the snapshot: a u64 count, then one byte per
    // (subject delta, predicate, object) varint for ids this small.
    let head = &buf[..buf.len() - 8 - 3 * kg.num_triples()];
    let with_triples = |rows: &[[u8; 3]]| {
        let mut out = head.to_vec();
        out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        rows.iter().for_each(|row| out.extend_from_slice(row));
        out
    };
    assert_eq!(with_triples(&[[0, 0, 0], [0, 0, 1]]), buf);
    for rows in [
        &[[0, 0, 0], [0, 0, 0]][..],
        &[[0, 0, 1], [0, 0, 1]],
        &[[0, 0, 0], [0, 0, 1], [0, 0, 1]],
    ] {
        let dup = with_triples(rows);
        let err = read_snapshot(Cursor::new(&dup)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{rows:?}");
        assert!(SnapshotView::parse(&dup).is_err(), "{rows:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure noise never panics the reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = read_snapshot(Cursor::new(bytes));
    }

    /// Noise behind a valid magic gets past the header check and into the
    /// dictionary/triple decoders — still never panics.
    #[test]
    fn magic_prefixed_noise_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut buf = b"KGTOSA1\n".to_vec();
        buf.extend_from_slice(&bytes);
        let _ = read_snapshot(Cursor::new(buf));
    }

    /// Single bit-flips of a real snapshot either fail cleanly or decode to
    /// a graph; they must never panic. (A flip can land in a term string
    /// and legitimately produce a different-but-valid graph, so we only
    /// assert no-panic here; checksummed artifacts in `kgtosa-cache` are
    /// what detect silent term corruption.)
    #[test]
    fn bit_flips_never_panic(kg in arb_kg(), byte_pick in 0usize..1 << 16, bit in 0u8..8) {
        let mut buf = snapshot_bytes(&kg);
        if !buf.is_empty() {
            let i = byte_pick % buf.len();
            buf[i] ^= 1 << bit;
            let _ = read_snapshot(Cursor::new(buf));
        }
    }

    /// Truncation at every possible length errors; it never yields a graph
    /// claiming to be the original. (Only the exact full stream may decode
    /// to the original triple set.)
    #[test]
    fn truncation_never_yields_wrong_graph(kg in arb_kg(), cut_pick in 0usize..1 << 16) {
        let buf = snapshot_bytes(&kg);
        let at = cut_pick % buf.len().max(1);
        match read_snapshot(Cursor::new(&buf[..at])) {
            Err(_) => {}
            Ok(decoded) => {
                // A truncated prefix can only decode if the cut landed
                // after a complete triple — then it's a strict prefix
                // graph, never one that fingerprints like the original
                // while differing.
                if fingerprint(&decoded) == fingerprint(&kg) {
                    prop_assert_eq!(decoded.triples(), kg.triples());
                }
            }
        }
    }

    /// Accepted bytes are canonical, under bit flips, padded varints,
    /// dropped bytes and trailing garbage.
    #[test]
    fn accepted_bytes_are_canonical(
        kg in arb_kg(),
        pick in 0usize..1 << 16,
        bit in 0u8..8,
        mutation in 0u8..4,
    ) {
        let mut buf = snapshot_bytes(&kg);
        let at = pick % buf.len();
        match mutation {
            0 => buf[at] ^= 1 << bit,
            1 if buf[at] & 0x80 == 0 => pad_varint_at(&mut buf, at),
            2 => { buf.remove(at); }
            _ => buf.push(bit),
        }
        assert_canonical(&buf)?;
    }

    /// The full round-trip invariant under fuzzing: write → read is exact.
    #[test]
    fn roundtrip_exact(kg in arb_kg()) {
        let buf = snapshot_bytes(&kg);
        let back = read_snapshot(Cursor::new(&buf)).expect("own snapshot must read");
        prop_assert_eq!(back.num_nodes(), kg.num_nodes());
        prop_assert_eq!(back.triples(), kg.triples());
        for v in 0..kg.num_nodes() as u32 {
            prop_assert_eq!(back.node_term(Vid(v)), kg.node_term(Vid(v)));
        }
        prop_assert_eq!(fingerprint(&back), fingerprint(&kg));
    }
}
