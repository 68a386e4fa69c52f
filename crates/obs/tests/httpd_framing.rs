//! `httpd::read_request` against hostile framing, over a loopback socket:
//! whatever the peer sends and however it is cut into segments, the call
//! returns — a request carrying exactly `Content-Length` body bytes, or one
//! of the `RequestError` variants — and never panics, half-reads a body, or
//! waits past the socket's read timeout.

use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use kgtosa_obs::httpd::{read_request, HttpRequest, RequestError};
use proptest::prelude::*;

const MAX_HEAD: usize = 256;
const MAX_BODY: usize = 512;
/// `read_request` reads this many bytes at a time, so it notices an
/// oversized head up to one read late.
const READ_CHUNK: usize = 1024;

/// Sends `segments` one write at a time, then closes — or, with `hold`,
/// keeps the connection open until `read_request` has answered, so only
/// the read timeout can end a read the peer starves.
fn feed(segments: &[&[u8]], hold: bool) -> Result<HttpRequest, RequestError> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (answered, wait) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut peer = TcpStream::connect(addr).unwrap();
            peer.set_nodelay(true).unwrap();
            for (i, segment) in segments.iter().enumerate() {
                if i > 0 {
                    // Lets the reader drain the previous segment first. A
                    // coalesced pair only weakens the case, never fails it.
                    std::thread::sleep(Duration::from_millis(1));
                }
                // A reader that already refused the request resets us.
                if peer.write_all(segment).is_err() {
                    break;
                }
            }
            if hold {
                let _ = wait.recv();
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let timeout = if hold { Duration::from_millis(150) } else { Duration::from_secs(10) };
        stream.set_read_timeout(Some(timeout)).unwrap();
        let got = read_request(&mut stream, MAX_HEAD, MAX_BODY);
        drop(answered);
        got
    })
}

/// What the `Content-Length` header claims, relative to the body sent.
#[derive(Clone, Copy, Debug)]
enum Declared {
    Absent,
    Exact,
    Short,
    Long,
    Word,
    Max,
    Overflow,
}

impl Declared {
    fn head(self, body_len: usize) -> Vec<u8> {
        let value = match self {
            Declared::Absent => return b"POST /x?q=1 HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
            Declared::Exact => body_len.to_string(),
            Declared::Short => (body_len / 2).to_string(),
            Declared::Long => (body_len + 7).to_string(),
            Declared::Word => "twelve".into(),
            Declared::Max => usize::MAX.to_string(),
            Declared::Overflow => format!("{}0", usize::MAX),
        };
        format!("POST /x?q=1 HTTP/1.1\r\nHost: t\r\nContent-Length: {value}\r\n\r\n").into_bytes()
    }
}

#[derive(Debug)]
enum Expect {
    Body(Vec<u8>),
    Closed,
    Malformed,
    TooLarge,
    TimedOut,
}

/// The answer owed when the first `sent` bytes of `head ++ body` arrive.
fn expect(declared: Declared, head_len: usize, body: &[u8], sent: usize, hold: bool) -> Expect {
    if sent == 0 {
        return Expect::Closed;
    }
    if sent < head_len {
        return Expect::Malformed;
    }
    let need = match declared {
        Declared::Word | Declared::Overflow => return Expect::Malformed,
        Declared::Max => return Expect::TooLarge,
        Declared::Absent => 0,
        Declared::Exact => body.len(),
        Declared::Short => body.len() / 2,
        Declared::Long => body.len() + 7,
    };
    if sent - head_len >= need {
        Expect::Body(body[..need].to_vec())
    } else if hold {
        Expect::TimedOut
    } else {
        Expect::Malformed
    }
}

fn agrees(got: &Result<HttpRequest, RequestError>, want: &Expect) -> bool {
    match (got, want) {
        (Ok(req), Expect::Body(body)) => req.body == *body && req.path == "/x" && req.query == "q=1",
        (Err(RequestError::Closed), Expect::Closed)
        | (Err(RequestError::Malformed(_)), Expect::Malformed)
        | (Err(RequestError::TooLarge), Expect::TooLarge) => true,
        (Err(RequestError::Io(e)), Expect::TimedOut) => {
            matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
        }
        _ => false,
    }
}

/// `wire` cut at `cuts` (taken modulo its length) into non-empty segments.
fn segments<'a>(wire: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % wire.len().max(1)).collect();
    at.extend([0, wire.len()]);
    at.sort_unstable();
    at.dedup();
    at.windows(2).map(|w| &wire[w[0]..w[1]]).collect()
}

#[test]
fn every_split_and_every_early_close_of_one_request() {
    let body = b"hello";
    let head = Declared::Exact.head(body.len());
    let wire = [head.as_slice(), body].concat();
    for cut in 0..wire.len() {
        let req = feed(&segments(&wire, &[cut]), false)
            .unwrap_or_else(|e| panic!("split at byte {cut}: {e}"));
        assert_eq!(
            (req.method.as_str(), req.path.as_str(), req.query.as_str(), req.header("host")),
            ("POST", "/x", "q=1", Some("t")),
            "split at byte {cut}"
        );
        assert_eq!(req.body, body, "split at byte {cut}");

        let got = feed(&[&wire[..cut]], false);
        let want = expect(Declared::Exact, head.len(), body, cut, false);
        assert!(agrees(&got, &want), "closed after byte {cut}: {got:?}, not {want:?}");
    }
}

#[test]
fn the_head_cap_holds_to_within_one_read() {
    let head_of = |len: usize| {
        let frame = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n";
        format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(len - frame.len())).into_bytes()
    };
    for len in [MAX_HEAD - 1, MAX_HEAD] {
        assert!(feed(&[&head_of(len)[..]], false).is_ok(), "a {len}-byte head is under the cap");
    }
    for len in [MAX_HEAD + 1, MAX_HEAD + READ_CHUNK] {
        let wire = head_of(len);
        let got = feed(&[&wire[..MAX_HEAD], &wire[MAX_HEAD..]], false);
        assert!(
            matches!(got, Ok(_) | Err(RequestError::TooLarge)),
            "a {len}-byte head is whole or too large, not {got:?}"
        );
    }
    let got = feed(&[&head_of(MAX_HEAD + READ_CHUNK + 1)[..]], false);
    assert!(matches!(got, Err(RequestError::TooLarge)), "{got:?}");
}

proptest! {
    /// Every `Content-Length` shape × early close anywhere in head or body
    /// × a peer that goes silent instead of closing × any segmentation. A
    /// flipped byte voids the oracle but not the contract: whatever comes
    /// back `Ok` carries exactly the body length its own header declares.
    #[test]
    fn any_framing_is_answered_in_full_or_refused(
        declared in proptest::sample::select(vec![
            Declared::Absent, Declared::Exact, Declared::Short, Declared::Long,
            Declared::Word, Declared::Max, Declared::Overflow,
        ]),
        body in proptest::collection::vec(any::<u8>(), 0..300),
        // 0: one byte flipped; 1–3: closed early; 4–7: sent whole.
        fate in 0u8..8,
        (at, byte) in (0usize..4096, any::<u8>()),
        cuts in proptest::collection::vec(0usize..4096, 0..3),
        hold in any::<bool>(),
    ) {
        let head = declared.head(body.len());
        let mut wire = [head.as_slice(), body.as_slice()].concat();
        let at = at % wire.len();
        let sent = if (1..4).contains(&fate) { at } else { wire.len() };
        // Only a peer that sent everything it meant to may go silent.
        let hold = hold && fate >= 4;
        if fate == 0 {
            wire[at] = byte;
        }
        let got = feed(&segments(&wire[..sent], &cuts), hold);
        if fate != 0 {
            let want = expect(declared, head.len(), &body, sent, hold);
            prop_assert!(agrees(&got, &want), "{declared:?}, {sent} bytes sent: {got:?}, not {want:?}");
        } else if let Ok(req) = got {
            let declared = req.header("content-length").map_or(0, |v| v.parse().unwrap());
            prop_assert_eq!(req.body.len(), declared);
        }
    }
}
