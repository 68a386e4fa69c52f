//! Minimal HTTP/1.1 plumbing for the `kgtosa serve` daemon (std-only, no
//! framework).
//!
//! [`read_request`] parses one request — method, path, headers, and a
//! `Content-Length`-delimited body — off a [`TcpStream`] with hard caps
//! on head and body size, so a hostile or confused client cannot balloon
//! the process. [`HttpResponse`] + [`write_response`] render the answer.
//! [`builtin_route`] answers the observability GET routes (`/metrics`,
//! `/healthz`) from the live registry, so any server built on this module
//! exposes them for free.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use crate::json::Json;
use crate::prometheus::render_prometheus;

/// Default cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default cap on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, Default)]
pub struct HttpRequest {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped.
    pub path: String,
    /// Raw query string (after `?`), empty when absent.
    pub query: String,
    /// Headers as `(lower-cased-name, value)` pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed — mapped to a status by the caller.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed before sending a complete request.
    Closed,
    /// Head or body exceeded its cap (`413`-shaped).
    TooLarge,
    /// Not parseable as HTTP (`400`-shaped).
    Malformed(String),
    /// Transport error mid-read.
    Io(io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::TooLarge => write!(f, "request too large"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::Io(e) => write!(f, "read error: {e}"),
        }
    }
}

/// Reads and parses one request off `stream`, enforcing `max_head` /
/// `max_body` byte caps.
pub fn read_request(
    stream: &mut TcpStream,
    max_head: usize,
    max_body: usize,
) -> Result<HttpRequest, RequestError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > max_head {
            return Err(RequestError::TooLarge);
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(RequestError::Closed)
                } else {
                    Err(RequestError::Malformed("truncated head".into()))
                }
            }
            Ok(n) => n,
            Err(e) => return Err(RequestError::Io(e)),
        };
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| RequestError::Malformed("unparseable content-length".into()))?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::TooLarge);
    }
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(RequestError::Malformed("truncated body".into())),
            Ok(n) => n,
            Err(e) => return Err(RequestError::Io(e)),
        };
        let want = content_length - body.len();
        body.extend_from_slice(&chunk[..n.min(want)]);
    }
    Ok(HttpRequest { method, path, query, headers, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response ready to be written.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error envelope: `{"error": <message>}`.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        let body = Json::Obj(vec![("error".into(), Json::Str(message.into()))]);
        Self::json(status, body.to_string())
    }
}

/// The reason phrase for the statuses this workspace emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Error",
    }
}

/// Writes `response` to `stream` with `Connection: close` framing.
pub fn write_response(stream: &mut TcpStream, response: &HttpResponse) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// The `/healthz` payload: a process that answers is ready.
fn healthz_json() -> Json {
    Json::Obj(vec![
        ("ready".into(), Json::Bool(true)),
        (
            "active_contexts".into(),
            Json::Num(crate::context::active_context_count() as f64),
        ),
    ])
}

/// Answers the observability GET routes from the live registry; `None`
/// when the request is not one of them (the caller's own routes apply).
pub fn builtin_route(req: &HttpRequest) -> Option<HttpResponse> {
    if req.method != "GET" {
        return None;
    }
    let response = match req.path.as_str() {
        "/metrics" => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8".into(),
            body: render_prometheus().into_bytes(),
        },
        "/healthz" => HttpResponse::json(200, healthz_json().to_string()),
        _ => return None,
    };
    Some(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Result<HttpRequest, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream, MAX_HEAD_BYTES, 1024);
        sender.join().unwrap();
        req
    }

    #[test]
    fn parses_get_with_query() {
        let req = roundtrip(b"GET /extract?x=1 HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/extract");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("HOST"), Some("h"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = roundtrip(
            b"POST /infer HTTP/1.1\r\nContent-Length: 11\r\nX-Kgtosa-Deadline-Ms: 250\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/infer");
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.header("x-kgtosa-deadline-ms"), Some("250"));
    }

    #[test]
    fn rejects_oversized_body() {
        let mut raw = b"POST /x HTTP/1.1\r\nContent-Length: 5000\r\n\r\n".to_vec();
        raw.extend(vec![b'a'; 5000]);
        match roundtrip(&raw) {
            Err(RequestError::TooLarge) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        match roundtrip(b"\r\n\r\n") {
            Err(RequestError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn builtin_routes_answer_only_get() {
        let get = HttpRequest {
            method: "GET".into(),
            path: "/metrics".into(),
            ..Default::default()
        };
        assert!(builtin_route(&get).is_some());
        let post = HttpRequest {
            method: "POST".into(),
            path: "/metrics".into(),
            ..Default::default()
        };
        assert!(builtin_route(&post).is_none());
        // Unknown paths fall through to the caller, which answers them
        // `404`.
        for path in ["/nope", "/progress", "/spans", "/prof", "/contexts"] {
            let other = HttpRequest {
                method: "GET".into(),
                path: path.into(),
                ..Default::default()
            };
            assert!(builtin_route(&other).is_none(), "{path}");
        }
    }

    /// `GET path` through [`builtin_route`]: (status, content type, body).
    fn get(path: &str) -> (u16, String, String) {
        let req = HttpRequest {
            method: "GET".into(),
            path: path.into(),
            ..Default::default()
        };
        let resp = builtin_route(&req).unwrap_or_else(|| panic!("{path} is a builtin route"));
        (
            resp.status,
            resp.content_type,
            String::from_utf8(resp.body).unwrap(),
        )
    }

    #[test]
    fn serves_metrics_and_healthz() {
        crate::counter("test.serve.hits").add(2);
        let ctx = crate::TelemetryContext::new("serve.test.request");

        let (status, ctype, body) = get("/metrics");
        assert_eq!(status, 200);
        assert!(ctype.contains("version=0.0.4"), "{ctype}");
        assert!(body.contains("kgtosa_test_serve_hits_total 2"), "{body}");
        assert!(body.contains("# TYPE kgtosa_test_serve_hits_total counter"));

        let (status, ctype, body) = get("/healthz");
        assert_eq!(status, 200);
        assert!(ctype.contains("application/json"));
        let json = Json::parse(&body).expect("healthz is valid JSON");
        assert_eq!(json.get("ready").and_then(Json::as_bool), Some(true));
        assert!(json.get("active_contexts").and_then(Json::as_f64).unwrap() >= 1.0);
        drop(ctx);
    }
}
