//! A minimal HTTP/1.1 codec over blocking streams.
//!
//! Just enough of RFC 9112 for the service, its load generator and the
//! cluster coordinator's forwards: one request per connection
//! (`Connection: close` on every response), request-line + header parsing
//! with size caps, `Content-Length` bodies only (no chunked transfer), and
//! status/header/body response writing. Both sides of the wire live here
//! so the server, the client, and the tests share one implementation.
//!
//! Heads are read in chunks of [`READ_CHUNK`] bytes. A connection carries
//! one message, so whatever a chunk holds past the blank line is the
//! start of the body.
//!
//! Input is untrusted: head and body sizes are capped before anything is
//! allocated for them, and every parse failure is a typed [`HttpError`]
//! the server maps to a `400` rather than a panic — `unwrap`/`expect` is
//! denied in this crate by its `[lints.clippy]` table.

use std::fmt;
use std::io::{self, Read, Write};

use crate::Locked;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes (specs are tiny; anything bigger is abuse).
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Maximum response body bytes. The largest body a peer answers is a
/// worker's `GET /trace`: a full ring at the 2^18 spans a traced benchmark
/// run retains is under 64 MiB even with every span field at its widest.
pub const MAX_RESPONSE_BODY_BYTES: usize = 64 << 20;
/// Bytes asked of the stream per `read` while looking for the end of a
/// head.
pub const READ_CHUNK: usize = 4096;

/// A parsed HTTP request head plus its body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method, uppercased by the sender (`GET`, `POST`, …).
    pub method: String,
    /// Request target (`/run`, `/metrics`, …), query string included.
    pub path: String,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why reading or parsing a request or a response failed.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed (includes read timeouts).
    Io(io::Error),
    /// The head or body exceeded its size cap.
    TooLarge(&'static str),
    /// The bytes were not valid HTTP.
    Malformed(&'static str),
    /// The peer closed before sending a byte.
    Closed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::TooLarge(what) => write!(f, "message {what} too large"),
            HttpError::Malformed(what) => write!(f, "malformed message: {what}"),
            HttpError::Closed => write!(f, "connection closed before a message arrived"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads up to and including the blank line that ends a head (at most
/// [`MAX_HEAD_BYTES`]). Returns the head as text and the bytes the last
/// read carried past it, which begin the body. EOF before any byte is
/// [`HttpError::Closed`].
fn read_head(stream: &mut impl Read) -> Result<(String, Vec<u8>), HttpError> {
    debug_assert!(!Locked::held(), "socket I/O inside a critical section");
    let mut buf = Vec::with_capacity(READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    let end = loop {
        // The terminator may straddle two reads: rescan the last 3 bytes.
        let from = buf.len().saturating_sub(3);
        let n = match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Err(HttpError::Closed),
            Ok(0) => return Err(HttpError::Malformed("truncated head")),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        buf.extend_from_slice(&chunk[..n]);
        if let Some(at) = buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("head"));
        }
    };
    if end > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge("head"));
    }
    let rest = buf.split_off(end);
    let head = String::from_utf8(buf).map_err(|_| HttpError::Malformed("non-UTF-8 head"))?;
    Ok((head, rest))
}

/// Completes a body of `len` bytes whose first bytes, `prefix`, came with
/// the head. Bytes past `len` are dropped (one message per connection).
/// The buffer grows as bytes arrive, never to a declared length up front.
fn read_body(
    stream: &mut impl Read,
    mut prefix: Vec<u8>,
    len: usize,
) -> Result<Vec<u8>, HttpError> {
    prefix.truncate(len);
    let missing = len - prefix.len();
    stream.take(missing as u64).read_to_end(&mut prefix)?;
    if prefix.len() < len {
        return Err(HttpError::Malformed("truncated body"));
    }
    Ok(prefix)
}

/// Reads one request (head + `Content-Length` body) from `stream`.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let (head, rest) = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::Malformed("request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length =
                value.trim().parse().map_err(|_| HttpError::Malformed("content-length value"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed("chunked bodies are not supported"));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    let body = read_body(stream, rest, content_length)?;
    Ok(Request { method: method.to_string(), path: path.to_string(), body })
}

/// The reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Renders one complete `Connection: close` response — head, optional
/// extra headers (each a pre-formatted `Name: value` pair), and body — as
/// the exact bytes the wire will carry. Split from [`write_response`] so
/// the server can time serialization and the socket write as separate
/// spans.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// Writes one `Connection: close` response with optional extra headers
/// (each a pre-formatted `Name: value` pair) and flushes.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    debug_assert!(!Locked::held(), "socket I/O inside a critical section");
    stream.write_all(&render_response(status, content_type, extra_headers, body))?;
    stream.flush()
}

/// A parsed response, as read back by the client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// The value of `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response. The body is `Content-Length` bytes when the header
/// is present, otherwise everything until EOF (legal under
/// `Connection: close`); either way at most [`MAX_RESPONSE_BODY_BYTES`].
pub fn read_response(stream: &mut impl Read) -> Result<Response, HttpError> {
    let (head, rest) = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("status line"))?;
    let mut headers = Vec::new();
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line"));
        };
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length =
                Some(value.parse().map_err(|_| HttpError::Malformed("content-length value"))?);
        }
        headers.push((name, value));
    }
    let body = match content_length {
        Some(n) if n > MAX_RESPONSE_BODY_BYTES => return Err(HttpError::TooLarge("body")),
        Some(n) => read_body(stream, rest, n)?,
        None => {
            // One byte past the cap tells an oversized body from one that
            // fills it exactly.
            let mut body = rest;
            let room = (MAX_RESPONSE_BODY_BYTES + 1).saturating_sub(body.len());
            stream.take(room as u64).read_to_end(&mut body)?;
            if body.len() > MAX_RESPONSE_BODY_BYTES {
                return Err(HttpError::TooLarge("body"));
            }
            body
        }
    };
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let wire = b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut &wire[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn get_without_body_parses() {
        let wire = b"GET /metrics HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &wire[..]).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/metrics"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (wire, what) in [
            (&b"BAD\r\n\r\n"[..], "request line"),
            (&b"GET /x HTTP/2\r\n\r\n"[..], "version"),
            (&b"GET /x HTTP/1.1\r\nbroken\r\n\r\n"[..], "header"),
            (&b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort"[..], "body"),
            (&b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..], "chunked"),
        ] {
            let err = read_request(&mut &wire[..]).unwrap_err();
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "{what}: expected Malformed, got {err:?}"
            );
        }
    }

    #[test]
    fn oversized_inputs_are_rejected() {
        let huge_head = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_BYTES));
        assert!(matches!(
            read_request(&mut huge_head.as_bytes()),
            Err(HttpError::TooLarge("head"))
        ));
        let huge_body =
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(
            read_request(&mut huge_body.as_bytes()),
            Err(HttpError::TooLarge("body"))
        ));
    }

    #[test]
    fn eof_before_any_byte_is_closed() {
        assert!(matches!(read_request(&mut &b""[..]), Err(HttpError::Closed)));
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "text/plain", &[("X-Cache", "miss")], b"hello\n").unwrap();
        let resp = read_response(&mut &wire[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), Some("miss"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.text(), "hello\n");
    }

    #[test]
    fn response_without_content_length_reads_to_eof() {
        let wire = b"HTTP/1.1 200 OK\r\n\r\nuntil eof";
        let resp = read_response(&mut &wire[..]).unwrap();
        assert_eq!(resp.body, b"until eof");
    }

    /// Hands out at most `step` bytes per `read`.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_head_split_across_reads_parses() {
        let wire = b"POST /run?trace=3.4 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for step in [1, 2, 3, 5, 7, READ_CHUNK] {
            let req = read_request(&mut Trickle { bytes: wire, step }).unwrap();
            assert_eq!((req.path.as_str(), req.body.as_slice()), ("/run?trace=3.4", &b"hello"[..]));
        }
    }

    #[test]
    fn bytes_past_the_body_are_dropped() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /y HTTP/1.1\r\n\r\n";
        assert_eq!(read_request(&mut &wire[..]).unwrap().body, b"ok");
    }

    #[test]
    fn oversized_response_bodies_are_rejected_before_allocation() {
        // A declared length far past the cap fails without reading on.
        let wire = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(read_response(&mut wire.as_bytes()), Err(HttpError::TooLarge("body"))));
        let wire =
            format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", MAX_RESPONSE_BODY_BYTES + 1);
        assert!(matches!(read_response(&mut wire.as_bytes()), Err(HttpError::TooLarge("body"))));
        // Without a length, reading to EOF stops one byte past the cap.
        let head = &b"HTTP/1.1 200 OK\r\n\r\n"[..];
        let endless = head.chain(io::repeat(b'x'));
        assert!(matches!(
            read_response(&mut endless.take(u64::MAX)),
            Err(HttpError::TooLarge("body"))
        ));
        let full = head.chain(io::repeat(b'x').take(MAX_RESPONSE_BODY_BYTES as u64));
        assert_eq!(read_response(&mut { full }).unwrap().body.len(), MAX_RESPONSE_BODY_BYTES);
    }

    #[test]
    fn the_response_cap_holds_a_full_traced_span_ring() {
        // Every field at its widest and the longest stage name, times the
        // ring size a traced benchmark run uses.
        let log = hbc_probe::SpanLog::new(1);
        let stage = hbc_probe::Stage::ALL
            .into_iter()
            .max_by_key(|s| s.name().len())
            .unwrap_or(hbc_probe::Stage::ClusterWorkerExecute);
        let max = u64::MAX;
        let record = hbc_probe::SpanRecord {
            request: max,
            span: max,
            parent: max,
            stage,
            start_us: max,
            dur_us: max,
        };
        log.record(record);
        let widest_line = log.to_jsonl().len();
        assert!(widest_line * (1 << 18) <= MAX_RESPONSE_BODY_BYTES, "{widest_line} bytes a line");
    }
}
