//! A minimal HTTP/1.1 codec over blocking streams.
//!
//! Just enough of RFC 9112 for the service and its load generator: one
//! request per connection (`Connection: close` on every response),
//! request-line + header parsing with size caps, `Content-Length` bodies
//! only (no chunked transfer), and status/header/body response writing.
//! Both sides of the wire live here so the server, the client, and the
//! tests share one implementation.
//!
//! Input is untrusted: header and body sizes are capped, and every parse
//! failure is a typed [`HttpError`] the server maps to a `400` rather
//! than a panic — `unwrap`/`expect` is denied in this crate by its
//! `[lints.clippy]` table.

use std::fmt;
use std::io::{self, Read, Write};

use crate::Locked;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum request body bytes (specs are tiny; anything bigger is abuse).
pub const MAX_BODY_BYTES: usize = 64 * 1024;

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

/// Why reading or parsing a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying socket failed (includes read timeouts).
    Io(io::Error),
    /// The head or body exceeded its size cap.
    TooLarge(&'static str),
    /// The bytes were not valid HTTP.
    Malformed(&'static str),
    /// The peer closed before a full request arrived.
    Closed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::TooLarge(what) => write!(f, "request {what} too large"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::Closed => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request (head + `Content-Length` body) from `stream`.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    debug_assert!(!Locked::held(), "socket I/O inside a critical section");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    // Byte-at-a-time until CRLFCRLF: requests are tiny and arrive in one
    // segment; simplicity beats a buffered reader that would over-read
    // into the body.
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("head"));
        }
        match stream.read(&mut byte)? {
            0 if head.is_empty() => return Err(HttpError::Closed),
            0 => return Err(HttpError::Malformed("truncated head")),
            _ => head.push(byte[0]),
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("non-UTF-8 head"))?;
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
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("truncated body")
        } else {
            HttpError::Io(e)
        }
    })?;
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
/// `Connection: close`).
pub fn read_response(stream: &mut impl Read) -> Result<Response, HttpError> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("head"));
        }
        match stream.read(&mut byte)? {
            0 => return Err(HttpError::Closed),
            _ => head.push(byte[0]),
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("non-UTF-8 head"))?;
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
        Some(n) => {
            let mut body = vec![0u8; n];
            stream.read_exact(&mut body)?;
            body
        }
        None => {
            let mut body = Vec::new();
            stream.read_to_end(&mut body)?;
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
}
