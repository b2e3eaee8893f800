//! A minimal HTTP/1.1 client: one request per connection, the way the
//! service speaks (`Connection: close`, `Content-Length` bodies).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response read back in full.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Sends `method path` with `body` to `addr` and reads the whole response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response"))
}

fn parse_response(raw: &[u8]) -> Option<Response> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body = raw[head_end + 4..].to_vec();
    let declared = headers.iter().find(|(n, _)| n == "content-length");
    match declared.map(|(_, v)| v.parse::<usize>()) {
        Some(Ok(len)) if len == body.len() => {}
        Some(_) => return None,
        None => {}
    }
    Some(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_checks_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Cache: hit-memory\r\n\r\nabc";
        let r = parse_response(raw).expect("parses");
        assert_eq!((r.status, r.body.as_slice()), (200, b"abc".as_slice()));
        assert_eq!(r.header("x-cache"), Some("hit-memory"));
        let truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc";
        assert!(parse_response(truncated).is_none());
        assert!(parse_response(b"garbage").is_none());
    }
}
