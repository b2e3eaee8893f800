//! A minimal blocking HTTP client for the service.
//!
//! One connection per request (the server answers `Connection: close`),
//! with separate connect and I/O timeouts so a wedged server turns into a
//! typed [`ClientError`], not a hung caller. This is the single client
//! implementation shared by the `hbc-load` generator, the `hbc-cluster`
//! coordinator's forwards, probes and tooling, and the end-to-end tests;
//! it is not a general HTTP client.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{self, HttpError, Response};

/// Why a client request failed, by phase.
#[derive(Debug)]
pub enum ClientError {
    /// Establishing the connection failed (includes the connect timeout
    /// and failures configuring socket timeouts).
    Connect(io::Error),
    /// Writing the request failed (includes write timeouts).
    Send(io::Error),
    /// Reading or parsing the response failed (includes read timeouts).
    Receive(HttpError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Send(e) => write!(f, "sending request failed: {e}"),
            ClientError::Receive(e) => write!(f, "reading response failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A reusable blocking HTTP/1.1 client: connect per request, send, read
/// the full response, close.
#[derive(Debug, Clone, Copy)]
pub struct HttpClient {
    connect_timeout: Duration,
    io_timeout: Duration,
}

impl HttpClient {
    /// A client using `timeout` for both the connect and the I/O phases.
    pub fn new(timeout: Duration) -> Self {
        HttpClient { connect_timeout: timeout, io_timeout: timeout }
    }

    /// A client with distinct connect and read/write timeouts (a cluster
    /// coordinator wants a short connect probe but a long simulation
    /// read).
    pub fn with_timeouts(connect_timeout: Duration, io_timeout: Duration) -> Self {
        HttpClient { connect_timeout, io_timeout }
    }

    /// Issues one request and reads the full response.
    ///
    /// `body` is sent with a `Content-Length` header (0 when empty).
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<Response, ClientError> {
        let mut stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
            .map_err(ClientError::Connect)?;
        stream.set_read_timeout(Some(self.io_timeout)).map_err(ClientError::Connect)?;
        stream.set_write_timeout(Some(self.io_timeout)).map_err(ClientError::Connect)?;
        send_request_head(&mut stream, method, path, body).map_err(ClientError::Send)?;
        http::read_response(&mut stream).map_err(ClientError::Receive)
    }

    /// `GET path` with an empty body.
    pub fn get(&self, addr: SocketAddr, path: &str) -> Result<Response, ClientError> {
        self.request(addr, "GET", path, b"")
    }

    /// `POST path` with `body`.
    pub fn post(&self, addr: SocketAddr, path: &str, body: &[u8]) -> Result<Response, ClientError> {
        self.request(addr, "POST", path, body)
    }
}

/// Writes the request head + body to an already connected stream.
pub fn send_request_head(
    stream: &mut impl io::Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    debug_assert!(!crate::Locked::held(), "socket I/O inside a critical section");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: hbc-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Parses `addr` as `host:port`, with an optional `http://` prefix and
/// trailing `/` (so the CLI accepts the URL the server prints).
pub fn parse_addr(addr: &str) -> Result<SocketAddr, String> {
    let trimmed = addr.strip_prefix("http://").unwrap_or(addr).trim_end_matches('/');
    use std::net::ToSocketAddrs as _;
    match trimmed.to_socket_addrs() {
        Ok(mut addrs) => addrs.next().ok_or_else(|| format!("`{addr}` resolves to nothing")),
        Err(e) => Err(format!("cannot parse `{addr}`: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_forms_parse() {
        for form in ["127.0.0.1:8080", "http://127.0.0.1:8080", "http://127.0.0.1:8080/"] {
            assert_eq!(parse_addr(form).unwrap().port(), 8080, "{form}");
        }
        assert!(parse_addr("not an address").is_err());
    }

    #[test]
    fn connect_refusal_is_a_typed_connect_error() {
        // Bind-then-drop guarantees a port nothing is listening on.
        let addr = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let client = HttpClient::new(Duration::from_millis(500));
        match client.get(addr, "/healthz") {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected ClientError::Connect, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_their_phase() {
        let e = ClientError::Send(io::Error::new(io::ErrorKind::BrokenPipe, "pipe"));
        assert!(e.to_string().contains("sending request"));
        let e = ClientError::Receive(HttpError::Closed);
        assert!(e.to_string().contains("reading response"));
    }
}
