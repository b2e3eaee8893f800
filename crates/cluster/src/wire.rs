//! The coordinator↔worker wire protocol: length-prefixed binary frames
//! with magic, version, and checksum validation.
//!
//! One frame is a 16-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "HBCW"
//!      4     2  protocol version, little-endian (in [`MIN_VERSION`]..=[`VERSION`])
//!      6     1  message kind
//!      7     1  reserved (0)
//!      8     4  payload length, little-endian (≤ [`MAX_PAYLOAD`])
//!     12     4  checksum: first 4 bytes of SHA-256(payload), little-endian
//! ```
//!
//! Input is untrusted bytes off a socket, so every failure mode is a
//! typed [`WireError`] — truncation, a foreign magic, a version skew
//! between coordinator and worker builds, a corrupt payload, an unknown
//! kind — and decoding never panics (`tests/wire_props.rs` drives the
//! codec with mutated frames to prove it). Payload field encodings are
//! little-endian integers and length-prefixed UTF-8 strings; a decoder
//! must consume the payload exactly.
//!
//! # Versioning
//!
//! Version 2 extended the `Run` payload with an optional distributed
//! trace context ([`TraceCtx`]: the coordinator's request ID plus the
//! parent span ID of its forward span) and added the `Trace`/`TraceOk`
//! frame pair for span-ring federation. The decoder accepts every
//! version in `MIN_VERSION..=VERSION`: a version-1 `Run` payload (no
//! trace suffix) decodes to `trace: None`, so worker-side spans simply
//! degrade to an unlinked local root — a skewed peer is never an error.
//! Rolling upgrades therefore go workers first (a v2 worker accepts v1
//! coordinators), coordinator last. [`encode_versioned`] exists so the
//! property suite can impersonate an old peer on both directions.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hbc_serve::hash::sha256;

/// Current protocol version; bumped on any frame or payload change.
pub const VERSION: u16 = 2;
/// Oldest protocol version this build still decodes. Frames between
/// `MIN_VERSION` and [`VERSION`] are accepted; anything outside is a
/// typed [`WireError::VersionMismatch`].
pub const MIN_VERSION: u16 = 1;
/// Frame magic, first on the wire.
pub const MAGIC: [u8; 4] = *b"HBCW";
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Payload size cap. Figure tables are a few KiB; anything near the cap
/// is a corrupt length field or abuse.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// The distributed trace context a coordinator threads through a `Run`
/// frame (protocol version 2+), so worker-side spans join the
/// coordinator's causal tree instead of starting a fresh local root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The coordinator-allocated root request ID every span of this
    /// request is recorded under, on both processes.
    pub request: u64,
    /// Span ID of the coordinator's `cluster.forward` span; worker-side
    /// root spans link to it as their parent.
    pub parent: u64,
}

/// One protocol message, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Coordinator → worker: run this spec (canonical-ish JSON as the
    /// HTTP API accepts it; the worker re-validates and clamps `jobs`).
    Run {
        /// The `RunRequest` spec as JSON text.
        spec_json: String,
        /// Distributed trace context (version 2+). `None` from a
        /// version-1 peer — worker spans then start a local root.
        trace: Option<TraceCtx>,
    },
    /// Worker → coordinator: the spec's figure payload.
    RunOk {
        /// Cache attribution: `miss`, `hit-memory`, or `hit-disk`.
        cache: String,
        /// The canonical spec's SHA-256 (the shard key).
        spec_hash: String,
        /// The figure payload, byte-identical to a direct `hbc-serve` hit.
        body: String,
    },
    /// Worker → coordinator: the spec failed (status mirrors the HTTP
    /// code a direct `hbc-serve` would have answered).
    RunErr {
        /// HTTP-equivalent status (`400` bad spec, `500` panic, …).
        status: u16,
        /// Human-readable reason.
        message: String,
    },
    /// Coordinator → worker: health probe.
    Health,
    /// Worker → coordinator: probe reply.
    HealthOk {
        /// The worker's self-reported identity (its bound address).
        worker_id: String,
        /// `true` once the worker is draining and must leave rotation.
        draining: bool,
    },
    /// Coordinator → worker: counter snapshot request.
    Stats,
    /// Worker → coordinator: flattened counter snapshot.
    StatsOk {
        /// `(name, value)` pairs, sorted by name.
        pairs: Vec<(String, u64)>,
    },
    /// Control → worker: finish in-flight frames, stop accepting, exit.
    Drain,
    /// Worker → control: drain acknowledged.
    DrainOk {
        /// The worker's self-reported identity.
        worker_id: String,
    },
    /// Coordinator → worker: export your span ring (version 2+), for
    /// `GET /trace?federated=1` federation.
    Trace,
    /// Worker → coordinator: the span ring snapshot (version 2+).
    TraceOk {
        /// The worker's self-reported identity (its bound address).
        worker_id: String,
        /// Spans evicted from the ring since the worker started — a
        /// non-zero count means the JSONL window is incomplete.
        dropped: u64,
        /// The retained span window as JSON lines, oldest first (the
        /// same bytes the worker's ring would export).
        jsonl: String,
    },
}

impl Msg {
    fn kind(&self) -> u8 {
        match self {
            Msg::Run { .. } => 1,
            Msg::RunOk { .. } => 2,
            Msg::RunErr { .. } => 3,
            Msg::Health => 4,
            Msg::HealthOk { .. } => 5,
            Msg::Stats => 6,
            Msg::StatsOk { .. } => 7,
            Msg::Drain => 8,
            Msg::DrainOk { .. } => 9,
            Msg::Trace => 10,
            Msg::TraceOk { .. } => 11,
        }
    }
}

/// Why reading or decoding a frame failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes read timeouts).
    Io(io::Error),
    /// Clean EOF at a frame boundary (the peer is done).
    Closed,
    /// EOF in the middle of a header or payload.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version outside
    /// [`MIN_VERSION`]`..=`[`VERSION`].
    VersionMismatch {
        /// The version the frame declared.
        got: u16,
    },
    /// The header names a message kind this build does not know.
    UnknownKind(u8),
    /// The payload does not match the header's checksum.
    BadChecksum {
        /// Checksum computed over the received payload.
        got: u32,
        /// Checksum the header declared.
        want: u32,
    },
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The payload's field encoding is invalid for its kind.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::VersionMismatch { got } => {
                write!(
                    f,
                    "protocol version mismatch: peer speaks {got}, this build accepts \
                     {MIN_VERSION}..={VERSION}"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::BadChecksum { got, want } => {
                write!(f, "payload checksum {got:#010x} does not match header {want:#010x}")
            }
            WireError::TooLarge(n) => write!(f, "payload of {n} bytes exceeds the frame cap"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// First 4 bytes of SHA-256 over the payload, as a little-endian `u32`.
fn checksum(payload: &[u8]) -> u32 {
    let digest = sha256(payload);
    u32::from_le_bytes([digest[0], digest[1], digest[2], digest[3]])
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a payload; every take is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Malformed("length overflow"))?;
        if end > self.bytes.len() {
            return Err(WireError::Malformed("field extends past payload"));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload fields"))
        }
    }
}

fn encode_payload(msg: &Msg, version: u16) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        Msg::Run { spec_json, trace } => {
            put_str(&mut out, spec_json);
            // A version-1 payload is the bare spec: the trace context is
            // dropped, exactly what an old coordinator would have sent.
            if version >= 2 {
                match trace {
                    Some(ctx) => {
                        out.push(1);
                        out.extend_from_slice(&ctx.request.to_le_bytes());
                        out.extend_from_slice(&ctx.parent.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
        }
        Msg::RunOk { cache, spec_hash, body } => {
            put_str(&mut out, cache);
            put_str(&mut out, spec_hash);
            put_str(&mut out, body);
        }
        Msg::RunErr { status, message } => {
            out.extend_from_slice(&status.to_le_bytes());
            put_str(&mut out, message);
        }
        Msg::Health | Msg::Stats | Msg::Drain => {}
        Msg::HealthOk { worker_id, draining } => {
            put_str(&mut out, worker_id);
            out.push(u8::from(*draining));
        }
        Msg::StatsOk { pairs } => {
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (name, value) in pairs {
                put_str(&mut out, name);
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
        Msg::DrainOk { worker_id } => put_str(&mut out, worker_id),
        Msg::Trace => {}
        Msg::TraceOk { worker_id, dropped, jsonl } => {
            put_str(&mut out, worker_id);
            out.extend_from_slice(&dropped.to_le_bytes());
            put_str(&mut out, jsonl);
        }
    }
    out
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Msg, WireError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let msg = match kind {
        1 => {
            let spec_json = r.string()?;
            // Version 1 ends here; version 2 appends a presence flag and
            // the trace IDs. Decoding by remaining bytes (rather than the
            // header version) keeps one tolerant reader for both.
            let trace = if r.remaining() == 0 {
                None
            } else {
                match r.u8()? {
                    0 => None,
                    1 => Some(TraceCtx { request: r.u64()?, parent: r.u64()? }),
                    _ => return Err(WireError::Malformed("trace presence flag is not 0/1")),
                }
            };
            Msg::Run { spec_json, trace }
        }
        2 => Msg::RunOk { cache: r.string()?, spec_hash: r.string()?, body: r.string()? },
        3 => Msg::RunErr { status: r.u16()?, message: r.string()? },
        4 => Msg::Health,
        5 => Msg::HealthOk {
            worker_id: r.string()?,
            draining: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("draining flag is not 0/1")),
            },
        },
        6 => Msg::Stats,
        7 => {
            let count = r.u32()? as usize;
            if count > MAX_PAYLOAD / 13 {
                // 13 = the minimum encoded pair size; a count beyond this
                // cannot fit the payload and would only bloat allocation.
                return Err(WireError::Malformed("stats pair count exceeds payload"));
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let name = r.string()?;
                let value = r.u64()?;
                pairs.push((name, value));
            }
            Msg::StatsOk { pairs }
        }
        8 => Msg::Drain,
        9 => Msg::DrainOk { worker_id: r.string()? },
        10 => Msg::Trace,
        11 => Msg::TraceOk { worker_id: r.string()?, dropped: r.u64()?, jsonl: r.string()? },
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Encodes `msg` as one complete frame (header + payload) at [`VERSION`].
pub fn encode(msg: &Msg) -> Vec<u8> {
    encode_versioned(msg, VERSION)
}

/// Encodes `msg` as one frame declaring (and encoding the payload at)
/// `version`, clamped to `MIN_VERSION..=VERSION`. Kinds introduced after
/// `MIN_VERSION` (`Trace`/`TraceOk`) always encode at the version that
/// introduced them. This is how the property suite impersonates an old
/// peer: a version-1 `Run` frame carries no trace suffix and must decode
/// to `trace: None` on a current build.
pub fn encode_versioned(msg: &Msg, version: u16) -> Vec<u8> {
    let mut version = version.clamp(MIN_VERSION, VERSION);
    if matches!(msg, Msg::Trace | Msg::TraceOk { .. }) {
        version = version.max(2);
    }
    let payload = encode_payload(msg, version);
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&version.to_le_bytes());
    frame.push(msg.kind());
    frame.push(0);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&checksum(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Validates a header's fixed fields; returns `(kind, payload_len,
/// declared checksum)`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize, u32), WireError> {
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(WireError::VersionMismatch { got: version });
    }
    let kind = header[6];
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::TooLarge(len));
    }
    let want = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    Ok((kind, len as usize, want))
}

/// Decodes exactly one frame from `bytes`. A short buffer is
/// [`WireError::Truncated`]; bytes past the frame are
/// [`WireError::Malformed`] (the stream reader never produces either —
/// this entry point exists for the property tests and offline tooling).
pub fn decode(bytes: &[u8]) -> Result<Msg, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (kind, len, want) = parse_header(&header)?;
    let rest = &bytes[HEADER_LEN..];
    if rest.len() < len {
        return Err(WireError::Truncated);
    }
    if rest.len() > len {
        return Err(WireError::Malformed("bytes beyond the frame"));
    }
    let payload = &rest[..len];
    let got = checksum(payload);
    if got != want {
        return Err(WireError::BadChecksum { got, want });
    }
    decode_payload(kind, payload)
}

/// Writes one frame and flushes.
pub fn write_msg(stream: &mut impl Write, msg: &Msg) -> io::Result<()> {
    stream.write_all(&encode(msg))?;
    stream.flush()
}

/// Fills `buf` from the stream; EOF before the first byte is `Closed`,
/// EOF after is `Truncated`.
fn read_full(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame from the stream and decodes it.
pub fn read_msg(stream: &mut impl Read) -> Result<Msg, WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(stream, &mut header)?;
    let (kind, len, want) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    if !payload.is_empty() {
        match read_full(stream, &mut payload) {
            Ok(()) => {}
            // EOF between header and payload is a truncation either way.
            Err(WireError::Closed) => return Err(WireError::Truncated),
            Err(e) => return Err(e),
        }
    }
    let got = checksum(&payload);
    if got != want {
        return Err(WireError::BadChecksum { got, want });
    }
    decode_payload(kind, &payload)
}

/// One one-shot exchange with a peer at `addr`: connect, send `msg`,
/// read the reply. Connect, write and read each get `budget`.
pub fn exchange(addr: &str, msg: &Msg, budget: Duration) -> Result<Msg, WireError> {
    let parsed: SocketAddr = addr.parse().map_err(|_| {
        WireError::Io(io::Error::new(io::ErrorKind::InvalidInput, format!("bad address `{addr}`")))
    })?;
    let mut stream = TcpStream::connect_timeout(&parsed, budget)?;
    stream.set_read_timeout(Some(budget))?;
    stream.set_write_timeout(Some(budget))?;
    write_msg(&mut stream, msg)?;
    read_msg(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_stream() {
        let messages = [
            Msg::Run { spec_json: r#"{"experiment":"fig4"}"#.to_string(), trace: None },
            Msg::Run {
                spec_json: r#"{"experiment":"fig4"}"#.to_string(),
                trace: Some(TraceCtx { request: 42, parent: 7 }),
            },
            Msg::RunOk {
                cache: "miss".to_string(),
                spec_hash: "ab".repeat(32),
                body: "Table\n1 2 3\n".to_string(),
            },
            Msg::RunErr { status: 400, message: "unknown field".to_string() },
            Msg::Health,
            Msg::HealthOk { worker_id: "127.0.0.1:9101".to_string(), draining: false },
            Msg::Stats,
            Msg::StatsOk { pairs: vec![("worker.served".to_string(), 7)] },
            Msg::Drain,
            Msg::DrainOk { worker_id: "127.0.0.1:9101".to_string() },
            Msg::Trace,
            Msg::TraceOk {
                worker_id: "127.0.0.1:9101".to_string(),
                dropped: 3,
                jsonl: "{\"request\":1}\n".to_string(),
            },
        ];
        let mut wire = Vec::new();
        for msg in &messages {
            write_msg(&mut wire, msg).unwrap();
        }
        let mut stream = &wire[..];
        for msg in &messages {
            assert_eq!(&read_msg(&mut stream).unwrap(), msg);
        }
        assert!(matches!(read_msg(&mut stream), Err(WireError::Closed)));
    }

    #[test]
    fn corrupt_and_foreign_frames_are_typed_errors() {
        let good = encode(&Msg::Health);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(decode(&bad_magic), Err(WireError::BadMagic(_))));

        let mut future = good.clone();
        future[4] = 9;
        assert!(matches!(decode(&future), Err(WireError::VersionMismatch { got: 9 })));

        let mut unknown = good.clone();
        unknown[6] = 200;
        assert!(matches!(decode(&unknown), Err(WireError::UnknownKind(200))));

        let body = encode(&Msg::Run { spec_json: "{}".to_string(), trace: None });
        let mut flipped = body.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(decode(&flipped), Err(WireError::BadChecksum { .. })));

        assert!(matches!(decode(&body[..body.len() - 1]), Err(WireError::Truncated)));
        assert!(matches!(decode(&body[..HEADER_LEN - 2]), Err(WireError::Truncated)));
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let mut frame = encode(&Msg::Health);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::TooLarge(_))));
        let mut stream = &frame[..];
        assert!(matches!(read_msg(&mut stream), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn version_1_run_frames_degrade_to_an_unlinked_trace() {
        // An old coordinator (or a new one impersonating it) encodes the
        // bare spec. A current build must decode it — trace None, never
        // an error: that is the rolling-upgrade contract.
        let msg = Msg::Run {
            spec_json: r#"{"experiment":"fig4"}"#.to_string(),
            trace: Some(TraceCtx { request: 9, parent: 4 }),
        };
        let v1 = encode_versioned(&msg, 1);
        assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), 1, "header declares version 1");
        match decode(&v1).expect("a v1 frame decodes on a v2 build") {
            Msg::Run { spec_json, trace } => {
                assert_eq!(spec_json, r#"{"experiment":"fig4"}"#);
                assert_eq!(trace, None, "the trace context is dropped, not misparsed");
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn trace_frames_always_declare_version_2() {
        let frame = encode_versioned(&Msg::Trace, 1);
        assert_eq!(u16::from_le_bytes([frame[4], frame[5]]), 2);
        assert!(matches!(decode(&frame), Ok(Msg::Trace)));
    }

    #[test]
    fn corrupt_trace_presence_flag_is_malformed() {
        let msg = Msg::Run {
            spec_json: "{}".to_string(),
            trace: Some(TraceCtx { request: 1, parent: 2 }),
        };
        let payload_flag_offset = HEADER_LEN + 4 + 2; // str len + "{}"
        let mut frame = encode(&msg);
        frame[payload_flag_offset] = 7;
        // Fix the checksum so the flag itself is what the decoder sees.
        let digest = sha256(&frame[HEADER_LEN..]);
        frame[12..16].copy_from_slice(&digest[..4]);
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }
}
