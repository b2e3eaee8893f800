//! Property tests for the codecs on the wire: JSON round-trips,
//! request-spec round-trips, canonicalization invariants, metrics-export
//! parseability, and the HTTP reader every server, client and forward
//! shares — all on the deterministic `hbc-ptest` harness.
//!
//! The HTTP reader's input is untrusted bytes off a socket, so its
//! properties are adversarial: random messages round-trip whatever the
//! read sizes; every strict prefix is a typed error; flipped bytes and
//! garbage never panic; and an oversized `Content-Length` is `TooLarge`
//! before anything is allocated for it.

#![expect(clippy::expect_used, reason = "a generator fails the test if writing to a Vec fails")]

use std::io::{self, Read};

use hbc_ptest::{assert_injective, check, Gen};
use hbc_serve::client::send_request_head;
use hbc_serve::http::{self, HttpError, MAX_BODY_BYTES, MAX_HEAD_BYTES, MAX_RESPONSE_BODY_BYTES};
use hbc_serve::json::Json;
use hbc_serve::metrics::Metrics;
use hbc_serve::spec::{mixed_request, ExperimentId, Preset, RunRequest};

/// A random JSON value of bounded depth. Covers every variant, exact
/// integers above 2^53, negative and fractional floats, and strings with
/// escapes and astral characters.
fn arb_json(g: &mut Gen, depth: usize) -> Json {
    let kinds = if depth == 0 { 5 } else { 7 };
    match g.u64_below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(g.bool()),
        2 => Json::U64(g.u64_in(0, u64::MAX)),
        3 => {
            // Finite floats only: non-finite values have no JSON spelling.
            let x = g.f64_in(-1e15, 1e15);
            Json::F64(if g.bool() { x } else { x / 1e12 })
        }
        4 => Json::Str(arb_string(g)),
        5 => Json::Arr(g.vec(0, 4, |g| arb_json(g, depth - 1))),
        _ => {
            let pairs = g.vec(0, 4, |g| (arb_string(g), arb_json(g, depth - 1)));
            Json::Obj(pairs.into_iter().collect())
        }
    }
}

fn arb_string(g: &mut Gen) -> String {
    g.vec(0, 12, |g| match g.u64_below(4) {
        0 => *g.pick(&['a', 'Z', '0', ' ', 'é', '∞', '😀']),
        1 => *g.pick(&['"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}']),
        2 => char::from(g.u32_in(0x20, 0x7e) as u8),
        _ => char::from_u32(g.u32_in(0xa0, 0x2fff)).unwrap_or('x'),
    })
    .into_iter()
    .collect()
}

#[test]
fn json_render_parse_round_trips() {
    check("json round-trip", 512, |g| {
        let v = arb_json(g, 3);
        let rendered = v.render();
        let parsed = Json::parse(&rendered).expect("canonical rendering parses");
        assert_eq!(parsed, v, "render: {rendered}");
        // Canonical rendering is a fixed point.
        assert_eq!(parsed.render(), rendered);
    });
}

fn arb_request(g: &mut Gen) -> RunRequest {
    let mut request = RunRequest::new(*g.pick(&ExperimentId::ALL));
    request.preset = *g.pick(&[Preset::Fast, Preset::Standard, Preset::Full]);
    request.reps = g.bool();
    request.seed = g.u64_in(0, u64::MAX);
    request.jobs = g.usize_in(1, 64);
    request
}

#[test]
fn run_request_round_trips_through_json() {
    check("spec round-trip", 512, |g| {
        let request = arb_request(g);
        let decoded = RunRequest::from_json_text(&request.to_json()).expect("own JSON decodes");
        assert_eq!(decoded, request);
    });
}

#[test]
fn canonical_form_is_a_fixed_point_that_drops_jobs() {
    check("spec canonicalization", 512, |g| {
        let request = arb_request(g);
        let reparsed =
            RunRequest::from_json_text(&request.canonical()).expect("canonical form decodes");
        // Decoding the canonical form resets `jobs` to the default…
        let mut expected = request.clone();
        expected.jobs = 1;
        assert_eq!(reparsed, expected);
        // …without moving the content address.
        assert_eq!(reparsed.spec_hash(), request.spec_hash());
        assert_eq!(reparsed.canonical(), request.canonical());
    });
}

#[test]
fn distinct_result_determining_fields_get_distinct_cache_keys() {
    let presets = [Preset::Fast, Preset::Standard, Preset::Full];
    let mut domain = Vec::new();
    for experiment in ExperimentId::ALL {
        for preset in presets {
            for reps in [false, true] {
                for seed in [0u64, 1, 42] {
                    let mut r = RunRequest::new(experiment);
                    (r.preset, r.reps, r.seed) = (preset, reps, seed);
                    domain.push(r);
                }
            }
        }
    }
    assert_injective("spec_hash over request space", domain, RunRequest::spec_hash);
}

#[test]
fn load_mix_specs_always_decode() {
    check("load mix decodes", 256, |g| {
        let request = mixed_request(g.u64_below(100), g.u64_below(10_000));
        let decoded = RunRequest::from_json_text(&request.to_json()).expect("mix spec decodes");
        assert_eq!(decoded, request);
    });
}

#[test]
fn metrics_export_parses_and_reflects_counts() {
    check("metrics export", 64, |g| {
        let m = Metrics::default();
        let requests = g.u64_below(50);
        let hits = g.u64_below(50);
        for _ in 0..requests {
            m.requests.inc();
        }
        for _ in 0..hits {
            m.cache_hits_memory.inc();
        }
        for _ in 0..g.u64_below(20) {
            m.record_latency(g.u64_below(1_000_000));
        }
        let exported = Json::parse(&m.to_registry().to_json()).expect("export parses");
        let counters =
            exported.as_obj().expect("object")["counters"].as_obj().expect("counters object");
        assert_eq!(counters["serve.http.requests"].as_u64(), Some(requests));
        assert_eq!(counters["serve.cache.hits.memory"].as_u64(), Some(hits));
    });
}

/// Hands out the bytes a few at a time, in random-sized reads, so a
/// head's blank line lands anywhere relative to a read boundary.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: Vec<usize>,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = self.sizes.pop().unwrap_or(usize::MAX);
        self.sizes.insert(0, size);
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn chunked<'a>(g: &mut Gen, bytes: &'a [u8]) -> Chunked<'a> {
    Chunked { bytes, sizes: g.vec(1, 6, |g| g.usize_in(1, 700)) }
}

fn arb_bytes(g: &mut Gen, max_len: usize) -> Vec<u8> {
    let len = g.usize_in(0, max_len);
    (0..len).map(|_| g.u64_below(256) as u8).collect()
}

/// A random path with a random query, as a coordinator's forward or a
/// federated trace fetch would send.
fn arb_path(g: &mut Gen) -> String {
    let path = *g.pick(&["/run", "/trace", "/metrics.json", "/healthz", "/"]);
    match g.u64_below(3) {
        0 => path.to_string(),
        1 => format!("{path}?trace={}.{}", g.next_u64(), g.next_u64()),
        _ => format!("{path}?federated=1&x={}", g.u64_below(1000)),
    }
}

/// One rendered request and the parts it was rendered from.
fn arb_http_request(g: &mut Gen) -> (Vec<u8>, &'static str, String, Vec<u8>) {
    let method = *g.pick(&["GET", "POST", "PUT"]);
    let (path, body) = (arb_path(g), arb_bytes(g, 2 * http::READ_CHUNK));
    let mut wire = Vec::new();
    send_request_head(&mut wire, method, &path, &body).expect("writing to a Vec cannot fail");
    (wire, method, path, body)
}

/// Header name and value pairs.
type Headers = Vec<(String, String)>;

/// One rendered response and the parts it was rendered from.
fn arb_http_response(g: &mut Gen) -> (Vec<u8>, u16, Headers, Vec<u8>) {
    let status = *g.pick(&[200, 400, 404, 429, 500, 502, 503, 504]);
    let headers: Headers =
        (0..g.usize_in(0, 3)).map(|i| (format!("X-H{i}"), format!("v{}", g.next_u64()))).collect();
    let pairs: Vec<(&str, &str)> = headers.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
    let body = arb_bytes(g, 3 * http::READ_CHUNK);
    (http::render_response(status, "text/plain", &pairs, &body), status, headers, body)
}

#[test]
fn http_requests_round_trip_whatever_the_read_sizes() {
    check("http request round-trip", 256, |g| {
        let (wire, method, path, body) = arb_http_request(g);
        let request = http::read_request(&mut chunked(g, &wire)).expect("own rendering parses");
        assert_eq!((request.method.as_str(), request.path.as_str()), (method, path.as_str()));
        assert_eq!(request.body, body);
    });
}

#[test]
fn http_responses_round_trip_whatever_the_read_sizes() {
    check("http response round-trip", 256, |g| {
        let (wire, status, headers, body) = arb_http_response(g);
        let response = http::read_response(&mut chunked(g, &wire)).expect("own rendering parses");
        assert_eq!(response.status, status);
        for (name, value) in &headers {
            assert_eq!(response.header(name), Some(value.as_str()));
        }
        assert_eq!(response.body, body);
    });
}

/// A strict prefix ends either before any byte, inside the head, or
/// inside the body: each is its own typed error.
fn assert_prefix_error(err: HttpError, cut: usize) {
    assert!(
        matches!(
            err,
            HttpError::Closed | HttpError::Malformed("truncated head" | "truncated body")
        ),
        "prefix of {cut} bytes: {err:?}"
    );
    assert_eq!(matches!(err, HttpError::Closed), cut == 0, "prefix of {cut} bytes: {err:?}");
}

#[test]
fn every_strict_prefix_of_a_message_is_a_typed_error() {
    check("http prefixes", 64, |g| {
        let (request, ..) = arb_http_request(g);
        let (response, ..) = arb_http_response(g);
        for cut in 0..request.len() {
            let err = http::read_request(&mut chunked(g, &request[..cut])).expect_err("prefix");
            assert_prefix_error(err, cut);
        }
        for cut in 0..response.len() {
            let err = http::read_response(&mut chunked(g, &response[..cut])).expect_err("prefix");
            assert_prefix_error(err, cut);
        }
    });
}

#[test]
fn flipped_bytes_and_garbage_never_panic() {
    check("http corruption", 512, |g| {
        let (mut request, ..) = arb_http_request(g);
        let (mut response, ..) = arb_http_response(g);
        for wire in [&mut request, &mut response] {
            for _ in 0..g.usize_in(1, 4) {
                let at = g.usize_in(0, wire.len() - 1);
                wire[at] ^= 1 << g.u64_below(8);
            }
        }
        let _ = http::read_request(&mut chunked(g, &request));
        let _ = http::read_response(&mut chunked(g, &response));
        let garbage = arb_bytes(g, 2 * MAX_HEAD_BYTES);
        let _ = http::read_request(&mut chunked(g, &garbage));
        let _ = http::read_response(&mut chunked(g, &garbage));
    });
}

#[test]
fn oversized_content_length_is_too_large_before_allocation() {
    check("http oversized length", 256, |g| {
        // Lengths up to far past any memory: allocating one would abort
        // the test, and no body byte follows the head to be read.
        let request_len = g.u64_in(MAX_BODY_BYTES as u64 + 1, u64::MAX);
        let wire = format!("POST /run HTTP/1.1\r\nContent-Length: {request_len}\r\n\r\n");
        let err = http::read_request(&mut chunked(g, wire.as_bytes())).expect_err("too large");
        assert!(matches!(err, HttpError::TooLarge("body")), "{err:?}");

        let response_len = g.u64_in(MAX_RESPONSE_BODY_BYTES as u64 + 1, u64::MAX);
        let wire = format!("HTTP/1.1 200 OK\r\nContent-Length: {response_len}\r\n\r\n");
        let err = http::read_response(&mut chunked(g, wire.as_bytes())).expect_err("too large");
        assert!(matches!(err, HttpError::TooLarge("body")), "{err:?}");
    });
}
