//! Property tests for the cluster wire codec (`hbc-ptest` driven).
//!
//! The codec's inputs are untrusted bytes off a socket, so the
//! properties are adversarial: every random message round-trips exactly;
//! every strict prefix is `Truncated`; every payload corruption is
//! `BadChecksum`; every version skew is `VersionMismatch`; and no input
//! — structured or garbage — ever panics the decoder.

use hbc_cluster::wire::{self, Msg, TraceCtx, WireError, HEADER_LEN, MIN_VERSION, VERSION};
use hbc_ptest::{check, Gen};

/// A random string mixing ASCII, JSON punctuation, and multibyte UTF-8.
fn random_string(g: &mut Gen, max_len: usize) -> String {
    let alphabet = ["a", "z", "0", "9", " ", "\"", "{", "}", ":", ",", "\n", "\\", "é", "試", "🦀"];
    let len = g.usize_in(0, max_len);
    let mut s = String::new();
    for _ in 0..len {
        let piece: &&str = g.pick(&alphabet[..]);
        s.push_str(piece);
    }
    s
}

/// A random trace context (absent half the time, like untraced peers).
fn random_trace(g: &mut Gen) -> Option<TraceCtx> {
    if g.bool() {
        Some(TraceCtx { request: g.next_u64(), parent: g.next_u64() })
    } else {
        None
    }
}

/// One payload-free message of every frame kind.
fn kinds() -> [Msg; 11] {
    let s = String::new;
    [
        Msg::Run { spec_json: s(), trace: None },
        Msg::RunOk { cache: s(), spec_hash: s(), body: s() },
        Msg::RunErr { status: 0, message: s() },
        Msg::Health,
        Msg::HealthOk { worker_id: s(), draining: false },
        Msg::Stats,
        Msg::StatsOk { pairs: Vec::new() },
        Msg::Drain,
        Msg::DrainOk { worker_id: s() },
        Msg::Trace,
        Msg::TraceOk { worker_id: s(), dropped: 0, jsonl: s() },
    ]
}

/// A random message of a random frame kind. The match has no `_` arm,
/// so a new `Msg` variant does not compile here until it has a
/// generator; `kinds_cover_every_decodable_kind` checks it is picked.
fn random_msg(g: &mut Gen) -> Msg {
    match g.pick(&kinds()) {
        Msg::Run { .. } => Msg::Run { spec_json: random_string(g, 64), trace: random_trace(g) },
        Msg::RunOk { .. } => Msg::RunOk {
            cache: random_string(g, 12),
            spec_hash: random_string(g, 64),
            body: random_string(g, 256),
        },
        Msg::RunErr { .. } => {
            Msg::RunErr { status: g.u32_in(100, 599) as u16, message: random_string(g, 64) }
        }
        Msg::Health => Msg::Health,
        Msg::HealthOk { .. } => {
            Msg::HealthOk { worker_id: random_string(g, 24), draining: g.bool() }
        }
        Msg::Stats => Msg::Stats,
        Msg::StatsOk { .. } => {
            let n = g.usize_in(0, 8);
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((random_string(g, 24), g.next_u64()));
            }
            Msg::StatsOk { pairs }
        }
        Msg::Drain => Msg::Drain,
        Msg::DrainOk { .. } => Msg::DrainOk { worker_id: random_string(g, 24) },
        Msg::Trace => Msg::Trace,
        Msg::TraceOk { .. } => Msg::TraceOk {
            worker_id: random_string(g, 24),
            dropped: g.next_u64(),
            jsonl: random_string(g, 256),
        },
    }
}

#[test]
fn kinds_cover_every_decodable_kind() {
    // A payload-free frame under each kind byte: the decoder knows the
    // kind (any answer but `UnknownKind`) exactly when `kinds` has it.
    let generated: Vec<u8> = kinds().iter().map(|m| wire::encode(m)[6]).collect();
    let mut frame = wire::encode(&Msg::Health);
    for kind in 0..=u8::MAX {
        frame[6] = kind;
        let known = !matches!(wire::decode(&frame), Err(WireError::UnknownKind(_)));
        assert_eq!(known, generated.contains(&kind), "kind byte {kind}");
    }
}

#[test]
fn every_message_round_trips_exactly() {
    check("wire.roundtrip", 500, |g| {
        let msg = random_msg(g);
        let frame = wire::encode(&msg);
        let decoded = wire::decode(&frame).expect("a freshly encoded frame decodes");
        assert_eq!(decoded, msg);
    });
}

#[test]
fn message_sequences_round_trip_over_a_stream() {
    check("wire.stream_roundtrip", 100, |g| {
        let count = g.usize_in(1, 6);
        let messages: Vec<Msg> = (0..count).map(|_| random_msg(g)).collect();
        let mut stream_bytes = Vec::new();
        for msg in &messages {
            wire::write_msg(&mut stream_bytes, msg).expect("in-memory write succeeds");
        }
        let mut stream = &stream_bytes[..];
        for msg in &messages {
            assert_eq!(&wire::read_msg(&mut stream).expect("frame reads back"), msg);
        }
        assert!(
            matches!(wire::read_msg(&mut stream), Err(WireError::Closed)),
            "a clean EOF at a frame boundary is Closed"
        );
    });
}

#[test]
fn every_strict_prefix_is_truncated() {
    check("wire.truncation", 500, |g| {
        let frame = wire::encode(&random_msg(g));
        let cut = g.usize_in(0, frame.len() - 1);
        assert!(
            matches!(wire::decode(&frame[..cut]), Err(WireError::Truncated)),
            "a {cut}-byte prefix of a {}-byte frame must be Truncated",
            frame.len()
        );
        // The stream reader agrees: mid-frame EOF is Truncated (or Closed
        // for the empty prefix — the peer never started a frame).
        let mut stream = &frame[..cut];
        let want_closed = cut == 0;
        match wire::read_msg(&mut stream) {
            Err(WireError::Closed) => assert!(want_closed),
            Err(WireError::Truncated) => assert!(!want_closed),
            other => panic!("prefix of {cut} bytes decoded to {other:?}"),
        }
    });
}

#[test]
fn payload_corruption_is_a_checksum_error() {
    check("wire.corruption", 500, |g| {
        let msg = random_msg(g);
        let mut frame = wire::encode(&msg);
        if frame.len() == HEADER_LEN {
            return; // Kinds without a payload have nothing to corrupt.
        }
        let offset = g.usize_in(HEADER_LEN, frame.len() - 1);
        let bit = 1u8 << g.u32_in(0, 7);
        frame[offset] ^= bit;
        assert!(
            matches!(wire::decode(&frame), Err(WireError::BadChecksum { .. })),
            "flipping bit {bit:#x} at payload offset {} must fail the checksum",
            offset - HEADER_LEN
        );
    });
}

#[test]
fn version_skew_is_a_typed_mismatch() {
    check("wire.version", 200, |g| {
        let mut frame = wire::encode(&random_msg(g));
        let mut skewed = VERSION;
        while (MIN_VERSION..=VERSION).contains(&skewed) {
            skewed = (g.next_u64() & 0xffff) as u16;
        }
        frame[4..6].copy_from_slice(&skewed.to_le_bytes());
        match wire::decode(&frame) {
            Err(WireError::VersionMismatch { got }) => assert_eq!(got, skewed),
            other => panic!("version {skewed} decoded to {other:?}"),
        }
    });
}

#[test]
fn version_1_peers_degrade_to_unlinked_run_frames() {
    check("wire.v1_degrade", 300, |g| {
        let spec_json = random_string(g, 64);
        let msg = Msg::Run { spec_json: spec_json.clone(), trace: random_trace(g) };
        // A new coordinator talking to an old worker encodes at the
        // peer's version: the trace context is dropped on the wire, and
        // decoding yields an unlinked Run — never an error.
        let frame = wire::encode_versioned(&msg, 1);
        assert_eq!(frame[4..6], 1u16.to_le_bytes(), "the header declares the old version");
        match wire::decode(&frame) {
            Ok(Msg::Run { spec_json: got, trace: None }) => assert_eq!(got, spec_json),
            other => panic!("a v1 Run frame decoded to {other:?}"),
        }
    });
}

#[test]
fn arbitrary_garbage_never_panics_the_decoder() {
    check("wire.garbage", 1000, |g| {
        let len = g.usize_in(0, 96);
        let mut bytes: Vec<u8> = (0..len).map(|_| (g.next_u64() & 0xff) as u8).collect();
        // Half the time, steer garbage past the magic/version checks so
        // the payload decoders see it too.
        if g.bool() && bytes.len() >= 6 {
            bytes[..4].copy_from_slice(b"HBCW");
            bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
        }
        // Any outcome but a panic is acceptable.
        let _ = wire::decode(&bytes);
        let mut stream = &bytes[..];
        let _ = wire::read_msg(&mut stream);
    });
}
