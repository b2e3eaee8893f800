//! `hbc-serve`: a dependency-free simulation service.
//!
//! The figure binaries answer one question per process run; this crate
//! turns the same experiment drivers into a long-lived service that many
//! clients can query concurrently:
//!
//! * [`json`] / [`spec`] — a hand-rolled JSON codec and the validated
//!   request specs it carries, with a *canonical* rendering that makes
//!   "same experiment" a syntactic property;
//! * [`hash`] / [`cache`] — SHA-256 content addressing over canonical
//!   specs, an in-memory LRU, and on-disk persistence under
//!   `results/cache/`, so identical requests never re-simulate;
//! * [`http`] / [`front`] — a std-only HTTP/1.1 front end on
//!   `TcpListener` with a fixed handler pool, a bounded admission queue
//!   (429 on overload), per-request deadlines, and graceful drain (503 to
//!   new connections until in-flight requests finish). It serves one
//!   [`front::Backend`]; the `hbc-cluster` coordinator is the same front
//!   end over a remote backend;
//! * [`server`] — the front end over the local backend: single-flight
//!   coalescing of concurrent identical requests onto one simulation,
//!   with results kept in the cache; an `hbc-cluster worker` is this
//!   server;
//! * [`metrics`] — request/cache/queue/latency counters and per-stage
//!   quantiles in the Prometheus text format at `GET /metrics` (legacy
//!   `hbc-probe` registry JSON at `GET /metrics.json`);
//! * [`spans`] — request-scoped span tracing across the whole request
//!   lifecycle, exported as JSON lines at `GET /trace`;
//! * [`Locked`] — the closure-scoped lock every piece of shared state
//!   goes through, so no guard is ever held across socket I/O;
//! * [`client`] — the reusable blocking HTTP client (separate connect and
//!   I/O timeouts, typed [`client::ClientError`]) shared by the `hbc-load`
//!   generator, the `hbc-cluster` coordinator's forwards and tooling, and
//!   the end-to-end tests.
//!
//! The serving contract is *bit-identity*: a figure fetched through the
//! service equals the corresponding figure binary's standard output
//! byte for byte, whether it was simulated for this request, coalesced
//! onto a concurrent identical one, or replayed from the result cache
//! (`tests/serve_e2e.rs` proves all three).
//!
//! # Example
//!
//! ```no_run
//! use hbc_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! server.join(); // serves until a client POSTs /shutdown
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod front;
pub mod hash;
pub mod http;
pub mod json;
mod locked;
pub mod metrics;
pub mod server;
pub mod spans;
pub mod spec;

pub use locked::Locked;
