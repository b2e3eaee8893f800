//! `hbc-cluster`: a sharded coordinator/worker serving layer on top of
//! `hbc-serve`, with failover.
//!
//! One `hbc-serve` process is bounded by a single host. This crate
//! scales the same API horizontally while keeping the serving contract
//! — byte-identity with the figure binaries — intact through routing,
//! retries, and worker death:
//!
//! * [`wire`] — the length-prefixed binary protocol between coordinator
//!   and workers: magic, version, frame kind, payload length, and a
//!   SHA-256-derived checksum, so a truncated or corrupted frame is a
//!   typed error rather than a misparse; [`wire::exchange`] is the one
//!   client call (connect, send, read the reply) every caller uses;
//! * [`ring`] — rendezvous (highest-random-weight) hashing on the
//!   canonical spec hash: each spec has a deterministic worker order
//!   `[primary, first failover, …]` computed from the membership list
//!   alone, keeping every worker's result-cache shard hot;
//! * [`worker`] — a TCP server answering wire frames through
//!   `hbc-serve`'s local backend (spec validation, content-addressed
//!   cache, single-flight, simulation drivers); supports graceful drain
//!   and an abrupt kill for failover tests;
//! * [`coordinator`] — `hbc-serve`'s HTTP front end
//!   ([`hbc_serve::front`]) over a remote backend: the same API
//!   (`POST /run`, `GET /metrics`, `GET /trace`, …), admission, deadlines
//!   and drain as `hbc-serve`, plus per-worker health probes, bounded
//!   in-flight windows, and retry-with-failover to the next rendezvous
//!   candidate.
//!
//! The correctness bar (proved by `tests/cluster_e2e.rs`): a response
//! fetched through the coordinator is byte-identical to what a direct
//! `hbc-serve` would answer for the same spec — no matter which worker
//! served it, and no matter whether the primary died mid-load.
//!
//! # Example
//!
//! ```no_run
//! use hbc_cluster::coordinator::{Coordinator, CoordinatorConfig};
//! use hbc_cluster::worker::{Worker, WorkerConfig};
//!
//! let worker = Worker::bind(WorkerConfig::default()).unwrap();
//! let config = CoordinatorConfig {
//!     workers: vec![worker.addr().to_string()],
//!     ..CoordinatorConfig::default()
//! };
//! let coordinator = Coordinator::bind(config).unwrap();
//! println!("listening on http://{}", coordinator.addr());
//! coordinator.join(); // serves until a client POSTs /shutdown
//! ```

#![warn(missing_docs)]

pub mod coordinator;
pub mod ring;
pub mod wire;
pub mod worker;
