//! `hbc-cluster`: a sharded coordinator/worker serving layer on top of
//! `hbc-serve`, with failover.
//!
//! One `hbc-serve` process is bounded by a single host. This crate
//! scales the same API horizontally while keeping the serving contract
//! — byte-identity with the figure binaries — intact through routing,
//! retries, and worker death:
//!
//! * [`ring`] — rendezvous (highest-random-weight) hashing on the
//!   canonical spec hash: each spec has a deterministic worker order
//!   `[primary, first failover, …]` computed from the membership list
//!   alone, keeping every worker's result-cache shard hot;
//! * workers — each an `hbc-serve` server ([`hbc_serve::server::Server`],
//!   started by `hbc-cluster worker`): spec validation, the
//!   content-addressed cache, single-flight and the simulation drivers,
//!   over the same HTTP API;
//! * [`coordinator`] — `hbc-serve`'s HTTP front end
//!   ([`hbc_serve::front`]) over a remote backend: the same API
//!   (`POST /run`, `GET /metrics`, `GET /trace`, …), admission, deadlines
//!   and drain as `hbc-serve`, plus per-worker health probes, bounded
//!   in-flight windows, and retry-with-failover to the next rendezvous
//!   candidate. It reaches workers through [`hbc_serve::client`]: one
//!   transport, one codec ([`hbc_serve::http`]).
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
//! use hbc_serve::server::{Server, ServerConfig};
//!
//! let worker = Server::bind(ServerConfig::default()).unwrap();
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
