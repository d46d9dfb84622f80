#![warn(missing_docs)]

//! Online co-location inference server.
//!
//! Turns the offline HisRect pipeline into a service: a dependency-free
//! threaded HTTP/1.1 server answering live "are users ui and uj at the
//! same POI right now?" queries (the §5 judge over
//! `|E′(F(ri)) − E′(F(rj))|`) against a trained model snapshot.
//!
//! The crate is organized as the request's journey:
//!
//! - [`http`] — framing: incrementally parse requests under strict
//!   limits, write typed responses.
//! - [`conn`] — per-connection state machine (Reading → Busy → Writing)
//!   over non-blocking sockets.
//! - [`event_loop`] — the epoll readiness loop: one thread multiplexes
//!   every socket, a small worker pool runs the blocking compute.
//! - [`server`] — routing and handlers, mounted on the event loop.
//! - [`registry`] — the loaded model, with atomic hot-reload
//!   (`POST /reload`) under a generation counter.
//! - [`cache`] — sharded LRU of per-profile features `F(r)`: features
//!   change slowly per user, so they are computed once and reused across
//!   pairwise judgements.
//! - [`batcher`] — micro-batching by flat combining: concurrent judge
//!   requests coalesce into one batched forward pass (bit-identical to
//!   single-pair calls) run by whichever compute worker holds the
//!   combiner lock, with 503 backpressure when the bounded queue fills
//!   and deadline-expired jobs shed before the forward pass.
//! - [`client`] — a minimal keep-alive client for tests and the load
//!   generator, with optional deterministic retry/backoff.
//!
//! Overload protection (DESIGN.md §15):
//!
//! - [`admission`] — token-bucket gate ahead of the batcher, and the
//!   drain-rate estimate that prices full-queue `Retry-After` hints.
//! - [`breaker`] — circuit breaker around the learned-judge path; while
//!   open, `/judge` serves degraded verdicts (stale cache reads or the
//!   core `FallbackJudge` heuristic) labeled `x-hisrect-degraded`.
//!
//! Sharded serving (DESIGN.md §17):
//!
//! - [`ring`] — consistent-hash ring mapping user ids to shard indices
//!   (FNV-1a vnodes; ownership is cache locality, not correctness).
//! - [`router`] — a front tier built on the same event loop that
//!   proxies `/judge`, `/judge_batch`, `/candidates` to the owning
//!   shard, health-checks and ejects dead shards, and runs draining
//!   rolling reloads.
//!
//! Endpoints: `POST /judge`, `POST /judge_batch`, `GET /healthz`,
//! `GET /metrics`, `POST /reload`.

pub mod admission;
pub mod batcher;
pub mod breaker;
pub mod cache;
pub mod client;
pub mod conn;
pub mod event_loop;
pub mod http;
pub mod registry;
pub mod ring;
pub mod router;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionGate};
pub use batcher::Batcher;
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClientResponse, HttpClient, RetryPolicy};
pub use event_loop::{EventLoopConfig, Service};
pub use registry::{LoadedModel, ModelRegistry};
pub use ring::HashRing;
pub use router::{route, RouterConfig, RouterHandle};
pub use server::{serve, ServeConfig, ServerHandle};
