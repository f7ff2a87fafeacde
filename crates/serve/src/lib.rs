//! Crash-tolerant persistent evaluation service for the ucore model.
//!
//! `ucore-serve` turns the one-shot `repro` pipeline into a long-running
//! daemon: a hand-rolled HTTP/1.1 server over [`std::net`] (no async
//! runtime, no new dependencies) that answers figure, table, scenario,
//! and projection queries with bodies *byte-identical* to `repro`
//! stdout — both front ends render through [`ucore_bench::render`].
//!
//! The point of the crate is the robustness envelope, not the protocol:
//!
//! * **Admission control** ([`server`]): a worker pool is the hard
//!   concurrency limit and a bounded queue is the only buffering.
//!   Overload sheds immediately with a structured `server.overloaded`
//!   503 — queue depth cannot grow without bound.
//! * **Per-request deadlines** ([`service`]): each render runs under a
//!   deadline that every sweep point checks before it evaluates
//!   ([`ucore_project::arm_request_deadline`]); pathological queries
//!   come back as `request.deadline` 504 instead of wedging a worker.
//! * **Graceful degradation** ([`service`], [`error`]): handlers run
//!   under `catch_unwind`; contained panics, injected faults
//!   (`UCORE_FAULT_INJECT`), and degraded journaling surface as
//!   taxonomy-coded JSON errors while the process keeps serving.
//! * **Graceful shutdown** ([`server`]): SIGINT/SIGTERM (see the
//!   `served` binary) stops admission, drains in-flight requests under
//!   a bounded deadline, flushes the run journal, and exits 0; a
//!   `kill -9` mid-request leaves a journal that `--resume` replays to
//!   byte-identical output.
//!
//! Every request outcome is counted in the process-wide [`ucore_obs`]
//! registry (the private `obs` module documents the `serve.*`
//! contract), rendered on `GET /metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod http;
pub(crate) mod obs;
pub mod server;
pub mod service;

pub use error::ServeError;
pub use http::{Limits, ParseError, Request};
pub use server::{DrainReport, Server, ServerConfig, ShutdownHandle};
pub use service::{handle, Response};
