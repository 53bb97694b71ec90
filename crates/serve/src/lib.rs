//! bdrmapd: a query-serving subsystem over finished bdrmap inferences.
//!
//! The inference pipeline ends with a [`BorderMap`](bdrmap_core::BorderMap);
//! this crate makes that artifact *queryable as a service*:
//!
//! - [`server`] — a daemon that serves a border map as a zero-copy
//!   [`V3View`](bdrmap_core::V3View) over BDRM v4 snapshot bytes (an
//!   in-process map is encoded as v4 first) and answers
//!   owner-of-address, border-router-of-link, and links-of-neighbor-AS
//!   queries over a length-prefixed binary TCP protocol, with overload
//!   shedding at a fixed admission budget. Connections are served by
//!   shared-nothing epoll readiness loops (the `event` module) that
//!   multiplex thousands of non-blocking connections per loop with
//!   timer-wheel deadlines ([`timer`]) and vectored writes, over raw
//!   syscall wrappers in [`bdrmap_types::sys`]; serving is therefore
//!   Linux-only. An optional plain-HTTP GET /metrics listener serves
//!   Prometheus scrapes.
//!   Snapshots are hot-swappable via a lock-free atomic pointer swap
//!   ([`SwapCell`](bdrmap_types::SwapCell)): a `reload` verifies the
//!   next snapshot once, assembles its view and publishes it without
//!   dropping in-flight queries. Servers can boot from a
//!   crash-safe [`SnapStore`](bdrmap_core::SnapStore) directory,
//!   rolling back past corrupt snapshot generations.
//! - [`proto`] — the wire protocol (framing in
//!   [`bdrmap_types::wire`], request/response codecs here). Every
//!   decode failure is a typed [`ProtoError`]; hostile bytes never
//!   panic a loop.
//! - [`conn`] — per-connection framing policy (max-inflight-frames and
//!   frame-size caps, the request/write deadlines the loops enforce)
//!   and the seeded server-side socket chaos schedule.
//! - [`reload`] — the reload circuit breaker that pins the last-good
//!   snapshot after repeated reload failures.
//! - [`loadgen`] — a closed-loop load generator reporting QPS and
//!   p50/p99/p999 latency, optionally measuring a mid-run hot swap,
//!   injecting corrupt frames, and stalling connections to exercise
//!   the eviction paths; plus a scale mode (`run_scale`, Linux) that
//!   holds tens of thousands of concurrent connections from one epoll
//!   client loop and hard-fails on lost acked queries or evicted idle
//!   ballast.

pub mod conn;
mod event;
mod http;
pub mod loadgen;
pub mod proto;
pub mod reload;
pub mod server;
pub mod timer;

pub use conn::{
    ChaosNet, ChaosNetConfig, ConnLimits, FrameBuf, FrameError, NetFaultBudget, NetFaultCounts,
};
pub use loadgen::{
    queries_for_map, LoadReport, LoadgenConfig, ReloadStats, ScaleConfig, ScaleLoopStat,
    ScaleReport,
};
pub use proto::{HealthInfo, LinkInfo, ProtoError, Request, Response, Stats};
pub use reload::{Breaker, BreakerState};
pub use server::{answer, Client, LoopStat, ServeConfig, Server};
pub use timer::TimerWheel;
