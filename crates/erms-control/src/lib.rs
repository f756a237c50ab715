//! # erms-control — the multi-tenant control-plane daemon
//!
//! A long-running HTTP/JSON service that wraps the Erms planner core
//! (profiling → latency targets → scaling → priority scheduling, with the
//! resilience ladder of `erms-core::resilience`) behind a REST API, so
//! many *tenants* — independent applications sharing one microservice
//! pool — can stream telemetry in and pull scaling plans out.
//!
//! The crate is **dependency-free** by construction: the build
//! environment is fully offline, so the HTTP server
//! (`http::Server`) is hand-rolled over `std::net::TcpListener` with a
//! bounded worker-thread pool, and the JSON codec ([`json::Json`]) is a
//! strict RFC 8259 implementation whose number serializer round-trips
//! every finite `f64` bit-exactly — the property the snapshot/restore
//! equivalence guarantee is built on.
//!
//! ## Layering
//!
//! ```text
//! json      strings ↔ Json values; the one tokenizer and its writer twin (no domain knowledge)
//! http      TCP ↔ Request/Response                     (no JSON knowledge)
//! codec     Json ↔ App/Plan/Cluster/...; text → spans, samples; domain → text (no HTTP knowledge)
//! tenant    Registry of per-tenant loops; each one's published plan
//! snapshot  Registry ↔ versioned disk format, streamed both ways
//! server    routes + drain/reload + metrics            (ties it together)
//! ```
//!
//! A tenant lock is never held while rendering, parsing, writing a socket
//! or fitting: bodies are decoded before it is taken, replies rendered
//! after it is released, and a replan fits a copy of the profiler's window
//! with no lock held. A plan read takes no tenant lock at all: it is served
//! from the entry the last section on the tenant published.
//!
//! ## Endpoints
//!
//! | Method & path                         | Purpose |
//! |---------------------------------------|---------|
//! | `GET /healthz`                        | liveness + tenant count |
//! | `GET /metrics`                        | Prometheus text exposition; each tenant read under its own lock in turn (id order), not one instant across tenants; the pool gauges sum those reads |
//! | `GET/POST /v1/tenants`                | list (each tenant's summary read under its own lock in turn) / register tenants |
//! | `GET/DELETE /v1/tenants/{id}`         | inspect / remove one tenant |
//! | `POST /v1/tenants/{id}/spans`         | ingest telemetry spans; decoded from the bytes in one pass, no tree; a field out of range, or a microservice the tenant does not have, is a 400, never a clamp |
//! | `POST /v1/tenants/{id}/workloads`     | update request rates; a service named twice, or one the tenant's app does not have, is a 400 |
//! | `GET /v1/tenants/{id}/plan`           | current scaling plan, from the published entry with no tenant lock; text written once per applied plan, straight from the plan |
//! | `POST /v1/tenants/{id}/replan`        | refit (with no lock held) + run one control round; replies `{"decision":…,"plan":…}` with the same plan text |
//! | `GET /v1/tenants/{id}/history`        | scaling-decision audit trail, bounded: the most recent 1 024 rounds (`HISTORY_LIMIT`), oldest first |
//! | `POST /v1/snapshot`                   | write the versioned snapshot: one consistent cut, every tenant lock held at once |
//! | `POST /v1/reload`                     | drain, restore from snapshot |
//! | `POST /v1/shutdown`                   | graceful stop |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod http;
pub mod json;
#[cfg(test)]
mod number_tests;
mod ryu;
pub mod server;
pub mod snapshot;
#[cfg(test)]
mod snapshot_tests;
pub mod tenant;
#[cfg(test)]
mod wire_tests;

pub use http::Client;
pub use json::Json;
pub use server::{ControlPlane, ControlPlaneConfig};
pub use tenant::{Registry, Tenant};
