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
//! ([`http::Server`]) is hand-rolled over `std::net::TcpListener` with a
//! bounded worker-thread pool, and the JSON codec ([`json::Json`]) is a
//! strict RFC 8259 implementation whose number serializer round-trips
//! every finite `f64` bit-exactly — the property the snapshot/restore
//! equivalence guarantee is built on.
//!
//! ## Layering
//!
//! ```text
//! json      strings ↔ Json values; the one tokenizer   (no domain knowledge)
//! http      TCP ↔ Request/Response                     (no JSON knowledge)
//! codec     Json ↔ App/Plan/Cluster/...; text → spans  (no HTTP knowledge)
//! tenant    Registry of per-tenant loops; the applied plan's text
//! snapshot  Registry ↔ versioned disk format
//! server    routes + drain/reload + metrics            (ties it together)
//! ```
//!
//! A tenant lock is never held while rendering, parsing, writing a socket
//! or fitting: bodies are decoded before it is taken, replies rendered
//! after it is released, and a replan fits a copy of the profiler's window
//! with no lock held.
//!
//! ## Endpoints
//!
//! | Method & path                         | Purpose |
//! |---------------------------------------|---------|
//! | `GET /healthz`                        | liveness + tenant count |
//! | `GET /metrics`                        | Prometheus text exposition |
//! | `GET/POST /v1/tenants`                | list / register tenants |
//! | `GET/DELETE /v1/tenants/{id}`         | inspect / remove one tenant |
//! | `POST /v1/tenants/{id}/spans`         | ingest telemetry spans; decoded from the bytes in one pass, no tree; a field out of range, or a microservice the tenant does not have, is a 400, never a clamp |
//! | `POST /v1/tenants/{id}/workloads`     | update request rates |
//! | `GET /v1/tenants/{id}/plan`           | current scaling plan, from text rendered once per applied plan |
//! | `POST /v1/tenants/{id}/replan`        | refit (with no lock held) + run one control round; replies `{"decision":…,"plan":…}` with the same plan text |
//! | `GET /v1/tenants/{id}/history`        | scaling-decision audit trail |
//! | `POST /v1/snapshot`                   | write the versioned snapshot |
//! | `POST /v1/reload`                     | drain, restore from snapshot |
//! | `POST /v1/shutdown`                   | graceful stop |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod http;
pub mod json;
pub mod server;
pub mod snapshot;
pub mod tenant;
#[cfg(test)]
mod wire_tests;

pub use http::Client;
pub use json::Json;
pub use server::{ControlPlane, ControlPlaneConfig};
pub use tenant::{Registry, Tenant};
