//! Offline stand-in for `serde`.
//!
//! No workspace source derives or names these traits any more; the crate
//! manifests still list the dependency, and so does the lock file of the
//! standalone `benchmark/` package, so the stub stays until both drop it.
//! It provides the two marker traits and — behind the `derive` feature —
//! no-op derive macros that accept (and ignore) `#[serde(...)]`
//! attributes.

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
