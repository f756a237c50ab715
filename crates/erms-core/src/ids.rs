//! Strongly-typed identifiers for microservices, services and graph nodes.
//!
//! All identifiers are small copyable newtypes over `u32` (C-NEWTYPE). They
//! are created by [`AppBuilder`](crate::app::AppBuilder) and the graph
//! builder, and index into the owning [`App`](crate::app::App).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            ///
            /// Indices are assigned densely from zero by the builders; this
            /// constructor exists for deserialization and test fixtures.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw dense index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifier of a microservice within an [`App`](crate::app::App).
    ///
    /// A microservice is deployed once and may be referenced (shared) by any
    /// number of services.
    MicroserviceId,
    "ms-"
);

define_id!(
    /// Identifier of an online service (an end-to-end request type with an
    /// SLA) within an [`App`](crate::app::App).
    ServiceId,
    "svc-"
);

define_id!(
    /// Identifier of a node within one service's dependency graph.
    ///
    /// Distinct nodes may reference the same [`MicroserviceId`] (a
    /// microservice invoked at several points of one request).
    NodeId,
    "node-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = MicroserviceId::new(1);
        let b = MicroserviceId::new(2);
        assert!(a < b);
        let set: HashSet<_> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_has_prefix() {
        assert_eq!(ServiceId::new(7).to_string(), "svc-7");
        assert_eq!(MicroserviceId::new(0).to_string(), "ms-0");
        assert_eq!(NodeId::new(12).to_string(), "node-12");
    }

    #[test]
    fn index_round_trip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
    }
}
