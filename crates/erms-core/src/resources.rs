//! Container resource sizes and cluster capacities.

/// Resource configuration of one microservice container.
///
/// The paper configures every DeathStarBench container with 0.1 CPU core and
/// 200 MB of memory (§6.1); [`Resources::default`] mirrors that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resources {
    /// CPU request, in cores.
    pub cpu: f64,
    /// Memory request, in megabytes.
    pub memory_mb: f64,
}

impl Resources {
    /// Creates a container resource request.
    ///
    /// # Panics
    ///
    /// Panics if either component is not finite and non-negative; container
    /// sizes are configuration constants, so this is a programming error.
    pub fn new(cpu: f64, memory_mb: f64) -> Self {
        assert!(
            cpu.is_finite() && cpu >= 0.0 && memory_mb.is_finite() && memory_mb >= 0.0,
            "container resources must be finite and non-negative"
        );
        Self { cpu, memory_mb }
    }

    /// Dominant-resource demand `R_i = max(cpu/C, mem/M)` of Eq. (3),
    /// normalised by the cluster capacity.
    pub(crate) fn dominant_share(&self, capacity: &ClusterCapacity) -> f64 {
        let cpu_share = if capacity.cpu > 0.0 {
            self.cpu / capacity.cpu
        } else {
            0.0
        };
        let mem_share = if capacity.memory_mb > 0.0 {
            self.memory_mb / capacity.memory_mb
        } else {
            0.0
        };
        cpu_share.max(mem_share)
    }
}

impl Default for Resources {
    /// The paper's container shape: 0.1 core, 200 MB (§6.1).
    fn default() -> Self {
        Self {
            cpu: 0.1,
            memory_mb: 200.0,
        }
    }
}

/// Total CPU and memory capacity of the cluster, used to normalise dominant
/// resource demands (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterCapacity {
    /// Total CPU cores.
    pub cpu: f64,
    /// Total memory in megabytes.
    pub memory_mb: f64,
}

impl ClusterCapacity {
    /// Creates a capacity description.
    pub(crate) fn new(cpu: f64, memory_mb: f64) -> Self {
        Self { cpu, memory_mb }
    }

    /// The paper's evaluation cluster: 20 hosts × (32 cores, 64 GB) (§6.1).
    pub(crate) fn paper_cluster() -> Self {
        Self::new(20.0 * 32.0, 20.0 * 64.0 * 1024.0)
    }
}

impl Default for ClusterCapacity {
    fn default() -> Self {
        Self::paper_cluster()
    }
}

/// A typed host class in a heterogeneous cluster: per-class capacity plus an
/// interference profile.
///
/// The paper's evaluation grid is uniform 32-core/64-GB hosts (§6.1), but the
/// production clusters it targets mix machine generations and sizes. A class
/// carries the knob the placement layer needs beyond raw capacity: an
/// `interference_scale` multiplier on the utilisation-derived interference —
/// large NUMA boxes isolate colocated work better (scale < 1), small or
/// oversubscribed nodes amplify it (scale > 1). `scale = 1.0` reproduces the
/// paper's uniform behaviour exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct HostClass {
    /// Human-readable class name ("standard", "large", ...).
    pub name: String,
    /// CPU capacity in cores.
    pub cpu: f64,
    /// Memory capacity in megabytes.
    pub memory_mb: f64,
    /// Multiplier applied to utilisation-derived interference on hosts of
    /// this class. 1.0 = the paper's uniform host.
    pub interference_scale: f64,
}

impl HostClass {
    /// Creates a host class.
    ///
    /// # Panics
    ///
    /// Panics if any numeric field is not finite and positive; host classes
    /// are configuration constants, so this is a programming error.
    pub(crate) fn new(name: &str, cpu: f64, memory_mb: f64, interference_scale: f64) -> Self {
        assert!(
            cpu.is_finite()
                && cpu > 0.0
                && memory_mb.is_finite()
                && memory_mb > 0.0
                && interference_scale.is_finite()
                && interference_scale > 0.0,
            "host class parameters must be finite and positive"
        );
        Self {
            name: name.to_string(),
            cpu,
            memory_mb,
            interference_scale,
        }
    }

    /// The paper's host shape: 32 cores, 64 GB, neutral interference.
    pub fn standard() -> Self {
        Self::new("standard", 32.0, 64.0 * 1024.0, 1.0)
    }

    /// A large host: 64 cores, 128 GB, slightly better isolation.
    pub fn large() -> Self {
        Self::new("large", 64.0, 128.0 * 1024.0, 0.9)
    }

    /// A small host: 16 cores, 32 GB, noisier neighbours.
    pub fn small() -> Self {
        Self::new("small", 16.0, 32.0 * 1024.0, 1.2)
    }
}

impl Default for HostClass {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominant_share_picks_max() {
        let cap = ClusterCapacity::new(100.0, 10_000.0);
        // cpu share = 0.01, mem share = 0.02 -> mem dominates
        let r = Resources::new(1.0, 200.0);
        assert!((r.dominant_share(&cap) - 0.02).abs() < 1e-12);
        // cpu dominates
        let r = Resources::new(5.0, 100.0);
        assert!((r.dominant_share(&cap) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn default_matches_paper_container() {
        let r = Resources::default();
        assert_eq!(r.cpu, 0.1);
        assert_eq!(r.memory_mb, 200.0);
    }

    #[test]
    fn paper_cluster_capacity() {
        let c = ClusterCapacity::paper_cluster();
        assert_eq!(c.cpu, 640.0);
        assert_eq!(c.memory_mb, 20.0 * 64.0 * 1024.0);
    }

    #[test]
    #[should_panic]
    fn negative_cpu_panics() {
        let _ = Resources::new(-1.0, 10.0);
    }

    #[test]
    fn zero_capacity_does_not_divide_by_zero() {
        let cap = ClusterCapacity::new(0.0, 0.0);
        let r = Resources::default();
        assert_eq!(r.dominant_share(&cap), 0.0);
    }

    #[test]
    fn standard_class_matches_paper_host() {
        let c = HostClass::standard();
        assert_eq!(c.cpu, 32.0);
        assert_eq!(c.memory_mb, 64.0 * 1024.0);
        assert_eq!(c.interference_scale, 1.0);
    }

    #[test]
    fn class_sizes_are_ordered() {
        assert!(HostClass::small().cpu < HostClass::standard().cpu);
        assert!(HostClass::standard().cpu < HostClass::large().cpu);
        assert!(HostClass::large().interference_scale < HostClass::small().interference_scale);
    }

    #[test]
    #[should_panic]
    fn zero_scale_class_panics() {
        let _ = HostClass::new("bad", 32.0, 1024.0, 0.0);
    }
}
