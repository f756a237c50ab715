//! iBench-like interference injection (§6.2, §6.4.3).
//!
//! The paper injects controlled interference with iBench \[10\] — background
//! workloads that saturate a host's CPU or memory to a chosen level. Here
//! interference is expressed directly as background host utilisation,
//! which is exactly what the Erms profiling model consumes (§5.2).

use erms_core::latency::Interference;
use erms_core::provisioning::ClusterState;

/// A named interference level, mirroring the iBench sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterferenceLevel {
    /// Idle hosts.
    None,
    /// Moderate CPU pressure (≈45 % host CPU).
    CpuModerate,
    /// Heavy CPU pressure (≈75 % host CPU).
    CpuHeavy,
    /// Moderate memory pressure (≈50 % host memory).
    MemModerate,
    /// Heavy memory pressure (≈80 % host memory).
    MemHeavy,
    /// Combined CPU + memory pressure.
    Mixed,
}

impl InterferenceLevel {
    /// All levels, in sweep order.
    pub fn all() -> [InterferenceLevel; 6] {
        [
            InterferenceLevel::None,
            InterferenceLevel::CpuModerate,
            InterferenceLevel::CpuHeavy,
            InterferenceLevel::MemModerate,
            InterferenceLevel::MemHeavy,
            InterferenceLevel::Mixed,
        ]
    }

    /// The host utilisation this level induces.
    pub fn as_interference(self) -> Interference {
        match self {
            InterferenceLevel::None => Interference::new(0.10, 0.15),
            InterferenceLevel::CpuModerate => Interference::new(0.45, 0.20),
            InterferenceLevel::CpuHeavy => Interference::new(0.75, 0.25),
            InterferenceLevel::MemModerate => Interference::new(0.20, 0.50),
            InterferenceLevel::MemHeavy => Interference::new(0.25, 0.80),
            InterferenceLevel::Mixed => Interference::new(0.60, 0.60),
        }
    }

    /// A short label for result tables.
    pub fn label(self) -> &'static str {
        match self {
            InterferenceLevel::None => "none",
            InterferenceLevel::CpuModerate => "cpu-45%",
            InterferenceLevel::CpuHeavy => "cpu-75%",
            InterferenceLevel::MemModerate => "mem-50%",
            InterferenceLevel::MemHeavy => "mem-80%",
            InterferenceLevel::Mixed => "mixed-60%",
        }
    }
}

/// Injects background (batch-job) load onto a subset of hosts, like
/// launching iBench containers there. `fraction` selects how many hosts
/// are affected (front of the host list).
pub fn inject(state: &mut ClusterState, level: InterferenceLevel, fraction: f64) {
    let n = state.len();
    let affected = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    let itf = level.as_interference();
    for host in state.hosts_mut().iter_mut().take(affected) {
        host.background_cpu = itf.cpu * host.cpu_capacity;
        host.background_mem = itf.memory * host.mem_capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erms_core::provisioning::Host;

    #[test]
    fn levels_are_ordered_in_pressure() {
        assert!(
            InterferenceLevel::CpuHeavy.as_interference().cpu
                > InterferenceLevel::CpuModerate.as_interference().cpu
        );
        assert!(
            InterferenceLevel::MemHeavy.as_interference().memory
                > InterferenceLevel::MemModerate.as_interference().memory
        );
    }

    #[test]
    fn inject_affects_requested_fraction() {
        let mut state = ClusterState::new((0..10).map(|_| Host::paper_host()).collect());
        inject(&mut state, InterferenceLevel::CpuHeavy, 0.5);
        let loaded = state
            .hosts()
            .iter()
            .filter(|h| h.background_cpu > 0.0)
            .count();
        assert_eq!(loaded, 5);
        let host = &state.hosts()[0];
        assert!((host.background_cpu / host.cpu_capacity - 0.75).abs() < 1e-9);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            InterferenceLevel::all().iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
