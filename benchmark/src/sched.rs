//! Open-loop request schedule: requests are due at fixed instants whether
//! or not earlier ones have completed, latency is timed from the due
//! instant (so a stall charges every request it delays), and how late the
//! generator itself ran is reported beside it.

/// A fixed-rate schedule. Slot `k` is due `k` periods after the start; no
/// slot is ever skipped, so a generator that falls behind sends back to
/// back until it has caught up.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    period_ns: u64,
    next_slot: u64,
}

/// The next request to send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub index: u64,
    /// Due instant, ns since the schedule started.
    pub due_ns: u64,
    /// How long the generator must still wait; 0 when the slot is overdue.
    pub wait_ns: u64,
}

/// Timing of one request sent on the schedule, ns since the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
}

impl Timing {
    /// What a user who asked at the due instant waited.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent the request.
    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

impl OpenLoop {
    pub fn per_second(rate: u64) -> Self {
        assert!(rate > 0, "an open loop needs a positive rate");
        Self {
            period_ns: 1_000_000_000 / rate,
            next_slot: 0,
        }
    }

    /// Takes the next slot, given the current time since the start.
    pub fn next(&mut self, now_ns: u64) -> Slot {
        let index = self.next_slot;
        self.next_slot += 1;
        let due_ns = index * self.period_ns;
        Slot {
            index,
            due_ns,
            wait_ns: due_ns.saturating_sub(now_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_due_one_period_apart() {
        let mut s = OpenLoop::per_second(500);
        assert_eq!(
            s.next(0),
            Slot {
                index: 0,
                due_ns: 0,
                wait_ns: 0
            }
        );
        assert_eq!(
            s.next(500_000),
            Slot {
                index: 1,
                due_ns: 2_000_000,
                wait_ns: 1_500_000
            }
        );
    }

    #[test]
    fn a_late_generator_catches_up_without_skipping() {
        let mut s = OpenLoop::per_second(1000);
        s.next(0);
        // The first request stalled for 3.5 ms: slots 1..=3 are overdue and
        // must all still be sent, with no wait.
        for index in 1..=3 {
            let slot = s.next(3_500_000);
            assert_eq!((slot.index, slot.wait_ns), (index, 0));
            assert_eq!(slot.due_ns, index * 1_000_000);
        }
        assert_eq!(s.next(3_500_000).wait_ns, 500_000);
    }

    #[test]
    fn latency_counts_from_the_due_instant() {
        let t = Timing {
            due_ns: 2_000_000,
            sent_ns: 3_250_000,
            done_ns: 3_750_000,
        };
        assert_eq!(t.lateness_ms(), 1.25);
        // 0.5 ms on the wire, but the user waited 1.75 ms.
        assert_eq!(t.latency_ms(), 1.75);
        // A request sent early (clock skew between reads) is never negative.
        let early = Timing {
            due_ns: 5,
            sent_ns: 3,
            done_ns: 4,
        };
        assert_eq!((early.lateness_ms(), early.latency_ms()), (0.0, 0.0));
    }
}
