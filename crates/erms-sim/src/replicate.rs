//! Deterministic parallel replication harness.
//!
//! The replication-heavy experiments (Fig. 12 SLA-violation rates,
//! Fig. 13 dynamic workload, Fig. 16 trace-driven, and the fault-tolerance
//! seed sweeps) all share one shape: run the same seeded computation N
//! times with independently derived seeds and reduce the results in
//! replication order. [`replicate`] fans that shape out over rayon while
//! keeping the output *bit-identical* to the serial loop for any
//! `RAYON_NUM_THREADS`:
//!
//! * **Seed derivation** — replication `i` runs with seed
//!   `base_seed ^ i as u64` ([`replication_seed`]). XOR with the
//!   replication index keeps replication 0 equal to a plain run at
//!   `base_seed` and gives every other replication a distinct seed,
//!   independent of thread count or scheduling.
//! * **Ordered reduction** — results come back indexed by replication
//!   number (the rayon stub's parallel map is ordered), so the returned
//!   `Vec` is element-for-element the serial loop's output.
//! * **Serial fallback for small batches** — when `n` is below the
//!   worker-pool width, [`replicate`] runs the plain serial loop instead
//!   of fanning out: too few replications to fill the pool makes
//!   dispatch pure overhead. Observable output is unchanged (the
//!   parallel path is bit-identical by contract); only the fan-out cost
//!   is skipped. The sharded engine applies the same small-work rule to
//!   its windows (see [`crate::shard`]).
//!
//! Determinism is pinned by `erms-sim/tests/replicate_determinism.rs`,
//! which compares serial and parallel output digests under forced 1-, 2-
//! and 4-thread pools; CI runs it with `RAYON_NUM_THREADS=4`.

use rayon::prelude::*;

/// The seed of replication `index` under `base_seed`.
///
/// The derivation rule of every replicated experiment in this workspace:
/// `base_seed ^ index`. Replication 0 is exactly a plain run at
/// `base_seed`; distinct indices give distinct seeds (XOR with a unique
/// index is injective for a fixed base).
#[inline]
pub fn replication_seed(base_seed: u64, index: usize) -> u64 {
    base_seed ^ index as u64
}

/// Runs `n` seeded replications of `run` in parallel and returns their
/// results in replication order.
///
/// `run` receives `(seed, index)` with `seed = base_seed ^ index`. The
/// output is bit-identical to [`replicate_serial`] for any thread count:
/// seeds do not depend on scheduling, and the reduction preserves
/// replication order. `run` must be `Sync` (shared across worker threads)
/// and its result `Send`.
///
/// Small batches fall back to the serial loop: when `n` is below the
/// worker-pool width there are not enough replications to keep the pool
/// busy, and fan-out costs (dispatch, ordered collection) are pure
/// overhead — most visibly `n = 1`, which is just a plain run. The
/// fallback changes nothing observable (the outputs are bit-identical by
/// contract); it only skips the dispatch.
pub fn replicate<T, F>(base_seed: u64, n: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, usize) -> T + Sync,
{
    if n < rayon::current_num_threads() {
        return replicate_serial(base_seed, n, run);
    }
    let indices: Vec<usize> = (0..n).collect();
    indices
        .into_par_iter()
        .map(|i| run(replication_seed(base_seed, i), i))
        .collect()
}

/// The serial reference loop [`replicate`] must match bit-for-bit.
///
/// Kept as the comparison baseline for the determinism tests (the same
/// pattern as `static_sweep_serial` in `erms-bench`).
pub fn replicate_serial<T, F>(base_seed: u64, n: usize, run: F) -> Vec<T>
where
    F: Fn(u64, usize) -> T,
{
    (0..n)
        .map(|i| run(replication_seed(base_seed, i), i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_follow_the_xor_rule() {
        assert_eq!(replication_seed(42, 0), 42);
        assert_eq!(replication_seed(42, 1), 43);
        assert_eq!(replication_seed(0xFFFF_0000, 3), 0xFFFF_0003);
        // Injective over the replication range for a fixed base.
        let seeds: std::collections::BTreeSet<u64> =
            (0..100).map(|i| replication_seed(7, i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn parallel_matches_serial_in_process() {
        let f = |seed: u64, i: usize| (seed.wrapping_mul(6364136223846793005), i);
        assert_eq!(replicate(9, 17, f), replicate_serial(9, 17, f));
    }

    #[test]
    fn zero_replications_is_empty() {
        assert!(replicate(1, 0, |s, _| s).is_empty());
    }

    #[test]
    fn small_batches_take_the_serial_fallback_and_match() {
        // n below any plausible pool width: goes through the fallback, and
        // the result must still be exactly the serial loop's output.
        let f = |seed: u64, i: usize| (seed.rotate_left(17), i);
        for n in [1usize, 2] {
            assert_eq!(replicate(77, n, f), replicate_serial(77, n, f));
        }
    }
}
