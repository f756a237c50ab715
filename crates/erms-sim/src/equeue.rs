//! Calendar-queue event scheduler with batched same-timestamp dispatch.
//!
//! Both simulation engines ([`crate::runtime`] and the sharded engine in
//! [`crate::shard`]) schedule future events by a packed `u64` time key
//! ([`crate::timekey`]) plus an engine-specific tiebreak: a monotone push
//! counter for the sequential engine, `(kind, ident)` for the sharded
//! one. A binary heap gives `O(log n)` sift chains with a data-dependent
//! branch per level; at ~50 ns/event those chains are the largest single
//! cost left in the hot loop. [`CalendarQueue`] replaces it with the
//! classic calendar structure (Brown 1988): a power-of-two array of
//! buckets, each covering `2^shift` consecutive key values, and a virtual
//! bucket cursor that sweeps time forward.
//!
//! # Invariants and why total order is preserved
//!
//! * An entry with key `k` lives in bucket `(k >> shift) & mask`; its
//!   *rotation* is `k >> shift`.
//! * The cursor `virt` never exceeds the minimum rotation over all live
//!   entries: pushes lower it (`virt = min(virt, k >> shift)`) and the
//!   sweep only advances past buckets holding no entry of rotation
//!   `virt`. Every entry of the minimal rotation hashes to exactly one
//!   bucket, so the first bucket whose front matches `virt` holds the
//!   global minimum — the pop order is exactly the `(key, tie)` order the
//!   binary heap produced, which the pinned golden digests verify
//!   end-to-end.
//! * Buckets sort lazily: pushes append and merely record whether the
//!   tail stayed sorted; a bucket is compacted + sorted only when the
//!   sweep actually inspects it. Consumed entries are tracked by a cursor
//!   (`pos`) so a pop is a bump, not a removal.
//!
//! # Batched dispatch
//!
//! [`CalendarQueue::pop_batch`] drains *every* entry sharing the minimal
//! key in one call — the engines decode the key to an `f64` once, fetch
//! per-container state once, and dispatch the whole same-instant group
//! from a flat buffer ([`Batch`]) instead of re-touching the queue.
//! Same-key events created *while* a batch executes are tie-order
//! inserted into the live batch (monotone ties always append), which
//! reproduces the heap's behaviour of re-sorting them ahead of
//! not-yet-popped peers.
//!
//! # Adaptive resize and storage reuse
//!
//! Every `ADAPT_WINDOW` pops the queue inspects its own counters: a
//! high empty-bucket advance rate means buckets are narrower than the
//! workload's key density (widen `shift`); a high lazy-sort load relative
//! to batch size means too many distinct keys share a bucket (narrow
//! `shift`); occupancy far above the bucket count doubles it. Rebuilds
//! recycle bucket storage through a spare-`Vec` pool, and drained buckets
//! retain their capacity, so steady state performs no allocation per
//! event — `tests/sim_allocations.rs` pins that bound.

/// Pops between adaptation checks. Small enough that a badly-sized queue
/// (e.g. right after seeding, or when a long simulation drifts across
/// float-exponent ranges where key density changes) recovers within a few
/// hundred events.
const ADAPT_WINDOW: u32 = 256;

/// Initial and minimum bucket-array size.
const MIN_BUCKETS: usize = 256;

/// Maximum bucket-array size (the planner-scale sims keep ≲ 10⁵ events
/// outstanding; 2¹⁶ buckets bounds rebuild cost and memory).
const MAX_BUCKETS: usize = 1 << 16;

/// Widest allowed bucket (`2^62` key units ≈ half the key space).
const MAX_SHIFT: u32 = 62;

/// Largest live run kept sorted by positional insert on push. Below this,
/// an out-of-order push pays a tiny memmove and the bucket stays sorted —
/// pops never re-sort small active buckets. Above it, pushes append and
/// the sweep sorts once (the lazy path), which is cheaper than `O(n)`
/// inserts into a crowded bucket.
const INSERT_MAX: usize = 32;

/// Largest live bottom run before a push spills its upper half into the
/// bucket array. Bounds the memmove a bottom insert can pay, and with it
/// the cost of keeping the near-horizon run contiguous.
const BOTTOM_MAX: usize = 64;

#[derive(Clone, Copy)]
struct Entry<K, T> {
    key: u64,
    tie: K,
    item: T,
}

struct Bucket<K, T> {
    entries: Vec<Entry<K, T>>,
    /// Consumed prefix: `entries[..pos]` were already popped.
    pos: usize,
    /// Whether `entries[pos..]` is ascending by `(key, tie)`.
    sorted: bool,
}

impl<K, T> Bucket<K, T> {
    fn fresh(entries: Vec<Entry<K, T>>) -> Self {
        Bucket {
            entries,
            pos: 0,
            sorted: true,
        }
    }
}

/// Outcome of [`CalendarQueue::pop_upto`].
pub enum Popped<K, T> {
    /// Nothing scheduled at or below the limit.
    None,
    /// The minimal key held a single entry, returned by value.
    One(u64, K, T),
    /// The minimal key held several entries, drained into the caller's
    /// buffer in tie order.
    Group(u64),
}

/// Calendar queue ordered by `(u64 key, K tie)`; see the module docs.
pub struct CalendarQueue<K, T> {
    /// The bottom run: every live entry with key below `horizon`, sorted
    /// ascending, consumed through `bpos`. All pops come from here; the
    /// bucket array is touched only when the run drains or overflows.
    bottom: Vec<Entry<K, T>>,
    /// Consumed prefix of `bottom`.
    bpos: usize,
    /// Keys `< horizon` belong to the bottom run, keys `>= horizon` to
    /// the bucket array. `u64::MAX` while everything fits in the run.
    horizon: u64,
    buckets: Vec<Bucket<K, T>>,
    /// `buckets.len() - 1`; bucket index is `(key >> shift) & mask`.
    mask: u64,
    /// log₂ of the key range a single bucket covers.
    shift: u32,
    /// Virtual bucket cursor; `virt <= key >> shift` for every bucketed
    /// entry.
    virt: u64,
    /// Total live entries (bottom run + buckets).
    len: usize,
    /// Live entries in the bucket array alone.
    cal_len: usize,
    // Adaptation counters, reset every ADAPT_WINDOW pops.
    pops: u32,
    advances: u64,
    sorts: u64,
    sort_load: u64,
    drained: u64,
    /// Recycled bucket storage for resizes (the queue's free list).
    spare: Vec<Vec<Entry<K, T>>>,
    /// Reused rebuild staging buffer.
    scratch: Vec<Entry<K, T>>,
}

impl<K: Ord + Copy, T: Copy> CalendarQueue<K, T> {
    /// Empty queue. The initial bucket width is a mid-range guess; the
    /// first adaptation windows pull it to the workload's key density.
    #[must_use]
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(MIN_BUCKETS);
        buckets.resize_with(MIN_BUCKETS, || Bucket::fresh(Vec::new()));
        CalendarQueue {
            bottom: Vec::new(),
            bpos: 0,
            horizon: u64::MAX,
            buckets,
            mask: (MIN_BUCKETS - 1) as u64,
            shift: 44,
            virt: 0,
            len: 0,
            cal_len: 0,
            pops: 0,
            advances: 0,
            sorts: 0,
            sort_load: 0,
            drained: 0,
            spare: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `item` at `key`, tie-broken by `tie`.
    #[inline]
    pub fn push(&mut self, key: u64, tie: K, item: T) {
        debug_assert_ne!(key, u64::MAX, "u64::MAX is the batch sentinel");
        self.len += 1;
        if key >= self.horizon {
            self.cal_push(key, tie, item);
            return;
        }
        if self.bpos == self.bottom.len() {
            // Fully consumed: restart the run, keeping its capacity.
            self.bottom.clear();
            self.bpos = 0;
            self.bottom.push(Entry { key, tie, item });
            return;
        }
        let last = &self.bottom[self.bottom.len() - 1];
        if key > last.key || (key == last.key && tie >= last.tie) {
            self.bottom.push(Entry { key, tie, item });
        } else {
            let at = self.bpos
                + self.bottom[self.bpos..]
                    .partition_point(|e| e.key < key || (e.key == key && e.tie < tie));
            self.bottom.insert(at, Entry { key, tie, item });
        }
        if self.bottom.len() - self.bpos > BOTTOM_MAX {
            self.spill();
        }
    }

    /// Moves the upper half of the bottom run into the bucket array and
    /// lowers the horizon to the split key, bounding the memmove any
    /// single bottom insert can pay.
    fn spill(&mut self) {
        let live = self.bottom.len() - self.bpos;
        let m = self.bottom[self.bpos + live / 2].key;
        // The horizon must not split an equal-key group; the whole group
        // stays on the bottom side (an all-equal run cannot spill).
        let split = self.bpos + self.bottom[self.bpos..].partition_point(|e| e.key < m);
        if split == self.bpos {
            return;
        }
        self.horizon = m;
        for i in split..self.bottom.len() {
            let e = self.bottom[i];
            self.cal_push(e.key, e.tie, e.item);
        }
        self.bottom.truncate(split);
    }

    /// Schedules an at-or-beyond-horizon entry in the bucket array.
    fn cal_push(&mut self, key: u64, tie: K, item: T) {
        let rot = key >> self.shift;
        if self.cal_len == 0 || rot < self.virt {
            self.virt = rot;
        }
        self.cal_len += 1;
        let b = &mut self.buckets[(rot & self.mask) as usize];
        if b.pos == b.entries.len() {
            // Fully consumed: restart the bucket, keeping its capacity.
            b.entries.clear();
            b.pos = 0;
            b.sorted = true;
        } else if b.sorted {
            let last = &b.entries[b.entries.len() - 1];
            if key < last.key || (key == last.key && tie < last.tie) {
                // Out-of-order push. Small live runs take a positional
                // insert and stay sorted (see `INSERT_MAX`); crowded ones
                // fall back to append + one lazy sort at the sweep.
                if b.entries.len() - b.pos <= INSERT_MAX {
                    let at = b.pos
                        + b.entries[b.pos..]
                            .partition_point(|e| e.key < key || (e.key == key && e.tie < tie));
                    b.entries.insert(at, Entry { key, tie, item });
                    return;
                }
                b.sorted = false;
            }
        }
        b.entries.push(Entry { key, tie, item });
    }

    /// Minimum key currently scheduled, or `None` when empty. May refill
    /// the bottom run from the buckets (and lazily sort one), so it takes
    /// `&mut self`; a following [`Self::pop_batch`] finds the run already
    /// positioned.
    #[inline]
    pub fn peek_key(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.bpos == self.bottom.len() {
            self.refill();
        }
        Some(self.bottom[self.bpos].key)
    }

    /// Drains every entry sharing the minimal key into `out` (appended in
    /// tie order) and returns that key, or `None` when empty.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut Vec<(K, T)>) -> Option<u64> {
        match self.pop_upto(u64::MAX, out) {
            Popped::None => None,
            Popped::One(key, tie, item) => {
                out.push((tie, item));
                Some(key)
            }
            Popped::Group(key) => Some(key),
        }
    }

    /// Pops the minimal same-key group when its key is at most `limit` —
    /// one positioning pass serves both the bound check and the drain, so
    /// a caller merging an external event stream (the engine's arrival
    /// slots) pays a single queue touch per dispatch decision. A
    /// single-entry group (the overwhelmingly common case) is returned by
    /// value, skipping the buffer round-trip; only multi-entry groups are
    /// drained into `out`.
    #[inline]
    pub fn pop_upto(&mut self, limit: u64, out: &mut Vec<(K, T)>) -> Popped<K, T> {
        if self.len == 0 {
            return Popped::None;
        }
        if self.bpos == self.bottom.len() {
            self.refill();
        }
        let key = self.bottom[self.bpos].key;
        if key > limit {
            return Popped::None;
        }
        // The whole equal-key group is contiguous in the bottom run:
        // bottom keys are strictly below `horizon`, so a same-key push
        // can never land in the bucket array while the group is live.
        let next = self.bpos + 1;
        if next == self.bottom.len() || self.bottom[next].key != key {
            let e = self.bottom[self.bpos];
            self.bpos = next;
            self.after_pop(1);
            return Popped::One(key, e.tie, e.item);
        }
        let start = self.bpos;
        let n = self.bottom.len();
        while self.bpos < n && self.bottom[self.bpos].key == key {
            let e = &self.bottom[self.bpos];
            out.push((e.tie, e.item));
            self.bpos += 1;
        }
        let popped = self.bpos - start;
        self.after_pop(popped);
        Popped::Group(key)
    }

    /// Shared pop bookkeeping: bottom-run compaction, counters, and the
    /// periodic adaptation check.
    #[inline]
    fn after_pop(&mut self, popped: usize) {
        if self.bpos >= BOTTOM_MAX {
            // Compact the consumed prefix so the live run stays in one
            // small, cache-resident region instead of sliding through
            // ever-fresh memory as pops and pushes interleave.
            let n = self.bottom.len();
            self.bottom.copy_within(self.bpos..n, 0);
            self.bottom.truncate(n - self.bpos);
            self.bpos = 0;
        }
        self.len -= popped;
        self.drained += popped as u64;
        self.pops += 1;
        if self.pops >= ADAPT_WINDOW {
            self.adapt();
        }
    }

    /// Pulls the buckets' minimal-rotation run into the (drained) bottom
    /// run and advances the horizon past it.
    fn refill(&mut self) {
        debug_assert!(self.cal_len > 0, "refill with an empty bucket array");
        self.seek_min();
        let shift = self.shift;
        let virt = self.virt;
        let b = &mut self.buckets[(virt & self.mask) as usize];
        let end = b.pos + b.entries[b.pos..].partition_point(|e| e.key >> shift == virt);
        debug_assert!(end > b.pos, "seek_min stopped on an ineligible bucket");
        self.bottom.clear();
        self.bpos = 0;
        self.bottom.extend_from_slice(&b.entries[b.pos..end]);
        self.cal_len -= end - b.pos;
        b.pos = end;
        // Everything left in the buckets is in a later rotation.
        let h = ((u128::from(virt) + 1) << shift).min(u128::from(u64::MAX));
        self.horizon = h as u64;
    }

    /// Advances `virt` to the first bucket whose front entry has rotation
    /// `virt`, lazily sorting inspected buckets, and returns the global
    /// minimum key. Falls back to a direct minimum search after a full
    /// fruitless rotation (sparse schedules far ahead of the cursor).
    fn seek_min(&mut self) -> u64 {
        debug_assert!(self.cal_len > 0);
        let mut scanned = 0u64;
        loop {
            let b = &mut self.buckets[(self.virt & self.mask) as usize];
            if b.pos < b.entries.len() {
                if !b.sorted {
                    if b.pos > 0 {
                        b.entries.drain(..b.pos);
                        b.pos = 0;
                    }
                    b.entries
                        .sort_unstable_by(|a, c| a.key.cmp(&c.key).then_with(|| a.tie.cmp(&c.tie)));
                    b.sorted = true;
                    self.sorts += 1;
                    self.sort_load += b.entries.len() as u64;
                }
                let rot = b.entries[b.pos].key >> self.shift;
                if rot <= self.virt {
                    debug_assert_eq!(rot, self.virt, "cursor overran a live entry");
                    self.virt = rot;
                    return b.entries[b.pos].key;
                }
            }
            self.virt += 1;
            self.advances += 1;
            scanned += 1;
            if scanned > self.mask {
                // Nothing eligible in a whole rotation: jump straight to
                // the minimum's rotation instead of sweeping empty space.
                self.virt = self.min_key() >> self.shift;
                scanned = 0;
            }
        }
    }

    /// Direct scan for the global minimum key (rare fallback path).
    fn min_key(&self) -> u64 {
        let mut min = u64::MAX;
        for b in &self.buckets {
            for e in &b.entries[b.pos..] {
                min = min.min(e.key);
            }
        }
        debug_assert_ne!(min, u64::MAX);
        min
    }

    /// Periodic self-tuning; see the module docs for the policy.
    fn adapt(&mut self) {
        let pops = u64::from(self.pops);
        let avg_adv = self.advances / pops;
        let avg_batch = (self.drained / pops).max(1);
        let avg_load = self.sort_load.checked_div(self.sorts).unwrap_or(0);
        let mut shift = self.shift;
        if avg_adv > 4 {
            // Buckets narrower than the key density: widen toward ~2
            // advances per pop (step capped so one bad window cannot
            // overshoot into the overcrowded regime).
            shift = (shift + (avg_adv.ilog2() - 1).min(8)).min(MAX_SHIFT);
        } else if avg_load > 4 * avg_batch {
            // Lazy sorts are touching many more entries than each pop
            // drains: too many distinct keys per bucket. Narrow toward
            // ~2 batches worth of entries per sorted bucket.
            shift = shift.saturating_sub((avg_load / (2 * avg_batch)).ilog2().min(8));
        }
        let mut nbuckets = self.buckets.len();
        if self.cal_len > 2 * nbuckets && nbuckets < MAX_BUCKETS {
            nbuckets *= 2;
        } else if self.cal_len * 8 < nbuckets && nbuckets > MIN_BUCKETS {
            nbuckets /= 2;
        }
        if shift != self.shift || nbuckets != self.buckets.len() {
            self.rebuild(shift, nbuckets);
        }
        self.pops = 0;
        self.advances = 0;
        self.sorts = 0;
        self.sort_load = 0;
        self.drained = 0;
    }

    /// Re-hashes every bucketed entry under a new geometry, recycling
    /// bucket storage through the spare pool. The bottom run is untouched.
    fn rebuild(&mut self, shift: u32, nbuckets: usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for b in &mut self.buckets {
            scratch.extend(b.entries.drain(b.pos..));
            b.entries.clear();
            b.pos = 0;
            b.sorted = true;
        }
        while self.buckets.len() > nbuckets {
            let b = self.buckets.pop().expect("shrinking a non-empty vec");
            self.spare.push(b.entries);
        }
        while self.buckets.len() < nbuckets {
            let entries = self.spare.pop().unwrap_or_default();
            self.buckets.push(Bucket::fresh(entries));
        }
        self.mask = (nbuckets - 1) as u64;
        self.shift = shift;
        self.cal_len = 0;
        for e in scratch.drain(..) {
            self.cal_push(e.key, e.tie, e.item);
        }
        self.scratch = scratch;
    }
}

impl<K: Ord + Copy, T: Copy> Default for CalendarQueue<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Flat buffer holding the same-key group the engine is dispatching.
///
/// Refilled from [`CalendarQueue::pop_batch`]; same-key events created
/// mid-batch are inserted in tie order (monotone ties — the sequential
/// engine's push counter — always take the append fast path). The key
/// sentinel `u64::MAX` never collides with a real packed time key of a
/// finite event time, so an idle batch accepts nothing.
pub struct Batch<K, T> {
    key: u64,
    items: Vec<(K, T)>,
    pos: usize,
}

impl<K: Ord + Copy, T: Copy> Batch<K, T> {
    /// Empty, inactive batch.
    #[must_use]
    pub fn new() -> Self {
        Batch {
            key: u64::MAX,
            items: Vec::new(),
            pos: 0,
        }
    }

    /// Packed time key shared by every event in the batch.
    #[inline]
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether a same-key push belongs in this batch rather than the queue.
    #[inline]
    #[must_use]
    pub fn accepts(&self, key: u64) -> bool {
        key == self.key
    }

    /// Next event in tie order, or `None` when the batch is exhausted.
    #[inline]
    pub fn pop_front(&mut self) -> Option<(K, T)> {
        let it = self.items.get(self.pos).copied();
        if it.is_some() {
            self.pos += 1;
        }
        it
    }

    /// Inserts a same-key event created while the batch executes, keeping
    /// the unprocessed tail sorted by tie — exactly where the heap would
    /// have re-sorted it relative to not-yet-popped peers.
    #[inline]
    pub fn insert(&mut self, tie: K, item: T) {
        match self.items.last() {
            Some((last, _)) if tie < *last => {
                let at = self.pos + self.items[self.pos..].partition_point(|(t, _)| *t < tie);
                self.items.insert(at, (tie, item));
            }
            _ => self.items.push((tie, item)),
        }
    }

    /// Replaces the (exhausted) batch contents with the queue's next
    /// same-key group. Returns `false` when the queue is empty.
    #[inline]
    pub fn refill(&mut self, queue: &mut CalendarQueue<K, T>) -> bool {
        debug_assert_eq!(self.pos, self.items.len(), "refill of a live batch");
        self.items.clear();
        self.pos = 0;
        match queue.pop_batch(&mut self.items) {
            Some(key) => {
                self.key = key;
                true
            }
            None => {
                self.key = u64::MAX;
                false
            }
        }
    }
}

impl<K: Ord + Copy, T: Copy> Default for Batch<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BinaryHeap;

    fn drain_all(q: &mut CalendarQueue<u64, u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        let mut batch = Vec::new();
        while let Some(key) = q.pop_batch(&mut batch) {
            for (tie, item) in batch.drain(..) {
                out.push((key, tie, item));
            }
        }
        out
    }

    #[test]
    fn pops_in_key_then_tie_order() {
        let mut q = CalendarQueue::new();
        let keys = [50u64, 3, 3, 97, 3, 12, 50, 1 << 60, 0];
        for (i, &k) in keys.iter().enumerate() {
            q.push(k, i as u64, i as u32);
        }
        let popped = drain_all(&mut q);
        let mut expect: Vec<(u64, u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64, i as u32))
            .collect();
        expect.sort_unstable();
        assert_eq!(popped, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_binary_heap_on_random_interleaving() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut q = CalendarQueue::new();
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut batch = Vec::new();
        let mut seq = 0u64;
        // Mixed pushes and pops over wildly different key scales, so the
        // adaptive resize crosses several geometries mid-test.
        for round in 0..50_000u64 {
            let scale = 1u64 << (rng.gen_range(0..60u32));
            let key = rng.gen_range(0..2 * scale);
            seq += 1;
            q.push(key, seq, round as u32);
            heap.push(std::cmp::Reverse((key, seq, round as u32)));
            if round % 3 == 0 {
                batch.clear();
                let key = q.pop_batch(&mut batch).expect("queue has entries");
                for &(tie, item) in &batch {
                    let std::cmp::Reverse(want) = heap.pop().expect("heap has entries");
                    assert_eq!((key, tie, item), want, "round {round}");
                }
            }
        }
        while let Some(key) = q.pop_batch({
            batch.clear();
            &mut batch
        }) {
            for &(tie, item) in &batch {
                let std::cmp::Reverse(want) = heap.pop().expect("heap has entries");
                assert_eq!((key, tie, item), want);
            }
        }
        assert!(heap.is_empty());
    }

    #[test]
    fn pop_batch_groups_equal_keys() {
        let mut q = CalendarQueue::new();
        for i in 0..5u64 {
            q.push(7, i, i as u32);
        }
        q.push(9, 5, 5);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(7));
        assert_eq!(batch.len(), 5);
        assert!(batch.windows(2).all(|w| w[0].0 < w[1].0), "tie order");
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(9));
        assert_eq!(batch.len(), 1);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    #[test]
    fn peek_key_is_stable_and_nondestructive() {
        let mut q = CalendarQueue::new();
        q.push(1 << 50, 0, 0u32);
        q.push(3, 1, 1);
        assert_eq!(q.peek_key(), Some(3));
        assert_eq!(q.peek_key(), Some(3));
        assert_eq!(q.len(), 2);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(3));
        assert_eq!(q.peek_key(), Some(1 << 50));
    }

    #[test]
    fn push_below_cursor_is_found_first() {
        let mut q = CalendarQueue::new();
        let mut batch = Vec::new();
        // Drag the cursor far forward, then schedule in its past.
        q.push(1 << 55, 0, 0u32);
        assert_eq!(q.pop_batch(&mut batch), Some(1 << 55));
        q.push(1 << 55, 1, 1);
        q.push(17, 2, 2);
        batch.clear();
        assert_eq!(q.pop_batch(&mut batch), Some(17));
    }

    #[test]
    fn batch_inserts_keep_tie_order() {
        let mut q: CalendarQueue<u64, u32> = CalendarQueue::new();
        q.push(5, 10, 0);
        q.push(5, 20, 1);
        q.push(5, 30, 2);
        let mut b = Batch::new();
        assert!(b.refill(&mut q));
        assert!(b.accepts(5));
        assert_eq!(b.pop_front(), Some((10, 0)));
        // A same-key event with a tie between the remaining entries must
        // come out between them (shard-engine semantics)...
        b.insert(25, 9);
        // ...and a monotone tie appends.
        b.insert(40, 8);
        let rest: Vec<_> = std::iter::from_fn(|| b.pop_front()).collect();
        assert_eq!(rest, vec![(20, 1), (25, 9), (30, 2), (40, 8)]);
        assert!(!b.refill(&mut q), "queue is now empty");
        assert!(!b.accepts(5), "idle batch accepts nothing");
    }
}
