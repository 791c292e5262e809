//! Adaptive dense/sparse mass storage for the parallel diffusions.
//!
//! The paper's sparse sets make every touched-vertex operation a hash
//! probe. That is the right trade while a diffusion's support is a
//! vanishing fraction of the graph, but Ligra-style systems switch to a
//! direct-indexed dense representation once the active set is a constant
//! fraction of `n` — dense arrays win on both probe cost (one indexed
//! atomic instead of a CAS probe chain) and locality. [`MassMap`] makes
//! that switch automatically while preserving the exact-accumulation and
//! phase-concurrency guarantees of [`ConcurrentSparseVec`].
//!
//! # Representation
//!
//! * **Sparse mode** wraps [`ConcurrentSparseVec`] unchanged.
//! * **Dense mode** ([`DenseMassVec`]) stores `n` atomic `f64` bit cells
//!   (`Vec<AtomicU64>`), an `n`-byte touched bitmap, and a *dirty list*
//!   of first-touched keys so enumeration stays `O(support)`, never
//!   `O(n)`. Accumulation uses the same CAS fetch-add as the sparse
//!   table, so concurrent `add`s to one key never lose mass.
//!
//! # Switch heuristic
//!
//! Mode is chosen at the sequential points ([`MassMap::reset`] /
//! [`MassMap::reserve_rehash`]) from the caller-supplied key bound `b`
//! (the diffusions use the per-iteration bound `|frontier| +
//! vol(frontier)`, cf. Theorem 3): dense iff `b ≥ frac · n`, with
//! `frac` = [`MassMap::DEFAULT_DENSE_FRACTION`] unless overridden via
//! [`MassMap::with_dense_fraction`] (`frac > 1` never upgrades; `0`
//! always upgrades). The first upgrade pays one `O(n)` allocation +
//! zeroing, charged against the `Ω(frac·n)` support that triggered it;
//! after that the buffers are cached in the map (even across downgrades)
//! and cleaning costs `O(support)` via the dirty list.
//!
//! # Phase-concurrency contract
//!
//! Identical to the sparse table (see the crate docs): any number of
//! concurrent writers (`add`/`set`), *or* any number of concurrent
//! readers (`get`/`contains`), per parallel phase; `entries*`, `l1_norm`,
//! `reset`, and `reserve_rehash` are read-phase or sequential-point
//! operations. Keys must be `< n` (the universe size given at
//! construction) in both modes.

use crate::conc::ConcurrentSparseVec;
use lgc_parallel::{atomic_f64_fetch_add, map_index, sum_f64_by_index, Pool};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Direct-indexed dense backend: `n` atomic mass cells plus a dirty list
/// so enumeration and clearing stay proportional to the support.
pub struct DenseMassVec {
    /// `f64` mass bits per vertex (`⊥ = 0.0`).
    vals: Box<[AtomicU64]>,
    /// 1 once the key has been claimed into the dirty list.
    touched: Box<[AtomicU8]>,
    /// First-touched keys, in claim order; `dirty_len` slots are valid.
    dirty: Box<[AtomicU32]>,
    dirty_len: AtomicUsize,
}

impl DenseMassVec {
    fn new(n: usize) -> Self {
        DenseMassVec {
            vals: (0..n).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            touched: (0..n).map(|_| AtomicU8::new(0)).collect(),
            dirty: (0..n).map(|_| AtomicU32::new(0)).collect(),
            dirty_len: AtomicUsize::new(0),
        }
    }

    fn universe(&self) -> usize {
        self.vals.len()
    }

    /// Resident bytes of the value, touched, and dirty arrays.
    fn resident_bytes(&self) -> usize {
        self.universe()
            * (std::mem::size_of::<AtomicU64>()
                + std::mem::size_of::<AtomicU8>()
                + std::mem::size_of::<AtomicU32>())
    }

    fn len(&self) -> usize {
        self.dirty_len.load(Ordering::Acquire)
    }

    /// Claims `key` into the dirty list on first touch (write phase).
    #[inline]
    fn mark(&self, key: u32) {
        let i = key as usize;
        // Relaxed pre-check skips the RMW on the hot already-touched path.
        if self.touched[i].load(Ordering::Relaxed) == 0
            && self.touched[i].swap(1, Ordering::AcqRel) == 0
        {
            let slot = self.dirty_len.fetch_add(1, Ordering::AcqRel);
            self.dirty[slot].store(key, Ordering::Release);
        }
    }

    #[inline]
    fn add(&self, key: u32, delta: f64) {
        atomic_f64_fetch_add(&self.vals[key as usize], delta);
        self.mark(key);
    }

    /// Single-writer-per-key accumulate: plain load/add/store, no CAS.
    #[inline]
    fn add_exclusive(&self, key: u32, delta: f64) {
        let cell = &self.vals[key as usize];
        let cur = f64::from_bits(cell.load(Ordering::Relaxed));
        cell.store((cur + delta).to_bits(), Ordering::Relaxed);
        self.mark(key);
    }

    #[inline]
    fn set(&self, key: u32, value: f64) {
        self.vals[key as usize].store(value.to_bits(), Ordering::Release);
        self.mark(key);
    }

    #[inline]
    fn get(&self, key: u32) -> f64 {
        f64::from_bits(self.vals[key as usize].load(Ordering::Acquire))
    }

    fn entries(&self, pool: &Pool) -> Vec<(u32, f64)> {
        let len = self.len();
        map_index(pool, len, |i| {
            let k = self.dirty[i].load(Ordering::Acquire);
            (k, self.get(k))
        })
    }

    /// Clears only the touched cells — `O(support)` (sequential point).
    fn clear(&mut self, pool: &Pool) {
        let len = *self.dirty_len.get_mut();
        let (vals, touched, dirty) = (&self.vals, &self.touched, &self.dirty);
        pool.run(len, 1 << 12, |s, e| {
            for i in s..e {
                let k = dirty[i].load(Ordering::Relaxed) as usize;
                vals[k].store(0f64.to_bits(), Ordering::Relaxed);
                touched[k].store(0, Ordering::Relaxed);
            }
        });
        *self.dirty_len.get_mut() = 0;
    }
}

/// Which backend a [`MassMap`] is currently running on.
enum MassStore {
    Sparse(ConcurrentSparseVec),
    Dense(DenseMassVec),
}

/// An adaptive concurrent map from vertex id (`< n`) to `f64` mass that
/// upgrades itself from the hash-table backend to a direct-indexed dense
/// backend when the expected support crosses a fraction of `n`.
///
/// Drop-in for the subset of [`ConcurrentSparseVec`] the diffusions use;
/// see the module docs for the switch heuristic and the concurrency
/// contract.
pub struct MassMap {
    n: usize,
    dense_frac: f64,
    store: MassStore,
    /// Dense buffers are expensive to allocate (`O(n)`); once built they
    /// are kept for the map's lifetime even while running sparse.
    spare_dense: Option<DenseMassVec>,
}

impl MassMap {
    /// Default support-fraction threshold for upgrading to dense mode.
    ///
    /// At `n/8` expected keys a half-loaded hash table already spans a
    /// quarter of the vertex-id space in slot memory, and the per-op
    /// probe chain + id hashing loses to one indexed atomic; below it the
    /// `O(n)` dense allocation is not worth amortizing.
    pub const DEFAULT_DENSE_FRACTION: f64 = 0.125;

    /// A map over vertex universe `0..n` expecting up to `bound` keys.
    pub fn new(n: usize, bound: usize) -> Self {
        Self::with_dense_fraction(n, bound, Self::DEFAULT_DENSE_FRACTION)
    }

    /// As [`MassMap::new`] with an explicit dense-switch fraction:
    /// dense mode engages whenever `bound ≥ frac · n`. `frac = 0.0`
    /// forces dense from the start; `frac > 1.0` (e.g. `f64::INFINITY`)
    /// pins the map to sparse mode.
    pub fn with_dense_fraction(n: usize, bound: usize, frac: f64) -> Self {
        assert!(frac >= 0.0 && !frac.is_nan(), "fraction must be ≥ 0");
        let mut map = MassMap {
            n,
            dense_frac: frac,
            store: MassStore::Sparse(ConcurrentSparseVec::with_capacity(0)),
            spare_dense: None,
        };
        map.rebuild_empty(bound);
        map
    }

    /// Clamps a caller bound to the universe: at most `n` distinct keys
    /// can ever exist, so a bound above `n` carries no extra information
    /// (and clamping makes `frac > 1.0` genuinely pin sparse mode).
    fn clamp_bound(&self, bound: usize) -> usize {
        bound.min(self.n)
    }

    fn wants_dense(&self, bound: usize) -> bool {
        self.n > 0 && (self.clamp_bound(bound) as f64) >= self.dense_frac * self.n as f64
    }

    /// Installs an empty store fit for `bound` keys (sequential point;
    /// any current entries are dropped, not migrated).
    fn rebuild_empty(&mut self, bound: usize) {
        let bound = self.clamp_bound(bound);
        if self.wants_dense(bound) {
            let dense = self
                .spare_dense
                .take()
                .filter(|d| d.universe() == self.n)
                .unwrap_or_else(|| DenseMassVec::new(self.n));
            debug_assert_eq!(dense.len(), 0, "spare dense buffers must be clean");
            self.store = MassStore::Dense(dense);
        } else {
            self.store = MassStore::Sparse(ConcurrentSparseVec::with_capacity(bound));
        }
    }

    /// Whether the map currently runs on the dense backend.
    pub fn is_dense(&self) -> bool {
        matches!(self.store, MassStore::Dense(_))
    }

    /// The vertex-universe size `n` fixed at construction.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Resident bytes of the current store plus any stashed dense
    /// buffers — what a workspace byte budget charges for this map.
    pub fn resident_bytes(&self) -> usize {
        let store = match &self.store {
            MassStore::Sparse(s) => s.resident_bytes(),
            MassStore::Dense(d) => d.resident_bytes(),
        };
        store
            + self
                .spare_dense
                .as_ref()
                .map_or(0, DenseMassVec::resident_bytes)
    }

    /// Number of distinct keys present.
    pub fn len(&self) -> usize {
        match &self.store {
            MassStore::Sparse(s) => s.len(),
            MassStore::Dense(d) => d.len(),
        }
    }

    /// Whether no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Atomically adds `delta` to the mass at `key` (write phase).
    #[inline]
    pub fn add(&self, key: u32, delta: f64) {
        match &self.store {
            MassStore::Sparse(s) => s.add(key, delta),
            MassStore::Dense(d) => d.add(key, delta),
        }
    }

    /// Adds `delta` to the mass at `key` under a *single-writer-per-key*
    /// contract: the caller guarantees no other thread touches `key`
    /// during this write phase (the dense pull traversals partition work
    /// by destination, which provides exactly that), so the value update
    /// is a plain load/add/store — no CAS loop. Distinct keys may still
    /// be written concurrently; racing on one key loses mass.
    #[inline]
    pub fn add_exclusive(&self, key: u32, delta: f64) {
        match &self.store {
            MassStore::Sparse(s) => s.add_exclusive(key, delta),
            MassStore::Dense(d) => d.add_exclusive(key, delta),
        }
    }

    /// Overwrites the value at `key`, inserting if absent (write phase).
    #[inline]
    pub fn set(&self, key: u32, value: f64) {
        match &self.store {
            MassStore::Sparse(s) => s.set(key, value),
            MassStore::Dense(d) => d.set(key, value),
        }
    }

    /// Reads the mass at `key` (`⊥ = 0.0` if absent; read phase).
    #[inline]
    pub fn get(&self, key: u32) -> f64 {
        match &self.store {
            MassStore::Sparse(s) => s.get(key),
            MassStore::Dense(d) => d.get(key),
        }
    }

    /// Whether `key` has been claimed (read phase). Like the sparse
    /// table, a key explicitly written with mass `0.0` is *present*.
    pub fn contains(&self, key: u32) -> bool {
        match &self.store {
            MassStore::Sparse(s) => s.contains(key),
            MassStore::Dense(d) => d.touched[key as usize].load(Ordering::Acquire) != 0,
        }
    }

    /// Packs the present `(key, mass)` pairs in parallel (backend order:
    /// hash-slot order when sparse, first-touch order when dense — sort
    /// via [`MassMap::entries_sorted`] for a deterministic order).
    /// Read phase.
    pub fn entries(&self, pool: &Pool) -> Vec<(u32, f64)> {
        match &self.store {
            MassStore::Sparse(s) => s.entries(pool),
            MassStore::Dense(d) => d.entries(pool),
        }
    }

    /// Packs the keys whose `(key, mass)` pair satisfies `pred`, without
    /// materializing the intermediate entries vector: dense mode scans
    /// the dirty list directly (`O(support)` loads, one indexed read per
    /// candidate), sparse mode scans the hash slots. This is the
    /// diffusions' frontier-filter path — previously `entries()` packed
    /// every pair into a `Vec` only for a second pass to re-filter it.
    ///
    /// Keys come back in backend order (first-touch when dense, slot
    /// order when sparse — nondeterministic); callers wanting a
    /// deterministic frontier sort the result. Read phase.
    pub fn filter_keys(&self, pool: &Pool, pred: impl Fn(u32, f64) -> bool + Sync) -> Vec<u32> {
        match &self.store {
            MassStore::Sparse(s) => s.filter_keys(pool, pred),
            MassStore::Dense(d) => lgc_parallel::filter_map_index(pool, d.len(), |i| {
                let k = d.dirty[i].load(Ordering::Acquire);
                pred(k, d.get(k)).then_some(k)
            }),
        }
    }

    /// Packs the present pairs sorted by key (deterministic; read phase).
    pub fn entries_sorted(&self, pool: &Pool) -> Vec<(u32, f64)> {
        let mut e = self.entries(pool);
        lgc_parallel::merge_sort_by(pool, &mut e, |a, b| a.0.cmp(&b.0));
        e
    }

    /// Sum of all stored mass (read phase). Deterministic for a given
    /// key set: dense mode sums in key order, independent of the
    /// first-touch order the dirty list happens to have.
    pub fn l1_norm(&self, pool: &Pool) -> f64 {
        match &self.store {
            MassStore::Sparse(s) => s.l1_norm(pool),
            MassStore::Dense(d) => {
                // Dirty order is nondeterministic across runs; a sort
                // would be O(s log s). Summing the *cells* in key order
                // over a bounded range would be O(n). Chunk-summing the
                // dirty list is O(s) but order-dependent — accept that
                // only within each chunk, then sort chunk partials? No:
                // determinism matters to callers comparing runs, so sort
                // a copy of the keys first (still O(s log s) only here,
                // and l1_norm is called once per diffusion, not per
                // iteration of the hot loop).
                let mut keys: Vec<u32> =
                    map_index(pool, d.len(), |i| d.dirty[i].load(Ordering::Acquire));
                lgc_parallel::merge_sort_by(pool, &mut keys, |a, b| a.cmp(b));
                sum_f64_by_index(pool, keys.len(), 1 << 13, |i| d.get(keys[i]))
            }
        }
    }

    /// Empties the map and re-fits it (and its mode) to a new key bound.
    /// Sequential point between phases.
    pub fn reset(&mut self, pool: &Pool, bound: usize) {
        let bound = self.clamp_bound(bound);
        let wants_dense = self.wants_dense(bound);
        match (&mut self.store, wants_dense) {
            (MassStore::Dense(d), true) => d.clear(pool),
            (MassStore::Dense(_), false) => {
                // Downgrade: stash the cleaned dense buffers and swap in
                // a right-sized hash table.
                let MassStore::Dense(mut d) = std::mem::replace(
                    &mut self.store,
                    MassStore::Sparse(ConcurrentSparseVec::with_capacity(bound)),
                ) else {
                    unreachable!()
                };
                d.clear(pool);
                self.spare_dense = Some(d);
            }
            (MassStore::Sparse(_), true) => self.rebuild_empty(bound),
            (MassStore::Sparse(s), false) => s.reset(pool, bound),
        }
    }

    /// Re-fits a recycled map so it is *observably identical* to a
    /// freshly constructed `MassMap::new(n, bound)`
    /// — same mode choice, same sparse-table capacity (capacity shapes
    /// slot enumeration order, which [`MassMap::l1_norm`] sums in, so a
    /// "keep the bigger table" shortcut would leak the map's history into
    /// result bits) — while retaining the expensive `O(n)` dense buffers
    /// whenever the universe is unchanged. Sequential point.
    ///
    /// This is the workspace-reuse hook: a query engine checks maps out
    /// of a pool, and `recycle` makes the checkout indistinguishable from
    /// a fresh allocation, which is what keeps warm-workspace runs
    /// bit-identical to cold ones.
    pub fn recycle(&mut self, pool: &Pool, n: usize, bound: usize) {
        if self.n != n {
            // Universe changed: every cached buffer is the wrong size.
            *self = MassMap::new(n, bound);
            return;
        }
        self.dense_frac = Self::DEFAULT_DENSE_FRACTION;
        let bound = self.clamp_bound(bound);
        let wants_dense = self.wants_dense(bound);
        match (&mut self.store, wants_dense) {
            (MassStore::Dense(d), true) => d.clear(pool),
            (MassStore::Sparse(s), false) => {
                // A fresh map would allocate exactly this capacity.
                let fresh_cap = ConcurrentSparseVec::fresh_capacity(bound);
                if s.capacity() == fresh_cap {
                    s.reset(pool, bound);
                } else {
                    *s = ConcurrentSparseVec::with_capacity(bound);
                }
            }
            (MassStore::Dense(_), false) => {
                let MassStore::Dense(mut d) = std::mem::replace(
                    &mut self.store,
                    MassStore::Sparse(ConcurrentSparseVec::with_capacity(bound)),
                ) else {
                    unreachable!()
                };
                d.clear(pool);
                self.spare_dense = Some(d);
            }
            (MassStore::Sparse(_), true) => self.rebuild_empty(bound),
        }
    }

    /// Grows the map to hold at least `bound` keys, preserving entries —
    /// upgrading sparse → dense (with migration) when `bound` crosses
    /// the threshold. Sequential point between phases.
    pub fn reserve_rehash(&mut self, pool: &Pool, bound: usize) {
        let bound = self.clamp_bound(bound);
        let wants_dense = self.wants_dense(bound);
        match &mut self.store {
            MassStore::Dense(_) => {} // already holds every key < n
            MassStore::Sparse(s) => {
                if wants_dense {
                    let entries = s.entries(pool);
                    let dense = self
                        .spare_dense
                        .take()
                        .filter(|d| d.universe() == self.n)
                        .unwrap_or_else(|| DenseMassVec::new(self.n));
                    debug_assert_eq!(dense.len(), 0, "spare dense buffers must be clean");
                    pool.run(entries.len(), 1 << 12, |st, en| {
                        for &(k, v) in &entries[st..en] {
                            dense.set(k, v);
                        }
                    });
                    self.store = MassStore::Dense(dense);
                } else {
                    s.reserve_rehash(pool, bound);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_map(n: usize, bound: usize) -> MassMap {
        MassMap::with_dense_fraction(n, bound, f64::INFINITY)
    }

    fn dense_map(n: usize, bound: usize) -> MassMap {
        MassMap::with_dense_fraction(n, bound, 0.0)
    }

    #[test]
    fn mode_selection_follows_threshold() {
        let m = MassMap::new(1000, 10);
        assert!(!m.is_dense(), "10 < 1000/8");
        let m = MassMap::new(1000, 125);
        assert!(m.is_dense(), "125 ≥ 1000/8");
        assert!(dense_map(10, 0).is_dense());
        assert!(!sparse_map(10, 10).is_dense());
    }

    #[test]
    fn both_modes_agree_on_basics() {
        for make in [sparse_map, dense_map] {
            let m = make(200, 16);
            m.add(3, 1.25);
            m.add(3, 0.25);
            m.set(7, 2.0);
            m.add(199, -0.5);
            assert_eq!(m.get(3), 1.5);
            assert_eq!(m.get(7), 2.0);
            assert_eq!(m.get(199), -0.5);
            assert_eq!(m.get(5), 0.0);
            assert!(m.contains(3) && !m.contains(5));
            assert_eq!(m.len(), 3);
            let pool = Pool::new(2);
            assert_eq!(
                m.entries_sorted(&pool),
                vec![(3, 1.5), (7, 2.0), (199, -0.5)]
            );
            assert_eq!(m.l1_norm(&pool), 3.0);
        }
    }

    #[test]
    fn concurrent_accumulation_is_exact_in_dense_mode() {
        let pool = Pool::new(4);
        let m = dense_map(64, 64);
        pool.for_each_index(40_000, 64, |i| {
            m.add((i % 10) as u32, 0.5);
        });
        for k in 0..10u32 {
            assert_eq!(m.get(k), 2000.0, "key {k}");
        }
        assert_eq!(m.len(), 10, "dirty list has no duplicates");
    }

    #[test]
    fn reset_switches_modes_and_reuses_buffers() {
        let pool = Pool::new(2);
        let mut m = MassMap::new(800, 400); // 400 ≥ 100 → dense
        assert!(m.is_dense());
        m.add(5, 1.0);
        m.reset(&pool, 10); // downgrade
        assert!(!m.is_dense());
        assert_eq!(m.get(5), 0.0);
        m.add(6, 2.0);
        m.reset(&pool, 500); // upgrade again (reuses stashed buffers)
        assert!(m.is_dense());
        assert!(m.is_empty(), "reset dropped entries");
        assert_eq!(m.get(6), 0.0, "stashed dense buffers were clean");
    }

    #[test]
    fn reserve_rehash_upgrades_and_migrates() {
        let pool = Pool::new(2);
        let mut m = MassMap::new(1000, 50);
        assert!(!m.is_dense());
        for k in 0..50u32 {
            m.add(k * 3, k as f64);
        }
        m.reserve_rehash(&pool, 500); // 500 ≥ 125 → upgrade
        assert!(m.is_dense());
        assert_eq!(m.len(), 50);
        for k in 0..50u32 {
            assert_eq!(m.get(k * 3), k as f64, "entry survived migration");
        }
        // Growing an already-dense map is a no-op.
        m.reserve_rehash(&pool, 999);
        assert!(m.is_dense());
        assert_eq!(m.len(), 50);
    }

    #[test]
    fn dense_clear_is_support_proportional_and_complete() {
        let pool = Pool::new(2);
        let mut m = dense_map(10_000, 1);
        for k in (0..10_000u32).step_by(7) {
            m.add(k, 1.0);
        }
        let support = m.len();
        assert_eq!(support, 10_000usize.div_ceil(7));
        m.reset(&pool, 10_000);
        assert!(m.is_empty());
        for k in (0..10_000u32).step_by(7) {
            assert_eq!(m.get(k), 0.0);
            assert!(!m.contains(k));
        }
    }

    #[test]
    fn filter_keys_matches_entries_filter_in_both_modes() {
        let pool = Pool::new(4);
        for make in [sparse_map, dense_map] {
            let m = make(5000, 2000);
            pool.for_each_index(2000, 64, |i| {
                m.add((i * 2) as u32, i as f64 - 700.0);
            });
            let pred = |k: u32, v: f64| v > 0.0 && !k.is_multiple_of(3);
            let mut direct = m.filter_keys(&pool, pred);
            direct.sort_unstable();
            let mut via_entries: Vec<u32> = m
                .entries(&pool)
                .into_iter()
                .filter(|&(k, v)| pred(k, v))
                .map(|(k, _)| k)
                .collect();
            via_entries.sort_unstable();
            assert_eq!(direct, via_entries, "dense={}", m.is_dense());
            assert!(!direct.is_empty());
        }
    }

    #[test]
    fn add_exclusive_accumulates_per_key_partitioned_writers() {
        // Each key is owned by exactly one chunk (grain divides the key
        // range), honoring the single-writer contract from many threads.
        let pool = Pool::new(4);
        for make in [sparse_map, dense_map] {
            let m = make(1024, 1024);
            pool.run(1024, 64, |s, e| {
                for k in s..e {
                    for _ in 0..8 {
                        m.add_exclusive(k as u32, 0.25);
                    }
                }
            });
            for k in 0..1024u32 {
                assert_eq!(m.get(k), 2.0, "key {k} dense={}", m.is_dense());
            }
            assert_eq!(m.len(), 1024);
        }
    }

    #[test]
    fn recycle_is_indistinguishable_from_fresh() {
        let pool = Pool::new(2);
        // Dirty a map in dense mode, then recycle it through a series of
        // (n, bound) configurations; each checkout must match a freshly
        // constructed map in mode, capacity-dependent entry enumeration,
        // and l1 bits.
        let mut m = MassMap::with_dense_fraction(1000, 500, 0.0);
        assert!(m.is_dense());
        for k in 0..300u32 {
            m.add(k * 3, 0.1 * k as f64);
        }
        let configs = [
            (1000usize, 10usize), // downgrade to sparse (and drop the 0.0 fraction)
            (1000, 400),          // back to dense (reuses buffers)
            (1000, 124),          // just under n/8: sparse
            (500, 300),           // universe change
            (500, 0),             // empty bound: sparse
        ];
        for &(n, bound) in &configs {
            m.recycle(&pool, n, bound);
            let fresh = MassMap::new(n, bound);
            assert_eq!(m.is_dense(), fresh.is_dense(), "mode for {n}/{bound}");
            assert!(m.is_empty(), "recycle must clear");
            // Fill both identically (staying within the sparse bound);
            // every observation must agree bit-for-bit (same backend
            // shape ⇒ same enumeration chunking).
            let k = bound.clamp(4, 64);
            let keys: Vec<u32> = (0..k as u32).map(|i| i * (n / k) as u32).collect();
            for &k in &keys {
                m.add(k, 1.0 / (k as f64 + 3.0));
                fresh.add(k, 1.0 / (k as f64 + 3.0));
            }
            assert_eq!(m.len(), fresh.len());
            assert_eq!(m.entries_sorted(&pool), fresh.entries_sorted(&pool));
            assert_eq!(m.l1_norm(&pool), fresh.l1_norm(&pool), "l1 bits");
        }
    }

    #[test]
    fn recycle_reuses_dense_buffers_across_checkouts() {
        let pool = Pool::new(2);
        let mut m = MassMap::new(64, 64);
        m.add(7, 1.0);
        m.recycle(&pool, 64, 64); // dense → dense: cleared in place
        assert!(m.is_dense() && m.is_empty());
        assert_eq!(m.get(7), 0.0);
        m.add(8, 2.0);
        m.recycle(&pool, 64, 1); // stash dense, go sparse (1 < 64/8)
        assert!(!m.is_dense() && m.is_empty());
        m.recycle(&pool, 64, 64); // dense again from the stash
        assert!(m.is_dense() && m.is_empty());
        assert_eq!(m.get(8), 0.0, "stashed buffers came back clean");
    }

    #[test]
    fn l1_norm_is_deterministic_and_mode_independent() {
        let pool = Pool::new(4);
        let keys: Vec<u32> = (0..3000).map(|i| (i * 17 + 5) % 4000).collect();
        let a = sparse_map(4000, 3000);
        let b = dense_map(4000, 3000);
        pool.run(keys.len(), 64, |s, e| {
            for &k in &keys[s..e] {
                a.add(k, 1.0 / 3.0);
                b.add(k, 1.0 / 3.0);
            }
        });
        // Identical key sets ⇒ identical sorted entries.
        assert_eq!(a.entries_sorted(&pool), b.entries_sorted(&pool));
        // l1 sums the same values in the same (key-sorted / chunked)
        // order in dense mode regardless of dirty-list order — and the
        // fixed chunk boundaries make it thread-count-invariant too.
        let expect = b.l1_norm(&pool);
        for _ in 0..3 {
            assert_eq!(b.l1_norm(&pool), expect);
        }
        let seq_pool = Pool::new(1);
        assert_eq!(b.l1_norm(&seq_pool), expect);
        assert_eq!(a.l1_norm(&seq_pool), a.l1_norm(&pool));
    }
}
