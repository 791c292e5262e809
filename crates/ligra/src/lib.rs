//! A Ligra-style frontier framework (`vertexSubset` / `vertexMap` /
//! `edgeMap`, simplified exactly as in §2 of the paper).
//!
//! The defining property — the reason the paper chose Ligra over
//! GraphLab/Pregel-style systems — is *locality*: both maps do work
//! proportional to the size of the input [`VertexSubset`] and the sum of
//! its vertices' degrees, never `O(|V|)`. That is what turns the diffusion
//! algorithms' theoretical "local running time" into practice.
//!
//! * [`edge_map`] applies an update function to every edge `(u, v)` with
//!   `u` in the subset, in parallel over *edges* (two-level: the frontier's
//!   edge space is flattened via a prefix sum over degrees, so one
//!   high-degree vertex cannot serialize an iteration — the same load
//!   balancing Ligra gets from its edge-granularity traversal).
//!
//! # The push/pull duality
//!
//! §2 of the paper presents `edgeMap` as *direction-optimizing*: Ligra
//! keeps two implementations of the same edge traversal and switches
//! between them per iteration based on the frontier's size.
//!
//! **Sparse push** ([`edge_map`] / [`edge_map_indexed`]) iterates the
//! frontier's out-edges: work `O(|F| + vol(F))`, ideal while the frontier
//! is a vanishing slice of the graph, but every destination may be hit by
//! many sources at once, so updates must be atomic (the `fetchAdd` the
//! paper cites).
//!
//! **Dense pull** ([`edge_map_dense`] / [`edge_map_dense_gather`])
//! iterates *destinations*: every vertex scans its in-neighbors (for our
//! undirected CSR, its adjacency list) against a frontier bitset and
//! accumulates whatever its frontier neighbors send. Work is `O(n + m)`
//! regardless of the frontier — more edges touched, but each destination
//! is owned by exactly one thread, so its accumulation needs **no
//! atomics, just plain writes**, visits sources in ascending id order,
//! and is therefore bitwise deterministic across thread counts.
//!
//! The crossover: once `|F| + vol(F)` is a constant fraction of `m`, the
//! push traversal already touches most of the graph *and* pays an atomic
//! RMW per edge, so the plain-write scan wins. [`choose_direction`]
//! implements Ligra's heuristic — pull when `|F| + vol(F) > m / k`, with
//! `k` tuned per diffusion — and the diffusions consult it once per
//! iteration. [`Frontier`]
//! carries both representations (sorted id list and bitset) with `O(len)`
//! conversions so flip-flopping between directions never pays more than
//! the iteration it serves.
//!
//! Push update functions run concurrently on many edges and must
//! synchronize their side effects (the clustering code uses the atomic
//! sparse sets of `lgc-sparse`), mirroring the paper's "the programmer
//! ensures parallel correctness of the functions passed to vertexMap and
//! edgeMap by using atomic operations where necessary". Pull update
//! functions get the stronger single-writer-per-destination guarantee
//! described above.

use lgc_graph::CsrBackend;
use lgc_parallel::{merge_sort_by, scan_exclusive, Bitset, Pool};

pub mod interrupt;

#[cfg(feature = "fault-inject")]
pub use interrupt::FaultPlan;
pub use interrupt::{CancelToken, Checkpoint, Trip};

/// A sparse subset of vertices (the paper's `vertexSubset`).
///
/// Stored as a list of vertex ids. The clustering algorithms keep
/// frontiers sorted by id so iterations are deterministic; construction
/// via [`VertexSubset::from_sorted`] asserts that invariant while
/// [`VertexSubset::from_unsorted`] sorts for you.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VertexSubset {
    ids: Vec<u32>,
}

impl VertexSubset {
    /// The empty subset.
    pub fn empty() -> Self {
        VertexSubset { ids: Vec::new() }
    }

    /// A singleton subset (the seed vertex of a diffusion).
    pub fn single(v: u32) -> Self {
        VertexSubset { ids: vec![v] }
    }

    /// Wraps an already-sorted, duplicate-free id list.
    pub fn from_sorted(ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted and unique"
        );
        VertexSubset { ids }
    }

    /// Sorts and deduplicates, then wraps.
    pub fn from_unsorted(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        VertexSubset { ids }
    }

    /// Sorts an already duplicate-free id list with the pool and wraps it
    /// — the frontier-construction path for large filter outputs, whose
    /// single-threaded `sort_unstable` otherwise serializes an iteration.
    pub fn from_distinct_unsorted_par(pool: &Pool, mut ids: Vec<u32>) -> Self {
        merge_sort_by(pool, &mut ids, |a, b| a.cmp(b));
        Self::from_sorted(ids)
    }

    /// Number of vertices in the subset.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the subset is empty (the termination test of every
    /// diffusion loop in the paper).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The vertex ids, sorted ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Iterates over the vertex ids.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    /// Sum of degrees of the subset's vertices — the paper's
    /// `vol(frontier)`, which bounds the next iteration's work and is used
    /// to size the scratch sparse sets.
    pub fn volume<B: CsrBackend>(&self, g: &B) -> usize {
        self.ids.iter().map(|&v| g.degree(v)).sum()
    }

    /// Resident bytes of the id buffer (capacity, not length — what the
    /// allocation actually holds).
    pub fn resident_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u32>()
    }
}

impl From<VertexSubset> for Vec<u32> {
    fn from(s: VertexSubset) -> Vec<u32> {
        s.ids
    }
}

/// Applies `f(src, dst)` to every edge `(src, dst)` with `src ∈ frontier`,
/// in parallel over the frontier's whole edge space.
///
/// Work `O(|frontier| + vol(frontier))`; the prefix sum over frontier
/// degrees flattens the edge space so chunks of ~`grain` edges are
/// distributed dynamically regardless of degree skew.
pub fn edge_map<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &VertexSubset,
    f: impl Fn(u32, u32) + Sync,
) {
    edge_map_indexed(pool, g, frontier, |_, src, dst| f(src, dst));
}

/// Below this many frontier edges the plain nested loop beats the
/// flattening setup plus worker wakeup (~2 chunks of edges).
const SEQ_EDGE_CUTOFF: usize = 4096;

/// Frontiers at most this long probe their volume directly before paying
/// for the degree vector the flattened path needs.
const SMALL_FRONTIER: usize = 64;

/// The frontier-indexed push engine: like [`edge_map`], but the callback
/// also receives the *frontier index* of the source —
/// `f(src_idx, src, dst)` with `frontier.ids()[src_idx] == src`.
///
/// This is what makes pushes `O(|frontier| + vol(frontier))` with low
/// constant factors: a diffusion precomputes its per-source push value
/// once per frontier vertex (`contrib[i] = coeff · r[ids[i]] / d(ids[i])`)
/// and the per-edge work collapses to one slice load + one atomic add —
/// no hash probe, no division, per edge.
pub fn edge_map_indexed<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &VertexSubset,
    f: impl Fn(usize, u32, u32) + Sync,
) {
    let k = frontier.len();
    if k == 0 {
        return;
    }
    let seq = |ids: &[u32]| {
        for (i, &v) in ids.iter().enumerate() {
            g.for_each_neighbor(v, |w| f(i, v, w));
        }
    };
    if pool.num_threads() == 1 {
        seq(&frontier.ids);
        return;
    }
    if k <= SMALL_FRONTIER && frontier.volume(g) <= SEQ_EDGE_CUTOFF {
        seq(&frontier.ids);
        return;
    }
    // Degree vector computed once: the exclusive prefix sum yields both
    // the flattened edge offsets and (as its total) vol(frontier).
    let degs: Vec<usize> = frontier.ids.iter().map(|&v| g.degree(v)).collect();
    let (offsets, total_edges) = scan_exclusive(pool, &degs, 0usize, |a, b| a + b);
    if total_edges <= SEQ_EDGE_CUTOFF {
        // Long frontier of low-degree vertices: still not worth forking.
        if total_edges > 0 {
            seq(&frontier.ids);
        }
        return;
    }
    let ids = &frontier.ids;
    pool.run(total_edges, 2048, |es, ee| {
        // Locate the frontier vertex owning edge index `es`.
        let mut vi = offsets.partition_point(|&o| o <= es) - 1;
        let mut edge_idx = es;
        while edge_idx < ee {
            let v = ids[vi];
            let local_start = edge_idx - offsets[vi];
            let local_end = g.degree(v).min(local_start + (ee - edge_idx));
            g.for_each_neighbor_in(v, local_start, local_end, |w| f(vi, v, w));
            edge_idx += local_end - local_start;
            vi += 1;
        }
    });
}

/// Which traversal an iteration uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Sparse push: iterate the frontier's out-edges (atomic updates).
    Push,
    /// Dense pull: iterate all destinations against the frontier bitset
    /// (plain-write updates, deterministic).
    Pull,
}

/// Picks the traversal of one iteration over a frontier of `len`
/// vertices and volume `vol` on `g`: the `pin` when there is one,
/// otherwise Ligra's rule — pull once `len + vol > m / dense_denom`
/// (`m` = undirected edge count). Ligra's own BFS uses `dense_denom =
/// 20`; each diffusion passes the denominator tuned for its gather.
pub fn choose_direction<B: CsrBackend>(
    pin: Option<Direction>,
    g: &B,
    len: usize,
    vol: usize,
    dense_denom: usize,
) -> Direction {
    match pin {
        Some(dir) => dir,
        None if len + vol > g.num_edges() / dense_denom.max(1) => Direction::Pull,
        None => Direction::Push,
    }
}

/// A direction-agnostic frontier: the sorted id list (what the push
/// engines and per-vertex phases consume) plus a lazily materialized
/// dense bitset (what the pull engine probes).
///
/// Conversions cost `O(len)` beyond a one-time `O(n/64)` bitset
/// allocation: [`Frontier::advance`] recycles the bitset buffer by
/// clearing exactly the outgoing members' words, so alternating
/// directions across iterations never pays a full `O(n)` wipe.
pub struct Frontier {
    subset: VertexSubset,
    /// Cached dense view. Invariant: when `bits_valid` is false every
    /// word is zero (cleared on `advance`), so revalidation is one
    /// `set_sorted` pass.
    bits: Option<Bitset>,
    bits_valid: bool,
}

impl Frontier {
    /// Wraps a sparse subset (no dense view yet).
    pub fn from_subset(subset: VertexSubset) -> Self {
        Frontier {
            subset,
            bits: None,
            bits_valid: false,
        }
    }

    /// A singleton frontier (the seed of a diffusion).
    pub fn single(v: u32) -> Self {
        Self::from_subset(VertexSubset::single(v))
    }

    /// Builds a frontier from a dense bitset, materializing the sorted id
    /// list (`O(n/64 + len)`); the bitset is kept as the dense view.
    pub fn from_bitset(pool: &Pool, bits: Bitset) -> Self {
        let ids = bits.to_sorted_ids(pool);
        Frontier {
            subset: VertexSubset::from_sorted(ids),
            bits: Some(bits),
            bits_valid: true,
        }
    }

    /// The sparse view.
    pub fn subset(&self) -> &VertexSubset {
        &self.subset
    }

    /// The sorted member ids.
    pub fn ids(&self) -> &[u32] {
        self.subset.ids()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.subset.len()
    }

    /// Whether the frontier is empty (every diffusion's termination test).
    pub fn is_empty(&self) -> bool {
        self.subset.is_empty()
    }

    /// `vol(F) = Σ d(v)` over the members.
    pub fn volume<B: CsrBackend>(&self, g: &B) -> usize {
        self.subset.volume(g)
    }

    /// Resident bytes of the frontier's buffers (id list plus the cached
    /// dense bitset, if materialized).
    pub fn resident_bytes(&self) -> usize {
        self.subset.resident_bytes() + self.bits.as_ref().map_or(0, Bitset::resident_bytes)
    }

    /// The dense view over universe `0..n`, building it on first use
    /// (`O(len)` plus the one-time allocation).
    pub fn bits(&mut self, pool: &Pool, n: usize) -> &Bitset {
        if self.bits.as_ref().is_some_and(|b| b.universe() != n) {
            self.bits = None;
            self.bits_valid = false;
        }
        let bits = self.bits.get_or_insert_with(|| Bitset::new(n));
        if !self.bits_valid {
            bits.set_sorted(pool, self.subset.ids());
            self.bits_valid = true;
        }
        bits
    }

    /// Empties the frontier while keeping its allocated bitset for later
    /// reuse — the buffer-recycling hook for workspace pools that check
    /// frontiers out across queries. Costs `O(len)` (clearing the
    /// members' words), after which the frontier is observationally a
    /// fresh `Frontier::from_subset(VertexSubset::empty())` that happens
    /// to own a pre-allocated, fully-zeroed dense buffer.
    pub fn recycle(&mut self, pool: &Pool) {
        self.advance(pool, VertexSubset::empty());
    }

    /// Replaces the members with the next iteration's subset, recycling
    /// the dense buffer: the outgoing members' bits are cleared in
    /// `O(len)` so the next [`Frontier::bits`] call only pays the set.
    pub fn advance(&mut self, pool: &Pool, next: VertexSubset) {
        if let Some(bits) = &self.bits {
            if self.bits_valid {
                bits.clear_sorted(pool, self.subset.ids());
            }
        }
        self.bits_valid = false;
        self.subset = next;
    }
}

/// Vertices per chunk in the dense traversals. Small enough that degree
/// skew load-balances through chunk claiming, large enough to amortize
/// the claim.
const DENSE_GRAIN: usize = 512;

/// The dense pull engine: applies `f(src, dst)` to every edge `(src,
/// dst)` with `src` in the frontier bitset, by scanning **all** vertices
/// `dst` in parallel and testing their in-neighbors against the bitset.
///
/// Work `O(n + m)` regardless of the frontier. The guarantees sparse push
/// cannot give: all calls for one `dst` happen on a single thread, in
/// ascending `src` order — so per-destination state needs plain writes
/// only (no atomics) and the result is bitwise deterministic across
/// thread counts. Covers exactly the same edge set as
/// [`edge_map`] over the equivalent sparse frontier.
pub fn edge_map_dense<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &Bitset,
    f: impl Fn(u32, u32) + Sync,
) {
    let n = g.num_vertices();
    debug_assert_eq!(frontier.universe(), n, "bitset universe must be n");
    pool.run(n, DENSE_GRAIN, |s, e| {
        for dst in s as u32..e as u32 {
            g.for_each_neighbor(dst, |src| {
                if frontier.contains(src) {
                    f(src, dst);
                }
            });
        }
    });
}

/// Pull with fused per-destination accumulation: for every vertex `dst`
/// whose in-neighborhood intersects the frontier, computes `Σ
/// contrib[src]` over the frontier in-neighbors (in ascending `src`
/// order, in a register) and calls `apply(dst, sum)` exactly once.
///
/// This is the fastest shape for the diffusions' "sum incoming mass"
/// updates: zero atomics and one store per destination instead of one
/// RMW per edge. `contrib` is indexed by vertex id (entries outside the
/// frontier are never read). Same determinism guarantee as
/// [`edge_map_dense`].
pub fn edge_map_dense_gather<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &Bitset,
    contrib: &[f64],
    apply: impl Fn(u32, f64) + Sync,
) {
    let n = g.num_vertices();
    debug_assert_eq!(frontier.universe(), n, "bitset universe must be n");
    debug_assert!(contrib.len() >= n, "contrib must cover the universe");
    pool.run(n, DENSE_GRAIN, |s, e| {
        for dst in s as u32..e as u32 {
            let mut acc = 0.0f64;
            let mut any = false;
            g.for_each_neighbor(dst, |src| {
                if frontier.contains(src) {
                    acc += contrib[src as usize];
                    any = true;
                }
            });
            if any {
                apply(dst, acc);
            }
        }
    });
}

/// Pull with fused per-destination *counting*: for every vertex `dst`
/// whose in-neighborhood intersects the frontier, computes the exact
/// integer `|N(dst) ∩ F|` and calls `apply(dst, count)` exactly once.
///
/// The dense twin of a push `edgeMap` that does `count[dst] += 1` per
/// edge — same totals (integers, so bit-equal regardless of direction or
/// thread count), no atomics. This is what lets set processes whose step
/// rule depends on neighbor counts (the evolving-set process's
/// `p(v, S) = ½·1[v ∈ S] + ½·|N(v) ∩ S|/d(v)`) direction-optimize
/// without perturbing their random trajectory. Same single-writer
/// guarantee as [`edge_map_dense`].
pub fn edge_map_dense_count<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &Bitset,
    apply: impl Fn(u32, u64) + Sync,
) {
    let n = g.num_vertices();
    debug_assert_eq!(frontier.universe(), n, "bitset universe must be n");
    pool.run(n, DENSE_GRAIN, |s, e| {
        for dst in s as u32..e as u32 {
            let mut count = 0u64;
            g.for_each_neighbor(dst, |src| {
                count += u64::from(frontier.contains(src));
            });
            if count > 0 {
                apply(dst, count);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn subset_basics() {
        let s = VertexSubset::from_unsorted(vec![5, 1, 3, 1]);
        assert_eq!(s.ids(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(VertexSubset::empty().is_empty());
        assert_eq!(VertexSubset::single(7).ids(), &[7]);
    }

    #[test]
    fn subset_volume() {
        let g = gen::star(5); // center 0 has degree 4, leaves degree 1
        let s = VertexSubset::from_sorted(vec![0, 1]);
        assert_eq!(s.volume(&g), 5);
    }

    /// The Figure 2 semantics: edgeMap applies `f` to every edge incident
    /// to the subset, and only those.
    #[test]
    fn edge_map_covers_frontier_edges_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let g = gen::rand_local(400, 5, 9);
            let frontier =
                VertexSubset::from_unsorted((0..400u32).filter(|v| v % 7 == 0).collect());
            let hits: Vec<AtomicUsize> =
                (0..g.total_degree()).map(|_| AtomicUsize::new(0)).collect();
            // Identify each (src, dst) pair by its CSR position.
            let count = AtomicUsize::new(0);
            edge_map(&pool, &g, &frontier, |src, dst| {
                let nbrs = g.neighbors(src);
                let k = nbrs.partition_point(|&x| x < dst);
                assert_eq!(nbrs[k], dst);
                let base: usize = (0..src).map(|v| g.degree(v)).sum();
                hits[base + k].fetch_add(1, Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(
                count.load(Ordering::Relaxed),
                frontier.volume(&g),
                "t={threads}"
            );
            // Every frontier edge hit once; non-frontier edges never.
            let mut base = 0;
            for v in 0..400u32 {
                let d = g.degree(v);
                let expect = usize::from(frontier.ids().binary_search(&v).is_ok());
                for j in 0..d {
                    assert_eq!(
                        hits[base + j].load(Ordering::Relaxed),
                        expect,
                        "v={v} j={j}"
                    );
                }
                base += d;
            }
        }
    }

    #[test]
    fn edge_map_accumulation_matches_sequential() {
        // Sum of dst ids over frontier edges — order independent.
        let g = gen::rmat_graph500(9, 8, 4);
        let frontier = VertexSubset::from_unsorted(
            (0..g.num_vertices() as u32)
                .filter(|v| v % 11 == 0)
                .collect(),
        );
        let mut want = 0u64;
        for v in frontier.iter() {
            for &w in g.neighbors(v) {
                want += w as u64;
            }
        }
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let got = AtomicU64::new(0);
            edge_map(&pool, &g, &frontier, |_, dst| {
                got.fetch_add(dst as u64, Ordering::Relaxed);
            });
            assert_eq!(got.load(Ordering::Relaxed), want, "threads={threads}");
        }
    }

    #[test]
    fn edge_map_handles_skewed_degrees() {
        // A star: the center has degree n-1; edge-level parallelism must
        // split its adjacency list across chunks.
        let pool = Pool::new(4);
        let g = gen::star(20_000);
        let frontier = VertexSubset::single(0);
        let count = AtomicUsize::new(0);
        edge_map(&pool, &g, &frontier, |src, _| {
            assert_eq!(src, 0);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 19_999);
    }

    #[test]
    fn edge_map_empty_frontier_or_isolated() {
        let pool = Pool::new(2);
        let g = lgc_graph::Graph::from_edges(4, &[(0, 1)]);
        edge_map(&pool, &g, &VertexSubset::empty(), |_, _| panic!("no edges"));
        // Vertices 2, 3 are isolated: zero edges to map over.
        edge_map(&pool, &g, &VertexSubset::from_sorted(vec![2, 3]), |_, _| {
            panic!("no edges")
        });
    }

    /// Accumulates `f(src_idx, src, dst)` per CSR edge position so two
    /// engines' edge coverage can be compared exactly.
    fn indexed_trace(pool: &Pool, g: &lgc_graph::Graph, frontier: &VertexSubset) -> Vec<u64> {
        let cells: Vec<AtomicU64> = (0..g.total_degree()).map(|_| AtomicU64::new(0)).collect();
        edge_map_indexed(pool, g, frontier, |i, src, dst| {
            assert_eq!(frontier.ids()[i], src, "src_idx must address the frontier");
            let nbrs = g.neighbors(src);
            let k = nbrs.partition_point(|&x| x < dst);
            assert_eq!(nbrs[k], dst);
            let base: usize = (0..src).map(|v| g.degree(v)).sum();
            // Record (count, index) packed: hit count in the high bits,
            // the reporting frontier index (+1) in the low bits.
            cells[base + k].fetch_add((1 << 32) | (i as u64 + 1), Ordering::Relaxed);
        });
        cells.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// The tentpole contract: `edge_map_indexed` covers exactly the same
    /// edges as `edge_map` (each once), and every callback receives the
    /// frontier index of its source — across skewed, empty, isolated,
    /// tiny, and large frontiers at 1/2/4 threads.
    #[test]
    fn edge_map_indexed_equivalent_to_edge_map() {
        let skewed = gen::star(9_000); // one huge-degree center
        let local = gen::rand_local(700, 6, 3);
        let with_isolated = lgc_graph::Graph::from_edges(50, &[(0, 1), (1, 2), (4, 5)]);
        let cases: Vec<(&lgc_graph::Graph, VertexSubset)> = vec![
            (&skewed, VertexSubset::single(0)),               // degree skew
            (&skewed, VertexSubset::from_sorted(vec![0, 5])), // skew + leaf
            (&local, VertexSubset::empty()),
            (
                &local,
                VertexSubset::from_unsorted((0..700u32).filter(|v| v % 3 == 0).collect()),
            ),
            (&with_isolated, VertexSubset::from_sorted(vec![10, 20, 30])), // isolated only
            (&with_isolated, VertexSubset::from_sorted(vec![1, 10, 45])),  // mixed
        ];
        for (g, frontier) in &cases {
            // Independent reference: a plain nested loop over the CSR,
            // deliberately NOT built from edge_map (which is itself a
            // wrapper over the engine under test).
            let mut want = vec![0u64; g.total_degree()];
            for (i, &src) in frontier.ids().iter().enumerate() {
                let base: usize = (0..src).map(|v| g.degree(v)).sum();
                for k in 0..g.degree(src) {
                    want[base + k] += (1 << 32) | (i as u64 + 1);
                }
            }
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let got = indexed_trace(&pool, g, frontier);
                assert_eq!(got, want, "|frontier|={}, t={threads}", frontier.len());
            }
        }
    }

    #[test]
    fn direction_threshold_follows_ligra_rule() {
        let g = gen::rand_local(2000, 5, 1); // m ≈ 5000
        let m = g.num_edges();
        let auto = |len, vol| choose_direction(None, &g, len, vol, 20);
        assert_eq!(auto(1, m / 20), Direction::Pull, "just above m/20");
        assert_eq!(auto(0, m / 20), Direction::Push, "at m/20");
        assert_eq!(auto(0, 0), Direction::Push);
        assert_eq!(
            choose_direction(Some(Direction::Push), &g, m, m, 20),
            Direction::Push
        );
        assert_eq!(
            choose_direction(Some(Direction::Pull), &g, 0, 1, 20),
            Direction::Pull
        );
        // A larger denominator moves the crossover down.
        assert_eq!(
            choose_direction(None, &g, 1, m / 100, 1000),
            Direction::Pull
        );
    }

    /// Per-CSR-edge integer trace for any engine driven through a closure,
    /// for exact cross-engine comparison.
    fn trace_with(g: &lgc_graph::Graph, run: impl FnOnce(&(dyn Fn(u32, u32) + Sync))) -> Vec<u64> {
        let cells: Vec<AtomicU64> = (0..g.total_degree()).map(|_| AtomicU64::new(0)).collect();
        run(&|src, dst| {
            let nbrs = g.neighbors(src);
            let k = nbrs.partition_point(|&x| x < dst);
            assert_eq!(nbrs[k], dst);
            let base: usize = (0..src).map(|v| g.degree(v)).sum();
            cells[base + k].fetch_add(1, Ordering::Relaxed);
        });
        cells.into_iter().map(AtomicU64::into_inner).collect()
    }

    /// The tentpole contract: dense pull covers exactly the edge set of
    /// sparse push (each frontier edge once, others never), across
    /// skewed/empty/full frontiers at 1/2/4 threads.
    #[test]
    fn edge_map_dense_equivalent_to_push() {
        let skewed = gen::star(5_000);
        let local = gen::rand_local(600, 6, 4);
        let with_isolated = lgc_graph::Graph::from_edges(50, &[(0, 1), (1, 2), (4, 5)]);
        let full: Vec<u32> = (0..600).collect();
        let cases: Vec<(&lgc_graph::Graph, Vec<u32>)> = vec![
            (&skewed, vec![0]),
            (&skewed, vec![0, 5, 17]),
            (&local, vec![]),
            (&local, (0..600u32).filter(|v| v % 3 == 0).collect()),
            (&local, full),
            (&with_isolated, vec![10, 20, 30]),
            (&with_isolated, vec![1, 10, 45]),
        ];
        for &(g, ref ids) in &cases {
            let subset = VertexSubset::from_sorted(ids.clone());
            let ref_pool = Pool::new(1);
            let want = trace_with(g, |f| edge_map(&ref_pool, g, &subset, f));
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let bits = Bitset::new(g.num_vertices());
                bits.set_sorted(&pool, ids);
                let got = trace_with(g, |f| edge_map_dense(&pool, g, &bits, f));
                assert_eq!(got, want, "|F|={} t={threads}", ids.len());
            }
        }
    }

    /// Pull-mode accumulation is bitwise deterministic across thread
    /// counts (each destination sums in ascending source order on one
    /// thread), unlike push-mode atomic accumulation.
    #[test]
    fn dense_gather_is_bitwise_deterministic() {
        let g = gen::rmat_graph500(10, 8, 7);
        let n = g.num_vertices();
        let ids: Vec<u32> = (0..n as u32).filter(|v| v % 2 == 0).collect();
        let contrib: Vec<f64> = (0..n).map(|v| 1.0 / (v as f64 + 3.0)).collect();
        let gather = |threads: usize| -> Vec<f64> {
            let pool = Pool::new(threads);
            let bits = Bitset::new(n);
            bits.set_sorted(&pool, &ids);
            let mut out = vec![0.0f64; n];
            let view = lgc_parallel::UnsafeSlice::new(&mut out);
            edge_map_dense_gather(&pool, &g, &bits, &contrib, |dst, sum| {
                // SAFETY: the engine guarantees one writer per dst.
                unsafe { view.write(dst as usize, sum) };
            });
            out
        };
        let t1 = gather(1);
        assert_eq!(t1, gather(2));
        assert_eq!(t1, gather(4));
        // And it matches an independent sequential computation exactly.
        for dst in 0..n as u32 {
            let want: f64 = g
                .neighbors(dst)
                .iter()
                .filter(|&&s| s % 2 == 0)
                .map(|&s| contrib[s as usize])
                .sum();
            assert_eq!(t1[dst as usize], want, "dst={dst}");
        }
    }

    /// The counting pull computes exactly `|N(dst) ∩ F|` — equal to a
    /// push edgeMap incrementing per edge — at any thread count.
    #[test]
    fn dense_count_matches_push_counting() {
        let graphs = [gen::rmat_graph500(9, 8, 3), gen::rand_local(500, 5, 2)];
        for g in &graphs {
            let n = g.num_vertices();
            let ids: Vec<u32> = (0..n as u32).filter(|v| v % 3 == 1).collect();
            let subset = VertexSubset::from_sorted(ids.clone());
            let want: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            edge_map(&Pool::new(1), g, &subset, |_, dst| {
                want[dst as usize].fetch_add(1, Ordering::Relaxed);
            });
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let bits = Bitset::new(n);
                bits.set_sorted(&pool, &ids);
                let got: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                edge_map_dense_count(&pool, g, &bits, |dst, c| {
                    assert!(c > 0, "only intersecting destinations reported");
                    got[dst as usize].store(c, Ordering::Relaxed);
                });
                for v in 0..n {
                    assert_eq!(
                        got[v].load(Ordering::Relaxed),
                        want[v].load(Ordering::Relaxed),
                        "dst={v} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn frontier_conversions_and_recycling() {
        let pool = Pool::new(2);
        let n = 4000;
        let a: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut f = Frontier::from_subset(VertexSubset::from_sorted(a.clone()));
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), a);
        // Advance must clear the recycled buffer before revalidating.
        let b: Vec<u32> = (1..n as u32).step_by(5).collect();
        f.advance(&pool, VertexSubset::from_sorted(b.clone()));
        assert_eq!(f.ids(), &b[..]);
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), b);
        // Round-trip through the dense representation.
        let bits = Bitset::new(n);
        bits.set_sorted(&pool, &a);
        let g = Frontier::from_bitset(&pool, bits);
        assert_eq!(g.ids(), &a[..]);
        assert_eq!(g.len(), a.len());
    }

    #[test]
    fn frontier_recycle_behaves_like_fresh() {
        let pool = Pool::new(2);
        let n = 2000;
        let a: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut f = Frontier::from_subset(VertexSubset::from_sorted(a.clone()));
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), a);
        f.recycle(&pool);
        assert!(f.is_empty());
        assert!(f.bits(&pool, n).to_sorted_ids(&pool).is_empty());
        // Reuse after recycling, including across a universe change.
        let b = vec![1u32, 77, 1999];
        f.advance(&pool, VertexSubset::from_sorted(b.clone()));
        assert_eq!(f.bits(&pool, n).to_sorted_ids(&pool), b);
        f.recycle(&pool);
        f.advance(&pool, VertexSubset::from_sorted(vec![5, 9]));
        assert_eq!(f.bits(&pool, 50).to_sorted_ids(&pool), vec![5, 9]);
    }

    #[test]
    fn frontier_bits_revalidates_on_universe_change() {
        // A validated bitset for one universe must not be mistaken for a
        // validated bitset of a different universe.
        let pool = Pool::new(2);
        let ids = vec![1u32, 5, 9];
        let mut f = Frontier::from_subset(VertexSubset::from_sorted(ids.clone()));
        assert_eq!(f.bits(&pool, 100).to_sorted_ids(&pool), ids);
        assert_eq!(f.bits(&pool, 50).to_sorted_ids(&pool), ids, "shrunk");
        assert_eq!(f.bits(&pool, 200).to_sorted_ids(&pool), ids, "grown");
    }

    #[test]
    fn from_distinct_unsorted_par_sorts() {
        let pool = Pool::new(4);
        let mut ids: Vec<u32> = (0..40_000u32).rev().collect();
        ids.retain(|v| v % 3 != 0);
        let mut want = ids.clone();
        want.sort_unstable();
        let s = VertexSubset::from_distinct_unsorted_par(&pool, ids);
        assert_eq!(s.ids(), &want[..]);
    }

    #[test]
    fn edge_map_indexed_large_low_degree_frontier() {
        // k > SMALL_FRONTIER with tiny degrees exercises the path where
        // the degree scan itself discovers the volume is below cutoff.
        let g = gen::cycle(6_000);
        let frontier = VertexSubset::from_unsorted((0..1500u32).map(|v| v * 4).collect());
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let count = AtomicUsize::new(0);
            edge_map_indexed(&pool, &g, &frontier, |i, src, _dst| {
                assert_eq!(frontier.ids()[i], src);
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 1500 * 2, "t={threads}");
        }
    }
}
