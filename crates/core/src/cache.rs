//! Cross-query caches of seed-independent state — what a serving process
//! can legitimately share between queries against one graph.
//!
//! The [`Workspace`](crate::Workspace) recycles *per-query scratch*:
//! buffers whose contents are discarded between queries and only the
//! allocations survive. This module holds the complementary layer, state
//! whose *values* survive because they depend only on the graph and the
//! parameters, never on the seed:
//!
//! * the HK-PR ψ tail-weight tables (`ψ_k(t)` for `k = 0..=N`) — the
//!   Chung–Simpson/Kloster–Gleich coefficients every deterministic
//!   heat-kernel query recomputes, keyed by `(t, N)` alone;
//! * the vertex-indexed degree vector (one load per lookup instead of
//!   two CSR offset loads — the sweep's rank-order degree gather walks
//!   it once per query);
//! * summary statistics of the graph (served by introspection endpoints
//!   without an `O(n)` rescan).
//!
//! Every cached value is *bit-identical* to what an uncached run
//! computes (ψ tables come from the same deterministic function; degrees
//! are the same integers), so cache hits cannot perturb the determinism
//! contract — enforced by the ψ-cache equivalence proptest in
//! `tests/service_properties.rs`.

use lgc_graph::CsrBackend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Summary statistics of a graph, computed once and served from memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphSummary {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Sum of degrees (`2m`).
    pub total_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated: usize,
    /// Total resident bytes of the graph structure (offsets + adjacency).
    pub memory_bytes: usize,
    /// Resident bytes of the adjacency payload alone — what the
    /// byte-compressed backend shrinks; `memory_bytes - adjacency_bytes`
    /// is the (backend-independent) offset array.
    pub adjacency_bytes: usize,
}

/// ψ cache key: the exact bit pattern of `t` plus the truncation degree.
type PsiKey = (u64, usize);
/// The memoized ψ tables.
type PsiMap = HashMap<PsiKey, Arc<Vec<f64>>>;

/// ψ tables for at most this many distinct `(t, N)` pairs are kept; a
/// parameter sweep past the cap still computes correct tables, they just
/// stop being memoized (the cache must not grow without bound in a
/// long-lived service).
const PSI_CACHE_CAP: usize = 64;

/// A per-graph cache of seed-independent query state, shared by every
/// workspace checked out against the graph (see the module docs for the
/// inventory and the bit-identity argument).
///
/// All methods take `&self` and are safe to call from any number of
/// threads; construction is lazy, so a graph that never sees an HK-PR
/// query never pays for ψ tables, and one that never sweeps never builds
/// the degree vector.
#[derive(Default)]
pub struct GraphCache {
    psi: Mutex<PsiMap>,
    psi_hits: AtomicU64,
    psi_misses: AtomicU64,
    degrees: OnceLock<Arc<Vec<u32>>>,
    summary: OnceLock<GraphSummary>,
}

impl GraphCache {
    /// An empty cache; everything is populated on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ψ tail-weight table for heat-kernel time `t` truncated at
    /// degree `n_levels` — computed on first request, served from memory
    /// after (keyed by the exact bit pattern of `t`, so "same parameters"
    /// means bitwise the same table).
    pub fn psi(&self, t: f64, n_levels: usize) -> Arc<Vec<f64>> {
        let key = (t.to_bits(), n_levels);
        if let Some(hit) = self.psi.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            self.psi_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Compute outside the lock: ψ is O(N), but a slow first HK-PR
        // query must not serialize unrelated queries behind the mutex.
        self.psi_misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(crate::hkpr::psi_table(t, n_levels));
        let mut map = self.psi.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= PSI_CACHE_CAP && !map.contains_key(&key) {
            return fresh; // over cap: correct but unmemoized
        }
        Arc::clone(map.entry(key).or_insert(fresh))
    }

    /// `(hits, misses)` counters of the ψ cache — service observability,
    /// and what the equivalence proptest uses to prove it actually
    /// exercised the hit path.
    pub fn psi_stats(&self) -> (u64, u64) {
        (
            self.psi_hits.load(Ordering::Relaxed),
            self.psi_misses.load(Ordering::Relaxed),
        )
    }

    /// The vertex-indexed degree vector of `g`, built on first request.
    /// For the byte-compressed backend this doubles as the decode-free
    /// degree lookup table (degrees live in the offsets either way).
    pub fn degrees<B: CsrBackend>(&self, g: &B) -> Arc<Vec<u32>> {
        let degs = self.degrees.get_or_init(|| {
            Arc::new(
                (0..g.num_vertices() as u32)
                    .map(|v| g.degree(v) as u32)
                    .collect(),
            )
        });
        debug_assert_eq!(degs.len(), g.num_vertices(), "cache bound to another graph");
        Arc::clone(degs)
    }

    /// Summary statistics of `g`, computed once (one pass over the
    /// cached degree vector).
    pub fn summary<B: CsrBackend>(&self, g: &B) -> GraphSummary {
        *self.summary.get_or_init(|| {
            let degs = self.degrees(g);
            GraphSummary {
                num_vertices: g.num_vertices(),
                num_edges: g.num_edges(),
                total_degree: g.total_degree(),
                max_degree: degs.iter().copied().max().unwrap_or(0) as usize,
                isolated: degs.iter().filter(|&&d| d == 0).count(),
                memory_bytes: g.memory_bytes(),
                adjacency_bytes: g.adjacency_bytes(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    #[test]
    fn psi_cache_returns_bit_identical_tables() {
        let cache = GraphCache::new();
        let miss = cache.psi(7.5, 20);
        let hit = cache.psi(7.5, 20);
        let fresh = crate::hkpr::psi_table(7.5, 20);
        assert_eq!(*miss, fresh);
        assert_eq!(*hit, fresh);
        assert!(Arc::ptr_eq(&miss, &hit), "second request served from cache");
        assert_eq!(cache.psi_stats(), (1, 1));
        // A different t is a different entry.
        let other = cache.psi(7.5000001, 20);
        assert_ne!(*other, fresh);
        assert_eq!(cache.psi_stats(), (1, 2));
    }

    #[test]
    fn psi_cache_is_bounded_but_stays_correct() {
        let cache = GraphCache::new();
        for i in 0..(PSI_CACHE_CAP + 10) {
            let t = 1.0 + i as f64;
            let got = cache.psi(t, 5);
            assert_eq!(*got, crate::hkpr::psi_table(t, 5), "t={t}");
        }
        assert!(cache.psi.lock().unwrap().len() <= PSI_CACHE_CAP);
        // Entries admitted before the cap still hit.
        let (hits_before, _) = cache.psi_stats();
        cache.psi(1.0, 5);
        assert_eq!(cache.psi_stats().0, hits_before + 1);
    }

    #[test]
    fn degrees_and_summary_match_the_graph() {
        let g = gen::star(8);
        let cache = GraphCache::new();
        let degs = cache.degrees(&g);
        assert_eq!(degs.len(), 8);
        assert_eq!(degs[0], 7);
        assert!(degs[1..].iter().all(|&d| d == 1));
        let s = cache.summary(&g);
        assert_eq!(s.num_vertices, 8);
        assert_eq!(s.num_edges, 7);
        assert_eq!(s.total_degree, 14);
        assert_eq!(s.max_degree, 7);
        assert_eq!(s.isolated, 0);
        // Second request is the same allocation.
        assert!(Arc::ptr_eq(&degs, &cache.degrees(&g)));
    }
}
