//! Work-efficient parallel sweep cut — Theorem 1 of the paper.
//!
//! The hard part is computing `∂(S_j)` for all `N` prefixes
//! `S_j = {v_1, …, v_j}` at once without blowing up the work. An edge
//! inside `S_j` counts twice in `vol(S_j)`, and is charged exactly once
//! to its later endpoint as a *back edge* (a neighbor ranked before it):
//!
//! ```text
//! ∂(S_j) = vol(S_j) − 2 · Σ_{i ≤ j} back[i],   back[i] = |N(v_i) ∩ S_{i−1}|.
//! ```
//!
//! So: sort the support by `p/d`, store ranks in a concurrent hash table,
//! count each `back[i]` by scanning `v_i`'s list against it, and get
//! `vol(S_j)` and `Σ back` from two prefix sums; a min-reduction picks
//! the best prefix. Only `O(N)` integers are materialized.
//!
//! Work is `O(N log N + vol(S_N))`: the sort plus one rank probe per
//! support edge (on the byte-compressed backend a sub-range decodes its
//! list from the head, so split hubs pay extra decoding). To keep
//! Theorem 1's logarithmic depth, a list longer than [`SEGMENT`] is split
//! into sub-range tasks whose counts the prefix sum adds up, without
//! atomics. Counts are exact integers and the conductances come from the
//! same operands as in [`super::sweep_cut_seq`], so both agree bit for
//! bit on either backend at any thread count.

use super::{eligible_entries, prefix_conductance, sweep_order_cmp, SweepCut};
use crate::engine::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::{Checkpoint, Trip};
use lgc_parallel::{map_index, max_by, merge_sort_by, scan_inclusive, Pool};
use lgc_sparse::ConcurrentRankMap;

/// The most neighbors one back-count task scans: longer lists are split
/// into sub-ranges of this size.
const SEGMENT: usize = 2048;

/// The rank table holds `N` keys in room for `RANK_HEADROOM·N`, at most
/// 1/8 full. Most probes miss (a hub's list is mostly outside the
/// support), and at this load a miss nearly always ends at its first
/// slot, so the probe loop's exit branch stays predictable.
const RANK_HEADROOM: usize = 4;

/// Computes the sweep cut of `p` in parallel (Theorem 1).
///
/// Returns results bit-identical to [`super::sweep_cut_seq`]: the same
/// deterministic sort order, integer crossing-edge counts, and float
/// conductances computed from identical operands.
pub fn sweep_cut_par<B: CsrBackend>(pool: &Pool, g: &B, p: &[(u32, f64)]) -> SweepCut {
    match sweep_cut_par_ws(pool, g, p, &mut Workspace::new(), &Checkpoint::unlimited()) {
        Ok(sweep) => sweep,
        Err(_) => unreachable!("an unlimited checkpoint never trips"),
    }
}

/// [`sweep_cut_par`] over the engine's [`Workspace`]: the rank table is
/// recycled, re-fitted to this support (indistinguishable from a fresh
/// one, and costing `O(N)`), and a cache-wired workspace serves degrees
/// from the shared degree vector (the same integers as the CSR offsets).
///
/// The sweep is a single fused pipeline with no iterative refinement, so
/// `cp` is consulted once on entry (its boundary): cancellation and
/// deadlines can stop a query between its diffusion and its sweep, while
/// work caps are the diffusions' domain (the sweep's work is bounded by
/// the diffusion work that produced `p`). The workspace is untouched
/// when the entry check trips.
pub(crate) fn sweep_cut_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    p: &[(u32, f64)],
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<SweepCut, Trip> {
    cp.tick(0, 0)?;
    let mut scored = eligible_entries(g, p);
    if scored.is_empty() {
        return Ok(SweepCut::empty());
    }
    merge_sort_by(pool, &mut scored, sweep_order_cmp);
    let n = scored.len();
    let order: Vec<u32> = scored.iter().map(|&(v, _)| v).collect();

    // rank[v] = 1-based position of v in the sweep order; vertices
    // outside the support are absent.
    let rank = match ws.sweep_rank.take() {
        Some(mut m) => {
            m.reset(pool, RANK_HEADROOM * n);
            m
        }
        None => ConcurrentRankMap::with_capacity(RANK_HEADROOM * n),
    };
    pool.run(n, 1024, |s, e| {
        for (i, &v) in order[s..e].iter().enumerate() {
            rank.insert(v, (s + i + 1) as u32);
        }
    });

    // Degrees in rank order. The cached degree vector (one load) and the
    // CSR offsets (two loads) hold the same integers.
    let degs: Vec<u64> = match &ws.cached_degrees(g) {
        Some(d) => map_index(pool, n, |i| d[order[i] as usize] as u64),
        None => map_index(pool, n, |i| g.degree(order[i]) as u64),
    };

    // Back-edge counts, one task per SEGMENT-sized piece of each list:
    // vertex i owns tasks seg_end[i−1]..seg_end[i].
    let segs: Vec<usize> = map_index(pool, n, |i| (degs[i] as usize).div_ceil(SEGMENT));
    let seg_end = scan_inclusive(pool, &segs, 0, |a, b| a + b);
    let n_tasks = seg_end[n - 1];
    let task_back: Vec<u64> = map_index(pool, n_tasks, |t| {
        // Task t is vertex t unless a list was split; only then does it
        // pay a binary search for its vertex.
        let i = if n_tasks == n {
            t
        } else {
            seg_end.partition_point(|&e| e <= t)
        };
        let (v, deg) = (order[i], degs[i] as usize);
        let lo = (t + segs[i] - seg_end[i]) * SEGMENT;
        let hi = deg.min(lo + SEGMENT);
        let mut back = 0u64;
        // v has rank i + 1, so a neighbor ranked ≤ i comes before it.
        let count = |w| back += u64::from(rank.get(w).is_some_and(|r| r as usize <= i));
        // A whole list takes the whole-list walk (the compressed
        // backend decodes it group by group).
        if hi - lo == deg {
            g.for_each_neighbor(v, count);
        } else {
            g.for_each_neighbor_in(v, lo, hi, count);
        }
        back
    });
    let back_prefix = scan_inclusive(pool, &task_back, 0u64, |a, b| a + b);
    let vol_prefix = scan_inclusive(pool, &degs, 0u64, |a, b| a + b);

    // ∂(S_i) = vol(S_i) − 2·Σ back, per-prefix conductances, and a
    // parallel min-reduction.
    let total_degree = g.total_degree() as u64;
    let conductances: Vec<f64> = map_index(pool, n, |i| {
        let crossing = vol_prefix[i] - 2 * back_prefix[seg_end[i] - 1];
        prefix_conductance(crossing, vol_prefix[i], total_degree)
    });
    // "max" under the inverted comparator = first minimum.
    let (best_idx, best_phi) = max_by(pool, &conductances, |a, b| {
        b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
    })
    .expect("n >= 1");

    ws.sweep_rank = Some(rank);
    Ok(SweepCut {
        order,
        conductances,
        best_size: best_idx + 1,
        best_conductance: best_phi,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_cut_seq;
    use lgc_graph::{gen, CsrCompressed, Graph};
    use proptest::prelude::*;

    fn assert_same(seqr: &SweepCut, parr: &SweepCut) {
        let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(seqr.order, parr.order);
        assert_eq!(bits(&seqr.conductances), bits(&parr.conductances));
        assert_eq!(seqr.best_size, parr.best_size);
        assert_eq!(
            seqr.best_conductance.to_bits(),
            parr.best_conductance.to_bits()
        );
    }

    /// `sweep_cut_par` on both backends at 1, 2 and 4 threads must equal
    /// `sweep_cut_seq` bit for bit.
    fn assert_matches_seq_everywhere(g: &Graph, p: &[(u32, f64)]) {
        let want = sweep_cut_seq(g, p);
        let comp = CsrCompressed::from_graph(g);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            assert_same(&want, &sweep_cut_par(&pool, g, p));
            assert_same(&want, &sweep_cut_par(&pool, &comp, p));
        }
    }

    #[test]
    fn figure1_example_parallel() {
        let g = gen::figure1_graph();
        let p = vec![(0u32, 0.40), (1, 0.30), (2, 0.30), (3, 0.20)];
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let sweep = sweep_cut_par(&pool, &g, &p);
            assert_eq!(sweep.conductances, vec![1.0, 0.5, 1.0 / 7.0, 3.0 / 5.0]);
            assert_eq!(sweep.cluster(), &[0, 1, 2]);
        }
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 1..=4u64 {
            let g = gen::rand_local(500, 5, seed);
            // 13 is coprime to 500, so the 120 keys are distinct.
            let p: Vec<(u32, f64)> = (0..120u32)
                .map(|i| ((i * 13) % 500, 1.0 / ((i % 17) as f64 + 1.5)))
                .collect();
            assert_matches_seq_everywhere(&g, &p);
        }
    }

    #[test]
    fn matches_sequential_on_power_law_graph() {
        let g = gen::rmat_graph500(10, 8, 7);
        let p: Vec<(u32, f64)> = (0..200u32)
            .map(|i| (i * 5, ((i + 1) as f64).recip()))
            .collect();
        assert_matches_seq_everywhere(&g, &p);
    }

    #[test]
    fn hub_split_into_sub_ranges_at_first_middle_and_last_rank() {
        // A star whose center 0 is also joined to a 6-clique; its list
        // spans three sub-ranges.
        let leaves = 2 * SEGMENT as u32 + 500;
        let clique: Vec<u32> = (leaves + 1..=leaves + 6).collect();
        let mut edges: Vec<(u32, u32)> = (1..=leaves).map(|v| (0, v)).collect();
        for &a in &clique {
            edges.push((0, a));
            edges.extend(clique.iter().filter(|&&b| b > a).map(|&b| (a, b)));
        }
        let g = Graph::from_edges(leaves as usize + 7, &edges);
        // Leaves spread over the whole list, plus those on either side
        // of each sub-range boundary (leaf k sits at list index k − 1).
        let seg = SEGMENT as u32;
        let edge = [seg - 1, seg, seg + 1, seg + 2, 2 * seg, 2 * seg + 1, leaves];
        let picked = |k: &u32| k % 97 == 1 || edge.contains(k);
        let others: Vec<u32> = (1..=leaves).filter(picked).chain(clique).collect();
        for at in [0, others.len() / 2, others.len()] {
            let mut order = others.clone();
            order.insert(at, 0);
            // p/d = 1/(k+1) at position k makes `order` the sweep order.
            let p: Vec<(u32, f64)> = order
                .iter()
                .enumerate()
                .map(|(k, &v)| (v, g.degree(v) as f64 / (k + 1) as f64))
                .collect();
            assert_eq!(sweep_cut_seq(&g, &p).order, order);
            assert_matches_seq_everywhere(&g, &p);
        }
    }

    #[test]
    fn rank_table_is_refit_to_each_support() {
        let g = gen::rand_local(600, 5, 9);
        let large: Vec<(u32, f64)> = (0..500u32).map(|v| (v, 1.0 / (v + 1) as f64)).collect();
        let small = &large[..7];
        let pool = Pool::new(2);
        let mut ws = Workspace::new();
        for p in [&large[..], small] {
            let warm = sweep_cut_par_ws(&pool, &g, p, &mut ws, &Checkpoint::unlimited());
            assert_same(&sweep_cut_seq(&g, p), &warm.expect("unlimited"));
        }
        let fresh = ConcurrentRankMap::with_capacity(RANK_HEADROOM * small.len()).capacity();
        assert_eq!(ws.sweep_rank.map(|t| t.capacity()), Some(fresh));
    }

    #[test]
    fn single_vertex_support() {
        let g = gen::cycle(10);
        let pool = Pool::new(2);
        let sweep = sweep_cut_par(&pool, &g, &[(3, 1.0)]);
        assert_eq!(sweep.order, vec![3]);
        assert_eq!(sweep.best_size, 1);
        assert_eq!(sweep.best_conductance, 1.0); // 2 crossing / min(2, 18)
    }

    #[test]
    fn empty_support() {
        let g = gen::cycle(5);
        let pool = Pool::new(2);
        let sweep = sweep_cut_par(&pool, &g, &[]);
        assert_eq!(sweep.best_size, 0);
        assert!(sweep.best_conductance.is_infinite());
    }

    #[test]
    fn support_larger_than_half_the_graph() {
        // Exercises the min(vol, 2m - vol) branch on the far side.
        let g = gen::two_cliques_bridge(6);
        let p: Vec<(u32, f64)> = (0..10u32).map(|v| (v, 0.1)).collect();
        assert_matches_seq_everywhere(&g, &p);
    }

    proptest! {
        // `PROPTEST_CASES` (CI's Miri job sets 8) or 64.
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES").ok().and_then(|c| c.parse().ok()).unwrap_or(64)
        ))]

        #[test]
        fn parallel_sweep_equals_sequential_bitwise(
            n in 2u32..60,
            edges in prop::collection::vec((0u32..60, 0u32..60), 1..200),
            p in prop::collection::vec((0u32..60, 0.01f64..10.0), 1..40),
        ) {
            let edges: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (u % n, v % n)).collect();
            let mut p: Vec<(u32, f64)> = p.iter().map(|&(v, m)| (v % n, m)).collect();
            p.sort_unstable_by_key(|&(v, _)| v);
            p.dedup_by_key(|&mut (v, _)| v);
            assert_matches_seq_everywhere(&Graph::from_edges(n as usize, &edges), &p);
        }
    }
}
