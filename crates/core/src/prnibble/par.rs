//! Parallel PageRank-Nibble (Figures 5–6 of the paper).
//!
//! Each iteration pushes *every* vertex whose residual met the threshold
//! at the start of the iteration, reading residuals from the iteration's
//! start (the paper's synchronous `r`/`r'` scheme — the asynchronous
//! single-vector variant leaks mass under races, §3.3). Untouched
//! residuals carry over between iterations ("r′ is set to r at the
//! beginning of an iteration"); we implement the carry-over without
//! copying `r` by accumulating only the *neighbor contributions* in a
//! scratch table and committing them after the frontier's self-updates,
//! which keeps the work of an iteration `O(|frontier| + vol(frontier))`
//! exactly as Theorem 3 charges it.

use super::PrNibbleParams;
use crate::budget::TrippedDiffusion;
use crate::engine::Workspace;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use lgc_graph::CsrBackend;
use lgc_ligra::{
    choose_direction, edge_map_dense_gather, edge_map_indexed, Checkpoint, Direction, VertexSubset,
};
use lgc_parallel::{filter_map_index, Bitset, Pool, UnsafeSlice};
use lgc_sparse::MassMap;

/// Dense threshold of the per-iteration `edgeMap`s: pull once
/// `|frontier| + vol(frontier) > m / DENSE_DENOM`. PR-Nibble's gather
/// has no early exit, so Ligra's BFS-tuned `m/20` fires too eagerly for
/// it — measured on the suite, `m/1` is as good or better on every graph
/// (up to 4–5× over push-only on the social-network stand-ins, no
/// regression beyond noise elsewhere). NCP scans run through this loop
/// and inherit it.
const DENSE_DENOM: usize = 1;

/// Parallel PR-Nibble. Work `O(1/(α·ε))` w.h.p. (Theorem 3), regardless
/// of the iteration count; depth is one `edgeMap` + filter per iteration.
///
/// With `params.beta < 1`, only the top `β`-fraction of eligible vertices
/// (by `r[v]/d(v)`) is pushed per iteration (§3.3's variant).
///
/// Iterations are *direction-optimized* (pull once `|F| + vol(F)`
/// exceeds `m / DENSE_DENOM`):
///
/// * **Push** (small frontiers): the push value `cₙ·r[v]/d(v)` is
///   precomputed into a frontier-indexed `contrib` slice and
///   [`edge_map_indexed`] reduces the per-edge work to one slice load +
///   one atomic accumulate into a scratch delta map, committed after the
///   frontier's self-updates. The next eligible set is tracked
///   incrementally (old eligibles ∪ delta receivers).
/// * **Pull** (once `|F| + vol(F)` crosses the dense threshold):
///   contributions are scattered into a vertex-indexed slice, the
///   frontier self-residuals are overwritten first, and then every
///   vertex *gathers* its frontier in-neighbors' contributions in one
///   register sum — no atomics, no scratch delta map, no intermediate
///   entries vector — applied directly to `r`, while a receiver bitset
///   keeps the incremental eligibility rule (old eligibles ∪ receivers)
///   intact at `O(n/64 + receivers)` extra cost.
///
/// Mass vectors live in [`MassMap`]s, which upgrade themselves to
/// direct-indexed dense arrays once the per-iteration key bound crosses
/// `n/8` — the regime pull iterations live in.
pub fn prnibble_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &PrNibbleParams,
) -> Diffusion {
    match prnibble_par_ws(
        pool,
        g,
        seed,
        params,
        &mut Workspace::new(),
        None,
        &Checkpoint::unlimited(),
    ) {
        Ok(d) => d,
        Err(t) => t.partial, // unreachable: an unlimited checkpoint never trips
    }
}

/// [`prnibble_par`] over a recyclable [`Workspace`]: the three mass maps,
/// the frontier (with its bitset), the vertex-indexed contribution slice,
/// and the receiver bitset are checked out of `ws` instead of allocated —
/// and every checkout is re-fitted to be observationally identical to a
/// fresh allocation, so warm runs return the same bits as cold ones.
///
/// `cp` is consulted once per push iteration; on a trip the loop stops at
/// that boundary and the settled `p` is returned as the `Err` payload,
/// with every workspace buffer already recycled (the receiver bitset is
/// all-zero at iteration boundaries, so the early exit preserves the
/// pool's clear-bitset invariant).
///
/// `dir` pins the traversal of every iteration; `None` applies the
/// `DENSE_DENOM` rule.
pub(crate) fn prnibble_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &PrNibbleParams,
    ws: &mut Workspace,
    dir: Option<Direction>,
    cp: &Checkpoint,
) -> Result<Diffusion, TrippedDiffusion> {
    params.validate().unwrap_or_else(|why| panic!("{why}"));
    let (c_bank, cr, cn) = params.rule.coefficients(params.alpha);
    let eps = params.eps;
    let n = g.num_vertices();
    let mut stats = DiffusionStats::default();

    let mut r = ws.take_mass(pool, n, seed.vertices().len() * 2);
    for &x in seed.vertices() {
        r.set(x, seed.mass_per_vertex());
    }
    let mut p = ws.take_mass(pool, n, 16);
    let mut r_delta = ws.take_mass(pool, n, 16);
    let mut frontier = ws.take_frontier();
    let mut contrib_dense: Vec<f64> = ws.take_dense();
    // Taken warm from the workspace, or allocated on the first pull
    // iteration; always left fully clear.
    let mut receiver_bits: Option<Bitset> = ws.take_bitset(n);

    // Eligible = vertices known to satisfy r[v] ≥ ε·d(v) (sorted).
    let mut eligible: Vec<u32> = seed
        .vertices()
        .iter()
        .copied()
        .filter(|&v| g.degree(v) > 0 && seed.mass_per_vertex() >= eps * g.degree(v) as f64)
        .collect();

    let mut tripped = None;
    while !eligible.is_empty() {
        if let Err(trip) = cp.tick(stats.pushes, stats.edges_traversed) {
            tripped = Some(trip);
            break;
        }
        stats.iterations += 1;
        frontier.advance(pool, select_frontier(g, &r, &eligible, params.beta));
        let k = frontier.len();
        let vol = frontier.volume(g);
        stats.pushes += k as u64;
        stats.pushed_volume += vol as u64;
        stats.edges_traversed += vol as u64;
        let dir = choose_direction(dir, g, k, vol, DENSE_DENOM);

        // Phase 1 (read r / write p): bank the α-fraction, remember the
        // post-push self-residuals, and precompute each frontier vertex's
        // per-neighbor contribution — frontier-indexed for the push
        // engine, vertex-indexed for the pull gather (stale slots outside
        // the current frontier are never read: the bitset gates them).
        p.reserve_rehash(pool, p.len() + k);
        let mut self_new = vec![0.0f64; k];
        let mut contrib = Vec::new();
        if dir == Direction::Push {
            contrib.resize(k, 0.0f64);
        } else if contrib_dense.len() < n {
            contrib_dense.resize(n, 0.0);
        }
        {
            let self_view = UnsafeSlice::new(&mut self_new);
            let contrib_view = UnsafeSlice::new(&mut contrib[..]);
            let dense_view = UnsafeSlice::new(&mut contrib_dense[..]);
            let ids = frontier.ids();
            let (r_ref, p_ref) = (&r, &p);
            pool.run(k, 256, |s, e| {
                // Global index i addresses `ids` and the output views.
                #[allow(clippy::needless_range_loop)]
                for i in s..e {
                    let v = ids[i];
                    let rv = r_ref.get(v);
                    p_ref.add(v, c_bank * rv);
                    let c = cn * rv / g.degree(v) as f64;
                    // SAFETY: disjoint indices (i and the distinct v).
                    unsafe {
                        self_view.write(i, cr * rv);
                        match dir {
                            Direction::Push => contrib_view.write(i, c),
                            Direction::Pull => dense_view.write(v as usize, c),
                        }
                    }
                }
            });
        }

        match dir {
            Direction::Push => {
                // Phase 2 (write r_delta): neighbor contributions, using
                // residuals from the start of the iteration — no residual
                // lookup or division left in the per-edge path. Only edge
                // destinations land here, so vol bounds the touched keys.
                r_delta.reset(pool, vol.max(1));
                {
                    let delta_ref = &r_delta;
                    let contrib = &contrib;
                    edge_map_indexed(pool, g, frontier.subset(), |i, _src, dst| {
                        delta_ref.add(dst, contrib[i]);
                    });
                }

                // Phase 3 (write r): frontier self-residuals first
                // (overwrite), then all received contributions
                // (accumulate).
                {
                    let ids = frontier.ids();
                    let r_ref = &r;
                    pool.run(k, 256, |s, e| {
                        for i in s..e {
                            r_ref.set(ids[i], self_new[i]);
                        }
                    });
                }
                let deltas = r_delta.entries(pool);
                r.reserve_rehash(pool, r.len() + deltas.len());
                {
                    let r_ref = &r;
                    pool.run(deltas.len(), 512, |s, e| {
                        for &(w, dm) in &deltas[s..e] {
                            r_ref.add(w, dm);
                        }
                    });
                }

                // Phase 4: the next eligible set can only contain
                // previously eligible vertices or vertices that just
                // received mass.
                let mut cands = std::mem::take(&mut eligible);
                cands.extend(deltas.iter().map(|&(w, _)| w));
                cands.sort_unstable();
                cands.dedup();
                let r_ref = &r;
                eligible = filter_map_index(pool, cands.len(), |i| {
                    let v = cands[i];
                    let d = g.degree(v);
                    (d > 0 && r_ref.get(v) >= eps * d as f64).then_some(v)
                });
            }
            Direction::Pull => {
                // Phase 2/3 fused: self-residuals first (phase 1 already
                // consumed the old values), then every destination
                // gathers its incoming contributions in a register and
                // commits them with one plain single-writer add — no
                // scratch delta map or entries materialization at all.
                {
                    let ids = frontier.ids();
                    let r_ref = &r;
                    pool.run(k, 256, |s, e| {
                        for i in s..e {
                            r_ref.set(ids[i], self_new[i]);
                        }
                    });
                }
                r.reserve_rehash(pool, r.len() + vol);
                let recv = &*receiver_bits.get_or_insert_with(|| Bitset::new(n));
                let bits = frontier.bits(pool, n);
                {
                    let r_ref = &r;
                    edge_map_dense_gather(pool, g, bits, &contrib_dense, |dst, sum| {
                        r_ref.add_exclusive(dst, sum);
                        recv.insert(dst);
                    });
                }

                // Phase 4: same incremental rule as push mode — the next
                // eligible set ⊆ old eligibles ∪ receivers. The receiver
                // bitset enumerates (already sorted) in `O(n/64 + len)`,
                // a vanishing cost next to the `O(n + m)` gather, and the
                // sorted-merge replaces the sort the push path needs.
                let receivers = recv.to_sorted_ids(pool);
                recv.clear_sorted(pool, &receivers);
                let cands = merge_sorted_distinct(&eligible, &receivers);
                let r_ref = &r;
                eligible = filter_map_index(pool, cands.len(), |i| {
                    let v = cands[i];
                    let d = g.degree(v);
                    (d > 0 && r_ref.get(v) >= eps * d as f64).then_some(v)
                });
            }
        }
    }

    stats.residual_mass = r.l1_norm(pool);
    let entries = p.entries(pool);
    ws.put_mass(r);
    ws.put_mass(p);
    ws.put_mass(r_delta);
    ws.put_frontier(pool, frontier);
    ws.put_dense(contrib_dense);
    if let Some(bits) = receiver_bits {
        // Invariant: the pull arm clears exactly the receivers it set,
        // so the bitset goes back to the pool all-zero.
        ws.put_bitset(bits);
    }
    let d = Diffusion::from_entries_par(pool, entries, stats);
    match tripped {
        None => Ok(d),
        Some(trip) => Err(TrippedDiffusion { trip, partial: d }),
    }
}

/// Merges two sorted duplicate-free id lists into one — `O(a + b)`,
/// replacing the extend + sort + dedup the push path's candidate
/// assembly needs.
fn merge_sorted_distinct(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    // lgc-lint: allow(checkpoint-tick) -- bounded O(a + b) two-list merge, not a frontier loop; the driver ticks per round
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Top `β`-fraction of `eligible` by `r[v]/d(v)` (all of it when β = 1).
///
/// Partial selection, not a full sort: `select_nth_unstable_by` places
/// the `take` best-scored vertices (under a total order — score
/// descending, vertex id ascending on ties, and scores are never NaN
/// since `d > 0`) in the prefix in `O(k)` expected time instead of
/// `O(k log k)`. The selected *set* is deterministic because the
/// comparator never declares two distinct vertices equal.
fn select_frontier<B: CsrBackend>(g: &B, r: &MassMap, eligible: &[u32], beta: f64) -> VertexSubset {
    if beta >= 1.0 {
        return VertexSubset::from_sorted(eligible.to_vec());
    }
    let take = ((eligible.len() as f64 * beta).ceil() as usize).clamp(1, eligible.len());
    let mut scored: Vec<(u32, f64)> = eligible
        .iter()
        .map(|&v| (v, r.get(v) / g.degree(v) as f64))
        .collect();
    if take < scored.len() {
        scored.select_nth_unstable_by(take - 1, |a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(take);
    }
    VertexSubset::from_unsorted(scored.iter().map(|&(v, _)| v).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prnibble::{prnibble_seq, PushRule};
    use crate::sweep::{sweep_cut_par, sweep_cut_seq};
    use lgc_graph::gen;

    #[test]
    fn mass_conservation_parallel() {
        // |p|₁ + |r|₁ = 1 exactly (up to fp associativity) in every
        // configuration — the invariant behind Theorem 3.
        let g = gen::rmat_graph500(10, 8, 9);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        for rule in [PushRule::Original, PushRule::Optimized] {
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let params = PrNibbleParams {
                    alpha: 0.05,
                    eps: 1e-6,
                    rule,
                    beta: 1.0,
                };
                let d = prnibble_par(&pool, &g, &seed, &params);
                let total = d.total_mass() + d.stats.residual_mass;
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{rule:?} t={threads}: |p|+|r| = {total}"
                );
            }
        }
    }

    #[test]
    fn theorem3_work_bound_holds_in_parallel() {
        let g = gen::rmat_graph500(10, 8, 2);
        let params = PrNibbleParams {
            alpha: 0.02,
            eps: 1e-5,
            ..Default::default()
        };
        let pool = Pool::new(4);
        let d = prnibble_par(&pool, &g, &Seed::single(5), &params);
        let bound = 1.0 / (params.alpha * params.eps);
        assert!((d.stats.pushed_volume as f64) <= bound);
    }

    #[test]
    fn parallel_does_more_pushes_but_fewer_iterations() {
        // Table 1's observation: the parallel version pushes a little
        // more (stale residuals) but needs far fewer iterations.
        let g = gen::rand_local(3000, 5, 4);
        let params = PrNibbleParams {
            alpha: 0.01,
            eps: 1e-6,
            ..Default::default()
        };
        let seq = prnibble_seq(&g, &Seed::single(0), &params);
        let pool = Pool::new(2);
        let par = prnibble_par(&pool, &g, &Seed::single(0), &params);
        assert!(par.stats.pushes >= seq.stats.pushes);
        assert!(
            (par.stats.pushes as f64) < 2.0 * seq.stats.pushes as f64,
            "paper: at most ~1.6x more pushes; got {} vs {}",
            par.stats.pushes,
            seq.stats.pushes
        );
        assert!(par.stats.iterations < par.stats.pushes / 2);
    }

    #[test]
    fn parallel_and_sequential_find_same_quality_cluster() {
        let g = gen::two_cliques_bridge(12);
        let params = PrNibbleParams {
            alpha: 0.05,
            eps: 1e-8,
            ..Default::default()
        };
        let seq_d = prnibble_seq(&g, &Seed::single(1), &params);
        let pool = Pool::new(2);
        let par_d = prnibble_par(&pool, &g, &Seed::single(1), &params);
        let seq_cut = sweep_cut_seq(&g, &seq_d.p);
        let par_cut = sweep_cut_par(&pool, &g, &par_d.p);
        // The diffusion vectors differ (stale residuals in the parallel
        // push schedule), but both must recover the planted clique.
        let as_set = |c: &[u32]| {
            let mut v = c.to_vec();
            v.sort_unstable();
            v
        };
        assert_eq!(as_set(seq_cut.cluster()), as_set(par_cut.cluster()));
        assert!((seq_cut.best_conductance - par_cut.best_conductance).abs() < 1e-12);
    }

    #[test]
    fn beta_fraction_still_terminates_and_conserves_mass() {
        let g = gen::rand_local(1000, 5, 6);
        let pool = Pool::new(2);
        for beta in [0.25, 0.5, 0.9] {
            let params = PrNibbleParams {
                alpha: 0.05,
                eps: 1e-6,
                beta,
                ..Default::default()
            };
            let d = prnibble_par(&pool, &g, &Seed::single(0), &params);
            let total = d.total_mass() + d.stats.residual_mass;
            assert!((total - 1.0).abs() < 1e-9, "beta={beta}: {total}");
            assert!(d.support_size() > 0);
        }
    }

    #[test]
    fn beta_one_equals_standard_variant() {
        let g = gen::rand_local(500, 5, 2);
        let pool = Pool::new(1);
        let base = PrNibbleParams {
            alpha: 0.03,
            eps: 1e-6,
            ..Default::default()
        };
        let a = prnibble_par(&pool, &g, &Seed::single(0), &base);
        let b = prnibble_par(
            &pool,
            &g,
            &Seed::single(0),
            &PrNibbleParams { beta: 1.0, ..base },
        );
        assert_eq!(a.p, b.p);
    }

    #[test]
    fn multi_seed_parallel() {
        let g = gen::two_cliques_bridge(10);
        let pool = Pool::new(2);
        let d = prnibble_par(
            &pool,
            &g,
            &Seed::set(vec![0, 1, 2]),
            &PrNibbleParams {
                alpha: 0.1,
                eps: 1e-7,
                ..Default::default()
            },
        );
        let in_cluster: f64 = d.p.iter().filter(|&&(v, _)| v < 10).map(|&(_, m)| m).sum();
        assert!(in_cluster > 0.5);
    }
}
