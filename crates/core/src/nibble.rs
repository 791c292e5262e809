//! Nibble — the Spielman–Teng truncated lazy random walk (§3.2).
//!
//! Starting from mass 1 on the seed, each iteration keeps half of every
//! *active* vertex's mass in place and spreads the other half uniformly
//! over its neighbors; a vertex is active while its mass is at least
//! `ε·d(v)` (mass below the threshold is truncated from propagation —
//! that is what keeps the walk local). The algorithm runs for up to `T`
//! iterations, returning the previous vector if the frontier empties
//! (the paper's modification that skips the per-iteration sweep).
//!
//! The parallel version (Figure 3) processes the whole frontier with
//! `vertexMap`/`edgeMap` per iteration: Theorem 2 gives `O(T/ε)` work and
//! `O(T log(1/ε))` depth.

use crate::budget::TrippedDiffusion;
use crate::engine::Workspace;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use lgc_graph::CsrBackend;
use lgc_ligra::{
    choose_direction, edge_map_dense, edge_map_indexed, Checkpoint, Direction, Frontier,
    VertexSubset,
};
use lgc_parallel::{fill_with_index, Pool, UnsafeSlice};
use lgc_sparse::{MassMap, SparseVec};

/// Parameters for Nibble.
#[derive(Clone, Copy, Debug)]
pub struct NibbleParams {
    /// Maximum number of lazy-walk iterations `T`.
    pub t_max: usize,
    /// Truncation threshold `ε` (a vertex stays active while
    /// `p[v] ≥ ε·d(v)`). Smaller ε explores more of the graph.
    pub eps: f64,
}

impl Default for NibbleParams {
    /// The paper's Table 3 setting: `T = 20`, `ε = 10⁻⁸`.
    fn default() -> Self {
        NibbleParams {
            t_max: 20,
            eps: 1e-8,
        }
    }
}

/// Dense threshold of the per-iteration `edgeMap`: pull once
/// `|frontier| + vol(frontier) > m / DENSE_DENOM`. The lazy-walk gather
/// has no early exit, so Ligra's BFS-tuned `m/20` switches too eagerly —
/// measured on the suite, `m/1` keeps the ~2× pull wins on the
/// social-network stand-ins while capping the mesh/randLocal mispredict
/// at noise level.
const DENSE_DENOM: usize = 1;

/// Sequential Nibble.
pub fn nibble_seq<B: CsrBackend>(g: &B, seed: &Seed, params: &NibbleParams) -> Diffusion {
    let eps = params.eps;
    let mut stats = DiffusionStats::default();

    let mut p = SparseVec::new_f64();
    for &x in seed.vertices() {
        p.set(x, seed.mass_per_vertex());
    }
    let mut frontier: Vec<u32> = active_seed(g, seed, eps);

    for _ in 0..params.t_max {
        if frontier.is_empty() {
            break;
        }
        stats.iterations += 1;
        stats.pushes += frontier.len() as u64;

        // Two phases in the same order as Figure 3's vertexMap-then-
        // edgeMap, so the single-threaded parallel version accumulates
        // in the identical order (bit-equal outputs).
        let mut p_new = SparseVec::with_capacity(0.0, frontier.len() * 2);
        for &v in &frontier {
            p_new.add(v, p.get(v) / 2.0); // UpdateSelf
        }
        for &v in &frontier {
            let share = p.get(v) / (2.0 * g.degree(v) as f64);
            g.for_each_neighbor(v, |w| {
                p_new.add(w, share); // UpdateNgh
                stats.edges_traversed += 1;
            });
            stats.pushed_volume += g.degree(v) as u64;
        }

        // New frontier: touched vertices with enough mass (sorted for
        // deterministic iteration order).
        let mut next: Vec<u32> = p_new
            .iter()
            .filter(|&(v, m)| m >= eps * g.degree(v) as f64)
            .map(|(v, _)| v)
            .collect();
        next.sort_unstable();

        if next.is_empty() {
            // Frontier died: return the *previous* vector (line 15 of
            // Figure 3 breaks before `p = p'`).
            return finish_seq(p.entries_sorted(), stats);
        }
        p = p_new;
        frontier = next;
    }
    finish_seq(p.entries_sorted(), stats)
}

/// Parallel Nibble (Figure 3): one fused self-update/contribution pass +
/// direction-optimized `edgeMap` + filter per iteration; mass vectors in
/// adaptive [`MassMap`]s (sparse hash tables that upgrade to
/// direct-indexed dense arrays once the per-iteration touch bound is a
/// constant fraction of `n`).
///
/// Each frontier vertex's spread share `p[v]/(2·d(v))` is computed once,
/// not per edge. Small frontiers push it along their out-edges (one
/// slice load + atomic add per edge); once `|F| + vol(F)` crosses the
/// dense threshold the iteration *pulls*: every vertex scans its
/// neighbors against the frontier bitset and accumulates the incoming
/// shares with plain single-writer stores — no atomics, and bit-equal to
/// the sequential update order. The next frontier is filtered straight
/// off `p_new`'s backend (no intermediate entries vector).
pub fn nibble_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &NibbleParams,
) -> Diffusion {
    match nibble_par_ws(
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

/// [`nibble_par`] over a recyclable [`Workspace`]: both mass maps, the
/// frontier (with its bitset), and the vertex-indexed share slice are
/// checked out of `ws` instead of allocated; checkouts are re-fitted to
/// match fresh allocations exactly, so warm runs are bit-identical.
///
/// `cp` is consulted once per lazy-walk iteration; on a trip the loop
/// stops at that boundary and the mass settled so far is returned as the
/// `Err` payload, with every workspace buffer already recycled.
///
/// `dir` pins the traversal of every iteration; `None` applies the
/// `DENSE_DENOM` rule.
pub(crate) fn nibble_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &NibbleParams,
    ws: &mut Workspace,
    dir: Option<Direction>,
    cp: &Checkpoint,
) -> Result<Diffusion, TrippedDiffusion> {
    let eps = params.eps;
    let n = g.num_vertices();
    let mut stats = DiffusionStats::default();

    let mut p = ws.take_mass(pool, n, seed.vertices().len());
    for &x in seed.vertices() {
        p.set(x, seed.mass_per_vertex());
    }
    let mut frontier = ws.take_frontier();
    frontier.advance(pool, VertexSubset::from_sorted(active_seed(g, seed, eps)));
    let mut p_new = ws.take_mass(pool, n, 16);
    let mut share_dense: Vec<f64> = ws.take_dense();

    let mut tripped = None;
    for _ in 0..params.t_max {
        if frontier.is_empty() {
            break;
        }
        if let Err(trip) = cp.tick(stats.pushes, stats.edges_traversed) {
            tripped = Some(trip);
            break;
        }
        stats.iterations += 1;
        stats.pushes += frontier.len() as u64;
        let k = frontier.len();
        let vol = frontier.volume(g);
        stats.pushed_volume += vol as u64;
        stats.edges_traversed += vol as u64;

        lazy_walk_step(
            pool,
            g,
            &mut frontier,
            k,
            vol,
            &p,
            &mut p_new,
            dir,
            &mut share_dense,
        );

        // Frontier = {v : p'[v] ≥ ε·d(v)}, filtered directly over the
        // mass store's backend. An empty filter means the walk died:
        // break *before* the swap, returning the previous vector
        // (line 15 of Figure 3).
        let above = p_new.filter_keys(pool, |v, m| m >= eps * g.degree(v) as f64);
        if above.is_empty() {
            break;
        }
        frontier.advance(pool, VertexSubset::from_distinct_unsorted_par(pool, above));
        std::mem::swap(&mut p, &mut p_new);
    }
    let entries = p.entries(pool);
    ws.put_mass(p);
    ws.put_mass(p_new);
    ws.put_frontier(pool, frontier);
    ws.put_dense(share_dense);
    let d = finish(pool, entries, stats);
    match tripped {
        None => Ok(d),
        Some(trip) => Err(TrippedDiffusion { trip, partial: d }),
    }
}

/// The *original* Spielman–Teng Nibble loop (§3.2 before the paper's
/// modification): run a sweep cut after **every** iteration and stop as
/// soon as a prefix with conductance below `phi_target` appears.
///
/// Returns the first cluster meeting the target, or `None` if the walk
/// dies or `t_max` passes without reaching it. Theorem 2 notes the
/// per-iteration sweep raises the work to `O((T/ε)·log(1/ε))` without
/// increasing the depth.
pub fn nibble_with_target_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &NibbleParams,
    phi_target: f64,
) -> Option<crate::sweep::SweepCut> {
    assert!(phi_target > 0.0, "target conductance must be positive");
    let eps = params.eps;
    let n = g.num_vertices();
    let mut p = MassMap::new(n, seed.vertices().len());
    for &x in seed.vertices() {
        p.set(x, seed.mass_per_vertex());
    }
    let mut frontier = Frontier::from_subset(VertexSubset::from_sorted(active_seed(g, seed, eps)));
    let mut p_new = MassMap::new(n, 16);
    let mut share_dense: Vec<f64> = Vec::new();

    for _ in 0..params.t_max {
        if frontier.is_empty() {
            return None;
        }
        let k = frontier.len();
        let vol = frontier.volume(g);
        lazy_walk_step(
            pool,
            g,
            &mut frontier,
            k,
            vol,
            &p,
            &mut p_new,
            None,
            &mut share_dense,
        );

        // Per-iteration sweep: stop at the first below-target cluster.
        let entries = p_new.entries(pool);
        let sweep = crate::sweep::sweep_cut_par(pool, g, &entries);
        if sweep.best_size > 0 && sweep.best_conductance <= phi_target {
            return Some(sweep);
        }

        let above = lgc_parallel::filter_map_index(pool, entries.len(), |i| {
            let (v, m) = entries[i];
            (m >= eps * g.degree(v) as f64).then_some(v)
        });
        if above.is_empty() {
            return None;
        }
        frontier.advance(pool, VertexSubset::from_unsorted(above));
        std::mem::swap(&mut p, &mut p_new);
    }
    None
}

/// One parallel lazy-walk spread: resets `p_new` for this iteration's
/// touch bound (`k + vol`), banks every frontier vertex's kept half
/// (UpdateSelf) while precomputing its per-neighbor share
/// `p[v]/(2·d(v))`, then spreads the shares with the direction-optimized
/// edge map (UpdateNgh).
///
/// Push: frontier-indexed engine, one slice load + atomic add per edge.
/// Pull: shares are scattered into a vertex-indexed slice (`share_dense`,
/// recycled across iterations — stale entries outside the current
/// frontier are never read because the bitset gates them), then every
/// destination drains its frontier in-neighbors in ascending source
/// order with plain single-writer adds, reproducing the sequential
/// accumulation order bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn lazy_walk_step<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    frontier: &mut Frontier,
    k: usize,
    vol: usize,
    p: &MassMap,
    p_new: &mut MassMap,
    dir: Option<Direction>,
    share_dense: &mut Vec<f64>,
) {
    let n = g.num_vertices();
    p_new.reset(pool, k + vol);
    let per_vertex_share = |v: u32| {
        // Degree-0 vertices never reach the frontier in practice
        // (they spread nothing); guard the division anyway.
        let pv = p.get(v);
        let d = g.degree(v);
        if d == 0 {
            0.0
        } else {
            pv / (2.0 * d as f64)
        }
    };
    match choose_direction(dir, g, k, vol, DENSE_DENOM) {
        Direction::Push => {
            let mut share = vec![0.0f64; k];
            {
                let ids = frontier.ids();
                let (p_ref, p_new_ref) = (p, &*p_new);
                fill_with_index(pool, &mut share, |i| {
                    let v = ids[i];
                    p_new_ref.add(v, p_ref.get(v) / 2.0);
                    per_vertex_share(v)
                });
            }
            let p_new_ref = &*p_new;
            let share = &share;
            edge_map_indexed(pool, g, frontier.subset(), |i, _src, dst| {
                p_new_ref.add(dst, share[i]);
            });
        }
        Direction::Pull => {
            if share_dense.len() < n {
                share_dense.resize(n, 0.0);
            }
            {
                let ids = frontier.ids();
                let (p_ref, p_new_ref) = (p, &*p_new);
                let view = UnsafeSlice::new(&mut share_dense[..]);
                pool.run(k, 256, |s, e| {
                    for &v in &ids[s..e] {
                        p_new_ref.add(v, p_ref.get(v) / 2.0);
                        // SAFETY: frontier ids are distinct.
                        unsafe { view.write(v as usize, per_vertex_share(v)) };
                    }
                });
            }
            let bits = frontier.bits(pool, n);
            let p_new_ref = &*p_new;
            let share_dense = &share_dense[..];
            edge_map_dense(pool, g, bits, |src, dst| {
                p_new_ref.add_exclusive(dst, share_dense[src as usize]);
            });
        }
    }
}

/// The seed vertices that meet the activity threshold initially.
fn active_seed<B: CsrBackend>(g: &B, seed: &Seed, eps: f64) -> Vec<u32> {
    let m0 = seed.mass_per_vertex();
    seed.vertices()
        .iter()
        .copied()
        .filter(|&v| m0 >= eps * g.degree(v) as f64)
        .collect()
}

/// Packages the final vector (parallel sort), recording the truncated
/// mass.
fn finish(pool: &Pool, entries: Vec<(u32, f64)>, stats: DiffusionStats) -> Diffusion {
    let mut d = Diffusion::from_entries_par(pool, entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    d
}

/// Packages the sequential algorithm's final vector.
fn finish_seq(entries: Vec<(u32, f64)>, stats: DiffusionStats) -> Diffusion {
    let mut d = Diffusion::from_entries(entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    fn max_rel_diff(a: &Diffusion, b: &Diffusion) -> f64 {
        assert_eq!(a.p.len(), b.p.len(), "support mismatch");
        a.p.iter()
            .zip(&b.p)
            .map(|(&(va, ma), &(vb, mb))| {
                assert_eq!(va, vb);
                (ma - mb).abs() / ma.max(mb).max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn mass_is_conserved_while_frontier_is_everything() {
        // With ε tiny and few iterations, no truncation happens: the lazy
        // walk conserves total mass exactly 1 (dyadic arithmetic).
        let g = gen::clique(8);
        let d = nibble_seq(
            &g,
            &Seed::single(0),
            &NibbleParams {
                t_max: 3,
                eps: 1e-12,
            },
        );
        assert!(
            (d.total_mass() - 1.0).abs() < 1e-12,
            "mass {}",
            d.total_mass()
        );
    }

    #[test]
    fn seed_keeps_half_mass_after_one_step() {
        let g = gen::star(5);
        let d = nibble_seq(
            &g,
            &Seed::single(0),
            &NibbleParams {
                t_max: 1,
                eps: 1e-9,
            },
        );
        assert_eq!(d.mass_of(0), 0.5);
        for leaf in 1..5 {
            assert_eq!(d.mass_of(leaf), 0.125);
        }
    }

    #[test]
    fn empty_frontier_returns_previous_vector() {
        // Huge ε: the seed is active initially but every vertex falls
        // below threshold after one spread. Per Figure 3 the loop breaks
        // *before* `p = p'`, returning the previous vector p₀.
        let g = gen::clique(10); // degree 9
        let eps = 0.06; // seed: 1 ≥ 0.54 ✓; after: 0.5 < 0.54, others 1/18 < 0.54
        let d = nibble_seq(&g, &Seed::single(0), &NibbleParams { t_max: 20, eps });
        assert_eq!(d.stats.iterations, 1);
        assert_eq!(
            d.p,
            vec![(0, 1.0)],
            "p_{{i-1}} is returned, not the dying p_i"
        );
        let pool = Pool::new(2);
        let dp = nibble_par(
            &pool,
            &g,
            &Seed::single(0),
            &NibbleParams { t_max: 20, eps },
        );
        assert_eq!(dp.p, vec![(0, 1.0)]);
    }

    #[test]
    fn seed_below_threshold_returns_initial_vector() {
        let g = gen::star(100); // center degree 99
        let params = NibbleParams { t_max: 5, eps: 0.5 }; // 1 < 0.5·99
        let d = nibble_seq(&g, &Seed::single(0), &params);
        assert_eq!(d.p, vec![(0, 1.0)]);
        assert_eq!(d.stats.iterations, 0);
        let pool = Pool::new(2);
        let dp = nibble_par(&pool, &g, &Seed::single(0), &params);
        assert_eq!(dp.p, vec![(0, 1.0)]);
    }

    #[test]
    fn parallel_single_thread_is_bit_identical() {
        let g = gen::rand_local(400, 5, 11);
        let params = NibbleParams {
            t_max: 10,
            eps: 1e-6,
        };
        let pool = Pool::new(1);
        let a = nibble_seq(&g, &Seed::single(7), &params);
        let b = nibble_par(&pool, &g, &Seed::single(7), &params);
        assert_eq!(a.p, b.p);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn parallel_multi_thread_matches_to_rounding() {
        let g = gen::rmat_graph500(10, 8, 5);
        let params = NibbleParams {
            t_max: 12,
            eps: 1e-7,
        };
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let a = nibble_seq(&g, &seed, &params);
        for threads in [2, 4] {
            let pool = Pool::new(threads);
            let b = nibble_par(&pool, &g, &seed, &params);
            assert!(max_rel_diff(&a, &b) < 1e-9, "threads={threads}");
            assert_eq!(a.stats.iterations, b.stats.iterations);
            assert_eq!(a.stats.pushes, b.stats.pushes);
        }
    }

    #[test]
    fn multi_vertex_seed_spreads_from_all() {
        let g = gen::cycle(20);
        let seed = Seed::set(vec![0, 10]);
        let d = nibble_seq(
            &g,
            &seed,
            &NibbleParams {
                t_max: 1,
                eps: 1e-9,
            },
        );
        assert_eq!(d.mass_of(0), 0.25);
        assert_eq!(d.mass_of(10), 0.25);
        assert_eq!(d.mass_of(1), 0.125);
        assert_eq!(d.mass_of(11), 0.125);
    }

    #[test]
    fn with_target_stops_at_planted_cluster() {
        let g = gen::two_cliques_bridge(12);
        let pool = Pool::new(2);
        let params = NibbleParams {
            t_max: 40,
            eps: 1e-9,
        };
        let phi_target = 0.01; // the clique cut has phi = 1/133
        let sweep = nibble_with_target_par(&pool, &g, &Seed::single(0), &params, phi_target)
            .expect("target is reachable");
        assert!(sweep.best_conductance <= phi_target);
        let mut cluster = sweep.cluster().to_vec();
        cluster.sort_unstable();
        assert_eq!(cluster, (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn with_target_gives_up_when_unreachable() {
        // A clique has no internal low-conductance cut.
        let g = gen::clique(12);
        let pool = Pool::new(2);
        let params = NibbleParams {
            t_max: 10,
            eps: 1e-9,
        };
        assert!(nibble_with_target_par(&pool, &g, &Seed::single(0), &params, 1e-6).is_none());
    }

    #[test]
    fn stays_local_on_large_graph() {
        // Theorem 2: per-iteration work is O(1/ε) — with moderate ε the
        // support must stay far below n.
        let g = gen::grid_3d(20, 20, 20); // 8000 vertices
        let d = nibble_seq(
            &g,
            &Seed::single(0),
            &NibbleParams {
                t_max: 5,
                eps: 1e-4,
            },
        );
        assert!(d.support_size() < 2000, "support {}", d.support_size());
    }
}
