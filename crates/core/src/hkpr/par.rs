//! Parallel HK-PR (Figure 7): level-synchronous processing of the
//! Kloster–Gleich queue.
//!
//! All `(·, j)` entries are processed in one iteration — legitimate
//! because pushes only write level `j+1` — so the parallel algorithm
//! applies *exactly the same updates* as the sequential one and returns
//! the same vector (Theorem 4).

use super::HkprParams;
use crate::budget::TrippedDiffusion;
use crate::engine::Workspace;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use lgc_graph::CsrBackend;
use lgc_ligra::{
    choose_direction, edge_map_dense, edge_map_dense_gather, edge_map_indexed, Checkpoint,
    Direction, VertexSubset,
};
use lgc_parallel::{map_index, Pool, UnsafeSlice};

/// Dense threshold of the per-level `edgeMap`: pull once
/// `|frontier| + vol(frontier) > m / DENSE_DENOM`. HK-PR's level
/// frontiers are either tiny (admission threshold not met) or
/// graph-spanning, so the crossover is insensitive between `m/20` and `m`
/// on the power-law suite (3–4× pull wins either way), but `m/2` also
/// keeps mesh levels — above `m/20` yet far from spanning — on the push
/// path where they belong.
const DENSE_DENOM: usize = 2;

/// Parallel deterministic heat-kernel PageRank.
/// Work `O(N² + N·e^t/ε)`, depth `O(N·t·log(1/ε))` w.h.p. (Theorem 4).
///
/// The per-source push value is constant across a source's edges, so each
/// iteration precomputes the contributions in one pass fused with
/// UpdateSelf (one residual lookup + division per frontier vertex). Small
/// levels push them with [`edge_map_indexed`] (slice load + atomic add
/// per edge); levels whose `|F| + vol(F)` crosses the dense threshold
/// (`m / DENSE_DENOM`) *pull* instead — every vertex gathers its frontier
/// in-neighbors' contributions with plain single-writer writes in
/// ascending source order, which keeps the level-synchronous update set
/// (and hence Theorem 4's bit-equality with the sequential algorithm)
/// intact while dropping all per-edge atomics. The next level's frontier
/// is filtered directly off `r_next`'s backend. Mass vectors are
/// adaptive [`MassMap`](lgc_sparse::MassMap)s.
pub fn hkpr_par<B: CsrBackend>(pool: &Pool, g: &B, seed: &Seed, params: &HkprParams) -> Diffusion {
    match hkpr_par_ws(
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

/// [`hkpr_par`] over a recyclable [`Workspace`]: the three mass maps, the
/// frontier (with its bitset), and the vertex-indexed contribution slice
/// are checked out of `ws` instead of allocated; checkouts are re-fitted
/// to match fresh allocations exactly, so warm runs are bit-identical.
///
/// `cp` is consulted once per level; on a trip the loop stops at that
/// boundary and the banked (and `e^{−t}`-scaled) mass is returned as the
/// `Err` payload, with every workspace buffer already recycled.
///
/// `dir` pins the traversal of every iteration; `None` applies the
/// `DENSE_DENOM` rule.
pub(crate) fn hkpr_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &HkprParams,
    ws: &mut Workspace,
    dir: Option<Direction>,
    cp: &Checkpoint,
) -> Result<Diffusion, TrippedDiffusion> {
    params.validate().unwrap_or_else(|why| panic!("{why}"));
    let n = g.num_vertices();
    let n_levels = params.n_levels;
    // Seed-independent ψ tail weights: served from the shared per-graph
    // cache when the workspace is wired to one (bit-identical to the
    // fresh table), computed fresh otherwise.
    let psi = ws.psi_table(params.t, n_levels);
    let mut stats = DiffusionStats::default();

    let mut r = ws.take_mass(pool, n, seed.vertices().len() * 2);
    for &x in seed.vertices() {
        r.set(x, seed.mass_per_vertex());
    }
    let mut r_next = ws.take_mass(pool, n, 16);
    let mut p = ws.take_mass(pool, n, 16);
    // Level-0 entries are enqueued unconditionally, like the sequential
    // algorithm's initial queue.
    let mut frontier = ws.take_frontier();
    frontier.advance(pool, VertexSubset::from_sorted(seed.vertices().to_vec()));
    let mut contrib_dense: Vec<f64> = ws.take_dense();

    let mut j = 0usize;
    let mut tripped = None;
    while !frontier.is_empty() {
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
        let last_round = j + 1 == n_levels;
        let dir = choose_direction(dir, g, k, vol, DENSE_DENOM);

        // UpdateSelf: bank the level-j residual; in the same pass
        // precompute each source's per-neighbor contribution — `r/d` for
        // the final flush, `t·r/((j+1)·d)` otherwise (evaluated exactly
        // as the per-edge code used to, for bit-identical results).
        // Frontier-indexed for push, vertex-indexed for pull (slots
        // outside the current frontier are gated off by the bitset).
        p.reserve_rehash(pool, p.len() + k);
        let mut contrib = Vec::new();
        if dir == Direction::Push {
            contrib.resize(k, 0.0f64);
        } else if contrib_dense.len() < n {
            contrib_dense.resize(n, 0.0);
        }
        {
            let ids = frontier.ids();
            let (p_ref, r_ref) = (&p, &r);
            let scale = params.t / (j + 1) as f64;
            let contrib_view = UnsafeSlice::new(&mut contrib[..]);
            let dense_view = UnsafeSlice::new(&mut contrib_dense[..]);
            pool.run(k, 256, |s, e| {
                #[allow(clippy::needless_range_loop)]
                for i in s..e {
                    let v = ids[i];
                    let rv = r_ref.get(v);
                    p_ref.add(v, rv);
                    let d = g.degree(v);
                    let c = if d == 0 {
                        0.0
                    } else if last_round {
                        rv / d as f64
                    } else {
                        scale * rv / d as f64
                    };
                    // SAFETY: disjoint indices (i and the distinct v).
                    unsafe {
                        match dir {
                            Direction::Push => contrib_view.write(i, c),
                            Direction::Pull => dense_view.write(v as usize, c),
                        }
                    }
                }
            });
        }

        if last_round {
            // Last round: flush neighbor shares straight into p. The
            // pull flush uses per-edge plain adds so every p cell
            // accumulates in the same (ascending-source) order as the
            // push engine at one thread — bit-equal results.
            p.reserve_rehash(pool, p.len() + vol);
            let p_ref = &p;
            match dir {
                Direction::Push => {
                    let contrib = &contrib;
                    edge_map_indexed(pool, g, frontier.subset(), |i, _src, dst| {
                        p_ref.add(dst, contrib[i]);
                    });
                }
                Direction::Pull => {
                    let bits = frontier.bits(pool, n);
                    let contrib_dense = &contrib_dense[..];
                    edge_map_dense(pool, g, bits, |src, dst| {
                        p_ref.add_exclusive(dst, contrib_dense[src as usize]);
                    });
                }
            }
            break;
        }

        // UpdateNgh: forward t·r/((j+1)·d) to level j+1. Only edge
        // destinations land here, so vol bounds the touched keys. Pull
        // gathers each destination's sum in a register (fresh cells, so
        // the bracketing matches the per-edge order exactly).
        r_next.reset(pool, vol.max(1));
        {
            let next_ref = &r_next;
            match dir {
                Direction::Push => {
                    let contrib = &contrib;
                    edge_map_indexed(pool, g, frontier.subset(), |i, _src, dst| {
                        next_ref.add(dst, contrib[i]);
                    });
                }
                Direction::Pull => {
                    let bits = frontier.bits(pool, n);
                    edge_map_dense_gather(pool, g, bits, &contrib_dense, |dst, sum| {
                        next_ref.add_exclusive(dst, sum);
                    });
                }
            }
        }

        // Next frontier: level-(j+1) entries above the admission
        // threshold (equivalent to the sequential crossing test because
        // the accumulation is monotone), filtered directly off the mass
        // store's backend.
        let above =
            r_next.filter_keys(pool, |w, m| m >= params.threshold(&psi, j + 1, g.degree(w)));
        frontier.advance(pool, VertexSubset::from_distinct_unsorted_par(pool, above));
        std::mem::swap(&mut r, &mut r_next);
        j += 1;
    }

    // Same e^{−t} normalization as the sequential version (see there).
    let scale = (-params.t).exp();
    let entries: Vec<(u32, f64)> = {
        let packed = p.entries(pool);
        map_index(pool, packed.len(), |i| {
            let (v, m) = packed[i];
            (v, m * scale)
        })
    };
    ws.put_mass(r);
    ws.put_mass(r_next);
    ws.put_mass(p);
    ws.put_frontier(pool, frontier);
    ws.put_dense(contrib_dense);
    let mut d = Diffusion::from_entries_par(pool, entries, stats);
    d.stats.residual_mass = (1.0 - d.total_mass()).max(0.0);
    match tripped {
        None => Ok(d),
        Some(trip) => Err(TrippedDiffusion { trip, partial: d }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hkpr::hkpr_seq;
    use lgc_graph::gen;

    fn assert_close(a: &Diffusion, b: &Diffusion, tol: f64) {
        assert_eq!(a.p.len(), b.p.len(), "support sizes differ");
        for (&(va, ma), &(vb, mb)) in a.p.iter().zip(&b.p) {
            assert_eq!(va, vb);
            let rel = (ma - mb).abs() / ma.max(mb);
            assert!(rel < tol, "vertex {va}: {ma} vs {mb}");
        }
    }

    #[test]
    fn single_thread_parallel_is_bit_identical_on_star() {
        let g = gen::star(6);
        let params = HkprParams {
            t: 2.0,
            n_levels: 5,
            eps: 1e-8,
        };
        let a = hkpr_seq(&g, &Seed::single(0), &params);
        let pool = Pool::new(1);
        let b = hkpr_par(&pool, &g, &Seed::single(0), &params);
        assert_eq!(a.p, b.p);
    }

    #[test]
    fn parallel_matches_sequential_vector() {
        let g = gen::rmat_graph500(10, 8, 6);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let params = HkprParams {
            t: 8.0,
            n_levels: 15,
            eps: 1e-6,
        };
        let a = hkpr_seq(&g, &seed, &params);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let b = hkpr_par(&pool, &g, &seed, &params);
            assert_close(&a, &b, 1e-10);
            assert_eq!(
                a.stats.pushes, b.stats.pushes,
                "same queue entries processed"
            );
        }
    }

    #[test]
    fn levels_bounded_by_n() {
        let g = gen::rand_local(1000, 5, 7);
        let pool = Pool::new(2);
        let params = HkprParams {
            t: 10.0,
            n_levels: 8,
            eps: 1e-9,
        };
        let d = hkpr_par(&pool, &g, &Seed::single(0), &params);
        assert!(d.stats.iterations <= 8);
    }

    #[test]
    fn last_level_flushes_to_neighbors() {
        let g = gen::path(3);
        let pool = Pool::new(2);
        // N=1: p[seed]=1 plus each neighbor rv/d, scaled by e^{−t}.
        let t = 1.0;
        let d = hkpr_par(
            &pool,
            &g,
            &Seed::single(1),
            &HkprParams {
                t,
                n_levels: 1,
                eps: 1e-9,
            },
        );
        let s = (-t).exp();
        assert_eq!(d.mass_of(1), s);
        assert_eq!(d.mass_of(0), 0.5 * s);
        assert_eq!(d.mass_of(2), 0.5 * s);
    }

    #[test]
    fn multi_seed_splits_mass() {
        let g = gen::cycle(12);
        let pool = Pool::new(2);
        let d = hkpr_par(
            &pool,
            &g,
            &Seed::set(vec![0, 6]),
            &HkprParams {
                t: 2.0,
                n_levels: 6,
                eps: 1e-7,
            },
        );
        // Symmetry: masses around each seed mirror each other.
        assert!((d.mass_of(0) - d.mass_of(6)).abs() < 1e-12);
        assert!((d.mass_of(1) - d.mass_of(7)).abs() < 1e-12);
    }
}
