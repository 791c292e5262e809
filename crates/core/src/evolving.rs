//! The evolving set process (ESP) of Andersen & Peres — the §5 extension.
//!
//! The paper: "We implemented this algorithm but found the behavior of
//! the algorithm to vary widely as the random choices in each iteration
//! can lead to very different sets. We note that the algorithm can be
//! parallelized work-efficiently by using data-parallel operations."
//! This module provides that implementation: starting from `S = {seed}`,
//! each step draws a uniform threshold `U ∈ (0, 1]` and replaces `S` with
//! `S' = {v : p(v, S) ≥ U}` where `p(v, S)` is the lazy-walk transition
//! probability into `S`:
//!
//! ```text
//! p(v, S) = ½·1[v ∈ S] + ½·|N(v) ∩ S| / d(v)
//! ```
//!
//! Only `S` and its boundary can have `p(v, S) > 0`, so each step costs
//! `O(vol(S))`: one `edgeMap` counts `|N(v) ∩ S|` (an exact integer, so
//! the sequential and parallel versions agree bit-for-bit and follow the
//! same random trajectory), then a parallel filter applies the threshold.
//! The counting pass is direction-optimized (pull once `|S| + vol(S)`
//! exceeds `m`):
//! large sets count by *pulling* against the set bitset
//! ([`lgc_ligra::edge_map_dense_count`], plain single-writer writes, no
//! per-edge atomics) instead of pushing — and because the counts are
//! integers, the trajectory is bit-identical whichever direction a step
//! takes. The lowest-conductance set seen is tracked and returned.

use crate::engine::Workspace;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use lgc_graph::CsrBackend;
use lgc_ligra::{
    choose_direction, edge_map, edge_map_dense_count, Checkpoint, Direction, Trip, VertexSubset,
};
use lgc_parallel::{filter_map_index, Pool};
use lgc_sparse::{ConcurrentSparseVec, SparseVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the evolving set process.
#[derive(Clone, Copy, Debug)]
pub struct EvolvingParams {
    /// Maximum number of set-evolution steps.
    pub max_steps: usize,
    /// Stop early once a set with conductance ≤ this target is found
    /// (`0.0` disables early stopping).
    pub target_conductance: f64,
    /// RNG seed for the threshold draws.
    pub rng_seed: u64,
}

impl Default for EvolvingParams {
    fn default() -> Self {
        EvolvingParams {
            max_steps: 50,
            target_conductance: 0.0,
            rng_seed: 1,
        }
    }
}

/// Dense threshold of the per-step `|N(v) ∩ S|` count: small sets push
/// (one `edgeMap` over `S`'s out-edges, atomic integer adds), sets whose
/// `|S| + vol(S)` exceeds `m / DENSE_DENOM` *pull* with
/// [`lgc_ligra::edge_map_dense_count`] — every vertex counts its
/// `S`-neighbors against the set bitset with plain single-writer writes.
/// The counts are exact integers either way, so the random trajectory is
/// **bit-identical across directions and thread counts** (enforced by
/// `pull_direction_keeps_the_trajectory` below); the threshold only
/// moves wall-clock. `m/1` is conservative, like Nibble / PR-Nibble: the
/// counting gather scans `n + 2m` with no early exit, so pulling pays off
/// only once the set's volume is of the order of the graph.
const DENSE_DENOM: usize = 1;

/// Result of an evolving-set run.
#[derive(Clone, Debug)]
pub struct EvolvingResult {
    /// Best (lowest-conductance) set observed, sorted by vertex id.
    pub best_set: Vec<u32>,
    /// Its conductance.
    pub best_conductance: f64,
    /// Steps actually executed.
    pub steps: usize,
    /// Size of the set at each step (diagnostic: the paper observed the
    /// trajectory "varies widely").
    pub sizes: Vec<usize>,
}

impl EvolvingResult {
    /// The best set as a membership-indicator [`Diffusion`]: mass
    /// `1/|S|` per member (total mass 1), `iterations` = the steps run.
    ///
    /// This is how the ESP fits the [`crate::LocalDiffusion`] surface —
    /// it selects a set rather than computing a mass vector, so the
    /// indicator is the honest translation (and sweeping it is
    /// meaningless; [`crate::ClusterResult::from_evolving`] reports the
    /// set directly instead).
    pub fn indicator(&self) -> Diffusion {
        let mass = 1.0 / self.best_set.len().max(1) as f64;
        Diffusion::from_entries(
            self.best_set.iter().map(|&v| (v, mass)).collect(),
            DiffusionStats {
                iterations: self.steps as u64,
                ..Default::default()
            },
        )
    }
}

/// `p(v, S)` for the lazy walk, from an exact `|N(v) ∩ S|` count.
#[inline]
fn transition(is_member: bool, neighbors_inside: u64, degree: usize) -> f64 {
    let lazy = if is_member { 0.5 } else { 0.0 };
    if degree == 0 {
        lazy
    } else {
        lazy + 0.5 * neighbors_inside as f64 / degree as f64
    }
}

/// Sequential evolving set process.
pub fn evolving_set_seq<B: CsrBackend>(
    g: &B,
    seed: &Seed,
    params: &EvolvingParams,
) -> EvolvingResult {
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    let mut current: Vec<u32> = seed.vertices().to_vec();
    let mut best = snapshot(g, &current);
    let mut sizes = vec![current.len()];

    for step in 0..params.max_steps {
        if best.1 <= params.target_conductance {
            return finish(best, step, sizes);
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..=1.0);
        // Exact |N(v) ∩ S| counts for everything adjacent to S.
        let mut inside = SparseVec::new_f64();
        for &v in &current {
            g.for_each_neighbor(v, |w| inside.add(w, 1.0));
        }
        // Candidates: S ∪ N(S) (members with no S-neighbor still qualify
        // through the lazy self-loop ½ ≥ u half the time).
        let mut cands: Vec<u32> = inside.iter().map(|(v, _)| v).collect();
        cands.extend_from_slice(&current);
        cands.sort_unstable();
        cands.dedup();
        let next: Vec<u32> = cands
            .into_iter()
            .filter(|&v| {
                let member = current.binary_search(&v).is_ok();
                transition(member, inside.get(v) as u64, g.degree(v)) >= u
            })
            .collect();
        sizes.push(next.len());
        if next.is_empty() || next.len() == g.num_vertices() {
            return finish(best, step + 1, sizes);
        }
        let snap = snapshot(g, &next);
        if snap.1 < best.1 {
            best = snap;
        }
        current = next;
    }
    finish(best, params.max_steps, sizes)
}

/// Parallel evolving set process: membership counting is one `edgeMap`
/// accumulating exact integers, the threshold test one parallel filter.
/// Follows the identical random trajectory as [`evolving_set_seq`] for
/// the same `rng_seed` (the counts are exact, so no float-order drift).
pub fn evolving_set_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &EvolvingParams,
) -> EvolvingResult {
    match evolving_set_par_ws(
        pool,
        g,
        seed,
        params,
        &mut Workspace::new(),
        None,
        &Checkpoint::unlimited(),
    ) {
        Ok(res) => res,
        Err((_, res)) => res, // unreachable: an unlimited checkpoint never trips
    }
}

/// [`evolving_set_par`] over a recyclable workspace: the neighbor
/// counter and the set frontier (whose bitset backs the pull-mode
/// counting) are checked out of `ws` instead of allocated. The
/// trajectory is count-exact, so neither workspace reuse nor the
/// per-step direction choice can perturb it.
///
/// `cp` is consulted once per evolution step (counters: steps taken and
/// cumulative set volume); on a trip the walk stops at that boundary and
/// the best-so-far result is returned as the `Err` payload, with the
/// workspace buffers already recycled.
///
/// `dir` pins the traversal of every iteration; `None` applies the
/// `DENSE_DENOM` rule.
pub(crate) fn evolving_set_par_ws<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &EvolvingParams,
    ws: &mut Workspace,
    dir: Option<Direction>,
    cp: &Checkpoint,
) -> Result<EvolvingResult, (Trip, EvolvingResult)> {
    let n = g.num_vertices();
    let mut rng = StdRng::seed_from_u64(params.rng_seed);
    let mut current = ws.take_frontier();
    current.advance(pool, VertexSubset::from_sorted(seed.vertices().to_vec()));
    let mut best = snapshot(g, current.ids());
    let mut sizes = vec![current.len()];
    let mut inside = ws
        .counts
        .take()
        .unwrap_or_else(|| ConcurrentSparseVec::with_capacity(16));

    let mut edges = 0u64;
    let mut tripped = None;
    let steps = 'run: {
        for step in 0..params.max_steps {
            if best.1 <= params.target_conductance {
                break 'run step;
            }
            if let Err(trip) = cp.tick(step as u64, edges) {
                tripped = Some(trip);
                break 'run step;
            }
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..=1.0);
            let vol = current.volume(g);
            edges += vol as u64;
            inside.reset(pool, vol.max(1));
            // Exact |N(v) ∩ S| counts for everything adjacent to S —
            // pushed over S's out-edges (atomic integer adds) or pulled
            // against its bitset (plain single-writer writes); identical
            // integers either way.
            {
                let inside_ref = &inside;
                match choose_direction(dir, g, current.len(), vol, DENSE_DENOM) {
                    Direction::Push => {
                        edge_map(pool, g, current.subset(), |_, dst| inside_ref.add(dst, 1.0));
                    }
                    Direction::Pull => {
                        let bits = current.bits(pool, n);
                        edge_map_dense_count(pool, g, bits, |dst, c| {
                            inside_ref.add_exclusive(dst, c as f64);
                        });
                    }
                }
            }
            let mut cands: Vec<u32> = inside.entries(pool).into_iter().map(|(v, _)| v).collect();
            cands.extend_from_slice(current.ids());
            cands.sort_unstable();
            cands.dedup();
            let member_ids = current.ids().to_vec();
            let inside_ref = &inside;
            let mut next: Vec<u32> = filter_map_index(pool, cands.len(), |i| {
                let v = cands[i];
                let member = member_ids.binary_search(&v).is_ok();
                (transition(member, inside_ref.get(v) as u64, g.degree(v)) >= u).then_some(v)
            });
            next.sort_unstable();
            sizes.push(next.len());
            if next.is_empty() || next.len() == g.num_vertices() {
                break 'run step + 1;
            }
            let snap = snapshot(g, &next);
            if snap.1 < best.1 {
                best = snap;
            }
            current.advance(pool, VertexSubset::from_sorted(next));
        }
        params.max_steps
    };
    ws.counts = Some(inside);
    ws.put_frontier(pool, current);
    let res = finish(best, steps, sizes);
    match tripped {
        None => Ok(res),
        Some(trip) => Err((trip, res)),
    }
}

fn snapshot<B: CsrBackend>(g: &B, set: &[u32]) -> (Vec<u32>, f64) {
    (set.to_vec(), g.conductance(set))
}

fn finish(best: (Vec<u32>, f64), steps: usize, sizes: Vec<usize>) -> EvolvingResult {
    EvolvingResult {
        best_set: best.0,
        best_conductance: best.1,
        steps,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_graph::gen;

    #[test]
    fn transition_probability_formula() {
        assert_eq!(transition(true, 0, 4), 0.5);
        assert_eq!(transition(true, 4, 4), 1.0);
        assert_eq!(transition(false, 2, 4), 0.25);
        assert_eq!(transition(true, 0, 0), 0.5);
        assert_eq!(transition(false, 0, 3), 0.0);
    }

    #[test]
    fn finds_planted_clique_cut() {
        // The process is randomized and the paper observes its behavior
        // "varies widely with the random choices", so assert over a small
        // ensemble of seeds: at least one run must find the planted cut.
        let g = gen::two_cliques_bridge(10);
        let best = (0..64u64)
            .map(|rng_seed| {
                let params = EvolvingParams {
                    max_steps: 100,
                    rng_seed,
                    ..Default::default()
                };
                evolving_set_seq(&g, &Seed::single(0), &params).best_conductance
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best <= 0.25, "best phi over 64 runs = {best}");
    }

    #[test]
    fn parallel_matches_sequential_trajectory() {
        let g = gen::rand_local(300, 5, 11);
        let params = EvolvingParams {
            max_steps: 30,
            rng_seed: 9,
            ..Default::default()
        };
        let a = evolving_set_seq(&g, &Seed::single(3), &params);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let b = evolving_set_par(&pool, &g, &Seed::single(3), &params);
            assert_eq!(a.sizes, b.sizes, "threads={threads}");
            assert_eq!(a.best_set, b.best_set);
            assert_eq!(a.best_conductance, b.best_conductance);
        }
    }

    /// The counting pass is direction-invariant: pinned pull, pinned
    /// push, the auto heuristic, and the sequential reference all follow
    /// the same random trajectory bit-for-bit (the counts are exact
    /// integers), at every thread count.
    #[test]
    fn pull_direction_keeps_the_trajectory() {
        // two_cliques_bridge drives the set toward high volume, so the
        // auto heuristic genuinely flips direction mid-run; rand_local
        // keeps it mostly pushing. Both must agree with the reference.
        let graphs = [gen::two_cliques_bridge(16), gen::rand_local(300, 5, 7)];
        for g in &graphs {
            for rng_seed in [1u64, 5, 9] {
                let base = EvolvingParams {
                    max_steps: 25,
                    rng_seed,
                    ..Default::default()
                };
                let want = evolving_set_seq(g, &Seed::single(0), &base);
                for dir in [Some(Direction::Push), Some(Direction::Pull), None] {
                    for threads in [1, 2, 4] {
                        let pool = Pool::new(threads);
                        let got = evolving_set_par_ws(
                            &pool,
                            g,
                            &Seed::single(0),
                            &base,
                            &mut Workspace::new(),
                            dir,
                            &Checkpoint::unlimited(),
                        )
                        .unwrap_or_else(|_| unreachable!("an unlimited checkpoint never trips"));
                        assert_eq!(got.sizes, want.sizes, "{dir:?} t={threads}");
                        assert_eq!(got.best_set, want.best_set);
                        assert_eq!(got.best_conductance, want.best_conductance);
                    }
                }
            }
        }
    }

    #[test]
    fn early_stop_at_target() {
        // Randomized trajectory: some seed in the ensemble must reach the
        // (loose) target and stop before exhausting its step budget.
        let g = gen::two_cliques_bridge(8);
        let hit = (0..64u64).any(|rng_seed| {
            let params = EvolvingParams {
                max_steps: 1000,
                target_conductance: 0.5,
                rng_seed,
            };
            let res = evolving_set_seq(&g, &Seed::single(0), &params);
            res.steps < 1000 && res.best_conductance <= 0.5
        });
        assert!(hit, "no run out of 64 stopped early at target 0.5");
    }

    #[test]
    fn indicator_is_a_unit_mass_membership_vector() {
        let g = gen::two_cliques_bridge(6);
        let res = evolving_set_seq(&g, &Seed::single(0), &EvolvingParams::default());
        let d = res.indicator();
        assert_eq!(d.support_size(), res.best_set.len());
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(d.stats.iterations, res.steps as u64);
        for &v in &res.best_set {
            assert!(d.mass_of(v) > 0.0);
        }
    }

    #[test]
    fn workspace_reuse_keeps_the_trajectory() {
        // Interleave two different runs over one recycled workspace; each
        // must match its fresh-workspace twin exactly (integer counts ⇒
        // bit-equal trajectories).
        let g = gen::rand_local(250, 5, 4);
        let pool = Pool::new(2);
        let mut ws = Workspace::new();
        for rng_seed in [1u64, 8, 1, 8] {
            let params = EvolvingParams {
                max_steps: 20,
                rng_seed,
                ..Default::default()
            };
            let warm = evolving_set_par_ws(
                &pool,
                &g,
                &Seed::single(2),
                &params,
                &mut ws,
                None,
                &Checkpoint::unlimited(),
            )
            .unwrap();
            let cold = evolving_set_par(&pool, &g, &Seed::single(2), &params);
            assert_eq!(warm.best_set, cold.best_set, "rng_seed={rng_seed}");
            assert_eq!(warm.sizes, cold.sizes);
            assert_eq!(warm.best_conductance, cold.best_conductance);
        }
    }

    #[test]
    fn trajectory_is_recorded_and_runs_vary_with_seed() {
        let g = gen::rand_local(200, 5, 3);
        let run = |rng_seed| {
            evolving_set_seq(
                &g,
                &Seed::single(0),
                &EvolvingParams {
                    max_steps: 20,
                    rng_seed,
                    ..Default::default()
                },
            )
            .sizes
        };
        let (a, b) = (run(1), run(2));
        assert_eq!(a[0], 1);
        // The paper's observation: different random choices give very
        // different trajectories.
        assert_ne!(a, b);
    }
}
