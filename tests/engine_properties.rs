//! Workspace-reuse properties: a warm [`Engine`] must be observationally
//! identical to fresh free-function runs — interleaved repeated queries
//! (mixed algorithms, mixed seeds, 1–4 threads) against random graphs.
//!
//! Exactness tiers, by what the machine can promise:
//!
//! * **1 thread** — every pipeline is fully deterministic, so warm vs
//!   cold is compared *bit-for-bit* (vector, stats, cluster, φ).
//! * **>1 threads** — the push engines accumulate `f64` with atomic
//!   adds in scheduler order, so even two cold runs differ in ulps;
//!   rand-HK-PR (per-walk RNG streams) and the evolving-set process
//!   (integer counts) stay exactly reproducible and are still compared
//!   bit-for-bit, while the float diffusions are held to a tight `ℓ₁`
//!   tolerance.

use plgc::cluster as lgc;
use plgc::{Algorithm, Engine, Pool, Query, Seed};
use proptest::prelude::*;

fn small_graph() -> impl Strategy<Value = (plgc::Graph, Vec<u32>)> {
    (30usize..250, 0u64..1000).prop_map(|(n, s)| {
        let g = plgc::graph::gen::rand_local(n.max(30), 4, s);
        let comp = plgc::graph::largest_component(&g);
        let seeds: Vec<u32> = comp
            .iter()
            .step_by((comp.len() / 8).max(1))
            .copied()
            .collect();
        (g, seeds)
    })
}

/// One query spec: `(algorithm index, seed index, parameter tweak)`.
fn query_specs() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..5, 0usize..8, 0u64..3), 4..10)
}

fn make_algo(kind: usize, tweak: u64) -> Algorithm {
    match kind {
        0 => Algorithm::Nibble(lgc::NibbleParams {
            t_max: 6 + tweak as usize,
            eps: 1e-6,
        }),
        1 => Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.03 * (tweak + 1) as f64,
            eps: 1e-5,
            ..Default::default()
        }),
        2 => Algorithm::Hkpr(lgc::HkprParams {
            t: 2.0 + tweak as f64,
            n_levels: 8,
            eps: 1e-5,
        }),
        3 => Algorithm::RandHkpr(lgc::RandHkprParams {
            walks: 1_000 + 500 * tweak as usize,
            max_len: 8,
            rng_seed: tweak,
            ..Default::default()
        }),
        _ => Algorithm::Evolving(lgc::EvolvingParams {
            max_steps: 10 + 5 * tweak as usize,
            rng_seed: tweak,
            ..Default::default()
        }),
    }
}

/// Whether this algorithm's parallel run is exactly reproducible at any
/// thread count (integer/RNG-stream determinism).
fn exact_at_any_threads(algo: &Algorithm) -> bool {
    matches!(algo, Algorithm::RandHkpr(_) | Algorithm::Evolving(_))
}

/// `ℓ₁` distance between two sparse diffusion vectors (union of supports).
fn l1_distance(a: &lgc::Diffusion, b: &lgc::Diffusion) -> f64 {
    let mut dist = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.p.len() || j < b.p.len() {
        match (a.p.get(i), b.p.get(j)) {
            (Some(&(va, ma)), Some(&(vb, mb))) if va == vb => {
                dist += (ma - mb).abs();
                i += 1;
                j += 1;
            }
            (Some(&(va, ma)), Some(&(vb, _))) if va < vb => {
                dist += ma.abs();
                i += 1;
            }
            (Some(_), Some(&(_, mb))) => {
                dist += mb.abs();
                j += 1;
            }
            (Some(&(_, ma)), None) => {
                dist += ma.abs();
                i += 1;
            }
            (None, Some(&(_, mb))) => {
                dist += mb.abs();
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract: interleaved repeated `engine.run` calls
    /// over one warm workspace match fresh free-function runs.
    #[test]
    fn warm_engine_matches_cold_free_function_runs(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        let pool = Pool::new(threads);
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let algo = make_algo(kind, tweak);
            let warm = engine.run(&Query::new(seed.clone(), algo.clone()));
            let cold = lgc::find_cluster(&pool, &g, &seed, &algo);
            if threads == 1 || exact_at_any_threads(&algo) {
                prop_assert_eq!(&warm.diffusion.p, &cold.diffusion.p);
                prop_assert_eq!(warm.diffusion.stats, cold.diffusion.stats);
                prop_assert_eq!(&warm.cluster, &cold.cluster);
                prop_assert_eq!(warm.conductance, cold.conductance);
                prop_assert_eq!(&warm.sweep.conductances, &cold.sweep.conductances);
            } else {
                prop_assert!(l1_distance(&warm.diffusion, &cold.diffusion) < 1e-9);
                prop_assert!((warm.conductance - cold.conductance).abs() < 1e-9);
            }
        }
    }

    /// `engine.diffuse` (no sweep) under the same interleaving: equal to
    /// the `*_par` free functions.
    #[test]
    fn warm_engine_diffuse_matches_par_free_functions(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let engine = Engine::builder(&g).threads(threads).build();
        let pool = Pool::new(threads);
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let algo = make_algo(kind, tweak);
            let warm = engine.diffuse(&seed, &algo);
            let cold = match &algo {
                Algorithm::Nibble(p) => lgc::nibble_par(&pool, &g, &seed, p),
                Algorithm::PrNibble(p) => lgc::prnibble_par(&pool, &g, &seed, p),
                Algorithm::Hkpr(p) => lgc::hkpr_par(&pool, &g, &seed, p),
                Algorithm::RandHkpr(p) => lgc::rand_hkpr_par(&pool, &g, &seed, p),
                Algorithm::Evolving(p) => {
                    lgc::evolving_set_par(&pool, &g, &seed, p).indicator()
                }
            };
            if threads == 1 || exact_at_any_threads(&algo) {
                prop_assert_eq!(&warm.p, &cold.p);
            } else {
                prop_assert!(l1_distance(&warm, &cold) < 1e-9);
            }
        }
    }

    /// Backend equivalence, same exactness tiers as warm-vs-cold: every
    /// diffusion over the byte-compressed CSR backend matches plain CSR
    /// — bitwise at 1 thread (and at any thread count for the
    /// integer/RNG-exact algorithms), tight ℓ₁ for the float pushes at
    /// >1 threads (where even two plain runs differ in ulps).
    #[test]
    fn compressed_backend_matches_plain(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let plain = Engine::builder(&g).threads(threads).build();
        let packed = Engine::builder(&c).threads(threads).build();
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let algo = make_algo(kind, tweak);
            let q = Query::new(seed, algo);
            let a = plain.run(&q);
            let b = packed.run(&q);
            if threads == 1 || exact_at_any_threads(&q.algo) {
                prop_assert_eq!(&a.diffusion.p, &b.diffusion.p, "{:?}", q.algo);
                prop_assert_eq!(a.diffusion.stats, b.diffusion.stats);
                prop_assert_eq!(&a.cluster, &b.cluster);
                prop_assert_eq!(a.conductance, b.conductance);
                prop_assert_eq!(&a.sweep.conductances, &b.sweep.conductances);
            } else {
                prop_assert!(l1_distance(&a.diffusion, &b.diffusion) < 1e-9);
                prop_assert!((a.conductance - b.conductance).abs() < 1e-9);
            }
        }
    }

    /// With the traversal pinned to dense pulls, every destination sums
    /// its sources sequentially in ascending order — so compressed vs
    /// plain is *bitwise* identical at any thread count (the decode
    /// order guarantee the compressed backend exists to preserve).
    #[test]
    fn pull_pinned_queries_are_bitwise_equal_across_backends(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let c = plgc::CsrCompressed::from_graph(&g);
        let pin = Some(plgc::Direction::Pull);
        let plain = Engine::builder(&g).threads(threads).direction(pin).build();
        let packed = Engine::builder(&c)
            .threads(threads)
            .direction(pin)
            .build();
        for (kind, si, tweak) in specs {
            let seed = Seed::single(seeds[si % seeds.len()]);
            let q = Query::new(seed, make_algo(kind, tweak));
            let a = plain.run(&q);
            let b = packed.run(&q);
            prop_assert_eq!(&a.diffusion.p, &b.diffusion.p, "{:?}", q.algo);
            prop_assert_eq!(a.diffusion.stats, b.diffusion.stats);
            prop_assert_eq!(&a.cluster, &b.cluster);
            prop_assert_eq!(a.conductance, b.conductance);
            prop_assert_eq!(&a.sweep.conductances, &b.sweep.conductances);
        }
    }

    /// Batch contract: every item of a mixed-algorithm batch is
    /// bit-identical to a 1-thread engine run of the same query, at any
    /// batch pool size.
    #[test]
    fn run_batch_items_equal_one_thread_engine_runs(
        (g, seeds) in small_graph(),
        specs in query_specs(),
        threads in 1usize..=4,
    ) {
        let queries: Vec<Query> = specs
            .iter()
            .map(|&(kind, si, tweak)| {
                Query::new(Seed::single(seeds[si % seeds.len()]), make_algo(kind, tweak))
            })
            .collect();
        let batch = Engine::builder(&g).threads(threads).build().run_batch(&queries);
        let engine = Engine::builder(&g).threads(1).build();
        for (q, got) in queries.iter().zip(&batch) {
            let want = engine.run(q);
            prop_assert_eq!(&got.diffusion.p, &want.diffusion.p);
            prop_assert_eq!(got.diffusion.stats, want.diffusion.stats);
            prop_assert_eq!(&got.cluster, &want.cluster);
            prop_assert_eq!(got.conductance, want.conductance);
        }
    }
}
