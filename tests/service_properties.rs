//! Concurrency properties of the [`Service`]: any number of OS threads
//! hammering one service (shared pool, several graphs, mixed algorithms,
//! warm recycled workspaces, populated caches) must be observationally
//! invisible — every result bit-identical to the same query on a cold
//! engine.
//!
//! Exactness tiers mirror `tests/engine_properties.rs`:
//!
//! * **shared pool of 1 thread** (the concurrency comes entirely from
//!   the callers) — every algorithm is fully deterministic, so every
//!   result is compared *bit-for-bit* against a cold 1-thread engine;
//! * **shared pool of >1 threads** — rand-HK-PR and the evolving-set
//!   process stay exactly reproducible (RNG-stream / integer-count
//!   determinism) and are still compared bit-for-bit, while the float
//!   diffusions are held to a tight `ℓ₁` tolerance.

use plgc::cluster as lgc;
use plgc::{Algorithm, CsrCompressed, Engine, GraphStore, Pool, Query, Seed, Service};
use proptest::prelude::*;
use std::sync::Arc;

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

/// A three-tenant service: one power-law-ish graph, one
/// locally-clustered one, and a third on the byte-compressed backend,
/// all deterministic from the strategy's seed.
fn build_service(threads: usize, g_seed: u64) -> Service {
    let (sbm, _) = plgc::graph::gen::sbm(&[30, 30, 30, 30], 0.3, 0.01, g_seed);
    let local = plgc::graph::gen::rand_local(200, 4, g_seed ^ 1);
    Service::builder()
        .pool(Pool::shared(threads))
        .add_graph("sbm", sbm)
        .add_graph("local", plgc::graph::gen::rand_local(200, 4, g_seed))
        .add_graph("packed", CsrCompressed::from_graph(&local))
        .build()
}

/// The tenants of [`build_service`], indexed by the schedules' graph idx.
const NAMES: [&str; 3] = ["sbm", "local", "packed"];

/// A fresh engine over the tenant's own graph, on its own backend.
fn cold_engine<'a>(svc: &'a Service, name: &str, threads: usize) -> Engine<'a> {
    match svc.store(name).unwrap() {
        GraphStore::Plain(g) => Engine::builder(g.as_ref()),
        GraphStore::Compressed(g) => Engine::builder(g.as_ref()),
    }
    .threads(threads)
    .build()
}

/// One client's schedule: `(graph idx, algorithm kind, seed vertex
/// tweak, param tweak)` per query.
fn schedules() -> impl Strategy<Value = Vec<Vec<(usize, usize, u32, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..3, 0usize..5, 0u32..60, 0u64..3), 2..6),
        2..5, // number of concurrent client threads
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline contract: N OS threads × mixed algorithms × 2 graphs
    /// through one shared-1-thread-pool Service, every result bitwise
    /// equal to a fresh cold 1-thread Engine run of the same query.
    #[test]
    fn concurrent_mixed_queries_are_bitwise_cold(
        clients in schedules(),
        g_seed in 0u64..500,
    ) {
        let svc = build_service(1, g_seed);
        // Hammer the service concurrently, collecting (query, result).
        let answered: Vec<(usize, Query, lgc::ClusterResult)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter()
                    .map(|schedule| {
                        let svc = &svc;
                        scope.spawn(move || {
                            schedule
                                .iter()
                                .map(|&(gi, kind, vtweak, ptweak)| {
                                    let n = svc.store(NAMES[gi]).unwrap().num_vertices();
                                    let v = vtweak % n as u32;
                                    let q = Query::new(
                                        Seed::single(v),
                                        make_algo(kind, ptweak),
                                    );
                                    let res = svc.engine(NAMES[gi]).unwrap().run(&q);
                                    (gi, q, res)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
        // Every answer matches its cold twin bit-for-bit.
        for (gi, q, got) in answered {
            let engine = cold_engine(&svc, NAMES[gi], 1);
            let want = engine.run(&q);
            prop_assert_eq!(&got.diffusion.p, &want.diffusion.p, "{:?}", q.algo);
            prop_assert_eq!(got.diffusion.stats, want.diffusion.stats);
            prop_assert_eq!(&got.cluster, &want.cluster);
            prop_assert_eq!(got.conductance, want.conductance);
            prop_assert_eq!(&got.sweep.conductances, &want.sweep.conductances);
        }
    }

    /// Same hammering over a multi-thread shared pool: the RNG-stream /
    /// integer-count algorithms stay bitwise; float diffusions hold a
    /// tight ℓ₁ bound (their push phase accumulates in scheduler order,
    /// so even two cold runs differ in ulps).
    #[test]
    fn concurrent_queries_over_parallel_pool(
        clients in schedules(),
        g_seed in 0u64..500,
    ) {
        let svc = build_service(2, g_seed);
        let answered: Vec<(usize, Query, lgc::ClusterResult)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .iter()
                    .map(|schedule| {
                        let svc = &svc;
                        scope.spawn(move || {
                            schedule
                                .iter()
                                .map(|&(gi, kind, vtweak, ptweak)| {
                                    let n = svc.store(NAMES[gi]).unwrap().num_vertices();
                                    let v = vtweak % n as u32;
                                    let q = Query::new(
                                        Seed::single(v),
                                        make_algo(kind, ptweak),
                                    );
                                    let res = svc.engine(NAMES[gi]).unwrap().run(&q);
                                    (gi, q, res)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
            });
        for (gi, q, got) in answered {
            let cold = cold_engine(&svc, NAMES[gi], 2).run(&q);
            if exact_at_any_threads(&q.algo) {
                prop_assert_eq!(&got.diffusion.p, &cold.diffusion.p);
                prop_assert_eq!(&got.cluster, &cold.cluster);
                prop_assert_eq!(got.conductance, cold.conductance);
            } else {
                prop_assert!(l1_distance(&got.diffusion, &cold.diffusion) < 1e-9);
                prop_assert!((got.conductance - cold.conductance).abs() < 1e-9);
            }
        }
    }

    /// ψ-cache hit/miss equivalence: a parameter schedule with repeats
    /// runs through one service engine (misses populate, repeats hit);
    /// every result is bit-identical to a cold fresh-engine run, and the
    /// repeats provably hit the cache.
    #[test]
    fn psi_cache_hits_are_bitwise_equal_to_misses(
        specs in proptest::collection::vec((0usize..3, 0usize..3, 0u32..40), 4..12),
        g_seed in 0u64..500,
    ) {
        let g = plgc::graph::gen::rand_local(250, 4, g_seed);
        let engine = Engine::builder(&g).threads(1).build();
        let ts = [2.0, 4.5, 7.0];
        let levels = [6, 10, 14];
        let mut distinct = std::collections::HashSet::new();
        for &(ti, li, v) in &specs {
            let algo = Algorithm::Hkpr(lgc::HkprParams {
                t: ts[ti],
                n_levels: levels[li],
                eps: 1e-5,
            });
            distinct.insert((ti, li));
            let q = Query::new(Seed::single(v % 250), algo);
            let warm = engine.run(&q);
            let cold = Engine::builder(&g).threads(1).build().run(&q);
            prop_assert_eq!(&warm.diffusion.p, &cold.diffusion.p);
            prop_assert_eq!(warm.diffusion.stats, cold.diffusion.stats);
            prop_assert_eq!(&warm.cluster, &cold.cluster);
            prop_assert_eq!(&warm.sweep.conductances, &cold.sweep.conductances);
        }
        let (hits, misses) = engine.cache().psi_stats();
        prop_assert_eq!(misses, distinct.len() as u64);
        prop_assert_eq!(hits, (specs.len() - distinct.len()) as u64);
    }
}

/// An exhausted per-graph workspace byte budget surfaces as the typed
/// [`plgc::WorkspaceBudgetExceeded`] error from `try_run` — never a
/// panic — while the infallible `run` path keeps answering (on a
/// transient, unpooled workspace) bit-identically to a cold engine.
#[test]
fn exhausted_workspace_budget_is_a_typed_error_not_a_panic() {
    let g = plgc::graph::gen::rand_local(200, 4, 7);
    let mut svc = Service::builder().pool(Pool::shared(1)).build();
    let budget = |bytes| plgc::EngineLimits {
        workspace_budget: Some(bytes),
        ..Default::default()
    };
    svc.add_graph_with_limits("tiny", g.clone(), budget(1));
    let q = Query::new(
        Seed::single(0),
        Algorithm::PrNibble(lgc::PrNibbleParams::default()),
    );
    // The pool has never parked a workspace, so the first fresh checkout
    // is charged at the zero watermark and succeeds even under a 1-byte
    // budget...
    let first = svc
        .engine("tiny")
        .unwrap()
        .try_run(&q)
        .expect("zero watermark");
    // ...but restoring it recorded its true footprint, so the next
    // budgeted checkout is denied — with the numbers, not a panic.
    let err = svc.engine("tiny").unwrap().try_run(&q).unwrap_err();
    let plgc::QueryError::WorkspaceBudgetExceeded(denied) = &err else {
        panic!("expected a workspace-budget refusal, got {err:?}");
    };
    assert_eq!(denied.budget_bytes, 1);
    assert_eq!(denied.in_flight_bytes, 0);
    assert!(
        denied.requested_bytes > 1,
        "watermark learned from the restore"
    );
    assert!(err.is_retryable(), "budget refusals are transient");
    assert!(err.to_string().contains("budget"));
    // The shed shows up in the graph's lifecycle counters.
    let stats = svc.lifecycle("tiny").unwrap();
    assert_eq!(stats.shed_workspace, 1);
    assert_eq!(stats.completed, 1);
    // The infallible front door degrades to a transient workspace and
    // stays bitwise equal to a cold engine.
    let again = svc.engine("tiny").unwrap().run(&q);
    let cold = Engine::builder(&g).threads(1).build().run(&q);
    assert_eq!(first.diffusion.p, cold.diffusion.p);
    assert_eq!(again.diffusion.p, cold.diffusion.p);
    assert_eq!(again.cluster, cold.cluster);
    // A roomy budget never denies this workload.
    svc.add_graph_with_limits("roomy", g.clone(), budget(1 << 30));
    assert!(svc.engine("roomy").unwrap().try_run(&q).is_ok());
    assert!(svc.engine("roomy").unwrap().try_run(&q).is_ok());
}

/// Service survives being shared the boring way too: behind an `Arc`,
/// queried from detached threads, with warm workspaces accumulating.
#[test]
fn arc_shared_service_across_spawned_threads() {
    let svc = Arc::new(build_service(1, 42));
    let handles: Vec<_> = (0..4u32)
        .map(|i| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let name = if i % 2 == 0 { "sbm" } else { "local" };
                let engine = svc.engine(name).unwrap();
                let q = Query::new(
                    Seed::single(i * 13 % 120),
                    Algorithm::PrNibble(lgc::PrNibbleParams::default()),
                );
                let got = engine.run(&q);
                let cold = Engine::builder(svc.graph(name).unwrap().as_ref())
                    .threads(1)
                    .build()
                    .run(&q);
                assert_eq!(got.diffusion.p, cold.diffusion.p);
                assert_eq!(got.cluster, cold.cluster);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // The checkout pools parked the in-flight workspaces.
    let warm: usize = ["sbm", "local"]
        .iter()
        .map(|n| {
            let e = svc.engine(n).unwrap();
            // A follow-up query on a warm service still matches cold.
            let q = Query::new(
                Seed::single(0),
                Algorithm::Nibble(lgc::NibbleParams::default()),
            );
            let got = e.run(&q);
            let cold = Engine::builder(svc.graph(n).unwrap().as_ref())
                .threads(1)
                .build()
                .run(&q);
            assert_eq!(got.diffusion.p, cold.diffusion.p);
            usize::from(e.cache().psi_stats().1 == 0)
        })
        .sum();
    assert_eq!(warm, 2, "no HK-PR queries ran, so no psi misses");
}
