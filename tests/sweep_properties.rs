//! Property-based tests for the sweep cut: the parallel Theorem 1
//! implementation must agree with the sequential algorithm and with a
//! brute-force conductance oracle on arbitrary graphs and vectors, bit
//! for bit on power-law hubs and on a warm engine's recycled tables.

use plgc::cluster::{sweep_cut_par, sweep_cut_seq, SweepCut};
use plgc::graph::gen;
use plgc::{Algorithm, CsrCompressed, Engine, Graph, Pool, PrNibbleParams, Query, Seed};
use proptest::prelude::*;

/// Equal in every output bit: order, conductances, best prefix.
fn assert_bitwise(a: &SweepCut, b: &SweepCut) {
    let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(a.order, b.order);
    assert_eq!(bits(&a.conductances), bits(&b.conductances));
    assert_eq!(a.best_size, b.best_size);
    assert_eq!(a.best_conductance.to_bits(), b.best_conductance.to_bits());
}

#[test]
fn rmat_hub_at_first_middle_and_last_rank() {
    let g = gen::rmat_graph500(12, 8, 3);
    let comp = CsrCompressed::from_graph(&g);
    let hub = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .expect("non-empty graph");
    // Some of the hub's neighbors (internal edges) and some vertices
    // further away (mostly crossing edges).
    let n = g.num_vertices() as u32;
    let mut others: Vec<u32> = g
        .neighbors(hub)
        .iter()
        .copied()
        .step_by(5)
        .take(30)
        .collect();
    others.extend((1..=30u32).map(|k| (hub + 131 * k) % n));
    others.retain(|&v| v != hub && g.degree(v) > 0);
    others.sort_unstable();
    others.dedup();
    for at in [0, others.len() / 2, others.len()] {
        let mut order = others.clone();
        order.insert(at, hub);
        // p/d = 1/(k+1) at position k makes `order` the sweep order.
        let p: Vec<(u32, f64)> = order
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, g.degree(v) as f64 / (k + 1) as f64))
            .collect();
        let want = sweep_cut_seq(&g, &p);
        assert_eq!(want.order, order, "hub at rank {}", at + 1);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            assert_bitwise(&want, &sweep_cut_par(&pool, &g, &p));
            assert_bitwise(&want, &sweep_cut_par(&pool, &comp, &p));
        }
    }
}

#[test]
fn warm_engine_sweeps_a_small_support_after_a_large_one_like_a_cold_one() {
    let g = gen::rand_local(2000, 6, 5);
    let query = |eps: f64| {
        let params = PrNibbleParams {
            alpha: 0.05,
            eps,
            ..Default::default()
        };
        Query::new(Seed::single(11), Algorithm::PrNibble(params))
    };
    let warm = Engine::builder(&g).threads(2).build();
    let large = warm.run(&query(1e-7));
    let small = warm.run(&query(1e-2));
    assert!(large.sweep.order.len() > 20 * small.sweep.order.len());
    let cold = Engine::builder(&g).threads(2).build().run(&query(1e-2));
    assert_bitwise(&cold.sweep, &small.sweep);
    assert_bitwise(&sweep_cut_seq(&g, &small.diffusion.p), &small.sweep);
}

/// Arbitrary small graph + arbitrary sparse positive vector.
fn graph_and_vector() -> impl Strategy<Value = (Graph, Vec<(u32, f64)>)> {
    (
        2usize..40,
        prop::collection::vec((0u32..40, 0u32..40), 1..120),
        prop::collection::vec((0u32..40, 0.01f64..10.0), 1..25),
    )
        .prop_map(|(n, raw_edges, raw_p)| {
            let edges: Vec<(u32, u32)> = raw_edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = Graph::from_edges(n, &edges);
            let mut p: Vec<(u32, f64)> =
                raw_p.into_iter().map(|(v, m)| (v % n as u32, m)).collect();
            p.sort_unstable_by_key(|&(v, _)| v);
            p.dedup_by_key(|&mut (v, _)| v);
            (g, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parallel_sweep_equals_sequential((g, p) in graph_and_vector(), threads in 1usize..=4) {
        let pool = Pool::new(threads);
        let s = sweep_cut_seq(&g, &p);
        let q = sweep_cut_par(&pool, &g, &p);
        prop_assert_eq!(&s.order, &q.order);
        prop_assert_eq!(&s.conductances, &q.conductances);
        prop_assert_eq!(s.best_size, q.best_size);
        prop_assert_eq!(s.best_conductance, q.best_conductance);
    }

    #[test]
    fn sweep_conductances_match_oracle((g, p) in graph_and_vector()) {
        let s = sweep_cut_seq(&g, &p);
        for j in 1..=s.order.len() {
            let direct = g.conductance(&s.order[..j]);
            let got = s.conductances[j - 1];
            prop_assert!(
                (direct.is_infinite() && got.is_infinite())
                    || (direct - got).abs() < 1e-9,
                "prefix {}: {} vs {}", j, direct, got
            );
        }
        // The reported best really is the minimum over prefixes.
        if s.best_size > 0 {
            let min = s
                .conductances
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(s.best_conductance, min);
        }
    }

    #[test]
    fn sweep_order_is_by_normalized_mass((g, p) in graph_and_vector()) {
        let s = sweep_cut_seq(&g, &p);
        let score = |v: u32| {
            let m = p.iter().find(|&&(u, _)| u == v).unwrap().1;
            m / g.degree(v) as f64
        };
        for w in s.order.windows(2) {
            let (a, b) = (score(w[0]), score(w[1]));
            prop_assert!(a > b || (a == b && w[0] < w[1]), "order violated: {} then {}", w[0], w[1]);
        }
    }
}
