//! Cross-crate integration tests: the full diffusion → sweep pipeline on
//! every algorithm, sequential vs parallel, across thread counts.

use plgc::cluster as lgc;
use plgc::{Algorithm, Pool, Seed};

/// Every algorithm must recover a planted clique exactly through the full
/// `find_cluster` pipeline.
#[test]
fn all_algorithms_recover_planted_clique() {
    let g = plgc::graph::gen::two_cliques_bridge(16);
    let pool = Pool::new(2);
    let algos: Vec<(&str, Algorithm)> = vec![
        (
            "nibble",
            Algorithm::Nibble(lgc::NibbleParams {
                t_max: 25,
                eps: 1e-9,
            }),
        ),
        (
            "prnibble",
            Algorithm::PrNibble(lgc::PrNibbleParams::default()),
        ),
        ("hkpr", Algorithm::Hkpr(lgc::HkprParams::default())),
        (
            "randhkpr",
            Algorithm::RandHkpr(lgc::RandHkprParams {
                walks: 50_000,
                ..Default::default()
            }),
        ),
    ];
    for (name, algo) in algos {
        let res = lgc::find_cluster(&pool, &g, &Seed::single(5), &algo);
        let mut cluster = res.cluster.clone();
        cluster.sort_unstable();
        assert_eq!(cluster, (0..16).collect::<Vec<u32>>(), "{name}");
        assert!(
            (res.conductance - 1.0 / (16.0 * 15.0 + 1.0)).abs() < 1e-12,
            "{name}"
        );
    }
}

/// Deterministic algorithms: sequential and parallel versions agree on
/// the final *cluster* for every thread count (vectors agree to float
/// rounding; sweep ties are broken deterministically).
#[test]
fn deterministic_algorithms_agree_across_thread_counts() {
    let g = plgc::graph::gen::rmat_graph500(11, 8, 13);
    let seed = Seed::single(plgc::graph::largest_component(&g)[0]);
    let nibble = lgc::NibbleParams {
        t_max: 15,
        eps: 1e-7,
    };
    let hk = lgc::HkprParams {
        t: 8.0,
        n_levels: 15,
        eps: 1e-6,
    };

    let base_nibble = lgc::nibble_seq(&g, &seed, &nibble);
    let base_hk = lgc::hkpr_seq(&g, &seed, &hk);
    let seq_pool = Pool::new(1);
    let nibble_cut = lgc::sweep_cut_seq(&g, &base_nibble.p);
    let hk_cut = lgc::sweep_cut_seq(&g, &base_hk.p);
    // Cross-check the two sweep implementations on the same vectors.
    assert_eq!(
        nibble_cut.conductances,
        lgc::sweep_cut_par(&seq_pool, &g, &base_nibble.p).conductances
    );

    for threads in [2, 4] {
        let pool = Pool::new(threads);
        let n = lgc::nibble_par(&pool, &g, &seed, &nibble);
        let h = lgc::hkpr_par(&pool, &g, &seed, &hk);
        assert_eq!(n.support_size(), base_nibble.support_size(), "t={threads}");
        assert_eq!(h.support_size(), base_hk.support_size(), "t={threads}");
        let nc = lgc::sweep_cut_par(&pool, &g, &n.p);
        let hc = lgc::sweep_cut_par(&pool, &g, &h.p);
        assert_eq!(nc.best_size, nibble_cut.best_size, "t={threads}");
        assert_eq!(hc.best_size, hk_cut.best_size, "t={threads}");
        assert!((nc.best_conductance - nibble_cut.best_conductance).abs() < 1e-9);
        assert!((hc.best_conductance - hk_cut.best_conductance).abs() < 1e-9);
    }
}

/// rand-HK-PR is *exactly* thread-count independent (per-walk RNG).
#[test]
fn rand_hkpr_bitwise_reproducible() {
    let g = plgc::graph::gen::barabasi_albert(3000, 4, 17);
    let seed = Seed::single(0);
    let params = lgc::RandHkprParams {
        t: 6.0,
        max_len: 12,
        walks: 30_000,
        rng_seed: 5,
    };
    let a = lgc::rand_hkpr_seq(&g, &seed, &params);
    for threads in [1, 2, 4] {
        let pool = Pool::new(threads);
        let b = lgc::rand_hkpr_par(&pool, &g, &seed, &params);
        assert_eq!(a.p, b.p, "threads={threads}");
    }
}

/// Multi-vertex seed sets (footnote 5) work through the whole pipeline.
#[test]
fn multi_seed_pipeline() {
    let (g, labels) = plgc::graph::gen::sbm(&[60, 60, 60], 0.3, 0.005, 23);
    let pool = Pool::new(2);
    let seeds: Vec<u32> = (0..180)
        .filter(|&v| labels[v as usize] == 1)
        .take(3)
        .collect();
    let res = lgc::find_cluster(
        &pool,
        &g,
        &Seed::set(seeds),
        &Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.05,
            eps: 1e-7,
            ..Default::default()
        }),
    );
    let in_block = res
        .cluster
        .iter()
        .filter(|&&v| labels[v as usize] == 1)
        .count();
    assert!(
        in_block as f64 / res.cluster.len() as f64 > 0.9,
        "cluster should stay in the seeded block: {in_block}/{}",
        res.cluster.len()
    );
}

/// The work of the diffusions must not scale with graph size when the
/// cluster stays the same (the defining "local" property).
#[test]
fn local_running_time_independent_of_graph_size() {
    // Same planted clique embedded in increasingly large sparse graphs.
    let sizes = [2_000usize, 20_000, 200_000];
    let mut volumes = Vec::new();
    for &n in &sizes {
        let mut b = plgc::GraphBuilder::new(n);
        // clique on 0..12
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                b.edge(u, v);
            }
        }
        // bridge into a big cycle over the rest
        b.edge(0, 12);
        for v in 12..(n as u32 - 1) {
            b.edge(v, v + 1);
        }
        b.edge(n as u32 - 1, 12);
        let g = b.edges([]).build();
        let d = lgc::prnibble_seq(
            &g,
            &Seed::single(3),
            &lgc::PrNibbleParams {
                alpha: 0.05,
                eps: 1e-5,
                ..Default::default()
            },
        );
        volumes.push(d.stats.pushed_volume);
    }
    assert_eq!(volumes[0], volumes[1], "work must not grow with |V|");
    assert_eq!(volumes[1], volumes[2], "work must not grow with |V|");
}

/// The paper's interactive workflow (§1): find a cluster, remove it from
/// the graph, and keep going — each planted block of an SBM should come
/// out in turn.
#[test]
fn repeated_cluster_removal_peels_planted_blocks() {
    let (mut g, mut labels) = plgc::graph::gen::sbm(&[50, 50, 50, 50], 0.4, 0.004, 31);
    let pool = Pool::new(2);
    let params = lgc::PrNibbleParams {
        alpha: 0.05,
        eps: 1e-7,
        ..Default::default()
    };
    for round in 0..3 {
        let seed_vertex = (0..g.num_vertices() as u32)
            .find(|&v| g.degree(v) > 2)
            .unwrap();
        let res = lgc::find_cluster(
            &pool,
            &g,
            &Seed::single(seed_vertex),
            &Algorithm::PrNibble(params),
        );
        // The found cluster should be dominated by one block.
        let mut block_counts = std::collections::HashMap::new();
        for &v in &res.cluster {
            *block_counts.entry(labels[v as usize]).or_insert(0usize) += 1;
        }
        let (&top_block, &top) = block_counts.iter().max_by_key(|&(_, c)| *c).unwrap();
        assert!(
            top as f64 / res.cluster.len() as f64 > 0.9,
            "round {round}: cluster mixes blocks ({block_counts:?})"
        );
        let _ = top_block;
        // Peel it off and relabel.
        let (rest, mapping) = g.remove_vertices(&res.cluster);
        labels = mapping.iter().map(|&old| labels[old as usize]).collect();
        g = rest;
    }
    assert!(g.num_vertices() >= 50, "one block per round at most");
}

/// Theorem bounds hold across algorithms on a mid-sized graph.
#[test]
fn work_bounds_hold() {
    let g = plgc::graph::gen::rand_local(30_000, 5, 77);
    let seed = Seed::single(0);
    let pool = Pool::new(2);

    // PR-Nibble: Σ d(v) ≤ 1/(αε).
    let pr = lgc::PrNibbleParams {
        alpha: 0.01,
        eps: 1e-6,
        ..Default::default()
    };
    let d = lgc::prnibble_par(&pool, &g, &seed, &pr);
    assert!((d.stats.pushed_volume as f64) <= 1.0 / (pr.alpha * pr.eps));

    // Nibble: at most T iterations.
    let nb = lgc::NibbleParams {
        t_max: 7,
        eps: 1e-7,
    };
    let d = lgc::nibble_par(&pool, &g, &seed, &nb);
    assert!(d.stats.iterations <= 7);

    // HK-PR: at most N levels.
    let hk = lgc::HkprParams {
        t: 5.0,
        n_levels: 9,
        eps: 1e-6,
    };
    let d = lgc::hkpr_par(&pool, &g, &seed, &hk);
    assert!(d.stats.iterations <= 9);

    // rand-HK-PR: exactly `walks` walks of length ≤ K.
    let rh = lgc::RandHkprParams {
        t: 5.0,
        max_len: 6,
        walks: 10_000,
        rng_seed: 2,
    };
    let d = lgc::rand_hkpr_par(&pool, &g, &seed, &rh);
    assert_eq!(d.stats.pushes, 10_000);
    assert!(d.stats.edges_traversed <= 6 * 10_000);
}
