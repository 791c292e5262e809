//! Side-by-side comparison of all diffusions from the same seed — the
//! paper's conclusion scenario: "data analysts can use any of them for
//! graph cluster exploration, or even use all of them to find slightly
//! different clusters of similar size from the same seed set."
//!
//! The sequential columns run the fresh-state reference algorithms; the
//! parallel columns all go through one warm [`Engine`], so from the
//! second row on every query runs entirely out of recycled buffers.
//!
//! Prints cluster size, conductance, diffusion support, work counters,
//! and wall-clock for sequential vs parallel runs of every algorithm,
//! plus the evolving-set extension.
//!
//! ```sh
//! cargo run --release --example compare_algorithms
//! ```

use plgc::cluster as lgc;
use plgc::{Algorithm, Engine, LocalDiffusion, Query, Seed};
use std::time::Instant;

fn main() {
    let g = plgc::graph::gen::rand_local(200_000, 5, 7);
    let seed_vertex = plgc::graph::largest_component(&g)[0];
    println!(
        "randLocal graph: {} vertices, {} edges; seed {seed_vertex}",
        g.num_vertices(),
        g.num_edges()
    );

    let engine = Engine::builder(&g).build();
    let seed = Seed::single(seed_vertex);
    println!("engine: {} threads", engine.num_threads());
    println!();
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>11} {:>9} {:>10} {:>10}",
        "algorithm", "seq(ms)", "par(ms)", "|cluster|", "phi", "support", "pushes", "iters"
    );

    let algorithms: Vec<Algorithm> = vec![
        Algorithm::Nibble(lgc::NibbleParams {
            t_max: 20,
            eps: 1e-8,
        }),
        Algorithm::PrNibble(lgc::PrNibbleParams {
            alpha: 0.01,
            eps: 1e-7,
            ..Default::default()
        }),
        Algorithm::Hkpr(lgc::HkprParams {
            t: 10.0,
            n_levels: 20,
            eps: 1e-7,
        }),
        Algorithm::RandHkpr(lgc::RandHkprParams {
            t: 10.0,
            max_len: 10,
            walks: 100_000,
            rng_seed: 1,
        }),
        Algorithm::Evolving(lgc::EvolvingParams {
            max_steps: 80,
            rng_seed: 3,
            ..Default::default()
        }),
    ];

    for algo in &algorithms {
        let t0 = Instant::now();
        let seq_d = algo.diffuse_seq(&g, &seed);
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let res = engine.run(&Query::new(seed.clone(), algo.clone()));
        let t_par = t0.elapsed();
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>9} {:>11.6} {:>9} {:>10} {:>10}",
            algo.name(),
            t_seq.as_secs_f64() * 1e3,
            t_par.as_secs_f64() * 1e3,
            res.cluster.len(),
            res.conductance,
            res.diffusion.support_size(),
            res.diffusion.stats.pushes,
            res.diffusion.stats.iterations
        );
        let _ = seq_d;
    }
}
