//! Parallel local graph clustering — a Rust reproduction of
//! *"Parallel Local Graph Clustering"* (Shun, Roosta-Khorasani,
//! Fountoulakis, Mahoney; VLDB 2016).
//!
//! Local clustering algorithms find a low-conductance cluster around a
//! seed vertex with work proportional to the size of the cluster, not the
//! graph. This crate provides sequential and work-efficient parallel
//! implementations of the paper's four diffusion processes and its
//! parallel sweep-cut rounding procedure:
//!
//! | Algorithm | Sequential | Parallel | Paper |
//! |---|---|---|---|
//! | Nibble (truncated lazy random walk) | [`nibble_seq`] | [`nibble_par`] | §3.2, Thm 2 |
//! | PageRank-Nibble (approximate PPR pushes) | [`prnibble_seq`] | [`prnibble_par`] | §3.3, Thm 3 |
//! | Deterministic heat-kernel PageRank | [`hkpr_seq`] | [`hkpr_par`] | §3.4, Thm 4 |
//! | Randomized heat-kernel PageRank | [`rand_hkpr_seq`] | [`rand_hkpr_par`] | §3.5, Thm 5 |
//! | Sweep cut | [`sweep_cut_seq`] | [`sweep_cut_par`] | §3.1, Thm 1 |
//!
//! Each diffusion returns a sparse mass vector `p` ([`Diffusion`]); the
//! sweep cut sorts its support by `p[v]/d(v)` and returns the prefix with
//! minimum conductance ([`SweepCut`]). The one-call convenience wrapper is
//! [`find_cluster`]; query loops should build an [`Engine`] instead — the
//! same pipeline over recyclable [`Workspace`] checkouts and a
//! [`GraphCache`] of seed-independent state, `&self`-queryable from any
//! number of threads, with every algorithm behind the [`LocalDiffusion`]
//! trait and batch fan-out via [`Engine::run_batch`]. Processes serving
//! *several* graphs register them into a [`Service`], which shares one
//! [`lgc_parallel::Pool`] across all of them.
//!
//! ```
//! use lgc_core::{find_cluster, Algorithm, PrNibbleParams, Seed};
//! use lgc_graph::gen;
//! use lgc_parallel::Pool;
//!
//! // Two 12-cliques joined by one edge: the planted cluster is obvious.
//! let g = gen::two_cliques_bridge(12);
//! let pool = Pool::new(2);
//! let result = find_cluster(
//!     &pool,
//!     &g,
//!     &Seed::single(3),
//!     &Algorithm::PrNibble(PrNibbleParams::default()),
//! );
//! let mut cluster = result.cluster.clone();
//! cluster.sort_unstable();
//! assert_eq!(cluster, (0..12).collect::<Vec<u32>>());
//! ```
//!
//! Extensions beyond the paper's core (flagged as such in its text):
//! multi-vertex seeds (footnote 5), the β-fraction PR-Nibble variant
//! (§3.3), the priority-queue sequential ablation (§3.3), the evolving-set
//! process (§5), and network-community-profile generation (§4, Fig. 12).

mod batch;
mod budget;
mod cache;
mod engine;
mod evolving;
mod hkpr;
mod ncp;
mod nibble;
mod pipeline;
mod prnibble;
mod rand_hkpr;
mod result;
mod seed;
mod service;
mod sweep;

pub use budget::{
    EngineLimits, InvalidSeed, LifecycleSnapshot, PartialResult, QueryBudget, QueryError,
    TrippedDiffusion, RETRY_AFTER_FLOOR,
};
pub use cache::{GraphCache, GraphSummary};
pub use engine::{
    Engine, EngineBuilder, LocalDiffusion, Query, Workspace, WorkspaceBudgetExceeded,
};
pub use evolving::{evolving_set_par, evolving_set_seq, EvolvingParams, EvolvingResult};
pub use hkpr::{hkpr_par, hkpr_seq, psi_table, HkprParams};
pub use ncp::{ncp_prnibble, NcpParams, NcpPoint};
pub use nibble::{nibble_par, nibble_seq, nibble_with_target_par, NibbleParams};
pub use pipeline::{Embedding, KClusters, PipelineParams, RhoGrid};
pub use prnibble::{
    prnibble_par, prnibble_seq, prnibble_seq_priority_queue, PrNibbleParams, PushRule,
};
pub use rand_hkpr::{rand_hkpr_par, rand_hkpr_seq, RandHkprParams};
pub use result::{ClusterResult, Diffusion, DiffusionStats};
pub use seed::Seed;
pub use service::{GraphStore, Service, ServiceBuilder};
pub use sweep::{sweep_cut_par, sweep_cut_seq, SweepCut};

// The traversal direction `EngineBuilder::direction` pins, re-exported so
// callers can set it without a direct lgc-ligra dep.
pub use lgc_ligra::Direction;

// The cooperative-interrupt machinery budgets compile down to: tokens and
// trip reasons appear in this crate's public API (`QueryBudget.cancel`,
// `QueryError::trip`), and `Checkpoint` in `LocalDiffusion`'s guarded
// signature.
#[cfg(feature = "fault-inject")]
pub use lgc_ligra::FaultPlan;
pub use lgc_ligra::{CancelToken, Checkpoint, Trip};

// The max-flow refinement stage consumed by `Engine::improve` and the
// pipeline module, re-exported so umbrella users see one API.
pub use lgc_flow::{RefineStats, RefinedCut, TrippedRefinement};

use lgc_graph::CsrBackend;
use lgc_parallel::Pool;

/// Which diffusion to run (with its parameters).
///
/// All variants implement [`LocalDiffusion`] through their parameter
/// structs, and so does `Algorithm` itself — this enum is what
/// [`Engine::run`] and [`find_cluster`] dispatch on.
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// Spielman–Teng truncated lazy random walk (§3.2).
    Nibble(NibbleParams),
    /// Andersen–Chung–Lang approximate personalized PageRank (§3.3).
    PrNibble(PrNibbleParams),
    /// Kloster–Gleich deterministic heat-kernel PageRank (§3.4).
    Hkpr(HkprParams),
    /// Chung–Simpson randomized heat-kernel PageRank (§3.5).
    RandHkpr(RandHkprParams),
    /// Andersen–Peres evolving-set process (§5). Selects its cluster
    /// directly (no sweep); see [`ClusterResult::from_evolving`].
    Evolving(EvolvingParams),
}

impl Algorithm {
    /// Checks the parameters a diffusion would otherwise reject with a
    /// panic (out-of-range or NaN `α`, `ε`, `β`, `t`, and zero level or
    /// walk counts), naming the first violated rule. Serving layers call
    /// this on untrusted queries before running them.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            Algorithm::PrNibble(p) => p.validate(),
            Algorithm::Hkpr(p) => p.validate(),
            Algorithm::RandHkpr(p) => p.validate(),
            Algorithm::Nibble(_) | Algorithm::Evolving(_) => Ok(()),
        }
    }
}

/// `Ok` when `ok`, else `Err(why)` — the shape of every `validate`.
pub(crate) fn require(ok: bool, why: &'static str) -> Result<(), &'static str> {
    if ok {
        Ok(())
    } else {
        Err(why)
    }
}

/// Runs the chosen diffusion from `seed` and rounds with the parallel
/// sweep cut — the full pipeline of the paper, in one call.
///
/// With a 1-thread [`Pool`] every stage runs sequentially (the paper's
/// `T1` configuration); with more threads every stage is parallel. This
/// is the one-shot form of [`Engine::run`]: same code path, but scratch
/// state is allocated fresh and dropped. Query loops should build an
/// [`Engine`] instead and let its [`Workspace`] amortize the allocations.
pub fn find_cluster<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    algo: &Algorithm,
) -> ClusterResult {
    engine::run_query(pool, g, &mut Workspace::new(), seed, algo, None)
}
