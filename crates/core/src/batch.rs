//! Inter-query parallelism — the baseline the paper argues *against*.
//!
//! §1: "A straightforward way to use parallelism is to run many local
//! graph computations independently in parallel, and this can be useful
//! for certain applications. However, since all of the local algorithms
//! have many input parameters ... it may be hard to know a priori how to
//! set the input parameters for the multiple independent computations."
//!
//! This module provides that straightforward mode, generalized to *any*
//! algorithm: [`Engine::run_batch`] fans a list of [`Query`]s (any mix
//! of the five diffusions) across the pool's threads. Each worker chunk
//! checks one [`Workspace`] out of the engine's pool, recycles it from
//! query to query, and runs every query through the same unified
//! pipeline as [`Engine::run`] on a single-threaded pool — so a batch
//! item is **bit-identical to a 1-thread engine run of the same query**,
//! and the whole batch is deterministic and thread-count independent.
//! Users with embarrassingly-many queries (e.g. NCP-style scans with
//! known parameters) saturate their machine this way, while interactive
//! single-query workloads use the paper's intra-query parallel
//! algorithms; the two modes compose the same primitives, so comparing
//! them quantifies the paper's §1 trade-off on real hardware.

use crate::budget::QueryError;
use crate::engine::{run_query, with_graph, Engine, Query, Workspace};
use crate::result::ClusterResult;
use lgc_parallel::{Pool, UnsafeSlice};

impl Engine<'_> {
    /// Runs many independent queries — any mix of algorithms — fanned
    /// across the pool's threads, one single-threaded pipeline per query
    /// over a per-worker-chunk workspace checked out of the engine's
    /// pool (warm across calls). Results are position-aligned with
    /// `queries` and bit-identical to running each query alone on a
    /// 1-thread engine (workspace recycling is observationally
    /// invisible), so the output does not depend on the thread count.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<ClusterResult> {
        with_graph!(self.graph.csr(), |g| self.fan_out(queries, |sub, ws, q| {
            run_query(sub, g, ws, &q.seed, &q.algo, self.dir)
        }))
    }

    /// The governed form of [`Engine::run_batch`]: every query is
    /// seed-validated and runs under its own [`QueryBudget`](crate::QueryBudget)
    /// (merged over the engine's default, armed at that query's start
    /// inside its worker chunk), so one poisoned or oversized query fails
    /// alone — position-aligned with `queries` — while the rest of the
    /// batch completes. Successful items are bit-identical to
    /// [`Engine::run_batch`]'s.
    pub fn try_run_batch(&self, queries: &[Query]) -> Vec<Result<ClusterResult, QueryError>> {
        with_graph!(self.graph.csr(), |g| self.fan_out(queries, |sub, ws, q| {
            self.check_seed(&q.seed)?;
            // Each query's budget clock starts at its own first
            // iteration, not at batch submission.
            self.run_governed(sub, g, ws, q)
        }))
    }

    /// Fans `queries` across the pool in worker chunks. Each chunk runs
    /// `item` on an inline sequential sub-pool (no threads spawned) over
    /// one workspace, checked out of the engine's pool at the chunk
    /// boundary and restored after it.
    fn fan_out<T: Send>(
        &self,
        queries: &[Query],
        item: impl Fn(&Pool, &mut Workspace, &Query) -> T + Sync,
    ) -> Vec<T> {
        let n = queries.len();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        {
            let view = UnsafeSlice::new(&mut out);
            // Chunks big enough that each worker's workspace amortizes
            // over several queries, small enough to load-balance uneven
            // queries.
            let grain = n.div_ceil(self.pool.num_threads() * 4).max(1);
            self.pool.run(n, grain, |s, e| {
                let sub = Pool::sequential();
                let mut ws = self.workspaces.checkout();
                // Global index i addresses both `queries` and the output.
                #[allow(clippy::needless_range_loop)]
                for i in s..e {
                    let result = item(&sub, &mut ws, &queries[i]);
                    // SAFETY: each query index is written exactly once.
                    unsafe { view.write(i, Some(result)) };
                }
                self.workspaces.restore(ws);
            });
        }
        out.into_iter()
            .map(|r| r.expect("every query executed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Algorithm, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams, RandHkprParams, Seed,
    };
    use lgc_graph::gen;

    fn queries(n: u32) -> Vec<Query> {
        (0..n)
            .map(|i| {
                let seed = Seed::single(i * 7 % 160);
                // Cycle through all five algorithms — batch execution is
                // algorithm-generic now.
                let algo = match i % 5 {
                    0 => Algorithm::PrNibble(PrNibbleParams {
                        alpha: 0.05,
                        eps: 1e-6,
                        ..Default::default()
                    }),
                    1 => Algorithm::Nibble(NibbleParams {
                        t_max: 10,
                        eps: 1e-6,
                    }),
                    2 => Algorithm::Hkpr(HkprParams {
                        t: 4.0,
                        n_levels: 8,
                        eps: 1e-5,
                    }),
                    3 => Algorithm::RandHkpr(RandHkprParams {
                        walks: 2_000,
                        rng_seed: i as u64,
                        ..Default::default()
                    }),
                    _ => Algorithm::Evolving(EvolvingParams {
                        max_steps: 15,
                        rng_seed: i as u64,
                        ..Default::default()
                    }),
                };
                Query::new(seed, algo)
            })
            .collect()
    }

    /// The batch contract: each item is bit-identical to running its
    /// query alone on a single-threaded engine.
    #[test]
    fn batch_matches_individual_one_thread_engine_runs() {
        let (g, _) = gen::sbm(&[40, 40, 40, 40], 0.3, 0.01, 8);
        let qs = queries(10);
        let batch = Engine::builder(&g).threads(2).build().run_batch(&qs);
        assert_eq!(batch.len(), 10);
        let engine = Engine::builder(&g).threads(1).build();
        for (q, got) in qs.iter().zip(&batch) {
            let want = engine.run(q);
            assert_eq!(got.cluster, want.cluster, "{:?}", q.algo);
            assert_eq!(got.conductance, want.conductance);
            assert_eq!(got.diffusion.p, want.diffusion.p);
            assert_eq!(got.diffusion.stats, want.diffusion.stats);
        }
    }

    #[test]
    fn batch_is_thread_count_independent() {
        let g = gen::rand_local(500, 5, 4);
        let qs = queries(9);
        let base = Engine::builder(&g).threads(1).build().run_batch(&qs);
        for threads in [2, 4] {
            let got = Engine::builder(&g).threads(threads).build().run_batch(&qs);
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a.cluster, b.cluster, "threads={threads}");
                assert_eq!(a.conductance, b.conductance);
                assert_eq!(a.diffusion.p, b.diffusion.p);
            }
        }
    }

    #[test]
    fn empty_batch() {
        let g = gen::cycle(10);
        assert!(Engine::builder(&g)
            .threads(2)
            .build()
            .run_batch(&[])
            .is_empty());
    }
}
