//! The query engine: one reusable entry point for every local diffusion.
//!
//! The paper frames Nibble, PR-Nibble, HK-PR, rand-HK-PR, and the
//! evolving-set process as one family of local diffusions over the same
//! frontier framework, and its motivating workload is a stream of
//! interactive queries ("an analyst would run a computation, study the
//! result, and based on that determine what computation to run next").
//! Serving that stream with free functions means rebuilding every piece
//! of scratch state — mass tables, frontier bitsets, vertex-indexed
//! contribution slices, sweep rank tables — on every call, even though
//! all of it is reusable across queries against the same graph.
//!
//! [`Engine`] fixes that: a handle bundling a [`Pool`] (its own, or an
//! `Arc` share of a server-wide one), a graph, a checkout pool of
//! [`Workspace`]s, and a [`GraphCache`] of seed-independent state —
//! built once and then hit with any number of queries **from any number
//! of threads**, because every query method takes `&self` (scratch is
//! checked out of the workspace pool at the query boundary, not borrowed
//! from the engine):
//!
//! ```
//! use lgc_core::{Algorithm, Engine, PrNibbleParams, Query, Seed};
//! let g = lgc_graph::gen::two_cliques_bridge(12);
//! let engine = Engine::builder(&g).threads(2).build();
//! let result = engine.run(&Query::new(
//!     Seed::single(3),
//!     Algorithm::PrNibble(PrNibbleParams::default()),
//! ));
//! assert_eq!(result.cluster.len(), 12);
//! ```
//!
//! Every algorithm implements the [`LocalDiffusion`] trait (seed →
//! params → diffusion over the shared workspace), and an [`Engine`] query
//! is *bit-identical* to the corresponding free function: the workspace
//! checkout path ([`lgc_sparse::MassMap::recycle`],
//! [`lgc_ligra::Frontier::recycle`]) re-fits each recycled buffer so it
//! is observationally indistinguishable from a fresh allocation, and
//! every [`GraphCache`] hit returns exactly the bits an uncached run
//! would compute. Warm queries simply skip the allocator.
//!
//! Batch execution generalizes to any algorithm through
//! [`Engine::run_batch`]: queries are fanned across the pool's threads,
//! each worker chunk checking a private [`Workspace`] out of the
//! engine's pool — warm across `run_batch` *calls*, not just within one
//! (see [`crate::batch`] for the inter- vs intra-query parallelism
//! trade-off the paper discusses).
//!
//! [`Engine`] is the only query type. It holds its graph as a
//! [`CsrRef`] (either backend, borrowed) or as a [`GraphStore`] (either
//! backend, `Arc`-owned — how a [`Service`](crate::Service) keeps one
//! engine per registered graph over a single shared [`Pool`]). Each
//! query method matches on the backend once, at its entry, and runs the
//! monomorphized pipeline for it.

use crate::budget::{
    EngineLimits, InvalidSeed, LifecycleCounters, LifecycleSnapshot, PartialResult, QueryBudget,
    QueryError, TrippedDiffusion,
};
use crate::cache::GraphCache;
use crate::evolving::evolving_set_par_ws;
use crate::ncp::{ncp_prnibble_ws, NcpParams, NcpPoint};
use crate::result::{ClusterResult, Diffusion};
use crate::seed::Seed;
use crate::service::GraphStore;
use crate::sweep::sweep_cut_par_ws;
use crate::{Algorithm, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams, RandHkprParams};
use lgc_graph::{CsrBackend, CsrRef};
use lgc_ligra::{Checkpoint, Direction, Frontier, Trip, VertexSubset};
use lgc_parallel::{Bitset, Pool};
use lgc_sparse::{ConcurrentRankMap, ConcurrentSparseVec, MassMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A pool of recyclable scratch buffers shared by every diffusion.
///
/// Checked-out buffers are re-fitted so a warm checkout is observationally
/// identical to a fresh allocation (same backend mode, same hash-table
/// capacity, cleared contents) — the invariant that makes workspace-reusing
/// runs bit-identical to cold free-function runs, enforced by the
/// workspace-reuse proptests. What is actually recycled:
///
/// * dense/sparse [`MassMap`] arenas (including their `O(n)` dense-mode
///   buffers — the expensive part of a high-volume query);
/// * [`Frontier`]s with their lazily-built bitsets, and standalone
///   [`Bitset`]s (PR-Nibble's receiver set);
/// * vertex-indexed `f64` contribution slices for the dense pull engines
///   (never zeroed: stale slots are gated off by the frontier bitset);
/// * rand-HK-PR's walk-destination buffer and compaction table, the
///   evolving-set neighbor counter, and the sweep's rank table.
///
/// Most callers never touch this type directly — [`Engine`] owns one —
/// but [`LocalDiffusion::diffuse`] takes it explicitly so custom drivers
/// (benchmark harnesses, batch executors) can manage their own.
#[derive(Default)]
pub struct Workspace {
    mass: Vec<MassMap>,
    frontiers: Vec<Frontier>,
    bitsets: Vec<Bitset>,
    dense: Vec<Vec<f64>>,
    /// rand-HK-PR per-walk `(destination, steps)` buffer.
    pub(crate) walks: Vec<(u32, u32)>,
    /// rand-HK-PR destination-compaction table.
    pub(crate) rank: Option<ConcurrentRankMap>,
    /// Sweep-cut rank table (order → rank assignment).
    pub(crate) sweep_rank: Option<ConcurrentRankMap>,
    /// Evolving-set `|N(v) ∩ S|` counter.
    pub(crate) counts: Option<ConcurrentSparseVec>,
    /// Cross-query cache of seed-independent state, shared with every
    /// other workspace checked out against the same graph. `None` for
    /// free-function workspaces (they compute everything fresh).
    cache: Option<Arc<GraphCache>>,
    /// Byte charge recorded at checkout by the [`WorkspacePool`]'s budget
    /// accounting; `None` for free-function and transient (over-budget
    /// fallback) workspaces the pool is not accounting.
    charge: Option<usize>,
}

impl Workspace {
    /// An empty workspace; buffers are allocated lazily by the first
    /// query and recycled by every query after it.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty workspace wired to a shared per-graph [`GraphCache`] —
    /// what the engine's workspace checkout pool hands out, so all
    /// checkouts against one graph reuse the same ψ tables and degree
    /// vector.
    pub fn with_cache(cache: Arc<GraphCache>) -> Self {
        Workspace {
            cache: Some(cache),
            ..Default::default()
        }
    }

    /// The ψ table for `(t, n_levels)` — served from the shared cache
    /// when there is one (bit-identical to the fresh computation by
    /// construction), computed fresh otherwise.
    pub(crate) fn psi_table(&self, t: f64, n_levels: usize) -> Arc<Vec<f64>> {
        match &self.cache {
            Some(c) => c.psi(t, n_levels),
            None => Arc::new(crate::hkpr::psi_table(t, n_levels)),
        }
    }

    /// The cached vertex-degree vector, if this workspace is wired to a
    /// cache. Free-function workspaces return `None` and consumers fall
    /// back to the backend's degree lookups — same integers either way.
    pub(crate) fn cached_degrees<B: CsrBackend>(&self, g: &B) -> Option<Arc<Vec<u32>>> {
        self.cache.as_ref().map(|c| c.degrees(g))
    }

    /// Total resident bytes of every buffer this workspace has accreted —
    /// the quantity the workspace pool's byte budget accounts. `O(#buffers)`.
    pub fn resident_bytes(&self) -> usize {
        self.mass.iter().map(MassMap::resident_bytes).sum::<usize>()
            + self
                .frontiers
                .iter()
                .map(Frontier::resident_bytes)
                .sum::<usize>()
            + self
                .bitsets
                .iter()
                .map(Bitset::resident_bytes)
                .sum::<usize>()
            + self
                .dense
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>()
            + self.walks.capacity() * std::mem::size_of::<(u32, u32)>()
            + self
                .rank
                .as_ref()
                .map_or(0, ConcurrentRankMap::resident_bytes)
            + self
                .sweep_rank
                .as_ref()
                .map_or(0, ConcurrentRankMap::resident_bytes)
            + self
                .counts
                .as_ref()
                .map_or(0, ConcurrentSparseVec::resident_bytes)
    }

    /// Checks out a mass map re-fitted exactly as `MassMap::new(n, bound)`
    /// would build it.
    pub(crate) fn take_mass(&mut self, pool: &Pool, n: usize, bound: usize) -> MassMap {
        match self.mass.pop() {
            Some(mut m) => {
                m.recycle(pool, n, bound);
                m
            }
            None => MassMap::new(n, bound),
        }
    }

    /// Returns a mass map to the pool (contents are cleared at the next
    /// checkout, so nothing needs to happen here).
    pub(crate) fn put_mass(&mut self, m: MassMap) {
        self.mass.push(m);
    }

    /// Checks out an empty frontier (recycled ones keep their allocated,
    /// already-zeroed bitset).
    pub(crate) fn take_frontier(&mut self) -> Frontier {
        self.frontiers
            .pop()
            .unwrap_or_else(|| Frontier::from_subset(VertexSubset::empty()))
    }

    /// Returns a frontier, clearing its members (`O(len)`) so the cached
    /// bitset is back to all-zero for the next checkout.
    pub(crate) fn put_frontier(&mut self, pool: &Pool, mut f: Frontier) {
        f.recycle(pool);
        self.frontiers.push(f);
    }

    /// Checks out a clean bitset over universe `n` if one is pooled
    /// (callers allocate lazily on `None`, preserving the cold path's
    /// "only pay `O(n/64)` if the query actually pulls" behavior).
    pub(crate) fn take_bitset(&mut self, n: usize) -> Option<Bitset> {
        let i = self.bitsets.iter().position(|b| b.universe() == n)?;
        Some(self.bitsets.swap_remove(i))
    }

    /// Returns a bitset. Invariant: every word must be zero again (the
    /// diffusions clear receivers by the sorted id list they extracted).
    pub(crate) fn put_bitset(&mut self, b: Bitset) {
        self.bitsets.push(b);
    }

    /// Checks out a vertex-indexed `f64` scratch slice. Contents are
    /// arbitrary stale values — every consumer writes its frontier's
    /// slots before reading and gates reads through the frontier bitset.
    pub(crate) fn take_dense(&mut self) -> Vec<f64> {
        self.dense.pop().unwrap_or_default()
    }

    /// Returns a dense scratch slice (kept dirty by design).
    pub(crate) fn put_dense(&mut self, v: Vec<f64>) {
        self.dense.push(v);
    }
}

/// A checkout pool of [`Workspace`]s behind a byte-budgeted freelist —
/// the mechanism that makes every query method `&self`-callable from any
/// number of OS threads while staying allocation-warm, with resident
/// scratch bounded in *bytes* per graph rather than in workspace count
/// (workspaces accrete `O(n)` dense arenas over their lifetime, so a
/// count cap bounds nothing on a big graph and over-throttles a small
/// one).
///
/// The lock is held only at the checkout boundary (a `Vec` pop/push plus
/// a few counter updates per query or per batch worker chunk), never
/// during a diffusion, so concurrent queries contend for microseconds,
/// not milliseconds. Every checkout is wired to the pool's shared
/// [`GraphCache`]; since recycled buffers are re-fitted to be
/// observationally fresh and cache hits are bit-identical to fresh
/// computation, *which* workspace a query happens to receive is
/// invisible in its output — the invariant the concurrent service
/// proptests hammer.
pub struct WorkspacePool {
    state: Mutex<PoolState>,
    cache: Arc<GraphCache>,
    budget: usize,
}

#[derive(Default)]
struct PoolState {
    /// Parked workspaces with their resident-byte sizes at park time.
    free: Vec<(Workspace, usize)>,
    /// Total resident bytes across parked workspaces.
    parked_bytes: usize,
    /// Bytes charged against the budget by in-flight checkouts.
    in_flight_bytes: usize,
    /// Largest resident size any restored workspace has reached — the
    /// per-checkout charge estimate for fresh workspaces (a fresh
    /// workspace is empty now but will grow to roughly this by restore).
    watermark: usize,
}

/// Typed refusal from a workspace-pool checkout, surfaced by the
/// engine's `try_run` entry points: admitting one more workspace would
/// push the graph's resident scratch past its byte budget. The
/// infallible query paths fall back to a transient unpooled workspace
/// instead — a burst beyond the budget costs allocator traffic, never an
/// error — so this type is for callers that want back-pressure they can
/// act on (shed the query, queue it, or retry later).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkspaceBudgetExceeded {
    /// The pool's configured byte budget.
    pub budget_bytes: usize,
    /// Bytes already charged by in-flight checkouts.
    pub in_flight_bytes: usize,
    /// Estimated charge of the denied checkout (the pool's observed
    /// per-workspace resident high-watermark).
    pub requested_bytes: usize,
}

impl std::fmt::Display for WorkspaceBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workspace byte budget exhausted: {} B in flight + {} B requested > {} B budget",
            self.in_flight_bytes, self.requested_bytes, self.budget_bytes
        )
    }
}

impl std::error::Error for WorkspaceBudgetExceeded {}

/// Default workspace byte budget for a graph occupying `graph_bytes`:
/// 4× the graph, clamped to `[32 MiB, 1 GiB]`. Query scratch scales with
/// diffusion support (a fraction of the graph), so a small multiple of
/// the graph bounds burst-peak memory without throttling realistic
/// concurrency; the floor keeps small graphs unthrottled and the ceiling
/// caps what any single graph can pin in a many-graph service.
pub(crate) fn default_workspace_budget(graph_bytes: usize) -> usize {
    graph_bytes.saturating_mul(4).clamp(32 << 20, 1 << 30)
}

impl WorkspacePool {
    /// An empty pool whose checkouts share `cache`, admitting at most
    /// `budget` resident scratch bytes at a time.
    pub(crate) fn new(cache: Arc<GraphCache>, budget: usize) -> Self {
        WorkspacePool {
            state: Mutex::new(PoolState::default()),
            cache,
            budget,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pops a warm workspace, or creates a fresh cache-wired one —
    /// refusing the fresh checkout when charging it (at the pool's
    /// observed per-workspace high-watermark) would overshoot the byte
    /// budget. Parked workspaces are always admitted: their bytes are
    /// already resident, so handing them out cannot grow the footprint.
    pub(crate) fn try_checkout(&self) -> Result<Workspace, WorkspaceBudgetExceeded> {
        let mut st = self.lock();
        if let Some((mut ws, bytes)) = st.free.pop() {
            st.parked_bytes -= bytes;
            st.in_flight_bytes += bytes;
            ws.charge = Some(bytes);
            return Ok(ws);
        }
        let charge = st.watermark;
        if st.in_flight_bytes.saturating_add(charge) > self.budget {
            return Err(WorkspaceBudgetExceeded {
                budget_bytes: self.budget,
                in_flight_bytes: st.in_flight_bytes,
                requested_bytes: charge,
            });
        }
        st.in_flight_bytes += charge;
        drop(st);
        let mut ws = Workspace::with_cache(Arc::clone(&self.cache));
        ws.charge = Some(charge);
        Ok(ws)
    }

    /// Infallible checkout: on budget refusal, falls back to a transient
    /// workspace the pool does not account. The transient is dropped at
    /// restore, so a burst beyond the budget pays the cold free-function
    /// allocation profile — never an error, and never unbounded resident
    /// scratch.
    pub(crate) fn checkout(&self) -> Workspace {
        self.try_checkout()
            .unwrap_or_else(|_| Workspace::with_cache(Arc::clone(&self.cache)))
    }

    /// Returns a workspace. Budget-accounted checkouts release their
    /// charge, teach the pool their actual resident size (raising the
    /// watermark future charges are estimated at), and park iff the
    /// freelist's resident bytes stay within budget; transient fallbacks
    /// are simply dropped. (A query that panics drops its checkout the
    /// same way.)
    pub(crate) fn restore(&self, mut ws: Workspace) {
        let Some(charge) = ws.charge.take() else {
            return; // transient over-budget fallback: not accounted
        };
        let bytes = ws.resident_bytes();
        let mut st = self.lock();
        st.in_flight_bytes = st.in_flight_bytes.saturating_sub(charge);
        st.watermark = st.watermark.max(bytes);
        if st.parked_bytes + bytes <= self.budget {
            st.parked_bytes += bytes;
            st.free.push((ws, bytes));
        }
    }

    /// Number of warm workspaces currently parked in the freelist.
    pub(crate) fn warm_count(&self) -> usize {
        self.lock().free.len()
    }

    /// The shared per-graph cache all checkouts are wired to.
    pub(crate) fn cache(&self) -> &Arc<GraphCache> {
        &self.cache
    }
}

/// A local diffusion algorithm: seed → parameters (`self`) → sparse mass
/// vector, computed over a recyclable [`Workspace`].
///
/// Implemented by all five of the paper's processes — [`NibbleParams`],
/// [`PrNibbleParams`], [`HkprParams`], [`RandHkprParams`],
/// [`EvolvingParams`] — and by [`Algorithm`] itself (dispatching to the
/// wrapped params), which is what [`Engine`] runs.
pub trait LocalDiffusion {
    /// Short algorithm name for logs and benchmark labels.
    fn name(&self) -> &'static str;

    /// Runs the work-efficient parallel algorithm from `seed`, checking
    /// scratch buffers out of `ws` (and returning them) instead of
    /// allocating, and consulting `cp` once per frontier iteration.
    /// `dir` pins the traversal of every `edgeMap`; `None` lets each
    /// iteration choose by the algorithm's own density rule (rand-HK-PR
    /// walks one vertex at a time and ignores it).
    /// When the checkpoint trips, the mass settled up to the last
    /// completed iteration comes back as [`TrippedDiffusion::partial`]
    /// with every workspace buffer already returned — the checkout is
    /// fully recyclable. With an unlimited checkpoint this is exactly
    /// [`LocalDiffusion::diffuse`], bit for bit.
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion>;

    /// Runs the work-efficient parallel algorithm from `seed`, checking
    /// scratch buffers out of `ws` (and returning them) instead of
    /// allocating. Passing a fresh [`Workspace`] and `dir = None` is
    /// exactly the free function; passing a warm one gives the same bits
    /// without the allocator traffic. Generic over the CSR backend — plain and
    /// byte-compressed adjacency produce bit-identical output because
    /// both enumerate neighbors in ascending order.
    fn diffuse<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
    ) -> Diffusion {
        match self.diffuse_guarded(pool, g, seed, ws, dir, &Checkpoint::unlimited()) {
            Ok(d) => d,
            Err(_) => unreachable!("an unlimited checkpoint never trips"),
        }
    }

    /// Runs the sequential reference implementation (fresh state).
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion;
}

impl LocalDiffusion for NibbleParams {
    fn name(&self) -> &'static str {
        "nibble"
    }
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion> {
        crate::nibble::nibble_par_ws(pool, g, seed, self, ws, dir, cp)
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        crate::nibble::nibble_seq(g, seed, self)
    }
}

impl LocalDiffusion for PrNibbleParams {
    fn name(&self) -> &'static str {
        "prnibble"
    }
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion> {
        crate::prnibble::prnibble_par_ws(pool, g, seed, self, ws, dir, cp)
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        crate::prnibble::prnibble_seq(g, seed, self)
    }
}

impl LocalDiffusion for HkprParams {
    fn name(&self) -> &'static str {
        "hkpr"
    }
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion> {
        crate::hkpr::hkpr_par_ws(pool, g, seed, self, ws, dir, cp)
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        crate::hkpr::hkpr_seq(g, seed, self)
    }
}

impl LocalDiffusion for RandHkprParams {
    fn name(&self) -> &'static str {
        "rand-hkpr"
    }
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        _dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion> {
        crate::rand_hkpr::rand_hkpr_par_ws(pool, g, seed, self, ws, cp)
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        crate::rand_hkpr::rand_hkpr_seq(g, seed, self)
    }
}

impl LocalDiffusion for EvolvingParams {
    fn name(&self) -> &'static str {
        "evolving"
    }
    /// The evolving-set process selects a *set*, not a mass vector; as a
    /// diffusion it yields the membership indicator of its best set (mass
    /// `1/|S|` per member). [`Engine::run`] bypasses the sweep for it and
    /// reports the set directly.
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion> {
        match evolving_set_par_ws(pool, g, seed, self, ws, dir, cp) {
            Ok(res) => Ok(res.indicator()),
            Err((trip, res)) => Err(TrippedDiffusion {
                trip,
                partial: res.indicator(),
            }),
        }
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        crate::evolving::evolving_set_seq(g, seed, self).indicator()
    }
}

impl LocalDiffusion for Algorithm {
    fn name(&self) -> &'static str {
        match self {
            Algorithm::Nibble(p) => p.name(),
            Algorithm::PrNibble(p) => p.name(),
            Algorithm::Hkpr(p) => p.name(),
            Algorithm::RandHkpr(p) => p.name(),
            Algorithm::Evolving(p) => p.name(),
        }
    }
    fn diffuse_guarded<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        seed: &Seed,
        ws: &mut Workspace,
        dir: Option<Direction>,
        cp: &Checkpoint,
    ) -> Result<Diffusion, TrippedDiffusion> {
        match self {
            Algorithm::Nibble(p) => p.diffuse_guarded(pool, g, seed, ws, dir, cp),
            Algorithm::PrNibble(p) => p.diffuse_guarded(pool, g, seed, ws, dir, cp),
            Algorithm::Hkpr(p) => p.diffuse_guarded(pool, g, seed, ws, dir, cp),
            Algorithm::RandHkpr(p) => p.diffuse_guarded(pool, g, seed, ws, dir, cp),
            Algorithm::Evolving(p) => p.diffuse_guarded(pool, g, seed, ws, dir, cp),
        }
    }
    fn diffuse_seq<B: CsrBackend>(&self, g: &B, seed: &Seed) -> Diffusion {
        match self {
            Algorithm::Nibble(p) => p.diffuse_seq(g, seed),
            Algorithm::PrNibble(p) => p.diffuse_seq(g, seed),
            Algorithm::Hkpr(p) => p.diffuse_seq(g, seed),
            Algorithm::RandHkpr(p) => p.diffuse_seq(g, seed),
            Algorithm::Evolving(p) => p.diffuse_seq(g, seed),
        }
    }
}

/// One clustering query: a seed set plus the algorithm (with parameters)
/// to diffuse with, optionally bounded by a [`QueryBudget`].
#[derive(Clone, Debug)]
pub struct Query {
    /// Where the diffusion starts.
    pub seed: Seed,
    /// Which diffusion to run, with its parameters.
    pub algo: Algorithm,
    /// Execution limits honored by the fallible entry points
    /// ([`Engine::try_run`], [`Engine::try_run_batch`]); unset fields
    /// fall back to the engine's per-graph default budget. The
    /// infallible [`Engine::run`] ignores budgets entirely.
    pub budget: QueryBudget,
}

impl Query {
    /// A query running `algo` from `seed`, with no limits of its own.
    pub fn new(seed: Seed, algo: Algorithm) -> Self {
        Query {
            seed,
            algo,
            budget: QueryBudget::unlimited(),
        }
    }

    /// Attaches per-query execution limits (overriding the engine's
    /// default budget field-wise).
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// One full query: diffusion + rounding, over a shared workspace. The
/// single code path behind [`crate::find_cluster`], [`Engine::run`], and
/// each batch worker — which is what makes the three agree bit-for-bit.
/// `dir` is the engine's direction pin (`None` = each algorithm's rule).
pub(crate) fn run_query<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    ws: &mut Workspace,
    seed: &Seed,
    algo: &Algorithm,
    dir: Option<Direction>,
) -> ClusterResult {
    match try_run_query(pool, g, ws, seed, algo, dir, &Checkpoint::unlimited()) {
        Ok(res) => res,
        Err(_) => unreachable!("an unlimited checkpoint never trips"),
    }
}

/// [`run_query`] under a [`Checkpoint`]: the guarded pipeline every
/// fallible entry point routes through. On a trip the error carries a
/// [`PartialResult`] — the partial diffusion vector, its work counters,
/// and a best-so-far sweep cut. Sweeping the partial vector uses an
/// *unlimited* checkpoint: its cost is bounded by the diffusion work the
/// budget already admitted, and a tripped query should still hand back
/// the best cluster its completed iterations can support. Either way the
/// workspace ends the call fully recycled (all buffers returned), so the
/// checkout is indistinguishable from one that served a completed query.
pub(crate) fn try_run_query<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    ws: &mut Workspace,
    seed: &Seed,
    algo: &Algorithm,
    dir: Option<Direction>,
    cp: &Checkpoint,
) -> Result<ClusterResult, (Trip, Box<PartialResult>)> {
    if let Algorithm::Evolving(p) = algo {
        // The evolving-set process reports its best set directly — a
        // tripped run's best-so-far *is* its normal output shape.
        return match evolving_set_par_ws(pool, g, seed, p, ws, dir, cp) {
            Ok(res) => Ok(ClusterResult::from_evolving(res)),
            Err((trip, res)) => {
                let res = ClusterResult::from_evolving(res);
                Err((
                    trip,
                    Box::new(PartialResult {
                        stats: res.diffusion.stats,
                        diffusion: Some(res.diffusion),
                        sweep: Some(res.sweep),
                    }),
                ))
            }
        };
    }
    let (diffusion, tripped) = match algo.diffuse_guarded(pool, g, seed, ws, dir, cp) {
        Ok(d) => (d, None),
        Err(t) => (t.partial, Some(t.trip)),
    };
    match tripped {
        None => match sweep_cut_par_ws(pool, g, &diffusion.p, ws, cp) {
            Ok(sweep) => Ok(ClusterResult::new(diffusion, sweep)),
            Err(trip) => Err((
                trip,
                Box::new(PartialResult {
                    stats: diffusion.stats,
                    diffusion: Some(diffusion),
                    sweep: None,
                }),
            )),
        },
        Some(trip) => {
            let sweep = sweep_cut_par_ws(pool, g, &diffusion.p, ws, &Checkpoint::unlimited())
                .unwrap_or_else(|_| unreachable!("an unlimited checkpoint never trips"));
            Err((
                trip,
                Box::new(PartialResult {
                    stats: diffusion.stats,
                    diffusion: Some(diffusion),
                    sweep: Some(sweep),
                }),
            ))
        }
    }
}

/// Expands `$body` once per storage backend, with `$g` bound to the
/// concrete graph behind the [`CsrRef`] `$csr`. A query pays one match
/// at its entry point; the generic pipeline inside each arm is
/// monomorphized, so no edge loop ever branches on the backend.
macro_rules! with_graph {
    ($csr:expr, |$g:ident| $body:expr) => {
        match $csr {
            lgc_graph::CsrRef::Plain($g) => $body,
            lgc_graph::CsrRef::Compressed($g) => $body,
        }
    };
}
pub(crate) use with_graph;

/// The graph an [`Engine`] serves: borrowed from the caller
/// ([`Engine::builder`]) or co-owned behind an `Arc` (a
/// [`Service`](crate::Service) tenant).
pub(crate) enum EngineGraph<'g> {
    Borrowed(CsrRef<'g>),
    Shared(GraphStore),
}

impl EngineGraph<'_> {
    /// The graph, for dispatch to the generic pipeline.
    pub(crate) fn csr(&self) -> CsrRef<'_> {
        match self {
            EngineGraph::Borrowed(g) => *g,
            EngineGraph::Shared(store) => store.csr(),
        }
    }
}

/// Builds an [`Engine`]; obtained from [`Engine::builder`].
pub struct EngineBuilder<'g> {
    g: CsrRef<'g>,
    threads: Option<usize>,
    pool: Option<Arc<Pool>>,
    dir: Option<Direction>,
    limits: EngineLimits,
}

impl<'g> EngineBuilder<'g> {
    /// Exact thread count for the engine's pool (`Pool::new` semantics:
    /// not clamped to the machine, so benchmark sweeps stay comparable
    /// across hosts). Default: one thread per available core.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Shares an existing pool instead of spawning one — several engines
    /// (or a whole [`Service`](crate::Service)) over one worker set.
    /// Overrides [`Self::threads`].
    pub fn shared_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Pins the traversal of every `edgeMap` in every query run through
    /// the engine: `Some(Direction::Push)` is the
    /// pre-direction-optimization engine, `Some(Direction::Pull)` the
    /// dense gather throughout. `None` (the default) lets each iteration
    /// choose by its algorithm's tuned density rule. Results are
    /// direction-invariant, so the pin is for tests and benchmarks.
    pub fn direction(mut self, dir: Option<Direction>) -> Self {
        self.dir = dir;
        self
    }

    /// Per-graph [`EngineLimits`]: the workspace byte budget (checkouts
    /// that would push resident scratch past it are denied by `try_run`
    /// and served by transient unpooled workspaces in `run`; default 4×
    /// the graph's resident bytes, clamped to `[32 MiB, 1 GiB]`), the
    /// in-flight admission cap on `try_run` (arrivals beyond it are shed
    /// with [`QueryError::Overloaded`]; default unbounded), and the
    /// default [`QueryBudget`] per-query budgets override field-wise
    /// (default unlimited).
    pub fn limits(mut self, limits: EngineLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Builds the engine (spawning the pool's workers if needed).
    pub fn build(self) -> Engine<'g> {
        let pool = self.pool.unwrap_or_else(|| spawn_pool(self.threads));
        Engine::assemble(EngineGraph::Borrowed(self.g), pool, self.dir, self.limits)
    }
}

/// A pool of exactly `threads` threads, or one per core when `None`.
pub(crate) fn spawn_pool(threads: Option<usize>) -> Arc<Pool> {
    match threads {
        Some(t) => Pool::shared(t),
        None => Arc::new(Pool::with_default_threads()),
    }
}

/// The query type: one graph (plain or compressed, borrowed or
/// `Arc`-owned), a thread [`Pool`] (its own or a shared one), a checkout
/// pool of [`Workspace`]s, a [`GraphCache`], and the graph's admission
/// control and lifecycle counters. Build once with [`Engine::builder`],
/// or register the graph in a [`Service`](crate::Service) and get it
/// from [`Service::engine`](crate::Service::engine). Query many times,
/// from as many threads as you like: every query method takes `&self`.
///
/// Queries return results bit-identical to the corresponding free
/// functions (`prnibble_par` + `sweep_cut_par`, …) on either backend —
/// workspace checkouts and cache hits are invisible in the output, only
/// in the allocator profile and the amortized per-query latency.
pub struct Engine<'g> {
    pub(crate) graph: EngineGraph<'g>,
    pub(crate) pool: Arc<Pool>,
    pub(crate) dir: Option<Direction>,
    pub(crate) workspaces: WorkspacePool,
    max_in_flight: Option<usize>,
    pub(crate) default_budget: QueryBudget,
    pub(crate) counters: LifecycleCounters,
}

impl<'g> Engine<'g> {
    /// Starts building an engine over `g` — a plain
    /// [`Graph`](lgc_graph::Graph) or a
    /// [`CsrCompressed`](lgc_graph::CsrCompressed); queries are
    /// bit-identical either way.
    pub fn builder<B: CsrBackend>(g: &'g B) -> EngineBuilder<'g> {
        EngineBuilder {
            g: g.as_csr(),
            threads: None,
            pool: None,
            dir: None,
            limits: EngineLimits::default(),
        }
    }

    /// The one constructor behind [`EngineBuilder::build`] and
    /// [`Service`](crate::Service) registration.
    pub(crate) fn assemble(
        graph: EngineGraph<'g>,
        pool: Arc<Pool>,
        dir: Option<Direction>,
        limits: EngineLimits,
    ) -> Self {
        let budget = limits.workspace_budget.unwrap_or_else(|| {
            default_workspace_budget(with_graph!(graph.csr(), |g| g.memory_bytes()))
        });
        Engine {
            graph,
            pool,
            dir,
            workspaces: WorkspacePool::new(Arc::new(GraphCache::new()), budget),
            max_in_flight: limits.max_in_flight,
            default_budget: limits.default_budget,
            counters: LifecycleCounters::default(),
        }
    }

    /// The `Arc`-owned graph of a [`Service`](crate::Service) tenant.
    pub(crate) fn store(&self) -> Option<&GraphStore> {
        match &self.graph {
            EngineGraph::Shared(s) => Some(s),
            EngineGraph::Borrowed(_) => None,
        }
    }

    /// The engine's thread pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Total threads participating in each query.
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// The engine's cache of seed-independent state (ψ tables, degree
    /// vector, graph summary) — exposed for observability; queries
    /// consult it automatically.
    pub fn cache(&self) -> &Arc<GraphCache> {
        self.workspaces.cache()
    }

    /// Number of warm workspaces parked in the checkout pool (0 on a
    /// fresh engine; grows to the peak number of concurrent queries /
    /// batch worker chunks, then stabilizes).
    pub fn warm_workspaces(&self) -> usize {
        self.workspaces.warm_count()
    }

    /// Runs one full query — diffusion plus sweep-cut rounding (the
    /// evolving-set process reports its best set directly; see
    /// [`ClusterResult::from_evolving`]) — over a workspace checked out
    /// of the engine's pool. Equivalent to [`crate::find_cluster`],
    /// minus the allocations. Callable from any thread.
    pub fn run(&self, query: &Query) -> ClusterResult {
        let _ = self.counters.enter(None); // unbounded: tracks in-flight only
        self.counters.note_admitted();
        // lgc-lint: allow(determinism) -- latency metric feeding note_completed only; never a query decision
        let t0 = Instant::now();
        let mut ws = self.workspaces.checkout();
        let out = with_graph!(self.graph.csr(), |g| run_query(
            &self.pool,
            g,
            &mut ws,
            &query.seed,
            &query.algo,
            self.dir
        ));
        self.workspaces.restore(ws);
        self.counters.note_completed(t0.elapsed());
        self.counters.exit();
        out
    }

    /// The governed form of [`Engine::run`]: validates the seed, applies
    /// admission control (in-flight cap, workspace byte budget), honors
    /// the query's [`QueryBudget`] (merged field-wise over the engine's
    /// default), and returns a typed [`QueryError`] — carrying the
    /// best-so-far [`PartialResult`] for mid-run trips — instead of
    /// running unboundedly or panicking.
    pub fn try_run(&self, query: &Query) -> Result<ClusterResult, QueryError> {
        self.check_seed(&query.seed)?;
        if let Err(occupied) = self.counters.enter(self.max_in_flight) {
            self.counters.note_shed_overloaded();
            return Err(QueryError::Overloaded {
                in_flight: occupied,
                limit: self.max_in_flight.unwrap_or(usize::MAX),
                retry_after: Some(self.counters.retry_hint()),
            });
        }
        let out = match self.workspaces.try_checkout() {
            Ok(mut ws) => {
                let out = with_graph!(self.graph.csr(), |g| self
                    .run_governed(&self.pool, g, &mut ws, query));
                self.workspaces.restore(ws);
                out
            }
            Err(e) => {
                self.counters.note_shed_workspace();
                Err(e.into())
            }
        };
        self.counters.exit();
        out
    }

    /// Rejects (and counts) a seed naming a vertex outside the graph.
    pub(crate) fn check_seed(&self, seed: &Seed) -> Result<(), QueryError> {
        let n = with_graph!(self.graph.csr(), |g| g.num_vertices());
        match seed.vertices().iter().find(|&&v| v as usize >= n) {
            Some(&vertex) => {
                self.counters.note_invalid_seed();
                Err(InvalidSeed {
                    vertex,
                    num_vertices: n,
                }
                .into())
            }
            None => Ok(()),
        }
    }

    /// Runs an admitted query under its budget (merged over the engine's
    /// default and armed now), with lifecycle accounting — the execution
    /// step shared by [`Engine::try_run`] and [`Engine::try_run_batch`].
    pub(crate) fn run_governed<B: CsrBackend>(
        &self,
        pool: &Pool,
        g: &B,
        ws: &mut Workspace,
        query: &Query,
    ) -> Result<ClusterResult, QueryError> {
        let cp = query.budget.or(&self.default_budget).checkpoint();
        self.counters.note_admitted();
        // lgc-lint: allow(determinism) -- latency metric feeding note_completed only; never a query decision
        let t0 = Instant::now();
        match try_run_query(pool, g, ws, &query.seed, &query.algo, self.dir, &cp) {
            Ok(res) => {
                self.counters.note_completed(t0.elapsed());
                Ok(res)
            }
            Err((trip, partial)) => {
                self.counters.note_trip(trip);
                Err(QueryError::from_trip(trip, partial))
            }
        }
    }

    /// Per-graph robustness counters: admitted / completed / shed /
    /// tripped / in-flight, next to the [`GraphCache`] stats.
    pub fn lifecycle_stats(&self) -> LifecycleSnapshot {
        self.counters.snapshot()
    }

    /// Runs just the diffusion of `algo` from `seed` (no sweep).
    /// Equivalent to the algorithm's `*_par` free function.
    pub fn diffuse(&self, seed: &Seed, algo: &Algorithm) -> Diffusion {
        let mut ws = self.workspaces.checkout();
        let out = with_graph!(self.graph.csr(), |g| algo
            .diffuse(&self.pool, g, seed, &mut ws, self.dir));
        self.workspaces.restore(ws);
        out
    }

    /// Computes a network community profile (§4) with PR-Nibble
    /// diffusions, one workspace checkout serving the whole
    /// seed × α × ε grid — the highest-leverage consumer of workspace
    /// recycling, since an NCP scan is hundreds of back-to-back queries.
    pub fn ncp(&self, params: &NcpParams) -> Vec<NcpPoint> {
        let mut ws = self.workspaces.checkout();
        let out = with_graph!(self.graph.csr(), |g| ncp_prnibble_ws(
            &self.pool, g, params, &mut ws, self.dir
        ));
        self.workspaces.restore(ws);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        evolving_set_par, find_cluster, hkpr_par, nibble_par, prnibble_par, rand_hkpr_par,
    };
    use lgc_graph::gen;

    fn algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::Nibble(NibbleParams {
                t_max: 12,
                eps: 1e-7,
            }),
            Algorithm::PrNibble(PrNibbleParams {
                alpha: 0.05,
                eps: 1e-6,
                ..Default::default()
            }),
            Algorithm::Hkpr(HkprParams {
                t: 6.0,
                n_levels: 12,
                eps: 1e-6,
            }),
            Algorithm::RandHkpr(RandHkprParams {
                walks: 5_000,
                ..Default::default()
            }),
            Algorithm::Evolving(EvolvingParams {
                max_steps: 25,
                rng_seed: 9,
                ..Default::default()
            }),
        ]
    }

    /// A warm engine must return exactly what the free functions return:
    /// interleave all five algorithms twice over the same engine and
    /// compare every run against a cold `find_cluster` (1 thread ⇒ fully
    /// deterministic, so "identical" means bit-identical).
    #[test]
    fn warm_engine_matches_free_functions_bitwise_at_one_thread() {
        let g = gen::rmat_graph500(9, 8, 21);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let engine = Engine::builder(&g).threads(1).build();
        for round in 0..2 {
            for algo in algorithms() {
                let warm = engine.run(&Query::new(seed.clone(), algo.clone()));
                let pool = Pool::new(1);
                let cold = find_cluster(&pool, &g, &seed, &algo);
                assert_eq!(
                    warm.diffusion.p,
                    cold.diffusion.p,
                    "{} r{round}",
                    algo.name()
                );
                assert_eq!(warm.diffusion.stats, cold.diffusion.stats);
                assert_eq!(warm.cluster, cold.cluster);
                assert_eq!(warm.conductance, cold.conductance);
                assert_eq!(warm.sweep.conductances, cold.sweep.conductances);
            }
        }
    }

    /// `engine.diffuse` is the `*_par` free function, workspace-backed.
    #[test]
    fn engine_diffuse_matches_par_free_functions() {
        let g = gen::rand_local(600, 5, 3);
        let seed = Seed::single(0);
        let engine = Engine::builder(&g).threads(1).build();
        let pool = Pool::new(1);
        for algo in algorithms() {
            let warm = engine.diffuse(&seed, &algo);
            let cold = match &algo {
                Algorithm::Nibble(p) => nibble_par(&pool, &g, &seed, p),
                Algorithm::PrNibble(p) => prnibble_par(&pool, &g, &seed, p),
                Algorithm::Hkpr(p) => hkpr_par(&pool, &g, &seed, p),
                Algorithm::RandHkpr(p) => rand_hkpr_par(&pool, &g, &seed, p),
                Algorithm::Evolving(p) => evolving_set_par(&pool, &g, &seed, p).indicator(),
            };
            assert_eq!(warm.p, cold.p, "{}", algo.name());
        }
    }

    /// The evolving-set query reports the process's best set directly.
    #[test]
    fn evolving_query_reports_best_set() {
        let g = gen::two_cliques_bridge(10);
        let params = EvolvingParams {
            max_steps: 40,
            rng_seed: 5,
            ..Default::default()
        };
        let engine = Engine::builder(&g).threads(2).build();
        let got = engine.run(&Query::new(Seed::single(0), Algorithm::Evolving(params)));
        let pool = Pool::new(2);
        let want = evolving_set_par(&pool, &g, &Seed::single(0), &params);
        assert_eq!(got.cluster, want.best_set);
        assert_eq!(got.conductance, want.best_conductance);
        assert!((got.diffusion.total_mass() - 1.0).abs() < 1e-12);
    }

    /// An engine built with a direction pin still gets the planted
    /// cluster right (pull-pinned traversals are direction-invariant).
    #[test]
    fn direction_pin_applies_to_engine_queries() {
        let g = gen::two_cliques_bridge(8);
        let engine = Engine::builder(&g)
            .threads(2)
            .direction(Some(Direction::Pull))
            .build();
        let res = engine.run(&Query::new(
            Seed::single(1),
            Algorithm::PrNibble(PrNibbleParams::default()),
        ));
        let mut cluster = res.cluster.clone();
        cluster.sort_unstable();
        assert_eq!(cluster, (0..8).collect::<Vec<u32>>());
    }

    /// Builder knobs: threads and shared pools.
    #[test]
    fn builder_threads_and_pool() {
        let g = gen::cycle(10);
        assert_eq!(Engine::builder(&g).threads(3).build().num_threads(), 3);
        let adopted = Engine::builder(&g).shared_pool(Pool::shared(2)).build();
        assert_eq!(adopted.num_threads(), 2);
    }

    /// `&self` queries: several OS threads hammer one engine over a
    /// shared 1-thread pool; every result is bit-identical to a cold
    /// single-thread free-function run.
    #[test]
    fn concurrent_queries_through_one_engine_are_bitwise_cold() {
        let g = gen::rand_local(400, 5, 6);
        let engine = Engine::builder(&g).shared_pool(Pool::shared(1)).build();
        let results: Vec<(Seed, Algorithm, ClusterResult)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|i| {
                    let engine = &engine;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for round in 0..3u32 {
                            let seed = Seed::single((i * 97 + round * 31) % 400);
                            let algo = algorithms()[(i + round) as usize % 5].clone();
                            let res = engine.run(&Query::new(seed.clone(), algo.clone()));
                            out.push((seed, algo, res));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let pool = Pool::new(1);
        for (seed, algo, got) in results {
            let want = find_cluster(&pool, &g, &seed, &algo);
            assert_eq!(got.diffusion.p, want.diffusion.p, "{}", algo.name());
            assert_eq!(got.cluster, want.cluster);
            assert_eq!(got.conductance, want.conductance);
        }
        // The checkout pool parked the in-flight workspaces for reuse.
        let warm = engine.warm_workspaces();
        assert!((1..=4).contains(&warm), "warm={warm}");
    }

    /// Two engines over two graphs sharing one `Arc<Pool>`: no second
    /// worker fleet, queries from both still correct.
    #[test]
    fn engines_share_one_pool() {
        let g1 = gen::two_cliques_bridge(9);
        let g2 = gen::cycle(24);
        let pool = Pool::shared(2);
        let e1 = Engine::builder(&g1).shared_pool(Arc::clone(&pool)).build();
        let e2 = Engine::builder(&g2).shared_pool(pool).build();
        assert_eq!(e1.num_threads(), 2);
        assert_eq!(e2.num_threads(), 2);
        assert!(std::ptr::eq(e1.pool(), e2.pool()), "same worker set");
        let q = |v| {
            Query::new(
                Seed::single(v),
                Algorithm::PrNibble(PrNibbleParams::default()),
            )
        };
        let mut cluster = e1.run(&q(2)).cluster;
        cluster.sort_unstable();
        assert_eq!(cluster, (0..9).collect::<Vec<u32>>());
        let cold = find_cluster(&Pool::new(2), &g2, &Seed::single(0), &q(0).algo);
        assert_eq!(e2.run(&q(0)).cluster, cold.cluster);
    }

    /// `run_batch` keeps its per-worker workspaces warm across calls:
    /// the second identical batch re-checks them out instead of growing
    /// the pool, and returns identical results.
    #[test]
    fn run_batch_reuses_workspaces_across_calls() {
        let g = gen::rand_local(300, 5, 2);
        let engine = Engine::builder(&g).threads(2).build();
        let queries: Vec<Query> = (0..8u32)
            .map(|i| {
                Query::new(
                    Seed::single(i * 17 % 300),
                    algorithms()[i as usize % 5].clone(),
                )
            })
            .collect();
        assert_eq!(engine.warm_workspaces(), 0);
        let a = engine.run_batch(&queries);
        let warm = engine.warm_workspaces();
        assert!(warm >= 1, "batch parked its worker workspaces");
        let b = engine.run_batch(&queries);
        assert_eq!(
            engine.warm_workspaces(),
            warm,
            "second call reused the parked workspaces instead of allocating"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.diffusion.p, y.diffusion.p);
            assert_eq!(x.cluster, y.cluster);
        }
    }

    /// The ψ cache: first HK-PR query misses, repeats hit, results stay
    /// bit-identical.
    #[test]
    fn hkpr_psi_cache_hits_after_first_query() {
        let g = gen::rand_local(250, 5, 9);
        let engine = Engine::builder(&g).threads(1).build();
        let q = Query::new(
            Seed::single(3),
            Algorithm::Hkpr(HkprParams {
                t: 5.0,
                n_levels: 10,
                eps: 1e-6,
            }),
        );
        let a = engine.run(&q);
        assert_eq!(engine.cache().psi_stats(), (0, 1));
        let b = engine.run(&q);
        assert_eq!(engine.cache().psi_stats(), (1, 1));
        assert_eq!(a.diffusion.p, b.diffusion.p);
        assert_eq!(a.sweep.conductances, b.sweep.conductances);
        // And the graph summary endpoint works.
        let s = engine.cache().summary(&g);
        assert_eq!(s.num_vertices, 250);
        assert_eq!(s.num_edges, g.num_edges());
    }

    /// `engine.ncp` equals the free `ncp_prnibble` over the same pool
    /// shape (both fully deterministic given the RNG seed).
    #[test]
    fn engine_ncp_matches_free_function() {
        let g = gen::rand_local(200, 5, 8);
        let params = NcpParams {
            num_seeds: 3,
            alphas: vec![0.1],
            epsilons: vec![1e-4],
            rng_seed: 11,
            ..Default::default()
        };
        let engine = Engine::builder(&g).threads(1).build();
        let warm = engine.ncp(&params);
        let warm_again = engine.ncp(&params);
        let pool = Pool::new(1);
        let cold = crate::ncp_prnibble(&pool, &g, &params);
        assert_eq!(warm.len(), cold.len());
        for ((a, b), c) in warm.iter().zip(&cold).zip(&warm_again) {
            assert_eq!(a.size, b.size);
            assert_eq!(a.conductance, b.conductance, "bitwise: same pipeline");
            assert_eq!(a.conductance, c.conductance, "warm rerun identical");
        }
    }
}
