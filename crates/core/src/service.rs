//! The multi-graph query service — one process front door for the
//! paper's "many analysts, one shared-memory machine" workload.
//!
//! The software-survey framing this reproduces (Fountoulakis, Gleich,
//! Mahoney 2018) is a *service*: many users issue local-cluster queries
//! against a handful of resident graphs, and the system's job is to keep
//! per-query latency low without dedicating a machine (or a worker
//! fleet) to each graph. [`Service`] is that shape in one type:
//!
//! * graphs are **registered by name** at build time (or hot-added
//!   later), each getting its own workspace checkout pool and
//!   [`GraphCache`] of seed-independent state;
//! * all of them share **one** thread [`Pool`] (an `Arc`, so the service
//!   can also share it with anything else in the process);
//! * each graph is served by an [`Engine`] — any number of OS threads
//!   can call [`Service::engine`] and [`Engine::run`] concurrently, with
//!   scratch checked out per query and contention confined to a
//!   freelist pop/push.
//!
//! ```
//! use lgc_core::{Algorithm, PrNibbleParams, Query, Seed, Service};
//! use lgc_parallel::Pool;
//!
//! let service = Service::builder()
//!     .pool(Pool::shared(2))
//!     .add_graph("cliques", lgc_graph::gen::two_cliques_bridge(10))
//!     .add_graph("cycle", lgc_graph::gen::cycle(32))
//!     .build();
//!
//! let engine = service.engine("cliques").unwrap();
//! let res = engine.run(&Query::new(
//!     Seed::single(0),
//!     Algorithm::PrNibble(PrNibbleParams::default()),
//! ));
//! assert_eq!(res.cluster.len(), 10);
//! ```
//!
//! The determinism contract survives the sharing: a query answered
//! through a warm, concurrently-hammered service is bit-identical to the
//! same query on a cold single-thread [`Engine`]
//! (`tests/service_properties.rs` enforces exactly that from multiple OS
//! threads).

use crate::budget::{EngineLimits, LifecycleSnapshot};
use crate::cache::{GraphCache, GraphSummary};
use crate::engine::{spawn_pool, with_graph, Engine, EngineGraph};
use lgc_graph::{CsrBackend, CsrCompressed, CsrRef, Graph};
use lgc_ligra::DirectionParams;
use lgc_parallel::Pool;
use std::sync::Arc;

/// A registered graph in either storage backend: plain CSR ([`Graph`])
/// or byte-compressed CSR ([`CsrCompressed`]). Both answer every query
/// bit-identically; compressed storage trades a decode per traversed
/// edge for a fraction of the adjacency bytes. `From` impls let
/// [`Service::add_graph`] accept any of `Graph`, `CsrCompressed`, or
/// `Arc`s of either.
#[derive(Clone)]
pub enum GraphStore {
    /// Plain CSR adjacency (`u32` per neighbor).
    Plain(Arc<Graph>),
    /// Delta + varint byte-coded adjacency.
    Compressed(Arc<CsrCompressed>),
}

impl From<Graph> for GraphStore {
    fn from(g: Graph) -> Self {
        GraphStore::Plain(Arc::new(g))
    }
}
impl From<Arc<Graph>> for GraphStore {
    fn from(g: Arc<Graph>) -> Self {
        GraphStore::Plain(g)
    }
}
impl From<CsrCompressed> for GraphStore {
    fn from(g: CsrCompressed) -> Self {
        GraphStore::Compressed(Arc::new(g))
    }
}
impl From<Arc<CsrCompressed>> for GraphStore {
    fn from(g: Arc<CsrCompressed>) -> Self {
        GraphStore::Compressed(g)
    }
}

impl GraphStore {
    /// The graph, for dispatch to the generic pipeline.
    pub(crate) fn csr(&self) -> CsrRef<'_> {
        match self {
            GraphStore::Plain(g) => CsrRef::Plain(g),
            GraphStore::Compressed(g) => CsrRef::Compressed(g),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        with_graph!(self.csr(), |g| g.num_vertices())
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        with_graph!(self.csr(), |g| g.num_edges())
    }

    /// Total resident bytes of the graph structure.
    pub fn memory_bytes(&self) -> usize {
        with_graph!(self.csr(), |g| g.memory_bytes())
    }

    /// The plain-CSR graph, if that is the backend.
    pub fn as_plain(&self) -> Option<&Arc<Graph>> {
        match self {
            GraphStore::Plain(g) => Some(g),
            GraphStore::Compressed(_) => None,
        }
    }
}

/// A shared-runtime, concurrent-query front door over any number of
/// named graphs — see the module docs. Build with [`Service::builder`].
///
/// `Service` is `Send + Sync`; wrap it in an `Arc` (or borrow it from a
/// scope) and query away from every thread you have.
pub struct Service {
    pool: Arc<Pool>,
    dir: Option<DirectionParams>,
    graphs: Vec<(String, Engine<'static>)>,
}

impl Service {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder {
            pool: None,
            threads: None,
            dir: None,
            graphs: Vec::new(),
        }
    }

    /// The engine serving the graph registered as `name`, or `None` if
    /// no such graph. Its query methods take `&self`: grab it per
    /// request, or keep the reference around — both are fine. Results
    /// are bit-identical across storage backends.
    pub fn engine(&self, name: &str) -> Option<&Engine<'static>> {
        self.graphs.iter().find(|(n, _)| n == name).map(|(_, e)| e)
    }

    /// The registered graph named `name`, if it uses the plain-CSR
    /// backend ([`Service::store`] reaches either backend).
    pub fn graph(&self, name: &str) -> Option<&Arc<Graph>> {
        self.store(name).and_then(GraphStore::as_plain)
    }

    /// The storage backend of the graph named `name`.
    pub fn store(&self, name: &str) -> Option<&GraphStore> {
        self.engine(name).and_then(Engine::store)
    }

    /// The seed-independent cache of the graph named `name` —
    /// observability (ψ hit rates) and warm introspection.
    pub fn cache(&self, name: &str) -> Option<&Arc<GraphCache>> {
        self.engine(name).map(Engine::cache)
    }

    /// Robustness counters of the graph named `name` — admitted /
    /// completed / shed / tripped / in-flight, next to the cache and
    /// summary endpoints. A tenant dashboard polls this for shed rates.
    pub fn lifecycle(&self, name: &str) -> Option<LifecycleSnapshot> {
        self.engine(name).map(Engine::lifecycle_stats)
    }

    /// Summary statistics of the graph named `name`, served from its
    /// cache (computed on first request, then free). Includes the
    /// backend's resident byte counts, so a deployment can compare plain
    /// vs compressed storage per graph.
    pub fn summary(&self, name: &str) -> Option<GraphSummary> {
        self.engine(name)
            .map(|e| with_graph!(e.graph.csr(), |g| e.cache().summary(g)))
    }

    /// Registered graph names, sorted — the listing endpoint for
    /// serving layers (the `lgc-server` `LIST` request and metrics
    /// page), where a stable order matters more than registration
    /// order.
    pub fn graph_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.graphs.iter().map(|(n, _)| n.clone()).collect();
        v.sort_unstable();
        v
    }

    /// Number of registered graphs.
    pub fn num_graphs(&self) -> usize {
        self.graphs.len()
    }

    /// The shared thread pool every registered graph queries through.
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Registers (or hot-swaps) a graph after build — a [`Graph`], a
    /// [`CsrCompressed`], or an `Arc` of either. Replacing a name drops
    /// the old graph's engine state — its workspace pool and cache
    /// belong to the graph they were built for. The workspace byte
    /// budget defaults to 4× the graph's resident bytes (clamped to
    /// `[32 MiB, 1 GiB]`); see [`Service::add_graph_with_limits`].
    pub fn add_graph(&mut self, name: impl Into<String>, graph: impl Into<GraphStore>) {
        self.insert(name.into(), graph.into(), EngineLimits::default());
    }

    /// [`Service::add_graph`] with the full per-graph [`EngineLimits`]
    /// bundle: workspace byte budget, in-flight admission cap, and the
    /// default [`QueryBudget`](crate::QueryBudget) every query on this
    /// graph inherits (per-query budgets override it field-wise).
    pub fn add_graph_with_limits(
        &mut self,
        name: impl Into<String>,
        graph: impl Into<GraphStore>,
        limits: EngineLimits,
    ) {
        self.insert(name.into(), graph.into(), limits);
    }

    /// [`Service::add_graph`] for graphs the caller also keeps (the
    /// service holds graphs behind `Arc`).
    pub fn add_graph_shared(&mut self, name: impl Into<String>, graph: Arc<Graph>) {
        self.add_graph(name, graph);
    }

    fn insert(&mut self, name: String, store: GraphStore, limits: EngineLimits) {
        let engine = Engine::assemble(
            EngineGraph::Shared(store),
            Arc::clone(&self.pool),
            self.dir,
            limits,
        );
        match self.graphs.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = engine,
            None => self.graphs.push((name, engine)),
        }
    }

    /// Unregisters a graph; returns its store if it was registered.
    pub fn remove_graph(&mut self, name: &str) -> Option<GraphStore> {
        let i = self.graphs.iter().position(|(n, _)| n == name)?;
        match self.graphs.remove(i).1.graph {
            EngineGraph::Shared(store) => Some(store),
            EngineGraph::Borrowed(_) => None,
        }
    }
}

/// Builds a [`Service`]; obtained from [`Service::builder`].
pub struct ServiceBuilder {
    pool: Option<Arc<Pool>>,
    threads: Option<usize>,
    dir: Option<DirectionParams>,
    graphs: Vec<(String, GraphStore, EngineLimits)>,
}

impl ServiceBuilder {
    /// Adopts a shared pool (e.g. [`Pool::shared`]) — the usual way, so
    /// the service and the rest of the process agree on one worker set.
    pub fn pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Spawns a fresh pool of exactly `threads` threads at build time
    /// (ignored if [`Self::pool`] was given). Default: machine-sized.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Service-wide direction-optimization override, applied to every
    /// query on every graph (same semantics as
    /// [`EngineBuilder::direction`](crate::EngineBuilder::direction)).
    pub fn direction(mut self, dir: DirectionParams) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Registers a graph under `name` — a [`Graph`], a
    /// [`CsrCompressed`], or an `Arc` of either.
    ///
    /// # Panics
    /// If `name` is already registered (two tenants silently sharing a
    /// name is a deployment bug; post-build [`Service::add_graph`] is
    /// the intentional-replacement path).
    pub fn add_graph(self, name: impl Into<String>, graph: impl Into<GraphStore>) -> Self {
        self.push(name.into(), graph.into(), EngineLimits::default())
    }

    /// [`Self::add_graph`] with the full per-graph [`EngineLimits`]
    /// bundle (see [`Service::add_graph_with_limits`]).
    ///
    /// # Panics
    /// If `name` is already registered.
    pub fn add_graph_with_limits(
        self,
        name: impl Into<String>,
        graph: impl Into<GraphStore>,
        limits: EngineLimits,
    ) -> Self {
        self.push(name.into(), graph.into(), limits)
    }

    /// [`Self::add_graph`] for graphs the caller also keeps.
    ///
    /// # Panics
    /// If `name` is already registered.
    pub fn add_graph_shared(self, name: impl Into<String>, graph: Arc<Graph>) -> Self {
        self.add_graph(name, graph)
    }

    fn push(mut self, name: String, store: GraphStore, limits: EngineLimits) -> Self {
        assert!(
            !self.graphs.iter().any(|(n, _, _)| *n == name),
            "graph {name:?} registered twice"
        );
        self.graphs.push((name, store, limits));
        self
    }

    /// Builds the service (spawning the pool's workers if none was
    /// adopted).
    pub fn build(self) -> Service {
        let pool = self.pool.unwrap_or_else(|| spawn_pool(self.threads));
        let mut svc = Service {
            pool,
            dir: self.dir,
            graphs: Vec::new(),
        };
        for (name, store, limits) in self.graphs {
            svc.insert(name, store, limits);
        }
        svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_cluster, Algorithm, PrNibbleParams, Query, Seed};
    use lgc_graph::gen;

    fn two_graph_service(threads: usize) -> Service {
        Service::builder()
            .pool(Pool::shared(threads))
            .add_graph("cliques", gen::two_cliques_bridge(10))
            .add_graph("local", gen::rand_local(200, 5, 3))
            .build()
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Service>();
    }

    #[test]
    fn registration_and_lookup() {
        let svc = two_graph_service(1);
        assert_eq!(svc.num_graphs(), 2);
        assert_eq!(svc.graph_names(), vec!["cliques", "local"]);
        assert!(svc.engine("cliques").is_some());
        assert!(svc.engine("absent").is_none());
        assert_eq!(svc.graph("cliques").unwrap().num_vertices(), 20);
        let s = svc.summary("local").unwrap();
        assert_eq!(s.num_vertices, 200);
        assert!(svc.summary("absent").is_none());
    }

    #[test]
    fn graph_names_listing_is_sorted() {
        let mut svc = Service::builder()
            .pool(Pool::shared(1))
            .add_graph("zeta", gen::cycle(4))
            .add_graph("alpha", gen::cycle(5))
            .build();
        svc.add_graph("mid", gen::star(3));
        assert_eq!(svc.graph_names(), vec!["alpha", "mid", "zeta"]);
        svc.remove_graph("mid");
        assert_eq!(svc.graph_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn queries_match_cold_engine_runs() {
        let svc = two_graph_service(2);
        let q = Query::new(
            Seed::single(1),
            Algorithm::PrNibble(PrNibbleParams::default()),
        );
        for name in ["cliques", "local"] {
            let engine = svc.engine(name).unwrap();
            assert_eq!(engine.num_threads(), 2);
            let got = engine.run(&q);
            let pool = Pool::new(2);
            let want = find_cluster(&pool, svc.graph(name).unwrap().as_ref(), &q.seed, &q.algo);
            assert_eq!(got.cluster, want.cluster, "{name}");
            assert_eq!(got.conductance, want.conductance);
        }
    }

    #[test]
    fn all_graphs_share_the_one_pool() {
        let pool = Pool::shared(3);
        let svc = Service::builder()
            .pool(Arc::clone(&pool))
            .add_graph("a", gen::cycle(12))
            .add_graph("b", gen::cycle(16))
            .build();
        assert!(Arc::ptr_eq(svc.pool(), &pool));
        for name in ["a", "b"] {
            assert!(std::ptr::eq(
                svc.engine(name).unwrap().pool(),
                pool.as_ref()
            ));
        }
    }

    #[test]
    fn hot_add_replace_and_remove() {
        let mut svc = two_graph_service(1);
        svc.add_graph("extra", gen::star(6));
        assert_eq!(svc.num_graphs(), 3);
        assert_eq!(svc.graph("extra").unwrap().num_vertices(), 6);
        // Replacing a name swaps the graph and resets its engine state.
        svc.add_graph("extra", gen::star(9));
        assert_eq!(svc.num_graphs(), 3);
        assert_eq!(svc.graph("extra").unwrap().num_vertices(), 9);
        let removed = svc.remove_graph("extra").unwrap();
        assert_eq!(removed.num_vertices(), 9);
        assert_eq!(svc.num_graphs(), 2);
        assert!(svc.remove_graph("extra").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn builder_rejects_duplicate_names() {
        let _ = Service::builder()
            .add_graph("dup", gen::cycle(4))
            .add_graph("dup", gen::cycle(5));
    }

    #[test]
    fn direction_override_reaches_every_graph() {
        let svc = Service::builder()
            .pool(Pool::shared(1))
            .direction(lgc_ligra::DirectionParams::pull_only())
            .add_graph("g", gen::two_cliques_bridge(8))
            .build();
        let res = svc.engine("g").unwrap().run(&Query::new(
            Seed::single(1),
            Algorithm::PrNibble(PrNibbleParams::default()),
        ));
        let mut cluster = res.cluster;
        cluster.sort_unstable();
        assert_eq!(cluster, (0..8).collect::<Vec<u32>>());
    }
}
