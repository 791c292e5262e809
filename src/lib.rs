//! Parallel Local Graph Clustering — umbrella crate.
//!
//! A Rust reproduction of *"Parallel Local Graph Clustering"* (Shun,
//! Roosta-Khorasani, Fountoulakis, Mahoney; VLDB 2016), grown into a
//! query-serving system. The paper's five local diffusions — Nibble,
//! PR-Nibble, deterministic and randomized heat-kernel PageRank, and the
//! evolving-set process — are one family over the same frontier
//! framework, and one process serves them all, against any number of
//! resident graphs, from any number of threads.
//!
//! # Quickstart: the [`Service`]
//!
//! Register your graphs into a [`Service`] over one shared thread
//! [`Pool`]; query each graph's [`Engine`] from as many OS threads as
//! you like. Each graph keeps a checkout pool of warm workspaces (mass
//! arenas, frontier bitsets, sweep tables) and a [`GraphCache`] of
//! seed-independent state (HK-PR ψ tables, degree vector, statistics):
//!
//! ```
//! use plgc::{Algorithm, PrNibbleParams, Query, Seed, Service};
//! use plgc::Pool;
//!
//! let service = Service::builder()
//!     .pool(Pool::shared(2))
//!     .add_graph("social", plgc::graph::gen::two_cliques_bridge(16))
//!     .add_graph("mesh", plgc::graph::gen::grid_3d(6, 6, 4))
//!     .build();
//!
//! // Engine queries take `&self` — look the engine up per request.
//! let engine = service.engine("social").unwrap();
//! let result = engine.run(&Query::new(
//!     Seed::single(0),
//!     Algorithm::PrNibble(PrNibbleParams::default()),
//! ));
//! assert_eq!(result.cluster.len(), 16);
//! assert!(result.conductance < 0.01);
//!
//! // Concurrent clients just query; scratch is checked out per query.
//! std::thread::scope(|s| {
//!     for name in ["social", "mesh"] {
//!         let service = &service;
//!         s.spawn(move || {
//!             let engine = service.engine(name).unwrap();
//!             engine.run(&Query::new(
//!                 Seed::single(1),
//!                 Algorithm::PrNibble(PrNibbleParams::default()),
//!             ))
//!         });
//!     }
//! });
//! ```
//!
//! # Single graph: the [`Engine`]
//!
//! One graph, same machinery, no registry — [`Engine::builder`] borrows
//! the graph and spawns (or [shares](EngineBuilder::shared_pool)) a
//! pool. It is the same type [`Service::engine`] returns.
//! All query methods take `&self`:
//!
//! ```
//! use plgc::{Algorithm, Engine, HkprParams, Query, Seed};
//!
//! let g = plgc::graph::gen::two_cliques_bridge(16);
//! let engine = Engine::builder(&g).threads(2).build();
//! let hk = engine.run(&Query::new(
//!     Seed::single(0),
//!     Algorithm::Hkpr(HkprParams::default()),
//! ));
//! assert_eq!(hk.cluster.len(), 16);
//! ```
//!
//! Every algorithm implements the [`LocalDiffusion`] trait (seed →
//! params → diffusion over a shared [`Workspace`]), engine and service
//! results are bit-identical to the free-function pipeline — warm
//! workspace checkouts and cache hits are observationally invisible, a
//! contract enforced from multiple OS threads by
//! `tests/service_properties.rs` — and [`Engine::run_batch`] fans any
//! mix of queries across the pool with per-worker workspaces that stay
//! warm across calls (deterministic, thread-count independent).
//!
//! # One query type
//!
//! [`Engine`] is the only query type, and each operation has one public
//! form. Older names map onto it as follows:
//!
//! | Old call | Current form |
//! |---|---|
//! | `engine.handle().run(&q)` | `engine.run(&q)` |
//! | the per-backend `Copy` handle `svc.engine(name)` returned | `&Engine` |
//! | `svc.engine(name)?.as_plain()` | `svc.graph(name)` |
//! | `Engine::new(&g)` | `Engine::builder(&g).build()` |
//! | `EngineBuilder::pool(pool)` | `.threads(t)` or `.shared_pool(Arc::new(pool))` |
//! | `.workspace_budget(b)` / `.max_in_flight(n)` / `.default_budget(q)` | `.limits(EngineLimits { .. })` |
//! | `add_graph_with_budget(name, g, b)` | `add_graph_with_limits(name, g, EngineLimits { workspace_budget: Some(b), .. })` |
//! | `svc.names()` | `svc.graph_names()` (sorted) |
//! | `store.as_compressed()` | `match store { GraphStore::Compressed(g) => .., .. }` |
//! | `run_batch(&pool, &g, &qs)` / `try_run_batch` | `engine.run_batch(&qs)` / `engine.try_run_batch(&qs)` |
//! | `find_cluster(&pool, &g, &seed, &algo)` | `engine.run(&Query::new(seed, algo))` |
//! | `prnibble_par` / `nibble_par` / `hkpr_par` / `rand_hkpr_par` | `engine.diffuse(&seed, &Algorithm::…(p))` |
//! | `evolving_set_par(&pool, &g, &seed, &p)` | `engine.run(&Query::new(seed, Algorithm::Evolving(p)))` |
//! | `ncp_prnibble(&pool, &g, &params)` | `engine.ncp(&params)` |
//!
//! `find_cluster` and the `*_par` / `*_seq` free functions remain as
//! the cold references the tests compare against: each runs the
//! identical code path over a fresh, throwaway workspace.
//!
//! # Direction knobs
//!
//! Each diffusion picks sparse push or dense pull per `edgeMap` by its
//! own tuned `|F| + vol(F) > m/k` rule, and its mass vectors switch to
//! dense storage at `n/8`; neither is a parameter any more. The one
//! remaining knob pins the traversal for tests and benchmarks:
//!
//! | Old item | Current form |
//! |---|---|
//! | `DirectionParams::push_only()` / `pull_only()` / `default()` | `Some(Direction::Push)` / `Some(Direction::Pull)` / `None` |
//! | `DirectionMode` | `Option<Direction>` (`None` = auto) |
//! | `DirectionParams::choose(&g, len, vol)` | `ligra::choose_direction(pin, &g, len, vol, k)` |
//! | `NibbleParams::dir`, `PrNibbleParams::dir`, `HkprParams::dir`, `EvolvingParams::dir`, `NcpParams::dir` | `Engine::builder(&g).direction(pin)` |
//! | `LocalDiffusion::with_direction(dir)` | the `dir` argument of `LocalDiffusion::diffuse` |
//! | `ServiceBuilder::direction(dir)` | `Engine::builder(&g).direction(pin)` (services always choose per iteration) |
//! | `PrNibbleParams::dense_frac` | none: `MassMap::DEFAULT_DENSE_FRACTION`, like the other diffusions |
//! | the wire `direction` blocks and `dense_frac` field | none: protocol version 2 dropped them |
//!
//! # Storage backends and memory budgets
//!
//! Graph storage is pluggable behind the [`CsrBackend`] trait: plain CSR
//! ([`Graph`], one `u32` per directed edge) or byte-compressed CSR
//! ([`CsrCompressed`], Ligra+-style delta + varint coding decoded inside
//! the traversal kernels — typically 2–3× fewer adjacency bytes on
//! power-law graphs). Every engine and service query is bit-identical
//! across backends; both decode neighbors in ascending order, so even
//! the dense-pull traversals stay deterministic. Per-graph scratch is
//! bounded in bytes, not workspace counts: each graph's checkout pool
//! has a byte budget (default 4× the graph, clamped to
//! `[32 MiB, 1 GiB]`), and `try_run` surfaces budget exhaustion as a
//! typed [`WorkspaceBudgetExceeded`] back-pressure error while plain
//! `run` degrades to transient scratch:
//!
//! ```
//! use plgc::{Algorithm, CsrCompressed, EngineLimits, PrNibbleParams, Query, Seed, Service};
//!
//! let g = plgc::graph::gen::two_cliques_bridge(16);
//! let compact = CsrCompressed::from_graph(&g);
//! let mut service = Service::builder()
//!     .threads(2)
//!     .add_graph("plain", g)               // plain CSR backend
//!     .add_graph("compact", compact)       // byte-compressed backend
//!     .build();
//! // Explicit workspace byte budget for a memory-tight tenant:
//! let tight = EngineLimits { workspace_budget: Some(8 << 20), ..Default::default() };
//! service.add_graph_with_limits("tiny", plgc::graph::gen::cycle(64), tight);
//! let q = Query::new(Seed::single(0), Algorithm::PrNibble(PrNibbleParams::default()));
//! let a = service.engine("plain").unwrap().run(&q);
//! let b = service.engine("compact").unwrap().run(&q);
//! assert_eq!(a.cluster, b.cluster); // bit-identical across backends
//! assert!(service.engine("tiny").unwrap().try_run(&q).is_ok());
//! ```
//!
//! # Robustness: deadlines, cancellation, budgets, admission control
//!
//! A server cannot afford one runaway query: a pathological `(seed, ε)`
//! pair can push a "local" diffusion into touching most of a billion-edge
//! graph. Every fallible entry point ([`Engine::try_run`],
//! [`Engine::try_run_batch`], on a built engine or a [`Service`] one) is
//! therefore *governed*:
//!
//! * **Budgets.** A [`QueryBudget`] bounds a query by wall-clock
//!   deadline, by deterministic work counters (pushed mass updates,
//!   traversed edges), or until a shared [`CancelToken`] flips. Budgets
//!   ride on the [`Query`] and merge field-wise over the engine's
//!   per-graph default ([`EngineLimits::default_budget`], set with
//!   [`EngineBuilder::limits`]). Checks are cooperative — one atomic load and a
//!   coarse clock read per frontier iteration, never per edge — so the
//!   hot kernels are untouched and *completed* runs are bit-identical
//!   to unbudgeted ones.
//! * **Typed trips with partial results.** A tripped query returns
//!   [`QueryError`] carrying a [`PartialResult`]: the mass settled up to
//!   the last completed iteration, a best-so-far sweep cut over it, and
//!   the work counters at the stop — never a panic, and the workspace
//!   checkout is recycled as if the query had completed. Work-budget
//!   trips are deterministic (the counters are bit-identical across
//!   thread counts and storage backends); deadline and cancellation
//!   trips land wherever the clock does.
//! * **Admission control.** Per-graph in-flight caps
//!   ([`EngineLimits::max_in_flight`]) shed excess arrivals with
//!   [`QueryError::Overloaded`] and a retry-after hint (the graph's mean
//!   completed-query latency); seeds are validated against the graph
//!   before any work ([`QueryError::InvalidSeed`]); workspace byte
//!   budgets refuse checkouts that would overshoot
//!   ([`QueryError::WorkspaceBudgetExceeded`]). Transient refusals
//!   answer [`QueryError::is_retryable`].
//! * **Counters.** Each graph keeps [`LifecycleSnapshot`] robustness
//!   counters (admitted / completed / shed / tripped / in-flight) next
//!   to its [`GraphCache`] stats — [`Engine::lifecycle_stats`],
//!   [`Service::lifecycle`].
//!
//! ```
//! use plgc::{Algorithm, Engine, EngineLimits, PrNibbleParams, Query, QueryBudget, QueryError, Seed};
//! use std::time::Duration;
//!
//! let g = plgc::graph::gen::rand_local(500, 5, 3);
//! let engine = Engine::builder(&g)
//!     .threads(2)
//!     .limits(EngineLimits {
//!         default_budget: QueryBudget::unlimited().with_deadline(Duration::from_secs(30)),
//!         max_in_flight: Some(64),
//!         ..Default::default()
//!     })
//!     .build();
//! // A tight work cap trips deterministically, with the partial result:
//! let q = Query::new(
//!     Seed::single(7),
//!     Algorithm::PrNibble(PrNibbleParams { eps: 1e-7, ..Default::default() }),
//! )
//! .with_budget(QueryBudget::unlimited().with_max_edges_traversed(10));
//! match engine.try_run(&q) {
//!     Err(QueryError::WorkBudgetExceeded(partial)) => {
//!         assert!(partial.stats.edges_traversed >= 10);
//!         assert!(partial.cluster().is_some(), "best-so-far cut");
//!     }
//!     other => panic!("expected a work-budget trip, got {other:?}"),
//! }
//! // The engine is fully recovered: the same query, unbudgeted, completes.
//! assert!(engine.try_run(&q.clone().with_budget(QueryBudget::unlimited())).is_ok());
//! assert_eq!(engine.lifecycle_stats().work_tripped, 1);
//! ```
//!
//! The infallible [`Engine::run`] keeps its run-to-completion semantics
//! — budgets and admission control apply only to the `try_` entry
//! points. The `fault-inject` feature adds a deterministic fault plan to
//! [`QueryBudget`] for harness use (trip exactly at the k-th checkpoint);
//! `tests/fault_properties.rs` drives it across all five algorithms,
//! both CSR backends, and 1–4 threads to prove no-panic, full pool
//! recovery, and post-fault bitwise determinism.
//!
//! # Refinement & pipelines: max-flow `improve` and `find_k_clusters`
//!
//! The diffusions *find* low-conductance cuts; they never *improve*
//! them. [`Engine::improve`] adds the flow stage the local-clustering
//! literature pairs with every spectral method: an MQI-style iterated
//! max-flow refinement (hand-rolled Dinic in the [`flow`] crate) that
//! takes any sweep cut and returns a subset with conductance **≤ the
//! input's** — provably and deterministically, with [`QueryBudget`]
//! checkpoints ticking inside the flow solver's phase loop
//! ([`Engine::try_improve`]; a trip returns the unrefined cut as a typed
//! [`PartialResult`]). On top of refinement sit the first whole-graph
//! pipelines: [`Engine::compute_embedding`] sweeps a geomspace ρ grid of
//! PR-Nibble queries per seed through [`Engine::run_batch`] (warm
//! workspaces, shared [`GraphCache`]), refines each cut, and keeps the
//! minimum-conductance envelope — recording the actually-achieved grid
//! in [`RhoGrid`] so budget truncation is visible, never silent — and
//! [`Engine::find_k_clusters`] agglomerates every vertex's embedding
//! into `k` groups by pairwise distance (see
//! `examples/community_detection.rs` for exact planted-partition
//! recovery on an SBM):
//!
//! ```
//! use plgc::{Algorithm, Engine, PrNibbleParams, Query, Seed};
//!
//! // Two 12-cliques joined by one bridge edge {0, 12}.
//! let g = plgc::graph::gen::two_cliques_bridge(12);
//! let engine = Engine::builder(&g).threads(2).build();
//!
//! // Diffuse → sweep: PR-Nibble's sweep cut already nails this planted
//! // cut, and refinement certifies it as flow-optimal (a fixed point).
//! let q = Query::new(Seed::single(5), Algorithm::PrNibble(PrNibbleParams::default()));
//! let result = engine.run(&q);
//! let mut cluster = result.cluster.clone(); // sweep order → sorted
//! cluster.sort_unstable();
//! assert_eq!(cluster, (0..12).collect::<Vec<u32>>());
//! assert_eq!(engine.improve(&result).cluster, cluster);
//!
//! // A sloppy analyst cut — nine clique-A vertices plus three
//! // intruders from across the bridge — is what MQI repairs: improve
//! // strips the intruders and the conductance strictly drops.
//! let sloppy: Vec<u32> = (3..15).collect();
//! let refined = engine.improve_set(&sloppy);
//! assert_eq!(refined.cluster, (3..12).collect::<Vec<u32>>());
//! assert!(refined.conductance < g.conductance(&sloppy));
//! assert_eq!(engine.lifecycle_stats().refine_improved, 1);
//! ```
//!
//! Refinement counters (`refined`, `refine_improved`) ride the same
//! [`LifecycleSnapshot`] as the robustness counters and render on the
//! server's METRICS page.
//!
//! # Serving over the network: `lgc-server`
//!
//! The [`server`] crate puts a real TCP front door on a [`Service`]:
//! the `lgc-server` binary speaks a length-prefixed binary protocol
//! (spec: `crates/server/PROTOCOL.md`) built on `std::net` only. Each
//! connection gets a reader and a writer thread; queries funnel through
//! a bounded **two-class priority scheduler** (interactive dispatches
//! ahead of bulk, bulk inherits a server work budget so scans keep
//! yielding through the checkpoint machinery), and three explicit
//! backpressure gates shed overload with typed, retryable errors
//! carrying `retry_after` hints: the per-connection in-flight cap, the
//! per-class queue bound, and the engine's own admission control. A
//! `METRICS` request (or `lgc-server --metrics-once`) renders
//! Prometheus-style text: per-tenant × per-class latency quantiles,
//! queue depths, [`GraphCache`] hit rates, and [`LifecycleSnapshot`]
//! counters. Responses are **bit-identical** to direct [`Engine`] runs
//! of the same queries — `f64`s travel as raw bits — a contract the
//! loopback suite (`crates/server/tests/loopback.rs`) enforces over
//! real sockets with concurrent mixed-tenant clients:
//!
//! ```
//! use plgc::server::{client::Client, Priority, Server, ServerConfig};
//! use plgc::{Algorithm, PrNibbleParams, Query, Seed, Service};
//! use std::sync::Arc;
//!
//! let mut svc = Service::builder().threads(1).build();
//! svc.add_graph("social", plgc::graph::gen::two_cliques_bridge(16));
//! let server = Server::bind(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! assert_eq!(client.list().unwrap(), vec!["social"]);
//! let result = client
//!     .query("social", Priority::Interactive, &Query::new(
//!         Seed::single(0),
//!         Algorithm::PrNibble(PrNibbleParams::default()),
//!     ))
//!     .unwrap()   // transport ok
//!     .unwrap();  // server answered with a result, not a typed error
//! assert_eq!(result.cluster.len(), 16);
//! server.shutdown();
//! ```
//!
//! `examples/server.rs` remains the in-process, no-sockets simulation
//! of the same serving loop; `bench_server` (in `crates/bench`) records
//! sustained qps and p50/p95/p99 per tenant class — including the
//! interactive-vs-bulk A/B that measures what the priority scheduler
//! buys — to `BENCH_server.json`.
//!
//! # Workspace layout
//!
//! * [`parallel`] — thread pool and work-depth primitives (prefix sums,
//!   filter, parallel sorts, atomic `f64`, bitsets).
//! * [`sparse`] — sequential and phase-concurrent sparse sets, plus the
//!   adaptive dense/sparse `MassMap`.
//! * [`graph`] — CSR graphs, generators, conductance utilities, I/O.
//! * [`ligra`] — `vertexSubset` / `vertexMap` / direction-optimizing
//!   `edgeMap` frontier framework.
//! * [`flow`] — hand-rolled Dinic max-flow and the MQI-style
//!   `improve` refinement stage.
//! * [`cluster`] — the paper's algorithms behind the [`Engine`] and
//!   [`Service`]: Nibble, PR-Nibble, HK-PR, rand-HK-PR, evolving sets,
//!   sweep cuts, and NCP plots.
//! * [`server`] — the TCP front door: frame codec, wire types, the
//!   two-class scheduler, per-tenant metrics, the blocking client, and
//!   the `lgc-server` binary.
//!
//! # Correctness tooling
//!
//! The guarantees above — bitwise-deterministic results, bounded
//! interruptible queries, a serving layer that degrades instead of
//! dying — are invariants of *this* codebase, not of Rust, so the
//! workspace audits them mechanically:
//!
//! * **`lgc-lint`** (`cargo run -p lgc-lint`, a required CI gate) is a
//!   dependency-free source auditor with five rules: every `unsafe`
//!   site states its soundness invariant (`unsafe-safety`); atomics
//!   live only in files with a documented ordering protocol and
//!   `SeqCst` is banned by default (`atomic-ordering`); no hash-order
//!   iteration or wall-clock reads feed query results (`determinism`);
//!   every diffusion frontier loop carries a `Checkpoint` tick
//!   (`checkpoint-tick`); and `lgc-server` non-test code never panics
//!   (`no-panic-in-server`). Reviewed exceptions use
//!   `// lgc-lint: allow(<rule>) -- <reason>` pragmas — the reason is
//!   mandatory. See `crates/lint/README.md` for the rule catalog.
//! * **`clippy::undocumented_unsafe_blocks`** is enabled
//!   workspace-wide (denied in CI), double-covering the SAFETY rule at
//!   the compiler level; crates that need no `unsafe` — the server,
//!   flow, bench, and the offline shims — pin that down with
//!   `#![forbid(unsafe_code)]`.
//! * **Miri** (nightly CI job) runs the compressed-CSR decoder and
//!   backend-equivalence suites plus the sparse-set model tests under
//!   the interpreter, checking the unaligned-read / `STREAM_PAD`
//!   invariants dynamically.
//! * **ThreadSanitizer** (nightly CI job, `-Zsanitizer=thread`) runs
//!   the `lgc-parallel` and `lgc-sparse` suites — the pool's job
//!   protocol, `UnsafeSlice` disjoint writes, and the phase-concurrent
//!   accumulators — under a data-race detector.

pub use lgc_core as cluster;
pub use lgc_flow as flow;
pub use lgc_graph as graph;
pub use lgc_ligra as ligra;
pub use lgc_parallel as parallel;
pub use lgc_server as server;
pub use lgc_sparse as sparse;

#[cfg(feature = "fault-inject")]
pub use lgc_core::FaultPlan;
pub use lgc_core::{
    evolving_set_par, evolving_set_seq, find_cluster, hkpr_par, hkpr_seq, ncp_prnibble, nibble_par,
    nibble_seq, nibble_with_target_par, prnibble_par, prnibble_seq, rand_hkpr_par, rand_hkpr_seq,
    sweep_cut_par, sweep_cut_seq, Algorithm, CancelToken, Checkpoint, ClusterResult, Diffusion,
    DiffusionStats, Direction, Embedding, Engine, EngineBuilder, EngineLimits, EvolvingParams,
    GraphCache, GraphStore, GraphSummary, HkprParams, InvalidSeed, KClusters, LifecycleSnapshot,
    LocalDiffusion, NcpParams, NibbleParams, PartialResult, PipelineParams, PrNibbleParams,
    PushRule, Query, QueryBudget, QueryError, RandHkprParams, RefineStats, RefinedCut, RhoGrid,
    Seed, Service, ServiceBuilder, SweepCut, Trip, TrippedDiffusion, TrippedRefinement, Workspace,
    WorkspaceBudgetExceeded, RETRY_AFTER_FLOOR,
};
pub use lgc_graph::{
    induced_cut_subgraph, CsrBackend, CsrCompressed, CsrPlain, CsrRef, CutSubgraph, Graph,
    GraphBuilder,
};
pub use lgc_parallel::Pool;
