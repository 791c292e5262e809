//! The traced run: per-layer numbers from spans the benchmark records
//! around its calls into each crate's public functions.
//!
//! Spans live in memory (`Tracer`) and are written as JSON Lines at exit
//! when a path is given. Every layer is measured on the workload's own
//! job list: the query replay splits `Engine::run` into `diffuse` and
//! `sweep_cut_par`, the micro-measurements time `edge_map_indexed`,
//! `edge_map_dense_gather`, `MassMap::add`, `merge_sort_by` and
//! `Pool::run` on inputs sized by the replay's supports, and a short
//! loopback session measures the server.

use crate::report::{ratio, Json, Sample};
use crate::served;
use crate::setup::{
    bulk_jobs, interactive_jobs, matches_reference, Job, Rng, World, BULK_ROUND, MESH, SOCIAL,
};
use crate::workloads::{ms, Metric, Outcome, ProcStat};
use lgc_core::{sweep_cut_par, ClusterResult, DiffusionStats, Engine, Service};
use lgc_graph::CsrBackend;
use lgc_ligra::{edge_map_dense_gather, edge_map_indexed, Frontier, VertexSubset};
use lgc_parallel::{atomic_f64_fetch_add, merge_sort_by, Pool};
use lgc_server::Priority;
use lgc_sparse::MassMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: a named interval, the span that caused it, and
/// the replayed job it belongs to (if any).
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    query: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, query: Option<usize>) -> usize {
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration.
    fn end(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.epoch.elapsed();
        span.end - span.start
    }

    /// Runs `f` inside a span.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(name, parent, query);
        let r = f();
        (r, self.end(id))
    }

    /// Writes one JSON object per span: `{id, name, start_us, end_us,
    /// parent, query}`, times from the start of the traced run.
    fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut o = Json::obj();
            o.set("id", id)
                .set("name", s.name)
                .set("start_us", s.start.as_secs_f64() * 1e6)
                .set("end_us", s.end.as_secs_f64() * 1e6)
                .set("parent", s.parent.map_or(Json::Null, Json::from))
                .set("query", s.query.map_or(Json::Null, Json::from));
            writeln!(f, "{}", o.render())?;
        }
        f.flush()
    }
}

/// Repeats `f` until at least `min` has elapsed (and at least once);
/// returns the mean time per call.
fn per_call(min: Duration, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed() < min {
        f();
        calls += 1;
    }
    t0.elapsed() / calls
}

fn mean(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    Sample::new(xs.into_iter().collect()).mean()
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// State shared by the layer measurements of one traced run.
struct Traced<'w> {
    world: &'w World,
    jobs: Vec<Job>,
    is_bulk: bool,
    rng: Rng,
    tr: Tracer,
    rows: Vec<Metric>,
    out: Outcome,
}

/// Whole results of the first replayed queries, and the MQI refinements
/// the replay ran, with their times.
struct Replay {
    results: Vec<(usize, ClusterResult)>,
    refined: Vec<(lgc_core::RefinedCut, Duration)>,
}

/// Shortest time a micro-measurement repeats for.
const MIN_TIMED: Duration = Duration::from_millis(20);

/// The traced run of `workload`: per-layer rows plus the tracing
/// overhead. Spans go to `spans_path` when given.
pub fn run(workload: &str, seed: u64, window: Duration, spans_path: Option<&str>) -> Outcome {
    let is_bulk = workload == "bulk";
    let world = World::build(seed, true, is_bulk);
    let mut rng = Rng::new(seed);
    let jobs = if is_bulk {
        bulk_jobs(&world.lcc, world.num_vertices(MESH), &mut rng, 64)
    } else {
        interactive_jobs(&world.lcc, &mut rng, 4096)
    };
    let mut t = Traced {
        world: &world,
        jobs,
        is_bulk,
        rng,
        tr: Tracer::new(),
        rows: Vec::new(),
        out: Outcome::default(),
    };
    let slice = window / 4;
    let replay = t.core(slice);
    t.ligra_and_graph(&replay);
    t.sparse();
    t.parallel(&replay);
    t.flow(replay);
    t.server(slice);

    let mut out = std::mem::take(&mut t.out);
    out.metrics = std::mem::take(&mut t.rows);
    out.info.push(("spans", t.tr.spans.len().into()));
    if let Some(path) = spans_path {
        if let Err(e) = t.tr.write(path) {
            eprintln!("perfbench: writing spans to {path}: {e}");
        }
        out.info.push(("spans_path", path.into()));
    }
    out
}

impl Traced<'_> {
    fn row(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.rows.push(Metric::new(name, unit, value));
    }

    /// lgc-core, process counters and tracing overhead: an untraced pass
    /// over the job list, then a traced replay that splits each `run`
    /// into `diffuse` and `sweep_cut_par` of the same query.
    fn core(&mut self, slice: Duration) -> Replay {
        let world = self.world;
        let pool = world.svc.pool();
        for job in self.jobs.iter().rev().take(3) {
            black_box(run_job(world, job));
        }
        let (proc0, t0) = (ProcStat::read(), Instant::now());
        let mut untraced = Vec::new();
        while t0.elapsed() < slice {
            let job = &self.jobs[untraced.len() % self.jobs.len()];
            let q0 = Instant::now();
            black_box(run_job(world, job));
            untraced.push(ms(q0.elapsed()));
        }
        let proc = ProcStat::read().since(proc0);
        let untraced = Sample::new(untraced);

        let (psi0, shed0) = (psi_stats(world), shed(world));
        let (mut run_ms, mut diffuse_ms, mut sweep_ms) = (Vec::new(), Vec::new(), Vec::new());
        let mut work: Vec<(DiffusionStats, usize)> = Vec::new();
        let mut replay = Replay {
            results: Vec::new(),
            refined: Vec::new(),
        };
        let t0 = Instant::now();
        while t0.elapsed() < slice || work.is_empty() {
            let i = work.len() % self.jobs.len();
            let job = &self.jobs[i];
            let engine = world.svc.engine(job.tenant).expect("registered tenant");
            let tr = &mut self.tr;
            let root = tr.begin("query", None, Some(i));
            let (res, d_run) = tr.span("core.run", Some(root), Some(i), || engine.run(&job.query));
            let (diff, d_diff) = tr.span("core.diffuse", Some(root), Some(i), || {
                engine.diffuse(&job.query.seed, &job.query.algo)
            });
            let (_, d_sweep) = tr.span("core.sweep", Some(root), Some(i), || {
                sweep(world, job.tenant, pool, &diff.p)
            });
            if job.refine {
                replay
                    .refined
                    .push(tr.span("flow.improve", Some(root), Some(i), || engine.improve(&res)));
            }
            tr.end(root);
            run_ms.push(ms(d_run));
            diffuse_ms.push(ms(d_diff));
            sweep_ms.push(ms(d_sweep));
            work.push((res.diffusion.stats, res.diffusion.support_size()));
            if replay.results.len() < 64 {
                replay.results.push((i, res));
            }
        }
        let psi1 = psi_stats(world);
        let traced = Sample::new(run_ms.clone());
        let diffuse_total: f64 = diffuse_ms.iter().sum();
        let (run_m, diff_m, sweep_m) = (mean(run_ms), mean(diffuse_ms), mean(sweep_ms));
        let other = run_m.zip(diff_m).zip(sweep_m).map(|((r, d), s)| r - d - s);
        self.row("core.run_ms", "ms", run_m);
        self.row("core.diffuse_ms", "ms", diff_m);
        self.row("core.sweep_ms", "ms", sweep_m);
        self.row("core.other_ms", "ms", other);
        self.row(
            "core.other_frac",
            "1",
            other.zip(run_m).and_then(|(o, r)| ratio(o, r)),
        );
        let stat = |f: fn(&DiffusionStats) -> u64| mean(work.iter().map(|(s, _)| f(s) as f64));
        self.row("core.iterations", "count", stat(|s| s.iterations));
        self.row("core.pushes", "count", stat(|s| s.pushes));
        self.row("core.pushed_volume", "count", stat(|s| s.pushed_volume));
        self.row("core.edges_traversed", "count", stat(|s| s.edges_traversed));
        self.row(
            "core.support",
            "count",
            mean(work.iter().map(|&(_, s)| s as f64)),
        );
        let edges: u64 = work.iter().map(|(s, _)| s.edges_traversed).sum();
        self.row(
            "core.ns_per_edge",
            "ns",
            ratio(diffuse_total * 1e6, edges as f64),
        );
        let lookups = (psi1.0 + psi1.1) - (psi0.0 + psi0.1);
        self.row(
            "core.psi_hit_ratio",
            "1",
            ratio((psi1.0 - psi0.0) as f64, lookups as f64),
        );
        self.row("core.shed", "count", Some((shed(world) - shed0) as f64));
        let overhead = traced
            .quantile(0.5)
            .zip(untraced.quantile(0.5))
            .and_then(|(t, u)| ratio(t, u));
        self.row("trace.overhead_ratio", "1", overhead);
        self.row(
            "proc.minflt_per_query",
            "count",
            ratio(proc.minflt as f64, untraced.len() as f64),
        );
        self.row(
            "proc.sys_cpu_frac",
            "1",
            ratio(proc.stime as f64, (proc.utime + proc.stime) as f64),
        );
        self.out.attempted += (untraced.len() + work.len()) as u64;
        self.out.info.push(("replayed", work.len().into()));
        replay
    }

    /// lgc-ligra and lgc-graph: push over the replay's social supports,
    /// pull over the whole graph on both backends, adjacency sizes, and
    /// the same social jobs on the compressed backend.
    fn ligra_and_graph(&mut self, replay: &Replay) {
        let world = self.world;
        let (pool, social) = (world.svc.pool(), &*world.social);
        let comp = &**world
            .social_comp
            .as_ref()
            .expect("traced runs build the compressed backend");
        let supports: Vec<Vec<u32>> = replay
            .results
            .iter()
            .filter(|(i, r)| self.jobs[*i].tenant != MESH && r.diffusion.support_size() > 0)
            .map(|(_, r)| support(r))
            .collect();
        let cells: Vec<AtomicU64> = (0..social.num_vertices())
            .map(|_| AtomicU64::new(0))
            .collect();
        let (mut push_t, mut push_e) = (Duration::ZERO, 0usize);
        for s in &supports {
            let subset = VertexSubset::from_unsorted(s.clone());
            let (d, _) = self.tr.span("ligra.edge_map_indexed", None, None, || {
                per_call(MIN_TIMED / 4, || {
                    edge_map_indexed(pool, social, &subset, |_, _, dst| {
                        atomic_f64_fetch_add(&cells[dst as usize], 1e-9);
                    })
                })
            });
            push_t += d;
            push_e += subset.volume(social);
        }
        self.row(
            "ligra.push_ns_per_edge",
            "ns",
            ratio(ns(push_t), push_e as f64),
        );
        let largest = supports
            .iter()
            .max_by_key(|s| s.len())
            .cloned()
            .unwrap_or_else(|| vec![world.lcc[0]]);
        let plain = pull_ns_per_edge(&mut self.tr, pool, social, &largest, &cells);
        let compressed = pull_ns_per_edge(&mut self.tr, pool, comp, &largest, &cells);
        self.row("ligra.pull_ns_per_edge", "ns", plain);
        self.row("ligra.pull_ns_per_edge_comp", "ns", compressed);
        let bytes_per_edge = ratio(
            social.adjacency_bytes() as f64,
            social.total_degree() as f64,
        );
        self.row("ligra.pull_bytes_per_edge_computed", "B", bytes_per_edge);

        self.row(
            "graph.adj_mb_plain",
            "MiB",
            Some(social.adjacency_bytes() as f64 / (1 << 20) as f64),
        );
        self.row(
            "graph.adj_mb_comp",
            "MiB",
            Some(comp.adjacency_bytes() as f64 / (1 << 20) as f64),
        );
        let count = if self.is_bulk { 3 } else { 300 };
        let social_jobs: Vec<&Job> = self
            .jobs
            .iter()
            .filter(|j| j.tenant == SOCIAL)
            .take(count)
            .collect();
        let plain_engine = world.svc.engine(SOCIAL).expect("social tenant");
        let comp_engine = Engine::builder(comp).shared_pool(Arc::clone(pool)).build();
        let (_, t_plain) = self.tr.span("graph.plain_jobs", None, None, || {
            social_jobs
                .iter()
                .for_each(|j| drop(black_box(plain_engine.run(&j.query))))
        });
        let (_, t_comp) = self.tr.span("graph.compressed_jobs", None, None, || {
            social_jobs
                .iter()
                .for_each(|j| drop(black_box(comp_engine.run(&j.query))))
        });
        self.row("graph.decode_overhead", "1", ratio(ns(t_comp), ns(t_plain)));
    }

    /// lgc-sparse: `MassMap::add` at a small (hash) and a large (dense)
    /// key count.
    fn sparse(&mut self) {
        let n = self.world.social.num_vertices();
        let small: Vec<u32> = (0..1024).map(|_| self.rng.below(n) as u32).collect();
        let large: Vec<u32> = (0..n).map(|_| self.rng.below(n) as u32).collect();
        let sparse_map = MassMap::new(n, small.len());
        let dense_map = MassMap::with_dense_fraction(n, n, 0.0);
        let (d, _) = self.tr.span("sparse.add_sparse", None, None, || {
            per_call(MIN_TIMED, || {
                small.iter().for_each(|&v| sparse_map.add(v, 1e-9))
            })
        });
        self.row(
            "sparse.add_ns_sparse",
            "ns",
            Some(ns(d) / small.len() as f64),
        );
        let (d, _) = self.tr.span("sparse.add_dense", None, None, || {
            per_call(MIN_TIMED, || {
                large.iter().for_each(|&v| dense_map.add(v, 1e-9))
            })
        });
        self.row(
            "sparse.add_ns_dense",
            "ns",
            Some(ns(d) / large.len() as f64),
        );
    }

    /// lgc-parallel: support-sized sorts at 1 and 2 threads, fork/join,
    /// and the job list's prefix on a warm 1-thread service.
    fn parallel(&mut self, replay: &Replay) {
        let world = self.world;
        let pool = world.svc.pool();
        let n = world.social.num_vertices();
        let sizes = replay
            .results
            .iter()
            .map(|(_, r)| r.diffusion.support_size() as f64)
            .collect();
        let keys = (Sample::new(sizes).quantile(0.5).unwrap_or(1.0) as usize).max(1);
        let pairs: Vec<(u32, f64)> = (0..keys)
            .map(|_| (self.rng.below(n) as u32, self.rng.unit()))
            .collect();
        let cmp = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let pool1 = Pool::new(1);
        let sorts = [
            ("parallel.sort_ns_per_key_t1", "parallel.sort_t1", &pool1),
            ("parallel.sort_ns_per_key_t2", "parallel.sort_t2", &**pool),
        ];
        for (name, label, p) in sorts {
            let (d, _) = self.tr.span(label, None, None, || {
                per_call(MIN_TIMED, || {
                    let mut v = pairs.clone();
                    merge_sort_by(p, &mut v, cmp);
                    black_box(v);
                })
            });
            self.row(name, "ns", Some(ns(d) / keys as f64));
        }
        self.out.info.push(("sort_keys", keys.into()));
        let (d, _) = self.tr.span("parallel.fork_join", None, None, || {
            per_call(MIN_TIMED, || {
                pool.run(2, 1, |s, e| {
                    black_box(s + e);
                })
            })
        });
        self.row("parallel.fork_join_us", "us", Some(d.as_secs_f64() * 1e6));

        let mut b1 = Service::builder().pool(Pool::shared(1));
        for name in world.svc.graph_names() {
            let store = world.svc.store(&name).expect("registered tenant").clone();
            b1 = b1.add_graph(name, store);
        }
        let svc1 = b1.build();
        let run_t1 = |j: &Job| {
            svc1.engine(j.tenant)
                .expect("registered tenant")
                .run(&j.query)
        };
        let prefix = &self.jobs[..if self.is_bulk { BULK_ROUND } else { 300 }];
        prefix
            .iter()
            .take(3)
            .for_each(|j| drop(black_box(run_t1(j))));
        let (_, t1) = self.tr.span("parallel.t1_jobs", None, None, || {
            prefix.iter().for_each(|j| drop(black_box(run_t1(j))))
        });
        let (_, t2) = self.tr.span("parallel.t2_jobs", None, None, || {
            prefix
                .iter()
                .for_each(|j| drop(black_box(run_job(world, j))))
        });
        self.row("parallel.t2_speedup", "1", ratio(ns(t1), ns(t2)));
    }

    /// lgc-flow: MQI on the workload's refined jobs, or on its first
    /// replayed results when the workload refines none.
    fn flow(&mut self, replay: Replay) {
        let mut refined = replay.refined;
        if refined.is_empty() {
            for (i, r) in replay.results.iter().take(32) {
                let engine = self
                    .world
                    .svc
                    .engine(self.jobs[*i].tenant)
                    .expect("registered tenant");
                refined.push(
                    self.tr
                        .span("flow.improve", None, Some(*i), || engine.improve(r)),
                );
            }
        }
        self.row(
            "flow.refine_ms",
            "ms",
            mean(refined.iter().map(|(_, d)| ms(*d))),
        );
        self.row(
            "flow.arcs_scanned",
            "count",
            mean(refined.iter().map(|(r, _)| r.stats.arcs_scanned as f64)),
        );
        let phi_ratio = mean(
            refined
                .iter()
                .filter_map(|(r, _)| ratio(r.conductance, r.initial_conductance)),
        );
        self.row("flow.phi_ratio", "1", phi_ratio);
        self.out.wrong += refined
            .iter()
            .filter(|(r, _)| r.conductance > r.initial_conductance + 1e-12)
            .count() as u64;
    }

    /// lgc-server: unloaded round trips against in-process runs of the
    /// same queries, then a loaded window shaped like `served`.
    fn server(&mut self, slice: Duration) {
        let world = self.world;
        let server = served::start(world);
        let mut conn = served::Conn::connect(server.local_addr()).expect("connect over loopback");
        let count = if self.is_bulk { 6 } else { 200 };
        let rtt_jobs: Vec<Job> = self
            .jobs
            .iter()
            .filter(|j| j.tenant == SOCIAL)
            .take(count)
            .cloned()
            .collect();
        let (mut client, mut exec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for (i, job) in rtt_jobs.iter().enumerate() {
            let (reply, d) = self.tr.span("server.client", None, Some(i), || {
                conn.query(Priority::Interactive, &job.query)
            });
            let (res, e) = self
                .tr
                .span("server.exec", None, Some(i), || run_job(world, job));
            match reply.ok().and_then(|r| r.result.map(|x| (x, r.bytes))) {
                Some((got, b)) if matches_reference(&got, &res) => bytes.push(b as f64),
                _ => self.out.wrong += 1,
            }
            client.push(ms(d));
            exec.push(ms(e));
        }
        drop(conn);
        let (client_m, exec_m) = (mean(client), mean(exec));
        self.row("server.client_ms", "ms", client_m);
        self.row("server.exec_ms", "ms", exec_m);
        self.row(
            "server.wire_ms",
            "ms",
            client_m.zip(exec_m).map(|(c, e)| c - e),
        );

        let interactive = interactive_jobs(&world.lcc, &mut self.rng, 4096);
        let due = served::arrivals(&mut self.rng, served::OFFERED_QPS, slice);
        let bulk_seeds = served::bulk_seeds(&world.lcc, &mut self.rng);
        let (w, _) = self.tr.span("server.window", None, None, || {
            served::window(&server, &interactive, &due, &bulk_seeds, slice)
        });
        let side = server
            .metrics()
            .class(SOCIAL, Priority::Interactive)
            .latency
            .quantile(0.5);
        server.shutdown();
        let kb = |b: &f64| b / 1024.0;
        self.row("server.side_p50_ms", "ms", side.map(ms));
        self.row(
            "server.response_kb_interactive",
            "KiB",
            mean(bytes.iter().chain(&w.interactive_bytes).map(kb)),
        );
        self.row(
            "server.response_kb_bulk",
            "KiB",
            mean(w.bulk_bytes.iter().map(kb)),
        );
        self.row(
            "server.queue_depth_bulk",
            "count",
            mean(w.bulk_depth.iter().copied()),
        );
        let shed = w.answers.iter().filter(|a| a.answer.is_none()).count() as u64 + w.bulk_failed;
        self.row("server.shed", "count", Some(shed as f64));
        self.row(
            "server.bulk_qps",
            "1/s",
            ratio(w.bulk_answers.len() as f64, w.window.as_secs_f64()),
        );
        self.row(
            "loadgen.late_p99_ms",
            "ms",
            Sample::new(w.late_ms).quantile(0.99),
        );
        self.out.attempted +=
            (rtt_jobs.len() + w.answers.len() + w.bulk_answers.len()) as u64 + w.bulk_failed;
        self.out.failed += shed;
    }
}

fn run_job(world: &World, job: &Job) -> ClusterResult {
    world
        .svc
        .engine(job.tenant)
        .expect("registered tenant")
        .run(&job.query)
}

fn support(r: &ClusterResult) -> Vec<u32> {
    r.diffusion.p.iter().map(|&(v, _)| v).collect()
}

/// `sweep_cut_par` on the tenant's backend.
fn sweep(world: &World, tenant: &str, pool: &Pool, p: &[(u32, f64)]) -> lgc_core::SweepCut {
    match world.svc.store(tenant).expect("registered tenant") {
        lgc_core::GraphStore::Plain(g) => sweep_cut_par(pool, &**g, p),
        lgc_core::GraphStore::Compressed(g) => sweep_cut_par(pool, &**g, p),
    }
}

/// ψ-cache `(hits, misses)` summed over the tenants.
fn psi_stats(world: &World) -> (u64, u64) {
    world
        .svc
        .graph_names()
        .iter()
        .filter_map(|n| world.svc.cache(n))
        .map(|c| c.psi_stats())
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

/// Queries shed by engine admission, summed over the tenants.
fn shed(world: &World) -> u64 {
    world
        .svc
        .graph_names()
        .iter()
        .filter_map(|n| world.svc.lifecycle(n))
        .map(|l| l.shed())
        .sum()
}

/// Dense pull over the whole graph with `frontier` as the active set;
/// nanoseconds per adjacency entry scanned.
fn pull_ns_per_edge<B: CsrBackend>(
    tr: &mut Tracer,
    pool: &Pool,
    g: &B,
    frontier: &[u32],
    sink: &[AtomicU64],
) -> Option<f64> {
    let n = g.num_vertices();
    let mut f = Frontier::from_subset(VertexSubset::from_unsorted(frontier.to_vec()));
    let bits = f.bits(pool, n);
    let contrib = vec![1e-9; n];
    let (d, _) = tr.span("ligra.edge_map_dense_gather", None, None, || {
        per_call(MIN_TIMED, || {
            edge_map_dense_gather(pool, g, bits, &contrib, |dst, sum| {
                sink[dst as usize].store(sum.to_bits(), Ordering::Relaxed);
            })
        })
    });
    ratio(ns(d), g.total_degree() as f64)
}
