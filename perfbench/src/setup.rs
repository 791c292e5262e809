//! Inputs: graphs, tenants, query lists and arrival times, all derived
//! from the workload seed, plus the answer checks every workload shares.

use lgc_core::{
    Algorithm, ClusterResult, Diffusion, Engine, HkprParams, NibbleParams, PrNibbleParams, Query,
    Seed, Service,
};
use lgc_graph::{gen, largest_component, CsrBackend, CsrCompressed, Graph};
use lgc_parallel::Pool;
use std::sync::Arc;
use std::time::Instant;

/// Threads of every engine and service pool: the caller plus one worker.
pub const THREADS: usize = 2;
/// Social stand-in: Graph500 R-MAT at this scale (2^17 vertices) ...
pub const SOCIAL_SCALE: u32 = 17;
/// ... and this edge factor.
pub const SOCIAL_EDGE_FACTOR: usize = 16;
/// Mesh stand-in: a `MESH_SIDE³` 3-D grid.
pub const MESH_SIDE: usize = 64;

pub const SOCIAL: &str = "social";
pub const SOCIAL_COMP: &str = "social_comp";
pub const MESH: &str = "mesh";

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The interactive mix: small PR-Nibble, Nibble and tight HK-PR. Each
/// keeps its mean support far below 1% of the social graph's vertices.
/// PR-Nibble's `ε` stays below `1/d` for every vertex of the social
/// stand-in (max degree ≈ 15.8k): a seed with `ε·d(seed) > 1` never
/// pushes and returns an empty cluster.
pub fn interactive_mix() -> [Algorithm; 3] {
    [
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.15,
            eps: 5e-5,
            ..Default::default()
        }),
        Algorithm::Nibble(NibbleParams {
            t_max: 10,
            eps: 1e-4,
            ..Default::default()
        }),
        Algorithm::Hkpr(HkprParams {
            t: 2.0,
            n_levels: 8,
            eps: 5e-2,
            ..Default::default()
        }),
    ]
}

/// The bulk mix: the paper's high-volume settings.
pub fn bulk_mix() -> [Algorithm; 3] {
    [
        bulk_prnibble(),
        Algorithm::Hkpr(HkprParams {
            t: 10.0,
            eps: 1e-6,
            ..Default::default()
        }),
        Algorithm::Nibble(NibbleParams {
            t_max: 20,
            eps: 1e-7,
            ..Default::default()
        }),
    ]
}

/// High-volume PR-Nibble (`bulk` jobs and `served` bulk-class traffic).
pub fn bulk_prnibble() -> Algorithm {
    Algorithm::PrNibble(PrNibbleParams {
        alpha: 0.01,
        eps: 1e-6,
        ..Default::default()
    })
}

/// Parameters as recorded in the output.
pub fn describe(algo: &Algorithm) -> String {
    match algo {
        Algorithm::PrNibble(p) => format!("prnibble(alpha={},eps={:e})", p.alpha, p.eps),
        Algorithm::Nibble(p) => format!("nibble(t_max={},eps={:e})", p.t_max, p.eps),
        Algorithm::Hkpr(p) => format!("hkpr(t={},N={},eps={:e})", p.t, p.n_levels, p.eps),
        other => format!("{other:?}"),
    }
}

/// One unit of work: a query on a tenant, optionally refined by MQI.
#[derive(Clone, Debug)]
pub struct Job {
    pub tenant: &'static str,
    pub query: Query,
    pub refine: bool,
}

/// Everything a workload runs against.
pub struct World {
    pub svc: Arc<Service>,
    pub social: Arc<Graph>,
    pub social_comp: Option<Arc<CsrCompressed>>,
    pub mesh: Option<Arc<Graph>>,
    /// The social graph's largest connected component (seed pool).
    pub lcc: Vec<u32>,
}

impl World {
    /// Generates the graphs for `tenants`, registers them over one
    /// `THREADS`-thread pool, and answers one small query per tenant.
    pub fn build(seed: u64, with_comp: bool, with_mesh: bool) -> World {
        let social = Arc::new(gen::rmat_graph500(SOCIAL_SCALE, SOCIAL_EDGE_FACTOR, seed));
        let lcc = largest_component(&social);
        let mut b = Service::builder()
            .pool(Pool::shared(THREADS))
            .add_graph_shared(SOCIAL, Arc::clone(&social));
        let social_comp = with_comp.then(|| Arc::new(CsrCompressed::from_graph(&social)));
        if let Some(c) = &social_comp {
            b = b.add_graph(SOCIAL_COMP, Arc::clone(c));
        }
        let mesh = with_mesh.then(|| Arc::new(gen::grid_3d(MESH_SIDE, MESH_SIDE, MESH_SIDE)));
        if let Some(m) = &mesh {
            b = b.add_graph_shared(MESH, Arc::clone(m));
        }
        let world = World {
            svc: Arc::new(b.build()),
            social,
            social_comp,
            mesh,
            lcc,
        };
        let first = interactive_mix()[0].clone();
        for name in world.svc.graph_names() {
            let v = if name == MESH { 0 } else { world.lcc[0] };
            let engine = world.svc.engine(&name).expect("registered tenant");
            std::hint::black_box(engine.run(&Query::new(Seed::single(v), first.clone())));
        }
        world
    }

    pub fn num_vertices(&self, tenant: &str) -> usize {
        match tenant {
            MESH => self.mesh.as_ref().map_or(0, |m| m.num_vertices()),
            _ => self.social.num_vertices(),
        }
    }

    /// `conductance(cluster)` recomputed on the tenant's graph.
    pub fn conductance(&self, tenant: &str, cluster: &[u32]) -> f64 {
        match tenant {
            MESH => self
                .mesh
                .as_ref()
                .expect("mesh tenant")
                .conductance(cluster),
            SOCIAL_COMP => self
                .social_comp
                .as_ref()
                .expect("compressed tenant")
                .conductance(cluster),
            _ => self.social.conductance(cluster),
        }
    }

    /// The tenant's answer on a fresh 1-thread engine: the T1 reference.
    pub fn reference(&self, job: &Job) -> ClusterResult {
        fn t1<B: CsrBackend>(g: &B, q: &Query) -> ClusterResult {
            Engine::builder(g).threads(1).build().run(q)
        }
        match job.tenant {
            MESH => t1(&**self.mesh.as_ref().expect("mesh tenant"), &job.query),
            SOCIAL_COMP => t1(
                &**self.social_comp.as_ref().expect("compressed tenant"),
                &job.query,
            ),
            _ => t1(&*self.social, &job.query),
        }
    }
}

/// Runs `build` once; returns its result and wall time in seconds.
pub fn timed<W>(build: impl FnOnce() -> W) -> (W, f64) {
    let t0 = Instant::now();
    let w = build();
    (w, t0.elapsed().as_secs_f64())
}

/// The interactive query stream: the mix round-robin, seeds uniform
/// over the social graph's largest component.
pub fn interactive_jobs(lcc: &[u32], rng: &mut Rng, len: usize) -> Vec<Job> {
    let mix = interactive_mix();
    (0..len)
        .map(|i| Job {
            tenant: SOCIAL,
            query: Query::new(
                Seed::single(lcc[rng.below(lcc.len())]),
                mix[i % mix.len()].clone(),
            ),
            refine: false,
        })
        .collect()
}

/// Jobs in one round of the bulk job list.
pub const BULK_ROUND: usize = 9;

/// The bulk job list: each round runs the bulk mix on the social graph,
/// the same queries on its compressed copy, and the mix on the mesh;
/// mesh PR-Nibble results are refined by MQI.
pub fn bulk_jobs(lcc: &[u32], mesh_n: usize, rng: &mut Rng, rounds: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for _ in 0..rounds {
        let social_seed = Seed::single(lcc[rng.below(lcc.len())]);
        let mesh_seed = Seed::single(rng.below(mesh_n) as u32);
        for (tenant, seed) in [
            (SOCIAL, &social_seed),
            (SOCIAL_COMP, &social_seed),
            (MESH, &mesh_seed),
        ] {
            for algo in bulk_mix() {
                let refine = tenant == MESH && matches!(algo, Algorithm::PrNibble(_));
                jobs.push(Job {
                    tenant,
                    query: Query::new(seed.clone(), algo),
                    refine,
                });
            }
        }
    }
    jobs
}

/// `ℓ₁` distance between two sorted sparse vectors.
pub fn l1_distance(a: &Diffusion, b: &Diffusion) -> f64 {
    let (mut i, mut j, mut dist) = (0, 0, 0.0);
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
            (None, None) => break,
        }
    }
    dist
}

/// The multi-thread tier of the engine equivalence suite: a T2 answer
/// matches its T1 reference within `ℓ₁ < 1e-9` and `|Δφ| < 1e-9`.
pub fn matches_reference(got: &ClusterResult, reference: &ClusterResult) -> bool {
    l1_distance(&got.diffusion, &reference.diffusion) < 1e-9
        && (got.conductance - reference.conductance).abs() < 1e-9
}

/// Bit-for-bit equality of two answers (vector, stats, cluster, φ).
pub fn bitwise_equal(a: &ClusterResult, b: &ClusterResult) -> bool {
    a.cluster == b.cluster
        && a.conductance.to_bits() == b.conductance.to_bits()
        && a.diffusion.stats == b.diffusion.stats
        && a.diffusion.p.len() == b.diffusion.p.len()
        && a.diffusion
            .p
            .iter()
            .zip(&b.diffusion.p)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The per-answer check: a non-empty cluster whose reported φ equals
/// `conductance(cluster)` recomputed on the graph.
pub fn answer_ok(world: &World, tenant: &str, cluster: &[u32], phi: f64) -> bool {
    !cluster.is_empty() && (world.conductance(tenant, cluster) - phi).abs() <= 1e-12
}
