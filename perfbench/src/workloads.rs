//! The closed-loop workloads (`interactive`, `bulk`) and what every
//! workload reports: metric rows, answer checks, process counters.

use crate::report::{ratio, Json, Sample};
use crate::setup::{answer_ok, bitwise_equal, matches_reference, Job, World};
use lgc_core::ClusterResult;
use std::time::{Duration, Instant};

/// Answers compared against their T1 reference, per workload.
pub const REFERENCE_SAMPLE: usize = 9;

/// One metric as printed: name, unit, value, and its distribution.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub detail: Json,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name,
            unit,
            value,
            detail: Json::Null,
        }
    }

    pub fn with(mut self, detail: Json) -> Metric {
        self.detail = detail;
        self
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Failed, refused or shed queries.
    pub failed: u64,
    /// Answers that failed a check.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }
}

/// One answered (or refused) query from a timed window.
pub struct Answer {
    /// Index into the job list.
    pub job: usize,
    pub latency: Duration,
    /// Completion time, from the start of the window.
    pub done: Duration,
    /// `(cluster, φ)` of a completed query; `None` if it failed.
    pub answer: Option<(Vec<u32>, f64)>,
    /// False when an MQI refinement returned a worse cut than its input.
    pub refine_ok: bool,
    /// Support size of the diffusion vector (0 if the query failed).
    pub support: usize,
}

/// Results kept whole for the T1 comparison (the first
/// [`REFERENCE_SAMPLE`] jobs of the list).
pub type Kept = Vec<(usize, ClusterResult)>;

/// Throughput samples: completions in each whole second of the window.
pub fn per_second(answers: &[Answer], window: Duration) -> Sample {
    let secs = window.as_secs().max(1) as usize;
    let mut buckets = vec![0.0; secs];
    for a in answers.iter().filter(|a| a.answer.is_some()) {
        if let Some(b) = buckets.get_mut(a.done.as_secs() as usize) {
            *b += 1.0;
        }
    }
    Sample::new(buckets)
}

/// Checks every answer (non-empty cluster, φ equal to the recomputed
/// conductance) and the kept sample against T1 references; returns the
/// number of failed checks and the number of bitwise-equal references.
pub fn check_answers(world: &World, jobs: &[Job], answers: &[Answer], kept: &Kept) -> (u64, usize) {
    let mut wrong = 0;
    for a in answers {
        if let Some((cluster, phi)) = &a.answer {
            if !a.refine_ok || !answer_ok(world, jobs[a.job].tenant, cluster, *phi) {
                wrong += 1;
            }
        }
    }
    let mut bitwise = 0;
    for (i, got) in kept {
        let reference = world.reference(&jobs[*i]);
        if bitwise_equal(got, &reference) {
            bitwise += 1;
        } else if !matches_reference(got, &reference) {
            wrong += 1;
        }
    }
    (wrong, bitwise)
}

/// Mean φ over the first `n` completed answers of the window: a fixed
/// prefix of the seed's job list, so quality does not depend on speed.
pub fn mean_phi(answers: &[Answer], n: usize) -> Sample {
    let mut by_job: Vec<(usize, f64)> = answers
        .iter()
        .filter_map(|a| a.answer.as_ref().map(|(_, phi)| (a.job, *phi)))
        .collect();
    by_job.sort_by_key(|&(j, _)| j);
    Sample::new(by_job.into_iter().take(n).map(|(_, phi)| phi).collect())
}

/// Process counters from `/proc/self/stat`: minor faults, user and
/// system CPU ticks.
#[derive(Clone, Copy, Default)]
pub struct ProcStat {
    pub minflt: u64,
    pub utime: u64,
    pub stime: u64,
}

impl ProcStat {
    pub fn read() -> ProcStat {
        let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesized command name, which may hold spaces.
        let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<u64> = rest
            .split_whitespace()
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        // `rest` starts at field 3 (state), so field k sits at index k - 3.
        let at = |k: usize| f.get(k - 3).copied().unwrap_or(0);
        ProcStat {
            minflt: at(10),
            utime: at(14),
            stime: at(15),
        }
    }

    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt - earlier.minflt,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }
}

/// The process's high-water resident set, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A closed loop of one caller thread over `jobs` (cycled) for `window`,
/// after warming up on the list's tail.
pub fn closed_loop(
    world: &World,
    jobs: &[Job],
    window: Duration,
    warmup: Duration,
) -> (Vec<Answer>, Kept, Duration) {
    let run = |job: &Job| {
        let engine = world.svc.engine(job.tenant).expect("registered tenant");
        let res = engine.try_run(&job.query);
        if job.refine {
            if let Ok(r) = &res {
                let refined = engine.improve(r);
                return res.map(|r| (r, Some(refined)));
            }
        }
        res.map(|r| (r, None))
    };
    let t0 = Instant::now();
    for job in jobs.iter().rev() {
        if t0.elapsed() >= warmup {
            break;
        }
        let _ = std::hint::black_box(run(job));
    }

    let mut answers = Vec::new();
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < window {
        let i = k % jobs.len();
        let q0 = Instant::now();
        let out = run(&jobs[i]);
        let latency = q0.elapsed();
        let mut refine_ok = true;
        let mut support = 0;
        let answer = match out {
            Ok((res, refined)) => {
                let mut pair = (res.cluster.clone(), res.conductance);
                support = res.diffusion.support_size();
                if let Some(r) = refined {
                    // The refined cut is the job's answer: checked the
                    // same way, and never worse than the sweep.
                    refine_ok = r.conductance <= res.conductance + 1e-12;
                    pair = (r.cluster, r.conductance);
                }
                if k < REFERENCE_SAMPLE.min(jobs.len()) {
                    kept.push((i, res));
                }
                Some(pair)
            }
            Err(_) => None,
        };
        answers.push(Answer {
            job: i,
            latency,
            done: start.elapsed(),
            answer,
            refine_ok,
            support,
        });
        k += 1;
    }
    (answers, kept, start.elapsed())
}

/// The latency rows every workload reports: p50, p90 and p99, each with
/// its sample count and the count of samples beyond it.
pub fn push_latency(out: &mut Outcome, answers: &[Answer]) {
    let lat = Sample::new(
        answers
            .iter()
            .filter(|a| a.answer.is_some())
            .map(|a| ms(a.latency))
            .collect(),
    );
    for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9), ("p99_ms", 0.99)] {
        out.push(Metric::new(name, "ms", lat.quantile(q)).with(lat.summary(Some(q))));
    }
}

/// Shared tail of the closed-loop workloads: checks and end-to-end rows.
pub fn closed_loop_outcome(
    world: &World,
    jobs: &[Job],
    (answers, kept, window): (Vec<Answer>, Kept, Duration),
    phi_prefix: usize,
) -> Outcome {
    let (wrong, bitwise) = check_answers(world, jobs, &answers, &kept);
    let completed = answers.iter().filter(|a| a.answer.is_some()).count();
    let phis = mean_phi(&answers, phi_prefix);
    let mut out = Outcome {
        attempted: answers.len() as u64,
        failed: (answers.len() - completed) as u64,
        wrong,
        ..Default::default()
    };
    out.push(
        Metric::new("qps", "1/s", ratio(completed as f64, window.as_secs_f64()))
            .with(per_second(&answers, window).summary(None)),
    );
    push_latency(&mut out, &answers);
    out.push(Metric::new("mean_phi", "1", phis.mean()).with(phis.summary(None)));
    out.info.push(("by_kind", by_kind(jobs, &answers)));
    out.info.push(("window_s", window.as_secs_f64().into()));
    out.info.push(("reference_checked", kept.len().into()));
    out.info.push(("reference_bitwise", bitwise.into()));
    out
}

/// Median latency and mean support per (tenant, algorithm) kind.
pub fn by_kind(jobs: &[Job], answers: &[Answer]) -> Json {
    let mut kinds: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for a in answers.iter().filter(|a| a.answer.is_some()) {
        let job = &jobs[a.job];
        let key = format!("{}:{}", job.tenant, crate::setup::describe(&job.query.algo));
        let slot = match kinds.iter().position(|k| k.0 == key) {
            Some(i) => i,
            None => {
                kinds.push((key, Vec::new(), Vec::new()));
                kinds.len() - 1
            }
        };
        kinds[slot].1.push(ms(a.latency));
        kinds[slot].2.push(a.support as f64);
    }
    let mut o = Json::obj();
    for (key, lat, sup) in kinds {
        let mut row = Json::obj();
        let (lat, sup) = (Sample::new(lat), Sample::new(sup));
        row.set("n", lat.len())
            .set("p50_ms", lat.quantile(0.5))
            .set("mean_support", sup.mean());
        o.set(&key, row);
    }
    o
}
