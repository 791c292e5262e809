//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <interactive|bulk|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's graphs, query lists and arrival times from
//! `--seed`, measures for `--seconds`, checks every answer, and prints a
//! detail report followed, as the last line, by one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer numbers of a traced run (see `layers.rs`). Exits non-zero
//! if any answer check fails. `--spans <path>` writes a traced run's
//! spans there as JSON Lines. See README.md for what each number means.

mod layers;
mod report;
mod served;
mod setup;
mod workloads;

use report::Json;
use setup::{timed, Rng, World};
use std::time::Duration;
use workloads::{closed_loop, closed_loop_outcome, peak_rss_mb, Metric, Outcome};

/// Interactive answers averaged into `mean_phi`.
const INTERACTIVE_PHI_PREFIX: usize = 3000;
/// Bulk jobs averaged into `mean_phi` (whole rounds of the job list).
const BULK_PHI_PREFIX: usize = 5 * setup::BULK_ROUND;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, 1, 10.0f64, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["interactive", "bulk", "served"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let window = Duration::from_secs_f64(args.seconds);
    let mut out = if args.trace {
        layers::run(&args.workload, args.seed, window, args.spans.as_deref())
    } else {
        match args.workload.as_str() {
            "interactive" => interactive(args.seed, window),
            "bulk" => bulk(args.seed, window),
            _ => served_workload(args.seed, window),
        }
    };
    if !args.trace {
        // Reported but not gated: on `served` the high-water mark follows
        // glibc's adaptive mmap threshold and differs up to 2x between
        // seeds. The gated memory metric is `setup_rss_mb`.
        out.info.push(("peak_rss_mb", peak_rss_mb().into()));
    }
    let ok = print(&args, &out);
    std::process::exit(if ok { 0 } else { 1 });
}

/// Warm-up before each timed window.
fn warmup(window: Duration) -> Duration {
    (window / 10).min(Duration::from_millis(500))
}

/// `setup_s` and `setup_rss_mb`, the process's high-water RSS once
/// set-up is done.
fn push_setup(out: &mut Outcome, secs: f64, rss_mb: Option<f64>) {
    out.push(Metric::new("setup_s", "s", Some(secs)));
    out.push(Metric::new("setup_rss_mb", "MiB", rss_mb));
}

fn interactive(seed: u64, window: Duration) -> Outcome {
    let (world, setup_secs) = timed(|| World::build(seed, false, false));
    let setup_rss = peak_rss_mb();
    let jobs = setup::interactive_jobs(&world.lcc, &mut Rng::new(seed), 4096);
    let res = closed_loop(&world, &jobs, window, warmup(window));
    let mut out = closed_loop_outcome(&world, &jobs, res, INTERACTIVE_PHI_PREFIX);
    push_setup(&mut out, setup_secs, setup_rss);
    out.info.push(("mix", mix_json(&setup::interactive_mix())));
    out
}

fn bulk(seed: u64, window: Duration) -> Outcome {
    let (world, setup_secs) = timed(|| World::build(seed, true, true));
    let setup_rss = peak_rss_mb();
    let mesh_n = world.num_vertices(setup::MESH);
    let jobs = setup::bulk_jobs(&world.lcc, mesh_n, &mut Rng::new(seed), 64);
    let res = closed_loop(&world, &jobs, window, warmup(window));
    let mut out = closed_loop_outcome(&world, &jobs, res, BULK_PHI_PREFIX);
    push_setup(&mut out, setup_secs, setup_rss);
    out.info.push(("mix", mix_json(&setup::bulk_mix())));
    out
}

fn served_workload(seed: u64, window: Duration) -> Outcome {
    let ((server, world), setup_secs) = timed(|| {
        let world = World::build(seed, false, false);
        let server = served::start(&world);
        let mut conn = served::Conn::connect(server.local_addr()).expect("connect over loopback");
        let q = lgc_core::Query::new(
            lgc_core::Seed::single(world.lcc[0]),
            setup::interactive_mix()[0].clone(),
        );
        let first = conn
            .query(lgc_server::Priority::Interactive, &q)
            .expect("first served answer");
        assert!(
            first.result.is_some(),
            "the first served query must succeed"
        );
        (server, world)
    });
    let setup_rss = peak_rss_mb();
    let mut rng = Rng::new(seed);
    let jobs = setup::interactive_jobs(&world.lcc, &mut rng, 4096);
    let bulk_seeds = served::bulk_seeds(&world.lcc, &mut rng);
    let warm = warmup(window);
    let warm_due = served::arrivals(&mut rng, served::OFFERED_QPS, warm);
    let _ = served::window(&server, &jobs, &warm_due, &bulk_seeds, warm);
    let due = served::arrivals(&mut rng, served::OFFERED_QPS, window);
    let w = served::window(&server, &jobs, &due, &bulk_seeds, window);
    server.shutdown();
    let mut out = served::outcome(&world, &jobs, w, INTERACTIVE_PHI_PREFIX);
    push_setup(&mut out, setup_secs, setup_rss);
    out.info.push(("mix", mix_json(&setup::interactive_mix())));
    out.info.push((
        "bulk_class",
        setup::describe(&setup::bulk_prnibble()).into(),
    ));
    out
}

fn mix_json(mix: &[lgc_core::Algorithm]) -> Json {
    Json::Arr(mix.iter().map(|a| setup::describe(a).into()).collect())
}

/// Prints the detail report, then the result line; returns whether
/// every check passed.
fn print(args: &Args, out: &Outcome) -> bool {
    let correct = out.wrong == 0;
    let failed = out.failed + out.wrong;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut detail = Json::obj();
    detail
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("hardware_threads", hw)
        .set("pool_threads", setup::THREADS)
        .set("attempted", out.attempted)
        .set("failed_queries", out.failed)
        .set("failed_checks", out.wrong)
        .set(
            "failed_frac",
            report::ratio(failed as f64, out.attempted as f64),
        );
    let mut metrics = Json::obj();
    let mut result_metrics = Json::obj();
    for m in &out.metrics {
        let mut row = Json::obj();
        row.set("value", m.value).set("unit", m.unit);
        if !matches!(m.detail, Json::Null) {
            row.set("dist", m.detail.clone());
        }
        metrics.set(m.name, row);
        let mut short = Json::obj();
        short.set("value", m.value).set("unit", m.unit);
        result_metrics.set(m.name, short);
    }
    detail.set("metrics", metrics);
    for (k, v) in &out.info {
        detail.set(k, v.clone());
    }
    println!("{}", detail.render());
    let mut result = Json::obj();
    result
        .set("correct", correct)
        .set("attempted", out.attempted.max(1))
        .set("failed", failed)
        .set("metrics", result_metrics);
    println!("{}", result.render());
    correct
}
