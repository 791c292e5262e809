//! The `served` workload: `lgc-server` in-process over loopback, one
//! open-loop interactive connection and one fixed-window bulk connection.

use crate::report::{ratio, Json, Sample};
use crate::setup::{answer_ok, bulk_prnibble, Job, Rng, World, SOCIAL, THREADS};
use crate::workloads::{ms, Answer, Kept, Metric, Outcome, REFERENCE_SAMPLE};
use lgc_core::{ClusterResult, Query, QueryBudget, Seed};
use lgc_server::frame::{read_frame, write_frame, FrameKind, ProtocolError};
use lgc_server::wire::{decode_result, encode_query_request};
use lgc_server::{Priority, QueryRequest, RunningServer, Server, ServerConfig};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop interactive connection, in queries per
/// second: about half of what one closed-loop caller completes on the
/// `interactive` workload.
pub const OFFERED_QPS: f64 = 700.0;
/// Bulk-class queries connection B keeps outstanding.
pub const BULK_WINDOW: usize = 3;
/// Interactive queries connection A may have outstanding before the
/// generator waits (and runs late).
const MAX_OUTSTANDING: usize = 48;

/// Server settings: 2 executors over the service's 2-thread pool, queues
/// deep enough that the offered load is never shed, and a bulk budget
/// that arms the checkpoint machinery without tripping.
pub fn config() -> ServerConfig {
    ServerConfig {
        executors: THREADS,
        interactive_queue_cap: 128,
        bulk_queue_cap: 16,
        conn_inflight_cap: 64,
        bulk_budget: QueryBudget::unlimited().with_deadline(Duration::from_secs(60)),
        ..ServerConfig::default()
    }
}

pub fn start(world: &World) -> RunningServer {
    Server::bind(Arc::clone(&world.svc), "127.0.0.1:0", config()).expect("bind a loopback port")
}

/// A pipelining protocol connection whose reads can wait with a timeout,
/// so one thread can both send on schedule and collect responses.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
}

/// A decoded response: the result (or `None` for a typed error) and the
/// payload size.
pub struct Reply {
    pub id: u32,
    pub result: Option<ClusterResult>,
    pub bytes: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            next_id: 1,
        })
    }

    pub fn submit(&mut self, priority: Priority, query: &Query) -> io::Result<u32> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let req = QueryRequest {
            tenant: SOCIAL.to_string(),
            priority,
            query: query.clone(),
        };
        write_frame(
            &mut self.writer,
            FrameKind::Query,
            id,
            &encode_query_request(&req),
        )?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Waits up to `timeout` for a response to start arriving.
    pub fn ready(&mut self, timeout: Duration) -> io::Result<bool> {
        if !self.reader.buffer().is_empty() {
            return Ok(true);
        }
        let stream = self.reader.get_ref();
        stream.set_read_timeout(Some(timeout.max(Duration::from_micros(50))))?;
        let got = stream.peek(&mut [0u8; 1]);
        stream.set_read_timeout(None)?;
        match got {
            Ok(n) => Ok(n > 0),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    }

    pub fn recv(&mut self) -> Result<Reply, ProtocolError> {
        let frame = read_frame(&mut self.reader)?;
        let result = match frame.kind {
            FrameKind::Result => Some(decode_result(&frame.payload)?),
            _ => None,
        };
        Ok(Reply {
            id: frame.id,
            result,
            bytes: frame.payload.len(),
        })
    }

    /// One closed-loop round trip.
    pub fn query(&mut self, priority: Priority, query: &Query) -> Result<Reply, ProtocolError> {
        let id = self.submit(priority, query)?;
        loop {
            let reply = self.recv()?;
            if reply.id == id {
                return Ok(reply);
            }
        }
    }
}

/// Seeds of connection B's bulk queries, uniform over the social graph's
/// largest component. Long enough that a run never cycles through it, so
/// the mix of cheap and costly (dense-mode) bulk queries is the same in
/// every run.
pub fn bulk_seeds(lcc: &[u32], rng: &mut Rng) -> Vec<u32> {
    (0..4096).map(|_| lcc[rng.below(lcc.len())]).collect()
}

/// Poisson arrival offsets at `rate`/s covering `window`.
pub fn arrivals(rng: &mut Rng, rate: f64, window: Duration) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= window.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// What one served window measured.
pub struct Window {
    pub answers: Vec<Answer>,
    pub kept: Kept,
    /// Send time minus due time, per interactive query, in ms.
    pub late_ms: Vec<f64>,
    pub bulk_answers: Vec<(Vec<u32>, f64)>,
    pub bulk_failed: u64,
    pub bulk_bytes: Vec<f64>,
    pub interactive_bytes: Vec<f64>,
    pub bulk_depth: Vec<f64>,
    pub window: Duration,
}

/// Runs connection A (open loop over `jobs` at the `due` offsets) and
/// connection B (`BULK_WINDOW` bulk PR-Nibble queries outstanding) for
/// `window`, sampling the bulk queue depth from the metrics page.
pub fn window(
    server: &RunningServer,
    jobs: &[Job],
    due: &[Duration],
    bulk_seeds: &[u32],
    window: Duration,
) -> Window {
    let addr = server.local_addr();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (a, b, depth) = std::thread::scope(|s| {
        let a = s.spawn(|| open_loop(addr, jobs, due, start));
        let b = s.spawn(|| bulk_loop(addr, bulk_seeds, start, window, &stop));
        let mut depth = Vec::new();
        while start.elapsed() < window {
            depth.push(bulk_queue_depth(&server.metrics_text()));
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Release);
        let a = a.join().expect("interactive connection thread");
        let b = b.join().expect("bulk connection thread");
        (a, b, depth)
    });
    let (answers, kept, late_ms, interactive_bytes) = a.expect("interactive connection");
    let (bulk_answers, bulk_failed, bulk_bytes) = b.expect("bulk connection");
    Window {
        answers,
        kept,
        late_ms,
        bulk_answers,
        bulk_failed,
        bulk_bytes,
        interactive_bytes,
        bulk_depth: depth,
        window,
    }
}

type OpenLoop = (Vec<Answer>, Kept, Vec<f64>, Vec<f64>);

fn open_loop(
    addr: SocketAddr,
    jobs: &[Job],
    due: &[Duration],
    start: Instant,
) -> Result<OpenLoop, ProtocolError> {
    let mut conn = Conn::connect(addr)?;
    let mut pending: HashMap<u32, (usize, Duration)> = HashMap::new();
    let (mut answers, mut kept, mut late, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    while next < due.len() || !pending.is_empty() {
        let now = start.elapsed();
        if next < due.len() && now >= due[next] && pending.len() < MAX_OUTSTANDING {
            let id = conn.submit(Priority::Interactive, &jobs[next % jobs.len()].query)?;
            late.push(ms(now - due[next]));
            pending.insert(id, (next, due[next]));
            next += 1;
            continue;
        }
        let wait = match due.get(next) {
            Some(&d) if pending.len() < MAX_OUTSTANDING => d.saturating_sub(now),
            _ => Duration::from_millis(5),
        };
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        if !conn.ready(wait)? {
            continue;
        }
        let reply = conn.recv()?;
        let Some((k, due_at)) = pending.remove(&reply.id) else {
            continue;
        };
        let done = start.elapsed();
        bytes.push(reply.bytes as f64);
        let support = reply
            .result
            .as_ref()
            .map_or(0, |r| r.diffusion.support_size());
        let answer = reply.result.map(|res| {
            let pair = (res.cluster.clone(), res.conductance);
            if k < REFERENCE_SAMPLE.min(jobs.len()) {
                kept.push((k, res));
            }
            pair
        });
        answers.push(Answer {
            job: k % jobs.len(),
            latency: done - due_at,
            done,
            answer,
            refine_ok: true,
            support,
        });
    }
    Ok((answers, kept, late, bytes))
}

/// Bulk answers `(cluster, φ)`, failed count, response sizes.
type BulkLoop = (Vec<(Vec<u32>, f64)>, u64, Vec<f64>);

fn bulk_loop(
    addr: SocketAddr,
    seeds: &[u32],
    start: Instant,
    window: Duration,
    stop: &AtomicBool,
) -> Result<BulkLoop, ProtocolError> {
    let mut conn = Conn::connect(addr)?;
    let algo = bulk_prnibble();
    let mut sent = 0;
    let mut submit = |conn: &mut Conn| {
        let q = Query::new(Seed::single(seeds[sent % seeds.len()]), algo.clone());
        sent += 1;
        conn.submit(Priority::Bulk, &q)
    };
    let mut outstanding = 0;
    while outstanding < BULK_WINDOW {
        submit(&mut conn)?;
        outstanding += 1;
    }
    let (mut done, mut failed, mut bytes) = (Vec::new(), 0, Vec::new());
    while outstanding > 0 {
        let reply = conn.recv()?;
        outstanding -= 1;
        if start.elapsed() <= window {
            bytes.push(reply.bytes as f64);
            match reply.result {
                Some(res) => done.push((res.cluster, res.conductance)),
                None => failed += 1,
            }
        }
        if !stop.load(Ordering::Acquire) && start.elapsed() < window {
            submit(&mut conn)?;
            outstanding += 1;
        }
    }
    Ok((done, failed, bytes))
}

/// `lgc_queue_depth{class="bulk"} N` from the metrics page.
fn bulk_queue_depth(page: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix("lgc_queue_depth{class=\"bulk\"} "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The served workload's end-to-end rows.
pub fn outcome(world: &World, jobs: &[Job], w: Window, phi_prefix: usize) -> Outcome {
    let (mut wrong, bitwise) = crate::workloads::check_answers(world, jobs, &w.answers, &w.kept);
    wrong += w
        .bulk_answers
        .iter()
        .filter(|(c, phi)| !answer_ok(world, SOCIAL, c, *phi))
        .count() as u64;
    let bulk_done = w.bulk_answers.len() as u64;
    let completed = w.answers.iter().filter(|a| a.answer.is_some()).count();
    let late = Sample::new(w.late_ms.clone());
    let phis = crate::workloads::mean_phi(&w.answers, phi_prefix);
    let secs = w.window.as_secs_f64();
    let mut out = Outcome {
        attempted: (w.answers.len() as u64) + bulk_done + w.bulk_failed,
        failed: (w.answers.len() - completed) as u64 + w.bulk_failed,
        wrong,
        ..Default::default()
    };
    out.push(
        Metric::new("qps", "1/s", ratio(completed as f64, secs))
            .with(crate::workloads::per_second(&w.answers, w.window).summary(None)),
    );
    crate::workloads::push_latency(&mut out, &w.answers);
    out.push(Metric::new("mean_phi", "1", phis.mean()).with(phis.summary(None)));
    let mut gen = Json::obj();
    gen.set("offered_qps", OFFERED_QPS)
        .set("late_ms", late.summary(Some(0.99)))
        .set("late_p99_ms", late.quantile(0.99))
        .set("bulk_window", BULK_WINDOW)
        .set("bulk_qps", ratio(bulk_done as f64, secs));
    out.info.push(("loadgen", gen));
    out.info.push(("window_s", secs.into()));
    out.info.push(("reference_checked", w.kept.len().into()));
    out.info.push(("reference_bitwise", bitwise.into()));
    out
}
