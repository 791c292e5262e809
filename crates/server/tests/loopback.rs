//! Loopback integration: a real `TcpListener` on 127.0.0.1, concurrent
//! client threads across mixed tenants, and the core contract — every
//! response is **bitwise equal** to a direct engine run of the same
//! query. Also exercises the typed-error paths: malformed frames,
//! unknown tenants, over-quota tenants (engine `Overloaded` with the
//! floored retry hint), deadline trips with partial results, and
//! connection accounting (no leaks after clients hang up).
//!
//! The service runs on a 1-thread pool, where all five algorithms are
//! fully deterministic, so bitwise comparison is exact by contract.

use lgc_core::{
    find_cluster, Algorithm, EngineLimits, EvolvingParams, HkprParams, NibbleParams,
    PrNibbleParams, Query, QueryBudget, RandHkprParams, Seed, Service, RETRY_AFTER_FLOOR,
};
use lgc_graph::{gen, Graph};
use lgc_parallel::Pool;
use lgc_server::client::{Client, Response};
use lgc_server::{Priority, Server, ServerConfig, WireError};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cliques", gen::two_cliques_bridge(12)),
        ("local", gen::rand_local(300, 5, 3)),
        ("mesh", gen::grid_3d(6, 6, 3)),
    ]
}

fn one_thread_service() -> Service {
    let mut svc = Service::builder().pool(Pool::shared(1)).build();
    for (name, g) in graphs() {
        svc.add_graph(name, g);
    }
    svc
}

fn algos() -> Vec<Algorithm> {
    vec![
        Algorithm::Nibble(NibbleParams {
            t_max: 8,
            eps: 1e-6,
        }),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.05,
            eps: 1e-6,
            ..Default::default()
        }),
        Algorithm::Hkpr(HkprParams {
            t: 3.0,
            n_levels: 8,
            eps: 1e-5,
        }),
        Algorithm::RandHkpr(RandHkprParams {
            walks: 2_000,
            max_len: 8,
            rng_seed: 42,
            ..Default::default()
        }),
        Algorithm::Evolving(EvolvingParams {
            max_steps: 20,
            rng_seed: 7,
            ..Default::default()
        }),
    ]
}

#[test]
fn concurrent_clients_get_bitwise_equal_results() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Direct reference runs on an identical 1-thread pool.
    let reference: Vec<(&str, Graph)> = graphs();

    let n_clients = 4;
    let handles: Vec<_> = (0..n_clients)
        .map(|c| {
            let reference: Vec<(&str, Graph)> =
                reference.iter().map(|(n, g)| (*n, g.clone())).collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let pool = Pool::new(1);
                for (i, algo) in algos().into_iter().enumerate() {
                    // Each client hits a different tenant/seed mix.
                    let (tenant, graph) = &reference[(c + i) % reference.len()];
                    let seed = Seed::single(((c * 31 + i * 7) % graph.num_vertices()) as u32);
                    let query = Query::new(seed.clone(), algo.clone());
                    let class = if i % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Bulk
                    };
                    let got = client
                        .query(tenant, class, &query)
                        .expect("transport ok")
                        .expect("query ok");
                    let want = find_cluster(&pool, graph, &seed, &algo);
                    // Bitwise equality, field by field.
                    assert_eq!(got.cluster, want.cluster, "{tenant}/{i}");
                    assert_eq!(
                        got.conductance.to_bits(),
                        want.conductance.to_bits(),
                        "{tenant}/{i}"
                    );
                    assert_eq!(got.diffusion.p.len(), want.diffusion.p.len());
                    for (a, b) in got.diffusion.p.iter().zip(&want.diffusion.p) {
                        assert_eq!(a.0, b.0);
                        assert_eq!(a.1.to_bits(), b.1.to_bits());
                    }
                    assert_eq!(got.diffusion.stats, want.diffusion.stats);
                    assert_eq!(got.sweep.order, want.sweep.order);
                    assert_eq!(got.sweep.best_size, want.sweep.best_size);
                    assert_eq!(
                        got.sweep.best_conductance.to_bits(),
                        want.sweep.best_conductance.to_bits()
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // All client sockets are gone; the server must notice every close.
    let metrics = server.metrics();
    for _ in 0..400 {
        if metrics.connections_closed.load(Ordering::Relaxed)
            == metrics.connections_opened.load(Ordering::Relaxed)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        metrics.connections_opened.load(Ordering::Relaxed),
        n_clients as u64
    );
    assert_eq!(
        metrics.connections_closed.load(Ordering::Relaxed),
        n_clients as u64
    );
    assert_eq!(metrics.protocol_errors.load(Ordering::Relaxed), 0);
    server.shutdown();
}

#[test]
fn control_requests_list_ping_metrics() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    // LIST is sorted regardless of registration order.
    assert_eq!(client.list().unwrap(), vec!["cliques", "local", "mesh"]);
    // Run one query, then check it shows up on the metrics page.
    let q = Query::new(Seed::single(0), Algorithm::PrNibble(Default::default()));
    client
        .query("cliques", Priority::Interactive, &q)
        .unwrap()
        .unwrap();
    let page = client.metrics().unwrap();
    for needle in [
        "lgc_queries_total{tenant=\"cliques\",class=\"interactive\",outcome=\"completed\"} 1",
        "lgc_query_latency_seconds{tenant=\"cliques\",class=\"interactive\",quantile=\"0.99\"}",
        "lgc_lifecycle_total{tenant=\"cliques\",event=\"completed\"} 1",
        "lgc_queue_cap{class=\"interactive\"}",
        "lgc_cache_psi_total{tenant=\"mesh\",result=\"miss\"}",
    ] {
        assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
    }
    server.shutdown();
}

#[test]
fn typed_errors_for_bad_requests() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(0), Algorithm::Nibble(Default::default()));

    // Unknown tenant.
    match client.query("absent", Priority::Interactive, &q) {
        Ok(Err(WireError::UnknownGraph { tenant })) => assert_eq!(tenant, "absent"),
        other => panic!("expected UnknownGraph, got {other:?}"),
    }
    // Out-of-range seed: typed InvalidSeed from the engine.
    let bad = Query::new(Seed::single(1 << 20), Algorithm::Nibble(Default::default()));
    match client.query("cliques", Priority::Interactive, &bad) {
        Ok(Err(WireError::InvalidSeed { vertex, .. })) => assert_eq!(vertex, 1 << 20),
        other => panic!("expected InvalidSeed, got {other:?}"),
    }
    // The connection is still healthy after both typed errors.
    client.ping().unwrap();
    // A malformed query payload inside a well-formed frame: typed
    // Unsupported, connection stays open.
    use lgc_server::frame::{write_frame, FrameKind};
    let mut raw = Vec::new();
    write_frame(&mut raw, FrameKind::Query, 99, &[0xFF, 0x01, 0x02]).unwrap();
    client.send_raw(&raw).unwrap();
    let frame = client.recv_raw().unwrap();
    assert_eq!(frame.kind, FrameKind::Error);
    assert_eq!(frame.id, 99);
    match lgc_server::wire::decode_error(&frame.payload).unwrap() {
        WireError::Unsupported { .. } => {}
        other => panic!("expected Unsupported, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

/// An out-of-range parameter is refused at decode with a typed error
/// on its own request id; the executor never sees it, and the next
/// valid query on the same connection is answered.
#[test]
fn invalid_params_get_an_error_frame_and_the_connection_survives() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let bad = Query::new(
        Seed::single(0),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 2.0,
            ..Default::default()
        }),
    );
    match client.query("cliques", Priority::Interactive, &bad) {
        Ok(Err(WireError::Unsupported { message })) => {
            assert!(message.contains("alpha"), "{message}")
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let good = Query::new(Seed::single(0), Algorithm::PrNibble(Default::default()));
    let got = client
        .query("cliques", Priority::Interactive, &good)
        .expect("transport ok")
        .expect("query ok");
    let want = find_cluster(&Pool::new(1), &graphs()[0].1, &good.seed, &good.algo);
    assert_eq!(got.cluster, want.cluster);
    assert_eq!(got.conductance.to_bits(), want.conductance.to_bits());
    server.shutdown();
}

#[test]
fn over_quota_tenant_is_shed_with_floored_retry_hint() {
    // Engine-level quota: max_in_flight = 0 admits nothing, so the
    // very first query is shed by admission control — the cold-start
    // case the retry_after floor exists for.
    let mut svc = Service::builder().pool(Pool::shared(1)).build();
    svc.add_graph_with_limits(
        "gated",
        gen::two_cliques_bridge(8),
        EngineLimits {
            max_in_flight: Some(0),
            ..Default::default()
        },
    );
    let server = Server::bind(Arc::new(svc), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(0), Algorithm::PrNibble(Default::default()));
    match client.query("gated", Priority::Interactive, &q) {
        Ok(Err(WireError::Overloaded {
            limit, retry_after, ..
        })) => {
            assert_eq!(limit, 0);
            // Cold start: zero completed queries, yet the hint is the
            // floor, not zero/absent.
            assert_eq!(retry_after, Some(RETRY_AFTER_FLOOR));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn deadline_trip_returns_partial_over_the_wire() {
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // An already-expired deadline trips at the first checkpoint.
    let q = Query::new(
        Seed::single(1),
        Algorithm::PrNibble(PrNibbleParams {
            alpha: 0.01,
            eps: 1e-9,
            ..Default::default()
        }),
    )
    .with_budget(QueryBudget::unlimited().with_deadline(Duration::ZERO));
    match client.query("local", Priority::Interactive, &q) {
        Ok(Err(WireError::DeadlineExceeded(partial))) => {
            // The partial's counters made it across the wire intact.
            assert_eq!(partial.stats.iterations, 0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn connection_cap_sheds_pipelined_flood() {
    // One connection, in-flight cap 2, a flood of pipelined submits:
    // some complete, the overflow is shed with QueueFull + retry hint,
    // and nothing panics or deadlocks.
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig {
            conn_inflight_cap: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(3), Algorithm::Hkpr(Default::default()));
    let flood = 24;
    for _ in 0..flood {
        client.submit("local", Priority::Interactive, &q).unwrap();
    }
    let mut ok = 0u32;
    let mut shed = 0u32;
    for _ in 0..flood {
        match client.recv_response().unwrap().1 {
            Response::Result(_) => ok += 1,
            Response::Error(WireError::QueueFull {
                cap, retry_after, ..
            }) => {
                assert_eq!(cap, 2);
                assert!(retry_after.unwrap() >= RETRY_AFTER_FLOOR);
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(ok + shed, flood);
    assert!(ok >= 2, "at least the in-cap queries complete (got {ok})");
    assert!(shed > 0, "the flood must overflow a cap of 2");
    let m = server.metrics();
    assert_eq!(m.shed_connection_cap.load(Ordering::Relaxed), shed as u64);
    server.shutdown();
}

#[test]
fn bulk_queries_inherit_the_server_bulk_budget() {
    // Server bulk budget with an instant deadline: a bulk query with no
    // budget of its own must trip; an interactive one sails through.
    let server = Server::bind(
        Arc::new(one_thread_service()),
        "127.0.0.1:0",
        ServerConfig {
            bulk_budget: QueryBudget::unlimited().with_deadline(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = Query::new(Seed::single(1), Algorithm::PrNibble(Default::default()));
    match client.query("cliques", Priority::Bulk, &q) {
        Ok(Err(WireError::DeadlineExceeded(_))) => {}
        other => panic!("expected bulk DeadlineExceeded, got {other:?}"),
    }
    client
        .query("cliques", Priority::Interactive, &q)
        .unwrap()
        .expect("interactive query must not inherit the bulk budget");
    server.shutdown();
}
