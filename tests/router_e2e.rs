//! End-to-end tests for the consistent-hash router, run in-process over
//! loopback TCP against real `Server` backends.
//!
//! Covers the three contracts the router makes on top of the daemon's:
//!
//! 1. one event loop multiplexes a thousand-plus concurrent client
//!    connections, and every routed report is byte-identical to the offline
//!    sweep whichever backend ran it;
//! 2. a backend killed mid-stream is evicted by the health prober and fresh
//!    jobs land on the survivors with identical bytes (failover);
//! 3. `shutdown` drains in-flight forwards — waiting clients still get their
//!    results — refuses new work, and exits without touching the backends;
//! 4. a backend that answers a forward with a truncated frame, or stalls
//!    mid-frame, costs a retry on a healthy backend, never a wrong byte.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests time real socket waits on loopback"
)]

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uopcache_bench::policies::PolicyRegistry;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_serve::{
    frame, read_frame, write_frame, Client, ClientError, Router, RouterConfig, RouterHandle,
    Server, ServerConfig, ServerHandle,
};
use uopcache_trace::AppId;

fn spec(app: AppId, len: usize) -> SweepSpec {
    let registry = PolicyRegistry::all();
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![app],
        policies: vec![registry
            .resolve("lru")
            .expect("lru resolves")
            .name()
            .to_string()],
        variant: 0,
        len,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

fn spawn_backend() -> ServerHandle {
    Server::bind(ServerConfig::builder().jobs(1).build())
        .expect("backend binds on loopback")
        .spawn()
        .expect("backend spawns")
}

fn spawn_router(backends: &[SocketAddr]) -> RouterHandle {
    Router::bind(
        RouterConfig::builder()
            .backends(backends.iter().copied())
            .health_interval(Duration::from_millis(100))
            .retry_backoff(Duration::from_millis(20))
            .build(),
    )
    .expect("router binds on loopback")
    .spawn()
    .expect("router spawns")
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(5)).expect("loopback connect")
}

/// Connects with retry: a thousand near-simultaneous connects can overflow
/// the listen backlog transiently while the event loop drains it.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "connect to {addr} kept failing: {e}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

fn frame_type(reply: &Json) -> &str {
    reply
        .field("type")
        .expect("frames carry a type")
        .as_str()
        .expect("type is a string")
}

fn drain(handle: ServerHandle) {
    let mut client = connect(handle.addr());
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    handle
        .join_within(Duration::from_secs(30))
        .expect("backend exits after drain")
        .expect("clean exit");
}

#[test]
fn a_thousand_concurrent_clients_get_offline_identical_bytes_across_backends() {
    let apps = [AppId::Kafka, AppId::Mysql, AppId::Postgres, AppId::Tomcat];
    let specs: Vec<SweepSpec> = apps.iter().map(|&app| spec(app, 700)).collect();
    let offline: Vec<String> = specs
        .iter()
        .map(|s| run_sweep(s, &Engine::new(2)).to_json())
        .collect();

    let backends = [spawn_backend(), spawn_backend()];
    let router = spawn_router(&[backends[0].addr(), backends[1].addr()]);

    // 1000 connections pipeline one submit-and-wait frame each, all open at
    // once — the single nonblocking event loop must multiplex every one of
    // them. Four distinct specs, so dedupe collapses the fan-in to four jobs.
    const CLIENTS: usize = 1_000;
    let mut streams = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut stream = raw_connect(router.addr());
        let submit = frame(
            "submit",
            vec![
                ("job".to_string(), specs[i % specs.len()].to_json()),
                ("wait".to_string(), Json::Bool(true)),
                ("timeout_ms".to_string(), Json::U64(300_000)),
            ],
        );
        write_frame(&mut stream, &submit).expect("submit frame written");
        streams.push(stream);
    }

    for (i, stream) in streams.iter_mut().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(300)))
            .expect("read timeout set");
        let stall = Duration::from_secs(300);
        let accepted = read_frame(&mut *stream, stall)
            .expect("accepted frame arrives")
            .expect("connection stays open");
        assert_eq!(frame_type(&accepted), "accepted", "client {i}: {accepted}");
        let result = read_frame(&mut *stream, stall)
            .expect("result frame arrives")
            .expect("connection stays open");
        assert_eq!(frame_type(&result), "result", "client {i}: {result}");
        let report = result.field("result").expect("result body");
        assert_eq!(
            report.to_string(),
            offline[i % specs.len()],
            "client {i}: routed bytes must match the offline sweep"
        );
    }
    drop(streams);

    // The router saw the full fan-in but collapsed it to one job per spec,
    // and memory stayed bounded: nothing pending, queues within capacity.
    let mut admin = connect(router.addr());
    let stats = admin.stats(Duration::from_secs(5)).expect("stats");
    let counters = stats
        .field("metrics")
        .and_then(|m| m.field("counters"))
        .expect("metrics counters");
    let accepted = counters
        .field("jobs_accepted")
        .expect("accepted counter")
        .as_u64()
        .expect("u64");
    let deduped = counters
        .field("jobs_deduped")
        .expect("deduped counter")
        .as_u64()
        .expect("u64");
    assert_eq!(accepted, specs.len() as u64, "{stats}");
    assert_eq!(deduped, (CLIENTS - specs.len()) as u64, "{stats}");
    let depth = stats
        .field("queue_depth")
        .expect("depth gauge")
        .as_u64()
        .expect("u64");
    assert_eq!(depth, 0, "everything drained: {stats}");

    admin.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits after drain")
        .expect("clean exit");
    for backend in backends {
        drain(backend);
    }
}

#[test]
fn a_dead_backend_is_evicted_and_fresh_jobs_land_elsewhere_byte_identically() {
    let survivor = spawn_backend();
    let victim = spawn_backend();
    let router = spawn_router(&[survivor.addr(), victim.addr()]);
    let mut client = connect(router.addr());

    // Warm path: the router forwards fine with both backends up.
    let warm = spec(AppId::Kafka, 600);
    let warm_offline = run_sweep(&warm, &Engine::new(2)).to_json();
    let outcome = client
        .submit_and_wait(&warm, None, Duration::from_secs(120))
        .expect("warm job completes");
    assert_eq!(outcome.report.to_string(), warm_offline);

    // Kill one backend mid-stream: drain it directly (drain-aware eviction
    // kicks in first), then its listener disappears entirely.
    drain(victim);

    // The health prober must evict it from placement.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let stats = client.stats(Duration::from_secs(5)).expect("stats");
        let backends = match stats.field("backends").expect("backends array") {
            Json::Arr(items) => items.clone(),
            other => panic!("backends should be an array, got {other}"),
        };
        let evicted = backends.iter().any(|b| {
            b.field("healthy").ok().and_then(Json::as_bool) == Some(false)
                || b.field("draining").ok().and_then(Json::as_bool) == Some(true)
        });
        if evicted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "health probing never evicted the dead backend: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Fresh jobs — whichever backend their ring position prefers — must all
    // land on the survivor with offline-identical bytes.
    for (i, app) in [AppId::Mysql, AppId::Postgres, AppId::Tomcat, AppId::Drupal]
        .into_iter()
        .enumerate()
    {
        let s = spec(app, 500 + i * 40);
        let offline = run_sweep(&s, &Engine::new(3)).to_json();
        let outcome = client
            .submit_and_wait(&s, None, Duration::from_secs(120))
            .expect("failover lands the job on the survivor");
        assert_eq!(
            outcome.report.to_string(),
            offline,
            "failover must not change a byte"
        );
    }

    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits after drain")
        .expect("clean exit");
    drain(survivor);
}

#[test]
fn router_shutdown_drains_in_flight_forwards_and_leaves_backends_serving() {
    let backend = spawn_backend();
    let router = spawn_router(&[backend.addr()]);

    // A waiter blocks on a meaty job from its own connection; the shutdown
    // arrives while it is (very likely) still being forwarded.
    let slow = spec(AppId::Wordpress, 4_000);
    let slow_offline = run_sweep(&slow, &Engine::new(2)).to_json();
    let router_addr = router.addr();
    let waiter_spec = slow.clone();
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(router_addr, Duration::from_secs(5)).expect("connect");
        c.submit_and_wait(&waiter_spec, None, Duration::from_secs(120))
    });

    // Give the submit a moment to be admitted, then drain the router.
    let mut admin = connect(router.addr());
    let admit_deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = admin.stats(Duration::from_secs(5)).expect("stats");
        // The counter only appears once the first job is admitted.
        let accepted = stats
            .field("metrics")
            .and_then(|m| m.field("counters"))
            .and_then(|c| c.field("jobs_accepted"))
            .ok()
            .and_then(|v| v.as_u64());
        if accepted == Some(1) {
            break;
        }
        assert!(
            Instant::now() < admit_deadline,
            "the waiter's job was never admitted: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    admin.shutdown(Duration::from_secs(5)).expect("drain ack");

    // New work is refused while draining...
    let err = admin
        .submit(&spec(AppId::Kafka, 300), None, Duration::from_secs(5))
        .expect_err("draining router refuses new work");
    assert!(matches!(err, ClientError::Busy { .. }), "{err}");

    // ...but the in-flight forward completes and its waiter gets the bytes.
    let outcome = waiter
        .join()
        .expect("waiter thread exits")
        .expect("in-flight forward drains to completion");
    assert_eq!(outcome.report.to_string(), slow_offline);

    router
        .join_within(Duration::from_secs(60))
        .expect("router exits after the drain")
        .expect("clean exit");

    // The backends are the router's to use, not to own: the daemon is still
    // up and serving byte-identical results directly.
    let mut direct = connect(backend.addr());
    let again = direct
        .submit_and_wait(&slow, None, Duration::from_secs(120))
        .expect("backend still serves after the router drained");
    assert!(again.deduped, "the backend still remembers the routed job");
    assert_eq!(again.report.to_string(), slow_offline);
    direct.shutdown(Duration::from_secs(5)).expect("drain ack");
    backend
        .join_within(Duration::from_secs(30))
        .expect("backend exits")
        .expect("clean exit");
}

/// How a faulty backend botches the one forward it is armed for.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Sends the result frame's prefix and half its body, then closes.
    Truncate,
    /// Sends the result frame's prefix and half its body, then goes silent
    /// until the router hangs up.
    Stall,
}

/// A backend in front of the daemon at `upstream`: it relays every
/// connection byte for byte, except that the first `submit` reaching any
/// proxy sharing `armed` is answered with `fault` instead.
fn faulty_backend(upstream: SocketAddr, fault: Fault, armed: &Arc<AtomicBool>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy binds on loopback");
    let addr = listener.local_addr().expect("proxy address");
    let armed = Arc::clone(armed);
    std::thread::spawn(move || {
        for conn in listener.incoming().flatten() {
            let armed = Arc::clone(&armed);
            std::thread::spawn(move || relay(conn, upstream, fault, &armed));
        }
    });
    addr
}

/// Serves one proxied connection; every failure just drops it.
fn relay(mut client: TcpStream, upstream: SocketAddr, fault: Fault, armed: &AtomicBool) {
    let Ok(Some(first)) = read_frame(&client, Duration::from_secs(10)) else {
        return;
    };
    if frame_type(&first) == "submit" && armed.swap(false, Ordering::SeqCst) {
        let id = first.field("id").cloned().unwrap_or(Json::Null);
        let accepted = frame(
            "accepted",
            vec![
                ("job_id".to_string(), id.clone()),
                ("deduped".to_string(), Json::Bool(false)),
            ],
        );
        let result = frame(
            "result",
            vec![
                ("job_id".to_string(), id),
                ("result".to_string(), Json::Obj(Vec::new())),
            ],
        )
        .to_string();
        let len = u32::try_from(result.len()).expect("fits").to_le_bytes();
        let _ = write_frame(&mut client, &accepted);
        let _ = client.write_all(&len);
        let _ = client.write_all(&result.as_bytes()[..result.len() / 2]);
        if let Fault::Stall = fault {
            // Silent until the router gives up on the frame and hangs up.
            let _ = std::io::copy(&mut client, &mut std::io::sink());
        }
        return;
    }
    let Ok(mut server) = TcpStream::connect(upstream) else {
        return;
    };
    if write_frame(&mut server, &first).is_err() {
        return;
    }
    let (Ok(mut from_client), Ok(mut to_server)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let upward = std::thread::spawn(move || {
        let _ = std::io::copy(&mut from_client, &mut to_server);
        let _ = to_server.shutdown(Shutdown::Write);
    });
    let _ = std::io::copy(&mut server, &mut client);
    let _ = client.shutdown(Shutdown::Both);
    let _ = upward.join();
}

/// Two daemons behind faulty proxies that share one armed fault: whichever
/// the ring prefers botches the job, and the client must still get the
/// offline bytes, from the other.
fn a_botched_forward_is_retried_on_the_healthy_backend(fault: Fault) {
    let want = spec(AppId::Kafka, 800);
    let offline = run_sweep(&want, &Engine::new(2)).to_json();
    let backends = [spawn_backend(), spawn_backend()];
    let armed = Arc::new(AtomicBool::new(true));
    let proxies = [
        faulty_backend(backends[0].addr(), fault, &armed),
        faulty_backend(backends[1].addr(), fault, &armed),
    ];
    let router = spawn_router(&proxies);

    let mut client = connect(router.addr());
    let outcome = client
        .submit_and_wait(&want, None, Duration::from_secs(120))
        .expect("the retry lands the job on the healthy backend");
    assert_eq!(
        outcome.report.to_string(),
        offline,
        "{fault:?}: a botched forward must not change a byte"
    );
    assert!(
        !armed.load(Ordering::SeqCst),
        "{fault:?} was never injected"
    );
    let stats = client.stats(Duration::from_secs(5)).expect("stats");
    let counters = stats
        .field("metrics")
        .and_then(|m| m.field("counters"))
        .expect("metrics counters");
    let errors: u64 = ["backend0_errors", "backend1_errors"]
        .iter()
        .filter_map(|name| counters.field(name).ok().and_then(Json::as_u64))
        .sum();
    assert_eq!(
        errors, 1,
        "{fault:?}: one failed forward, then a retry: {stats}"
    );

    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits after drain")
        .expect("clean exit");
    for backend in backends {
        drain(backend);
    }
}

#[test]
fn a_truncated_result_frame_is_retried_on_the_healthy_backend_byte_identically() {
    a_botched_forward_is_retried_on_the_healthy_backend(Fault::Truncate);
}

#[test]
fn a_backend_stalling_mid_frame_is_retried_on_the_healthy_backend_byte_identically() {
    a_botched_forward_is_retried_on_the_healthy_backend(Fault::Stall);
}

#[test]
fn a_request_after_a_reply_is_read_well_within_one_poll_interval() {
    // As in `serve_e2e`, but through the router's event loop, with both
    // loops sleeping at most a 50 ms slice: a loop that slept the whole
    // slice once idle would take most of it per round trip.
    let poll = Duration::from_millis(50);
    let backend = Server::bind(ServerConfig::builder().poll_interval(poll).build())
        .expect("backend binds on loopback")
        .spawn()
        .expect("backend spawns");
    let router = Router::bind(
        RouterConfig::builder()
            .backends([backend.addr()])
            .poll_interval(poll)
            .build(),
    )
    .expect("router binds on loopback")
    .spawn()
    .expect("router spawns");
    let mut client = connect(router.addr());
    let want = spec(AppId::Kafka, 500);
    client
        .submit_and_wait(&want, None, Duration::from_secs(120))
        .expect("job completes");
    let mut trips: Vec<Duration> = (0..20)
        .map(|_| {
            // Think time: the request lands on a loop that has gone idle,
            // whatever the scheduler does right after the reply.
            std::thread::sleep(Duration::from_millis(1));
            let started = Instant::now();
            let again = client
                .submit_and_wait(&want, None, Duration::from_secs(30))
                .expect("resubmit completes");
            assert!(again.deduped, "identical resubmit must dedupe");
            started.elapsed()
        })
        .collect();
    trips.sort();
    let median = trips[trips.len() / 2];
    assert!(median < poll / 2, "median dedupe round trip {median:?}");

    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits after drain")
        .expect("clean exit");
    drain(backend);
}
