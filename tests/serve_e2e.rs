//! End-to-end tests for the serve daemon, run in-process over loopback TCP.
//!
//! Covers the four contracts the daemon makes:
//!
//! 1. a served job's report is byte-identical to the same spec run through
//!    the offline sweep path, at any worker count;
//! 2. a full queue answers with a structured `busy` frame instead of
//!    buffering (backpressure);
//! 3. a panicking job comes back as a structured `error` frame while the
//!    server keeps serving other clients;
//! 4. `shutdown` drains in-flight jobs — waiting clients still receive their
//!    results — and the server thread exits cleanly.
//!
//! It also pins the admission path the daemon shares with the router (one
//! table of cases, identical replies and counters from both), least-loaded
//! placement in both, the per-job start deadline, timed on an injected
//! manual clock, hostile frames (deeply nested, or carrying an 8 MB
//! string) that must neither take the daemon down nor stall other clients,
//! and hostile specs (too many accesses, a hostile cache geometry, too many
//! sampling intervals) that get an error while other clients get their
//! bytes.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests time real socket waits on loopback"
)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uopcache_bench::policies::PolicyRegistry;
use uopcache_bench::sweep::{run_sweep, SweepSpec, MAX_SPEC_INTERVALS};
use uopcache_exec::{Clock, Engine, ManualClock};
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_serve::{
    frame, read_frame, shard_for, write_frame, Client, ClientError, Router, RouterConfig, Server,
    ServerConfig, ServiceHandle,
};
use uopcache_trace::AppId;

fn spec(apps: &[AppId], len: usize) -> SweepSpec {
    let registry = PolicyRegistry::all();
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: apps.to_vec(),
        policies: ["lru", "random"]
            .iter()
            .map(|p| {
                registry
                    .resolve(p)
                    .expect("roster policies resolve")
                    .name()
                    .to_string()
            })
            .collect(),
        variant: 0,
        len,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

fn server_with(cfg: ServerConfig) -> Server {
    Server::bind(cfg).expect("loopback bind")
}

fn connect(server: &uopcache_serve::ServerHandle) -> Client {
    Client::connect(server.addr(), Duration::from_secs(5)).expect("loopback connect")
}

/// A gate that holds jobs inside the runner until released, so tests can
/// deterministically fill the queue or have work in flight during shutdown.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    bell: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn hold(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            let (guard, _) = self
                .bell
                .wait_timeout(open, Duration::from_millis(50))
                .expect("gate wait");
            open = guard;
        }
    }

    fn wait_entered(&self, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while self.entered.load(Ordering::SeqCst) < n {
            assert!(
                std::time::Instant::now() < deadline,
                "gate never saw {n} entrants"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn release(&self) {
        *self.open.lock().expect("gate lock") = true;
        self.bell.notify_all();
    }
}

/// A server whose every job holds on `gate` until it is released.
fn gated_server(cfg: ServerConfig, gate: &Arc<Gate>) -> ServiceHandle {
    let runner_gate = Arc::clone(gate);
    Server::bind_with_runner(
        cfg,
        Box::new(move |_spec, _engine| {
            runner_gate.hold();
            "{\"schema_version\":1}".to_string()
        }),
    )
    .expect("loopback bind")
    .spawn()
    .expect("spawn")
}

fn counter(client: &mut Client, name: &str) -> u64 {
    let stats = client.stats(Duration::from_secs(5)).expect("stats");
    stats
        .field("metrics")
        .and_then(|m| m.field("counters"))
        .ok()
        .and_then(|c| c.field(name).ok())
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn served_result_is_byte_identical_to_offline_sweep_at_any_worker_count() {
    let want = spec(&[AppId::Kafka], 1_500);
    // The offline reference, computed at a deliberately different worker
    // count than either server below.
    let offline = run_sweep(&want, &Engine::new(3)).to_json();

    // Worker count and shard count both vary; neither may change a byte.
    for (jobs, shards) in [(1usize, 1usize), (4, 3)] {
        let server = server_with(ServerConfig::builder().jobs(jobs).shards(shards).build())
            .spawn()
            .expect("spawn");
        let mut client = connect(&server);
        let outcome = client
            .submit_and_wait(&want, None, Duration::from_secs(120))
            .expect("job completes");
        assert_eq!(
            outcome.report.to_string(),
            offline,
            "served bytes must match offline sweep at jobs={jobs} shards={shards}"
        );

        // Idempotent retry: resubmitting the identical spec dedupes onto the
        // finished job and returns the same bytes again.
        let again = client
            .submit_and_wait(&want, None, Duration::from_secs(30))
            .expect("retry completes");
        assert!(again.deduped, "identical resubmit must dedupe");
        assert_eq!(again.job_id, outcome.job_id);
        assert_eq!(again.report.to_string(), offline);

        client.shutdown(Duration::from_secs(5)).expect("drain ack");
        server
            .join_within(Duration::from_secs(30))
            .expect("server exits after drain")
            .expect("clean exit");
    }
}

#[test]
fn full_queue_answers_with_a_structured_busy_frame() {
    let gate = Arc::new(Gate::default());
    let server = gated_server(ServerConfig::builder().queue_capacity(1).build(), &gate);

    let mut client = connect(&server);
    // First job occupies the executor; second fills the 1-slot queue.
    client
        .submit(
            &spec(&[AppId::Kafka], 100),
            Some("occupant"),
            Duration::from_secs(5),
        )
        .expect("first job accepted");
    gate.wait_entered(1);
    client
        .submit(
            &spec(&[AppId::Mysql], 100),
            Some("queued"),
            Duration::from_secs(5),
        )
        .expect("second job queued");

    // The third submit must bounce with a busy frame, not block or buffer.
    let err = client
        .submit(
            &spec(&[AppId::Tomcat], 100),
            Some("rejected"),
            Duration::from_secs(5),
        )
        .expect_err("queue is full");
    match err {
        ClientError::Busy { reason } => {
            assert!(reason.contains("queue full"), "reason was {reason:?}")
        }
        other => panic!("expected a busy frame, got {other}"),
    }
    // The rejection leaves no trace in the job table — the id stays free for
    // a retry — but the stats counters record it.
    let unknown = client
        .status("rejected", Duration::from_secs(5))
        .expect_err("a rejected id is forgotten, not parked as failed");
    match unknown {
        ClientError::Server(message) => {
            assert!(message.contains("unknown job"), "got {message:?}")
        }
        other => panic!("expected an unknown-job error, got {other}"),
    }
    let stats = client.stats(Duration::from_secs(5)).expect("stats");
    let busy_count = stats
        .field("metrics")
        .and_then(|m| m.field("counters"))
        .and_then(|c| c.field("jobs_rejected_busy"))
        .expect("counter present")
        .as_u64();
    assert_eq!(busy_count, Some(1));

    gate.release();
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn busy_rejected_job_can_be_retried_once_the_queue_frees() {
    let gate = Arc::new(Gate::default());
    let server = gated_server(ServerConfig::builder().queue_capacity(1).build(), &gate);

    let mut client = connect(&server);
    // Occupy the executor and fill the 1-slot queue, then bounce a third job
    // off the full queue — the documented retry-later backpressure path.
    let victim = spec(&[AppId::Tomcat], 100);
    client
        .submit(
            &spec(&[AppId::Kafka], 100),
            Some("occupant"),
            Duration::from_secs(5),
        )
        .expect("first job accepted");
    gate.wait_entered(1);
    client
        .submit(
            &spec(&[AppId::Mysql], 100),
            Some("queued"),
            Duration::from_secs(5),
        )
        .expect("second job queued");
    let err = client
        .submit(&victim, None, Duration::from_secs(5))
        .expect_err("queue is full");
    assert!(matches!(err, ClientError::Busy { .. }), "{err}");

    // Once the backlog drains, the *same* blind retry — identical spec, so
    // an identical content-derived id — must actually run, not dedupe onto a
    // stale rejection.
    gate.release();
    client
        .wait("queued", Duration::from_secs(30))
        .expect("backlog drains");
    let outcome = client
        .submit_and_wait(&victim, None, Duration::from_secs(30))
        .expect("retry after busy re-enqueues and completes");
    assert!(
        !outcome.deduped,
        "the retry must be a fresh job, not a dedupe onto the rejection"
    );
    assert_eq!(outcome.report.to_string(), "{\"schema_version\":1}");

    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn panicking_job_returns_an_error_frame_and_the_server_keeps_serving() {
    // The injected runner panics on the marker spec (len == 4242) and
    // otherwise behaves like the real one.
    let server = Server::bind_with_runner(
        ServerConfig::default(),
        Box::new(|spec, engine| {
            assert!(spec.len != 4_242, "injected panic for the marker job");
            run_sweep(spec, engine).to_json()
        }),
    )
    .expect("loopback bind")
    .spawn()
    .expect("spawn");

    let mut client = connect(&server);
    let err = client
        .submit_and_wait(&spec(&[AppId::Kafka], 4_242), None, Duration::from_secs(60))
        .expect_err("marker job panics");
    match err {
        ClientError::Server(message) => assert!(
            message.contains("injected panic"),
            "panic text must reach the client, got {message:?}"
        ),
        other => panic!("expected a server error frame, got {other}"),
    }

    // Same connection and a fresh connection both still work.
    let healthy = spec(&[AppId::Kafka], 800);
    let offline = run_sweep(&healthy, &Engine::new(2)).to_json();
    let outcome = client
        .submit_and_wait(&healthy, None, Duration::from_secs(120))
        .expect("server survived the panic");
    assert_eq!(outcome.report.to_string(), offline);
    let mut second = connect(&server);
    second
        .ping(Duration::from_secs(5))
        .expect("still accepting");

    second.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn shutdown_drains_in_flight_jobs_before_exit() {
    let gate = Arc::new(Gate::default());
    let runner_gate = Arc::clone(&gate);
    let server = Server::bind_with_runner(
        ServerConfig::default(),
        Box::new(move |_spec, _engine| {
            runner_gate.hold();
            "{\"schema_version\":1,\"drained\":true}".to_string()
        }),
    )
    .expect("loopback bind")
    .spawn()
    .expect("spawn");

    // A waiter blocks on a gated job from its own connection.
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");
        c.submit_and_wait(
            &spec(&[AppId::Kafka], 100),
            Some("inflight"),
            Duration::from_secs(60),
        )
    });
    gate.wait_entered(1);

    // Shutdown arrives while the job is mid-run...
    let mut admin = connect(&server);
    admin.shutdown(Duration::from_secs(5)).expect("drain ack");
    // ...new work is now refused...
    let err = admin
        .submit(&spec(&[AppId::Mysql], 100), None, Duration::from_secs(5))
        .expect_err("draining server refuses new work");
    assert!(matches!(err, ClientError::Busy { .. }), "{err}");
    // ...but the in-flight job finishes and its waiter gets the result.
    gate.release();
    let outcome = waiter
        .join()
        .expect("waiter thread exits")
        .expect("in-flight job drains to completion");
    assert_eq!(
        outcome.report.to_string(),
        "{\"schema_version\":1,\"drained\":true}"
    );
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits after the drain")
        .expect("clean exit");
}

/// Runs one table of `submit` cases against `addr`, checking each reply's
/// type and detail (message, busy reason or dedupe flag) and the counter
/// that records it. The first accepted job holds on `gate`, so the service
/// is still draining when the last case arrives.
fn check_admission(addr: SocketAddr, gate: &Gate) {
    let job = |app| ("job".to_string(), spec(&[app], 100).to_json());
    let id = |id: &str| ("id".to_string(), Json::Str(id.to_string()));
    let not_a_spec = ("job".to_string(), Json::Str("not a spec".to_string()));
    let cases = [
        (
            vec![not_a_spec],
            "error invalid job: ",
            "jobs_rejected_invalid",
            1,
        ),
        (
            vec![job(AppId::Kafka), id("")],
            "error invalid job: \"id\" must be a non-empty string",
            "jobs_rejected_invalid",
            2,
        ),
        (
            vec![job(AppId::Kafka), id("a")],
            "accepted deduped=false",
            "jobs_accepted",
            1,
        ),
        (
            vec![job(AppId::Mysql), id("a")],
            "error job id \"a\" was already submitted with a different spec",
            "jobs_rejected_invalid",
            3,
        ),
        (
            vec![job(AppId::Kafka), id("a")],
            "accepted deduped=true",
            "jobs_deduped",
            1,
        ),
        (
            vec![job(AppId::Mysql)],
            "busy draining",
            "jobs_rejected_busy",
            1,
        ),
    ];
    let mut client = Client::connect(addr, Duration::from_secs(5)).expect("loopback connect");
    for (fields, want, name, count) in cases {
        if name == "jobs_rejected_busy" {
            gate.wait_entered(1);
            client.shutdown(Duration::from_secs(5)).expect("drain ack");
        }
        client.send(&frame("submit", fields)).expect("send");
        let reply = client.recv(Duration::from_secs(5)).expect("reply");
        let text = |f: &str| reply.field(f).ok().and_then(Json::as_str).unwrap_or("");
        let detail = match text("type") {
            "error" => text("message").to_string(),
            "busy" => text("reason").to_string(),
            _ => format!(
                "deduped={}",
                reply.field("deduped").ok().and_then(Json::as_bool) == Some(true)
            ),
        };
        let got = format!("{} {detail}", text("type"));
        assert!(got.starts_with(want), "{addr}: got {got:?}, want {want:?}");
        assert_eq!(counter(&mut client, name), count, "{addr}: {want}");
    }
}

#[test]
fn server_and_router_share_one_admission_path() {
    let gate = Arc::new(Gate::default());
    let server = gated_server(ServerConfig::default(), &gate);
    check_admission(server.addr(), &gate);

    let backend_gate = Arc::new(Gate::default());
    let backend = gated_server(ServerConfig::default(), &backend_gate);
    let router = Router::bind(RouterConfig::builder().backend(backend.addr()).build())
        .expect("router binds on loopback")
        .spawn()
        .expect("router spawns");
    check_admission(router.addr(), &backend_gate);

    gate.release();
    backend_gate.release();
    for handle in [server, router] {
        handle
            .join_within(Duration::from_secs(30))
            .expect("drain completes")
            .expect("clean exit");
    }
    let mut admin = Client::connect(backend.addr(), Duration::from_secs(5)).expect("connect");
    admin.shutdown(Duration::from_secs(5)).expect("drain ack");
    backend
        .join_within(Duration::from_secs(30))
        .expect("backend exits")
        .expect("clean exit");
}

#[test]
fn a_job_queued_past_its_start_deadline_fails_with_a_timeout() {
    let clock = Arc::new(ManualClock::new());
    let gate = Arc::new(Gate::default());
    let server = gated_server(
        ServerConfig::builder()
            .clock(Arc::clone(&clock) as Arc<dyn Clock>)
            .build(),
        &gate,
    );
    let mut client = connect(&server);
    // Hold shard 0 with one job, then queue a second behind it with a 1s
    // start deadline.
    client
        .submit(
            &spec(&[AppId::Kafka], 100),
            Some("occupant"),
            Duration::from_secs(5),
        )
        .expect("first job accepted");
    gate.wait_entered(1);
    client
        .send(&frame(
            "submit",
            vec![
                ("job".to_string(), spec(&[AppId::Mysql], 100).to_json()),
                ("id".to_string(), Json::Str("late".to_string())),
                ("queue_timeout_ms".to_string(), Json::U64(1_000)),
            ],
        ))
        .expect("send");
    let accepted = client.recv(Duration::from_secs(5)).expect("reply");
    assert_eq!(
        accepted.field("type").ok().and_then(Json::as_str),
        Some("accepted")
    );

    // The queue wait runs on the injected clock: two seconds pass while the
    // occupant holds the shard, then the shard frees.
    clock.advance(Duration::from_secs(2));
    gate.release();
    match client.wait("late", Duration::from_secs(30)) {
        Err(ClientError::Server(message)) => assert_eq!(
            message, "timed out after 2000ms in the queue",
            "a stale job fails instead of running"
        ),
        other => panic!("expected a timeout error frame, got {other:?}"),
    }
    assert_eq!(counter(&mut client, "jobs_timed_out"), 1);
    assert_eq!(
        gate.entered.load(Ordering::SeqCst),
        1,
        "the late job never ran"
    );

    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

/// A barrier for job runners that gives up after a timeout: `meet` returns
/// whether `parties` runners were inside it at once. A placement that
/// serialises the jobs then fails the test instead of hanging it.
#[derive(Default)]
struct Rendezvous {
    arrived: Mutex<usize>,
    bell: Condvar,
}

impl Rendezvous {
    fn meet(&self, parties: usize) -> bool {
        let mut arrived = self.arrived.lock().expect("rendezvous lock");
        *arrived += 1;
        self.bell.notify_all();
        let (arrived, _) = self
            .bell
            .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < parties)
            .expect("rendezvous wait");
        *arrived >= parties
    }

    /// A runner that meets one partner and reports whether it did.
    fn runner(self: &Arc<Self>) -> Box<uopcache_serve::server::Runner> {
        let meet = Arc::clone(self);
        Box::new(move |_spec, _engine| {
            let met = meet.meet(2);
            format!("{{\"schema_version\":1,\"met\":{met}}}")
        })
    }

    fn reset(&self) {
        *self.arrived.lock().expect("rendezvous lock") = 0;
    }
}

fn met(report: &Json) -> bool {
    report.field("met").ok().and_then(Json::as_bool) == Some(true)
}

#[test]
fn jobs_sharing_a_home_shard_run_side_by_side_on_a_two_shard_daemon() {
    let meet = Arc::new(Rendezvous::default());
    let server = Server::bind_with_runner(ServerConfig::builder().shards(2).build(), meet.runner())
        .expect("loopback bind")
        .spawn()
        .expect("spawn");
    // Two ids that hash to the same home shard: shard-keyed placement would
    // queue the second behind the first while the other shard idles.
    let first = "side-0".to_string();
    let second = (1..)
        .map(|k| format!("side-{k}"))
        .find(|id| shard_for(id, 2) == shard_for(&first, 2))
        .expect("some id shares the home shard");
    let mut client = connect(&server);
    for (app, id) in [(AppId::Kafka, &first), (AppId::Mysql, &second)] {
        client
            .submit(&spec(&[app], 100), Some(id), Duration::from_secs(5))
            .expect("accepted");
    }
    for id in [&first, &second] {
        let report = client.wait(id, Duration::from_secs(30)).expect("result");
        assert!(met(&report), "{id} ran alone: {report}");
    }
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn the_router_places_a_job_on_the_idle_backend() {
    // Both single-shard backends run jobs through one rendezvous: a pair
    // of jobs meets only if the router sends them to different backends.
    let meet = Arc::new(Rendezvous::default());
    let backends: Vec<ServiceHandle> = (0..2)
        .map(|_| {
            Server::bind_with_runner(ServerConfig::default(), meet.runner())
                .expect("backend binds on loopback")
                .spawn()
                .expect("backend spawns")
        })
        .collect();
    let router = Router::bind(
        RouterConfig::builder()
            .backends(backends.iter().map(ServiceHandle::addr))
            .build(),
    )
    .expect("router binds on loopback")
    .spawn()
    .expect("router spawns");
    let mut client = Client::connect(router.addr(), Duration::from_secs(5)).expect("connect");
    // The first job of each pair goes to its ring owner; the second must
    // take the other, idle backend whatever its own ring owner is. Across
    // several pairs, ring placement alone would put some pair on one
    // backend.
    for pair in 0..6 {
        meet.reset();
        let ids = [format!("pair{pair}-a"), format!("pair{pair}-b")];
        for (app, id) in [AppId::Kafka, AppId::Mysql].into_iter().zip(&ids) {
            client
                .submit(&spec(&[app], 100), Some(id), Duration::from_secs(5))
                .expect("accepted");
        }
        for id in &ids {
            let report = client.wait(id, Duration::from_secs(30)).expect("result");
            assert!(met(&report), "{id} ran alone: {report}");
        }
    }
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    router
        .join_within(Duration::from_secs(30))
        .expect("router exits")
        .expect("clean exit");
    for backend in backends {
        let mut admin = Client::connect(backend.addr(), Duration::from_secs(5)).expect("connect");
        admin.shutdown(Duration::from_secs(5)).expect("drain ack");
        backend
            .join_within(Duration::from_secs(30))
            .expect("backend exits")
            .expect("clean exit");
    }
}

#[test]
fn a_deeply_nested_frame_gets_an_error_while_other_clients_get_their_bytes() {
    let want = spec(&[AppId::Kafka], 1_000);
    let offline = run_sweep(&want, &Engine::new(2)).to_json();
    let server = server_with(ServerConfig::builder().shards(2).build())
        .spawn()
        .expect("spawn");
    let mut client = connect(&server);
    let (id, _) = client
        .submit(&want, None, Duration::from_secs(5))
        .expect("accepted");

    // 50 000 nested `[` in one well-formed frame: a recursive parser without
    // a depth bound overflows its stack and aborts the whole process.
    let body = "[".repeat(50_000);
    let mut hostile = TcpStream::connect(server.addr()).expect("connect");
    let len = u32::try_from(body.len()).expect("fits").to_le_bytes();
    hostile.write_all(&len).expect("prefix");
    hostile.write_all(body.as_bytes()).expect("body");
    let reply = read_frame(&hostile, Duration::from_secs(10))
        .expect("a reply frame")
        .expect("not idle");
    assert_eq!(
        reply.field("type").ok().and_then(Json::as_str),
        Some("error")
    );
    let message = reply.field("message").ok().and_then(Json::as_str);
    assert!(
        message.is_some_and(|m| m.contains("nesting deeper")),
        "{reply}"
    );

    let report = client.wait(&id, Duration::from_secs(120)).expect("result");
    assert_eq!(report.to_string(), offline, "the other client's bytes");
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn an_oversized_spec_gets_an_error_while_other_clients_get_their_bytes() {
    let want = spec(&[AppId::Kafka], 1_000);
    let offline = run_sweep(&want, &Engine::new(2)).to_json();
    let server = server_with(ServerConfig::builder().shards(2).build())
        .spawn()
        .expect("spawn");
    let mut client = connect(&server);
    let (id, _) = client
        .submit(&want, None, Duration::from_secs(5))
        .expect("accepted");

    // 10^12 accesses, by length or by scale: admitting either would try to
    // build a trace far larger than memory and abort the whole process.
    let by_len = spec(&[AppId::Kafka], 1_000_000_000_000);
    let mut by_scale = spec(&[AppId::Kafka], 1_000);
    by_scale.scale = 1_000_000_000_000;
    for hostile in [by_len, by_scale] {
        let err = connect(&server)
            .submit(&hostile, None, Duration::from_secs(5))
            .expect_err("refused at admission");
        assert!(
            matches!(&err, ClientError::Server(m) if m.contains("exceeds")),
            "{err}"
        );
    }

    let report = client.wait(&id, Duration::from_secs(120)).expect("result");
    assert_eq!(report.to_string(), offline, "the other client's bytes");
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn a_spec_cutting_too_many_intervals_gets_an_error_while_other_clients_get_their_bytes() {
    let want = spec(&[AppId::Kafka], 1_000);
    let offline = run_sweep(&want, &Engine::new(2)).to_json();
    let server = server_with(ServerConfig::builder().shards(2).build())
        .spawn()
        .expect("spawn");
    let mut client = connect(&server);
    let (id, _) = client
        .submit(&want, None, Duration::from_secs(5))
        .expect("accepted");

    // Every access holds at least one micro-op, so 1-uop intervals cut one
    // interval per access: one more access than the cap allows. The spec
    // is well-formed and admitted; its fingerprint pass stops it.
    let mut hostile = spec(&[AppId::Kafka], MAX_SPEC_INTERVALS + 1);
    hostile.sample = Some(1);
    let err = connect(&server)
        .submit_and_wait(&hostile, None, Duration::from_secs(60))
        .expect_err("the fingerprint pass stops it");
    assert!(
        matches!(&err, ClientError::Server(m) if m.contains(&format!("more than {MAX_SPEC_INTERVALS} intervals"))),
        "{err}"
    );

    let report = client.wait(&id, Duration::from_secs(120)).expect("result");
    assert_eq!(report.to_string(), offline, "the other client's bytes");
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn a_hostile_cache_geometry_gets_an_error_while_other_clients_get_their_bytes() {
    let want = spec(&[AppId::Kafka], 1_000);
    let offline = run_sweep(&want, &Engine::new(2)).to_json();
    let server = server_with(ServerConfig::builder().shards(2).build())
        .spawn()
        .expect("spawn");
    let mut client = connect(&server);
    let (id, _) = client
        .submit(&want, None, Duration::from_secs(5))
        .expect("accepted");

    // 4·10^9 direct-mapped sets would ask for a 224 GB set array and abort
    // the whole process; zero or 100 ways would panic in the cache.
    for (entries, ways, why) in [
        (4_000_000_000, 1, "sets"),
        (512, 0, "1..=64"),
        (6_400, 100, "1..=64"),
    ] {
        let mut hostile = spec(&[AppId::Kafka], 1_000);
        hostile.cfg.uop_cache = hostile.cfg.uop_cache.with_entries(entries).with_ways(ways);
        let err = connect(&server)
            .submit(&hostile, None, Duration::from_secs(5))
            .expect_err("refused at admission");
        assert!(
            matches!(&err, ClientError::Server(m) if m.contains(why)),
            "{entries} x {ways}: {err}"
        );
    }

    let report = client.wait(&id, Duration::from_secs(120)).expect("result");
    assert_eq!(report.to_string(), offline, "the other client's bytes");
    client.shutdown(Duration::from_secs(5)).expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn an_8_mb_string_frame_is_answered_while_other_clients_get_their_bytes() {
    let want = spec(&[AppId::Kafka], 1_000);
    let offline = run_sweep(&want, &Engine::new(2)).to_json();
    let server = server_with(ServerConfig::builder().shards(2).build())
        .spawn()
        .expect("spawn");

    // One frame carrying an 8 MB string. The event loop decodes frames
    // inline, so a parser quadratic in string length would stall every
    // client for hours on it.
    let ping = frame(
        "ping",
        vec![("pad".to_string(), Json::Str("x".repeat(8 << 20)))],
    );
    let mut hostile = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut hostile, &ping).expect("frame sent");

    let got = connect(&server)
        .submit_and_wait(&want, None, Duration::from_secs(60))
        .expect("the other client's job runs");
    assert_eq!(got.report.to_string(), offline, "the other client's bytes");
    let reply = read_frame(&hostile, Duration::from_secs(10))
        .expect("a reply frame")
        .expect("not idle");
    assert_eq!(
        reply.field("type").ok().and_then(Json::as_str),
        Some("pong")
    );

    connect(&server)
        .shutdown(Duration::from_secs(5))
        .expect("drain ack");
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits")
        .expect("clean exit");
}

#[test]
fn a_request_after_a_reply_is_read_well_within_one_poll_interval() {
    // Each resubmit arrives after the loop flushed the previous reply and
    // found nothing new. A loop that slept a whole 50 ms slice then would
    // take most of that slice per round trip; backing off from a sixteenth
    // of the slice answers in a few milliseconds.
    let poll = Duration::from_millis(50);
    let server = server_with(ServerConfig::builder().poll_interval(poll).build())
        .spawn()
        .expect("spawn");
    let mut client = connect(&server);
    let want = spec(&[AppId::Kafka], 500);
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
    server
        .join_within(Duration::from_secs(30))
        .expect("server exits after drain")
        .expect("clean exit");
}

#[test]
fn a_finished_job_wakes_its_parked_waiter_at_once() {
    // By the time the gated job finishes, the idle loop has backed off to
    // whole 200 ms slices. A loop that noticed the finish only when a slice
    // ended would answer a uniformly late 0–200 ms after it, so three
    // replies all within 40 ms would be a 1-in-125 fluke.
    let poll = Duration::from_millis(200);
    for trial in 0..3 {
        let gate = Arc::new(Gate::default());
        let server = gated_server(ServerConfig::builder().poll_interval(poll).build(), &gate);
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut c = Client::connect(addr, Duration::from_secs(5)).expect("connect");
            c.submit_and_wait(&spec(&[AppId::Kafka], 100), None, Duration::from_secs(60))
                .map(|_| Instant::now())
        });
        gate.wait_entered(1);
        std::thread::sleep(3 * poll);
        let released = Instant::now();
        gate.release();
        let answered = waiter
            .join()
            .expect("waiter thread exits")
            .expect("gated job completes");
        let late = answered - released;
        assert!(
            late < poll / 5,
            "trial {trial}: reply {late:?} after release"
        );

        connect(&server)
            .shutdown(Duration::from_secs(5))
            .expect("drain ack");
        server
            .join_within(Duration::from_secs(30))
            .expect("server exits after drain")
            .expect("clean exit");
    }
}
