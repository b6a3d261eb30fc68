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
//! table of cases, identical replies and counters from both) and the per-job
//! start deadline, timed on an injected manual clock.

#![expect(
    clippy::disallowed_methods,
    reason = "these tests time real socket waits on loopback"
)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use uopcache_bench::policies::PolicyRegistry;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::{Clock, Engine, ManualClock};
use uopcache_model::json::Json;
use uopcache_model::FrontendConfig;
use uopcache_serve::{
    frame, Client, ClientError, Router, RouterConfig, Server, ServerConfig, ServiceHandle,
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
