//! The two serving workloads: two closed-loop clients, each with one
//! connection, submit a seeded request stream to an in-process `Server`
//! (`serve-mixed`) or to a `Router` in front of two `Server`s
//! (`route-mixed`), all inside one child process of the benchmark binary.
//!
//! Every fresh request is a distinct one-app spec (apps round-robin, LRU
//! and FURBYS) costing about 22 ms of compute; every fourth request of a
//! client resubmits the spec it sent three requests earlier, a dedupe hit
//! that runs no compute. Fresh requests exercise the queues and the engine,
//! repeats only admission, frames, JSON and the event loop.

use crate::host::{self, Child};
use crate::layers::{replicate, Replica};
use crate::stats::{median, tail};
use crate::{Metrics, Outcome, SETUP_TRIALS};
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::seed::splitmix64;
use uopcache_exec::Engine;
use uopcache_model::json::Json;
use uopcache_model::rng::{Prng, Rng};
use uopcache_model::FrontendConfig;
use uopcache_serve::protocol::{encode_frame, frame, FrameDecoder};
use uopcache_serve::{
    Client, Router, RouterConfig, RouterHandle, Server, ServerConfig, ServerHandle,
};
use uopcache_trace::AppId;

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Every `REPEAT_EVERY`-th request of a client repeats an earlier one.
const REPEAT_EVERY: usize = 4;
/// Client-side budget for one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// First of the fixed loopback ports the route backends try. Fixed ports
/// make the consistent-hash ring, and so each job's placement, the same on
/// every run; the next pair is tried when one is taken.
const BACKEND_PORT: u16 = 47_311;

/// The size of a serving workload.
#[derive(Debug)]
pub struct Shape {
    /// Trace length of every request.
    pub len: usize,
    /// Fresh replies compared byte for byte against offline sweeps.
    pub spot_checks: usize,
}

impl Shape {
    /// The benchmark's size: 8 000-access requests, 32 spot checks.
    pub const STANDARD: Shape = Shape {
        len: 8_000,
        spot_checks: 32,
    };
}

/// The `k`-th fresh spec of the stream: app `k mod 11`, a variant unique to
/// `k`, LRU and FURBYS.
fn fresh_spec(seed: u64, len: usize, k: usize) -> SweepSpec {
    let base = u32::try_from(splitmix64(seed) >> 40).expect("24-bit value fits u32");
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![AppId::ALL[k % AppId::ALL.len()]],
        policies: vec!["LRU".to_string(), "FURBYS".to_string()],
        variant: base.wrapping_add(u32::try_from(k).unwrap_or(u32::MAX)),
        len,
        metrics: false,
        sample: None,
        scale: 1,
    }
}

/// Request `i` of `client`: its spec and whether it is fresh. A repeat
/// resubmits request `i - 3` of the same client.
fn request(seed: u64, len: usize, client: usize, i: usize) -> (SweepSpec, bool) {
    if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
        return (request(seed, len, client, i - 3).0, false);
    }
    let ordinal = i - i / REPEAT_EVERY;
    (fresh_spec(seed, len, ordinal * CLIENTS + client), true)
}

/// The untimed warm-up spec of `client`, outside the stream's index range.
fn warmup_spec(seed: u64, len: usize, client: usize) -> SweepSpec {
    fresh_spec(seed, len, (1 << 24) + client)
}

/// The daemons of one workload, running on background threads.
struct System {
    front: SocketAddr,
    backends: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

impl System {
    fn start(route: bool) -> io::Result<System> {
        if !route {
            let server =
                Server::bind(ServerConfig::builder().shards(2).jobs(1).build())?.spawn()?;
            return Ok(System {
                front: server.addr(),
                backends: vec![server],
                router: None,
            });
        }
        let mut last = None;
        for attempt in 0..16u16 {
            let port = BACKEND_PORT + 2 * attempt;
            let bind = |p: u16| {
                Server::bind(
                    ServerConfig::builder()
                        .addr(SocketAddr::from(([127, 0, 0, 1], p)))
                        .shards(1)
                        .jobs(1)
                        .build(),
                )
            };
            let pair = bind(port).and_then(|a| Ok((a, bind(port + 1)?)));
            match pair {
                Ok((a, b)) => {
                    let backends = vec![a.spawn()?, b.spawn()?];
                    let router = Router::bind(
                        RouterConfig::builder()
                            .backends(backends.iter().map(ServerHandle::addr))
                            .build(),
                    )?
                    .spawn()?;
                    return Ok(System {
                        front: router.addr(),
                        backends,
                        router: Some(router),
                    });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no backend ports")))
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.backends.iter().map(ServerHandle::addr).collect()
    }

    /// Drains the router, then the daemons, and joins every thread.
    fn stop(self) -> io::Result<()> {
        let stop = |addr: SocketAddr| -> io::Result<()> {
            Client::connect(addr, REQUEST_TIMEOUT)
                .and_then(|mut c| c.shutdown(REQUEST_TIMEOUT))
                .map(|_| ())
                .map_err(io::Error::other)
        };
        let joined = |r: Option<io::Result<()>>| {
            r.unwrap_or_else(|| Err(io::Error::other("daemon did not drain in time")))
        };
        if let Some(router) = self.router {
            stop(router.addr())?;
            joined(router.join_within(REQUEST_TIMEOUT))?;
        }
        for server in self.backends {
            stop(server.addr())?;
            joined(server.join_within(REQUEST_TIMEOUT))?;
        }
        Ok(())
    }
}

/// The child side (`--child serve` / `--child route`): times the set-ups,
/// runs the closed loop for the given seconds, and prints one line per
/// request plus the daemons' stats frames.
///
/// # Errors
///
/// Unreadable input, a daemon that fails to start or stop, or a stdout
/// failure. Failed requests are reported, not errors.
pub fn child(route: bool) -> io::Result<()> {
    let mut input = String::new();
    io::stdin().read_to_string(&mut input)?;
    let doc = Json::parse(&input).map_err(io::Error::other)?;
    let field = |name: &str| {
        doc.field(name)
            .map_err(io::Error::other)?
            .as_u64()
            .ok_or_else(|| io::Error::other(format!("{name:?} must be an integer")))
    };
    let seed = field("seed")?;
    let len = usize::try_from(field("len")?).map_err(io::Error::other)?;
    let seconds = Duration::from_millis(field("millis")?);
    let mut out = io::BufWriter::new(io::stdout().lock());

    let mut setups = Vec::with_capacity(SETUP_TRIALS);
    let mut system = None;
    for trial in 0..SETUP_TRIALS {
        let start = Instant::now();
        let sys = System::start(route)?;
        Client::connect(sys.front, REQUEST_TIMEOUT)
            .and_then(|mut c| c.ping(REQUEST_TIMEOUT))
            .map_err(io::Error::other)?;
        setups.push(start.elapsed().as_secs_f64());
        if trial + 1 == SETUP_TRIALS {
            system = Some(sys);
        } else {
            sys.stop()?;
        }
    }
    let system = system.expect("at least one set-up trial");
    let setups: Vec<String> = setups.iter().map(f64::to_string).collect();
    writeln!(out, "setup {}", setups.join(" "))?;

    let barrier = Barrier::new(CLIENTS + 1);
    let front = system.front;
    let (records, loop_s, cpu_s) = std::thread::scope(|s| -> io::Result<_> {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || -> io::Result<Vec<String>> {
                    // Every client reaches the barrier, even after a failed
                    // connect or warm-up, so the others are never stranded.
                    let conn = Client::connect(front, REQUEST_TIMEOUT).and_then(|mut c| {
                        c.submit_and_wait(&warmup_spec(seed, len, client), None, REQUEST_TIMEOUT)
                            .map(|_| c)
                    });
                    barrier.wait();
                    let mut conn = conn.map_err(io::Error::other)?;
                    let deadline = Instant::now() + seconds;
                    let mut lines = Vec::new();
                    let mut i = 0;
                    while Instant::now() < deadline {
                        let (spec, fresh) = request(seed, len, client, i);
                        let start = Instant::now();
                        let reply = conn.submit_and_wait(&spec, None, REQUEST_TIMEOUT);
                        let rt = start.elapsed().as_secs_f64();
                        let outcome = match reply {
                            Ok(r) => {
                                format!("ok {:016x}", host::digest(r.report.to_string().as_bytes()))
                            }
                            Err(e) => format!("err {}", e.to_string().replace('\n', " ")),
                        };
                        lines.push(format!(
                            "req {client} {i} {} {rt} {outcome}",
                            u8::from(fresh)
                        ));
                        i += 1;
                    }
                    Ok(lines)
                })
            })
            .collect();
        barrier.wait();
        let cpu = host::cpu_seconds()?;
        let start = Instant::now();
        let mut records = Vec::new();
        for c in clients {
            records.extend(
                c.join()
                    .map_err(|_| io::Error::other("client thread panicked"))??,
            );
        }
        Ok((
            records,
            start.elapsed().as_secs_f64(),
            host::cpu_seconds()? - cpu,
        ))
    })?;
    writeln!(out, "loop {loop_s} {cpu_s}")?;
    let stats = |addr: SocketAddr| {
        Client::connect(addr, REQUEST_TIMEOUT)
            .and_then(|mut c| c.stats(REQUEST_TIMEOUT))
            .map_err(io::Error::other)
    };
    writeln!(out, "front {}", stats(front)?)?;
    if route {
        for addr in system.addrs() {
            writeln!(out, "backend {}", stats(addr)?)?;
        }
    }
    system.stop()?;
    for line in records {
        writeln!(out, "{line}")?;
    }
    writeln!(out, "rss {}", host::peak_rss_mb()?)?;
    out.flush()
}

/// One request as the child recorded it.
#[derive(Clone, Debug)]
pub struct Record {
    /// Client index.
    pub client: usize,
    /// Position in the client's stream.
    pub i: usize,
    /// Fresh (`true`) or a repeat.
    pub fresh: bool,
    /// Round trip, seconds.
    pub rt_s: f64,
    /// The FNV-1a digest of the canonical report, or the client error.
    pub reply: Result<u64, String>,
}

fn parse_record(line: &str) -> Option<Record> {
    let rest = line.strip_prefix("req ")?;
    let mut parts = rest.splitn(6, ' ');
    let client = parts.next()?.parse().ok()?;
    let i = parts.next()?.parse().ok()?;
    let fresh = parts.next()? == "1";
    let rt_s = parts.next()?.parse().ok()?;
    let reply = match parts.next()? {
        "ok" => Ok(u64::from_str_radix(parts.next()?, 16).ok()?),
        _ => Err(parts.next().unwrap_or_default().to_string()),
    };
    Some(Record {
        client,
        i,
        fresh,
        rt_s,
        reply,
    })
}

/// Checks every reply: errors fail, each repeat must equal the reply to
/// the request it repeats, and the replies listed in `offline` (record
/// index → digest of the offline report) must equal them. Returns the
/// failed records and a description of each failure.
pub fn check_replies(records: &[Record], offline: &[(usize, u64)]) -> (u64, Vec<String>) {
    let mut bad = vec![false; records.len()];
    let mut problems = Vec::new();
    for (idx, r) in records.iter().enumerate() {
        if let Err(e) = &r.reply {
            bad[idx] = true;
            problems.push(format!("client {} request {}: {e}", r.client, r.i));
        } else if !r.fresh {
            let original = records
                .iter()
                .find(|o| o.client == r.client && o.i + 3 == r.i)
                .map(|o| &o.reply);
            if original != Some(&r.reply) {
                bad[idx] = true;
                problems.push(format!(
                    "client {} request {}: repeat differs from its first reply",
                    r.client, r.i
                ));
            }
        }
    }
    for (idx, expected) in offline {
        if records[*idx].reply.as_ref().ok() != Some(expected) {
            bad[*idx] = true;
            let r = &records[*idx];
            problems.push(format!(
                "client {} request {}: served report differs from the offline sweep",
                r.client, r.i
            ));
        }
    }
    (bad.iter().filter(|&&b| b).count() as u64, problems)
}

/// A seeded sample of `n` fresh, successful records, in stream order.
fn spot_check_indices(records: &[Record], n: usize, seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].fresh && records[i].reply.is_ok())
        .collect();
    let mut rng = Prng::seed_from_u64(seed);
    for i in 0..pool.len().min(n) {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool.sort_unstable();
    pool
}

/// The summed value (ms) and sample count of one stats-frame histogram
/// over several daemons (0 where absent).
fn hist(stats: &[Json], name: &str) -> (f64, u64) {
    let field = |s: &Json, f: &str| {
        s.field("metrics")
            .and_then(|m| m.field("histograms"))
            .and_then(|h| h.field(name))
            .and_then(|h| h.field(f))
            .ok()
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let sum: u64 = stats.iter().map(|s| field(s, "sum")).sum();
    (sum as f64, stats.iter().map(|s| field(s, "total")).sum())
}

/// The mean of one stats-frame histogram over several daemons, ms.
fn hist_mean(stats: &[Json], name: &str) -> f64 {
    let (sum, n) = hist(stats, name);
    sum / n.max(1) as f64
}

/// A stats-frame counter (0 when absent).
fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .field("metrics")
        .and_then(|m| m.field("counters"))
        .and_then(|c| c.field(name))
        .ok()
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Runs a serving workload for `seconds` and checks every reply. With
/// tracing on it also replicates the spot-checked specs serially.
///
/// # Errors
///
/// A child that cannot be started or dies.
pub fn run(
    route: bool,
    shape: &Shape,
    seed: u64,
    seconds: Duration,
    traced: bool,
    exe: &Path,
) -> io::Result<Outcome> {
    let input = Json::Obj(vec![
        ("seed".to_string(), Json::U64(seed)),
        ("len".to_string(), Json::U64(shape.len as u64)),
        (
            "millis".to_string(),
            Json::U64(u64::try_from(seconds.as_millis()).unwrap_or(u64::MAX)),
        ),
    ]);
    let mode = if route { "route" } else { "serve" };
    let lines = Child::spawn(exe, mode, &input.to_string())?.finish()?;
    let bad = |what: &str| io::Error::other(format!("child output lacks {what}"));
    let find = |prefix: &str| lines.iter().find_map(|l| l.strip_prefix(prefix));
    let numbers = |s: &str| -> Vec<f64> { s.split(' ').filter_map(|x| x.parse().ok()).collect() };
    let setups = numbers(find("setup ").ok_or_else(|| bad("setup"))?);
    let looped = numbers(find("loop ").ok_or_else(|| bad("loop"))?);
    let [loop_s, cpu_s] = looped[..] else {
        return Err(bad("loop timings"));
    };
    let front =
        Json::parse(find("front ").ok_or_else(|| bad("stats"))?).map_err(io::Error::other)?;
    let backends: Vec<Json> = lines
        .iter()
        .filter_map(|l| l.strip_prefix("backend "))
        .map(Json::parse)
        .collect::<Result<_, _>>()
        .map_err(io::Error::other)?;
    let rss: f64 = find("rss ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("rss"))?;
    let records: Vec<Record> = lines.iter().filter_map(|l| parse_record(l)).collect();

    let picked = spot_check_indices(&records, shape.spot_checks, seed);
    let mut offline = Vec::with_capacity(picked.len());
    let mut replica = Replica::default();
    let (mut untraced_ms, mut protocol_ms) = (0.0, 0.0);
    for &idx in &picked {
        let (spec, _) = request(seed, shape.len, records[idx].client, records[idx].i);
        let start = Instant::now();
        let report = run_sweep(&spec, &Engine::new(1));
        let json = report.to_json();
        untraced_ms += start.elapsed().as_secs_f64() * 1e3;
        if traced {
            replica.merge(replicate(&spec, &report));
            protocol_ms += protocol_round(&json);
        }
        offline.push((idx, host::digest(json.as_bytes())));
    }
    let (failed, problems) = check_replies(&records, &offline);

    let fresh: Vec<f64> = records
        .iter()
        .filter(|r| r.fresh)
        .map(|r| r.rt_s * 1e3)
        .collect();
    let repeats: Vec<f64> = records
        .iter()
        .filter(|r| !r.fresh)
        .map(|r| r.rt_s * 1e3)
        .collect();
    let (fresh_tail_p, fresh_tail) = tail(&fresh);
    let (repeat_tail_p, repeat_tail) = tail(&repeats);
    let mut notes = vec![
        format!(
            "{CLIENTS} closed-loop clients, {} requests ({} fresh) in {loop_s:.1} s, {:.1} req/s",
            records.len(),
            fresh.len(),
            records.len() as f64 / loop_s
        ),
        format!(
            "fresh round trip p50 {:.2} ms, p{fresh_tail_p} {fresh_tail:.2} ms (n = {})",
            median(&fresh),
            fresh.len()
        ),
        format!(
            "repeat round trip p50 {:.2} ms, p{repeat_tail_p} {repeat_tail:.2} ms (n = {})",
            median(&repeats),
            repeats.len()
        ),
        format!(
            "{} fresh replies checked against offline sweeps",
            offline.len()
        ),
    ];

    let mut metrics = Metrics::new(traced);
    if traced {
        // Mean per-job stage times from the stats histograms of the daemons
        // that run jobs, and for a route of the router in front of them.
        let daemons: &[Json] = if route {
            &backends
        } else {
            std::slice::from_ref(&front)
        };
        let queue = hist_mean(daemons, "queue_wait_ms");
        let run_mean = hist_mean(daemons, "run_ms");
        let (router_queue, forward) = if route {
            let front = std::slice::from_ref(&front);
            (
                hist_mean(front, "queue_wait_ms"),
                hist_mean(front, "forward_ms"),
            )
        } else {
            (0.0, 0.0)
        };
        let rt_mean = fresh.iter().sum::<f64>() / fresh.len().max(1) as f64;
        let pct = |ms: f64| ms / rt_mean.max(f64::MIN_POSITIVE) * 100.0;
        let queue_pct = pct(queue + router_queue);
        let run_pct = pct(run_mean);
        let hop_pct = if route {
            pct(forward - queue - run_mean)
        } else {
            0.0
        };
        let n = fresh.len();
        metrics.set("serve.queue_wait_pct", queue_pct, n);
        metrics.set("serve.run_pct", run_pct, n);
        metrics.set("serve.router.hop_pct", hop_pct, n);
        metrics.set(
            "serve.overhead_pct",
            100.0 - queue_pct - run_pct - hop_pct,
            n,
        );
        metrics.set(
            "serve.protocol_pct",
            pct(protocol_ms / picked.len().max(1) as f64),
            picked.len(),
        );
        metrics.set(
            "serve.tail_ratio",
            fresh_tail / median(&fresh).max(f64::MIN_POSITIVE),
            n,
        );
        metrics.set(
            "serve.dedup_ratio",
            median(&repeats) / median(&fresh).max(f64::MIN_POSITIVE),
            repeats.len(),
        );
        metrics.set(
            "serve.jobs_deduped",
            counter(&front, "jobs_deduped") as f64,
            1,
        );
        let placed: Vec<u64> = if route {
            (0..backends.len())
                .map(|b| counter(&front, &format!("backend{b}_forwarded")))
                .collect()
        } else {
            (0..2)
                .map(|s| counter(&front, &format!("shard{s}_jobs_completed")))
                .collect()
        };
        let total: u64 = placed.iter().sum();
        metrics.set(
            "serve.placement_share_max",
            placed.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64,
            usize::try_from(total).unwrap_or(usize::MAX),
        );
        let per_backend = |what: &str| {
            (0..backends.len())
                .map(|b| counter(&front, &format!("backend{b}_{what}")))
                .sum::<u64>() as f64
        };
        metrics.set("serve.router.spilled", per_backend("spilled"), 1);
        metrics.set("serve.router.backend_errors", per_backend("errors"), 1);
        let run_ms = hist(daemons, "run_ms").0;
        replica.set_metrics(&mut metrics, untraced_ms, run_ms / (loop_s * 1e3));
        notes.push(format!("placement over shards or backends: {placed:?}"));
    } else {
        metrics.set("setup_s", median(&setups), setups.len());
        metrics.set("wall_p50_ms", median(&fresh), fresh.len());
        metrics.set(
            "cpu_ms",
            cpu_s * 1e3 / fresh.len().max(1) as f64,
            fresh.len(),
        );
        metrics.set("peak_rss_mb", rss, 1);
    }
    let mut problems = problems;
    problems.extend(replica.mismatches.iter().cloned());
    Ok(Outcome {
        attempted: records.len() as u64,
        failed: failed + replica.mismatches.len() as u64,
        problems,
        notes,
        metrics,
    })
}

/// Ms to frame one report as a `result` reply and decode it again — the
/// protocol work a daemon and its client do per reply.
fn protocol_round(report: &str) -> f64 {
    let Ok(body) = Json::parse(report) else {
        return 0.0;
    };
    let reply = frame(
        "result",
        vec![
            ("job_id".to_string(), Json::Str(String::new())),
            ("result".to_string(), body),
        ],
    );
    let start = Instant::now();
    let mut decoded = Vec::with_capacity(1);
    if let Ok(wire) = encode_frame(&reply) {
        let _ = FrameDecoder::new().feed(&wire, &mut decoded);
    }
    start.elapsed().as_secs_f64() * 1e3
}
