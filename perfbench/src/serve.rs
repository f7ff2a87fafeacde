//! `serve-warm`: a spawned `served` under a closed loop of two
//! connections, each sending seeded GETs over the 34 artifacts.

use crate::inputs::{artifacts, seed_check, Artifact, Pinned, RequestStream, CONNECTIONS};
use crate::layers::{traced_render, Probes};
use crate::measure::{closed_loop, ms, peak_rss_mb, Cost, OpTrace, Timed, ROOT};
use crate::{Args, Checks, Layers, Metrics, SETUP_REPEATS};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ucore_serve::http::{self, Limits};

/// Builds `served` from the repository this benchmark sits in and
/// returns the path of the binary.
fn served_binary() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark has no parent directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ucore-serve",
        ])
        .args([
            "--bin",
            "served",
            "--message-format=json-render-diagnostics",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building served failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| serde_json::from_str::<serde_json::Value>(line).ok())
        .find_map(|v| {
            let exe = v.get("executable")?.as_str()?;
            exe.ends_with("served").then(|| PathBuf::from(exe))
        })
        .ok_or_else(|| "cargo reported no served executable".to_string())
}

/// A running `served`; dropping it kills the process and waits for it.
struct Served {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Served {
    fn spawn(bin: &Path) -> Result<Served, String> {
        let mut child = Command::new(bin)
            .args(["--serve", "127.0.0.1:0"])
            .env_remove("UCORE_SWEEP_THREADS")
            .env_remove("UCORE_FAULT_INJECT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start served: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let addr = lines.by_ref().map_while(Result::ok).find_map(|line| {
            line.strip_prefix("served: listening on ")
                .and_then(|a| a.trim().parse().ok())
        });
        // Keep draining stderr so the server never blocks on it.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        let served = Served {
            child,
            addr: addr.unwrap_or(([127, 0, 0, 1], 0).into()),
            stderr: Some(stderr),
        };
        if addr.is_none() {
            return Err("served exited before listening".into());
        }
        Ok(served)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// One response, with the client-side timeline of its request.
struct Reply {
    status: u16,
    body: Vec<u8>,
    timeline: Timeline,
}

/// When, counted from the connect call, a request's client side got
/// connected, finished sending, read the first response byte, and read
/// the last.
#[derive(Debug, Clone, Copy)]
struct Timeline {
    connected: Duration,
    sent: Duration,
    first_byte: Duration,
    done: Duration,
}

/// The request head as the client sends it (terminator excluded).
fn request_head(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench")
}

fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{path}: {e}");
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    let connected = started.elapsed();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .write_all(format!("{}\r\n\r\n", request_head(path)).as_bytes())
        .map_err(io)?;
    let sent = started.elapsed();
    let mut raw = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk).map_err(io)?;
    let first_byte = started.elapsed();
    raw.extend_from_slice(&chunk[..n]);
    stream.read_to_end(&mut raw).map_err(io)?;
    let done = started.elapsed();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{path}: response has no head"))?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: bad status line"))?;
    let length: Option<usize> = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse().ok())?
    });
    let body = raw[split + 4..].to_vec();
    if length != Some(body.len()) {
        return Err(format!(
            "{path}: body is {} bytes, header says {length:?}",
            body.len()
        ));
    }
    Ok(Reply {
        status,
        body,
        timeline: Timeline {
            connected,
            sent,
            first_byte,
            done,
        },
    })
}

fn check(a: &Artifact, pinned: &Pinned, reply: &Result<Reply, String>) -> Result<(), String> {
    let reply = reply.as_ref().map_err(Clone::clone)?;
    if reply.status != 200 {
        return Err(format!("{}: status {}", a.path, reply.status));
    }
    pinned.check_artifact(&a.path, &reply.body)
}

/// A request the traced phase made, for the in-process replay.
struct Sample {
    artifact: usize,
    timeline: Timeline,
}

/// One load connection: its seeded request sequence, and the requests
/// it keeps for the replay.
struct Connection {
    requests: RequestStream,
    kept: Vec<Sample>,
}

/// Load requests after which `rss_mb` reads served's peak RSS. served
/// keeps a record of every sweep it ran, so its RSS grows with the
/// requests it has served; reading it after a fixed count keeps the
/// metric from growing with the program's speed.
const RSS_AFTER: u64 = 2_000;

/// What one closed loop of load measured.
struct Load {
    timed: Timed,
    /// Every request the connections kept.
    kept: Vec<Sample>,
    /// served's peak RSS after `RSS_AFTER` requests (or at the end of a
    /// loop that never got there), in MB.
    rss_mb: f64,
}

/// The closed loop: every connection sends its seeded request sequence
/// until `budget` has passed, keeping every request when `keep` is set.
fn load(
    served: &Served,
    seed: u64,
    budget: Duration,
    arts: &[Artifact],
    pinned: &Pinned,
    keep: bool,
) -> Load {
    let (addr, pid) = (served.addr, served.pid());
    let completed = AtomicU64::new(0);
    let rss = OnceLock::new();
    let connections = (0..CONNECTIONS)
        .map(|c| Connection {
            requests: RequestStream::new(seed, c),
            kept: Vec::new(),
        })
        .collect();
    let (timed, connections) = closed_loop(budget, connections, Some(pid), |c: &mut Connection| {
        let i = c.requests.next_index();
        let reply = get(addr, &arts[i].path);
        let wall = reply.as_ref().map_or(Duration::ZERO, |r| r.timeline.done);
        let result = check(&arts[i], pinned, &reply);
        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
            let _ = rss.set(peak_rss_mb(Some(pid)));
        }
        if let (true, Ok(reply)) = (keep, reply) {
            c.kept.push(Sample {
                artifact: i,
                timeline: reply.timeline,
            });
        }
        (Cost { wall, cpu_ms: 0.0 }, result)
    });
    Load {
        timed,
        kept: connections.into_iter().flat_map(|c| c.kept).collect(),
        rss_mb: rss.get().copied().unwrap_or_else(|| peak_rss_mb(Some(pid))),
    }
}

/// Starts `served` and warms it: one verified request per artifact,
/// then the first request of the load.
fn start(
    bin: &Path,
    arts: &[Artifact],
    pinned: &Pinned,
    seed: u64,
    checks: &mut Checks,
) -> Result<Served, String> {
    let served = Served::spawn(bin)?;
    for a in arts {
        checks.add(&check(a, pinned, &get(served.addr, &a.path)));
    }
    let first = &arts[RequestStream::new(seed, 0).next_index()];
    checks.add(&check(first, pinned, &get(served.addr, &first.path)));
    Ok(served)
}

/// `served`'s accepted, shed and error-response counters.
fn scrape(addr: SocketAddr) -> Result<[f64; 3], String> {
    let reply = get(addr, "/metrics")?;
    let text = String::from_utf8_lossy(&reply.body);
    let value = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .unwrap_or(0.0)
    };
    Ok([
        value("ucore_serve_accepted"),
        value("ucore_serve_shed"),
        value("ucore_serve_responses_error"),
    ])
}

/// Replays one traced request's server-side path in process (parse,
/// handle, write) on the same bytes, and splits the request's client
/// timeline around it.
fn replay(
    sample: &Sample,
    arts: &[Artifact],
    pinned: &Pinned,
    layers: &mut Layers,
) -> Result<(), String> {
    let a = &arts[sample.artifact];
    let r = &sample.timeline;
    let head = request_head(&a.path);
    let t = Instant::now();
    let (request, _) = http::parse_head(head.as_bytes(), &Limits::default())
        .map_err(|e| format!("{}: {e:?}", a.path))?;
    let parse = ms(t.elapsed());
    let t = Instant::now();
    let response = ucore_serve::handle(&request, Some(Duration::from_secs(30)));
    let handle = ms(t.elapsed());
    let t = Instant::now();
    let mut sink = Vec::with_capacity(response.body.len() + 256);
    http::write_response(
        &mut sink,
        response.status,
        ucore_serve::error::reason_phrase(response.status),
        response.content_type,
        &response.body,
    )
    .map_err(|e| e.to_string())?;
    let write = ms(t.elapsed());

    let mut trace = OpTrace::new();
    trace.span(ROOT, "serve.client.connect", 1.0, r.connected);
    trace.span(ROOT, "serve.client.send", 1.0, r.sent - r.connected);
    let server = trace.span(ROOT, "serve.server.wait", 1.0, r.first_byte - r.sent);
    trace.estimate(server, "serve.http.parse_head", 1.0, parse);
    let handle_span = trace.estimate(server, "serve.service.handle", 1.0, handle);
    trace.estimate(server, "serve.http.write_response", 1.0, write);
    let body = traced_render(
        &a.target,
        &mut trace,
        handle_span,
        &layers.probes,
        &mut layers.sweeps,
    )?;
    trace.span(ROOT, "serve.client.read", 1.0, r.done - r.first_byte);
    trace.finish(r.done);
    layers.report.add(&trace);
    pinned.check_artifact(&a.path, body.as_bytes())?;
    pinned.check_artifact(&a.path, &response.body)
}

pub fn run(args: &Args) -> Result<(Checks, Metrics), String> {
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let bin = served_binary()?;
    let arts = artifacts();
    let pinned = Pinned::load();
    checks.add(&seed_check(&crate::layers::new_engine(), args.seed));
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut served = None;
    for _ in 0..repeats {
        drop(served.take());
        let started = Instant::now();
        served = Some(start(&bin, &arts, &pinned, args.seed, &mut checks)?);
        setups.push(started.elapsed());
    }
    let served = served.expect("at least one set-up ran");
    if !args.trace {
        let budget = Duration::from_secs_f64(args.seconds);
        let run = load(&served, args.seed, budget, &arts, &pinned, false);
        checks.absorb(&run.timed);
        metrics.end_to_end(&setups, &run.timed, run.rss_mb);
        return Ok((checks, metrics));
    }
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let plain = load(&served, args.seed, half, &arts, &pinned, false).timed;
    checks.absorb(&plain);
    let before = scrape(served.addr)?;
    let traced = load(&served, args.seed, half, &arts, &pinned, true);
    let after = scrape(served.addr)?;
    checks.absorb(&traced.timed);
    drop(served);
    let mut layers = Layers {
        probes: Probes::measure(&crate::layers::figure_grid_points()),
        ..Layers::default()
    };
    // Warm this process's evaluation cache the way served's is warm.
    for a in &arts {
        checks.add(
            &ucore_bench::render::render(&a.target)
                .map(drop)
                .map_err(|e| e.to_string()),
        );
    }
    for sample in &traced.kept {
        checks.add(&replay(sample, &arts, &pinned, &mut layers));
    }
    // The closing scrape is itself one accepted connection.
    layers.serve_accepted = after[0] - before[0] - 1.0;
    layers.serve_shed = after[1] - before[1];
    layers.serve_responses_error = after[2] - before[2];
    layers.overhead_ms = traced.timed.p50() - plain.p50();
    layers.error_rate = checks.failed as f64 / checks.attempted as f64;
    eprintln!(
        "perfbench: {} traced requests\n{}",
        layers.report.ops(),
        layers.report.table()
    );
    metrics.layers(&layers);
    Ok((checks, metrics))
}
