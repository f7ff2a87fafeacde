//! The server proper: listener, admission control, worker pool, and
//! the drain state machine.
//!
//! Admission counts occupancy: the acceptor thread admits a connection
//! while fewer than `workers + queue_depth` connections are queued or in
//! flight, handing it to the pool over a `sync_channel` of that capacity
//! (the hard cap), and otherwise sheds it immediately with a structured
//! `server.overloaded` 503 — overload degrades into fast, explicit
//! rejections, never unbounded queue growth or a hung client. An idle
//! worker need not be parked in `recv` for a connection to be admitted.
//! The acceptor blocks in `accept`, so a connection is admitted the
//! moment it arrives. Shutdown is a three-step drain: stop admitting
//! ([`ShutdownHandle::request`] sets the flag and wakes the blocked
//! acceptor with one loopback connection; late arrivals get
//! `server.draining` 503), let workers finish the queued and in-flight
//! requests under a bounded drain deadline, then return so the caller
//! can flush the journal and exit.

use crate::error::ServeError;
use crate::http::{self, Limits, ParseError};
use crate::service::{self, Response};
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long the acceptor backs off after a transient `accept` failure
/// (e.g. EMFILE) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long a shutdown request waits to connect its wake connection.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How often the drain loop re-checks worker completion.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// Everything the server needs to run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads: the hard concurrency limit.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; anything
    /// beyond is shed.
    pub queue_depth: usize,
    /// Per-request cooperative deadline (`None` = unbounded).
    pub request_timeout: Option<Duration>,
    /// How long shutdown waits for in-flight requests to finish.
    pub drain: Duration,
    /// Socket read/write timeout: bounds slow-loris senders and stuck
    /// receivers.
    pub io_timeout: Duration,
    /// HTTP ingress limits.
    pub limits: Limits,
}

impl ServerConfig {
    /// A conservative local default on the given address.
    pub fn new(addr: impl Into<String>) -> Self {
        ServerConfig {
            addr: addr.into(),
            workers: 4,
            queue_depth: 16,
            request_timeout: Some(Duration::from_secs(30)),
            drain: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            limits: Limits::default(),
        }
    }
}

/// What the drain achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every worker finished inside the drain deadline.
    pub drained: bool,
    /// Workers that had finished when the drain window closed.
    pub workers_joined: usize,
}

/// Cross-thread occupancy counts behind admission and the
/// `serve.queue_depth` and `serve.inflight` gauges (gauges alone are
/// last-write-wins and cannot be incremented atomically).
#[derive(Debug, Default)]
struct Occupancy {
    queued: AtomicI64,
    inflight: AtomicI64,
}

impl Occupancy {
    /// Connections admitted and not yet answered. `queued` is read
    /// first: a worker raises `inflight` before it lowers `queued`, so a
    /// connection passing from one to the other is never missed (at
    /// worst it is counted twice, which sheds conservatively).
    fn occupied(&self) -> i64 {
        let queued = self.queued.load(Ordering::SeqCst);
        queued + self.inflight.load(Ordering::SeqCst)
    }
}

/// A bound listener plus its shutdown handle; `run` turns it into the
/// serving loop.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: ShutdownHandle,
}

/// Stops a [`Server`]'s serving loop from another thread.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    /// Where the wake connection goes: the bound address, with an
    /// unspecified IP mapped to loopback.
    wake: SocketAddr,
}

impl ShutdownHandle {
    /// Sets the shutdown flag, then makes one connection to the server
    /// so its acceptor, blocked in `accept`, wakes and sees the flag.
    /// The wake connection is answered like any late arrival
    /// (`server.draining` 503). A failed connect is ignored: the
    /// acceptor then sees the flag at its next connection.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_CONNECT_TIMEOUT);
    }

    fn requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listen address. The listener stays blocking: the
    /// acceptor sleeps in `accept` until a connection (or a shutdown
    /// request's wake connection) arrives.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures from the OS.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let shutdown = ShutdownHandle {
            flag: Arc::new(AtomicBool::new(false)),
            wake,
        };
        Ok(Server {
            listener,
            config,
            shutdown,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The handle that stops the serving loop: call
    /// [`ShutdownHandle::request`] from another thread and `run` begins
    /// its drain.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Serves until shutdown is requested, then drains and returns.
    ///
    /// # Errors
    ///
    /// Only spawning workers and switching the listener to nonblocking
    /// for the drain can fail; per-connection I/O failures are absorbed
    /// as that connection's outcome.
    pub fn run(self) -> io::Result<DrainReport> {
        let workers = self.config.workers.max(1);
        let capacity = workers + self.config.queue_depth;
        let (sender, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let occupancy = Arc::new(Occupancy::default());
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let receiver = Arc::clone(&receiver);
            let occupancy = Arc::clone(&occupancy);
            let config = self.config.clone();
            handles.push(std::thread::spawn(move || {
                worker_loop(&receiver, &occupancy, &config);
            }));
        }

        self.accept_loop(&sender, &occupancy, capacity);

        // Drop our sender so the queue disconnects once drained and the
        // workers exit their recv loops.
        drop(sender);
        // The drain loop polls for late arrivals between worker checks.
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + self.config.drain;
        let report = loop {
            let joined = handles.iter().filter(|h| h.is_finished()).count();
            if joined == handles.len() {
                break DrainReport { drained: true, workers_joined: joined };
            }
            if Instant::now() >= deadline {
                break DrainReport { drained: false, workers_joined: joined };
            }
            // Late arrivals during the drain window get an explicit
            // draining response instead of a connection reset.
            if let Ok((stream, _)) = self.listener.accept() {
                self.refuse_late(stream);
            }
            std::thread::sleep(DRAIN_POLL);
        };
        for handle in handles {
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        Ok(report)
    }

    /// Accepts until shutdown: admit while fewer than `capacity`
    /// connections are queued or in flight, else shed. A connection
    /// accepted once shutdown was requested (the wake connection, or a
    /// client racing it) is refused as a late arrival.
    fn accept_loop(&self, sender: &SyncSender<TcpStream>, occupancy: &Occupancy, capacity: usize) {
        let m = crate::obs::metrics();
        while !self.shutdown.requested() {
            match self.listener.accept() {
                Ok((stream, _)) if self.shutdown.requested() => {
                    self.refuse_late(stream);
                    return;
                }
                Ok((stream, _)) => {
                    m.accepted.inc();
                    configure_stream(&stream, &self.config);
                    // Only this thread raises `queued`, and it does so
                    // right after each send, so the count it reads here
                    // covers every connection it admitted.
                    let admitted = if occupancy.occupied() < capacity as i64 {
                        sender.try_send(stream)
                    } else {
                        Err(TrySendError::Full(stream))
                    };
                    match admitted {
                        Ok(()) => {
                            let depth = occupancy.queued.fetch_add(1, Ordering::SeqCst) + 1;
                            m.queue_depth.set(depth as f64);
                        }
                        Err(TrySendError::Full(stream)) => {
                            m.shed.inc();
                            refuse(stream, &ServeError::overloaded());
                        }
                        Err(TrySendError::Disconnected(stream)) => {
                            // Workers are gone; nothing can serve this.
                            refuse(stream, &ServeError::draining());
                            return;
                        }
                    }
                }
                Err(_) => {
                    // Transient accept failure (e.g. EMFILE); back off
                    // rather than spin or die.
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
    }

    /// Answers a connection that arrived after shutdown was requested
    /// with an explicit draining response instead of a reset.
    fn refuse_late(&self, stream: TcpStream) {
        configure_stream(&stream, &self.config);
        refuse(stream, &ServeError::draining());
    }
}

/// Applies socket timeouts; failures fall through to the read path,
/// which classifies them.
fn configure_stream(stream: &TcpStream, config: &ServerConfig) {
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let _ = stream.set_nonblocking(false);
}

/// Writes a refusal (shed/draining) on the acceptor thread and counts
/// it like any other error response.
fn refuse(mut stream: TcpStream, error: &ServeError) {
    write_counted(&mut stream, &Response::from_error(error));
    linger_close(&mut stream);
}

/// One worker: pull connections until the queue disconnects.
fn worker_loop(
    receiver: &Arc<Mutex<Receiver<TcpStream>>>,
    occupancy: &Occupancy,
    config: &ServerConfig,
) {
    let m = crate::obs::metrics();
    loop {
        let next = {
            let guard = receiver.lock().unwrap_or_else(PoisonError::into_inner);
            // ucore-lint: allow(lock-discipline): shared-receiver MPMC — the mutex's whole job is to park idle workers on recv until a connection arrives; no other state hides behind it
            guard.recv()
        };
        let Ok(stream) = next else { return };
        // Raise `inflight` before lowering `queued` (see
        // `Occupancy::occupied`).
        m.inflight.set((occupancy.inflight.fetch_add(1, Ordering::SeqCst) + 1) as f64);
        let depth = (occupancy.queued.fetch_sub(1, Ordering::SeqCst) - 1).max(0);
        m.queue_depth.set(depth as f64);
        handle_connection(stream, occupancy, config);
    }
}

/// Reads, handles, and answers one connection, absorbing every failure
/// into a typed response (or a silent drop when the peer vanished).
/// The connection counts as in flight until its response is written.
fn handle_connection(mut stream: TcpStream, occupancy: &Occupancy, config: &ServerConfig) {
    let m = crate::obs::metrics();
    let started = Instant::now();
    m.requests.inc();
    let response = match http::read_request(&mut stream, &config.limits) {
        Ok(request) => Some(service::handle(&request, config.request_timeout)),
        Err(ParseError::Closed) => None,
        Err(e) => {
            m.ingress_rejected.inc();
            Some(Response::from_error(&ingress_error(&e)))
        }
    };
    if let Some(response) = &response {
        write_counted(&mut stream, response);
    }
    // Free the slot before the half-close: a client that reads to EOF
    // and reconnects at once finds it free.
    m.inflight.set(((occupancy.inflight.fetch_sub(1, Ordering::SeqCst) - 1).max(0)) as f64);
    if response.is_some() {
        linger_close(&mut stream);
    }
    m.request_us.observe(started.elapsed().as_secs_f64() * 1e6);
}

/// Maps an HTTP-layer parse failure to its taxonomy error.
fn ingress_error(e: &ParseError) -> ServeError {
    match e {
        ParseError::Malformed(msg) => ServeError::malformed(msg.clone()),
        ParseError::TooLarge(msg) => ServeError::too_large(msg.clone()),
        ParseError::Timeout(msg) => ServeError::ingress_timeout(msg.clone()),
        // `Closed` never reaches here (handled as a silent drop), but
        // map it defensively.
        ParseError::Closed => ServeError::malformed("connection closed mid-request"),
    }
}

/// Writes a response and maintains the response counters. Write
/// failures mean the peer vanished; that is the connection's outcome,
/// not a server fault.
fn write_counted(stream: &mut TcpStream, response: &Response) {
    let m = crate::obs::metrics();
    if response.status < 400 {
        m.responses_ok.inc();
    } else {
        m.responses_error.inc();
    }
    m.bytes_out.add(response.body.len() as u64);
    let _ = http::write_response(
        stream,
        response.status,
        crate::error::reason_phrase(response.status),
        response.content_type,
        &response.body,
    );
}

/// Half-closes a connection whose response is written, then briefly
/// drains whatever the peer already sent (a shed connection's request,
/// an oversized body). Closing with unread bytes would send an RST that
/// can destroy the in-flight response before the peer reads it. The
/// drain is bounded: a few short-timeout reads, then the socket drops
/// regardless.
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match std::io::Read::read(stream, &mut sink) {
            Ok(n) if n > 0 => continue,
            _ => break,
        }
    }
}
