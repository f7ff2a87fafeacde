//! Admission tests of the `served` binary: a connection is admitted
//! while fewer than `--workers` + `--queue-depth` connections are queued
//! or in flight, whether or not a worker is parked waiting for it, and
//! shed with a structured 503 past that.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running daemon, killed when dropped so a failed assertion leaves
/// no process behind, and the thread draining its stderr.
struct Served {
    child: Child,
    stderr: Option<JoinHandle<()>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipe closed with the process, so the drain thread ends.
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// Boots `served` on a free port with one worker and a rendezvous
/// queue, returning once it announces its address.
fn spawn_one_worker(faults: Option<&str>) -> (Served, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_served"));
    cmd.args(["--serve", "127.0.0.1:0", "--request-timeout-ms", "0"])
        .args(["--workers", "1", "--queue-depth", "0"])
        .env_remove("UCORE_FAULT_INJECT");
    if let Some(spec) = faults {
        cmd.env("UCORE_FAULT_INJECT", spec);
    }
    let mut child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn served");
    let stderr = child.stderr.take().expect("child stderr");
    let mut served = Served {
        child,
        stderr: None,
    };
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("served exited before announcing its address")
            .expect("read served stderr");
        if let Some(rest) = line.strip_prefix("served: listening on ") {
            break rest.trim().parse().expect("parse announced address");
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    served.stderr = Some(std::thread::spawn(move || lines.for_each(drop)));
    (served, addr)
}

/// One request, read to EOF; returns the status and body.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream
        .write_all(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header separator");
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, body.to_string())
}

/// With one worker and no queue, a client that waits for each answer
/// never finds the server full: nothing else is queued or in flight,
/// even right after start-up or while the worker is between requests.
#[test]
fn rendezvous_queue_admits_back_to_back_requests() {
    let (_served, addr) = spawn_one_worker(None);
    for i in 0..20 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "request {i}: {body}");
    }
}

/// With the one worker wedged on a stalled sweep, every further
/// connection is past the limit and is shed at once with the taxonomy
/// code.
#[test]
fn wedged_worker_sheds_probes_with_structured_503() {
    let (_served, addr) = spawn_one_worker(Some("stall@100"));
    // Don't wait for a response: it never comes. The acceptor admits
    // this connection before any probe, so each probe finds it counted.
    let mut wedged = TcpStream::connect(addr).expect("connect");
    wedged
        .write_all(b"GET /json/figure-6 HTTP/1.1\r\n\r\n")
        .expect("send request");
    for i in 0..8 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 503, "probe {i}: {body}");
        let shed = body.contains(r#""code":"server.overloaded""#);
        assert!(shed, "probe {i}: {body}");
    }
}
