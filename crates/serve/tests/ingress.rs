//! Hostile-ingress suite: the HTTP layer must never panic and must
//! answer every malformed, oversized, slow, or binary-garbage request
//! with a taxonomy-coded error — and the server must stay available
//! afterwards.
//!
//! The pure parser is fuzzed with proptest; the socket-level behaviors
//! (truncation, slow-loris, availability) run against a real in-process
//! [`Server`] on a loopback port.

use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use ucore_serve::{Limits, ParseError, Server, ServerConfig};

// ---------------------------------------------------------------------
// Pure-parser properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the head parser: every input maps to
    /// a parsed request or a typed error.
    #[test]
    fn parse_head_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255, 64)) {
        let limits = Limits::default();
        match ucore_serve::http::parse_head(&bytes, &limits) {
            Ok((req, _)) => prop_assert!(!req.method.is_empty()),
            Err(ParseError::Malformed(msg) | ParseError::TooLarge(msg)) => {
                prop_assert!(!msg.is_empty());
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "pure parse produced a socket-only error: {e:?}"
                )));
            }
        }
    }

    /// Mutating one byte of a valid request head never panics and never
    /// fabricates a socket-layer error.
    #[test]
    fn parse_head_survives_single_byte_corruption(
        pos in 0usize..33,
        byte in 0u8..=255,
    ) {
        let mut head = b"GET /table/5 HTTP/1.1\r\nHost: ucore\r\n".to_vec();
        let idx = pos % head.len();
        head[idx] = byte;
        let limits = Limits::default();
        if let Err(e) = ucore_serve::http::parse_head(&head, &limits) {
            prop_assert!(
                matches!(e, ParseError::Malformed(_) | ParseError::TooLarge(_)),
                "unexpected error class: {e:?}"
            );
        }
    }

    /// Declared content lengths beyond the body limit are always
    /// rejected as too large, never allocated.
    #[test]
    fn oversized_content_length_is_shed_not_allocated(extra in 1u64..1_000_000) {
        let limits = Limits::default();
        let declared = limits.max_body_bytes as u64 + extra;
        let head = format!("POST /query HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        let mut cursor = std::io::Cursor::new(head.into_bytes());
        match ucore_serve::http::read_request(&mut cursor, &limits) {
            Err(ParseError::TooLarge(_)) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "content-length {declared} produced {other:?}"
                )));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Socket-level hostility against a live server.
// ---------------------------------------------------------------------

/// Boots a server on a loopback port with a short io timeout; returns
/// its address and a closure that stops it and checks the drain.
fn boot(io_timeout: Duration) -> (std::net::SocketAddr, impl FnOnce()) {
    let mut config = ServerConfig::new("127.0.0.1:0");
    config.workers = 2;
    config.queue_depth = 8;
    config.io_timeout = io_timeout;
    config.request_timeout = Some(Duration::from_secs(30));
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || server.run());
    let stop = move || {
        shutdown.request();
        let report = handle
            .join()
            .expect("server thread")
            .expect("server run");
        assert!(report.drained, "ingress server failed to drain");
    };
    (addr, stop)
}

/// Sends raw bytes, half-closes the write side, and reads the full
/// response (empty when the server just dropped the connection).
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(bytes).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// The `error.code` inside a response's JSON body.
fn error_code(response: &str) -> String {
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no body in response: {response:?}"));
    let value: serde_json::Value = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("body is not JSON ({e}): {body:?}"));
    value
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or_else(|| panic!("no error.code in {body:?}"))
        .to_string()
}

fn status_line(response: &str) -> &str {
    response.lines().next().unwrap_or("")
}

#[test]
fn socket_hostility_gets_typed_errors_and_service_survives() {
    let (addr, stop) = boot(Duration::from_millis(400));

    // Truncated head: bytes stop mid-request-line, then EOF.
    let resp = raw_exchange(addr, b"GET /ta");
    assert!(status_line(&resp).contains("400"), "{resp:?}");
    assert_eq!(error_code(&resp), "http.malformed");

    // Oversized request line.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(20_000));
    let resp = raw_exchange(addr, long.as_bytes());
    assert!(status_line(&resp).contains("413"), "{resp:?}");
    assert_eq!(error_code(&resp), "http.too_large");

    // Binary garbage.
    let resp = raw_exchange(addr, &[0xff, 0xfe, 0x00, 0x80, 0x0a, 0x0a]);
    assert!(status_line(&resp).contains("400"), "{resp:?}");
    assert_eq!(error_code(&resp), "http.malformed");

    // Slow-loris: a partial head, then silence. The io timeout converts
    // the stall into a 408 instead of wedging the worker forever.
    let mut loris = TcpStream::connect(addr).expect("connect loris");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    loris.write_all(b"GET /healthz HT").expect("partial write");
    let mut resp = String::new();
    let _ = loris.read_to_string(&mut resp);
    assert!(status_line(&resp).contains("408"), "{resp:?}");
    assert_eq!(error_code(&resp), "http.timeout");
    drop(loris);

    // Non-UTF-8 query body: valid HTTP, garbage JSON bytes.
    let body = [0xc3u8, 0x28, 0xa0, 0xa1];
    let mut req = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
        .into_bytes();
    req.extend_from_slice(&body);
    let resp = raw_exchange(addr, &req);
    assert!(status_line(&resp).contains("400"), "{resp:?}");
    assert_eq!(error_code(&resp), "request.invalid_json");

    // Schema-invalid JSON: parses, wrong shape.
    let body = b"{\"tarlet\":\"figure-6\"}";
    let mut req = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
        .into_bytes();
    req.extend_from_slice(body);
    let resp = raw_exchange(addr, &req);
    assert!(status_line(&resp).contains("400"), "{resp:?}");
    assert_eq!(error_code(&resp), "request.schema");

    // Nesting far past the parser's depth limit, within the body limit:
    // a typed error, not a stack overflow that aborts the process.
    let body = "[".repeat(20_000);
    let mut req = format!("POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
        .into_bytes();
    req.extend_from_slice(body.as_bytes());
    let resp = raw_exchange(addr, &req);
    assert!(status_line(&resp).contains("400"), "{resp:?}");
    assert_eq!(error_code(&resp), "request.invalid_json");

    // After all of that, the server still answers a well-formed probe.
    let resp = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(status_line(&resp).contains("200"), "{resp:?}");
    assert!(resp.ends_with("ok\n"), "{resp:?}");

    stop();
}

#[test]
fn fuzzed_socket_garbage_never_kills_the_server() {
    let (addr, stop) = boot(Duration::from_millis(300));
    let mut rng = TestRng::deterministic("ingress::fuzzed_socket_garbage");
    for _ in 0..32 {
        let len = rng.gen_range(1usize..256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        // The exchange may yield an error response or nothing (the
        // server may classify pure garbage + EOF as a vanished peer);
        // the invariant is that the process neither panics nor stops
        // answering.
        let _ = raw_exchange(addr, &bytes);
    }
    let resp = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
    assert!(status_line(&resp).contains("200"), "{resp:?}");
    stop();
}
