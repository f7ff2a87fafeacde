//! A minimal, hostile-input-hardened HTTP/1.1 request reader and
//! response writer over any `Read`/`Write` stream.
//!
//! The vendored-shim policy rules out an HTTP dependency, and the
//! service needs only a tiny slice of the protocol: one request per
//! connection, `GET`/`POST`, `Content-Length` bodies, no keep-alive, no
//! chunked encoding. What it must be is *unkillable*: every byte
//! sequence a hostile client can send — truncated headers, oversized
//! request lines, slow-loris dribbles, binary garbage — must come back
//! as a typed [`ParseError`], never a panic or a wedged thread. Hard
//! limits bound every dimension of a request ([`Limits`]), and socket
//! read timeouts (configured by the server on the `TcpStream`) convert
//! a stalled sender into [`ParseError::Timeout`].

use std::io::{self, Read, Write};

/// Hard ceilings on request dimensions. Anything over a limit is
/// rejected with a typed error before it can consume memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub max_request_line: usize,
    /// Largest accepted header block, request line included.
    pub max_head_bytes: usize,
    /// Most header lines accepted.
    pub max_headers: usize,
    /// Largest accepted `Content-Length` body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path + optional query), as received.
    pub target: String,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The bytes are not a parseable HTTP request.
    Malformed(String),
    /// A limit in [`Limits`] was exceeded.
    TooLarge(String),
    /// The socket read timed out mid-request (slow-loris).
    Timeout(String),
    /// The peer closed the connection before a complete request; no
    /// response can be delivered.
    Closed,
}

impl ParseError {
    fn malformed(msg: impl Into<String>) -> Self {
        ParseError::Malformed(msg.into())
    }

    fn too_large(msg: impl Into<String>) -> Self {
        ParseError::TooLarge(msg.into())
    }
}

/// Reads one request from `stream`, honoring `limits`.
///
/// The head is read incrementally until the blank line, so a hostile
/// peer cannot make the server buffer more than `max_head_bytes`; the
/// body is read exactly to its declared `Content-Length`.
///
/// # Errors
///
/// [`ParseError::TooLarge`] when a limit is exceeded,
/// [`ParseError::Timeout`] when the socket read times out mid-request,
/// [`ParseError::Closed`] when the peer disconnects before a full
/// request, and [`ParseError::Malformed`] for everything unparseable.
pub fn read_request(stream: &mut impl Read, limits: &Limits) -> Result<Request, ParseError> {
    let (head, leftover) = read_head(stream, limits)?;
    let (request, content_length) = parse_head(&head, limits)?;
    let mut request = request;
    if content_length > limits.max_body_bytes {
        return Err(ParseError::too_large(format!(
            "content-length {content_length} exceeds the {} byte body limit",
            limits.max_body_bytes
        )));
    }
    if content_length > 0 {
        // Body bytes that arrived in the same read as the head
        // terminator are already in `leftover`.
        let mut body = leftover;
        body.truncate(content_length);
        let filled = body.len();
        body.resize(content_length, 0);
        // ucore-lint: allow(panic-reachability): in bounds — `filled` is body.len() before the resize to content_length, and truncate capped it at content_length
        read_exact_classified(stream, &mut body[filled..])?;
        request.body = body;
    }
    Ok(request)
}

/// Reads until the end-of-head blank line (`\r\n\r\n` or `\n\n`),
/// returning the head bytes (terminator excluded) and any bytes read
/// past the terminator (the start of the body).
///
/// # Errors
///
/// [`ParseError::TooLarge`] past the head limit, [`ParseError::Closed`]
/// when the peer hangs up before sending a byte, and a malformed or
/// classified read failure otherwise.
fn read_head(
    stream: &mut impl Read,
    limits: &Limits,
) -> Result<(Vec<u8>, Vec<u8>), ParseError> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if let Some((end, terminator)) = head_end(&buf) {
            let leftover = buf.split_off(end + terminator);
            buf.truncate(end);
            return Ok((buf, leftover));
        }
        if buf.len() >= limits.max_head_bytes {
            return Err(ParseError::too_large(format!(
                "request head exceeds the {} byte limit",
                limits.max_head_bytes
            )));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(ParseError::Closed)
                } else {
                    Err(ParseError::malformed(
                        "connection closed before the end of the request head",
                    ))
                }
            }
            Ok(n) => n,
            Err(e) => return Err(classify_io(&e)),
        };
        // ucore-lint: allow(panic-reachability): in bounds — `n` is the return of Read::read on `chunk`, so n <= chunk.len()
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The byte offset where the head ends and its terminator's length, if
/// the terminator has arrived.
fn head_end(buf: &[u8]) -> Option<(usize, usize)> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| (p, 4))
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| (p, 2)))
}

/// Classifies an I/O error from a socket read: timeouts (slow-loris)
/// are typed apart from disconnects.
fn classify_io(e: &io::Error) -> ParseError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            ParseError::Timeout(format!("socket read timed out: {e}"))
        }
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => ParseError::Closed,
        _ => ParseError::Malformed(format!("socket read failed: {e}")),
    }
}

/// `read_exact` with the same timeout/closed classification.
///
/// # Errors
///
/// A malformed-request error when the peer hangs up early, and the
/// classified read failure otherwise.
fn read_exact_classified(stream: &mut impl Read, buf: &mut [u8]) -> Result<(), ParseError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        // ucore-lint: allow(panic-reachability): in bounds — the `filled < buf.len()` loop guard keeps the range start inside the buffer
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(ParseError::malformed(
                    "connection closed before the declared content-length arrived",
                ))
            }
            Ok(n) => filled += n,
            Err(e) => return Err(classify_io(&e)),
        }
    }
    Ok(())
}

/// Parses a complete request head (no body bytes). Pure — the hostile
/// ingress proptests drive this directly.
///
/// Returns the request (body empty) and the declared content length.
///
/// # Errors
///
/// [`ParseError::Malformed`] for non-UTF-8 heads, bad request lines,
/// malformed headers, or an unparseable `Content-Length`;
/// [`ParseError::TooLarge`] for an over-limit request line or header
/// count.
pub fn parse_head(head: &[u8], limits: &Limits) -> Result<(Request, usize), ParseError> {
    let text = std::str::from_utf8(head)
        .map_err(|e| ParseError::malformed(format!("request head is not UTF-8: {e}")))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return Err(ParseError::too_large(format!(
            "request line exceeds the {} byte limit",
            limits.max_request_line
        )));
    }
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| ParseError::malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| ParseError::malformed("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::malformed("request line has no HTTP version"))?;
    if parts.next().is_some() {
        return Err(ParseError::malformed("request line has trailing fields"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) || method.is_empty() {
        return Err(ParseError::malformed(format!("invalid method {method:?}")));
    }
    let mut content_length = 0usize;
    let mut header_count = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        header_count += 1;
        if header_count > limits.max_headers {
            return Err(ParseError::too_large(format!(
                "more than {} header lines",
                limits.max_headers
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::malformed(format!(
                "header line without a colon: {line:?}"
            )));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::malformed(format!("invalid header name {name:?}")));
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                ParseError::malformed(format!("unparseable content-length {value:?}"))
            })?;
        }
    }
    Ok((
        Request {
            method: method.to_string(),
            target: target.to_string(),
            body: Vec::new(),
        },
        content_length,
    ))
}

/// Writes one complete response (status line, minimal headers, body)
/// and flushes. Connections are single-request: the response carries
/// `Connection: close`.
///
/// # Errors
///
/// Propagates socket write failures (a vanished peer is the caller's
/// normal case, not a server fault).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `bytes` under the default limits.
    ///
    /// # Errors
    ///
    /// As [`parse_head`].
    fn parse(bytes: &[u8]) -> Result<(Request, usize), ParseError> {
        parse_head(bytes, &Limits::default())
    }

    #[test]
    fn parses_a_minimal_get() {
        let (req, len) = parse(b"GET /table/5 HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/table/5");
        assert_eq!(len, 0);
    }

    #[test]
    fn parses_content_length_case_insensitively() {
        let (_, len) = parse(b"POST /query HTTP/1.1\ncontent-LENGTH: 12\n").unwrap();
        assert_eq!(len, 12);
    }

    #[test]
    fn rejects_binary_garbage_as_malformed() {
        assert!(matches!(
            parse(&[0xff, 0xfe, 0x00, 0x01]),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_request_line() {
        let line = format!("GET /{} HTTP/1.1\r\n", "a".repeat(9000));
        assert!(matches!(parse(line.as_bytes()), Err(ParseError::TooLarge(_))));
    }

    #[test]
    fn read_request_reads_exact_body() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let mut cursor = std::io::Cursor::new(raw.to_vec());
        let req = read_request(&mut cursor, &Limits::default()).unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn empty_stream_is_closed_not_malformed() {
        let mut cursor = std::io::Cursor::new(Vec::new());
        assert_eq!(
            read_request(&mut cursor, &Limits::default()),
            Err(ParseError::Closed)
        );
    }
}
