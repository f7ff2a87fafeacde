//! The serving error taxonomy: every way a request can fail, each with
//! a stable machine-readable code, an HTTP status, and a structured
//! JSON body.
//!
//! The taxonomy extends the workspace convention (DESIGN.md §11) to the
//! wire: ingress failures (`http.*`), request-content failures
//! (`request.*`), and service-state failures (`server.*`). A client can
//! branch on `error.code` without parsing prose, and every response —
//! including a shed or a contained panic — is well-formed JSON, never a
//! dropped connection or an empty reply.

use serde_json::serde;
use std::fmt;

/// A taxonomy-coded serving failure, rendered as an HTTP error
/// response with a structured JSON body.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ServeError {
    /// Stable machine-readable code (`server.overloaded`, …).
    pub code: &'static str,
    /// The HTTP status the response carries.
    pub status: u16,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ServeError {
    fn new(code: &'static str, status: u16, message: impl Into<String>) -> Self {
        ServeError { code, status, message: message.into() }
    }

    /// `http.malformed` (400): the request could not be parsed.
    pub fn malformed(message: impl Into<String>) -> Self {
        Self::new("http.malformed", 400, message)
    }

    /// `http.too_large` (413): a request line, header block, or body
    /// exceeded its configured limit.
    pub fn too_large(message: impl Into<String>) -> Self {
        Self::new("http.too_large", 413, message)
    }

    /// `http.timeout` (408): the peer stopped sending mid-request
    /// (slow-loris) and the socket read timed out.
    pub fn ingress_timeout(message: impl Into<String>) -> Self {
        Self::new("http.timeout", 408, message)
    }

    /// `http.method` (405): the target exists but not for this method.
    pub fn method_not_allowed(method: &str, target: &str) -> Self {
        Self::new(
            "http.method",
            405,
            format!("method {method} is not supported for {target}"),
        )
    }

    /// `request.unknown_target` (404): no artifact at this path.
    pub fn unknown_target(message: impl Into<String>) -> Self {
        Self::new("request.unknown_target", 404, message)
    }

    /// `request.invalid_json` (400): a `POST /query` body that is not
    /// valid JSON (or not valid UTF-8).
    pub fn invalid_json(message: impl Into<String>) -> Self {
        Self::new("request.invalid_json", 400, message)
    }

    /// `request.schema` (400): valid JSON with the wrong shape.
    pub fn schema(message: impl Into<String>) -> Self {
        Self::new("request.schema", 400, message)
    }

    /// `request.deadline` (504): the per-request budget expired before
    /// the render completed.
    pub fn deadline(budget_ms: u128) -> Self {
        Self::new(
            "request.deadline",
            504,
            format!("request exceeded its {budget_ms} ms deadline"),
        )
    }

    /// `request.failed` (500): the model failed (contained panic,
    /// injected fault, or projection error) — the failure is contained
    /// to this response; the process keeps serving.
    pub fn failed(message: impl Into<String>) -> Self {
        Self::new("request.failed", 500, message)
    }

    /// `server.overloaded` (503): admission control shed the request —
    /// every worker is busy and the accept queue is full.
    pub fn overloaded() -> Self {
        Self::new(
            "server.overloaded",
            503,
            "server at concurrency limit and queue full; retry later",
        )
    }

    /// `server.draining` (503): the server is shutting down and no
    /// longer admits new requests.
    pub fn draining() -> Self {
        Self::new("server.draining", 503, "server is draining for shutdown")
    }

    /// The standard reason phrase for this error's status.
    pub fn reason(&self) -> &'static str {
        reason_phrase(self.status)
    }

    /// The structured JSON response body (newline-terminated):
    /// `{"error":{"code":…,"status":…,"message":…}}`.
    pub fn body(&self) -> String {
        // The vendored serializer never fails; its `Result` mirrors the
        // real API.
        let mut body =
            serde_json::to_string(&ErrorBody { error: self.clone() }).unwrap_or_default();
        body.push('\n');
        body
    }
}

/// The JSON object an error response carries.
#[derive(serde::Serialize)]
struct ErrorBody {
    error: ServeError,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}): {}", self.code, self.status, self.message)
    }
}

impl std::error::Error for ServeError {}

/// The reason phrase for the statuses the taxonomy uses.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_parseable_json_with_the_code() {
        for err in [
            ServeError::malformed("bad \"quoted\" line"),
            ServeError::too_large("8193 > 8192"),
            ServeError::ingress_timeout("read timed out"),
            ServeError::method_not_allowed("PUT", "/table/5"),
            ServeError::unknown_target("no such figure"),
            ServeError::invalid_json("trailing garbage"),
            ServeError::schema("missing \"target\""),
            ServeError::deadline(250),
            ServeError::failed("injected panic at point 3"),
            ServeError::overloaded(),
            ServeError::draining(),
        ] {
            let body = err.body();
            let value: serde_json::Value =
                serde_json::from_str(&body).unwrap_or_else(|e| {
                    panic!("{}: body not JSON: {e}\n{body}", err.code)
                });
            let error = value.get("error").unwrap();
            assert_eq!(error.get("code").unwrap().as_str(), Some(err.code));
            assert_eq!(
                error.get("status").unwrap().as_u64(),
                Some(u64::from(err.status))
            );
            assert!(body.ends_with('\n'));
            assert_ne!(err.reason(), "Unknown", "{}", err.status);
        }
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(
            ServeError::malformed("a\"b\\c\nd\te\r\u{1} é").body(),
            "{\"error\":{\"code\":\"http.malformed\",\"status\":400,\
             \"message\":\"a\\\"b\\\\c\\nd\\te\\r\\u0001 é\"}}\n"
        );
    }
}
