//! A minimal HTTP/1.1 layer — just enough protocol for the estimation
//! service, with hard limits on every dimension of the input.
//!
//! The build environment is offline, so there is no hyper/axum to lean on;
//! this module hand-rolls the subset the service needs: an incremental
//! request parser ([`RequestParser`]) for request-line + header parsing,
//! `Content-Length` bodies, keep-alive and pipelining, plus the response
//! head (`Response::head`; the event loop writes the body after it from
//! the response's own buffer). The parser never touches a
//! socket: the event loop pushes whatever bytes arrived and asks whether
//! a request is complete. It never buffers more than the configured
//! limits allow:
//!
//! - the request line and each header line are capped ([`HttpLimits`]),
//!   checked on the buffered prefix, so an unterminated line is rejected
//!   as soon as it outgrows the cap;
//! - the header count is capped;
//! - `Content-Length` is checked against the cap from the head alone, so
//!   an oversized upload is rejected ([`HttpError::BodyTooLarge`] → 413)
//!   before a byte of it is buffered;
//! - chunked transfer encoding is refused (the protocol layer has no
//!   streaming consumers).
//!
//! Time limits (stalled uploads, slowloris drips) are the event loop's
//! job: the parser has no clock.

use tlm_faults::Kind;

/// Input caps for one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Maximum bytes in the request line or any single header line.
    pub max_line_bytes: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Maximum request body size in bytes.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> HttpLimits {
        HttpLimits { max_line_bytes: 8 << 10, max_headers: 64, max_body_bytes: 4 << 20 }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request target, e.g. `/estimate`.
    pub target: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer's bytes ran out before the body arrived (raised only by
    /// the `serve.parse` fault point, the truncated-upload drill).
    Closed,
    /// The request violated the configured size caps before the body.
    HeaderTooLarge,
    /// `Content-Length` exceeds the body cap; nothing was buffered.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The bytes were not valid HTTP.
    Malformed(String),
}

impl HttpError {
    fn malformed(msg: impl Into<String>) -> HttpError {
        HttpError::Malformed(msg.into())
    }
}

/// A fully parsed head (request line + headers) waiting for its body.
#[derive(Debug)]
struct PendingHead {
    method: String,
    target: String,
    headers: Vec<(String, String)>,
    content_length: usize,
    http11: bool,
}

/// An incremental, non-blocking request parser.
///
/// The event loop pushes whatever bytes the socket had
/// ([`RequestParser::push`]) and asks whether a complete request has
/// accumulated ([`RequestParser::try_parse`]); the parser never blocks
/// and never touches a socket. The [`HttpLimits`] are enforced
/// *incrementally*: an unterminated header line or an
/// endless header list is rejected as soon as the buffered prefix
/// exceeds the cap, and an oversized `Content-Length` is rejected from
/// the head alone — before a byte of the body arrives. Pipelined
/// requests are supported: bytes beyond the first request stay buffered
/// for the next `try_parse` call.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    pending: Option<PendingHead>,
}

impl RequestParser {
    /// A parser with no buffered bytes.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when nothing of a request is buffered — EOF here is the
    /// clean end of a keep-alive connection, not a truncated request.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty() && self.pending.is_none()
    }

    /// Scans for the blank line ending the head, enforcing the line and
    /// header-count caps on the buffered prefix so a client cannot grow
    /// the buffer without ever terminating a line.
    fn find_head_end(&self, limits: &HttpLimits) -> Result<Option<usize>, HttpError> {
        let mut lines = 0usize;
        let mut start = 0usize;
        loop {
            match self.buf[start..].iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if pos + 1 > limits.max_line_bytes + 1 {
                        return Err(HttpError::HeaderTooLarge);
                    }
                    let line = &self.buf[start..start + pos];
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    if line.is_empty() {
                        return Ok(Some(start + pos + 1));
                    }
                    lines += 1;
                    // The request line plus at most `max_headers` headers.
                    if lines > limits.max_headers + 1 {
                        return Err(HttpError::HeaderTooLarge);
                    }
                    start += pos + 1;
                }
                None => {
                    if self.buf.len() - start > limits.max_line_bytes + 1 {
                        return Err(HttpError::HeaderTooLarge);
                    }
                    return Ok(None);
                }
            }
        }
    }

    /// Parses the head bytes (terminating blank line included) into a
    /// pending request.
    fn parse_head(head: &[u8], limits: &HttpLimits) -> Result<PendingHead, HttpError> {
        let mut lines = head.split(|&b| b == b'\n').map(|line| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            std::str::from_utf8(line).map_err(|_| HttpError::malformed("non-UTF-8 header"))
        });

        let request_line = lines.next().transpose()?.unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::malformed(format!("bad request line `{request_line}`")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::malformed(format!("unsupported version `{version}`")));
        }
        let http11 = version == "HTTP/1.1";

        let mut headers = Vec::new();
        for line in lines {
            let line = line?;
            if line.is_empty() {
                break;
            }
            if headers.len() >= limits.max_headers {
                return Err(HttpError::HeaderTooLarge);
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::malformed(format!("bad header `{line}`")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let find = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
        if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
            return Err(HttpError::malformed("chunked transfer encoding not supported"));
        }
        let content_length = match find("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::malformed(format!("bad content-length `{v}`")))?,
        };

        Ok(PendingHead {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            content_length,
            http11,
        })
    }

    /// Attempts to complete one request from the buffered bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(_))` when
    /// a request completed (its bytes are consumed; pipelined leftovers
    /// stay buffered).
    ///
    /// # Errors
    ///
    /// See [`HttpError`]. The parser never times out or sees EOF on its
    /// own; [`HttpError::Closed`] comes only from the `serve.parse` fault
    /// point.
    pub fn try_parse(&mut self, limits: &HttpLimits) -> Result<Option<Request>, HttpError> {
        if self.pending.is_none() {
            let Some(head_end) = self.find_head_end(limits)? else {
                return Ok(None);
            };
            let head: Vec<u8> = self.buf.drain(..head_end).collect();
            let pending = RequestParser::parse_head(&head, limits)?;
            if pending.content_length > limits.max_body_bytes {
                return Err(HttpError::BodyTooLarge {
                    declared: pending.content_length,
                    limit: limits.max_body_bytes,
                });
            }
            // Chaos-build injection point: pretend the peer's bytes ran
            // out before the body arrived (the truncated-upload path).
            if tlm_faults::point("serve.parse", &[Kind::ShortRead]).is_some() {
                return Err(HttpError::Closed);
            }
            self.pending = Some(pending);
        }

        let need = self.pending.as_ref().map_or(0, |p| p.content_length);
        if self.buf.len() < need {
            return Ok(None);
        }
        let head = self.pending.take().expect("pending head present");
        let body: Vec<u8> = self.buf.drain(..need).collect();

        let connection = head
            .headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection {
            Some(c) if c.contains("close") => false,
            Some(c) if c.contains("keep-alive") => true,
            _ => head.http11, // HTTP/1.1 defaults to keep-alive
        };
        Ok(Some(Request {
            method: head.method,
            target: head.target,
            headers: head.headers,
            body,
            keep_alive,
        }))
    }
}

/// One response to serialize.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Content type of the body.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            extra_headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            extra_headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = tlm_json::ObjectBuilder::new().field("error", message).build().to_compact();
        Response::json(status, body)
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// The standard reason phrase for the status codes the service uses.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// The serialized status line and headers, terminator included.
    pub(crate) fn head(&self, keep_alive: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `text` into a fresh parser in one piece and parses once.
    fn parse(text: &[u8], limits: &HttpLimits) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new();
        parser.push(text);
        parser.try_parse(limits)
    }

    #[test]
    fn incremental_parser_assembles_a_dripped_request() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        let text: &[u8] = b"POST /estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        for chunk in text.chunks(3) {
            assert!(
                parser.try_parse(&limits).expect("no error mid-drip").is_none(),
                "request must not complete before all bytes arrive"
            );
            parser.push(chunk);
        }
        let req = parser.try_parse(&limits).expect("parses").expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/estimate");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(req.header("host"), Some("x"));
        assert!(parser.is_empty(), "all bytes consumed");
    }

    #[test]
    fn incremental_parser_handles_pipelined_requests() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        parser.push(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /readyz HTTP/1.1\r\nConnection: close\r\n\r\n\
              GET / HTTP/1.0\r\n\r\n",
        );
        let first = parser.try_parse(&limits).expect("parses").expect("first");
        assert_eq!(first.target, "/healthz");
        assert!(!parser.is_empty(), "later requests still buffered");
        let second = parser.try_parse(&limits).expect("parses").expect("second");
        assert_eq!(second.target, "/readyz");
        assert!(!second.keep_alive);
        let third = parser.try_parse(&limits).expect("parses").expect("third");
        assert!(!third.keep_alive, "HTTP/1.0 defaults to close");
        assert!(parser.is_empty());
        assert!(parser.try_parse(&limits).expect("no error").is_none());
    }

    #[test]
    fn incremental_parser_rejects_oversized_body_from_the_head_alone() {
        let limits = HttpLimits { max_body_bytes: 1024, ..HttpLimits::default() };
        match parse(b"POST /estimate HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", &limits) {
            Err(HttpError::BodyTooLarge { declared: 4096, limit: 1024 }) => {}
            other => panic!("expected BodyTooLarge before any body byte, got {other:?}"),
        }
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX / 2);
        match parse(huge.as_bytes(), &HttpLimits::default()) {
            Err(HttpError::BodyTooLarge { declared, limit }) => assert!(declared > limit),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn incremental_parser_caps_header_lines() {
        let limits = HttpLimits::default();
        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\nX-Big: ");
        parser.push(&vec![b'a'; limits.max_line_bytes + 8]);
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::HeaderTooLarge)));

        // A terminated 1 MiB line is refused the same way.
        let mut text = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        text.extend(std::iter::repeat_n(b'a', 1 << 20));
        text.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&text, &limits), Err(HttpError::HeaderTooLarge)));
    }

    #[test]
    fn incremental_parser_caps_header_count() {
        let limits = HttpLimits { max_headers: 4, ..HttpLimits::default() };
        let mut parser = RequestParser::new();
        parser.push(b"GET / HTTP/1.1\r\n");
        for i in 0..6 {
            parser.push(format!("X-H{i}: v\r\n").as_bytes());
        }
        parser.push(b"\r\n");
        assert!(matches!(parser.try_parse(&limits), Err(HttpError::HeaderTooLarge)));
    }

    #[test]
    fn incremental_parser_rejects_malformed_heads() {
        let limits = HttpLimits::default();
        for text in [
            &b"NOT HTTP\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
        ] {
            assert!(matches!(parse(text, &limits), Err(HttpError::Malformed(_))));
        }
    }

    #[test]
    fn response_serializes_with_framing() {
        let resp = Response::json(200, "{}").with_header("Retry-After", "1");
        let text = resp.head(false) + std::str::from_utf8(&resp.body).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
