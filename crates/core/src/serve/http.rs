//! Minimal HTTP/1.1 codec for the query service.
//!
//! The server speaks exactly the subset the routes need: `GET` requests
//! with no body, `HTTP/1.0` or `HTTP/1.1`, keep-alive and pipelining,
//! and plain-JSON responses with explicit `Content-Length`. Everything
//! else — other methods, bodies, oversized request lines or header
//! blocks — is refused with a typed error that maps to a 4xx/5xx status,
//! never a panic: the parser is total over arbitrary byte soup (pinned
//! by `core/tests/serve_prop.rs`).
//!
//! Hard limits bound what one connection can make the server hold:
//! [`MAX_REQUEST_LINE`] bytes of request line, `MAX_HEADER_BYTES` of
//! header block across at most [`MAX_HEADERS`] headers, zero body bytes.

use super::index::push_u64;
use sleepwatch_obs::push_json_str;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Longest accepted request line (method + target + version + CRLF).
pub const MAX_REQUEST_LINE: usize = 1024;
/// Total header-block budget in bytes (all header lines together).
pub(crate) const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Maximum number of header lines in one request.
pub const MAX_HEADERS: usize = 64;

/// A parsed request: the target (path plus optional query string) and
/// whether the connection should stay open afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request target as sent, e.g. `/v1/query?country=US`.
    pub target: String,
    /// Keep-alive decision: `HTTP/1.1` unless `Connection: close`,
    /// `HTTP/1.0` only with `Connection: keep-alive`.
    pub keep_alive: bool,
}

/// Everything that can go wrong reading one request. Each variant maps
/// to either a 4xx/5xx response (`status_for`) or a silent close.
#[derive(Debug)]
pub enum RequestError {
    /// Clean EOF before the first request byte — the client is done.
    Closed,
    /// EOF in the middle of a request: nothing to respond to.
    Truncated,
    /// Transport error; timeouts map to 408, the rest close silently.
    Io(io::Error),
    /// Request line exceeded [`MAX_REQUEST_LINE`].
    LineTooLong,
    /// Request line was not `METHOD TARGET VERSION`.
    BadRequestLine,
    /// Any method other than `GET`.
    BadMethod,
    /// Any version other than `HTTP/1.0` / `HTTP/1.1`.
    BadVersion,
    /// Header block exceeded `MAX_HEADER_BYTES` or [`MAX_HEADERS`].
    HeadersTooLarge,
    /// A header line without a colon, or an unparseable
    /// `Content-Length`.
    BadHeader,
    /// The request announced a body (`Content-Length` > 0 or any
    /// `Transfer-Encoding`); the query service takes none.
    HasBody,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Truncated => write!(f, "connection closed mid-request"),
            RequestError::Io(e) => write!(f, "read failed: {e}"),
            RequestError::LineTooLong => write!(f, "request line too long"),
            RequestError::BadRequestLine => write!(f, "malformed request line"),
            RequestError::BadMethod => write!(f, "method not allowed"),
            RequestError::BadVersion => write!(f, "http version not supported"),
            RequestError::HeadersTooLarge => write!(f, "header block too large"),
            RequestError::BadHeader => write!(f, "malformed header"),
            RequestError::HasBody => write!(f, "request bodies not accepted"),
        }
    }
}

/// True when `e` is a read-timeout surfaced by a blocking socket.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The response owed for a request-read failure: `Some((status, reason,
/// message))` when the client deserves an answer, `None` when the only
/// correct move is to close the connection.
pub(crate) fn status_for(e: &RequestError) -> Option<(u16, &'static str, &'static str)> {
    match e {
        RequestError::Closed | RequestError::Truncated => None,
        RequestError::Io(e) if is_timeout(e) => {
            Some((408, "Request Timeout", "timed out waiting for a request"))
        }
        RequestError::Io(_) => None,
        RequestError::LineTooLong => {
            Some((431, "Request Header Fields Too Large", "request line too long"))
        }
        RequestError::BadRequestLine => Some((400, "Bad Request", "malformed request line")),
        RequestError::BadMethod => Some((405, "Method Not Allowed", "only GET is supported")),
        RequestError::BadVersion => {
            Some((505, "HTTP Version Not Supported", "only HTTP/1.0 and HTTP/1.1 are supported"))
        }
        RequestError::HeadersTooLarge => {
            Some((431, "Request Header Fields Too Large", "header block too large"))
        }
        RequestError::BadHeader => Some((400, "Bad Request", "malformed header")),
        RequestError::HasBody => Some((413, "Content Too Large", "request bodies not accepted")),
    }
}

/// Reads one `\n`-terminated line and hands it to `f`, CR/LF stripped:
/// straight out of the reader's buffer when the line lies whole in it,
/// through `scratch` when it straddles a refill. Lines longer than `max`
/// are refused. `Ok(None)` is EOF with nothing consumed for this line.
fn with_line<R: BufRead, T>(
    r: &mut R,
    max: usize,
    scratch: &mut Vec<u8>,
    f: impl FnOnce(&[u8]) -> Result<T, RequestError>,
) -> Result<Option<T>, RequestError> {
    scratch.clear();
    loop {
        let buf = r.fill_buf().map_err(RequestError::Io)?;
        if buf.is_empty() {
            return if scratch.is_empty() { Ok(None) } else { Err(RequestError::Truncated) };
        }
        let Some(i) = buf.iter().position(|&b| b == b'\n') else {
            let n = buf.len();
            if scratch.len() + n > max {
                return Err(RequestError::LineTooLong);
            }
            scratch.extend_from_slice(buf);
            r.consume(n);
            continue;
        };
        if scratch.len() + i > max {
            return Err(RequestError::LineTooLong);
        }
        let line = if scratch.is_empty() {
            &buf[..i]
        } else {
            scratch.extend_from_slice(&buf[..i]);
            &scratch[..]
        };
        let out = f(line.strip_suffix(b"\r").unwrap_or(line));
        r.consume(i + 1);
        return out.map(Some);
    }
}

/// Validates `METHOD TARGET VERSION`, copies the target into `target`
/// and returns whether the version is `HTTP/1.1`.
fn parse_request_line(line: &[u8], target: &mut String) -> Result<bool, RequestError> {
    let text = std::str::from_utf8(line).map_err(|_| RequestError::BadRequestLine)?;
    let mut parts = text.split(' ').filter(|p| !p.is_empty());
    let (method, t, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(RequestError::BadRequestLine),
    };
    if !t.starts_with('/') {
        return Err(RequestError::BadRequestLine);
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(RequestError::BadVersion),
    };
    if method != "GET" {
        return Err(RequestError::BadMethod);
    }
    target.clear();
    target.push_str(t);
    Ok(http11)
}

/// Applies one header line: `Connection` moves `keep_alive`, an
/// announced body is refused, every other header is skipped.
fn parse_header(line: &[u8], keep_alive: &mut bool) -> Result<(), RequestError> {
    let text = std::str::from_utf8(line).map_err(|_| RequestError::BadHeader)?;
    let Some((name, value)) = text.split_once(':') else {
        return Err(RequestError::BadHeader);
    };
    let (name, value) = (name.trim(), value.trim());
    if name.eq_ignore_ascii_case("connection") {
        if value.eq_ignore_ascii_case("close") {
            *keep_alive = false;
        } else if value.eq_ignore_ascii_case("keep-alive") {
            *keep_alive = true;
        }
    } else if name.eq_ignore_ascii_case("content-length") {
        let n: u64 = value.parse().map_err(|_| RequestError::BadHeader)?;
        if n > 0 {
            return Err(RequestError::HasBody);
        }
    } else if name.eq_ignore_ascii_case("transfer-encoding") {
        return Err(RequestError::HasBody);
    }
    Ok(())
}

/// Reads and validates one request from `r`. Total: any byte sequence
/// yields a [`Request`] or a typed [`RequestError`], never a panic.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, RequestError> {
    let (mut line, mut target) = (Vec::new(), String::new());
    let keep_alive = read_request_into(r, &mut line, &mut target)?;
    Ok(Request { target, keep_alive })
}

/// [`read_request`] into a connection's scratch: the target replaces
/// `target`, the keep-alive decision is returned, and `line` is touched
/// only by a line that straddles one of `r`'s refills — in the steady
/// state a request is parsed where it lies and allocates nothing.
pub(crate) fn read_request_into<R: BufRead>(
    r: &mut R,
    line: &mut Vec<u8>,
    target: &mut String,
) -> Result<bool, RequestError> {
    // Tolerate a little CRLF slack between pipelined requests (RFC 9112
    // §2.2), but not an unbounded stream of blank lines.
    let mut blank_lines = 0;
    let mut keep_alive = loop {
        let parsed = with_line(r, MAX_REQUEST_LINE, line, |l| {
            if l.is_empty() {
                Ok(None)
            } else {
                parse_request_line(l, target).map(Some)
            }
        })?;
        match parsed {
            None => return Err(RequestError::Closed),
            Some(Some(http11)) => break http11,
            Some(None) if blank_lines == 3 => return Err(RequestError::BadRequestLine),
            Some(None) => blank_lines += 1,
        }
    };

    let mut header_bytes = 0usize;
    let mut headers = 0usize;
    loop {
        let end = with_line(r, MAX_HEADER_BYTES, line, |l| {
            if l.is_empty() {
                return Ok(true);
            }
            headers += 1;
            header_bytes += l.len() + 2;
            if headers > MAX_HEADERS || header_bytes > MAX_HEADER_BYTES {
                return Err(RequestError::HeadersTooLarge);
            }
            parse_header(l, &mut keep_alive).map(|()| false)
        })?;
        match end {
            None => return Err(RequestError::Truncated),
            Some(true) => return Ok(keep_alive),
            Some(false) => {}
        }
    }
}

/// Appends one JSON response, head and body, to `out`; returns its
/// length in bytes.
pub(crate) fn push_response(
    out: &mut String,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> u64 {
    let start = out.len();
    out.push_str("HTTP/1.1 ");
    push_u64(out, status.into());
    out.push(' ');
    out.push_str(reason);
    out.push_str("\r\nContent-Type: application/json\r\nContent-Length: ");
    push_u64(out, body.len() as u64);
    out.push_str(if keep_alive {
        "\r\nConnection: keep-alive\r\n\r\n"
    } else {
        "\r\nConnection: close\r\n\r\n"
    });
    out.push_str(body);
    (out.len() - start) as u64
}

/// Room a response head takes beside its body (they run to about 90
/// bytes; the longest reason phrase is 31).
pub(crate) const HEAD_ROOM: usize = 160;

/// Writes one JSON response as a single `write_all`; returns the bytes
/// put on the wire.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<u64> {
    let mut out = String::with_capacity(HEAD_ROOM + body.len());
    let n = push_response(&mut out, status, reason, body, keep_alive);
    w.write_all(out.as_bytes())?;
    Ok(n)
}

/// Appends the standard error body: `{"error":"..."}`.
pub(crate) fn push_error_body(out: &mut String, message: &str) {
    out.push_str("{\"error\":");
    push_json_str(out, message);
    out.push('}');
}

/// The standard error body: `{"error":"..."}`.
pub fn error_body(message: &str) -> String {
    let mut out = String::new();
    push_error_body(&mut out, message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse(b"GET /v1/summary HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.target, "/v1/summary");
        assert!(r.keep_alive);
    }

    #[test]
    fn connection_close_is_honoured() {
        let r = parse(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
    }

    #[test]
    fn refuses_methods_versions_and_bodies() {
        assert!(matches!(parse(b"POST / HTTP/1.1\r\n\r\n"), Err(RequestError::BadMethod)));
        assert!(matches!(parse(b"GET / HTTP/2.0\r\n\r\n"), Err(RequestError::BadVersion)));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"),
            Err(RequestError::HasBody)
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::HasBody)
        ));
    }

    #[test]
    fn clean_and_dirty_eofs_are_distinct() {
        assert!(matches!(parse(b""), Err(RequestError::Closed)));
        assert!(matches!(parse(b"GET /v1/su"), Err(RequestError::Truncated)));
        assert!(matches!(parse(b"GET / HTTP/1.1\r\nHost: x"), Err(RequestError::Truncated)));
    }

    #[test]
    fn limits_are_enforced() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 1));
        assert!(matches!(parse(long.as_bytes()), Err(RequestError::LineTooLong)));
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(parse(many.as_bytes()), Err(RequestError::HeadersTooLarge)));
    }

    #[test]
    fn response_bytes_are_accounted() {
        let mut out = Vec::new();
        let n = write_response(&mut out, 200, "OK", "{}", true).unwrap();
        assert_eq!(n as usize, out.len());
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert!(text.contains("Content-Length: 2\r\n"));
    }
}
