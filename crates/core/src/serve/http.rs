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

use super::index::extend_u64;
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

/// How far [`parse_head`] has read a request head: every line before
/// `at` is parsed, and this is what they said.
#[derive(Debug, Default)]
struct Head {
    /// Where the first line not yet parsed starts.
    at: usize,
    /// Blank lines skipped before the request line.
    blank_lines: u8,
    /// `None` before the request line; then whether the connection stays
    /// open, as the version and any `Connection` header have it so far.
    keep_alive: Option<bool>,
    /// Header lines parsed.
    headers: usize,
    /// Bytes of header block parsed, each line counted with a CRLF.
    header_bytes: usize,
}

impl Head {
    /// The longest the next line may be: a request line's limit until
    /// the request line is parsed, the header block's after it.
    fn limit(&self) -> usize {
        if self.keep_alive.is_none() {
            MAX_REQUEST_LINE
        } else {
            MAX_HEADER_BYTES
        }
    }
}

/// What [`parse_head`] made of the bytes it was given.
#[derive(Debug)]
enum Step {
    /// The head ends before this offset; the keep-alive decision.
    Done(usize, bool),
    /// The head is refused; the bytes before this offset are spent.
    Refused(usize, RequestError),
    /// The bytes end inside a line, which starts at `Head::at`.
    More,
}

/// Parses the lines of a request head from `bytes[head.at..]` in one
/// pass, each as soon as its `\n` is in view, until the head ends, a
/// line is refused or the bytes run out. A line longer than its limit is
/// refused as soon as its bytes in view pass it, with the spent bytes
/// ending where that line starts; any other refusal spends its line.
/// The request line's target replaces `target`.
fn parse_head(bytes: &[u8], head: &mut Head, target: &mut String) -> Step {
    loop {
        let rest = &bytes[head.at..];
        let max = head.limit();
        let Some(i) = find_newline(rest) else {
            return if rest.len() > max {
                Step::Refused(head.at, RequestError::LineTooLong)
            } else {
                Step::More
            };
        };
        if i > max {
            return Step::Refused(head.at, RequestError::LineTooLong);
        }
        let line = rest[..i].strip_suffix(b"\r").unwrap_or(&rest[..i]);
        head.at += i + 1;
        let end = head.at;
        let Some(mut keep_alive) = head.keep_alive else {
            // Tolerate a little CRLF slack between pipelined requests
            // (RFC 9112 §2.2), but not an unbounded stream of blank lines.
            if !line.is_empty() {
                match parse_request_line(line, target) {
                    Ok(http11) => head.keep_alive = Some(http11),
                    Err(e) => return Step::Refused(end, e),
                }
            } else if head.blank_lines == 3 {
                return Step::Refused(end, RequestError::BadRequestLine);
            } else {
                head.blank_lines += 1;
            }
            continue;
        };
        if line.is_empty() {
            return Step::Done(end, keep_alive);
        }
        head.headers += 1;
        head.header_bytes += line.len() + 2;
        if head.headers > MAX_HEADERS || head.header_bytes > MAX_HEADER_BYTES {
            return Step::Refused(end, RequestError::HeadersTooLarge);
        }
        if let Err(e) = parse_header(line, &mut keep_alive) {
            return Step::Refused(end, e);
        }
        head.keep_alive = Some(keep_alive);
    }
}

/// Where the first `\n` in `bytes` is, found eight bytes a step.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut chunks = bytes.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // A byte of `x` is zero where `word` holds `\n`; the lowest bit
        // this sets is the first such byte's (borrows only run upwards).
        let x = word ^ (ONES * u64::from(b'\n'));
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zero != 0 {
            return Some(i * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = chunks.remainder();
    tail.iter().position(|&b| b == b'\n').map(|j| bytes.len() - tail.len() + j)
}

/// Validates `METHOD TARGET VERSION` (words split by runs of spaces),
/// copies the target into `target` and returns whether the version is
/// `HTTP/1.1`.
fn parse_request_line(line: &[u8], target: &mut String) -> Result<bool, RequestError> {
    let text = std::str::from_utf8(line).map_err(|_| RequestError::BadRequestLine)?;
    let mut words = [""; 3];
    let (mut n, mut i) = (0, 0);
    let b = text.as_bytes();
    while i < b.len() {
        if b[i] == b' ' {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && b[i] != b' ' {
            i += 1;
        }
        if n == words.len() {
            return Err(RequestError::BadRequestLine);
        }
        words[n] = &text[start..i];
        n += 1;
    }
    let [method, t, version] = words;
    if n < words.len() || !t.starts_with('/') {
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
    let colon = line.iter().position(|&b| b == b':').ok_or(RequestError::BadHeader)?;
    let (name, value) = (text[..colon].trim(), text[colon + 1..].trim());
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
/// `target` and the keep-alive decision is returned. A head is parsed
/// where it lies in `r`'s buffer, by one [`parse_head`] over it; only a
/// line that straddles a refill is assembled in `line` first, through
/// its `\n` (each refill searched once, from where it starts), and
/// parsed there by the same function. `r` is asked for more bytes only
/// when its buffer is used up and the head is not, so in the steady
/// state a request costs one `fill_buf` and allocates nothing.
pub(crate) fn read_request_into<R: BufRead>(
    r: &mut R,
    line: &mut Vec<u8>,
    target: &mut String,
) -> Result<bool, RequestError> {
    let mut head = Head::default();
    line.clear();
    loop {
        let buf = r.fill_buf().map_err(RequestError::Io)?;
        if buf.is_empty() {
            let clean = line.is_empty() && head.keep_alive.is_none();
            return Err(if clean { RequestError::Closed } else { RequestError::Truncated });
        }
        head.at = 0;
        // `held` bytes of the line being parsed came from earlier refills
        // and are spent; `took` bytes of this buffer are parsed now.
        let (step, held, took) = if line.is_empty() {
            (parse_head(buf, &mut head, target), 0, buf.len())
        } else {
            let held = line.len();
            let Some(i) = find_newline(buf) else {
                if held + buf.len() > head.limit() {
                    return Err(RequestError::LineTooLong);
                }
                let took = buf.len();
                line.extend_from_slice(buf);
                r.consume(took);
                continue;
            };
            line.extend_from_slice(&buf[..=i]);
            (parse_head(line, &mut head, target), held, i + 1)
        };
        match step {
            Step::Done(end, keep_alive) => {
                r.consume(end - held);
                return Ok(keep_alive);
            }
            Step::Refused(end, e) => {
                r.consume(end.saturating_sub(held));
                return Err(e);
            }
            Step::More if line.is_empty() => {
                line.extend_from_slice(&buf[head.at..]);
                r.consume(took);
            }
            Step::More => {
                line.clear();
                r.consume(took);
            }
        }
    }
}

/// Appends one JSON response, head and body, to `out`; returns its
/// length in bytes.
pub(crate) fn push_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    body: &str,
    keep_alive: bool,
) -> u64 {
    let start = out.len();
    out.extend_from_slice(b"HTTP/1.1 ");
    extend_u64(out, status.into());
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: application/json\r\nContent-Length: ");
    extend_u64(out, body.len() as u64);
    out.extend_from_slice(if keep_alive {
        b"\r\nConnection: keep-alive\r\n\r\n"
    } else {
        b"\r\nConnection: close\r\n\r\n"
    });
    out.extend_from_slice(body.as_bytes());
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
    let mut out = Vec::with_capacity(HEAD_ROOM + body.len());
    let n = push_response(&mut out, status, reason, body, keep_alive);
    w.write_all(&out)?;
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

/// The line-at-a-time parser [`read_request_into`] replaced, kept as the
/// oracle its one-pass parse is held to: each line through its own
/// `fill_buf` and closure, the request line split by `str::split`.
#[cfg(test)]
mod reference {
    use super::{RequestError, MAX_HEADERS, MAX_HEADER_BYTES, MAX_REQUEST_LINE};
    use std::io::BufRead;

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

    /// `read_request_into` as it was, a line at a time: the target replaces
    /// `target`, the keep-alive decision is returned, and `line` is touched
    /// only by a line that straddles one of `r`'s refills — in the steady
    /// state a request is parsed where it lies and allocates nothing.
    pub(super) fn read_request_into<R: BufRead>(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{index::tests::row, serve_streams, ConnStats, ServeState};
    use proptest::prelude::*;
    use proptest::TestRng;
    use sleepwatch_linktype::LinkFeature;
    use std::io::{BufReader, Read};

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

    /// A stream that hands out `data` in reads of the sizes `sizes`
    /// cycles through (all of it at once when empty), logging each read.
    struct Chunked<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        reads: Vec<usize>,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let size = match self.sizes {
                [] => usize::MAX,
                sizes => sizes[self.reads.len() % sizes.len()],
            };
            let n = size.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.reads.push(n);
            Ok(n)
        }
    }

    type Parser<'d> =
        fn(&mut BufReader<Chunked<'d>>, &mut Vec<u8>, &mut String) -> Result<bool, RequestError>;

    /// What one parser made of a pipelined stream: per request, the
    /// outcome, the target scratch after it and the reads made so far;
    /// then every read and the bytes left unread.
    type Run = (Vec<(String, String, usize)>, Vec<usize>, Vec<u8>);

    /// Parses requests from `data` with `parse` until one fails, through
    /// a buffer of `cap` bytes filled by reads of `sizes`.
    fn run<'d>(parse: Parser<'d>, data: &'d [u8], sizes: &'d [usize], cap: usize) -> Run {
        let mut r = BufReader::with_capacity(cap, Chunked { data, sizes, reads: Vec::new() });
        let (mut line, mut target) = (Vec::new(), String::from("junk"));
        let mut steps = Vec::new();
        for _ in 0..8 {
            let got = parse(&mut r, &mut line, &mut target);
            let done = got.is_err();
            let outcome = match got {
                Ok(keep_alive) => format!("ok keep_alive={keep_alive}"),
                Err(e) => format!("{e:?}"),
            };
            steps.push((outcome, target.clone(), r.get_ref().reads.len()));
            if done {
                break;
            }
        }
        let mut unread = r.buffer().to_vec();
        unread.extend_from_slice(r.get_ref().data);
        (steps, r.into_inner().reads, unread)
    }

    /// One line ending: CRLF or a bare LF.
    fn eol(crlf: bool) -> &'static str {
        if crlf {
            "\r\n"
        } else {
            "\n"
        }
    }

    /// One of `items`.
    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    /// A string drawn from `pattern` (the regex subset strategies take).
    fn draw(rng: &mut TestRng, pattern: &str) -> String {
        pattern.generate(rng)
    }

    /// A GET-shaped head: 0–4 blank lines, a request line that is mostly
    /// well formed, 0–8 header lines (`Host` and the three the parser
    /// reads among them, some without a colon, some not UTF-8), each line
    /// ending in CRLF or LF.
    fn get_head(rng: &mut TestRng) -> Vec<u8> {
        let mut lines: Vec<Vec<u8>> = vec![Vec::new(); rng.below(5) as usize];
        let method = match rng.below(8) {
            0 => draw(rng, "[A-Za-z]{1,6}"),
            _ => "GET".to_string(),
        };
        let target = match rng.below(8) {
            0 => draw(rng, "[ -~]{0,40}"),
            1 => draw(rng, "/[a-z]{0,6}") + pick(rng, &["é", "\u{a0}", "\u{2028}", "☃"]),
            _ => draw(rng, "/[a-z0-9/?=&.-]{0,40}"),
        };
        let version = match rng.below(7) {
            0 => draw(rng, "HTTP/[0-9.]{1,4}"),
            1 | 2 => "HTTP/1.0".to_string(),
            _ => "HTTP/1.1".to_string(),
        };
        let (s1, s2) =
            (" ".repeat(1 + rng.below(2) as usize), " ".repeat(1 + rng.below(2) as usize));
        lines.push(format!("{method}{s1}{target}{s2}{version}").into_bytes());
        for _ in 0..rng.below(9) {
            let header = match rng.below(10) {
                0 => draw(rng, "[ -9;-~]{0,30}").into_bytes(),
                1 => vec![b'X', b':', 0xff, b' ', 0xc3],
                _ => {
                    let name = match rng.below(7) {
                        0..=2 => "Host".to_string(),
                        3 | 4 => pick(
                            rng,
                            &["Connection", "connection", "Content-Length", "Transfer-Encoding"],
                        )
                        .to_string(),
                        5 => draw(rng, "[A-Za-z-]{1,12}"),
                        _ => draw(rng, "[ -~]{0,12}"),
                    };
                    let value = match rng.below(5) {
                        0 | 1 => pick(
                            rng,
                            &["close", " Close ", "keep-alive", "0", "5", "+0", "x", "\u{a0}close"],
                        )
                        .to_string(),
                        _ => draw(rng, "[ -~]{0,24}"),
                    };
                    format!("{name}: {value}").into_bytes()
                }
            };
            lines.push(header);
        }
        lines.push(Vec::new());
        let mut head = Vec::new();
        for line in lines {
            head.extend_from_slice(&line);
            head.extend_from_slice(eol(rng.below(3) != 0).as_bytes());
        }
        head
    }

    /// A head at the limits: a request line at and just past
    /// [`MAX_REQUEST_LINE`], a header block at and just past
    /// [`MAX_HEADERS`] lines or `MAX_HEADER_BYTES` bytes (one line of
    /// them at and past the line limit).
    fn limit_head(rng: &mut TestRng) -> Vec<u8> {
        let e = eol(rng.below(2) == 0);
        let mut head = format!("GET / HTTP/1.1{e}");
        match rng.below(3) {
            0 => {
                let k = MAX_REQUEST_LINE - 16 + rng.below(6) as usize;
                head = format!("GET /{} HTTP/1.1{e}", "a".repeat(k));
            }
            1 => {
                for i in 0..MAX_HEADERS - 1 + rng.below(3) as usize {
                    head.push_str(&format!("X-H{i}: v{e}"));
                }
            }
            _ => {
                // `n` lines of `X: ` and padding, each counted with a CRLF.
                let n = 1 + rng.below(4) as usize;
                let total = MAX_HEADER_BYTES - 3 + rng.below(6) as usize;
                let each = total / n;
                for i in 0..n {
                    let len = if i + 1 == n { total - each * (n - 1) } else { each };
                    head.push_str(&format!("X: {}{e}", "p".repeat(len - 5)));
                }
            }
        }
        (head + e).into_bytes()
    }

    /// Byte soup, from all bytes or from the bytes heads are made of.
    fn soup(rng: &mut TestRng) -> Vec<u8> {
        let alphabet = b"GET /HTP1.0\r\n\r\n:CcloseOonnectikp-aL0h5 ";
        match rng.below(2) {
            0 => (0..rng.below(512)).map(|_| rng.below(256) as u8).collect(),
            _ => (0..rng.below(256)).map(|_| pick(rng, alphabet)).collect(),
        }
    }

    /// Read sizes: all at once (empty), or a cycle of 1–64 bytes.
    fn read_sizes(rng: &mut TestRng) -> Vec<usize> {
        (0..rng.below(6)).map(|_| 1 + rng.below(64) as usize).collect()
    }

    fn state() -> ServeState {
        let rows = (0..6).map(|id| row(id * 2, Some("US"), 5, &[LinkFeature::Dsl])).collect();
        ServeState::build(rows, 8)
    }

    /// The bytes `serve_streams` writes and its counts, reading `input`
    /// in reads of `sizes`.
    fn serve(state: &ServeState, input: &[u8], sizes: &[usize]) -> (Vec<u8>, ConnStats) {
        let mut out = Vec::new();
        let stats =
            serve_streams(Chunked { data: input, sizes, reads: Vec::new() }, &mut out, state);
        (out, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass parser is the line-at-a-time one: over pipelined
        /// heads cut at any offset, read through any buffer in reads of
        /// any size, it returns the same target, keep-alive flag or
        /// refusal for each request, makes the same reads at the same
        /// points and leaves the same bytes unread. Inputs of up to 600
        /// bytes are cut at every offset, longer ones at eight.
        #[test]
        fn one_pass_head_matches_the_line_reference(seed in any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            let mut data = Vec::new();
            for _ in 0..1 + rng.below(3) {
                data.extend(match rng.below(5) {
                    0 => limit_head(rng),
                    1 => soup(rng),
                    _ => get_head(rng),
                });
            }
            let sizes = read_sizes(rng);
            let cap = match rng.below(3) {
                0 => 8192,
                1 => 1 + rng.below(64) as usize,
                _ => 64 + rng.below(2048) as usize,
            };
            let cuts: Vec<usize> = if data.len() <= 600 {
                (0..=data.len()).collect()
            } else {
                let mut cuts: Vec<usize> =
                    (0..8).map(|_| rng.below(data.len() as u64) as usize).collect();
                cuts.push(data.len());
                cuts
            };
            for end in cuts {
                let data = &data[..end];
                let want = run(reference::read_request_into, data, &sizes, cap);
                let got = run(read_request_into, data, &sizes, cap);
                prop_assert_eq!(got, want, "cut at {} of {:?}", end, String::from_utf8_lossy(data));
            }
        }

        /// `serve_streams` answers a stream with the same bytes and counts
        /// whether it arrives whole or in reads of 1–64 bytes.
        #[test]
        fn one_pass_serving_ignores_read_sizes(seed in any::<u64>()) {
            let rng = &mut TestRng::new(seed);
            let targets = [
                "/v1/block/4", "/v1/block/5", "/v1/block/40", "/v1/summary", "/v1/country/US",
                "/v1/as/5", "/v1/link", "/v1/query?as=5", "/v1/query?country=US&link=dsl",
                "/v1/query?country=a%22b", "/v1/query?stationary=x", "/v1/nope",
            ];
            let mut input = Vec::new();
            for _ in 0..1 + rng.below(12) {
                input.extend(match rng.below(8) {
                    0 => get_head(rng),
                    1 => soup(rng),
                    _ => {
                        let (t, e) = (pick(rng, &targets), eol(rng.below(2) == 0));
                        let host = if rng.below(2) == 0 { format!("Host: x{e}") } else { String::new() };
                        format!("GET {t} HTTP/1.1{e}{host}{e}").into_bytes()
                    }
                });
            }
            let state = state();
            let mut sizes = read_sizes(rng);
            if sizes.is_empty() {
                sizes.push(1);
            }
            let whole = serve(&state, &input, &[]);
            prop_assert_eq!(serve(&state, &input, &sizes), whole);
        }
    }
}
