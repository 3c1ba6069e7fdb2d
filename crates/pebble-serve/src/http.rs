//! A deliberately small HTTP/1.1 layer over `std::net` — just enough for the
//! scheduling service (and its CLI client) without external dependencies.
//!
//! One request per connection (`Connection: close` semantics), the request
//! head (request line plus headers) bounded by [`MAX_HEAD`], bodies bounded
//! by a caller-supplied cap, query strings split on `&`/`=` without
//! percent-decoding (every parameter the API accepts is a plain token).

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request head (request line plus headers), in bytes. A
/// larger head is [`HttpError::Malformed`], so neither one long line nor a
/// flood of headers can grow server memory without bound.
pub const MAX_HEAD: usize = 64 << 10;

/// A parsed request: method, path, query parameters and raw body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (e.g. `/v1/schedule`).
    pub path: String,
    /// Query parameters (`?r=16&deadline_ms=250`), last occurrence wins.
    pub query: HashMap<String, String>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The request line or headers are not parseable HTTP/1.x.
    Malformed(String),
    /// `Content-Length` exceeds the server's body cap.
    BodyTooLarge {
        /// Declared content length.
        declared: usize,
        /// The server's cap.
        limit: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte limit")
            }
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn parse_query(raw: &str) -> HashMap<String, String> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (p.to_string(), String::new()),
        })
        .collect()
}

/// Read one line of the request head from `head`, which holds what is left
/// of the [`MAX_HEAD`] budget. Returns the bytes read (0 at end of stream).
fn read_head_line(head: &mut Take<impl BufRead>, line: &mut String) -> Result<usize, HttpError> {
    let n = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(HttpError::Malformed(format!(
            "request head exceeds {MAX_HEAD} bytes"
        )));
    }
    Ok(n)
}

/// Read one request from `stream`. A head larger than [`MAX_HEAD`] is
/// rejected as malformed, and a body larger than `max_body` is rejected
/// without being read.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD as u64);
    let mut line = String::new();
    read_head_line(&mut head, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no target".into()))?;
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::Malformed("not an HTTP/1.x request".into()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), HashMap::new()),
    };

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if read_head_line(&mut head, &mut header)? == 0 {
            return Err(HttpError::Malformed("connection closed mid-headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
            }
        }
    }
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Write a complete response (status line, minimal headers, body) and flush.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A minimal client: send one request to `addr`, return `(status, body)`.
/// `path_and_query` includes the leading slash and any query string.
pub fn client_request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    timeout: Duration,
) -> Result<(u16, Vec<u8>), HttpError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        // The server accepted and closed without answering (e.g. it is
        // still starting up). Surface this as an I/O error so the retry
        // wrapper treats it as transient, not as a protocol violation.
        return Err(HttpError::Io(std::io::Error::from(
            std::io::ErrorKind::UnexpectedEof,
        )));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line `{status_line}`")))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(HttpError::Malformed("connection closed mid-headers".into()));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok((status, body))
}

/// A deterministic exponential backoff schedule: the delay after attempt
/// `n` (0-based) is `min(base << n, cap)`. No jitter — retry timing stays
/// reproducible in tests and scripted runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay after the first failed attempt.
    pub base: Duration,
    /// Upper bound on any single delay (the schedule plateaus here).
    pub cap: Duration,
}

impl Backoff {
    /// A backoff doubling from `base` up to `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap }
    }

    /// The delay to sleep after failed attempt `attempt` (0-based).
    /// Saturates at `cap`; never overflows for any attempt number.
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.saturating_mul(factor).min(self.cap)
    }
}

/// [`client_request`] with retries under an exponential [`Backoff`]:
/// tolerates a server that is still binding its listener (the CI smoke test
/// starts the server and the client back-to-back). Only transient
/// [`HttpError::Io`] failures are retried; protocol errors fail immediately.
pub fn client_request_with_retries(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    timeout: Duration,
    retries: usize,
    backoff: Backoff,
) -> Result<(u16, Vec<u8>), HttpError> {
    let mut last = None;
    for attempt in 0..retries.max(1) {
        match client_request(addr, method, path_and_query, body, timeout) {
            Ok(ok) => return Ok(ok),
            Err(HttpError::Io(e)) if attempt + 1 < retries.max(1) => {
                last = Some(HttpError::Io(e));
                std::thread::sleep(backoff.delay(attempt as u32));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| HttpError::Malformed("no attempts made".into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_doubles_then_plateaus_at_the_cap() {
        let b = Backoff::new(Duration::from_millis(10), Duration::from_millis(80));
        let delays: Vec<u64> = (0..6).map(|n| b.delay(n).as_millis() as u64).collect();
        assert_eq!(delays, [10, 20, 40, 80, 80, 80]);
        // Huge attempt numbers saturate instead of overflowing the shift.
        assert_eq!(b.delay(u32::MAX), Duration::from_millis(80));
    }

    #[test]
    fn retries_until_the_listener_finally_answers() {
        // A fake server that accepts-and-drops the first two connections
        // (the client sees an I/O error) and answers the third.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for accepted in 1..=3 {
                let (mut stream, _) = listener.accept().unwrap();
                if accepted < 3 {
                    drop(stream); // close without answering: transient failure
                    continue;
                }
                let _ = read_request(&mut stream, 1 << 20).unwrap();
                write_response(&mut stream, 200, "OK", "application/json", b"{}").unwrap();
            }
        });
        let (status, body) = client_request_with_retries(
            &addr,
            "GET",
            "/healthz",
            b"",
            Duration::from_secs(5),
            5,
            Backoff::new(Duration::from_millis(1), Duration::from_millis(4)),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{}");
        server.join().unwrap();
    }

    #[test]
    fn malformed_responses_are_not_retried() {
        // A server that answers garbage: the client must fail immediately
        // with `Malformed`, not burn through its retry budget.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_request(&mut stream, 1 << 20).unwrap();
            use std::io::Write;
            stream.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        });
        let err = client_request_with_retries(
            &addr,
            "GET",
            "/healthz",
            b"",
            Duration::from_secs(5),
            5,
            Backoff::new(Duration::from_millis(1), Duration::from_millis(1)),
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        server.join().unwrap();
    }
}
