//! A minimal hand-rolled HTTP/1.1 layer: exactly what the job API
//! needs, nothing more. One request per connection (`Connection:
//! close`), bodies bounded, no chunked encoding.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Largest accepted request body. Scenario documents are a few KB;
/// anything near this bound is abuse, not a job.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request or header line, terminator included. A
/// client that never sends `\n` gets a 400 here instead of growing the
/// connection thread's buffer without limit.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Headers stop being a request and start being a flood at this count.
const MAX_HEADERS: usize = 64;

/// A parsed request: method, path and the raw body bytes.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/jobs/3/result`.
    pub path: String,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Reads one request off the stream.
///
/// # Errors
///
/// Returns a message describing the malformation; callers answer it
/// with `400 Bad Request`.
pub fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or("request line missing a path")?
        .to_string();
    let version = parts.next().ok_or("request line missing a version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }

    let mut content_length = 0usize;
    for _ in 0..MAX_HEADERS {
        let header = read_line(&mut reader, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            let mut body = vec![0u8; content_length];
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
            return Ok(Request { method, path, body });
        }
        let (name, value) = header
            .split_once(':')
            .ok_or_else(|| format!("malformed header {header:?}"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| format!("bad content-length {:?}", value.trim()))?;
            if content_length > MAX_BODY_BYTES {
                return Err(format!("body of {content_length} bytes exceeds the limit"));
            }
        }
    }
    Err("too many headers".to_string())
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`].
fn read_line(reader: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = String::new();
    reader
        .take(MAX_LINE_BYTES as u64)
        .read_line(&mut line)
        .map_err(|e| format!("read {what}: {e}"))?;
    if line.len() == MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(format!("{what} exceeds {MAX_LINE_BYTES} bytes"));
    }
    Ok(line)
}

/// A response about to be written: status, content type, extra headers
/// (e.g. `Retry-After`) and the body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers appended verbatim.
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with no extra headers.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes the response and flushes; the caller closes the stream.
///
/// # Errors
///
/// Returns the underlying I/O error (the peer usually went away).
pub fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        r.status,
        reason(r.status),
        r.content_type,
        r.body.len()
    );
    for (name, value) in &r.extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&r.body)?;
    stream.flush()
}
