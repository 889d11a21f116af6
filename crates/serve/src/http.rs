//! A hand-rolled HTTP/1.1 layer: just enough protocol for the campaign
//! API — request-line + header parsing with `Content-Length` bodies on
//! the way in, fixed-length or chunked (NDJSON streaming) responses on
//! the way out. Every connection is `Connection: close`: the API's
//! requests are either one-shot or a single long-lived stream, so
//! keep-alive would buy nothing and cost state.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body; campaign specs are well under 1 KiB.
const MAX_BODY: usize = 1 << 20;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// Reads one request off `stream`.
///
/// # Errors
///
/// A short message suitable for a 400 response: malformed request line,
/// oversized or truncated body, non-UTF-8 body.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    // A stalled or byte-dribbling client must not pin a handler thread
    // forever; the API's clients send requests in one piece.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or("empty request line")?
        .to_ascii_uppercase();
    let target = parts.next().ok_or("request line missing target")?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        reader
            .read_line(&mut h)
            .map_err(|e| format!("read header: {e}"))?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(Request {
        method,
        path,
        body: String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?,
    })
}

/// Writes a complete fixed-length response and flushes it.
pub fn respond(stream: &mut TcpStream, status: u32, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Convenience: a JSON error body `{"error": "..."}`.
pub fn respond_error(stream: &mut TcpStream, status: u32, msg: &str) {
    let body = format!("{{\"error\":{}}}\n", flame_trace::json::json_escape(msg));
    respond(stream, status, "application/json", &body);
}

/// A `Transfer-Encoding: chunked` response writer: each NDJSON line is
/// one chunk, flushed immediately so clients observe partial histograms
/// the moment they are computed, not when a buffer happens to fill.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    closed: bool,
}

impl<'a> ChunkedWriter<'a> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (client gone).
    pub fn begin(
        stream: &'a mut TcpStream,
        content_type: &str,
    ) -> std::io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter {
            stream,
            closed: false,
        })
    }

    /// Sends `line` (a newline is appended) as one chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket errors — the caller stops streaming when the
    /// client hangs up.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let payload = format!("{line}\n");
        let chunk = format!("{:x}\r\n{payload}\r\n", payload.len());
        self.stream.write_all(chunk.as_bytes())?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.closed = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl Drop for ChunkedWriter<'_> {
    fn drop(&mut self) {
        if !self.closed {
            let _ = self.stream.write_all(b"0\r\n\r\n");
            let _ = self.stream.flush();
        }
    }
}
