//! A minimal HTTP/1.1 client for the campaign API — what the
//! integration tests drive the server with. Speaks
//! exactly the server's dialect: `Connection: close`, fixed-length
//! bodies, and `Transfer-Encoding: chunked` NDJSON streams.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response: status code and (fully read) body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u32,
    /// The response body (chunked transfer already decoded).
    pub body: String,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(600)));
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(), String> {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: flame\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send {method} {path}: {e}"))
}

/// Reads the status line and headers; returns (status, is_chunked).
fn read_head(reader: &mut BufReader<TcpStream>) -> Result<(u32, bool), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let mut chunked = false;
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
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
            {
                chunked = true;
            }
        }
    }
    Ok((status, chunked))
}

fn read_chunked(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut out = String::new();
    loop {
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| format!("read chunk size: {e}"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            let mut crlf = String::new();
            let _ = reader.read_line(&mut crlf);
            return Ok(out);
        }
        let mut chunk = vec![0u8; size + 2]; // payload + trailing CRLF
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("read chunk: {e}"))?;
        chunk.truncate(size);
        out.push_str(&String::from_utf8(chunk).map_err(|_| "chunk is not UTF-8".to_string())?);
    }
}

fn read_response(stream: TcpStream) -> Result<Response, String> {
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    let body = if chunked {
        read_chunked(&mut reader)?
    } else {
        // Connection: close — the body runs to EOF (the server also
        // sends Content-Length, but EOF framing needs no bookkeeping).
        let mut body = String::new();
        reader
            .read_to_string(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        body
    };
    Ok(Response { status, body })
}

/// `GET path` against `addr` (`host:port`).
///
/// # Errors
///
/// Connection/protocol errors as strings.
pub fn get(addr: &str, path: &str) -> Result<Response, String> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, "GET", path, "")?;
    read_response(stream)
}

/// `POST path` with a JSON body.
///
/// # Errors
///
/// Connection/protocol errors as strings.
pub fn post(addr: &str, path: &str, body: &str) -> Result<Response, String> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, "POST", path, body)?;
    read_response(stream)
}

/// Opens `GET path` (an NDJSON stream), calls `on_line` per line as it
/// arrives, and returns every line once the stream terminates.
///
/// # Errors
///
/// Connection/protocol errors, or a non-200 status with its body.
pub fn stream_ndjson(
    addr: &str,
    path: &str,
    mut on_line: impl FnMut(&str),
) -> Result<Vec<String>, String> {
    let mut stream = connect(addr)?;
    send_request(&mut stream, "GET", path, "")?;
    let mut reader = BufReader::new(stream);
    let (status, chunked) = read_head(&mut reader)?;
    if status != 200 {
        let mut body = String::new();
        let _ = reader.read_to_string(&mut body);
        return Err(format!("stream {path}: status {status}: {}", body.trim()));
    }
    if !chunked {
        return Err(format!("stream {path}: response is not chunked"));
    }
    // Decode chunks incrementally, surfacing complete lines as they
    // land — one chunk is one line by construction, but the client
    // tolerates any split.
    let mut lines = Vec::new();
    let mut pending = String::new();
    loop {
        let mut size_line = String::new();
        reader
            .read_line(&mut size_line)
            .map_err(|e| format!("read chunk size: {e}"))?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            if !pending.is_empty() {
                on_line(&pending);
                lines.push(std::mem::take(&mut pending));
            }
            return Ok(lines);
        }
        let mut chunk = vec![0u8; size + 2];
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("read chunk: {e}"))?;
        chunk.truncate(size);
        pending.push_str(&String::from_utf8(chunk).map_err(|_| "chunk is not UTF-8".to_string())?);
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim_end().to_string();
            if !line.is_empty() {
                on_line(&line);
                lines.push(line);
            }
        }
    }
}
