//! A minimal blocking HTTP/1.1 client for the integration tests.
//!
//! Two exchange shapes, both sending `"METHOD /target"` plus a JSON body:
//! [`request`] opens a fresh `Connection: close` connection and reads
//! the reply to EOF; [`keep_alive`] writes on an already-open connection
//! and reads exactly one `Content-Length`-framed reply, leaving the
//! connection usable for the next request. [`metric`] reads one sample
//! off a `/metrics` page.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Read and write timeout of every client connection.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Longest response head [`keep_alive`] reads before giving up.
const MAX_HEAD: usize = 16 * 1024;

/// One reply: status, the `Retry-After` seconds if the server sent the
/// header, and the body.
pub type Reply = (u16, Option<u64>, Vec<u8>);

/// Connects to `addr` with the client's read and write timeouts set.
///
/// # Errors
///
/// The connect or timeout-setup failure, as a message.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("timeout setup: {e}"))?;
    Ok(stream)
}

/// One exchange on a fresh connection: `line` is `"METHOD /target"`.
///
/// # Errors
///
/// A transport failure or a reply without a parseable head.
pub fn request(addr: SocketAddr, line: &str, body: &str) -> Result<Reply, String> {
    let mut stream = connect(addr)?;
    send(&mut stream, line, body, true)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("recv: {e}"))?;
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("no header terminator in {} bytes", raw.len()))?;
    let (status, retry_after, _) = parse_head(&raw[..end])?;
    Ok((status, retry_after, raw[end + 4..].to_vec()))
}

/// One exchange on an open keep-alive connection: `line` is
/// `"METHOD /target"`; reads exactly one `Content-Length`-framed reply.
///
/// # Errors
///
/// A transport failure, a close before the reply ends, or a reply head
/// that is unparseable or longer than 16 KiB.
pub fn keep_alive(stream: &mut TcpStream, line: &str, body: &str) -> Result<Reply, String> {
    send(stream, line, body, false)?;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(0) => return Err("connection closed mid-header".to_string()),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(format!("recv: {e}")),
        }
        if head.len() > MAX_HEAD {
            return Err("response header too large".to_string());
        }
    }
    let (status, retry_after, length) = parse_head(&head)?;
    let mut reply = vec![0u8; length];
    stream.read_exact(&mut reply).map_err(|e| format!("body: {e}"))?;
    Ok((status, retry_after, reply))
}

/// The `/metrics` page of the server at `addr`; empty when the scrape
/// fails, so every [`metric`] lookup on it reads `None`.
#[must_use]
pub fn scrape(addr: SocketAddr) -> String {
    request(addr, "GET /metrics", "")
        .map(|(_, _, body)| String::from_utf8_lossy(&body).into_owned())
        .unwrap_or_default()
}

/// One sample's value by its full name (label set included, if any)
/// from a Prometheus text page; fractional values are truncated.
#[must_use]
pub fn metric(page: &str, name: &str) -> Option<u64> {
    let value = page.lines().find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))?
        [name.len()..]
        .trim();
    value.parse().ok().or_else(|| value.parse::<f64>().ok().map(|v| v as u64))
}

fn send(stream: &mut TcpStream, line: &str, body: &str, close: bool) -> Result<(), String> {
    let head = format!(
        "{line} HTTP/1.1\r\nHost: tlm\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{}\r\n",
        body.len(),
        if close { "Connection: close\r\n" } else { "" }
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))
}

/// Status, `Retry-After` and `Content-Length` (0 when absent) of a
/// response head without its blank line.
fn parse_head(head: &[u8]) -> Result<(u16, Option<u64>, usize), String> {
    let text = std::str::from_utf8(head).map_err(|e| format!("head: {e}"))?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {text}"))?;
    let header = |wanted: &str| {
        text.lines().find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case(wanted).then(|| value.trim().to_string())
        })
    };
    let retry_after = header("retry-after").and_then(|v| v.parse().ok());
    let length = header("content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
    Ok((status, retry_after, length))
}
