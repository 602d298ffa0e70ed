//! Minimal HTTP/1.1 request/response handling on `std::net`, shared by
//! sa-serve and `sa_bench::serve::MetricsServer`.
//!
//! The head is read until `\r\n\r\n` (with a size cap), then
//! `Content-Length` more bytes of body. One request per connection,
//! `Connection: close` — the clients here are `curl`, a Prometheus
//! scraper, and the polling job client, none of which need keep-alive.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Request heads larger than this are rejected outright.
const MAX_HEAD: usize = 8 * 1024;
/// Bodies larger than this return 413 — a litmus program is a few
/// hundred bytes; nothing legitimate approaches the cap.
pub const MAX_BODY: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path component of the request target (no query handling).
    pub path: String,
    /// Raw body bytes (empty for bodyless requests).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed, mapped to the status it earns.
#[derive(Debug, PartialEq, Eq)]
pub enum BadRequest {
    /// Malformed head or oversized head.
    Malformed,
    /// Body exceeds [`MAX_BODY`].
    TooLarge,
}

impl BadRequest {
    /// The HTTP status line for this rejection.
    pub fn status(&self) -> &'static str {
        match self {
            BadRequest::Malformed => "400 Bad Request",
            BadRequest::TooLarge => "413 Payload Too Large",
        }
    }
}

/// Reads one request (head + `Content-Length` body) off the stream.
/// The outer `Err` is an I/O failure (drop the connection); the inner
/// `Err` is a protocol failure (answer with its status).
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<Request, BadRequest>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        if buf.len() > MAX_HEAD {
            return Ok(Err(BadRequest::Malformed));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Err(BadRequest::Malformed));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    let (Some(method), Some(path)) = (first.next(), first.next()) else {
        return Ok(Err(BadRequest::Malformed));
    };
    let content_length = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Ok(Err(BadRequest::TooLarge));
    }
    let mut body: Vec<u8> = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Err(BadRequest::Malformed));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    }))
}

/// Writes one complete response and flushes.
pub fn respond(
    stream: &mut TcpStream,
    status: &str,
    ctype: &str,
    body: &str,
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn round_trip(raw: &[u8]) -> Result<Request, BadRequest> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Hold the connection open until the server has parsed.
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream).unwrap();
        let _ = respond(&mut stream, "200 OK", "text/plain", "ok");
        drop(stream);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_get_without_body() {
        let r = round_trip(b"GET /jobs/7 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/jobs/7");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let body = b"{\"kind\":\"litmus\"}";
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            String::from_utf8_lossy(body)
        );
        let r = round_trip(raw.as_bytes()).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/jobs");
        assert_eq!(r.body, body);
    }

    #[test]
    fn rejects_oversized_bodies_with_413() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let e = round_trip(raw.as_bytes()).unwrap_err();
        assert_eq!(e, BadRequest::TooLarge);
        assert_eq!(e.status(), "413 Payload Too Large");
    }

    #[test]
    fn rejects_garbage_head() {
        let e = round_trip(b"\r\n\r\n").unwrap_err();
        assert_eq!(e, BadRequest::Malformed);
    }
}
