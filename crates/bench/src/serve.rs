//! Live scrape endpoint for the long-running binaries.
//!
//! A zero-dependency HTTP server on `std::net::TcpListener`: the bench
//! binary publishes its latest metrics snapshot into shared state and a
//! detached acceptor thread serves it to anything that connects —
//! `curl`, a Prometheus scraper, or a browser. Three routes:
//!
//! | path         | content type            | body |
//! |--------------|-------------------------|------|
//! | `/metrics`   | `text/plain; version=0.0.4` | Prometheus exposition text |
//! | `/forensics` | `application/json`      | latest forensics summary JSON |
//! | `/profile`   | `application/json`      | latest host wall-time profile tree |
//! | `/`          | `text/plain`            | index listing the ones above |
//!
//! The server holds only the rendered strings (bounded memory, no
//! history), is updated from worker threads mid-sweep via
//! [`MetricsServer::set_prometheus`] / [`MetricsServer::set_forensics`]
//! / [`MetricsServer::set_profile`], and dies with the process —
//! requests are served one at a time, which is plenty for a scrape
//! interval measured in seconds.

use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

use sa_serve::http::{read_request, respond};

/// Shared snapshot the acceptor thread reads and the bench loop writes.
#[derive(Default)]
struct ServeState {
    prometheus: String,
    forensics: String,
    profile: String,
}

/// Handle to a running scrape endpoint. Clone-free: wrap in `Arc` to
/// update from parallel workers (all methods take `&self`).
pub struct MetricsServer {
    state: Arc<Mutex<ServeState>>,
    port: u16,
}

impl MetricsServer {
    /// Binds `127.0.0.1:port` (0 picks a free port) and spawns the
    /// acceptor thread. The thread is detached; it lives until the
    /// process exits.
    pub fn start(port: u16) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let state = Arc::new(Mutex::new(ServeState::default()));
        let thread_state = Arc::clone(&state);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // A scraper that wedges mid-request must not wedge the
                // endpoint forever.
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
                let _ = handle(stream, &thread_state);
            }
        });
        Ok(MetricsServer { state, port })
    }

    /// The bound port (useful when started with port 0).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Replaces the Prometheus exposition snapshot served at `/metrics`.
    pub fn set_prometheus(&self, text: String) {
        self.state.lock().expect("serve state").prometheus = text;
    }

    /// Replaces the forensics JSON snapshot served at `/forensics`.
    pub fn set_forensics(&self, json: String) {
        self.state.lock().expect("serve state").forensics = json;
    }

    /// Replaces the host wall-time profile JSON served at `/profile`.
    pub fn set_profile(&self, json: String) {
        self.state.lock().expect("serve state").profile = json;
    }
}

/// Reads one request, routes it, writes one response, closes.
fn handle(mut stream: TcpStream, state: &Mutex<ServeState>) -> std::io::Result<()> {
    let req = match read_request(&mut stream)? {
        Ok(req) => req,
        Err(bad) => return respond(&mut stream, bad.status(), "text/plain", "bad request\n"),
    };
    let (status, ctype, body) = match req.path.as_str() {
        "/metrics" => {
            let s = state.lock().expect("serve state");
            (
                "200 OK",
                "text/plain; version=0.0.4",
                s.prometheus.clone(),
            )
        }
        "/forensics" => {
            let s = state.lock().expect("serve state");
            if s.forensics.is_empty() {
                (
                    "200 OK",
                    "application/json",
                    "{\"status\":\"no forensics snapshot yet\"}".to_string(),
                )
            } else {
                ("200 OK", "application/json", s.forensics.clone())
            }
        }
        "/profile" => {
            let s = state.lock().expect("serve state");
            if s.profile.is_empty() {
                (
                    "200 OK",
                    "application/json",
                    "{\"status\":\"no profile snapshot yet\"}".to_string(),
                )
            } else {
                ("200 OK", "application/json", s.profile.clone())
            }
        }
        "/" => (
            "200 OK",
            "text/plain",
            "sa-bench live endpoint\n  /metrics    Prometheus exposition\n  /forensics  forensics summary JSON\n  /profile    host wall-time profile tree JSON\n"
                .to_string(),
        ),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    respond(&mut stream, status, ctype, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn get(port: u16, path: &str) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_metrics_and_forensics_snapshots() {
        let srv = MetricsServer::start(0).expect("bind");
        srv.set_prometheus("sa_test_metric 42\n".to_string());
        srv.set_forensics("{\"schema\":\"sa-forensics-v1\"}".to_string());

        let m = get(srv.port(), "/metrics");
        assert!(m.starts_with("HTTP/1.1 200 OK"), "{m}");
        assert!(m.contains("text/plain"), "{m}");
        assert!(m.contains("sa_test_metric 42"), "{m}");

        let f = get(srv.port(), "/forensics");
        assert!(f.contains("application/json"), "{f}");
        assert!(f.contains("sa-forensics-v1"), "{f}");

        srv.set_profile("{\"total_ns\":7,\"roots\":[]}".to_string());
        let p = get(srv.port(), "/profile");
        assert!(p.contains("application/json"), "{p}");
        assert!(p.contains("\"total_ns\":7"), "{p}");
    }

    #[test]
    fn index_and_missing_routes() {
        let srv = MetricsServer::start(0).expect("bind");
        let idx = get(srv.port(), "/");
        assert!(idx.contains("/metrics"), "{idx}");
        let miss = get(srv.port(), "/nope");
        assert!(miss.starts_with("HTTP/1.1 404"), "{miss}");
    }

    #[test]
    fn empty_forensics_snapshot_is_valid_json_stub() {
        let srv = MetricsServer::start(0).expect("bind");
        let f = get(srv.port(), "/forensics");
        assert!(f.contains("no forensics snapshot yet"), "{f}");
    }

    #[test]
    fn updates_replace_previous_snapshot() {
        let srv = MetricsServer::start(0).expect("bind");
        srv.set_prometheus("gen 1\n".to_string());
        srv.set_prometheus("gen 2\n".to_string());
        let m = get(srv.port(), "/metrics");
        assert!(m.contains("gen 2"), "{m}");
        assert!(!m.contains("gen 1"), "{m}");
    }
}
