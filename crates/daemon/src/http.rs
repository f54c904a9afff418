//! A hand-rolled HTTP/1.1 endpoint over [`TcpListener`] — no async
//! runtime, no external deps, serial request handling.
//!
//! Routes:
//!
//! | Method | Path          | Body                                         |
//! |--------|---------------|----------------------------------------------|
//! | GET    | `/metrics`    | Prometheus exposition of the daemon registry |
//! | GET    | `/healthz`    | `{"status":"ok","round":…,"nodes":…}`        |
//! | GET    | `/membership` | JSON [`MembershipSnapshot`]                  |
//! | GET    | `/journal`    | JSONL event journal (violations included)    |
//! | POST   | `/ctl/join?n=K`  | joins `K` nodes via the Section 5 rule    |
//! | POST   | `/ctl/leave?n=K` | removes `K` random nodes                  |
//! | POST   | `/ctl/fault`  | body = `none` or `phase <rounds> <model> <args...>` ([fault grammar]) |
//!
//! Control routes forward to the event loop over the daemon's command
//! channel and block (with a timeout) for the reply, so a `200` means the
//! command was *applied*, not merely enqueued. Serial handling is fine for
//! the intended clients — a scrape loop and the soak harness.
//!
//! [`MembershipSnapshot`]: crate::service::MembershipSnapshot
//! [fault grammar]: sandf_sim::fault

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sandf_obs::{EventJournal, MetricsRegistry};

use crate::service::{Control, MembershipSnapshot};

/// Everything the HTTP thread needs, shared with the event loop.
#[derive(Clone)]
pub(crate) struct HttpContext {
    pub registry: MetricsRegistry,
    pub journal: EventJournal,
    pub snapshot: Arc<Mutex<MembershipSnapshot>>,
    pub ctl: Sender<Control>,
    pub shutdown: Arc<AtomicBool>,
}

const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Binds `127.0.0.1:port` and serves requests until shutdown. Returns the
/// bound address and the server thread handle.
pub(crate) fn serve(
    port: u16,
    ctx: HttpContext,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let handle = std::thread::Builder::new()
        .name("sandf-daemon-http".into())
        .spawn(move || accept_loop(&listener, &ctx))
        .expect("spawning the http thread");
    Ok((addr, handle))
}

fn accept_loop(listener: &TcpListener, ctx: &HttpContext) {
    while !ctx.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Errors on one connection must not take the server down.
                let _ = handle_connection(stream, ctx);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, ctx: &HttpContext) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2000)))?;
    let request = read_request(&mut stream)?;
    let (status, content_type, body) = route(&request, ctx);
    write_response(&mut stream, status, content_type, &body)
}

struct Request {
    method: String,
    path: String,
    query: String,
    body: String,
}

fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    // Read the head (request line + headers) byte-wise-ish until CRLFCRLF,
    // then exactly Content-Length body bytes.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    let body_start;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "closed mid-request"));
        }
        head.extend_from_slice(&buf[..n]);
        if let Some(pos) = find_header_end(&head) {
            body_start = pos;
            break;
        }
        if head.len() > 64 * 1024 {
            return Err(std::io::Error::new(ErrorKind::InvalidData, "oversized request head"));
        }
    }
    let head_text = String::from_utf8_lossy(&head[..body_start]).into_owned();
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0)
        .min(64 * 1024);

    let mut body_bytes = head[body_start + 4..].to_vec();
    while body_bytes.len() < content_length {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        body_bytes.extend_from_slice(&buf[..n]);
    }
    body_bytes.truncate(content_length);
    Ok(Request { method, path, query, body: String::from_utf8_lossy(&body_bytes).into_owned() })
}

fn find_header_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn query_count(query: &str) -> Result<usize, String> {
    for pair in query.split('&') {
        if let Some((k, v)) = pair.split_once('=') {
            if k == "n" {
                return v.parse::<usize>().map_err(|_| format!("bad count {v:?}"));
            }
        }
    }
    Err("missing ?n=<count>".into())
}

type Response = (u16, &'static str, String);

fn json_error(status: u16, message: &str) -> Response {
    (status, "application/json", format!("{{\"error\":\"{}\"}}", escape_json(message)))
}

/// Escapes a string for embedding in a JSON value.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn control_roundtrip<T: Send + 'static>(
    ctl: &Sender<Control>,
    build: impl FnOnce(Sender<Result<T, String>>) -> Control,
) -> Result<T, Response> {
    let (tx, rx) = channel();
    ctl.send(build(tx)).map_err(|_| json_error(503, "daemon loop is gone"))?;
    match rx.recv_timeout(REPLY_TIMEOUT) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(message)) => Err(json_error(400, &message)),
        Err(_) => Err(json_error(504, "daemon loop did not reply in time")),
    }
}

fn route(request: &Request, ctx: &HttpContext) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => (200, "text/plain; version=0.0.4", ctx.registry.render_prometheus()),
        ("GET", "/healthz") => {
            let snap = ctx.snapshot.lock().clone();
            (
                200,
                "application/json",
                format!("{{\"status\":\"ok\",\"round\":{},\"nodes\":{}}}", snap.round, snap.live),
            )
        }
        ("GET", "/membership") => (200, "application/json", ctx.snapshot.lock().to_json()),
        ("GET", "/journal") => (200, "application/x-ndjson", ctx.journal.to_jsonl()),
        ("POST", "/ctl/join") => match query_count(&request.query) {
            Ok(count) => {
                match control_roundtrip(&ctx.ctl, |reply| Control::Join { count, reply }) {
                    Ok(live) => (
                        200,
                        "application/json",
                        format!("{{\"joined\":{count},\"nodes\":{live}}}"),
                    ),
                    Err(resp) => resp,
                }
            }
            Err(message) => json_error(400, &message),
        },
        ("POST", "/ctl/leave") => match query_count(&request.query) {
            Ok(count) => {
                match control_roundtrip(&ctx.ctl, |reply| Control::Leave { count, reply }) {
                    Ok(live) => {
                        (200, "application/json", format!("{{\"left\":{count},\"nodes\":{live}}}"))
                    }
                    Err(resp) => resp,
                }
            }
            Err(message) => json_error(400, &message),
        },
        ("POST", "/ctl/fault") => {
            let line = request.body.trim().to_string();
            match control_roundtrip(&ctx.ctl, |reply| Control::Fault { line, reply }) {
                Ok(kind) => (200, "application/json", format!("{{\"fault\":\"{kind}\"}}")),
                Err(resp) => resp,
            }
        }
        ("GET", _) | ("POST", _) => json_error(404, "no such route"),
        _ => json_error(405, "method not allowed"),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP/1.1 client request, for the soak harness and
/// smoke tests. Returns `(status, body)`.
///
/// # Errors
///
/// Returns an [`std::io::Error`] on connect/read/write failures or an
/// unparsable response head.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(15)))?;
    stream.set_write_timeout(Some(Duration::from_secs(15)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut parts = text.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or_default();
    let payload = parts.next().unwrap_or_default().to_string();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad response head"))?;
    Ok((status, payload))
}

/// `GET path` against a daemon endpoint.
///
/// # Errors
///
/// See [`http_request`].
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "GET", path, "")
}

/// `POST path` with `body` against a daemon endpoint.
///
/// # Errors
///
/// See [`http_request`].
pub fn http_post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    http_request(addr, "POST", path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn query_count_parses() {
        assert_eq!(query_count("n=128"), Ok(128));
        assert_eq!(query_count("a=1&n=5"), Ok(5));
        assert!(query_count("").is_err());
        assert!(query_count("n=x").is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("plain"), "plain");
    }
}
