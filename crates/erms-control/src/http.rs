//! A minimal HTTP/1.1 layer over `std::net` — no async runtime, no
//! external crates.
//!
//! The server is an acceptor thread plus a bounded pool of worker
//! threads. Accepted connections are handed to workers over an mpsc
//! channel; each worker runs a keep-alive loop (Content-Length framing
//! only — no chunked encoding, which none of our clients produce) and
//! dispatches complete requests to a shared handler. A handler that
//! panics costs its request a 500 and its connection, not the worker.
//! Shutdown is
//! cooperative: a flag is set, the acceptor is unblocked with a
//! self-connect, the channel is dropped, the read half of every live
//! connection is shut so idle workers see EOF, and workers drain.
//!
//! The client half ([`Client`]) is a blocking keep-alive connection used
//! by the CLI, the benches and the loopback integration harness. It
//! reconnects once transparently when the pooled connection was closed
//! under it (idle timeout on the server side).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 32 * 1024 * 1024;
/// How long a worker waits for the next request on an idle keep-alive
/// connection before closing it.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string (`/v1/tenants/a/plan`).
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// Splits the path into non-empty segments: `/v1/tenants/a` →
    /// `["v1", "tenants", "a"]`.
    pub(crate) fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// One HTTP response. Construct through the helpers, which fix the
/// content type.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub(crate) fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub(crate) fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; version=0.0.4",
            body: body.into().into_bytes(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// The request handler shared by all workers.
pub(crate) type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server. Dropping it without calling
/// [`shutdown`](Server::shutdown) aborts the process-exit path less
/// gracefully (threads are detached), so call `shutdown` when done.
pub(crate) struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// One slot per worker: a handle on the connection it is serving, so
    /// [`shutdown`](Server::shutdown) can wake a worker blocked reading an
    /// idle keep-alive connection.
    live: Arc<Vec<Mutex<Option<TcpStream>>>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor plus `workers` worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub(crate) fn bind(addr: &str, workers: usize, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));

        let worker_count = workers.max(1);
        let live: Arc<Vec<Mutex<Option<TcpStream>>>> =
            Arc::new((0..worker_count).map(|_| Mutex::new(None)).collect());
        let mut pool = Vec::with_capacity(worker_count);
        for slot in 0..worker_count {
            let live = Arc::clone(&live);
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            pool.push(std::thread::spawn(move || loop {
                // Holding the lock only while receiving keeps the pool
                // work-stealing: whichever worker is free picks up the
                // next connection.
                let conn = { rx.lock().expect("worker queue poisoned").recv() };
                match conn {
                    Ok(stream) => {
                        // Registered before `serve_connection` first reads
                        // `stop`: shutdown either finds the handle here or
                        // the worker finds the flag set.
                        *live[slot].lock().expect("live slot poisoned") = stream.try_clone().ok();
                        serve_connection(stream, &handler, &stop);
                        *live[slot].lock().expect("live slot poisoned") = None;
                    }
                    Err(_) => return, // channel closed: shutdown
                }
            }));
        }

        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // If every worker exited (shutdown race), sending
                        // fails and the connection is simply dropped.
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
                // tx drops here; workers drain the queue and exit.
            })
        };

        Ok(Self {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers: pool,
            live,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag [`shutdown`](Server::shutdown) sets first, for a test to
    /// see that shutdown has begun.
    #[cfg(test)]
    pub(crate) fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Stops accepting, drains the workers and joins every thread.
    /// In-flight requests complete; idle keep-alive connections close.
    pub(crate) fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept with a throwaway
        // connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Only the read half: a worker blocked on an idle connection sees
        // EOF and returns, one inside the handler still writes its reply.
        for slot in self.live.iter() {
            if let Some(conn) = slot.lock().expect("live slot poisoned").as_ref() {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Runs the keep-alive loop of one connection.
fn serve_connection(stream: TcpStream, handler: &Handler, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(KEEP_ALIVE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let peer = stream.try_clone();
    let Ok(write_half) = peer else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let (request, keep_alive) = match read_request(&mut reader) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => return, // clean EOF between requests
            Err(status) => {
                if let Some(status) = status {
                    let body = format!("{{\"error\":{:?}}}", reason(status));
                    let _ = write_response(&mut write_half, &Response::json(status, body), false);
                }
                return;
            }
        };
        // A handler that panics answers its own request with a 500 and
        // closes the connection; the worker lives on to serve the next one.
        let Ok(response) = panic::catch_unwind(AssertUnwindSafe(|| handler(&request))) else {
            let body = "{\"error\":\"internal error: the request's handler panicked\"}";
            let _ = write_response(&mut write_half, &Response::json(500, body), false);
            return;
        };
        let keep_alive = keep_alive && !stop.load(Ordering::SeqCst);
        if write_response(&mut write_half, &response, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Reads one request. `Ok(None)` is a clean EOF before any byte of a new
/// request; `Err(Some(status))` asks the caller to answer with an error
/// status; `Err(None)` means the connection is unusable (timeout, half
/// request).
#[allow(clippy::type_complexity)]
fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Option<(Request, bool)>, Option<u16>> {
    // The head is read through a cap: `read_line` on the socket itself
    // buffers a line of any length before anything can count it.
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 1);
    let mut line = String::new();
    match head.read_line(&mut line) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(_) => return Err(None), // timeout or reset on an idle connection
    }
    if head.limit() == 0 {
        return Err(Some(413));
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(Some(400));
    };
    let version = parts.next().unwrap_or("HTTP/1.1");
    let http11 = version == "HTTP/1.1";

    let mut content_length = 0usize;
    let mut connection_close = !http11;
    loop {
        let mut header = String::new();
        match head.read_line(&mut header) {
            Ok(0) | Err(_) => return Err(None),
            Ok(_) => {}
        }
        if head.limit() == 0 {
            return Err(Some(413));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(Some(400));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| Some(400))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(Some(413));
                }
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    connection_close = true;
                } else if v.contains("keep-alive") {
                    connection_close = false;
                }
            }
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|_| None)?;
    }

    let path = target.split_once('?').map_or(target, |(path, _)| path);
    Ok(Some((
        Request {
            method: method.to_ascii_uppercase(),
            path: path.to_string(),
            body,
        },
        !connection_close,
    )))
}

fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        connection,
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// A blocking keep-alive HTTP/1.1 client for loopback use.
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    /// Resolves `addr` (e.g. `"127.0.0.1:8080"`); the connection itself
    /// is established lazily on the first request.
    ///
    /// # Errors
    ///
    /// Fails when `addr` does not resolve.
    pub fn new(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        Ok(Self { addr, stream: None })
    }

    /// Sends one request and reads the full response. Reuses the pooled
    /// connection; when the server closed it in the meantime, reconnects
    /// and retries once.
    ///
    /// # Errors
    ///
    /// Propagates connection and protocol failures.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let fresh = self.stream.is_none();
        match self.try_request(method, path, body) {
            Ok(result) => Ok(result),
            Err(e) if !fresh => {
                // The pooled connection was stale (server idle-closed it):
                // reconnect once and retry. Requests here are idempotent
                // at-most-once writes from our own harness, so a single
                // transparent retry is safe.
                let _ = e;
                self.stream = None;
                self.try_request(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("just connected");
        let body = body.unwrap_or(&[]);
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: erms-control\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len(),
        );
        {
            let stream = reader.get_mut();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
            stream.flush()?;
        }

        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            self.stream = None;
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;

        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                self.stream = None;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed inside the response head",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        content_length = value.trim().parse().map_err(|_| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                "bad content-length",
                            )
                        })?;
                    }
                    "connection" => {
                        close = value.trim().eq_ignore_ascii_case("close");
                    }
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn echo_server() -> Server {
        let handler: Handler = Arc::new(|req: &Request| {
            let body = format!("{} {} len={}", req.method, req.path, req.body.len());
            Response::text(200, body)
        });
        Server::bind("127.0.0.1:0", 2, handler).expect("bind")
    }

    #[test]
    fn request_response_over_keep_alive() {
        let server = echo_server();
        let mut client = Client::new(server.addr()).unwrap();
        for i in 0..5 {
            let (status, body) = client.request("GET", &format!("/x/{i}?a=1"), None).unwrap();
            assert_eq!(status, 200);
            assert_eq!(
                String::from_utf8(body).unwrap(),
                format!("GET /x/{i} len=0")
            );
        }
        let (status, body) = client.request("POST", "/ingest", Some(b"12345")).unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().ends_with("len=5"));
        server.shutdown();
    }

    #[test]
    fn parallel_clients_are_served() {
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        let handler: Handler = Arc::new(move |_: &Request| {
            counter.fetch_add(1, Ordering::SeqCst);
            Response::text(200, "pong")
        });
        let server = Server::bind("127.0.0.1:0", 2, handler).expect("bind");
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut client = Client::new(addr).unwrap();
                for _ in 0..20 {
                    let (status, _) = client.request("GET", "/ping", None).unwrap();
                    assert_eq!(status, 200);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(served.load(Ordering::SeqCst), 80);
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"garbage\r\n\r\n").unwrap();
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }

    #[test]
    fn oversized_head_gets_413_before_it_is_buffered() {
        let server = echo_server();
        // A megabyte of request line and no newline in sight: the reply has
        // to come after `MAX_HEAD_BYTES` of it, not after the line ends
        // (it never does — the write below may well fail half-way, once
        // the server has answered and hung up).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let _ = stream.write_all(&vec![b'a'; 1 << 20]);
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");

        // Many short header lines add up against the same cap.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
        let _ = stream.write_all("x-filler: 0123456789\r\n".repeat(2_000).as_bytes());
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");

        // A head just under the cap is served.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let padding = "a".repeat(MAX_HEAD_BYTES - 64);
        let head = format!("GET /ok HTTP/1.1\r\nx-filler: {padding}\r\n\r\n");
        assert!(head.len() <= MAX_HEAD_BYTES);
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_port_is_released() {
        let server = echo_server();
        let addr = server.addr();
        let mut client = Client::new(addr).unwrap();
        let _ = client.request("GET", "/", None).unwrap();
        // `client` stays open and idle: shutdown must not wait out its
        // keep-alive timeout.
        let started = std::time::Instant::now();
        server.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "shutdown waited {took:?} on an idle keep-alive connection"
        );
        // After shutdown the listener is gone; either the connection is
        // refused or the accepted socket is dropped without an answer.
        let mut c2 = Client::new(addr).unwrap();
        assert!(c2.request("GET", "/", None).is_err());
    }

    #[test]
    fn shutdown_lets_an_in_flight_request_finish() {
        const REPLY_BYTES: usize = 1 << 20;
        // The handler reports that it is running, then holds its reply
        // until the test has seen shutdown begin.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gates = Mutex::new((entered_tx, release_rx));
        let handler: Handler = Arc::new(move |_req: &Request| {
            let (entered, release) = &*gates.lock().unwrap();
            entered.send(()).unwrap();
            release.recv().unwrap();
            // Not needed for the test to pass: it only makes it likely that
            // the read half is already shut when the reply goes out.
            std::thread::sleep(Duration::from_millis(20));
            Response::text(200, "x".repeat(REPLY_BYTES))
        });
        let server = Server::bind("127.0.0.1:0", 1, handler).expect("bind");
        let addr = server.addr();
        let stop = server.shutdown_flag();
        let client =
            std::thread::spawn(move || Client::new(addr).unwrap().request("GET", "/slow", None));
        entered_rx.recv().expect("handler entered");
        let stopper = std::thread::spawn(move || server.shutdown());
        while !stop.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        let (status, body) = client.join().unwrap().expect("full reply despite shutdown");
        assert_eq!(status, 200);
        assert_eq!(body.len(), REPLY_BYTES);
        stopper.join().unwrap();
    }
}
