//! TCP front end: a fixed worker pool over a bounded accept queue.
//!
//! The old shape — one spawned thread per connection, serve forever — had
//! three failure modes this module closes:
//!
//! * **Unbounded concurrency.** A connection flood spawned a thread each;
//!   now `workers` threads drain a queue of at most `queue_capacity`
//!   waiting connections, and anything beyond that is shed immediately
//!   with `503 Service Unavailable` (counted in
//!   `ensemfdet_http_rejected_total`).
//! * **Slow clients held threads forever.** Every accepted socket now gets
//!   a read and a write deadline; a client that stalls mid-request is cut
//!   off with `408 Request Timeout` instead of pinning a worker.
//! * **No shutdown.** `run(self) -> !` leaked the accept loop and every
//!   worker. [`Server::start`] returns a [`ServerHandle`] whose
//!   [`shutdown`](ServerHandle::shutdown) drains queued connections,
//!   stops the accept loop, and joins every thread.
//!
//! A request whose handling panics costs that request a `500 internal`
//! and nothing else: the worker catches the unwind and serves the next
//! connection, where the panic used to end the worker thread for good.

use crate::api::{lock_recover, route_label, Api};
use crate::http::{read_request, write_response, Request, Response};
use ensemfdet_telemetry::ServiceMetrics;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of the TCP front end.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads handling requests.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker; beyond this,
    /// connections are shed with 503.
    pub queue_capacity: usize,
    /// Per-connection read deadline (stalled clients get 408).
    pub read_timeout: Duration,
    /// Per-connection write deadline.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Accept-queue state shared between the accept loop and the workers.
struct PoolState {
    queue: VecDeque<TcpStream>,
    stopping: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    available: Condvar,
}

impl Shared {
    fn signal_stop(&self) {
        lock_recover(&self.state).stopping = true;
        self.available.notify_all();
    }
}

/// A bound, not-yet-running HTTP server.
pub struct Server {
    listener: TcpListener,
    api: Arc<Api>,
    config: ServerConfig,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral test port) with the
    /// default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str, api: Api) -> std::io::Result<Self> {
        Self::bind_with(addr, api, ServerConfig::default())
    }

    /// Binds with explicit tunables.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `queue_capacity == 0`.
    pub fn bind_with(addr: &str, api: Api, config: ServerConfig) -> std::io::Result<Self> {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "need a queue of at least one");
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            api: Arc::new(api),
            config,
        })
    }

    /// The bound address (useful with ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the worker pool and the accept loop on background threads.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let api = Arc::clone(&self.api);
        self.start_with(Arc::new(move |request: &Request| api.handle(request)))
    }

    /// [`Self::start`] with the request handler given: the API's router in
    /// production, a panicking one in the tests.
    fn start_with(self, handler: Arc<Handler>) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                stopping: false,
            }),
            available: Condvar::new(),
        });
        let metrics = self.api.metrics().clone();

        let workers: Vec<JoinHandle<()>> = (0..self.config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let metrics = Arc::clone(&metrics);
                let handler = Arc::clone(&handler);
                let config = self.config;
                std::thread::Builder::new()
                    .name(format!("ensemfdet-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &metrics, &*handler, &config))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let config = self.config;
            std::thread::Builder::new()
                .name("ensemfdet-accept".into())
                .spawn(move || accept_loop(&self.listener, &shared, &metrics, &config))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            addr,
            api: self.api,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// Serves until shut down — which, without a [`ServerHandle`] to call,
    /// means until the process exits. This is the `main` entry point.
    ///
    /// # Errors
    ///
    /// Propagates startup failures.
    pub fn run(self) -> std::io::Result<()> {
        self.start()?.join();
        Ok(())
    }
}

/// A running server: the address it listens on and the threads serving it.
pub struct ServerHandle {
    addr: SocketAddr,
    api: Arc<Api>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service metrics (shared with the [`Api`]).
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.api.metrics()
    }

    /// Blocks until the server stops (another thread calling
    /// [`shutdown`](Self::shutdown), or a fatal accept error).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Graceful shutdown: stop accepting, let workers drain the queue,
    /// join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.signal_stop();
        // The accept loop is parked in `accept()`; poke it awake.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = accept.join();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    metrics: &ServiceMetrics,
    config: &ServerConfig,
) {
    let mut consecutive_errors = 0u32;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                stream
            }
            Err(e) => {
                consecutive_errors += 1;
                if consecutive_errors > 64 {
                    eprintln!("accept loop giving up: {e}");
                    break;
                }
                eprintln!("accept error: {e}");
                continue;
            }
        };
        {
            let mut state = lock_recover(&shared.state);
            if state.stopping {
                break;
            }
            if state.queue.len() >= config.queue_capacity {
                drop(state);
                shed(stream, metrics, config);
                continue;
            }
            state.queue.push_back(stream);
            metrics.queue_depth.set(state.queue.len() as i64);
        }
        shared.available.notify_one();
    }
    // Whatever the exit path, release the workers.
    shared.signal_stop();
}

/// Rejects a connection the queue has no room for: `503` and close. Runs
/// on the accept thread, so the write deadline keeps a non-reading client
/// from stalling accepts.
fn shed(stream: TcpStream, metrics: &ServiceMetrics, config: &ServerConfig) {
    metrics.rejected.inc();
    metrics.requests.inc("shed", 503);
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = write_response(
        &stream,
        &Response::error(503, "at_capacity", "server at capacity, retry later"),
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// What a worker calls to answer a parsed request.
type Handler = dyn Fn(&Request) -> Response + Send + Sync;

fn worker_loop(
    shared: &Shared,
    metrics: &ServiceMetrics,
    handler: &Handler,
    config: &ServerConfig,
) {
    loop {
        let stream = {
            let mut state = lock_recover(&shared.state);
            loop {
                if let Some(s) = state.queue.pop_front() {
                    metrics.queue_depth.set(state.queue.len() as i64);
                    break Some(s);
                }
                if state.stopping {
                    break None;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(stream) = stream else { return };
        metrics.workers_busy.inc();
        handle_connection(&stream, metrics, handler, config);
        metrics.workers_busy.dec();
    }
}

fn handle_connection(
    stream: &TcpStream,
    metrics: &ServiceMetrics,
    handler: &Handler,
    config: &ServerConfig,
) {
    let start = Instant::now();
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let (route, response) = match read_request(stream) {
        // Unwind safety: every lock the API takes recovers from
        // poisoning, so state a panic unwound through stays usable.
        Ok(request) => (
            route_label(&request.path),
            catch_unwind(AssertUnwindSafe(|| handler(&request))).unwrap_or_else(|_| {
                Response::error(500, "internal", "the request handler panicked")
            }),
        ),
        Err(e) => ("invalid", e.to_response()),
    };
    metrics.requests.inc(route, response.status);
    metrics.request_duration.observe_duration(start.elapsed());
    if let Err(e) = write_response(stream, &response) {
        let peer = stream.peer_addr().ok();
        eprintln!("write error to {peer:?}: {e}");
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ApiConfig;
    use ensemfdet::{EnsemFdetConfig, MonitorConfig};
    use std::io::{Read, Write};

    fn quick_api() -> Api {
        Api::new(ApiConfig {
            monitor: MonitorConfig {
                detector: EnsemFdetConfig {
                    num_samples: 6,
                    sample_ratio: 0.5,
                    seed: 2,
                    ..Default::default()
                },
                scan_interval: 1_000_000,
                alert_threshold: 3,
                min_transactions: 0,
            },
            ..Default::default()
        })
    }

    fn spawn_server() -> ServerHandle {
        Server::bind("127.0.0.1:0", quick_api())
            .expect("bind")
            .start()
            .expect("start")
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("recv");
        out
    }

    #[test]
    fn health_over_a_real_socket() {
        let server = spawn_server();
        let resp = roundtrip(server.addr(), "GET /v1/health HTTP/1.1\r\nhost: t\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"status\":\"ok\""));
        server.shutdown();
    }

    #[test]
    fn full_ingest_scan_workflow_over_socket() {
        let server = spawn_server();
        let addr = server.addr();
        // Build a ring + background in one POST.
        let mut records = Vec::new();
        for b in 0..6 {
            for s in 0..4 {
                records.push(format!("[\"bot-{b}\",\"ring-{s}\"]"));
            }
        }
        for p in 0..40 {
            records.push(format!("[\"pin-{p}\",\"store-{}\"]", p % 15));
        }
        let body = format!("{{\"records\":[{}]}}", records.join(","));
        let post = format!(
            "POST /v1/transactions HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let resp = roundtrip(addr, &post);
        assert!(resp.contains("\"ingested\":64"), "{resp}");

        let resp = roundtrip(addr, "POST /v1/scans HTTP/1.1\r\ncontent-length: 0\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 202"), "{resp}");
        let id_at = resp.find("\"job_id\":").expect("job id") + "\"job_id\":".len();
        let job: String = resp[id_at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let resp = loop {
            let resp = roundtrip(addr, &format!("GET /v1/scans/{job} HTTP/1.1\r\n\r\n"));
            if !resp.contains("\"status\":\"queued\"") && !resp.contains("\"status\":\"running\"") {
                break resp;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert!(resp.contains("\"status\":\"done\""), "{resp}");
        assert!(resp.contains("bot-"), "no bot flagged: {resp}");

        let resp = roundtrip(addr, "GET /v1/stats HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"users\":46"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn a_panicking_request_costs_one_500_not_the_worker() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            quick_api(),
            ServerConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .expect("bind");
        let api = Arc::clone(&server.api);
        let server = server
            .start_with(Arc::new(move |request: &Request| {
                assert_ne!(request.path, "/v1/boom", "handler panic");
                api.handle(request)
            }))
            .expect("start");
        let resp = roundtrip(server.addr(), "GET /v1/boom HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        assert!(resp.contains("\"internal\""), "{resp}");
        // The one worker survived and serves the next request.
        let resp = roundtrip(server.addr(), "GET /v1/health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_over_socket() {
        let server = spawn_server();
        let resp = roundtrip(
            server.addr(),
            "POST /v1/transactions HTTP/1.1\r\ncontent-length: 3\r\n\r\nxyz",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = spawn_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || roundtrip(addr, "GET /v1/health HTTP/1.1\r\n\r\n")))
            .collect();
        for h in handles {
            let resp = h.join().expect("thread");
            assert!(resp.starts_with("HTTP/1.1 200"));
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let server = spawn_server();
        let addr = server.addr();
        assert!(roundtrip(addr, "GET /v1/health HTTP/1.1\r\n\r\n").contains("200"));
        server.shutdown();
        // The listener is gone: a rebind on the exact address succeeds.
        let rebound = TcpListener::bind(addr).expect("port released after shutdown");
        drop(rebound);
    }

    #[test]
    fn stalled_client_is_timed_out_not_leaked() {
        let api = quick_api();
        let server = Server::bind_with(
            "127.0.0.1:0",
            api,
            ServerConfig {
                read_timeout: Duration::from_millis(100),
                ..Default::default()
            },
        )
        .expect("bind")
        .start()
        .expect("start");

        // Open a connection, send half a request, then stall.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"POST /v1/scans HTTP/1.1\r\ncontent-length: 100\r\n\r\npartial")
            .expect("send");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("recv");
        assert!(out.starts_with("HTTP/1.1 408 Request Timeout"), "{out}");

        // The worker is free again: a normal request still succeeds.
        let resp = roundtrip(server.addr(), "GET /v1/health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn endless_headers_get_431_over_socket() {
        let server = spawn_server();
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(b"GET /v1/health HTTP/1.1\r\n").expect("send");
        // Stream junk headers until the server cuts us off.
        let mut out = String::new();
        loop {
            if stream.write_all(b"x-junk: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n").is_err() {
                break;
            }
            stream.flush().ok();
            let mut probe = [0u8; 1024];
            stream.set_read_timeout(Some(Duration::from_millis(5))).ok();
            match stream.read(&mut probe) {
                Ok(0) => break,
                Ok(n) => {
                    out.push_str(&String::from_utf8_lossy(&probe[..n]));
                    if out.contains("\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        assert!(out.starts_with("HTTP/1.1 431"), "{out}");
        server.shutdown();
    }

    #[test]
    fn saturated_pool_sheds_with_503() {
        // One worker, queue of one: a stalled connection occupies the
        // worker, a second waits, a third must be shed.
        let server = Server::bind_with(
            "127.0.0.1:0",
            quick_api(),
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                read_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        )
        .expect("bind")
        .start()
        .expect("start");
        let addr = server.addr();
        let metrics = Arc::clone(server.metrics());

        // Occupy the worker with a half-sent request.
        let mut occupier = TcpStream::connect(addr).expect("connect occupier");
        occupier.write_all(b"GET /v1/health").expect("send partial");
        let t0 = Instant::now();
        while metrics.workers_busy.get() < 1 {
            assert!(t0.elapsed() < Duration::from_secs(5), "worker never picked up");
            std::thread::yield_now();
        }

        // Fill the queue with a second idle connection.
        let waiter = TcpStream::connect(addr).expect("connect waiter");
        while metrics.queue_depth.get() < 1 {
            assert!(t0.elapsed() < Duration::from_secs(5), "queue never filled");
            std::thread::yield_now();
        }

        // The next connection is over capacity: shed, fast, no hang.
        let resp = roundtrip(addr, "GET /v1/health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 503 Service Unavailable"), "{resp}");
        assert!(metrics.rejected.get() >= 1);

        // Release the worker; the waiter gets served.
        occupier.write_all(b" HTTP/1.1\r\n\r\n").expect("finish request");
        let mut out = String::new();
        occupier.read_to_string(&mut out).expect("occupier response");
        assert!(out.starts_with("HTTP/1.1 200"), "{out}");
        drop(waiter);
        server.shutdown();
    }
}
