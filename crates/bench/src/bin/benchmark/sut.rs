//! The system under test: the HTTP service, started either as a child
//! process of this binary (`benchmark --serve WORKLOAD`, so the load
//! generator's memory and CPU stay out of the server's numbers) or, for
//! the smoke test, in-process through the same [`serve`] entry.

use crate::workloads::{Kind, ServeKnobs};
use ensemfdet_service::{Api, Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};

/// HTTP worker threads: the generator never holds more than two
/// connections open.
const HTTP_WORKERS: usize = 2;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Starts the service for `kind` on an ephemeral localhost port.
///
/// # Errors
///
/// Bind failures.
pub fn serve(kind: Kind, knobs: ServeKnobs) -> std::io::Result<ServerHandle> {
    let server = Server::bind_with(
        "127.0.0.1:0",
        Api::new(kind.api_config(knobs)),
        ServerConfig {
            workers: HTTP_WORKERS,
            ..Default::default()
        },
    )?;
    server.start()
}

/// Child-process entry: serve until standard input closes, then shut
/// down gracefully. The first line on standard output is the bound port.
pub fn serve_child(kind: Kind, knobs: ServeKnobs) -> std::io::Result<()> {
    let handle = serve(kind, knobs)?;
    println!("port {}", handle.addr().port());
    std::io::stdout().flush()?;
    let mut sink = Vec::new();
    // EOF (or any read error) means the generator is done with us.
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    Ok(())
}

/// A running service plus how to read its resource usage.
pub enum Sut {
    /// A `benchmark --serve` child process.
    Child {
        /// The process; killed and reaped on drop if still running.
        child: Child,
        /// Closing it tells the child to exit.
        stdin: Option<ChildStdin>,
        /// Where it listens.
        addr: SocketAddr,
    },
    /// An in-process server (smoke test); resource figures then include
    /// the generator.
    InProcess(Option<ServerHandle>),
}

impl Sut {
    /// Starts the service for `kind`: a child process normally, in-process
    /// for smoke runs.
    ///
    /// # Errors
    ///
    /// Spawn, bind, or handshake failures.
    pub fn start(kind: Kind, smoke: bool, knobs: ServeKnobs) -> Result<Sut, String> {
        if smoke {
            return serve(kind, knobs)
                .map(|h| Sut::InProcess(Some(h)))
                .map_err(|e| format!("bind: {e}"));
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["--serve", kind.name()])
            .args(["--scan-interval", &knobs.scan_interval.to_string()])
            .args(["--min-transactions", &knobs.min_transactions.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let port = line
            .trim()
            .strip_prefix("port ")
            .and_then(|p| p.parse::<u16>().ok());
        let mut sut = Sut::Child {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], port.unwrap_or(0))),
        };
        match (read, port) {
            (Ok(_), Some(_)) => Ok(sut),
            _ => {
                sut.stop();
                Err(format!("server handshake failed: {line:?}"))
            }
        }
    }

    /// Where the service listens.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Sut::Child { addr, .. } => *addr,
            Sut::InProcess(h) => h.as_ref().expect("running server").addr(),
        }
    }

    fn proc_dir(&self) -> String {
        match self {
            Sut::Child { child, .. } => format!("/proc/{}", child.id()),
            Sut::InProcess(_) => "/proc/self".into(),
        }
    }

    /// User plus system CPU seconds the server has used so far.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("{}/stat", self.proc_dir())).ok()?;
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / USER_HZ)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("{}/status", self.proc_dir())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// Stops the service and waits until it has exited.
    pub fn stop(&mut self) {
        match self {
            Sut::Child { child, stdin, .. } => {
                // Closing stdin asks for a graceful exit; kill if that
                // fails to end it.
                drop(stdin.take());
                for _ in 0..500 {
                    if let Ok(Some(_)) = child.try_wait() {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            Sut::InProcess(h) => {
                if let Some(h) = h.take() {
                    h.shutdown();
                }
            }
        }
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        self.stop();
    }
}
