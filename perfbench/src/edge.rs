//! The `serve` process under test and a minimal keep-alive client.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::workload::Workload;

/// Worker threads the edge runs with; the batch pool keeps its default.
pub const WORKERS: usize = 2;

/// A running `serve` child.
pub struct Edge {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Edge {
    /// Starts the edge for `workload` and waits for its first 200 on
    /// `/healthz`. Returns it with the time from spawn to that 200.
    pub fn start(
        bin: &Path,
        workload: &Workload,
        wal_dir: Option<&Path>,
    ) -> Result<(Edge, f64), String> {
        let w = workload.world;
        let mut cmd = Command::new(bin);
        cmd.args([
            "--port",
            "0",
            "--workers",
            &WORKERS.to_string(),
            "--debug-endpoints",
        ])
        .args(["--users", &w.users.to_string()])
        .args(["--items", &w.items.to_string()])
        .args(["--density", &w.density.to_string()]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-path").arg(dir.join("serve.wal"));
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // Drains the edge's stderr for its whole life so it never blocks
        // on a full pipe; the listening line carries the bound address.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut edge = Edge {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            drain: Some(drain),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "edge never reported its address".to_owned())?;
        edge.addr = addr
            .parse()
            .map_err(|e| format!("bad address {addr:?}: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut conn) = Conn::open(edge.addr) {
                if let Ok((200, _)) = conn.get("/healthz") {
                    return Ok((edge, started.elapsed().as_secs_f64()));
                }
            }
            if Instant::now() > deadline {
                return Err("edge never answered /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The edge's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }
}

/// `GET path` as JSON, on a connection the caller already holds: the
/// edge serves one connection per worker, so a third connection would
/// queue behind the two load connections.
pub fn debug(conn: &mut Conn, path: &str) -> Result<serde_json::Value, String> {
    match conn.get(path) {
        Ok((200, body)) => crate::check::parse(&body),
        Ok((status, _)) => Err(format!("GET {path}: status {status}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

impl Drop for Edge {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A fresh scratch directory for one edge life's journal.
pub fn fresh_dir(base: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            host: addr.to_string(),
        })
    }

    pub fn host(&self) -> &str {
        &self.host
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let raw = format!("GET {path} HTTP/1.1\r\nhost: {}\r\n\r\n", self.host);
        self.round_trip(raw.as_bytes())
    }

    /// Writes one request and reads its response: `(status, body)`.
    pub fn round_trip(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(raw)?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("closed in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}
