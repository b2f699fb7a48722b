//! The shipped `urlid serve` as a child process, and what can be read
//! about it from outside: `/healthz`, `/metrics` and `/proc/<pid>`.

use crate::client;
use serde::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BOOT_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `urlid serve --model <m> --addr 127.0.0.1:0`, every other
/// flag at its default. Killed and reaped on drop.
pub struct ChildServer {
    child: Child,
    pub addr: SocketAddr,
    stderr_drain: Option<JoinHandle<()>>,
}

impl ChildServer {
    /// Start the server; returns it with the seconds from exec to the
    /// first `200` on `/healthz`.
    pub fn boot(urlid: &Path, model: &Path) -> Result<(ChildServer, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(urlid)
            .arg("serve")
            .arg("--model")
            .arg(model)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", urlid.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // The server logs its bound address on stderr; after that line
        // the pipe is drained so that a chatty server never blocks.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line
                    .split_once(" on http://")
                    .and_then(|(_, rest)| rest.split(' ').next())
                {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.to_owned());
                    }
                } else if tx.is_some() {
                    eprintln!("server: {line}");
                }
            }
        });
        let mut server = ChildServer {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_drain: Some(drain),
        };
        let addr = rx
            .recv_timeout(BOOT_TIMEOUT)
            .map_err(|_| "server exited or never reported its address".to_owned())?;
        server.addr = addr
            .parse()
            .map_err(|_| format!("server reported a bad address {addr:?}"))?;
        loop {
            if let Ok((200, _)) = client::get(server.addr, "/healthz") {
                break;
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err("server never answered 200 on /healthz".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Fail if the server has exited on its own.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!("server exited during the run: {status}")),
            Err(e) => Err(format!("cannot poll the server: {e}")),
        }
    }

    pub fn json(&self, path: &str) -> Result<Value, String> {
        let (status, body) =
            client::get(self.addr, path).map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path} answered {status}"));
        }
        serde_json::from_str(&body).map_err(|e| format!("GET {path}: bad JSON: {e}"))
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// Look up a dotted path (`"cache.hits"`) in a JSON value.
pub fn field<'a>(value: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(value, |v, key| v.get(key))
}

/// A JSON number at a dotted path, as `f64`.
pub fn number(value: &Value, path: &str) -> Result<f64, String> {
    match field(value, path) {
        Some(Value::Int(n)) => Ok(*n as f64),
        Some(Value::Uint(n)) => Ok(*n as f64),
        Some(Value::Float(x)) => Ok(*x),
        _ => Err(format!("no number at {path}")),
    }
}

/// The `/metrics` counters the benchmark differences around a run.
/// Server counters are lifetime totals, so a per-run figure is always
/// the difference of two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub queue_count: f64,
    /// Total queue wait in microseconds (count × mean).
    pub queue_sum_us: f64,
}

impl Counters {
    pub fn read(metrics: &Value) -> Result<Counters, String> {
        let queue_count = number(metrics, "stages.queue.count")?;
        let queue_mean_ms = if queue_count > 0.0 {
            number(metrics, "stages.queue.mean_ms")?
        } else {
            0.0
        };
        Ok(Counters {
            cache_hits: number(metrics, "cache.hits")?,
            cache_misses: number(metrics, "cache.misses")?,
            queue_count,
            queue_sum_us: queue_count * queue_mean_ms * 1000.0,
        })
    }

    /// Share of cache lookups between `self` and `later` that hit.
    pub fn hit_ratio_until(&self, later: &Counters) -> f64 {
        let hits = later.cache_hits - self.cache_hits;
        let lookups = hits + later.cache_misses - self.cache_misses;
        if lookups > 0.0 {
            hits / lookups
        } else {
            0.0
        }
    }

    /// Mean reactor→pool queue wait between `self` and `later`, in µs.
    pub fn queue_mean_us_until(&self, later: &Counters) -> f64 {
        let n = later.queue_count - self.queue_count;
        if n > 0.0 {
            (later.queue_sum_us - self.queue_sum_us) / n
        } else {
            0.0
        }
    }
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// utime + stime of a `/proc/.../stat` file, in microseconds.
pub fn cpu_us(stat_path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(stat_path).map_err(|e| format!("{stat_path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `) `.
    let rest = stat
        .rsplit_once(") ")
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{stat_path}: unexpected format"))?;
    let fields: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{stat_path}: unexpected format"))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ * 1e6)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
