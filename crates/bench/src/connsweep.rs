//! Connection-count sweep for the readiness-polled serving layer.
//!
//! Parks a crowd of **idle** connections against a running server, then drives a
//! small **active** client set through the crowd, timing every request. Under the
//! old thread-per-connection server each idle connection cost a handler thread
//! polling on a read timeout; under the reactor they are parked descriptors, so
//! per-request latency (p50/p99) should hold roughly flat from a handful of
//! connections to ten thousand. `perf_speedup` gates on it structurally: the
//! sweep must attach its clamped connection target and report finite
//! percentiles; latency itself is runner-dependent and never floored.
//!
//! An in-process sweep pays **two** file descriptors per connection (client end
//! and server end live in the same process), so targets are clamped against the
//! soft fd rlimit with headroom for everything else the process has open.

use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use sudowoodo_serve::ServeClient;

/// Descriptor headroom reserved for everything that is not a sweep connection
/// (snapshot files, listener, wakers, stdio, ...).
const FD_HEADROOM: u64 = 512;

/// One measured sweep level: a fixed idle-connection crowd plus a small active
/// client set, with aggregate throughput and per-request latency percentiles.
#[derive(Clone, Debug, Serialize)]
pub struct SweepLevel {
    /// Idle connections the level asked for.
    pub idle_target: usize,
    /// Idle connections actually parked: the target clamped by the fd rlimit
    /// (see [`clamp_idle_target`]).
    pub idle_attached: usize,
    /// Concurrently querying clients driven through the idle crowd.
    pub active_clients: usize,
    /// Requests timed across all active clients.
    pub requests: usize,
    /// Queries per request batch.
    pub batch: usize,
    /// Wall-clock seconds for the active phase (idle setup excluded).
    pub seconds: f64,
    /// `requests * batch / seconds`.
    pub queries_per_sec: f64,
    /// Median per-request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency in milliseconds.
    pub p99_ms: f64,
}

/// The process's soft limit on open file descriptors, parsed from
/// `/proc/self/limits`. `None` where that file does not exist (non-Linux) or
/// the limit is unlimited.
pub fn fd_soft_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line["Max open files".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Clamps an idle-connection target so the sweep never exhausts descriptors:
/// two fds per in-process connection, 512 reserved as headroom. Falls back to
/// 1024 connections when the limit cannot be read.
pub fn clamp_idle_target(target: usize) -> usize {
    match fd_soft_limit() {
        Some(limit) => target.min((limit.saturating_sub(FD_HEADROOM) / 2) as usize),
        None => target.min(1024),
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0.0 ..= 1.0).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Runs one sweep level against a live server: parks `idle_target` (clamped)
/// idle connections, then times `active_clients` clients each sending
/// `requests_per_client` identical `knn_join` batches through the crowd.
///
/// # Panics
/// If an idle connection cannot be established after retries, or an active
/// request fails — a sweep level that cannot hold its connections is a bug in
/// the serving layer, not a measurement.
pub fn sweep_level(
    addr: SocketAddr,
    queries: &[Vec<f32>],
    k: usize,
    idle_target: usize,
    active_clients: usize,
    requests_per_client: usize,
) -> SweepLevel {
    let idle_attached = clamp_idle_target(idle_target);
    let mut idle = Vec::with_capacity(idle_attached);
    for i in 0..idle_attached {
        // A connect burst can momentarily outrun the accept backlog; retry
        // briefly instead of failing the sweep on a transient refusal.
        let conn = (0..200)
            .find_map(|attempt| match TcpStream::connect(addr) {
                Ok(conn) => Some(conn),
                Err(_) => {
                    std::thread::sleep(std::time::Duration::from_millis(1 + attempt / 50));
                    None
                }
            })
            .unwrap_or_else(|| panic!("idle connection {i}/{idle_attached} failed to attach"));
        idle.push(conn);
    }

    let latencies_ms = Mutex::new(Vec::with_capacity(active_clients * requests_per_client));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..active_clients {
            let latencies_ms = &latencies_ms;
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("active sweep connect");
                let mut local = Vec::with_capacity(requests_per_client);
                for _ in 0..requests_per_client {
                    let sent = Instant::now();
                    let pairs = client.knn_join(queries, k).expect("sweep join");
                    std::hint::black_box(&pairs);
                    local.push(sent.elapsed().as_secs_f64() * 1e3);
                }
                latencies_ms.lock().unwrap().extend(local);
            });
        }
    });
    let seconds = start.elapsed().as_secs_f64();
    drop(idle);

    let mut sorted_ms = latencies_ms.into_inner().unwrap();
    sorted_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = sorted_ms.len();
    SweepLevel {
        idle_target,
        idle_attached,
        active_clients,
        requests,
        batch: queries.len(),
        seconds,
        queries_per_sec: if seconds > 0.0 {
            (requests * queries.len()) as f64 / seconds
        } else {
            0.0
        },
        p50_ms: percentile(&sorted_ms, 0.50),
        p99_ms: percentile(&sorted_ms, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&sorted, 0.50), 3.0);
        assert_eq!(percentile(&sorted, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn clamping_respects_the_fd_budget() {
        if let Some(limit) = fd_soft_limit() {
            let clamped = clamp_idle_target(usize::MAX);
            assert!(2 * clamped as u64 + FD_HEADROOM <= limit);
        }
        assert!(clamp_idle_target(6) <= 6);
    }
}
