//! The two load phases: an open loop on a fixed schedule, then a closed
//! loop on the same connections.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::edge::Conn;
use crate::workload::{Req, Route, Stream};

/// One answered (or failed) request.
#[derive(Debug)]
pub struct Sample {
    pub index: usize,
    pub req: Req,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    pub body: Vec<u8>,
    /// When the schedule said to send (the send time in a closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl Sample {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn route(&self) -> Route {
        self.req.route()
    }

    /// Latency from the scheduled send time, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn send(conn: &mut Conn, stream: &Stream, index: usize, due: Instant) -> Sample {
    let req = stream.request(index);
    let raw = req.wire(conn.host());
    let sent = Instant::now();
    let (status, body) = conn.round_trip(&raw).unwrap_or((0, Vec::new()));
    Sample {
        index,
        req,
        status,
        body,
        due,
        sent,
        done: Instant::now(),
    }
}

/// Sends requests `first..first + count` at `rate` per second: request
/// `k` is due at `start + k / rate`, whichever connection is free takes
/// it, and its latency counts from that due time.
pub fn open_loop(
    conns: &mut [Conn],
    stream: &Stream,
    first: usize,
    count: usize,
    rate: f64,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(count));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= count {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(k as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    mine.push(send(conn, stream, first + k, due));
                }
                out.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let mut samples = out.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Sends back to back on every connection for `duration`, continuing
/// the stream at `first`.
pub fn closed_loop(
    conns: &mut [Conn],
    stream: &Stream,
    first: usize,
    duration: Duration,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(first);
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let stop = start + duration;
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, out) = (&next, &out);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while Instant::now() < stop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    mine.push(send(conn, stream, k, Instant::now()));
                }
                out.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut samples = out.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    (samples, elapsed)
}

/// Median over `windows` equal time slices of the closed loop of the
/// 2xx responses completed per second in each slice.
pub fn window_rate(samples: &[Sample], windows: usize) -> f64 {
    let (Some(start), Some(end)) = (
        samples.iter().map(|s| s.sent).min(),
        samples.iter().map(|s| s.done).max(),
    ) else {
        return 0.0;
    };
    let width = end.duration_since(start).as_secs_f64() / windows as f64;
    let mut done = vec![0usize; windows];
    for s in samples.iter().filter(|s| s.ok()) {
        let slot = (s.done.duration_since(start).as_secs_f64() / width) as usize;
        done[slot.min(windows - 1)] += 1;
    }
    let rates: Vec<f64> = done.iter().map(|&n| n as f64 / width).collect();
    crate::stats::median(&rates).unwrap_or(0.0)
}
