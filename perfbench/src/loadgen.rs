//! Open-loop load over one in-process connection.
//!
//! One writer thread sends request `i` at its due time `start + i/rate`
//! whether or not earlier replies have arrived (independent users, so an
//! open loop); the calling thread reads replies and times each one from
//! its due time, so a stall also charges the wait it imposes on the
//! requests queued behind it. How late the writer ran is reported
//! beside the latencies.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use culinaria_serve::protocol::Client;
use culinaria_serve::Server;

use crate::trace::Tracer;

/// Longest wait for any one reply before the rest count as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// What one open-loop pass measured.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Due time to reply, per answered request, in send order (ms).
    pub latency_ms: Vec<f64>,
    /// Actual send minus due time, per sent request (µs).
    pub late_us: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub busy: u64,
    pub err: u64,
    pub unanswered: u64,
}

impl LoadStats {
    pub fn failed(&self) -> u64 {
        self.busy + self.err + self.unanswered
    }

    /// True when the last quarter of the pass waited clearly longer than
    /// the first: the server fell behind the offered rate.
    pub fn backlog_growing(&self) -> bool {
        let q = self.latency_ms.len() / 4;
        if q == 0 {
            return false;
        }
        let first = crate::stats::median(&self.latency_ms[..q]).unwrap_or(0.0);
        let last =
            crate::stats::median(&self.latency_ms[self.latency_ms.len() - q..]).unwrap_or(0.0);
        last > 2.0 * first + 0.5
    }
}

/// Ask the kernel for precise sleeps on the calling thread. The default
/// 50 µs timer slack would make every send of a 16k rps schedule late
/// by most of its 62 µs period.
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument, reads and
    // writes no memory, and only affects the calling thread's timers.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Send `lines[i]` (a request without its id) at `rate` per second over
/// a fresh connection to `server`; request `i` carries id `i + 1`.
/// Traced runs record one `loadgen.request` span per reply (due time to
/// reply) with its `loadgen.late` child (due time to actual send).
pub fn open_loop(server: &Server<'_>, lines: &[String], rate: f64, tracer: &Tracer) -> LoadStats {
    let n = lines.len();
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    client_side
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a reply timeout on a unix socket");
    let write_half = client_side.try_clone().expect("clone the client socket");
    let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + period.mul_f64(i as f64);

    let mut stats = LoadStats::default();
    let mut reply_at: Vec<Option<Instant>> = vec![None; n];
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone the server socket");
        let srv = scope.spawn(move || server.serve_connection(reader, server_side));
        let sent_ns = &sent_ns;
        let writer = scope.spawn(move || {
            tighten_timer_slack();
            let mut w = write_half;
            let mut frame = Vec::with_capacity(256);
            for (i, line) in lines.iter().enumerate() {
                sleep_until(due(i));
                let payload = format!("{} {line}", i + 1);
                frame.clear();
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(payload.as_bytes());
                sent_ns[i].store(
                    Instant::now().duration_since(start).as_nanos() as u64,
                    Ordering::Relaxed,
                );
                if w.write_all(&frame).is_err() {
                    break;
                }
            }
        });
        let mut client = Client::new(client_side);
        for _ in 0..n {
            match client.recv() {
                Ok(Some((id, rest))) => {
                    let now = Instant::now();
                    let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < n) else {
                        stats.err += 1;
                        continue;
                    };
                    reply_at[i] = Some(now);
                    if rest.starts_with("OK") {
                        stats.ok += 1;
                    } else if rest.starts_with("BUSY") {
                        stats.busy += 1;
                    } else {
                        stats.err += 1;
                    }
                }
                Ok(None) | Err(_) => break,
            }
        }
        writer.join().expect("load writer thread");
        drop(client);
        // The connection's own result is irrelevant here: every request
        // was already accounted for by its reply or by its absence.
        let _ = srv.join().expect("server connection thread");
    });

    for (i, at) in reply_at.iter().enumerate() {
        let sent = sent_ns[i].load(Ordering::Relaxed);
        if sent == u64::MAX {
            continue;
        }
        stats.sent += 1;
        let due_i = due(i);
        stats.late_us.push(
            (Duration::from_nanos(sent).as_secs_f64() - due_i.duration_since(start).as_secs_f64())
                * 1e6,
        );
        match at {
            Some(at) => {
                stats
                    .latency_ms
                    .push(at.duration_since(due_i).as_secs_f64() * 1e3);
                if tracer.enabled() {
                    let req = tracer.record("loadgen.request", i as u64 + 1, None, due_i, *at);
                    let send = start + Duration::from_nanos(sent);
                    tracer.record("loadgen.late", i as u64 + 1, req, due_i, send.max(due_i));
                }
            }
            None => stats.unanswered += 1,
        }
    }
    stats
}

/// Send each request over one connection and wait for its reply before
/// the next (warm-up and parity probes). Request `i` carries id `i + 1`.
pub fn call_each(server: &Server<'_>, lines: &[String]) -> Vec<String> {
    let (server_side, client_side) = UnixStream::pair().expect("socketpair");
    client_side
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set a reply timeout on a unix socket");
    std::thread::scope(|scope| {
        let reader = server_side.try_clone().expect("clone the server socket");
        let srv = scope.spawn(move || server.serve_connection(reader, server_side));
        let mut client = Client::new(client_side);
        let replies = lines
            .iter()
            .enumerate()
            .map(|(i, line)| {
                client
                    .call(i as u64 + 1, line)
                    .unwrap_or_else(|e| format!("ERR no reply: {e}"))
            })
            .collect();
        drop(client);
        let _ = srv.join().expect("server connection thread");
        replies
    })
}
