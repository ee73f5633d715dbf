//! The `loadgen` layer: an open-loop, pipelined gateway client.
//!
//! Arrivals follow a schedule fixed before the run starts. The calling
//! thread sends each request when it falls due, tagged with a fresh
//! `req_id`, without waiting for earlier replies; one receiver thread
//! reads the interleaved reply frames, routes them by `req_id`, and
//! checks every GET byte against the oracle. Latency runs from the due
//! time, so a stall also charges the requests queued behind it.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pbrs_gateway::protocol::{read_frame, write_frame};
use pbrs_gateway::{Request, Response};
use pbrs_obs::trace::TraceCtx;

use crate::oracle::{self, Verifier};

/// Largest payload piece per `PUT_DATA` frame.
const PUT_PIECE: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Delete,
}

/// One request to issue: the object and, for GET/PUT, its oracle key
/// and length.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub name: String,
    pub key: u64,
    pub len: u64,
    /// Caller data carried into the outcome (an object version).
    pub user: u64,
}

/// Why a request failed; every class counts in `op_fail_ratio`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    Error,
    WrongBytes,
    Busy,
    Expired,
    Unanswered,
}

/// One finished (or abandoned) request; times in microseconds since the
/// run's epoch.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub kind: Kind,
    pub name: String,
    pub user: u64,
    pub trace: u64,
    pub due_us: u64,
    pub sent_us: u64,
    pub done_us: u64,
    pub fail: Option<Fail>,
    /// Stripes the store rebuilt to serve this GET.
    pub degraded_stripes: u64,
    /// Payload bytes received (GET) or sent (PUT).
    pub bytes: u64,
}

impl Outcome {
    /// Client-observed latency from the due time, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_us.saturating_sub(self.due_us) as f64 / 1000.0
    }

    /// Whether the GET reconstructed at least one stripe.
    pub fn degraded(&self) -> bool {
        self.degraded_stripes > 0
    }
}

/// Due times (seconds after the run starts) of Poisson arrivals at
/// `rate`/s for `seconds`, starting at `start_s`.
pub fn poisson(rng: &mut oracle::Rng, rate: f64, start_s: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = start_s + rng.exp_gap(rate);
    while t < start_s + seconds {
        out.push(t);
        t += rng.exp_gap(rate);
    }
    out
}

/// Totals of one run.
#[derive(Debug, Default)]
pub struct RunReport {
    pub outcomes: Vec<Outcome>,
    /// Largest number of requests outstanding at any send.
    pub backlog_max: usize,
    /// Arrivals the generator skipped because no op was eligible.
    pub skipped: usize,
}

struct Pending {
    op: Op,
    trace: u64,
    due_us: u64,
    sent_us: u64,
    verifier: Option<Verifier>,
    header_seen: bool,
}

type Table = Arc<Mutex<HashMap<u64, Pending>>>;

/// Drives one connection through the due times in `arrivals`. `next_op`
/// picks the op for each arrival (returning `None` skips it); `on_done` sees every
/// outcome on the receiver thread as it completes. `trace_seed` nonzero
/// sends each request under a `TraceCtx` whose trace id is recorded in
/// its outcome. Setting `stop` ends the schedule early. Requests still
/// unanswered `drain` after the last send fail as unanswered.
#[allow(clippy::too_many_arguments)]
pub fn run(
    addr: SocketAddr,
    epoch: Instant,
    arrivals: &[f64],
    mut next_op: impl FnMut() -> Option<Op>,
    on_done: impl Fn(&Outcome) + Send + 'static,
    trace_seed: u64,
    stop: &AtomicBool,
    drain: Duration,
) -> std::io::Result<RunReport> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    let table: Table = Arc::new(Mutex::new(HashMap::new()));
    let done: Arc<Mutex<Vec<Outcome>>> = Arc::new(Mutex::new(Vec::new()));
    let receiver = {
        let table = Arc::clone(&table);
        let done = Arc::clone(&done);
        thread::Builder::new()
            .name("pb-load-recv".into())
            .spawn(move || receive(reader, epoch, &table, &done, &on_done))?
    };
    let now_us = || epoch.elapsed().as_micros() as u64;
    let start = Instant::now();
    let start_us = now_us();
    let mut writer = &stream;
    let mut report = RunReport::default();
    let mut frames = Vec::new();
    for (i, &at_s) in arrivals.iter().enumerate() {
        let due = start + Duration::from_secs_f64(at_s);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        // Relaxed: a stop request; one late arrival more or less is fine.
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Some(op) = next_op() else {
            report.skipped += 1;
            continue;
        };
        let req_id = i as u64 + 1;
        let trace = if trace_seed == 0 {
            0
        } else {
            oracle::mix(trace_seed ^ req_id) | 1
        };
        frames.clear();
        encode(&mut frames, req_id, &op, trace);
        let due_us = start_us + (at_s * 1e6) as u64;
        {
            let mut t = table.lock().expect("pending table lock");
            t.insert(
                req_id,
                Pending {
                    verifier: (op.kind == Kind::Get).then(|| Verifier::new(op.key, op.len)),
                    op,
                    trace,
                    due_us,
                    sent_us: now_us(),
                    header_seen: false,
                },
            );
            report.backlog_max = report.backlog_max.max(t.len());
        }
        if writer.write_all(&frames).is_err() {
            break; // the receiver's EOF fails what is still pending
        }
    }
    let give_up = Instant::now() + drain;
    while !table.lock().expect("pending table lock").is_empty() && Instant::now() < give_up {
        thread::sleep(Duration::from_millis(2));
    }
    let _ = stream.shutdown(Shutdown::Both);
    let _ = receiver.join();
    let mut outcomes = std::mem::take(&mut *done.lock().expect("outcome lock"));
    let end_us = now_us();
    for (_, p) in table.lock().expect("pending table lock").drain() {
        outcomes.push(finish(p, end_us, Some(Fail::Unanswered), 0));
    }
    report.outcomes = outcomes;
    Ok(report)
}

fn encode(buf: &mut Vec<u8>, req_id: u64, op: &Op, trace: u64) {
    let wrap = |inner: Request| match TraceCtx::from_raw(trace, oracle::mix(trace) | 1) {
        Some(ctx) if trace != 0 => Request::Traced {
            ctx,
            inner: Box::new(inner),
        },
        _ => inner,
    };
    let name = op.name.clone();
    // Writes into a Vec cannot fail.
    let mut put = |req: &Request| {
        let _ = write_frame(buf, req_id, &req.encode());
    };
    match op.kind {
        Kind::Get => put(&wrap(Request::Get { name })),
        Kind::Delete => put(&wrap(Request::Delete { name })),
        Kind::Put => {
            put(&wrap(Request::PutStart { name: name.clone() }));
            let data = oracle::content(op.key, op.len as usize);
            for piece in data.chunks(PUT_PIECE) {
                put(&Request::PutData {
                    data: piece.to_vec(),
                });
            }
            put(&Request::PutEnd);
        }
    }
}

fn finish(p: Pending, done_us: u64, fail: Option<Fail>, degraded_stripes: u64) -> Outcome {
    let bytes = match (&p.verifier, p.op.kind) {
        (Some(v), _) => v.received(),
        (None, Kind::Put) => p.op.len,
        _ => 0,
    };
    Outcome {
        kind: p.op.kind,
        name: p.op.name,
        user: p.op.user,
        trace: p.trace,
        due_us: p.due_us,
        sent_us: p.sent_us,
        done_us,
        fail,
        degraded_stripes,
        bytes,
    }
}

fn receive(
    stream: TcpStream,
    epoch: Instant,
    table: &Table,
    done: &Mutex<Vec<Outcome>>,
    on_done: &impl Fn(&Outcome),
) {
    let mut reader = BufReader::with_capacity(256 * 1024, stream);
    while let Ok((id, body)) = read_frame(&mut reader) {
        let now_us = epoch.elapsed().as_micros() as u64;
        let resp = Response::decode(&body);
        let mut t = table.lock().expect("pending table lock");
        let Some(p) = t.get_mut(&id) else {
            continue; // a reply for an id already failed
        };
        // `Some((fail, degraded stripes))` ends the request.
        let end = match (resp, p.op.kind) {
            (Err(_), _) => Some((Some(Fail::Error), 0)),
            (Ok(Response::Busy), _) => Some((Some(Fail::Busy), 0)),
            (Ok(Response::Err { message }), _) => Some((
                Some(if message.contains("deadline") {
                    Fail::Expired
                } else {
                    Fail::Error
                }),
                0,
            )),
            (Ok(Response::ObjectHeader { len, .. }), Kind::Get) if !p.header_seen => {
                p.header_seen = true;
                (len != p.op.len).then_some((Some(Fail::WrongBytes), 0))
            }
            (Ok(Response::Data { data }), Kind::Get) if p.header_seen => {
                if let Some(v) = p.verifier.as_mut() {
                    v.feed(&data);
                }
                None
            }
            (Ok(Response::ObjectEnd { degraded_stripes }), Kind::Get) if p.header_seen => {
                let exact = p.verifier.as_ref().is_some_and(Verifier::is_exact);
                Some(((!exact).then_some(Fail::WrongBytes), degraded_stripes))
            }
            (Ok(Response::Created { len, .. }), Kind::Put) => {
                Some(((len != p.op.len).then_some(Fail::WrongBytes), 0))
            }
            (Ok(Response::DeletedOk { .. }), Kind::Delete) => Some((None, 0)),
            (Ok(_), _) => Some((Some(Fail::Error), 0)),
        };
        if let Some((fail, degraded_stripes)) = end {
            if let Some(p) = t.remove(&id) {
                drop(t);
                let outcome = finish(p, now_us, fail, degraded_stripes);
                on_done(&outcome);
                done.lock().expect("outcome lock").push(outcome);
            }
        }
    }
}
