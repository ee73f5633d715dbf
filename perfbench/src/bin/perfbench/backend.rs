//! The benchmark's `ChunkBackend` wrapper: the `backend` layer's
//! instruments and the `link` layer's shaper, both from outside the
//! program.
//!
//! A [`ProbeDisk`] sits between the store and each real disk
//! (`LocalDisk` or chunkd's `RemoteDisk`). It counts every op and byte,
//! charges every chunk read to its rack's [`Link`] uplink when the
//! workload shapes its racks, and — while span recording is on —
//! records one span per op tagged with the trace id the store has in
//! scope (`pbrs_obs::trace::current_ctx`), so the span can be tied to
//! the GET or the direct store call that caused it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pbrs_obs::trace::current_ctx;
use pbrs_store::{BackendCounters, ChunkBackend, ChunkId, ChunkRead, ChunkStatus, StoreError};

use crate::link::Link;

/// One backend op, in microseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Trace id in scope when the op ran (0: none).
    pub trace: u64,
    pub start_us: u64,
    pub end_us: u64,
    /// The part of the span spent in the link shaper.
    pub link_us: u64,
    pub bytes: u64,
    pub write: bool,
}

impl Span {
    /// Time in the disk itself, link wait excluded.
    pub fn io_us(&self) -> u64 {
        (self.end_us - self.start_us).saturating_sub(self.link_us)
    }
}

/// Counters and spans shared by every [`ProbeDisk`] of one store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tracing: AtomicBool,
    spans: Mutex<Vec<Span>>,
    pub read_ops: AtomicU64,
    pub read_bytes: AtomicU64,
    pub write_ops: AtomicU64,
    pub write_bytes: AtomicU64,
    pub errors: AtomicU64,
    /// Time repair-daemon threads spent in the link shaper, µs.
    pub repair_link_wait_us: AtomicU64,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch,
            tracing: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            read_ops: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            repair_link_wait_us: AtomicU64::new(0),
        })
    }

    /// Turns span recording on or off.
    pub fn set_tracing(&self, on: bool) {
        // Relaxed: a mode flag; spans straddling the switch may go either way.
        self.tracing.store(on, Ordering::Relaxed);
    }

    pub fn tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Microseconds since the epoch shared with the load generator.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Takes every span recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }

    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn add(counter: &AtomicU64, n: u64) {
        // Relaxed: statistics read after the measured threads finish.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn record(&self, start_us: u64, link: Duration, bytes: u64, write: bool) {
        if self.tracing() {
            let span = Span {
                trace: current_ctx().map_or(0, |c| c.trace.as_u64()),
                start_us,
                end_us: self.now_us(),
                link_us: link.as_micros() as u64,
                bytes,
                write,
            };
            self.spans.lock().expect("span lock").push(span);
        }
    }
}

/// A probed disk, its reads shaped when it has a link.
#[derive(Debug)]
pub struct ProbeDisk {
    inner: Arc<dyn ChunkBackend>,
    rack: usize,
    link: Option<Arc<Link>>,
    rec: Arc<Recorder>,
}

impl ProbeDisk {
    /// Wraps `inner` as a disk of `rack`, its reads shaped by `link` if
    /// there is one.
    pub fn wrap(
        inner: Arc<dyn ChunkBackend>,
        rack: usize,
        link: Option<Arc<Link>>,
        rec: Arc<Recorder>,
    ) -> Arc<dyn ChunkBackend> {
        Arc::new(ProbeDisk {
            inner,
            rack,
            link,
            rec,
        })
    }

    /// Books one finished read: counts, link charge, span.
    fn read_done(&self, start_us: u64, result: &ChunkRead<()>, len: usize) {
        Recorder::add(&self.rec.read_ops, 1);
        let bytes = match result {
            Ok(Ok(())) => len as u64,
            Ok(Err(_)) => 0,
            Err(_) => {
                Recorder::add(&self.rec.errors, 1);
                0
            }
        };
        let mut wait = Duration::ZERO;
        if bytes > 0 {
            Recorder::add(&self.rec.read_bytes, bytes);
            if let Some(link) = &self.link {
                wait = link.pay(self.rack, bytes);
                let repair = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("pbrs-repair"));
                if repair {
                    Recorder::add(&self.rec.repair_link_wait_us, wait.as_micros() as u64);
                }
            }
        }
        self.rec.record(start_us, wait, bytes, false);
    }
}

impl ChunkBackend for ProbeDisk {
    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn is_available(&self) -> bool {
        self.inner.is_available()
    }

    fn ensure_object(&self, object: &str) -> Result<(), StoreError> {
        self.inner.ensure_object(object)
    }

    fn remove_object(&self, object: &str) -> Result<(), StoreError> {
        self.inner.remove_object(object)
    }

    fn write_chunk(&self, object: &str, id: ChunkId, payload: &[u8]) -> Result<(), StoreError> {
        let start = self.rec.now_us();
        let result = self.inner.write_chunk(object, id, payload);
        Recorder::add(&self.rec.write_ops, 1);
        match result {
            Ok(()) => Recorder::add(&self.rec.write_bytes, payload.len() as u64),
            Err(_) => Recorder::add(&self.rec.errors, 1),
        }
        self.rec
            .record(start, Duration::ZERO, payload.len() as u64, true);
        result
    }

    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        let start = self.rec.now_us();
        let result = self.inner.read_chunk_into(object, id, out);
        self.read_done(start, &result, out.len());
        result
    }

    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()> {
        let start = self.rec.now_us();
        let result = self
            .inner
            .read_chunk_range(object, id, chunk_len, offset, out);
        self.read_done(start, &result, out.len());
        result
    }

    fn verify_chunk(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
    ) -> Result<(ChunkStatus, u64), StoreError> {
        self.inner.verify_chunk(object, id, chunk_len)
    }

    fn sweep_tmp(&self, min_age: Duration) -> Result<Vec<String>, StoreError> {
        self.inner.sweep_tmp(min_age)
    }

    fn counters(&self) -> BackendCounters {
        self.inner.counters()
    }

    fn drain_spans(&self) -> Vec<pbrs_obs::trace::SpanRecord> {
        self.inner.drain_spans()
    }
}
