//! The rack-link shaper: one serialising uplink per rack.
//!
//! Every chunk read from a disk pays its rack's uplink for the bytes it
//! returned, so reads of one rack's disks share that rack's uplink. An
//! [`Uplink`] runs on time passed in as a value (seconds since the link
//! was built), which keeps its arithmetic testable without sleeping; the
//! [`Link`] wrapper supplies the clock and does the waiting.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A link that carries `rate` bytes/s, one transfer after another, with
/// no burst: a transfer starts when the link is free (or at once if it
/// is idle) and takes bytes ÷ rate to cross.
#[derive(Debug, Clone)]
pub struct Uplink {
    rate: f64,
    free_at: f64,
}

impl Uplink {
    pub fn new(rate: f64) -> Uplink {
        Uplink { rate, free_at: 0.0 }
    }

    /// Queues `bytes` at time `now` (seconds) and returns how long the
    /// caller must wait before its bytes have crossed the link.
    pub fn take(&mut self, now: f64, bytes: u64) -> f64 {
        let start = now.max(self.free_at);
        self.free_at = start + bytes as f64 / self.rate;
        self.free_at - now
    }
}

/// Per-rack uplinks plus the totals the conservation check reads.
#[derive(Debug)]
pub struct Link {
    epoch: Instant,
    uplinks: Vec<Mutex<Uplink>>,
    bytes: AtomicU64,
    wait_us: AtomicU64,
    open: AtomicBool,
}

impl Link {
    /// `racks` uplinks of `rate` bytes/s each.
    pub fn new(racks: usize, rate: f64) -> Link {
        Link {
            // Benchmark clock: the link's time origin.
            epoch: Instant::now(),
            uplinks: (0..racks).map(|_| Mutex::new(Uplink::new(rate))).collect(),
            bytes: AtomicU64::new(0),
            wait_us: AtomicU64::new(0),
            open: AtomicBool::new(false),
        }
    }

    /// Lifts the shaping (and stops counting) while `open`, e.g. while
    /// the benchmark reads back what it wrote to check it.
    pub fn set_open(&self, open: bool) {
        // Relaxed: toggled between phases, with no reads in flight.
        self.open.store(open, Ordering::Relaxed);
    }

    /// Charges `bytes` to `rack`'s uplink, sleeps until they have
    /// crossed it, and returns how long that took.
    pub fn pay(&self, rack: usize, bytes: u64) -> Duration {
        if self.open.load(Ordering::Relaxed) {
            return Duration::ZERO;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        let wait = self.uplinks[rack]
            .lock()
            .expect("uplink lock")
            .take(now, bytes);
        let d = Duration::from_secs_f64(wait.max(0.0));
        let us = d.as_micros() as u64;
        // Relaxed: totals read after the run's threads are joined.
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.wait_us.fetch_add(us, Ordering::Relaxed);
        std::thread::sleep(d);
        d
    }

    /// Bytes charged so far, across every rack.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total time callers were told to wait, in seconds.
    pub fn wait_s(&self) -> f64 {
        self.wait_us.load(Ordering::Relaxed) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_idle_link_charges_bytes_over_rate() {
        let mut u = Uplink::new(1000.0);
        assert!((u.take(0.0, 250) - 0.25).abs() < 1e-12);
        // Idle time earns no credit: a later transfer still pays in full.
        assert!((u.take(10.0, 250) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_requests_serialise_in_arrival_order() {
        let mut u = Uplink::new(100.0);
        let first = u.take(1.0, 50);
        let second = u.take(1.0, 50);
        assert!((first - 0.5).abs() < 1e-12);
        assert!((second - 1.0).abs() < 1e-12);
        // Half a second later the first has crossed; the second still
        // needs the other half second.
        assert!((u.take(1.5, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sustained_throughput_equals_the_rate() {
        let mut u = Uplink::new(1000.0);
        let mut t = 0.0;
        for _ in 0..1000 {
            t += u.take(t, 100);
        }
        // 100 kB at 1000 B/s.
        assert!((t - 100.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn link_counts_bytes_and_waits() {
        let link = Link::new(2, 1_000_000.0);
        link.pay(0, 1000);
        link.pay(1, 2000);
        assert_eq!(link.bytes(), 3000);
        assert!(link.wait_s() > 0.002 && link.wait_s() < 0.004);
    }
}
