//! The write path's per-stripe disk fan-out, checked from outside the
//! store: every chunk write of a stripe is in flight at once, each carries
//! the caller's trace, and a write that fails mid-stripe leaves nothing
//! behind — not even chunks whose concurrent writes finished after it.
//!
//! Each pool disk is a [`ProbedDisk`]: a `LocalDisk` that records what
//! its writes saw and, when asked, holds every write of a stripe until
//! the whole stripe has arrived.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pbrs_obs::trace::{self, RootFlags, ScopedCtx, TraceCtx, Tracer, TracerConfig};
use pbrs_store::testing::TempDir;
use pbrs_store::{
    BackendCounters, BlockStore, ChunkBackend, ChunkId, ChunkRead, ChunkStatus, FaultPlan,
    FaultyBackend, LocalDisk, Manifest, PlacementPolicy, RackMap, StoreConfig, StoreError,
};

const CHUNK_LEN: usize = 512;
const SPEC: &str = "piggyback-6-2";
const N: usize = 8;
const K: usize = 6;
/// How long a held write waits for the rest of its stripe. Serial writes
/// never get there, so the test fails at this bound instead of hanging.
const GATHER_TIMEOUT: Duration = Duration::from_secs(5);

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

/// Shared by every [`ProbedDisk`] of one pool.
#[derive(Default)]
struct Probe {
    /// Hold each write until all `N` writes of its stripe have arrived,
    /// failing it if they never do.
    hold: bool,
    arrived: Mutex<HashMap<(String, u64), usize>>,
    all_in: Condvar,
    /// The trace context every write ran under.
    contexts: Mutex<Vec<Option<TraceCtx>>>,
    /// `(disk, stripe)` of every write that reached the disk.
    landed: Mutex<Vec<(usize, u64)>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Probe")
    }
}

impl Probe {
    fn new(hold: bool) -> Arc<Probe> {
        Arc::new(Probe {
            hold,
            ..Probe::default()
        })
    }

    /// Waits until all `N` writes of `(object, stripe)` have arrived.
    fn gather(&self, object: &str, stripe: u64) -> Result<(), StoreError> {
        let key = (object.to_string(), stripe);
        let mut arrived = self.arrived.lock().unwrap();
        *arrived.entry(key.clone()).or_default() += 1;
        self.all_in.notify_all();
        let deadline = Instant::now() + GATHER_TIMEOUT;
        while arrived[&key] < N {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(StoreError::io(
                    format!("gather://{object}/{stripe}"),
                    std::io::Error::other(format!(
                        "only {} of {N} writes of stripe {stripe} arrived together",
                        arrived[&key]
                    )),
                ));
            }
            arrived = self.all_in.wait_timeout(arrived, left).unwrap().0;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct ProbedDisk {
    inner: LocalDisk,
    disk: usize,
    probe: Arc<Probe>,
}

impl ChunkBackend for ProbedDisk {
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
        let probe = &self.probe;
        probe.contexts.lock().unwrap().push(trace::current_ctx());
        if probe.hold {
            probe.gather(object, id.stripe)?;
        }
        self.inner.write_chunk(object, id, payload)?;
        probe.landed.lock().unwrap().push((self.disk, id.stripe));
        Ok(())
    }

    fn read_chunk_into(&self, object: &str, id: ChunkId, out: &mut [u8]) -> ChunkRead<()> {
        self.inner.read_chunk_into(object, id, out)
    }

    fn read_chunk_range(
        &self,
        object: &str,
        id: ChunkId,
        chunk_len: usize,
        offset: usize,
        out: &mut [u8],
    ) -> ChunkRead<()> {
        self.inner
            .read_chunk_range(object, id, chunk_len, offset, out)
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
}

fn open(dir: &TempDir, pool: Vec<Arc<dyn ChunkBackend>>, workers: usize) -> Arc<BlockStore> {
    let disks = pool.len();
    Arc::new(
        BlockStore::open_with_backends(
            StoreConfig::new(dir.path().join("root"), SPEC.parse().unwrap())
                .chunk_len(CHUNK_LEN)
                .pipeline_workers(workers),
            pool,
            RackMap::per_disk(disks),
            PlacementPolicy::Identity,
        )
        .unwrap(),
    )
}

fn probed_pool(dir: &TempDir, probe: &Arc<Probe>) -> Vec<Arc<dyn ChunkBackend>> {
    (0..N)
        .map(|disk| {
            Arc::new(ProbedDisk {
                inner: LocalDisk::new(dir.path().join(format!("pool-{disk:02}"))),
                disk,
                probe: Arc::clone(probe),
            }) as Arc<dyn ChunkBackend>
        })
        .collect()
}

#[test]
fn every_write_of_a_stripe_is_in_flight_at_once() {
    for workers in [1, 4] {
        let dir = TempDir::new("fanout-gather");
        let probe = Probe::new(true);
        let store = open(&dir, probed_pool(&dir, &probe), workers);
        let data = pattern(K * CHUNK_LEN * 3 - 100);
        store.put("obj", &data[..]).unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
        assert_eq!(probe.landed.lock().unwrap().len(), 3 * N);
    }
}

#[test]
fn traced_writer_puts_carry_the_callers_trace_into_every_write() {
    let dir = TempDir::new("fanout-trace");
    let probe = Probe::new(true);
    let store = open(&dir, probed_pool(&dir, &probe), 1);
    let tracer = Arc::new(Tracer::new("fanout-test", TracerConfig::default()));
    store.set_tracer(Arc::clone(&tracer));

    let root = tracer.root_span("put", None);
    let ctx = root.ctx();
    let data = pattern(K * CHUNK_LEN * 2);
    {
        let _scope = ScopedCtx::enter(Some(ctx));
        let mut writer = store.writer("obj").unwrap();
        writer.write(&data).unwrap();
        writer.finish().unwrap();
    }
    root.finish_root(&tracer, RootFlags::default());
    assert_eq!(store.get("obj").unwrap(), data);

    let contexts = probe.contexts.lock().unwrap();
    assert_eq!(contexts.len(), 2 * N);
    for seen in contexts.iter() {
        let seen = seen.expect("every chunk write runs under a trace context");
        assert_eq!(seen.trace, ctx.trace);
    }
}

/// Disk 3's first write fails; disk 7's writes land 50 ms later, so they
/// finish after the failure and must still be cleaned up.
fn failing_pool(dir: &TempDir, probe: &Arc<Probe>) -> Vec<Arc<dyn ChunkBackend>> {
    let plan = Arc::new(
        FaultPlan::parse(
            "disk=3 op=write error count=1; disk=7 op=write delay=50ms",
            5,
        )
        .unwrap(),
    );
    probed_pool(dir, probe)
        .into_iter()
        .enumerate()
        .map(|(disk, inner)| {
            Arc::new(FaultyBackend::new(inner, Arc::clone(&plan), disk)) as Arc<dyn ChunkBackend>
        })
        .collect()
}

/// The failed op was typed, left no manifest entry (in memory or on
/// disk) and no file — although every other write of the failing stripe,
/// disk 7's late one included, did reach its disk before the cleanup.
fn assert_failed_cleanly(dir: &TempDir, store: &BlockStore, probe: &Probe, err: StoreError) {
    assert!(matches!(err, StoreError::Io { .. }), "{err:?}");
    let mut by_stripe: HashMap<u64, Vec<usize>> = HashMap::new();
    for &(disk, stripe) in probe.landed.lock().unwrap().iter() {
        by_stripe.entry(stripe).or_default().push(disk);
    }
    // Pipelined stripes may be in flight together: whichever of them drew
    // disk 3's failing write is the one that must show every other disk.
    let failed = by_stripe.values_mut().find(|disks| !disks.contains(&3));
    let mut failed = failed.cloned().unwrap_or_default();
    failed.sort_unstable();
    assert_eq!(
        failed,
        [0, 1, 2, 4, 5, 6, 7],
        "the failing stripe's writes that landed"
    );
    assert!(store.object("obj").is_none(), "no manifest entry");
    assert!(store.objects().is_empty());
    if let Some(manifest) = Manifest::load(&dir.path().join("root")).unwrap() {
        assert!(!manifest.objects.contains_key("obj"));
    }
    let mut left = Vec::new();
    for disk in 0..N {
        let path = dir.path().join(format!("pool-{disk:02}")).join("obj");
        if let Ok(entries) = std::fs::read_dir(&path) {
            left.extend(entries.map(|e| e.unwrap().path()));
        }
    }
    assert!(left.is_empty(), "files left behind: {left:?}");
}

#[test]
fn mid_stripe_write_failure_through_the_writer_leaves_nothing() {
    let dir = TempDir::new("fanout-fail-writer");
    let probe = Probe::new(false);
    let store = open(&dir, failing_pool(&dir, &probe), 1);
    let data = pattern(K * CHUNK_LEN * 2);
    let mut writer = store.writer("obj").unwrap();
    let err = writer.write(&data).unwrap_err();
    drop(writer);
    assert_failed_cleanly(&dir, &store, &probe, err);

    let mut writer = store.writer("obj").unwrap();
    writer.write(&data).unwrap();
    writer.finish().unwrap();
    assert_eq!(store.get("obj").unwrap(), data);
}

#[test]
fn mid_stripe_write_failure_through_put_leaves_nothing() {
    for workers in [1, 4] {
        let dir = TempDir::new("fanout-fail-put");
        let probe = Probe::new(false);
        let store = open(&dir, failing_pool(&dir, &probe), workers);
        let data = pattern(K * CHUNK_LEN * 3);
        let err = store.put("obj", &data[..]).unwrap_err();
        assert_failed_cleanly(&dir, &store, &probe, err);

        store.put("obj", &data[..]).unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
    }
}
