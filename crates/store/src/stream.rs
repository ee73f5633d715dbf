//! Streaming entry points: stripe-at-a-time object ingest and serving.
//!
//! [`BlockStore::put`] and [`BlockStore::get`] move whole objects through
//! memory, which is the right shape for tests and repair tooling but not
//! for a network front door: a gateway serving thousands of connections
//! must hold O(stripe) per request, not O(object). This module provides
//! the two streaming halves the gateway is built on:
//!
//! * [`ObjectWriter`] — ingest: bytes are appended in arbitrary-sized
//!   pieces into one reusable stripe buffer; every time a stripe fills it
//!   is encoded and its `k + r` chunks written immediately. The manifest
//!   commit happens only at [`ObjectWriter::finish`], with exactly the
//!   durability contract of `put` (every chunk durable before the entry),
//!   and dropping an unfinished writer aborts cleanly — chunks removed,
//!   name released.
//! * [`ObjectReader`] — serving: the object's metadata and placement rows
//!   are resolved once, then [`ObjectReader::read_stripe`] decodes any
//!   stripe into a caller buffer, transparently degrading when chunks are
//!   missing (and reporting that it did, so a serving tier can measure
//!   degraded-read share). One reusable scratch rides along, so steady
//!   state allocates nothing.
//!
//! Both sides hold an `Arc<BlockStore>` and are `Send`, so a reactor can
//! hand them between worker threads as a request progresses.

use std::sync::Arc;

use pbrs_erasure::ShardBuffer;
use pbrs_obs::StageTimes;

use crate::error::{Result, StoreError};
use crate::manifest::ObjectInfo;
use crate::store::{BlockStore, StripeScratch};

/// Stripe-at-a-time object ingest; see the [module docs](self).
///
/// Created by [`BlockStore::writer`]. The name is reserved for the whole
/// life of the writer: concurrent `put`s or writers for the same name
/// fail with [`StoreError::ObjectExists`]. Call [`ObjectWriter::finish`]
/// to commit; dropping the writer first aborts the ingest (best-effort
/// chunk cleanup, reservation released).
pub struct ObjectWriter {
    store: Arc<BlockStore>,
    name: String,
    buf: ShardBuffer,
    /// Data bytes buffered in the current (unwritten) stripe.
    filled: usize,
    /// Stripes already encoded and written.
    stripes: u64,
    /// Total payload bytes accepted.
    total: u64,
    /// Cumulative erasure/chunk-io time across flushed stripes.
    stage_times: StageTimes,
    state: WriterState,
}

#[derive(PartialEq)]
enum WriterState {
    Open,
    /// A stripe write failed: the object can no longer be committed.
    Poisoned,
    /// Finished (committed or aborted); Drop has nothing left to do.
    Closed,
}

impl ObjectWriter {
    pub(crate) fn new(store: Arc<BlockStore>, name: &str) -> Result<Self> {
        store.reserve_name(name)?;
        if let Err(e) = store.prepare_object_dirs(name) {
            store.release_name(name);
            return Err(e);
        }
        let n = store.shards_per_stripe();
        let buf = ShardBuffer::zeroed(n, store.chunk_len());
        Ok(ObjectWriter {
            store,
            name: name.to_string(),
            buf,
            filled: 0,
            stripes: 0,
            total: 0,
            stage_times: StageTimes::new(),
            state: WriterState::Open,
        })
    }

    /// The object name being written.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Payload bytes accepted so far.
    pub fn bytes_written(&self) -> u64 {
        self.total
    }

    /// Cumulative per-stage time (erasure encode vs chunk I/O) spent by
    /// this writer's stripe flushes so far.
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// Appends `data` to the object. Every time the internal stripe
    /// buffer fills, that stripe is encoded and all of its chunks are
    /// written before the call returns — memory held is always one
    /// stripe, regardless of object size.
    ///
    /// # Errors
    ///
    /// Chunk-write and codec failures, and [`StoreError::WorkerPanic`]
    /// when encoding or writing a stripe panics. After an error the writer
    /// is poisoned: further writes and [`ObjectWriter::finish`] fail, and
    /// dropping it cleans up the partial object.
    pub fn write(&mut self, mut data: &[u8]) -> Result<()> {
        self.check_open()?;
        let chunk_len = self.store.chunk_len();
        let stripe_len = self.store.stripe_data_len();
        while !data.is_empty() {
            let shard = self.filled / chunk_len;
            let offset = self.filled % chunk_len;
            let take = (chunk_len - offset).min(data.len());
            self.buf.shard_mut(shard)[offset..offset + take].copy_from_slice(&data[..take]);
            self.filled += take;
            self.total += take as u64;
            data = &data[take..];
            if self.filled == stripe_len {
                self.flush_stripe()?;
            }
        }
        Ok(())
    }

    /// Encodes and writes the buffered stripe (zero-padding a partial
    /// tail) as a batch of one through `put`'s own batch step, poisoning
    /// the writer on failure.
    fn flush_stripe(&mut self) -> Result<()> {
        self.store.zero_data_tail(&mut self.buf, self.filled);
        let result = self.store.write_stripes(
            &self.name,
            self.stripes,
            std::slice::from_mut(&mut self.buf),
            &mut self.stage_times,
        );
        match result {
            Ok(()) => {
                self.stripes += 1;
                self.filled = 0;
                Ok(())
            }
            Err(e) => {
                self.state = WriterState::Poisoned;
                Err(e)
            }
        }
    }

    /// Commits the object: flushes a partial tail stripe, then writes the
    /// manifest entry durably. Only after this returns `Ok` is the object
    /// readable; a writer dropped before `finish` leaves no trace.
    ///
    /// # Errors
    ///
    /// Chunk-write, codec, and manifest I/O failures — in every case the
    /// partial object's chunks are removed and the name is released.
    pub fn finish(mut self) -> Result<ObjectInfo> {
        self.check_open()?;
        if self.filled > 0 {
            self.flush_stripe()?; // poisons on failure; Drop cleans up
        }
        let result = self
            .store
            .commit_object(&self.name, self.total, self.stripes);
        if result.is_err() {
            self.store.remove_object_chunks(&self.name);
        }
        self.store.release_name(&self.name);
        self.state = WriterState::Closed;
        result
    }

    /// Abandons the ingest: best-effort removal of every chunk written so
    /// far, then the name reservation is released. Equivalent to dropping
    /// the writer, but lets the caller see it happen explicitly.
    pub fn abort(mut self) {
        self.cleanup();
    }

    fn check_open(&self) -> Result<()> {
        match self.state {
            WriterState::Open => Ok(()),
            _ => Err(StoreError::ObjectExists {
                name: self.name.clone(),
            }),
        }
    }

    fn cleanup(&mut self) {
        if self.state != WriterState::Closed {
            self.store.remove_object_chunks(&self.name);
            self.store.release_name(&self.name);
            self.state = WriterState::Closed;
        }
    }
}

impl Drop for ObjectWriter {
    fn drop(&mut self) {
        self.cleanup();
    }
}

impl std::fmt::Debug for ObjectWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectWriter")
            .field("name", &self.name)
            .field("bytes_written", &self.total)
            .field("stripes", &self.stripes)
            .finish()
    }
}

/// Stripe-at-a-time object serving; see the [module docs](self).
///
/// Created by [`BlockStore::reader`]. Metadata and per-stripe placement
/// are resolved once at creation; each [`ObjectReader::read_stripe`] then
/// costs exactly that stripe's chunk reads (plus rebuild work when
/// degraded), reusing one internal scratch across calls.
pub struct ObjectReader {
    store: Arc<BlockStore>,
    name: String,
    info: ObjectInfo,
    rows: Vec<Vec<usize>>,
    scratch: StripeScratch,
    degraded_stripes: u64,
    /// Per-stage time of the most recent `read_stripe` call.
    last_stage_times: StageTimes,
    /// Cumulative per-stage time across all `read_stripe` calls.
    stage_times: StageTimes,
}

impl ObjectReader {
    pub(crate) fn new(store: Arc<BlockStore>, name: &str) -> Result<Self> {
        let info = store.lookup(name)?;
        let rows = store.object_rows(name, info.stripes);
        let scratch = store.new_scratch();
        store.note_streamed_read(0, true);
        Ok(ObjectReader {
            store,
            name: name.to_string(),
            info,
            rows,
            scratch,
            degraded_stripes: 0,
            last_stage_times: StageTimes::new(),
            stage_times: StageTimes::new(),
        })
    }

    /// The object name being read.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The object's metadata (total length, stripe count).
    pub fn info(&self) -> ObjectInfo {
        self.info
    }

    /// Total payload length in bytes.
    pub fn len(&self) -> u64 {
        self.info.len
    }

    /// Whether the object is empty (zero stripes).
    pub fn is_empty(&self) -> bool {
        self.info.len == 0
    }

    /// Number of stripes.
    pub fn stripes(&self) -> u64 {
        self.info.stripes
    }

    /// The full-stripe payload size (`k × chunk_len`); every stripe but
    /// possibly the last carries exactly this many bytes.
    pub fn stripe_len(&self) -> usize {
        self.store.stripe_data_len()
    }

    /// Payload bytes carried by stripe `stripe` (the last stripe may be
    /// short).
    pub fn stripe_payload_len(&self, stripe: u64) -> usize {
        let full = self.store.stripe_data_len() as u64;
        let start = stripe * full;
        (self.info.len.saturating_sub(start)).min(full) as usize
    }

    /// Stripes served degraded so far by this reader.
    pub fn degraded_stripes(&self) -> u64 {
        self.degraded_stripes
    }

    /// Per-stage time (chunk I/O vs erasure arithmetic) of the most
    /// recent [`ObjectReader::read_stripe`] call — the per-stripe delta a
    /// serving tier ships with each response frame.
    pub fn last_stage_times(&self) -> StageTimes {
        self.last_stage_times
    }

    /// Cumulative per-stage time across every stripe this reader served.
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }

    /// Decodes stripe `stripe` into the front of `out`, transparently
    /// degrading when chunks are missing or corrupt. Returns the payload
    /// length (`stripe_payload_len`; bytes past it in `out` are padding)
    /// and whether the stripe was served degraded.
    ///
    /// `out` must hold at least [`ObjectReader::stripe_len`] bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::StripeUnrecoverable`] when too many chunks are lost,
    /// I/O failures, or [`StoreError::InvalidConfig`] for an out-of-range
    /// stripe or an undersized buffer.
    pub fn read_stripe(&mut self, stripe: u64, out: &mut [u8]) -> Result<(usize, bool)> {
        if stripe >= self.info.stripes {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "stripe {stripe} out of range for {:?} ({} stripes)",
                    self.name, self.info.stripes
                ),
            });
        }
        let stripe_len = self.store.stripe_data_len();
        if out.len() < stripe_len {
            return Err(StoreError::InvalidConfig {
                reason: format!(
                    "stripe buffer of {} bytes is smaller than the stripe ({stripe_len})",
                    out.len()
                ),
            });
        }
        // pbrs-lint: allow(panic-hygiene) -- stripe is bounded by rows.len(), which is a usize
        let row = &self.rows[usize::try_from(stripe).expect("stripe count fits usize")];
        let mut times = StageTimes::new();
        let degraded = self.store.read_stripe_into(
            &self.name,
            stripe,
            row,
            &mut out[..stripe_len],
            &mut self.scratch,
            &mut times,
        )?;
        self.last_stage_times = times;
        self.stage_times.merge(&times);
        if degraded {
            self.degraded_stripes += 1;
        }
        let payload = self.stripe_payload_len(stripe);
        self.store.note_streamed_read(payload as u64, false);
        Ok((payload, degraded))
    }
}

impl std::fmt::Debug for ObjectReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectReader")
            .field("name", &self.name)
            .field("len", &self.info.len)
            .field("stripes", &self.info.stripes)
            .field("degraded_stripes", &self.degraded_stripes)
            .finish()
    }
}

impl BlockStore {
    /// Opens a streaming writer for a new object `name`; see
    /// [`ObjectWriter`]. The name is reserved until the writer finishes
    /// or is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectExists`], [`StoreError::InvalidObjectName`],
    /// or disk preparation failures.
    pub fn writer(self: &Arc<Self>, name: &str) -> Result<ObjectWriter> {
        ObjectWriter::new(Arc::clone(self), name)
    }

    /// Opens a streaming reader over object `name`; see [`ObjectReader`].
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectNotFound`], or [`StoreError::ObjectDeleted`]
    /// for a tombstoned name.
    pub fn reader(self: &Arc<Self>, name: &str) -> Result<ObjectReader> {
        ObjectReader::new(Arc::clone(self), name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::testing::TempDir;
    use pbrs_erasure::CodeSpec;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    fn small_store(dir: &TempDir, spec: &str) -> Arc<BlockStore> {
        let spec: CodeSpec = spec.parse().unwrap();
        Arc::new(
            BlockStore::open(StoreConfig::new(dir.path().join("store"), spec).chunk_len(512))
                .unwrap(),
        )
    }

    #[test]
    fn streamed_write_matches_put_semantics() {
        let dir = TempDir::new("stream-write");
        let store = small_store(&dir, "rs-4-2");
        // 2.5 stripes, written in awkward piece sizes.
        let data = pattern(4 * 512 * 2 + 700);
        let mut writer = store.writer("obj").unwrap();
        for piece in data.chunks(333) {
            writer.write(piece).unwrap();
        }
        let info = writer.finish().unwrap();
        assert_eq!(info.len, data.len() as u64);
        assert_eq!(info.stripes, 3);
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn dropped_writer_leaves_no_trace_and_frees_the_name() {
        let dir = TempDir::new("stream-abort");
        let store = small_store(&dir, "rs-4-2");
        {
            let mut writer = store.writer("obj").unwrap();
            writer.write(&pattern(5000)).unwrap();
            // The name is reserved while the writer lives.
            assert!(matches!(
                store.writer("obj"),
                Err(StoreError::ObjectExists { .. })
            ));
            // Dropped without finish.
        }
        assert!(matches!(
            store.get("obj"),
            Err(StoreError::ObjectNotFound { .. })
        ));
        // The name is free again, and a clean ingest works.
        let data = pattern(1000);
        let mut writer = store.writer("obj").unwrap();
        writer.write(&data).unwrap();
        writer.finish().unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn panicking_encode_fails_the_write_and_frees_the_name() {
        let dir = TempDir::new("stream-panic");
        let store = small_store(&dir, "rs-4-2");
        let data = pattern(4 * 512 * 2 + 100);
        store.inject_encode_panic(true);
        let mut writer = store.writer("obj").unwrap();
        // The first full stripe flushes inside `write`: the panic comes
        // back as an error instead of unwinding into the caller.
        let result = writer.write(&data);
        assert!(
            matches!(result, Err(StoreError::WorkerPanic { .. })),
            "write must surface the encode panic: {result:?}"
        );
        assert!(writer.write(&data).is_err(), "a failed writer is poisoned");
        drop(writer);
        store.inject_encode_panic(false);
        assert!(store.objects().is_empty());
        // The name is free again, and a clean writer commits.
        let mut writer = store.writer("obj").unwrap();
        writer.write(&data).unwrap();
        writer.finish().unwrap();
        assert_eq!(store.get("obj").unwrap(), data);
    }

    #[test]
    fn reader_streams_stripes_healthy_and_degraded() {
        let dir = TempDir::new("stream-read");
        let store = small_store(&dir, "piggyback-4-2");
        let data = pattern(4 * 512 * 3 + 123);
        store.put("obj", &data[..]).unwrap();

        let mut reader = store.reader("obj").unwrap();
        assert_eq!(reader.len(), data.len() as u64);
        assert_eq!(reader.stripes(), 4);
        let mut out = vec![0u8; reader.stripe_len()];
        let mut served = Vec::new();
        for stripe in 0..reader.stripes() {
            let (len, degraded) = reader.read_stripe(stripe, &mut out).unwrap();
            assert!(!degraded, "healthy store must not degrade");
            served.extend_from_slice(&out[..len]);
        }
        assert_eq!(served, data);

        // Lose a data disk: the same reader API serves degraded and says so.
        std::fs::remove_dir_all(store.disk_path(1)).unwrap();
        let mut reader = store.reader("obj").unwrap();
        let mut served = Vec::new();
        for stripe in 0..reader.stripes() {
            let (len, degraded) = reader.read_stripe(stripe, &mut out).unwrap();
            assert!(degraded, "stripe {stripe} must report degraded");
            served.extend_from_slice(&out[..len]);
        }
        assert_eq!(served, data);
        assert_eq!(reader.degraded_stripes(), 4);
    }

    #[test]
    fn stage_times_and_latency_histograms_accumulate() {
        use pbrs_obs::Stage;
        let dir = TempDir::new("stream-stages");
        let store = small_store(&dir, "piggyback-4-2");
        let data = pattern(4 * 512 * 3);
        let mut writer = store.writer("obj").unwrap();
        writer.write(&data).unwrap();
        // Stripes have been flushed, so encode + chunk writes were timed.
        let wt = writer.stage_times();
        assert!(wt.get(Stage::ChunkIo) > 0, "writer chunk io untimed");
        writer.finish().unwrap();

        let mut out = vec![0u8; store.stripe_data_len()];
        let mut reader = store.reader("obj").unwrap();
        reader.read_stripe(0, &mut out).unwrap();
        let healthy = reader.last_stage_times();
        assert!(healthy.get(Stage::ChunkIo) > 0, "read chunk io untimed");
        assert_eq!(healthy.get(Stage::Erasure), 0, "healthy read ran erasure");
        assert_eq!(store.latency().healthy_stripe_read.count(), 1);

        // Lose a disk: degraded reads time the reconstruct and feed the
        // degraded histograms.
        std::fs::remove_dir_all(store.disk_path(0)).unwrap();
        let mut reader = store.reader("obj").unwrap();
        for stripe in 0..reader.stripes() {
            let (_, degraded) = reader.read_stripe(stripe, &mut out).unwrap();
            assert!(degraded);
        }
        let total = reader.stage_times();
        assert!(total.get(Stage::ChunkIo) > 0);
        let latency = store.latency();
        assert_eq!(latency.degraded_stripe_read.count(), 3);
        assert_eq!(latency.degraded_reconstruct.count(), 3);
        assert!(latency.degraded_reconstruct.p99() <= latency.degraded_stripe_read.max());
    }

    #[test]
    fn reader_of_deleted_object_sees_the_typed_error() {
        let dir = TempDir::new("stream-deleted");
        let store = small_store(&dir, "rs-4-2");
        store.put("obj", &pattern(100)[..]).unwrap();
        store.delete("obj").unwrap();
        assert!(matches!(
            store.reader("obj"),
            Err(StoreError::ObjectDeleted { .. })
        ));
        assert!(matches!(
            store.reader("never"),
            Err(StoreError::ObjectNotFound { .. })
        ));
    }

    #[test]
    fn empty_object_round_trips() {
        let dir = TempDir::new("stream-empty");
        let store = small_store(&dir, "rs-4-2");
        let writer = store.writer("empty").unwrap();
        let info = writer.finish().unwrap();
        assert_eq!(info.len, 0);
        assert_eq!(info.stripes, 0);
        let reader = store.reader("empty").unwrap();
        assert!(reader.is_empty());
        assert_eq!(store.get("empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn out_of_range_stripe_and_short_buffer_are_rejected() {
        let dir = TempDir::new("stream-bounds");
        let store = small_store(&dir, "rs-4-2");
        store.put("obj", &pattern(100)[..]).unwrap();
        let mut reader = store.reader("obj").unwrap();
        let mut out = vec![0u8; reader.stripe_len()];
        assert!(reader.read_stripe(5, &mut out).is_err());
        let mut short = vec![0u8; 8];
        assert!(reader.read_stripe(0, &mut short).is_err());
    }
}
