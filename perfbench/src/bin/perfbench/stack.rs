//! Building the shipped stack (chunkd servers → store → gateway) the way
//! a workload asks for it, and tearing it down.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pbrs_chunkd::{ChunkServer, RemoteDisk};
use pbrs_gateway::{Gateway, GatewayClient, GatewayConfig};
use pbrs_store::{
    BlockStore, ChunkBackend, ChunkId, LocalDisk, PlacementPolicy, RackMap, StoreConfig,
};

use crate::backend::{ProbeDisk, Recorder};
use crate::link::Link;
use crate::oracle;

/// Disks in every pool: one per shard of a 10+4 code, each its own rack.
pub const POOL: usize = 14;

/// What a workload fixes about the stack; everything else is the
/// program's shipped default.
#[derive(Debug, Clone)]
pub struct StackSpec {
    pub code: &'static str,
    pub chunk_len: usize,
    /// Disks are chunkd servers on loopback (else local directories).
    pub remote: bool,
    pub placement: PlacementPolicy,
    /// Read bandwidth of each rack's uplink, bytes/s, when the workload
    /// shapes its racks; `None` leaves the disks as they are.
    pub rack_rate: Option<f64>,
}

/// One object of a population: name, oracle key and length.
#[derive(Debug, Clone)]
pub struct Object {
    pub name: String,
    pub key: u64,
    pub len: u64,
}

pub struct Stack {
    pub dir: PathBuf,
    pub servers: Vec<ChunkServer>,
    pub remotes: Vec<Arc<RemoteDisk>>,
    pub store: Arc<BlockStore>,
    pub gateway: Gateway,
    pub rec: Arc<Recorder>,
    pub link: Option<Arc<Link>>,
}

impl Stack {
    pub fn build(dir: &Path, spec: &StackSpec, epoch: Instant) -> std::io::Result<Stack> {
        fs::create_dir_all(dir)?;
        let rec = Recorder::new(epoch);
        let link = spec.rack_rate.map(|rate| Arc::new(Link::new(POOL, rate)));
        let mut servers = Vec::new();
        let mut remotes = Vec::new();
        let inner: Vec<Arc<dyn ChunkBackend>> = if spec.remote {
            for i in 0..POOL {
                let server = ChunkServer::bind(dir.join(format!("srv-{i:02}")), "127.0.0.1:0")?;
                let remote = Arc::new(RemoteDisk::new(server.local_addr().to_string()));
                remotes.push(Arc::clone(&remote));
                servers.push(server);
            }
            remotes
                .iter()
                .map(|r| Arc::clone(r) as Arc<dyn ChunkBackend>)
                .collect()
        } else {
            (0..POOL)
                .map(|i| {
                    Arc::new(LocalDisk::new(dir.join(format!("disk-{i:02}"))))
                        as Arc<dyn ChunkBackend>
                })
                .collect()
        };
        // Disk i is rack i's only disk, so its reads pay uplink i.
        let disks = inner
            .into_iter()
            .enumerate()
            .map(|(i, disk)| ProbeDisk::wrap(disk, i, link.clone(), Arc::clone(&rec)))
            .collect();
        let code = spec.code.parse().map_err(std::io::Error::other)?;
        let store = Arc::new(
            BlockStore::open_with_backends(
                StoreConfig::new(dir.join("root"), code).chunk_len(spec.chunk_len),
                disks,
                RackMap::per_disk(POOL),
                spec.placement,
            )
            .map_err(std::io::Error::other)?,
        );
        let gateway = Gateway::serve(Arc::clone(&store), "127.0.0.1:0", GatewayConfig::default())?;
        Ok(Stack {
            dir: dir.to_path_buf(),
            servers,
            remotes,
            store,
            gateway,
            rec,
            link,
        })
    }

    /// Root directory of pool disk `disk`.
    pub fn disk_root(&self, disk: usize) -> PathBuf {
        match self.servers.get(disk) {
            Some(server) => server.root().to_path_buf(),
            None => self.dir.join(format!("disk-{disk:02}")),
        }
    }

    /// Ingests `objects` through the gateway, one PUT at a time; returns
    /// each PUT's latency in ms.
    pub fn ingest(&self, objects: &[Object]) -> Result<Vec<f64>, String> {
        let mut client =
            GatewayClient::connect(self.gateway.local_addr()).map_err(|e| e.to_string())?;
        let mut lat = Vec::with_capacity(objects.len());
        for o in objects {
            let data = oracle::content(o.key, o.len as usize);
            let t = Instant::now();
            let (len, _) = client
                .put(&o.name, &data)
                .map_err(|e| format!("PUT {}: {e}", o.name))?;
            lat.push(t.elapsed().as_secs_f64() * 1000.0);
            if len != o.len {
                return Err(format!("PUT {} stored {len} of {} bytes", o.name, o.len));
            }
        }
        Ok(lat)
    }

    /// Deletes the chunk of data shard 0 in every stripe of `name`, so
    /// every stripe of it reads degraded.
    pub fn wound(&self, name: &str) -> std::io::Result<()> {
        let info = self.store.lookup(name).map_err(std::io::Error::other)?;
        for stripe in 0..info.stripes {
            let disk = self.store.stripe_disks(name, stripe)[0];
            let path =
                LocalDisk::new(self.disk_root(disk)).chunk_path(name, ChunkId { stripe, shard: 0 });
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Bytes of every file under the stack's directory: chunk files with
    /// their headers, the manifest, and anything else the store keeps.
    pub fn stored_bytes(&self) -> u64 {
        dir_bytes(&self.dir)
    }

    /// Stops the gateway, store and servers. The files stay: on a file
    /// system mounted with online discard, blocks freed by a deletion are
    /// slow to allocate again, so deleting them would slow every later
    /// set-up (see the README).
    pub fn stop(self) {
        self.gateway.shutdown();
        drop(self.store);
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// Fsyncs directory `dir`, which waits for the file system to commit
/// every earlier change, removals from `dir` included. On a file system
/// mounted with online discard a commit also discards the blocks freed
/// since the last one, so this makes a pending deletion pay its cost now
/// instead of inside a later timed phase. Errors are ignored: the only
/// loss is that the cost lands later.
pub fn settle(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// A seeded population: `count` objects named `prefix-NNNN` with lengths
/// drawn uniformly from `[min_len, max_len]`.
pub fn population(
    seed: u64,
    prefix: &str,
    count: usize,
    min_len: usize,
    max_len: usize,
) -> Vec<Object> {
    let mut rng = oracle::Rng::new(seed ^ oracle::content_key(0, prefix, 0));
    (0..count)
        .map(|i| {
            let name = format!("{prefix}-{i:04}");
            let len = (min_len + rng.below(max_len - min_len + 1)) as u64;
            Object {
                key: oracle::content_key(seed, &name, 0),
                name,
                len,
            }
        })
        .collect()
}
