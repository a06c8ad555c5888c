//! The PolarFS service façade: chunk-server fleet, volume management, and
//! the adapters the DN layer consumes (page store, redo-log sink), plus the
//! bandwidth model used to cost bulk data movement.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use polardbx_common::{DcId, Error, Lsn, NodeId, Result};
use polardbx_wal::LogSink;

use crate::chunk::ChunkServer;
use crate::volume::{Volume, VolumeId};

/// PolarFS deployment parameters.
#[derive(Debug, Clone)]
pub struct PolarFsConfig {
    /// Chunk size in bytes. The real system uses 10 GB; the default here is
    /// scaled down so tests provision quickly. All invariants are
    /// size-independent.
    pub chunk_size: u64,
    /// Simulated I/O latency per majority-committed write.
    pub io_latency: Duration,
    /// Chunk servers per datacenter.
    pub servers_per_dc: usize,
}

impl Default for PolarFsConfig {
    fn default() -> Self {
        PolarFsConfig {
            chunk_size: 4 * 1024 * 1024,
            io_latency: Duration::ZERO,
            servers_per_dc: 3,
        }
    }
}

/// The storage service: one fleet of chunk servers per datacenter and a
/// registry of volumes. Volumes never span datacenters (§III: "our
/// cross-datacenter data replication is not achieved at the SN layer, but
/// at the DN layer").
pub struct PolarFs {
    config: PolarFsConfig,
    fleets: RwLock<BTreeMap<DcId, Vec<Arc<ChunkServer>>>>,
    volumes: RwLock<BTreeMap<VolumeId, (DcId, Arc<Volume>)>>,
    next_volume: std::sync::atomic::AtomicU64,
    next_node: std::sync::atomic::AtomicU64,
}

impl PolarFs {
    /// A fresh service with the given config.
    pub fn new(config: PolarFsConfig) -> Arc<PolarFs> {
        Arc::new(PolarFs {
            config,
            fleets: RwLock::new(BTreeMap::new()),
            volumes: RwLock::new(BTreeMap::new()),
            next_volume: std::sync::atomic::AtomicU64::new(1),
            next_node: std::sync::atomic::AtomicU64::new(9_000),
        })
    }

    /// Default-configured service.
    pub fn with_defaults() -> Arc<PolarFs> {
        PolarFs::new(PolarFsConfig::default())
    }

    fn fleet(&self, dc: DcId) -> Vec<Arc<ChunkServer>> {
        {
            let fleets = self.fleets.read();
            if let Some(f) = fleets.get(&dc) {
                return f.clone();
            }
        }
        let mut fleets = self.fleets.write();
        fleets
            .entry(dc)
            .or_insert_with(|| {
                (0..self.config.servers_per_dc)
                    .map(|_| {
                        let id = NodeId(
                            self.next_node
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                        );
                        ChunkServer::new(id, dc)
                    })
                    .collect()
            })
            .clone()
    }

    /// Add chunk servers to a DC's fleet (SN-layer scale-out, transparent to
    /// upper layers, §II-A).
    pub fn add_servers(&self, dc: DcId, count: usize) {
        let mut fleets = self.fleets.write();
        let fleet = fleets.entry(dc).or_default();
        for _ in 0..count {
            let id =
                NodeId(self.next_node.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
            fleet.push(ChunkServer::new(id, dc));
        }
    }

    /// Create a volume in `dc`.
    pub fn create_volume(&self, dc: DcId) -> Result<Arc<Volume>> {
        let id = VolumeId(
            self.next_volume.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let vol = Volume::new(id, self.config.chunk_size, self.config.io_latency, self.fleet(dc))?;
        self.volumes.write().insert(id, (dc, Arc::clone(&vol)));
        Ok(vol)
    }

    /// Open an existing volume. Shared storage: any DN in the same DC may
    /// open it — this is what lets an RO node read the RW node's data and
    /// lets tenant migration skip data copying.
    pub fn open_volume(&self, id: VolumeId) -> Result<Arc<Volume>> {
        self.volumes
            .read()
            .get(&id)
            .map(|(_, v)| Arc::clone(v))
            .ok_or_else(|| Error::storage(format!("unknown volume {id}")))
    }

    /// The datacenter a volume lives in.
    pub fn volume_dc(&self, id: VolumeId) -> Option<DcId> {
        self.volumes.read().get(&id).map(|(dc, _)| *dc)
    }

    /// Chunk servers of a DC (for failure injection in tests).
    pub fn servers(&self, dc: DcId) -> Vec<Arc<ChunkServer>> {
        self.fleet(dc)
    }
}

/// Fixed-size page store over a region of a volume — the DN buffer pool
/// flushes dirty pages here and reloads clean pages from here.
pub struct PageStore {
    volume: Arc<Volume>,
    page_size: u64,
    /// Byte offset where the page region starts (the log region precedes it).
    base: u64,
}

impl PageStore {
    /// A page store of `page_size`-byte pages starting at `base`.
    pub fn new(volume: Arc<Volume>, page_size: u64, base: u64) -> PageStore {
        assert!(page_size > 0);
        PageStore { volume, page_size, base }
    }

    /// Persist a page image. `data` may be shorter than the page size (the
    /// remainder reads back as zeros).
    pub fn write_page(&self, page_no: u64, data: Bytes) -> Result<()> {
        if data.len() as u64 > self.page_size {
            return Err(Error::storage(format!(
                "page image {} exceeds page size {}",
                data.len(),
                self.page_size
            )));
        }
        self.volume.write(self.base + page_no * self.page_size, data)
    }

    /// Read a full page image.
    pub fn read_page(&self, page_no: u64) -> Result<Vec<u8>> {
        self.volume.read(self.base + page_no * self.page_size, self.page_size as usize)
    }
}

/// Redo-log sink writing the log region of a volume: LSN maps directly to a
/// volume offset (log region starts at offset `base`).
pub struct VolumeLogSink {
    volume: Arc<Volume>,
    base: u64,
}

impl VolumeLogSink {
    /// A log sink whose LSN 0 lands at volume offset `base`.
    pub fn new(volume: Arc<Volume>, base: u64) -> Arc<VolumeLogSink> {
        Arc::new(VolumeLogSink { volume, base })
    }

    /// Read back `len` bytes of log starting at `lsn` (for replica catch-up
    /// and recovery).
    pub fn read(&self, lsn: Lsn, len: usize) -> Result<Vec<u8>> {
        self.volume.read(self.base + lsn.raw(), len)
    }
}

impl LogSink for VolumeLogSink {
    fn write(&self, at: Lsn, bytes: Bytes) -> Result<()> {
        self.volume.write(self.base + at.raw(), bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_wal::{LogBuffer, Mtr, RedoPayload};
    use polardbx_common::{Key, TableId, TrxId, Value};

    #[test]
    fn volume_lifecycle() {
        let fs = PolarFs::with_defaults();
        let v = fs.create_volume(DcId(1)).unwrap();
        let again = fs.open_volume(v.id()).unwrap();
        assert_eq!(Arc::as_ptr(&v), Arc::as_ptr(&again), "shared storage: same volume");
        assert_eq!(fs.volume_dc(v.id()), Some(DcId(1)));
        assert!(fs.open_volume(VolumeId(999)).is_err());
    }

    #[test]
    fn page_store_roundtrip() {
        let fs = PolarFs::new(PolarFsConfig { chunk_size: 1 << 16, ..Default::default() });
        let v = fs.create_volume(DcId(1)).unwrap();
        let ps = PageStore::new(v, 4096, 1 << 20);
        ps.write_page(0, Bytes::from_static(b"page-zero")).unwrap();
        ps.write_page(7, Bytes::from_static(b"page-seven")).unwrap();
        assert_eq!(&ps.read_page(0).unwrap()[..9], b"page-zero");
        assert_eq!(&ps.read_page(7).unwrap()[..10], b"page-seven");
        // Untouched pages read as zeros.
        assert!(ps.read_page(3).unwrap().iter().all(|&b| b == 0));
        // Oversized page rejected.
        assert!(ps.write_page(1, Bytes::from(vec![0u8; 5000])).is_err());
    }

    #[test]
    fn log_sink_over_volume() {
        let fs = PolarFs::with_defaults();
        let v = fs.create_volume(DcId(1)).unwrap();
        let sink = VolumeLogSink::new(Arc::clone(&v), 0);
        let buf = LogBuffer::new(sink.clone());
        let mtr = Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: TableId(1),
            key: Key::encode(&[Value::Int(5)]),
            row: Bytes::from_static(b"persisted"),
        });
        let (start, end) = buf.append_sync(&mtr).unwrap();
        let read_back = sink.read(start, (end.raw() - start.raw()) as usize).unwrap();
        let decoded = Mtr::decode(Bytes::from(read_back)).unwrap();
        assert_eq!(decoded, mtr);
    }

    #[test]
    fn sn_scale_out() {
        let fs = PolarFs::with_defaults();
        assert_eq!(fs.servers(DcId(1)).len(), 3);
        fs.add_servers(DcId(1), 2);
        assert_eq!(fs.servers(DcId(1)).len(), 5);
    }
}
