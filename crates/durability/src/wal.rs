//! The write-ahead log: CRC-framed append-only records with fsync
//! batching and longest-valid-prefix recovery.
//!
//! On-disk format — a fixed header followed by records:
//!
//! ```text
//! [magic  8B "MRCPWAL1"]
//! [len u32 LE][crc32 u32 LE of payload][payload len bytes]   × N
//! ```
//!
//! Appends are group-committed: each framed record joins an in-memory
//! batch, and [`Wal::sync`] (driven by [`WalConfig::sync_every`]) writes
//! the whole batch with one `write` and then makes the prefix durable with
//! one `fdatasync`. A batch that outgrows a fixed 64 KiB is written early
//! without a sync, so a log's memory stays bounded whatever the cadence.
//! A batch reaches the file only through [`Wal::sync`], that spill or
//! [`Wal::flush`] — never through `Drop`: a simulated crash truncates the
//! file by path ([`Wal::drop_unsynced`]) while the dead `Wal` is still
//! alive, and a flushing drop would write the lost tail back past the
//! truncation point.
//!
//! Reopening a log after a crash scans from the front and keeps the
//! **longest valid prefix**: the scan stops at the first record whose
//! length field runs past the end of the file (torn tail), whose length is
//! implausible (corrupted length field), or whose payload fails its CRC
//! (bit rot / partial write). CRC-32 detects every single-bit flip, so a
//! corrupted record cannot be replayed as valid; the file is truncated
//! back to the surviving prefix so subsequent appends continue from a
//! clean tail.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Log file magic, also the format version.
pub const WAL_MAGIC: &[u8; 8] = b"MRCPWAL1";

/// Largest payload a record may carry (16 MiB). A length field beyond
/// this is treated as corruption, bounding how much a flipped length bit
/// can make recovery read.
pub const MAX_RECORD_LEN: u32 = 16 << 20;

/// A batch longer than this is written to the file without a sync.
const SPILL_BYTES: usize = 64 << 10;

/// Write-ahead log knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Write the batch and fsync after every `sync_every`-th appended
    /// record (1 = every append is durable before the call returns;
    /// larger batches trade a bounded tail of re-deliverable commands for
    /// append throughput).
    pub sync_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { sync_every: 1 }
    }
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    cfg: WalConfig,
    /// Framed records appended but not yet written to the file.
    batch: Vec<u8>,
    /// Records appended since the last sync.
    unsynced: u64,
    /// Total records in the log, the batch included.
    records: u64,
    /// Byte length of the durable (synced) prefix.
    synced_len: u64,
    /// Current byte length of the file (the batch not included).
    len: u64,
}

/// CRC-32 (IEEE 802.3), table-driven. The table is built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

impl Wal {
    /// Create a fresh, empty log at `path` (truncating any existing file)
    /// and sync the header.
    pub fn create(path: &Path, cfg: WalConfig) -> io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            cfg,
            batch: Vec::new(),
            unsynced: 0,
            records: 0,
            synced_len: WAL_MAGIC.len() as u64,
            len: WAL_MAGIC.len() as u64,
        })
    }

    /// Reopen a log after a crash: keep the longest valid prefix of
    /// records (truncating the file past it) and return the log
    /// positioned for appending together with the surviving payloads.
    pub fn recover(path: &Path, cfg: WalConfig) -> io::Result<(Wal, Vec<Vec<u8>>)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a WAL file (bad magic)",
            ));
        }
        let mut records = Vec::new();
        let mut pos = WAL_MAGIC.len();
        loop {
            if pos + 8 > bytes.len() {
                break; // torn frame header
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            if len > MAX_RECORD_LEN {
                break; // implausible length: corrupted header
            }
            let end = pos + 8 + len as usize;
            if end > bytes.len() {
                break; // torn payload
            }
            let payload = &bytes[pos + 8..end];
            if crc32(payload) != crc {
                break; // payload corruption
            }
            records.push(payload.to_vec());
            pos = end;
        }
        file.set_len(pos as u64)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(pos as u64))?;
        let n = records.len() as u64;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                cfg,
                batch: Vec::new(),
                unsynced: 0,
                records: n,
                synced_len: pos as u64,
                len: pos as u64,
            },
            records,
        ))
    }

    /// Append one record to the batch; syncs per
    /// [`WalConfig::sync_every`]. A payload longer than
    /// [`MAX_RECORD_LEN`] is refused with [`io::ErrorKind::InvalidInput`]
    /// and leaves the log as it was: recovery would read its length as
    /// corruption and drop it together with every later record.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&n| n <= MAX_RECORD_LEN)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "WAL record of {} bytes exceeds the {MAX_RECORD_LEN}-byte limit",
                        payload.len()
                    ),
                )
            })?;
        self.batch.extend_from_slice(&len.to_le_bytes());
        self.batch.extend_from_slice(&crc32(payload).to_le_bytes());
        self.batch.extend_from_slice(payload);
        self.records += 1;
        self.unsynced += 1;
        if self.unsynced >= self.cfg.sync_every.max(1) {
            self.sync()
        } else if self.batch.len() > SPILL_BYTES {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Write the batch to the file, without a sync: the records become
    /// visible to a reader of the file, and survive a process crash but
    /// not a power loss.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.batch.is_empty() {
            self.file.write_all(&self.batch)?;
            self.len += self.batch.len() as u64;
            self.batch.clear();
            // One large record must not pin its buffer for the log's life.
            self.batch.shrink_to(2 * SPILL_BYTES);
        }
        Ok(())
    }

    /// Write the batch and force the whole log durable.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()?;
        self.unsynced = 0;
        self.synced_len = self.len;
        Ok(())
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the durable prefix — what would survive a crash
    /// that loses all unsynced data (e.g. power loss). The crash
    /// simulation truncates the file to this before recovering.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Simulate losing every byte past the durable prefix (power-loss
    /// semantics for fsync batching): truncate the file to
    /// [`synced_len`](Self::synced_len). The `Wal` must be dropped and
    /// re-[`recover`](Self::recover)ed afterwards; dropping it writes
    /// nothing, so its batch dies with it.
    pub fn drop_unsynced(path: &Path, synced_len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(synced_len)?;
        file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mrcp-wal-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path, WalConfig::default()).unwrap();
        for i in 0..10u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        drop(wal);
        let (wal, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        assert_eq!(wal.records(), 10);
        assert_eq!(records.len(), 10);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.as_slice(), (i as u32).to_le_bytes());
        }
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path, WalConfig::default()).unwrap();
        for i in 0..5u32 {
            wal.append(&[i as u8; 20]).unwrap();
        }
        drop(wal);
        // Tear the last record in half.
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let (wal, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        assert_eq!(records.len(), 4);
        // The torn bytes are gone from disk; appends continue cleanly.
        let mut wal = wal;
        wal.append(&[9; 20]).unwrap();
        drop(wal);
        let (_, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], vec![9; 20]);
    }

    #[test]
    fn flipped_bit_truncates_from_corruption_point() {
        let path = tmp("flip");
        let mut wal = Wal::create(&path, WalConfig::default()).unwrap();
        for i in 0..5u32 {
            wal.append(&[i as u8; 20]).unwrap();
        }
        drop(wal);
        // Flip one payload bit in record 2 (header 8 + 2×28 frames + 8).
        let mut bytes = fs::read(&path).unwrap();
        let off = 8 + 2 * 28 + 8 + 3;
        bytes[off] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (_, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        assert_eq!(records.len(), 2, "records before the flip survive");
        assert_eq!(records[0], vec![0u8; 20]);
        assert_eq!(records[1], vec![1u8; 20]);
    }

    /// A record recovery would take for a corrupted length is refused at
    /// append, in every build, and the log before it stays whole.
    #[test]
    fn oversize_record_is_refused_and_earlier_records_survive() {
        let path = tmp("oversize");
        let mut wal = Wal::create(&path, WalConfig::default()).unwrap();
        for i in 0..3u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let big = vec![7u8; MAX_RECORD_LEN as usize + 1];
        let err = wal.append(&big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(wal.records(), 3);
        wal.append(&3u32.to_le_bytes()).unwrap();
        drop(wal);
        let (_, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        let expect: Vec<Vec<u8>> = (0..4u32).map(|i| i.to_le_bytes().to_vec()).collect();
        assert_eq!(records, expect);
    }

    /// Group commit: an appended record stays in memory until a sync, a
    /// flush or the spill past `SPILL_BYTES` writes its batch.
    #[test]
    fn appended_records_reach_the_file_only_through_sync_flush_or_spill() {
        let path = tmp("batch");
        let file_len = || fs::metadata(&path).unwrap().len();
        let header = WAL_MAGIC.len() as u64;
        let mut wal = Wal::create(&path, WalConfig { sync_every: 4 }).unwrap();
        for i in 0..3u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(file_len(), header, "three records wait in the batch");
        wal.flush().unwrap();
        assert_eq!(file_len(), header + 3 * 12);
        assert_eq!(wal.synced_len(), header, "a flush does not sync");
        wal.append(&3u32.to_le_bytes()).unwrap();
        assert_eq!(file_len(), header + 4 * 12, "the fourth append syncs");
        assert_eq!(wal.synced_len(), header + 4 * 12);

        let never = WalConfig {
            sync_every: u64::MAX,
        };
        let mut wal = Wal::create(&path, never).unwrap();
        let record = [5u8; 1_016];
        let frames_per_spill = SPILL_BYTES / (8 + record.len()) + 1;
        for _ in 0..frames_per_spill - 1 {
            wal.append(&record).unwrap();
        }
        assert_eq!(file_len(), header);
        wal.append(&record).unwrap();
        let spilled = header + (frames_per_spill * (8 + record.len())) as u64;
        assert_eq!(file_len(), spilled, "the batch spills past 64 KiB");
        assert_eq!(wal.synced_len(), header, "a spill does not sync");
        wal.append(&record).unwrap();
        wal.sync().unwrap();
        assert_eq!(file_len(), spilled + 8 + record.len() as u64);
        drop(wal);
        let (_, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        assert_eq!(records.len(), frames_per_spill + 1);
    }

    /// Power loss keeps only the synced prefix: records written by a flush
    /// but not synced are truncated away, and dropping the `Wal` afterwards
    /// writes nothing — the dead log's batch must not land past the
    /// truncation point.
    #[test]
    fn drop_unsynced_models_power_loss() {
        let path = tmp("powerloss");
        let mut wal = Wal::create(&path, WalConfig { sync_every: 100 }).unwrap();
        for i in 0..3u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap();
        for i in 3..5u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        wal.flush().unwrap();
        for i in 5..7u32 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let synced = wal.synced_len();
        Wal::drop_unsynced(&path, synced).unwrap();
        drop(wal);
        assert_eq!(fs::metadata(&path).unwrap().len(), synced);
        let (_, records) = Wal::recover(&path, WalConfig::default()).unwrap();
        assert_eq!(records.len(), 3, "only the synced prefix survives");
    }
}
